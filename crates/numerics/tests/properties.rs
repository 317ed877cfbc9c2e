//! Property-based tests for the exact arithmetic substrate: ring/field axioms,
//! ordering consistency, parse/display round-trips, and division invariants.

use privmech_numerics::{BigInt, Rational, Sign};
use proptest::prelude::*;

fn with_sign(v: BigInt, negative: bool) -> BigInt {
    if negative {
        -v
    } else {
        v
    }
}

/// A limb biased towards the values that break carry and normalization
/// logic.
fn arb_limb() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        any::<u64>(),
        Just(0u64),
        Just(1u64),
        Just(u64::MAX)
    ]
}

/// Exactly three to eight limbs (the top one non-zero): past the inline
/// storage into the heap, through the Lehmer gcd and multi-limb Knuth
/// division.
fn arb_wide_bigint() -> impl Strategy<Value = BigInt> {
    (prop::collection::vec(arb_limb(), 3..=8), any::<bool>()).prop_map(|(mut limbs, neg)| {
        let top = limbs.last_mut().expect("at least three limbs");
        *top = (*top).max(1);
        BigInt::from_sign_limbs(if neg { Sign::Negative } else { Sign::Positive }, limbs)
    })
}

/// `±(2^(64k) + offset)` for `k` in 1..=5 and `offset` in -1..=1: the limb
/// boundaries 2⁶⁴−1, 2⁶⁴, 2¹²⁸±1 and the inline/heap boundary at 2²⁵⁶.
fn arb_boundary_bigint() -> impl Strategy<Value = BigInt> {
    (1usize..=5, -1i64..=1, any::<bool>()).prop_map(|(k, offset, neg)| {
        with_sign(BigInt::one().shl_bits(64 * k) + BigInt::from(offset), neg)
    })
}

fn arb_bigint() -> impl Strategy<Value = BigInt> {
    // Mix small values with products of large factors so multi-limb paths are hit.
    prop_oneof![
        any::<i64>().prop_map(BigInt::from),
        (any::<i128>(), any::<u64>()).prop_map(|(a, b)| BigInt::from(a) * BigInt::from(b)),
        (any::<i128>(), any::<i128>())
            .prop_map(|(a, b)| BigInt::from(a) * BigInt::from(b) + BigInt::from(1i64)),
        arb_wide_bigint(),
        arb_boundary_bigint(),
    ]
}

fn arb_nonzero_bigint() -> impl Strategy<Value = BigInt> {
    arb_bigint().prop_map(|v| if v.is_zero() { BigInt::one() } else { v })
}

fn arb_rational() -> impl Strategy<Value = Rational> {
    prop_oneof![
        (any::<i64>(), 1i64..=1_000_000i64, any::<bool>()).prop_map(|(n, d, neg)| {
            let r = Rational::from_ratio(n, d);
            if neg {
                -r
            } else {
                r
            }
        }),
        // Multi-limb numerators and denominators, normalized by `new`.
        (arb_bigint(), arb_nonzero_bigint()).prop_map(|(n, d)| Rational::new(n, d)),
        // A shared wide factor, so normalization has real work to do.
        (arb_bigint(), arb_nonzero_bigint(), arb_wide_bigint())
            .prop_map(|(n, d, k)| Rational::new(&n * &k, &d * &k)),
    ]
}

/// The bit-serial binary gcd this crate used before its Lehmer kernel:
/// one shift-and-subtract round per bit, built only from `BigInt`'s public
/// ring operations. Slow, but shares nothing with the fast gcd paths, so it
/// serves as their oracle.
fn reference_gcd(a: &BigInt, b: &BigInt) -> BigInt {
    let (mut a, mut b) = (a.abs(), b.abs());
    if a.is_zero() {
        return b;
    }
    if b.is_zero() {
        return a;
    }
    let shift = a.trailing_zeros().min(b.trailing_zeros());
    a = a.shr_bits(a.trailing_zeros());
    b = b.shr_bits(b.trailing_zeros());
    loop {
        // a and b are both odd here.
        match a.cmp(&b) {
            std::cmp::Ordering::Equal => return a.shl_bits(shift),
            std::cmp::Ordering::Less => std::mem::swap(&mut a, &mut b),
            std::cmp::Ordering::Greater => {}
        }
        a = &a - &b;
        a = a.shr_bits(a.trailing_zeros());
    }
}

/// Lowest terms with a positive denominator, checked with the oracle gcd.
fn is_canonical(r: &Rational) -> bool {
    r.denom().is_positive() && reference_gcd(r.numer(), r.denom()).is_one()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bigint_add_commutes(a in arb_bigint(), b in arb_bigint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn bigint_add_associates(a in arb_bigint(), b in arb_bigint(), c in arb_bigint()) {
        prop_assert_eq!((&a + &b) + &c, &a + (&b + &c));
    }

    #[test]
    fn bigint_mul_commutes_and_distributes(a in arb_bigint(), b in arb_bigint(), c in arb_bigint()) {
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&a * (&b + &c), &a * &b + &a * &c);
    }

    #[test]
    fn bigint_sub_is_add_neg(a in arb_bigint(), b in arb_bigint()) {
        prop_assert_eq!(&a - &b, &a + &(-b.clone()));
        prop_assert_eq!(&a - &a, BigInt::zero());
    }

    #[test]
    fn bigint_divrem_reconstructs(a in arb_bigint(), b in arb_bigint()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert_eq!(&q * &b + &r, a.clone());
        prop_assert!(r.abs() < b.abs());
        // Truncated division: remainder has the sign of the dividend (or is zero).
        if !r.is_zero() {
            prop_assert_eq!(r.is_negative(), a.is_negative());
        }
    }

    #[test]
    fn bigint_display_parse_roundtrip(a in arb_bigint()) {
        let s = a.to_string();
        let back: BigInt = s.parse().unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn bigint_ordering_consistent_with_subtraction(a in arb_bigint(), b in arb_bigint()) {
        let diff = &a - &b;
        prop_assert_eq!(a > b, diff.is_positive());
        prop_assert_eq!(a == b, diff.is_zero());
    }

    #[test]
    fn bigint_gcd_divides_both_and_is_nonnegative(a in arb_bigint(), b in arb_bigint()) {
        let g = a.gcd(&b);
        prop_assert!(!g.is_negative());
        if !g.is_zero() {
            prop_assert!((&a % &g).is_zero());
            prop_assert!((&b % &g).is_zero());
        } else {
            prop_assert!(a.is_zero() && b.is_zero());
        }
    }

    #[test]
    fn bigint_gcd_is_maximal_and_matches_the_reference(a in arb_bigint(), b in arb_bigint()) {
        let g = a.gcd(&b);
        prop_assert_eq!(&g, &reference_gcd(&a, &b));
        prop_assert_eq!(&g, &b.gcd(&a));
        if !g.is_zero() {
            // Maximality: nothing is left in common once g is divided out.
            prop_assert!((&a / &g).gcd(&(&b / &g)).is_one());
        }
    }

    #[test]
    fn bigint_gcd_recovers_a_planted_factor(x in arb_bigint(), y in arb_bigint(), f in arb_nonzero_bigint()) {
        // gcd(x·f, y·f) = |f|·gcd(x, y): a wide common factor drives the
        // Lehmer loop through many steps before the cofactors separate.
        let g = (&x * &f).gcd(&(&y * &f));
        prop_assert_eq!(g, &f.abs() * &reference_gcd(&x, &y));
    }

    #[test]
    fn bigint_shift_matches_pow2_mul(a in arb_bigint(), k in 0usize..130) {
        let shifted = a.shl_bits(k);
        let pow2 = BigInt::from(2i64).pow(k as u32);
        prop_assert_eq!(shifted.clone(), &a * &pow2);
        prop_assert_eq!(shifted.shr_bits(k), a);
    }

    #[test]
    fn rational_field_axioms(a in arb_rational(), b in arb_rational(), c in arb_rational()) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!((&a + &b) + &c, &a + (&b + &c));
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!((&a * &b) * &c, &a * (&b * &c));
        prop_assert_eq!(&a * (&b + &c), &a * &b + &a * &c);
        prop_assert_eq!(&a + &Rational::zero(), a.clone());
        prop_assert_eq!(&a * &Rational::one(), a.clone());
        prop_assert_eq!(&a - &a, Rational::zero());
        if !a.is_zero() {
            prop_assert_eq!(&a * &a.recip(), Rational::one());
            prop_assert_eq!(&a / &a, Rational::one());
        }
    }

    #[test]
    fn rational_ops_return_canonical_form(a in arb_rational(), b in arb_rational(), c in arb_rational()) {
        let sum = &a + &b;
        let diff = &a - &b;
        let prod = &a * &b;
        prop_assert!(is_canonical(&sum) && is_canonical(&diff) && is_canonical(&prod));
        if !b.is_zero() {
            prop_assert!(is_canonical(&(&a / &b)));
        }
        let fused_sub = a.sub_mul(&b, &c);
        let fused_add = a.add_mul(&b, &c);
        prop_assert!(is_canonical(&fused_sub) && is_canonical(&fused_add));
        prop_assert_eq!(fused_sub, &a - &(&b * &c));
        prop_assert_eq!(fused_add, &a + &(&b * &c));
    }

    #[test]
    fn rational_normalization_canonical(n in any::<i64>(), d in 1i64..=1_000_000i64, k in 1i64..=1000i64) {
        // Scaling numerator and denominator by the same factor yields the same value.
        let a = Rational::from_ratio(n, d);
        let b = Rational::new(
            BigInt::from(n) * BigInt::from(k),
            BigInt::from(d) * BigInt::from(k),
        );
        prop_assert_eq!(a, b);
    }

    #[test]
    fn rational_ordering_translation_invariant(a in arb_rational(), b in arb_rational(), c in arb_rational()) {
        prop_assert_eq!(a < b, &a + &c < &b + &c);
    }

    #[test]
    fn rational_display_parse_roundtrip(a in arb_rational()) {
        let s = a.to_string();
        let back: Rational = s.parse().unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn rational_to_f64_close(n in -1_000_000i64..1_000_000i64, d in 1i64..=1_000_000i64) {
        let r = Rational::from_ratio(n, d);
        let f = r.to_f64();
        let direct = n as f64 / d as f64;
        prop_assert!((f - direct).abs() <= 1e-9 * direct.abs().max(1.0));
    }

    #[test]
    fn rational_floor_ceil_round_bracket(a in arb_rational()) {
        let fl = Rational::from(a.floor());
        let ce = Rational::from(a.ceil());
        prop_assert!(fl <= a && a <= ce);
        prop_assert!(&ce - &fl <= Rational::one());
        let rounded = Rational::from(a.round());
        prop_assert!((rounded - &a).abs() <= Rational::from_ratio(1, 2));
    }

    #[test]
    fn rational_from_f64_exact_roundtrip(x in -1e12f64..1e12f64) {
        let r = Rational::from_f64_exact(x).unwrap();
        prop_assert_eq!(r.to_f64(), x);
    }
}

// ---------------------------------------------------------------------------
// Small-value fast-path agreement (perf rework regression tests).
//
// BigInt add/sub/mul/cmp/gcd take an inline single-limb path when both
// operands fit in one 64-bit limb. These properties pin the fast path to two
// independent references on randomized u64-boundary inputs: (a) an `i128`
// model of the arithmetic, and (b) the multi-limb slow path itself, reached
// by shifting both operands 64 bits up (which forces two-limb
// representations while preserving the algebra).
// ---------------------------------------------------------------------------

/// Mix of boundary-heavy and uniform single-limb magnitudes.
fn arb_u64_boundary() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(u64::MAX),
        Just(u64::MAX - 1),
        Just(1u64 << 63),
        Just((1u64 << 63) - 1),
        Just((1u64 << 32) - 1),
        Just(1u64 << 32),
        any::<u64>(),
    ]
}

fn arb_small_bigint() -> impl Strategy<Value = BigInt> {
    (arb_u64_boundary(), any::<bool>()).prop_map(|(mag, neg)| {
        let v = BigInt::from(mag);
        if neg {
            -v
        } else {
            v
        }
    })
}

/// Signed `i128` view of a single-limb BigInt (reference model).
fn as_i128(v: &BigInt) -> i128 {
    v.to_i128().expect("single-limb value fits i128")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn small_add_sub_match_i128_reference(a in arb_small_bigint(), b in arb_small_bigint()) {
        prop_assert_eq!(as_i128(&(&a + &b)), as_i128(&a) + as_i128(&b));
        prop_assert_eq!(as_i128(&(&a - &b)), as_i128(&a) - as_i128(&b));
    }

    #[test]
    fn small_mul_matches_u128_reference(a in arb_u64_boundary(), b in arb_u64_boundary()) {
        let prod = BigInt::from(a) * BigInt::from(b);
        prop_assert_eq!(prod.to_string(), (a as u128 * b as u128).to_string());
        let neg_prod = -BigInt::from(a) * BigInt::from(b);
        prop_assert_eq!((-neg_prod).to_string(), (a as u128 * b as u128).to_string());
    }

    #[test]
    fn small_cmp_matches_i128_reference(a in arb_small_bigint(), b in arb_small_bigint()) {
        prop_assert_eq!(a.cmp(&b), as_i128(&a).cmp(&as_i128(&b)));
    }

    #[test]
    fn fast_path_agrees_with_multi_limb_slow_path(a in arb_small_bigint(), b in arb_small_bigint()) {
        // x -> x << 64 is an injective ring homomorphism onto two-limb values
        // for + and -, and scales products by 2^128: every identity below
        // forces the slow path on the left and the fast path on the right.
        let (wa, wb) = (a.shl_bits(64), b.shl_bits(64));
        prop_assert_eq!(&wa + &wb, (&a + &b).shl_bits(64));
        prop_assert_eq!(&wa - &wb, (&a - &b).shl_bits(64));
        prop_assert_eq!(&wa * &wb, (&a * &b).shl_bits(128));
    }

    #[test]
    fn small_gcd_matches_euclid_reference(a in arb_u64_boundary(), b in arb_u64_boundary()) {
        // Reference: schoolbook Euclid on u64.
        let (mut x, mut y) = (a, b);
        while y != 0 {
            let t = x % y;
            x = y;
            y = t;
        }
        prop_assert_eq!(BigInt::from(a).gcd(&BigInt::from(b)), BigInt::from(x));
    }

    #[test]
    fn gcd_fast_and_slow_paths_agree(a in arb_u64_boundary(), b in arb_u64_boundary(), k in 1usize..=70) {
        // gcd(a·2^k, b·2^k) = gcd(a, b)·2^k: with k >= 1 the left side runs
        // the multi-limb kernels (Knuth-D reduction, the u128 binary gcd,
        // Lehmer) whenever a or b is large, while the right side runs the
        // u64 fast path.
        let g_shifted = BigInt::from(a).shl_bits(k).gcd(&BigInt::from(b).shl_bits(k));
        let g_small = BigInt::from(a).gcd(&BigInt::from(b)).shl_bits(k);
        prop_assert_eq!(g_shifted, g_small);
    }

    #[test]
    fn small_divrem_matches_i128_reference(a in arb_small_bigint(), b in arb_small_bigint()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert_eq!(as_i128(&q), as_i128(&a) / as_i128(&b));
        prop_assert_eq!(as_i128(&r), as_i128(&a) % as_i128(&b));
    }

    #[test]
    fn knuth_division_reconstructs_on_wide_inputs(
        a in arb_u64_boundary(), b in arb_u64_boundary(),
        c in arb_u64_boundary(), d in arb_u64_boundary(),
        shift in 0usize..=130,
    ) {
        // Multi-limb dividend (up to ~4 limbs) over multi-limb divisor
        // exercises Algorithm D including its rare correction branch.
        let dividend = (BigInt::from(a) * BigInt::from(b)).shl_bits(shift) + BigInt::from(c);
        let divisor = BigInt::from(d).shl_bits(shift / 2) + BigInt::one();
        let (q, r) = dividend.div_rem(&divisor);
        prop_assert_eq!(&q * &divisor + &r, dividend);
        prop_assert!(r.abs() < divisor.abs());
    }
}

// ---------------------------------------------------------------------------
// Fused eta-vector operations (PR 4): `sub_mul` / `add_mul` power the revised
// simplex's FTRAN/BTRAN kernels. Their single-limb fast path (one u128 gcd on
// machine integers) must agree with the generic mul-then-add/sub path on both
// sides of the 2³¹ magnitude window, including the boundary itself.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fused_sub_mul_matches_unfused_small(
        a in -40i64..=40, b in 1i64..=40,
        c in -40i64..=40, d in 1i64..=40,
        e in -40i64..=40, f in 1i64..=40,
    ) {
        let (x, y, z) = (Rational::from_ratio(a, b), Rational::from_ratio(c, d), Rational::from_ratio(e, f));
        prop_assert_eq!(x.sub_mul(&y, &z), &x - &(&y * &z));
        prop_assert_eq!(x.add_mul(&y, &z), &x + &(&y * &z));
    }

    #[test]
    fn fused_ops_agree_across_the_fast_path_boundary(
        base in prop::collection::vec((1i64..=3, 0i64..=2), 6),
        offset in -2i64..=2,
    ) {
        // Components straddling 2³¹: (2³¹ + offset) · scale, with some
        // components small — mixes fast-path hits, misses, and the exact
        // window edges.
        let limit = 1i64 << 31;
        let comp = |i: usize| -> i64 {
            let (scale, sel) = base[i];
            match sel {
                0 => scale,                 // tiny: inside the window
                1 => limit - scale,         // just inside
                _ => limit + scale + offset.abs(), // outside: generic path
            }
        };
        let x = Rational::from_ratio(comp(0) * offset.signum().max(-1), comp(1));
        let y = Rational::from_ratio(comp(2), comp(3));
        let z = Rational::from_ratio(-comp(4), comp(5));
        prop_assert_eq!(x.sub_mul(&y, &z), &x - &(&y * &z));
        prop_assert_eq!(x.add_mul(&y, &z), &x + &(&y * &z));
    }

    #[test]
    fn fused_ops_handle_zero_operands(
        a in -9i64..=9, b in 1i64..=9,
    ) {
        let x = Rational::from_ratio(a, b);
        let zero = Rational::zero();
        prop_assert_eq!(x.sub_mul(&zero, &x), x.clone());
        prop_assert_eq!(x.sub_mul(&x, &zero), x.clone());
        prop_assert_eq!(zero.sub_mul(&x, &x), -(&x * &x));
        prop_assert_eq!(x.add_mul(&zero, &zero), x.clone());
    }
}
