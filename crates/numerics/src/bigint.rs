//! Arbitrary-precision signed integers.
//!
//! The representation is a sign flag plus little-endian 64-bit limbs. The
//! magnitude is always normalized: no trailing zero limbs, and zero has no
//! limbs and [`Sign::Zero`]. Up to four limbs (256 bits) are stored inline
//! in the value; wider magnitudes spill to a heap vector.
//!
//! # Cost profile
//!
//! The exact simplex works on values 64–256 bits wide: the FTRAN results
//! and basic-solution entries of an exact n = 14 `DirectLp` solve (578
//! pivots) have numerators of 64–196 bits. When every magnitude lived in
//! its own `Vec` and gcd was a bit-serial binary loop, that solve spent 80%
//! of its time in [`BigInt::gcd`] (6.84 M calls, most of them reducing a
//! `Rational` to lowest terms) and made 54.8 M heap allocations. Hence:
//!
//! * **Inline limbs.** Values up to 256 bits, and the scratch space of
//!   products and divisions of such values, never touch the allocator; the
//!   same solve now makes 5.7 M allocations.
//! * **A gcd dispatched on operand width**: one short division and a `u64`
//!   binary gcd when an operand is one limb; a Knuth-D reduction of the
//!   longer operand first; a `u128` binary gcd for two limbs; Lehmer's
//!   algorithm (TAOCP 4.5.2) above that, updating both operands in place.
//!
//! Together these run the solve about 3× faster. Every ring operation
//! (add/sub/mul/cmp, div_rem) still takes a single-limb fast path first;
//! the multi-limb substrate stays schoolbook multiplication and Knuth
//! Algorithm D long division (TAOCP 4.3.1), which at these widths are not
//! where the time goes.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

/// Sign of a [`BigInt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Positive,
}

impl Sign {
    /// Flip the sign; zero stays zero.
    #[must_use]
    pub fn negate(self) -> Sign {
        match self {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        }
    }

    /// Product-of-signs rule.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // not an `ops::Mul` impl: takes/returns plain signs
    pub fn mul(self, other: Sign) -> Sign {
        match (self, other) {
            (Sign::Zero, _) | (_, Sign::Zero) => Sign::Zero,
            (Sign::Positive, Sign::Positive) | (Sign::Negative, Sign::Negative) => Sign::Positive,
            _ => Sign::Negative,
        }
    }
}

/// An arbitrary-precision signed integer.
#[derive(Clone)]
pub struct BigInt {
    sign: Sign,
    /// Little-endian 64-bit limbs of the magnitude; normalized (no trailing
    /// zeros).
    limbs: Limbs,
}

// Equality, hashing and debug output go through the limb slice, so they do
// not depend on whether a magnitude is stored inline or on the heap.
impl PartialEq for BigInt {
    fn eq(&self, other: &BigInt) -> bool {
        self.sign == other.sign && *self.limbs == *other.limbs
    }
}

impl Eq for BigInt {}

impl std::hash::Hash for BigInt {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.sign.hash(state);
        self.limbs.hash(state);
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BigInt")
            .field("sign", &self.sign)
            .field("limbs", &&*self.limbs)
            .finish()
    }
}

/// Error returned when parsing a [`BigInt`] or
/// [`Rational`](crate::rational::Rational) from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNumError {
    /// Human-readable description of the failure.
    pub message: String,
}

impl fmt::Display for ParseNumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseNumError {}

// ---------------------------------------------------------------------------
// Limb storage
// ---------------------------------------------------------------------------

/// Limbs a [`BigInt`] stores inline before its magnitude spills to the heap:
/// 256 bits covers the FTRAN and basic-solution values of the exact simplex.
const INLINE_LIMBS: usize = 4;

/// Capacity of the on-stack scratch buffers behind products of two inline
/// magnitudes and normalized Knuth-D operands.
const SCRATCH_LIMBS: usize = 2 * INLINE_LIMBS + 1;

/// A little-endian limb buffer holding up to `N` limbs inline and spilling to
/// a `Vec` above that.
#[derive(Clone)]
enum LimbBuf<const N: usize> {
    Inline { len: u8, buf: [u64; N] },
    Heap(Vec<u64>),
}

/// Storage of a [`BigInt`] magnitude.
type Limbs = LimbBuf<INLINE_LIMBS>;

/// Working space for one intermediate result.
type Scratch = LimbBuf<SCRATCH_LIMBS>;

impl<const N: usize> LimbBuf<N> {
    fn new() -> Self {
        LimbBuf::Inline {
            len: 0,
            buf: [0; N],
        }
    }

    /// `len` zero limbs.
    fn zeroed(len: usize) -> Self {
        if len <= N {
            LimbBuf::Inline {
                len: len as u8,
                buf: [0; N],
            }
        } else {
            LimbBuf::Heap(vec![0; len])
        }
    }

    fn from_slice(limbs: &[u64]) -> Self {
        let mut out = Self::zeroed(limbs.len());
        out.copy_from_slice(limbs);
        out
    }

    /// Take over `limbs`, moving them inline when they fit.
    fn from_vec(limbs: Vec<u64>) -> Self {
        let mut out = LimbBuf::Heap(limbs);
        out.normalize();
        out
    }

    /// Re-home the contents in a buffer of another inline capacity, reusing
    /// a heap allocation when there is one.
    fn into_buf<const M: usize>(self) -> LimbBuf<M> {
        match self {
            LimbBuf::Heap(v) => LimbBuf::from_vec(v),
            inline => {
                let mut out = LimbBuf::<M>::from_slice(&inline);
                out.normalize();
                out
            }
        }
    }

    fn push(&mut self, limb: u64) {
        match self {
            LimbBuf::Inline { len, buf } if usize::from(*len) < N => {
                buf[usize::from(*len)] = limb;
                *len += 1;
            }
            LimbBuf::Inline { buf, .. } => {
                let mut v = Vec::with_capacity(2 * N);
                v.extend_from_slice(buf);
                v.push(limb);
                *self = LimbBuf::Heap(v);
            }
            LimbBuf::Heap(v) => v.push(limb),
        }
    }

    /// Zero-extend to `new_len` limbs (no-op when already that long).
    fn zero_extend(&mut self, new_len: usize) {
        while self.len() < new_len {
            self.push(0);
        }
    }

    /// Drop high zero limbs; a heap buffer whose contents now fit inline
    /// moves back inline.
    fn normalize(&mut self) {
        let used = self.iter().rposition(|&l| l != 0).map_or(0, |i| i + 1);
        match self {
            LimbBuf::Inline { len, .. } => *len = used as u8,
            LimbBuf::Heap(v) if used <= N => *self = LimbBuf::from_slice(&v[..used]),
            LimbBuf::Heap(v) => v.truncate(used),
        }
    }
}

impl<const N: usize> std::ops::Deref for LimbBuf<N> {
    type Target = [u64];
    #[inline]
    fn deref(&self) -> &[u64] {
        match self {
            LimbBuf::Inline { len, buf } => &buf[..usize::from(*len)],
            LimbBuf::Heap(v) => v,
        }
    }
}

impl<const N: usize> std::ops::DerefMut for LimbBuf<N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            LimbBuf::Inline { len, buf } => &mut buf[..usize::from(*len)],
            LimbBuf::Heap(v) => v,
        }
    }
}

// ---------------------------------------------------------------------------
// Limb-level helpers (magnitude arithmetic on &[u64])
// ---------------------------------------------------------------------------

fn mag_cmp(a: &[u64], b: &[u64]) -> Ordering {
    a.len()
        .cmp(&b.len())
        .then_with(|| a.iter().rev().cmp(b.iter().rev()))
}

fn mag_add(a: &[u64], b: &[u64]) -> Limbs {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Limbs::zeroed(long.len());
    let mut carry = false;
    for (i, (o, &x)) in out.iter_mut().zip(long).enumerate() {
        let (s1, c1) = x.overflowing_add(short.get(i).copied().unwrap_or(0));
        let (s2, c2) = s1.overflowing_add(u64::from(carry));
        *o = s2;
        carry = c1 | c2;
    }
    if carry {
        out.push(1);
    }
    out
}

/// Requires `a >= b` (as magnitudes).
fn mag_sub(a: &[u64], b: &[u64]) -> Limbs {
    debug_assert!(mag_cmp(a, b) != Ordering::Less);
    let mut out = Limbs::zeroed(a.len());
    let mut borrow = false;
    for (i, (o, &x)) in out.iter_mut().zip(a).enumerate() {
        let (d1, b1) = x.overflowing_sub(b.get(i).copied().unwrap_or(0));
        let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
        *o = d2;
        borrow = b1 | b2;
    }
    out.normalize();
    out
}

fn mag_mul(a: &[u64], b: &[u64]) -> Limbs {
    if a.is_empty() || b.is_empty() {
        return Limbs::new();
    }
    let mut out = Scratch::zeroed(a.len() + b.len());
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u64;
        for (o, &bj) in out[i..].iter_mut().zip(b) {
            let cur = *o as u128 + ai as u128 * bj as u128 + carry as u128;
            *o = cur as u64;
            carry = (cur >> 64) as u64;
        }
        // Row i has not reached this limb yet, so the carry lands on a zero.
        out[i + b.len()] = carry;
    }
    out.into_buf()
}

/// Divide magnitude by a single limb, returning (quotient, remainder).
fn mag_div_limb(a: &[u64], d: u64) -> (Limbs, u64) {
    assert!(d != 0, "division by zero");
    let mut out = Limbs::zeroed(a.len());
    let mut rem = 0u64;
    for (o, &x) in out.iter_mut().zip(a).rev() {
        // One double-word division per limb; the remainder follows from the
        // quotient (`rem < d`, so the quotient fits a limb).
        let cur = ((rem as u128) << 64) | x as u128;
        let q = (cur / d as u128) as u64;
        rem = (cur - q as u128 * d as u128) as u64;
        *o = q;
    }
    out.normalize();
    (out, rem)
}

/// `a mod d` for a single non-zero limb `d`.
fn mag_rem_limb(a: &[u64], d: u64) -> u64 {
    a.iter().rev().fold(0u64, |rem, &x| {
        ((((rem as u128) << 64) | x as u128) % d as u128) as u64
    })
}

fn mag_bits(a: &[u64]) -> usize {
    match a.last() {
        None => 0,
        Some(&top) => 64 * (a.len() - 1) + (64 - top.leading_zeros() as usize),
    }
}

/// Write `src << shift` (`shift < 64`) into `dst`, which must hold the
/// shifted value: one limb longer than `src` receives the carry-out.
fn shl_into(src: &[u64], shift: u32, dst: &mut [u64]) {
    debug_assert!(shift < 64 && dst.len() >= src.len());
    let mut carry = 0u64;
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = (x << shift) | carry;
        carry = if shift == 0 { 0 } else { x >> (64 - shift) };
    }
    match dst.get_mut(src.len()) {
        Some(top) => *top = carry,
        None => debug_assert_eq!(carry, 0, "shifted value overflows its buffer"),
    }
}

fn mag_shl(a: &[u64], bits: usize) -> Limbs {
    if a.is_empty() {
        return Limbs::new();
    }
    let limb_shift = bits / 64;
    let mut out = Limbs::zeroed((mag_bits(a) + bits).div_ceil(64));
    shl_into(a, (bits % 64) as u32, &mut out[limb_shift..]);
    out
}

fn mag_shr(a: &[u64], bits: usize) -> Limbs {
    let limb_shift = bits / 64;
    let bit_shift = bits % 64;
    if limb_shift >= a.len() {
        return Limbs::new();
    }
    let src = &a[limb_shift..];
    let mut out = Limbs::zeroed(src.len());
    for (i, o) in out.iter_mut().enumerate() {
        *o = src[i] >> bit_shift;
        if bit_shift != 0 && i + 1 < src.len() {
            *o |= src[i + 1] << (64 - bit_shift);
        }
    }
    out.normalize();
    out
}

/// Number of trailing zero bits of a non-zero magnitude.
fn mag_trailing_zeros(a: &[u64]) -> usize {
    for (i, &l) in a.iter().enumerate() {
        if l != 0 {
            return i * 64 + l.trailing_zeros() as usize;
        }
    }
    0
}

/// Long division on magnitudes. Returns (quotient, remainder).
fn mag_divrem(a: &[u64], b: &[u64]) -> (Limbs, Limbs) {
    assert!(!b.is_empty(), "division by zero");
    if mag_cmp(a, b) == Ordering::Less {
        return (Limbs::new(), Limbs::from_slice(a));
    }
    if b.len() == 1 {
        let (q, r) = mag_div_limb(a, b[0]);
        return (q, limbs_from_u128(u128::from(r)));
    }
    let mut q = Limbs::zeroed(a.len() - b.len() + 1);
    let r = knuth_divrem(a, b, Some(&mut q));
    q.normalize();
    (q, r)
}

/// `a mod b` on magnitudes (`b` non-zero), skipping the quotient.
fn mag_rem(a: &[u64], b: &[u64]) -> Limbs {
    if mag_cmp(a, b) == Ordering::Less {
        return Limbs::from_slice(a);
    }
    if b.len() == 1 {
        return limbs_from_u128(u128::from(mag_rem_limb(a, b[0])));
    }
    knuth_divrem(a, b, None)
}

/// Knuth's Algorithm D (TAOCP 4.3.1) with 64-bit limbs, for `a >= b` and
/// `b` of at least two limbs. Writes the `a.len() − b.len() + 1` quotient
/// digits to `quotient` when given and returns the remainder. Operands of
/// up to `SCRATCH_LIMBS − 1` limbs are normalized on the stack.
fn knuth_divrem(a: &[u64], b: &[u64], mut quotient: Option<&mut [u64]>) -> Limbs {
    let n = b.len();
    debug_assert!(n >= 2 && a.len() >= n);
    // Normalize so the divisor's top limb has its high bit set; this keeps
    // the 2-limb quotient estimate within one of the true digit.
    let shift = b[n - 1].leading_zeros();
    let mut bn_buf = Scratch::zeroed(n);
    shl_into(b, shift, &mut bn_buf);
    let mut an_buf = Scratch::zeroed(a.len() + 1);
    shl_into(a, shift, &mut an_buf);
    let (bn, an): (&[u64], &mut [u64]) = (&bn_buf, &mut an_buf);

    let m = an.len() - n; // number of quotient digits
    let top = bn[n - 1] as u128;
    let next = bn[n - 2] as u128;
    for j in (0..m).rev() {
        // Estimate the quotient digit from the top limbs.
        let num = ((an[j + n] as u128) << 64) | an[j + n - 1] as u128;
        let mut qhat = num / top;
        let mut rhat = num - qhat * top;
        while qhat >> 64 != 0 || qhat * next > ((rhat << 64) | an[j + n - 2] as u128) {
            qhat -= 1;
            rhat += top;
            if rhat >> 64 != 0 {
                break;
            }
        }

        // an[j..=j+n] -= qhat * bn
        let mut mul_carry: u128 = 0;
        let mut borrow: u64 = 0;
        for i in 0..n {
            let p = qhat * bn[i] as u128 + mul_carry;
            mul_carry = p >> 64;
            let (d1, b1) = an[j + i].overflowing_sub(p as u64);
            let (d2, b2) = d1.overflowing_sub(borrow);
            an[j + i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        let (d1, b1) = an[j + n].overflowing_sub(mul_carry as u64);
        let (d2, b2) = d1.overflowing_sub(borrow);
        an[j + n] = d2;

        if b1 || b2 {
            // The estimate was one too large (rare): add the divisor back.
            qhat -= 1;
            let mut carry: u128 = 0;
            for i in 0..n {
                let s = an[j + i] as u128 + bn[i] as u128 + carry;
                an[j + i] = s as u64;
                carry = s >> 64;
            }
            an[j + n] = an[j + n].wrapping_add(carry as u64);
        }
        if let Some(q) = quotient.as_deref_mut() {
            q[j] = qhat as u64;
        }
    }
    mag_shr(&an[..n], shift as usize)
}

// ---------------------------------------------------------------------------
// Greatest common divisor
// ---------------------------------------------------------------------------

/// Binary GCD on machine words.
fn u64_gcd(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Binary GCD on double words, dropping to [`u64_gcd`] once both operands
/// fit one word.
pub(crate) fn u128_gcd(mut a: u128, mut b: u128) -> u128 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        if b >> 64 == 0 {
            return u128::from(u64_gcd(a as u64, b as u64)) << shift;
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// The normalized magnitude of `v`.
fn limbs_from_u128(v: u128) -> Limbs {
    let (lo, hi) = (v as u64, (v >> 64) as u64);
    let mut buf = [0; INLINE_LIMBS];
    buf[..2].copy_from_slice(&[lo, hi]);
    let len = if hi != 0 { 2 } else { u8::from(lo != 0) };
    Limbs::Inline { len, buf }
}

fn limbs_to_u128(a: &[u64]) -> u128 {
    debug_assert!(a.len() <= 2);
    a.iter()
        .rev()
        .fold(0u128, |acc, &l| (acc << 64) | u128::from(l))
}

/// Greatest common divisor of two magnitudes:
///
/// 1. a one-limb operand takes one short division, then [`u64_gcd`];
/// 2. otherwise the longer operand is first reduced modulo the shorter;
/// 3. two-limb operands finish in [`u128_gcd`];
/// 4. wider operands run Lehmer's algorithm (TAOCP 4.5.2, Algorithm L),
///    falling back to a Knuth-D Euclid step when the single-word
///    simulation cannot advance.
///
/// Operands of up to [`INLINE_LIMBS`] limbs stay on the stack throughout;
/// wider ones are copied to the heap once, and Lehmer updates then run in
/// place.
fn mag_gcd(a: &[u64], b: &[u64]) -> Limbs {
    let (a, b) = if mag_cmp(a, b) == Ordering::Less {
        (b, a)
    } else {
        (a, b)
    };
    match b.len() {
        0 => return Limbs::from_slice(a),
        1 => return limbs_from_u128(u128::from(u64_gcd(b[0], mag_rem_limb(a, b[0])))),
        _ => {}
    }
    let (mut a, mut b) = if a.len() > b.len() {
        (Limbs::from_slice(b), mag_rem(a, b))
    } else {
        (Limbs::from_slice(a), Limbs::from_slice(b))
    };
    // Invariant: a >= b.
    loop {
        match b.len() {
            0 => return a,
            1 => return limbs_from_u128(u128::from(u64_gcd(b[0], mag_rem_limb(&a, b[0])))),
            _ if a.len() <= 2 => {
                return limbs_from_u128(u128_gcd(limbs_to_u128(&a), limbs_to_u128(&b)));
            }
            _ => {}
        }
        let step = if a.len() <= b.len() + 1 {
            lehmer_simulate(&a, &b)
        } else {
            None
        };
        match step {
            Some(cofactors) => lehmer_update(&mut a, &mut b, &cofactors),
            None => {
                let r = mag_rem(&a, &b);
                a = std::mem::replace(&mut b, r);
            }
        }
    }
}

/// Cosequence of a simulated run of Euclid steps: the new pair is
/// `a' = ±(u0·a − v0·b)`, `b' = ±(v1·b − u1·a)`, with the signs fixed by
/// the parity of the number of steps (`even`: `a' = u0·a − v0·b`,
/// `b' = v1·b − u1·a`; odd: both negated).
struct Cofactors {
    u0: u64,
    u1: u64,
    v0: u64,
    v1: u64,
    even: bool,
}

/// Simulate Euclid steps on the leading word of `a >= b` (`b` of at least
/// two limbs, `a` at most one limb longer) with Collins' stopping condition
/// (Jebelean 1995, §4.2), which guarantees every simulated quotient is the
/// true one. Returns `None` when fewer than two steps are certain, so the
/// caller has to take a full-precision step instead.
fn lehmer_simulate(a: &[u64], b: &[u64]) -> Option<Cofactors> {
    let (n, m) = (a.len(), b.len());
    debug_assert!(m >= 2 && (n == m || n == m + 1));
    // The top word of `a` and the same bit window of `b`.
    let h = a[n - 1].leading_zeros();
    let window = |hi: u64, lo: u64| {
        if h == 0 {
            hi
        } else {
            (hi << h) | (lo >> (64 - h))
        }
    };
    let mut a1 = window(a[n - 1], a[n - 2]);
    let mut a2 = if n == m {
        window(b[n - 1], b[n - 2])
    } else {
        window(0, b[n - 2])
    };
    let (mut u0, mut u1, mut u2) = (0u64, 1u64, 0u64);
    let (mut v0, mut v1, mut v2) = (0u64, 0u64, 1u64);
    let mut even = false;
    // The cosequences stay below the leading words, so nothing overflows.
    while a2 >= v2 && a1 - a2 >= v1 + v2 {
        let q = a1 / a2;
        (a1, a2) = (a2, a1 - q * a2);
        (u0, u1, u2) = (u1, u2, u1 + q * u2);
        (v0, v1, v2) = (v1, v2, v1 + q * v2);
        even = !even;
    }
    (v0 != 0).then_some(Cofactors {
        u0,
        u1,
        v0,
        v1,
        even,
    })
}

/// One limb of `p·x − q·y` over a running carry pair and borrow.
#[derive(Default)]
struct MulSub {
    pos_carry: u64,
    neg_carry: u64,
    borrow: bool,
}

impl MulSub {
    #[inline]
    fn step(&mut self, p: u64, x: u64, q: u64, y: u64) -> u64 {
        let s = p as u128 * x as u128 + self.pos_carry as u128;
        let t = q as u128 * y as u128 + self.neg_carry as u128;
        self.pos_carry = (s >> 64) as u64;
        self.neg_carry = (t >> 64) as u64;
        let (d1, b1) = (s as u64).overflowing_sub(t as u64);
        let (d2, b2) = d1.overflowing_sub(u64::from(self.borrow));
        self.borrow = b1 | b2;
        d2
    }

    /// True when nothing is left above the top limb, i.e. the result fit.
    fn is_settled(&self) -> bool {
        u128::from(self.pos_carry) == u128::from(self.neg_carry) + u128::from(self.borrow)
    }
}

/// Apply simulated cofactors to `(a, b)` in one pass, in place.
fn lehmer_update(a: &mut Limbs, b: &mut Limbs, c: &Cofactors) {
    b.zero_extend(a.len());
    // even: a' = u0·a − v0·b, b' = v1·b − u1·a; odd: a' = v0·b − u0·a,
    // b' = u1·a − v1·b. Below `a' = pa·x − qa·y` and `b' = pb·y − qb·x`
    // with (x, y) = (a, b) on even parity and (b, a) on odd.
    let (pa, qa, pb, qb) = if c.even {
        (c.u0, c.v0, c.v1, c.u1)
    } else {
        (c.v0, c.u0, c.u1, c.v1)
    };
    let (mut ka, mut kb) = (MulSub::default(), MulSub::default());
    for (ai, bi) in a.iter_mut().zip(b.iter_mut()) {
        let (x, y) = if c.even { (*ai, *bi) } else { (*bi, *ai) };
        *ai = ka.step(pa, x, qa, y);
        *bi = kb.step(pb, y, qb, x);
    }
    debug_assert!(ka.is_settled() && kb.is_settled());
    a.normalize();
    b.normalize();
    debug_assert!(mag_cmp(a, b) != Ordering::Less);
}

// ---------------------------------------------------------------------------
// BigInt public API
// ---------------------------------------------------------------------------

impl BigInt {
    /// The integer 0.
    #[must_use]
    pub fn zero() -> BigInt {
        BigInt {
            sign: Sign::Zero,
            limbs: Limbs::new(),
        }
    }

    /// The integer 1.
    #[must_use]
    pub fn one() -> BigInt {
        BigInt::from(1u64)
    }

    /// Construct from a sign and raw little-endian limbs (normalizing).
    #[must_use]
    pub fn from_sign_limbs(sign: Sign, limbs: Vec<u64>) -> BigInt {
        BigInt::from_mag(sign, Limbs::from_vec(limbs))
    }

    /// Construct from a sign and a magnitude (normalizing).
    fn from_mag(sign: Sign, mut limbs: Limbs) -> BigInt {
        limbs.normalize();
        if limbs.is_empty() {
            return BigInt::zero();
        }
        let sign = if sign == Sign::Zero {
            Sign::Positive
        } else {
            sign
        };
        BigInt { sign, limbs }
    }

    /// A magnitude of at most two limbs with the given sign.
    fn from_u128_mag(sign: Sign, mag: u128) -> BigInt {
        if mag == 0 {
            return BigInt::zero();
        }
        let sign = if sign == Sign::Zero {
            Sign::Positive
        } else {
            sign
        };
        BigInt {
            sign,
            limbs: limbs_from_u128(mag),
        }
    }

    /// The sign of this integer.
    #[must_use]
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// True iff the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// True iff the value is one.
    #[must_use]
    pub fn is_one(&self) -> bool {
        self.sign == Sign::Positive && *self.limbs == [1]
    }

    /// True iff the value is strictly negative.
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    /// True iff the value is strictly positive.
    #[must_use]
    pub fn is_positive(&self) -> bool {
        self.sign == Sign::Positive
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(&self) -> BigInt {
        if self.sign == Sign::Negative {
            BigInt {
                sign: Sign::Positive,
                limbs: self.limbs.clone(),
            }
        } else {
            self.clone()
        }
    }

    /// Number of significant bits of the magnitude (0 for zero).
    #[must_use]
    pub fn bit_length(&self) -> usize {
        mag_bits(&self.limbs)
    }

    /// True iff the magnitude is even.
    #[must_use]
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l % 2 == 0)
    }

    /// Shift the magnitude left by `bits` (sign preserved).
    #[must_use]
    pub fn shl_bits(&self, bits: usize) -> BigInt {
        BigInt::from_mag(self.sign, mag_shl(&self.limbs, bits))
    }

    /// Shift the magnitude right by `bits` (truncating towards zero in magnitude).
    #[must_use]
    pub fn shr_bits(&self, bits: usize) -> BigInt {
        BigInt::from_mag(self.sign, mag_shr(&self.limbs, bits))
    }

    /// Euclidean division returning `(quotient, remainder)` with
    /// `self = quotient * divisor + remainder` and the remainder having the
    /// sign of `self` (truncated division, like Rust's `/` and `%` on
    /// primitive integers).
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    #[must_use]
    pub fn div_rem(&self, divisor: &BigInt) -> (BigInt, BigInt) {
        assert!(!divisor.is_zero(), "BigInt division by zero");
        let q_sign = self.sign.mul(divisor.sign);
        let r_sign = self.sign;
        // Single-limb fast path: machine division.
        if self.limbs.len() <= 1 && divisor.limbs.len() <= 1 {
            let a = self.limbs.first().copied().unwrap_or(0);
            let d = divisor.limbs[0];
            return (
                BigInt::from_u128_mag(q_sign, u128::from(a / d)),
                BigInt::from_u128_mag(r_sign, u128::from(a % d)),
            );
        }
        let (q_mag, r_mag) = mag_divrem(&self.limbs, &divisor.limbs);
        (
            BigInt::from_mag(q_sign, q_mag),
            BigInt::from_mag(r_sign, r_mag),
        )
    }

    /// Greatest common divisor of the magnitudes (always non-negative).
    ///
    /// One-limb operands take a short division and a `u64` binary GCD,
    /// two-limb operands a `u128` binary GCD, and wider ones Lehmer's
    /// algorithm; none of these allocate for operands of up to four limbs.
    #[must_use]
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        BigInt::from_mag(Sign::Positive, mag_gcd(&self.limbs, &other.limbs))
    }

    /// Number of trailing zero bits of the magnitude (0 for zero).
    #[must_use]
    pub fn trailing_zeros(&self) -> usize {
        mag_trailing_zeros(&self.limbs)
    }

    /// Raise to a non-negative integer power.
    #[must_use]
    pub fn pow(&self, mut exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            base = &base * &base;
            exp >>= 1;
        }
        acc
    }

    /// Convert to `i64` if the value fits.
    #[must_use]
    pub fn to_i64(&self) -> Option<i64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => {
                let mag = self.limbs[0];
                match self.sign {
                    Sign::Positive => i64::try_from(mag).ok(),
                    Sign::Negative => {
                        if mag <= i64::MAX as u64 + 1 {
                            Some(-(mag as i128) as i64)
                        } else {
                            None
                        }
                    }
                    Sign::Zero => Some(0),
                }
            }
            _ => None,
        }
    }

    /// Convert to `i128` if the value fits.
    #[must_use]
    pub fn to_i128(&self) -> Option<i128> {
        if self.limbs.len() > 2 {
            return None;
        }
        let mut mag: u128 = 0;
        for (i, &l) in self.limbs.iter().enumerate() {
            mag |= (l as u128) << (64 * i);
        }
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive => i128::try_from(mag).ok(),
            Sign::Negative => {
                if mag <= i128::MAX as u128 + 1 {
                    Some(mag.wrapping_neg() as i128)
                } else {
                    None
                }
            }
        }
    }

    /// Best-effort conversion to `f64` (may lose precision; never panics).
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        let bits = self.bit_length();
        let val = if bits <= 64 {
            self.limbs.first().copied().unwrap_or(0) as f64
        } else {
            // Take the top 64 bits and scale.
            let shift = bits - 64;
            let top = self.shr_bits(shift);
            let mantissa = top.limbs.first().copied().unwrap_or(0) as f64;
            mantissa * 2f64.powi(shift as i32)
        };
        match self.sign {
            Sign::Negative => -val,
            _ => val,
        }
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

macro_rules! impl_from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> BigInt {
                let v = v as i128;
                if v == 0 {
                    return BigInt::zero();
                }
                let sign = if v < 0 { Sign::Negative } else { Sign::Positive };
                BigInt::from_u128_mag(sign, v.unsigned_abs())
            }
        }
    )*};
}

macro_rules! impl_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> BigInt {
                BigInt::from_u128_mag(Sign::Positive, v as u128)
            }
        }
    )*};
}

impl_from_signed!(i8, i16, i32, i64, i128, isize);
impl_from_unsigned!(u8, u16, u32, u64, u128, usize);

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        use Sign::*;
        match (self.sign, other.sign) {
            (Negative, Negative) => mag_cmp(&other.limbs, &self.limbs),
            (Negative, _) => Ordering::Less,
            (Zero, Negative) => Ordering::Greater,
            (Zero, Zero) => Ordering::Equal,
            (Zero, Positive) => Ordering::Less,
            (Positive, Positive) => mag_cmp(&self.limbs, &other.limbs),
            (Positive, _) => Ordering::Greater,
        }
    }
}

// Arithmetic on references; owned variants delegate.
//
// All three ring operations take a **small-value fast path** when both
// operands fit in a single limb: the arithmetic happens in one or two machine
// operations on `i128`/`u128` before falling back to the general limb loops.
// LP tableaus over `Rational` spend most of their life in exactly this regime,
// so the fast path is the difference between a pivot being a handful of ALU
// instructions and a tour through heap-allocating vector code.

impl BigInt {
    /// Signed `i128` view of a value known to fit in one limb.
    #[inline]
    fn small_i128(&self) -> i128 {
        let mag = self.limbs.first().copied().unwrap_or(0) as i128;
        match self.sign {
            Sign::Negative => -mag,
            _ => mag,
        }
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        if self.limbs.len() <= 1 && rhs.limbs.len() <= 1 {
            return BigInt::from(self.small_i128() + rhs.small_i128());
        }
        match (self.sign, rhs.sign) {
            (Sign::Zero, _) => rhs.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt::from_mag(a, mag_add(&self.limbs, &rhs.limbs)),
            _ => {
                // Different signs: subtract smaller magnitude from larger.
                match mag_cmp(&self.limbs, &rhs.limbs) {
                    Ordering::Equal => BigInt::zero(),
                    Ordering::Greater => {
                        BigInt::from_mag(self.sign, mag_sub(&self.limbs, &rhs.limbs))
                    }
                    Ordering::Less => BigInt::from_mag(rhs.sign, mag_sub(&rhs.limbs, &self.limbs)),
                }
            }
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        if self.limbs.len() <= 1 && rhs.limbs.len() <= 1 {
            return BigInt::from(self.small_i128() - rhs.small_i128());
        }
        // Mirror of addition with the right-hand sign flipped, without
        // materializing a negated clone of `rhs`.
        match (self.sign, rhs.sign) {
            (_, Sign::Zero) => self.clone(),
            (Sign::Zero, _) => {
                let mut out = rhs.clone();
                out.sign = out.sign.negate();
                out
            }
            (a, b) if a != b => BigInt::from_mag(a, mag_add(&self.limbs, &rhs.limbs)),
            _ => match mag_cmp(&self.limbs, &rhs.limbs) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => BigInt::from_mag(self.sign, mag_sub(&self.limbs, &rhs.limbs)),
                Ordering::Less => {
                    BigInt::from_mag(self.sign.negate(), mag_sub(&rhs.limbs, &self.limbs))
                }
            },
        }
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        if self.limbs.len() <= 1 && rhs.limbs.len() <= 1 {
            let mag = self.limbs.first().copied().unwrap_or(0) as u128
                * rhs.limbs.first().copied().unwrap_or(0) as u128;
            return BigInt::from_u128_mag(self.sign.mul(rhs.sign), mag);
        }
        BigInt::from_mag(self.sign.mul(rhs.sign), mag_mul(&self.limbs, &rhs.limbs))
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    fn div(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).1
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: &BigInt) -> BigInt {
                (&self).$method(rhs)
            }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                self.$method(&rhs)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);
forward_owned_binop!(Div, div);
forward_owned_binop!(Rem, rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        *self = &*self + rhs;
    }
}

impl AddAssign for BigInt {
    fn add_assign(&mut self, rhs: BigInt) {
        *self = &*self + &rhs;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, rhs: &BigInt) {
        *self = &*self - rhs;
    }
}

impl SubAssign for BigInt {
    fn sub_assign(&mut self, rhs: BigInt) {
        *self = &*self - &rhs;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, rhs: &BigInt) {
        *self = &*self * rhs;
    }
}

impl MulAssign for BigInt {
    fn mul_assign(&mut self, rhs: BigInt) {
        *self = &*self * &rhs;
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(mut self) -> BigInt {
        self.sign = self.sign.negate();
        self
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        -self.clone()
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut mag = self.limbs.clone();
        // Peel off 19 decimal digits at a time (10^19 < 2^64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        while !mag.is_empty() {
            let (q, r) = mag_div_limb(&mag, CHUNK);
            digits.push(r);
            mag = q;
        }
        let mut s = String::new();
        if self.sign == Sign::Negative {
            s.push('-');
        }
        s.push_str(&digits.pop().unwrap_or(0).to_string());
        while let Some(d) = digits.pop() {
            s.push_str(&format!("{d:019}"));
        }
        write!(f, "{s}")
    }
}

impl FromStr for BigInt {
    type Err = ParseNumError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Err(ParseNumError {
                message: "empty string".to_string(),
            });
        }
        let (negative, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseNumError {
                message: format!("invalid integer literal: {s:?}"),
            });
        }
        let mut acc = BigInt::zero();
        let ten = BigInt::from(10u64);
        for b in digits.bytes() {
            acc = &acc * &ten + BigInt::from((b - b'0') as u64);
        }
        if negative {
            acc = -acc;
        }
        Ok(acc)
    }
}

#[cfg(feature = "serde")]
impl serde::Serialize for BigInt {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

#[cfg(feature = "serde")]
impl<'de> serde::Deserialize<'de> for BigInt {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(serde::de::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bi(v: i128) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(BigInt::zero().is_zero());
        assert!(BigInt::one().is_one());
        assert!(!BigInt::one().is_zero());
        assert_eq!(BigInt::zero(), BigInt::from(0i64));
        assert_eq!(BigInt::default(), BigInt::zero());
    }

    #[test]
    fn from_primitives_roundtrip_small() {
        for v in [-3i64, -1, 0, 1, 2, 41, i64::MAX, i64::MIN + 1] {
            assert_eq!(BigInt::from(v).to_i64(), Some(v));
        }
        assert_eq!(BigInt::from(u64::MAX).to_i128(), Some(u64::MAX as i128));
    }

    #[test]
    fn addition_and_subtraction_mixed_signs() {
        assert_eq!(bi(5) + bi(7), bi(12));
        assert_eq!(bi(5) + bi(-7), bi(-2));
        assert_eq!(bi(-5) + bi(7), bi(2));
        assert_eq!(bi(-5) + bi(-7), bi(-12));
        assert_eq!(bi(5) - bi(7), bi(-2));
        assert_eq!(bi(7) - bi(7), bi(0));
        assert_eq!(bi(0) - bi(7), bi(-7));
    }

    #[test]
    fn multiplication_signs_and_carry() {
        assert_eq!(bi(6) * bi(7), bi(42));
        assert_eq!(bi(-6) * bi(7), bi(-42));
        assert_eq!(bi(-6) * bi(-7), bi(42));
        assert_eq!(bi(0) * bi(123456), bi(0));
        let big = BigInt::from(u64::MAX) * BigInt::from(u64::MAX);
        assert_eq!(
            big.to_string(),
            "340282366920938463426481119284349108225" // (2^64-1)^2
        );
    }

    #[test]
    fn division_truncates_towards_zero() {
        assert_eq!(bi(7).div_rem(&bi(2)), (bi(3), bi(1)));
        assert_eq!(bi(-7).div_rem(&bi(2)), (bi(-3), bi(-1)));
        assert_eq!(bi(7).div_rem(&bi(-2)), (bi(-3), bi(1)));
        assert_eq!(bi(-7).div_rem(&bi(-2)), (bi(3), bi(-1)));
        assert_eq!(bi(6) / bi(3), bi(2));
        assert_eq!(bi(6) % bi(4), bi(2));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = bi(1).div_rem(&bi(0));
    }

    #[test]
    fn multi_limb_division() {
        let a: BigInt = "123456789012345678901234567890123456789".parse().unwrap();
        let b: BigInt = "9876543210987654321".parse().unwrap();
        let (q, r) = a.div_rem(&b);
        assert_eq!(&q * &b + &r, a);
        assert!(r < b);
        assert!(!r.is_negative());
    }

    #[test]
    fn display_and_parse_roundtrip() {
        for s in [
            "0",
            "1",
            "-1",
            "18446744073709551616",
            "-340282366920938463463374607431768211456",
            "99999999999999999999999999999999999999999999",
        ] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<BigInt>().is_err());
        assert!("abc".parse::<BigInt>().is_err());
        assert!("12x3".parse::<BigInt>().is_err());
        assert!("-".parse::<BigInt>().is_err());
        assert!("1.5".parse::<BigInt>().is_err());
    }

    #[test]
    fn ordering_is_total_and_sign_aware() {
        assert!(bi(-10) < bi(-2));
        assert!(bi(-2) < bi(0));
        assert!(bi(0) < bi(3));
        assert!(bi(3) < bi(10));
        let big: BigInt = "99999999999999999999999999".parse().unwrap();
        assert!(bi(5) < big);
        assert!(-big.clone() < bi(5));
    }

    #[test]
    fn gcd_matches_euclid_examples() {
        assert_eq!(bi(12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(-12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(0).gcd(&bi(5)), bi(5));
        assert_eq!(bi(5).gcd(&bi(0)), bi(5));
        assert_eq!(bi(17).gcd(&bi(13)), bi(1));
        let a: BigInt = "123456789012345678901234567890".parse().unwrap();
        let b: BigInt = "9876543210".parse().unwrap();
        let g = a.gcd(&b);
        assert_eq!((&a % &g), BigInt::zero());
        assert_eq!((&b % &g), BigInt::zero());
    }

    #[test]
    fn pow_small_cases() {
        assert_eq!(bi(2).pow(10), bi(1024));
        assert_eq!(bi(-2).pow(3), bi(-8));
        assert_eq!(bi(7).pow(0), bi(1));
        assert_eq!(bi(0).pow(5), bi(0));
        assert_eq!(bi(10).pow(25).to_string(), format!("1{}", "0".repeat(25)));
    }

    #[test]
    fn shifts_are_multiplication_by_powers_of_two() {
        assert_eq!(bi(5).shl_bits(3), bi(40));
        assert_eq!(bi(40).shr_bits(3), bi(5));
        assert_eq!(bi(41).shr_bits(3), bi(5));
        assert_eq!(bi(1).shl_bits(130).shr_bits(130), bi(1));
        assert_eq!(bi(0).shl_bits(64), bi(0));
    }

    #[test]
    fn bit_length_and_trailing_zeros() {
        assert_eq!(bi(0).bit_length(), 0);
        assert_eq!(bi(1).bit_length(), 1);
        assert_eq!(bi(255).bit_length(), 8);
        assert_eq!(bi(256).bit_length(), 9);
        assert_eq!(bi(256).trailing_zeros(), 8);
        assert_eq!(bi(12).trailing_zeros(), 2);
    }

    #[test]
    fn to_f64_is_close_for_large_values() {
        let v: BigInt = "123456789012345678901234567890".parse().unwrap();
        let f = v.to_f64();
        let expected = 1.2345678901234568e29;
        assert!((f - expected).abs() / expected < 1e-12);
        assert_eq!(bi(-42).to_f64(), -42.0);
        assert_eq!(bi(0).to_f64(), 0.0);
    }

    #[test]
    fn values_up_to_four_limbs_are_stored_inline() {
        let inline = |v: &BigInt| matches!(v.limbs, Limbs::Inline { .. });
        assert!(inline(&BigInt::zero()) && inline(&BigInt::one()));
        let max_inline = BigInt::one().shl_bits(256) - BigInt::one();
        assert!(inline(&max_inline));
        let spilled = &max_inline + &BigInt::one();
        assert!(!inline(&spilled));
        // Shrinking back under 256 bits returns the value inline.
        assert!(inline(&(&spilled - &BigInt::one())));
        assert!(inline(&spilled.shr_bits(1)));
        // Equality and hashing do not see the storage.
        let heap = BigInt {
            sign: Sign::Positive,
            limbs: Limbs::Heap(vec![1, 2, 3, 4]),
        };
        let inline_twin = BigInt::from_sign_limbs(Sign::Positive, vec![1, 2, 3, 4, 0, 0]);
        assert!(inline(&inline_twin));
        assert_eq!(heap, inline_twin);
        let hash = |v: &BigInt| {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&heap), hash(&inline_twin));
    }

    /// `F_k` for `k` in `0..count`.
    fn fibonacci(count: usize) -> Vec<BigInt> {
        let mut out = vec![BigInt::zero(), BigInt::one()];
        while out.len() < count {
            let next = &out[out.len() - 1] + &out[out.len() - 2];
            out.push(next);
        }
        out
    }

    #[test]
    fn gcd_of_fibonacci_numbers_takes_the_longest_euclid_path() {
        // Consecutive Fibonacci numbers are the worst case for Euclid (every
        // quotient is 1), so Lehmer's simulation runs its longest stretches;
        // gcd(F_a, F_b) = F_gcd(a, b) checks the exact answer.
        let fib = fibonacci(700);
        for (a, b) in [
            (699, 698),
            (600, 450),
            (690, 345),
            (512, 384),
            (693, 462),
            (130, 65),
        ] {
            assert_eq!(
                fib[a].gcd(&fib[b]),
                fib[u64_gcd(a as u64, b as u64) as usize]
            );
        }
    }

    #[test]
    fn gcd_handles_each_width_class() {
        let two_limb: BigInt = "200000000000000000000000000000000000001".parse().unwrap();
        let wide = two_limb.pow(3);
        // One limb against many: a single short division.
        assert_eq!(wide.gcd(&bi(7)), bi(1));
        assert_eq!((&wide * &bi(7)).gcd(&bi(-7)), bi(7));
        assert_eq!((&wide * &bi(12)).gcd(&bi(18)), bi(18));
        // Two limbs against two limbs: the u128 binary gcd.
        let mid = BigInt::one().shl_bits(100) + bi(7);
        assert_eq!((&mid * &bi(6)).gcd(&(&mid * &bi(15))), &mid * &bi(3));
        // Wider operands of different lengths: a Knuth-D reduction first.
        assert_eq!(wide.gcd(&(&two_limb * &bi(5))), two_limb.clone());
        // Equal-length wide operands: Lehmer, then the word-sized finish.
        let p = BigInt::one().shl_bits(255) - bi(19);
        assert_eq!((&p * &bi(35)).gcd(&(&p * &bi(21))), &p * &bi(7));
        assert_eq!((&p * &p).gcd(&(&p * &p + &p)), p.clone());
        assert!(p.gcd(&(&p - &bi(2))).is_one());
    }
}
