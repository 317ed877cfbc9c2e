//! Product-form basis factorization for the revised simplex.
//!
//! The revised simplex never materializes `B⁻¹` or the tableau. Instead the
//! basis inverse is kept as a **product-form inverse** (an *eta file*): a
//! sequence of [`Eta`] matrices plus a position → row permutation, such that
//! for any vector `a`
//!
//! ```text
//! (B⁻¹ a)[position c] = (E_k⁻¹ ⋯ E_1⁻¹ a)[π(c)]
//! ```
//!
//! * **FTRAN** (`B x = a`) scatters the sparse column `a` into a dense work
//!   vector and applies every eta in file order
//!   ([`privmech_linalg::sparse::ftran_eta`]); position-space reads go
//!   through the permutation.
//! * **BTRAN** (`yᵀ B = cᵀ`) scatters through the permutation and applies
//!   the etas in reverse order ([`privmech_linalg::sparse::btran_eta`]).
//! * **Pivot**: replacing the basic variable at position `p` with a column
//!   whose FTRAN result is `t` appends one eta with pivot row `π(p)` and
//!   column `t` — the permutation never changes outside refactorization.
//! * **Refactorization** rebuilds the file from the current basic columns by
//!   replaying them through a fresh file (Gauss–Jordan in product form),
//!   processing sparsest columns first and skipping identity etas (slack
//!   columns still at their seed position cost nothing). This both bounds
//!   the file length at one eta per *basic* column — pivots accumulate one
//!   eta each, so a long solve's file otherwise grows without bound — and
//!   resets fill-in.
//!
//! Why this preserves bit-identity with the dense tableau: on exact scalars
//! FTRAN/BTRAN produce the *mathematically exact* entries of `B⁻¹a`, which
//! are precisely the dense tableau's column entries, independent of how the
//! factorization is currently composed. Refactorization therefore cannot
//! change any solver decision — property-tested across refactorization
//! frequencies in `crates/lp/tests/properties.rs`.

use privmech_linalg::sparse::{self, Eta, SparseVec};
use privmech_linalg::Scalar;

use crate::lu::{LuFactors, Spike};
use crate::model::LpError;
use crate::simplex::FactorizationKind;

/// The basis factorization behind the revised simplex: either the
/// product-form inverse kept here ([`EtaFile`]) or the sparse LU with
/// Forrest–Tomlin updates ([`LuFactors`], the default — see
/// [`crate::lu`]).
///
/// Both variants expose the identical FTRAN/BTRAN/pivot interface and
/// produce mathematically exact results on exact scalars, so which one is
/// active is unobservable to the solver's pivot choices — the dispatch is a
/// pure representation switch, selected by
/// [`FactorizationKind`][crate::simplex::FactorizationKind].
pub(crate) enum Basis<T: Scalar> {
    /// Product-form inverse (eta file), the pre-LU representation.
    Eta(EtaFile<T>),
    /// Sparse LU with Forrest–Tomlin updates.
    Lu(LuFactors<T>),
}

impl<T: Scalar> Basis<T> {
    /// The identity basis of dimension `m` in the requested representation.
    pub(crate) fn identity(kind: FactorizationKind, m: usize) -> Self {
        match kind {
            FactorizationKind::EtaFile => Basis::Eta(EtaFile::identity(m)),
            FactorizationKind::LuForrestTomlin => Basis::Lu(LuFactors::identity(m)),
        }
    }

    /// Basis dimension.
    pub(crate) fn dim(&self) -> usize {
        match self {
            Basis::Eta(f) => f.dim(),
            Basis::Lu(f) => f.dim(),
        }
    }

    /// Internal row holding basis position `c`.
    pub(crate) fn row_of(&self, position: usize) -> usize {
        match self {
            Basis::Eta(f) => f.row_of(position),
            Basis::Lu(f) => f.row_of(position),
        }
    }

    /// Basis position of internal row `r`.
    pub(crate) fn position_of(&self, row: usize) -> usize {
        match self {
            Basis::Eta(f) => f.position_of(row),
            Basis::Lu(f) => f.position_of(row),
        }
    }

    /// FTRAN: overwrite the zeroed `work` vector with `B⁻¹a`. The column
    /// arrives as a borrowed [`SparseVec`] view — typically a row of the
    /// transposed CSR constraint store, with no per-call copy.
    pub(crate) fn ftran(&self, work: &mut [T], column: SparseVec<'_, T>) {
        match self {
            Basis::Eta(f) => f.ftran(work, column),
            Basis::Lu(f) => f.ftran(work, column),
        }
    }

    /// FTRAN of a column about to enter the basis: as [`Basis::ftran`],
    /// plus what [`Basis::push_pivot`] needs to bring it in (the LU
    /// factors' Forrest–Tomlin spike).
    pub(crate) fn ftran_entering(&self, work: &mut [T], column: SparseVec<'_, T>) -> Entering<T> {
        match self {
            Basis::Eta(f) => {
                f.ftran(work, column);
                Entering(None)
            }
            Basis::Lu(f) => Entering(Some(f.ftran_entering(work, column))),
        }
    }

    /// BTRAN of a unit position vector.
    pub(crate) fn btran_unit(&self, work: &mut [T], position: usize) {
        match self {
            Basis::Eta(f) => f.btran_unit(work, position),
            Basis::Lu(f) => f.btran_unit(work, position),
        }
    }

    /// BTRAN of a dense position-space vector.
    pub(crate) fn btran_dense(&self, work: &mut [T], position_values: &[T]) {
        match self {
            Basis::Eta(f) => f.btran_dense(work, position_values),
            Basis::Lu(f) => f.btran_dense(work, position_values),
        }
    }

    /// Record a pivot at basis position `position` whose entering column's
    /// [`Basis::ftran_entering`] returned `entering` and left `ftran_work`.
    pub(crate) fn push_pivot(&mut self, position: usize, ftran_work: &[T], entering: Entering<T>) {
        match self {
            Basis::Eta(f) => f.push_pivot(position, ftran_work),
            Basis::Lu(f) => {
                let spike = entering
                    .0
                    .expect("an LU update needs the spike its entering FTRAN captured");
                f.push_pivot(position, ftran_work, spike);
            }
        }
    }

    /// Whether the refactorization trigger (interval or growth) has fired.
    pub(crate) fn should_refactor(&self, interval: usize) -> bool {
        match self {
            Basis::Eta(f) => f.should_refactor(interval),
            Basis::Lu(f) => f.should_refactor(interval),
        }
    }

    /// Refactorize from scratch for the basis whose position `c` holds the
    /// sparse column `columns(c)`.
    pub(crate) fn refactorize<'a, F>(&mut self, columns: F) -> Result<(), LpError>
    where
        F: Fn(usize) -> SparseVec<'a, T>,
        T: 'a,
    {
        match self {
            Basis::Eta(f) => f.refactorize(columns),
            Basis::Lu(f) => f.refactorize(columns),
        }
    }
}

/// What an entering column's [`Basis::ftran_entering`] hands to
/// [`Basis::push_pivot`]: the LU factors' spike, nothing for the eta file.
/// Only `ftran_entering` builds one, so every update works from the FTRAN
/// of the column it brings in.
pub(crate) struct Entering<T: Scalar>(Option<Spike<T>>);

/// Eta-file nonzero budget, as a multiple of the basis dimension: when the
/// file holds more than `ETA_GROWTH_FACTOR · m` nonzeros a refactorization
/// is triggered even before the pivot-count interval elapses. Beyond this
/// density an FTRAN costs as much as a dense-tableau column update, so the
/// factorized representation has lost its advantage.
const ETA_GROWTH_FACTOR: usize = 16;

/// A product-form inverse of the current simplex basis (see module docs).
pub(crate) struct EtaFile<T: Scalar> {
    etas: Vec<Eta<T>>,
    /// π: basis position → internal row.
    perm: Vec<usize>,
    /// π⁻¹: internal row → basis position.
    inv_perm: Vec<usize>,
    /// Total stored nonzeros across the file (growth-trigger input).
    nnz: usize,
    /// Pivots applied since the last refactorization (interval input).
    pivots_since_refactor: usize,
}

impl<T: Scalar> EtaFile<T> {
    /// The identity basis of dimension `m` (the two-phase start: every basis
    /// seed — slack or artificial — is a unit column).
    pub(crate) fn identity(m: usize) -> Self {
        EtaFile {
            etas: Vec::new(),
            perm: (0..m).collect(),
            inv_perm: (0..m).collect(),
            nnz: 0,
            pivots_since_refactor: 0,
        }
    }

    /// Basis dimension.
    pub(crate) fn dim(&self) -> usize {
        self.perm.len()
    }

    /// Internal row holding basis position `c` (for reading FTRAN results in
    /// position space: `work[file.row_of(c)]`).
    pub(crate) fn row_of(&self, position: usize) -> usize {
        self.perm[position]
    }

    /// Basis position of internal row `r` (for walking an FTRAN result's
    /// nonzeros back to positions).
    pub(crate) fn position_of(&self, row: usize) -> usize {
        self.inv_perm[row]
    }

    /// FTRAN: overwrite the zeroed `work` vector with `E_k⁻¹⋯E_1⁻¹ a` for a
    /// sparse column `a`. Read position-space entries through
    /// [`EtaFile::row_of`].
    pub(crate) fn ftran(&self, work: &mut [T], column: SparseVec<'_, T>) {
        column.scatter_into(work);
        for eta in &self.etas {
            sparse::ftran_eta(work, eta);
        }
    }

    /// BTRAN of a unit position vector: overwrite the zeroed `work` vector
    /// with `e_pᵀ B⁻¹` (the multipliers of tableau row `p`, indexed by
    /// internal row).
    pub(crate) fn btran_unit(&self, work: &mut [T], position: usize) {
        work[self.perm[position]] = T::one();
        self.btran_in_place(work);
    }

    /// BTRAN of a dense position-space vector `v` (e.g. the basic cost
    /// vector): overwrite the zeroed `work` vector with `vᵀ B⁻¹`.
    pub(crate) fn btran_dense(&self, work: &mut [T], position_values: &[T]) {
        for (c, v) in position_values.iter().enumerate() {
            if !v.is_exactly_zero() {
                work[self.perm[c]] = v.clone();
            }
        }
        self.btran_in_place(work);
    }

    fn btran_in_place(&self, work: &mut [T]) {
        for eta in self.etas.iter().rev() {
            sparse::btran_eta(work, eta);
        }
    }

    /// Record a pivot at basis position `position` whose FTRAN result (in
    /// internal row space) is `ftran_work`: appends one eta with pivot row
    /// `π(position)`.
    ///
    /// # Panics
    /// Panics if the FTRAN result is zero at the pivot position (the ratio
    /// test guarantees a positive pivot element).
    pub(crate) fn push_pivot(&mut self, position: usize, ftran_work: &[T]) {
        let eta = Eta::from_dense(self.perm[position], ftran_work);
        self.nnz += eta.nnz();
        self.etas.push(eta);
        self.pivots_since_refactor += 1;
    }

    /// Whether the refactorization trigger has fired: either the pivot-count
    /// interval elapsed or the file's nonzeros outgrew
    /// [`ETA_GROWTH_FACTOR`]`· m`. An interval of `usize::MAX` disables
    /// refactorization entirely (the "never" end of the property-test
    /// spectrum in `tests/properties.rs`).
    pub(crate) fn should_refactor(&self, interval: usize) -> bool {
        if interval == usize::MAX {
            return false;
        }
        self.pivots_since_refactor >= interval || self.nnz > ETA_GROWTH_FACTOR * self.dim()
    }

    /// Rebuild the file from scratch for the basis whose position `c` holds
    /// the sparse column `columns(c)`: replay every basic column through a
    /// fresh file, sparsest original columns first, assigning each a pivot
    /// row where its partially-eliminated image is nonzero. Unit images
    /// (slack columns still at their seed) produce no eta at all.
    ///
    /// Fails with [`LpError::Internal`] only if the basis is singular, which
    /// would indicate a solver bug — the simplex invariant keeps every basis
    /// nonsingular.
    pub(crate) fn refactorize<'a, F>(&mut self, columns: F) -> Result<(), LpError>
    where
        F: Fn(usize) -> SparseVec<'a, T>,
        T: 'a,
    {
        let m = self.dim();
        // Sparsest-first replay order (stable: ties by position) mimics a
        // triangular factorization and keeps fill-in down. The CSR store
        // answers the nnz query without materializing the column.
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&c| (columns(c).len(), c));

        let mut etas: Vec<Eta<T>> = Vec::new();
        let mut nnz = 0usize;
        let mut perm = vec![usize::MAX; m];
        let mut used = vec![false; m];
        let mut work = vec![T::zero(); m];
        for &c in &order {
            columns(c).scatter_into(&mut work);
            for eta in &etas {
                sparse::ftran_eta(&mut work, eta);
            }
            let row = (0..m)
                .find(|&r| !used[r] && !work[r].is_exactly_zero())
                .ok_or_else(|| {
                    LpError::Internal("singular basis during refactorization".to_string())
                })?;
            used[row] = true;
            perm[c] = row;
            let eta = Eta::from_dense(row, &work);
            if !eta.is_identity() {
                nnz += eta.nnz();
                etas.push(eta);
            }
            sparse::clear(&mut work);
        }

        self.etas = etas;
        self.nnz = nnz;
        self.inv_perm = vec![0; m];
        for (c, &r) in perm.iter().enumerate() {
            self.inv_perm[r] = c;
        }
        self.perm = perm;
        self.pivots_since_refactor = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privmech_numerics::{rat, Rational};

    /// Owned index/value storage a [`SparseVec`] view can borrow from.
    type Col = (Vec<usize>, Vec<Rational>);

    fn sv(col: &Col) -> SparseVec<'_, Rational> {
        SparseVec::new(&col.0, &col.1)
    }

    /// Columns of a small nonsingular matrix, sparse form.
    fn columns() -> Vec<Col> {
        // B = [[2, 0, 1], [0, 1, 1], [0, 0, 3]] by columns.
        vec![
            (vec![0], vec![rat(2, 1)]),
            (vec![1], vec![rat(1, 1)]),
            (vec![0, 1, 2], vec![rat(1, 1), rat(1, 1), rat(3, 1)]),
        ]
    }

    fn ftran_dense(file: &EtaFile<Rational>, col: &Col) -> Vec<Rational> {
        let m = file.dim();
        let mut work = vec![Rational::zero(); m];
        file.ftran(&mut work, sv(col));
        (0..m).map(|c| work[file.row_of(c)].clone()).collect()
    }

    #[test]
    fn pivot_then_ftran_solves_against_the_updated_basis() {
        // Start from the identity basis, pivot the three columns in, and
        // check B x = a solves for a fresh right-hand side.
        let cols = columns();
        let mut file: EtaFile<Rational> = EtaFile::identity(3);
        let mut work = vec![Rational::zero(); 3];
        for (p, col) in cols.iter().enumerate() {
            sparse::clear(&mut work);
            file.ftran(&mut work, sv(col));
            file.push_pivot(p, &work);
        }
        // Solve B x = (3, 2, 3)ᵀ: x = (1, 1, 1) since column sums are 3,2,...
        // B·(1,1,1) = (3, 2, 3)ᵀ.
        let rhs: Col = (vec![0, 1, 2], vec![rat(3, 1), rat(2, 1), rat(3, 1)]);
        let x = ftran_dense(&file, &rhs);
        assert_eq!(x, vec![rat(1, 1), rat(1, 1), rat(1, 1)]);
    }

    #[test]
    fn refactorize_preserves_every_solve_exactly() {
        let cols = columns();
        let mut file: EtaFile<Rational> = EtaFile::identity(3);
        let mut work = vec![Rational::zero(); 3];
        for (p, col) in cols.iter().enumerate() {
            sparse::clear(&mut work);
            file.ftran(&mut work, sv(col));
            file.push_pivot(p, &work);
        }
        let rhs: Col = (vec![0, 1, 2], vec![rat(7, 1), rat(-2, 1), rat(5, 2)]);
        let before = ftran_dense(&file, &rhs);
        // BTRAN reference before refactorization.
        let mut y_before = vec![Rational::zero(); 3];
        file.btran_unit(&mut y_before, 2);

        file.refactorize(|c| sv(&cols[c])).unwrap();
        let after = ftran_dense(&file, &rhs);
        assert_eq!(before, after, "FTRAN must be factorization-independent");
        let mut y_after = vec![Rational::zero(); 3];
        file.btran_unit(&mut y_after, 2);
        assert_eq!(y_before, y_after, "BTRAN must be factorization-independent");
    }

    #[test]
    fn btran_unit_recovers_inverse_rows() {
        // For B = I after identity construction, BTRAN of e_p is e_p.
        let file: EtaFile<Rational> = EtaFile::identity(2);
        let mut y = vec![Rational::zero(); 2];
        file.btran_unit(&mut y, 1);
        assert_eq!(y, vec![Rational::zero(), rat(1, 1)]);
    }

    #[test]
    fn growth_trigger_and_interval_semantics() {
        let file: EtaFile<Rational> = EtaFile::identity(2);
        assert!(!file.should_refactor(usize::MAX));
        assert!(!file.should_refactor(1), "no pivots yet");
        let cols: Vec<Col> = vec![
            (vec![0, 1], vec![rat(1, 2), rat(1, 3)]),
            (vec![1], vec![rat(2, 1)]),
        ];
        let mut file: EtaFile<Rational> = EtaFile::identity(2);
        let mut work = vec![Rational::zero(); 2];
        file.ftran(&mut work, sv(&cols[0]));
        file.push_pivot(0, &work);
        assert!(file.should_refactor(1));
        assert!(!file.should_refactor(2));
        assert!(
            !file.should_refactor(usize::MAX),
            "MAX disables both triggers"
        );
        file.refactorize(|c| sv(&cols[c])).unwrap();
        assert!(
            !file.should_refactor(1),
            "refactorization resets the counter"
        );
    }
}
