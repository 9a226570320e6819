//! LU-factorized simplex basis with product-form eta updates.
//!
//! The basis matrices that branch-and-bound produces on the bill-capping
//! MILPs are dominated by slack columns (unit vectors): a 231-row basis
//! typically holds fewer than 40 structural columns. [`BasisFactorization`]
//! exploits that with a two-stage factorization:
//!
//! 1. **Forward triangularization** — repeatedly pivot on columns that
//!    have exactly one entry in the still-active rows. Every slack column
//!    pivots for free, and most structural columns follow once their
//!    neighbours are eliminated. This yields a large permuted
//!    upper-triangular block at zero fill-in.
//! 2. **Dense bump** — whatever small irreducible block remains (usually
//!    a handful of rows) is factorized with dense partial-pivoting LU.
//!
//! Basis changes between refactorizations are absorbed as product-form
//! *eta* matrices (`B = B₀·E₁…Eₖ`), the classic update that
//! Forrest–Tomlin refines; the engine refactorizes from scratch once the
//! eta file grows past its refactorization interval or a pivot looks
//! numerically unstable (see [`crate::revised`] for the policy).

use crate::sparse::CscMat;

/// A pivot too small to divide by — the basis is numerically singular.
const SINGULAR_EPS: f64 = 1e-10;

/// Eta entries smaller than this are dropped from the product form.
const ETA_DROP_EPS: f64 = 1e-12;

/// Sparse columns packed end to end: column `k` is
/// `entries[end[k − 1]..end[k]]` (from 0 for the first). One allocation
/// per array however many columns it holds, none while it holds no
/// column, and [`clear`](Self::clear) keeps the capacity for the next
/// factorization.
#[derive(Debug, Clone, Default)]
struct PackedCols {
    end: Vec<usize>,
    entries: Vec<(usize, f64)>,
}

impl PackedCols {
    fn clear(&mut self) {
        self.end.clear();
        self.entries.clear();
    }

    /// Closes the column whose entries were pushed since the last close.
    fn close(&mut self) {
        self.end.push(self.entries.len());
    }

    fn col(&self, k: usize) -> &[(usize, f64)] {
        let lo = if k == 0 { 0 } else { self.end[k - 1] };
        &self.entries[lo..self.end[k]]
    }

    fn len(&self) -> usize {
        self.end.len()
    }
}

/// Work arrays of the forward-triangularization pass, kept between
/// refactorizations so a refactorization allocates nothing once the
/// arrays have grown to the basis size.
#[derive(Debug, Clone, Default)]
struct FactorScratch {
    row_active: Vec<bool>,
    col_active: Vec<bool>,
    /// How many entries each basis column has in still-active rows.
    count: Vec<usize>,
    /// Row-to-slot index, flat: the slots with an entry in row `r` are
    /// `row_slots[row_start[r]..row_start[r + 1]]`.
    row_start: Vec<usize>,
    row_slots: Vec<usize>,
    /// Singleton queue.
    queue: Vec<usize>,
    /// `(slot, row)` pivots in elimination order.
    pivots: Vec<(usize, usize)>,
    /// Original row → permuted position.
    row_pos: Vec<usize>,
}

/// LU factorization of an `m × m` simplex basis, plus the eta file of
/// updates applied since the last refactorization.
///
/// Vectors pass through two index spaces: *row space* (constraint rows,
/// the space of right-hand sides and duals) and *slot space* (positions
/// in the ordered list of basic columns, the space of basic solutions).
/// `ftran` maps row space → slot space (`B·z = b`);
/// `btran` maps slot space → row space (`Bᵀ·y = c_B`).
///
/// Every array is kept across [`factor`](Self::factor) calls, and the
/// triangular solves run in an owned scratch vector, so neither a
/// refactorization nor a solve allocates once the arrays have grown.
/// The default value is the factorization of the empty basis, ready for
/// a first [`factor`](Self::factor).
#[derive(Debug, Clone, Default)]
pub struct BasisFactorization {
    m: usize,
    /// Size of the triangular block.
    t: usize,
    /// Permuted position `k` ↔ original row `row_of[k]`.
    row_of: Vec<usize>,
    /// Permuted position `k` ↔ basis slot `col_of[k]`.
    col_of: Vec<usize>,
    /// Diagonal (pivot) value of each triangular column `k < t`.
    tri_diag: Vec<f64>,
    /// Entries of triangular column `k` above the diagonal as
    /// `(permuted position, value)`, every position smaller than `k`.
    tri_above: PackedCols,
    /// For each bump column `k ≥ t` (packed column `k − t`): its entries
    /// in triangular rows, as `(permuted position < t, value)`.
    u12: PackedCols,
    /// Dense `nb × nb` bump block, row-major, LU-decomposed in place.
    bump: Vec<f64>,
    /// Bump dimension.
    nb: usize,
    /// Partial-pivoting row swaps for the bump LU.
    ipiv: Vec<usize>,
    /// Product-form updates since factorization, oldest first: each is
    /// `(slot, diag)` — basis slot `slot`'s column was replaced by one
    /// whose basis-space image (`B⁻¹·a`) was `w`, with pivot
    /// `diag = w[slot]` (guaranteed away from zero) …
    eta_head: Vec<(usize, f64)>,
    /// … and the off-diagonal entries of `w` as `(slot, value)`, one
    /// packed column per update. Applying an inverse eta to a vector
    /// costs `O(nnz(w))`.
    eta_vals: PackedCols,
    /// Permuted-space vector of the triangular solves.
    work: Vec<f64>,
    scratch: FactorScratch,
}

impl BasisFactorization {
    /// Factorizes, in place, the basis whose column in slot `s` is
    /// column `basic[s]` of `a`, reusing this factorization's arrays and
    /// dropping its eta file. Returns `false` when the basis is
    /// numerically singular; the factorization is then unusable until a
    /// later call succeeds.
    pub fn factor(&mut self, a: &CscMat, basic: &[usize]) -> bool {
        let m = a.nrows();
        debug_assert_eq!(basic.len(), m);
        self.m = m;
        self.eta_head.clear();
        self.eta_vals.clear();
        self.work.clear();
        self.work.resize(m, 0.0);
        let sc = &mut self.scratch;
        sc.row_active.clear();
        sc.row_active.resize(m, true);
        sc.col_active.clear();
        sc.col_active.resize(m, true);
        sc.count.clear();
        sc.count.extend(basic.iter().map(|&j| a.col(j).0.len()));
        // Which slots touch each row, for count maintenance: a counting
        // pass, then placement in slot order.
        sc.row_start.clear();
        sc.row_start.resize(m + 1, 0);
        for &j in basic {
            for &r in a.col(j).0 {
                debug_assert!(r < m);
                sc.row_start[r + 1] += 1;
            }
        }
        for r in 0..m {
            sc.row_start[r + 1] += sc.row_start[r];
        }
        sc.row_slots.clear();
        sc.row_slots.resize(sc.row_start[m], 0);
        // `row_pos` doubles as the placement cursor until the
        // permutation is known.
        sc.row_pos.clear();
        sc.row_pos.extend_from_slice(&sc.row_start[..m]);
        for (s, &j) in basic.iter().enumerate() {
            for &r in a.col(j).0 {
                sc.row_slots[sc.row_pos[r]] = s;
                sc.row_pos[r] += 1;
            }
        }
        // Seed the singleton queue in slot order for determinism.
        sc.queue.clear();
        sc.queue.extend((0..m).filter(|&s| sc.count[s] == 1));
        sc.pivots.clear();
        while let Some(s) = sc.queue.pop() {
            if !sc.col_active[s] || sc.count[s] != 1 {
                continue;
            }
            let (rows, vals) = a.col(basic[s]);
            let Some((r, v)) = rows
                .iter()
                .zip(vals)
                .find(|&(&r, _)| sc.row_active[r])
                .map(|(&r, &v)| (r, v))
            else {
                continue;
            };
            if v.abs() <= SINGULAR_EPS {
                // Too small to pivot on; leave this column for the bump,
                // where partial pivoting can judge it. It cannot re-enter
                // the queue (pushes happen only on a transition to 1).
                continue;
            }
            sc.pivots.push((s, r));
            sc.col_active[s] = false;
            sc.row_active[r] = false;
            for &s2 in &sc.row_slots[sc.row_start[r]..sc.row_start[r + 1]] {
                if sc.col_active[s2] {
                    sc.count[s2] -= 1;
                    if sc.count[s2] == 1 {
                        sc.queue.push(s2);
                    }
                }
            }
        }

        let t = sc.pivots.len();
        self.t = t;
        self.row_of.clear();
        self.col_of.clear();
        for &(s, r) in &sc.pivots {
            self.col_of.push(s);
            self.row_of.push(r);
        }
        // Remaining rows/columns become the bump, in index order.
        for (r, &active) in sc.row_active.iter().enumerate() {
            if active {
                self.row_of.push(r);
            }
        }
        for (s, &active) in sc.col_active.iter().enumerate() {
            if active {
                self.col_of.push(s);
            }
        }
        debug_assert_eq!(self.row_of.len(), m);
        debug_assert_eq!(self.col_of.len(), m);
        let nb = m - t;
        self.nb = nb;
        for (k, &r) in self.row_of.iter().enumerate() {
            sc.row_pos[r] = k;
        }

        // Triangular columns: by construction every non-pivot entry of
        // column `col_of[k]` (k < t) lies in a row pivoted earlier.
        self.tri_diag.clear();
        self.tri_above.clear();
        for (k, &(s, r)) in sc.pivots.iter().enumerate() {
            let mut diag = 0.0;
            let (rows, vals) = a.col(basic[s]);
            for (&row, &v) in rows.iter().zip(vals) {
                if row == r {
                    diag = v;
                } else {
                    let p = sc.row_pos[row];
                    debug_assert!(p < k, "triangularization produced fill below the diagonal");
                    self.tri_above.entries.push((p, v));
                }
            }
            self.tri_diag.push(diag);
            self.tri_above.close();
        }

        // Bump columns: split entries into the triangular coupling block
        // (U12) and the dense bump itself.
        self.u12.clear();
        self.bump.clear();
        self.bump.resize(nb * nb, 0.0);
        for k in t..m {
            let (rows, vals) = a.col(basic[self.col_of[k]]);
            for (&row, &v) in rows.iter().zip(vals) {
                let p = sc.row_pos[row];
                if p < t {
                    self.u12.entries.push((p, v));
                } else {
                    self.bump[(p - t) * nb + (k - t)] = v;
                }
            }
            self.u12.close();
        }

        // Dense partial-pivoting LU on the bump, in place.
        let bump = &mut self.bump;
        self.ipiv.clear();
        self.ipiv.resize(nb, 0);
        for k in 0..nb {
            let mut best = k;
            let mut best_abs = bump[k * nb + k].abs();
            for i in k + 1..nb {
                let a = bump[i * nb + k].abs();
                if a > best_abs {
                    best = i;
                    best_abs = a;
                }
            }
            if best_abs <= SINGULAR_EPS {
                return false;
            }
            self.ipiv[k] = best;
            if best != k {
                for j in 0..nb {
                    bump.swap(k * nb + j, best * nb + j);
                }
            }
            let pivot = bump[k * nb + k];
            for i in k + 1..nb {
                let l = bump[i * nb + k] / pivot;
                bump[i * nb + k] = l;
                if l != 0.0 {
                    for j in k + 1..nb {
                        bump[i * nb + j] -= l * bump[k * nb + j];
                    }
                }
            }
        }
        true
    }

    /// Size of the dense bump block (diagnostic: 0 means the basis was
    /// fully triangularized).
    #[cfg(test)]
    pub(crate) fn bump_dim(&self) -> usize {
        self.nb
    }

    /// Number of eta updates absorbed since the last factorization.
    pub(crate) fn eta_count(&self) -> usize {
        self.eta_head.len()
    }

    /// Solves `B·z = b`. On input `x` is row-indexed (`b`); on output it
    /// is slot-indexed (`z`, the basic components).
    pub(crate) fn ftran(&mut self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        self.solve_base(x);
        for (k, &(slot, diag)) in self.eta_head.iter().enumerate() {
            let zr = x[slot] / diag;
            if zr != 0.0 {
                for &(i, v) in self.eta_vals.col(k) {
                    x[i] -= v * zr;
                }
            }
            x[slot] = zr;
        }
    }

    /// Solves `Bᵀ·y = c`. On input `x` is slot-indexed (`c_B`); on
    /// output it is row-indexed (`y`, the dual values).
    pub(crate) fn btran(&mut self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        for (k, &(slot, diag)) in self.eta_head.iter().enumerate().rev() {
            let mut acc = x[slot];
            for &(i, v) in self.eta_vals.col(k) {
                acc -= x[i] * v;
            }
            x[slot] = acc / diag;
        }
        self.solve_base_transpose(x);
    }

    /// Records a basis change: slot `slot`'s column was replaced by a
    /// column whose FTRAN image is the slot-indexed dense vector `w`.
    /// Returns `false` (and records nothing) when the pivot `w[slot]`
    /// is too small — the caller must refactorize instead.
    #[must_use]
    pub(crate) fn push_eta(&mut self, slot: usize, w: &[f64]) -> bool {
        debug_assert_eq!(w.len(), self.m);
        let diag = w[slot];
        if diag.abs() <= SINGULAR_EPS {
            return false;
        }
        self.eta_vals.entries.extend(
            w.iter()
                .enumerate()
                .filter(|&(i, &v)| i != slot && v.abs() > ETA_DROP_EPS)
                .map(|(i, &v)| (i, v)),
        );
        self.eta_vals.close();
        self.eta_head.push((slot, diag));
        debug_assert_eq!(self.eta_vals.len(), self.eta_head.len());
        true
    }

    /// `B₀·z = b` (no etas): permute, solve the bump, back-substitute
    /// the triangular block.
    // Index loops mirror the textbook LU recurrences over the row-major
    // `bump` (stride arithmetic an iterator form would bury).
    #[allow(clippy::needless_range_loop)]
    fn solve_base(&mut self, x: &mut [f64]) {
        let (t, nb) = (self.t, self.nb);
        let p = &mut self.work;
        for (k, &r) in self.row_of.iter().enumerate() {
            p[k] = x[r];
        }
        // Bump block: L·U·z₂ = p₂ with partial-pivot swaps.
        if nb > 0 {
            let z2 = &mut p[t..];
            for k in 0..nb {
                z2.swap(k, self.ipiv[k]);
            }
            for k in 0..nb {
                let zk = z2[k];
                if zk != 0.0 {
                    for i in k + 1..nb {
                        z2[i] -= self.bump[i * nb + k] * zk;
                    }
                }
            }
            for k in (0..nb).rev() {
                let mut acc = z2[k];
                for j in k + 1..nb {
                    acc -= self.bump[k * nb + j] * z2[j];
                }
                z2[k] = acc / self.bump[k * nb + k];
            }
            // Substitute the coupling block U12·z₂ out of the
            // triangular right-hand side.
            for j in 0..nb {
                let zj = p[t + j];
                if zj != 0.0 {
                    for &(i, v) in self.u12.col(j) {
                        p[i] -= v * zj;
                    }
                }
            }
        }
        // Triangular back-substitution (positions t-1 .. 0).
        for k in (0..t).rev() {
            let zk = p[k] / self.tri_diag[k];
            p[k] = zk;
            if zk != 0.0 {
                for &(i, v) in self.tri_above.col(k) {
                    p[i] -= v * zk;
                }
            }
        }
        // Emit by slot.
        for (k, &s) in self.col_of.iter().enumerate() {
            x[s] = p[k];
        }
    }

    /// `B₀ᵀ·y = c` (no etas): permute by slot, forward-solve U11ᵀ,
    /// solve the bump transpose, emit by row.
    #[allow(clippy::needless_range_loop)] // see solve_base
    fn solve_base_transpose(&mut self, x: &mut [f64]) {
        let (t, nb) = (self.t, self.nb);
        let p = &mut self.work;
        for (k, &s) in self.col_of.iter().enumerate() {
            p[k] = x[s];
        }
        // U11ᵀ is lower triangular: forward substitution.
        for k in 0..t {
            let mut acc = p[k];
            for &(i, v) in self.tri_above.col(k) {
                acc -= v * p[i];
            }
            p[k] = acc / self.tri_diag[k];
        }
        if nb > 0 {
            // Couple the solved triangular part into the bump RHS.
            for j in 0..nb {
                let mut acc = p[t + j];
                for &(i, v) in self.u12.col(j) {
                    acc -= v * p[i];
                }
                p[t + j] = acc;
            }
            // (L·U)ᵀ·y₂ = rhs₂: solve Uᵀ (forward), then Lᵀ (backward),
            // then undo the row swaps in reverse.
            let y2 = &mut p[t..];
            for k in 0..nb {
                let mut acc = y2[k];
                for i in 0..k {
                    acc -= self.bump[i * nb + k] * y2[i];
                }
                y2[k] = acc / self.bump[k * nb + k];
            }
            for k in (0..nb).rev() {
                let mut acc = y2[k];
                for i in k + 1..nb {
                    acc -= self.bump[i * nb + k] * y2[i];
                }
                y2[k] = acc;
            }
            for k in (0..nb).rev() {
                y2.swap(k, self.ipiv[k]);
            }
        }
        for (k, &r) in self.row_of.iter().enumerate() {
            x[r] = p[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift for reproducible random matrices.
    struct Rng(u64);
    impl Rng {
        fn next_f64(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The `m`-row CSC matrix whose column `s` is `cols[s]` (row index,
    /// value — rows need not be sorted).
    fn csc(m: usize, cols: &[Vec<(usize, f64)>]) -> CscMat {
        let mut rows = vec![Vec::new(); m];
        for (s, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                rows[r].push((s, v));
            }
        }
        CscMat::from_rows(cols.len(), rows.iter().map(|r| r.iter().copied()))
    }

    /// Factorizes columns `basic` of `a` into a new factorization.
    fn factor(a: &CscMat, basic: &[usize]) -> Option<BasisFactorization> {
        let mut f = BasisFactorization::default();
        f.factor(a, basic).then_some(f)
    }

    /// Factorizes the square basis `cols`, slot `s` holding column `s`.
    fn factor_cols(m: usize, cols: &[Vec<(usize, f64)>]) -> Option<BasisFactorization> {
        let basic: Vec<usize> = (0..cols.len()).collect();
        factor(&csc(m, cols), &basic)
    }

    fn dense_mul(m: usize, cols: &[Vec<(usize, f64)>], x_by_slot: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; m];
        for (s, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                out[r] += v * x_by_slot[s];
            }
        }
        out
    }

    fn dense_mul_t(m: usize, cols: &[Vec<(usize, f64)>], y_by_row: &[f64]) -> Vec<f64> {
        (0..m)
            .map(|s| cols[s].iter().map(|&(r, v)| v * y_by_row[r]).sum())
            .collect()
    }

    fn check_solves(f: &mut BasisFactorization, m: usize, cols: &[Vec<(usize, f64)>]) {
        let mut rng = Rng(42);
        let z_true: Vec<f64> = (0..m).map(|_| rng.next_f64() * 4.0 - 2.0).collect();
        // FTRAN: b = B z  ⇒  ftran(b) == z.
        let mut b = dense_mul(m, cols, &z_true);
        f.ftran(&mut b);
        for (a, e) in b.iter().zip(&z_true) {
            assert!((a - e).abs() < 1e-9, "ftran mismatch: {a} vs {e}");
        }
        // BTRAN: c = Bᵀ y  ⇒  btran(c) == y.
        let y_true: Vec<f64> = (0..m).map(|_| rng.next_f64() * 4.0 - 2.0).collect();
        let mut c = dense_mul_t(m, cols, &y_true);
        f.btran(&mut c);
        for (a, e) in c.iter().zip(&y_true) {
            assert!((a - e).abs() < 1e-9, "btran mismatch: {a} vs {e}");
        }
    }

    fn check_roundtrip(m: usize, cols: &[Vec<(usize, f64)>]) {
        let mut f = factor_cols(m, cols).expect("nonsingular");
        check_solves(&mut f, m, cols);
    }

    #[test]
    fn identity_and_permutation() {
        check_roundtrip(
            4,
            &[
                vec![(0, 1.0)],
                vec![(1, 1.0)],
                vec![(2, 1.0)],
                vec![(3, 1.0)],
            ],
        );
        let perm = [vec![(2, 1.0)], vec![(0, -1.0)], vec![(1, 2.0)]];
        check_roundtrip(3, &perm);
        // The same basis picked out of a wider matrix, in a slot order
        // that differs from the column order.
        let wide = csc(
            3,
            &[
                vec![(0, 5.0), (1, 1.0)],
                perm[1].clone(),
                vec![(2, 3.0)],
                perm[2].clone(),
                perm[0].clone(),
            ],
        );
        let mut f = factor(&wide, &[4, 1, 3]).expect("nonsingular");
        check_solves(&mut f, 3, &perm);
    }

    #[test]
    fn slack_heavy_basis_has_no_bump() {
        // 5 unit columns and one structural column: fully triangular.
        let cols = vec![
            vec![(0, 1.0)],
            vec![(1, 1.0)],
            vec![(2, 2.0), (0, 1.0), (4, -1.0)],
            vec![(3, 1.0)],
            vec![(4, 1.0)],
        ];
        let f = factor_cols(5, &cols).expect("nonsingular");
        assert_eq!(f.bump_dim(), 0);
        check_roundtrip(5, &cols);
    }

    #[test]
    fn dense_random_basis_roundtrips() {
        let mut rng = Rng(7);
        // One factorization factorized again for every trial: its arrays
        // shrink and grow with the basis and must never leak state.
        let mut reused = BasisFactorization::default();
        for trial in 0..20 {
            let m = 2 + (trial % 7);
            let cols: Vec<Vec<(usize, f64)>> = (0..m)
                .map(|s| {
                    (0..m)
                        .filter_map(|r| {
                            let v = rng.next_f64() * 2.0 - 1.0;
                            // Diagonal dominance keeps it honestly nonsingular.
                            let v = if r == s { v + 3.0 } else { v };
                            (v.abs() > 0.3 || r == s).then_some((r, v))
                        })
                        .collect()
                })
                .collect();
            check_roundtrip(m, &cols);
            let basic: Vec<usize> = (0..m).collect();
            assert!(reused.factor(&csc(m, &cols), &basic), "trial {trial}");
            check_solves(&mut reused, m, &cols);
        }
    }

    #[test]
    fn singular_basis_is_rejected() {
        // Two identical columns.
        let cols = vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0), (1, 1.0)]];
        assert!(factor_cols(2, &cols).is_none());
        // A live factorization refuses the singular basis too.
        let mut f = factor_cols(2, &[vec![(0, 1.0)], vec![(1, 1.0)]]).expect("identity");
        assert!(!f.factor(&csc(2, &cols), &[0, 1]));
    }

    #[test]
    fn zero_dimensional_basis() {
        let mut f = factor_cols(0, &[]).expect("empty basis is trivially factored");
        f.ftran(&mut []);
        f.btran(&mut []);
    }

    #[test]
    fn eta_updates_match_refactorization() {
        // Start from a basis, replace a column via push_eta, and verify
        // solves match a from-scratch factorization of the new basis and
        // an in-place refactorization of the updated one.
        let mut cols = vec![
            vec![(0, 1.0)],
            vec![(1, 2.0), (0, 1.0)],
            vec![(2, 1.0), (1, -1.0)],
        ];
        let mut f = factor_cols(3, &cols).expect("nonsingular");
        // New column to put in slot 1.
        let newcol = vec![(0, 0.5), (1, 1.0), (2, 2.0)];
        let mut w = vec![0.0; 3];
        for &(r, v) in &newcol {
            w[r] = v;
        }
        f.ftran(&mut w);
        assert!(f.push_eta(1, &w));
        assert_eq!(f.eta_count(), 1);
        cols[1] = newcol;
        let mut fresh = factor_cols(3, &cols).expect("nonsingular");
        let mut refactored = f.clone();
        assert!(refactored.factor(&csc(3, &cols), &[0, 1, 2]));
        assert_eq!(refactored.eta_count(), 0);
        let mut rng = Rng(99);
        for _ in 0..5 {
            let b: Vec<f64> = (0..3).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
            let (mut z1, mut z2, mut z3) = (b.clone(), b.clone(), b.clone());
            f.ftran(&mut z1);
            fresh.ftran(&mut z2);
            refactored.ftran(&mut z3);
            for (a, e) in z1.iter().zip(&z2) {
                assert!((a - e).abs() < 1e-9, "eta ftran mismatch: {a} vs {e}");
            }
            assert_eq!(z2, z3, "refactor ftran must match a fresh factor");
            let (mut y1, mut y2, mut y3) = (b.clone(), b.clone(), b);
            f.btran(&mut y1);
            fresh.btran(&mut y2);
            refactored.btran(&mut y3);
            for (a, e) in y1.iter().zip(&y2) {
                assert!((a - e).abs() < 1e-9, "eta btran mismatch: {a} vs {e}");
            }
            assert_eq!(y2, y3, "refactor btran must match a fresh factor");
        }
    }

    #[test]
    fn tiny_eta_pivot_is_refused() {
        let mut f = factor_cols(2, &[vec![(0, 1.0)], vec![(1, 1.0)]]).expect("identity");
        let w = vec![1.0, 1e-13];
        assert!(!f.push_eta(1, &w));
        assert_eq!(f.eta_count(), 0);
    }
}
