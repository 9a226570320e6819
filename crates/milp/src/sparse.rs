//! Compressed-sparse-column (CSC) matrix storage for the revised simplex.
//!
//! The revised simplex ([`crate::revised`]) never forms a dense tableau:
//! it keeps the constraint matrix in CSC form and touches one column at a
//! time (pricing needs `aᵀ·y` per column, FTRAN needs one column
//! scattered into a dense right-hand side). The bill-capping MILPs are
//! sparse — each structural column appears in at most four rows (a big-M
//! pair, an exactly-one row and a power identity), and every slack column
//! is a unit vector — so column-wise sparse storage is the natural fit.

/// An `m × n` sparse matrix in compressed-sparse-column form.
///
/// Filled by [`crate::revised::RevisedEngine`] straight from the
/// constraint rows once per solve, into the arrays of the previous
/// solve's matrix; read-only during the solve (branch-and-bound only
/// changes variable *bounds*, which the revised formulation keeps out
/// of the matrix entirely).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CscMat {
    nrows: usize,
    ncols: usize,
    /// `col_ptr[j]..col_ptr[j+1]` indexes column `j`'s entries.
    col_ptr: Vec<usize>,
    /// Row index of each stored entry.
    row_ix: Vec<usize>,
    /// Value of each stored entry.
    vals: Vec<f64>,
}

impl CscMat {
    /// Builds an `nrows × ncols` matrix from its rows, given in order as
    /// `(column, value)` entries (any column order within a row). The
    /// rows are walked twice — once to count each column's entries, once
    /// to place them — so `rows` must be cheap to clone (an iterator
    /// adapter over borrowed data). Entries with the same column within
    /// a row are summed in entry order; exact zeros (including `-0.0`
    /// and sums that cancel) are dropped.
    ///
    /// # Panics
    /// Panics if a column index is out of range — rows come from model
    /// constraints that were already validated.
    pub fn from_rows<I, R>(ncols: usize, rows: I) -> Self
    where
        I: IntoIterator<Item = R> + Clone,
        R: IntoIterator<Item = (usize, f64)>,
    {
        let mut mat = Self::default();
        mat.refill_from_rows(ncols, rows, &mut Vec::new());
        mat
    }

    /// [`from_rows`](Self::from_rows) into this matrix's arrays, in
    /// place, replacing its contents; `end` is placement scratch a
    /// caller keeps between refills.
    ///
    /// # Panics
    /// Panics if a column index is out of range.
    pub(crate) fn refill_from_rows<I, R>(&mut self, ncols: usize, rows: I, end: &mut Vec<usize>)
    where
        I: IntoIterator<Item = R> + Clone,
        R: IntoIterator<Item = (usize, f64)>,
    {
        let Self {
            nrows,
            ncols: stored_ncols,
            col_ptr,
            row_ix,
            vals,
        } = self;
        // Counting pass: `col_ptr[j + 1]` collects column `j`'s entry
        // count, an upper bound on its stored entries.
        col_ptr.clear();
        col_ptr.resize(ncols + 1, 0);
        *nrows = 0;
        for row in rows.clone() {
            *nrows += 1;
            for (j, _) in row {
                assert!(j < ncols, "column index {j} out of range ({ncols} columns)");
                col_ptr[j + 1] += 1;
            }
        }
        for j in 0..ncols {
            col_ptr[j + 1] += col_ptr[j];
        }
        // Placement pass. Rows arrive in order, so each column fills in
        // ascending row order and a repeated column within a row is
        // always the column's most recent entry.
        row_ix.clear();
        row_ix.resize(col_ptr[ncols], 0);
        vals.clear();
        vals.resize(col_ptr[ncols], 0.0);
        end.clear();
        end.extend_from_slice(&col_ptr[..ncols]);
        for (i, row) in rows.into_iter().enumerate() {
            for (j, v) in row {
                let k = end[j];
                if k > col_ptr[j] && row_ix[k - 1] == i {
                    vals[k - 1] += v;
                } else {
                    row_ix[k] = i;
                    vals[k] = v;
                    end[j] = k + 1;
                }
            }
        }
        // Compaction: close the gaps merged duplicates left and drop
        // exact zeros.
        let mut w = 0;
        for j in 0..ncols {
            let lo = col_ptr[j];
            col_ptr[j] = w;
            for k in lo..end[j] {
                if vals[k] != 0.0 {
                    row_ix[w] = row_ix[k];
                    vals[w] = vals[k];
                    w += 1;
                }
            }
        }
        col_ptr[ncols] = w;
        row_ix.truncate(w);
        vals.truncate(w);
        *stored_ncols = ncols;
    }

    /// Number of rows.
    pub(crate) fn nrows(&self) -> usize {
        self.nrows
    }

    /// Column `j` as parallel `(row indices, values)` slices.
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_ix[lo..hi], &self.vals[lo..hi])
    }

    /// Dot product of column `j` with a dense row-indexed vector —
    /// the pricing kernel (`rcⱼ = cⱼ − aⱼᵀ·y`).
    pub(crate) fn col_dot(&self, j: usize, x: &[f64]) -> f64 {
        let (rows, vals) = self.col(j);
        rows.iter().zip(vals).map(|(&r, &v)| v * x[r]).sum()
    }

    /// `out += alpha * column j` (dense scatter) — the right-hand-side
    /// assembly kernel for FTRAN.
    pub(crate) fn scatter_col(&self, j: usize, alpha: f64, out: &mut [f64]) {
        if alpha == 0.0 {
            return;
        }
        let (rows, vals) = self.col(j);
        for (&r, &v) in rows.iter().zip(vals) {
            out[r] += alpha * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csc(ncols: usize, rows: &[&[(usize, f64)]]) -> CscMat {
        CscMat::from_rows(ncols, rows.iter().map(|r| r.iter().copied()))
    }

    #[test]
    fn builds_and_reads_columns() {
        let m = csc(
            4,
            &[&[(3, 4.0), (0, 1.0)], &[(1, 3.0)], &[(3, 0.5), (0, -2.0)]],
        );
        assert_eq!((m.nrows(), m.ncols, m.vals.len()), (3, 4, 5));
        assert_eq!(m.col(0), (&[0usize, 2][..], &[1.0, -2.0][..]));
        assert_eq!(m.col(2), (&[][..], &[][..]));
        // Entries are sorted by row regardless of column order in a row.
        assert_eq!(m.col(3), (&[0usize, 2][..], &[4.0, 0.5][..]));
        // Trailing empty rows still count.
        let m = csc(1, &[&[(0, 1.0)], &[]]);
        assert_eq!((m.nrows(), m.vals.len()), (2, 1));
    }

    #[test]
    fn duplicate_entries_sum_and_zeros_drop() {
        let m = csc(
            3,
            &[
                &[(0, 1.0), (1, -0.0), (0, 2.0)],
                &[(0, 5.0), (2, 7.0), (0, -5.0)],
                &[(2, 1.0), (2, -1.0), (2, 0.25)],
            ],
        );
        assert_eq!(m.vals.len(), 3);
        assert_eq!(m.col(0), (&[0usize][..], &[3.0][..]));
        // A lone -0.0 is an exact zero and stores nothing.
        assert_eq!(m.col(1), (&[][..], &[][..]));
        // A sum that cancels and then resumes keeps the resumed value.
        assert_eq!(m.col(2), (&[1usize, 2][..], &[7.0, 0.25][..]));
    }

    #[test]
    fn refill_reuses_arrays_and_matches_a_fresh_build() {
        let big: &[&[(usize, f64)]] = &[&[(3, 4.0), (0, 1.0)], &[(1, 3.0), (1, 2.0)], &[(2, 0.5)]];
        let small: &[&[(usize, f64)]] = &[&[(1, -1.0)]];
        let mut m = csc(4, big);
        let mut end = Vec::new();
        for (ncols, rows) in [(2, small), (4, big), (2, small)] {
            m.refill_from_rows(ncols, rows.iter().map(|r| r.iter().copied()), &mut end);
            assert_eq!(m, csc(ncols, rows));
        }
    }

    #[test]
    fn dot_and_scatter() {
        let m = csc(1, &[&[(0, 2.0)], &[], &[(0, 3.0)]]);
        assert_eq!(m.col_dot(0, &[1.0, 100.0, 10.0]), 32.0);
        let mut out = vec![0.0; 3];
        m.scatter_col(0, -1.0, &mut out);
        assert_eq!(out, vec![-2.0, 0.0, -3.0]);
        m.scatter_col(0, 0.0, &mut out);
        assert_eq!(out, vec![-2.0, 0.0, -3.0]);
    }
}
