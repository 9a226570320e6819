//! Minimal dense linear algebra: Gaussian elimination with partial
//! pivoting, sized for the small susceptance matrices of power networks
//! (a handful of buses).

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    pub rows: usize,
    pub cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows x cols` zero matrix.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from nested rows; all rows must share a length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Self {
            rows: r,
            cols: c,
            data: rows.iter().flatten().copied().collect(),
        }
    }

    /// Matrix product `self * other`.
    #[cfg(test)]
    fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        out
    }

    /// Solves `self * X = B` for `X` via Gaussian elimination with partial
    /// pivoting. Returns `None` when the matrix is singular (pivot below
    /// `1e-12`).
    pub fn solve(&self, b: &Matrix) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(self.rows, b.rows, "rhs row mismatch");
        let n = self.rows;
        let m = b.cols;
        // Augmented [A | B].
        let mut aug = Matrix::zeros(n, n + m);
        for i in 0..n {
            for j in 0..n {
                aug[(i, j)] = self[(i, j)];
            }
            for j in 0..m {
                aug[(i, n + j)] = b[(i, j)];
            }
        }
        for col in 0..n {
            // Partial pivot.
            let mut piv = col;
            for r in col + 1..n {
                if aug[(r, col)].abs() > aug[(piv, col)].abs() {
                    piv = r;
                }
            }
            if aug[(piv, col)].abs() < 1e-12 {
                return None;
            }
            if piv != col {
                for j in 0..n + m {
                    let tmp = aug[(col, j)];
                    aug[(col, j)] = aug[(piv, j)];
                    aug[(piv, j)] = tmp;
                }
            }
            let inv = 1.0 / aug[(col, col)];
            for j in col..n + m {
                aug[(col, j)] *= inv;
            }
            for r in 0..n {
                if r == col {
                    continue;
                }
                let f = aug[(r, col)];
                if f != 0.0 {
                    for j in col..n + m {
                        aug[(r, j)] -= f * aug[(col, j)];
                    }
                }
            }
        }
        let mut x = Matrix::zeros(n, m);
        for i in 0..n {
            for j in 0..m {
                x[(i, j)] = aug[(i, n + j)];
            }
        }
        Some(x)
    }

    /// Matrix inverse, if nonsingular.
    pub(crate) fn inverse(&self) -> Option<Matrix> {
        self.solve(&Matrix::identity(self.rows))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_returns_rhs() {
        let i3 = Matrix::identity(3);
        let b = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let x = i3.solve(&b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x - y = 1  => x = 2, y = 1
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, -1.0]]);
        let b = Matrix::from_rows(&[vec![5.0], vec![1.0]]);
        let x = a.solve(&b).unwrap();
        assert!((x[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((x[(1, 0)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_returns_none() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        let b = Matrix::identity(2);
        assert!(a.solve(&b).is_none());
    }

    #[test]
    fn inverse_times_self_is_identity() {
        let a = Matrix::from_rows(&[
            vec![4.0, 7.0, 2.0],
            vec![3.0, 5.0, 1.0],
            vec![1.0, 2.0, 9.0],
        ]);
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn matmul_shapes_and_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0], vec![6.0]]);
        let c = a.matmul(&b);
        assert_eq!((c.rows, c.cols), (2, 1));
        assert_eq!(c[(0, 0)], 17.0);
        assert_eq!(c[(1, 0)], 39.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged_input() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // First pivot position is zero; partial pivoting must swap rows.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let b = Matrix::from_rows(&[vec![3.0], vec![7.0]]);
        let x = a.solve(&b).unwrap();
        assert_eq!(x[(0, 0)], 7.0);
        assert_eq!(x[(1, 0)], 3.0);
    }
}
