//! Small dense linear algebra used by the queueing solvers.
//!
//! Jackson traffic equations and the P2P replica-balance equations
//! (Proposition 1 of the paper) are dense linear systems whose dimension is
//! the number of chunks in a channel (tens to a few hundred), so a simple
//! dense Gaussian elimination with partial pivoting is the right tool — no
//! external linear-algebra dependency is warranted.

use std::fmt;
use std::ops::{Index, IndexMut};

use cloudmedia_telemetry::GlobalCounter;

use crate::error::QueueingError;

/// Direct Gaussian eliminations performed ([`Matrix::solve`]), process
/// lifetime. The telemetry plane reads before/after deltas around a run
/// to report how much work the provisioning pipeline's solvers did.
pub static DIRECT_SOLVES: GlobalCounter = GlobalCounter::new();

/// LU factorizations completed ([`Matrix::lu`]), process lifetime.
pub static LU_FACTORIZATIONS: GlobalCounter = GlobalCounter::new();

/// Right-hand sides solved against a cached factorization
/// ([`LuFactors::solve_into`], one per column of
/// [`LuFactors::solve_columns_into`]), process lifetime.
pub static LU_SOLVES: GlobalCounter = GlobalCounter::new();

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows or either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        let len = rows.checked_mul(cols).expect("matrix size overflow");
        Self {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major slice of rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows are empty or ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let cols = Self::row_shape(rows);
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// The column count of `rows` as [`Matrix::from_rows`] reads them.
    ///
    /// # Panics
    ///
    /// Panics if the rows are empty or ragged.
    pub(crate) fn row_shape(rows: &[Vec<f64>]) -> usize {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have the same length"
        );
        cols
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "matrix row out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The entries, row-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The entries, row-major, for writing.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns the transpose of this matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mul_vec");
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// Matrix–matrix product `A B`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not agree.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch in mul");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Solves `A x = b` by Gaussian elimination with partial pivoting.
    ///
    /// Returns [`QueueingError::SingularSystem`] if the matrix is
    /// (numerically) singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len() != self.rows()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, QueueingError> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "dimension mismatch in solve");
        DIRECT_SOLVES.inc();
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x: Vec<f64> = b.to_vec();

        for col in 0..n {
            // Partial pivoting: pick the row with the largest magnitude entry.
            let mut pivot_row = col;
            let mut pivot_mag = a[col * n + col].abs();
            for r in (col + 1)..n {
                let mag = a[r * n + col].abs();
                if mag > pivot_mag {
                    pivot_row = r;
                    pivot_mag = mag;
                }
            }
            if pivot_mag < 1e-12 {
                return Err(QueueingError::SingularSystem { column: col });
            }
            if pivot_row != col {
                for c in 0..n {
                    a.swap(col * n + c, pivot_row * n + c);
                }
                x.swap(col, pivot_row);
            }
            let pivot = a[col * n + col];
            for r in (col + 1)..n {
                let factor = a[r * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                a[r * n + col] = 0.0;
                for c in (col + 1)..n {
                    a[r * n + c] -= factor * a[col * n + c];
                }
                x[r] -= factor * x[col];
            }
        }

        // Back substitution.
        for col in (0..n).rev() {
            let mut sum = x[col];
            for c in (col + 1)..n {
                sum -= a[col * n + c] * x[c];
            }
            x[col] = sum / a[col * n + col];
        }
        Ok(x)
    }

    /// Computes the inverse: one LU factorization, then the `n` identity
    /// columns in one [`LuFactors::solve_columns_into`] sweep — `O(n³)`
    /// instead of a full elimination per column. Each column is bitwise
    /// what [`Matrix::solve`] returns for that identity column.
    ///
    /// Returns [`QueueingError::SingularSystem`] if the matrix is
    /// (numerically) singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn inverse(&self) -> Result<Matrix, QueueingError> {
        assert_eq!(self.rows, self.cols, "inverse requires a square matrix");
        let n = self.rows;
        let columns = self.lu()?.inverse_columns();
        let mut inv = Matrix::zeros(n, n);
        for (j, column) in columns.chunks_exact(n).enumerate() {
            for (i, &x) in column.iter().enumerate() {
                inv.data[i * n + j] = x;
            }
        }
        Ok(inv)
    }

    /// Factorizes the matrix as `P A = L U` (partial pivoting). Factor
    /// once in O(n³), then [`LuFactors::solve_into`] each right-hand side
    /// in O(n²) — the tool for families of systems sharing one matrix
    /// (e.g. the replica-balance systems of the P2P analysis, which
    /// solve against the same routing structure for every chunk).
    ///
    /// Returns [`QueueingError::SingularSystem`] if the matrix is
    /// (numerically) singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn lu(&self) -> Result<LuFactors, QueueingError> {
        assert_eq!(self.rows, self.cols, "lu requires a square matrix");
        let mut factors = LuFactors::default();
        factors.refactor(self.rows, |a| a.copy_from_slice(&self.data))?;
        Ok(factors)
    }

    /// Maximum absolute entry; useful for residual checks in tests.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }
}

/// An LU factorization with partial pivoting (`P A = L U`), produced by
/// [`Matrix::lu`]. `L` is unit lower triangular (stored below the
/// diagonal), `U` upper triangular (diagonal and above), packed in one
/// row-major array.
///
/// The default value is the factorization of the empty system; a kept
/// `LuFactors` is refactored in place by [`LuFactors::refactor`], which
/// reuses its buffers.
#[derive(Debug, Clone, Default)]
pub struct LuFactors {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
}

impl LuFactors {
    /// System dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Factorizes the `n × n` matrix that `fill` writes, row-major, into
    /// the zeroed slice it is given, as `P A = L U` with partial
    /// pivoting. The buffers of the previous factorization are reused,
    /// so refactoring systems of one size never allocates.
    ///
    /// Returns [`QueueingError::SingularSystem`] if the matrix is
    /// (numerically) singular; the factors are then unusable until the
    /// next successful refactorization.
    pub fn refactor(
        &mut self,
        n: usize,
        fill: impl FnOnce(&mut [f64]),
    ) -> Result<(), QueueingError> {
        self.n = n;
        self.lu.clear();
        self.lu.resize(n * n, 0.0);
        fill(&mut self.lu);
        self.perm.clear();
        self.perm.extend(0..n);
        let lu = &mut self.lu;
        for col in 0..n {
            let mut pivot_row = col;
            let mut pivot_mag = lu[col * n + col].abs();
            for r in (col + 1)..n {
                let mag = lu[r * n + col].abs();
                if mag > pivot_mag {
                    pivot_row = r;
                    pivot_mag = mag;
                }
            }
            if pivot_mag < 1e-12 {
                return Err(QueueingError::SingularSystem { column: col });
            }
            if pivot_row != col {
                let (above, below) = lu.split_at_mut(pivot_row * n);
                above[col * n..(col + 1) * n].swap_with_slice(&mut below[..n]);
                self.perm.swap(col, pivot_row);
            }
            let (upper, lower) = lu.split_at_mut((col + 1) * n);
            let pivot = upper[col * n + col];
            let pivot_tail = &upper[col * n + col + 1..];
            for row in lower.chunks_exact_mut(n) {
                let factor = row[col] / pivot;
                row[col] = factor; // store L below the diagonal
                if factor != 0.0 {
                    for (x, &u) in row[col + 1..].iter_mut().zip(pivot_tail) {
                        *x -= factor * u;
                    }
                }
            }
        }
        LU_FACTORIZATIONS.inc();
        Ok(())
    }

    /// Solves `A x = b` in place (`b` becomes `x`), using `scratch` for
    /// the permuted right-hand side (resized as needed, so a reused
    /// scratch buffer makes repeated solves allocation-free).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the system dimension.
    pub fn solve_into(&self, b: &mut [f64], scratch: &mut Vec<f64>) {
        let n = self.n;
        assert_eq!(b.len(), n, "dimension mismatch in LU solve");
        LU_SOLVES.inc();
        scratch.clear();
        scratch.extend(self.perm.iter().map(|&p| b[p]));
        // Forward substitution with unit-diagonal L.
        for i in 0..n {
            let mut sum = scratch[i];
            let row = &self.lu[i * n..i * n + i];
            for (l, x) in row.iter().zip(scratch.iter()) {
                sum -= l * x;
            }
            scratch[i] = sum;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut sum = scratch[i];
            let row = &self.lu[i * n + i + 1..(i + 1) * n];
            for (u, x) in row.iter().zip(scratch[i + 1..].iter()) {
                sum -= u * x;
            }
            scratch[i] = sum / self.lu[i * n + i];
        }
        b.copy_from_slice(scratch);
    }

    /// Solves `A X = B` in place for several right-hand sides at once:
    /// `b` holds `k = b.len() / n` columns back to back (column `c` is
    /// `b[c·n..(c + 1)·n]`) and each becomes its solution. `scratch`
    /// holds the permuted right-hand sides row by row (resized as
    /// needed).
    ///
    /// The substitutions sweep the factors once, row by row, applying
    /// each factor entry to all `k` columns. Every column still sees
    /// exactly the operations of [`LuFactors::solve_into`] in the same
    /// order, so the results are bitwise those of `k` separate solves —
    /// and [`LU_SOLVES`] counts `k`. A single column goes straight to
    /// `solve_into`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` is not a multiple of the system dimension.
    pub fn solve_columns_into(&self, b: &mut [f64], scratch: &mut Vec<f64>) {
        let n = self.n;
        assert_eq!(b.len() % n, 0, "dimension mismatch in LU solve");
        let k = b.len() / n;
        match k {
            0 => return,
            1 => return self.solve_into(b, scratch),
            _ => LU_SOLVES.add(k as u64),
        }
        scratch.clear();
        scratch.resize(n * k, 0.0);
        for (row, &p) in scratch.chunks_exact_mut(k).zip(&self.perm) {
            for (x, column) in row.iter_mut().zip(b.chunks_exact(n)) {
                *x = column[p];
            }
        }
        // Forward substitution with unit-diagonal L.
        for i in 1..n {
            let (solved, rest) = scratch.split_at_mut(i * k);
            let row = &mut rest[..k];
            for (&l, src) in self.lu[i * n..i * n + i].iter().zip(solved.chunks_exact(k)) {
                for (x, &y) in row.iter_mut().zip(src) {
                    *x -= l * y;
                }
            }
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let (head, solved) = scratch.split_at_mut((i + 1) * k);
            let row = &mut head[i * k..];
            for (&u, src) in self.lu[i * n + i + 1..(i + 1) * n]
                .iter()
                .zip(solved.chunks_exact(k))
            {
                for (x, &y) in row.iter_mut().zip(src) {
                    *x -= u * y;
                }
            }
            let pivot = self.lu[i * n + i];
            for x in row.iter_mut() {
                *x /= pivot;
            }
        }
        for (i, row) in scratch.chunks_exact(k).enumerate() {
            for (&x, column) in row.iter().zip(b.chunks_exact_mut(n)) {
                column[i] = x;
            }
        }
    }

    /// The columns of `A⁻¹`, back to back (column `j` is
    /// `[j·n..(j + 1)·n]`), from one [`LuFactors::solve_columns_into`]
    /// sweep over the identity.
    pub fn inverse_columns(&self) -> Vec<f64> {
        let n = self.n;
        let mut columns = vec![0.0; n * n];
        for (j, column) in columns.chunks_exact_mut(n).enumerate() {
            column[j] = 1.0;
        }
        self.solve_columns_into(&mut columns, &mut Vec::new());
        columns
    }

    /// Solves `A x = b`, allocating the result.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the system dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        let mut scratch = Vec::with_capacity(self.n);
        self.solve_into(&mut x, &mut scratch);
        x
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn identity_solve_returns_rhs() {
        let a = Matrix::identity(4);
        let b = vec![1.0, -2.0, 3.5, 0.0];
        let x = a.solve(&b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn solve_known_2x2() {
        // 2x + y = 5 ; x - y = 1  => x = 2, y = 1
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, -1.0]]);
        let x = a.solve(&[5.0, 1.0]).unwrap();
        assert_close(x[0], 2.0, 1e-12);
        assert_close(x[1], 1.0, 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert_close(x[0], 7.0, 1e-12);
        assert_close(x[1], 3.0, 1e-12);
    }

    #[test]
    fn singular_system_is_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        let err = a.solve(&[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, QueueingError::SingularSystem { .. }));
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[
            vec![4.0, 2.0, 0.5],
            vec![-1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ]);
        let inv = a.inverse().unwrap();
        let prod = a.mul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert_close(prod[(i, j)], expected, 1e-10);
            }
        }
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let y = a.mul_vec(&[5.0, 6.0]);
        assert_eq!(y, vec![17.0, 39.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mul_vec_dimension_mismatch_panics() {
        let a = Matrix::identity(2);
        let _ = a.mul_vec(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn lu_solve_matches_direct_solve() {
        let a = Matrix::from_rows(&[
            vec![4.0, 2.0, 0.5],
            vec![-1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ]);
        let lu = a.lu().unwrap();
        assert_eq!(lu.dim(), 3);
        let mut scratch = Vec::new();
        for b in [[1.0, 2.0, 3.0], [0.0, -5.0, 0.25], [1e3, -1e3, 0.0]] {
            let direct = a.solve(&b).unwrap();
            let mut x = b.to_vec();
            lu.solve_into(&mut x, &mut scratch);
            for (d, l) in direct.iter().zip(&x) {
                assert_close(*d, *l, 1e-10);
            }
        }
    }

    #[test]
    fn solve_columns_counts_every_column() {
        // Bitwise equality with `solve_into` is property-tested in
        // tests/properties.rs; here, the accounting and the empty case.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let lu = a.lu().unwrap();
        let mut columns = vec![1.0, 0.0, 0.0, 1.0, 5.0, -2.0];
        let before = LU_SOLVES.get();
        lu.solve_columns_into(&mut columns, &mut Vec::new());
        assert!(LU_SOLVES.get() - before >= 3, "every column is counted");
        let inv = a.inverse().unwrap();
        assert_eq!(&columns[..2], &[inv[(0, 0)], inv[(1, 0)]]);
        lu.solve_columns_into(&mut [], &mut Vec::new());
    }

    #[test]
    fn lu_requires_pivoting() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = a.lu().unwrap().solve(&[3.0, 7.0]);
        assert_close(x[0], 7.0, 1e-12);
        assert_close(x[1], 3.0, 1e-12);
    }

    #[test]
    fn lu_detects_singular() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(matches!(
            a.lu().unwrap_err(),
            QueueingError::SingularSystem { .. }
        ));
    }

    #[test]
    fn solve_random_system_residual_small() {
        // Deterministic pseudo-random fill; checks residual A x - b ~ 0.
        let n = 25;
        let mut a = Matrix::zeros(n, n);
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            // Diagonal dominance keeps the system well conditioned.
            a[(i, i)] += n as f64;
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 * 0.25 - 1.0).collect();
        let x = a.solve(&b).unwrap();
        let r = a.mul_vec(&x);
        for i in 0..n {
            assert_close(r[i], b[i], 1e-9);
        }
    }
}
