//! Compressed Sparse Row storage.
//!
//! CSR is the format the paper's Ginkgo implementation stores the spline
//! matrix in (§III-B). The iterative solvers in `pp-iterative` consume this
//! type, one lane at a time: [`Csr::spmv_into`] is the sequential product
//! each lane's Krylov iteration applies.

use crate::coo::Coo;
use crate::error::{Error, Result};
use pp_portable::{run_scalar, Lanes, Matrix};

/// A sparse matrix in CSR format.
///
/// ```
/// use pp_portable::{Lanes, Matrix};
/// use pp_sparse::Csr;
///
/// let dense = Matrix::from_rows(&[&[2.0, 0.0], &[-1.0, 3.0]]);
/// let a = Csr::from_dense(&dense, 0.0);
/// assert_eq!(a.nnz(), 3);
/// assert_eq!(a.spmv_alloc(&[1.0, 2.0]), vec![2.0, 5.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl Csr {
    /// Build from a COO matrix, summing duplicates and sorting columns
    /// within each row.
    pub fn from_coo(coo: &Coo) -> Self {
        let nrows = coo.nrows();
        let ncols = coo.ncols();
        // Count entries per row.
        let mut counts = vec![0usize; nrows];
        for &r in coo.rows_idx() {
            counts[r] += 1;
        }
        let mut row_ptr = vec![0usize; nrows + 1];
        for i in 0..nrows {
            row_ptr[i + 1] = row_ptr[i] + counts[i];
        }
        // Scatter into place.
        let mut col_idx = vec![0usize; coo.nnz()];
        let mut values = vec![0.0; coo.nnz()];
        let mut cursor = row_ptr.clone();
        for (r, c, v) in coo.iter() {
            let k = cursor[r];
            col_idx[k] = c;
            values[k] = v;
            cursor[r] += 1;
        }
        // Sort within rows and merge duplicates.
        let mut out_col = Vec::with_capacity(coo.nnz());
        let mut out_val = Vec::with_capacity(coo.nnz());
        let mut out_ptr = vec![0usize; nrows + 1];
        for i in 0..nrows {
            let lo = row_ptr[i];
            let hi = row_ptr[i + 1];
            let mut row: Vec<(usize, f64)> = col_idx[lo..hi]
                .iter()
                .copied()
                .zip(values[lo..hi].iter().copied())
                .collect();
            row.sort_by_key(|&(c, _)| c);
            let mut it = row.into_iter();
            if let Some((mut pc, mut pv)) = it.next() {
                for (c, v) in it {
                    if c == pc {
                        pv += v; // duplicate coordinate: accumulate
                    } else {
                        out_col.push(pc);
                        out_val.push(pv);
                        (pc, pv) = (c, v);
                    }
                }
                out_col.push(pc);
                out_val.push(pv);
            }
            out_ptr[i + 1] = out_col.len();
        }
        Self {
            nrows,
            ncols,
            row_ptr: out_ptr,
            col_idx: out_col,
            values: out_val,
        }
    }

    /// Extract the non-zeros of a dense matrix.
    pub fn from_dense(a: &Matrix, threshold: f64) -> Self {
        Self::from_coo(&Coo::from_dense(a, threshold))
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array (length `nrows + 1`).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array.
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Values array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Entries `(col, value)` of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Read `A(i, j)` (zero when not stored).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.row(i).find(|&(c, _)| c == j).map_or(0.0, |(_, v)| v)
    }

    /// Sequential `y ← A x` into a caller-provided buffer.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length");
        assert_eq!(y.len(), self.nrows, "spmv: y length");
        run_scalar(
            #[inline(always)]
            || {
                for i in 0..self.nrows {
                    y[i] = self
                        .row(i)
                        .fold(0.0, |s, (c, v)| Lanes::mul_add(v, x[c], s));
                }
            },
        );
    }

    /// `y ← A x` allocating the result.
    pub fn spmv_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.spmv_into(x, &mut y);
        y
    }

    /// Extract the square diagonal block `rows/cols [lo, hi)` as dense
    /// (used by the block-Jacobi preconditioner).
    pub fn dense_block(&self, lo: usize, hi: usize) -> Result<Matrix> {
        if hi > self.nrows || hi > self.ncols || lo > hi {
            return Err(Error::ShapeMismatch {
                op: "dense_block",
                detail: format!("[{lo}, {hi}) outside {}x{}", self.nrows, self.ncols),
            });
        }
        let k = hi - lo;
        let mut m = Matrix::zeros(k, k, pp_portable::Layout::Right);
        for i in lo..hi {
            for (c, v) in self.row(i) {
                if c >= lo && c < hi {
                    m.set(i - lo, c - lo, v);
                }
            }
        }
        Ok(m)
    }

    /// Densify (tests).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.nrows, self.ncols, pp_portable::Layout::Right);
        for i in 0..self.nrows {
            for (c, v) in self.row(i) {
                m.add_assign(i, c, v);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_portable::TestRng;

    fn sample() -> Matrix {
        Matrix::from_rows(&[
            &[4.0, -1.0, 0.0, 0.0],
            &[-1.0, 4.0, -1.0, 0.0],
            &[0.0, -1.0, 4.0, -1.0],
            &[0.5, 0.0, -1.0, 4.0],
        ])
    }

    #[test]
    fn dense_round_trip() {
        let a = sample();
        let csr = Csr::from_dense(&a, 0.0);
        assert_eq!(csr.nnz(), 11);
        assert_eq!(csr.to_dense().max_abs_diff(&a), 0.0);
    }

    #[test]
    fn rows_sorted_by_column() {
        let csr = Csr::from_dense(&sample(), 0.0);
        for i in 0..csr.nrows() {
            let cols: Vec<usize> = csr.row(i).map(|(c, _)| c).collect();
            let mut sorted = cols.clone();
            sorted.sort_unstable();
            assert_eq!(cols, sorted);
        }
    }

    #[test]
    fn duplicate_triplets_merge() {
        let coo =
            Coo::from_triplets(2, 2, vec![0, 0, 1], vec![1, 1, 0], vec![2.0, 3.0, 1.0]).unwrap();
        let csr = Csr::from_coo(&coo);
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 1), 5.0);
        assert_eq!(csr.get(1, 0), 1.0);
        assert_eq!(csr.get(0, 0), 0.0);
    }

    #[test]
    fn spmv_matches_dense() {
        let mut rng = TestRng::seed_from_u64(4);
        let a = Matrix::from_fn(30, 30, pp_portable::Layout::Right, |_, _| {
            if rng.gen_bool(0.2) {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            }
        });
        let csr = Csr::from_dense(&a, 0.0);
        let x: Vec<f64> = (0..30).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let expected: Vec<f64> = (0..30)
            .map(|i| (0..30).map(|j| a.get(i, j) * x[j]).sum())
            .collect();
        let y = csr.spmv_alloc(&x);
        for (u, v) in y.iter().zip(&expected) {
            assert!((u - v).abs() < 1e-13);
        }
    }

    #[test]
    fn dense_block_extracts_diagonal_block() {
        let csr = Csr::from_dense(&sample(), 0.0);
        let blk = csr.dense_block(1, 3).unwrap();
        assert_eq!(blk.shape(), (2, 2));
        assert_eq!(blk.get(0, 0), 4.0);
        assert_eq!(blk.get(0, 1), -1.0);
        assert_eq!(blk.get(1, 0), -1.0);
        assert_eq!(blk.get(1, 1), 4.0);
        assert!(csr.dense_block(3, 5).is_err());
    }

    #[test]
    fn empty_rows_are_handled() {
        let coo = Coo::from_triplets(3, 3, vec![2], vec![0], vec![1.0]).unwrap();
        let csr = Csr::from_coo(&coo);
        assert_eq!(csr.row(0).count(), 0);
        assert_eq!(csr.row(1).count(), 0);
        assert_eq!(csr.row(2).count(), 1);
        let y = csr.spmv_alloc(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![0.0, 0.0, 1.0]);
    }
}
