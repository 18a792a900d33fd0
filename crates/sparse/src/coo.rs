//! COOrdinate-list sparse storage (the paper's Listing 5).
//!
//! The paper stores the spline matrix's corner blocks `γ` (999×1-ish,
//! ~48 non-zeros) and `λ` (1×999-ish, ~2 non-zeros) in COO so a single
//! format serves both row- and column-shaped blocks, and replaces dense
//! `gemv` with a loop over non-zeros (`spmv`, its Listing 6) — the
//! optimisation that delivers the biggest speed-up in Table III.

use crate::error::{Error, Result};
use pp_portable::{Matrix, Strided, StridedMut};

/// A sparse matrix as three parallel arrays of `(row, col, value)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Coo {
    nrows: usize,
    ncols: usize,
    rows_idx: Vec<usize>,
    cols_idx: Vec<usize>,
    values: Vec<f64>,
}

impl Coo {
    /// Empty matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            rows_idx: Vec::new(),
            cols_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Build from parallel arrays.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        rows_idx: Vec<usize>,
        cols_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if rows_idx.len() != cols_idx.len() || cols_idx.len() != values.len() {
            return Err(Error::LengthMismatch {
                lengths: (rows_idx.len(), cols_idx.len(), values.len()),
            });
        }
        for (&r, &c) in rows_idx.iter().zip(&cols_idx) {
            if r >= nrows || c >= ncols {
                return Err(Error::EntryOutOfBounds {
                    row: r,
                    col: c,
                    shape: (nrows, ncols),
                });
            }
        }
        Ok(Self {
            nrows,
            ncols,
            rows_idx,
            cols_idx,
            values,
        })
    }

    /// Extract the non-zeros of a dense matrix (entries with
    /// `|a| > threshold`).
    pub fn from_dense(a: &Matrix, threshold: f64) -> Self {
        let mut coo = Self::new(a.nrows(), a.ncols());
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                let v = a.get(i, j);
                if v.abs() > threshold {
                    coo.push(i, j, v).expect("in bounds by construction");
                }
            }
        }
        coo
    }

    /// Append one entry. Duplicate coordinates are allowed and act
    /// additively in [`Coo::spmv_lane`].
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<()> {
        if row >= self.nrows || col >= self.ncols {
            return Err(Error::EntryOutOfBounds {
                row,
                col,
                shape: (self.nrows, self.ncols),
            });
        }
        self.rows_idx.push(row);
        self.cols_idx.push(col);
        self.values.push(value);
        Ok(())
    }

    /// Number of stored entries (the paper's `nnz()`).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
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

    /// Row indices array.
    #[inline]
    pub fn rows_idx(&self) -> &[usize] {
        &self.rows_idx
    }

    /// Column indices array.
    #[inline]
    pub fn cols_idx(&self) -> &[usize] {
        &self.cols_idx
    }

    /// Values array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterate `(row, col, value)` triplets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows_idx
            .iter()
            .zip(&self.cols_idx)
            .zip(&self.values)
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Fraction of entries stored relative to a dense matrix.
    pub fn density(&self) -> f64 {
        if self.nrows * self.ncols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.nrows * self.ncols) as f64
        }
    }

    /// Per-lane sparse accumulate: `y ← y + α · A · x`.
    ///
    /// This is the loop of the paper's Listing 6 — the sequential cost is
    /// `O(nnz)` instead of the dense `O(nrows · ncols)`, which is where the
    /// gemv→spmv speed-up of Table III comes from.
    #[inline]
    pub fn spmv_lane(&self, alpha: f64, x: &Strided<'_>, y: &mut StridedMut<'_>) {
        debug_assert_eq!(x.len(), self.ncols);
        debug_assert_eq!(y.len(), self.nrows);
        for k in 0..self.nnz() {
            let r = self.rows_idx[k];
            let c = self.cols_idx[k];
            y[r] += alpha * self.values[k] * x[c];
        }
    }

    /// Densify (tests and setup-time work).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.nrows, self.ncols, pp_portable::Layout::Right);
        for (r, c, v) in self.iter() {
            m.add_assign(r, c, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_portable::Layout;

    fn sample_dense() -> Matrix {
        Matrix::from_rows(&[
            &[1.0, 0.0, 0.0, 2.0],
            &[0.0, 0.0, 3.0, 0.0],
            &[0.0, -4.0, 0.0, 0.0],
        ])
    }

    #[test]
    fn from_dense_extracts_nonzeros() {
        let coo = Coo::from_dense(&sample_dense(), 0.0);
        assert_eq!(coo.nnz(), 4);
        assert_eq!(coo.to_dense().max_abs_diff(&sample_dense()), 0.0);
        assert!((coo.density() - 4.0 / 12.0).abs() < 1e-15);
    }

    #[test]
    fn threshold_filters_small_entries() {
        let mut a = sample_dense();
        a.set(0, 1, 1e-18);
        let coo = Coo::from_dense(&a, 1e-14);
        assert_eq!(coo.nnz(), 4); // tiny entry dropped
    }

    #[test]
    fn spmv_lane_matches_dense_product() {
        let a = sample_dense();
        let coo = Coo::from_dense(&a, 0.0);
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = [10.0, 10.0, 10.0];
        coo.spmv_lane(
            -1.0,
            &Strided::from_slice(&x),
            &mut StridedMut::from_slice(&mut y),
        );
        // y = 10 - A x = 10 - [9, 9, -8]
        assert_eq!(y, [1.0, 1.0, 18.0]);
    }

    #[test]
    fn spmv_lane_strided_views() {
        let coo = Coo::from_triplets(2, 2, vec![0, 1], vec![1, 0], vec![5.0, 7.0]).unwrap();
        let x_data = [1.0, 0.0, 2.0, 0.0]; // strided x = [1, 2]
        let mut y_data = [0.0, 0.0, 0.0, 0.0]; // strided y slots 0, 2
        coo.spmv_lane(
            1.0,
            &Strided::new(&x_data, 2, 2),
            &mut StridedMut::new(&mut y_data, 2, 2),
        );
        assert_eq!(y_data, [10.0, 0.0, 7.0, 0.0]);
    }

    #[test]
    fn duplicates_accumulate() {
        let coo = Coo::from_triplets(1, 1, vec![0, 0], vec![0, 0], vec![2.0, 3.0]).unwrap();
        assert_eq!(coo.to_dense().get(0, 0), 5.0);
        let x = [1.0];
        let mut y = [0.0];
        coo.spmv_lane(
            1.0,
            &Strided::from_slice(&x),
            &mut StridedMut::from_slice(&mut y),
        );
        assert_eq!(y[0], 5.0);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut coo = Coo::new(2, 2);
        assert!(coo.push(2, 0, 1.0).is_err());
        assert!(Coo::from_triplets(2, 2, vec![0], vec![5], vec![1.0]).is_err());
    }

    #[test]
    fn length_mismatch_rejected() {
        assert!(matches!(
            Coo::from_triplets(2, 2, vec![0, 1], vec![0], vec![1.0]),
            Err(Error::LengthMismatch { .. })
        ));
    }

    #[test]
    fn empty_matrix() {
        let coo = Coo::new(0, 0);
        assert_eq!(coo.nnz(), 0);
        assert_eq!(coo.density(), 0.0);
        let d = coo.to_dense();
        assert_eq!(d.shape(), (0, 0));
    }

    #[test]
    fn paper_corner_block_shapes() {
        // The paper's top-right corner block: shape (999, 1), 48 non-zeros.
        let mut gamma = Coo::new(999, 1);
        for i in 0..48 {
            gamma.push(i * 10, 0, 1.0).unwrap();
        }
        assert_eq!(gamma.nnz(), 48);
        // spmv on it costs 48 operations, not 999.
        let x = [2.0];
        let mut y = vec![0.0; 999];
        gamma.spmv_lane(
            1.0,
            &Strided::from_slice(&x),
            &mut StridedMut::from_slice(&mut y),
        );
        assert_eq!(y.iter().filter(|&&v| v != 0.0).count(), 48);
    }

    #[test]
    fn from_dense_respects_layout() {
        let a = sample_dense().to_layout(Layout::Left);
        let coo = Coo::from_dense(&a, 0.0);
        assert_eq!(coo.to_dense().max_abs_diff(&sample_dense()), 0.0);
    }
}
