//! Owned dense 2-D views with explicit layout.
//!
//! [`Matrix`] is the workspace's equivalent of a rank-2 `Kokkos::View`.
//! A batched right-hand-side block `B` of shape `(n, batch)` is a `Matrix`
//! whose *columns are the batch lanes*; with [`Layout::Left`] each lane is
//! contiguous (the paper's GPU layout), with [`Layout::Right`] the batch
//! dimension is contiguous (the layout the paper identifies as
//! cache-friendlier for CPUs and leaves as future work).

use crate::error::{Error, Result};
use crate::layout::Layout;
use crate::strided::{Strided, StridedMut};

/// A dense, owned `f64` matrix with a runtime-selected [`Layout`].
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    nrows: usize,
    ncols: usize,
    layout: Layout,
}

impl Matrix {
    /// An `nrows x ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize, layout: Layout) -> Self {
        Self {
            data: vec![0.0; nrows * ncols],
            nrows,
            ncols,
            layout,
        }
    }

    /// Build from a generator called as `f(i, j)` for every element.
    pub fn from_fn(
        nrows: usize,
        ncols: usize,
        layout: Layout,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        let mut m = Self::zeros(nrows, ncols, layout);
        for j in 0..ncols {
            for i in 0..nrows {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Wrap an existing buffer. `data.len()` must equal `nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, layout: Layout, data: Vec<f64>) -> Result<Self> {
        if data.len() != nrows * ncols {
            return Err(Error::ShapeMismatch {
                op: "Matrix::from_vec",
                left: (nrows, ncols),
                right: (data.len(), 1),
            });
        }
        Ok(Self {
            data,
            nrows,
            ncols,
            layout,
        })
    }

    /// Build a row-major matrix from nested row literals (test helper).
    ///
    /// # Panics
    /// Panics if rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            data,
            nrows,
            ncols,
            layout: Layout::Right,
        }
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

    /// `(nrows, ncols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// The matrix's memory layout.
    #[inline]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// `(row_stride, col_stride)` in elements.
    #[inline]
    pub fn strides(&self) -> (usize, usize) {
        self.layout.strides(self.nrows, self.ncols)
    }

    /// Read element `(i, j)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.nrows && j < self.ncols,
            "Matrix::get out of bounds"
        );
        self.data[self.layout.offset(i, j, self.nrows, self.ncols)]
    }

    /// Write element `(i, j)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i < self.nrows && j < self.ncols,
            "Matrix::set out of bounds"
        );
        let off = self.layout.offset(i, j, self.nrows, self.ncols);
        self.data[off] = v;
    }

    /// Add `v` to element `(i, j)`.
    #[inline]
    pub fn add_assign(&mut self, i: usize, j: usize, v: f64) {
        let off = self.layout.offset(i, j, self.nrows, self.ncols);
        self.data[off] += v;
    }

    /// Underlying storage in layout order.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable underlying storage in layout order.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Raw mutable pointer to the start of storage (for lane dispatch).
    #[inline]
    pub(crate) fn as_mut_ptr(&mut self) -> *mut f64 {
        self.data.as_mut_ptr()
    }

    /// Strided view of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> Strided<'_> {
        assert!(j < self.ncols, "Matrix::col out of bounds");
        let (rs, cs) = self.strides();
        Strided::new(&self.data[j * cs..], self.nrows, rs.max(1))
    }

    /// Mutable strided view of column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> StridedMut<'_> {
        assert!(j < self.ncols, "Matrix::col_mut out of bounds");
        let (rs, cs) = self.strides();
        StridedMut::new(&mut self.data[j * cs..], self.nrows, rs.max(1))
    }

    /// Strided view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> Strided<'_> {
        assert!(i < self.nrows, "Matrix::row out of bounds");
        let (rs, cs) = self.strides();
        Strided::new(&self.data[i * rs..], self.ncols, cs.max(1))
    }

    /// Fill every element with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Element-wise copy from `src`, which must have the same shape but may
    /// have a different layout (the analogue of `Kokkos::deep_copy`).
    pub fn deep_copy_from(&mut self, src: &Matrix) -> Result<()> {
        if self.shape() != src.shape() {
            return Err(Error::ShapeMismatch {
                op: "deep_copy",
                left: self.shape(),
                right: src.shape(),
            });
        }
        if self.layout == src.layout {
            self.data.copy_from_slice(&src.data);
        } else {
            for j in 0..self.ncols {
                for i in 0..self.nrows {
                    let v = src.get(i, j);
                    self.set(i, j, v);
                }
            }
        }
        Ok(())
    }

    /// Return the same matrix re-stored in `layout`.
    pub fn to_layout(&self, layout: Layout) -> Matrix {
        if layout == self.layout {
            return self.clone();
        }
        let mut out = Matrix::zeros(self.nrows, self.ncols, layout);
        out.deep_copy_from(self)
            .expect("same shape by construction");
        out
    }

    /// Maximum absolute element-wise difference against `other`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch");
        let mut worst: f64 = 0.0;
        for j in 0..self.ncols {
            for i in 0..self.nrows {
                worst = worst.max((self.get(i, j) - other.get(i, j)).abs());
            }
        }
        worst
    }

    /// Iterate `(i, j, value)` over all elements (row-major order).
    pub fn iter_entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |i| (0..self.ncols).map(move |j| (i, j, self.get(i, j))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_round_trip_both_layouts() {
        for layout in [Layout::Left, Layout::Right] {
            let mut m = Matrix::zeros(3, 4, layout);
            for i in 0..3 {
                for j in 0..4 {
                    m.set(i, j, (10 * i + j) as f64);
                }
            }
            for i in 0..3 {
                for j in 0..4 {
                    assert_eq!(m.get(i, j), (10 * i + j) as f64);
                }
            }
        }
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, Layout::Left, vec![0.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, Layout::Left, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_matches_get() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.layout(), Layout::Right);
    }

    #[test]
    fn col_is_contiguous_in_layout_left() {
        let m = Matrix::from_fn(4, 3, Layout::Left, |i, j| (i + 10 * j) as f64);
        let c = m.col(2);
        assert_eq!(c.stride(), 1);
        assert_eq!(c.to_vec(), vec![20.0, 21.0, 22.0, 23.0]);
    }

    #[test]
    fn col_is_strided_in_layout_right() {
        let m = Matrix::from_fn(4, 3, Layout::Right, |i, j| (i + 10 * j) as f64);
        let c = m.col(1);
        assert_eq!(c.stride(), 3);
        assert_eq!(c.to_vec(), vec![10.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    fn row_views_match_both_layouts() {
        for layout in [Layout::Left, Layout::Right] {
            let m = Matrix::from_fn(3, 5, layout, |i, j| (i * 100 + j) as f64);
            assert_eq!(m.row(2).to_vec(), vec![200.0, 201.0, 202.0, 203.0, 204.0]);
        }
    }

    #[test]
    fn col_mut_writes_through() {
        let mut m = Matrix::zeros(3, 3, Layout::Right);
        m.col_mut(1).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(2, 1), 3.0);
        assert_eq!(m.get(2, 0), 0.0);
    }

    #[test]
    fn deep_copy_across_layouts() {
        let src = Matrix::from_fn(3, 4, Layout::Right, |i, j| (i * 7 + j) as f64);
        let mut dst = Matrix::zeros(3, 4, Layout::Left);
        dst.deep_copy_from(&src).unwrap();
        assert_eq!(dst.max_abs_diff(&src), 0.0);
    }

    #[test]
    fn deep_copy_shape_mismatch_errors() {
        let src = Matrix::zeros(3, 4, Layout::Right);
        let mut dst = Matrix::zeros(4, 3, Layout::Right);
        assert!(dst.deep_copy_from(&src).is_err());
    }

    #[test]
    fn to_layout_preserves_values() {
        let m = Matrix::from_fn(5, 2, Layout::Left, |i, j| (i * j + 3) as f64);
        let r = m.to_layout(Layout::Right);
        assert_eq!(r.layout(), Layout::Right);
        assert_eq!(m.max_abs_diff(&r), 0.0);
    }

    #[test]
    fn iter_entries_covers_everything() {
        let m = Matrix::from_fn(2, 2, Layout::Left, |i, j| (i * 2 + j) as f64);
        let entries: Vec<_> = m.iter_entries().collect();
        assert_eq!(entries.len(), 4);
        assert!(entries.contains(&(1, 0, 2.0)));
    }
}
