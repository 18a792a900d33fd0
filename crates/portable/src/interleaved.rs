//! Interleaved-SoA batch storage: lanes in chunks of [`LANE_WIDTH`].
//!
//! On the paper's lane-contiguous `LayoutLeft` right-hand side, a row of
//! several lanes gathers elements `n` doubles apart whatever the loop
//! order. The interleaved layout of Gloster et al. (*Efficient
//! Interleaved Batch Matrix Solvers*, PAPERS.md) removes that stride:
//! lanes are grouped into chunks of `W = LANE_WIDTH` and stored row-major
//! *within* the chunk, so element `(i, lane)` of chunk `c` lives at
//!
//! ```text
//! offset(i, lane) = c·(nrows·W) + i·W + (lane mod W)
//! ```
//!
//! Every recurrence step of a forward/backward sweep then touches one
//! contiguous `[f64; W]` row — exactly one AVX-512 register (or two AVX2
//! registers) — and consecutive steps walk memory linearly. Packing and
//! unpacking are explicit transpose passes recorded under
//! [`PhaseId::Transpose`] so the phase profile attributes their cost.
//!
//! The final chunk of a batch whose width is not a multiple of `W` is
//! allocated at full width (the padding lanes start at zero and are never
//! read back); visitors are told the *live* lane count, and the solvers
//! sweep such a chunk at full width like any other.

use crate::error::{Error, Result};
use crate::exec::ExecSpace;
use crate::instrument::{PhaseId, Span};
use crate::matrix::Matrix;
use crate::ptr::SharedMutPtr;

/// Lanes per interleaved chunk: 8 × f64 = one 64-byte cache line and one
/// AVX-512 vector register.
pub const LANE_WIDTH: usize = 8;

/// A batch block stored lane-interleaved in chunks of [`LANE_WIDTH`].
///
/// Logically an `nrows × ncols` matrix whose columns are batch lanes,
/// physically a sequence of `ceil(ncols / W)` row-major `[nrows][W]`
/// panels. See the module docs for the offset map.
#[derive(Debug, Clone, PartialEq)]
pub struct InterleavedMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl InterleavedMatrix {
    /// An all-zero interleaved block of `nrows × ncols` (the final chunk
    /// is padded to the full [`LANE_WIDTH`]).
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        let chunks = ncols.div_ceil(LANE_WIDTH);
        Self {
            nrows,
            ncols,
            data: vec![0.0; chunks * nrows * LANE_WIDTH],
        }
    }

    /// Pack a [`Matrix`] (either layout) into interleaved storage — the
    /// explicit transpose-in pass, recorded under [`PhaseId::Transpose`].
    pub fn pack(src: &Matrix) -> Self {
        let mut out = Self::zeros(src.nrows(), src.ncols());
        out.copy_from_matrix(src, false)
            .expect("shapes match by construction");
        out
    }

    /// Pack the *logical transpose* of a [`Matrix`]: element `(i, j)` of
    /// the interleaved block is `src(j, i)`. This fuses the explicit
    /// reorientation transpose and the interleave pack into one pass —
    /// the resident ingress of a pipeline whose host mirror is stored in
    /// the flipped orientation (e.g. the advection distribution slab).
    pub fn pack_transposed(src: &Matrix) -> Self {
        let mut out = Self::zeros(src.ncols(), src.nrows());
        out.copy_from_matrix(src, true)
            .expect("shapes match by construction");
        out
    }

    /// Refill this block from a [`Matrix`] without reallocating. With
    /// `transposed`, reads `src(j, i)` into logical `(i, j)` (the
    /// [`InterleavedMatrix::pack_transposed`] orientation). Recorded
    /// under [`PhaseId::Transpose`].
    pub fn copy_from_matrix(&mut self, src: &Matrix, transposed: bool) -> Result<()> {
        let logical = if transposed {
            (src.ncols(), src.nrows())
        } else {
            src.shape()
        };
        if logical != (self.nrows, self.ncols) {
            return Err(Error::ShapeMismatch {
                op: "InterleavedMatrix::copy_from_matrix",
                left: (self.nrows, self.ncols),
                right: logical,
            });
        }
        let _span = Span::enter(PhaseId::Transpose);
        let (rs, cs) = src.strides();
        // Source strides for logical (row, col) indexing.
        let (lrs, lcs) = if transposed { (cs, rs) } else { (rs, cs) };
        let s = src.as_slice();
        let nrows = self.nrows;
        for c in 0..self.num_chunks() {
            let lanes = self.chunk_lanes(c);
            let base = c * nrows * LANE_WIDTH;
            for i in 0..nrows {
                let row = base + i * LANE_WIDTH;
                for l in 0..lanes {
                    self.data[row + l] = s[i * lrs + (c * LANE_WIDTH + l) * lcs];
                }
            }
        }
        Ok(())
    }

    /// Unpack into a [`Matrix`] of the same shape (either layout) — the
    /// explicit transpose-out pass, recorded under [`PhaseId::Transpose`].
    pub fn unpack_into(&self, dst: &mut Matrix) -> Result<()> {
        if dst.shape() != (self.nrows, self.ncols) {
            return Err(Error::ShapeMismatch {
                op: "InterleavedMatrix::unpack_into",
                left: (self.nrows, self.ncols),
                right: dst.shape(),
            });
        }
        let _span = Span::enter(PhaseId::Transpose);
        let (rs, cs) = dst.strides();
        let d = dst.as_mut_slice();
        for c in 0..self.num_chunks() {
            let lanes = self.chunk_lanes(c);
            let base = c * self.nrows * LANE_WIDTH;
            for i in 0..self.nrows {
                let row = base + i * LANE_WIDTH;
                for l in 0..lanes {
                    d[i * rs + (c * LANE_WIDTH + l) * cs] = self.data[row + l];
                }
            }
        }
        Ok(())
    }

    /// Unpack the *logical transpose* into a `(ncols, nrows)` [`Matrix`]:
    /// `dst(j, i) = self(i, j)`. The egress twin of
    /// [`InterleavedMatrix::pack_transposed`], fusing unpack and
    /// reorientation into one pass under [`PhaseId::Transpose`].
    pub fn unpack_transposed_into(&self, dst: &mut Matrix) -> Result<()> {
        if dst.shape() != (self.ncols, self.nrows) {
            return Err(Error::ShapeMismatch {
                op: "InterleavedMatrix::unpack_transposed_into",
                left: (self.ncols, self.nrows),
                right: dst.shape(),
            });
        }
        let _span = Span::enter(PhaseId::Transpose);
        let (rs, cs) = dst.strides();
        let d = dst.as_mut_slice();
        for c in 0..self.num_chunks() {
            let lanes = self.chunk_lanes(c);
            let base = c * self.nrows * LANE_WIDTH;
            for i in 0..self.nrows {
                let row = base + i * LANE_WIDTH;
                for l in 0..lanes {
                    d[(c * LANE_WIDTH + l) * rs + i * cs] = self.data[row + l];
                }
            }
        }
        Ok(())
    }

    /// Logical transpose into another interleaved block (`dst(j, i) =
    /// self(i, j)`, `dst` shaped `(ncols, nrows)`): the one reorientation
    /// pass a resident pipeline still needs when the batch dimension
    /// itself flips (e.g. x- vs. v-advection of a phase-space slab).
    /// One pass, panel to panel, never touching a host [`Matrix`];
    /// recorded under [`PhaseId::Transpose`].
    pub fn transpose_into(&self, dst: &mut InterleavedMatrix) -> Result<()> {
        if dst.shape() != (self.ncols, self.nrows) {
            return Err(Error::ShapeMismatch {
                op: "InterleavedMatrix::transpose_into",
                left: (self.ncols, self.nrows),
                right: dst.shape(),
            });
        }
        let _span = Span::enter(PhaseId::Transpose);
        for c in 0..self.num_chunks() {
            let lanes = self.chunk_lanes(c);
            let base = c * self.nrows * LANE_WIDTH;
            for i in 0..self.nrows {
                let row = base + i * LANE_WIDTH;
                for l in 0..lanes {
                    let off = dst.offset(c * LANE_WIDTH + l, i);
                    dst.data[off] = self.data[row + l];
                }
            }
        }
        Ok(())
    }

    /// Logical shape `(nrows, ncols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Logical rows (the per-lane system size).
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Logical columns (live batch lanes, excluding chunk padding).
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of `[nrows][LANE_WIDTH]` chunks (the last may be partial).
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.ncols.div_ceil(LANE_WIDTH)
    }

    /// Live lanes in chunk `c` (equals [`LANE_WIDTH`] except possibly for
    /// the final chunk).
    #[inline]
    pub fn chunk_lanes(&self, c: usize) -> usize {
        debug_assert!(c < self.num_chunks());
        LANE_WIDTH.min(self.ncols - c * LANE_WIDTH)
    }

    /// Linear offset of logical element `(i, j)` in the interleaved
    /// storage — the contract the layout property tests check.
    #[inline]
    pub fn offset(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.nrows && j < self.ncols);
        let chunk = j / LANE_WIDTH;
        chunk * self.nrows * LANE_WIDTH + i * LANE_WIDTH + (j % LANE_WIDTH)
    }

    /// Read logical element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.nrows && j < self.ncols,
            "InterleavedMatrix::get out of bounds"
        );
        self.data[self.offset(i, j)]
    }

    /// Write logical element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i < self.nrows && j < self.ncols,
            "InterleavedMatrix::set out of bounds"
        );
        let off = self.offset(i, j);
        self.data[off] = v;
    }

    /// The raw `[nrows][LANE_WIDTH]` panel of chunk `c` (padding lanes
    /// included).
    #[inline]
    pub fn chunk(&self, c: usize) -> &[f64] {
        let sz = self.nrows * LANE_WIDTH;
        &self.data[c * sz..(c + 1) * sz]
    }

    /// Mutable raw panel of chunk `c`.
    #[inline]
    pub fn chunk_mut(&mut self, c: usize) -> &mut [f64] {
        let sz = self.nrows * LANE_WIDTH;
        &mut self.data[c * sz..(c + 1) * sz]
    }

    /// Visit every chunk with `f(chunk_index, live_lanes, panel)`, possibly
    /// concurrently: chunks are disjoint contiguous panels, so they
    /// dispatch straight onto the worker pool's chunked `for_each`.
    pub fn for_each_chunk_mut<E, F>(&mut self, exec: &E, f: F)
    where
        E: ExecSpace,
        F: Fn(usize, usize, &mut [f64]) + Sync + Send,
    {
        let chunks = self.num_chunks();
        let sz = self.nrows * LANE_WIDTH;
        let ncols = self.ncols;
        let ptr = SharedMutPtr(self.data.as_mut_ptr());
        exec.for_each(chunks, |c| {
            let lanes = LANE_WIDTH.min(ncols - c * LANE_WIDTH);
            // SAFETY: chunk c owns the contiguous element range
            // [c*sz, (c+1)*sz), each c is visited exactly once, and the
            // ranges are pairwise disjoint, so no two concurrent slices
            // overlap and every slice stays inside the allocation.
            let panel = unsafe { std::slice::from_raw_parts_mut(ptr.add(c * sz), sz) };
            f(c, lanes, panel);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Parallel, Serial};
    use crate::layout::Layout;
    use crate::testrng::TestRng;

    #[test]
    fn pack_unpack_round_trips_both_layouts() {
        let mut rng = TestRng::seed_from_u64(11);
        for layout in [Layout::Left, Layout::Right] {
            for (n, batch) in [(1usize, 1usize), (5, 3), (4, 8), (7, 17), (3, 0)] {
                let src = Matrix::from_fn(n, batch, layout, |_, _| rng.gen_range(-5.0..5.0));
                let packed = InterleavedMatrix::pack(&src);
                let mut back = Matrix::zeros(n, batch, layout.flipped());
                packed.unpack_into(&mut back).unwrap();
                assert_eq!(back.max_abs_diff(&src), 0.0, "{layout:?} {n}x{batch}");
            }
        }
    }

    #[test]
    fn offsets_cover_each_element_exactly_once_non_square() {
        // The checked-contract property test the issue asks the
        // interleaved variant to inherit: every (i, j) maps to a unique
        // in-bounds offset, with padding slots never aliased.
        for (n, batch) in [(5usize, 3usize), (3, 11), (1, 9), (4, 16), (2, 1)] {
            let m = InterleavedMatrix::zeros(n, batch);
            let mut seen = vec![false; m.data.len()];
            for i in 0..n {
                for j in 0..batch {
                    let off = m.offset(i, j);
                    assert!(off < m.data.len(), "{n}x{batch}: offset out of bounds");
                    assert!(!seen[off], "{n}x{batch}: ({i},{j}) aliases offset {off}");
                    seen[off] = true;
                }
            }
            let live = seen.iter().filter(|s| **s).count();
            assert_eq!(live, n * batch);
        }
    }

    #[test]
    fn get_set_matches_pack() {
        let src = Matrix::from_fn(4, 13, Layout::Left, |i, j| (100 * i + j) as f64);
        let mut m = InterleavedMatrix::zeros(4, 13);
        for i in 0..4 {
            for j in 0..13 {
                m.set(i, j, src.get(i, j));
            }
        }
        assert_eq!(m, InterleavedMatrix::pack(&src));
        assert_eq!(m.get(3, 12), 312.0);
    }

    #[test]
    fn chunk_geometry() {
        let m = InterleavedMatrix::zeros(6, 19);
        assert_eq!(m.num_chunks(), 3);
        assert_eq!(m.chunk_lanes(0), 8);
        assert_eq!(m.chunk_lanes(1), 8);
        assert_eq!(m.chunk_lanes(2), 3);
        assert_eq!(m.chunk(1).len(), 6 * LANE_WIDTH);
        // Rows inside a chunk are contiguous LANE_WIDTH panels.
        assert_eq!(m.offset(2, 8), 6 * LANE_WIDTH + 2 * LANE_WIDTH);
        assert_eq!(m.offset(2, 9) - m.offset(2, 8), 1);
    }

    #[test]
    fn for_each_chunk_visits_disjoint_panels() {
        let mut m = InterleavedMatrix::zeros(3, 20);
        m.for_each_chunk_mut(&Parallel, |c, lanes, panel| {
            for (k, v) in panel.iter_mut().enumerate() {
                *v = (c * 1000 + k) as f64;
            }
            assert_eq!(lanes, if c == 2 { 4 } else { 8 });
        });
        for c in 0..3 {
            for k in 0..3 * LANE_WIDTH {
                assert_eq!(m.chunk(c)[k], (c * 1000 + k) as f64);
            }
        }
    }

    #[test]
    fn unpack_shape_mismatch_is_typed() {
        let m = InterleavedMatrix::zeros(3, 4);
        let mut wrong = Matrix::zeros(4, 3, Layout::Left);
        assert!(m.unpack_into(&mut wrong).is_err());
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut m = InterleavedMatrix::zeros(5, 0);
        assert_eq!(m.num_chunks(), 0);
        m.for_each_chunk_mut(&Serial, |_, _, _| panic!("no chunks to visit"));
        let mut dst = Matrix::zeros(5, 0, Layout::Left);
        m.unpack_into(&mut dst).unwrap();
    }
}
