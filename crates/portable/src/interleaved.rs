//! The resident batch: lanes interleaved in chunks of [`LANE_WIDTH`],
//! kept packed across a pipeline.
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
//! registers) — and consecutive steps walk memory linearly.
//!
//! A [`ResidentBatch`] keeps the layout across solver calls, as Gloster et
//! al. and the batched-Ginkgo SYCL work do: a pipeline packs once at
//! ingress ([`ResidentBatch::pack`] / [`ResidentBatch::pack_transposed`]),
//! solves and evaluates on the panels any number of times, and unpacks
//! once at egress ([`ResidentBatch::unpack_into`] /
//! [`ResidentBatch::unpack_transposed_into`]) — explicit copies, like
//! Kokkos' `deep_copy`.
//!
//! The final chunk of a batch whose width is not a multiple of `W` is
//! allocated at full width (the padding lanes start at zero and are never
//! read back); visitors are told the *live* lane count, and the solvers
//! sweep such a chunk at full width like any other.

use crate::error::{Error, Result};
use crate::exec::{ExecSpace, Serial};
use crate::isa::PanelIsa;
use crate::lines::Lines;
use crate::matrix::Matrix;
use crate::ptr::SharedMutPtr;
use std::array;

/// Lanes per interleaved chunk: 8 × f64 = one 64-byte cache line and one
/// AVX-512 vector register.
pub const LANE_WIDTH: usize = 8;

/// A batch stored lane-interleaved in chunks of [`LANE_WIDTH`], resident
/// across a pipeline (module docs).
///
/// Logically an `nrows × ncols` matrix whose columns are batch lanes,
/// physically a sequence of `ceil(ncols / W)` row-major `[nrows][W]`
/// panels, each starting a cache line ([`Lines`]). See the module docs for
/// the offset map.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidentBatch {
    nrows: usize,
    ncols: usize,
    data: Lines,
}

impl ResidentBatch {
    /// An all-zero batch of `nrows × ncols` (the final chunk is padded to
    /// the full [`LANE_WIDTH`]), its panels 64-byte aligned.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        let chunks = ncols.div_ceil(LANE_WIDTH);
        Self {
            nrows,
            ncols,
            data: Lines::zeros(chunks * nrows * LANE_WIDTH),
        }
    }

    /// Ingress: pack a host [`Matrix`] (either layout) into panels.
    pub fn pack(src: &Matrix) -> Self {
        Self::pack_with(&Serial, src)
    }

    /// [`ResidentBatch::pack`] as one region on `exec`.
    pub fn pack_with<E: ExecSpace>(exec: &E, src: &Matrix) -> Self {
        let mut out = Self::zeros(src.nrows(), src.ncols());
        out.move_in(exec, src, false, "ResidentBatch::pack")
            .expect("shapes match by construction");
        out
    }

    /// Ingress of a host matrix stored in the flipped orientation: element
    /// `(i, j)` of the batch is `src(j, i)`. Fuses the reorientation and
    /// the pack into one pass.
    pub fn pack_transposed(src: &Matrix) -> Self {
        let mut out = Self::zeros(src.ncols(), src.nrows());
        out.pack_transposed_from(src)
            .expect("shapes match by construction");
        out
    }

    /// Refill the panels from a host [`Matrix`] of the batch's shape
    /// without reallocating (re-ingress of the next pipeline input).
    pub fn pack_from(&mut self, src: &Matrix) -> Result<()> {
        self.move_in(&Serial, src, false, "ResidentBatch::pack_from")
    }

    /// Refill from a flipped-orientation host matrix, as
    /// [`ResidentBatch::pack_transposed`].
    pub fn pack_transposed_from(&mut self, src: &Matrix) -> Result<()> {
        self.move_in(&Serial, src, true, "ResidentBatch::pack_transposed_from")
    }

    /// Refill the panels from another batch of the same shape — a straight
    /// copy, no transpose.
    pub fn copy_from(&mut self, src: &ResidentBatch) -> Result<()> {
        if self.shape() != src.shape() {
            return Err(Error::ShapeMismatch {
                op: "ResidentBatch::copy_from",
                left: self.shape(),
                right: src.shape(),
            });
        }
        self.data.copy_from_slice(&src.data);
        Ok(())
    }

    /// Egress into a host [`Matrix`] of the batch's shape (either layout).
    pub fn unpack_into(&self, dst: &mut Matrix) -> Result<()> {
        self.unpack_into_with(&Serial, dst)
    }

    /// [`ResidentBatch::unpack_into`] as one region on `exec`.
    pub fn unpack_into_with<E: ExecSpace>(&self, exec: &E, dst: &mut Matrix) -> Result<()> {
        self.move_out(exec, dst, false, "ResidentBatch::unpack_into")
    }

    /// Flipped-orientation egress into a `(ncols, nrows)` [`Matrix`]:
    /// `dst(j, i) = self(i, j)`, the twin of
    /// [`ResidentBatch::pack_transposed`].
    pub fn unpack_transposed_into(&self, dst: &mut Matrix) -> Result<()> {
        self.unpack_transposed_into_with(&Serial, dst)
    }

    /// [`ResidentBatch::unpack_transposed_into`] as one region on `exec`.
    pub fn unpack_transposed_into_with<E: ExecSpace>(
        &self,
        exec: &E,
        dst: &mut Matrix,
    ) -> Result<()> {
        self.move_out(exec, dst, true, "ResidentBatch::unpack_transposed_into")
    }

    /// Reorient into another batch (`dst(j, i) = self(i, j)`, `dst` shaped
    /// `(ncols, nrows)`). One pass, panel to panel, never touching a host
    /// [`Matrix`]. A step across a batch's lanes needs no such copy: it runs
    /// on the batch's tiles ([`crate::TiledField`]).
    pub fn transpose_into(&self, dst: &mut ResidentBatch) -> Result<()> {
        self.transpose_into_with(&Serial, dst)
    }

    /// [`ResidentBatch::transpose_into`] as one region on `exec`.
    pub(crate) fn transpose_into_with<E: ExecSpace>(
        &self,
        exec: &E,
        dst: &mut ResidentBatch,
    ) -> Result<()> {
        if dst.shape() != (self.ncols, self.nrows) {
            return Err(Error::ShapeMismatch {
                op: "ResidentBatch::transpose_into",
                left: (self.ncols, self.nrows),
                right: dst.shape(),
            });
        }
        let (from, to) = (Tiling::flipped(dst.ncols), Tiling::panels(dst.nrows));
        move_tiles(exec, dst.shape(), &self.data, from, &mut dst.data, to);
        Ok(())
    }

    /// Host `src` into the panels: `src` is the batch, or with `transposed`
    /// its transpose.
    fn move_in<E: ExecSpace>(
        &mut self,
        exec: &E,
        src: &Matrix,
        transposed: bool,
        op: &'static str,
    ) -> Result<()> {
        check_shape(op, self.shape(), src, transposed)?;
        let (from, to) = (Tiling::of(src, transposed), Tiling::panels(self.nrows));
        move_tiles(exec, self.shape(), src.as_slice(), from, &mut self.data, to);
        Ok(())
    }

    /// The panels into host `dst`, the batch or with `transposed` its
    /// transpose.
    fn move_out<E: ExecSpace>(
        &self,
        exec: &E,
        dst: &mut Matrix,
        transposed: bool,
        op: &'static str,
    ) -> Result<()> {
        check_shape(op, self.shape(), dst, transposed)?;
        let (from, to) = (Tiling::panels(self.nrows), Tiling::of(dst, transposed));
        move_tiles(exec, self.shape(), &self.data, from, dst.as_mut_slice(), to);
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

    /// Linear offset of logical element `(i, j)` in the panels.
    #[inline]
    fn offset(&self, i: usize, j: usize) -> usize {
        assert!(
            i < self.nrows && j < self.ncols,
            "ResidentBatch: ({i}, {j}) out of bounds"
        );
        let chunk = j / LANE_WIDTH;
        chunk * self.nrows * LANE_WIDTH + i * LANE_WIDTH + (j % LANE_WIDTH)
    }

    /// Read logical element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[self.offset(i, j)]
    }

    /// Write logical element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let off = self.offset(i, j);
        self.data[off] = v;
    }

    /// Copy lane `lane`, rows in order, into `out` (`nrows` long): a
    /// strided gather, for the repair paths only.
    pub fn copy_lane_into(&self, lane: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.nrows, "ResidentBatch lane length");
        for (i, v) in out.iter_mut().enumerate() {
            *v = self.get(i, lane);
        }
    }

    /// Overwrite lane `lane`, rows in order, with `src` (`nrows` long).
    pub fn write_lane(&mut self, lane: usize, src: &[f64]) {
        assert_eq!(src.len(), self.nrows, "ResidentBatch lane length");
        for (i, &v) in src.iter().enumerate() {
            self.set(i, lane, v);
        }
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
        self.for_each_run_mut(exec, 1, f);
    }

    /// [`ResidentBatch::for_each_chunk_mut`] by runs of up to `per`
    /// consecutive chunks, each handed out as its panels back to back: see
    /// [`crate::Field::for_each_run_mut`].
    pub(crate) fn for_each_run_mut<E, F>(&mut self, exec: &E, per: usize, f: F)
    where
        E: ExecSpace,
        F: Fn(usize, usize, &mut [f64]) + Sync + Send,
    {
        let (rows, lanes) = self.shape();
        let blocks = lanes.div_ceil(LANE_WIDTH);
        let per = run_length(exec, blocks, per);
        let stride = per * LANE_WIDTH * rows;
        let len = self.data.len();
        assert!(blocks * LANE_WIDTH * rows <= len, "panels out of bounds");
        let ptr = SharedMutPtr(self.data.as_mut_ptr());
        exec.for_each(blocks.div_ceil(per), |r| {
            let live = (per * LANE_WIDTH).min(lanes - r * per * LANE_WIDTH);
            let (start, end) = (r * stride, len.min((r + 1) * stride));
            // SAFETY: `data` is borrowed mutably for the region. Run `r` owns
            // `[r·stride, min((r + 1)·stride, len))`: inside the allocation, and
            // not inverted, because its first panel starts before lane `lanes`,
            // so `r·stride < blocks·W·rows <= len` (asserted). The ranges of
            // different `r` are disjoint and each `r` is visited exactly once,
            // so no two concurrent slices overlap.
            let run = unsafe { std::slice::from_raw_parts_mut(ptr.add(start), end - start) };
            f(r * per, live, run);
        });
    }

    /// The panels back to back, padding lanes included: what a
    /// [`crate::TiledField`] views in place.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

/// Blocks a run of [`crate::Field::for_each_run_mut`] holds: `per`, fewer
/// where that gives every participant of `exec` one of `blocks`' runs.
pub(crate) fn run_length<E: ExecSpace>(exec: &E, blocks: usize, per: usize) -> usize {
    per.min(blocks.div_ceil(exec.concurrency().max(1))).max(1)
}

/// `m` must be the host side of a move of `shape` panels: that shape, or
/// its transpose when the move is `transposed`.
fn check_shape(
    op: &'static str,
    shape: (usize, usize),
    m: &Matrix,
    transposed: bool,
) -> Result<()> {
    let expected = if transposed {
        (shape.1, shape.0)
    } else {
        shape
    };
    if m.shape() != expected {
        return Err(Error::ShapeMismatch {
            op,
            left: expected,
            right: m.shape(),
        });
    }
    Ok(())
}

const W: usize = LANE_WIDTH;

/// How one side of a layout move stores the logical `(nrows, ncols)`
/// block being moved: element `(W·b + r, W·c + l)` lives at
/// `c·chunk + b·block + r·row + l·lane`.
///
/// Every constructor is injective on the block's elements and has
/// `lane == 1` (the `W` lanes of a row are a contiguous run) or
/// `row == 1` (the `W` rows of a lane are), so a full `W × W` tile is
/// eight runs of eight, [`Tiling::across`] apart. Both are 1 only for a
/// host matrix one element thin, and then the block has no full tile.
#[derive(Clone, Copy)]
pub(crate) struct Tiling {
    chunk: usize,
    block: usize,
    row: usize,
    lane: usize,
}

impl Tiling {
    /// The block's own `[nrows][W]` panels.
    fn panels(nrows: usize) -> Self {
        Self::strided(nrows * W, W * W, W, 1)
    }

    /// The panels of the block's transpose (shape `(ncols, nrows)`): a
    /// tile of theirs is a tile of ours, runs along the other axis.
    fn flipped(ncols: usize) -> Self {
        Self::strided(W * W, ncols * W, 1, W)
    }

    /// A host matrix holding the block, or its transpose.
    pub(crate) fn of(m: &Matrix, transposed: bool) -> Self {
        let (rs, cs) = m.strides();
        let (row, lane) = if transposed { (cs, rs) } else { (rs, cs) };
        Self::strided(W * lane, W * row, row, lane)
    }

    fn strided(chunk: usize, block: usize, row: usize, lane: usize) -> Self {
        Self {
            chunk,
            block,
            row,
            lane,
        }
    }

    /// Offset of tile `b` of chunk `c`: of element `(W·b, W·c)`.
    #[inline]
    fn tile(self, c: usize, b: usize) -> usize {
        c * self.chunk + b * self.block
    }

    /// Offset of element `(i, W·c + l)`.
    #[inline]
    fn at(self, c: usize, i: usize, l: usize) -> usize {
        self.tile(c, i / W) + (i % W) * self.row + l * self.lane
    }

    /// Distance between consecutive runs of a tile.
    #[inline]
    fn across(self) -> usize {
        if self.lane == 1 {
            self.row
        } else {
            self.lane
        }
    }
}

/// Run `k` of the transposed tile: element `k` of each run of `tile`.
#[inline]
fn across(tile: &[&[f64; W]; W], k: usize) -> [f64; W] {
    array::from_fn(|run| tile[run][k])
}

/// Chunks per item of a move's region: 64 lanes, so that a small block
/// is one item and moves inline, and so that where a side stores
/// consecutive chunks closer together than consecutive tiles of one chunk
/// (the flip; a lane-contiguous host matrix) an item's tiles of one block
/// row are one `GROUP·W·W`-double run — a page — on that side.
const GROUP: usize = 8;

/// The one layout mover: copy every element of a logical `(nrows, ncols)`
/// block from `src` (stored as `from`) to `dst` (stored as `to`), one
/// region of `exec` over groups of the block's chunks. Full `W × W` tiles
/// move as eight runs of eight, transposed when the two sides run along
/// different axes; the rows past the last full tile and a partial last
/// chunk move element by element, live lanes only. Pure copies, so the
/// result does not depend on `exec`.
pub(crate) fn move_tiles<E: ExecSpace>(
    exec: &E,
    (nrows, ncols): (usize, usize),
    src: &[f64],
    from: Tiling,
    dst: &mut [f64],
    to: Tiling,
) {
    let flip = (from.lane == 1) != (to.lane == 1);
    // Chunks walked side by side, block row by block row: the group where
    // that makes a side's accesses one run, else one chunk at a time.
    let abreast = if from.chunk < from.block || to.chunk < to.block {
        GROUP
    } else {
        1
    };
    let (from_across, to_across) = (from.across(), to.across());
    let chunks = ncols.div_ceil(W);
    let full = ncols / W;
    let dst_len = dst.len();
    let out = SharedMutPtr(dst.as_mut_ptr());
    exec.for_each(chunks.div_ceil(GROUP), |g| {
        let run_mut = |at: usize, len: usize| {
            assert!(at + len <= dst_len, "layout move out of bounds");
            // SAFETY: in bounds of `dst` (asserted), which is borrowed
            // mutably for the whole region. Item `g` writes only the
            // offsets `to` gives the lanes of its own chunks
            // `GROUP·g .. GROUP·(g+1)`; `to` is injective and each `g`
            // runs once, so no two items' runs overlap, and an item's
            // runs are used one at a time.
            unsafe { std::slice::from_raw_parts_mut(out.add(at), len) }
        };
        let mine = g * GROUP..chunks.min((g + 1) * GROUP);
        let tiled = mine.start..mine.end.min(full);
        for first in tiled.clone().step_by(abreast) {
            for b in 0..nrows / W {
                for c in first..tiled.end.min(first + abreast) {
                    let (s, d) = (from.tile(c, b), to.tile(c, b));
                    let tile: [&[f64; W]; W] = array::from_fn(|k| {
                        let run = &src[s + k * from_across..][..W];
                        run.try_into().expect("a run is W long")
                    });
                    for k in 0..W {
                        let run = if flip { across(&tile, k) } else { *tile[k] };
                        run_mut(d + k * to_across, W).copy_from_slice(&run);
                    }
                }
            }
        }
        for c in mine {
            let lanes = W.min(ncols - c * W);
            let ragged = if c < full { nrows / W * W } else { 0 };
            for i in ragged..nrows {
                for l in 0..lanes {
                    run_mut(to.at(c, i, l), 1)[0] = src[from.at(c, i, l)];
                }
            }
        }
    });
}

/// `panel[i·W + l] = cols[l·rows + i]` for the first `lanes` lanes of the
/// `[rows][W]` panel, a 64-byte row at a time (lane by lane it would stream
/// the panel, which outgrows L1, eight times); lanes from `lanes` on are left
/// alone. The egress of the panel evaluator (`pp-bsplines`); a host field's
/// block comes in through [`crate::Blocks::fill_rows`]. What LLVM makes of the loop inlined into a
/// generic caller depends on that caller (DESIGN.md §14.3), so it is compiled
/// once, here, out of line. No tiles: into a panel that starts a cache line
/// the full-panel loop is as fast, into any other their stores split lines.
///
/// # Panics
/// Panics unless `panel` is whole rows, `lanes <= LANE_WIDTH` and `cols`
/// holds `lanes` columns.
#[inline(never)]
pub fn interleave_columns(cols: &[f64], lanes: usize, panel: &mut [f64]) {
    let rows = panel.len() / W;
    let fits = panel.len().is_multiple_of(W) && lanes <= W && cols.len() >= lanes * rows;
    assert!(fits, "interleave: {lanes} columns of {rows} rows");
    let mut fill = |lanes: usize| {
        for (i, row) in panel.chunks_exact_mut(W).enumerate() {
            for l in 0..lanes {
                row[l] = cols[l * rows + i];
            }
        }
    };
    // A full panel at a fixed width: eight straight stores a row, a third
    // faster into a panel that starts a line (DESIGN.md §14.3).
    if lanes == W {
        fill(W)
    } else {
        fill(lanes)
    }
}

/// `cols[l·stride + i] = panel[i·W + l]` for the first `lanes` lanes of the
/// `[rows][W]` panel, through `isa`: into columns `stride` apart — the panel
/// evaluator's ingress, its coefficients into columns `n + d` up to whole
/// lines apart in a [`Lines`], so that no tile store splits a line; and a
/// host field's egress, its live lanes into columns `rows` apart. A full
/// panel goes by whole tiles through `transpose_tiles`, out of line like its
/// inverse [`interleave_columns`].
///
/// # Panics
/// Panics if `stride < rows`, if `lanes > LANE_WIDTH`, if `cols` is shorter
/// than `lanes · stride`, or if the host lacks `isa`.
#[inline(never)]
pub fn deinterleave_columns(
    isa: PanelIsa,
    panel: &[f64],
    lanes: usize,
    stride: usize,
    cols: &mut [f64],
) {
    let rows = panel.len() / W;
    let fits = stride >= rows && lanes <= W && (lanes == 0 || cols.len() / lanes >= stride);
    assert!(fits, "deinterleave: {lanes} columns of {rows} rows");
    let done = match lanes {
        W => W * transpose_tiles(isa, panel, stride, cols, rows / W),
        _ => 0,
    };
    let mut drain = |lanes: usize| {
        for (i, row) in panel.chunks_exact(W).enumerate().skip(done) {
            for l in 0..lanes {
                cols[l * stride + i] = row[l];
            }
        }
    };
    // At a fixed width, the loop the full panel always had.
    if lanes == W {
        drain(W)
    } else {
        drain(lanes)
    }
}

/// The panel's tile transposer: `cols[l·stride + 8b + r] = panel[64b + 8r +
/// l]` for `b < tiles` and `r, l < 8`, at AVX-512F; any other instance moves
/// nothing (LLVM builds no shuffle network from the scalar loop, DESIGN.md
/// §14.3) and the caller's scalar loop skips what it moved.
/// Out of line, so that the caller's scalar loop compiles as it would alone
/// (inlined into a loop, it once cost that loop half its speed).
#[inline(never)]
fn transpose_tiles(
    isa: PanelIsa,
    panel: &[f64],
    stride: usize,
    cols: &mut [f64],
    tiles: usize,
) -> usize {
    // The caller bounds `stride` by a slice's length: nothing wraps.
    let fits = W * W * tiles <= panel.len() && (W - 1) * stride + W * tiles <= cols.len();
    assert!(fits, "tiles out of bounds");
    // SAFETY: every offset read is below `64·tiles <= panel.len()` and every
    // one written below `7·stride + 8·tiles <= cols.len()` (both asserted);
    // distinct borrows.
    unsafe {
        tiles_at(
            isa,
            (panel.as_ptr(), W * W, W),
            (cols.as_mut_ptr(), W, stride),
            tiles,
        )
    }
}

/// The one tile transposer, at AVX-512F:
/// `dst[b·dst_tile + c·dst_run + r] = src[b·src_tile + r·src_run + c]` for
/// `b < tiles` and `r, c < 8` — tile `b` of `src`, eight runs of eight
/// `src_run` apart, into tile `b` of `dst`, whose runs are `dst_run` apart
/// (each side given as `(at, tile, run)`). Any other instance moves nothing
/// and returns 0, the caller's scalar loop moving what it did not. A
/// panel's tiles into columns ([`deinterleave_columns`]), a block's lanes
/// where they lie — a host field's contiguous columns, a
/// [`crate::TiledField`]'s tile rows — into a panel and back
/// ([`crate::Blocks::fill_rows`], [`crate::Blocks::store_panel`]). Besides
/// `PanelIsa::run`, the one other place that dispatches on an ISA. Returns
/// the tiles moved.
///
/// # Safety
/// For `b < tiles`, the eight runs of eight from `src + b·src_tile`,
/// `src_run` apart, must be readable, and the eight from `dst + b·dst_tile`,
/// `dst_run` apart, writable, by this call alone; `src` and `dst` must not
/// overlap.
#[inline(never)]
pub(crate) unsafe fn tiles_at(
    isa: PanelIsa,
    src: (*const f64, usize, usize),
    dst: (*mut f64, usize, usize),
    tiles: usize,
) -> usize {
    match isa {
        #[cfg(target_arch = "x86_64")]
        PanelIsa::Avx512 if tiles > 0 => {
            assert!(isa.is_available(), "host lacks {}", isa.name());
            // SAFETY: AVX-512F is available; the offsets are the caller's.
            unsafe { transpose_tiles_avx512(src, dst, tiles) };
            tiles
        }
        _ => 0,
    }
}

/// [`tiles_at`] at AVX-512F: 8 loads, 24 shuffles and 8 stores a tile.
///
/// # Safety
/// The CPU must support AVX-512F, and the offsets must be as
/// [`tiles_at`] requires.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn transpose_tiles_avx512(
    (src, src_tile, src_run): (*const f64, usize, usize),
    (dst, dst_tile, dst_run): (*mut f64, usize, usize),
    tiles: usize,
) {
    use std::arch::x86_64::*;
    // Elements 0, 1 of each 128-bit lane of `a`, then of `b`; and 2, 3.
    let low = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
    let high = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
    let [mut pair, mut quad] = [[_mm512_setzero_pd(); W]; 2];
    for b in 0..tiles {
        let (src, dst) = (src.add(b * src_tile), dst.add(b * dst_tile));
        // `pair[2q]`, `pair[2q + 1]`: runs `2q`, `2q + 1` interleaved.
        for q in 0..W / 2 {
            let run = |r: usize| _mm512_loadu_pd(src.add(r * src_run));
            let (even, odd) = (run(2 * q), run(2 * q + 1));
            pair[2 * q] = _mm512_unpacklo_pd(even, odd);
            pair[2 * q + 1] = _mm512_unpackhi_pd(even, odd);
        }
        // `quad[4h + c]`: elements `c`, then `c + 4`, of runs `4h .. 4h + 4`.
        for (k, v) in quad.iter_mut().enumerate() {
            let (first, idx) = (k / 4 * 4 + k % 2, if k % 4 < 2 { low } else { high });
            *v = _mm512_permutex2var_pd(pair[first], idx, pair[first + 2]);
        }
        // Run `c`: the low, for `c ≥ 4` the high, halves of two quads.
        for c in 0..W / 2 {
            let (top, bottom) = (quad[c], quad[c + 4]);
            _mm512_storeu_pd(
                dst.add(c * dst_run),
                _mm512_shuffle_f64x2::<0x44>(top, bottom),
            );
            let high_half = _mm512_shuffle_f64x2::<0xEE>(top, bottom);
            _mm512_storeu_pd(dst.add((c + 4) * dst_run), high_half);
        }
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
                let packed = ResidentBatch::pack(&src);
                let mut back = Matrix::zeros(n, batch, layout.flipped());
                packed.unpack_into(&mut back).unwrap();
                assert_eq!(back.max_abs_diff(&src), 0.0, "{layout:?} {n}x{batch}");
            }
        }
    }

    #[test]
    fn offsets_cover_each_element_exactly_once_non_square() {
        // Every (i, j) maps to a unique in-bounds offset, with padding
        // slots never aliased.
        for (n, batch) in [(5usize, 3usize), (3, 11), (1, 9), (4, 16), (2, 1)] {
            let m = ResidentBatch::zeros(n, batch);
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
        let mut m = ResidentBatch::zeros(4, 13);
        for i in 0..4 {
            for j in 0..13 {
                m.set(i, j, src.get(i, j));
            }
        }
        assert_eq!(m, ResidentBatch::pack(&src));
        assert_eq!(m.get(3, 12), 312.0);
    }

    #[test]
    fn every_panel_starts_a_cache_line() {
        for (n, batch) in [(1usize, 1usize), (5, 3), (7, 17), (1024, 24), (3, 0)] {
            let m = ResidentBatch::zeros(n, batch);
            for m in [&m, &m.clone()] {
                for c in 0..m.num_chunks() {
                    let at = m.chunk(c).as_ptr() as usize;
                    assert_eq!(at % 64, 0, "{n}x{batch} chunk {c}");
                }
            }
        }
    }

    /// A scratch that grows is entered at the new allocation's first line,
    /// zeroed; one long enough is lent as it is, at the same line.
    #[test]
    fn lines_grow_into_a_cache_line() {
        let mut lines = Lines::new();
        assert!(lines.at_least(0).is_empty());
        for len in [1usize, 7, 9, 1027, 8 * 1029 + 1024] {
            let at = lines.at_least(len);
            assert_eq!((at.len(), at.as_ptr() as usize % 64), (len, 0), "{len}");
            assert!(at.iter().all(|&v| v == 0.0), "{len}: zeroed");
            at.fill(1.0);
            let (ptr, shorter) = (at.as_ptr(), lines.at_least(len - 1));
            assert_eq!(shorter.as_ptr(), ptr, "{len}: no regrowth");
            assert!(shorter.iter().all(|&v| v == 1.0), "{len}: kept");
        }
    }

    #[test]
    fn chunk_geometry() {
        let m = ResidentBatch::zeros(6, 19);
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
        let mut m = ResidentBatch::zeros(3, 20);
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

    /// A payload that shows a misplaced, rounded or canonicalised
    /// element: every position its own bits, with `-0.0`, NaNs carrying a
    /// payload and subnormals strewn among ordinary values.
    fn payload(i: usize, j: usize) -> f64 {
        let tag = (1000 * i + j + 1) as u64;
        match (3 * i + 5 * j) % 7 {
            0 => -0.0,
            1 => f64::from_bits(0x7ff8_0000_0000_0000 | tag),
            2 => f64::from_bits(tag),
            _ => tag as f64 + 0.5,
        }
    }

    /// What padding lanes and not-yet-written destinations hold: a NaN no
    /// payload element equals, so a padding lane read back, or a
    /// destination left unwritten, shows in the comparison.
    const SENTINEL: f64 = f64::from_bits(0x7ff8_dead_0000_0000);

    /// An `(n, m)` block holding [`SENTINEL`] everywhere, then — through
    /// `set` alone — `at(i, j)` in its live elements.
    fn oracle(n: usize, m: usize, at: impl Fn(usize, usize) -> f64) -> ResidentBatch {
        let mut block = ResidentBatch::zeros(n, m);
        block.data.fill(SENTINEL);
        for i in 0..n {
            for j in 0..m {
                block.set(i, j, at(i, j));
            }
        }
        block
    }

    fn bits(data: &[f64]) -> Vec<u64> {
        data.iter().map(|v| v.to_bits()).collect()
    }

    /// Pack, unpack and flip of an `(n, m)` block on `exec`, against the
    /// `get`/`set` oracle, for both host layouts and both orientations.
    fn check_movers<E: ExecSpace>(exec: &E, n: usize, m: usize) {
        let want = oracle(n, m, payload);
        for layout in [Layout::Left, Layout::Right] {
            for transposed in [false, true] {
                let what = format!("{} {n}x{m} {layout:?} transposed {transposed}", exec.name());
                let host = if transposed {
                    Matrix::from_fn(m, n, layout, |j, i| payload(i, j))
                } else {
                    Matrix::from_fn(n, m, layout, payload)
                };
                // Ingress: live lanes land, padding lanes are not written.
                let mut packed = oracle(n, m, |_, _| SENTINEL);
                packed.move_in(exec, &host, transposed, "pack").unwrap();
                assert_eq!(bits(&packed.data), bits(&want.data), "pack {what}");
                // Egress: every host element written, from a live lane.
                let mut back = host.clone();
                back.fill(SENTINEL);
                want.move_out(exec, &mut back, transposed, "unpack")
                    .unwrap();
                assert_eq!(
                    bits(back.as_slice()),
                    bits(host.as_slice()),
                    "unpack {what}"
                );
            }
        }
        // The flip reads no padding lane of its source (the oracle's hold
        // the sentinel) and writes none of its destination.
        let mut flipped = oracle(m, n, |_, _| SENTINEL);
        want.transpose_into_with(exec, &mut flipped).unwrap();
        let want_flipped = oracle(m, n, |j, i| payload(i, j));
        let what = format!("flip {} {n}x{m}", exec.name());
        assert_eq!(bits(&flipped.data), bits(&want_flipped.data), "{what}");
    }

    /// The one mover body against the oracle over shapes that put every
    /// edge somewhere: no full tile, ragged rows, a partial last chunk,
    /// a lone lane, and (91 lanes, 67 rows flipped) a region of several
    /// items whose last is short. Miri runs a corner of the table.
    #[test]
    fn movers_match_get_set_oracle_bitwise() {
        let (rows, cols): (&[usize], &[usize]) = if cfg!(miri) {
            (&[1, 9], &[7, 9])
        } else {
            (&[1, 7, 8, 9, 64, 67], &[1, 7, 8, 9, 17, 91])
        };
        for &n in rows {
            for &m in cols {
                check_movers(&Serial, n, m);
                check_movers(&Parallel, n, m);
            }
        }
    }

    /// Panel → columns through every instance the host has, bit for bit
    /// against the scalar loop's index map, and back through the interleave:
    /// whole tiles and ragged rows, columns exactly `rows` and further apart
    /// (the gap never written), one to eight live lanes each way (the lanes
    /// past them never written). Miri runs a corner of the table, on the
    /// baseline instance.
    #[test]
    fn tile_transposer_is_the_scalar_loop_on_every_isa() {
        let rows: &[usize] = if cfg!(miri) {
            &[0, 9]
        } else {
            &[0, 1, 7, 8, 9, 1023, 1024]
        };
        for isa in PanelIsa::ALL.into_iter().filter(|isa| isa.is_available()) {
            for &rows in rows {
                for stride in [rows, rows + 5] {
                    let what = format!("{} rows {rows} stride {stride}", isa.name());
                    let panel: Vec<f64> = (0..rows * W).map(|k| payload(k / W, k % W)).collect();
                    let mut cols = vec![SENTINEL; W * stride];
                    for lanes in 1..=W {
                        cols.fill(SENTINEL);
                        deinterleave_columns(isa, &panel, lanes, stride, &mut cols);
                        let live = |k: usize| k % stride < rows && k / stride < lanes;
                        let want: Vec<f64> = (0..W * stride)
                            .map(|k| live(k).then(|| payload(k % stride, k / stride)))
                            .map(|v| v.unwrap_or(SENTINEL))
                            .collect();
                        assert_eq!(
                            bits(&cols),
                            bits(&want),
                            "deinterleave {what} lanes {lanes}"
                        );
                    }
                    // Back from columns `rows` apart.
                    let cols: Vec<f64> = (0..W * rows)
                        .map(|k| cols[k / rows * stride + k % rows])
                        .collect();
                    for lanes in 1..=W {
                        let mut back = vec![SENTINEL; rows * W];
                        interleave_columns(&cols, lanes, &mut back);
                        let want: Vec<f64> = (0..rows * W)
                            .map(|k| if k % W < lanes { panel[k] } else { SENTINEL })
                            .collect();
                        assert_eq!(bits(&back), bits(&want), "interleave {what} lanes {lanes}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "tiles out of bounds")]
    fn tile_transposer_refuses_a_short_destination() {
        let (panel, mut cols) = (vec![0.0; 2 * W * W], vec![0.0; 2 * W * W - 1]);
        transpose_tiles(PanelIsa::detected(), &panel, 2 * W, &mut cols, 2);
    }

    #[test]
    fn unpack_shape_mismatch_is_typed() {
        let m = ResidentBatch::zeros(3, 4);
        let mut wrong = Matrix::zeros(4, 3, Layout::Left);
        assert!(m.unpack_into(&mut wrong).is_err());
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut m = ResidentBatch::zeros(5, 0);
        assert_eq!(m.num_chunks(), 0);
        m.for_each_chunk_mut(&Serial, |_, _, _| panic!("no chunks to visit"));
        let mut dst = Matrix::zeros(5, 0, Layout::Left);
        m.unpack_into(&mut dst).unwrap();
    }

    #[test]
    fn lane_scatter_gather_round_trips() {
        let src = Matrix::from_fn(7, 11, Layout::Right, |i, j| (100 * i + j) as f64);
        let mut r = ResidentBatch::pack(&src);
        let mut lane = vec![0.0; 7];
        r.copy_lane_into(5, &mut lane);
        assert_eq!(lane, src.col(5).to_vec());
        let repl: Vec<f64> = (0..7).map(|i| i as f64).collect();
        r.write_lane(5, &repl);
        r.copy_lane_into(5, &mut lane);
        assert_eq!(lane, repl);
        // Neighbouring lanes in the same chunk are untouched.
        for i in 0..7 {
            assert_eq!(r.get(i, 4), src.get(i, 4));
            assert_eq!(r.get(i, 6), src.get(i, 6));
        }
    }

    /// The `_with` forms are their exec-less shells on another execution
    /// space: same panels, same host bits. 91 lanes and 67 rows make each
    /// move a region of several items on the pool.
    #[test]
    fn with_forms_match_their_serial_shells() {
        let src = Matrix::from_fn(67, 91, Layout::Right, payload);
        let serial = ResidentBatch::pack(&src);
        let pooled = ResidentBatch::pack_with(&Parallel, &src);
        assert_eq!(bits(&pooled.data), bits(&serial.data));

        let mut host = src.clone();
        host.fill(SENTINEL);
        pooled.unpack_into_with(&Parallel, &mut host).unwrap();
        assert_eq!(bits(host.as_slice()), bits(src.as_slice()));
        let mut host_t = Matrix::zeros(91, 67, Layout::Right);
        pooled
            .unpack_transposed_into_with(&Parallel, &mut host_t)
            .unwrap();
        let mut refill = ResidentBatch::zeros(67, 91);
        refill.pack_transposed_from(&host_t).unwrap();
        assert_eq!(bits(&refill.data), bits(&serial.data));
        let mut copy = ResidentBatch::zeros(67, 91);
        copy.copy_from(&serial).unwrap();
        assert_eq!(bits(&copy.data), bits(&serial.data));
        // Shape mismatches are typed, not panics.
        assert!(pooled.unpack_into_with(&Parallel, &mut host_t).is_err());
        assert!(copy.copy_from(&ResidentBatch::zeros(91, 67)).is_err());
        assert!(serial.transpose_into(&mut copy).is_err());
    }
}
