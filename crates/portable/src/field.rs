//! Fields: what a fused solve-and-evaluate step advances in place.
//!
//! A field is a batch of `lanes` independent systems of `rows` values
//! that a step reads once and overwrites, a *block* of [`LANE_WIDTH`]
//! lanes at a time, a worker's turn being a *run* of consecutive blocks
//! on the worker pool. Three kinds exist. A [`ResidentBatch`]'s blocks are
//! its interleaved panels, and a run of them is handed out as the panels
//! themselves ([`Run::Panels`]): a panel is what the solve wants, so it is
//! solved and evaluated where it lies. The other two kinds hand a run out
//! as a view of their lanes where they lie ([`Run::Blocks`], a [`Blocks`]):
//! value `i` of lane `l` sits at `l·lane + (i / 8)·run + i % 8`, a lane
//! stride and a run stride. A lane-contiguous host matrix — the `(Nv, Nx)`
//! row-major distribution of the paper's Algorithm 2, or a column-major
//! batch of right-hand sides, wrapped as a [`HostField`] — is contiguous
//! columns (`lane = rows`, `run = 8`). The transpose of a
//! [`ResidentBatch`], wrapped as a [`TiledField`], is the batch's tile
//! rows: its lane `x` is row `x` of every panel, eight values a panel
//! apart (`lane = 8`, `run` = a panel), so a block is a row of 8 × 8
//! tiles. Such a block is gathered into a panel in the worker's scratch
//! ([`Blocks::fill_panel`]: contiguous columns interleaved, tiles
//! transposed one by one) and evaluated, or stored, straight back into
//! its lanes ([`Blocks::lane`], [`Blocks::store_panel`]). Nothing else is
//! copied: the step's body is the same for all three.

use crate::exec::ExecSpace;
use crate::interleaved::{deinterleave_columns, interleave_columns, run_length, tiles_at};
use crate::interleaved::{ResidentBatch, LANE_WIDTH};
use crate::isa::PanelIsa;
use crate::layout::Layout;
use crate::matrix::Matrix;
use crate::ptr::SharedMutPtr;
use std::marker::PhantomData;

const W: usize = LANE_WIDTH;

/// A batch a fused step advances in place, block by block (module docs).
/// `Sync`, so that a region may read its lanes while it writes elsewhere.
pub trait Field: Sync {
    /// `(rows, lanes)`: values per lane (the system size) and live lanes
    /// (the batch size).
    fn shape(&self) -> (usize, usize);

    /// Visit every block, as one region on `exec`, by runs of up to `per`
    /// consecutive blocks, a worker's turn each:
    /// `f(first_block, live_lanes, run)`, `run` being the blocks that hold
    /// the `live_lanes` lanes from `first_block` on, where they lie: a
    /// [`ResidentBatch`]'s panels ([`Run::Panels`]), any other field's
    /// lanes as a [`Blocks`] view. A run is `per` blocks, fewer where it
    /// takes that to give every participant of `exec` one
    /// (`⌈blocks / exec.concurrency()⌉`), or what is left.
    fn for_each_run_mut<E, F>(&mut self, exec: &E, per: usize, f: F)
    where
        E: ExecSpace,
        F: Fn(usize, usize, Run<'_>) + Sync + Send;

    /// Copy lane `lane`, rows in order, into `out` (`rows` long) — where a
    /// solver with no panel-native form reads a lane's right-hand side.
    fn copy_lane_into(&self, lane: usize, out: &mut [f64]);

    /// Overwrite lane `lane`, rows in order, with `values` (`rows` long) —
    /// where a serial tail lands a lane it recomputed.
    fn write_lane(&mut self, lane: usize, values: &[f64]);
}

/// A worker's run of blocks, as [`Field::for_each_run_mut`] hands it out.
pub enum Run<'a> {
    /// The blocks are interleaved `[rows][LANE_WIDTH]` panels, back to back
    /// (padding lanes included).
    Panels(&'a mut [f64]),
    /// The blocks' live lanes, viewed where the field keeps them.
    Blocks(Blocks<'a>),
}

/// `lanes` lanes of `rows` values viewed where a field keeps them: value
/// `i` of lane `l` at `l·lane + (i / 8)·run + i % 8` from the view's start
/// (module docs) — contiguous columns (`lane = rows`, `run = 8`) or a
/// batch's tile rows (`lane = 8`, `run` at least `8·lanes`). A worker's run
/// of a [`Field`], or one block of it ([`Blocks::block`]). It borrows those
/// values, and only those, mutably for `'a`: a tile row's padding lanes
/// are not part of it and are never read or written.
pub struct Blocks<'a> {
    at: *mut f64,
    lanes: usize,
    rows: usize,
    lane: usize,
    run: usize,
    _values: PhantomData<&'a mut [f64]>,
}

impl<'a> Blocks<'a> {
    /// `lanes` contiguous columns of `rows` values, `cols[l·rows + i]`.
    ///
    /// # Panics
    /// Panics if `cols` is shorter than `lanes · rows`.
    pub fn columns(cols: &'a mut [f64], lanes: usize, rows: usize) -> Self {
        let fits = lanes.checked_mul(rows).is_some_and(|n| n <= cols.len());
        assert!(fits, "{lanes} columns of {rows} in {} values", cols.len());
        // SAFETY: value `(l, i)` is at `l·rows + i < lanes·rows <= cols.len()`
        // (asserted), one offset per value, in `cols`, borrowed mutably for
        // `'a`.
        unsafe { Self::new(cols.as_mut_ptr(), lanes, rows, rows, W) }
    }

    /// # Safety
    /// `(lane, run)` must be `(rows, 8)` or `(8, ≥ 8·lanes)`, so that each
    /// value has an offset of its own; for `'a`, the value at every offset
    /// `l·lane + (i / 8)·run + i % 8` (`l < lanes`, `i < rows`) from `at`
    /// must be valid for reads and writes through this view alone.
    unsafe fn new(at: *mut f64, lanes: usize, rows: usize, lane: usize, run: usize) -> Self {
        debug_assert!((lane, run) == (rows, W) || (lane == W && run >= W * lanes));
        Self {
            at,
            lanes,
            rows,
            lane,
            run,
            _values: PhantomData,
        }
    }

    /// Live lanes in the view.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Values per lane.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Block `k` of the view: its lanes `8k .. min(8k + 8, lanes)`.
    ///
    /// # Panics
    /// Panics unless the view has lane `8k`.
    pub fn block(&mut self, k: usize) -> Blocks<'_> {
        assert!(k * W < self.lanes, "block {k} of {} lanes", self.lanes);
        let lanes = W.min(self.lanes - k * W);
        // SAFETY: lanes `8k .. 8k + lanes` of this view, borrowed from it:
        // their offsets from lane `8k`'s start are the view's, and so are the
        // strides.
        unsafe {
            Blocks::new(
                self.at.add(k * W * self.lane),
                lanes,
                self.rows,
                self.lane,
                self.run,
            )
        }
    }

    /// Lane `l`'s values, in order, where they lie: its runs of eight.
    ///
    /// # Panics
    /// Panics unless `l < lanes`.
    #[inline]
    pub fn lane(&mut self, l: usize) -> RunsMut<'_> {
        assert!(l < self.lanes, "lane {l} of {}", self.lanes);
        // Lane `l`'s values are the view's at `l·lane + k·run + j`, `run >= 8`
        // apart run from run: [`RunsMut`]'s invariant, borrowed from the view.
        RunsMut {
            at: self.at.wrapping_add(l * self.lane),
            len: self.rows,
            stride: self.run,
            _values: PhantomData,
        }
    }

    /// The view as `lanes` contiguous columns, if that is what it is.
    fn as_columns(&mut self) -> Option<&mut [f64]> {
        let columns = (self.lane, self.run) == (self.rows, W);
        // SAFETY: with these strides value `(l, i)` is at `l·rows + i`: the
        // `lanes·rows` values from `at` are the view's, borrowed from it.
        columns.then(|| unsafe { std::slice::from_raw_parts_mut(self.at, self.lanes * self.rows) })
    }

    /// The offset of value `i` of lane `l`.
    #[inline]
    fn offset(&self, l: usize, i: usize) -> usize {
        l * self.lane + i / W * self.run + i % W
    }

    /// Ingress of a block: overwrite `panel` (`rows · 8` long), whatever it
    /// held, with the block's lanes as an interleaved `[rows][8]` panel,
    /// its padding lanes zero. Contiguous columns go through
    /// [`interleave_columns`]; a full block of tile rows is transposed tile
    /// by tile through `isa` (AVX-512F: the shuffle network of
    /// [`deinterleave_columns`]), its ragged rows, a partial block and every
    /// other instance by the scalar loop, with the same bits.
    ///
    /// # Panics
    /// Panics unless the view is one block (at most eight lanes) and
    /// `panel` is `rows · 8` long, or if the host lacks `isa`.
    pub fn fill_panel(&mut self, isa: PanelIsa, panel: &mut [f64]) {
        let (lanes, rows) = (self.lanes, self.rows);
        let fits = lanes <= W && panel.len() == rows * W;
        assert!(
            fits,
            "fill_panel: {lanes} lanes of {rows} into {}",
            panel.len()
        );
        if lanes < W {
            // Only live lanes are written: zero the padding lanes.
            panel.fill(0.0);
        }
        if let Some(cols) = self.as_columns() {
            return interleave_columns(cols, lanes, panel);
        }
        let tiles = if (lanes, self.lane) == (W, W) {
            rows / W
        } else {
            0
        };
        // SAFETY: tile `b < rows / 8` of the view is its eight lanes' values
        // `8b .. 8b + 8`, eight contiguous runs of eight (`lane = 8`) from
        // `at + b·run`: the view's, read only. It goes to `panel[64b ..
        // 64b + 64]`, inside `panel` (`rows·8` long), a distinct borrow.
        let done = unsafe { tiles_at(isa, self.at, self.run, panel.as_mut_ptr(), W * W, W, tiles) };
        for i in done * W..rows {
            for l in 0..lanes {
                // SAFETY: value `(l, i)` of the view.
                panel[i * W + l] = unsafe { *self.at.add(self.offset(l, i)) };
            }
        }
    }

    /// Egress of a block, the inverse of [`Blocks::fill_panel`]: overwrite
    /// the block's lanes with the first `lanes` lanes of the `[rows][8]`
    /// panel, through [`deinterleave_columns`] for contiguous columns, tile
    /// by tile for tile rows.
    ///
    /// # Panics
    /// As [`Blocks::fill_panel`].
    pub fn store_panel(&mut self, isa: PanelIsa, panel: &[f64]) {
        let (lanes, rows) = (self.lanes, self.rows);
        let fits = lanes <= W && panel.len() == rows * W;
        assert!(
            fits,
            "store_panel: {} into {lanes} lanes of {rows}",
            panel.len()
        );
        if let Some(cols) = self.as_columns() {
            return deinterleave_columns(isa, panel, lanes, rows, cols);
        }
        let tiles = if (lanes, self.lane) == (W, W) {
            rows / W
        } else {
            0
        };
        // SAFETY: `panel[64b .. 64b + 64]`, inside `panel`, goes to tile `b <
        // rows / 8` of the view, its eight lanes' values `8b .. 8b + 8` (runs
        // of eight `lane = 8` apart from `at + b·run`): the view's, borrowed
        // mutably; `panel` is a distinct borrow.
        let done = unsafe { tiles_at(isa, panel.as_ptr(), W * W, self.at, self.run, W, tiles) };
        for i in done * W..rows {
            for l in 0..lanes {
                // SAFETY: value `(l, i)` of the view.
                unsafe { *self.at.add(self.offset(l, i)) = panel[i * W + l] };
            }
        }
    }
}

/// Where the lane walk writes one lane's values: its whole runs of eight,
/// in order, and the shorter run after them. A contiguous slice is one; so
/// is a [`RunsMut`], whose runs lie a stride apart. The walk is compiled
/// once for each, so that a contiguous column keeps its constant stride.
pub trait LaneOut<'a> {
    /// Values in the lane.
    fn len(&self) -> usize;

    /// Whether the lane has no values.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lane's whole runs of eight, in order, and the shorter run after
    /// them (empty when the length is a multiple of eight).
    fn split(
        self,
    ) -> (
        impl ExactSizeIterator<Item = &'a mut [f64; W]>,
        &'a mut [f64],
    );
}

impl<'a> LaneOut<'a> for &'a mut [f64] {
    #[inline]
    fn len(&self) -> usize {
        <[f64]>::len(self)
    }

    #[inline(always)]
    fn split(
        self,
    ) -> (
        impl ExactSizeIterator<Item = &'a mut [f64; W]>,
        &'a mut [f64],
    ) {
        let (runs, tail) = self.as_chunks_mut::<W>();
        (runs.iter_mut(), tail)
    }
}

/// One lane's `len` values, in order, as runs of eight `stride` apart (the
/// last run shorter if `len` is not a multiple of eight): a lane of a
/// [`Blocks`] view ([`Blocks::lane`]) — a tiled field's tile rows, or a
/// host field's row, which is one slice ([`RunsMut::into_slice`]).
///
/// Invariant: `stride >= 8`, and for `'a` the values at `at + k·stride + j`
/// (`8k + j < len`, `j < 8`) are valid for reads and writes through this
/// lane alone.
pub struct RunsMut<'a> {
    at: *mut f64,
    len: usize,
    stride: usize,
    _values: PhantomData<&'a mut [f64]>,
}

impl<'a> RunsMut<'a> {
    /// The lane as one slice, if its runs are contiguous (`stride = 8`),
    /// else the lane itself.
    #[inline]
    pub fn into_slice(self) -> Result<&'a mut [f64], Self> {
        if self.stride != W {
            return Err(self);
        }
        // SAFETY: with `stride = 8` value `8k + j` is at `at + 8k + j`: the
        // `len` values from `at` are the lane's, borrowed for `'a`.
        Ok(unsafe { std::slice::from_raw_parts_mut(self.at, self.len) })
    }

    /// Every value of the lane, in order.
    pub fn values(self) -> impl Iterator<Item = &'a mut f64> {
        let (runs, tail) = self.split();
        runs.flat_map(|run| run.iter_mut()).chain(tail)
    }
}

impl<'a> LaneOut<'a> for RunsMut<'a> {
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline(always)]
    fn split(
        self,
    ) -> (
        impl ExactSizeIterator<Item = &'a mut [f64; W]>,
        &'a mut [f64],
    ) {
        let (at, stride, full, rest) = (self.at, self.stride, self.len / W, self.len % W);
        let tail: &'a mut [f64] = if rest == 0 {
            &mut []
        } else {
            // SAFETY: values `8·full .. len` of the lane, the first `rest` of
            // its last run: the lane's own, borrowed for `'a`.
            unsafe { std::slice::from_raw_parts_mut(at.add(full * stride), rest) }
        };
        // SAFETY: run `k < full` is the lane's values `8k .. 8k + 8`, its
        // own for `'a`; `stride >= 8`, so the runs do not overlap, and each
        // `k` is handed out once.
        let runs = (0..full).map(move |k| unsafe { &mut *at.add(k * stride).cast::<[f64; W]>() });
        (runs, tail)
    }
}

impl Field for ResidentBatch {
    fn shape(&self) -> (usize, usize) {
        (self.nrows(), self.ncols())
    }

    fn for_each_run_mut<E, F>(&mut self, exec: &E, per: usize, f: F)
    where
        E: ExecSpace,
        F: Fn(usize, usize, Run<'_>) + Sync + Send,
    {
        ResidentBatch::for_each_run_mut(self, exec, per, |first, lanes, run| {
            f(first, lanes, Run::Panels(run))
        });
    }

    fn copy_lane_into(&self, lane: usize, out: &mut [f64]) {
        ResidentBatch::copy_lane_into(self, lane, out);
    }

    fn write_lane(&mut self, lane: usize, values: &[f64]) {
        ResidentBatch::write_lane(self, lane, values);
    }
}

/// [`Field::for_each_run_mut`] for the two kinds of field whose blocks are
/// not panels: `data` holds `lanes` lanes of `rows` values, value `i` of lane
/// `l` at `l·lane + (i / 8)·run + i % 8` with `(lane, run)` either `(rows,
/// 8)` — contiguous columns — or `(8, lanes·8)` — a batch's tile rows, a
/// panel apart. Run `r` is the view of its own lanes.
fn for_each_view_mut<E, F>(
    exec: &E,
    data: &mut [f64],
    (rows, lanes): (usize, usize),
    (lane, run): (usize, usize),
    per: usize,
    f: F,
) where
    E: ExecSpace,
    F: Fn(usize, usize, Run<'_>) + Sync + Send,
{
    assert!((lane, run) == (rows, W) || (lane, run) == (W, lanes * W));
    let blocks = lanes.div_ceil(W);
    let per = run_length(exec, blocks, per);
    let end = match (lanes, rows) {
        (0, _) | (_, 0) => 0,
        _ => (lanes - 1) * lane + (rows - 1) / W * run + (rows - 1) % W + 1,
    };
    assert!(end <= data.len(), "lanes out of bounds");
    let ptr = SharedMutPtr(data.as_mut_ptr());
    exec.for_each(blocks.div_ceil(per), |r| {
        let first = r * per * W;
        let live = (per * W).min(lanes - first);
        // SAFETY: `data` is borrowed mutably for the region. Run `r` views
        // lanes `first .. first + live`, whose values all lie below `end <=
        // data.len()` (asserted); with either pair of strides (asserted)
        // every value of every lane has an offset of its own, so the views of
        // different `r`, each made once, share none.
        let view = unsafe { Blocks::new(ptr.add(first * lane), live, rows, lane, run) };
        f(r * per, live, Run::Blocks(view));
    });
}

/// A host matrix whose lanes are its contiguous lines — the rows of a
/// [`Layout::Right`] matrix of shape `(lanes, rows)`, the columns of a
/// [`Layout::Left`] one of shape `(rows, lanes)` — so lane `j` is the run
/// `[j·rows, (j + 1)·rows)` of its storage and a block of eight lanes is one
/// contiguous range.
pub struct HostField<'a>(&'a mut Matrix);

impl<'a> HostField<'a> {
    /// View `m` as a field of its contiguous lines.
    pub fn new(m: &'a mut Matrix) -> Self {
        Self(m)
    }

    /// Lane `lane`'s storage, `[lane·rows, (lane + 1)·rows)`.
    fn span(&self, lane: usize) -> std::ops::Range<usize> {
        let rows = self.shape().0;
        lane * rows..(lane + 1) * rows
    }
}

impl Field for HostField<'_> {
    fn shape(&self) -> (usize, usize) {
        let (nrows, ncols) = self.0.shape();
        match self.0.layout() {
            Layout::Right => (ncols, nrows),
            Layout::Left => (nrows, ncols),
        }
    }

    fn for_each_run_mut<E, F>(&mut self, exec: &E, per: usize, f: F)
    where
        E: ExecSpace,
        F: Fn(usize, usize, Run<'_>) + Sync + Send,
    {
        let shape = self.shape();
        for_each_view_mut(exec, self.0.as_mut_slice(), shape, (shape.0, W), per, f);
    }

    fn copy_lane_into(&self, lane: usize, out: &mut [f64]) {
        out.copy_from_slice(&self.0.as_slice()[self.span(lane)]);
    }

    fn write_lane(&mut self, lane: usize, values: &[f64]) {
        let span = self.span(lane);
        self.0.as_mut_slice()[span].copy_from_slice(values);
    }
}

/// The transpose of a [`ResidentBatch`] as a field: lane `x` is row `x` of
/// the batch and row `v` its lane `v`, so that block `b` — lanes
/// `8b .. 8b + 8` — is row `b` of the batch's 8 × 8 tiles, one tile per
/// panel. A step advances the batch across its lanes through it with no
/// reoriented copy and no staging: a worker's run is a [`Blocks`] view of
/// its tile rows where they lie, each block transposed tile by tile into
/// the worker's panel and its results written straight back into the tile
/// rows. The batch's padding lanes are never read or written.
pub struct TiledField<'a>(&'a mut ResidentBatch);

impl<'a> TiledField<'a> {
    /// View `batch` transposed: a field of `batch.nrows()` lanes of
    /// `batch.ncols()` rows.
    pub fn new(batch: &'a mut ResidentBatch) -> Self {
        Self(batch)
    }

    fn check_lane(&self, lane: usize, len: usize) {
        let (rows, lanes) = self.shape();
        assert!(
            lane < lanes && len == rows,
            "tiled lane {lane}: {len} values"
        );
    }
}

impl Field for TiledField<'_> {
    fn shape(&self) -> (usize, usize) {
        (self.0.ncols(), self.0.nrows())
    }

    fn for_each_run_mut<E, F>(&mut self, exec: &E, per: usize, f: F)
    where
        E: ExecSpace,
        F: Fn(usize, usize, Run<'_>) + Sync + Send,
    {
        let (rows, lanes) = self.shape();
        let strides = (W, lanes * W);
        for_each_view_mut(exec, self.0.as_mut_slice(), (rows, lanes), strides, per, f);
    }

    // Lane `x` is row `x` of every panel, eight values a panel apart: no
    // strided view spans it, so it is copied.
    fn copy_lane_into(&self, lane: usize, out: &mut [f64]) {
        self.check_lane(lane, out.len());
        for (c, part) in out.chunks_mut(LANE_WIDTH).enumerate() {
            part.copy_from_slice(&self.0.chunk(c)[lane * LANE_WIDTH..][..part.len()]);
        }
    }

    fn write_lane(&mut self, lane: usize, values: &[f64]) {
        self.check_lane(lane, values.len());
        for (c, part) in values.chunks(LANE_WIDTH).enumerate() {
            self.0.chunk_mut(c)[lane * LANE_WIDTH..][..part.len()].copy_from_slice(part);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Parallel, Serial};

    /// A field whose element `(row i, lane j)` is `1000·j + i`.
    fn tagged(lanes: usize, rows: usize) -> Matrix {
        Matrix::from_fn(lanes, rows, Layout::Right, |j, i| (1000 * j + i) as f64)
    }

    /// Lane `j` of `field`, through its copy-out accessor.
    fn lane_of<B: Field>(field: &B, j: usize) -> Vec<f64> {
        let mut out = vec![f64::NAN; field.shape().0];
        field.copy_lane_into(j, &mut out);
        out
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The instances this host has: the tile transposer's and the scalar
    /// loop's ingress and egress both.
    fn instances() -> impl Iterator<Item = PanelIsa> {
        PanelIsa::ALL.into_iter().filter(|isa| isa.is_available())
    }

    /// Every element of every block is handed out exactly once, under the
    /// pool, whatever the run length and on both kinds of field: a run of
    /// panels is bumped by one as it lies, padding lanes included; a run
    /// of host lanes is taken apart with [`Blocks::block`] and each lane's
    /// values bumped through [`Blocks::lane`], live lanes only. A run is
    /// told its first block and its live lanes.
    #[test]
    fn runs_cover_every_element_once_on_both_kinds() {
        let rows = if cfg!(miri) { 3 } else { 13 };
        let all = [1usize, 7, 8, 31, 32, 33, 5 * W + 3];
        let few = [7usize, 33];
        for &lanes in if cfg!(miri) { &few[..] } else { &all[..] } {
            for per in [1usize, 2, 4] {
                let what = &format!("{lanes} lanes, runs of {per}");
                let bump = |first: usize, live: usize, run: Run<'_>| {
                    assert!(live > 0 && live <= per * W, "{what}");
                    assert!(first * W + live <= lanes, "{what}");
                    match run {
                        Run::Panels(panels) => {
                            assert_eq!(panels[0], (first * W) as f64, "{what}");
                            assert_eq!(panels.len(), live.div_ceil(W) * W * rows, "{what}");
                            panels.iter_mut().for_each(|v| *v += 1.0);
                        }
                        Run::Blocks(mut view) => {
                            assert_eq!((view.lanes(), view.rows()), (live, rows), "{what}");
                            let tag = view.lane(0).values().next().copied();
                            assert_eq!(tag, Some((1000 * first * W) as f64), "{what}");
                            let mut seen = 0;
                            for k in 0..live.div_ceil(W) {
                                let mut block = view.block(k);
                                assert_eq!(block.lanes(), W.min(live - k * W), "{what}");
                                for l in 0..block.lanes() {
                                    let lane = block.lane(l);
                                    assert_eq!(lane.len(), rows, "{what}");
                                    lane.values().for_each(|v| *v += 1.0);
                                }
                                seen += block.lanes();
                            }
                            assert_eq!(seen, live, "{what}");
                        }
                    }
                };
                let mut m = tagged(lanes, rows);
                let mut field = HostField::new(&mut m);
                assert_eq!(field.shape(), (rows, lanes));
                field.for_each_run_mut(&Parallel, per, bump);
                field.write_lane(lanes - 1, &vec![-1.0; rows]);
                for (j, i, v) in m.iter_entries() {
                    let want = if j == lanes - 1 {
                        -1.0
                    } else {
                        (1000 * j + i + 1) as f64
                    };
                    assert_eq!(v, want, "{lanes} lanes by {per}: ({j}, {i})");
                }
                // Panels: element (row i, lane j) starts as `j` in row 0 and
                // zero below, padding lanes included in the bump.
                let mut resident = ResidentBatch::zeros(rows, lanes);
                (0..lanes).for_each(|j| resident.set(0, j, j as f64));
                Field::for_each_run_mut(&mut resident, &Parallel, per, bump);
                for j in 0..lanes {
                    for i in 0..rows {
                        let want = if i == 0 { j as f64 + 1.0 } else { 1.0 };
                        assert_eq!(
                            resident.get(i, j),
                            want,
                            "{lanes} lanes by {per}: ({i}, {j})"
                        );
                    }
                }
                let padding = resident.chunk((lanes - 1) / W);
                assert!(
                    padding.iter().all(|&v| v >= 1.0),
                    "padding lanes are in the run"
                );
            }
        }
    }

    /// What a batch's padding lanes hold in the tiled tests: a NaN no
    /// element equals, so a padding value read into a run, or one written
    /// over, shows.
    const SENTINEL: f64 = f64::from_bits(0x7ff8_dead_0000_0000);

    /// An `(nrows, ncols)` batch holding [`SENTINEL`] in its padding lanes
    /// and `at(i, j)` in its live elements.
    fn sentinel_batch(
        nrows: usize,
        ncols: usize,
        at: impl Fn(usize, usize) -> f64,
    ) -> ResidentBatch {
        let mut batch = ResidentBatch::zeros(nrows, ncols);
        (0..batch.num_chunks()).for_each(|c| batch.chunk_mut(c).fill(SENTINEL));
        for i in 0..nrows {
            (0..ncols).for_each(|j| batch.set(i, j, at(i, j)));
        }
        batch
    }

    /// The batch's padding lanes still hold [`SENTINEL`].
    fn assert_padding_untouched(batch: &ResidentBatch, what: &str) {
        let (chunks, ncols) = (batch.num_chunks(), batch.ncols());
        if chunks == 0 {
            return;
        }
        for row in batch.chunk(chunks - 1).chunks_exact(W) {
            for &v in &row[ncols - (chunks - 1) * W..] {
                assert_eq!(v.to_bits(), SENTINEL.to_bits(), "{what}: padding");
            }
        }
    }

    /// The tiled field hands every live element of the batch out exactly
    /// once, under the pool, whatever the run length, where it lies: a run
    /// is a view of its lanes' tile rows — lane `x` is row `x` of the batch,
    /// its values in lane order through [`Blocks::lane`], a partial last
    /// block its live lanes only — and each value is bumped once. The
    /// batch's padding lanes hold [`SENTINEL`], which no run sees and none
    /// overwrites, for a partial last chunk and a partial last block of
    /// rows alike; the lane accessors read and write a row across the
    /// panels.
    #[test]
    fn tiled_runs_cover_every_tile_element_once() {
        // (batch rows = field lanes, batch lanes = field rows).
        let shapes: &[(usize, usize)] = if cfg!(miri) {
            &[(9, 13), (17, 5)]
        } else {
            &[(1, 1), (8, 8), (13, 20), (20, 13), (33, 7), (5 * W + 3, 67)]
        };
        for &(nrows, ncols) in shapes {
            for per in [1usize, 2, 4] {
                let what = &format!("{nrows}x{ncols} batch, runs of {per}");
                let mut batch = sentinel_batch(nrows, ncols, |i, j| (1000 * i + j) as f64);
                let mut field = TiledField::new(&mut batch);
                assert_eq!(field.shape(), (ncols, nrows), "{what}");
                field.for_each_run_mut(&Parallel, per, |first, live, run| {
                    assert!(live > 0 && live <= per * W, "{what}");
                    assert!(first * W + live <= nrows, "{what}");
                    let Run::Blocks(mut view) = run else {
                        panic!("{what}: tile rows are not panels");
                    };
                    assert_eq!((view.lanes(), view.rows()), (live, ncols), "{what}");
                    let mut seen = 0;
                    for k in 0..live.div_ceil(W) {
                        let mut block = view.block(k);
                        assert_eq!(block.lanes(), W.min(live - k * W), "{what}");
                        for l in 0..block.lanes() {
                            let x = (first + k) * W + l;
                            let lane = block.lane(l);
                            assert_eq!(lane.len(), ncols, "{what}");
                            for (v, value) in lane.values().enumerate() {
                                assert_eq!(*value, (1000 * x + v) as f64, "{what}: ({x}, {v})");
                                *value += 0.5;
                            }
                        }
                        seen += block.lanes();
                    }
                    assert_eq!(seen, live, "{what}");
                });
                field.write_lane(nrows - 1, &vec![-1.0; ncols]);
                let first: Vec<f64> = (0..ncols).map(|v| v as f64 + 0.5).collect();
                let first = if nrows == 1 { vec![-1.0; ncols] } else { first };
                assert_eq!(lane_of(&field, 0), first, "{what}");
                for i in 0..nrows {
                    for j in 0..ncols {
                        let want = if i == nrows - 1 {
                            -1.0
                        } else {
                            (1000 * i + j) as f64 + 0.5
                        };
                        assert_eq!(batch.get(i, j), want, "{what}: ({i}, {j})");
                    }
                }
                assert_padding_untouched(&batch, what);
            }
        }
    }

    /// The kinds of field agree on what their blocks hold: the gathered
    /// panel of a host block, and of the same block of the tiled view of the
    /// host matrix's batch, is the resident panel of the same lanes, padding
    /// lanes zero, whatever the scratch held before and through every
    /// instance the host has; a block's lanes, read where they lie, are the
    /// host's lanes; and so are the fields' lanes.
    #[test]
    fn gathered_host_block_is_the_resident_panel() {
        let shapes: &[(usize, usize)] = if cfg!(miri) {
            &[(3, 9), (9, 9)]
        } else {
            &[(1, 1), (7, 5), (8, 8), (19, 13), (16, 64)]
        };
        for &(lanes, rows) in shapes {
            let mut m = tagged(lanes, rows);
            let resident = ResidentBatch::pack_transposed(&m);
            let mut batch = ResidentBatch::pack(&m);
            let host = m.clone();
            let gather = |kind: &'static str| {
                let (host, resident) = (&host, &resident);
                move |c: usize, live: usize, run: Run<'_>| {
                    let what = format!("{lanes}x{rows} {kind} block {c}");
                    let Run::Blocks(mut view) = run else {
                        panic!("{what}: not a panel");
                    };
                    let mut block = view.block(0);
                    assert_eq!(block.lanes(), live, "{what}");
                    for isa in instances() {
                        let mut panel = vec![f64::NAN; rows * W];
                        block.fill_panel(isa, &mut panel);
                        assert_eq!(
                            bits(&panel),
                            bits(resident.chunk(c)),
                            "{what} {}",
                            isa.name()
                        );
                    }
                    for l in 0..live {
                        let got: Vec<f64> = block.lane(l).values().map(|v| *v).collect();
                        let want = &host.as_slice()[(c * W + l) * rows..][..rows];
                        assert_eq!(got, want, "{what} lane {l}");
                    }
                }
            };
            let mut field = HostField::new(&mut m);
            field.for_each_run_mut(&Serial, 1, gather("host"));
            let mut tiled = TiledField::new(&mut batch);
            tiled.for_each_run_mut(&Serial, 1, gather("tiled"));
            for j in 0..lanes {
                let want = host.as_slice()[j * rows..][..rows].to_vec();
                assert_eq!(lane_of(&field, j), want, "{lanes}x{rows} lane {j}");
                assert_eq!(lane_of(&resident, j), want, "{lanes}x{rows} lane {j}");
                assert_eq!(lane_of(&tiled, j), want, "{lanes}x{rows} tiled lane {j}");
            }
        }
    }

    /// The tiled ingress is the flip, done in place: the panel
    /// [`Blocks::fill_panel`] builds from block `k`'s tile rows is chunk `k`
    /// of [`ResidentBatch::transpose_into`], bit for bit, padding lanes
    /// zero, through every instance the host has; and
    /// [`Blocks::store_panel`] puts a panel back where it came from, the
    /// batch's padding lanes never read or written. Whole tiles, ragged
    /// rows, a partial last chunk and a partial last block, under the pool
    /// by runs of four; Miri runs a corner of the table.
    #[test]
    fn tiled_ingress_is_the_transposed_batch_bitwise() {
        // (nx, nv): the batch rows are the field's lanes.
        let shapes: &[(usize, usize)] = if cfg!(miri) {
            &[(9, 13)]
        } else {
            &[(8, 8), (13, 20), (20, 13), (67, 64)]
        };
        // Every element its own bits: NaN payloads, `-0.0` and subnormals
        // among ordinary values.
        let payload = |i: usize, j: usize| {
            let tag = (1000 * i + j + 1) as u64;
            match (3 * i + 5 * j) % 5 {
                _ if (i, j) == (1, 1) => -0.0,
                0 => f64::from_bits(0x7ff8_0000_0000_0000 | tag),
                1 => f64::from_bits(tag),
                _ => tag as f64 + 0.5,
            }
        };
        for &(nx, nv) in shapes {
            let mut flipped = ResidentBatch::zeros(nv, nx);
            sentinel_batch(nx, nv, payload)
                .transpose_into(&mut flipped)
                .expect("shapes match");
            for isa in instances() {
                let what = &format!("{nx}x{nv} on {}", isa.name());
                let mut batch = sentinel_batch(nx, nv, payload);
                TiledField::new(&mut batch).for_each_run_mut(&Parallel, 4, |first, live, run| {
                    let Run::Blocks(mut view) = run else {
                        panic!("{what}: tile rows are not panels");
                    };
                    let mut panel = vec![SENTINEL; nv * W];
                    for k in 0..live.div_ceil(W) {
                        let mut block = view.block(k);
                        block.fill_panel(isa, &mut panel);
                        let want = flipped.chunk(first + k);
                        assert_eq!(bits(&panel), bits(want), "{what}: block {}", first + k);
                        // Back with every sign flipped, padding lanes too.
                        panel.iter_mut().for_each(|v| *v = -*v);
                        block.store_panel(isa, &panel);
                    }
                });
                for i in 0..nx {
                    for j in 0..nv {
                        let want = (-payload(i, j)).to_bits();
                        assert_eq!(batch.get(i, j).to_bits(), want, "{what}: ({i}, {j})");
                    }
                }
                assert_padding_untouched(&batch, what);
            }
        }
    }

    /// A lane handed out as runs of eight — its whole runs in order and the
    /// shorter one after them — is the same lane from a slice, from a host
    /// block's view (which is that slice) and from a tile view; only the
    /// host lane is one slice.
    #[test]
    fn a_lane_is_its_runs_of_eight() {
        fn flat<'a>(lane: impl LaneOut<'a>) -> Vec<f64> {
            let len = lane.len();
            let (runs, tail) = lane.split();
            assert_eq!((runs.len(), tail.len()), (len / W, len % W));
            let runs: Vec<[f64; W]> = runs.map(|run| *run).collect();
            runs.iter().flatten().chain(tail.iter()).copied().collect()
        }
        for len in [0usize, 3, 8, 19] {
            let want: Vec<f64> = (0..len).map(|i| (1000 + i) as f64).collect();
            let mut host = want.clone();
            assert_eq!(flat(&mut host[..]), want, "slice of {len}");
            let mut columns = Blocks::columns(&mut host, 1, len);
            let slice = columns.lane(0).into_slice().ok().map(|lane| lane.to_vec());
            assert_eq!(slice, Some(want.clone()), "host lane of {len}");
            assert_eq!(flat(columns.lane(0)), want, "host runs of {len}");
            // One tiled lane: lane 1 of a (2, len) batch's transpose.
            let mut batch = ResidentBatch::zeros(2, len);
            (0..len).for_each(|i| batch.set(1, i, want[i]));
            TiledField::new(&mut batch).for_each_run_mut(&Serial, 1, |_, _, run| {
                let Run::Blocks(mut view) = run else {
                    panic!("tile rows are not panels");
                };
                let tiles = view.lane(1).into_slice().is_err();
                assert!(tiles, "a tile lane of {len} is not one slice");
                assert_eq!(flat(view.lane(1)), want, "tile runs of {len}");
            });
        }
    }

    /// A [`Layout::Left`] matrix is the field of its columns: the same
    /// values stored the same way as a row-major one's rows are the same
    /// field, block for block and lane for lane.
    #[test]
    fn column_major_host_matrix_is_the_field_of_its_columns() {
        let (lanes, rows) = if cfg!(miri) { (9, 3) } else { (19, 13) };
        let mut right = tagged(lanes, rows);
        let mut left = Matrix::from_fn(rows, lanes, Layout::Left, |i, j| right.get(j, i));
        let bump = |first: usize, live: usize, run: Run<'_>| {
            let Run::Blocks(mut view) = run else {
                panic!("host lanes are not panels");
            };
            for k in 0..live.div_ceil(W) {
                let tag = (1_000_000 * (first + k + 1)) as f64;
                let mut block = view.block(k);
                for l in 0..block.lanes() {
                    block.lane(l).values().for_each(|v| *v += tag);
                }
            }
        };
        let mut by_rows = HostField::new(&mut right);
        let mut by_columns = HostField::new(&mut left);
        assert_eq!(by_columns.shape(), (rows, lanes));
        by_rows.for_each_run_mut(&Parallel, 2, bump);
        by_columns.for_each_run_mut(&Parallel, 2, bump);
        for j in 0..lanes {
            assert_eq!(lane_of(&by_columns, j), lane_of(&by_rows, j), "lane {j}");
        }
        by_columns.write_lane(lanes - 1, &vec![-1.0; rows]);
        assert_eq!(left.col(lanes - 1).to_vec(), vec![-1.0; rows]);
        let stored = |j: usize| (1_000_000 * (j / LANE_WIDTH + 1) + 1000 * j) as f64;
        assert_eq!(left.get(rows - 1, 0), stored(0) + (rows - 1) as f64);
        assert_eq!(right.get(lanes - 2, 0), stored(lanes - 2));
    }
}
