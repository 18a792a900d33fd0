//! Fields: what a fused solve-and-evaluate step advances in place.
//!
//! A field is a batch of `lanes` independent systems of `rows` values
//! that a step reads once and overwrites, a *block* of [`LANE_WIDTH`]
//! lanes at a time, a worker's turn being a *run* of consecutive blocks
//! on the worker pool. Three kinds exist. A [`ResidentBatch`]'s blocks are
//! its interleaved panels. A lane-contiguous host matrix — the `(Nv, Nx)`
//! row-major distribution of the paper's Algorithm 2, wrapped as a
//! [`HostField`] — has blocks of eight consecutive rows. The transpose of a
//! [`ResidentBatch`], wrapped as a [`TiledField`], has blocks of eight of
//! the batch's rows — a row of its 8 × 8 tiles — staged per run as a host
//! field's blocks. The step's body is the same for all three; a field
//! supplies what a block *is* ([`Field::PANELS`]). A panel is what the
//! solve wants, so it is solved and evaluated where it lies; a block of
//! contiguous columns is gathered into a panel in the worker's scratch
//! ([`fill_panel`]) and evaluated back into its columns.

use crate::exec::ExecSpace;
use crate::interleaved::{for_each_run_mut, interleave_columns, LANE_WIDTH};
use crate::layout::Layout;
use crate::matrix::Matrix;
use crate::resident::ResidentBatch;

/// A batch a fused step advances in place, block by block (module docs).
/// `Sync`, so that a region may read its lanes while it writes elsewhere.
pub trait Field: Sync {
    /// What a block is: an interleaved `[rows][LANE_WIDTH]` panel
    /// (padding lanes included), or else the block's live lanes as
    /// contiguous columns, `block[l·rows + i]`.
    const PANELS: bool;

    /// `(rows, lanes)`: values per lane (the system size) and live lanes
    /// (the batch size).
    fn shape(&self) -> (usize, usize);

    /// Visit every block, as one region on `exec`, by runs of up to `per`
    /// consecutive blocks, a worker's turn each:
    /// `f(first_block, live_lanes, run)`, `run` being the blocks that hold
    /// the `live_lanes` lanes from `first_block` on — a contiguous range on
    /// every kind of field (a [`TiledField`] stages it), taken apart by
    /// [`run_blocks`]. A run is `per` blocks, fewer where it takes that to
    /// give every participant of `exec` one (`⌈blocks / exec.concurrency()⌉`),
    /// or what is left.
    fn for_each_run_mut<E, F>(&mut self, exec: &E, per: usize, f: F)
    where
        E: ExecSpace,
        F: Fn(usize, usize, &mut [f64]) + Sync + Send;

    /// Copy lane `lane`, rows in order, into `out` (`rows` long) — where a
    /// solver with no panel-native form reads a lane's right-hand side.
    fn copy_lane_into(&self, lane: usize, out: &mut [f64]);

    /// Overwrite lane `lane`, rows in order, with `values` (`rows` long) —
    /// where a serial tail lands a lane it recomputed.
    fn write_lane(&mut self, lane: usize, values: &[f64]);
}

/// The blocks of a `run` of `lanes` live lanes from
/// [`Field::for_each_run_mut`], in order, as `(live_lanes, block)`: a block
/// is `LANE_WIDTH · rows` values on every kind of field, but for the partial
/// last block of one not made of panels.
pub fn run_blocks(
    run: &mut [f64],
    rows: usize,
    lanes: usize,
) -> impl Iterator<Item = (usize, &mut [f64])> {
    run.chunks_mut((LANE_WIDTH * rows).max(1))
        .enumerate()
        .map(move |(k, block)| (LANE_WIDTH.min(lanes - k * LANE_WIDTH), block))
}

/// Ingress of a block that is not a panel (module docs): overwrite `panel`
/// (`rows · LANE_WIDTH` long), whatever it held, with the block's `lanes`
/// contiguous columns as an interleaved `[rows][LANE_WIDTH]` panel, its
/// padding lanes zero.
pub fn fill_panel(block: &[f64], lanes: usize, panel: &mut [f64]) {
    if lanes < LANE_WIDTH {
        // The interleave writes live lanes only: zero the padding lanes.
        panel.fill(0.0);
    }
    interleave_columns(block, lanes, panel);
}

impl Field for ResidentBatch {
    const PANELS: bool = true;

    fn shape(&self) -> (usize, usize) {
        (self.nrows(), self.ncols())
    }

    fn for_each_run_mut<E, F>(&mut self, exec: &E, per: usize, f: F)
    where
        E: ExecSpace,
        F: Fn(usize, usize, &mut [f64]) + Sync + Send,
    {
        self.panels_mut().for_each_run_mut(exec, per, f);
    }

    fn copy_lane_into(&self, lane: usize, out: &mut [f64]) {
        ResidentBatch::copy_lane_into(self, lane, out);
    }

    fn write_lane(&mut self, lane: usize, values: &[f64]) {
        ResidentBatch::write_lane(self, lane, values);
    }
}

/// A host matrix whose rows are the lanes: shape `(lanes, rows)`,
/// [`Layout::Right`], so lane `j` is the contiguous run
/// `[j·rows, (j + 1)·rows)` of its storage and a block of eight lanes is
/// one contiguous range.
pub struct HostField<'a>(&'a mut Matrix);

impl<'a> HostField<'a> {
    /// View `m` as a field of `m.nrows()` lanes; `None` unless it is
    /// stored [`Layout::Right`] (a `Layout::Left` matrix of this shape
    /// interleaves its lanes — pack it into a [`ResidentBatch`] instead).
    pub fn new(m: &'a mut Matrix) -> Option<Self> {
        (m.layout() == Layout::Right).then_some(Self(m))
    }

    /// Lane `lane`'s storage, `[lane·rows, (lane + 1)·rows)`.
    fn span(&self, lane: usize) -> std::ops::Range<usize> {
        let rows = self.0.ncols();
        lane * rows..(lane + 1) * rows
    }
}

impl Field for HostField<'_> {
    const PANELS: bool = false;

    fn shape(&self) -> (usize, usize) {
        (self.0.ncols(), self.0.nrows())
    }

    fn for_each_run_mut<E, F>(&mut self, exec: &E, per: usize, f: F)
    where
        E: ExecSpace,
        F: Fn(usize, usize, &mut [f64]) + Sync + Send,
    {
        // `Layout::Right` (checked by `new`): lane `j` is the contiguous
        // run `[j·rows, (j + 1)·rows)` of the storage.
        let (lanes, rows) = self.0.shape();
        for_each_run_mut(exec, self.0.as_mut_slice(), rows, lanes, per, f);
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
/// reoriented copy: a worker's run is gathered from the tiles into
/// contiguous columns, a 64-byte tile row at a time, advanced there as a
/// [`HostField`]'s blocks are, and scattered back. The batch's padding
/// lanes are never read or written.
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
    const PANELS: bool = false;

    fn shape(&self) -> (usize, usize) {
        (self.0.ncols(), self.0.nrows())
    }

    fn for_each_run_mut<E, F>(&mut self, exec: &E, per: usize, f: F)
    where
        E: ExecSpace,
        F: Fn(usize, usize, &mut [f64]) + Sync + Send,
    {
        self.0.panels_mut().for_each_tiled_run_mut(exec, per, f);
    }

    // Lane `x` is row `x` of every panel, eight values a panel apart: no
    // strided view spans it, so it is copied.
    fn copy_lane_into(&self, lane: usize, out: &mut [f64]) {
        self.check_lane(lane, out.len());
        let panels = self.0.panels();
        for (c, part) in out.chunks_mut(LANE_WIDTH).enumerate() {
            part.copy_from_slice(&panels.chunk(c)[lane * LANE_WIDTH..][..part.len()]);
        }
    }

    fn write_lane(&mut self, lane: usize, values: &[f64]) {
        self.check_lane(lane, values.len());
        let panels = self.0.panels_mut();
        for (c, part) in values.chunks(LANE_WIDTH).enumerate() {
            panels.chunk_mut(c)[lane * LANE_WIDTH..][..part.len()].copy_from_slice(part);
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

    /// Every element of every block is handed out exactly once, under the
    /// pool, whatever the run length and on both kinds of field: each run's
    /// blocks are bumped by one through [`run_blocks`], a run is told its
    /// first block and its live lanes, and a partial last block of a host
    /// field is its live lanes only.
    #[test]
    fn runs_cover_every_element_once_on_both_kinds() {
        const W: usize = LANE_WIDTH;
        let rows = if cfg!(miri) { 3 } else { 13 };
        let all = [1usize, 7, 8, 31, 32, 33, 5 * W + 3];
        let few = [7usize, 33];
        for &lanes in if cfg!(miri) { &few[..] } else { &all[..] } {
            for per in [1usize, 2, 4] {
                let what = &format!("{lanes} lanes, runs of {per}");
                let bump = |panels: bool| {
                    move |first: usize, live: usize, run: &mut [f64]| {
                        assert!(live > 0 && live <= per * W, "{what}");
                        assert!(first * W + live <= lanes, "{what}");
                        let tag = if panels { first * W } else { 1000 * first * W };
                        assert_eq!(run[0], tag as f64, "{what}");
                        let mut seen = 0;
                        for (k, (block_lanes, block)) in run_blocks(run, rows, live).enumerate() {
                            assert_eq!(block_lanes, W.min(live - k * W), "{what}");
                            let width = if panels { W } else { block_lanes };
                            assert_eq!(block.len(), width * rows, "{what}");
                            block.iter_mut().for_each(|v| *v += 1.0);
                            seen += block_lanes;
                        }
                        assert_eq!(seen, live, "{what}");
                    }
                };
                let mut m = tagged(lanes, rows);
                let mut field = HostField::new(&mut m).expect("row-major");
                assert_eq!(field.shape(), (rows, lanes));
                field.for_each_run_mut(&Parallel, per, bump(false));
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
                resident.for_each_run_mut(&Parallel, per, bump(true));
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
                let padding = resident.panels().chunk((lanes - 1) / W);
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

    /// The tiled field hands every live element of the batch out exactly
    /// once, under the pool, whatever the run length: a run's blocks are a
    /// host field's — lane `x` is row `x` of the batch, its values in lane
    /// order, a partial last block its live lanes only — and each value is
    /// bumped once. The batch's padding lanes hold [`SENTINEL`], which no
    /// run sees and none overwrites, for a partial last chunk and a partial
    /// last block of rows alike; a run is staged from a cache line on; the
    /// lane accessors read and write a row across the panels; and the
    /// batch's generation moves.
    #[test]
    fn tiled_runs_cover_every_tile_element_once() {
        const W: usize = LANE_WIDTH;
        // (batch rows = field lanes, batch lanes = field rows).
        let shapes: &[(usize, usize)] = if cfg!(miri) {
            &[(9, 13), (17, 5)]
        } else {
            &[(1, 1), (8, 8), (13, 20), (20, 13), (33, 7), (5 * W + 3, 67)]
        };
        for &(nrows, ncols) in shapes {
            for per in [1usize, 2, 4] {
                let what = &format!("{nrows}x{ncols} batch, runs of {per}");
                let mut batch = ResidentBatch::zeros(nrows, ncols);
                let chunks = batch.panels().num_chunks();
                (0..chunks).for_each(|c| batch.panels_mut().chunk_mut(c).fill(SENTINEL));
                for i in 0..nrows {
                    (0..ncols).for_each(|j| batch.set(i, j, (1000 * i + j) as f64));
                }
                let generation = batch.generation();
                let mut field = TiledField::new(&mut batch);
                assert_eq!(field.shape(), (ncols, nrows), "{what}");
                field.for_each_run_mut(&Parallel, per, |first, live, run| {
                    assert!(live > 0 && live <= per * W, "{what}");
                    assert!(first * W + live <= nrows, "{what}");
                    assert_eq!(run.as_ptr() as usize % 64, 0, "{what}: staging at a line");
                    let mut seen = 0;
                    for (k, (block_lanes, block)) in run_blocks(run, ncols, live).enumerate() {
                        assert_eq!(block_lanes, W.min(live - k * W), "{what}");
                        assert_eq!(block.len(), block_lanes * ncols, "{what}");
                        for (l, lane) in block.chunks_exact_mut(ncols).enumerate() {
                            let x = (first + k) * W + l;
                            for (v, value) in lane.iter_mut().enumerate() {
                                assert_eq!(*value, (1000 * x + v) as f64, "{what}: ({x}, {v})");
                                *value += 0.5;
                            }
                        }
                        seen += block_lanes;
                    }
                    assert_eq!(seen, live, "{what}");
                });
                field.write_lane(nrows - 1, &vec![-1.0; ncols]);
                let first: Vec<f64> = (0..ncols).map(|v| v as f64 + 0.5).collect();
                let first = if nrows == 1 { vec![-1.0; ncols] } else { first };
                assert_eq!(lane_of(&field, 0), first, "{what}");
                assert!(batch.generation() > generation, "{what}");
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
                let last = batch.panels().chunk(chunks - 1);
                for row in last.chunks_exact(W) {
                    for &v in &row[ncols - (chunks - 1) * W..] {
                        assert_eq!(v.to_bits(), SENTINEL.to_bits(), "{what}: padding");
                    }
                }
            }
        }
    }

    /// The kinds of field agree on what their blocks hold — the gathered
    /// panel of a host block is the resident panel of the same lanes,
    /// padding lanes zero, whatever the scratch held before; the staged
    /// block of the tiled view of the host matrix's batch is the host block
    /// itself — and on what their lanes hold.
    #[test]
    fn gathered_host_block_is_the_resident_panel() {
        let shapes: &[(usize, usize)] = if cfg!(miri) {
            &[(3, 9)]
        } else {
            &[(1, 1), (7, 5), (8, 8), (19, 13), (16, 64)]
        };
        for &(lanes, rows) in shapes {
            let mut m = tagged(lanes, rows);
            let resident = ResidentBatch::pack_transposed(&m);
            let mut batch = ResidentBatch::pack(&m);
            let host = m.clone();
            let mut field = HostField::new(&mut m).expect("row-major");
            field.for_each_run_mut(&Serial, 1, |c, live, block| {
                let mut panel = vec![f64::NAN; rows * LANE_WIDTH];
                fill_panel(block, live, &mut panel);
                assert_eq!(
                    panel,
                    resident.panels().chunk(c),
                    "{lanes}x{rows} block {c}"
                );
            });
            let mut tiled = TiledField::new(&mut batch);
            tiled.for_each_run_mut(&Serial, 1, |c, live, block| {
                let want = &host.as_slice()[c * LANE_WIDTH * rows..][..live * rows];
                assert_eq!(block, want, "{lanes}x{rows} tiled block {c}");
            });
            for j in 0..lanes {
                let want = resident.lane_to_vec(j);
                assert_eq!(lane_of(&field, j), want, "{lanes}x{rows} lane {j}");
                assert_eq!(lane_of(&resident, j), want, "{lanes}x{rows} lane {j}");
                assert_eq!(lane_of(&tiled, j), want, "{lanes}x{rows} tiled lane {j}");
            }
        }
    }

    #[test]
    fn lane_interleaved_host_matrix_is_not_a_field() {
        assert!(HostField::new(&mut Matrix::zeros(4, 6, Layout::Left)).is_none());
    }
}
