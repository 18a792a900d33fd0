//! A run's ingress, carried by its solve (DESIGN.md §14.3).
//!
//! A worker's run of blocks is solved as interleaved panels, and a field
//! that is not made of panels keeps its blocks otherwise: a host field's
//! are eight contiguous columns, a tiled field's rows of 8 × 8 tiles.
//! Rather than gather a host block into its panel in a pass of its own, the
//! `Q` sweep's forward pass, which reads every row anyway, brings the rows
//! in a few tiles ahead of the first one it touches ([`LaneRows::ingress`]),
//! so that they are in L1 when it reads them. A tiled block's tiles lie a
//! slab panel apart, a fresh page each, and the sweep waited on them: a
//! tiled run's group is brought in whole before its sweep (EXPERIMENTS.md).
//! In the verified step the same ingress copies the rows on into the
//! right-hand sides its screen keeps, with their sums. Every value is moved
//! once and none is computed differently, so every lane keeps the bits of
//! the panel solve.

use crate::builder::{Kept, ABREAST};
use crate::verified::{keep_rows_on, sums_of, Taken};
use pp_linalg::{LaneRows, Panel};
use pp_portable::{Blocks, Lanes, PanelIsa, LANE_WIDTH};

const W: usize = LANE_WIDTH;

/// Rows brought in past the one the sweep is about to touch, so that one
/// out-of-line call serves five tiles of the sweep.
const LEAD: usize = 4 * W;

/// What a run's sweep brings in besides solving: its blocks from where
/// they lie, and the verified step's copy of them (module docs). With
/// neither, it is a plain solve of panels where they lie.
pub(crate) struct Stage<'r> {
    isa: PanelIsa,
    /// Rows per panel.
    rows: usize,
    /// The run's blocks where they lie, brought into its panels; `None`
    /// when the panels are the blocks.
    source: Option<Blocks<'r>>,
    /// The verified step's copy of the run's right-hand sides, panel after
    /// panel, and per panel the sums taken of them.
    kept: Option<(&'r mut [f64], [Taken; ABREAST])>,
}

impl<'r> Stage<'r> {
    pub(crate) fn new(
        isa: PanelIsa,
        rows: usize,
        source: Option<Blocks<'r>>,
        kept: Option<&'r mut [f64]>,
    ) -> Self {
        let kept = kept.map(|kept| (kept, [[<[f64; W]>::splat(0.0); 3]; ABREAST]));
        Self {
            isa,
            rows,
            source,
            kept,
        }
    }

    /// Whether the sweep brings anything in: false for a plain solve of
    /// panels where they lie, which is swept on the panels themselves.
    pub(crate) fn brings_in(&self) -> bool {
        self.source.is_some() || self.kept.is_some()
    }

    /// The accessor of the sweep over the run's panels `first .. first + P`;
    /// a tiled run's are brought in here, whole.
    #[inline(always)]
    pub(crate) fn group<'s, const P: usize>(
        &'s mut self,
        rows: [Panel<'s>; P],
        first: usize,
    ) -> Staged<'s, 'r, P> {
        let tiled = matches!(&self.source, Some(blocks) if !blocks.is_columns());
        let mut staged = Staged {
            rows,
            stage: self,
            first,
            filled: 0,
        };
        if let Some(last) = staged.stage.rows.checked_sub(1).filter(|_| tiled) {
            staged.ingress(last);
        }
        staged
    }

    /// After the sweep, what the run keeps of its block `k`: the block where
    /// it lies, and the kept right-hand sides with their sums.
    pub(crate) fn block(&mut self, k: usize) -> (Option<Blocks<'_>>, Option<Kept<'_>>) {
        let panel = self.rows * W;
        let block = self.source.as_mut().map(|blocks| blocks.block(k));
        let kept = (self.kept.as_ref())
            .map(|(kept, taken)| (&kept[k * panel..][..panel], sums_of(taken[k])));
        (block, kept)
    }

    /// Bring in rows `filled` to the end of the tile that holds row `i` of
    /// the `panels`, the run's from `first` on: from the blocks where they
    /// lie ([`Blocks::fill_rows`]), then, in the verified step, into the
    /// kept copy and its sums, rows in order. Returns the rows now in. Out
    /// of line, and handed the panels rather than the accessor, so that the
    /// sweep keeps its accessor in registers.
    #[inline(never)]
    fn bring_in<const P: usize>(
        &mut self,
        first: usize,
        filled: usize,
        i: usize,
        mut panels: [&mut [f64]; P],
    ) -> usize {
        let at = filled..self.rows.min((i / W + 1) * W);
        if let Some(source) = &mut self.source {
            for (p, values) in panels.iter_mut().enumerate() {
                source
                    .block(first + p)
                    .fill_rows(self.isa, values, at.clone());
            }
        }
        if let Some((kept, taken)) = &mut self.kept {
            let (panel, values) = (self.rows * W, at.start * W..at.end * W);
            let mut kept = kept[first * panel..].chunks_exact_mut(panel);
            let kept =
                std::array::from_fn(|_| &mut kept.next().expect("a kept panel")[values.clone()]);
            let taken = (&mut taken[first..first + P]).try_into().expect("P panels");
            keep_rows_on(
                self.isa,
                panels.map(|rhs| &rhs[values.clone()]),
                kept,
                taken,
            );
        }
        at.end
    }
}

/// The sweep's row accessor over `P` panels of a run abreast, bringing
/// their rows in as the sweep reaches them (module docs).
pub(crate) struct Staged<'s, 'r, const P: usize> {
    rows: [Panel<'s>; P],
    stage: &'s mut Stage<'r>,
    /// The group's first panel in the run.
    first: usize,
    /// Rows brought in so far.
    filled: usize,
}

impl<const P: usize> LaneRows for Staged<'_, '_, P> {
    type V = [[f64; W]; P];
    #[inline(always)]
    fn get(&self, i: usize) -> Self::V {
        self.rows.get(i)
    }
    #[inline(always)]
    fn set(&mut self, i: usize, v: Self::V) {
        self.rows.set(i, v);
    }
    #[inline(always)]
    fn swap(&mut self, i: usize, j: usize) {
        self.rows.swap(i, j);
    }
    #[inline(always)]
    fn ingress(&mut self, i: usize) {
        if i >= self.filled {
            let to = (i + LEAD).min(self.stage.rows - 1);
            let panels = self.rows.each_mut().map(|panel| panel.values_mut());
            self.filled = self.stage.bring_in(self.first, self.filled, to, panels);
        }
    }
}
