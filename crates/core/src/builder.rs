//! The batched spline builder: Algorithm 1 as one region body, with the
//! paper's three builder versions (Table III) as its configurations.
//!
//! Every entry point solves a [`Field`] block by block in one body
//! (`SplineBuilder::solve_run`): a block is an interleaved panel of
//! [`LANE_WIDTH`] lanes — the panel itself on a [`ResidentBatch`], else a
//! panel in a per-worker scratch that the solve's own forward sweep fills
//! from the block where it lies, a few tiles of eight rows ahead of itself
//! (`stage`) — and a worker's turn solves a run of up to four of them abreast. A
//! version is a corner axis (dense `gemv` blocks or COO `spmv` entries) and
//! a region plan: how many
//! parallel regions [`SplineBuilder::solve_in_place`] splits Algorithm 1
//! into. The per-lane `schur_solve` is the scalar oracle every result is
//! held to; `lane_steps` runs it for the baseline sweep and the repair path.

use crate::blocks::SchurBlocks;
use crate::error::{Error, Result};
use crate::stage::Stage;
use crate::verified::RhsSums;
use pp_bsplines::SplineSpace;
use pp_linalg::{LaneRows, Panel};
use pp_portable::{run_scalar, Blocks, ExecSpace, Field, HostField, Lines, PanelIsa, Run};
use pp_portable::{Layout, Matrix, ResidentBatch, StridedMut, LANE_WIDTH};
use pp_sparse::Coo;
use std::cell::RefCell;
use std::ops::Range;

/// Which implementation of the build kernel to run — the paper's
/// `DDC_SPLINES_VERSION` 0 / 1 / 2 (Listings 2, 4 and 6, Table III), as two
/// axes over the one region body: Algorithm 1 **split** into one parallel
/// region per step or **fused** into one (the region plan of
/// [`SplineBuilder::solve_in_place`]), and the corner corrections as
/// **dense** `gemv` blocks or **COO** `spmv` entries. Every other entry
/// point ([`SplineBuilder::solve_resident`], [`SplineBuilder::solve_then`])
/// runs the one fused region with the version's corner axis; a lane's
/// result is bit-identical either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuilderVersion {
    /// Split, dense corners (paper Listing 2): `Q`-solve, corner
    /// correction, `getrs`, corner correction — four regions.
    Baseline,
    /// Fused, dense `gemv` corners (Listing 4).
    Fused,
    /// Fused, sparse COO corners (Listing 6) — the fastest version in the
    /// paper's Table III.
    FusedSpmv,
}

/// What one region of a version's plan does to the panels of a run: all of
/// Algorithm 1, or one of its steps, bringing the run's rows in as its
/// [`Stage`] says.
type Sweep = fn(&SplineBuilder, PanelIsa, &mut [f64], &mut Stage<'_>);

impl BuilderVersion {
    /// The paper's three versions, in Table III order.
    pub const ALL: [BuilderVersion; 3] = [
        BuilderVersion::Baseline,
        BuilderVersion::Fused,
        BuilderVersion::FusedSpmv,
    ];

    /// The lane-interleaved layout's old version name: every version runs
    /// on panels now, so it is [`BuilderVersion::FusedSpmv`].
    #[doc(hidden)]
    #[allow(non_upper_case_globals)]
    pub const Interleaved: BuilderVersion = BuilderVersion::FusedSpmv;

    /// Label as the paper's Table III names it.
    pub fn label(self) -> &'static str {
        match self {
            BuilderVersion::Baseline => "Original",
            BuilderVersion::Fused => "Kernel fusion",
            BuilderVersion::FusedSpmv => "gemv->spmv",
        }
    }

    /// The corner axis: COO `spmv` entries (`true`) or dense `gemv`
    /// blocks.
    pub(crate) fn sparse_corners(self) -> bool {
        self == BuilderVersion::FusedSpmv
    }

    /// The region plan: one parallel region per sweep, in order — the
    /// baseline's Algorithm 1 as the paper's four launches, every other
    /// version's as the one fused region.
    fn plan(self) -> &'static [Sweep] {
        match self {
            BuilderVersion::Baseline => &[
                SplineBuilder::sweep_on::<0, 1>,
                SplineBuilder::sweep_on::<1, 2>,
                SplineBuilder::sweep_on::<2, 3>,
                SplineBuilder::sweep_on::<3, 4>,
            ],
            BuilderVersion::Fused | BuilderVersion::FusedSpmv => &[SplineBuilder::sweep_fused],
        }
    }
}

/// A factored, ready-to-solve spline builder for one spline space,
/// periodic or clamped: a clamped space's matrix has no border, so its
/// Algorithm 1 is the `Q` sweep with empty corner and border steps, on
/// every entry point and version alike.
pub struct SplineBuilder {
    space: SplineSpace,
    blocks: SchurBlocks,
    version: BuilderVersion,
}

impl SplineBuilder {
    /// Assemble and factor everything (the one-time setup of the paper's
    /// §II-B.1).
    pub fn new(space: SplineSpace, version: BuilderVersion) -> Result<Self> {
        let blocks = SchurBlocks::new(&space)?;
        Ok(Self {
            space,
            blocks,
            version,
        })
    }

    /// The spline space this builder serves.
    pub fn space(&self) -> &SplineSpace {
        &self.space
    }

    /// The factored block decomposition.
    pub fn blocks(&self) -> &SchurBlocks {
        &self.blocks
    }

    /// Which kernel version solves run with.
    pub fn version(&self) -> BuilderVersion {
        self.version
    }

    /// Switch kernel version without refactoring (the factorisation is
    /// shared by every version).
    pub fn with_version(mut self, version: BuilderVersion) -> Self {
        self.version = version;
        self
    }

    pub(crate) fn check_rows(&self, actual_rows: usize) -> Result<()> {
        let expected_rows = self.space.num_basis();
        if actual_rows != expected_rows {
            return Err(Error::ShapeMismatch {
                expected_rows,
                actual_rows,
            });
        }
        Ok(())
    }

    /// Solve `A X = B` in place: on entry each column of `b` holds values
    /// at the interpolation points; on exit, spline coefficients.
    ///
    /// Runs the version's region plan through `exec` — the Table III
    /// ablation: the baseline's four regions are four passes over `b`, the
    /// temporal-locality problem §IV-B profiles; every other version's one
    /// fused region is a single pass. A [`Layout::Left`] `b` is solved where
    /// it lies, as a host field of its contiguous columns, each region
    /// bringing a block into a per-worker panel and storing it back; a
    /// [`Layout::Right`] one, whose lanes are strided, is packed once into
    /// panels, solved on them and unpacked. Either way every lane carries
    /// the bits of [`SplineBuilder::solve_resident`].
    pub fn solve_in_place<E: ExecSpace>(&self, exec: &E, b: &mut Matrix) -> Result<()> {
        self.check_rows(b.nrows())?;
        let (plan, store) = (self.version.plan(), |_, _, x: Solved<'_>| x.store());
        let isa = PanelIsa::detected();
        match b.layout() {
            Layout::Left => self.solve_plan(isa, exec, &mut HostField::new(b), plan, store),
            Layout::Right => {
                let mut packed = ResidentBatch::pack_with(exec, b);
                self.solve_plan(isa, exec, &mut packed, plan, store);
                packed.unpack_into_with(exec, b)?;
            }
        }
        Ok(())
    }

    /// **Resident entry point**: solve a batch that is already packed,
    /// reading and writing the panels natively — zero pack/unpack
    /// transposes per call. A pipeline packs once at ingress
    /// ([`ResidentBatch::pack`]), calls this any number of times, and
    /// unpacks once at egress.
    ///
    /// This is [`SplineBuilder::solve_then`] with a continuation that
    /// leaves the coefficients in the panels: one region, a worker's turn
    /// being a run of up to four panels solved abreast, in the host's
    /// widest instance. Every lane is bit-identical to
    /// [`SplineBuilder::solve_in_place`] on the equivalent host matrix, for
    /// every [`BuilderVersion`]: a lane's bits depend neither on how the
    /// steps are grouped into regions nor on the panels beside it, and
    /// pack/unpack are pure copies.
    pub fn solve_resident<E: ExecSpace>(&self, exec: &E, b: &mut ResidentBatch) -> Result<()> {
        self.solve_then(exec, b, |_, _, solved| solved.store())
    }

    /// **Fused entry point**: solve the field `b` block by block — the
    /// panels of a [`ResidentBatch`], or eight lanes at a time of a
    /// lane-contiguous host matrix ([`pp_portable::HostField`]) or of a
    /// batch's transpose ([`pp_portable::TiledField`]) — and hand each
    /// block's coefficients, still in cache, to `then(chunk, lanes, solved)`,
    /// which overwrites the block, the part of `b` the right-hand sides came
    /// from (`lanes` live lanes), with whatever it makes of them (the
    /// advection step evaluates them at the characteristic feet). One
    /// parallel region, a worker's turn being a run of up to four blocks
    /// solved side by side. A block that is a panel is solved where it lies
    /// and handed over as [`Solved::InPlace`]; any other is brought into a
    /// panel in a per-worker scratch, from a cache line on — a host block's
    /// rows by the solve's own forward sweep, a few tiles ahead of it —
    /// solved there and handed over as [`Solved::Apart`] with a view of the
    /// block where it lies — never a second batch, never a staged copy, no
    /// gathering pass.
    ///
    /// The region runs the fused Algorithm 1 with this version's corner
    /// axis, so the coefficients are the bits [`SplineBuilder::solve_in_place`]
    /// leaves in a host matrix — for [`BuilderVersion::Baseline`] too, whose
    /// four regions are its `solve_in_place` plan alone. `then` must not
    /// call back into a fused entry point on the same thread (the scratch
    /// is lent to it).
    pub fn solve_then<E, B, F>(&self, exec: &E, b: &mut B, then: F) -> Result<()>
    where
        E: ExecSpace,
        B: Field,
        F: Fn(usize, usize, Solved<'_>) + Sync + Send,
    {
        self.check_rows(b.shape().0)?;
        self.solve_plan(PanelIsa::detected(), exec, b, &[Self::sweep_fused], then);
        Ok(())
    }

    /// One parallel region per sweep of `plan` over the field `b`: a worker's
    /// turn solves a run of blocks as panels with the sweep in the `isa`
    /// instance ([`SplineBuilder::solve_run`]) and hands each block to `then`.
    fn solve_plan<E, B, S, F>(&self, isa: PanelIsa, exec: &E, b: &mut B, plan: &[S], then: F)
    where
        E: ExecSpace,
        B: Field,
        S: Fn(&Self, PanelIsa, &mut [f64], &mut Stage<'_>) + Sync,
        F: Fn(usize, usize, Solved<'_>) + Sync + Send,
    {
        for sweep in plan {
            b.for_each_run_mut(exec, ABREAST, |first, lanes, run| {
                self.solve_run::<false>(isa, first, lanes, run, sweep, |s| {
                    then(s.chunk, s.lanes, Solved::new(s.x, s.block));
                });
            });
        }
    }

    /// One worker's turn of every fused entry point, in the instance
    /// compiled for `isa`: take apart the `run` [`Field::for_each_run_mut`]
    /// handed out (`lanes` live lanes from block `first` on) into the panels
    /// to solve — the run itself on a field of panels, else scratch panels —
    /// solve those abreast with `sweep` (all of Algorithm 1,
    /// [`SplineBuilder::sweep_fused`], but in a region of the baseline's
    /// plan), then hand each block on to `each` as a [`SolvedBlock`]. The
    /// sweep brings a block that is not a panel into its scratch panel from
    /// where the block lies ([`Stage`]): a host block's eight columns a few
    /// tiles ahead of its forward pass, a tiled block's tile rows whole
    /// before it. With `KEEP` (the verified
    /// step) the same ingress copies the right-hand sides into the
    /// second scratch set and takes the sums the screen needs of them; the
    /// plain step is the instance without, where no copy is compiled in.
    pub(crate) fn solve_run<const KEEP: bool>(
        &self,
        isa: PanelIsa,
        first: usize,
        lanes: usize,
        run: Run<'_>,
        sweep: impl Fn(&Self, PanelIsa, &mut [f64], &mut Stage<'_>),
        mut each: impl FnMut(SolvedBlock<'_>),
    ) {
        let n = self.space.num_basis();
        let (panel, count) = (n * LANE_WIDTH, lanes.div_ceil(LANE_WIDTH));
        PANEL_SCRATCH.with_borrow_mut(|[scratch, kept]| {
            let (panels, source) = match run {
                Run::Panels(run) => (run, None),
                Run::Blocks(blocks) => (scratch.at_least(count * panel), Some(blocks)),
            };
            let kept = KEEP.then(|| kept.at_least(count * panel));
            let mut stage = Stage::new(isa, n, source, kept);
            sweep(self, isa, panels, &mut stage);
            for (k, x) in panels.chunks_exact_mut(panel).enumerate() {
                let (block, kept) = stage.block(k);
                each(SolvedBlock {
                    chunk: first + k,
                    lanes: LANE_WIDTH.min(lanes - k * LANE_WIDTH),
                    x,
                    block,
                    kept,
                });
            }
        });
    }

    /// The fused Algorithm 1 on each of the `[nrows][LANE_WIDTH]` panels that
    /// `panels` holds back to back, in the instance compiled for `isa`
    /// (`sweep_on` over all four steps). Named instances are for the
    /// differential test and the bench rows; the entry points run
    /// [`PanelIsa::detected`].
    ///
    /// # Panics
    /// Panics if the host lacks `isa`, or `panels` is not whole panels.
    #[doc(hidden)]
    pub fn solve_panels_on(&self, isa: PanelIsa, panels: &mut [f64]) {
        let rows = self.space.num_basis();
        self.sweep_fused(isa, panels, &mut Stage::new(isa, rows, None, None));
    }

    /// All of Algorithm 1 on the run's panels, bringing rows in as `stage`
    /// says: the fused sweep every entry point runs. Not generic, so that it
    /// is compiled once, here, and not again in every crate whose
    /// continuation instantiates [`SplineBuilder::solve_run`].
    pub(crate) fn sweep_fused(&self, isa: PanelIsa, panels: &mut [f64], stage: &mut Stage<'_>) {
        self.sweep_on::<0, 4>(isa, panels, stage);
    }

    /// Algorithm 1's steps `FROM..TO` on each of the `[nrows][LANE_WIDTH]`
    /// panels that `panels` holds back to back, in the instance compiled for
    /// `isa`: four abreast while four are left, then two, then one, each
    /// group's rows brought in as `stage` says. A panel's bits depend
    /// neither on its company (`[Panel; P]` is a regrouping) nor on the
    /// instance (every multiply-add is the one fused
    /// [`pp_portable::Lanes::mul_add`], and rustc contracts nothing else).
    /// The baseline instance is [`Self::sweep_lanes`], not a third wide copy.
    ///
    /// # Panics
    /// Panics if the host lacks `isa`, or `panels` is not whole panels.
    fn sweep_on<const FROM: usize, const TO: usize>(
        &self,
        isa: PanelIsa,
        panels: &mut [f64],
        stage: &mut Stage<'_>,
    ) {
        let panel = self.space.num_basis() * LANE_WIDTH;
        assert!(panels.len().is_multiple_of(panel), "sweep_on: whole panels");
        if isa == PanelIsa::Baseline {
            return self.sweep_lanes(FROM..TO, panels, stage);
        }
        isa.run(
            #[inline(always)]
            || {
                let (rest, k) = self.sweep_groups::<ABREAST, FROM, TO>(panels, stage, 0);
                let (rest, k) = self.sweep_groups::<2, FROM, TO>(rest, stage, k);
                self.sweep_groups::<1, FROM, TO>(rest, stage, k);
            },
        );
    }

    /// Algorithm 1's steps `FROM..TO` on the panels back to back in
    /// `panels`, the run's panels from `first` on, `P` abreast; returns the
    /// fewer than `P` left over and the first of them. Every row of a group
    /// is in by the end of its sweep, also in a region without the `Q` step.
    #[inline(always)]
    fn sweep_groups<'a, const P: usize, const FROM: usize, const TO: usize>(
        &self,
        panels: &'a mut [f64],
        stage: &mut Stage<'_>,
        mut first: usize,
    ) -> (&'a mut [f64], usize) {
        let n = self.space.num_basis();
        let mut groups = panels.chunks_exact_mut(P * n * LANE_WIDTH);
        for group in &mut groups {
            let mut group = group.chunks_exact_mut(n * LANE_WIDTH);
            let mut panels: [Panel; P] =
                std::array::from_fn(|_| Panel::new(group.next().expect("P panels to a group"), n));
            if stage.brings_in() {
                self.steps::<FROM, TO>(&mut stage.group(panels, first));
            } else {
                self.steps::<FROM, TO>(&mut panels);
            }
            first += P;
        }
        (groups.into_remainder(), first)
    }

    /// [`Self::sweep_on`] at the baseline: each panel brought in whole (as a
    /// tiled block is), then `steps` on every lane, padding included.
    fn sweep_lanes(&self, steps: Range<usize>, panels: &mut [f64], stage: &mut Stage<'_>) {
        let n = self.space.num_basis();
        let sparse = self.version.sparse_corners();
        for (k, panel) in panels.chunks_exact_mut(n * LANE_WIDTH).enumerate() {
            all_in(&mut stage.group([Panel::new(panel, n)], k), n);
            for l in 0..LANE_WIDTH {
                let mut lane = StridedMut::new(&mut panel[l..], n, LANE_WIDTH);
                lane_steps(&self.blocks, sparse, steps.clone(), &mut lane);
            }
        }
    }

    /// Algorithm 1's steps `FROM..TO` on one group's `rows`, all of them in
    /// by the end. A run with nothing to bring in is swept on its panels
    /// themselves, so that its rows carry no per-row ingress test: the plain
    /// resident step measured ≈ 1 % slower through the bringing accessor
    /// (EXPERIMENTS.md).
    #[inline(always)]
    fn steps<const FROM: usize, const TO: usize>(&self, rows: &mut impl LaneRows) {
        for step in &ALGORITHM_1[FROM..TO] {
            step.apply(&self.blocks, self.version.sparse_corners(), rows);
        }
        all_in(rows, self.space.num_basis());
    }
}

/// One step of the paper's Algorithm 1 on the stacked right-hand side
/// `(b0, b1)`: rows `0..q` and `q..n` of a lane (or of a panel of lanes).
#[derive(Clone, Copy)]
enum Step {
    /// `Q x0′ = b0` (`pttrs` / `pbtrs` / `gbtrs`, Table I).
    QSolve,
    /// `b1 ← b1 − λ x0′`.
    LambdaCorner,
    /// `δ′ x1 = b1` (dense `getrs` on the border rows).
    BorderSolve,
    /// `x0 = x0′ − β x1`.
    BetaCorner,
}

/// Algorithm 1, in order. Every entry point runs it inside one parallel
/// region but the baseline's [`SplineBuilder::solve_in_place`], which runs
/// one region per step ([`BuilderVersion::plan`]).
const ALGORITHM_1: [Step; 4] = [
    Step::QSolve,
    Step::LambdaCorner,
    Step::BorderSolve,
    Step::BetaCorner,
];

impl Step {
    /// The step on `rows`. The `Q` sweep brings rows in as it reaches them;
    /// every other step needs all of them first.
    #[inline(always)]
    fn apply<R: LaneRows>(self, blocks: &SchurBlocks, sparse: bool, rows: &mut R) {
        let q = blocks.q_size();
        if !matches!(self, Step::QSolve) {
            all_in(rows, blocks.n());
        }
        match self {
            Step::QSolve => blocks.q_factors().solve_rows(rows, 0),
            Step::LambdaCorner => corner(
                rows,
                sparse,
                blocks.lambda_coo(),
                blocks.lambda_dense(),
                q,
                0,
            ),
            Step::BorderSolve => blocks.delta_factors().solve_rows(rows, q),
            Step::BetaCorner => corner(rows, sparse, blocks.beta_coo(), blocks.beta_dense(), 0, q),
        }
    }
}

/// Bring in every one of the `n` rows that `rows` has not brought in yet
/// ([`LaneRows::ingress`]).
#[inline(always)]
fn all_in<R: LaneRows>(rows: &mut R, n: usize) {
    if let Some(last) = n.checked_sub(1) {
        rows.ingress(last);
    }
}

/// Corner correction `rows[y0..] −= C · rows[x0..]`, with `C` applied
/// through its COO entries (`sparse`, Listing 6) or as the dense block
/// (`gemv`, Listing 4).
#[inline(always)]
fn corner<R: LaneRows>(
    rows: &mut R,
    sparse: bool,
    coo: &Coo,
    dense: &Matrix,
    y0: usize,
    x0: usize,
) {
    if sparse {
        for (r, c, v) in coo.iter() {
            rows.row_axpy(y0 + r, x0 + c, -v);
        }
    } else {
        rows.gemv_sub(y0, dense, x0);
    }
}

/// Algorithm 1's `steps` on one lane in [`run_scalar`], out of line so that
/// the baseline sweep and the verified repair share one instance.
#[inline(never)]
pub(crate) fn lane_steps(
    blocks: &SchurBlocks,
    sparse: bool,
    steps: Range<usize>,
    lane: &mut StridedMut<'_>,
) {
    run_scalar(
        #[inline(always)]
        || {
            for step in &ALGORITHM_1[steps] {
                step.apply(blocks, sparse, lane);
            }
        },
    );
}

/// Panels a worker's turn of a fused entry point solves side by side: a
/// sweep is a chain of dependent row operations, and four interleaved keep
/// the vector unit busy where one waits on itself. Chosen by measurement
/// (EXPERIMENTS.md, PR 24: 2 against 4), not a setting.
pub(crate) const ABREAST: usize = 4;

/// A panel's right-hand sides as the verified step keeps them beside its
/// solve, with the sums its screen takes of them.
pub(crate) type Kept<'a> = (&'a [f64], RhsSums);

/// One block of a run, solved: what [`SplineBuilder::solve_run`] hands on.
pub(crate) struct SolvedBlock<'a> {
    /// The block's index in the field.
    pub(crate) chunk: usize,
    /// Its live lanes.
    pub(crate) lanes: usize,
    /// Its solved panel: the block itself, unless `block` is given.
    pub(crate) x: &'a mut [f64],
    /// The block where it lies, when that is not `x`.
    pub(crate) block: Option<Blocks<'a>>,
    /// With `KEEP`, its right-hand sides and their sums.
    pub(crate) kept: Option<Kept<'a>>,
}

/// Where a fused entry point's continuation finds a block's coefficients
/// ([`SplineBuilder::solve_then`]): in the block, or in a panel apart from
/// it — never both, so there is one `&mut` to the block.
pub enum Solved<'a> {
    /// The block is an interleaved `[nrows][LANE_WIDTH]` panel (a
    /// [`ResidentBatch`]'s) and holds the coefficients; the continuation
    /// overwrites them with its results.
    InPlace(&'a mut [f64]),
    /// The coefficients are the interleaved panel `coefs`, in a worker's
    /// scratch or a coefficient store; the continuation overwrites `block`,
    /// the block's live lanes where the field keeps them (a host field's
    /// contiguous columns, a tiled field's tile rows).
    Apart {
        /// The block's coefficients, `[nrows][LANE_WIDTH]`.
        coefs: &'a [f64],
        /// Where the results go.
        block: Blocks<'a>,
    },
}

impl<'a> Solved<'a> {
    /// The solved panel `x`, which is the block itself unless `block` is
    /// given.
    pub(crate) fn new(x: &'a mut [f64], block: Option<Blocks<'a>>) -> Self {
        match block {
            None => Solved::InPlace(x),
            Some(block) => Solved::Apart { coefs: x, block },
        }
    }

    /// Leave the coefficients in the block: a panel holds them already, a
    /// block apart gets them in its live lanes ([`Blocks::store_panel`]).
    pub(crate) fn store(self) {
        if let Solved::Apart { coefs, mut block } = self {
            block.store_panel(PanelIsa::detected(), coefs);
        }
    }
}

thread_local! {
    /// This worker's scratch for the fused entry points: two sets of up to
    /// [`ABREAST`] panels back to back, each from a cache line on, reused
    /// for every run of every step. The first set holds a run of blocks that
    /// are not panels as panels — brought in by the sweep as it reaches
    /// each tile, solved there, lent to the continuation; a field of panels
    /// is solved where it lies and never touches it. The second is touched
    /// only by the verified step, which needs the right-hand sides beside
    /// the coefficients.
    static PANEL_SCRATCH: RefCell<[Lines; 2]> =
        const { RefCell::new([const { Lines::new() }; 2]) };
}

/// Lengths of this thread's two sets of panel scratch, for the structure
/// tests.
#[cfg(test)]
pub(crate) fn panel_scratch_len() -> [usize; 2] {
    PANEL_SCRATCH.with_borrow(|sets| sets.each_ref().map(|set| set.len()))
}

/// All of Algorithm 1 on the right-hand sides `rows` carries, with sparse
/// (`spmv`) or dense (`gemv`) corners: on one lane of `n` rows, the scalar
/// oracle every panel result is held to by `to_bits`.
#[cfg(test)]
#[inline(always)]
pub(crate) fn schur_solve<R: LaneRows>(blocks: &SchurBlocks, sparse: bool, rows: &mut R) {
    for step in ALGORITHM_1 {
        step.apply(blocks, sparse, rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_bsplines::{assemble_interpolation_matrix, Breaks};
    use pp_linalg::naive;
    use pp_portable::{CountingExec, Parallel, Serial, TestRng, TiledField};
    use pp_portable::{Field, HostField, Run};

    fn space(n: usize, degree: usize, uniform: bool) -> SplineSpace {
        let breaks = if uniform {
            Breaks::uniform(n, 0.0, 1.0).unwrap()
        } else {
            Breaks::graded(n, 0.0, 1.0, 0.6).unwrap()
        };
        SplineSpace::new(breaks, degree).unwrap()
    }

    fn random_rhs(n: usize, batch: usize, layout: Layout, seed: u64) -> Matrix {
        let mut rng = TestRng::seed_from_u64(seed);
        Matrix::from_fn(n, batch, layout, |_, _| rng.gen_range(-2.0..2.0))
    }

    /// Every lane of the `(n, batch)` matrix `b` solved by the scalar
    /// oracle, [`schur_solve`] on a contiguous copy of the lane.
    fn oracle(builder: &SplineBuilder, b: &Matrix) -> Matrix {
        let sparse = builder.version().sparse_corners();
        let mut x = b.clone();
        for j in 0..b.ncols() {
            let mut lane: Vec<f64> = (0..b.nrows()).map(|i| b.get(i, j)).collect();
            schur_solve(
                builder.blocks(),
                sparse,
                &mut StridedMut::from_slice(&mut lane),
            );
            (lane.iter().enumerate()).for_each(|(i, &v)| x.set(i, j, v));
        }
        x
    }

    /// The `(n, batch)` matrix `x`'s bits, lane by lane.
    fn lane_bits(x: &Matrix) -> Vec<u64> {
        let (n, batch) = x.shape();
        let lanes = (0..batch).flat_map(|j| (0..n).map(move |i| (i, j)));
        lanes.map(|(i, j)| x.get(i, j).to_bits()).collect()
    }

    /// [`lane_bits`] of `solve_in_place` of `rhs`, stored `layout`, on
    /// `exec`.
    fn solved_bits<E: ExecSpace>(
        exec: &E,
        builder: &SplineBuilder,
        rhs: &Matrix,
        layout: Layout,
    ) -> Vec<u64> {
        let mut x = rhs.to_layout(layout);
        builder.solve_in_place(exec, &mut x).unwrap();
        lane_bits(&x)
    }

    /// `plan` through the baseline instance of the sweep, the one-lane route
    /// ([`SplineBuilder::sweep_lanes`]) that a host with AVX2 never takes,
    /// on the `(n, batch)` right-hand sides `rhs` (`batch > 0`): every lane
    /// solved on a host field and on a batch's tiled transpose carries the
    /// bits `want`, and on a resident batch whose padding lanes hold values
    /// of their own every lane of every panel, padding included, carries
    /// those of `schur_solve` on it.
    fn baseline_route(
        builder: &SplineBuilder,
        plan: &[Sweep],
        rhs: &Matrix,
        want: &[u64],
        what: &str,
    ) {
        let ((n, batch), isa) = (rhs.shape(), PanelIsa::Baseline);
        let store = |_, _, x: Solved<'_>| x.store();
        let mut host = rhs.clone();
        builder.solve_plan(isa, &Serial, &mut HostField::new(&mut host), plan, store);
        assert_eq!(lane_bits(&host), want, "{what}: baseline route, host");
        let lanes = Matrix::from_fn(batch, n, Layout::Left, |j, i| rhs.get(i, j));
        let mut tiled = ResidentBatch::pack(&lanes);
        builder.solve_plan(
            isa,
            &Parallel,
            &mut TiledField::new(&mut tiled),
            plan,
            store,
        );
        let tiled = Matrix::from_fn(n, batch, Layout::Left, |i, j| tiled.get(j, i));
        assert_eq!(lane_bits(&tiled), want, "{what}: baseline route, tiled");
        let mut resident = ResidentBatch::pack(rhs);
        let last = resident.num_chunks() - 1;
        let mut rng = TestRng::seed_from_u64(batch as u64);
        for (k, v) in resident.chunk_mut(last).iter_mut().enumerate() {
            if last * LANE_WIDTH + k % LANE_WIDTH >= batch {
                *v = rng.gen_range(-2.0..2.0);
            }
        }
        let sparse = builder.version().sparse_corners();
        let want: Vec<Vec<f64>> = (0..=last)
            .map(|c| {
                let mut panel = resident.chunk(c).to_vec();
                for l in 0..LANE_WIDTH {
                    let mut lane = StridedMut::new(&mut panel[l..], n, LANE_WIDTH);
                    schur_solve(builder.blocks(), sparse, &mut lane);
                }
                panel
            })
            .collect();
        builder.solve_plan(isa, &Parallel, &mut resident, plan, store);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (c, want) in want.iter().enumerate() {
            let got = bits(resident.chunk(c));
            assert_eq!(
                got,
                bits(want),
                "{what}: baseline route, resident panel {c}"
            );
        }
    }

    /// `solve_in_place` is the version's region plan through the one region
    /// body: on either layout and either execution space every lane carries
    /// the bits of the scalar oracle on a contiguous copy of it, and a
    /// `Layout::Left` solve is exactly the plan's regions — four for the
    /// baseline, one otherwise — with no pack. The plan and the fused sweep
    /// hold the same bits through the baseline instance on every kind of
    /// field ([`baseline_route`]). The six Table I periodic spaces and two
    /// clamped ones, at batches on either side of a panel and of a run of
    /// four.
    #[test]
    fn solve_in_place_runs_the_plan_and_matches_the_scalar_oracle() {
        let clamped = |degree, uniform: bool| {
            SplineSpace::clamped(space(16, degree, uniform).breaks().clone(), degree).unwrap()
        };
        let (spaces, batches): (Vec<SplineSpace>, &[usize]) = if cfg!(miri) {
            (vec![space(8, 3, true), clamped(3, true)], &[0, 9])
        } else {
            let mut spaces = vec![clamped(3, true), clamped(5, false)];
            for (degree, uniform) in [3, 4, 5].into_iter().flat_map(|d| [(d, true), (d, false)]) {
                spaces.push(space(24, degree, uniform));
            }
            (spaces, &[0, 1, 7, 8, 9, 33])
        };
        for sp in spaces {
            let n = sp.num_basis();
            for version in BuilderVersion::ALL {
                let builder = SplineBuilder::new(sp.clone(), version).unwrap();
                let regions = if version == BuilderVersion::Baseline {
                    4
                } else {
                    1
                };
                for &batch in batches {
                    let what = format!(
                        "{version:?} n {n} periodic {} batch {batch}",
                        sp.is_periodic()
                    );
                    let rhs = random_rhs(n, batch, Layout::Left, batch as u64);
                    let want = lane_bits(&oracle(&builder, &rhs));
                    let counting = CountingExec::default();
                    let got = solved_bits(&counting, &builder, &rhs, Layout::Left);
                    assert_eq!(got, want, "{what} Left counting");
                    assert_eq!(counting.regions(), regions, "{what}: the plan's regions");
                    for layout in [Layout::Left, Layout::Right] {
                        let serial = solved_bits(&Serial, &builder, &rhs, layout);
                        let parallel = solved_bits(&Parallel, &builder, &rhs, layout);
                        assert_eq!(serial, want, "{what} {layout:?} Serial");
                        assert_eq!(parallel, want, "{what} {layout:?} Parallel");
                    }
                    let fused: &[Sweep] = &[SplineBuilder::sweep_fused];
                    for plan in [version.plan(), fused].into_iter().filter(|_| batch > 0) {
                        let what = format!("{what}, {} regions", plan.len());
                        baseline_route(&builder, plan, &rhs, &want, &what);
                    }
                }
            }
        }
    }

    /// The run body's tile ingress, held to the scalar oracle on the shapes
    /// where it can go wrong: every solved-and-evaluated lane — the step's
    /// `solve_run` per run of four, then the panel evaluator at feet shifted
    /// by a lane's own displacement — carries the bits of `schur_solve` on a
    /// contiguous copy of the lane followed by `eval_lane`, and the verified
    /// instance's kept right-hand sides and their sums are the snapshot of
    /// the packed panel. Degrees 1–5, uniform, graded and clamped spaces,
    /// `Q` sizes on and off a tile boundary, lane counts that leave a
    /// partial block and runs of one to four blocks, on a host field, a
    /// batch's tiled transpose and a resident batch, through every
    /// instance this host has.
    #[test]
    fn tile_ingress_solve_then_eval_is_the_scalar_oracle_bitwise() {
        use crate::verified::VerifiedBuilder;
        use pp_portable::Strided;
        let mut spaces = Vec::new();
        let sizes: &[usize] = if cfg!(miri) { &[11] } else { &[11, 19, 26] };
        for degree in 1..=5 {
            for &n in sizes {
                for uniform in [true, false] {
                    let periodic = space(n, degree, uniform);
                    spaces.push(SplineSpace::clamped(periodic.breaks().clone(), degree).unwrap());
                    spaces.push(periodic);
                }
            }
        }
        let batches: &[usize] = if cfg!(miri) { &[9] } else { &[5, 8, 13, 33] };
        let isas = PanelIsa::ALL.into_iter().filter(|isa| isa.is_available());
        let isas: Vec<PanelIsa> = isas.collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for sp in &spaces {
            let builder = SplineBuilder::new(sp.clone(), BuilderVersion::FusedSpmv).unwrap();
            let (n, q) = (sp.num_basis(), builder.blocks().q_size());
            let points = sp.interpolation_points();
            let h = points[1] - points[0];
            for &batch in batches {
                let what = format!(
                    "degree {} n {n} q {q} periodic {} batch {batch}",
                    sp.degree(),
                    sp.is_periodic()
                );
                let rhs = random_rhs(n, batch, Layout::Left, (n * batch) as u64);
                let shift = |j: usize| [0.0, 0.37 * h, -2.5 * h, 3.0 * h, 1.1][j % 5];
                // The oracle, lane by lane.
                let want: Vec<Vec<u64>> = (0..batch)
                    .map(|j| {
                        let mut lane = rhs.col(j).to_vec();
                        schur_solve(
                            builder.blocks(),
                            true,
                            &mut StridedMut::from_slice(&mut lane),
                        );
                        let feet: Vec<f64> = points.iter().map(|x| x - shift(j)).collect();
                        let mut out = vec![0.0; n];
                        let (coefs, feet) =
                            (Strided::from_slice(&lane), Strided::from_slice(&feet));
                        sp.eval_lane(coefs, feet, StridedMut::from_slice(&mut out));
                        bits(&out)
                    })
                    .collect();
                let packed = ResidentBatch::pack(&rhs);
                for &isa in &isas {
                    let what = format!("{what} on {}", isa.name());
                    // A worker's turn: solve and evaluate its run's blocks,
                    // every other run through the verified instance, whose
                    // snapshot is checked on the way.
                    let turn = |first: usize, lanes: usize, run: Run<'_>| {
                        let eval = |s: SolvedBlock<'_>| {
                            let feet = |l: usize| (&points[..], shift(s.chunk * LANE_WIDTH + l));
                            match s.block {
                                None => sp.eval_panel(None, s.lanes, feet, s.x),
                                Some(block) => sp.eval_columns(s.x, feet, block),
                            }
                        };
                        let sweep = SplineBuilder::sweep_fused;
                        if first.is_multiple_of(2) {
                            builder.solve_run::<false>(isa, first, lanes, run, sweep, eval);
                            return;
                        }
                        builder.solve_run::<true>(isa, first, lanes, run, sweep, |s| {
                            let (rhs, sums) = s.kept.expect("the kept instance");
                            let mut copy = vec![0.0; rhs.len()];
                            let want = packed.chunk(s.chunk);
                            assert_eq!(bits(rhs), bits(want), "{what}: kept panel");
                            let snap = VerifiedBuilder::snapshot_on(isa, want, &mut copy);
                            assert_eq!(format!("{sums:?}"), format!("{snap:?}"), "{what}: sums");
                            eval(SolvedBlock { kept: None, ..s });
                        });
                    };
                    let mut host = Matrix::from_fn(batch, n, Layout::Right, |j, i| rhs.get(i, j));
                    HostField::new(&mut host).for_each_run_mut(&Parallel, ABREAST, turn);
                    let lanes = Matrix::from_fn(batch, n, Layout::Left, |j, i| rhs.get(i, j));
                    let mut tiled = ResidentBatch::pack(&lanes);
                    TiledField::new(&mut tiled).for_each_run_mut(&Serial, 2, turn);
                    let mut resident = packed.clone();
                    Field::for_each_run_mut(&mut resident, &Parallel, ABREAST, turn);
                    for j in 0..batch {
                        let host_lane: Vec<f64> = (0..n).map(|i| host.get(j, i)).collect();
                        let tiled_lane: Vec<f64> = (0..n).map(|i| tiled.get(j, i)).collect();
                        let resident_lane: Vec<f64> = (0..n).map(|i| resident.get(i, j)).collect();
                        assert_eq!(bits(&host_lane), want[j], "{what}: host lane {j}");
                        assert_eq!(bits(&tiled_lane), want[j], "{what}: tiled lane {j}");
                        assert_eq!(bits(&resident_lane), want[j], "{what}: resident lane {j}");
                    }
                }
            }
        }
    }

    /// Every version solves every Table I configuration, periodic and
    /// clamped, to 1e-10 of the dense reference, and the three versions
    /// agree with each other far below that: they perform the same
    /// arithmetic up to the COO truncation of the corners.
    #[test]
    fn all_versions_match_dense_reference_all_configs() {
        for degree in [3, 4, 5] {
            for uniform in [true, false] {
                let periodic = space(24, degree, uniform);
                let clamped = SplineSpace::clamped(periodic.breaks().clone(), degree).unwrap();
                for sp in [periodic, clamped] {
                    let nb = sp.num_basis();
                    let a = assemble_interpolation_matrix(&sp);
                    let rhs = random_rhs(nb, 7, Layout::Left, 42);
                    let what = format!("deg {degree} uniform {uniform} n {nb}");
                    let mut results = Vec::new();
                    for version in BuilderVersion::ALL {
                        let builder = SplineBuilder::new(sp.clone(), version).unwrap();
                        let mut x = rhs.clone();
                        builder.solve_in_place(&Parallel, &mut x).unwrap();
                        for j in 0..7 {
                            let expected = naive::solve_dense(&a, &rhs.col(j).to_vec()).unwrap();
                            let got = x.col(j).to_vec();
                            for (u, v) in got.iter().zip(&expected) {
                                assert!((u - v).abs() < 1e-10, "{what} {version:?} lane {j}");
                            }
                        }
                        results.push(x);
                    }
                    assert!(results[0].max_abs_diff(&results[1]) < 1e-13, "{what}");
                    assert!(results[1].max_abs_diff(&results[2]) < 1e-12, "{what}");
                }
            }
        }
    }

    #[test]
    fn interpolation_round_trip() {
        // Solve, then evaluating at interpolation points recovers inputs.
        let periodic = space(40, 5, true);
        let clamped = SplineSpace::clamped(Breaks::uniform(32, 0.0, 1.0).unwrap(), 3).unwrap();
        for sp in [periodic, clamped] {
            let pts = sp.interpolation_points();
            let builder = SplineBuilder::new(sp.clone(), BuilderVersion::FusedSpmv).unwrap();
            let mut b = Matrix::from_fn(pts.len(), 3, Layout::Left, |i, j| {
                ((j + 1) as f64 * std::f64::consts::TAU * pts[i]).sin()
            });
            let orig = b.clone();
            builder.solve_in_place(&Parallel, &mut b).unwrap();
            for j in 0..3 {
                let coefs = b.col(j).to_vec();
                for (k, &x) in pts.iter().enumerate() {
                    assert!(
                        (sp.eval(&coefs, x) - orig.get(k, j)).abs() < 1e-11,
                        "lane {j} point {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn wrong_shape_rejected() {
        let periodic = space(16, 3, true);
        let clamped = SplineSpace::clamped(periodic.breaks().clone(), 3).unwrap();
        for (sp, rows) in [(periodic, 17), (clamped, 16)] {
            let builder = SplineBuilder::new(sp, BuilderVersion::Baseline).unwrap();
            let mut b = Matrix::zeros(rows, 4, Layout::Left);
            assert!(matches!(
                builder.solve_in_place(&Serial, &mut b),
                Err(Error::ShapeMismatch { .. })
            ));
        }
    }

    #[test]
    fn with_version_switches_without_refactor() {
        let sp = space(16, 3, true);
        let builder = SplineBuilder::new(sp, BuilderVersion::Baseline)
            .unwrap()
            .with_version(BuilderVersion::FusedSpmv);
        assert_eq!(builder.version(), BuilderVersion::FusedSpmv);
        let mut b = Matrix::zeros(16, 2, Layout::Left);
        b.fill(1.0);
        builder.solve_in_place(&Serial, &mut b).unwrap();
        // Rows of A sum to 1 => solution of A x = 1 is x = 1.
        for i in 0..16 {
            assert!((b.get(i, 0) - 1.0).abs() < 1e-12);
        }
    }
}
