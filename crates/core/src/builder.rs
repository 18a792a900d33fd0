//! The batched spline builder: Algorithm 1 in three optimisation stages.

use crate::blocks::SchurBlocks;
use crate::error::{Error, Result};
use pp_bsplines::SplineSpace;
use pp_linalg::{LaneRows, Panel};
use pp_portable::LANE_WIDTH;
use pp_portable::{deinterleave_columns, PanelIsa};
use pp_portable::{fill_panel, run_blocks, ExecSpace, Field, Lines};
use pp_portable::{Matrix, ResidentBatch};
use pp_sparse::Coo;
use std::cell::RefCell;

/// Which implementation of the build kernel to run — the paper's
/// `DDC_SPLINES_VERSION` 0 / 1 / 2, as two axes over one pipeline:
/// Algorithm 1 **split** into one parallel region per step or **fused**
/// into one, and the corner corrections as **dense** `gemv` blocks or
/// **COO** `spmv` entries. The axes hold on every layout: on the strided
/// lanes of a [`Matrix`] ([`SplineBuilder::solve_in_place`]) and on the
/// panels of a [`ResidentBatch`] ([`SplineBuilder::solve_resident`]) a
/// lane's result is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuilderVersion {
    /// Split, dense corners (paper Listing 2): `Q`-solve batch, corner
    /// correction, `getrs` batch, corner correction — four regions.
    Baseline,
    /// Fused, dense `gemv` corners (Listing 4).
    Fused,
    /// Fused, sparse COO corners (Listing 6) — the fastest version in the
    /// paper's Table III.
    FusedSpmv,
    /// **Beyond-paper**: [`BuilderVersion::FusedSpmv`] on an
    /// interleaved-SoA batch layout — lanes packed in chunks of
    /// [`pp_portable::LANE_WIDTH`] so every recurrence step is one
    /// contiguous `[f64; 8]` vector operation. It differs from
    /// `FusedSpmv` only in what [`SplineBuilder::solve_in_place`] does
    /// with a [`Matrix`] argument: pack it, sweep the panels, unpack it.
    Interleaved,
}

impl BuilderVersion {
    /// All versions: the paper's three in Table III order, then the
    /// beyond-paper lane-interleaved variant.
    pub const ALL: [BuilderVersion; 4] = [
        BuilderVersion::Baseline,
        BuilderVersion::Fused,
        BuilderVersion::FusedSpmv,
        BuilderVersion::Interleaved,
    ];

    /// Label as the paper's Table III names it (the lane-interleaved
    /// variant is ours, so it gets its own name).
    pub fn label(self) -> &'static str {
        match self {
            BuilderVersion::Baseline => "Original",
            BuilderVersion::Fused => "Kernel fusion",
            BuilderVersion::FusedSpmv => "gemv->spmv",
            BuilderVersion::Interleaved => "Lane interleave",
        }
    }

    /// The corner axis: COO `spmv` entries (`true`) or dense `gemv`
    /// blocks.
    pub(crate) fn sparse_corners(self) -> bool {
        matches!(
            self,
            BuilderVersion::FusedSpmv | BuilderVersion::Interleaved
        )
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
    /// Parallelises over the batch (column) dimension through `exec`. The
    /// paper's three versions sweep `b`'s strided lanes where they lie —
    /// the Table III ablation, and the reference every panel result is
    /// compared against. [`BuilderVersion::Interleaved`] packs `b` into
    /// panels (an explicit transpose recorded under the `transpose`
    /// phase), runs [`SplineBuilder::solve_resident`]'s sweep, and
    /// unpacks into `b`'s own layout.
    pub fn solve_in_place<E: ExecSpace>(&self, exec: &E, b: &mut Matrix) -> Result<()> {
        self.check_rows(b.nrows())?;
        let blocks = &self.blocks;
        let sparse = self.version.sparse_corners();
        match self.version {
            // Four separate parallel regions, four passes over `b` — the
            // temporal-locality problem §IV-B profiles.
            BuilderVersion::Baseline => {
                for step in ALGORITHM_1 {
                    exec.for_each_lane_mut(b, |_, mut lane| step.apply(blocks, sparse, &mut lane));
                }
            }
            // One parallel region doing the whole of Algorithm 1 per lane
            // (Listing 4), with dense or sparse (Listing 6) corners.
            BuilderVersion::Fused | BuilderVersion::FusedSpmv => {
                exec.for_each_lane_mut(b, |_, mut lane| schur_solve(blocks, sparse, &mut lane));
            }
            BuilderVersion::Interleaved => {
                let mut packed = ResidentBatch::pack_with(exec, b);
                self.solve_panels(exec, &mut packed);
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
    /// Every lane is bit-identical to [`SplineBuilder::solve_in_place`]
    /// on the equivalent host matrix, for every [`BuilderVersion`]: the
    /// version's two axes (split or fused, dense or COO corners) select
    /// the same sequence over the same sweeps, instantiated for panels
    /// (the partial final chunk included), and pack/unpack are pure
    /// copies.
    pub fn solve_resident<E: ExecSpace>(&self, exec: &E, b: &mut ResidentBatch) -> Result<()> {
        self.check_rows(b.nrows())?;
        self.solve_panels(exec, b);
        Ok(())
    }

    /// **Fused entry point**: solve the field `b` block by block — the
    /// panels of a [`ResidentBatch`], or eight lanes at a time of a
    /// lane-contiguous host matrix ([`pp_portable::HostField`]) or of a
    /// batch's transpose ([`pp_portable::TiledField`]) — and hand each
    /// block's coefficients, still in cache, to `then(chunk, lanes, solved)`,
    /// which overwrites the block, the part of `b` the right-hand sides came
    /// from (`lanes` live lanes, laid out as [`Field::PANELS`] says), with
    /// whatever it makes of them (the advection step evaluates them at the
    /// characteristic feet). One parallel region, a worker's turn being a
    /// run of up to four blocks solved side by side. A block that is a panel
    /// is solved where it lies and handed over as [`Solved::InPlace`];
    /// any other is gathered into a panel in a per-worker scratch, from a
    /// cache line on, solved there and handed over as [`Solved::Apart`] —
    /// never a second batch.
    ///
    /// The region runs the fused Algorithm 1 with this version's corner
    /// axis, so the coefficients are the bits [`SplineBuilder::solve_resident`]
    /// would leave in `b` — for [`BuilderVersion::Baseline`] too, whose
    /// four regions are an ablation of the solve alone. `then` must not
    /// call back into a fused entry point on the same thread (the scratch
    /// is lent to it).
    pub fn solve_then<E, B, F>(&self, exec: &E, b: &mut B, then: F) -> Result<()>
    where
        E: ExecSpace,
        B: Field,
        F: Fn(usize, usize, Solved<'_>) + Sync + Send,
    {
        self.check_rows(b.shape().0)?;
        b.for_each_run_mut(exec, ABREAST, |first, lanes, run| {
            self.solve_run::<B>(first, lanes, run, false, |chunk, lanes, x, block, _| {
                then(chunk, lanes, Solved::new(x, block));
            });
        });
        Ok(())
    }

    /// One worker's turn of every fused entry point: take apart the `run`
    /// [`Field::for_each_run_mut`] handed out (`lanes` live lanes from block
    /// `first` on) into the panels to solve — the run itself on a field of
    /// panels, else a scratch panel gathered from each block
    /// ([`pp_portable::fill_panel`]) — solve those abreast, then hand each
    /// block to `each(chunk, lanes, x, block, kept)`: `x` is its solved
    /// panel, `block` the block itself when that is not `x`. With `keep`,
    /// `kept` is the panel's right-hand sides, copied into the second
    /// scratch set before the solve, for a caller that screens the solve
    /// against them — else empty.
    pub(crate) fn solve_run<B: Field>(
        &self,
        first: usize,
        lanes: usize,
        run: &mut [f64],
        keep: bool,
        mut each: impl FnMut(usize, usize, &mut [f64], Option<&mut [f64]>, &[f64]),
    ) {
        let n = self.space.num_basis();
        let panel = n * LANE_WIDTH;
        PANEL_SCRATCH.with_borrow_mut(|[scratch, kept]| {
            let (panels, mut apart) = if B::PANELS {
                (run, None)
            } else {
                let panels = scratch.at_least(lanes.div_ceil(LANE_WIDTH) * panel);
                let blocks = panels
                    .chunks_exact_mut(panel)
                    .zip(run_blocks(run, n, lanes));
                for (panel, (block_lanes, block)) in blocks {
                    fill_panel(block, block_lanes, panel);
                }
                (panels, Some(run_blocks(run, n, lanes)))
            };
            let kept = keep.then(|| {
                let kept = kept.at_least(panels.len());
                kept.copy_from_slice(panels);
                &*kept
            });
            self.solve_panels_on(PanelIsa::detected(), panels);
            for (p, x) in panels.chunks_exact_mut(panel).enumerate() {
                let live = LANE_WIDTH.min(lanes - p * LANE_WIDTH);
                let block = apart
                    .as_mut()
                    .and_then(Iterator::next)
                    .map(|(_, block)| block);
                let kept = kept.map_or(&[][..], |kept| &kept[p * panel..][..panel]);
                each(first + p, live, x, block, kept);
            }
        });
    }

    /// The fused Algorithm 1 on each of the `[nrows][LANE_WIDTH]` panels that
    /// `panels` holds back to back, in the instance compiled for `isa`: four
    /// abreast while four are left, then two, then one. A panel's bits
    /// depend neither on its company (`[Panel; P]` is a regrouping) nor on
    /// the instance (rustc never contracts `a·b + c`). Named instances are
    /// for the differential test and the bench rows; the fused entry points
    /// run [`PanelIsa::detected`].
    ///
    /// # Panics
    /// Panics if the host lacks `isa`, or `panels` is not whole panels.
    #[doc(hidden)]
    pub fn solve_panels_on(&self, isa: PanelIsa, panels: &mut [f64]) {
        let panel = self.space.num_basis() * LANE_WIDTH;
        assert!(
            panels.len().is_multiple_of(panel),
            "solve_panels_on: whole panels"
        );
        isa.run(
            #[inline(always)]
            || {
                let rest = self.solve_groups::<ABREAST>(panels);
                let rest = self.solve_groups::<2>(rest);
                self.solve_groups::<1>(rest);
            },
        );
    }

    /// [`schur_solve`] on the panels back to back in `panels`, `P` abreast;
    /// returns the fewer than `P` left over.
    #[inline(always)]
    fn solve_groups<'a, const P: usize>(&self, panels: &'a mut [f64]) -> &'a mut [f64] {
        let n = self.space.num_basis();
        let mut groups = panels.chunks_exact_mut(P * n * LANE_WIDTH);
        for group in &mut groups {
            let mut group = group.chunks_exact_mut(n * LANE_WIDTH);
            let mut rows: [Panel; P] =
                std::array::from_fn(|_| Panel::new(group.next().expect("P panels to a group"), n));
            schur_solve(&self.blocks, self.version.sparse_corners(), &mut rows);
        }
        groups.into_remainder()
    }

    /// Algorithm 1 on every chunk of a packed batch: one chunk-parallel
    /// region per step for the split version, one fused region otherwise.
    fn solve_panels<E: ExecSpace>(&self, exec: &E, ib: &mut ResidentBatch) {
        let n = self.space.num_basis();
        let blocks = &self.blocks;
        let sparse = self.version.sparse_corners();
        if self.version == BuilderVersion::Baseline {
            for step in ALGORITHM_1 {
                ib.for_each_chunk_mut(exec, |_, _, chunk| {
                    step.apply(blocks, sparse, &mut Panel::new(chunk, n));
                });
            }
        } else {
            ib.for_each_chunk_mut(exec, |_, _, chunk| {
                schur_solve(blocks, sparse, &mut Panel::new(chunk, n));
            });
        }
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

/// Algorithm 1, in order. The fused versions run it inside one parallel
/// region; the baseline runs one region per step.
const ALGORITHM_1: [Step; 4] = [
    Step::QSolve,
    Step::LambdaCorner,
    Step::BorderSolve,
    Step::BetaCorner,
];

impl Step {
    #[inline(always)]
    fn apply<R: LaneRows>(self, blocks: &SchurBlocks, sparse: bool, rows: &mut R) {
        let q = blocks.q_size();
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

/// The fused kernel: all of Algorithm 1 on one right-hand side — a
/// strided lane of `n` rows, or a panel of [`pp_portable::LANE_WIDTH`]
/// of them, or several such panels abreast — with sparse (`spmv`) or dense
/// (`gemv`) corners.
#[inline(always)]
pub(crate) fn schur_solve<R: LaneRows>(blocks: &SchurBlocks, sparse: bool, rows: &mut R) {
    for step in ALGORITHM_1 {
        step.apply(blocks, sparse, rows);
    }
}

/// Panels a worker's turn of a fused entry point solves side by side: a
/// sweep is a chain of dependent row operations, and four interleaved keep
/// the vector unit busy where one waits on itself. Chosen by measurement
/// (EXPERIMENTS.md, PR 24: 2 against 4), not a setting.
pub(crate) const ABREAST: usize = 4;

/// Where a fused entry point's continuation finds a block's coefficients
/// ([`SplineBuilder::solve_then`]): in the block, or in a panel apart from
/// it — never both, so there is one `&mut` to the block.
pub enum Solved<'a> {
    /// The block is an interleaved `[nrows][LANE_WIDTH]` panel (a field
    /// whose [`Field::PANELS`] holds) and holds the coefficients; the
    /// continuation overwrites them with its results.
    InPlace(&'a mut [f64]),
    /// The coefficients are the interleaved panel `coefs`, in a worker's
    /// scratch or a coefficient store; the continuation overwrites `block`,
    /// the block's live lanes as contiguous columns.
    Apart {
        /// The block's coefficients, `[nrows][LANE_WIDTH]`.
        coefs: &'a [f64],
        /// Where the results go.
        block: &'a mut [f64],
    },
}

impl<'a> Solved<'a> {
    /// The solved panel `x`, which is the block itself unless `block` is
    /// given.
    pub(crate) fn new(x: &'a mut [f64], block: Option<&'a mut [f64]>) -> Self {
        match block {
            None => Solved::InPlace(x),
            Some(block) => Solved::Apart { coefs: x, block },
        }
    }

    /// Leave the coefficients in the block: a panel holds them already, a
    /// block apart gets them as its live lanes' contiguous columns.
    pub(crate) fn store(self) {
        if let Solved::Apart { coefs, block } = self {
            let rows = coefs.len() / LANE_WIDTH;
            let lanes = block.len().checked_div(rows).unwrap_or(0);
            deinterleave_columns(PanelIsa::detected(), coefs, lanes, rows, block);
        }
    }
}

thread_local! {
    /// This worker's scratch for the fused entry points: two sets of up to
    /// [`ABREAST`] panels back to back, each from a cache line on, reused
    /// for every run of every step. The first set holds a run of blocks that
    /// are not panels as panels — gathered at the top of the worker's turn,
    /// solved there, lent to the continuation; a field of panels is solved
    /// where it lies and never touches it. The second is touched only by the
    /// verified step, which needs the right-hand sides beside the
    /// coefficients.
    static PANEL_SCRATCH: RefCell<[Lines; 2]> =
        const { RefCell::new([const { Lines::new() }; 2]) };
}

/// Lengths of this thread's two sets of panel scratch, for the structure
/// tests.
#[cfg(test)]
pub(crate) fn panel_scratch_len() -> [usize; 2] {
    PANEL_SCRATCH.with_borrow(|sets| sets.each_ref().map(|set| set.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_bsplines::{assemble_interpolation_matrix, Breaks};
    use pp_linalg::naive;
    use pp_portable::TestRng;
    use pp_portable::{Layout, Parallel, Serial};

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
                    }
                }
            }
        }
    }

    #[test]
    fn versions_agree_with_each_other_tightly() {
        // The three versions perform the same arithmetic up to the COO
        // truncation; results must agree far below solver tolerance.
        let sp = space(64, 3, true);
        let rhs = random_rhs(64, 50, Layout::Left, 7);
        let mut results = Vec::new();
        for version in BuilderVersion::ALL {
            let builder = SplineBuilder::new(sp.clone(), version).unwrap();
            let mut x = rhs.clone();
            builder.solve_in_place(&Parallel, &mut x).unwrap();
            results.push(x);
        }
        assert!(results[0].max_abs_diff(&results[1]) < 1e-13);
        assert!(results[1].max_abs_diff(&results[2]) < 1e-12);
        // The interleaved variant is the fused+spmv sequence instantiated
        // for panels: same operations per lane, same bits.
        assert_eq!(results[2].max_abs_diff(&results[3]), 0.0);
    }

    #[test]
    fn serial_and_parallel_agree_bitwise() {
        let sp = space(32, 4, true);
        let rhs = random_rhs(32, 33, Layout::Left, 3);
        for version in BuilderVersion::ALL {
            let builder = SplineBuilder::new(sp.clone(), version).unwrap();
            let mut a = rhs.clone();
            let mut b = rhs.clone();
            builder.solve_in_place(&Serial, &mut a).unwrap();
            builder.solve_in_place(&Parallel, &mut b).unwrap();
            assert_eq!(a.max_abs_diff(&b), 0.0, "{version:?}");
        }
    }

    #[test]
    fn both_layouts_supported() {
        let sp = space(20, 3, false);
        let builder = SplineBuilder::new(sp, BuilderVersion::Fused).unwrap();
        let rhs_l = random_rhs(20, 9, Layout::Left, 5);
        let rhs_r = rhs_l.to_layout(Layout::Right);
        let mut xl = rhs_l.clone();
        let mut xr = rhs_r.clone();
        builder.solve_in_place(&Parallel, &mut xl).unwrap();
        builder.solve_in_place(&Parallel, &mut xr).unwrap();
        assert!(xl.max_abs_diff(&xr) < 1e-14);
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

    #[test]
    fn empty_batch_is_ok() {
        let sp = space(16, 3, true);
        let builder = SplineBuilder::new(sp, BuilderVersion::FusedSpmv).unwrap();
        let mut b = Matrix::zeros(16, 0, Layout::Left);
        builder.solve_in_place(&Parallel, &mut b).unwrap();
    }
}
