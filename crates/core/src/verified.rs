//! Verified solves for the direct path: per-lane residual sampling,
//! quarantine, iterative refinement, and a factorization fallback ladder.
//!
//! The direct Schur path is backward stable in exact-structure cases, but
//! an exa-scale run feeds it meshes and right-hand sides it cannot veto:
//! near-duplicate knots degrade the interior conditioning, and upstream
//! physics can inject NaN/Inf into a handful of batch lanes. A
//! [`VerifiedBuilder`] wraps [`SplineBuilder`]'s fused panel kernel so that
//! one poisoned lane never poisons the batch:
//!
//! 1. **Screen** — after the ordinary batched solve, the relative residual
//!    `‖b − Ax‖₂ / ‖b‖₂` of every lane is measured against the original
//!    assembled matrix (and, with [`VerifyConfig::abft`], the checksum
//!    identity `(Aᵀ𝟙)·x = Σb`, a tripped lane re-solved once).
//! 2. **Refine** — lanes above tolerance get `*rfs`-style iterative
//!    refinement ([`pp_linalg::refine_lane`]) with the primary factors.
//! 3. **Escalate** — lanes still failing climb the Table I rungs above the
//!    primary factorization, `pbtrs → gbtrs`, then dense `getrs`
//!    ([`FallbackRung`]), re-solving the original right-hand side with
//!    progressively more general (and more expensive) factorizations.
//! 4. **Quarantine** — lanes with non-finite input, or that defeat the
//!    whole ladder, are zeroed and reported in the [`LaneReport`] instead
//!    of carrying NaN into downstream stages.
//!
//! This is the workspace's one repair path: the Krylov backend
//! ([`crate::IterativeSplineSolver`]) reports a lane that does not converge
//! and retries nothing. Healthy lanes are **bit-identical** to the
//! unverified path: the batched kernel runs first and verification never
//! rewrites a lane that passes.

use std::fmt;
use std::sync::OnceLock;

use crate::blocks::{QClass, SchurBlocks};
use crate::builder::{lane_steps, BuilderVersion, Solved, SolvedBlock, SplineBuilder, ABREAST};
use crate::error::Result;
use pp_bsplines::{assemble_interpolation_matrix, Breaks, SplineSpace};
use pp_iterative::solver::{norm2, residual_into};
use pp_linalg::{getrf, refine_lane, LuFactors, RefineConfig};
use pp_portable::{run_scalar, Lanes, PanelIsa};
use pp_portable::{
    ExecSpace, Field, HostField, Layout, Matrix, Parallel, ResidentBatch, StridedMut, TestRng,
    LANE_WIDTH,
};
use pp_sparse::Csr;

/// Relative tolerance of the ABFT screen. The discrepancy of a correct
/// solve is rounding error on two length-`n` dot products, O(n·ε) relative
/// to the scale `‖colsum‖₂‖x‖₂ + |Σb|`; `1e-8` leaves ~7 decimal orders of
/// headroom below the smallest single-bit mantissa upset that matters (bit
/// ~25 of the significand) and never trips on honest arithmetic at the
/// orders this workspace batches (n ≲ 10⁴).
const DEFAULT_ABFT_TOL: f64 = 1e-8;

/// A lane is accepted when its relative residual `‖b − Ax‖₂/‖b‖₂` is at
/// or below this.
const RESIDUAL_TOL: f64 = 1e-10;

/// Tuning knobs for [`VerifiedBuilder`].
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Refinement loop settings for lanes that fail the residual check.
    pub refine: RefineConfig,
    /// Escalate lanes that refinement did not fix up the factorization
    /// ladder ([`FallbackRung`]), whose last rung is dense `getrs`. With
    /// `false`, such a lane goes straight to quarantine, so refinement with
    /// the primary factors is its only repair.
    pub use_ladder: bool,
    /// Fault-injection hook: these lanes skip the fast residual accept and
    /// the refinement stage, going straight to the ladder. The batched
    /// direct path is backward stable, so exercising the ladder in tests
    /// (and in production burn-in) needs a deterministic trigger.
    pub probe_lanes: Vec<usize>,
    /// ABFT checksum screen over every lane: after the batched solve, each
    /// lane is checked against the factor-time column-sum identity
    /// `(Aᵀ𝟙)·x = Σb` in O(n). A tripped lane is retried once from its
    /// pristine right-hand side, then escalated through
    /// refinement/ladder/quarantine like any failing lane. Off by
    /// default; a caller that wants the screen sets it.
    pub abft: bool,
    /// Fault-injection hook: flip a significant bit in these lanes'
    /// freshly solved coefficients before the ABFT screen runs — the
    /// deterministic silent-data-corruption trigger. Strikes once per
    /// lane per solve; with [`VerifyConfig::sdc_probe_persistent`] it
    /// also re-strikes the ABFT retry, modelling corruption the retry
    /// cannot shake off.
    pub sdc_probe_lanes: Vec<usize>,
    /// Make [`VerifyConfig::sdc_probe_lanes`] corrupt the ABFT retry
    /// too (persistent corruption instead of a transient upset).
    pub sdc_probe_persistent: bool,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            refine: RefineConfig::default(),
            use_ladder: true,
            probe_lanes: Vec::new(),
            abft: false,
            sdc_probe_lanes: Vec::new(),
            sdc_probe_persistent: false,
        }
    }
}

/// Why a lane was quarantined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuarantineReason {
    /// The right-hand side held a NaN/Inf before any solve ran.
    NonFiniteInput {
        /// Position of the first offending value within the lane.
        index: usize,
    },
    /// Every ladder rung produced a non-finite solution.
    NonFiniteSolution,
    /// The best residual over all rungs still exceeded the tolerance.
    ResidualAboveTol {
        /// That best (smallest) relative residual.
        residual: f64,
    },
    /// The ABFT checksum screen caught silent data corruption in this
    /// lane, the single retry still tripped, and refinement and the
    /// recovery ladder failed, or were disabled. The lane's (corrupted)
    /// solution must not survive unverified, so it is zeroed.
    SdcDetected {
        /// Relative checksum discrepancy of the retried solve.
        discrepancy: f64,
    },
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineReason::NonFiniteInput { index } => {
                write!(f, "non-finite input at index {index}")
            }
            QuarantineReason::NonFiniteSolution => write!(f, "non-finite solution on every rung"),
            QuarantineReason::ResidualAboveTol { residual } => {
                write!(f, "best residual {residual:.3e} above tolerance")
            }
            QuarantineReason::SdcDetected { discrepancy } => {
                write!(
                    f,
                    "silent data corruption (checksum discrepancy {discrepancy:.3e}), unrecovered"
                )
            }
        }
    }
}

/// A rung of the fallback ladder, the workspace's one repair path, ordered
/// least to most general: the Table I interior solvers `pbtrs` and `gbtrs`,
/// then dense `getrs`. The ladder starts at the rung *above* the primary
/// factorization's class, so e.g. a `pbtrs` primary escalates straight to
/// `gbtrs`; a lane no rung recovers is quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackRung {
    /// Re-factor the interior as positive-definite banded Cholesky.
    Pbtrs,
    /// Re-factor the interior as general banded LU.
    Gbtrs,
    /// Dense partial-pivoting LU of the *whole* matrix — no Schur split,
    /// no structure assumptions. The last rung: a lane it cannot recover
    /// is quarantined.
    Getrs,
}

impl FallbackRung {
    /// The routine name, matching the paper's Table I vocabulary.
    pub fn routine(self) -> &'static str {
        match self {
            FallbackRung::Pbtrs => "pbtrs",
            FallbackRung::Gbtrs => "gbtrs",
            FallbackRung::Getrs => "getrs",
        }
    }
}

impl fmt::Display for FallbackRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.routine())
    }
}

/// What verification concluded about one batch lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LaneVerdict {
    /// The primary solve passed the residual check unchanged.
    Verified {
        /// Measured relative residual.
        residual: f64,
    },
    /// Iterative refinement with the primary factors fixed the lane.
    Refined {
        /// Correction steps applied.
        steps: usize,
        /// Relative residual after refinement.
        residual: f64,
    },
    /// A ladder rung recovered the lane from the original right-hand side.
    Recovered {
        /// The rung that succeeded.
        rung: FallbackRung,
        /// Relative residual of the recovered solution.
        residual: f64,
    },
    /// The ABFT checksum screen caught silent data corruption and one
    /// retry from the pristine right-hand side produced a clean,
    /// residual-verified solution.
    SdcCorrected {
        /// Relative checksum discrepancy of the corrupted first solve.
        discrepancy: f64,
        /// Relative residual of the retried (accepted) solution.
        residual: f64,
    },
    /// The lane was zeroed and flagged; see the reason.
    Quarantined {
        /// Why recovery was impossible.
        reason: QuarantineReason,
    },
}

impl LaneVerdict {
    /// `true` unless the lane was quarantined.
    pub fn is_healthy(&self) -> bool {
        !matches!(self, LaneVerdict::Quarantined { .. })
    }
}

impl fmt::Display for LaneVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaneVerdict::Verified { residual } => write!(f, "verified (residual {residual:.3e})"),
            LaneVerdict::Refined { steps, residual } => {
                write!(f, "refined in {steps} step(s) (residual {residual:.3e})")
            }
            LaneVerdict::Recovered { rung, residual } => {
                write!(f, "recovered via {rung} (residual {residual:.3e})")
            }
            LaneVerdict::SdcCorrected {
                discrepancy,
                residual,
            } => write!(
                f,
                "sdc corrected on retry (discrepancy {discrepancy:.3e}, residual {residual:.3e})"
            ),
            LaneVerdict::Quarantined { reason } => write!(f, "quarantined: {reason}"),
        }
    }
}

/// Per-lane verdicts for one verified batched solve.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneReport {
    verdicts: Vec<LaneVerdict>,
}

impl LaneReport {
    /// Verdict for one lane.
    pub fn verdict(&self, lane: usize) -> &LaneVerdict {
        &self.verdicts[lane]
    }

    /// All verdicts, one per batch lane.
    pub fn verdicts(&self) -> &[LaneVerdict] {
        &self.verdicts
    }

    /// Number of lanes in the batch.
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }

    /// Lanes that were quarantined (zeroed and flagged).
    pub fn quarantined_lanes(&self) -> Vec<usize> {
        self.lanes_where(|v| matches!(v, LaneVerdict::Quarantined { .. }))
    }

    /// Lanes rescued by a ladder rung.
    pub fn recovered_lanes(&self) -> Vec<usize> {
        self.lanes_where(|v| matches!(v, LaneVerdict::Recovered { .. }))
    }

    /// Lanes fixed by iterative refinement alone.
    pub fn refined_lanes(&self) -> Vec<usize> {
        self.lanes_where(|v| matches!(v, LaneVerdict::Refined { .. }))
    }

    /// Lanes where the ABFT screen caught corruption and the retry healed
    /// it.
    pub fn sdc_corrected_lanes(&self) -> Vec<usize> {
        self.lanes_where(|v| matches!(v, LaneVerdict::SdcCorrected { .. }))
    }

    /// `true` when every lane passed on the first try.
    pub fn all_verified(&self) -> bool {
        self.verdicts
            .iter()
            .all(|v| matches!(v, LaneVerdict::Verified { .. }))
    }

    /// Worst relative residual over all non-quarantined lanes.
    pub fn worst_residual(&self) -> f64 {
        self.verdicts
            .iter()
            .filter_map(|v| match v {
                LaneVerdict::Verified { residual }
                | LaneVerdict::Refined { residual, .. }
                | LaneVerdict::Recovered { residual, .. }
                | LaneVerdict::SdcCorrected { residual, .. } => Some(*residual),
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    /// Total refinement steps spent across the batch.
    pub fn total_refine_steps(&self) -> usize {
        self.verdicts
            .iter()
            .map(|v| match v {
                LaneVerdict::Refined { steps, .. } => *steps,
                _ => 0,
            })
            .sum()
    }

    fn lanes_where(&self, pred: impl Fn(&LaneVerdict) -> bool) -> Vec<usize> {
        self.verdicts
            .iter()
            .enumerate()
            .filter(|(_, v)| pred(v))
            .map(|(i, _)| i)
            .collect()
    }
}

impl fmt::Display for LaneReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} lane(s): {} refined, {} recovered, {} sdc corrected, {} quarantined, \
             worst residual {:.3e}",
            self.len(),
            self.refined_lanes().len(),
            self.recovered_lanes().len(),
            self.sdc_corrected_lanes().len(),
            self.quarantined_lanes().len(),
            self.worst_residual()
        )
    }
}

/// A [`SplineBuilder`] wrapped with residual verification, refinement,
/// quarantine, and the factorization fallback ladder.
///
/// Built with [`SplineBuilder::verified`]. Fallback factorizations are
/// constructed lazily, the first time a lane actually needs that rung, and
/// cached for the lifetime of the builder.
pub struct VerifiedBuilder {
    builder: SplineBuilder,
    /// The assembled interpolation matrix, for residuals and refinement.
    matrix: Csr,
    /// The runs of `matrix`'s rows that the screen takes as a band.
    bands: BandRuns,
    /// `‖A‖∞`, needed by the backward-error formula in refinement.
    anorm_inf: f64,
    /// ABFT checksum vector `Aᵀ𝟙` (column sums), pinned at build time so
    /// later factor corruption cannot retroactively blind the screen. The
    /// identity `colsum·x = 𝟙ᵀAx = Σb` holds for every correct lane.
    colsum: Vec<f64>,
    /// `‖colsum‖₂`, for the relative trip threshold.
    colsum_norm: f64,
    config: VerifyConfig,
    pb_rung: OnceLock<Option<SchurBlocks>>,
    gb_rung: OnceLock<Option<SchurBlocks>>,
    dense_rung: OnceLock<Option<LuFactors>>,
}

impl SplineBuilder {
    /// Wrap this builder in per-lane verification (residual sampling,
    /// refinement, quarantine, fallback ladder). See [`VerifiedBuilder`].
    pub fn verified(self, config: VerifyConfig) -> VerifiedBuilder {
        let matrix = Csr::from_dense(&assemble_interpolation_matrix(self.space()), 0.0);
        // One row-major pass: a row's entries in ascending column order and
        // a column's in ascending row order, as the dense walks add them;
        // the zeros the CSR leaves out add nothing.
        let mut anorm_inf = 0.0_f64;
        let mut colsum = vec![0.0; matrix.ncols()];
        for i in 0..matrix.nrows() {
            let mut s = 0.0;
            for (j, v) in matrix.row(i) {
                s += v.abs();
                colsum[j] += v;
            }
            anorm_inf = anorm_inf.max(s);
        }
        let colsum_norm = norm2(&colsum);
        VerifiedBuilder {
            builder: self,
            bands: BandRuns::of(&matrix),
            matrix,
            anorm_inf,
            colsum,
            colsum_norm,
            config,
            pb_rung: OnceLock::new(),
            gb_rung: OnceLock::new(),
            dense_rung: OnceLock::new(),
        }
    }
}

impl VerifiedBuilder {
    /// The wrapped builder.
    pub fn builder(&self) -> &SplineBuilder {
        &self.builder
    }

    /// The verification settings.
    pub fn config(&self) -> &VerifyConfig {
        &self.config
    }

    /// Health of the primary interior factorization.
    pub fn q_health(&self) -> &pp_linalg::FactorHealth {
        self.builder.blocks().q_health()
    }

    /// Solve `A X = B` in place like [`SplineBuilder::solve_in_place`],
    /// then verify, refine, recover, or quarantine each lane. Lanes that
    /// pass the residual check keep the batched kernel's bits untouched.
    ///
    /// Quarantined lanes are **zeroed** so NaN/Inf cannot propagate into
    /// downstream stages; consult the returned [`LaneReport`] to find and
    /// re-source them.
    ///
    /// This is [`VerifiedBuilder::solve_resident`] with a pack in front
    /// and an unpack behind: same verdicts, same bits.
    pub fn solve_in_place<E: ExecSpace>(&self, exec: &E, b: &mut Matrix) -> Result<LaneReport> {
        let mut packed = ResidentBatch::pack_with(exec, b);
        let report = self.verify_panels(exec, &mut packed, None, &mut ResidentBatch::write_lane)?;
        packed.unpack_into_with(exec, b)?;
        Ok(report)
    }

    /// Solve and verify a batch that stays packed in its interleaved
    /// panels: one chunk-parallel region solves each panel and, while it
    /// is in cache, runs the ABFT screen, the residual pass and the input
    /// scan on it, with scalar lane extraction only for lanes that need
    /// repair (probed, tripped, or above tolerance) and for quarantine
    /// zeroing. Zero pack/unpack transposes on the healthy path. The
    /// region always runs the fused Algorithm 1, because the snapshot must
    /// precede its first step; with the wrapped version's corner axis a
    /// lane's bits are that version's, `Baseline`'s four regions included.
    ///
    /// Results — healthy lanes *and* verdict residuals — are those of
    /// [`VerifiedBuilder::solve_in_place`] on the equivalent host matrix,
    /// bit for bit, for every [`crate::BuilderVersion`] of the wrapped
    /// builder.
    pub fn solve_resident<E: ExecSpace>(
        &self,
        exec: &E,
        b: &mut ResidentBatch,
    ) -> Result<LaneReport> {
        self.verify_panels(exec, b, None, &mut ResidentBatch::write_lane)
    }

    /// **Fused entry point**: [`VerifiedBuilder::solve_resident`] on the
    /// field `b` — a [`ResidentBatch`], a lane-contiguous host matrix
    /// ([`pp_portable::HostField`]) or a batch's transpose
    /// ([`pp_portable::TiledField`]) — with the coefficients of every block
    /// handed, still in cache, to `then(chunk, lanes, solved)`, which
    /// overwrites the block — the part of `b` the right-hand sides came
    /// from — with whatever it makes of them, exactly as
    /// [`SplineBuilder::solve_then`]: a panel is solved where it lies, any
    /// other block in a per-worker scratch. The block's right-hand sides as
    /// a panel, copied into the worker's second scratch as the solve's
    /// forward sweep brings them in, are the pristine snapshot the screen
    /// compares against.
    ///
    /// A lane the serial tail repairs or quarantines has new coefficients
    /// after `then` has consumed the old ones: for each such lane the tail
    /// calls `then_lane(lane, coefs, out)` with the replacement (all zeros
    /// for a quarantined lane) and a lane-sized buffer, which then lands in
    /// that lane of `b` ([`Field::write_lane`]), so that `b` ends as if
    /// `then` had seen the final coefficients.
    ///
    /// Verdicts, residuals and coefficients are those of
    /// [`VerifiedBuilder::solve_resident`], bit for bit.
    pub fn solve_then<E, B, P, L>(
        &self,
        exec: &E,
        b: &mut B,
        then: P,
        mut then_lane: L,
    ) -> Result<LaneReport>
    where
        E: ExecSpace,
        B: Field,
        P: Fn(usize, usize, Solved<'_>) + Sync + Send,
        L: FnMut(usize, &[f64], &mut [f64]),
    {
        let mut out = Vec::new();
        let mut land = |b: &mut B, lane: usize, coefs: &[f64]| {
            out.resize(coefs.len(), 0.0);
            then_lane(lane, coefs, &mut out);
            b.write_lane(lane, &out);
        };
        self.verify_panels(exec, b, Some(&then), &mut land)
    }

    /// The one verify body: a single block-parallel region solves each run
    /// of blocks as panels abreast ([`SplineBuilder::solve_run`], the
    /// instance that keeps each panel's right-hand sides and takes their
    /// sums in the copy) and screens each ([`VerifiedBuilder::screen`]:
    /// the pass over the solved panel, band rows and CSR rows); the caller
    /// then turns the screens into verdicts serially, in lane order. Repairs
    /// all happen here, so they are the same under every execution space.
    ///
    /// Without `then` the coefficients stay in `b`, which must then be made
    /// of panels. With it, each block's coefficients go to `then` inside
    /// the region (see [`VerifiedBuilder::solve_then`]) and `b` holds what
    /// `then` wrote. Either way a lane whose coefficients the tail replaces
    /// is handed to `land(b, lane, coefs)`. A worker that dies mid-run may
    /// leave a block of panels holding coefficients rather than its old
    /// values (DESIGN.md §11).
    fn verify_panels<E: ExecSpace, B: Field>(
        &self,
        exec: &E,
        b: &mut B,
        then: Option<&PanelThen<'_>>,
        land: &mut dyn FnMut(&mut B, usize, &[f64]),
    ) -> Result<LaneReport> {
        let (nrows, ncols) = b.shape();
        self.builder.check_rows(nrows)?;
        let chunks = ncols.div_ceil(LANE_WIDTH);
        let screens: Vec<OnceLock<PanelScreen>> = (0..chunks).map(|_| OnceLock::new()).collect();
        // A worker's turn is the builder's: the run's blocks solved abreast,
        // where they lie when they are panels, else in its scratch. Each
        // block's pristine right-hand sides, kept beside it with their sums,
        // are what its solved panel is screened against while both are in
        // cache; then the coefficients go to `then`, which overwrites the
        // block, or stay where they were solved: in the block.
        b.for_each_run_mut(exec, ABREAST, |first, lanes, run| {
            let sweep = SplineBuilder::sweep_fused;
            let isa = PanelIsa::detected();
            self.builder
                .solve_run::<true>(isa, first, lanes, run, sweep, |solved| {
                    let SolvedBlock {
                        chunk,
                        lanes,
                        x,
                        block,
                        kept,
                    } = solved;
                    let kept = kept.expect("the verified run keeps its right-hand sides");
                    let screen = self.screen(chunk, lanes, x, kept);
                    match then {
                        Some(then) => then(chunk, lanes, Solved::new(x, block)),
                        None => assert!(block.is_none(), "an in-place verified solve needs panels"),
                    }
                    assert!(screens[chunk].set(screen).is_ok(), "panel visited twice");
                });
        });
        // A quarantined lane's coefficients; built only when one turns up.
        let zeros = || vec![0.0; nrows];

        let mut verdicts = Vec::with_capacity(ncols);
        for (chunk, screen) in screens.into_iter().enumerate() {
            let screen = screen.into_inner().expect("every panel is screened");
            let live = LANE_WIDTH.min(ncols - chunk * LANE_WIDTH);
            let lanes = screen.lanes.into_iter().zip(screen.sdc).take(live);
            for (l, (screened, sdc_state)) in lanes.enumerate() {
                let lane = chunk * LANE_WIDTH + l;
                let verdict = match screened.expect("a live lane is screened") {
                    Screened::NonFinite(index) => {
                        land(b, lane, &zeros());
                        let reason = QuarantineReason::NonFiniteInput { index };
                        LaneVerdict::Quarantined { reason }
                    }
                    // Healthy fast path: the lane's bits stay untouched.
                    Screened::Sealed(residual) => LaneVerdict::Verified { residual },
                    Screened::Flagged(flagged) => {
                        let (verdict, coefs) = self.repair_lane(flagged);
                        land(b, lane, &coefs.unwrap_or_else(zeros));
                        verdict
                    }
                };
                verdicts.push(fold_sdc_verdict(sdc_state, verdict));
            }
        }
        Ok(LaneReport { verdicts })
    }

    /// Screen the lanes of the solved panel `x` against their pristine
    /// right-hand sides `rhs`, whose own sums `kept` the snapshot took
    /// ([`keep_rows_on`]). One pass ([`screen_pass`])
    /// accumulates per lane the rest of the ABFT sums and the residual
    /// norm — the expressions of [`VerifiedBuilder::abft_check`] and
    /// [`VerifiedBuilder::relative_residual`] in their order, so the values
    /// are bit-identical to the scalar ones. A lane whose checksum
    /// trips is re-solved once from `rhs`: a transient upset does not
    /// recur, so a clean retry replaces the lane; a retry that trips again
    /// is persistent corruption, left for the caller to heal or
    /// quarantine. Neither panel outlives the worker's turn, so the lanes
    /// the caller will repair are copied out.
    fn screen(
        &self,
        chunk: usize,
        lanes: usize,
        x: &mut [f64],
        (rhs, kept): (&[f64], RhsSums),
    ) -> PanelScreen {
        const W: usize = LANE_WIDTH;
        let (n, cfg) = (self.colsum.len(), &self.config);
        let measure = |x: &[f64]| self.measure(self.screen_on(PanelIsa::detected(), x, rhs, &kept));
        // Deterministic fault injection first.
        let struck = |l: usize| cfg.abft && cfg.sdc_probe_lanes.contains(&(chunk * W + l));
        for l in (0..lanes).filter(|&l| struck(l)) {
            strike(x.iter_mut().skip(l).step_by(W));
        }
        let (disc, mut rr, finite) = measure(x);
        let mut sdc = [SdcState::Clean; W];
        for l in 0..lanes {
            // Poisoned input belongs to the quarantine scan, not to a
            // checksum trip.
            let tripped = !disc[l].is_finite() || disc[l] > DEFAULT_ABFT_TOL;
            if !(cfg.abft && finite[l] && tripped) {
                continue;
            }
            let b_lane = lane_of(rhs, l);
            let mut y = b_lane.clone();
            self.primary_solve(&mut y);
            if cfg.sdc_probe_persistent && struck(l) {
                strike(y.iter_mut());
            }
            let (retripped, discrepancy) = self.abft_check(&y, &b_lane);
            sdc[l] = if retripped {
                SdcState::Tripped { discrepancy }
            } else {
                for (x, y) in x.iter_mut().skip(l).step_by(W).zip(&y) {
                    *x = *y;
                }
                let discrepancy = disc[l];
                SdcState::Corrected { discrepancy }
            };
        }
        if sdc.iter().any(|s| matches!(s, SdcState::Corrected { .. })) {
            // Corrected lanes are measured on their healed values.
            rr = measure(x).1;
        }
        let screened = |l: usize| {
            if l >= lanes {
                return None;
            }
            let probed = cfg.probe_lanes.contains(&(chunk * W + l));
            Some(if !finite[l] {
                let first = (0..n).position(|i| !rhs[i * W + l].is_finite());
                Screened::NonFinite(first.expect("the pass saw a non-finite value"))
            } else if !probed && rr[l].is_finite() && rr[l] <= RESIDUAL_TOL {
                Screened::Sealed(rr[l])
            } else {
                Screened::Flagged(Flagged {
                    rr: rr[l],
                    probed,
                    b_lane: lane_of(rhs, l),
                    x_lane: lane_of(x, l),
                })
            })
        };
        let lanes = std::array::from_fn(screened);
        PanelScreen { sdc, lanes }
    }

    /// Per lane the ABFT discrepancy and the relative residual that a pass's
    /// sums give — [`VerifiedBuilder::abft_check`]'s and
    /// [`VerifiedBuilder::relative_residual`]'s closing expressions — and
    /// whether the input is finite.
    fn measure(
        &self,
        sums: PassSums,
    ) -> ([f64; LANE_WIDTH], [f64; LANE_WIDTH], [bool; LANE_WIDTH]) {
        let ([vx, sum_b, nx2, acc_r, acc_b], finite) = sums;
        let (mut disc, mut rr) = ([0.0; LANE_WIDTH], [0.0; LANE_WIDTH]);
        for l in 0..LANE_WIDTH {
            let d = (vx[l] - sum_b[l]).abs();
            let scale = self.colsum_norm * nx2[l].sqrt() + sum_b[l].abs();
            disc[l] = if scale > 0.0 { d / scale } else { d };
            let (nr, nb) = (acc_r[l].sqrt(), acc_b[l].sqrt());
            rr[l] = if nb > 0.0 { nr / nb } else { nr };
        }
        (disc, rr, finite)
    }

    /// The screen's whole work on the solved panel `x` and its right-hand
    /// sides `rhs`, in the instances compiled for `isa`: the snapshot's
    /// sums of `rhs` ([`snapshot`], without the copy the step makes beside
    /// them), then [`screen_pass`] — per lane the five sums
    /// `[colsum·x, Σb, ‖x‖², ‖b − Ax‖², ‖b‖²]` and the finite mask. Named
    /// instances are for the differential tests and the per-ISA bench rows;
    /// the solve runs [`PanelIsa::detected`].
    ///
    /// # Panics
    /// Panics if the host lacks `isa`.
    #[doc(hidden)]
    pub fn pass_on(&self, isa: PanelIsa, x: &[f64], rhs: &[f64]) -> PassSums {
        let kept = isa.run(
            #[inline(always)]
            || snapshot(rhs, None),
        );
        self.screen_on(isa, x, rhs, &kept)
    }

    /// The verified step's snapshot of one panel of right-hand sides, in
    /// the instance compiled for `isa`: `rhs` copied row by row into
    /// `kept`, and on the way per lane `Σb`, `‖b‖²` and whether every value
    /// is finite ([`snapshot`]). The verified step takes the same copy and
    /// sums a few tiles at a time as its solve brings the rows in
    /// ([`keep_rows_on`]), to the same bits; this whole-panel form is
    /// public for the per-ISA bench row and the differential tests.
    ///
    /// # Panics
    /// Panics if the host lacks `isa`, or `kept` is shorter than `rhs`.
    #[doc(hidden)]
    pub fn snapshot_on(isa: PanelIsa, rhs: &[f64], kept: &mut [f64]) -> RhsSums {
        isa.run(
            #[inline(always)]
            || snapshot(rhs, Some(kept)),
        )
    }

    /// [`screen_pass`] at the matrix's band width, in the instance compiled
    /// for `isa`; a width no instance has takes every row through the CSR.
    fn screen_on(&self, isa: PanelIsa, x: &[f64], rhs: &[f64], kept: &RhsSums) -> PassSums {
        match self.bands.width {
            3 => self.screen_at::<3>(isa, x, rhs, kept, &self.bands.runs),
            4 => self.screen_at::<4>(isa, x, rhs, kept, &self.bands.runs),
            5 => self.screen_at::<5>(isa, x, rhs, kept, &self.bands.runs),
            6 => self.screen_at::<6>(isa, x, rhs, kept, &self.bands.runs),
            _ => self.screen_at::<0>(isa, x, rhs, kept, &[]),
        }
    }

    fn screen_at<const K: usize>(
        &self,
        isa: PanelIsa,
        x: &[f64],
        rhs: &[f64],
        kept: &RhsSums,
        runs: &[BandRun],
    ) -> PassSums {
        let (colsum, a, abft) = (&self.colsum[..], &self.matrix, self.config.abft);
        isa.run(
            #[inline(always)]
            || screen_pass::<K>(colsum, a, runs, x, rhs, kept, abft),
        )
    }

    /// Evaluate the ABFT identity `colsum·x = Σb` for one lane. Returns
    /// `(tripped, relative discrepancy)`; a non-finite discrepancy always
    /// trips (`NaN > tol` is false — the comparison must not be inverted).
    fn abft_check(&self, x: &[f64], b_lane: &[f64]) -> (bool, f64) {
        let vx = run_scalar(
            #[inline(always)]
            || {
                let terms = self.colsum.iter().zip(x);
                terms.fold(0.0, |s, (&c, &xi)| Lanes::mul_add(c, xi, s))
            },
        );
        let sum_b: f64 = b_lane.iter().sum();
        let disc = (vx - sum_b).abs();
        let scale = self.colsum_norm * norm2(x) + sum_b.abs();
        let rel = if scale > 0.0 { disc / scale } else { disc };
        (!rel.is_finite() || rel > DEFAULT_ABFT_TOL, rel)
    }

    /// Repair one lane of finite input whose primary solution
    /// `flagged.x_lane` measured relative residual `flagged.rr` above
    /// tolerance (or that is probed): refine, climb the ladder, or
    /// quarantine. Returns the verdict and the lane's new coefficients —
    /// `None` for a quarantined lane, which is zeroed.
    fn repair_lane(&self, flagged: Flagged) -> (LaneVerdict, Option<Vec<f64>>) {
        let Flagged {
            rr,
            probed,
            b_lane,
            x_lane: mut x,
        } = flagged;
        let b_lane = &b_lane[..];

        // Stage 2: iterative refinement with the primary factors.
        if !probed {
            let outcome = refine_lane(
                |x, y| self.matrix.spmv_into(x, y),
                |r| self.primary_solve(r),
                self.anorm_inf,
                b_lane,
                &mut x,
                &self.config.refine,
            );
            let rr = self.relative_residual(&x, b_lane);
            if rr.is_finite() && rr <= RESIDUAL_TOL {
                let verdict = LaneVerdict::Refined {
                    steps: outcome.steps,
                    residual: rr,
                };
                return (verdict, Some(x));
            }
        }

        // Stage 3: the factorization ladder.
        let mut best = if rr.is_finite() { rr } else { f64::INFINITY };
        let mut saw_finite = rr.is_finite();
        if self.config.use_ladder {
            for rung in self.ladder() {
                let Some(mut y) = self.solve_on_rung(rung, b_lane) else {
                    continue;
                };
                let rr = self.relative_residual(&y, b_lane);
                if !rr.is_finite() {
                    continue;
                }
                saw_finite = true;
                if rr <= RESIDUAL_TOL {
                    return (LaneVerdict::Recovered { rung, residual: rr }, Some(y));
                }
                // Above tolerance: refine on this rung's factors before
                // giving up on it.
                refine_lane(
                    |x, z| self.matrix.spmv_into(x, z),
                    |r| self.rung_solve(rung, r),
                    self.anorm_inf,
                    b_lane,
                    &mut y,
                    &self.config.refine,
                );
                let rr = self.relative_residual(&y, b_lane);
                if rr.is_finite() && rr <= RESIDUAL_TOL {
                    return (LaneVerdict::Recovered { rung, residual: rr }, Some(y));
                }
                if rr.is_finite() {
                    best = best.min(rr);
                }
            }
        }

        let reason = if saw_finite {
            QuarantineReason::ResidualAboveTol { residual: best }
        } else {
            QuarantineReason::NonFiniteSolution
        };
        (LaneVerdict::Quarantined { reason }, None)
    }

    fn relative_residual(&self, x: &[f64], b: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        residual_into(&self.matrix, x, b, &mut r);
        let nb = norm2(b);
        if nb > 0.0 {
            norm2(&r) / nb
        } else {
            norm2(&r)
        }
    }

    /// Solve one contiguous lane with the primary Schur factors: the
    /// arithmetic of the batched kernel (the version's corner axis
    /// included), so a re-solved lane carries the bits its neighbours do.
    fn primary_solve(&self, lane: &mut [f64]) {
        let blocks = self.builder.blocks();
        let sparse = self.builder.version().sparse_corners();
        lane_steps(blocks, sparse, 0..4, &mut StridedMut::from_slice(lane));
    }

    /// The rungs above the primary factorization's class, in order.
    fn ladder(&self) -> Vec<FallbackRung> {
        let mut rungs = Vec::new();
        match self.builder.blocks().q_class() {
            QClass::PdsTridiagonal => {
                rungs.push(FallbackRung::Pbtrs);
                rungs.push(FallbackRung::Gbtrs);
            }
            QClass::PdsBanded => rungs.push(FallbackRung::Gbtrs),
            QClass::GeneralBanded => {}
        }
        rungs.push(FallbackRung::Getrs);
        rungs
    }

    /// Solve `A y = b_lane` from scratch on one rung. `None` when the rung
    /// cannot be built (e.g. forcing `pbtrs` on a non-symmetric interior).
    fn solve_on_rung(&self, rung: FallbackRung, b_lane: &[f64]) -> Option<Vec<f64>> {
        let mut y = b_lane.to_vec();
        match rung {
            FallbackRung::Pbtrs | FallbackRung::Gbtrs => {
                let blocks = self.schur_rung(rung)?;
                lane_steps(blocks, false, 0..4, &mut StridedMut::from_slice(&mut y));
                Some(y)
            }
            FallbackRung::Getrs => {
                let f = self
                    .dense_rung
                    .get_or_init(|| {
                        getrf(&assemble_interpolation_matrix(self.builder.space())).ok()
                    })
                    .as_ref()?;
                f.solve_slice(&mut y);
                Some(y)
            }
        }
    }

    /// Re-solve in place with an already-built rung (refinement callback).
    fn rung_solve(&self, rung: FallbackRung, r: &mut [f64]) {
        match rung {
            FallbackRung::Pbtrs | FallbackRung::Gbtrs => {
                if let Some(blocks) = self.schur_rung(rung) {
                    lane_steps(blocks, false, 0..4, &mut StridedMut::from_slice(r));
                }
            }
            FallbackRung::Getrs => {
                if let Some(f) = self.dense_rung.get().and_then(Option::as_ref) {
                    f.solve_slice(r);
                }
            }
        }
    }

    fn schur_rung(&self, rung: FallbackRung) -> Option<&SchurBlocks> {
        let (cell, class) = match rung {
            FallbackRung::Pbtrs => (&self.pb_rung, QClass::PdsBanded),
            FallbackRung::Gbtrs => (&self.gb_rung, QClass::GeneralBanded),
            _ => return None,
        };
        cell.get_or_init(|| SchurBlocks::with_class(self.builder.space(), class).ok())
            .as_ref()
    }
}

/// A panel row: one value per lane.
type Row = [f64; LANE_WIDTH];

/// What [`screen_pass`] returns: per lane the sums `colsum·x`, `Σb`, `‖x‖²`,
/// `‖b − Ax‖²`, `‖b‖²`, and whether every right-hand side value is finite.
type PassSums = ([[f64; LANE_WIDTH]; 5], [bool; LANE_WIDTH]);

/// What [`snapshot`] returns: per lane `Σb`, `‖b‖²`, and whether every
/// right-hand side value is finite.
pub(crate) type RhsSums = ([[f64; LANE_WIDTH]; 2], [bool; LANE_WIDTH]);

/// The right-hand sides' own share of the screen, taken where the verified
/// step reads them anyway: while it copies the panel `rhs` into `kept`
/// ([`keep_rows`], a few tiles at a time in the step), or, with no `kept`,
/// alone. Rows in order, every operation one contiguous lane vector, the
/// expressions of [`VerifiedBuilder::abft_check`] and
/// [`VerifiedBuilder::relative_residual`], so the bits are theirs.
#[inline(always)]
fn snapshot(rhs: &[f64], kept: Option<&mut [f64]>) -> RhsSums {
    let mut taken = [Row::splat(0.0); 3];
    match kept {
        Some(kept) => keep_rows([rhs], [kept], std::array::from_mut(&mut taken)),
        None => {
            for br in rhs.as_chunks().0 {
                take_rhs_row(&mut taken, *br);
            }
        }
    }
    sums_of(taken)
}

/// [`snapshot`]'s running sums `[Σb, ‖b‖², Σ 0·b]`, row after row.
pub(crate) type Taken = [Row; 3];

/// The sums `taken` over all of a panel's rows, as [`snapshot`] returns
/// them.
pub(crate) fn sums_of([sum_b, acc_b, poison]: Taken) -> RhsSums {
    ([sum_b, acc_b], poison.map(|p| p == 0.0))
}

/// Rows of right-hand sides copied from each of the `P` panels `rhs` into
/// its `kept`, its sums taken into its `taken` on the way: [`snapshot`]'s
/// copy of a whole panel, and the verified step's of the rows its solve
/// brings in, in order, so the sums are the same bits either way. The
/// panels' sums are independent, so their rows interleave and no row waits
/// on the one before it.
#[inline(always)]
fn keep_rows<const P: usize>(rhs: [&[f64]; P], kept: [&mut [f64]; P], taken: &mut [Taken; P]) {
    let rhs = rhs.map(|rhs| rhs.as_chunks::<LANE_WIDTH>().0);
    let rows = rhs[0].len();
    let kept = kept.map(|kept| &mut kept.as_chunks_mut::<LANE_WIDTH>().0[..rows]);
    assert!(
        rhs.iter().all(|rhs| rhs.len() == rows),
        "keep_rows: panels alike"
    );
    for i in 0..rows {
        for p in 0..P {
            let br = rhs[p][i];
            kept[p][i] = br;
            take_rhs_row(&mut taken[p], br);
        }
    }
}

/// [`keep_rows`] in the instance compiled for `isa`.
pub(crate) fn keep_rows_on<const P: usize>(
    isa: PanelIsa,
    rhs: [&[f64]; P],
    kept: [&mut [f64]; P],
    taken: &mut [Taken; P],
) {
    let taken_so_far = *taken;
    // The sums a local of the body, so that they stay in registers across
    // the rows: reached through the closure's captures, stores to `kept`
    // could be taken to alias them, and every row would wait on a store.
    *taken = isa.run(
        #[inline(always)]
        || {
            let mut sums = taken_so_far;
            keep_rows(rhs, kept, &mut sums);
            sums
        },
    );
}

/// One row of right-hand sides into [`snapshot`]'s `[Σb, ‖b‖², Σ 0·b]`:
/// `0·b` is zero for a finite `b` and NaN for any other, so the last sum is
/// NaN exactly where a lane saw a non-finite value, with no per-lane test.
/// (A closure would not be inlined into the [`PanelIsa::run`] shell.)
#[inline(always)]
fn take_rhs_row([sum_b, acc_b, poison]: &mut [Row; 3], br: Row) {
    *sum_b = sum_b.add(br);
    *acc_b = br.mul_add(br, *acc_b);
    *poison = br.mul_add(Row::splat(0.0), *poison);
}

/// The screen's pass over a solved `[n][8]` panel `x` and its pristine
/// right-hand sides `rhs`, rows outer and lanes inner: every operation is
/// one contiguous lane vector, and the body is `#[inline(always)]` so that
/// it is compiled at the width of the [`PanelIsa::run`] shell it lands in.
/// Row `i` of `A·x` is `K` fixed, contiguous panel-row loads on the rows of
/// the band `runs` (`K` the matrix's band width), and the CSR's indices on
/// every other row: the periodic wrap rows, and rows where the CSR kept a
/// rounding-noise entry. Either way the products are added in ascending
/// column order, as [`VerifiedBuilder::relative_residual`] adds them. The
/// right-hand sides' sums come in as `kept` ([`snapshot`]); the residual
/// norm is always taken, `colsum·x` and `‖x‖²` only with `abft` (a
/// loop-invariant, well-predicted branch) — zero without. Per lane
/// the expressions are those of [`VerifiedBuilder::abft_check`] and
/// [`VerifiedBuilder::relative_residual`] in their order, every
/// multiply-add one [`Lanes::mul_add`] as there, so every instance returns
/// the scalar bits.
#[inline(always)]
fn screen_pass<const K: usize>(
    colsum: &[f64],
    a: &Csr,
    runs: &[BandRun],
    x: &[f64],
    rhs: &[f64],
    kept: &RhsSums,
    abft: bool,
) -> PassSums {
    let (row_ptr, vals) = (a.row_ptr(), a.values());
    // The panels as rows of eight lanes.
    let (xs, bs) = (x.as_chunks().0, rhs.as_chunks().0);
    let mut tally = Tally {
        colsum,
        xs,
        bs,
        abft,
        sums: [Row::splat(0.0); 3],
    };
    let mut next = 0;
    for run in runs {
        for i in next..run.rows.start {
            tally.row(i, csr_row(a, xs, i));
        }
        // The run's values lie back to back, `K` to a row, and row `i`'s
        // columns are the window of `K` panel rows from `i − lo`. Zipped
        // iterators, so that no row pays a bounds check.
        let (start, end, lo) = (run.rows.start, run.rows.end, run.lo);
        let vals = &vals[row_ptr[start]..row_ptr[end]];
        let bands = xs[start - lo..end - lo + K - 1].windows(K);
        let rows = (colsum[start..end].iter())
            .zip(&xs[start..end])
            .zip(&bs[start..end]);
        for ((v, ((&c, &xr), &br)), band) in vals.chunks_exact(K).zip(rows).zip(bands) {
            let mut ax = Row::splat(0.0);
            for k in 0..K {
                ax = Row::splat(v[k]).mul_add(band[k], ax);
            }
            tally.take(c, xr, br, ax);
        }
        next = end;
    }
    for i in next..colsum.len() {
        tally.row(i, csr_row(a, xs, i));
    }
    let [vx, nx2, acc_r] = tally.sums;
    let ([sum_b, acc_b], finite) = *kept;
    ([vx, sum_b, nx2, acc_r, acc_b], finite)
}

/// Row `i` of `A·x` through the CSR's indices, `xs` the rows of `x`.
#[inline(always)]
fn csr_row(a: &Csr, xs: &[Row], i: usize) -> Row {
    let (row_ptr, cols, vals) = (a.row_ptr(), a.col_idx(), a.values());
    let mut ax = Row::splat(0.0);
    for k in row_ptr[i]..row_ptr[i + 1] {
        ax = Row::splat(vals[k]).mul_add(xs[cols[k]], ax);
    }
    ax
}

/// [`screen_pass`]'s running sums `[colsum·x, ‖x‖², ‖b − Ax‖²]` over the
/// rows `xs` and `bs` of the panels `x` and `rhs`. (A closure would not be
/// inlined into the [`PanelIsa::run`] shell.)
struct Tally<'a> {
    colsum: &'a [f64],
    xs: &'a [Row],
    bs: &'a [Row],
    abft: bool,
    sums: [Row; 3],
}

impl Tally<'_> {
    /// Row `i`'s share, given row `i` of `A·x`.
    #[inline(always)]
    fn row(&mut self, i: usize, ax: Row) {
        self.take(self.colsum[i], self.xs[i], self.bs[i], ax);
    }

    /// A row's share, given its `colsum`, `x`, `b` and `A·x` rows.
    #[inline(always)]
    fn take(&mut self, c: f64, xr: Row, br: Row, ax: Row) {
        let [vx, nx2, acc_r] = &mut self.sums;
        if self.abft {
            *vx = Row::splat(c).mul_add(xr, *vx);
            *nx2 = xr.mul_add(xr, *nx2);
        }
        let r = br.sub(ax);
        *acc_r = r.mul_add(r, *acc_r);
    }
}

/// Band widths [`screen_pass`] has an instance for: those of the six
/// Table I spaces' matrices.
const BAND_WIDTHS: std::ops::RangeInclusive<usize> = 3..=6;

/// The rows of a CSR matrix whose stored columns are exactly the `width`
/// contiguous columns `i − lo .. i − lo + width`, in maximal runs of one
/// `lo`. `width` is the most common length of a row of contiguous columns;
/// rows of any other shape (the periodic wrap, a kept rounding-noise entry)
/// lie between the runs. No runs unless `width` is in [`BAND_WIDTHS`].
#[derive(Debug)]
struct BandRuns {
    width: usize,
    runs: Vec<BandRun>,
}

/// Rows `rows`, row `i` storing columns `i − lo .. i − lo + width`.
#[derive(Debug, Clone, PartialEq)]
struct BandRun {
    rows: std::ops::Range<usize>,
    lo: usize,
}

impl BandRuns {
    fn of(a: &Csr) -> Self {
        let (row_ptr, cols) = (a.row_ptr(), a.col_idx());
        // `(width, lo)` of row `i` when its columns are contiguous.
        let shape = |i: usize| {
            let row = &cols[row_ptr[i]..row_ptr[i + 1]];
            let first = *row.first()?;
            let lo = i.checked_sub(first)?;
            let contiguous = row.iter().zip(first..).all(|(&c, j)| c == j);
            contiguous.then_some((row.len(), lo))
        };
        let mut rows_of_width = vec![0_usize; a.ncols() + 1];
        for (width, _) in (0..a.nrows()).filter_map(shape) {
            rows_of_width[width] += 1;
        }
        let width = (0..rows_of_width.len())
            .max_by_key(|&w| rows_of_width[w])
            .unwrap_or(0);
        let mut runs: Vec<BandRun> = Vec::new();
        if !BAND_WIDTHS.contains(&width) {
            return BandRuns { width, runs };
        }
        for i in 0..a.nrows() {
            let Some((_, lo)) = shape(i).filter(|&(w, _)| w == width) else {
                continue;
            };
            match runs.last_mut() {
                Some(run) if run.rows.end == i && run.lo == lo => run.rows.end += 1,
                _ => runs.push(BandRun { rows: i..i + 1, lo }),
            }
        }
        BandRuns { width, runs }
    }
}

/// Lane `l` of one `[nrows][LANE_WIDTH]` panel as a contiguous vector.
fn lane_of(panel: &[f64], l: usize) -> Vec<f64> {
    panel.iter().skip(l).step_by(LANE_WIDTH).copied().collect()
}

/// What a fused solve does with a block's coefficients:
/// `then(chunk, lanes, solved)`.
type PanelThen<'a> = dyn Fn(usize, usize, Solved<'_>) + Sync + 'a;

/// What the panel screen concluded about one lane; the caller turns it
/// into a [`LaneVerdict`].
enum Screened {
    /// Non-finite input, first at this row.
    NonFinite(usize),
    /// This relative residual, at or below tolerance, seals the verdict.
    Sealed(f64),
    /// Probed, or residual over tolerance or non-finite: repair the lane.
    Flagged(Flagged),
}

/// A lane the screen hands to [`VerifiedBuilder::repair_lane`], with the
/// copies of it that outlive the worker's turn.
struct Flagged {
    /// Relative residual of the primary solution.
    rr: f64,
    probed: bool,
    /// The pristine right-hand side.
    b_lane: Vec<f64>,
    /// The primary solution (after any ABFT correction).
    x_lane: Vec<f64>,
}

/// One panel's record from [`VerifiedBuilder::screen`].
struct PanelScreen {
    sdc: [SdcState; LANE_WIDTH],
    /// `None` past the block's last live lane.
    lanes: [Option<Screened>; LANE_WIDTH],
}

/// Fold the ABFT screen outcome into a lane's verification verdict: a
/// tripped lane the verifier could not heal is silent data corruption
/// escaping containment — quarantine, never trust it.
fn fold_sdc_verdict(sdc_state: SdcState, verdict: LaneVerdict) -> LaneVerdict {
    match (sdc_state, verdict) {
        (SdcState::Corrected { discrepancy }, LaneVerdict::Verified { residual }) => {
            LaneVerdict::SdcCorrected {
                discrepancy,
                residual,
            }
        }
        (SdcState::Tripped { discrepancy }, v) if !v.is_healthy() => LaneVerdict::Quarantined {
            reason: QuarantineReason::SdcDetected { discrepancy },
        },
        (_, v) => v,
    }
}

/// Outcome of the ABFT checksum screen for one lane.
#[derive(Debug, Clone, Copy)]
enum SdcState {
    /// Checksum held (or the lane's input is non-finite and belongs to
    /// the quarantine scan).
    Clean,
    /// The checksum tripped and one retry from the pristine right-hand
    /// side came back clean: a transient upset, healed.
    Corrected { discrepancy: f64 },
    /// The checksum tripped on the retry too: persistent corruption.
    Tripped { discrepancy: f64 },
}

/// Deterministic SDC probe: flip the top mantissa bit of the lane's
/// largest-magnitude coefficient — a 25–50% relative perturbation, so the
/// injected corruption is always numerically live.
fn strike<'a>(x: impl Iterator<Item = &'a mut f64>) {
    if let Some(v) = x.max_by(|a, b| a.abs().total_cmp(&b.abs())) {
        *v = flip_bit(*v, 51);
    }
}

/// Flip one bit of an `f64`'s IEEE-754 representation: bit 0 is the
/// least-significant mantissa bit, bits 52–62 the exponent, bit 63 the
/// sign.
fn flip_bit(x: f64, bit: u32) -> f64 {
    f64::from_bits(x.to_bits() ^ (1u64 << (bit & 63)))
}

/// Error, relative to `1 + max |coefficient|` of the plain solve, above
/// which a refined or recovered lane of an [`sdc_round`] counts as a silent
/// wrong answer: a re-solve that passed the residual check sits orders of
/// magnitude below it, and the struck bit 51 orders of magnitude above.
const SDC_MATERIAL_ERR: f64 = 1e-5;

/// Which bit flip an [`sdc_round`] injects into the verified solve.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdcMode {
    /// No strike: every lane must come back `Verified`.
    Off,
    /// The struck lanes' solved coefficients are hit once; the screen's
    /// retry must heal them back to the plain solve's bits.
    Transient,
    /// The retry is hit too, and refinement is off: a struck lane must be
    /// recovered by a ladder rung, or quarantined and zeroed without one.
    Persistent,
}

/// What one [`sdc_round`] drew and observed.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq)]
pub struct SdcRound {
    /// The bit flip injected.
    pub mode: SdcMode,
    /// The struck lanes, ascending; empty with [`SdcMode::Off`].
    pub struck: Vec<usize>,
    /// Whether the recovery ladder was on.
    pub ladder: bool,
    /// The verified solve's verdicts.
    pub report: LaneReport,
    /// Lanes whose coefficients came back all zero.
    pub zeroed: Vec<usize>,
    /// Lanes the screen did not pass as `Verified`. Only struck lanes can
    /// be: nothing else is wrong with the batch.
    pub detected: usize,
    /// Detected lanes the screen's retry healed (`SdcCorrected`).
    pub corrected: usize,
    /// Detected lanes left to refinement, the ladder or quarantine.
    pub uncorrected: usize,
    /// Lanes with a trusted verdict whose coefficients differ from the
    /// plain solve's — in any bit for `Verified` / `SdcCorrected`, beyond
    /// `1e-5` of the lane's scale for a refined or recovered lane. The one
    /// count that must always be zero.
    pub silent_wrong: usize,
}

impl SdcRound {
    /// `true` when the round contained its strikes: no silent wrong
    /// answer, every unstruck lane `Verified`, every struck lane given its
    /// mode's disposition, and every quarantined lane zeroed.
    pub fn contained(&self) -> bool {
        let disposed = self.report.verdicts().iter().enumerate().all(|(lane, v)| {
            match (self.struck.contains(&lane), self.mode) {
                (false, _) | (true, SdcMode::Off) => matches!(v, LaneVerdict::Verified { .. }),
                (true, SdcMode::Transient) => matches!(v, LaneVerdict::SdcCorrected { .. }),
                (true, SdcMode::Persistent) if self.ladder => {
                    matches!(v, LaneVerdict::Recovered { .. })
                }
                (true, SdcMode::Persistent) => matches!(
                    v,
                    LaneVerdict::Quarantined {
                        reason: QuarantineReason::SdcDetected { .. }
                    }
                ),
            }
        });
        let zeroed = (self.report.quarantined_lanes().iter()).all(|l| self.zeroed.contains(l));
        self.silent_wrong == 0 && disposed && zeroed
    }
}

/// One seeded round of the chaos campaign's SDC leg, through the verified
/// step's own path: a uniform cubic periodic space of 8–32 cells, a host
/// field of 4–24 lanes (so ragged tail panels are hit), a mode, and up to
/// three struck lanes, solved by [`VerifiedBuilder::solve_then`] with the
/// ABFT screen on and the [`VerifyConfig::sdc_probe_lanes`] hooks. Every
/// lane is held against the plain [`SplineBuilder::solve_then`] of the same
/// right-hand sides. The round is a pure function of `seed`.
#[doc(hidden)]
pub fn sdc_round(seed: u64) -> SdcRound {
    let mut rng = TestRng::seed_from_u64(seed);
    let cells = 8 + rng.gen_range(0..24_usize);
    let lanes = 4 + rng.gen_range(0..20_usize);
    let mode = match rng.gen_range(0..3_usize) {
        0 => SdcMode::Off,
        1 => SdcMode::Transient,
        _ => SdcMode::Persistent,
    };
    let mut struck = Vec::new();
    if mode != SdcMode::Off {
        for _ in 0..1 + rng.gen_range(0..3_usize) {
            struck.push(rng.gen_range(0..lanes));
        }
        struck.sort_unstable();
        struck.dedup();
    }
    let ladder = rng.gen_bool(0.5);
    // Lane `l` of the host field is row `l`.
    let rhs = Matrix::from_fn(lanes, cells, Layout::Right, |_, _| rng.gen_range(-1.0..1.0));

    let persistent = mode == SdcMode::Persistent;
    let mut refine = RefineConfig::default();
    if persistent {
        refine.max_steps = 0;
    }
    let breaks = Breaks::uniform(cells, 0.0, 1.0).expect("8-32 uniform cells");
    let space = SplineSpace::new(breaks, 3).expect("cubic periodic space");
    let verified = SplineBuilder::new(space, BuilderVersion::FusedSpmv)
        .expect("uniform cubic builder")
        .verified(VerifyConfig {
            abft: true,
            use_ladder: ladder,
            refine,
            sdc_probe_lanes: struck.clone(),
            sdc_probe_persistent: persistent,
            ..VerifyConfig::default()
        });
    let keep = |_: usize, _: usize, solved: Solved<'_>| solved.store();
    let land = |_: usize, coefs: &[f64], out: &mut [f64]| out.copy_from_slice(coefs);
    let field = HostField::new;
    let (mut got, mut want) = (rhs.clone(), rhs);
    let report = verified
        .solve_then(&Parallel, &mut field(&mut got), keep, land)
        .expect("rows match the space");
    (verified.builder())
        .solve_then(&Parallel, &mut field(&mut want), keep)
        .expect("rows match the space");

    let mut silent_wrong = 0;
    for (l, verdict) in report.verdicts().iter().enumerate() {
        let (g, w) = (got.row(l).to_vec(), want.row(l).to_vec());
        silent_wrong += usize::from(match verdict {
            LaneVerdict::Verified { .. } | LaneVerdict::SdcCorrected { .. } => {
                g.iter().zip(&w).any(|(g, w)| g.to_bits() != w.to_bits())
            }
            LaneVerdict::Refined { .. } | LaneVerdict::Recovered { .. } => {
                let bound =
                    SDC_MATERIAL_ERR * (1.0 + w.iter().fold(0.0_f64, |m, w| m.max(w.abs())));
                // `!(err <= bound)`: a NaN error is wrong too.
                !g.iter().zip(&w).all(|(g, w)| (g - w).abs() <= bound)
            }
            LaneVerdict::Quarantined { .. } => false,
        });
    }
    let zeroed = (0..lanes)
        .filter(|&l| got.row(l).iter().all(|v| v == 0.0))
        .collect();
    let detected = (report.verdicts().iter())
        .filter(|v| !matches!(v, LaneVerdict::Verified { .. }))
        .count();
    let corrected = report.sdc_corrected_lanes().len();
    SdcRound {
        mode,
        struck,
        ladder,
        report,
        zeroed,
        detected,
        corrected,
        uncorrected: detected - corrected,
        silent_wrong,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::schur_solve;
    use pp_bsplines::PeriodicSplineSpace;
    use pp_linalg::Panel;
    use pp_portable::{CountingExec, Serial, Strided};

    fn space(n: usize, degree: usize, uniform: bool) -> PeriodicSplineSpace {
        let breaks = if uniform {
            Breaks::uniform(n, 0.0, 1.0).unwrap()
        } else {
            Breaks::graded(n, 0.0, 1.0, 0.6).unwrap()
        };
        PeriodicSplineSpace::new(breaks, degree).unwrap()
    }

    fn random_rhs(n: usize, batch: usize, seed: u64) -> Matrix {
        let mut rng = TestRng::seed_from_u64(seed);
        Matrix::from_fn(n, batch, Layout::Left, |_, _| rng.gen_range(-2.0..2.0))
    }

    /// `b` unpacked into a fresh host matrix.
    fn unpacked(b: &ResidentBatch) -> Matrix {
        let mut host = Matrix::zeros(b.nrows(), b.ncols(), Layout::Left);
        b.unpack_into(&mut host).expect("shape of b");
        host
    }

    /// Non-finite right-hand sides are quarantined before they can poison
    /// a panel, named by their first non-finite row, and zeroed; every
    /// other lane is verified and bit-identical to the plain solve (no
    /// cross-lane arithmetic in a panel, so the screen must not perturb
    /// them) — in a lone partial panel, a full one, and full ones with a
    /// partial tail.
    #[test]
    fn healthy_lanes_bit_identical_and_nan_lanes_quarantined() {
        let sp = space(32, 3, true);
        let plain = SplineBuilder::new(sp.clone(), BuilderVersion::FusedSpmv).unwrap();
        let verified = SplineBuilder::new(sp, BuilderVersion::FusedSpmv)
            .unwrap()
            .verified(VerifyConfig::default());
        // (batch, seed, poisoned (row, lane, value)s)
        let nan_in_lane_1 = vec![(3, 1, f64::NAN)];
        let rows = [
            (9, 42, vec![(5, 2, f64::NAN), (0, 7, f64::INFINITY)]),
            (5, 11, nan_in_lane_1.clone()),
            (8, 11, nan_in_lane_1.clone()),
            (13, 11, nan_in_lane_1),
        ];
        for (batch, seed, poison) in rows {
            let mut rhs = random_rhs(32, batch, seed);
            for &(i, lane, v) in &poison {
                rhs.set(i, lane, v);
            }
            let mut reference = rhs.clone();
            plain.solve_in_place(&Parallel, &mut reference).unwrap();
            let mut x = rhs.clone();
            let report = verified.solve_in_place(&Parallel, &mut x).unwrap();

            let poisoned: Vec<usize> = poison.iter().map(|p| p.1).collect();
            assert_eq!(report.quarantined_lanes(), poisoned, "batch {batch}");
            for &(index, lane, _) in &poison {
                let reason = QuarantineReason::NonFiniteInput { index };
                assert_eq!(*report.verdict(lane), LaneVerdict::Quarantined { reason });
                // Quarantined lanes are zeroed, not NaN.
                assert!((0..32).all(|i| x.get(i, lane) == 0.0), "batch {batch}");
            }
            for lane in (0..batch).filter(|l| !poisoned.contains(l)) {
                assert!(
                    report.verdict(lane).is_healthy(),
                    "batch {batch} lane {lane}"
                );
                for i in 0..32 {
                    let (got, want) = (x.get(i, lane), reference.get(i, lane));
                    assert_eq!(got, want, "batch {batch} lane {lane} row {i}");
                }
            }
        }
    }

    #[test]
    fn probe_lanes_recover_via_first_rung_above_primary() {
        // Uniform cubic => primary pttrs; first ladder rung is pbtrs.
        let sp = space(32, 3, true);
        let config = VerifyConfig {
            probe_lanes: vec![3],
            ..VerifyConfig::default()
        };
        let verified = SplineBuilder::new(sp.clone(), BuilderVersion::FusedSpmv)
            .unwrap()
            .verified(config);
        let plain = SplineBuilder::new(sp, BuilderVersion::FusedSpmv).unwrap();

        let rhs = random_rhs(32, 5, 7);
        let mut x = rhs.clone();
        let report = verified.solve_in_place(&Parallel, &mut x).unwrap();

        match report.verdict(3) {
            LaneVerdict::Recovered { rung, residual } => {
                assert_eq!(*rung, FallbackRung::Pbtrs);
                assert!(*residual <= 1e-10);
            }
            other => panic!("expected recovery via pbtrs, got {other}"),
        }
        // The recovered solution still matches the ordinary one closely.
        let mut reference = rhs.clone();
        plain.solve_in_place(&Parallel, &mut reference).unwrap();
        for i in 0..32 {
            assert!((x.get(i, 3) - reference.get(i, 3)).abs() < 1e-10);
        }
    }

    #[test]
    fn non_uniform_probe_escalates_to_dense_getrs() {
        // Graded mesh => primary gbtrs; only getrs remains.
        let sp = space(24, 4, false);
        let config = VerifyConfig {
            probe_lanes: vec![0],
            ..VerifyConfig::default()
        };
        let verified = SplineBuilder::new(sp, BuilderVersion::Fused)
            .unwrap()
            .verified(config);
        let rhs = random_rhs(24, 2, 11);
        let mut x = rhs.clone();
        let report = verified.solve_in_place(&Parallel, &mut x).unwrap();
        match report.verdict(0) {
            LaneVerdict::Recovered { rung, .. } => assert_eq!(*rung, FallbackRung::Getrs),
            other => panic!("expected recovery via getrs, got {other}"),
        }
        assert!(report.verdict(1).is_healthy());
    }

    #[test]
    fn ladder_disabled_quarantines_probed_lane() {
        // Three lanes, and 256 that the pool hands out as many runs; each
        // on both execution spaces.
        for (n, batch, lane) in [(24, 3, 1), (64, 256, 3)] {
            let config = VerifyConfig {
                probe_lanes: vec![lane],
                use_ladder: false,
                ..VerifyConfig::default()
            };
            let verified = SplineBuilder::new(space(n, 3, true), BuilderVersion::FusedSpmv)
                .unwrap()
                .verified(config);
            let mut x = random_rhs(n, batch, 5);
            let mut serial = x.clone();
            let report = verified.solve_in_place(&Parallel, &mut x).unwrap();
            assert_eq!(
                verified.solve_in_place(&Serial, &mut serial).unwrap(),
                report
            );
            assert_eq!(report.quarantined_lanes(), vec![lane]);
            assert!(matches!(
                report.verdict(lane),
                LaneVerdict::Quarantined {
                    reason: QuarantineReason::ResidualAboveTol { .. }
                }
            ));
        }
    }

    /// A clean batch of every Table I configuration, periodic and clamped,
    /// is verified lane by lane with tiny residuals, with the ABFT screen
    /// off and on; the screen never trips on it, and the verified
    /// coefficients are the plain solve's, bit for bit.
    #[test]
    fn clean_batch_all_verified_with_tiny_residuals() {
        for degree in [3usize, 4, 5] {
            for uniform in [true, false] {
                let periodic = space(28, degree, uniform);
                let clamped = SplineSpace::clamped(periodic.breaks().clone(), degree).unwrap();
                for sp in [periodic, clamped] {
                    let nb = sp.num_basis();
                    let builder = || SplineBuilder::new(sp.clone(), BuilderVersion::FusedSpmv);
                    let plain = builder().unwrap();
                    let rhs = random_rhs(nb, 6, degree as u64);
                    let mut reference = rhs.clone();
                    plain.solve_in_place(&Parallel, &mut reference).unwrap();
                    for abft in [false, true] {
                        let what = format!("deg {degree} uniform {uniform} n {nb} abft {abft}");
                        let config = VerifyConfig {
                            abft,
                            ..VerifyConfig::default()
                        };
                        let verified = builder().unwrap().verified(config);
                        let mut x = rhs.clone();
                        let report = verified.solve_in_place(&Parallel, &mut x).unwrap();
                        assert!(report.all_verified(), "{what}: {report}");
                        assert!(report.worst_residual() < 1e-12, "{what}");
                        assert!(report.sdc_corrected_lanes().is_empty(), "{what}");
                        assert_eq!(x.max_abs_diff(&reference), 0.0, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let sp = space(16, 3, true);
        let verified = SplineBuilder::new(sp, BuilderVersion::FusedSpmv)
            .unwrap()
            .verified(VerifyConfig::default());
        let mut bad = Matrix::zeros(17, 2, Layout::Left);
        assert!(verified.solve_in_place(&Parallel, &mut bad).is_err());
        let mut bad = ResidentBatch::zeros(17, 2);
        assert!(verified.solve_resident(&Parallel, &mut bad).is_err());
    }

    #[test]
    fn report_display_and_accessors() {
        let report = LaneReport {
            verdicts: vec![
                LaneVerdict::Verified { residual: 1e-14 },
                LaneVerdict::Refined {
                    steps: 2,
                    residual: 1e-13,
                },
                LaneVerdict::Recovered {
                    rung: FallbackRung::Gbtrs,
                    residual: 1e-12,
                },
                LaneVerdict::Quarantined {
                    reason: QuarantineReason::NonFiniteSolution,
                },
                LaneVerdict::SdcCorrected {
                    discrepancy: 0.25,
                    residual: 1e-15,
                },
            ],
        };
        assert_eq!(report.len(), 5);
        assert_eq!(report.refined_lanes(), vec![1]);
        assert_eq!(report.recovered_lanes(), vec![2]);
        assert_eq!(report.quarantined_lanes(), vec![3]);
        assert_eq!(report.sdc_corrected_lanes(), vec![4]);
        assert_eq!(report.total_refine_steps(), 2);
        assert!(!report.all_verified());
        assert!((report.worst_residual() - 1e-12).abs() < 1e-25);
        assert_eq!(
            report.to_string(),
            "5 lane(s): 1 refined, 1 recovered, 1 sdc corrected, 1 quarantined, \
             worst residual 1.000e-12"
        );
        let v = report.verdict(3).to_string();
        assert!(v.contains("non-finite solution"), "{v}");
    }

    /// A transient strike on a solved lane trips its checksum, and the
    /// retry heals it: lane 2 mid-panel, and every live lane of a full and
    /// a ragged panel. The retry re-runs the primary factors on the pristine
    /// right-hand side, so the healed lanes (and every clean one) are
    /// bit-identical to the ordinary solve.
    #[test]
    fn abft_transient_corruption_is_corrected_back_to_reference_bits() {
        let sp = space(32, 3, true);
        let builder = || SplineBuilder::new(sp.clone(), BuilderVersion::FusedSpmv).unwrap();
        let plain = builder();
        for (batch, struck) in [(5, vec![2]), (11, (0..11).collect())] {
            let verified = builder().verified(VerifyConfig {
                abft: true,
                sdc_probe_lanes: struck.clone(),
                ..VerifyConfig::default()
            });
            let rhs = random_rhs(32, batch, 37);
            let mut reference = rhs.clone();
            plain.solve_in_place(&Parallel, &mut reference).unwrap();
            let mut x = rhs.clone();
            let report = verified.solve_in_place(&Parallel, &mut x).unwrap();
            assert_eq!(report.sdc_corrected_lanes(), struck);
            for &lane in &struck {
                match report.verdict(lane) {
                    LaneVerdict::SdcCorrected {
                        discrepancy,
                        residual,
                    } => {
                        assert!(*discrepancy > DEFAULT_ABFT_TOL, "{discrepancy:.3e}");
                        assert!(*residual <= 1e-10, "{residual:.3e}");
                    }
                    other => panic!("lane {lane}: expected SdcCorrected, got {other}"),
                }
            }
            assert_eq!(x.max_abs_diff(&reference), 0.0, "batch {batch}");
        }
    }

    #[test]
    fn abft_persistent_corruption_is_healed_by_the_verifier() {
        // (cells, degree, uniform, batch, struck lane): mid-panel; the tail
        // panel of two on a graded quintic mesh; the tail panel of three.
        let cases = [
            (28, 3, true, 4, 1),
            (24, 5, false, 9, 8),
            (64, 4, true, 17, 16),
        ];
        for (n, degree, uniform, batch, lane) in cases {
            let sp = space(n, degree, uniform);
            let plain = SplineBuilder::new(sp.clone(), BuilderVersion::FusedSpmv).unwrap();
            let rhs = random_rhs(n, batch, 43);
            let mut reference = rhs.clone();
            plain.solve_in_place(&Parallel, &mut reference).unwrap();
            // With the ladder off, refinement is the lane's only repair.
            for use_ladder in [true, false] {
                let builder = SplineBuilder::new(sp.clone(), BuilderVersion::FusedSpmv).unwrap();
                let verified = builder.verified(VerifyConfig {
                    abft: true,
                    sdc_probe_lanes: vec![lane],
                    sdc_probe_persistent: true,
                    use_ladder,
                    ..VerifyConfig::default()
                });
                let mut x = rhs.clone();
                let report = verified.solve_in_place(&Parallel, &mut x).unwrap();
                // The retry is struck too, so the screen alone cannot heal
                // the lane: refinement with the pristine primary factors
                // does, before any rung is tried.
                let case = format!("n {n} d{degree} uniform {uniform} ladder {use_ladder}");
                match report.verdict(lane) {
                    LaneVerdict::Refined { residual, .. } => {
                        assert!(*residual <= RESIDUAL_TOL, "{case}: {residual:.3e}")
                    }
                    other => panic!("{case}: expected Refined, got {other}"),
                }
                for i in 0..n {
                    assert!(
                        (x.get(i, lane) - reference.get(i, lane)).abs() < 1e-8,
                        "{case}"
                    );
                }
            }
        }
    }

    /// The residual screen's tolerance is tight: one lane of a solved panel
    /// scaled by `1 + 1e-8`, a relative residual of ≈ 1e-8 (a looser
    /// tolerance such as 1e-4 would seal it), is flagged for repair while
    /// its untouched neighbours are sealed.
    #[test]
    fn screen_flags_a_lane_with_residual_near_1e_8() {
        let n = 32;
        let builder = SplineBuilder::new(space(n, 3, true), BuilderVersion::FusedSpmv).unwrap();
        let rhs = ResidentBatch::pack(&random_rhs(n, LANE_WIDTH, 53));
        let mut solved = rhs.clone();
        builder.solve_resident(&Serial, &mut solved).unwrap();
        let verified = builder.verified(VerifyConfig::default());
        let (rhs, mut x) = (rhs.chunk(0), solved.chunk(0).to_vec());
        let perturbed = 3;
        for v in x.iter_mut().skip(perturbed).step_by(LANE_WIDTH) {
            *v *= 1.0 + 1e-8;
        }
        let screen = verified.screen(0, LANE_WIDTH, &mut x, (rhs, snapshot(rhs, None)));
        for (l, screened) in screen.lanes.iter().enumerate() {
            match screened.as_ref().expect("a live lane is screened") {
                Screened::Flagged(f) if l == perturbed => {
                    assert!((1e-9..1e-7).contains(&f.rr), "rr {:.3e}", f.rr);
                }
                Screened::Sealed(rr) if l != perturbed => assert!(*rr <= RESIDUAL_TOL),
                Screened::Sealed(rr) => panic!("lane {l} sealed at residual {rr:.3e}"),
                _ => panic!("lane {l}: expected the screen to seal it"),
            }
        }
    }

    #[test]
    fn abft_unrecoverable_corruption_is_quarantined_never_trusted() {
        let sp = space(24, 3, true);
        // The tripped lane sits mid-panel, then in the tail panel of one,
        // two and three panels.
        for (batch, tripped) in [(4usize, 2usize), (4, 1), (7, 6), (9, 8), (17, 16)] {
            let verified = SplineBuilder::new(sp.clone(), BuilderVersion::FusedSpmv)
                .unwrap()
                .verified(VerifyConfig {
                    abft: true,
                    sdc_probe_lanes: vec![tripped],
                    sdc_probe_persistent: true,
                    use_ladder: false,
                    refine: RefineConfig {
                        max_steps: 0,
                        ..RefineConfig::default()
                    },
                    ..VerifyConfig::default()
                });
            let mut x = random_rhs(24, batch, 47);
            let report = verified.solve_in_place(&Parallel, &mut x).unwrap();
            assert!(
                matches!(
                    report.verdict(tripped),
                    LaneVerdict::Quarantined {
                        reason: QuarantineReason::SdcDetected { .. }
                    }
                ),
                "batch {batch}: {}",
                report.verdict(tripped)
            );
            // Zeroed, not left holding the corrupted coefficients.
            for i in 0..24 {
                assert_eq!(x.get(i, tripped), 0.0, "batch {batch}");
            }
        }
    }

    /// The chaos campaign's SDC leg over a spread of seeds: every strike is
    /// contained by the screen production runs — healed by the retry,
    /// recovered by a rung, or quarantined and zeroed — and a trusted lane
    /// is never wrong.
    #[test]
    fn sdc_round_never_reports_silent_wrong_answers() {
        let mut seen = [false; 4];
        for seed in 0..24u64 {
            let r = sdc_round(seed);
            assert!(r.contained(), "seed {seed}: {r:?}");
            assert_eq!(r.silent_wrong, 0, "seed {seed}");
            match r.mode {
                SdcMode::Off => {
                    seen[0] = true;
                    assert_eq!(r.detected, 0, "seed {seed}: a clean round never trips");
                }
                SdcMode::Transient => {
                    seen[1] = true;
                    assert_eq!(r.corrected, r.detected, "seed {seed}: transients heal");
                    assert_eq!(r.detected, r.struck.len(), "seed {seed}");
                }
                SdcMode::Persistent => {
                    seen[2 + usize::from(r.ladder)] = true;
                    for &lane in &r.struck {
                        let verdict = *r.report.verdict(lane);
                        if r.ladder {
                            assert!(
                                matches!(verdict, LaneVerdict::Recovered { .. }),
                                "seed {seed} lane {lane}: {verdict}"
                            );
                        } else {
                            assert!(
                                matches!(
                                    verdict,
                                    LaneVerdict::Quarantined {
                                        reason: QuarantineReason::SdcDetected { .. }
                                    }
                                ),
                                "seed {seed} lane {lane}: {verdict}"
                            );
                            assert!(r.zeroed.contains(&lane), "seed {seed} lane {lane}");
                        }
                    }
                }
            }
            // Timing-free: replaying the seed reproduces the round exactly.
            assert_eq!(r, sdc_round(seed), "seed {seed}");
        }
        assert!(
            seen.iter().all(|&s| s),
            "24 seeds must exercise off, transient and persistent with and \
             without the ladder: {seen:?}"
        );
    }

    /// The `f64` payload of a verdict, as bits.
    fn verdict_bits(v: &LaneVerdict) -> Vec<u64> {
        let floats = match *v {
            LaneVerdict::Verified { residual }
            | LaneVerdict::Refined { residual, .. }
            | LaneVerdict::Recovered { residual, .. } => vec![residual],
            LaneVerdict::SdcCorrected {
                discrepancy,
                residual,
            } => vec![discrepancy, residual],
            LaneVerdict::Quarantined { reason } => match reason {
                QuarantineReason::ResidualAboveTol { residual } => vec![residual],
                QuarantineReason::SdcDetected { discrepancy } => vec![discrepancy],
                _ => vec![],
            },
        };
        floats.into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn verified_report_is_identical_serial_and_parallel() {
        // Workers return data and the caller alone turns it into verdicts,
        // so the execution space must not show anywhere: not in a verdict,
        // a residual or discrepancy bit, or the batch.
        let n = 16;
        let solve = |verified: &VerifiedBuilder, rhs: &Matrix, parallel: bool| {
            let mut x = rhs.clone();
            let report = if parallel {
                verified.solve_in_place(&Parallel, &mut x)
            } else {
                verified.solve_in_place(&Serial, &mut x)
            };
            (report.unwrap(), x)
        };
        // The fused step: the same solve with every panel's coefficients
        // evaluated at shifted points straight back into the batch, and the
        // tail re-evaluating the lanes it repaired or quarantined.
        let shift = |lane: usize| 0.013 * (lane as f64 - 2.5);
        let fused = |verified: &VerifiedBuilder, rhs: &Matrix, parallel: bool| {
            let sp = verified.builder().space();
            let pts = sp.interpolation_points();
            let then = |chunk: usize, lanes: usize, solved: Solved<'_>| {
                let Solved::InPlace(panel) = solved else {
                    unreachable!("a resident panel is solved where it lies")
                };
                let feet = |l: usize| (&pts[..], shift(chunk * LANE_WIDTH + l));
                sp.eval_panel(None, lanes, feet, panel);
            };
            let then_lane = |lane: usize, coefs: &[f64], out: &mut [f64]| {
                let feet: Vec<f64> = pts.iter().map(|x| x - shift(lane)).collect();
                let (coefs, feet) = (Strided::from_slice(coefs), Strided::from_slice(&feet));
                sp.eval_lane(coefs, feet, StridedMut::from_slice(out));
            };
            let mut b = ResidentBatch::pack(rhs);
            let report = if parallel {
                verified.solve_then(&Parallel, &mut b, then, then_lane)
            } else {
                verified.solve_then(&Serial, &mut b, then, then_lane)
            };
            (report.unwrap(), unpacked(&b))
        };
        // What it must equal: the layered sequence — solve and repair in
        // place, then evaluate the final coefficients.
        let layered = |verified: &VerifiedBuilder, rhs: &Matrix| {
            let sp = verified.builder().space();
            let pts = sp.interpolation_points();
            let mut coefs = ResidentBatch::pack(rhs);
            let report = verified.solve_resident(&Serial, &mut coefs).unwrap();
            let feet = Matrix::from_fn(n, rhs.ncols(), Layout::Left, |i, j| pts[i] - shift(j));
            let mut out = ResidentBatch::zeros(n, rhs.ncols());
            crate::SplineEvaluator::new(sp.clone())
                .eval_resident(&Serial, &coefs, &feet, &mut out)
                .unwrap();
            (report, unpacked(&out))
        };
        // Miri is here for the concurrent records, not the case list.
        let (versions, batches): (&[_], &[usize]) = if cfg!(miri) {
            (&[BuilderVersion::Baseline], &[0, 9])
        } else {
            (&BuilderVersion::ALL, &[0, 1, 7, 8, 9, 17])
        };
        for &version in versions {
            for (degree, uniform) in [(3, true), (5, false)] {
                for &batch in batches {
                    // A NaN lane, a probed lane and an SDC-struck lane take
                    // turns on the last lane of the tail panel.
                    for turn in 0..3 {
                        let at = |k: usize| batch.checked_sub(1 + (k + turn) % 3);
                        for (abft, persistent) in [(false, false), (true, false), (true, true)] {
                            let verified = SplineBuilder::new(space(n, degree, uniform), version)
                                .unwrap()
                                .verified(VerifyConfig {
                                    abft,
                                    probe_lanes: at(1).into_iter().collect(),
                                    sdc_probe_lanes: at(2).into_iter().collect(),
                                    sdc_probe_persistent: persistent,
                                    ..VerifyConfig::default()
                                });
                            let mut rhs = random_rhs(n, batch, 71 + batch as u64);
                            if let Some(lane) = at(0) {
                                rhs.set(3, lane, f64::NAN);
                            }
                            let (serial, xs) = solve(&verified, &rhs, false);
                            let (parallel, xp) = solve(&verified, &rhs, true);
                            let case = format!(
                                "{version:?} d{degree} batch {batch} turn {turn} \
                                 abft {abft} persistent {persistent}"
                            );
                            assert_eq!(serial, parallel, "{case}");
                            assert_eq!(serial.len(), batch, "{case}");
                            for lane in 0..batch {
                                assert_eq!(
                                    verdict_bits(serial.verdict(lane)),
                                    verdict_bits(parallel.verdict(lane)),
                                    "{case} lane {lane}"
                                );
                                for i in 0..n {
                                    assert_eq!(
                                        xs.get(i, lane).to_bits(),
                                        xp.get(i, lane).to_bits(),
                                        "{case} ({i},{lane})"
                                    );
                                }
                            }
                            // The injected faults were seen, not stepped over.
                            if let Some(lane) = at(0) {
                                let reason = QuarantineReason::NonFiniteInput { index: 3 };
                                let expected = LaneVerdict::Quarantined { reason };
                                assert_eq!(*serial.verdict(lane), expected, "{case}");
                            }
                            if let (Some(lane), true) = (at(2), abft) {
                                let seen = match serial.verdict(lane) {
                                    LaneVerdict::SdcCorrected { .. } => !persistent,
                                    LaneVerdict::Quarantined { .. } => false,
                                    _ => persistent,
                                };
                                assert!(seen, "{case}: {}", serial.verdict(lane));
                            }
                            let (want, want_out) = layered(&verified, &rhs);
                            assert_eq!(want, serial, "{case}");
                            for parallel in [false, true] {
                                let (report, out) = fused(&verified, &rhs, parallel);
                                assert_eq!(report, want, "{case} fused");
                                for lane in 0..batch {
                                    assert_eq!(
                                        verdict_bits(report.verdict(lane)),
                                        verdict_bits(want.verdict(lane)),
                                        "{case} fused lane {lane}"
                                    );
                                    for i in 0..n {
                                        assert_eq!(
                                            out.get(i, lane).to_bits(),
                                            want_out.get(i, lane).to_bits(),
                                            "{case} fused ({i},{lane}) parallel {parallel}"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The screen's pass is one source at three widths: every instance the
    /// host has returns the baseline instance's five sums and finite mask,
    /// bit for bit, on healthy, poisoned, struck, all-zero and padding
    /// lanes — and the baseline's healthy lane is the scalar residual, so
    /// the instances cannot all be wrong together.
    #[test]
    fn screen_pass_is_bit_identical_on_every_isa() {
        const W: usize = LANE_WIDTH;
        let n = if cfg!(miri) { 12 } else { 40 };
        // A poisoned lane holds NaNs of one payload, so even its sums have
        // bits that do not depend on the order an instance takes operands in.
        let bits = |sums: [[f64; W]; 5]| sums.map(|sum| sum.map(f64::to_bits));
        for ((degree, uniform), abft) in [((3, true), true), ((5, false), true), ((3, true), false)]
        {
            let config = VerifyConfig {
                abft,
                ..VerifyConfig::default()
            };
            let vb = SplineBuilder::new(space(n, degree, uniform), BuilderVersion::FusedSpmv)
                .unwrap()
                .verified(config);
            for live in [1, 7, 8] {
                // Lane 0 healthy, 1 NaN, 2 +∞, 3 −∞, 4 struck after the
                // solve, 5 all zero, 6 and 7 healthy; lanes from `live` on
                // are padding.
                let mut rng = TestRng::seed_from_u64(0x5C4EE + live as u64);
                let mut rhs = vec![0.0; n * W];
                for row in rhs.chunks_exact_mut(W) {
                    for v in row[..live].iter_mut() {
                        *v = rng.gen_range(-2.0..2.0);
                    }
                    row[5] = 0.0;
                }
                let poison = [(1, f64::NAN), (2, f64::INFINITY), (3, f64::NEG_INFINITY)];
                for (l, bad) in poison.into_iter().filter(|&(l, _)| l < live) {
                    rhs[(n / 2 + l) * W + l] = bad;
                }
                let mut x = rhs.clone();
                schur_solve(vb.builder.blocks(), true, &mut Panel::new(&mut x, n));
                if live > 4 {
                    strike(x.iter_mut().skip(4).step_by(W));
                }
                let what = format!("d{degree} abft {abft} live {live}");
                let (base, base_finite) = vb.pass_on(PanelIsa::Baseline, &x, &rhs);
                let expect_finite: [bool; W] =
                    std::array::from_fn(|l| l >= live || !(1..=3).contains(&l));
                assert_eq!(base_finite, expect_finite, "{what}");
                let [vx, _, _, acc_r, acc_b] = base;
                assert_eq!(vx[0] != 0.0, abft, "{what}");
                let rr = acc_r[0].sqrt() / acc_b[0].sqrt();
                let scalar = vb.relative_residual(&lane_of(&x, 0), &lane_of(&rhs, 0));
                assert_eq!(rr.to_bits(), scalar.to_bits(), "{what}");
                for isa in PanelIsa::ALL.into_iter().filter(|isa| isa.is_available()) {
                    let (sums, finite) = vb.pass_on(isa, &x, &rhs);
                    assert_eq!(finite, base_finite, "{what} {}", isa.name());
                    assert_eq!(bits(sums), bits(base), "{what} {}", isa.name());
                }
            }
        }
    }

    /// The six Table I spaces: degree 3, 4, 5 on the uniform and the graded
    /// mesh.
    const TABLE_I: [(usize, bool); 6] = [
        (3, true),
        (4, true),
        (5, true),
        (3, false),
        (4, false),
        (5, false),
    ];

    /// The band screen on the real shapes: every Table I space at n = 64,
    /// 1000 (where rounding-noise entries make banded and CSR rows
    /// alternate) and 1024, eight healthy lanes, every instance the host
    /// has. Each lane's residual and ABFT discrepancy from [`pass_on`] are
    /// the scalar twins', bit for bit — and the band runs are really there,
    /// so a fast path that is never taken fails here.
    ///
    /// [`pass_on`]: VerifiedBuilder::pass_on
    #[test]
    fn band_screen_matches_the_scalar_twins_on_real_shapes() {
        const W: usize = LANE_WIDTH;
        let sizes: &[usize] = if cfg!(miri) {
            &[12, 40]
        } else {
            &[64, 1000, 1024]
        };
        for &n in sizes {
            for (degree, uniform) in TABLE_I {
                let config = VerifyConfig {
                    abft: true,
                    ..VerifyConfig::default()
                };
                let vb = SplineBuilder::new(space(n, degree, uniform), BuilderVersion::FusedSpmv)
                    .unwrap()
                    .verified(config);
                let what = format!("n {n} d{degree} uniform {uniform}");
                let banded: usize = vb.bands.runs.iter().map(|run| run.rows.len()).sum();
                assert!(BAND_WIDTHS.contains(&vb.bands.width), "{what}");
                assert!(banded > 0, "{what}: no band rows");
                let mut rng = TestRng::seed_from_u64(0xBA4D + n as u64);
                let rhs: Vec<f64> = (0..n * W).map(|_| rng.gen_range(-2.0..2.0)).collect();
                let mut x = rhs.clone();
                schur_solve(vb.builder.blocks(), true, &mut Panel::new(&mut x, n));
                for isa in PanelIsa::ALL.into_iter().filter(|isa| isa.is_available()) {
                    let (disc, rr, finite) = vb.measure(vb.pass_on(isa, &x, &rhs));
                    assert_eq!(finite, [true; W], "{what} {}", isa.name());
                    for l in 0..W {
                        let (x, b) = (lane_of(&x, l), lane_of(&rhs, l));
                        let scalar = vb.relative_residual(&x, &b);
                        let (_, scalar_disc) = vb.abft_check(&x, &b);
                        let at = format!("{what} {} lane {l}", isa.name());
                        assert_eq!(rr[l].to_bits(), scalar.to_bits(), "{at} residual");
                        assert_eq!(disc[l].to_bits(), scalar_disc.to_bits(), "{at} ABFT");
                    }
                }
            }
        }
        if cfg!(miri) {
            return;
        }
        let bands = |degree, uniform| {
            let builder =
                SplineBuilder::new(space(1024, degree, uniform), BuilderVersion::FusedSpmv);
            let runs = builder.unwrap().verified(VerifyConfig::default()).bands;
            (runs.width, runs.runs)
        };
        let run = |rows, lo| BandRun { rows, lo };
        assert_eq!(bands(3, true), (3, vec![run(1..1023, 1)]), "uniform cubic");
        let (width, runs) = bands(5, false);
        assert_eq!((width, runs.len()), (6, 2), "graded quintic: {runs:?}");
    }

    /// The ABFT vector and the norms come from one row-major pass over the
    /// CSR; they are the dense formulas' bits. (A periodic space of degree
    /// `d` needs more than `2d` cells, so the smallest size is raised to
    /// that.)
    #[test]
    fn colsum_and_norms_are_the_dense_formulas() {
        for n in [8, 64, 1000, 1024] {
            for (degree, uniform) in TABLE_I {
                let n = n.max(2 * degree + 1);
                let sp = space(n, degree, uniform);
                let dense = assemble_interpolation_matrix(&sp);
                let vb = SplineBuilder::new(sp, BuilderVersion::FusedSpmv)
                    .unwrap()
                    .verified(VerifyConfig::default());
                let anorm_inf = (0..n)
                    .map(|i| (0..n).fold(0.0, |s, j| s + dense.get(i, j).abs()))
                    .fold(0.0_f64, f64::max);
                let colsum: Vec<f64> = (0..n)
                    .map(|j| (0..n).map(|i| dense.get(i, j)).sum())
                    .collect();
                let what = format!("n {n} d{degree} uniform {uniform}");
                let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&vb.colsum), bits(&colsum), "{what} colsum");
                assert_eq!(
                    vb.colsum_norm.to_bits(),
                    norm2(&colsum).to_bits(),
                    "{what} colsum norm"
                );
                assert_eq!(vb.anorm_inf.to_bits(), anorm_inf.to_bits(), "{what} ‖A‖∞");
            }
        }
    }

    #[test]
    fn verified_solve_is_one_pool_dispatch() {
        // Guards the shape of the verified solve: the whole screen rides
        // the solve's one region (no extra region, nothing serial that
        // would need the batch copied), on a resident and a host field —
        // and so does whatever a fused step does with the coefficients,
        // which a resident field holds in its own panels. The plain
        // resident solve is that region too, under every version.
        // Regions are counted on the execution space — `pool_stats()` is
        // process-wide and the other unit tests dispatch concurrently.
        let (n, batch) = (32, 5 * LANE_WIDTH + 3);
        let regions = |solve: &dyn Fn(&CountingExec, &mut ResidentBatch)| {
            let exec = CountingExec::default();
            let mut b = ResidentBatch::pack(&random_rhs(n, batch, 83));
            solve(&exec, &mut b);
            exec.regions()
        };
        let keep = |_: usize, _: usize, solved: Solved<'_>| {
            assert!(
                matches!(solved, Solved::InPlace(_)),
                "panels solved in place"
            );
        };
        for version in BuilderVersion::ALL {
            let plain = SplineBuilder::new(space(n, 3, true), version).unwrap();
            let fused = regions(&|exec, b| plain.solve_then(exec, b, keep).unwrap());
            let resident = regions(&|exec, b| plain.solve_resident(exec, b).unwrap());
            let verified = plain.verified(VerifyConfig {
                abft: true,
                ..VerifyConfig::default()
            });
            let screened = regions(&|exec, b| {
                assert!(verified.solve_resident(exec, b).unwrap().all_verified());
            });
            let fused_screened = regions(&|exec, b| {
                let report = verified.solve_then(exec, b, keep, |_, _, _| unreachable!());
                assert!(report.unwrap().all_verified());
            });
            assert_eq!(
                (fused, resident, screened, fused_screened),
                (1, 1, 1, 1),
                "{version:?}"
            );
        }
        // A fresh thread has a fresh scratch: six panels through each entry
        // point — a run of `ABREAST` and a shorter one. A resident field is
        // solved where it lies: the plain solve takes no scratch at all, the
        // verified one keeps one run of right-hand sides in the second set.
        let plain = SplineBuilder::new(space(n, 3, true), BuilderVersion::FusedSpmv).unwrap();
        let verified = plain.verified(VerifyConfig::default());
        let resident = std::thread::scope(|s| {
            s.spawn(|| {
                let rhs = random_rhs(n, batch, 89);
                let mut b = ResidentBatch::pack(&rhs);
                verified
                    .builder()
                    .solve_then(&Serial, &mut b, keep)
                    .unwrap();
                let plain = crate::builder::panel_scratch_len();
                let mut want = ResidentBatch::pack(&rhs);
                verified
                    .builder()
                    .solve_resident(&Serial, &mut want)
                    .unwrap();
                let (got, want) = (unpacked(&b), unpacked(&want));
                assert_eq!(got, want, "coefficients left in the batch");
                verified.solve_resident(&Serial, &mut b).unwrap();
                verified
                    .solve_then(&Serial, &mut b, keep, |_, _, _| unreachable!())
                    .unwrap();
                (plain, crate::builder::panel_scratch_len())
            })
            .join()
            .unwrap()
        });
        // A host field's blocks are brought into panels, each from a cache line on: one
        // run of panels for the plain solve, a second one — right-hand sides
        // beside coefficients — for the verified one.
        let host = std::thread::scope(|s| {
            s.spawn(|| {
                let rhs = random_rhs(n, batch, 97);
                let mut want = ResidentBatch::pack(&rhs);
                verified
                    .builder()
                    .solve_resident(&Serial, &mut want)
                    .unwrap();
                let mut host = Matrix::from_fn(batch, n, Layout::Right, |j, i| rhs.get(i, j));
                let mut field = HostField::new(&mut host);
                let keep = |_: usize, lanes: usize, solved: Solved<'_>| {
                    let Solved::Apart { coefs, block } = &solved else {
                        panic!("a host block is not a panel");
                    };
                    assert_eq!(coefs.as_ptr() as usize % 64, 0, "coefficients at a line");
                    assert_eq!(
                        (block.lanes(), block.rows()),
                        (lanes, n),
                        "the block's lanes"
                    );
                    solved.store();
                };
                verified
                    .builder()
                    .solve_then(&Serial, &mut field, keep)
                    .unwrap();
                let plain = crate::builder::panel_scratch_len();
                let want = unpacked(&want);
                for j in 0..batch {
                    let mut got = vec![0.0; n];
                    field.copy_lane_into(j, &mut got);
                    assert_eq!(got, want.col(j).to_vec(), "host field solve, lane {j}");
                }
                verified
                    .solve_then(&Serial, &mut field, keep, |_, _, _| unreachable!())
                    .unwrap();
                (plain, crate::builder::panel_scratch_len())
            })
            .join()
            .unwrap()
        });
        let run = ABREAST * n * LANE_WIDTH;
        assert_eq!(resident, ([0, 0], [0, run]), "resident field");
        assert_eq!(host, ([run, 0], [run, run]), "host field");
    }
}
