//! The Ginkgo-style iterative spline backend (§III-B of the paper).
//!
//! Same job as [`SplineBuilder`] — turn a batch of interpolation values
//! into spline coefficients — but via Krylov iteration on the CSR-stored
//! matrix, one independent lane at a time ([`LaneKrylov::solve`]), with
//! block-Jacobi preconditioning and optional warm starts from the previous
//! time step. Every batched solve, the step's and the host matrix's alike,
//! runs the backend's one lane region.

use crate::builder::{BuilderVersion, Solved, SplineBuilder};
use crate::error::{Error, Result};
use pp_bsplines::{assemble_interpolation_matrix, PeriodicSplineSpace};
use pp_iterative::{
    solver::{norm2, residual_into},
    BiCgStab, BlockJacobi, ConvergenceLogger, Gmres, IterativeSolver, LaneKrylov, LaneResults,
    Preconditioner, RecoveryEvent, RecoveryStage, SolveResult, StopCriteria,
};
use pp_portable::{
    ExecSpace, Field, Layout, Matrix, Parallel, ResidentBatch, Run, Strided, StridedMut, LANE_WIDTH,
};
use pp_sparse::Csr;

/// Which Krylov method to run. The paper's Ginkgo configuration uses
/// GMRES on CPUs and BiCGStab on GPUs (Table IV, Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KrylovKind {
    /// GMRES — what the paper runs on CPUs.
    Gmres,
    /// BiCGStab — what the paper runs on GPUs.
    BiCgStab,
}

/// Configuration of the iterative backend.
#[derive(Debug, Clone)]
pub struct IterativeConfig {
    /// Solver choice.
    pub kind: KrylovKind,
    /// Block-Jacobi `max_block_size` (the paper tunes 1–32).
    pub max_block_size: usize,
    /// Stopping criteria (the paper: relative residual < 1e-15).
    pub stop: StopCriteria,
    /// Warm-start from caller-provided previous solutions.
    pub warm_start: bool,
}

impl IterativeConfig {
    /// The paper's CPU configuration: GMRES.
    pub fn cpu() -> Self {
        Self {
            kind: KrylovKind::Gmres,
            max_block_size: 32,
            stop: StopCriteria::paper_default(),
            warm_start: true,
        }
    }

    /// The paper's GPU configuration: BiCGStab.
    pub fn gpu() -> Self {
        Self {
            kind: KrylovKind::BiCgStab,
            ..Self::cpu()
        }
    }
}

/// The escalation ladder [`IterativeSplineSolver::solve_with_recovery`]
/// climbs when lanes of a batch break down or stall.
///
/// Rungs run in a fixed order — re-precondition, solver switch, direct
/// fallback — each retrying only the lanes that are still unhealthy, until
/// every lane is healthy or the attempt budget is spent. Each rung that
/// runs appends a [`RecoveryEvent`] to the returned logger's recovery
/// report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Rung 1: retry failed lanes with a stronger (doubled-block)
    /// block-Jacobi preconditioner.
    pub reprecondition: bool,
    /// Rung 2: retry failed lanes with the complementary Krylov method
    /// (BiCGStab ⇄ GMRES).
    pub solver_switch: bool,
    /// Rung 3: hand failed lanes to the direct Schur-complement
    /// [`SplineBuilder`]. Lanes whose direct solution is non-finite (e.g.
    /// NaN-poisoned right-hand sides) stay broken.
    pub direct_fallback: bool,
    /// Total number of rungs allowed to run (bounds the retry cost).
    pub max_attempts: usize,
}

impl Default for RecoveryPolicy {
    /// The full ladder: all three rungs enabled, one pass each.
    fn default() -> Self {
        Self {
            reprecondition: true,
            solver_switch: true,
            direct_fallback: true,
            max_attempts: 3,
        }
    }
}

impl RecoveryPolicy {
    /// No recovery at all: failed lanes keep their typed outcomes.
    pub fn disabled() -> Self {
        Self {
            reprecondition: false,
            solver_switch: false,
            direct_fallback: false,
            max_attempts: 0,
        }
    }
}

/// A ready-to-solve iterative spline solver: the CSR matrix, its
/// block-Jacobi preconditioner and the Krylov configuration. Every batched
/// solve runs the backend's one lane region, each lane the scalar
/// [`LaneKrylov::solve`]: the step's [`IterativeSplineSolver::solve_then`]
/// on its field, the host entry points ([`IterativeSplineSolver::solve_in_place`],
/// [`IterativeSplineSolver::solve_with_recovery`] and the ladder's retries)
/// on a packed copy of their matrix.
pub struct IterativeSplineSolver {
    space: PeriodicSplineSpace,
    matrix: Csr,
    precond: BlockJacobi,
    config: IterativeConfig,
}

impl IterativeSplineSolver {
    /// Assemble the CSR matrix and build the block-Jacobi preconditioner.
    pub fn new(space: PeriodicSplineSpace, config: IterativeConfig) -> Result<Self> {
        if config.max_block_size == 0 {
            return Err(Error::UnexpectedStructure {
                detail: "iterative config requires a positive block size".into(),
            });
        }
        let dense = assemble_interpolation_matrix(&space);
        let matrix = Csr::from_dense(&dense, 0.0);
        let precond = BlockJacobi::new(&matrix, config.max_block_size);
        Ok(Self {
            space,
            matrix,
            precond,
            config,
        })
    }

    /// The spline space.
    pub fn space(&self) -> &PeriodicSplineSpace {
        &self.space
    }

    /// The CSR interpolation matrix.
    pub fn matrix(&self) -> &Csr {
        &self.matrix
    }

    /// Active configuration.
    pub fn config(&self) -> &IterativeConfig {
        &self.config
    }

    /// Solve `A X = B` in place (values in, coefficients out), optionally
    /// warm-started from `previous` (last time step's coefficients): the
    /// backend's one lane region on a packed copy of `b`.
    ///
    /// Returns the convergence log (Table IV's iteration counts come from
    /// [`ConvergenceLogger::max_iterations`]); errs if any lane failed.
    pub fn solve_in_place(
        &self,
        b: &mut Matrix,
        previous: Option<&Matrix>,
    ) -> Result<ConvergenceLogger> {
        converged(self.solve_host(self.config.kind, &self.precond, b, previous)?)
    }

    /// **Fused entry point**, the counterpart of
    /// [`SplineBuilder::solve_then`] for a backend whose solve is the
    /// per-lane Krylov body: two regions on `exec` over the field `b`'s
    /// blocks. The first is the backend's one lane region: it solves every
    /// lane of block `c` where it lies — right-hand side read from `b`,
    /// initial guess from panel `c` of `previous` (the last step's
    /// coefficients; zeros without them or with
    /// [`IterativeConfig::warm_start`] off) — into panel `c` of `eta`, a
    /// coefficient store of `b`'s shape that the caller keeps. If any lane
    /// failed it returns [`Error::NotConverged`], `b` and `previous`
    /// untouched. Otherwise the second region hands each block its panel of
    /// `eta` to `then(chunk, lanes, solved)`, which overwrites the block:
    /// [`Solved::Apart`], or for a block that is a panel
    /// [`Solved::InPlace`] on a copy of it in the block, so that `eta` stays
    /// untouched as the next step's warm start.
    pub fn solve_then<E, B, F>(
        &self,
        exec: &E,
        b: &mut B,
        eta: &mut ResidentBatch,
        previous: Option<&ResidentBatch>,
        then: F,
    ) -> Result<ConvergenceLogger>
    where
        E: ExecSpace,
        B: Field,
        F: Fn(usize, usize, Solved<'_>) + Sync + Send,
    {
        let lanes = self.solve_lanes(exec, self.config.kind, &self.precond, &*b, eta, previous);
        let logger = converged(lanes?)?;
        let eta = &*eta;
        b.for_each_run_mut(exec, 1, |c, live, run| {
            let coefs = eta.chunk(c);
            match run {
                Run::Panels(block) => {
                    block.copy_from_slice(coefs);
                    then(c, live, Solved::InPlace(block));
                }
                Run::Blocks(block) => then(c, live, Solved::Apart { coefs, block }),
            }
        });
        Ok(logger)
    }

    /// Solve `A X = B` in place like [`solve_in_place`], then climb the
    /// [`RecoveryPolicy`] ladder over any lanes that broke down or
    /// stalled.
    ///
    /// Unlike `solve_in_place`, residual unhealthy lanes are **not** an
    /// error: the returned [`ConvergenceLogger`] carries one typed outcome
    /// per lane ([`ConvergenceLogger::outcomes`]) plus the recovery report
    /// ([`ConvergenceLogger::recovery_events`]), and healthy lanes always
    /// keep their solutions. `Err` is reserved for structural problems
    /// (shape mismatch, unusable direct fallback).
    ///
    /// [`solve_in_place`]: IterativeSplineSolver::solve_in_place
    pub fn solve_with_recovery(
        &self,
        b: &mut Matrix,
        previous: Option<&Matrix>,
        policy: &RecoveryPolicy,
    ) -> Result<ConvergenceLogger> {
        // Keep the right-hand sides: the solve overwrites `b` with (possibly
        // garbage) iterates, and retries need the originals.
        let rhs_orig = b.clone();
        let mut logger = self.solve_host(self.config.kind, &self.precond, b, previous)?;

        let mut attempts = 0usize;
        let ladder = [
            (policy.reprecondition, RecoveryStage::Reprecondition),
            (policy.solver_switch, RecoveryStage::SolverSwitch),
            (policy.direct_fallback, RecoveryStage::DirectFallback),
        ];
        for (enabled, stage) in ladder {
            let failed = logger.failed_lanes();
            if !enabled || failed.is_empty() || attempts >= policy.max_attempts {
                continue;
            }
            attempts += 1;
            let recovered = match stage {
                RecoveryStage::Reprecondition => {
                    // Stronger smoothing: double the block size (capped at
                    // the matrix order; the paper tunes 1-32, recovery may
                    // exceed that deliberately).
                    let block = (self.config.max_block_size * 2).clamp(2, self.matrix.nrows());
                    let strong = BlockJacobi::new(&self.matrix, block);
                    self.retry_lanes(
                        self.config.kind,
                        &strong,
                        b,
                        &rhs_orig,
                        &failed,
                        &mut logger,
                    )?
                }
                RecoveryStage::SolverSwitch => {
                    let other = match self.config.kind {
                        KrylovKind::BiCgStab => KrylovKind::Gmres,
                        KrylovKind::Gmres => KrylovKind::BiCgStab,
                    };
                    self.retry_lanes(other, &self.precond, b, &rhs_orig, &failed, &mut logger)?
                }
                RecoveryStage::DirectFallback => {
                    self.direct_fallback(b, &rhs_orig, &failed, &mut logger)?
                }
            };
            logger.record_recovery(RecoveryEvent {
                stage,
                lanes_attempted: failed,
                lanes_recovered: recovered,
            });
        }
        Ok(logger)
    }

    /// Solve one right-hand side (no warm start). Returns `Ok(Some(x))`
    /// when the lane converged, `Ok(None)` when the Krylov iteration failed
    /// on it — the verified builder's last ladder rung treats `None` as
    /// "stay quarantined".
    pub(crate) fn solve_single(&self, rhs: &[f64]) -> Result<Option<Vec<f64>>> {
        self.check_rows(rhs.len())?;
        let solver = self.krylov(self.config.kind);
        let mut x = vec![0.0; rhs.len()];
        let res = solver.solve(&self.matrix, &self.precond, rhs, &mut x, &self.config.stop);
        Ok(if res.converged { Some(x) } else { None })
    }

    /// The backend's one lane region, on `exec`: lane `j` of the field `b`
    /// is solved by the per-lane body ([`LaneKrylov::solve`]) with `kind`
    /// and `precond` into lane `j` of `eta`, a coefficient store of
    /// `b`'s shape, from lane `j` of `previous` (zeros without it or with
    /// [`IterativeConfig::warm_start`] off). Every lane's last iterate lands
    /// in `eta`, converged or not, and its result in the returned logger,
    /// in lane order.
    fn solve_lanes<E: ExecSpace, B: Field>(
        &self,
        exec: &E,
        kind: KrylovKind,
        precond: &dyn Preconditioner,
        b: &B,
        eta: &mut ResidentBatch,
        previous: Option<&ResidentBatch>,
    ) -> Result<ConvergenceLogger> {
        let (rows, lanes) = b.shape();
        self.check_rows(rows)?;
        for store in std::iter::once(&*eta).chain(previous) {
            if store.shape() != (rows, lanes) {
                return Err(Error::Portable(pp_portable::Error::ShapeMismatch {
                    op: "IterativeSplineSolver lane region",
                    left: (rows, lanes),
                    right: store.shape(),
                }));
            }
        }
        let solver = self.krylov(kind);
        let krylov = LaneKrylov {
            a: &self.matrix,
            solver: solver.as_ref(),
            precond,
            stop: &self.config.stop,
        };
        let guess = previous.filter(|_| self.config.warm_start);
        let results = LaneResults::new(lanes);
        eta.for_each_chunk_mut(exec, |c, live, panel| {
            for l in 0..live {
                let j = c * LANE_WIDTH + l;
                let mut x = match guess {
                    Some(g) => Strided::new(&g.chunk(c)[l..], rows, LANE_WIDTH).to_vec(),
                    None => vec![0.0; rows],
                };
                let mut rhs = vec![0.0; rows];
                b.copy_lane_into(j, &mut rhs);
                results.set(j, krylov.solve(&rhs, &mut x));
                StridedMut::new(&mut panel[l..], rows, LANE_WIDTH).copy_from_slice(&x);
            }
        });
        let mut logger = ConvergenceLogger::new();
        results.record(&mut logger);
        Ok(logger)
    }

    /// The lane region on a packed copy of the host matrix `b`: on entry
    /// each column is a lane's right-hand side, on exit its last iterate,
    /// started from `previous`'s column.
    fn solve_host(
        &self,
        kind: KrylovKind,
        precond: &dyn Preconditioner,
        b: &mut Matrix,
        previous: Option<&Matrix>,
    ) -> Result<ConvergenceLogger> {
        let rhs = ResidentBatch::pack_with(&Parallel, b);
        let guess = previous.map(|p| ResidentBatch::pack_with(&Parallel, p));
        let mut eta = ResidentBatch::zeros(b.nrows(), b.ncols());
        let logger = self.solve_lanes(&Parallel, kind, precond, &rhs, &mut eta, guess.as_ref())?;
        eta.unpack_into_with(&Parallel, b)?;
        Ok(logger)
    }

    fn check_rows(&self, rows: usize) -> Result<()> {
        if rows != self.space.num_basis() {
            return Err(Error::ShapeMismatch {
                expected_rows: self.space.num_basis(),
                actual_rows: rows,
            });
        }
        Ok(())
    }

    fn krylov(&self, kind: KrylovKind) -> Box<dyn IterativeSolver> {
        match kind {
            KrylovKind::Gmres => Box::new(Gmres::default()),
            KrylovKind::BiCgStab => Box::new(BiCgStab),
        }
    }

    /// Re-run `lanes` with `kind` and `precond` through the lane region from
    /// their original right-hand sides (cold start: the failed iterate is not a
    /// trustworthy guess). Lanes that converge write their solutions back
    /// and have their logger records replaced. Returns the recovered lanes.
    fn retry_lanes(
        &self,
        kind: KrylovKind,
        precond: &dyn Preconditioner,
        b: &mut Matrix,
        rhs_orig: &Matrix,
        lanes: &[usize],
        logger: &mut ConvergenceLogger,
    ) -> Result<Vec<usize>> {
        let mut x = columns(rhs_orig, lanes);
        let retried = self.solve_host(kind, precond, &mut x, None)?;
        let mut recovered = Vec::new();
        for (k, (&lane, &res)) in lanes.iter().zip(retried.lane_results()).enumerate() {
            if res.converged {
                b.col_mut(lane).copy_from_slice(&x.col(k).to_vec());
                logger.update_lane(lane, res);
                recovered.push(lane);
            }
        }
        Ok(recovered)
    }

    /// Last rung: solve `lanes` with the direct Schur-complement builder.
    /// A lane is recovered only if its direct solution is finite and its
    /// *true* relative residual is small — NaN-poisoned inputs produce
    /// NaN solutions and stay broken.
    fn direct_fallback(
        &self,
        b: &mut Matrix,
        rhs_orig: &Matrix,
        lanes: &[usize],
        logger: &mut ConvergenceLogger,
    ) -> Result<Vec<usize>> {
        let n = self.matrix.nrows();
        let builder = SplineBuilder::new(self.space.clone(), BuilderVersion::FusedSpmv)?;
        let mut block = columns(rhs_orig, lanes);
        builder.solve_in_place(&Parallel, &mut block)?;

        let mut recovered = Vec::new();
        let mut r = vec![0.0; n];
        for (k, &lane) in lanes.iter().enumerate() {
            let x = block.col(k).to_vec();
            if !x.iter().all(|v| v.is_finite()) {
                continue;
            }
            let rhs = rhs_orig.col(lane).to_vec();
            residual_into(&self.matrix, &x, &rhs, &mut r);
            let norm_b = norm2(&rhs);
            let rr = if norm_b > 0.0 {
                norm2(&r) / norm_b
            } else {
                norm2(&r)
            };
            // The direct solver is exact up to roundoff; accept anything
            // within a generous multiple of the Krylov tolerance so a
            // slightly-above-tol direct residual still counts as rescue.
            if rr.is_finite() && rr <= self.config.stop.tol.max(1e-10) {
                b.col_mut(lane).copy_from_slice(&x);
                logger.update_lane(lane, SolveResult::converged(0, rr));
                recovered.push(lane);
            }
        }
        Ok(recovered)
    }
}

/// Columns `lanes` of `m`, in that order, as a matrix of their own.
fn columns(m: &Matrix, lanes: &[usize]) -> Matrix {
    let mut block = Matrix::zeros(m.nrows(), lanes.len(), Layout::Left);
    for (k, &lane) in lanes.iter().enumerate() {
        block.col_mut(k).copy_from_slice(&m.col(lane).to_vec());
    }
    block
}

/// `Ok(logger)` when every lane converged, else [`Error::NotConverged`].
fn converged(logger: ConvergenceLogger) -> Result<ConvergenceLogger> {
    if logger.all_converged() {
        Ok(logger)
    } else {
        Err(Error::NotConverged {
            lanes: logger.count(),
            worst_residual: logger.worst_residual(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BuilderVersion, SplineBuilder};
    use pp_bsplines::Breaks;
    use pp_portable::TestRng;
    use pp_portable::{Layout, Parallel};

    fn space(n: usize, degree: usize, uniform: bool) -> PeriodicSplineSpace {
        let breaks = if uniform {
            Breaks::uniform(n, 0.0, 1.0).unwrap()
        } else {
            Breaks::graded(n, 0.0, 1.0, 0.6).unwrap()
        };
        PeriodicSplineSpace::new(breaks, degree).unwrap()
    }

    #[test]
    fn iterative_matches_direct_builder() {
        for degree in [3, 4, 5] {
            for uniform in [true, false] {
                let sp = space(32, degree, uniform);
                let mut rng = TestRng::seed_from_u64(degree as u64);
                let rhs = Matrix::from_fn(32, 6, Layout::Left, |_, _| rng.gen_range(-1.0..1.0));

                let direct = SplineBuilder::new(sp.clone(), BuilderVersion::FusedSpmv).unwrap();
                let mut x_direct = rhs.clone();
                direct.solve_in_place(&Parallel, &mut x_direct).unwrap();

                let iter = IterativeSplineSolver::new(sp, IterativeConfig::gpu()).unwrap();
                let mut x_iter = rhs.clone();
                let log = iter.solve_in_place(&mut x_iter, None).unwrap();
                assert!(log.all_converged());
                assert!(
                    x_direct.max_abs_diff(&x_iter) < 1e-9,
                    "deg {degree} uniform {uniform}: {}",
                    x_direct.max_abs_diff(&x_iter)
                );
            }
        }
    }

    #[test]
    fn iteration_counts_grow_with_degree() {
        // Table IV's headline trend: higher degree => more iterations.
        let mut counts = Vec::new();
        for degree in [3, 4, 5] {
            let sp = space(64, degree, true);
            let iter = IterativeSplineSolver::new(sp, IterativeConfig::gpu()).unwrap();
            let mut rng = TestRng::seed_from_u64(1);
            let mut b = Matrix::from_fn(64, 4, Layout::Left, |_, _| rng.gen_range(-1.0..1.0));
            let log = iter.solve_in_place(&mut b, None).unwrap();
            counts.push(log.max_iterations());
        }
        assert!(
            counts[0] <= counts[1] && counts[1] <= counts[2],
            "iterations should grow with degree: {counts:?}"
        );
    }

    #[test]
    fn gmres_and_bicgstab_agree() {
        let sp = space(40, 3, true);
        let mut rng = TestRng::seed_from_u64(9);
        let rhs = Matrix::from_fn(40, 5, Layout::Left, |_, _| rng.gen_range(-1.0..1.0));
        let g = IterativeSplineSolver::new(sp.clone(), IterativeConfig::cpu()).unwrap();
        let mut xg = rhs.clone();
        g.solve_in_place(&mut xg, None).unwrap();
        let b = IterativeSplineSolver::new(sp, IterativeConfig::gpu()).unwrap();
        let mut xb = rhs.clone();
        b.solve_in_place(&mut xb, None).unwrap();
        assert!(xg.max_abs_diff(&xb) < 1e-10);
    }

    #[test]
    fn warm_start_reduces_work() {
        let sp = space(48, 4, true);
        let solver = IterativeSplineSolver::new(sp.clone(), IterativeConfig::gpu()).unwrap();
        let pts = sp.interpolation_points();
        let mut b0 = Matrix::from_fn(48, 4, Layout::Left, |i, _| {
            (std::f64::consts::TAU * pts[i]).sin()
        });
        let log_cold = solver.solve_in_place(&mut b0, None).unwrap();
        // Next "time step": nearly identical values, warm-started from b0.
        let mut b1 = Matrix::from_fn(48, 4, Layout::Left, |i, _| {
            (std::f64::consts::TAU * (pts[i] + 1e-4)).sin()
        });
        let log_warm = solver.solve_in_place(&mut b1, Some(&b0)).unwrap();
        assert!(
            log_warm.max_iterations() <= log_cold.max_iterations(),
            "warm {} cold {}",
            log_warm.max_iterations(),
            log_cold.max_iterations()
        );
    }

    #[test]
    fn invalid_config_rejected() {
        let sp = space(16, 3, true);
        let mut cfg = IterativeConfig::cpu();
        cfg.max_block_size = 0;
        assert!(IterativeSplineSolver::new(sp, cfg).is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let sp = space(16, 3, true);
        let solver = IterativeSplineSolver::new(sp, IterativeConfig::cpu()).unwrap();
        let mut b = Matrix::zeros(17, 2, Layout::Left);
        assert!(solver.solve_in_place(&mut b, None).is_err());
        // A warm start of the wrong shape is refused, not a panic.
        let mut b = Matrix::zeros(16, 2, Layout::Left);
        let previous = Matrix::zeros(16, 3, Layout::Left);
        assert!(solver.solve_in_place(&mut b, Some(&previous)).is_err());
    }
}
