//! The Ginkgo-style iterative spline backend (§III-B of the paper).
//!
//! Same job as [`SplineBuilder`](crate::SplineBuilder) — turn a batch of
//! interpolation values into spline coefficients — but via Krylov iteration
//! on the CSR-stored matrix, one independent lane at a time
//! ([`LaneKrylov::solve`]), with block-Jacobi preconditioning and optional
//! warm starts from the previous time step. Every batched solve, the step's
//! and the host matrix's alike, runs the backend's one lane region. A lane
//! that does not converge is reported, not retried: the one repair ladder
//! is the direct path's ([`crate::VerifiedBuilder`]).

use crate::builder::Solved;
use crate::error::{Error, Result};
use pp_bsplines::{assemble_interpolation_matrix, PeriodicSplineSpace};
use pp_iterative::{
    BiCgStab, BlockJacobi, ConvergenceLogger, Gmres, IterativeSolver, LaneKrylov, LaneResults,
    StopCriteria,
};
use pp_portable::{
    ExecSpace, Field, Matrix, Parallel, ResidentBatch, Run, Strided, StridedMut, LANE_WIDTH,
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

/// A ready-to-solve iterative spline solver: the CSR matrix, its
/// block-Jacobi preconditioner and the Krylov configuration. Every batched
/// solve runs the backend's one lane region, each lane the scalar
/// [`LaneKrylov::solve`]: the step's [`IterativeSplineSolver::solve_then`]
/// on its field, [`IterativeSplineSolver::solve_in_place`] on a packed copy
/// of its matrix.
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
        let rhs = ResidentBatch::pack_with(&Parallel, b);
        let guess = previous.map(|p| ResidentBatch::pack_with(&Parallel, p));
        let mut eta = ResidentBatch::zeros(b.nrows(), b.ncols());
        let logger = self.solve_lanes(&Parallel, &rhs, &mut eta, guess.as_ref())?;
        eta.unpack_into_with(&Parallel, b)?;
        converged(logger)
    }

    /// **Fused entry point**, the counterpart of
    /// [`SplineBuilder::solve_then`](crate::SplineBuilder::solve_then) for a
    /// backend whose solve is the per-lane Krylov body: two regions on
    /// `exec` over the field `b`'s blocks. The first is the backend's one
    /// lane region: it solves every lane of block `c` where it lies —
    /// right-hand side read from `b`, initial guess from panel `c` of
    /// `previous` (the last step's coefficients; zeros without them or with
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
        let lanes = self.solve_lanes(exec, &*b, eta, previous);
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

    /// The backend's one lane region, on `exec`: lane `j` of the field `b`
    /// is solved by the per-lane body ([`LaneKrylov::solve`]) into lane `j`
    /// of `eta`, a coefficient store of
    /// `b`'s shape, from lane `j` of `previous` (zeros without it or with
    /// [`IterativeConfig::warm_start`] off). Every lane's last iterate lands
    /// in `eta`, converged or not, and its result in the returned logger,
    /// in lane order.
    fn solve_lanes<E: ExecSpace, B: Field>(
        &self,
        exec: &E,
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
        let solver = self.krylov();
        let krylov = LaneKrylov {
            a: &self.matrix,
            solver: solver.as_ref(),
            precond: &self.precond,
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

    fn check_rows(&self, rows: usize) -> Result<()> {
        if rows != self.space.num_basis() {
            return Err(Error::ShapeMismatch {
                expected_rows: self.space.num_basis(),
                actual_rows: rows,
            });
        }
        Ok(())
    }

    fn krylov(&self) -> Box<dyn IterativeSolver> {
        match self.config.kind {
            KrylovKind::Gmres => Box::new(Gmres::default()),
            KrylovKind::BiCgStab => Box::new(BiCgStab),
        }
    }
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
    use pp_bsplines::Breaks;
    use pp_portable::{Layout, TestRng};

    fn space(n: usize, degree: usize, uniform: bool) -> PeriodicSplineSpace {
        let breaks = if uniform {
            Breaks::uniform(n, 0.0, 1.0).unwrap()
        } else {
            Breaks::graded(n, 0.0, 1.0, 0.6).unwrap()
        };
        PeriodicSplineSpace::new(breaks, degree).unwrap()
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
