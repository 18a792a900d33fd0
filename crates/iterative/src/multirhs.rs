//! The per-lane Krylov body every batched solve runs, with per-lane fault
//! isolation.
//!
//! The paper pipelines Ginkgo's solves in chunks of 8192 / 65535
//! right-hand sides because Ginkgo could not hold the whole batch and
//! CUDA/HIP cap a grid at 65535 (§III-B). Here every lane is an
//! independent scalar solve ([`LaneKrylov::solve`]), so there is nothing
//! to chunk: a batch is one region over its lanes, each solved where it
//! lies, warm-started from whatever its solution buffer holds (the
//! previous time step's coefficients, which the paper notes make a good
//! guess for a slowly-evolving advection problem).
//!
//! **Fault isolation.** Lanes are independent systems; one poisoned lane
//! (NaN right-hand side, Krylov breakdown, stagnation) must not doom its
//! neighbours. Each lane therefore ends in a typed [`LaneOutcome`] —
//! [`Converged`](LaneOutcome::Converged), [`Broke`](LaneOutcome::Broke)
//! with its [`BreakdownKind`], or [`Stalled`](LaneOutcome::Stalled) — and
//! healthy lanes keep their solutions regardless of what their neighbours
//! did. A region fills one [`LaneResults`] slot per lane, and the slots
//! land in the [`ConvergenceLogger`] in lane order.

use crate::breakdown::BreakdownKind;
use crate::logger::ConvergenceLogger;
use crate::precond::Preconditioner;
use crate::solver::{IterativeSolver, SolveResult};
use crate::stop::StopCriteria;
use pp_sparse::Csr;
use std::sync::OnceLock;

/// How one batch lane (one right-hand-side column) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneOutcome {
    /// The lane met the stopping criterion; its solution is in place.
    Converged,
    /// A hard Krylov breakdown ([`BreakdownKind::is_hard`]); the lane's
    /// buffer holds the last iterate, which may be garbage (NaN for
    /// poisoned inputs).
    Broke(BreakdownKind),
    /// The lane ran out of iterations or stagnated with a finite
    /// residual; the buffer holds the best partial iterate.
    Stalled,
}

impl LaneOutcome {
    /// Classify a solve result.
    pub fn from_result(result: &SolveResult) -> Self {
        if result.converged {
            LaneOutcome::Converged
        } else {
            match result.breakdown {
                Some(kind) if kind.is_hard() => LaneOutcome::Broke(kind),
                // Stagnation / MaxIters / missing diagnosis: soft stall.
                _ => LaneOutcome::Stalled,
            }
        }
    }

    /// `true` for [`LaneOutcome::Converged`].
    pub fn is_healthy(&self) -> bool {
        matches!(self, LaneOutcome::Converged)
    }
}

/// One Krylov configuration — method, preconditioner, stopping rule — on
/// one matrix: the per-lane body. The batch region that runs it belongs to
/// its caller; `pp-splinesolver`'s iterative backend runs every batched
/// solve, host matrix or step field, through one such region.
#[derive(Clone, Copy)]
pub struct LaneKrylov<'a> {
    /// The system matrix every lane shares.
    pub a: &'a Csr,
    /// The Krylov method.
    pub solver: &'a dyn IterativeSolver,
    /// Its preconditioner.
    pub precond: &'a dyn Preconditioner,
    /// When a lane stops.
    pub stop: &'a StopCriteria,
}

impl LaneKrylov<'_> {
    /// **The per-lane body**: solve one lane's system `A x = rhs`, `x`
    /// holding the initial guess on entry (the warm start; zeros for a cold
    /// one) and the last iterate on exit, converged or not.
    pub fn solve(&self, rhs: &[f64], x: &mut [f64]) -> SolveResult {
        self.solver.solve(self.a, self.precond, rhs, x, self.stop)
    }
}

/// The results of one batched solve, one slot per lane, each filled once by
/// whichever worker solved the lane.
pub struct LaneResults(Vec<OnceLock<SolveResult>>);

impl LaneResults {
    /// `lanes` empty slots.
    pub fn new(lanes: usize) -> Self {
        Self((0..lanes).map(|_| OnceLock::new()).collect())
    }

    /// Fill lane `lane`'s slot.
    ///
    /// # Panics
    /// Panics if the slot is already filled.
    pub fn set(&self, lane: usize, result: SolveResult) {
        self.0[lane].set(result).expect("each lane is solved once");
    }

    /// Append the results to `logger` in lane order.
    ///
    /// # Panics
    /// Panics if a slot was never filled.
    pub fn record(self, logger: &mut ConvergenceLogger) {
        for slot in self.0 {
            logger.record(slot.into_inner().expect("every lane is solved"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicgstab::BiCgStab;
    use crate::precond::BlockJacobi;
    use pp_portable::{Layout, Matrix, TestRng};

    fn system(n: usize) -> Csr {
        Csr::from_dense(
            &pp_portable::Matrix::from_fn(n, n, Layout::Right, |i, j| {
                if i == j {
                    4.0
                } else if i.abs_diff(j) == 1 {
                    -1.0
                } else {
                    0.0
                }
            }),
            0.0,
        )
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let n = 40;
        let a = system(n);
        let mut rng = TestRng::seed_from_u64(9);
        // "Previous time step" solution: the exact solution slightly
        // perturbed, as the paper's advection produces.
        let x_exact = Matrix::from_fn(n, 10, Layout::Left, |_, _| rng.gen_range(-1.0..1.0));
        let bj = BlockJacobi::new(&a, 8);
        let stop = StopCriteria::with_tol(1e-13);
        let lanes = LaneKrylov {
            a: &a,
            solver: &BiCgStab,
            precond: &bj,
            stop: &stop,
        };
        let (mut cold, mut warm) = (0, 0);
        for j in 0..10 {
            let rhs = a.spmv_alloc(&x_exact.col(j).to_vec());
            let mut x = vec![0.0; n];
            let res_cold = lanes.solve(&rhs, &mut x);
            let mut x: Vec<f64> = (0..n)
                .map(|i| x_exact.get(i, j) + 1e-6 * ((i + j) as f64).sin())
                .collect();
            let res_warm = lanes.solve(&rhs, &mut x);
            assert!(res_cold.converged && res_warm.converged, "lane {j}");
            (cold, warm) = (cold + res_cold.iterations, warm + res_warm.iterations);
        }
        assert!(warm < cold, "warm {warm} vs cold {cold}");
    }

    #[test]
    fn poisoned_lane_does_not_doom_its_chunk() {
        // Three lanes; the middle lane's rhs is NaN.
        let n = 12;
        let a = system(n);
        let mut rng = TestRng::seed_from_u64(11);
        let x_true = Matrix::from_fn(n, 3, Layout::Left, |_, _| rng.gen_range(-1.0..1.0));
        let mut b = Matrix::zeros(n, 3, Layout::Left);
        for j in 0..3 {
            b.col_mut(j)
                .copy_from_slice(&a.spmv_alloc(&x_true.col(j).to_vec()));
        }
        b.set(4, 1, f64::NAN);
        let bj = BlockJacobi::new(&a, 4);
        let stop = StopCriteria::with_tol(1e-13);
        let lanes = LaneKrylov {
            a: &a,
            solver: &BiCgStab,
            precond: &bj,
            stop: &stop,
        };
        let mut log = ConvergenceLogger::new();
        for j in 0..3 {
            let mut x = vec![0.0; n];
            log.record(lanes.solve(&b.col(j).to_vec(), &mut x));
            b.col_mut(j).copy_from_slice(&x);
        }
        let outcomes = log.outcomes();

        assert_eq!(
            outcomes[1],
            LaneOutcome::Broke(BreakdownKind::NonFiniteResidual)
        );
        // The poisoned lane is diagnosed instantly, not after max_iters.
        assert_eq!(log.lane_result(1).map(|r| r.iterations), Some(0));
        // Healthy neighbours converge and keep their solutions.
        for j in [0usize, 2] {
            assert!(outcomes[j].is_healthy(), "lane {j}: {:?}", outcomes[j]);
            for i in 0..n {
                assert!((b.get(i, j) - x_true.get(i, j)).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn starved_lanes_report_stalled() {
        let n = 30;
        let a = system(n);
        let bj = BlockJacobi::new(&a, 1);
        // One iteration is nowhere near enough at 1e-13.
        let stop = StopCriteria::with_tol(1e-13).with_max_iters(1);
        let lanes = LaneKrylov {
            a: &a,
            solver: &BiCgStab,
            precond: &bj,
            stop: &stop,
        };
        let rhs = vec![1.0; n];
        for _ in 0..2 {
            let res = lanes.solve(&rhs, &mut vec![0.0; n]);
            assert_eq!(LaneOutcome::from_result(&res), LaneOutcome::Stalled);
            assert_eq!(res.breakdown, Some(BreakdownKind::MaxIters));
        }
    }
}
