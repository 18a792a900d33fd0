//! Chunked multi-right-hand-side driver — the paper's Listing 3 — with
//! per-lane fault isolation.
//!
//! Ginkgo could not hold all ~10⁵ right-hand sides at once (memory) and its
//! CUDA/HIP backends cap the batch at 65535, so the paper *pipelines along
//! the batch direction*: right-hand sides are processed in chunks
//! (`cols_per_chunk` = 8192 on CPUs, 65535 on GPUs), each chunk copied into
//! a contiguous buffer, solved, and copied back over the input (in-place
//! semantics). The previous time step's solution is used as the initial
//! guess (warm start), which the paper notes makes a good guess for a
//! slowly-evolving advection problem.
//!
//! **Fault isolation.** Lanes are independent systems; one poisoned column
//! (NaN right-hand side, Krylov breakdown, stagnation) must not doom its
//! chunk. Each lane therefore ends in a typed [`LaneOutcome`] —
//! [`Converged`](LaneOutcome::Converged), [`Broke`](LaneOutcome::Broke)
//! with its [`BreakdownKind`], or [`Stalled`](LaneOutcome::Stalled) — and
//! healthy lanes keep their solutions regardless of what their neighbours
//! did. The per-lane records land in the [`ConvergenceLogger`] in lane
//! order, ready for the recovery ladder of `pp-splinesolver` to retry the
//! casualties.

use crate::breakdown::BreakdownKind;
use crate::logger::ConvergenceLogger;
use crate::precond::Preconditioner;
use crate::solver::{IterativeSolver, SolveResult};
use crate::stop::StopCriteria;
use pp_portable::instrument::{counter, trace_instant_lane, Counter, InstantKind, PhaseId, Span};
use pp_portable::{parallel_for_each_mut, Matrix};
use pp_sparse::Csr;
use std::sync::OnceLock;

/// Chunk size the paper uses on CPUs.
pub const CPU_COLS_PER_CHUNK: usize = 8192;
/// Chunk size the paper uses on GPUs (the CUDA/HIP grid-dimension limit).
pub const GPU_COLS_PER_CHUNK: usize = 65535;

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

/// Cached per-outcome lane counters.
struct LaneMetrics {
    converged: Counter,
    broke: Counter,
    stalled: Counter,
}

impl LaneMetrics {
    fn of(&self, outcome: LaneOutcome) -> &Counter {
        match outcome {
            LaneOutcome::Converged => &self.converged,
            LaneOutcome::Broke(_) => &self.broke,
            LaneOutcome::Stalled => &self.stalled,
        }
    }
}

fn lane_metrics() -> &'static LaneMetrics {
    static METRICS: OnceLock<LaneMetrics> = OnceLock::new();
    METRICS.get_or_init(|| LaneMetrics {
        converged: counter("krylov.lanes.converged"),
        broke: counter("krylov.lanes.broke"),
        stalled: counter("krylov.lanes.stalled"),
    })
}

/// Drives an [`IterativeSolver`] over every column of a right-hand-side
/// block, chunk by chunk.
pub struct ChunkedSolver<'a> {
    solver: &'a dyn IterativeSolver,
    precond: &'a dyn Preconditioner,
    stop: StopCriteria,
    cols_per_chunk: usize,
    /// Use the incoming contents of the solution block as initial guesses.
    warm_start: bool,
}

impl<'a> ChunkedSolver<'a> {
    /// New driver with the paper's CPU chunk size and warm starting on.
    ///
    /// # Panics
    /// Panics if `cols_per_chunk == 0`.
    pub fn new(
        solver: &'a dyn IterativeSolver,
        precond: &'a dyn Preconditioner,
        stop: StopCriteria,
        cols_per_chunk: usize,
    ) -> Self {
        assert!(cols_per_chunk > 0, "cols_per_chunk must be positive");
        Self {
            solver,
            precond,
            stop,
            cols_per_chunk,
            warm_start: true,
        }
    }

    /// Toggle warm starting (on by default).
    pub fn warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }

    /// Solve `A X = B` for every column of `b`, **in place**: on entry `b`
    /// holds the right-hand sides, on exit the solutions (the paper's
    /// Listing 3 copies the chunk solution back over `b`).
    ///
    /// `x_guess`, when provided with `warm_start`, supplies per-column
    /// initial guesses (e.g. the previous time step's spline
    /// coefficients). Must have the same shape as `b`.
    ///
    /// Columns within a chunk are solved concurrently (Ginkgo parallelises
    /// internally; here the parallelism is across independent columns).
    /// Every lane ends in a typed [`LaneOutcome`]; a broken lane never
    /// prevents its neighbours from converging and writing back their
    /// solutions. Per-lane [`SolveResult`]s are appended to `logger` in
    /// lane order; the returned vector gives the same information as
    /// typed outcomes.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn solve_in_place(
        &self,
        a: &Csr,
        b: &mut Matrix,
        x_guess: Option<&Matrix>,
        logger: &mut ConvergenceLogger,
    ) -> Vec<LaneOutcome> {
        let n = a.nrows();
        assert_eq!(b.nrows(), n, "solve_in_place: rhs rows != matrix order");
        if let Some(g) = x_guess {
            assert_eq!(g.shape(), b.shape(), "solve_in_place: guess shape");
        }
        let batch = b.ncols();
        let mut outcomes = Vec::with_capacity(batch);
        let main_chunk_size = self.cols_per_chunk.min(batch.max(1));
        let iend = batch.div_ceil(main_chunk_size);

        for chunk in 0..iend {
            let begin = chunk * main_chunk_size;
            let end = if chunk + 1 == iend {
                batch
            } else {
                begin + main_chunk_size
            };

            // Copy the chunk into contiguous per-lane buffers (Listing 3's
            // deep_copy into b_buffer / x), solve each lane, copy back.
            struct LaneSlot {
                rhs: Vec<f64>,
                x: Vec<f64>,
                result: Option<SolveResult>,
            }
            let mut slots: Vec<LaneSlot> = (begin..end)
                .map(|j| {
                    let rhs = b.col(j).to_vec();
                    let x = match (self.warm_start, x_guess) {
                        (true, Some(g)) => g.col(j).to_vec(),
                        _ => vec![0.0; n],
                    };
                    LaneSlot {
                        rhs,
                        x,
                        result: None,
                    }
                })
                .collect();

            let run = |offset: usize, slot: &mut LaneSlot| {
                let _span = Span::enter_lane(PhaseId::KrylovIter, (begin + offset) as u32);
                let res = self
                    .solver
                    .solve(a, self.precond, &slot.rhs, &mut slot.x, &self.stop);
                slot.result = Some(res);
            };
            parallel_for_each_mut(&mut slots, run);

            for (offset, slot) in slots.into_iter().enumerate() {
                let res = slot
                    .result
                    .expect("every lane of the chunk is claimed once");
                b.col_mut(begin + offset).copy_from_slice(&slot.x);
                logger.record(res);
                if let Some(kind) = res.breakdown {
                    trace_instant_lane(
                        match kind {
                            BreakdownKind::RhoZero => InstantKind::BreakdownRhoZero,
                            BreakdownKind::OmegaZero => InstantKind::BreakdownOmegaZero,
                            BreakdownKind::NonFiniteResidual => {
                                InstantKind::BreakdownNonFiniteResidual
                            }
                            BreakdownKind::Stagnation => InstantKind::BreakdownStagnation,
                            BreakdownKind::MaxIters => InstantKind::BreakdownMaxIters,
                        },
                        (begin + offset) as u32,
                    );
                }
                let outcome = LaneOutcome::from_result(&res);
                lane_metrics().of(outcome).inc();
                outcomes.push(outcome);
            }
        }
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicgstab::BiCgStab;
    use crate::gmres::Gmres;
    use crate::precond::BlockJacobi;
    use pp_portable::{Layout, TestRng};

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
    fn solves_every_column_across_chunks() {
        let n = 20;
        let a = system(n);
        let mut rng = TestRng::seed_from_u64(5);
        let x_true = Matrix::from_fn(n, 23, Layout::Left, |_, _| rng.gen_range(-1.0..1.0));
        let mut b = Matrix::zeros(n, 23, Layout::Left);
        for j in 0..23 {
            let bx = a.spmv_alloc(&x_true.col(j).to_vec());
            b.col_mut(j).copy_from_slice(&bx);
        }
        let bj = BlockJacobi::new(&a, 4);
        let driver = ChunkedSolver::new(&BiCgStab, &bj, StopCriteria::with_tol(1e-13), 7);
        let mut log = ConvergenceLogger::new();
        let outcomes = driver.solve_in_place(&a, &mut b, None, &mut log);
        assert_eq!(log.count(), 23);
        assert!(log.all_converged());
        assert!(outcomes.iter().all(|o| o.is_healthy()));
        assert!(b.max_abs_diff(&x_true) < 1e-8);
    }

    #[test]
    fn chunk_boundaries_exact_multiple() {
        let n = 8;
        let a = system(n);
        let mut b = Matrix::zeros(n, 12, Layout::Left);
        b.fill(1.0);
        let bj = BlockJacobi::new(&a, 2);
        let gmres = Gmres::default();
        let driver = ChunkedSolver::new(&gmres, &bj, StopCriteria::with_tol(1e-12), 4);
        let mut log = ConvergenceLogger::new();
        driver.solve_in_place(&a, &mut b, None, &mut log);
        assert_eq!(log.count(), 12);
        assert!(log.all_converged());
        // All columns identical => all solutions identical.
        for j in 1..12 {
            for i in 0..n {
                assert!((b.get(i, j) - b.get(i, 0)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let n = 40;
        let a = system(n);
        let mut rng = TestRng::seed_from_u64(9);
        // "Previous time step" solution: the exact solution slightly
        // perturbed, as the paper's advection produces.
        let x_exact = Matrix::from_fn(n, 10, Layout::Left, |_, _| rng.gen_range(-1.0..1.0));
        let mut b = Matrix::zeros(n, 10, Layout::Left);
        for j in 0..10 {
            b.col_mut(j)
                .copy_from_slice(&a.spmv_alloc(&x_exact.col(j).to_vec()));
        }
        let guess = {
            let mut g = x_exact.clone();
            for j in 0..10 {
                for i in 0..n {
                    let v = g.get(i, j) + 1e-6 * ((i + j) as f64).sin();
                    g.set(i, j, v);
                }
            }
            g
        };
        let bj = BlockJacobi::new(&a, 8);
        let stop = StopCriteria::with_tol(1e-13);

        let mut b_cold = b.clone();
        let mut log_cold = ConvergenceLogger::new();
        ChunkedSolver::new(&BiCgStab, &bj, stop.clone(), 100)
            .warm_start(false)
            .solve_in_place(&a, &mut b_cold, Some(&guess), &mut log_cold);

        let mut b_warm = b.clone();
        let mut log_warm = ConvergenceLogger::new();
        ChunkedSolver::new(&BiCgStab, &bj, stop, 100).solve_in_place(
            &a,
            &mut b_warm,
            Some(&guess),
            &mut log_warm,
        );

        assert!(log_cold.all_converged() && log_warm.all_converged());
        assert!(
            log_warm.total_iterations() < log_cold.total_iterations(),
            "warm {} vs cold {}",
            log_warm.total_iterations(),
            log_cold.total_iterations()
        );
    }

    #[test]
    fn single_column_and_oversized_chunk() {
        let n = 6;
        let a = system(n);
        let mut b = Matrix::zeros(n, 1, Layout::Left);
        b.fill(2.0);
        let bj = BlockJacobi::new(&a, 3);
        let driver = ChunkedSolver::new(&BiCgStab, &bj, StopCriteria::with_tol(1e-12), 10_000);
        let mut log = ConvergenceLogger::new();
        driver.solve_in_place(&a, &mut b, None, &mut log);
        assert_eq!(log.count(), 1);
        assert!(log.all_converged());
    }

    #[test]
    fn poisoned_lane_does_not_doom_its_chunk() {
        // Three lanes in ONE chunk; the middle lane's rhs is NaN.
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
        let driver = ChunkedSolver::new(&BiCgStab, &bj, StopCriteria::with_tol(1e-13), 64);
        let mut log = ConvergenceLogger::new();
        let outcomes = driver.solve_in_place(&a, &mut b, None, &mut log);

        assert_eq!(
            outcomes[1],
            LaneOutcome::Broke(BreakdownKind::NonFiniteResidual)
        );
        // The poisoned lane is diagnosed instantly, not after max_iters.
        assert_eq!(log.lane_results()[1].iterations, 0);
        // Healthy neighbours converge and keep their solutions.
        for j in [0usize, 2] {
            assert!(outcomes[j].is_healthy(), "lane {j}: {:?}", outcomes[j]);
            for i in 0..n {
                assert!((b.get(i, j) - x_true.get(i, j)).abs() < 1e-8);
            }
        }
        assert_eq!(log.failed_lanes(), vec![1]);
    }

    #[test]
    fn starved_lanes_report_stalled() {
        let n = 30;
        let a = system(n);
        let mut b = Matrix::zeros(n, 2, Layout::Left);
        b.fill(1.0);
        let bj = BlockJacobi::new(&a, 1);
        // One iteration is nowhere near enough at 1e-13.
        let stop = StopCriteria::with_tol(1e-13).with_max_iters(1);
        let driver = ChunkedSolver::new(&BiCgStab, &bj, stop, 64);
        let mut log = ConvergenceLogger::new();
        let outcomes = driver.solve_in_place(&a, &mut b, None, &mut log);
        assert!(outcomes.iter().all(|o| *o == LaneOutcome::Stalled));
        assert!(log
            .lane_results()
            .iter()
            .all(|r| r.breakdown == Some(BreakdownKind::MaxIters)));
    }
}
