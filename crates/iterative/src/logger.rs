//! Convergence logging — the analogue of the Ginkgo `convergence_logger`
//! the paper attaches around each chunked solve (Listing 3, lines 27/31),
//! extended with per-lane health and the recovery report the fault
//! handling layer produces.
//!
//! Records are stored in *lane order*: the `i`-th recorded result belongs
//! to right-hand-side column `i` of the multi-RHS block. Recovery stages
//! overwrite individual lane records via [`ConvergenceLogger::update_lane`]
//! and append a [`RecoveryEvent`] describing what was attempted.

use crate::breakdown::BreakdownKind;
use crate::multirhs::LaneOutcome;
use crate::solver::SolveResult;

/// One rung of the recovery ladder (see the `RecoveryPolicy` of
/// `pp-splinesolver`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryStage {
    /// Retry with a stronger (larger-block) block-Jacobi preconditioner.
    Reprecondition,
    /// Retry with a different Krylov method.
    SolverSwitch,
    /// Hand the lane to the direct Schur-complement builder.
    DirectFallback,
}

impl std::fmt::Display for RecoveryStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryStage::Reprecondition => write!(f, "re-precondition"),
            RecoveryStage::SolverSwitch => write!(f, "solver switch"),
            RecoveryStage::DirectFallback => write!(f, "direct fallback"),
        }
    }
}

/// What one recovery rung attempted and achieved.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Which rung ran.
    pub stage: RecoveryStage,
    /// Lanes that were retried.
    pub lanes_attempted: Vec<usize>,
    /// The subset that ended healthy afterwards.
    pub lanes_recovered: Vec<usize>,
}

/// Aggregates per-right-hand-side solve outcomes across a multi-RHS run.
#[derive(Debug, Clone, Default)]
pub struct ConvergenceLogger {
    results: Vec<SolveResult>,
    recovery: Vec<RecoveryEvent>,
}

impl ConvergenceLogger {
    /// Fresh logger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one solve (appends — lane index is the record order).
    pub fn record(&mut self, result: SolveResult) {
        self.results.push(result);
    }

    /// Replace lane `lane`'s record after a recovery attempt.
    ///
    /// # Panics
    /// Panics if `lane` was never recorded.
    pub fn update_lane(&mut self, lane: usize, result: SolveResult) {
        self.results[lane] = result;
    }

    /// All per-lane records, in lane order.
    pub fn lane_results(&self) -> &[SolveResult] {
        &self.results
    }

    /// The record of one lane, if it exists.
    pub fn lane_result(&self, lane: usize) -> Option<&SolveResult> {
        self.results.get(lane)
    }

    /// The typed outcome of one lane (panics if out of range).
    pub fn lane_outcome(&self, lane: usize) -> LaneOutcome {
        LaneOutcome::from_result(&self.results[lane])
    }

    /// Typed outcomes of every lane, in lane order.
    pub fn outcomes(&self) -> Vec<LaneOutcome> {
        self.results.iter().map(LaneOutcome::from_result).collect()
    }

    /// Lanes that did not converge, in ascending order.
    pub fn failed_lanes(&self) -> Vec<usize> {
        self.results
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.converged)
            .map(|(i, _)| i)
            .collect()
    }

    /// How many lanes ended in each breakdown kind (sorted by kind's
    /// taxonomy order; kinds with zero counts omitted).
    pub fn breakdown_census(&self) -> Vec<(BreakdownKind, usize)> {
        use BreakdownKind::*;
        [RhoZero, OmegaZero, NonFiniteResidual, Stagnation, MaxIters]
            .into_iter()
            .filter_map(|kind| {
                let count = self
                    .results
                    .iter()
                    .filter(|r| r.breakdown == Some(kind))
                    .count();
                (count > 0).then_some((kind, count))
            })
            .collect()
    }

    /// Append one recovery event to the report.
    pub fn record_recovery(&mut self, event: RecoveryEvent) {
        self.recovery.push(event);
    }

    /// The recovery report: every ladder rung that ran, in order.
    pub fn recovery_events(&self) -> &[RecoveryEvent] {
        &self.recovery
    }

    /// Number of recorded solves.
    pub fn count(&self) -> usize {
        self.results.len()
    }

    /// Whether every recorded solve converged.
    pub fn all_converged(&self) -> bool {
        self.results.iter().all(|r| r.converged)
    }

    /// Largest iteration count over all solves — the figure the paper's
    /// Table IV reports ("the number of iterations for each chunk remains
    /// constant", i.e. max == typical).
    pub fn max_iterations(&self) -> usize {
        self.results.iter().map(|r| r.iterations).max().unwrap_or(0)
    }

    /// Worst final relative residual. NaN residuals dominate: if any
    /// lane's residual is NaN the census is NaN, so a poisoned batch can
    /// never masquerade as a healthy one.
    pub fn worst_residual(&self) -> f64 {
        self.results
            .iter()
            .map(|r| r.relative_residual)
            .fold(0.0, |acc, r| if r.is_nan() { r } else { acc.max(r) })
    }

    /// Clear all records and the recovery report.
    pub fn reset(&mut self) {
        self.results.clear();
        self.recovery.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res(iterations: usize, converged: bool, rr: f64) -> SolveResult {
        if converged {
            SolveResult::converged(iterations, rr)
        } else {
            SolveResult::broken(iterations, rr, BreakdownKind::MaxIters)
        }
    }

    #[test]
    fn aggregation() {
        let mut log = ConvergenceLogger::new();
        log.record(res(10, true, 1e-16));
        log.record(res(14, true, 5e-16));
        log.record(res(12, true, 2e-16));
        assert_eq!(log.count(), 3);
        assert_eq!(log.max_iterations(), 14);
        assert!(log.all_converged());
        assert_eq!(log.worst_residual(), 5e-16);
    }

    #[test]
    fn divergence_detected() {
        let mut log = ConvergenceLogger::new();
        log.record(res(10, true, 1e-16));
        log.record(res(10_000, false, 1e-3));
        assert!(!log.all_converged());
        assert_eq!(log.failed_lanes(), vec![1]);
    }

    #[test]
    fn empty_logger() {
        let log = ConvergenceLogger::new();
        assert_eq!(log.max_iterations(), 0);
        assert!(log.all_converged());
        assert!(log.failed_lanes().is_empty());
        assert!(log.breakdown_census().is_empty());
    }

    #[test]
    fn reset_clears() {
        let mut log = ConvergenceLogger::new();
        log.record(res(5, true, 0.0));
        log.record_recovery(RecoveryEvent {
            stage: RecoveryStage::DirectFallback,
            lanes_attempted: vec![0],
            lanes_recovered: vec![0],
        });
        log.reset();
        assert_eq!(log.count(), 0);
        assert!(log.recovery_events().is_empty());
    }

    #[test]
    fn nan_residual_poisons_worst() {
        let mut log = ConvergenceLogger::new();
        log.record(res(3, true, 1e-16));
        log.record(SolveResult::broken(
            0,
            f64::NAN,
            BreakdownKind::NonFiniteResidual,
        ));
        assert!(log.worst_residual().is_nan());
    }

    #[test]
    fn census_counts_kinds() {
        let mut log = ConvergenceLogger::new();
        log.record(res(3, true, 1e-16));
        log.record(SolveResult::broken(
            0,
            f64::NAN,
            BreakdownKind::NonFiniteResidual,
        ));
        log.record(SolveResult::broken(9, 0.5, BreakdownKind::RhoZero));
        log.record(SolveResult::broken(9, 0.5, BreakdownKind::RhoZero));
        assert_eq!(
            log.breakdown_census(),
            vec![
                (BreakdownKind::RhoZero, 2),
                (BreakdownKind::NonFiniteResidual, 1)
            ]
        );
    }

    #[test]
    fn update_lane_and_recovery_report() {
        let mut log = ConvergenceLogger::new();
        log.record(res(3, true, 1e-16));
        log.record(SolveResult::broken(100, 0.9, BreakdownKind::Stagnation));
        assert_eq!(log.failed_lanes(), vec![1]);
        log.update_lane(1, SolveResult::converged(0, 1e-16));
        log.record_recovery(RecoveryEvent {
            stage: RecoveryStage::DirectFallback,
            lanes_attempted: vec![1],
            lanes_recovered: vec![1],
        });
        assert!(log.all_converged());
        assert_eq!(log.recovery_events().len(), 1);
        assert_eq!(
            log.recovery_events()[0].stage,
            RecoveryStage::DirectFallback
        );
    }
}
