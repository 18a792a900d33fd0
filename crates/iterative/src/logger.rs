//! Convergence logging — the analogue of the Ginkgo `convergence_logger`
//! the paper attaches around each chunked solve (Listing 3, lines 27/31),
//! extended with per-lane health.
//!
//! Records are stored in *lane order*: the `i`-th recorded result belongs
//! to right-hand-side column `i` of the multi-RHS block. Each lane keeps
//! its own record, as in Nguyen, Nayak & Anzt's batched solvers: a lane
//! that broke down is reported, not retried.

use crate::breakdown::BreakdownKind;
use crate::multirhs::LaneOutcome;
use crate::solver::SolveResult;

/// Aggregates per-right-hand-side solve outcomes across a multi-RHS run.
#[derive(Debug, Clone, Default)]
pub struct ConvergenceLogger {
    results: Vec<SolveResult>,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res(iterations: usize, converged: bool, rr: f64) -> SolveResult {
        let breakdown = (!converged).then_some(BreakdownKind::MaxIters);
        SolveResult {
            iterations,
            converged,
            relative_residual: rr,
            breakdown,
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
        assert_eq!(log.lane_outcome(0), LaneOutcome::Converged);
        assert_eq!(log.lane_outcome(1), LaneOutcome::Stalled);
    }

    #[test]
    fn empty_logger() {
        let log = ConvergenceLogger::new();
        assert_eq!(log.max_iterations(), 0);
        assert!(log.all_converged());
        assert!(log.breakdown_census().is_empty());
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
}
