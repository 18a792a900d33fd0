//! Stopping criteria for Krylov solvers, with non-finite detection and
//! stagnation detection.

use crate::breakdown::BreakdownKind;

/// When to declare a Krylov solve finished.
///
/// The paper's configuration is a *residual reduction factor*
/// `‖A x − b‖ / ‖b‖ < 10⁻¹⁵` (§III-B); that is the default here.
///
/// On top of the tolerance and the iteration cap, the criteria carry the
/// robustness knobs every solver loop consults:
/// * **non-finite guard** — a NaN/Inf residual is reported as
///   [`BreakdownKind::NonFiniteResidual`] on the spot instead of spinning
///   to `max_iters`;
/// * **stagnation window** — if over `stall_window` consecutive
///   iterations the residual fails to shrink by at least a factor of
///   `1 − stall_improvement`, the lane is declared
///   [`BreakdownKind::Stagnation`]. `stall_window == 0` (the default)
///   disables the check, preserving the paper's plain configuration.
///
/// There is no wall-clock budget: like Ginkgo's criterion, a lane stops on
/// the tolerance or the iteration cap, so its outcome is a function of its
/// inputs alone.
#[derive(Debug, Clone, PartialEq)]
pub struct StopCriteria {
    /// Relative residual threshold `‖r‖ / ‖b‖`.
    pub tol: f64,
    /// Hard iteration cap (guards against runaway loops).
    pub max_iters: usize,
    /// Length of the stagnation window in iterations; `0` disables
    /// stagnation detection.
    pub stall_window: usize,
    /// Minimum relative residual improvement expected over one window
    /// (e.g. `0.01` = at least 1 % smaller than the best residual a
    /// window ago).
    pub stall_improvement: f64,
}

/// Verdict of one residual check inside a solver loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidualVerdict {
    /// Tolerance met; stop with success.
    Converged,
    /// Keep iterating.
    Continue,
    /// The residual is NaN/Inf; stop with
    /// [`BreakdownKind::NonFiniteResidual`].
    NonFinite,
}

impl StopCriteria {
    /// The paper's setting: tolerance `1e-15`, generous iteration cap,
    /// stagnation detection off.
    pub fn paper_default() -> Self {
        Self {
            tol: 1e-15,
            max_iters: 10_000,
            stall_window: 0,
            stall_improvement: 0.0,
        }
    }

    /// Custom tolerance with the default iteration cap.
    pub fn with_tol(tol: f64) -> Self {
        Self {
            tol,
            ..Self::paper_default()
        }
    }

    /// Enable stagnation detection: give up when the residual improves
    /// by less than `improvement` (relative) over `window` iterations.
    ///
    /// # Panics
    /// Panics if `improvement` is not in `[0, 1)`.
    pub fn with_stagnation(mut self, window: usize, improvement: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&improvement),
            "stall_improvement must be in [0, 1)"
        );
        self.stall_window = window;
        self.stall_improvement = improvement;
        self
    }

    /// Replace the iteration cap.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// `true` when `residual / norm_b` satisfies the tolerance.
    ///
    /// A zero right-hand side converges immediately (the solution is the
    /// zero vector, and any residual test against `‖b‖ = 0` would never
    /// pass). Non-finite residuals and non-finite `norm_b` never satisfy
    /// the criterion — use [`StopCriteria::assess`] in solver loops so
    /// they are diagnosed as [`BreakdownKind::NonFiniteResidual`] rather
    /// than iterated on.
    #[inline]
    pub fn is_converged(&self, residual: f64, norm_b: f64) -> bool {
        if !residual.is_finite() || !norm_b.is_finite() {
            return false;
        }
        if norm_b == 0.0 {
            return residual == 0.0;
        }
        residual / norm_b < self.tol
    }

    /// Classify one residual observation: converged, keep going, or
    /// non-finite breakdown.
    #[inline]
    pub fn assess(&self, residual: f64, norm_b: f64) -> ResidualVerdict {
        if !residual.is_finite() || !norm_b.is_finite() {
            ResidualVerdict::NonFinite
        } else if self.is_converged(residual, norm_b) {
            ResidualVerdict::Converged
        } else {
            ResidualVerdict::Continue
        }
    }

    /// Fresh stagnation tracker configured from these criteria.
    pub fn stagnation_tracker(&self) -> StagnationTracker {
        StagnationTracker::new(self.stall_window, self.stall_improvement)
    }
}

impl Default for StopCriteria {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Sliding-window stagnation detector.
///
/// Remembers the best (smallest) residual seen in each completed window
/// of `window` observations; reports [`BreakdownKind::Stagnation`] when a
/// full window passes without the residual improving on the previous
/// window's best by the configured relative factor.
#[derive(Debug, Clone)]
pub struct StagnationTracker {
    window: usize,
    improvement: f64,
    /// Best residual of the previous completed window (`None` until one
    /// window has elapsed).
    prev_best: Option<f64>,
    /// Best residual of the window being filled.
    cur_best: f64,
    /// Observations in the current window.
    filled: usize,
}

impl StagnationTracker {
    /// Tracker over `window` observations; `window == 0` disables it.
    pub fn new(window: usize, improvement: f64) -> Self {
        Self {
            window,
            improvement,
            prev_best: None,
            cur_best: f64::INFINITY,
            filled: 0,
        }
    }

    /// Record one residual; returns `Some(Stagnation)` when a full
    /// window elapsed without sufficient improvement.
    pub fn observe(&mut self, residual: f64) -> Option<BreakdownKind> {
        if self.window == 0 || !residual.is_finite() {
            return None;
        }
        self.cur_best = self.cur_best.min(residual);
        self.filled += 1;
        if self.filled < self.window {
            return None;
        }
        let stalled = match self.prev_best {
            Some(prev) => self.cur_best > prev * (1.0 - self.improvement),
            None => false,
        };
        self.prev_best = Some(self.cur_best);
        self.cur_best = f64::INFINITY;
        self.filled = 0;
        if stalled {
            Some(BreakdownKind::Stagnation)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_values() {
        let c = StopCriteria::paper_default();
        assert_eq!(c.tol, 1e-15);
        assert!(c.max_iters >= 1000);
        assert_eq!(c.stall_window, 0, "stagnation off by default");
    }

    #[test]
    fn convergence_test() {
        let c = StopCriteria::with_tol(1e-6);
        assert!(c.is_converged(1e-8, 1.0));
        assert!(!c.is_converged(1e-4, 1.0));
        // Scaling by ‖b‖ matters.
        assert!(c.is_converged(1e-4, 1e3));
    }

    #[test]
    fn zero_rhs_special_case() {
        let c = StopCriteria::default();
        assert!(c.is_converged(0.0, 0.0));
        assert!(!c.is_converged(1e-30, 0.0));
    }

    #[test]
    fn non_finite_residuals_never_converge() {
        let c = StopCriteria::with_tol(1e-6);
        assert!(!c.is_converged(f64::NAN, 1.0));
        assert!(!c.is_converged(f64::INFINITY, 1.0));
        assert!(!c.is_converged(1e-8, f64::NAN));
        assert!(!c.is_converged(f64::NAN, 0.0));
    }

    #[test]
    fn assess_classifies_all_three_ways() {
        let c = StopCriteria::with_tol(1e-6);
        assert_eq!(c.assess(1e-8, 1.0), ResidualVerdict::Converged);
        assert_eq!(c.assess(1e-3, 1.0), ResidualVerdict::Continue);
        assert_eq!(c.assess(f64::NAN, 1.0), ResidualVerdict::NonFinite);
        assert_eq!(c.assess(1.0, f64::INFINITY), ResidualVerdict::NonFinite);
    }

    #[test]
    fn stagnation_fires_on_flat_residual() {
        let c = StopCriteria::with_tol(1e-15).with_stagnation(5, 0.01);
        let mut t = c.stagnation_tracker();
        let mut fired = None;
        for _ in 0..25 {
            if let Some(k) = t.observe(0.5) {
                fired = Some(k);
                break;
            }
        }
        assert_eq!(fired, Some(BreakdownKind::Stagnation));
    }

    #[test]
    fn stagnation_silent_on_steady_progress() {
        let c = StopCriteria::with_tol(1e-15).with_stagnation(5, 0.01);
        let mut t = c.stagnation_tracker();
        let mut res = 1.0;
        for _ in 0..100 {
            assert_eq!(t.observe(res), None);
            res *= 0.9; // 10 % per iteration: ample progress
        }
    }

    #[test]
    fn disabled_tracker_never_fires() {
        let mut t = StagnationTracker::new(0, 0.5);
        for _ in 0..1000 {
            assert_eq!(t.observe(1.0), None);
        }
    }

    #[test]
    #[should_panic(expected = "stall_improvement")]
    fn bad_improvement_rejected() {
        let _ = StopCriteria::default().with_stagnation(10, 1.5);
    }
}
