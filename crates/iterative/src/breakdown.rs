//! The breakdown taxonomy: why a Krylov solve stopped short.
//!
//! At the paper's scale (10⁵–10¹² batch lanes per advection step) a
//! handful of lanes *will* break down — a NaN-contaminated right-hand
//! side, a shadow residual going orthogonal (`ρ → 0` in BiCGStab),
//! a stalled residual. Batched-iterative practice (Ginkgo's per-system
//! stopping status, the batched Landau-collision solvers) treats that
//! per-system state as first-class rather than aborting the batch; this
//! module is the vocabulary for it. Every solver in this crate reports a
//! [`BreakdownKind`] on its [`SolveResult`](crate::SolveResult) when it
//! terminates without converging.

use std::fmt;

/// Why a Krylov iteration terminated without reaching the tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakdownKind {
    /// The Krylov recurrence collapsed: `ρ = ⟨r̂, r⟩ → 0` (BiCGStab) or
    /// the Arnoldi basis degenerated (GMRES). No further progress is
    /// possible from this iterate.
    RhoZero,
    /// BiCGStab's stabilisation parameter `ω` vanished: the GMRES(1)
    /// minimisation step cannot improve the iterate.
    OmegaZero,
    /// The residual (or an inner product feeding the recurrence) became
    /// NaN or ±Inf — typically a contaminated right-hand side or a
    /// wildly scaled matrix. Detected immediately, not after `max_iters`.
    NonFiniteResidual,
    /// The residual stopped improving over the configured stagnation
    /// window while still above tolerance.
    Stagnation,
    /// The iteration budget ran out with the residual still above
    /// tolerance (and still shrinking — otherwise a more specific kind
    /// fires first).
    MaxIters,
}

impl BreakdownKind {
    /// Hard breakdowns invalidate the current Krylov process entirely;
    /// retrying with the same solver and iterate cannot help. Soft
    /// outcomes ([`Stagnation`](Self::Stagnation) /
    /// [`MaxIters`](Self::MaxIters)) left a partial solution that a
    /// stronger preconditioner or larger budget may finish.
    pub fn is_hard(&self) -> bool {
        matches!(
            self,
            BreakdownKind::RhoZero | BreakdownKind::OmegaZero | BreakdownKind::NonFiniteResidual
        )
    }
}

impl fmt::Display for BreakdownKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreakdownKind::RhoZero => write!(f, "rho-zero breakdown (Krylov recurrence collapsed)"),
            BreakdownKind::OmegaZero => write!(f, "omega-zero breakdown (stabilisation stalled)"),
            BreakdownKind::NonFiniteResidual => write!(f, "non-finite residual (NaN/Inf)"),
            BreakdownKind::Stagnation => write!(f, "stagnation (no residual progress)"),
            BreakdownKind::MaxIters => write!(f, "iteration budget exhausted"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardness_partition() {
        use BreakdownKind::*;
        assert!(RhoZero.is_hard());
        assert!(OmegaZero.is_hard());
        assert!(NonFiniteResidual.is_hard());
        assert!(!Stagnation.is_hard());
        assert!(!MaxIters.is_hard());
    }

    #[test]
    fn display_is_informative() {
        assert!(BreakdownKind::NonFiniteResidual.to_string().contains("NaN"));
        assert!(BreakdownKind::MaxIters.to_string().contains("budget"));
    }
}
