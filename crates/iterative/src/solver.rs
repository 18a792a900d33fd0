//! The common solver interface and small shared vector helpers.

use crate::breakdown::BreakdownKind;
use crate::precond::Preconditioner;
use crate::stop::StopCriteria;
use pp_portable::{run_scalar, Lanes};
use pp_sparse::Csr;

/// Outcome of one Krylov solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveResult {
    /// Iterations performed (matrix applications of the main loop).
    pub iterations: usize,
    /// Whether the stopping criterion was met within `max_iters`.
    pub converged: bool,
    /// Final relative residual `‖A x − b‖ / ‖b‖`.
    pub relative_residual: f64,
    /// Why the solve fell short, when it did (`None` iff `converged`).
    pub breakdown: Option<BreakdownKind>,
}

impl SolveResult {
    /// A converged result (no breakdown).
    pub fn converged(iterations: usize, relative_residual: f64) -> Self {
        Self {
            iterations,
            converged: true,
            relative_residual,
            breakdown: None,
        }
    }

    /// A failed result with its diagnosis.
    pub fn broken(iterations: usize, relative_residual: f64, kind: BreakdownKind) -> Self {
        Self {
            iterations,
            converged: false,
            relative_residual,
            breakdown: Some(kind),
        }
    }
}

/// A Krylov method that solves `A x = b` for one right-hand side.
///
/// `x` carries the initial guess on entry (warm start) and the solution on
/// exit — the in-place convention a batched solve's warm start relies on.
pub trait IterativeSolver: Send + Sync {
    /// Solver name as the paper spells it (e.g. `"BiCGStab"`).
    fn name(&self) -> &'static str;

    /// Solve `A x = b`, preconditioned by `m`, until `stop` is satisfied.
    fn solve(
        &self,
        a: &Csr,
        m: &dyn Preconditioner,
        b: &[f64],
        x: &mut [f64],
        stop: &StopCriteria,
    ) -> SolveResult;
}

// ---- shared dense-vector helpers for the solver implementations ----

/// Euclidean norm, summed from `−0.0` as `Iterator::sum` is (an empty `v`
/// gives `−0.0`).
#[inline]
pub fn norm2(v: &[f64]) -> f64 {
    run_scalar(
        #[inline(always)]
        || v.iter().fold(-0.0, |s, &x| Lanes::mul_add(x, x, s)),
    )
    .sqrt()
}

/// Dot product.
#[inline]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y ← y + α x`.
#[inline]
pub(crate) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `r ← b − A x`.
#[inline]
pub fn residual_into(a: &Csr, x: &[f64], b: &[f64], r: &mut [f64]) {
    a.spmv_into(x, r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
}

/// Build the final [`SolveResult`]. Convergence is decided the way
/// Ginkgo's stopping criterion decides it — on the solver's *internal*
/// (recurrence) residual, which is what terminated the loop — because at
/// the paper's tolerance of 1e-15 the *true* residual can floor just
/// above the threshold from rounding alone. The true relative residual is
/// recomputed from scratch and reported for inspection; `converged` is
/// also granted when it independently satisfies the tolerance.
///
/// `breakdown` is the loop's diagnosis when it bailed early; a solve that
/// ends up converged drops it, a solve that merely ran out of iterations
/// is tagged [`BreakdownKind::MaxIters`]. A non-finite final residual
/// always overrides the diagnosis with
/// [`BreakdownKind::NonFiniteResidual`].
pub(crate) fn finish(
    a: &Csr,
    x: &[f64],
    b: &[f64],
    stop: &StopCriteria,
    iterations: usize,
    internal_converged: bool,
    breakdown: Option<BreakdownKind>,
) -> SolveResult {
    let relative_residual = true_relative_residual(a, x, b);
    let norm_b = norm2(b);
    let true_converged = if !relative_residual.is_finite() || !norm_b.is_finite() {
        false
    } else if norm_b == 0.0 {
        relative_residual == 0.0
    } else {
        relative_residual < stop.tol
    };
    // The internal (recurrence) criterion is honoured only while the true
    // residual is in the same ballpark — a rounding floor just above tol
    // is fine, but on near-singular systems the recurrence residual can
    // collapse while the true residual explodes, and that must not be
    // reported as convergence.
    let internal_trustworthy = internal_converged
        && relative_residual.is_finite()
        && if norm_b == 0.0 {
            relative_residual == 0.0
        } else {
            relative_residual <= stop.tol.max(f64::EPSILON) * 1e6
        };
    let converged = internal_trustworthy || true_converged;
    let breakdown = if converged {
        None
    } else if !relative_residual.is_finite() {
        Some(BreakdownKind::NonFiniteResidual)
    } else if internal_converged {
        // False convergence: the recurrence drifted away from reality.
        // Soft diagnosis so the recovery ladder retries the lane.
        Some(BreakdownKind::Stagnation)
    } else {
        breakdown.or(Some(BreakdownKind::MaxIters))
    };
    SolveResult {
        iterations,
        converged,
        relative_residual,
        breakdown,
    }
}

/// True relative residual computed from scratch (used to report the final
/// figure, rather than the recurrence residual which can drift).
pub(crate) fn true_relative_residual(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    let mut r = vec![0.0; b.len()];
    residual_into(a, x, b, &mut r);
    let nb = norm2(b);
    if nb == 0.0 {
        norm2(&r)
    } else {
        norm2(&r) / nb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_portable::Matrix;

    #[test]
    fn helpers() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    fn residual_of_exact_solution() {
        let a = Csr::from_dense(&Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]), 0.0);
        let x = [1.0, 2.0];
        let b = [2.0, 8.0];
        let mut r = vec![0.0; 2];
        residual_into(&a, &x, &b, &mut r);
        assert_eq!(r, vec![0.0, 0.0]);
        assert_eq!(true_relative_residual(&a, &x, &b), 0.0);
    }
}
