//! Numerical-health reporting for the direct factorisations.
//!
//! LAPACK pairs every `*trf`/`*trs` couple with a `*con` condition
//! estimator and growth diagnostics; this module is the batched-Rust
//! analogue. Each factorisation in this crate runs the estimator **once,
//! at factorisation time** (the spline matrix is fixed, so the cost — a
//! handful of extra O(n·band) solves — is amortised over the whole batch)
//! and attaches the result to its `*Factors` type as a [`FactorHealth`].
//!
//! The reciprocal condition number is estimated with Hager's 1-norm power
//! method (the algorithm behind LAPACK `dlacon`): `‖A⁻¹‖₁` is approached
//! from below through solves with `A` and `Aᵀ`, never forming the inverse.

use crate::error::{Error, Result};

/// Health report of one direct factorisation: how trustworthy are solves
/// with these factors?
///
/// Produced once per factorisation and exposed through the `health()`
/// accessor of [`LuFactors`](crate::LuFactors),
/// [`BandedLu`](crate::BandedLu), [`CholeskyBanded`](crate::CholeskyBanded)
/// and [`PtFactors`](crate::PtFactors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorHealth {
    /// Factorisation routine that produced the report.
    pub routine: &'static str,
    /// 1-norm `‖A‖₁` of the original matrix (captured before the factors
    /// overwrote it).
    pub anorm: f64,
    /// Estimated reciprocal condition number
    /// `1 / (‖A‖₁ · est ‖A⁻¹‖₁)` — LAPACK `*con` semantics: near 1 is
    /// well-conditioned, near 0 is numerically singular.
    pub rcond: f64,
    /// Element-growth factor of the elimination. For pivoted LU this is
    /// the classic `max|U| / max|A|`; for the (unpivoted) SPD routines it
    /// is the growth of the factor entries and stays ≈ 1 when the
    /// factorisation is stable.
    pub pivot_growth: f64,
}

impl FactorHealth {
    /// `rcond` below this marks the matrix ill-conditioned: solves lose
    /// more than ~12 of the ~16 available digits.
    pub const RCOND_SUSPECT: f64 = 1e-12;

    /// Pivot growth above this marks the elimination unstable (backward
    /// error grows proportionally).
    pub const GROWTH_SUSPECT: f64 = 1e8;

    /// `true` when the condition estimate says solves are untrustworthy.
    pub fn is_ill_conditioned(&self) -> bool {
        !(self.rcond >= Self::RCOND_SUSPECT)
    }

    /// `true` when the elimination showed pathological element growth.
    pub fn has_pivot_growth(&self) -> bool {
        !(self.pivot_growth <= Self::GROWTH_SUSPECT)
    }

    /// `true` when *any* diagnostic flags the factorisation: solves should
    /// be residual-verified (and refined) before being trusted.
    pub fn is_suspect(&self) -> bool {
        self.is_ill_conditioned() || self.has_pivot_growth() || !self.anorm.is_finite()
    }
}

impl std::fmt::Display for FactorHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: rcond {:.2e}, pivot growth {:.2e}{}",
            self.routine,
            self.rcond,
            self.pivot_growth,
            if self.is_suspect() { " [SUSPECT]" } else { "" }
        )
    }
}

/// Estimate `‖A⁻¹‖₁` from solves with `A` and `Aᵀ` (Hager's power method
/// on the 1-norm, bounded to a few iterations like LAPACK `dlacon`).
///
/// `solve` / `solve_t` must overwrite their argument with `A⁻¹v` /
/// `A⁻ᵀv`. Returns `f64::INFINITY` when the solves produce non-finite
/// values (numerically singular factors).
pub fn estimate_inverse_onenorm(
    n: usize,
    mut solve: impl FnMut(&mut [f64]),
    mut solve_t: impl FnMut(&mut [f64]),
) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let onenorm = |v: &[f64]| v.iter().map(|x| x.abs()).sum::<f64>();

    // Start from the uniform vector; iterate v = A⁻¹x, z = A⁻ᵀ sign(v).
    let mut x = vec![1.0 / n as f64; n];
    solve(&mut x);
    if x.iter().any(|v| !v.is_finite()) {
        return f64::INFINITY;
    }
    let mut est = onenorm(&x);
    if n == 1 {
        return est;
    }
    for _ in 0..5 {
        let mut z: Vec<f64> = x
            .iter()
            .map(|&v| if v < 0.0 { -1.0 } else { 1.0 })
            .collect();
        solve_t(&mut z);
        if z.iter().any(|v| !v.is_finite()) {
            return f64::INFINITY;
        }
        // Next probe: the unit vector of the largest |z| component.
        let (jmax, zmax) = z
            .iter()
            .enumerate()
            .fold((0usize, 0.0_f64), |(bj, bv), (j, &v)| {
                if v.abs() > bv {
                    (j, v.abs())
                } else {
                    (bj, bv)
                }
            });
        // Hager's convergence test: no component of A⁻ᵀξ exceeds zᵀx.
        let zdotx: f64 = z.iter().zip(&x).map(|(a, b)| a * b).sum();
        if zmax <= zdotx.abs() {
            break;
        }
        x = vec![0.0; n];
        x[jmax] = 1.0;
        solve(&mut x);
        if x.iter().any(|v| !v.is_finite()) {
            return f64::INFINITY;
        }
        let next = onenorm(&x);
        if next <= est {
            break;
        }
        est = next;
    }

    // dlacn2's alternating safeguard vector, so an adversarial sign
    // pattern cannot hide the norm from the power method entirely.
    let mut alt: Vec<f64> = (0..n)
        .map(|i| {
            let s = if i % 2 == 0 { 1.0 } else { -1.0 };
            s * (1.0 + i as f64 / (n - 1) as f64)
        })
        .collect();
    solve(&mut alt);
    if alt.iter().any(|v| !v.is_finite()) {
        return f64::INFINITY;
    }
    est.max(2.0 * onenorm(&alt) / (3.0 * n as f64))
}

/// Reciprocal condition estimate from the captured `‖A‖₁` and the two
/// solve closures. Clamped to `[0, 1]`; `0` means numerically singular.
pub fn rcond_estimate(
    n: usize,
    anorm: f64,
    solve: impl FnMut(&mut [f64]),
    solve_t: impl FnMut(&mut [f64]),
) -> f64 {
    if n == 0 {
        return 1.0;
    }
    if !anorm.is_finite() || anorm <= 0.0 {
        return 0.0;
    }
    let ainv = estimate_inverse_onenorm(n, solve, solve_t);
    if !ainv.is_finite() || ainv <= 0.0 {
        return 0.0;
    }
    let r = 1.0 / (anorm * ainv);
    if r.is_finite() {
        r.min(1.0)
    } else {
        0.0
    }
}

/// Shared precondition check for the `try_solve_slice` family: the slice
/// must match the matrix order and contain only finite values.
pub(crate) fn check_solve_slice(routine: &'static str, n: usize, b: &[f64]) -> Result<()> {
    if b.len() != n {
        return Err(Error::ShapeMismatch {
            op: routine,
            detail: format!("rhs has length {}, matrix order is {n}", b.len()),
        });
    }
    if let Some(index) = b.iter().position(|v| !v.is_finite()) {
        return Err(Error::NonFinite {
            routine,
            lane: 0,
            index,
        });
    }
    Ok(())
}

/// Scan a factorisation input for non-finite entries; `index` is the flat
/// position in the caller's scan order.
pub(crate) fn check_finite_input(
    routine: &'static str,
    values: impl IntoIterator<Item = f64>,
) -> Result<()> {
    for (index, v) in values.into_iter().enumerate() {
        if !v.is_finite() {
            return Err(Error::NonFinite {
                routine,
                lane: 0,
                index,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::getrf;
    use pp_portable::{Layout, Matrix};

    /// Invert a small dense matrix exactly (via getrf) and compare the
    /// Hager estimate against the true ‖A⁻¹‖₁.
    #[test]
    fn estimator_matches_true_inverse_norm_on_dense() {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, 0.0, 0.2],
            &[1.0, 5.0, 1.5, 0.0],
            &[0.0, 1.5, 6.0, 1.0],
            &[0.2, 0.0, 1.0, 3.0],
        ]);
        let f = getrf(&a).unwrap();
        // True ‖A⁻¹‖₁: max column sum of the explicit inverse.
        let n = 4;
        let mut true_norm = 0.0_f64;
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            f.solve_slice(&mut e);
            true_norm = true_norm.max(e.iter().map(|v| v.abs()).sum());
        }
        let est =
            estimate_inverse_onenorm(n, |v| f.solve_slice(v), |v| f.solve_transposed_slice(v));
        // Hager estimates from below but is near-exact on small systems.
        assert!(est <= true_norm * 1.0001, "est {est} true {true_norm}");
        assert!(est >= 0.3 * true_norm, "est {est} true {true_norm}");
    }

    #[test]
    fn rcond_near_one_for_identity() {
        let a = Matrix::from_fn(6, 6, Layout::Right, |i, j| if i == j { 1.0 } else { 0.0 });
        let f = getrf(&a).unwrap();
        assert!(f.health().rcond > 0.1);
        assert!(!f.health().is_suspect());
    }

    #[test]
    fn empty_and_singular_edge_cases() {
        assert_eq!(rcond_estimate(0, 0.0, |_| {}, |_| {}), 1.0);
        assert_eq!(rcond_estimate(3, f64::NAN, |_| {}, |_| {}), 0.0);
        // Solves that blow up => rcond 0.
        let r = rcond_estimate(3, 1.0, |v| v.fill(f64::INFINITY), |v| v.fill(f64::INFINITY));
        assert_eq!(r, 0.0);
    }

    #[test]
    fn display_flags_suspect_factorisations() {
        let healthy = FactorHealth {
            routine: "pttrf",
            anorm: 6.0,
            rcond: 0.25,
            pivot_growth: 1.0,
        };
        assert!(!healthy.to_string().contains("SUSPECT"));
        assert!(!healthy.is_suspect());
        let sick = FactorHealth {
            routine: "getrf",
            anorm: 6.0,
            rcond: 1e-15,
            pivot_growth: 1.0,
        };
        assert!(sick.is_ill_conditioned());
        assert!(sick.to_string().contains("SUSPECT"));
    }
}
