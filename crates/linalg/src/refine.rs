//! `*rfs`-style iterative refinement for direct solves.
//!
//! A factored solve `x = A⁻¹b` carries a backward error proportional to
//! the elimination's element growth. One or two rounds of refinement —
//! compute the true residual `r = b − Ax`, solve `Aδ = r`, correct
//! `x += δ` — push the normwise backward error back down to machine
//! epsilon whenever the factors are good enough to reduce the residual at
//! all (Skeel; LAPACK `dgerfs`). The loop here mirrors LAPACK's: bounded
//! step count, stop at a target backward error, stop when a step fails to
//! halve the error, and never accept a step that makes things worse.

/// Tuning knobs for [`refine_lane`]. The defaults mirror LAPACK `*rfs`.
#[derive(Debug, Clone, Copy)]
pub struct RefineConfig {
    /// Maximum correction steps (LAPACK's `ITMAX` is 5).
    pub max_steps: usize,
    /// Stop once the normwise backward error drops below this.
    pub target_berr: f64,
    /// Stop when a step shrinks the backward error by less than this
    /// factor (LAPACK stops when the error is not halved).
    pub min_improvement: f64,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            max_steps: 5,
            target_berr: 2.0 * f64::EPSILON,
            min_improvement: 2.0,
        }
    }
}

/// What [`refine_lane`] did and where it ended up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineOutcome {
    /// Correction steps actually applied (steps that were reverted do not
    /// count).
    pub steps: usize,
    /// Normwise backward error of the initial `x`.
    pub initial_backward_error: f64,
    /// Normwise backward error of the final `x`.
    pub backward_error: f64,
    /// `true` when the final error is at or below the target.
    pub converged: bool,
}

/// Normwise backward error `‖b − Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)`:
/// the size of the smallest perturbation of `(A, b)` for which `x` is an
/// exact solution, relative to the data.
fn backward_error(r_inf: f64, anorm_inf: f64, x_inf: f64, b_inf: f64) -> f64 {
    let denom = (anorm_inf * x_inf + b_inf).max(f64::MIN_POSITIVE);
    r_inf / denom
}

fn inf_norm(v: &[f64]) -> f64 {
    // NaN must poison the norm (f64::max would silently drop it).
    let mut m = 0.0_f64;
    for &x in v {
        if x.is_nan() {
            return f64::NAN;
        }
        m = m.max(x.abs());
    }
    m
}

/// Iteratively refine one lane of a direct solve.
///
/// * `matvec(x, y)` must write `y = Ax` using the **original** matrix
///   (full precision, not the factors).
/// * `solve(r)` must overwrite `r` with `A⁻¹r` using the factors.
/// * `anorm_inf` is `‖A‖∞` of the original matrix.
/// * `b` is the original right-hand side; `x` enters as the factored
///   solve's answer and leaves refined.
///
/// Non-finite inputs or corrections end the loop immediately; a step that
/// increases the backward error is reverted before returning. The routine
/// never leaves `x` worse than it found it.
pub fn refine_lane(
    mut matvec: impl FnMut(&[f64], &mut [f64]),
    mut solve: impl FnMut(&mut [f64]),
    anorm_inf: f64,
    b: &[f64],
    x: &mut [f64],
    cfg: &RefineConfig,
) -> RefineOutcome {
    let n = b.len();
    debug_assert_eq!(x.len(), n, "refine_lane: x and b must have equal length");
    if b.iter().chain(x.iter()).any(|v| !v.is_finite()) {
        return RefineOutcome {
            steps: 0,
            initial_backward_error: f64::INFINITY,
            backward_error: f64::INFINITY,
            converged: false,
        };
    }
    let b_inf = inf_norm(b);

    let mut r = vec![0.0; n];
    let berr_of = |x: &[f64], r: &mut [f64], matvec: &mut dyn FnMut(&[f64], &mut [f64])| {
        matvec(x, r);
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
        backward_error(inf_norm(r), anorm_inf, inf_norm(x), b_inf)
    };

    let initial = berr_of(x, &mut r, &mut matvec);
    let mut out = RefineOutcome {
        steps: 0,
        initial_backward_error: initial,
        backward_error: initial,
        converged: initial <= cfg.target_berr,
    };
    if out.converged || !initial.is_finite() {
        return out;
    }

    for _ in 0..cfg.max_steps {
        // r currently holds b − Ax; solve for the correction in place.
        solve(&mut r);
        if r.iter().any(|v| !v.is_finite()) {
            break;
        }
        let prev_x: Vec<f64> = x.to_vec();
        for i in 0..n {
            x[i] += r[i];
        }
        let berr = berr_of(x, &mut r, &mut matvec);
        if !(berr < out.backward_error) {
            // The step regressed (or went non-finite): undo it and stop.
            x.copy_from_slice(&prev_x);
            break;
        }
        let improvement = out.backward_error / berr.max(f64::MIN_POSITIVE);
        out.steps += 1;
        out.backward_error = berr;
        if berr <= cfg.target_berr {
            out.converged = true;
            break;
        }
        if improvement < cfg.min_improvement {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::getrf;
    use crate::naive;
    use pp_portable::{Layout, Matrix};

    /// The Wilkinson pivot-growth matrix: ones on the diagonal and last
    /// column, −1 strictly below the diagonal. Partial pivoting never
    /// swaps, U's last column doubles each step, and element growth hits
    /// 2^(n−1) — the textbook case where a factored solve loses digits
    /// that refinement wins back.
    fn wilkinson(n: usize) -> Matrix {
        Matrix::from_fn(n, n, Layout::Right, |i, j| {
            if j == n - 1 || i == j {
                1.0
            } else if i > j {
                -1.0
            } else {
                0.0
            }
        })
    }

    fn inf_matrix_norm(a: &Matrix) -> f64 {
        let mut worst = 0.0_f64;
        for i in 0..a.nrows() {
            let mut s = 0.0;
            for j in 0..a.ncols() {
                s += a.get(i, j).abs();
            }
            worst = worst.max(s);
        }
        worst
    }

    #[test]
    fn refinement_recovers_wilkinson_growth_by_two_orders() {
        let n = 40;
        let a = wilkinson(n);
        let f = getrf(&a).unwrap();
        assert!(
            f.health().pivot_growth > 1e10,
            "expected catastrophic growth, got {}",
            f.health().pivot_growth
        );

        // An irrational RHS so the eliminated system actually rounds (an
        // integer RHS solves *exactly* despite the growth).
        let b: Vec<f64> = (0..n).map(|i| (0.9 * i as f64 + 0.3).sin()).collect();

        let mut x = b.clone();
        f.solve_slice(&mut x);

        let anorm_inf = inf_matrix_norm(&a);
        let out = refine_lane(
            |x, y| y.copy_from_slice(&naive::matvec(&a, x)),
            |r| f.solve_slice(r),
            anorm_inf,
            &b,
            &mut x,
            &RefineConfig::default(),
        );
        assert!(
            out.initial_backward_error > 1e-13,
            "growth should have damaged the first solve (berr {})",
            out.initial_backward_error
        );
        assert!(
            out.backward_error <= out.initial_backward_error / 100.0,
            "refinement must win >= 2 orders: {} -> {}",
            out.initial_backward_error,
            out.backward_error
        );
        assert!(out.converged, "refinement should reach target: {out:?}");
        assert!(out.steps >= 1);
        // The refined answer now satisfies the system to near machine
        // precision despite the 2^(n-1) growth in the factors.
        assert!(naive::relative_residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn well_conditioned_solve_needs_no_refinement() {
        let a = Matrix::from_fn(12, 12, Layout::Right, |i, j| {
            if i == j {
                4.0
            } else if i.abs_diff(j) == 1 {
                1.0
            } else {
                0.0
            }
        });
        let f = getrf(&a).unwrap();
        let b: Vec<f64> = (0..12).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut x = b.clone();
        f.solve_slice(&mut x);
        let out = refine_lane(
            |x, y| y.copy_from_slice(&naive::matvec(&a, x)),
            |r| f.solve_slice(r),
            inf_matrix_norm(&a),
            &b,
            &mut x,
            &RefineConfig::default(),
        );
        assert!(out.converged);
        assert!(
            out.steps <= 1,
            "well-conditioned case took {} steps",
            out.steps
        );
    }

    #[test]
    fn non_finite_rhs_exits_cleanly() {
        let a = wilkinson(8);
        let f = getrf(&a).unwrap();
        let b = vec![f64::NAN; 8];
        let mut x = vec![0.0; 8];
        let out = refine_lane(
            |x, y| y.copy_from_slice(&naive::matvec(&a, x)),
            |r| f.solve_slice(r),
            inf_matrix_norm(&a),
            &b,
            &mut x,
            &RefineConfig::default(),
        );
        assert_eq!(out.steps, 0);
        assert!(!out.converged);
    }
}
