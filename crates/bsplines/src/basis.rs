//! Cox–de Boor evaluation of the non-vanishing B-spline basis functions.
//!
//! This is the textbook "BasisFuns" algorithm (Piegl & Tiller): at a point
//! `x` inside knot span `[τ_span, τ_span+1)`, exactly `degree + 1` basis
//! functions are non-zero — `B_{span−degree} … B_{span}` — and they are
//! computed together, stably. Every divisor spans `[τ_span, τ_span+1]`, so
//! a non-empty span never divides by a repeated-knot zero, on a clamped
//! space's open knot vector included.
//!
//! No space evaluates through it: [`crate::SplineSpace`] runs the
//! division-free triangle of `kernel.rs`, and this is the oracle
//! `tests/kernel_differential.rs` holds that kernel to.

/// Largest supported spline degree (the paper evaluates 3, 4 and 5).
pub const MAX_DEGREE_BASIS: usize = 5;

/// Evaluate the `degree + 1` non-vanishing basis functions at `x`, which
/// must lie in knot span `span` (`knots[span] <= x <= knots[span + 1]`).
///
/// Writes `B_{span-degree}(x) … B_{span}(x)` into `out[0..=degree]`.
///
/// # Panics
/// Panics (debug) if `span` is out of range for the knot vector.
#[inline]
pub fn eval_nonzero_basis(knots: &[f64], degree: usize, span: usize, x: f64, out: &mut [f64]) {
    debug_assert!(degree <= MAX_DEGREE_BASIS);
    debug_assert!(out.len() > degree);
    debug_assert!(span >= degree && span + degree + 1 <= knots.len() + degree);
    let mut left = [0.0_f64; MAX_DEGREE_BASIS + 1];
    let mut right = [0.0_f64; MAX_DEGREE_BASIS + 1];
    out[0] = 1.0;
    for r in 1..=degree {
        left[r] = x - knots[span + 1 - r];
        right[r] = knots[span + r] - x;
        let mut saved = 0.0;
        for k in 0..r {
            let tmp = out[k] / (right[k + 1] + left[r - k]);
            out[k] = saved + right[k + 1] * tmp;
            saved = left[r - k] * tmp;
        }
        out[r] = saved;
    }
}

/// Evaluate the first derivatives of the `degree + 1` non-vanishing basis
/// functions at `x` in span `span`, via the standard degree-reduction
/// formula `B'_{i,d} = d·(B_{i,d−1}/(τ_{i+d}−τ_i) − B_{i+1,d−1}/(τ_{i+d+1}−τ_{i+1}))`.
///
/// Writes `B'_{span-degree}(x) … B'_{span}(x)` into `out[0..=degree]`.
#[inline]
pub fn eval_nonzero_basis_deriv(
    knots: &[f64],
    degree: usize,
    span: usize,
    x: f64,
    out: &mut [f64],
) {
    debug_assert!(degree >= 1, "derivative needs degree >= 1");
    // Lower-degree basis values B_{span-(d-1)..span, d-1}.
    let mut lower = [0.0_f64; MAX_DEGREE_BASIS + 1];
    eval_nonzero_basis(knots, degree - 1, span, x, &mut lower);
    let d = degree as f64;
    for m in 0..=degree {
        let i = span - degree + m; // global index of B_{i,degree}
                                   // B_{i,d-1} contribution (zero when m == 0: B_{span-d, d-1} ∉ support).
        let a = if m > 0 {
            lower[m - 1] / (knots[i + degree] - knots[i])
        } else {
            0.0
        };
        // B_{i+1,d-1} contribution (zero when m == degree).
        let b = if m < degree {
            lower[m] / (knots[i + degree + 1] - knots[i + 1])
        } else {
            0.0
        };
        out[m] = d * (a - b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uniform knot vector on integers: spans are [k, k+1].
    fn integer_knots(len: usize) -> Vec<f64> {
        (0..len).map(|i| i as f64).collect()
    }

    #[test]
    fn degree_zero_is_indicator() {
        let knots = integer_knots(10);
        let mut out = [0.0; 6];
        eval_nonzero_basis(&knots, 0, 4, 4.5, &mut out);
        assert_eq!(out[0], 1.0);
    }

    #[test]
    fn degree_one_hat_function() {
        let knots = integer_knots(10);
        let mut out = [0.0; 6];
        eval_nonzero_basis(&knots, 1, 4, 4.25, &mut out);
        // Linear hats: B_3(4.25) = 0.75, B_4(4.25) = 0.25.
        assert!((out[0] - 0.75).abs() < 1e-15);
        assert!((out[1] - 0.25).abs() < 1e-15);
    }

    #[test]
    fn cubic_uniform_values_at_knot() {
        // Classic cubic cardinal B-spline values at a knot: 1/6, 4/6, 1/6, 0.
        let knots = integer_knots(12);
        let mut out = [0.0; 6];
        eval_nonzero_basis(&knots, 3, 5, 5.0, &mut out);
        assert!((out[0] - 1.0 / 6.0).abs() < 1e-14);
        assert!((out[1] - 4.0 / 6.0).abs() < 1e-14);
        assert!((out[2] - 1.0 / 6.0).abs() < 1e-14);
        assert!(out[3].abs() < 1e-15);
    }

    #[test]
    fn quintic_uniform_values_at_knot() {
        // Quintic cardinal values at a knot: [1, 26, 66, 26, 1]/120, 0.
        let knots = integer_knots(16);
        let mut out = [0.0; 6];
        eval_nonzero_basis(&knots, 5, 7, 7.0, &mut out);
        let expected = [1.0, 26.0, 66.0, 26.0, 1.0, 0.0];
        for (o, e) in out.iter().zip(expected) {
            assert!((o - e / 120.0).abs() < 1e-13, "{o} vs {}", e / 120.0);
        }
    }

    #[test]
    fn partition_of_unity_all_degrees() {
        let knots = integer_knots(20);
        for degree in 1..=5 {
            for &x in &[6.0_f64, 6.1, 6.5, 6.99, 7.0] {
                let span = x.floor() as usize;
                let mut out = [0.0; 6];
                eval_nonzero_basis(&knots, degree, span, x, &mut out);
                let sum: f64 = out[..=degree].iter().sum();
                assert!((sum - 1.0).abs() < 1e-13, "deg {degree} x {x}: sum {sum}");
                assert!(out[..=degree].iter().all(|&v| v >= -1e-15), "non-negative");
            }
        }
    }

    #[test]
    fn partition_of_unity_nonuniform() {
        let knots = vec![
            0.0, 0.3, 0.5, 0.6, 1.1, 1.5, 2.4, 2.5, 3.0, 3.3, 4.0, 5.2, 6.0,
        ];
        for degree in 1..=4 {
            let span = 6; // x in [2.4, 2.5]
            for &x in &[2.4, 2.43, 2.499] {
                let mut out = [0.0; 6];
                eval_nonzero_basis(&knots, degree, span, x, &mut out);
                let sum: f64 = out[..=degree].iter().sum();
                assert!((sum - 1.0).abs() < 1e-13, "deg {degree}: {sum}");
            }
        }
    }

    #[test]
    fn derivatives_sum_to_zero() {
        // d/dx of the partition of unity is zero.
        let knots = integer_knots(20);
        for degree in 1..=5 {
            let mut out = [0.0; 6];
            eval_nonzero_basis_deriv(&knots, degree, 8, 8.37, &mut out);
            let sum: f64 = out[..=degree].iter().sum();
            assert!(sum.abs() < 1e-12, "deg {degree}: derivative sum {sum}");
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let knots = vec![
            0.0, 0.4, 0.9, 1.3, 2.0, 2.2, 3.1, 3.9, 4.4, 5.0, 5.5, 6.3, 7.0,
        ];
        let degree = 3;
        let span = 6;
        let x = 2.6;
        let eps = 1e-6;
        let mut d = [0.0; 6];
        eval_nonzero_basis_deriv(&knots, degree, span, x, &mut d);
        let mut lo = [0.0; 6];
        let mut hi = [0.0; 6];
        eval_nonzero_basis(&knots, degree, span, x - eps, &mut lo);
        eval_nonzero_basis(&knots, degree, span, x + eps, &mut hi);
        for m in 0..=degree {
            let fd = (hi[m] - lo[m]) / (2.0 * eps);
            assert!((d[m] - fd).abs() < 1e-7, "m={m}: {} vs {fd}", d[m]);
        }
    }
}
