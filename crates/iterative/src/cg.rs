//! Preconditioned Conjugate Gradient (for SPD systems).

use crate::breakdown::BreakdownKind;
use crate::precond::Preconditioner;
use crate::solver::{axpy, dot, norm2, residual_into, IterativeSolver, SolveResult};
use crate::stop::{ResidualVerdict, StopCriteria};
use pp_sparse::Csr;

/// The Conjugate Gradient method. Requires `A` symmetric positive definite
/// and a symmetric preconditioner.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cg;

impl IterativeSolver for Cg {
    fn name(&self) -> &'static str {
        "CG"
    }

    fn solve(
        &self,
        a: &Csr,
        m: &dyn Preconditioner,
        b: &[f64],
        x: &mut [f64],
        stop: &StopCriteria,
    ) -> SolveResult {
        let n = b.len();
        assert_eq!(a.nrows(), n, "CG: dimension mismatch");
        assert_eq!(x.len(), n, "CG: dimension mismatch");
        let norm_b = norm2(b);

        let mut r = vec![0.0; n];
        residual_into(a, x, b, &mut r);
        let mut z = vec![0.0; n];
        m.apply(&r, &mut z);
        let mut p = z.clone();
        let mut q = vec![0.0; n];
        let mut rz = dot(&r, &z);
        let mut iterations = 0;
        let mut converged = false;
        let mut breakdown = None;
        let mut stall = stop.stagnation_tracker();

        while iterations < stop.max_iters {
            let res = norm2(&r);
            match stop.assess(res, norm_b) {
                ResidualVerdict::Converged => {
                    converged = true;
                    break;
                }
                ResidualVerdict::NonFinite => {
                    breakdown = Some(BreakdownKind::NonFiniteResidual);
                    break;
                }
                ResidualVerdict::Continue => {}
            }
            if let Some(k) = stall.observe(res) {
                breakdown = Some(k);
                break;
            }
            iterations += 1;
            a.spmv_into(&p, &mut q);
            let pq = dot(&p, &q);
            if pq == 0.0 {
                // Direction is A-null: the CG recurrence collapsed (on an
                // SPD matrix this cannot happen with r ≠ 0).
                breakdown = Some(BreakdownKind::RhoZero);
                break;
            }
            if !pq.is_finite() {
                breakdown = Some(BreakdownKind::NonFiniteResidual);
                break;
            }
            let alpha = rz / pq;
            axpy(alpha, &p, x);
            axpy(-alpha, &q, &mut r);
            m.apply(&r, &mut z);
            let rz_new = dot(&r, &z);
            let beta = rz_new / rz;
            rz = rz_new;
            for (pi, zi) in p.iter_mut().zip(&z) {
                *pi = zi + beta * *pi;
            }
        }

        crate::solver::finish(a, x, b, stop, iterations, converged, breakdown)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::precond::{BlockJacobi, Identity, Jacobi};
    use pp_portable::Matrix;
    use pp_portable::TestRng;

    pub(crate) fn spd_system(n: usize, seed: u64) -> (Csr, Vec<f64>, Vec<f64>) {
        let mut rng = TestRng::seed_from_u64(seed);
        // SPD: tridiagonal, diagonally dominant.
        let a = Matrix::from_fn(n, n, pp_portable::Layout::Right, |i, j| {
            if i == j {
                4.0 + 0.1 * (i as f64).sin()
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let csr = Csr::from_dense(&a, 0.0);
        let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let b = csr.spmv_alloc(&x_true);
        (csr, x_true, b)
    }

    #[test]
    fn converges_on_spd_system() {
        let (a, x_true, b) = spd_system(50, 1);
        let mut x = vec![0.0; 50];
        let res = Cg.solve(&a, &Identity, &b, &mut x, &StopCriteria::with_tol(1e-12));
        assert!(res.converged, "{res:?}");
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn preconditioning_reduces_iterations() {
        let (a, _, b) = spd_system(200, 2);
        let stop = StopCriteria::with_tol(1e-12);
        let mut x1 = vec![0.0; 200];
        let plain = Cg.solve(&a, &Identity, &b, &mut x1, &stop);
        let mut x2 = vec![0.0; 200];
        let bj = BlockJacobi::new(&a, 16);
        let pre = Cg.solve(&a, &bj, &b, &mut x2, &stop);
        assert!(pre.converged && plain.converged);
        assert!(
            pre.iterations <= plain.iterations,
            "block-jacobi {} vs plain {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn warm_start_from_exact_solution_is_instant() {
        let (a, x_true, b) = spd_system(30, 3);
        let mut x = x_true.clone();
        let res = Cg.solve(
            &a,
            &Jacobi::new(&a),
            &b,
            &mut x,
            &StopCriteria::with_tol(1e-12),
        );
        assert_eq!(res.iterations, 0);
        assert!(res.converged);
    }

    #[test]
    fn zero_rhs_yields_zero_solution() {
        let (a, _, _) = spd_system(10, 4);
        let b = vec![0.0; 10];
        let mut x = vec![0.0; 10];
        let res = Cg.solve(&a, &Identity, &b, &mut x, &StopCriteria::default());
        assert!(res.converged);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn max_iters_caps_work() {
        let (a, _, b) = spd_system(100, 5);
        let mut x = vec![0.0; 100];
        let stop = StopCriteria::with_tol(1e-300).with_max_iters(3); // unreachable tol
        let res = Cg.solve(&a, &Identity, &b, &mut x, &stop);
        assert_eq!(res.iterations, 3);
        assert!(!res.converged);
    }

    // ---- one test per BreakdownKind ----

    #[test]
    fn breakdown_rho_zero_on_a_null_direction() {
        // p = b = [1, 0] gives ⟨p, Ap⟩ = 0 on the permutation matrix: the
        // search direction is A-null and CG cannot proceed.
        let a = Csr::from_dense(&Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]), 0.0);
        let b = [1.0, 0.0];
        let mut x = [0.0, 0.0];
        let res = Cg.solve(&a, &Identity, &b, &mut x, &StopCriteria::with_tol(1e-12));
        assert!(!res.converged);
        assert_eq!(res.breakdown, Some(BreakdownKind::RhoZero));
        assert!(res.breakdown.unwrap().is_hard());
    }

    #[test]
    fn breakdown_non_finite_detected_immediately() {
        let (a, _, mut b) = spd_system(10, 6);
        b[3] = f64::NAN;
        let mut x = vec![0.0; 10];
        let res = Cg.solve(&a, &Identity, &b, &mut x, &StopCriteria::with_tol(1e-12));
        assert!(!res.converged);
        assert_eq!(res.breakdown, Some(BreakdownKind::NonFiniteResidual));
        assert_eq!(res.iterations, 0, "must not spin to max_iters");
    }

    #[test]
    fn breakdown_stagnation_on_nonsymmetric_misuse() {
        // CG applied to a nonsymmetric matrix: the residual stops making
        // progress and the stagnation window catches it well before the
        // iteration budget.
        let n = 24;
        let a = Csr::from_dense(
            &Matrix::from_fn(n, n, pp_portable::Layout::Right, |i, j| {
                if i == j {
                    6.0
                } else if j == i + 1 {
                    -2.0
                } else if i == j + 1 {
                    -0.7
                } else {
                    0.0
                }
            }),
            0.0,
        );
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut x = vec![0.0; n];
        let stop = StopCriteria::with_tol(1e-15).with_stagnation(8, 0.5);
        let res = Cg.solve(&a, &Identity, &b, &mut x, &stop);
        assert!(!res.converged);
        assert_eq!(res.breakdown, Some(BreakdownKind::Stagnation));
        assert!(
            res.iterations < stop.max_iters,
            "stagnation must fire early"
        );
    }

    #[test]
    fn breakdown_max_iters_reported() {
        let (a, _, b) = spd_system(100, 8);
        let mut x = vec![0.0; 100];
        let stop = StopCriteria::with_tol(1e-300).with_max_iters(2);
        let res = Cg.solve(&a, &Identity, &b, &mut x, &stop);
        assert!(!res.converged);
        assert_eq!(res.breakdown, Some(BreakdownKind::MaxIters));
        assert!(!res.breakdown.unwrap().is_hard());
    }
}
