//! Preconditioned BiCG (bi-conjugate gradients).
//!
//! Listed by the paper among Ginkgo's solvers (§II-B.2). Requires the
//! transposed operator `Aᵀ` and transposed preconditioner application.

use crate::breakdown::BreakdownKind;
use crate::precond::Preconditioner;
use crate::solver::{axpy, dot, norm2, residual_into, IterativeSolver, SolveResult};
use crate::stop::{ResidualVerdict, StopCriteria};
use pp_sparse::Csr;

/// The bi-conjugate gradient method for general systems.
#[derive(Debug, Clone, Copy, Default)]
pub struct BiCg;

impl IterativeSolver for BiCg {
    fn name(&self) -> &'static str {
        "BiCG"
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
        assert_eq!(a.nrows(), n, "BiCG: dimension mismatch");
        assert_eq!(x.len(), n, "BiCG: dimension mismatch");
        let norm_b = norm2(b);

        let mut r = vec![0.0; n];
        residual_into(a, x, b, &mut r);
        let mut r_star = r.clone();
        let mut z = vec![0.0; n];
        let mut z_star = vec![0.0; n];
        m.apply(&r, &mut z);
        m.apply_transpose(&r_star, &mut z_star);
        let mut p = z.clone();
        let mut p_star = z_star.clone();
        let mut q = vec![0.0; n];
        let mut q_star = vec![0.0; n];
        let mut rho = dot(&z, &r_star);
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
            if rho == 0.0 {
                breakdown = Some(BreakdownKind::RhoZero);
                break;
            }
            if !rho.is_finite() {
                breakdown = Some(BreakdownKind::NonFiniteResidual);
                break;
            }
            iterations += 1;

            a.spmv_into(&p, &mut q);
            a.spmv_transpose_into(&p_star, &mut q_star);
            let pq = dot(&p_star, &q);
            if pq == 0.0 {
                breakdown = Some(BreakdownKind::RhoZero);
                break;
            }
            if !pq.is_finite() {
                breakdown = Some(BreakdownKind::NonFiniteResidual);
                break;
            }
            let alpha = rho / pq;
            axpy(alpha, &p, x);
            axpy(-alpha, &q, &mut r);
            axpy(-alpha, &q_star, &mut r_star);
            m.apply(&r, &mut z);
            m.apply_transpose(&r_star, &mut z_star);
            let rho_new = dot(&z, &r_star);
            let beta = rho_new / rho;
            rho = rho_new;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
                p_star[i] = z_star[i] + beta * p_star[i];
            }
        }

        crate::solver::finish(a, x, b, stop, iterations, converged, breakdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::Cg;
    use crate::precond::{BlockJacobi, Identity};
    use pp_portable::Matrix;
    use pp_portable::TestRng;

    fn nonsymmetric_system(n: usize, seed: u64) -> (Csr, Vec<f64>, Vec<f64>) {
        let mut rng = TestRng::seed_from_u64(seed);
        let a = Matrix::from_fn(n, n, pp_portable::Layout::Right, |i, j| {
            if i == j {
                6.0
            } else if j == i + 1 {
                -2.0
            } else if i == j + 1 {
                -0.7
            } else if j == i + 2 {
                0.3
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
    fn converges_on_nonsymmetric_system() {
        let (a, x_true, b) = nonsymmetric_system(70, 1);
        let mut x = vec![0.0; 70];
        let res = BiCg.solve(&a, &Identity, &b, &mut x, &StopCriteria::with_tol(1e-12));
        assert!(res.converged, "{res:?}");
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn on_spd_systems_bicg_tracks_cg() {
        // For SPD A and symmetric preconditioner, BiCG reduces to CG.
        let (a, _, b) = crate::cg::tests::spd_system(60, 7);
        let stop = StopCriteria::with_tol(1e-12);
        let mut x1 = vec![0.0; 60];
        let r1 = Cg.solve(&a, &Identity, &b, &mut x1, &stop);
        let mut x2 = vec![0.0; 60];
        let r2 = BiCg.solve(&a, &Identity, &b, &mut x2, &stop);
        assert!(r1.converged && r2.converged);
        assert_eq!(r1.iterations, r2.iterations);
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn block_jacobi_transpose_path_exercised() {
        let (a, x_true, b) = nonsymmetric_system(90, 2);
        let mut x = vec![0.0; 90];
        let bj = BlockJacobi::new(&a, 8);
        let res = BiCg.solve(&a, &bj, &b, &mut x, &StopCriteria::with_tol(1e-13));
        assert!(res.converged, "{res:?}");
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    // ---- one test per BreakdownKind ----

    #[test]
    fn breakdown_rho_zero_on_collapsed_recurrence() {
        // p̂ = p = [1, 0] on the permutation matrix gives ⟨p̂, Ap⟩ = 0.
        let a = Csr::from_dense(&Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]), 0.0);
        let b = [1.0, 0.0];
        let mut x = [0.0, 0.0];
        let res = BiCg.solve(&a, &Identity, &b, &mut x, &StopCriteria::with_tol(1e-12));
        assert!(!res.converged);
        assert_eq!(res.breakdown, Some(BreakdownKind::RhoZero));
        assert!(res.breakdown.unwrap().is_hard());
    }

    #[test]
    fn breakdown_non_finite_detected_immediately() {
        let (a, _, mut b) = nonsymmetric_system(10, 3);
        b[0] = f64::INFINITY;
        let mut x = vec![0.0; 10];
        let res = BiCg.solve(&a, &Identity, &b, &mut x, &StopCriteria::with_tol(1e-12));
        assert!(!res.converged);
        assert_eq!(res.breakdown, Some(BreakdownKind::NonFiniteResidual));
        assert_eq!(res.iterations, 0, "must not spin to max_iters");
    }

    #[test]
    fn breakdown_stagnation_at_the_rounding_floor() {
        let (a, _, b) = nonsymmetric_system(24, 4);
        let mut x = vec![0.0; 24];
        let stop = StopCriteria::with_tol(1e-300).with_stagnation(4, 0.5);
        let res = BiCg.solve(&a, &Identity, &b, &mut x, &stop);
        assert!(!res.converged);
        assert_eq!(res.breakdown, Some(BreakdownKind::Stagnation));
        assert!(res.iterations < stop.max_iters);
    }

    #[test]
    fn breakdown_max_iters_reported() {
        let (a, _, b) = nonsymmetric_system(60, 5);
        let mut x = vec![0.0; 60];
        let stop = StopCriteria::with_tol(1e-300).with_max_iters(2);
        let res = BiCg.solve(&a, &Identity, &b, &mut x, &stop);
        assert!(!res.converged);
        assert_eq!(res.breakdown, Some(BreakdownKind::MaxIters));
        assert!(!res.breakdown.unwrap().is_hard());
    }
}
