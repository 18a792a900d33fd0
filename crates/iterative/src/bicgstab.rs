//! Preconditioned BiCGStab (van der Vorst) — the solver the paper's Ginkgo
//! configuration uses on GPUs.

use crate::breakdown::BreakdownKind;
use crate::precond::Preconditioner;
use crate::solver::{axpy, dot, norm2, residual_into, IterativeSolver, SolveResult};
use crate::stop::{ResidualVerdict, StopCriteria};
use pp_sparse::Csr;

/// The stabilised bi-conjugate gradient method. Works on general
/// (non-symmetric) systems; each iteration costs two matrix applications
/// and two preconditioner applications.
///
/// ```
/// use pp_iterative::{BiCgStab, Identity, IterativeSolver, StopCriteria};
/// use pp_portable::Matrix;
/// use pp_sparse::Csr;
///
/// let a = Csr::from_dense(&Matrix::from_rows(&[&[4.0, 1.0], &[0.5, 3.0]]), 0.0);
/// let b = [5.0, 3.5]; // solution is [1, 1]
/// let mut x = [0.0, 0.0];
/// let res = BiCgStab.solve(&a, &Identity, &b, &mut x, &StopCriteria::with_tol(1e-12));
/// assert!(res.converged);
/// assert!((x[0] - 1.0).abs() < 1e-10 && (x[1] - 1.0).abs() < 1e-10);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BiCgStab;

impl IterativeSolver for BiCgStab {
    fn name(&self) -> &'static str {
        "BiCGStab"
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
        assert_eq!(a.nrows(), n, "BiCGStab: dimension mismatch");
        assert_eq!(x.len(), n, "BiCGStab: dimension mismatch");
        let norm_b = norm2(b);

        let mut r = vec![0.0; n];
        residual_into(a, x, b, &mut r);
        let r_hat = r.clone(); // shadow residual, fixed
        let mut rho = 1.0;
        let mut alpha = 1.0;
        let mut omega = 1.0;
        let mut v = vec![0.0; n];
        let mut p = vec![0.0; n];
        let mut p_hat = vec![0.0; n];
        let mut s_hat = vec![0.0; n];
        let mut t = vec![0.0; n];
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

            let rho_new = dot(&r_hat, &r);
            if rho_new == 0.0 {
                breakdown = Some(BreakdownKind::RhoZero);
                break;
            }
            if !rho_new.is_finite() {
                breakdown = Some(BreakdownKind::NonFiniteResidual);
                break;
            }
            let beta = (rho_new / rho) * (alpha / omega);
            rho = rho_new;
            // p = r + beta (p - omega v)
            for i in 0..n {
                p[i] = r[i] + beta * (p[i] - omega * v[i]);
            }
            m.apply(&p, &mut p_hat);
            a.spmv_into(&p_hat, &mut v);
            let rhv = dot(&r_hat, &v);
            if rhv == 0.0 {
                breakdown = Some(BreakdownKind::RhoZero);
                break;
            }
            if !rhv.is_finite() {
                breakdown = Some(BreakdownKind::NonFiniteResidual);
                break;
            }
            alpha = rho / rhv;
            // s = r - alpha v  (reuse r as s)
            axpy(-alpha, &v, &mut r);
            if stop.is_converged(norm2(&r), norm_b) {
                axpy(alpha, &p_hat, x);
                converged = true;
                break;
            }
            m.apply(&r, &mut s_hat);
            a.spmv_into(&s_hat, &mut t);
            let tt = dot(&t, &t);
            if tt == 0.0 {
                axpy(alpha, &p_hat, x);
                converged = true;
                break; // exact solve in s-space: residual is zero
            }
            if !tt.is_finite() {
                breakdown = Some(BreakdownKind::NonFiniteResidual);
                break;
            }
            omega = dot(&t, &r) / tt;
            // x += alpha p_hat + omega s_hat
            axpy(alpha, &p_hat, x);
            axpy(omega, &s_hat, x);
            // r = s - omega t
            axpy(-omega, &t, &mut r);
            if omega == 0.0 {
                breakdown = Some(BreakdownKind::OmegaZero);
                break;
            }
        }

        crate::solver::finish(a, x, b, stop, iterations, converged, breakdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{BlockJacobi, Identity};
    use pp_portable::Matrix;
    use pp_portable::TestRng;

    fn nonsymmetric_system(n: usize, seed: u64) -> (Csr, Vec<f64>, Vec<f64>) {
        let mut rng = TestRng::seed_from_u64(seed);
        let a = Matrix::from_fn(n, n, pp_portable::Layout::Right, |i, j| {
            if i == j {
                5.0
            } else if j == i + 1 {
                -1.5 // asymmetric off-diagonals
            } else if i == j + 1 {
                -0.5
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
        let (a, x_true, b) = nonsymmetric_system(80, 1);
        let mut x = vec![0.0; 80];
        let res = BiCgStab.solve(&a, &Identity, &b, &mut x, &StopCriteria::with_tol(1e-12));
        assert!(res.converged, "{res:?}");
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn converges_at_paper_tolerance_with_block_jacobi() {
        let (a, _, b) = nonsymmetric_system(120, 2);
        let mut x = vec![0.0; 120];
        let bj = BlockJacobi::new(&a, 16);
        let res = BiCgStab.solve(&a, &bj, &b, &mut x, &StopCriteria::paper_default());
        assert!(res.converged, "{res:?}");
        assert!(res.relative_residual < 1e-15);
    }

    #[test]
    fn preconditioning_helps() {
        let (a, _, b) = nonsymmetric_system(200, 3);
        let stop = StopCriteria::with_tol(1e-12);
        let mut x1 = vec![0.0; 200];
        let plain = BiCgStab.solve(&a, &Identity, &b, &mut x1, &stop);
        let mut x2 = vec![0.0; 200];
        let pre = BiCgStab.solve(&a, &BlockJacobi::new(&a, 1), &b, &mut x2, &stop);
        assert!(plain.converged && pre.converged);
        assert!(pre.iterations <= plain.iterations);
    }

    #[test]
    fn warm_start_is_instant() {
        let (a, x_true, b) = nonsymmetric_system(40, 4);
        let mut x = x_true.clone();
        let res = BiCgStab.solve(&a, &Identity, &b, &mut x, &StopCriteria::with_tol(1e-12));
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn identity_system_one_iteration() {
        let a = Csr::from_dense(
            &Matrix::from_fn(5, 5, pp_portable::Layout::Right, |i, j| {
                (i == j) as u8 as f64
            }),
            0.0,
        );
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let mut x = vec![0.0; 5];
        let res = BiCgStab.solve(&a, &Identity, &b, &mut x, &StopCriteria::with_tol(1e-12));
        assert!(res.converged);
        assert!(res.iterations <= 1);
        for (u, v) in x.iter().zip(&b) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    // ---- one test per BreakdownKind ----

    #[test]
    fn breakdown_rho_zero_on_skew_system() {
        // Skew-symmetric A makes ⟨r̂, A r̂⟩ = 0 on the first iteration.
        let a = Csr::from_dense(&Matrix::from_rows(&[&[0.0, 1.0], &[-1.0, 0.0]]), 0.0);
        let b = [1.0, 0.0];
        let mut x = [0.0, 0.0];
        let res = BiCgStab.solve(&a, &Identity, &b, &mut x, &StopCriteria::with_tol(1e-12));
        assert!(!res.converged);
        assert_eq!(res.breakdown, Some(BreakdownKind::RhoZero));
        assert!(res.breakdown.unwrap().is_hard());
    }

    /// Preconditioner mock that sabotages the second application so that
    /// `t = A ŝ` comes out orthogonal to `s`, forcing `ω = 0`.
    ///
    /// All quantities are chosen exactly representable so the orthogonality
    /// is exact in floating point: with `A = diag(1, 3)` and `b = [1, 1]`,
    /// the first half-step gives `α = 1/2` and `s = [1/2, −1/2]`; returning
    /// `ŝ = [1.5, 0.5]` then gives `t = A ŝ = [1.5, 1.5] ⊥ s` exactly.
    struct OmegaKiller {
        calls: std::sync::atomic::AtomicUsize,
    }

    impl Preconditioner for OmegaKiller {
        fn apply(&self, r: &[f64], z: &mut [f64]) {
            let k = self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if k == 1 {
                z.copy_from_slice(&[1.5, 0.5]);
            } else {
                z.copy_from_slice(r);
            }
        }
        fn name(&self) -> &'static str {
            "omega-killer"
        }
    }

    #[test]
    fn breakdown_omega_zero_when_stabilisation_stalls() {
        let a = Csr::from_dense(&Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 3.0]]), 0.0);
        let b = [1.0, 1.0];
        let mut x = [0.0, 0.0];
        let m = OmegaKiller {
            calls: std::sync::atomic::AtomicUsize::new(0),
        };
        let res = BiCgStab.solve(&a, &m, &b, &mut x, &StopCriteria::with_tol(1e-12));
        assert!(!res.converged);
        assert_eq!(res.breakdown, Some(BreakdownKind::OmegaZero));
        assert!(res.breakdown.unwrap().is_hard());
        // The α half-step was still applied before bailing.
        assert!(x.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn breakdown_non_finite_detected_immediately() {
        let (a, _, mut b) = nonsymmetric_system(10, 5);
        b[7] = f64::NAN;
        let mut x = vec![0.0; 10];
        let res = BiCgStab.solve(&a, &Identity, &b, &mut x, &StopCriteria::with_tol(1e-12));
        assert!(!res.converged);
        assert_eq!(res.breakdown, Some(BreakdownKind::NonFiniteResidual));
        assert_eq!(res.iterations, 0, "must not spin to max_iters");
    }

    #[test]
    fn breakdown_stagnation_on_near_singular_system() {
        // One row scaled to ~machine epsilon: the residual oscillates
        // around a plateau and the stagnation window catches it.
        let n = 24;
        let t = Csr::from_dense(
            &Matrix::from_fn(n, n, pp_portable::Layout::Right, |i, j| {
                if i == j {
                    4.0
                } else if i.abs_diff(j) == 1 {
                    -1.0
                } else {
                    0.0
                }
            }),
            0.0,
        );
        let mut inj = crate::fault::FaultInjector::new(11);
        let bad = inj.near_singular(&t, 1e-18);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut x = vec![0.0; n];
        let stop = StopCriteria::with_tol(1e-15).with_stagnation(8, 0.5);
        let res = BiCgStab.solve(&bad, &Identity, &b, &mut x, &stop);
        assert!(!res.converged);
        assert_eq!(res.breakdown, Some(BreakdownKind::Stagnation));
        assert!(res.iterations < stop.max_iters);
    }

    #[test]
    fn breakdown_max_iters_reported() {
        let (a, _, b) = nonsymmetric_system(60, 7);
        let mut x = vec![0.0; 60];
        let stop = StopCriteria::with_tol(1e-300).with_max_iters(2);
        let res = BiCgStab.solve(&a, &Identity, &b, &mut x, &stop);
        assert!(!res.converged);
        assert_eq!(res.breakdown, Some(BreakdownKind::MaxIters));
        assert!(!res.breakdown.unwrap().is_hard());
    }
}
