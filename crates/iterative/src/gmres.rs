//! Restarted GMRES with right preconditioning — the solver the paper's
//! Ginkgo configuration uses on CPUs (because of Ginkgo's OpenMP BiCGStab
//! issue #1563).

use crate::breakdown::BreakdownKind;
use crate::precond::Preconditioner;
use crate::solver::{norm2, residual_into, IterativeSolver, SolveResult};
use crate::stop::{ResidualVerdict, StopCriteria};
use pp_sparse::Csr;

/// GMRES(m): restarted generalised minimal residual, right-preconditioned
/// (`A M⁻¹ u = b`, `x = M⁻¹ u`), with Givens-rotation least squares.
#[derive(Debug, Clone, Copy)]
pub struct Gmres {
    /// Krylov subspace dimension before restart.
    pub restart: usize,
}

impl Default for Gmres {
    fn default() -> Self {
        Self { restart: 100 }
    }
}

impl Gmres {
    /// GMRES with a given restart length.
    ///
    /// # Panics
    /// Panics if `restart == 0`.
    pub fn new(restart: usize) -> Self {
        assert!(restart > 0, "GMRES restart must be positive");
        Self { restart }
    }
}

impl IterativeSolver for Gmres {
    fn name(&self) -> &'static str {
        "GMRES"
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
        assert_eq!(a.nrows(), n, "GMRES: dimension mismatch");
        assert_eq!(x.len(), n, "GMRES: dimension mismatch");
        let norm_b = norm2(b);
        let restart = self.restart.min(n.max(1));
        let mut iterations = 0;
        let mut converged = false;
        let mut breakdown = None;
        let mut stall = stop.stagnation_tracker();
        let mut r = vec![0.0; n];
        let mut w = vec![0.0; n];
        let mut z = vec![0.0; n];

        'outer: while iterations < stop.max_iters {
            residual_into(a, x, b, &mut r);
            let beta = norm2(&r);
            match stop.assess(beta, norm_b) {
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

            // Arnoldi basis (restart+1 vectors), Hessenberg in `h`,
            // Givens rotations in (cs, sn), residual norms in g.
            let mut v: Vec<Vec<f64>> = Vec::with_capacity(restart + 1);
            v.push(r.iter().map(|ri| ri / beta).collect());
            let mut h = vec![vec![0.0; restart]; restart + 1];
            let mut cs = vec![0.0; restart];
            let mut sn = vec![0.0; restart];
            let mut g = vec![0.0; restart + 1];
            g[0] = beta;
            let mut k_used = 0;

            for k in 0..restart {
                if iterations >= stop.max_iters {
                    break;
                }
                iterations += 1;
                // w = A M⁻¹ v_k
                m.apply(&v[k], &mut z);
                a.spmv_into(&z, &mut w);
                // Modified Gram-Schmidt with one reorthogonalisation pass
                // ("twice is enough"): at the paper's 1e-15 tolerance a
                // single MGS pass loses enough orthogonality to stall the
                // residual estimate around 1e-14.
                for (i, vi) in v.iter().enumerate().take(k + 1) {
                    let hik: f64 = w.iter().zip(vi).map(|(wj, vj)| wj * vj).sum();
                    h[i][k] = hik;
                    for (wj, vj) in w.iter_mut().zip(vi) {
                        *wj -= hik * vj;
                    }
                }
                for (i, vi) in v.iter().enumerate().take(k + 1) {
                    let corr: f64 = w.iter().zip(vi).map(|(wj, vj)| wj * vj).sum();
                    h[i][k] += corr;
                    for (wj, vj) in w.iter_mut().zip(vi) {
                        *wj -= corr * vj;
                    }
                }
                let hkk = norm2(&w);
                if !hkk.is_finite() {
                    // The Arnoldi vector is poisoned; applying this
                    // column would contaminate x, so bail with the
                    // iterate from the last completed restart cycle.
                    breakdown = Some(BreakdownKind::NonFiniteResidual);
                    break 'outer;
                }
                h[k + 1][k] = hkk;
                // Apply accumulated Givens rotations to the new column.
                for i in 0..k {
                    let t = cs[i] * h[i][k] + sn[i] * h[i + 1][k];
                    h[i + 1][k] = -sn[i] * h[i][k] + cs[i] * h[i + 1][k];
                    h[i][k] = t;
                }
                // New rotation to annihilate h[k+1][k].
                let denom = (h[k][k] * h[k][k] + hkk * hkk).sqrt();
                if denom == 0.0 {
                    k_used = k;
                    break;
                }
                cs[k] = h[k][k] / denom;
                sn[k] = hkk / denom;
                h[k][k] = denom;
                h[k + 1][k] = 0.0;
                g[k + 1] = -sn[k] * g[k];
                g[k] *= cs[k];
                k_used = k + 1;

                if stop.is_converged(g[k + 1].abs(), norm_b) {
                    break;
                }
                if hkk == 0.0 {
                    break; // lucky breakdown: exact solution in subspace
                }
                if let Some(kind) = stall.observe(g[k + 1].abs()) {
                    // Keep the partial progress of this cycle, then stop.
                    breakdown = Some(kind);
                    break;
                }
                v.push(w.iter().map(|wj| wj / hkk).collect());
            }

            if k_used == 0 {
                // The Arnoldi process produced no usable direction: the
                // Krylov basis collapsed at the first step.
                breakdown = Some(BreakdownKind::RhoZero);
                break 'outer;
            }
            // Back-solve the k_used × k_used triangular system H y = g.
            let mut y = vec![0.0; k_used];
            for i in (0..k_used).rev() {
                let mut s = g[i];
                for j in i + 1..k_used {
                    s -= h[i][j] * y[j];
                }
                y[i] = s / h[i][i];
            }
            // u = V y; x += M⁻¹ u.
            let mut u = vec![0.0; n];
            for (j, yj) in y.iter().enumerate() {
                for (ui, vi) in u.iter_mut().zip(&v[j]) {
                    *ui += yj * vi;
                }
            }
            m.apply(&u, &mut z);
            for (xi, zi) in x.iter_mut().zip(&z) {
                *xi += zi;
            }
            // Inner criterion met: stop on the internal residual estimate,
            // as Ginkgo's stopping criterion does.
            if stop.is_converged(g[k_used].abs(), norm_b) {
                converged = true;
                break;
            }
            if breakdown.is_some() {
                break; // stagnation detected inside the cycle
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

    fn general_system(n: usize, seed: u64) -> (Csr, Vec<f64>, Vec<f64>) {
        let mut rng = TestRng::seed_from_u64(seed);
        let a = Matrix::from_fn(n, n, pp_portable::Layout::Right, |i, j| {
            if i == j {
                7.0
            } else if i.abs_diff(j) <= 2 {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            }
        });
        let csr = Csr::from_dense(&a, 0.0);
        let mut rng2 = TestRng::seed_from_u64(seed + 1);
        let x_true: Vec<f64> = (0..n).map(|_| rng2.gen_range(-2.0..2.0)).collect();
        let b = csr.spmv_alloc(&x_true);
        (csr, x_true, b)
    }

    #[test]
    fn converges_without_restart() {
        let (a, x_true, b) = general_system(60, 1);
        let mut x = vec![0.0; 60];
        let res = Gmres::new(60).solve(&a, &Identity, &b, &mut x, &StopCriteria::with_tol(1e-12));
        assert!(res.converged, "{res:?}");
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn converges_with_short_restart() {
        let (a, x_true, b) = general_system(80, 2);
        let mut x = vec![0.0; 80];
        let res = Gmres::new(10).solve(
            &a,
            &BlockJacobi::new(&a, 1),
            &b,
            &mut x,
            &StopCriteria::with_tol(1e-11),
        );
        assert!(res.converged, "{res:?}");
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-7);
        }
    }

    #[test]
    fn paper_tolerance_reachable_with_block_jacobi() {
        let (a, _, b) = general_system(100, 3);
        let mut x = vec![0.0; 100];
        let bj = BlockJacobi::new(&a, 32);
        let res = Gmres::default().solve(&a, &bj, &b, &mut x, &StopCriteria::paper_default());
        assert!(res.converged, "{res:?}");
        assert!(res.relative_residual < 1e-15);
    }

    #[test]
    fn identity_system_converges_immediately() {
        let a = Csr::from_dense(
            &Matrix::from_fn(4, 4, pp_portable::Layout::Right, |i, j| {
                (i == j) as u8 as f64
            }),
            0.0,
        );
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let mut x = vec![0.0; 4];
        let res = Gmres::default().solve(&a, &Identity, &b, &mut x, &StopCriteria::with_tol(1e-12));
        assert!(res.converged);
        assert!(res.iterations <= 1);
    }

    #[test]
    fn warm_start_skips_work() {
        let (a, x_true, b) = general_system(30, 4);
        let mut x = x_true.clone();
        let res = Gmres::default().solve(&a, &Identity, &b, &mut x, &StopCriteria::with_tol(1e-12));
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn max_iters_respected() {
        let (a, _, b) = general_system(50, 5);
        let mut x = vec![0.0; 50];
        let stop = StopCriteria::with_tol(1e-300).with_max_iters(7);
        let res = Gmres::new(3).solve(&a, &Identity, &b, &mut x, &stop);
        assert!(res.iterations <= 7);
        assert!(!res.converged);
    }

    #[test]
    #[should_panic(expected = "restart must be positive")]
    fn zero_restart_rejected() {
        let _ = Gmres::new(0);
    }

    // ---- one test per BreakdownKind ----

    #[test]
    fn breakdown_rho_zero_on_collapsed_basis() {
        // A = 0: the Arnoldi process yields w = A v₁ = 0 and the Krylov
        // basis collapses at the first step with no usable direction.
        let a = Csr::from_dense(&Matrix::zeros(3, 3, pp_portable::Layout::Right), 0.0);
        let b = [1.0, 2.0, 3.0];
        let mut x = [0.0; 3];
        let res = Gmres::default().solve(&a, &Identity, &b, &mut x, &StopCriteria::with_tol(1e-12));
        assert!(!res.converged);
        assert_eq!(res.breakdown, Some(BreakdownKind::RhoZero));
        assert!(res.breakdown.unwrap().is_hard());
    }

    #[test]
    fn breakdown_non_finite_detected_immediately() {
        let (a, _, mut b) = general_system(10, 6);
        b[2] = f64::NAN;
        let mut x = vec![0.0; 10];
        let res = Gmres::default().solve(&a, &Identity, &b, &mut x, &StopCriteria::with_tol(1e-12));
        assert!(!res.converged);
        assert_eq!(res.breakdown, Some(BreakdownKind::NonFiniteResidual));
        assert_eq!(res.iterations, 0, "must not spin to max_iters");
    }

    #[test]
    fn breakdown_stagnation_at_the_rounding_floor() {
        let (a, _, b) = general_system(24, 7);
        let mut x = vec![0.0; 24];
        let stop = StopCriteria::with_tol(1e-300).with_stagnation(4, 0.5);
        let res = Gmres::new(8).solve(&a, &Identity, &b, &mut x, &stop);
        assert!(!res.converged);
        assert_eq!(res.breakdown, Some(BreakdownKind::Stagnation));
        assert!(res.iterations < stop.max_iters);
    }

    #[test]
    fn breakdown_max_iters_reported() {
        let (a, _, b) = general_system(50, 8);
        let mut x = vec![0.0; 50];
        let stop = StopCriteria::with_tol(1e-300).with_max_iters(3);
        let res = Gmres::new(3).solve(&a, &Identity, &b, &mut x, &stop);
        assert!(!res.converged);
        assert_eq!(res.breakdown, Some(BreakdownKind::MaxIters));
        assert!(!res.breakdown.unwrap().is_hard());
    }
}
