//! Randomised property tests for the Krylov solvers: every solver
//! recovers the true solution of random well-conditioned systems, with
//! and without preconditioning. Driven by the deterministic [`TestRng`]
//! so runs are reproducible and hermetic.

use pp_iterative::{BiCgStab, BlockJacobi, Gmres, Identity, IterativeSolver, StopCriteria};
use pp_portable::{Layout, Matrix, TestRng};
use pp_sparse::Csr;

/// Random diagonally dominant, non-symmetric sparse system (nonsingular by
/// construction).
fn system(n: usize, seed: u64) -> (Csr, Vec<f64>, Vec<f64>) {
    let h = |i: usize, j: usize| -> f64 {
        let v = (i as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((j as u64).wrapping_mul(0xC2B2AE3D27D4EB4F))
            .wrapping_add(seed);
        ((v >> 32) % 2000) as f64 / 1000.0 - 1.0
    };
    let dense = Matrix::from_fn(n, n, Layout::Right, |i, j| {
        if i == j {
            // Strict dominance over at most 4 off-diagonal entries.
            5.0 + h(i, i).abs()
        } else if i.abs_diff(j) <= 2 {
            h(i, j)
        } else {
            0.0
        }
    });
    let a = Csr::from_dense(&dense, 0.0);
    let x_true: Vec<f64> = (0..n).map(|i| h(i, i + 7) * 3.0).collect();
    let b = a.spmv_alloc(&x_true);
    (a, x_true, b)
}

fn check(solver: &dyn IterativeSolver, a: &Csr, b: &[f64], x_true: &[f64], precond_block: usize) {
    let n = b.len();
    let mut x = vec![0.0; n];
    let stop = StopCriteria::with_tol(1e-12);
    let result = if precond_block == 0 {
        solver.solve(a, &Identity, b, &mut x, &stop)
    } else {
        let bj = BlockJacobi::new(a, precond_block);
        solver.solve(a, &bj, b, &mut x, &stop)
    };
    assert!(result.converged, "{} failed: {result:?}", solver.name());
    for (u, v) in x.iter().zip(x_true) {
        assert!(
            (u - v).abs() < 1e-7,
            "{}: {u} vs {v} (residual {})",
            solver.name(),
            result.relative_residual
        );
    }
}

/// BiCGStab recovers the solution of random non-symmetric systems.
#[test]
fn bicgstab_recovers_general() {
    let mut g = TestRng::seed_from_u64(0x31);
    for _ in 0..48 {
        let n = g.gen_range(2usize..60);
        let seed = g.gen_range(0u64..400);
        let block = g.gen_range(0usize..9);
        let (a, x_true, b) = system(n, seed);
        check(&BiCgStab, &a, &b, &x_true, block.min(n));
    }
}

/// GMRES recovers the solution even with short restarts.
#[test]
fn gmres_recovers_general() {
    let mut g = TestRng::seed_from_u64(0x33);
    for _ in 0..48 {
        let n = g.gen_range(2usize..50);
        let seed = g.gen_range(0u64..400);
        let restart = g.gen_range(3usize..40);
        let (a, x_true, b) = system(n, seed);
        check(&Gmres::new(restart), &a, &b, &x_true, 4.min(n));
    }
}
