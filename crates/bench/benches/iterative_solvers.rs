//! Bench backing Table IV: Krylov solver cost per spline configuration
//! (iteration counts are asserted in tests; this measures the time those
//! iterations cost).

use pp_bench::{fmt_ms, time_mean, SplineConfig};
use pp_portable::{Layout, Matrix};
use pp_splinesolver::{IterativeConfig, IterativeSplineSolver, KrylovKind};

fn main() {
    let nx = 1000;
    let nv = 16;
    let iters = 5;
    println!("table4/iterative_solve ({nx} x {nv}, mean of {iters})");
    for cfg in [
        SplineConfig {
            degree: 3,
            uniform: true,
        },
        SplineConfig {
            degree: 5,
            uniform: false,
        },
    ] {
        for kind in [KrylovKind::Gmres, KrylovKind::BiCgStab] {
            let mut config = IterativeConfig::cpu();
            config.kind = kind;
            config.warm_start = false;
            let solver = IterativeSplineSolver::new(cfg.space(nx), config).expect("setup");
            let rhs = Matrix::from_fn(nx, nv, Layout::Left, |i, j| {
                ((i * 3 + j) % 19) as f64 / 19.0
            });
            let name = match kind {
                KrylovKind::Gmres => "GMRES",
                KrylovKind::BiCgStab => "BiCGStab",
            };
            let d = time_mean(iters, || {
                let mut work = rhs.clone();
                solver.solve_in_place(&mut work, None).expect("convergence");
            });
            println!("  {:>24}/{:<9} {}", cfg.label(), name, fmt_ms(d));
        }
    }
}
