//! Ablation — sensitivity of the iterative backend to its tunable, the
//! block-Jacobi `max_block_size` (the paper says "tunable between 1 and
//! 32"). The paper's other knob, the pipelining chunk size (8192 CPU /
//! 65535 GPU), exists only because Ginkgo could not hold the whole batch;
//! every lane here is an independent solve, so there is no chunk to sweep.

use pp_bench::{parse_args, SplineConfig};
use pp_portable::{Layout, Matrix};
use pp_splinesolver::{IterativeConfig, IterativeSplineSolver};
use std::time::Instant;

fn main() {
    let args = parse_args(1000, 2048, 1);
    let cfg = SplineConfig {
        degree: 3,
        uniform: true,
    };
    println!(
        "=== Ablation: iterative-backend block size (Nx = {}, Nv = {}) ===\n",
        args.nx, args.nv
    );

    let rhs = Matrix::from_fn(args.nx, args.nv, Layout::Left, |i, j| {
        ((i + 3 * j) % 29) as f64 / 29.0
    });

    println!("--- block-Jacobi max_block_size (BiCGStab, tol 1e-15) ---");
    println!("{:>12} {:>12} {:>14}", "block size", "iterations", "time");
    for block in [1usize, 2, 4, 8, 16, 32] {
        let mut config = IterativeConfig::gpu();
        config.max_block_size = block;
        config.warm_start = false;
        let solver = IterativeSplineSolver::new(cfg.space(args.nx), config).expect("setup");
        let mut b = rhs.clone();
        let start = Instant::now();
        let log = solver.solve_in_place(&mut b, None).expect("convergence");
        println!(
            "{:>12} {:>12} {:>11.1} ms",
            block,
            log.max_iterations(),
            start.elapsed().as_secs_f64() * 1e3
        );
    }

    println!("\nexpected: larger blocks cut iterations.");
}
