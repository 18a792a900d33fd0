//! The paper's benchmark application as a user-facing example: batched 1D
//! semi-Lagrangian advection of a distribution function, with per-phase
//! timing (Algorithm 2) and a direct-vs-iterative backend comparison.
//!
//! ```text
//! cargo run --release --example gyro_advection [nx] [nv] [steps]
//! ```

use batched_splines::prelude::*;
use pp_advection::StepTimings;

fn arg(i: usize, default: usize) -> usize {
    std::env::args()
        .nth(i)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let nx = arg(1, 512);
    let nv = arg(2, 256);
    let steps = arg(3, 50);
    let dt = 5e-4;
    println!("1D batched advection: Nx = {nx}, Nv = {nv}, {steps} steps, dt = {dt}");

    // Velocity grid like a Vlasov code's: symmetric around zero.
    let velocities: Vec<f64> = (0..nv)
        .map(|j| -2.0 + 4.0 * j as f64 / (nv - 1).max(1) as f64)
        .collect();

    // A Gaussian pulse in x for every velocity lane.
    let f0 = |x: f64, _v: f64| (-(x - 0.5) * (x - 0.5) / 0.01).exp();

    for (label, backend) in [
        (
            "direct (kokkos-kernels style)",
            SplineBackend::direct(
                PeriodicSplineSpace::new(Breaks::uniform(nx, 0.0, 1.0).unwrap(), 3).unwrap(),
                BuilderVersion::FusedSpmv,
            )
            .unwrap(),
        ),
        (
            "iterative (ginkgo style)",
            SplineBackend::iterative(
                PeriodicSplineSpace::new(Breaks::uniform(nx, 0.0, 1.0).unwrap(), 3).unwrap(),
                IterativeConfig::cpu(),
            )
            .unwrap(),
        ),
    ] {
        let mut adv = Advection1D::new(backend, velocities.clone(), dt).expect("setup");
        let mut f = adv.init_distribution(f0);
        let mass0 = adv.mass(&f);

        let mut totals = StepTimings::default();
        for _ in 0..steps {
            let t = adv.step(&Parallel, &mut f).expect("step");
            totals.accumulate(&t);
        }
        let exact = adv.analytic(f0, steps);
        let err = f.max_abs_diff(&exact);
        let mass_drift = ((adv.mass(&f) - mass0) / mass0).abs();

        println!("\n--- {label} ---");
        println!(
            "  gather + splines + interpolate (one region) {:>8.2} ms | repaired lanes {:>8.2} ms",
            totals.splines_solve.as_secs_f64() * 1e3,
            totals.interpolate.as_secs_f64() * 1e3,
        );
        println!(
            "  throughput {:.4} GLUPS | max error vs analytic {err:.3e} | mass drift {mass_drift:.3e}",
            glups(nx, nv, totals.total() / steps as u32)
        );
        assert!(err < 1e-2, "advection accuracy");
        assert!(mass_drift < 1e-9, "mass conservation");
    }
    println!("\nboth backends advect the pulse identically — done");
}
