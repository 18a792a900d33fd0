//! Cross-crate integration tests: the full pipeline from spline space to
//! advected distribution, exercised through the public facade.

use batched_splines::prelude::*;
use pp_advection::vlasov::two_stream;

const TAU: f64 = std::f64::consts::TAU;

/// All six spline configurations (paper's sweep) × all three builder
/// versions × both backends produce coefficients that actually
/// interpolate: evaluation at the interpolation points returns the input
/// data. Every Krylov lane converges, to within 1e-9 of the direct
/// builder's coefficients.
#[test]
fn every_configuration_interpolates() {
    for degree in [3usize, 4, 5] {
        for uniform in [true, false] {
            let breaks = if uniform {
                Breaks::uniform(40, 0.0, 2.0).unwrap()
            } else {
                Breaks::graded(40, 0.0, 2.0, 0.5).unwrap()
            };
            let space = PeriodicSplineSpace::new(breaks, degree).unwrap();
            let pts = space.interpolation_points();
            let data = Matrix::from_fn(40, 5, Layout::Left, |i, j| {
                (TAU * pts[i] / 2.0 + j as f64).sin()
            });

            let mut direct = data.clone();
            for version in [
                BuilderVersion::Baseline,
                BuilderVersion::Fused,
                BuilderVersion::FusedSpmv,
            ] {
                let builder = SplineBuilder::new(space.clone(), version).unwrap();
                let mut coefs = data.clone();
                builder.solve_in_place(&Parallel, &mut coefs).unwrap();
                direct = coefs.clone();
                for j in 0..5 {
                    let c = coefs.col(j).to_vec();
                    for (k, &x) in pts.iter().enumerate() {
                        assert!(
                            (space.eval(&c, x) - data.get(k, j)).abs() < 1e-10,
                            "deg {degree} uniform {uniform} {version:?}"
                        );
                    }
                }
            }

            let iter = IterativeSplineSolver::new(space.clone(), IterativeConfig::gpu()).unwrap();
            let mut coefs = data.clone();
            let log = iter.solve_in_place(&mut coefs, None).unwrap();
            assert!(log.all_converged(), "deg {degree} uniform {uniform}");
            let diff = coefs.max_abs_diff(&direct);
            assert!(diff < 1e-9, "deg {degree} uniform {uniform}: {diff}");
            for j in 0..5 {
                let c = coefs.col(j).to_vec();
                for (k, &x) in pts.iter().enumerate() {
                    assert!(
                        (space.eval(&c, x) - data.get(k, j)).abs() < 1e-9,
                        "iterative deg {degree} uniform {uniform}"
                    );
                }
            }
        }
    }
}

/// Semi-Lagrangian advection converges to the analytic solution at the
/// expected order in space: halving h with a smooth profile shrinks the
/// error by roughly 2^(degree+1).
#[test]
fn advection_spatial_convergence_order() {
    let run = |nx: usize| -> f64 {
        let space = PeriodicSplineSpace::new(Breaks::uniform(nx, 0.0, 1.0).unwrap(), 3).unwrap();
        let backend = SplineBackend::direct(space, BuilderVersion::FusedSpmv).unwrap();
        // Keep the foot offset at a fixed fraction (0.33) of the cell
        // width across refinements, so the interpolation-error constant
        // B(α) is identical and the measured order is clean; the offset
        // also keeps feet off grid points (where interpolation would be
        // exact and hide the spatial error).
        let v = 0.31;
        let dt = 0.33 / (nx as f64 * v);
        let mut adv = Advection1D::new(backend, vec![v], dt).unwrap();
        let f0 = |x: f64, _: f64| (TAU * x).sin();
        let mut f = adv.init_distribution(f0);
        let steps = 16;
        for _ in 0..steps {
            adv.step(&Serial, &mut f).unwrap();
        }
        f.max_abs_diff(&adv.analytic(f0, steps))
    };
    let e1 = run(16);
    let e2 = run(32);
    let order = (e1 / e2).log2();
    assert!(
        order > 3.0,
        "cubic semi-Lagrangian should converge at order ~4, got {order:.2} ({e1:.2e} -> {e2:.2e})"
    );
}

/// The direct builder agrees with the iterative backend to solver
/// tolerance across a realistic advection run.
#[test]
fn backends_agree_through_time_series() {
    let space = PeriodicSplineSpace::new(Breaks::uniform(64, 0.0, 1.0).unwrap(), 4).unwrap();
    let velocities = vec![0.17, -0.41, 0.93];
    let f0 = |x: f64, _: f64| (-(x - 0.4) * (x - 0.4) / 0.01).exp();

    let mut adv_d = Advection1D::new(
        SplineBackend::direct(space.clone(), BuilderVersion::Fused).unwrap(),
        velocities.clone(),
        0.01,
    )
    .unwrap();
    let mut adv_i = Advection1D::new(
        SplineBackend::iterative(space, IterativeConfig::cpu()).unwrap(),
        velocities,
        0.01,
    )
    .unwrap();
    assert_eq!(adv_d.backend_label(), "kokkos-kernels");
    assert_eq!(adv_i.backend_label(), "ginkgo");
    let mut fd = adv_d.init_distribution(f0);
    let mut fi = fd.clone();
    for _ in 0..20 {
        adv_d.step(&Parallel, &mut fd).unwrap();
        adv_i.step(&Parallel, &mut fi).unwrap();
    }
    assert!(fd.max_abs_diff(&fi) < 1e-8, "{}", fd.max_abs_diff(&fi));
}

/// The Vlasov–Poisson driver conserves mass and produces finite fields
/// through a multi-step run (smoke test of the full physics stack).
#[test]
fn vlasov_poisson_smoke() {
    let mut sim =
        VlasovPoisson1D1V::new(24, 48, TAU / 0.5, 5.0, 3, 0.05, two_stream(1.4, 0.01, 0.5))
            .unwrap();
    let m0 = sim.mass();
    for _ in 0..10 {
        sim.step(&Parallel).unwrap();
    }
    assert!(((sim.mass() - m0) / m0).abs() < 1e-4);
    assert!(sim.e_field().iter().all(|e| e.is_finite()));
    assert!(sim.field_energy() >= 0.0);
}

/// Layouts are interchangeable end to end: the same advection in
/// Layout::Left and Layout::Right RHS storage gives identical physics.
#[test]
fn layout_independence() {
    let space = PeriodicSplineSpace::new(Breaks::uniform(32, 0.0, 1.0).unwrap(), 3).unwrap();
    let builder = SplineBuilder::new(space.clone(), BuilderVersion::FusedSpmv).unwrap();
    let pts = space.interpolation_points();
    for layout in [Layout::Left, Layout::Right] {
        let mut b = Matrix::from_fn(32, 6, layout, |i, j| (TAU * pts[i] + j as f64).cos());
        builder.solve_in_place(&Parallel, &mut b).unwrap();
        let c = b.col(3).to_vec();
        let x = 0.123;
        assert!(
            (space.eval(&c, x) - (TAU * x + 3.0).cos()).abs() < 1e-4,
            "{layout:?}"
        );
    }
}
