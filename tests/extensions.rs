//! Integration tests for the beyond-paper extensions: tensor-product 2-D
//! splines, clamped (non-periodic) spaces, and spline quadrature —
//! exercised together through the public facade.

use batched_splines::prelude::*;
use pp_bsplines::SplineSpace;
use pp_splinesolver::tensor2d::uniform_tensor;

const TAU: f64 = std::f64::consts::TAU;

/// 2-D advection-like remap: interpolate a rotated field on the tensor
/// space and verify pointwise accuracy — the building block of a 2D
/// semi-Lagrangian step.
#[test]
fn tensor_spline_remap_accuracy() {
    let t = uniform_tensor(48, 48, 3, BuilderVersion::FusedSpmv).unwrap();
    let (px, py) = t.interpolation_points();
    let field = |x: f64, y: f64| (TAU * x).sin() * (TAU * y).sin();
    let mut coefs = ResidentBatch::pack(&Matrix::from_fn(48, 48, Layout::Left, |i, j| {
        field(px[i], py[j])
    }));
    t.interpolate_in_place(&Parallel, &mut coefs).unwrap();

    // Evaluate at back-rotated points (a rigid displacement).
    let (dx, dy) = (0.013, -0.027);
    let mut worst: f64 = 0.0;
    for i in (0..48).step_by(3) {
        for j in (0..48).step_by(3) {
            let v = t.eval(&coefs, px[i] - dx, py[j] - dy);
            worst = worst.max((v - field(px[i] - dx, py[j] - dy)).abs());
        }
    }
    assert!(worst < 5e-5, "2D remap error {worst}");
}

/// Clamped spaces handle what periodic ones cannot: a profile with
/// different end values, solved through the batched banded builder.
#[test]
fn clamped_builder_full_pipeline() {
    let space = SplineSpace::clamped(Breaks::graded(48, 0.0, 1.0, 0.5).unwrap(), 4).unwrap();
    let builder = SplineBuilder::new(space.clone(), BuilderVersion::FusedSpmv).unwrap();
    let nb = space.num_basis();
    let pts = space.interpolation_points();
    let f = |x: f64, lane: usize| (1.0 + lane as f64) * x * x + x.exp();
    let mut b = Matrix::from_fn(nb, 6, Layout::Left, |i, j| f(pts[i], j));
    builder.solve_in_place(&Parallel, &mut b).unwrap();
    for j in 0..6 {
        let coefs = b.col(j).to_vec();
        for k in 0..=40 {
            let x = k as f64 / 40.0;
            assert!(
                (space.eval(&coefs, x) - f(x, j)).abs() < 1e-6,
                "lane {j} x {x}"
            );
        }
        // End values interpolate exactly (clamped property).
        assert!((space.eval(&coefs, 0.0) - f(0.0, j)).abs() < 1e-10);
        assert!((space.eval(&coefs, 1.0) - f(1.0, j)).abs() < 1e-10);
    }
}

/// Quadrature consistency: advecting a profile conserves its spline
/// integral (the conservation diagnostic GYSELA cares about).
#[test]
fn advection_conserves_spline_integral() {
    let space = PeriodicSplineSpace::new(Breaks::uniform(64, 0.0, 1.0).unwrap(), 3).unwrap();
    let builder = SplineBuilder::new(space.clone(), BuilderVersion::FusedSpmv).unwrap();
    let pts = space.interpolation_points();
    let mut b = Matrix::from_fn(64, 1, Layout::Left, |i, _| {
        (-(pts[i] - 0.5) * (pts[i] - 0.5) / 0.01).exp()
    });
    builder.solve_in_place(&Serial, &mut b).unwrap();
    let coefs0 = b.col(0).to_vec();
    let mass0 = space.integrate(&coefs0);

    // Shift the spline by evaluating at displaced points, re-interpolate,
    // compare integrals.
    let shifted: Vec<f64> = pts
        .iter()
        .map(|&x| space.eval(&coefs0, x - 0.0123))
        .collect();
    let mut b2 = Matrix::from_vec(64, 1, Layout::Left, shifted).unwrap();
    builder.solve_in_place(&Serial, &mut b2).unwrap();
    let mass1 = space.integrate(&b2.col(0).to_vec());
    assert!(
        ((mass1 - mass0) / mass0).abs() < 1e-6,
        "integral drifted: {mass0} -> {mass1}"
    );
}

/// Periodic and clamped spaces agree in the interior on a function with
/// periodic continuation (the clamped boundary handling must not disturb
/// the interior).
#[test]
fn periodic_and_clamped_agree_in_interior() {
    let breaks = Breaks::uniform(40, 0.0, 1.0).unwrap();
    let f = |x: f64| (TAU * x).sin();

    let p = PeriodicSplineSpace::new(breaks.clone(), 3).unwrap();
    let cp = p
        .interpolate_naive(
            &p.interpolation_points()
                .iter()
                .map(|&x| f(x))
                .collect::<Vec<_>>(),
        )
        .unwrap();

    let c = SplineSpace::clamped(breaks, 3).unwrap();
    let cc = c
        .interpolate_naive(
            &c.interpolation_points()
                .iter()
                .map(|&x| f(x))
                .collect::<Vec<_>>(),
        )
        .unwrap();

    for k in 10..=30 {
        let x = k as f64 / 40.0; // interior, away from the clamped ends
        assert!(
            (p.eval(&cp, x) - c.eval(&cc, x)).abs() < 1e-6,
            "x = {x}: periodic {} vs clamped {}",
            p.eval(&cp, x),
            c.eval(&cc, x)
        );
    }
}
