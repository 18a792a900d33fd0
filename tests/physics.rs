//! The physics of the Vlasov–Poisson driver, not only its bits: linear
//! Landau damping, the textbook check of a semi-Lagrangian Vlasov solver
//! (Cheng & Knorr 1976; Sonnendrücker et al., JCP 149, 1999).
//!
//! A Maxwellian perturbed by `1 + α cos kx` has a field that oscillates at
//! the Langmuir frequency `ω` and decays at the Landau rate `γ < 0`, both
//! roots of the plasma dispersion relation. The field energy `½∫E²` goes as
//! `e^{2γt} cos²(ωt − φ)`, so its peaks are `π/ω` apart and decay as
//! `e^{2γt}`: a least-squares line through the peaks gives both.

use batched_splines::prelude::*;
use std::sync::OnceLock;

const TAU: f64 = std::f64::consts::TAU;

/// The weakly perturbed Maxwellian `(1 + α cos kx) e^{−v²/2} / √(2π)`.
fn landau(alpha: f64, k: f64) -> impl Fn(f64, f64) -> f64 {
    move |x, v| (1.0 + alpha * (k * x).cos()) * (-0.5 * v * v).exp() / TAU.sqrt()
}

/// The slope of the least-squares line through `points`.
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (sx, sy) = points
        .iter()
        .fold((0.0, 0.0), |(sx, sy), &(x, y)| (sx + x, sy + y));
    let (mx, my) = (sx / n, sy / n);
    let (sxy, sxx) = points.iter().fold((0.0, 0.0), |(sxy, sxx), &(x, y)| {
        (sxy + (x - mx) * (y - my), sxx + (x - mx) * (x - mx))
    });
    sxy / sxx
}

/// [`landau_rates_at`] on 32 × 128. The k = 0.5 resident run is read by
/// two tests, and made once.
fn landau_rates(k: f64, resident: bool) -> (f64, f64) {
    static K_HALF_RESIDENT: OnceLock<(f64, f64)> = OnceLock::new();
    if (k, resident) == (0.5, true) {
        *K_HALF_RESIDENT.get_or_init(|| landau_rates_at(k, 128, resident))
    } else {
        landau_rates_at(k, 128, resident)
    }
}

/// `(γ, ω)` of the run: 32 × `nv` cubic, `v_max` 6, `Δt` 0.1, `L = 2π/k`,
/// the field energy's peaks in `t ∈ (2, 35)` located by a parabola through
/// `ln W` at the three steps around each — so the run stops at the last
/// step that reads, `t = 35.05`. `resident` selects
/// [`VlasovPoisson1D1V::step_resident`] over [`VlasovPoisson1D1V::step`].
fn landau_rates_at(k: f64, nv: usize, resident: bool) -> (f64, f64) {
    let dt = 0.1;
    let mut vp = VlasovPoisson1D1V::new(32, nv, TAU / k, 6.0, 3, dt, landau(0.01, k)).unwrap();
    let mut log_w = Vec::new();
    for _ in 0..351 {
        if resident {
            vp.step_resident(&Parallel).unwrap();
        } else {
            vp.step(&Parallel).unwrap();
        }
        log_w.push(vp.field_energy().ln());
    }
    // Step `s` (from 0) solves the field half a step into its interval.
    let time = |s: f64| (s + 0.5) * dt;
    let mut peaks = Vec::new();
    for s in 1..log_w.len() - 1 {
        let (before, at, after) = (log_w[s - 1], log_w[s], log_w[s + 1]);
        let t = time(s as f64);
        if at > before && at >= after && t > 2.0 && t < 35.0 {
            let shift = 0.5 * (before - after) / (before - 2.0 * at + after);
            peaks.push((t + shift * dt, at - 0.25 * (before - after) * shift));
        }
    }
    assert!(peaks.len() >= 10, "{} peaks in (2, 35)", peaks.len());
    let two_gamma = slope(&peaks);
    let index: Vec<(f64, f64)> = peaks
        .iter()
        .enumerate()
        .map(|(i, &(t, _))| (i as f64, t))
        .collect();
    let half_period = slope(&index);
    (0.5 * two_gamma, std::f64::consts::PI / half_period)
}

/// Both rates within the gates: 2 % on `γ`, 1 % on `ω`.
fn assert_rates(k: f64, resident: bool, gamma: f64, omega: f64) {
    let (got_gamma, got_omega) = landau_rates(k, resident);
    let what = format!(
        "k = {k}: γ = {got_gamma:.4} (theory {gamma}), ω = {got_omega:.4} (theory {omega})"
    );
    assert!(((got_gamma - gamma) / gamma).abs() <= 0.02, "{what}");
    assert!(((got_omega - omega) / omega).abs() <= 0.01, "{what}");
}

#[test]
fn landau_damping_at_k_0_5_on_the_resident_step() {
    assert_rates(0.5, true, -0.1533, 1.4156);
}

#[test]
fn landau_damping_at_k_0_4_on_the_host_step() {
    assert_rates(0.4, false, -0.0661, 1.2850);
}

/// The rate's error is discretisation error: it falls as the velocity
/// grid is refined, 32 × 64 to 32 × 128 at k = 0.5.
#[test]
fn landau_rate_error_falls_with_velocity_resolution() {
    let error = |gamma: f64| (gamma - -0.1533).abs();
    let coarse = error(landau_rates_at(0.5, 64, true).0);
    let fine = error(landau_rates(0.5, true).0);
    assert!(
        fine < coarse,
        "|Δγ| {coarse:.4} at nv 64, {fine:.4} at nv 128"
    );
}

/// The distribution of the k = 0.5 Landau run on 32 × 64 at `t = 4`, in
/// steps of `dt`.
fn landau_at_t4(dt: f64) -> Matrix {
    let mut vp = VlasovPoisson1D1V::new(32, 64, TAU / 0.5, 6.0, 3, dt, landau(0.01, 0.5)).unwrap();
    for _ in 0..(4.0 / dt).round() as usize {
        vp.step_resident(&Parallel).unwrap();
    }
    vp.sync_host();
    vp.distribution().clone()
}

/// Strang splitting is second order in time: on a fixed grid, halving
/// `dt` divides the error against a `dt / 8` reference by 4 ± 0.5 (exact
/// second order reads (0.4² − 0.05²) / (0.2² − 0.05²) = 4.2; a first-order
/// split reads about 2).
#[test]
fn strang_splitting_is_second_order_in_time() {
    let reference = landau_at_t4(0.05);
    let error = |dt| landau_at_t4(dt).max_abs_diff(&reference);
    let ratio = error(0.4) / error(0.2);
    assert!((ratio - 4.0).abs() <= 0.5, "e(0.4) / e(0.2) = {ratio:.3}");
}
