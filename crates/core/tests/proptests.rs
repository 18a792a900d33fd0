//! Randomised property tests for the spline builder: for random inputs
//! on random spaces, every kernel version inverts the interpolation
//! matrix (verified by evaluating the spline back at the interpolation
//! points). Driven by the deterministic [`TestRng`] so runs are
//! reproducible and hermetic.

use pp_bsplines::{Breaks, PeriodicSplineSpace};
use pp_portable::{Layout, Matrix, Parallel, TestRng};
use pp_splinesolver::{BuilderVersion, SplineBuilder};

fn hash01(i: usize, j: usize, seed: u64) -> f64 {
    let v = (i as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((j as u64).wrapping_mul(0xD1B54A32D192ED03))
        .wrapping_add(seed);
    ((v >> 32) % 4096) as f64 / 2048.0 - 1.0
}

/// solve(A, values) produces coefficients whose spline reproduces the
/// values at every interpolation point — for random degree, mesh
/// grading, batch size, layout and kernel version.
#[test]
fn builder_inverts_interpolation() {
    let mut g = TestRng::seed_from_u64(0x50);
    for _ in 0..40 {
        let degree = g.gen_range(3usize..=5);
        let n = g.gen_range(14usize..40);
        let strength = g.gen_range(0.0f64..0.7);
        let batch = g.gen_range(1usize..8);
        let seed = g.gen_range(0u64..1000);
        let version_idx = g.gen_range(0usize..BuilderVersion::ALL.len());
        let layout_left = g.gen_bool(0.5);
        let breaks = if strength < 0.05 {
            Breaks::uniform(n, 0.0, 1.0).unwrap()
        } else {
            Breaks::graded(n, 0.0, 1.0, strength).unwrap()
        };
        let space = PeriodicSplineSpace::new(breaks, degree).unwrap();
        let version = BuilderVersion::ALL[version_idx];
        let builder = SplineBuilder::new(space.clone(), version).unwrap();
        let layout = if layout_left {
            Layout::Left
        } else {
            Layout::Right
        };
        let values = Matrix::from_fn(n, batch, layout, |i, j| hash01(i, j, seed));
        let mut coefs = values.clone();
        builder.solve_in_place(&Parallel, &mut coefs).unwrap();
        let pts = space.interpolation_points();
        for j in 0..batch {
            let c = coefs.col(j).to_vec();
            for (k, &x) in pts.iter().enumerate() {
                assert!(
                    (space.eval(&c, x) - values.get(k, j)).abs() < 1e-9,
                    "deg {degree} n {n} {version:?} lane {j} point {k}"
                );
            }
        }
    }
}
