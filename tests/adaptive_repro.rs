//! Reproducibility regression for trace-driven adaptive dispatch.
//!
//! The adaptation contract (`pp_portable::adaptive`) is that live
//! telemetry may change *scheduling* — spin budgets, chunk boundaries —
//! but never *results*:
//!
//! * with `PP_ADAPTIVE` off, behavior is exactly the pre-adaptive static
//!   policy, and
//! * with adaptation on, results are bitwise-identical to static — at
//!   every point of the learning curve, since the estimators reshape the
//!   schedule between calls.
//!
//! These tests pin both halves via [`set_adaptive_override`], the
//! within-process policy switch (the env knob is read once per process).
//! They mutate process-global policy, so each one restores the override
//! before returning and takes the shared guard first.

use batched_splines::bsplines::{Breaks, PeriodicSplineSpace};
use batched_splines::portable::{
    parallel_for_each_mut, parallel_sum, set_adaptive_override, Layout, Matrix, Parallel, TestRng,
};
use batched_splines::splinesolver::{BuilderVersion, SplineBuilder};
use std::sync::Mutex;

/// Serialises the tests in this file: the adaptive override is process
/// state, and cargo runs test functions on parallel threads.
static POLICY: Mutex<()> = Mutex::new(());

fn with_policy<R>(forced: bool, f: impl FnOnce() -> R) -> R {
    set_adaptive_override(Some(forced));
    let out = f();
    set_adaptive_override(None);
    out
}

fn solve_once(builder: &SplineBuilder, rhs: &Matrix) -> Vec<u64> {
    let mut x = rhs.clone();
    builder.solve_in_place(&Parallel, &mut x).unwrap();
    (0..x.ncols())
        .flat_map(|j| x.col(j).to_vec())
        .map(f64::to_bits)
        .collect()
}

#[test]
fn adaptive_solves_are_bitwise_identical_to_static() {
    let _g = POLICY.lock().unwrap_or_else(|e| e.into_inner());
    let space = PeriodicSplineSpace::new(Breaks::uniform(48, 0.0, 1.0).unwrap(), 3).unwrap();
    let mut rng = TestRng::seed_from_u64(0xada9);
    let rhs = Matrix::from_fn(48, 257, Layout::Left, |_, _| rng.gen_range(-2.0..2.0));

    for version in BuilderVersion::ALL {
        let builder = SplineBuilder::new(space.clone(), version).unwrap();
        // Static = the pre-adaptive behavior (PP_ADAPTIVE=0).
        let baseline = with_policy(false, || solve_once(&builder, &rhs));
        // Adaptive, repeatedly: the first calls run with unseeded
        // estimators, later ones with learned spin/chunk choices —
        // every point of the learning curve must match the static bits.
        with_policy(true, || {
            for round in 0..8 {
                assert_eq!(
                    solve_once(&builder, &rhs),
                    baseline,
                    "{version:?} round {round}: adaptive result diverged"
                );
            }
        });
        // And switching back off returns the exact static behavior.
        assert_eq!(with_policy(false, || solve_once(&builder, &rhs)), baseline);
    }
}

#[test]
fn adaptive_chunking_visits_each_element_exactly_once() {
    let _g = POLICY.lock().unwrap_or_else(|e| e.into_inner());
    // Drive the per-lane estimator with cheap lanes (which is where
    // adaptive claims coarsen), then check the per-element contract.
    with_policy(true, || {
        for _ in 0..16 {
            let mut items = vec![0u64; 4093];
            parallel_for_each_mut(&mut items, |i, slot| *slot += i as u64 + 1);
            for (i, v) in items.iter().enumerate() {
                assert_eq!(*v, i as u64 + 1, "slot {i} visited exactly once");
            }
        }
    });
}

#[test]
fn parallel_sum_bracketing_is_policy_independent() {
    let _g = POLICY.lock().unwrap_or_else(|e| e.into_inner());
    // parallel_sum is deliberately excluded from adaptive chunking: its
    // chunk size *is* the partial-sum bracketing. The bits must not
    // depend on the policy or on anything the estimators have learned.
    let f = |i: usize| ((i as f64) * 0.7).sin() * 10f64.powi((i % 13) as i32 - 6);
    let on = with_policy(true, || {
        // Seed the estimators with real dispatches first, so a
        // hypothetical adaptive bracketing would have data to act on.
        for _ in 0..8 {
            let mut items = vec![0u64; 2048];
            parallel_for_each_mut(&mut items, |i, slot| *slot = i as u64);
        }
        parallel_sum(10_000, f)
    });
    let off = with_policy(false, || parallel_sum(10_000, f));
    assert_eq!(on.to_bits(), off.to_bits());
}
