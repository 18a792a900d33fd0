//! Full-stack chaos tests: seeded fault campaigns, bit flips struck into
//! the verified solve's panel screen, worker panics colliding with
//! quarantine, and the determinism / no-poisoned-pool /
//! no-silent-wrong-answer invariants.
//!
//! The heavier soak (≥ 32 seeds) lives in the `chaos_soak` bench binary;
//! here a smoke subset runs on every test invocation, plus the scenarios
//! that need the full spline stack (VerifiedBuilder, ExecSpace).

use pp_bsplines::{Breaks, PeriodicSplineSpace};
use pp_iterative::FaultInjector;
use pp_portable::{parallel_for, ExecSpace, Layout, Matrix, Parallel, TestRng, LANE_WIDTH};
use pp_splinesolver::verified::sdc_round;
use pp_splinesolver::{BuilderVersion, LaneVerdict, QuarantineReason, SplineBuilder, VerifyConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

fn space(nx: usize) -> PeriodicSplineSpace {
    PeriodicSplineSpace::new(Breaks::uniform(nx, 0.0, 1.0).expect("mesh"), 3).expect("space")
}

fn rhs(nx: usize, nv: usize, seed: u64) -> Matrix {
    let mut rng = TestRng::seed_from_u64(seed);
    Matrix::from_fn(nx, nv, Layout::Left, |_, _| rng.gen_range(-2.0..2.0))
}

/// Smoke subset of the chaos-soak campaign: every invariant the soak
/// binary checks, over a handful of seeds.
#[test]
fn chaos_smoke_campaign_holds_all_invariants() {
    // A campaign that never strikes proves nothing: the twelve seeds must
    // include a healed transient and a contained persistent strike.
    let (mut healed, mut contained) = (0, 0);
    for seed in 0..12u64 {
        let r = FaultInjector::chaos_round(seed);
        assert!(r.tallies_consistent(), "seed {seed}: {r:?}");
        // Every round is a pure function of its seed: the replay
        // reproduces the fault pattern, the tallies and the output bits.
        let replay = FaultInjector::chaos_round(seed);
        assert_eq!(
            r.fingerprint(),
            replay.fingerprint(),
            "seed {seed}: not replayable"
        );
        // SDC containment, through the verified step's screen: struck bits
        // never become silent wrong answers — transients are healed by the
        // retry, persistent strikes are recovered or quarantined and
        // zeroed, clean rounds never trip the checksum.
        let sdc = sdc_round(seed);
        assert!(sdc.contained(), "seed {seed}: sdc escape — {sdc:?}");
        healed += usize::from(sdc.corrected > 0);
        contained += usize::from(sdc.uncorrected > 0);
    }
    assert!(healed > 0, "no round healed a transient strike");
    assert!(contained > 0, "no round contained a persistent strike");
    // The campaign must leave the shared pool healthy.
    let hits = AtomicUsize::new(0);
    parallel_for(512, |_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 512, "pool poisoned by chaos");
}

/// An `ExecSpace` that panics on one chosen lane mid-dispatch — the
/// "worker dies while the batch is in flight" chaos fault.
struct PanickingExec {
    panic_lane: usize,
}

impl ExecSpace for PanickingExec {
    fn name(&self) -> &'static str {
        "panicking"
    }

    fn for_each<F: Fn(usize) + Sync + Send>(&self, n: usize, f: F) {
        let victim = self.panic_lane;
        Parallel.for_each(n, move |i| {
            if i == victim {
                panic!("chaos: injected worker panic on lane {victim}");
            }
            f(i);
        });
    }
}

/// Satellite (c): a worker panic mid-dispatch while the same batch holds
/// NaN lanes headed for quarantine. The panic must propagate exactly once
/// (no deadlock, no hang), the pool must survive, and a follow-up
/// verified solve must still quarantine the poisoned lanes and emit its
/// reports.
#[test]
fn worker_panic_and_quarantine_in_same_batch_coexist() {
    let verified = SplineBuilder::new(space(24), BuilderVersion::FusedSpmv)
        .expect("builder")
        .verified(VerifyConfig::default());
    // Seven runs of panels: the verified solve dispatches runs of four
    // panels solved abreast (eight panels, one region index each, until the
    // sweep went abreast), and the injected panic needs its index 6 among
    // them.
    let mut b = rhs(24, 7 * 4 * LANE_WIDTH, 77);
    b.set(5, 3, f64::NAN); // quarantine candidate
    let rhs_copy = b.clone();

    // The injected panic fires during the primary batched solve and must
    // reach this frame exactly once.
    let result = catch_unwind(AssertUnwindSafe(|| {
        verified.solve_in_place(&PanickingExec { panic_lane: 6 }, &mut b)
    }));
    let payload = result.expect_err("worker panic must propagate");
    let msg = payload
        .downcast_ref::<String>()
        .expect("panic payload is a string");
    assert!(msg.contains("injected worker panic"), "{msg}");

    // The pool is not poisoned: a clean dispatch still visits every lane.
    let hits = AtomicUsize::new(0);
    parallel_for(256, |_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 256);

    // And the verified pipeline still works end to end: the NaN lane is
    // quarantined (zeroed), healthy lanes solve, the report is complete.
    let mut b2 = rhs_copy;
    let report = verified
        .solve_in_place(&Parallel, &mut b2)
        .expect("clean solve after panic");
    assert_eq!(report.quarantined_lanes(), vec![3]);
    assert!(matches!(
        report.verdict(3),
        LaneVerdict::Quarantined {
            reason: QuarantineReason::NonFiniteInput { index: 5 }
        }
    ));
    for i in 0..24 {
        assert_eq!(b2.get(i, 3), 0.0, "quarantined lane must be zeroed");
    }
}
