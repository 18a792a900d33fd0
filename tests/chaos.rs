//! Full-stack chaos tests: seeded fault campaigns under wall-clock
//! budgets, bit flips struck into the verified solve's panel screen, worker
//! panics colliding with quarantine, and the no-hang / no-poisoned-pool /
//! no-silent-degradation / no-silent-wrong-answer invariants.
//!
//! The heavier soak (≥ 32 seeds) lives in the `chaos_soak` bench binary;
//! here a smoke subset runs on every test invocation, plus the scenarios
//! that need the full spline stack (VerifiedBuilder, ExecSpace).

use pp_bsplines::{Breaks, PeriodicSplineSpace};
use pp_iterative::{ChaosBudgetKind, FaultInjector};
use pp_portable::{parallel_for, Budget, ExecSpace, Layout, Matrix, Parallel, TestRng, LANE_WIDTH};
use pp_splinesolver::verified::sdc_round;
use pp_splinesolver::{BuilderVersion, LaneVerdict, QuarantineReason, SplineBuilder, VerifyConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

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
    for seed in 0..12u64 {
        let r = FaultInjector::chaos_round(seed);
        assert!(
            r.no_hang(),
            "seed {seed}: elapsed {:?} exceeds bound {:?}",
            r.elapsed,
            r.hang_bound()
        );
        assert!(r.tallies_consistent(), "seed {seed}: {r:?}");
        // Every budget cut is surfaced: the Partial tally matches the
        // BudgetExhausted records one-to-one.
        let logged = r
            .lane_results
            .iter()
            .filter(|res| res.breakdown == Some(pp_iterative::BreakdownKind::BudgetExhausted))
            .count();
        assert_eq!(logged, r.partial, "seed {seed}: silent budget cut");
        if r.budget_kind != ChaosBudgetKind::Tight {
            let replay = FaultInjector::chaos_round(seed);
            assert_eq!(r.checksum, replay.checksum, "seed {seed}: not replayable");
        }
        // SDC containment, through the verified step's screen: struck bits
        // never become silent wrong answers — transients are healed by the
        // retry, persistent strikes are recovered or quarantined and
        // zeroed, clean rounds never trip the checksum.
        let sdc = sdc_round(seed);
        assert!(sdc.contained(), "seed {seed}: sdc escape — {sdc:?}");
    }
    // The campaign must leave the shared pool healthy.
    let hits = AtomicUsize::new(0);
    parallel_for(512, |_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 512, "pool poisoned by chaos");
}

/// A dispatch under a pre-expired deadline returns promptly (bounded by
/// watchdog slack, not by the amount of work queued).
#[test]
fn expired_budget_dispatch_returns_within_slack() {
    let budget = Budget::with_deadline(Duration::from_nanos(1));
    std::thread::sleep(Duration::from_millis(2));
    let started = Instant::now();
    let visited = AtomicUsize::new(0);
    let outcome = pp_portable::parallel_for_budgeted(1_000_000, &budget, |_| {
        visited.fetch_add(1, Ordering::Relaxed);
        // Each lane is non-trivial; 10^6 of them would take far longer
        // than the bound if the budget were ignored.
        std::hint::black_box((0..50).sum::<u64>());
    });
    let elapsed = started.elapsed();
    assert!(!outcome.is_complete());
    let bound = pp_portable::watchdog_slack() + Duration::from_millis(500);
    assert!(
        elapsed < bound,
        "expired-budget dispatch took {elapsed:?} (bound {bound:?})"
    );
    assert!(visited.load(Ordering::Relaxed) < 1_000_000);
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
    let _ = pp_portable::instrument::take_fault_dumps();
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
    #[cfg(feature = "instrument")]
    {
        let dumps = pp_portable::instrument::take_fault_dumps();
        assert!(
            dumps.iter().any(|d| d.reason == "verified_quarantine"),
            "quarantine must still produce its fault dump"
        );
    }
}

/// Mid-flight cooperative cancellation: a token cancelled from inside the
/// work stops the dispatch early and the pool stays healthy.
#[test]
fn mid_flight_cancel_is_prompt_and_pool_survives() {
    let budget = Budget::unlimited();
    let token = budget.cancel_token();
    let ran = AtomicUsize::new(0);
    let outcome = pp_portable::parallel_for_budgeted(2_000_000, &budget, |i| {
        if i == 0 {
            token.cancel();
        }
        ran.fetch_add(1, Ordering::Relaxed);
    });
    assert!(!outcome.is_complete());
    let done = ran.load(Ordering::Relaxed);
    assert!((1..2_000_000).contains(&done), "ran {done} lanes");
    let hits = AtomicUsize::new(0);
    parallel_for(128, |_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 128);
}
