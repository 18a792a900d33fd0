//! Trace-driven adaptive dispatch: live telemetry feeding scheduling.
//!
//! PR 4's instrumentation made dispatch latency *observable*; this module
//! closes the loop and makes it *actionable*. Two knobs adapt from the
//! same measurements the telemetry stream exports:
//!
//! * **Spin-before-park** — the pool's waiters ([`crate::pool`]) size
//!   their spin budget from the live dispatch-latency EWMA instead of the
//!   static `SPIN` constant: when dispatches hand off in a microsecond,
//!   a 4096-iteration spin is wasted cycles; when they take tens of
//!   microseconds, parking early costs a futex round-trip per dispatch.
//! * **Chunk sizing** — [`crate::parallel_for`] /
//!   [`crate::parallel_for_each_mut`] pick their claim granularity from
//!   the recent per-lane cost estimate: cheap lanes get coarser chunks
//!   (fewer atomic claims), expensive lanes keep fine chunks (load
//!   balance). The adaptive chunk is always clamped inside the static
//!   policy's range, so it can sharpen the schedule but never degrade
//!   its balancing guarantees.
//!
//! ## Determinism contract
//!
//! Adaptation changes *when and where* lanes run — spin counts, chunk
//! boundaries — never *what they compute*. Every adapted
//! code path performs identical per-lane arithmetic, so results are
//! bitwise-identical whether adaptation is on, off, or mid-learning.
//! The one primitive whose output depends on chunk bracketing,
//! [`crate::parallel_sum`], is deliberately **excluded** from adaptive
//! chunking. `tests/adaptive_repro.rs` pins both properties.
//!
//! ## Control
//!
//! `PP_ADAPTIVE` (default **on**; `0`/`false`/`off`/`no` disables, parsed
//! warn-once like every other `PP_*` knob) pins every knob to its static
//! value — the exact pre-adaptive behavior. [`set_adaptive_override`]
//! lets benches and tests flip the policy *within* one process, which is
//! how the A/B comparison in `dispatch_overhead` measures both policies
//! under identical load.
//!
//! The feedback state is a handful of plain relaxed atomics — no locks,
//! no allocation, compiled in **both** instrumentation modes (the
//! feature-off build is exactly the one `dispatch_overhead` gates), with
//! the `instrument` registry mirroring the per-lane estimate only when
//! the feature is on.

use pp_instrument as instrument;
use std::sync::atomic::{AtomicI8, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Floor for the adaptive spin budget: even very fast handoffs keep a
/// short spin so back-to-back dispatches avoid the futex round-trip.
pub const SPIN_MIN: usize = 1 << 8;

/// Ceiling for the adaptive spin budget: past this, a waiter is burning
/// a core that the lanes being waited on could use.
pub const SPIN_MAX: usize = 1 << 14;

/// Rough cost of one `std::hint::spin_loop` iteration, used to convert
/// the dispatch-latency EWMA (ns) into a spin iteration budget. The
/// exact constant matters little — the budget is clamped to
/// [`SPIN_MIN`]..=[`SPIN_MAX`] — it only sets where in that band a
/// given latency lands.
const SPIN_COST_NS: u64 = 2;

/// Target wall-clock per claimed chunk: large enough that the claim
/// fetch-add (tens of ns contended) is noise, small enough that a
/// worker never holds more than a sliver of the batch while others
/// idle.
const TARGET_CHUNK_NS: u64 = 20_000;

/// EWMA weight: `new = (7*old + sample) / 8`. Eight samples of history
/// smooths scheduling jitter while still tracking a phase change (e.g.
/// the driver moving from tiny control dispatches to full solves)
/// within a dozen dispatches.
const EWMA_OLD_WEIGHT: u64 = 7;

/// Tri-state programmatic override: -1 = none (follow `PP_ADAPTIVE`),
/// 0 = forced off, 1 = forced on.
static OVERRIDE: AtomicI8 = AtomicI8::new(-1);

/// EWMA of whole-dispatch latency in ns (0 = unseeded).
static DISPATCH_EWMA_NS: AtomicU64 = AtomicU64::new(0);

/// EWMA of estimated single-lane cost in ns (0 = unseeded).
static LANE_EWMA_NS: AtomicU64 = AtomicU64::new(0);

/// Whether adaptive dispatch is active: the programmatic override when
/// one is set, else `PP_ADAPTIVE` (default on, read once per process
/// with warn-once parsing).
pub fn adaptive_enabled() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => {
            static ENV: OnceLock<bool> = OnceLock::new();
            *ENV.get_or_init(|| instrument::env::env_bool("PP_ADAPTIVE").unwrap_or(true))
        }
    }
}

/// Force adaptation on/off (`Some`) or defer to `PP_ADAPTIVE` (`None`).
///
/// This is the bench/test hook: `PP_ADAPTIVE` is read once per process,
/// but `dispatch_overhead` must measure the static and adaptive policies
/// in the *same* process to compare them fairly, and the reproducibility
/// test must flip the policy around a solve to prove bitwise equality.
pub fn set_adaptive_override(forced: Option<bool>) {
    OVERRIDE.store(
        match forced {
            None => -1,
            Some(false) => 0,
            Some(true) => 1,
        },
        Ordering::Relaxed,
    );
}

/// Racy-but-monotone-safe EWMA update. The load/store pair is not
/// atomic as a unit; a lost update under contention just drops one
/// sample from a smoothing filter, which is harmless by construction.
fn ewma_update(cell: &AtomicU64, sample: u64) {
    let old = cell.load(Ordering::Relaxed);
    let new = if old == 0 {
        sample.max(1)
    } else {
        (old.saturating_mul(EWMA_OLD_WEIGHT).saturating_add(sample) / (EWMA_OLD_WEIGHT + 1)).max(1)
    };
    cell.store(new, Ordering::Relaxed);
}

/// Cached handle mirroring the per-lane estimate into the `instrument`
/// registry (no-op handle when the feature is off), so the telemetry
/// stream exports the same signal the scheduler adapts on.
fn lane_cost_histogram() -> &'static instrument::Histogram {
    static HIST: OnceLock<instrument::Histogram> = OnceLock::new();
    HIST.get_or_init(|| instrument::histogram("pool.lane_cost_ns"))
}

/// Feed one completed dispatch into the estimators: `elapsed_ns` of
/// wall clock for `lanes` lanes spread over `workers` participating
/// threads (committed workers + the dispatching caller). The per-lane
/// cost estimate is `elapsed * workers / lanes` — the parallel work the
/// batch actually consumed, amortised per lane.
pub(crate) fn note_dispatch(elapsed_ns: u64, lanes: usize, workers: usize) {
    if lanes == 0 || !adaptive_enabled() {
        return;
    }
    ewma_update(&DISPATCH_EWMA_NS, elapsed_ns);
    let lane_ns = elapsed_ns
        .saturating_mul(workers.max(1) as u64)
        .checked_div(lanes as u64)
        .unwrap_or(0);
    ewma_update(&LANE_EWMA_NS, lane_ns);
    lane_cost_histogram().record(lane_ns);
}

/// Live dispatch-latency EWMA in ns (0 until the first dispatch is
/// observed). Exposed for benches and the telemetry soak.
pub fn dispatch_ewma_ns() -> u64 {
    DISPATCH_EWMA_NS.load(Ordering::Relaxed)
}

/// Live per-lane cost EWMA in ns (0 until seeded).
pub fn lane_cost_ewma_ns() -> u64 {
    LANE_EWMA_NS.load(Ordering::Relaxed)
}

/// Spin budget for a pool waiter. `static_budget` is the compile-time
/// policy (and already 0 on single-core hosts — spinning there only
/// steals cycles from the thread being waited on, so adaptation never
/// re-enables it). With adaptation on and a seeded estimator, the
/// budget covers roughly one observed dispatch latency of spinning,
/// clamped to [`SPIN_MIN`]..=[`SPIN_MAX`].
pub(crate) fn adaptive_spin(static_budget: usize) -> usize {
    if static_budget == 0 || !adaptive_enabled() {
        return static_budget;
    }
    spin_from(DISPATCH_EWMA_NS.load(Ordering::Relaxed), static_budget)
}

/// Pure spin heuristic: unseeded estimator keeps the static budget;
/// otherwise spin long enough to cover one observed dispatch latency,
/// clamped to the documented band.
fn spin_from(ewma_ns: u64, static_budget: usize) -> usize {
    if ewma_ns == 0 {
        return static_budget;
    }
    ((ewma_ns / SPIN_COST_NS) as usize).clamp(SPIN_MIN, SPIN_MAX)
}

/// Chunk size for index-range dispatch ([`crate::parallel_for`]).
/// `static_chunk` is the static policy (`n / (threads * 8)`); with a
/// seeded estimator the chunk targets [`TARGET_CHUNK_NS`] of lane work
/// but is clamped to **at most** the static chunk — adaptive chunking
/// may sharpen load balancing for expensive lanes, never coarsen the
/// static guarantee.
pub(crate) fn adaptive_for_chunk(static_chunk: usize) -> usize {
    if !adaptive_enabled() {
        return static_chunk;
    }
    for_chunk_from(LANE_EWMA_NS.load(Ordering::Relaxed), static_chunk)
}

/// Pure range-chunk heuristic: unseeded keeps the static chunk; seeded
/// targets [`TARGET_CHUNK_NS`] of lane work, clamped to at most the
/// static chunk.
fn for_chunk_from(lane_ns: u64, static_chunk: usize) -> usize {
    if lane_ns == 0 {
        return static_chunk;
    }
    ((TARGET_CHUNK_NS / lane_ns).max(1) as usize).min(static_chunk.max(1))
}

/// Chunk size for per-element dispatch
/// ([`crate::parallel_for_each_mut`]), whose static policy is the
/// finest possible granularity (chunk 1). With a seeded estimator,
/// cheap lanes are batched up toward [`TARGET_CHUNK_NS`] per claim —
/// but never past `ceiling`, the `parallel_for`-style balance bound
/// (`n / (threads * 8)`), so ragged lane costs still cannot serialise
/// the batch.
pub(crate) fn adaptive_each_chunk(ceiling: usize) -> usize {
    if !adaptive_enabled() {
        return 1;
    }
    each_chunk_from(LANE_EWMA_NS.load(Ordering::Relaxed), ceiling)
}

/// Pure per-element-chunk heuristic: unseeded keeps the static chunk of
/// 1; seeded batches cheap lanes toward [`TARGET_CHUNK_NS`] per claim,
/// clamped to the balance ceiling.
fn each_chunk_from(lane_ns: u64, ceiling: usize) -> usize {
    if lane_ns == 0 {
        return 1;
    }
    ((TARGET_CHUNK_NS / lane_ns).max(1) as usize).clamp(1, ceiling.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The override and EWMAs are process-global; serialise the tests
    /// that mutate them so parallel test threads don't observe each
    /// other's policy flips.
    static POLICY_LOCK: Mutex<()> = Mutex::new(());

    fn with_policy<R>(forced: Option<bool>, f: impl FnOnce() -> R) -> R {
        let _g = POLICY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_adaptive_override(forced);
        let out = f();
        set_adaptive_override(None);
        out
    }

    #[test]
    fn override_pins_policy_both_ways() {
        with_policy(Some(false), || assert!(!adaptive_enabled()));
        with_policy(Some(true), || assert!(adaptive_enabled()));
    }

    #[test]
    fn ewma_seeds_then_smooths() {
        let cell = AtomicU64::new(0);
        ewma_update(&cell, 800);
        assert_eq!(cell.load(Ordering::Relaxed), 800, "first sample seeds");
        ewma_update(&cell, 0);
        // (7*800 + 0) / 8 = 700: one outlier moves the estimate 1/8th.
        assert_eq!(cell.load(Ordering::Relaxed), 700);
        // A zero sample can never clear the seed back to "unseeded".
        let tiny = AtomicU64::new(1);
        for _ in 0..64 {
            ewma_update(&tiny, 0);
        }
        assert!(tiny.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn spin_budget_respects_static_policy_when_off() {
        with_policy(Some(false), || {
            assert_eq!(adaptive_spin(1 << 12), 1 << 12);
            assert_eq!(adaptive_spin(0), 0);
        });
        // Adaptation never re-enables spinning on single-core hosts:
        // the zero static budget always wins, seeded or not.
        with_policy(Some(true), || {
            assert_eq!(adaptive_spin(0), 0);
        });
    }

    // The heuristics themselves are pure functions over the EWMA value,
    // tested directly: the global cells are fed by every dispatch in
    // the test process, so asserting through them would race.

    #[test]
    fn spin_heuristic_clamps_to_documented_band() {
        assert_eq!(spin_from(0, 1 << 12), 1 << 12, "unseeded = static");
        assert_eq!(spin_from(1_000_000_000, 1 << 12), SPIN_MAX);
        assert_eq!(spin_from(1, 1 << 12), SPIN_MIN);
        // Mid-band latency maps through the per-iteration cost model.
        assert_eq!(spin_from(8_192 * SPIN_COST_NS, 1 << 12), 8_192);
    }

    #[test]
    fn for_chunk_heuristic_only_refines_the_static_chunk() {
        assert_eq!(for_chunk_from(0, 64), 64, "unseeded = static");
        // Expensive lanes: target shrinks below the static chunk.
        assert_eq!(for_chunk_from(10_000, 64), 2);
        assert_eq!(for_chunk_from(1_000_000, 64), 1, "never below one lane");
        // Cheap lanes: clamped at the static chunk, never coarser.
        assert_eq!(for_chunk_from(1, 64), 64);
        with_policy(Some(false), || {
            assert_eq!(adaptive_for_chunk(64), 64, "off = static");
        });
    }

    #[test]
    fn each_chunk_heuristic_coarsens_only_under_the_balance_ceiling() {
        assert_eq!(each_chunk_from(0, 8), 1, "unseeded = static chunk 1");
        // Cheap lanes batch up toward the target but stop at the
        // ceiling; expensive lanes stay at the static chunk of 1.
        assert_eq!(each_chunk_from(1, 8), 8);
        assert_eq!(each_chunk_from(2_000, 8), 8, "20us/2us = 10, clamped");
        assert_eq!(each_chunk_from(5_000, 8), 4);
        assert_eq!(each_chunk_from(1_000_000, 8), 1);
        with_policy(Some(false), || {
            assert_eq!(adaptive_each_chunk(8), 1, "off = static chunk 1");
        });
    }
}
