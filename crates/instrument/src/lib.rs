//! # pp-instrument — solver-wide instrumentation
//!
//! The paper's argument is built from *per-phase* measurements: Table III
//! attributes each optimisation's win to a specific phase of the
//! Schur-complement solve, and §V reports achieved bandwidth against
//! device rooflines. This crate is the layer that lets the reproduction
//! make the same attribution: every subsystem records into a shared,
//! process-wide vocabulary of phases and named metrics, and a
//! [`Snapshot`] turns the totals into roofline-annotated JSON.
//!
//! Three primitives:
//!
//! * **[`Span`]** — RAII timer against a static [`PhaseId`]. Hot-path
//!   cost is one `Instant::now()` pair plus a thread-local relaxed
//!   `fetch_add`; no locks, no allocation, no string hashing.
//! * **Named metrics** — [`counter`], [`gauge`], [`histogram`] look up
//!   `Arc` handles in a process-wide registry; recording is a relaxed
//!   atomic op on the handle. Histograms are log2-bucketed (65 buckets
//!   cover all of `u64`), so latency distributions cost one `fetch_add`
//!   per sample.
//! * **[`Snapshot`]** — drains every thread's accumulators and the
//!   registry into plain data, with [`RooflineAnnotation`] computing
//!   GLUPS / achieved bandwidth / roofline fraction via `pp-perfmodel`.
//!
//! On top of the aggregates sits the **event-timeline flight recorder**:
//! every [`Span`] additionally logs Begin/End events (plus one-off
//! [`InstantKind`] markers via [`trace_instant`]) into a fixed-capacity
//! per-thread ring buffer — always-on, overwrite-oldest, bounded memory.
//! [`trace_snapshot`] copies the surviving window into a [`Trace`];
//! [`chrome_trace_json`] / [`folded_stacks`] export it for Perfetto or
//! flamegraph tooling; and [`fault_dump`] snapshots rings + metrics into
//! a [`FaultDump`] when a fault-handling path fires (see `PP_TRACE_*`
//! env knobs on the recorder functions).
//!
//! ## Feature gating
//!
//! Everything is behind the `instrument` cargo feature. When it is off
//! (the default) the entire API still exists — call sites never need
//! `cfg` — but every type is zero-sized, every method is an inlined
//! no-op, and **no registry state exists in the process**. [`enabled`]
//! reports which mode was compiled in.
//!
//! Downstream crates re-export this crate as `pp_portable::instrument`
//! and forward their own `instrument` feature to it, so one
//! `--features instrument` on any crate in the stack lights up the whole
//! pipeline (cargo feature unification).

#![forbid(unsafe_code)]

pub mod env;
mod export;
mod phase;
mod snapshot;
mod trace;

pub use export::{chrome_trace_events, chrome_trace_json, folded_stacks};
pub use phase::PhaseId;
pub use snapshot::{HistogramStat, PhaseStat, RooflineAnnotation, Snapshot, SCHEMA_VERSION};
pub use trace::{FaultDump, InstantKind, ThreadTrace, Trace, TraceEvent, TraceEventKind};

#[cfg(feature = "instrument")]
mod active;
#[cfg(feature = "instrument")]
pub use active::{
    counter, fault_dump, gauge, histogram, record_phase_ns, reset, take_fault_dumps, trace_instant,
    trace_instant_lane, trace_reset, trace_snapshot, Counter, Gauge, Histogram, Span, Timer,
};

#[cfg(not(feature = "instrument"))]
mod inert;
#[cfg(not(feature = "instrument"))]
pub use inert::{
    counter, fault_dump, gauge, histogram, record_phase_ns, reset, take_fault_dumps, trace_instant,
    trace_instant_lane, trace_reset, trace_snapshot, Counter, Gauge, Histogram, Span, Timer,
};

/// Whether this build records anything (`instrument` feature on).
#[inline(always)]
pub const fn enabled() -> bool {
    cfg!(feature = "instrument")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn api_exists_in_both_modes() {
        // Compiles and runs identically with and without the feature.
        let c = counter("test.lib.counter");
        c.inc();
        let g = gauge("test.lib.gauge");
        g.set(3.5);
        let h = histogram("test.lib.hist");
        h.record(100);
        {
            let _span = Span::enter(PhaseId::Assemble);
        }
        record_phase_ns(PhaseId::Dispatch, 10);
        let t = Timer::start();
        let _ = t.elapsed_ns();

        let snap = Snapshot::capture();
        if enabled() {
            assert!(snap.counter_value("test.lib.counter") >= 1);
            assert!(snap.phase_calls(PhaseId::Assemble) >= 1);
            assert!(snap.histogram("test.lib.hist").is_some());
        } else {
            assert!(snap.is_empty());
        }
        let _ = snap.to_json();

        // The trace API exists in both modes too.
        trace_instant(InstantKind::DispatchCommit);
        trace_instant_lane(InstantKind::LaneQuarantined, 4);
        let trace = trace_snapshot();
        if enabled() {
            assert!(trace.instant_count(InstantKind::DispatchCommit) >= 1);
            assert!(trace.begin_count(PhaseId::Assemble) >= 1);
        } else {
            assert!(trace.is_empty());
            assert!(take_fault_dumps().is_empty());
        }
        let _ = chrome_trace_json(&trace);
        let _ = folded_stacks(&trace);
    }

    #[cfg(not(feature = "instrument"))]
    #[test]
    fn inert_types_are_zero_sized() {
        assert_eq!(std::mem::size_of::<Span>(), 0);
        assert_eq!(std::mem::size_of::<Timer>(), 0);
        assert_eq!(std::mem::size_of::<Counter>(), 0);
        assert_eq!(std::mem::size_of::<Gauge>(), 0);
        assert_eq!(std::mem::size_of::<Histogram>(), 0);
        assert!(!enabled());
    }

    #[cfg(feature = "instrument")]
    #[test]
    fn span_records_elapsed_time() {
        // Delta-based: unit tests share the process, so no global reset.
        let before = Snapshot::capture();
        {
            let _span = Span::enter(PhaseId::SolvePttrs);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let after = Snapshot::capture();
        assert_eq!(
            after.phase_calls(PhaseId::SolvePttrs),
            before.phase_calls(PhaseId::SolvePttrs) + 1
        );
        assert!(
            after.phase_total_ns(PhaseId::SolvePttrs)
                >= before.phase_total_ns(PhaseId::SolvePttrs) + 1_000_000
        );
    }
}
