//! Feature-on implementation: thread-local phase accumulators, a
//! process-wide registry of named metrics, and RAII span timers.
//!
//! Recording is lock-free-ish: each thread owns an `Arc` block of
//! relaxed atomics (registered under a mutex once per thread) and every
//! record is a plain `fetch_add` on it. The global locks are touched only
//! on first use per thread and on snapshot/reset — never per record.

use crate::phase::PhaseId;
use crate::trace::{FaultDump, InstantKind, ThreadTrace, Trace, TraceEvent, TraceEventKind};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{
    AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// `histogram` bucket count: bucket 0 holds zero, bucket `b ≥ 1` holds
/// values in `[2^(b-1), 2^b)`, so 65 buckets cover all of `u64`.
pub(crate) const HIST_BUCKETS: usize = 65;

// ---------------------------------------------------------------------
// Per-thread phase accumulators
// ---------------------------------------------------------------------

/// One thread's phase totals. Shared as `Arc` so totals survive thread
/// exit (the registry keeps the other reference).
pub(crate) struct PhaseBlock {
    pub(crate) ns: [AtomicU64; PhaseId::COUNT],
    pub(crate) calls: [AtomicU64; PhaseId::COUNT],
}

impl PhaseBlock {
    fn new() -> Self {
        PhaseBlock {
            ns: [const { AtomicU64::new(0) }; PhaseId::COUNT],
            calls: [const { AtomicU64::new(0) }; PhaseId::COUNT],
        }
    }
}

/// All phase blocks ever created, one per recording thread.
static PHASE_BLOCKS: Mutex<Vec<Arc<PhaseBlock>>> = Mutex::new(Vec::new());

thread_local! {
    static TL_PHASES: Arc<PhaseBlock> = {
        let block = Arc::new(PhaseBlock::new());
        PHASE_BLOCKS.lock().unwrap().push(Arc::clone(&block));
        block
    };
}

/// Record `ns` nanoseconds (one call) against `phase` on this thread.
#[inline]
pub fn record_phase_ns(phase: PhaseId, ns: u64) {
    TL_PHASES.with(|b| {
        b.ns[phase.index()].fetch_add(ns, Relaxed);
        b.calls[phase.index()].fetch_add(1, Relaxed);
    });
}

/// Sum of all threads' totals for every phase: `(total_ns, calls)`.
pub(crate) fn phase_totals() -> [(u64, u64); PhaseId::COUNT] {
    let mut out = [(0u64, 0u64); PhaseId::COUNT];
    for block in PHASE_BLOCKS.lock().unwrap().iter() {
        for (i, slot) in out.iter_mut().enumerate() {
            slot.0 += block.ns[i].load(Relaxed);
            slot.1 += block.calls[i].load(Relaxed);
        }
    }
    out
}

// ---------------------------------------------------------------------
// Event-timeline flight recorder
// ---------------------------------------------------------------------
//
// Each thread owns a fixed-capacity ring of (timestamp, packed-code)
// slot pairs: recording is two relaxed stores plus a release store of
// the head — no locks, no allocation, bounded memory, overwrite-oldest.
// A snapshot reads every ring under the registry mutex; because the
// owning thread keeps writing, a slot being overwritten *during* the
// read can tear (new timestamp, old code). Torn slots decode to
// mismatched span pairs, which the exporters drop — acceptable for a
// flight recorder whose job is the milliseconds around a fault.

/// Event-code packing: `tag(2) | id(30) | lane(32)`.
const TAG_EMPTY: u64 = 0;
const TAG_BEGIN: u64 = 1;
const TAG_END: u64 = 2;
const TAG_INSTANT: u64 = 3;

/// Sentinel lane meaning "not lane-scoped".
const LANE_NONE: u32 = u32::MAX;

struct Slot {
    t_ns: AtomicU64,
    code: AtomicU64,
}

pub(crate) struct Ring {
    tid: u64,
    name: String,
    /// Total events ever written; `head % slots.len()` is the next slot.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    /// Single-writer append (only the owning thread calls this).
    #[inline]
    fn push(&self, t_ns: u64, code: u64) {
        let i = self.head.load(Relaxed);
        let slot = &self.slots[(i % self.slots.len() as u64) as usize];
        slot.t_ns.store(t_ns, Relaxed);
        slot.code.store(code, Relaxed);
        self.head.store(i + 1, Release);
    }
}

/// Ring capacity in events per thread, from `PP_TRACE_CAPACITY` (read
/// once), default 8192, clamped to `[16, 2^22]`. Malformed or clamped
/// values warn once to stderr (see [`crate::env`]).
fn trace_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        crate::env::env_usize_clamped("PP_TRACE_CAPACITY", 16, 1 << 22).unwrap_or(8192)
    })
}

/// Process-wide trace epoch: all event timestamps are ns since this.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// `at` as ns since the trace epoch (saturating: the very first caller
/// may have read its clock just before initialising the epoch).
#[inline]
fn ns_since_epoch(at: Instant) -> u64 {
    at.duration_since(epoch()).as_nanos() as u64
}

/// All rings ever created, one per recording thread (kept alive past
/// thread exit, like `PHASE_BLOCKS`).
static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TL_RING: Arc<Ring> = {
        let cap = trace_capacity();
        let tid = NEXT_TID.fetch_add(1, Relaxed);
        let name = std::thread::current()
            .name()
            .map_or_else(|| format!("thread-{tid}"), str::to_string);
        let slots = (0..cap)
            .map(|_| Slot {
                t_ns: AtomicU64::new(0),
                code: AtomicU64::new(TAG_EMPTY),
            })
            .collect();
        let ring = Arc::new(Ring {
            tid,
            name,
            head: AtomicU64::new(0),
            slots,
        });
        RINGS.lock().unwrap().push(Arc::clone(&ring));
        ring
    };
}

#[inline]
fn pack(tag: u64, id: usize, lane: u32) -> u64 {
    (tag << 62) | ((id as u64) << 32) | lane as u64
}

#[inline]
fn trace_event(t_ns: u64, tag: u64, id: usize, lane: u32) {
    TL_RING.with(|r| r.push(t_ns, pack(tag, id, lane)));
}

/// Record a one-off timeline marker on this thread.
#[inline]
pub fn trace_instant(kind: InstantKind) {
    trace_event(
        ns_since_epoch(Instant::now()),
        TAG_INSTANT,
        kind.index(),
        LANE_NONE,
    );
}

/// Record a lane-scoped timeline marker on this thread.
#[inline]
pub fn trace_instant_lane(kind: InstantKind, lane: u32) {
    trace_event(
        ns_since_epoch(Instant::now()),
        TAG_INSTANT,
        kind.index(),
        lane,
    );
}

/// Copy every thread's surviving event window into plain data.
pub fn trace_snapshot() -> Trace {
    let rings: Vec<Arc<Ring>> = RINGS.lock().unwrap().iter().map(Arc::clone).collect();
    let mut threads = Vec::with_capacity(rings.len());
    for ring in rings {
        let cap = ring.slots.len() as u64;
        let head = ring.head.load(Acquire);
        let n = head.min(cap);
        let mut events = Vec::with_capacity(n as usize);
        for i in (head - n)..head {
            let slot = &ring.slots[(i % cap) as usize];
            let t_ns = slot.t_ns.load(Relaxed);
            let code = slot.code.load(Relaxed);
            let tag = code >> 62;
            let id = ((code >> 32) & 0x3FFF_FFFF) as usize;
            let lane_raw = code as u32;
            let kind = match tag {
                TAG_BEGIN if id < PhaseId::COUNT => TraceEventKind::Begin(PhaseId::ALL[id]),
                TAG_END if id < PhaseId::COUNT => TraceEventKind::End(PhaseId::ALL[id]),
                TAG_INSTANT if id < InstantKind::COUNT => {
                    TraceEventKind::Instant(InstantKind::ALL[id])
                }
                // Empty, torn, or corrupt slot — skip it.
                _ => continue,
            };
            events.push(TraceEvent {
                t_ns,
                kind,
                lane: (lane_raw != LANE_NONE).then_some(lane_raw),
            });
        }
        threads.push(ThreadTrace {
            tid: ring.tid,
            name: ring.name.clone(),
            events,
            dropped: head.saturating_sub(cap),
        });
    }
    Trace {
        threads,
        capacity: trace_capacity(),
    }
}

/// Clear every thread's ring (ring registrations stay).
///
/// Like [`reset`], concurrent recording during the clear lands on
/// whichever side it races with; call between measurement windows.
pub fn trace_reset() {
    for ring in RINGS.lock().unwrap().iter() {
        for slot in ring.slots.iter() {
            slot.code.store(TAG_EMPTY, Relaxed);
            slot.t_ns.store(0, Relaxed);
        }
        ring.head.store(0, Release);
    }
}

// ---------------------------------------------------------------------
// Dump-on-fault
// ---------------------------------------------------------------------

/// In-memory dumps kept for test/driver inspection (oldest evicted).
/// Evictions are counted on the `fault_dumps.dropped` counter so silent
/// loss is observable.
const FAULT_DUMPS_KEEP: usize = 8;

static FAULT_DUMPS: Mutex<VecDeque<FaultDump>> = Mutex::new(VecDeque::new());
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Dump directory from `PP_TRACE_DUMP_DIR` (read once); `None` keeps
/// dumps in memory only. An *empty* value is almost certainly a broken
/// shell expansion — it warns once and is treated as unset rather than
/// silently writing dumps into the current directory.
fn dump_dir() -> Option<&'static Path> {
    static DIR: OnceLock<Option<PathBuf>> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::var_os("PP_TRACE_DUMP_DIR")?;
        if dir.is_empty() {
            crate::env::warn_once(
                "PP_TRACE_DUMP_DIR",
                "PP_TRACE_DUMP_DIR is set but empty; fault dumps stay in memory only",
            );
            return None;
        }
        Some(PathBuf::from(dir))
    })
    .as_deref()
}

/// Snapshot the flight recorder into a [`FaultDump`]: marks the
/// timeline, copies every ring and the aggregate metrics, renders
/// `detail` (lazily — feature-off builds never evaluate it), stores the
/// dump in memory for [`take_fault_dumps`], and best-effort writes it
/// to `PP_TRACE_DUMP_DIR` when set (a dump must never fail the solve,
/// so write errors are swallowed).
pub fn fault_dump(reason: &'static str, detail: impl FnOnce() -> String) {
    let t_ns = ns_since_epoch(Instant::now());
    trace_instant(InstantKind::FaultDumped);
    let dump = FaultDump {
        reason,
        detail: detail(),
        t_ns,
        trace: trace_snapshot(),
        metrics: crate::Snapshot::capture(),
    };
    let seq = DUMP_SEQ.fetch_add(1, Relaxed);
    if let Some(dir) = dump_dir() {
        let _ = dump.write_to(dir, seq);
    }
    let mut q = FAULT_DUMPS.lock().unwrap();
    while q.len() >= FAULT_DUMPS_KEEP {
        q.pop_front();
        counter("fault_dumps.dropped").inc();
    }
    q.push_back(dump);
}

/// Drain the in-memory fault dumps captured so far (oldest first).
pub fn take_fault_dumps() -> Vec<FaultDump> {
    FAULT_DUMPS.lock().unwrap().drain(..).collect()
}

// ---------------------------------------------------------------------
// Span / Timer
// ---------------------------------------------------------------------

/// RAII phase timer: one `Instant::now()` pair plus a thread-local add.
///
/// ```
/// # use pp_instrument::{PhaseId, Span};
/// {
///     let _span = Span::enter(PhaseId::SolvePttrs);
///     // ... timed work ...
/// } // drop records the elapsed time
/// ```
#[must_use = "a span records on drop; binding it to _ drops immediately"]
pub struct Span {
    phase: PhaseId,
    lane: u32,
    start: Instant,
}

impl Span {
    /// Start timing `phase`; the elapsed time is recorded on drop.
    #[inline]
    pub fn enter(phase: PhaseId) -> Span {
        Span::enter_impl(phase, LANE_NONE)
    }

    /// Like [`Span::enter`], additionally stamping the batch lane the
    /// span concerns onto its timeline events.
    #[inline]
    pub fn enter_lane(phase: PhaseId, lane: u32) -> Span {
        Span::enter_impl(phase, lane)
    }

    #[inline]
    fn enter_impl(phase: PhaseId, lane: u32) -> Span {
        // One clock read serves both the phase timer and the timeline
        // Begin event.
        let start = Instant::now();
        trace_event(ns_since_epoch(start), TAG_BEGIN, phase.index(), lane);
        Span { phase, lane, start }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        let end = Instant::now();
        record_phase_ns(self.phase, end.duration_since(self.start).as_nanos() as u64);
        trace_event(ns_since_epoch(end), TAG_END, self.phase.index(), self.lane);
    }
}

/// Manual timer for call sites that feed the elapsed value somewhere
/// else as well (e.g. a latency histogram *and* a phase).
#[must_use]
#[derive(Clone, Copy)]
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Start the clock.
    #[inline]
    pub fn start() -> Timer {
        Timer {
            start: Instant::now(),
        }
    }

    /// Nanoseconds since [`Timer::start`].
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

// ---------------------------------------------------------------------
// Named metrics registry
// ---------------------------------------------------------------------

/// Backing cell of a [`Histogram`].
pub(crate) struct HistCell {
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
    pub(crate) min: AtomicU64,
    pub(crate) max: AtomicU64,
    pub(crate) buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistCell {
    fn new() -> Self {
        HistCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }

    fn reset(&self) {
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.min.store(u64::MAX, Relaxed);
        self.max.store(0, Relaxed);
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
    }
}

/// Log2 bucket of `v`: 0 for 0, else `64 - leading_zeros` so bucket `b`
/// spans `[2^(b-1), 2^b)`.
#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

#[derive(Default)]
pub(crate) struct Registry {
    pub(crate) counters: BTreeMap<&'static str, Arc<AtomicU64>>,
    pub(crate) gauges: BTreeMap<&'static str, Arc<AtomicU64>>, // f64 bits
    pub(crate) histograms: BTreeMap<&'static str, Arc<HistCell>>,
}

pub(crate) static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry<T>(f: impl FnOnce(&mut Registry) -> T) -> T {
    let mut guard = REGISTRY.lock().unwrap();
    f(guard.get_or_insert_with(Registry::default))
}

/// Monotonic named counter. Handles are cheap `Arc` clones; look one up
/// once (e.g. in a `OnceLock`) and `add` from any thread.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.cell.load(Relaxed)
    }
}

/// Last-write-wins named gauge holding an `f64`.
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.cell.store(v.to_bits(), Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn value(&self) -> f64 {
        f64::from_bits(self.cell.load(Relaxed))
    }
}

/// Log2-bucketed named histogram of `u64` samples (latencies in ns,
/// iteration counts, …).
#[derive(Clone)]
pub struct Histogram {
    cell: Arc<HistCell>,
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.cell.count.fetch_add(1, Relaxed);
        self.cell.sum.fetch_add(v, Relaxed);
        self.cell.min.fetch_min(v, Relaxed);
        self.cell.max.fetch_max(v, Relaxed);
        self.cell.buckets[bucket_of(v)].fetch_add(1, Relaxed);
    }

    /// Number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.cell.count.load(Relaxed)
    }
}

/// Look up (creating on first use) the counter named `name`.
pub fn counter(name: &'static str) -> Counter {
    with_registry(|r| Counter {
        cell: Arc::clone(r.counters.entry(name).or_default()),
    })
}

/// Look up (creating on first use) the gauge named `name`.
pub fn gauge(name: &'static str) -> Gauge {
    with_registry(|r| Gauge {
        cell: Arc::clone(r.gauges.entry(name).or_default()),
    })
}

/// Look up (creating on first use) the histogram named `name`.
pub fn histogram(name: &'static str) -> Histogram {
    with_registry(|r| Histogram {
        cell: Arc::clone(
            r.histograms
                .entry(name)
                .or_insert_with(|| Arc::new(HistCell::new())),
        ),
    })
}

/// Zero every phase total and named metric (handles stay valid).
///
/// Concurrent recording during a reset lands on whichever side of the
/// zeroing it races with; call between measurement windows, not inside
/// them.
pub fn reset() {
    for block in PHASE_BLOCKS.lock().unwrap().iter() {
        for i in 0..PhaseId::COUNT {
            block.ns[i].store(0, Relaxed);
            block.calls[i].store(0, Relaxed);
        }
    }
    let guard = REGISTRY.lock().unwrap();
    if let Some(r) = guard.as_ref() {
        for c in r.counters.values() {
            c.store(0, Relaxed);
        }
        for g in r.gauges.values() {
            g.store(0.0_f64.to_bits(), Relaxed);
        }
        for h in r.histograms.values() {
            h.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn counter_roundtrip() {
        let c = counter("test.active.counter");
        let before = c.value();
        c.add(41);
        c.inc();
        assert_eq!(counter("test.active.counter").value(), before + 42);
    }

    #[test]
    fn gauge_last_write_wins() {
        let g = gauge("test.active.gauge");
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(gauge("test.active.gauge").value(), -2.25);
    }
}
