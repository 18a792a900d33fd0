//! Registry correctness under concurrency, the log2 histogram's bucket
//! boundaries (through the public record → capture path), and inertness
//! with the feature off. The *global* reset is called from one `#[test]`
//! only, and every test that records takes [`REGISTRY`] so that reset
//! cannot land between its record and its capture.

use pp_instrument::{counter, enabled, histogram, PhaseId, Snapshot, Span};

#[cfg(feature = "instrument")]
static REGISTRY: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(feature = "instrument")]
#[test]
fn concurrent_recording_is_exact_and_reset_clears() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 10_000;

    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    pp_instrument::reset();

    // N threads hammer the same histogram, counter, and phase; snapshot
    // totals must be exact (no samples lost to races).
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                let h = histogram("test.registry.latency");
                let c = counter("test.registry.ops");
                for i in 0..PER_THREAD {
                    h.record((t * PER_THREAD + i) as u64);
                    c.inc();
                    let _span = Span::enter(PhaseId::KrylovIter);
                }
            });
        }
    });

    let snap = Snapshot::capture();
    let n = (THREADS * PER_THREAD) as u64;
    let h = snap
        .histogram("test.registry.latency")
        .expect("histogram exists");
    assert_eq!(h.count, n);
    // Sum of 0..N-1 recorded exactly once each.
    assert_eq!(h.sum, n * (n - 1) / 2);
    assert_eq!(h.min, 0);
    assert_eq!(h.max, n - 1);
    assert_eq!(h.buckets.iter().map(|&(_, c)| c).sum::<u64>(), n);
    assert_eq!(snap.counter_value("test.registry.ops"), n);
    assert_eq!(snap.phase_calls(PhaseId::KrylovIter), n);

    // Spans on different threads attribute to their own phase only.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _outer = Span::enter(PhaseId::AdvectionStep);
            let _inner = Span::enter(PhaseId::SolvePttrs);
        });
        scope.spawn(|| {
            let _span = Span::enter(PhaseId::CornerSpmv);
        });
    });
    let snap = Snapshot::capture();
    assert_eq!(snap.phase_calls(PhaseId::AdvectionStep), 1);
    assert_eq!(snap.phase_calls(PhaseId::SolvePttrs), 1);
    assert_eq!(snap.phase_calls(PhaseId::CornerSpmv), 1);

    // Reset zeroes everything but keeps handles usable.
    pp_instrument::reset();
    let snap = Snapshot::capture();
    assert_eq!(snap.counter_value("test.registry.ops"), 0);
    assert_eq!(snap.phase_calls(PhaseId::KrylovIter), 0);
    assert_eq!(
        snap.histogram("test.registry.latency")
            .map_or(0, |h| h.count),
        0
    );
    let c = counter("test.registry.ops");
    c.inc();
    assert_eq!(Snapshot::capture().counter_value("test.registry.ops"), 1);
}

/// splitmix64 — deterministic, no deps (`pp-portable`'s `TestRng` would
/// be a circular dev-dependency); good enough to sweep u64s.
#[cfg(feature = "instrument")]
struct Rng(u64);

#[cfg(feature = "instrument")]
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The documented bucket for a sample: bucket 0 holds only zero
/// (upper bound 1); bucket `b ≥ 1` spans `[2^(b-1), 2^b)` and reports
/// upper bound `2^b`; the overflow bucket reports `u64::MAX`.
#[cfg(feature = "instrument")]
fn documented_upper(v: u64) -> u64 {
    if v == 0 {
        return 1;
    }
    let b = 64 - v.leading_zeros() as usize;
    if b >= 64 {
        u64::MAX
    } else {
        1u64 << b
    }
}

#[cfg(feature = "instrument")]
fn observed_upper(name: &'static str, v: u64) -> u64 {
    histogram(name).record(v);
    let snap = Snapshot::capture();
    let h = snap.histogram(name).expect("histogram exists");
    assert_eq!(h.count, 1, "{name}: exactly one sample");
    assert_eq!(h.buckets.len(), 1, "{name}: exactly one bucket");
    h.buckets[0].0
}

#[cfg(feature = "instrument")]
#[test]
fn bucket_boundaries_land_where_documented() {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    // Zero, exact powers of two (both sides of each boundary), and
    // u64::MAX.
    assert_eq!(observed_upper("test.registry.bucket.zero", 0), 1);
    assert_eq!(observed_upper("test.registry.bucket.one", 1), 2);
    assert_eq!(
        observed_upper("test.registry.bucket.max", u64::MAX),
        u64::MAX
    );
    static POW_NAMES: [&str; 4] = [
        "test.registry.bucket.p1",
        "test.registry.bucket.p7",
        "test.registry.bucket.p32",
        "test.registry.bucket.p63",
    ];
    for (name, k) in POW_NAMES.iter().zip([1u32, 7, 32, 63]) {
        let v = 1u64 << k;
        // 2^k is the *inclusive lower* edge of its bucket: upper 2^(k+1).
        assert_eq!(observed_upper(name, v), documented_upper(v), "2^{k}");
        assert_eq!(documented_upper(v - 1), 1u64 << k, "2^{k} - 1");
    }
}

#[cfg(feature = "instrument")]
#[test]
fn random_samples_fall_inside_their_reported_bucket() {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Rng(0x5eed_0001);
    let h = histogram("test.registry.bucket.sweep");
    let mut recorded: Vec<u64> = Vec::new();
    for _ in 0..512 {
        // Bias across magnitudes: random width, then random value.
        let shift = (rng.next() % 64) as u32;
        let v = rng.next() >> shift;
        h.record(v);
        recorded.push(v);
    }
    let snap = Snapshot::capture();
    let stat = snap
        .histogram("test.registry.bucket.sweep")
        .expect("histogram");
    assert_eq!(stat.count, 512);
    // Every reported bucket count matches a hand-binned reference.
    for &(upper, n) in &stat.buckets {
        let expect = recorded
            .iter()
            .filter(|&&v| documented_upper(v) == upper)
            .count() as u64;
        assert_eq!(n, expect, "bucket le={upper}");
    }
    assert_eq!(
        stat.buckets.iter().map(|&(_, n)| n).sum::<u64>(),
        512,
        "no sample lost between buckets"
    );
}

#[cfg(not(feature = "instrument"))]
#[test]
fn feature_off_build_has_no_registry_state() {
    assert!(!enabled());

    // Record plenty through every entry point; nothing may stick.
    let h = histogram("test.registry.latency");
    let c = counter("test.registry.ops");
    for i in 0..100 {
        h.record(i);
        c.inc();
        let _span = Span::enter(PhaseId::KrylovIter);
        pp_instrument::record_phase_ns(PhaseId::Dispatch, 1000);
    }
    let snap = Snapshot::capture();
    assert!(
        snap.is_empty(),
        "feature-off snapshot must be empty: {snap:?}"
    );
    assert_eq!(c.value(), 0);
    assert_eq!(h.count(), 0);

    // Handles are inert zero-sized tokens.
    assert_eq!(std::mem::size_of_val(&h), 0);
    assert_eq!(std::mem::size_of_val(&c), 0);
    assert_eq!(std::mem::size_of::<Span>(), 0);
}

#[test]
fn enabled_matches_compile_feature() {
    assert_eq!(enabled(), cfg!(feature = "instrument"));
}
