//! Minimal std-only data parallelism.
//!
//! The workspace must build in hermetic environments with no external
//! crates, so the rayon-style "parallel for over indices" the execution
//! spaces need is implemented here directly: worker threads pull
//! fixed-size index chunks off a shared atomic counter until the range is
//! exhausted. That is exactly the schedule the paper's
//! `Kokkos::parallel_for(batch, ...)` relies on — independent lanes,
//! dynamic load balancing, no per-lane allocation.
//!
//! Dispatch runs on the persistent worker pool in [`crate::pool`]: like a
//! Kokkos dispatch onto an existing OpenMP team, launching a batch wakes
//! parked threads instead of spawning new ones, so per-dispatch latency
//! is microseconds rather than the tens of microseconds a
//! `std::thread::scope` spawn per call costs.
//!
//! The worker budget comes from [`num_threads`]: the `PP_NUM_THREADS`
//! environment variable when set (clamped to `[1, 4096]`, warn-once on
//! malformed values), else the hardware's available parallelism, cached
//! once per process.

use crate::pool;
use crate::ptr::SharedMutPtr;
use std::sync::OnceLock;

/// Claims per worker an index-range dispatch is cut into: every region
/// of at most `64 · threads` indices (the 128-panel advection step on two
/// threads) is claimed one index at a time, so the end of a region never
/// waits on a participant holding several unstarted items. The price is
/// one relaxed `fetch_add` per claim — ≈ 0.15 µs when two cores contend,
/// ≤ 20 µs a region — which only a lane of a few ns of work can feel
/// (DESIGN.md §8 has the measurements on both sides).
const CLAIMS_PER_WORKER: usize = 64;

/// Partial sums per worker in [`parallel_sum`]: not scheduling but the
/// floating-point bracketing of every reduction — changing it changes
/// result bits.
const SUM_CHUNKS_PER_WORKER: usize = 8;

/// The chunk policy: how many consecutive indices one claim of
/// [`parallel_for`] takes, a pure function of
/// the range length and the worker budget. Chunk boundaries change
/// scheduling only; lane outputs do not depend on them.
fn for_chunk(n: usize, threads: usize) -> usize {
    n.div_ceil(threads.max(1) * CLAIMS_PER_WORKER).max(1)
}

/// Upper clamp for `PP_NUM_THREADS`: far above any real host, low
/// enough that a typo (`PP_NUM_THREADS=40000`) cannot ask the OS for
/// tens of thousands of parked workers.
const MAX_THREADS: usize = 4096;

static NUM_THREADS: OnceLock<usize> = OnceLock::new();

/// Resolve the worker budget from an optional `PP_NUM_THREADS` value and
/// the hardware fallback. Malformed values warn once to stderr and fall
/// back to the hardware count; out-of-range values warn and clamp to
/// `[1, 4096]`. Split out for unit testing (the cached [`num_threads`]
/// reads the real environment exactly once).
fn thread_budget(env: Option<&str>, hardware: usize) -> usize {
    match crate::env::parse_usize_clamped("PP_NUM_THREADS", env, 1, MAX_THREADS) {
        Some(n) => n,
        None => hardware.clamp(1, MAX_THREADS),
    }
}

/// Number of worker threads to use for batch dispatch.
///
/// Honours the `PP_NUM_THREADS` environment variable (clamped to
/// `[1, 4096]`; malformed values warn once to stderr and are ignored),
/// falling back to the hardware's available parallelism. The value is
/// computed **once** and cached for the life of the process — both
/// because the persistent pool sizes itself from it, and because
/// re-querying `available_parallelism` on every dispatch measurably
/// taxed small batches.
pub fn num_threads() -> usize {
    *NUM_THREADS.get_or_init(|| {
        let hardware = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        thread_budget(std::env::var("PP_NUM_THREADS").ok().as_deref(), hardware)
    })
}

/// Call `f(i)` for every `i in 0..n`, distributing indices over the
/// persistent worker pool. Falls back to a plain loop when `n` is small,
/// only one worker is budgeted, or the call is nested inside another
/// parallel dispatch.
///
/// Chunks are claimed dynamically (atomic fetch-add), so uneven lane
/// costs — exactly what fault recovery produces, where a few lanes
/// iterate to their budget while the rest converge quickly — do not
/// serialise the batch. Lane outputs do not depend on which thread ran
/// them, so results are bit-identical to the serial loop.
pub fn parallel_for<F: Fn(usize) + Sync>(n: usize, f: F) {
    let threads = num_threads().min(n);
    if threads <= 1 || pool::in_dispatch() {
        pool::note_inline_dispatch();
        for i in 0..n {
            f(i);
        }
        return;
    }
    pool::global().dispatch(n, for_chunk(n, threads), &f);
}

/// Sum `f(i)` over `i in 0..n` with deterministic per-chunk partials.
///
/// The range is cut into fixed chunks; each chunk's partial sum is
/// accumulated serially (in index order) and the partials are combined in
/// chunk order. The bracketing therefore depends only on `n` and the
/// worker budget — **not** on thread scheduling — so repeated runs return
/// bitwise-identical results, unlike an OpenMP/rayon-style per-worker
/// reduction whose combine order races. (Changing `PP_NUM_THREADS`
/// changes the bracketing, like changing `OMP_NUM_THREADS` does.)
pub(crate) fn parallel_sum<F: Fn(usize) -> f64 + Sync>(n: usize, f: F) -> f64 {
    let threads = num_threads().min(n);
    if threads <= 1 || pool::in_dispatch() {
        pool::note_inline_dispatch();
        return (0..n).map(f).sum();
    }
    // Not `for_chunk`: the chunk size *is* the partial-sum bracketing,
    // which must stay this function of `n` and the worker budget.
    let chunk = n.div_ceil(threads * SUM_CHUNKS_PER_WORKER).max(1);
    let nchunks = n.div_ceil(chunk);
    let mut partials = vec![0.0f64; nchunks];
    let ptr = SharedMutPtr(partials.as_mut_ptr());
    pool::global().dispatch(nchunks, 1, &|c: usize| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(n);
        let mut acc = 0.0;
        for i in lo..hi {
            acc += f(i);
        }
        // SAFETY: chunk index `c` is claimed exactly once, so this is the
        // only write to `partials[c]`, and `c < nchunks` by construction.
        unsafe { *ptr.add(c) = acc };
    });
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunk_policy_is_one_claim_per_index_up_to_64_per_worker() {
        // The two shapes the step benchmark dispatches on two threads.
        assert_eq!(for_chunk(128, 2), 1);
        assert_eq!(for_chunk(1024, 2), 8);
        for threads in [0, 1, 2, 3, 16, 4096] {
            let mut last = 1;
            for n in [0, 1, 7, 128, 129, 4093, 1 << 20] {
                let chunk = for_chunk(n, threads);
                assert!((1..=n.max(1)).contains(&chunk), "({n}, {threads})");
                assert!(chunk >= last, "monotone in n at ({n}, {threads})");
                last = chunk;
            }
        }
    }

    /// Range lengths for the tests that dispatch on the pool: 131 and 4093
    /// are prime, so no chunk size divides them and the last claim of the
    /// region is always a ragged one. Miri runs the small pair.
    fn lengths() -> [usize; 2] {
        if cfg!(miri) {
            [37, 131]
        } else {
            [1237, 4093]
        }
    }

    #[test]
    fn visits_every_index_exactly_once() {
        for n in lengths() {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            parallel_for(n, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn zero_and_one_sized_ranges() {
        parallel_for(0, |_| panic!("must not be called"));
        let count = AtomicUsize::new(0);
        parallel_for(1, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn sum_matches_closed_form() {
        let n = lengths()[1];
        let expected = (0..n).map(|i| i as f64).sum::<f64>();
        assert_eq!(parallel_sum(n, |i| i as f64), expected);
        assert_eq!(parallel_sum(0, |_| 1.0), 0.0);
        assert_eq!(parallel_sum(1, |_| 2.5), 2.5);
    }

    #[test]
    fn sum_is_bitwise_deterministic_across_runs() {
        // Mixed magnitudes make the sum order-sensitive: any schedule
        // dependence in the bracketing would show up bitwise.
        let f = |i: usize| ((i as f64) * 0.7).sin() * 10f64.powi((i % 13) as i32 - 6);
        let (n, repeats) = if cfg!(miri) { (500, 3) } else { (10_000, 10) };
        let first = parallel_sum(n, f);
        for _ in 0..repeats {
            assert_eq!(parallel_sum(n, f).to_bits(), first.to_bits());
        }
    }

    #[test]
    fn at_least_one_thread_reported_and_cached() {
        assert!(num_threads() >= 1);
        assert_eq!(num_threads(), num_threads());
    }

    #[test]
    fn thread_budget_override_rules() {
        assert_eq!(thread_budget(None, 8), 8);
        assert_eq!(thread_budget(Some("3"), 8), 3);
        assert_eq!(thread_budget(Some(" 5 "), 8), 5);
        // Clamped to at least one worker.
        assert_eq!(thread_budget(Some("0"), 8), 1);
        // Garbage falls back to the hardware count.
        assert_eq!(thread_budget(Some("lots"), 8), 8);
        assert_eq!(thread_budget(Some(""), 8), 8);
        assert_eq!(thread_budget(None, 0), 1);
    }
}
