//! Persistent worker pool behind the [`Parallel`](crate::Parallel)
//! execution space.
//!
//! The paper's performance story depends on `parallel_for(batch, serial
//! lane work)` being essentially free to launch: Kokkos dispatches onto
//! an existing OpenMP team or a CUDA/HIP stream, so a solve that issues
//! four parallel regions (the Baseline builder) pays four *launches*, not
//! four *thread creations*. The original `pp-portable` dispatcher instead
//! spawned fresh OS threads through `std::thread::scope` on every call,
//! which puts tens of microseconds of `clone(2)` + join on every kernel
//! in the hot path of Fig. 2 / Table III.
//!
//! This module is the fix: a process-wide pool of parked worker threads,
//! created lazily on the first parallel dispatch and kept alive for the
//! life of the process. A dispatch publishes one type-erased job, bumps a
//! generation counter, wakes the workers, joins in the work itself, then
//! revokes the job and waits only for the workers that actually committed
//! to it (see below). Last measured side by side (2 threads on a 2-vCPU
//! host, lanes of eight doubles, batches of 2–1024), a pooled dispatch took
//! 0.4–16 µs and a spawn-per-call one 61–93 µs; the step benchmark's
//! `adv_host_small` workload is where a dispatch cost shows end to end.
//!
//! # Scheduling
//!
//! The schedule is the same dynamic chunk-claiming the spawn-per-call
//! dispatcher used: workers (and the dispatching thread, which participates
//! as an extra worker) grab fixed-size index chunks off a shared atomic
//! counter until the range is exhausted. Uneven lane costs — exactly what fault
//! recovery produces — therefore still load-balance, and lane outputs are
//! independent of which thread ran them, so `Serial` and pooled `Parallel`
//! results are bit-identical for every `for_each`-shaped kernel.
//!
//! # The commit/revoke handoff, and why it is safe
//!
//! A dispatch hands workers a `JobDesc`: a type-erased pointer to the
//! caller's closure plus raw pointers to three atomics (`next`, `joined`,
//! `done`) that live on the **dispatching thread's stack**. Workers do
//! not implicitly own a share of every job; they **commit** to one:
//!
//! * The job is published under the `sleep` mutex (generation bump +
//!   descriptor store). A worker that wakes while the job is live copies
//!   the descriptor and increments `joined` — both under the same mutex.
//! * The dispatcher participates in the work itself. When its own chunk
//!   loop finishes, it **revokes** the job (clears the descriptor, again
//!   under the mutex) and reads the final `joined` count: from that point
//!   no further worker can commit — a late waker finds the mailbox empty,
//!   records the generation as seen, and goes back to sleep without ever
//!   touching job memory.
//! * The dispatcher then blocks until `done == joined`. Each committed
//!   worker's **final** access to job memory is `done.fetch_add(1,
//!   Release)`; the dispatcher observes the count with `Acquire`. This
//!   (a) proves every committed worker has released its borrow of the
//!   closure and the stack atomics before the dispatch frame can be
//!   invalidated, and (b) makes every lane's writes visible to the
//!   caller before `dispatch` returns.
//! * The dispatcher performs revocation and the wait even when its own
//!   inline share of the work panics: the panic is caught, the handshake
//!   runs, and only then is the payload resumed — the borrow can never be
//!   invalidated by an unwinding dispatcher while workers still hold it.
//!
//! Because only *committed* workers gate completion, parked workers that
//! the OS has not scheduled (an oversubscribed CI box, a single-core
//! host) cost a dispatch nothing: the dispatcher drains the range alone
//! and returns after two mutex sections. This is what keeps per-dispatch
//! latency flat from 1 hardware thread up.
//!
//! # Panic propagation
//!
//! A panicking lane does not take down a pool thread (which would lose a
//! worker for the rest of the process) and does not hang the dispatch.
//! Workers run their chunk loop under `catch_unwind`; the first payload
//! is stashed in the shared panic slot, remaining chunks are still
//! drained by the other participants (the same "finish the batch, then
//! report" semantics `std::thread::scope` gave us), and the dispatcher
//! re-raises the payload with `resume_unwind` after the completion
//! handshake. The slot is taken (cleared) on every dispatch, so one
//! poisoned batch cannot fail later ones — `tests/pool_stress.rs` pins
//! this down.
//!
//! # Reentrancy
//!
//! A lane that itself calls `parallel_for` (nested parallelism) must not
//! wait on the pool it is running on. Dispatch entry points check a
//! thread-local "inside a pool dispatch" flag and degrade to the plain
//! serial loop when set, so nesting is always deadlock-free.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Spin iterations before a waiter falls back to its condvar. Dispatch
/// latency is dominated by wake-up cost; a short spin lets back-to-back
/// dispatches (the four parallel regions of one Baseline solve) hand off
/// without any futex round-trip. Spinning is disabled on single-core
/// hosts, where it can only steal cycles from the thread being waited on.
const SPIN: usize = 1 << 12;

/// Spin budget for this host: [`SPIN`] when truly parallel hardware is
/// available, zero on a single hardware thread.
fn spin_budget() -> usize {
    static BUDGET: OnceLock<usize> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores > 1 {
            SPIN
        } else {
            0
        }
    })
}

/// Lock a pool mutex, recovering from poisoning. A dispatch that
/// re-raises a lane panic unwinds through its guard and poisons the
/// lock, but every pool invariant lives in the dispatch protocol's
/// atomics, not in the mutex-guarded data — recovery is always safe.
fn lock_pool<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// True while this thread is executing inside a pool dispatch —
    /// either as a pool worker or as the dispatching (participating)
    /// caller. Used to run nested parallel calls inline.
    static IN_DISPATCH: Cell<bool> = const { Cell::new(false) };
}

/// RAII guard for [`IN_DISPATCH`].
struct DispatchGuard;

impl DispatchGuard {
    fn enter() -> Self {
        IN_DISPATCH.with(|f| f.set(true));
        DispatchGuard
    }
}

impl Drop for DispatchGuard {
    fn drop(&mut self) {
        IN_DISPATCH.with(|f| f.set(false));
    }
}

/// `true` when called from inside a pool dispatch (worker or caller);
/// parallel entry points use this to run nested dispatches serially
/// instead of deadlocking on the non-reentrant dispatch lock.
pub(crate) fn in_dispatch() -> bool {
    IN_DISPATCH.with(|f| f.get())
}

/// One type-erased batched job: call `call(data, i)` for every claimed
/// index `i`. `next`, `joined`, and `done` point into the dispatcher's
/// stack frame; see the module-level safety argument for why that is
/// sound.
#[derive(Clone, Copy)]
struct JobDesc {
    /// Monomorphised shim that invokes the real closure.
    call: unsafe fn(*const (), usize),
    /// Erased `&F` of the dispatcher's closure.
    data: *const (),
    /// Exclusive upper bound of the index range.
    n: usize,
    /// Claim granularity.
    chunk: usize,
    /// Shared claim counter (lives on the dispatcher's stack).
    next: *const AtomicUsize,
    /// Workers that committed to this job (incremented under the `sleep`
    /// mutex; lives on the dispatcher's stack).
    joined: *const AtomicUsize,
    /// Committed workers that have checked out (lives on the
    /// dispatcher's stack).
    done: *const AtomicUsize,
}

// SAFETY: the raw pointers are only dereferenced between a worker's
// commit (under the `sleep` mutex, while the job is live) and its
// `done.fetch_add` check-out, during which the dispatch protocol keeps
// the pointees alive (module-level argument).
unsafe impl Send for JobDesc {}

/// Wake-side state guarded by `Shared::sleep`.
struct JobCell {
    /// Generation counter; bumped once per published job.
    generation: u64,
    /// The live job, if any. `None` either between dispatches or after
    /// the current dispatch revoked it (no further commits allowed).
    job: Option<JobDesc>,
}

/// Per-worker cumulative clocks (nanoseconds, relaxed atomics).
#[derive(Default)]
struct WorkerClock {
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
}

/// State shared between the dispatcher and the worker threads.
struct Shared {
    /// Job mailbox + generation counter.
    sleep: Mutex<JobCell>,
    /// Wakes workers when a job is published.
    wake: Condvar,
    /// Fast-path copy of the generation counter so idle workers can spin
    /// a little before touching the mutex. Written under `sleep`.
    generation: AtomicU64,
    /// Completion barrier lock (pairs with `done_cv`).
    done_lock: Mutex<()>,
    /// Signalled by the last worker to check in.
    done_cv: Condvar,
    /// First panic payload of the current dispatch, if any.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Number of pooled dispatches served.
    dispatches: AtomicU64,
    /// Total lanes (indices) across all pooled dispatches.
    lanes: AtomicU64,
    /// One clock per worker thread.
    clocks: Vec<WorkerClock>,
}

/// The process-wide pool: `num_threads() - 1` parked workers plus the
/// dispatching thread itself.
pub(crate) struct Pool {
    shared: &'static Shared,
    /// Worker-thread count (excludes the dispatching caller).
    workers: usize,
    /// Serialises dispatches from concurrent user threads.
    dispatch_lock: Mutex<()>,
}

/// Dispatches that ran inline (serial fallback: tiny batch, single
/// hardware thread, or nested inside another dispatch).
static INLINE_DISPATCHES: AtomicU64 = AtomicU64::new(0);

/// Worker threads respawned after a propagated panic killed them
/// ([`RespawnGuard`]); without self-healing a long soak's pool capacity
/// would only ever decay.
static WORKERS_RESPAWNED: AtomicU64 = AtomicU64::new(0);

/// Outstanding injected-death tokens ([`inject_worker_death`]).
static WORKER_DEATH_TOKENS: AtomicUsize = AtomicUsize::new(0);

/// Fault-injection hook: arm `n` worker-death tokens. The next `n` pool
/// workers to finish serving a dispatch panic *outside* the lane
/// `catch_unwind` — after their completion check-out, so no dispatch can
/// hang — killing the worker thread the way a real propagated panic
/// (e.g. a panicking panic payload `Drop`) would. The internal
/// respawn guard then heals the pool; `workers_respawned` in
/// [`PoolStats`] counts the round trip. Test/chaos use only.
pub fn inject_worker_death(n: usize) {
    WORKER_DEATH_TOKENS.fetch_add(n, Ordering::Relaxed);
}

/// Consume one injected-death token, if armed.
fn take_death_token() -> bool {
    WORKER_DEATH_TOKENS
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
        .is_ok()
}

/// Self-healing: respawns this worker's slot if its thread dies by
/// unwinding out of [`worker_loop`]. Lane panics are caught and
/// propagated to the dispatcher, so in normal operation workers never
/// die — but a panic from pool bookkeeping itself (or an injected death)
/// would otherwise silently shrink the pool for the rest of the
/// process. The guard only acts when the thread is actually panicking.
struct RespawnGuard {
    shared: &'static Shared,
    id: usize,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        WORKERS_RESPAWNED.fetch_add(1, Ordering::Relaxed);
        let shared = self.shared;
        let id = self.id;
        // Same worker id: the replacement inherits the dead worker's
        // clock slot, so per-worker accounting stays contiguous. A spawn
        // failure (resource exhaustion) leaves the pool one worker short
        // rather than aborting the process; dispatches still complete
        // because only *committed* workers gate them.
        let _ = std::thread::Builder::new()
            .name(format!("pp-pool-{id}"))
            .spawn(move || worker_loop(shared, id));
    }
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// The global pool, spawning its workers on first use.
pub(crate) fn global() -> &'static Pool {
    POOL.get_or_init(|| {
        let workers = crate::par::num_threads().saturating_sub(1);
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            sleep: Mutex::new(JobCell {
                generation: 0,
                job: None,
            }),
            wake: Condvar::new(),
            generation: AtomicU64::new(0),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
            dispatches: AtomicU64::new(0),
            lanes: AtomicU64::new(0),
            clocks: (0..workers).map(|_| WorkerClock::default()).collect(),
        }));
        for id in 0..workers {
            std::thread::Builder::new()
                .name(format!("pp-pool-{id}"))
                .spawn(move || worker_loop(shared, id))
                .expect("spawning pool worker");
        }
        Pool {
            shared,
            workers,
            dispatch_lock: Mutex::new(()),
        }
    })
}

/// Record a dispatch that was served inline rather than by the pool.
pub(crate) fn note_inline_dispatch() {
    INLINE_DISPATCHES.fetch_add(1, Ordering::Relaxed);
}

/// Claim chunks until the range is exhausted, catching a lane panic.
/// Returns the panic payload, if any.
fn run_chunks(desc: &JobDesc) -> Option<Box<dyn Any + Send>> {
    catch_unwind(AssertUnwindSafe(|| {
        // SAFETY: the dispatch protocol keeps `next` alive until this
        // participant checks in (module-level argument, point 3).
        let next = unsafe { &*desc.next };
        loop {
            let start = next.fetch_add(desc.chunk, Ordering::Relaxed);
            if start >= desc.n {
                break;
            }
            for i in start..(start + desc.chunk).min(desc.n) {
                // SAFETY: `data` outlives the dispatch; `i < n` and each
                // index is produced exactly once by the shared counter.
                unsafe { (desc.call)(desc.data, i) };
            }
        }
    }))
    .err()
}

fn worker_loop(shared: &'static Shared, id: usize) {
    // Armed for the life of the thread: if anything unwinds out of this
    // frame the guard respawns the slot. A fresh (or respawned) worker
    // starts at `seen == 0` and resynchronises off the live generation
    // counter on its first wake, which is always safe: committing to a
    // still-live job is the normal path, and a revoked mailbox is just
    // skipped.
    let _respawn = RespawnGuard { shared, id };
    let mut seen = 0u64;
    loop {
        // Wait for the next generation: spin briefly on the fast-path
        // counter, then park on the condvar.
        let idle_from = Instant::now();
        let mut spins = 0usize;
        let budget = spin_budget();
        while shared.generation.load(Ordering::Acquire) == seen && spins < budget {
            std::hint::spin_loop();
            spins += 1;
        }
        let desc = {
            let mut cell = lock_pool(&shared.sleep);
            loop {
                if cell.generation != seen {
                    seen = cell.generation;
                    if let Some(desc) = cell.job {
                        // Decline when every chunk is already claimed:
                        // committing then would contribute nothing and
                        // make the dispatcher wait out this worker's
                        // check-out round-trip (costly when the OS is
                        // slow to schedule us, e.g. few cores).
                        // SAFETY: the job is live, so its pointers are.
                        if unsafe { &*desc.next }.load(Ordering::Relaxed) < desc.n {
                            // Commit, under the mutex: the dispatcher's
                            // revocation (same mutex) reads a final count.
                            unsafe { &*desc.joined }.fetch_add(1, Ordering::Relaxed);
                            break desc;
                        }
                        // Nothing left to claim: treat like a revoked job.
                    }
                    // Revoked before this worker woke: never touch it.
                }
                cell = shared.wake.wait(cell).unwrap_or_else(|e| e.into_inner());
            }
        };
        shared.clocks[id]
            .idle_ns
            .fetch_add(idle_from.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let busy_from = Instant::now();
        let _guard = DispatchGuard::enter();
        if let Some(payload) = run_chunks(&desc) {
            let mut slot = lock_pool(&shared.panic);
            slot.get_or_insert(payload);
        }
        drop(_guard);
        shared.clocks[id]
            .busy_ns
            .fetch_add(busy_from.elapsed().as_nanos() as u64, Ordering::Relaxed);

        // Check out. This fetch_add is the worker's LAST access to the
        // dispatcher's stack frame; everything after touches only the
        // long-lived shared state.
        // SAFETY: `done` is alive until the dispatcher observes
        // `done == joined`, which cannot happen before this increment.
        unsafe { &*desc.done }.fetch_add(1, Ordering::Release);
        // Taking the lock ensures the notify cannot race ahead of the
        // dispatcher's wait.
        drop(lock_pool(&shared.done_lock));
        shared.done_cv.notify_all();

        // Injected worker death, strictly *after* check-out so the
        // dispatch this worker served can never hang on it. The panic
        // unwinds out of the loop and the respawn guard heals the pool.
        if take_death_token() {
            panic!("pp-pool-{id}: injected worker death");
        }
    }
}

impl Pool {
    /// Dispatch `f(i)` for `i in 0..n` with the given claim granularity,
    /// participating in the work and blocking until every worker has
    /// checked in. Propagates the first lane panic.
    pub(crate) fn dispatch<F: Fn(usize) + Sync>(&self, n: usize, chunk: usize, f: &F) {
        /// Reifies the erased closure pointer back to `&F`.
        unsafe fn shim<F: Fn(usize) + Sync>(data: *const (), i: usize) {
            // SAFETY: `data` was created from `&F` in `dispatch` below and
            // is live for the whole dispatch.
            unsafe { (*(data as *const F))(i) }
        }

        let serialised = lock_pool(&self.dispatch_lock);
        let next = AtomicUsize::new(0);
        let joined = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let desc = JobDesc {
            call: shim::<F>,
            data: f as *const F as *const (),
            n,
            chunk: chunk.max(1),
            next: &next,
            joined: &joined,
            done: &done,
        };
        self.shared.dispatches.fetch_add(1, Ordering::Relaxed);
        self.shared.lanes.fetch_add(n as u64, Ordering::Relaxed);
        {
            let mut cell = lock_pool(&self.shared.sleep);
            cell.generation += 1;
            cell.job = Some(desc);
            self.shared
                .generation
                .store(cell.generation, Ordering::Release);
        }
        self.shared.wake.notify_all();

        // Participate: the dispatching thread is worker number `workers`.
        let guard = DispatchGuard::enter();
        let caller_panic = run_chunks(&desc);
        drop(guard);

        // Revoke: once the mailbox is cleared no further worker can
        // commit, so the count read here is final.
        let joined_count = {
            let mut cell = lock_pool(&self.shared.sleep);
            cell.job = None;
            joined.load(Ordering::Relaxed)
        };

        // Completion handshake: no return (normal or unwinding) until
        // every committed worker has released its borrow of
        // `next`/`done`/`f`.
        let mut spins = 0usize;
        let spin_limit = spin_budget();
        while done.load(Ordering::Acquire) < joined_count && spins < spin_limit {
            std::hint::spin_loop();
            spins += 1;
        }
        if done.load(Ordering::Acquire) < joined_count {
            let mut g = lock_pool(&self.shared.done_lock);
            while done.load(Ordering::Acquire) < joined_count {
                g = self
                    .shared
                    .done_cv
                    .wait(g)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        let worker_panic = lock_pool(&self.shared.panic).take();
        drop(serialised);
        if let Some(payload) = caller_panic.or(worker_panic) {
            resume_unwind(payload);
        }
    }
}

/// Cumulative busy/idle time of one pool worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerTimes {
    /// Time spent running lane work.
    pub busy: Duration,
    /// Time spent waiting for the next dispatch.
    pub idle: Duration,
}

/// Snapshot of the pool's observability counters.
///
/// All counters are cheap relaxed atomics: reading them perturbs the pool
/// by a handful of cache-line loads, so snapshots are safe to take inside
/// benchmark loops. Before the first parallel dispatch the pool does not
/// exist and every field is zero except possibly
/// [`PoolStats::inline_dispatches`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads owned by the pool (excludes dispatching callers).
    pub workers: usize,
    /// Batched dispatches served by the pool.
    pub dispatches: u64,
    /// Total indices (batch lanes) across all pooled dispatches.
    pub lanes_dispatched: u64,
    /// Dispatches that ran inline instead (tiny batch, one hardware
    /// thread, or nested inside another dispatch).
    pub inline_dispatches: u64,
    /// Worker threads respawned after dying to a propagated panic (pool
    /// self-healing; see [`inject_worker_death`] for the test hook).
    pub workers_respawned: u64,
    /// Cumulative busy/idle time per worker, indexed by worker id.
    pub per_worker: Vec<WorkerTimes>,
}

impl PoolStats {
    /// Total busy time across workers.
    pub fn total_busy(&self) -> Duration {
        self.per_worker.iter().map(|w| w.busy).sum()
    }

    /// Total idle time across workers.
    pub fn total_idle(&self) -> Duration {
        self.per_worker.iter().map(|w| w.idle).sum()
    }
}

/// Take a [`PoolStats`] snapshot. Does **not** force pool creation: until
/// the first pooled dispatch this returns an all-zero snapshot (modulo
/// inline-dispatch counts).
pub fn pool_stats() -> PoolStats {
    let inline = INLINE_DISPATCHES.load(Ordering::Relaxed);
    let workers_respawned = WORKERS_RESPAWNED.load(Ordering::Relaxed);
    match POOL.get() {
        None => PoolStats {
            inline_dispatches: inline,
            workers_respawned,
            ..PoolStats::default()
        },
        Some(pool) => PoolStats {
            workers: pool.workers,
            dispatches: pool.shared.dispatches.load(Ordering::Relaxed),
            lanes_dispatched: pool.shared.lanes.load(Ordering::Relaxed),
            inline_dispatches: inline,
            workers_respawned,
            per_worker: pool
                .shared
                .clocks
                .iter()
                .map(|c| WorkerTimes {
                    busy: Duration::from_nanos(c.busy_ns.load(Ordering::Relaxed)),
                    idle: Duration::from_nanos(c.idle_ns.load(Ordering::Relaxed)),
                })
                .collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn dispatch_visits_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..4096).map(|_| AtomicUsize::new(0)).collect();
        global().dispatch(4096, 7, &|i: usize| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn stats_count_dispatches_and_lanes() {
        let before = pool_stats();
        global().dispatch(100, 4, &|_i: usize| {});
        global().dispatch(50, 4, &|_i: usize| {});
        let after = pool_stats();
        assert!(after.dispatches >= before.dispatches + 2);
        assert!(after.lanes_dispatched >= before.lanes_dispatched + 150);
        assert_eq!(after.workers, crate::par::num_threads().saturating_sub(1));
        assert_eq!(after.per_worker.len(), after.workers);
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        for round in 0..3 {
            let err = catch_unwind(AssertUnwindSafe(|| {
                global().dispatch(512, 8, &|i: usize| {
                    if i == 137 {
                        panic!("lane 137 failed (round {round})");
                    }
                });
            }));
            assert!(err.is_err(), "panic must propagate to the dispatcher");
            // The pool must keep serving clean dispatches afterwards.
            let count = AtomicUsize::new(0);
            global().dispatch(512, 8, &|_i: usize| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 512);
        }
    }

    /// The guard itself, isolated from scheduling: a thread that unwinds
    /// while holding a [`RespawnGuard`] must bump the respawn counter
    /// and leave a replacement worker parked on the shared state. Runs
    /// on single-core hosts too, where the pool proper has no workers.
    #[test]
    fn respawn_guard_fires_on_unwind() {
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            sleep: Mutex::new(JobCell {
                generation: 0,
                job: None,
            }),
            wake: Condvar::new(),
            generation: AtomicU64::new(0),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
            dispatches: AtomicU64::new(0),
            lanes: AtomicU64::new(0),
            clocks: (0..1).map(|_| WorkerClock::default()).collect(),
        }));
        let before = WORKERS_RESPAWNED.load(Ordering::Relaxed);
        let t = std::thread::Builder::new()
            .name("pp-pool-doomed".into())
            .spawn(move || {
                let _guard = RespawnGuard { shared, id: 0 };
                panic!("simulated propagated panic");
            })
            .unwrap();
        assert!(t.join().is_err());
        assert!(
            WORKERS_RESPAWNED.load(Ordering::Relaxed) > before,
            "unwinding out of a worker must count a respawn"
        );
        // The replacement thread parks on `shared` harmlessly (same
        // lifecycle as real pool workers); nothing to join.
    }

    #[test]
    fn injected_worker_death_respawns_and_pool_recovers() {
        let pool = global();
        if pool.workers == 0 {
            // Single hardware thread: no workers to kill.
            return;
        }
        let before = pool_stats().workers_respawned;
        inject_worker_death(1);
        // Drive dispatches until some worker consumes the token, dies,
        // and is respawned. The token fires after check-out, so none of
        // these dispatches can hang on the dying worker.
        let deadline = Instant::now() + Duration::from_secs(30);
        while pool_stats().workers_respawned == before {
            global().dispatch(4096, 1, &|_i: usize| {
                std::hint::spin_loop();
            });
            assert!(
                Instant::now() < deadline,
                "no worker consumed the injected-death token"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        // The healed pool still serves complete dispatches.
        let count = AtomicUsize::new(0);
        global().dispatch(1024, 4, &|_i: usize| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1024);
        assert_eq!(
            pool_stats().workers,
            pool.workers,
            "capacity must not decay"
        );
    }

    #[test]
    fn nested_dispatch_runs_inline_without_deadlock() {
        let outer = AtomicUsize::new(0);
        global().dispatch(64, 2, &|_i: usize| {
            assert!(in_dispatch());
            // A nested parallel_for must degrade to the serial loop.
            crate::par::parallel_for(16, |_| {
                outer.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(outer.load(Ordering::Relaxed), 64 * 16);
    }
}
