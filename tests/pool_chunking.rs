//! The chunk policy seen from outside the pool: a region of at most
//! `64 · threads` indices is claimed one index at a time, so no
//! participant ever sits on a second claimed-but-unstarted index while
//! another participant could have run it.
//!
//! One test, alone in its binary: the worker budget is read once per
//! process, and the test pins it to two threads before the pool exists.

use pp_portable::{num_threads, parallel_for};
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

#[test]
fn a_128_item_region_on_two_threads_is_claimed_one_item_at_a_time() {
    std::env::set_var("PP_NUM_THREADS", "2");
    assert_eq!(num_threads(), 2);

    const N: usize = 128;
    let started: Vec<AtomicBool> = (0..N).map(|_| AtomicBool::new(false)).collect();
    let first: OnceLock<ThreadId> = OnceLock::new();
    let second_joined = AtomicBool::new(false);
    let worst = AtomicUsize::new(0);

    parallel_for(N, |i| {
        // Pairs with the fence that ends every item: the pool's claim
        // counter is a relaxed RMW, and fence → RMW … RMW → fence is what
        // makes the flags of items finished before a claim visible after
        // every later claim.
        fence(Ordering::SeqCst);
        // Claims go out in index order and a participant runs its claims
        // in order, so an index below `i` that has not started is one the
        // *other* participant claimed and has not reached.
        let unstarted = started[..i]
            .iter()
            .filter(|s| !s.load(Ordering::Relaxed))
            .count();
        worst.fetch_max(unstarted, Ordering::Relaxed);
        started[i].store(true, Ordering::Relaxed);

        // Force the interleaving the check needs: whoever enters first
        // holds its item until the other participant has started one.
        let me = std::thread::current().id();
        if *first.get_or_init(|| me) != me {
            second_joined.store(true, Ordering::Release);
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        while !second_joined.load(Ordering::Acquire) {
            assert!(
                Instant::now() < deadline,
                "the second participant never joined"
            );
            std::thread::yield_now();
        }
        fence(Ordering::SeqCst);
    });

    assert!(started.iter().all(|s| s.load(Ordering::Relaxed)));
    assert!(
        worst.load(Ordering::Relaxed) <= 1,
        "a participant held {} claimed-but-unstarted items",
        worst.load(Ordering::Relaxed)
    );
}
