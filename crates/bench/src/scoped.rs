//! The retired spawn-per-dispatch executor: what `pp_portable::Parallel`
//! was before the persistent worker pool. It lives here because the
//! `dispatch_overhead` bench bin — the measurement of what the pool
//! saves per launch — is its only user.

use pp_portable::{num_threads, ExecSpace};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Claim granularity: ~8 chunks per worker, the schedule this dispatcher
/// had when it was the production executor.
const CHUNKS_PER_WORKER: usize = 8;

/// Reference dispatcher: `f(i)` for `i in 0..n` over **freshly spawned**
/// scoped threads, re-creating and joining OS threads on every call.
fn scoped_parallel_for<F: Fn(usize) + Sync>(n: usize, f: F) {
    let threads = num_threads().min(n);
    if threads <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let chunk = n.div_ceil(threads * CHUNKS_PER_WORKER).max(1);
    let next = AtomicUsize::new(0);
    let f = &f;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                for i in start..(start + chunk).min(n) {
                    f(i);
                }
            });
        }
    });
}

/// Distribute lanes over **freshly spawned** scoped threads, paying
/// thread creation + join on every dispatch. A measurement baseline, not
/// a production execution space.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScopedParallel;

impl ExecSpace for ScopedParallel {
    fn name(&self) -> &'static str {
        "ScopedParallel"
    }

    #[inline]
    fn for_each<F: Fn(usize) + Sync + Send>(&self, n: usize, f: F) {
        scoped_parallel_for(n, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_portable::{Layout, Matrix, Serial, StridedMut};

    #[test]
    fn scoped_space_visits_each_index_once_and_matches_serial() {
        let hits: Vec<AtomicUsize> = (0..700).map(|_| AtomicUsize::new(0)).collect();
        scoped_parallel_for(700, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));

        assert_eq!(ScopedParallel.name(), "ScopedParallel");
        let mut a = Matrix::zeros(4, 21, Layout::Left);
        let mut b = Matrix::zeros(4, 21, Layout::Left);
        let fill = |j: usize, mut lane: StridedMut<'_>| {
            for i in 0..lane.len() {
                lane[i] = (i * 31 + j) as f64;
            }
        };
        Serial.for_each_lane_mut(&mut a, fill);
        ScopedParallel.for_each_lane_mut(&mut b, fill);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }
}
