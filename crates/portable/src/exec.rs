//! Execution spaces: where a batched kernel runs.
//!
//! The paper's kernels all have the shape
//! `Kokkos::parallel_for(batch, LAMBDA(i) { serial work on lane i })`.
//! [`ExecSpace`] captures that: [`Serial`] runs lanes in a plain loop (the
//! reference / debugging space), [`Parallel`] distributes lanes over the
//! persistent worker pool (the host-CPU OpenMP analogue — see
//! [`crate::par`] and [`crate::pool`]).

use crate::matrix::Matrix;
use crate::par;
use crate::ptr::SharedMutPtr;
use crate::strided::StridedMut;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A place batched work can execute.
///
/// Implementations only provide [`ExecSpace::for_each`] (and optionally
/// [`ExecSpace::reduce_sum`]); the lane dispatch helper is derived.
pub trait ExecSpace: Sync {
    /// Name for profiling output (e.g. `"Serial"`, `"Parallel"`).
    fn name(&self) -> &'static str;

    /// Call `f(i)` for every `i in 0..n`, possibly concurrently.
    fn for_each<F: Fn(usize) + Sync + Send>(&self, n: usize, f: F);

    /// How many participants share a region of this space: what a caller
    /// that groups work into items divides by, so that a small batch still
    /// gives each an item. One unless overridden.
    fn concurrency(&self) -> usize {
        1
    }

    /// Sum `f(i)` over `i in 0..n`.
    ///
    /// The default forwards to a serial loop; [`Parallel`] overrides it.
    fn reduce_sum<F: Fn(usize) -> f64 + Sync + Send>(&self, n: usize, f: F) -> f64 {
        (0..n).map(f).sum()
    }

    /// Visit every *column* (batch lane) of `m` with a mutable strided view,
    /// possibly concurrently: the analogue of the paper's
    /// `parallel_for(batch, LAMBDA(i){ subview(b, ALL, i) ... })`.
    fn for_each_lane_mut<F>(&self, m: &mut Matrix, f: F)
    where
        F: Fn(usize, StridedMut<'_>) + Sync + Send,
    {
        let nrows = m.nrows();
        let ncols = m.ncols();
        let (rs, cs) = m.strides();
        let ptr = SharedMutPtr(m.as_mut_ptr());
        self.for_each(ncols, |j| {
            // SAFETY: lane j touches offsets { j*cs + i*rs : i < nrows }.
            // For both supported layouts these sets are pairwise disjoint
            // across j (LayoutLeft: disjoint contiguous blocks; LayoutRight:
            // offsets are congruent to j modulo ncols), and each j is
            // visited exactly once, so no two concurrent views overlap.
            let lane = unsafe { StridedMut::from_raw(ptr.add(j * cs), nrows, rs.max(1)) };
            f(j, lane);
        });
    }
}

/// Run every lane on the calling thread, in order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Serial;

impl ExecSpace for Serial {
    fn name(&self) -> &'static str {
        "Serial"
    }

    #[inline]
    fn for_each<F: Fn(usize) + Sync + Send>(&self, n: usize, f: F) {
        for i in 0..n {
            f(i);
        }
    }
}

/// Distribute lanes over the persistent worker pool.
///
/// Dispatch wakes parked pool threads instead of spawning OS threads, so
/// launching a batched kernel costs microseconds (the `adv_host_small`
/// workload of the step benchmark is where that cost shows). Lane results
/// are bit-identical to [`Serial`], and reductions
/// ([`ExecSpace::reduce_sum`]) use a deterministic per-chunk schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct Parallel;

impl ExecSpace for Parallel {
    fn name(&self) -> &'static str {
        "Parallel"
    }

    #[inline]
    fn for_each<F: Fn(usize) + Sync + Send>(&self, n: usize, f: F) {
        par::parallel_for(n, f);
    }

    fn concurrency(&self) -> usize {
        par::num_threads()
    }

    fn reduce_sum<F: Fn(usize) -> f64 + Sync + Send>(&self, n: usize, f: F) -> f64 {
        par::parallel_sum(n, f)
    }
}

/// [`Parallel`] that counts the parallel regions dispatched through it.
///
/// A test instrument, like [`crate::TestRng`]: structure tests assert
/// that an entry point is exactly `n` regions on this space rather than
/// on [`crate::pool_stats`], which is process-wide and moves with every
/// test running concurrently.
#[derive(Debug, Default)]
pub struct CountingExec(AtomicUsize);

impl CountingExec {
    /// Regions dispatched so far.
    pub fn regions(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

impl ExecSpace for CountingExec {
    fn name(&self) -> &'static str {
        "Counting"
    }

    fn for_each<F: Fn(usize) + Sync + Send>(&self, n: usize, f: F) {
        // Relaxed: a statistic, read after the dispatches it counts.
        self.0.fetch_add(1, Ordering::Relaxed);
        Parallel.for_each(n, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;

    #[allow(clippy::type_complexity)]
    fn exec_spaces() -> Vec<Box<dyn Fn(&mut Matrix)>> {
        vec![
            Box::new(|m: &mut Matrix| {
                Serial.for_each_lane_mut(m, |j, mut lane| {
                    for i in 0..lane.len() {
                        lane[i] = (i + 100 * j) as f64;
                    }
                })
            }),
            Box::new(|m: &mut Matrix| {
                Parallel.for_each_lane_mut(m, |j, mut lane| {
                    for i in 0..lane.len() {
                        lane[i] = (i + 100 * j) as f64;
                    }
                })
            }),
        ]
    }

    #[test]
    fn lane_dispatch_writes_disjoint_lanes_both_layouts() {
        for layout in [Layout::Left, Layout::Right] {
            for run in exec_spaces() {
                let mut m = Matrix::zeros(5, 17, layout);
                run(&mut m);
                for j in 0..17 {
                    for i in 0..5 {
                        assert_eq!(m.get(i, j), (i + 100 * j) as f64, "{layout:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn serial_visits_each_index_once() {
        let count = AtomicUsize::new(0);
        Serial.for_each(1000, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn parallel_visits_each_index_once() {
        let hits: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        Parallel.for_each(500, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn reduce_sum_matches_closed_form() {
        let expected = (0..1000).map(|i| i as f64).sum::<f64>();
        assert_eq!(Serial.reduce_sum(1000, |i| i as f64), expected);
        assert_eq!(Parallel.reduce_sum(1000, |i| i as f64), expected);
    }

    #[test]
    fn zero_lanes_is_a_no_op() {
        let mut m = Matrix::zeros(4, 0, Layout::Left);
        Parallel.for_each_lane_mut(&mut m, |_, _| panic!("should not be called"));
    }

    #[test]
    fn names() {
        assert_eq!(Serial.name(), "Serial");
        assert_eq!(Parallel.name(), "Parallel");
    }
}
