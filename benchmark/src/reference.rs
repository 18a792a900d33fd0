//! The interference reference: a fixed kernel the benchmark owns, timed
//! next to every measurement.
//!
//! The bench host is a small shared VM. Co-tenants slow it by 10–100 % for
//! seconds to minutes at a time (SMT siblings, shared cache and memory,
//! and at times plain vCPU steal), so the wall time of a step says as
//! much about the neighbours as about the code: between identical runs
//! the raw median step moved 2–6 % in quiet phases and 10–28 % in noisy
//! ones. A fixed computation timed right before and after the step sees
//! the same neighbours, and the step-to-reference ratio held to 2–7 %
//! through phases in which both numerator and denominator moved by a
//! quarter.
//!
//! So every duration is recorded with the mean of the two reference
//! samples that bracket it and reported as
//! `duration / sample · NOMINAL_NS` — the time it would take on a host
//! where the reference costs exactly [`NOMINAL_NS`], which is what it
//! costs on the seed's host when that host is quiet. There a reported
//! second is a wall-clock second; under noise, and on other machines, it
//! is a second of that nominal host. The measured cost of the reference
//! is reported too (`host.reference_ms`, `host.interference`, and the
//! uncorrected `advection.glups_raw`), so nothing is hidden by the
//! normalisation, and the constant cancels whenever a change is compared
//! with its parent.
//!
//! The kernel is a plain uniform cubic-spline evaluation — the operation
//! mix of the step's dominant phase — over 12 MiB, on as many threads as
//! the workload's pool, so it is slowed by what slows the step. It uses
//! nothing from the repo's crates: a change to the stack cannot move the
//! reference. One thing it does share with the stack is the cores, so a
//! sample starts only after a pause long enough for the pool's workers to
//! finish their spin-before-park and get off them.

use crate::stats::quantile;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Coefficients per lane of the reference kernel (a power of two).
const CELLS: usize = 1024;
/// Lanes: 512 × 1024 points, ~2.5 ms on two threads of the seed's host.
/// Long enough that spawning the helper threads is noise, short enough
/// that a sample per step costs a run a tenth of its time.
const LANES: usize = 512;
/// What one pass costs on the seed's host when it is quiet (the typical
/// sample of runs whose `host.interference` read under 5 %), in
/// nanoseconds: the unit every reported duration is normalised to.
pub const NOMINAL_NS: f64 = 2.5e6;
/// Points per claimed block: 8 lanes, ~40 µs of work.
const BLOCK: usize = 8 * CELLS;
/// Pause before a sample. The pool's workers spin for up to ~1 ms after
/// a dispatch before they park; a helper thread started in that window
/// would fight them for a core and the sample would measure the pool.
const SETTLE: Duration = Duration::from_millis(1);

/// The kernel's arrays and thread count.
pub struct Reference {
    coef: Vec<f64>,
    feet: Vec<f64>,
    out: Vec<f64>,
    threads: usize,
}

impl Reference {
    /// A reference that runs on `threads` threads (the caller's included),
    /// the same number the workload's pool uses, so it is exposed to
    /// interference on every core the workload runs on.
    pub fn new(threads: usize) -> Self {
        let n = LANES * CELLS;
        Reference {
            // Any smooth non-constant data will do; these are fixed.
            coef: (0..n).map(|i| 1.0 + (i % 1000) as f64 * 1e-3).collect(),
            feet: (0..n)
                .map(|i| {
                    let (lane, k) = (i / CELLS, i % CELLS);
                    let x = (k as f64 + 0.37 + (lane % 17) as f64 * 0.21) / CELLS as f64;
                    x - x.floor()
                })
                .collect(),
            out: vec![0.0; n],
            threads: threads.max(1),
        }
    }

    /// One timed pass of the kernel, after the settling pause;
    /// nanoseconds.
    ///
    /// Threads claim blocks of lanes off a shared counter, the schedule
    /// the stack's own pool uses. It matters: when a neighbour takes half
    /// of one core, dynamically claimed work slows by a third, while an
    /// even split waits for the slower half and slows by two — a
    /// reference split evenly over-corrected the step by 35 % in such a
    /// phase.
    pub fn sample(&mut self) -> u64 {
        std::thread::sleep(SETTLE);
        let t0 = Instant::now();
        let (coef, feet) = (&self.coef[..], &self.feet[..]);
        let blocks: Vec<Mutex<&mut [f64]>> = self.out.chunks_mut(BLOCK).map(Mutex::new).collect();
        let next = AtomicUsize::new(0);
        let work = || loop {
            let b = next.fetch_add(1, Ordering::Relaxed);
            let Some(block) = blocks.get(b) else { break };
            // Each index is claimed once, so the lock never waits.
            let mut out = block.lock().expect("no holder of a block panics");
            evaluate(coef, feet, b * BLOCK, &mut out);
        };
        std::thread::scope(|scope| {
            for _ in 1..self.threads {
                scope.spawn(work);
            }
            work();
        });
        drop(blocks);
        std::hint::black_box(&self.out);
        t0.elapsed().as_nanos() as u64
    }

    #[cfg(test)]
    fn checksum(&self) -> f64 {
        self.out.iter().sum()
    }
}

/// Evaluate the points `base..base + out.len()`: each lane's uniform
/// cubic spline at that lane's feet.
fn evaluate(coef: &[f64], feet: &[f64], base: usize, out: &mut [f64]) {
    for (i, o) in out.iter_mut().enumerate() {
        let g = base + i;
        let lane = g / CELLS * CELLS;
        let x = feet[g] * CELLS as f64;
        let cell = x as usize;
        let t = x - cell as f64;
        let u = 1.0 - t;
        let w0 = u * u * u / 6.0;
        let w3 = t * t * t / 6.0;
        let w1 = (3.0 * t * t * t - 6.0 * t * t + 4.0) / 6.0;
        let w2 = 1.0 - w0 - w1 - w3;
        let c = |m: usize| coef[lane + ((cell + m) & (CELLS - 1))];
        *o = w0 * c(0) + w1 * c(1) + w2 * c(2) + w3 * c(3);
    }
}

/// A measured duration and the mean of the reference samples taken right
/// before and right after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sampled {
    pub ns: u64,
    pub reference_ns: u64,
}

impl Sampled {
    /// The duration on the nominal host, in nanoseconds.
    pub fn normalised_ns(&self) -> f64 {
        self.ns as f64 / self.reference_ns.max(1) as f64 * NOMINAL_NS
    }
}

/// What the reference cost in this run when the host left it alone: the
/// 10th percentile of the run's samples (reported, not used to
/// normalise). Not the minimum, which follows the luckiest 3 ms of the
/// run, and not the median, which follows the neighbours.
pub fn quiet_ns(samples: &[u64]) -> f64 {
    quantile(&samples.iter().map(|&s| s as f64).collect::<Vec<_>>(), 0.10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_output_does_not_depend_on_the_thread_count() {
        let mut sums = Vec::new();
        for threads in [1, 2, 3] {
            let mut r = Reference::new(threads);
            assert!(r.sample() > 0);
            sums.push(r.checksum());
        }
        assert!(sums[0].is_finite() && sums[0] > 0.0);
        assert_eq!(sums[0].to_bits(), sums[1].to_bits());
        assert_eq!(sums[0].to_bits(), sums[2].to_bits());
    }

    #[test]
    fn weights_reproduce_constants_and_feet_stay_in_range() {
        // Cubic B-spline weights sum to one, so constant coefficients
        // evaluate to that constant wherever the foot lands.
        let coef = vec![2.5; CELLS];
        let feet: Vec<f64> = (0..CELLS)
            .map(|k| (k as f64 + 0.999) / CELLS as f64)
            .collect();
        let mut out = vec![0.0; CELLS];
        evaluate(&coef, &feet, 0, &mut out);
        assert!(out.iter().all(|v| (v - 2.5).abs() < 1e-12));
        let r = Reference::new(1);
        assert!(r.feet.iter().all(|x| (0.0..1.0).contains(x)));
    }

    #[test]
    fn normalisation_scales_by_nominal_over_sample() {
        let at = |reference_ns: f64| Sampled {
            ns: 1_000_000,
            reference_ns: reference_ns as u64,
        };
        // The reference cost what it nominally costs: unchanged.
        assert_eq!(at(NOMINAL_NS).normalised_ns(), 1e6);
        // The reference ran twice as slow: the duration counts half.
        assert_eq!(at(2.0 * NOMINAL_NS).normalised_ns(), 5e5);
        // A zero sample (never produced) cannot divide by zero.
        assert!(at(0.0).normalised_ns().is_finite());
    }

    #[test]
    fn quiet_is_the_tenth_percentile() {
        let samples: Vec<u64> = (1..=101).collect();
        assert_eq!(quiet_ns(&samples), 11.0);
        // A burst of slow samples does not move it.
        let mut noisy = samples.clone();
        noisy.extend([500; 20]);
        assert!((quiet_ns(&noisy) - 13.0).abs() < 1e-9);
    }
}
