//! # pp-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! index), plus timing micro-benchmarks. This library holds the shared
//! plumbing: the six spline configurations the paper sweeps, simple CLI
//! parsing, CSV/ASCII output helpers, and the measured-vs-modelled
//! plumbing that keeps host measurements and GPU cache-model predictions
//! clearly separated.
//!
//! Run a harness binary with `--help`-less simplicity:
//!
//! ```text
//! cargo run --release -p pp-bench --bin table3_optimization -- [nx] [nv] [iters]
//! ```

#![forbid(unsafe_code)]
// Numerical kernels here deliberately use index loops (matching the
// LAPACK-style algorithms they implement) and NaN-rejecting negated
// comparisons; silence the corresponding style lints crate-wide.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::int_plus_one)]

pub mod ascii_plot;
pub mod configs;
pub mod gpu_model;
pub mod json;
mod scoped;

pub use ascii_plot::AsciiPlot;
pub use configs::{parse_args, BenchArgs, SplineConfig};
pub use scoped::ScopedParallel;

use std::time::{Duration, Instant};

/// Time `iters` runs of `f`, returning the mean duration (after one
/// untimed warm-up run).
pub fn time_mean(iters: usize, mut f: impl FnMut()) -> Duration {
    assert!(iters > 0, "need at least one iteration");
    f(); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters as u32
}

/// Format a duration in the paper's style (ms with two decimals).
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.2} ms", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_mean_is_positive() {
        let d = time_mean(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        let _ = d; // duration may round to zero on coarse clocks; just type-check
    }

    #[test]
    fn fmt_ms_format() {
        assert_eq!(fmt_ms(Duration::from_micros(11390)), "11.39 ms");
    }
}
