//! # pp-bench — the experiment harness
//!
//! `reproduce_all` prints every table and ablation of the paper's
//! evaluation, one subcommand per `results/` file, and with no arguments
//! checks their shape (see DESIGN.md §4 for the index):
//!
//! ```text
//! cargo run --release -p pp-bench --bin reproduce_all -- table3_optimization [nx] [nv] [iters]
//! ```
//!
//! `fig2_glups` times Fig. 2; the other binaries are the bench gates and
//! probes. This library holds the shared plumbing: the six spline
//! configurations the paper sweeps, strict positional-argument parsing,
//! the ASCII plot and JSON reader, and the GPU cache-model glue that keeps
//! host measurements and model predictions apart.

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
pub use configs::{parse_positional, usage_exit, BenchArgs, SplineConfig};
pub use scoped::ScopedParallel;

use std::time::Duration;

/// Schema version stamped into every bench document (`BENCH_dispatch.json`,
/// `BENCH_chaos.json`). Bump on any breaking field change; `bench_gate`
/// fails by name on a mismatch instead of silently parsing.
pub const SCHEMA_VERSION: u32 = 1;

/// Format a duration in the paper's style (ms with two decimals).
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.2} ms", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ms_format() {
        assert_eq!(fmt_ms(Duration::from_micros(11390)), "11.39 ms");
    }
}
