//! # pp-portable — performance-portability substrate
//!
//! This crate plays the role that [Kokkos](https://kokkos.org) plays in the
//! paper *"Development of performance portable spline solver for exa-scale
//! plasma turbulence simulation"* (Asahi et al., SC 2024): it provides the
//! data and execution abstractions on which every other crate in this
//! workspace is built.
//!
//! The programming model it encodes is the one the paper's kernels rely on:
//!
//! * **Views with explicit layout** — dense 2-D arrays ([`Matrix`]) carry a
//!   [`Layout`] (`LayoutLeft` = column-major, `LayoutRight` = row-major) so
//!   that the *same* kernel code can be timed against both the GPU-friendly
//!   lane-contiguous layout and the CPU-friendly batch-contiguous layout
//!   (the paper's §V-A "non-ideal data layout" discussion).
//! * **Strided per-lane views** — [`Strided`] / [`StridedMut`] are the
//!   equivalent of `Kokkos::subview(b, ALL, i)`: a length + stride window
//!   into one batch lane, cheap to construct inside a hot loop.
//! * **Execution spaces** — the [`ExecSpace`] trait with [`Serial`] and
//!   [`Parallel`] implementations mirrors
//!   `Kokkos::parallel_for(batch, LAMBDA(i) {...})`: kernels are *serial
//!   within a lane, parallel across lanes*. `Parallel` dispatches onto a
//!   persistent worker pool ([`crate::pool`]) — like a Kokkos dispatch
//!   onto an existing OpenMP team, launching a batch wakes parked threads
//!   instead of spawning new ones. The worker budget honours the
//!   `PP_NUM_THREADS` environment variable (see [`num_threads`]), and
//!   [`pool_stats`] exposes dispatch/lane counters plus per-worker
//!   busy/idle clocks.
//! * **Resident batches and layout moves** — a [`ResidentBatch`] holds a
//!   batch lane-interleaved, the layout the batched sweeps want, across a
//!   whole pipeline. Its pack / unpack and the host-to-host
//!   [`transpose_into`] (Algorithm 2 of the paper transposes the
//!   distribution function before and after the spline solve) are explicit
//!   copies, Kokkos' `deep_copy`, through one cache-tiled mover.
//!
//! Everything is `f64`; the paper works exclusively in double precision.
//!
//! ## Quick example
//!
//! ```
//! use pp_portable::{Matrix, Layout, ExecSpace, Parallel};
//!
//! // A (4, 1000) right-hand-side block: 1000 batch lanes of length 4.
//! let mut b = Matrix::zeros(4, 1000, Layout::Left);
//! b.fill(1.0);
//!
//! // Scale every lane by its lane index, in parallel across lanes.
//! Parallel.for_each_lane_mut(&mut b, |j, mut lane| {
//!     for i in 0..lane.len() {
//!         lane[i] *= j as f64;
//!     }
//! });
//! assert_eq!(b.get(2, 3), 3.0);
//! ```

// Numerical kernels here deliberately use index loops (matching the
// LAPACK-style algorithms they implement) and NaN-rejecting negated
// comparisons; silence the corresponding style lints crate-wide.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::int_plus_one)]

pub mod error;
pub mod exec;
pub mod field;
pub mod interleaved;
pub mod isa;
pub mod layout;
pub mod lines;
pub mod matrix;
pub mod par;
pub mod pool;
pub mod ptr;
pub mod strided;
pub mod testrng;
pub mod transpose;

pub use error::{Error, Result};
pub use exec::{CountingExec, ExecSpace, Parallel, Serial};
pub use field::{fill_panel, run_blocks, Field, HostField, TiledField};
pub use interleaved::{deinterleave_columns, interleave_columns, ResidentBatch, LANE_WIDTH};
pub use isa::{Lanes, PanelIsa};
pub use layout::Layout;
pub use lines::Lines;
pub use matrix::Matrix;
pub use par::{num_threads, parallel_for, parallel_sum};
pub use pool::{inject_worker_death, pool_stats, PoolStats, WorkerTimes};
pub use strided::{Strided, StridedMut};
pub use testrng::TestRng;
pub use transpose::{transpose_into, transpose_into_with};

/// Warn-once parsing of the `PP_*` environment variables
/// ([`pp_instrument::env`]).
pub use pp_instrument::env;
