//! # pp-perfmodel — performance models and hardware simulation
//!
//! The paper measures on Intel Icelake, NVIDIA A100 and AMD MI250X. This
//! reproduction runs on a host CPU only, so everything GPU-shaped is
//! **modelled** — explicitly and testably — rather than silently skipped:
//!
//! * [`device`] — the Table II hardware descriptors (peak GFlop/s, peak
//!   bandwidth, caches, TDP, …) plus simulation parameters.
//! * [`roofline`] — equation (10): attainable performance
//!   `R = min(F, B·f/b)`.
//! * [`portability`] — the Pennycook performance-portability metric of
//!   equations (8)–(9): the harmonic mean of per-device architectural
//!   efficiencies, zero if any device is unsupported.
//! * [`metrics`] — GLUPS (equation (7)) and achieved-bandwidth helpers.
//! * [`cachesim`] — a set-associative write-back LRU cache simulator.
//! * [`traffic`] — address-trace generators for the three spline-builder
//!   kernel versions; replayed through [`cachesim`] with a device's cache
//!   geometry they produce the §IV observables (bytes loaded/stored, hit
//!   rates) and, through the roofline, predicted kernel times for the
//!   Table III/V GPU columns.
//!
//! Everything the harness prints from these models is labelled `model:` to
//! keep measured and simulated numbers separate (see EXPERIMENTS.md).

#![forbid(unsafe_code)]
// Numerical kernels here deliberately use index loops (matching the
// LAPACK-style algorithms they implement) and NaN-rejecting negated
// comparisons; silence the corresponding style lints crate-wide.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::int_plus_one)]

pub mod cachesim;
pub mod device;
pub mod metrics;
pub mod portability;
pub mod roofline;
pub mod traffic;

pub use cachesim::{AccessKind, Cache, CacheStats};
pub use device::{Device, DeviceKind};
pub use metrics::{achieved_bandwidth_gbs, glups};
pub use portability::{efficiency, performance_portability};
pub use roofline::{arithmetic_intensity, attainable_gflops};
pub use traffic::{simulate_builder_traffic, BuilderKernel, TrafficReport};
