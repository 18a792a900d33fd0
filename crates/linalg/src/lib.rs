//! # pp-linalg — batched serial dense linear algebra
//!
//! Rust implementations of the LAPACK routines the paper adds to
//! Kokkos-kernels (§II-D): the factorisation/solve pairs
//!
//! | LAPACK | here | matrix class |
//! |---|---|---|
//! | `getrf`/`getrs` | [`getrf`] → [`LuFactors`] | general dense |
//! | `gbtrf`/`gbtrs` | [`gbtrf`] → [`BandedLu`] | general banded |
//! | `pbtrf`/`pbtrs` | [`pbtrf`] → [`CholeskyBanded`] | SPD banded |
//! | `pttrf`/`pttrs` | [`pttrf`] → [`PtFactors`] | SPD tridiagonal |
//!
//! plus the corner corrections the spline builder composes with them,
//! written once as row operations of every accessor
//! ([`LaneRows::gemv_sub`], the dense `gemv`; [`LaneRows::row_axpy`], one
//! COO entry of the sparse `spmv`).
//!
//! ## The batched-serial execution model
//!
//! Every solver here is **strictly sequential along the matrix dimension**
//! and parallel across batch lanes, mirroring the paper's
//! `KokkosBatched::Serial*` design. Each routine's forward/backward sweep
//! is written once, over a row accessor ([`LaneRows`]), and instantiated
//!
//! * *per lane* (`solve_lane`): one right-hand side given as a strided
//!   view — this is what gets called inside a parallel region, and what
//!   the [`batched`] drivers map over every column of a
//!   [`Matrix`](pp_portable::Matrix) through an
//!   [`ExecSpace`](pp_portable::ExecSpace);
//! * *per panel* ([`Panel`]): [`LANE_WIDTH`](pp_portable::LANE_WIDTH)
//!   interleaved lanes advanced together, mapped over the chunks of a
//!   [`ResidentBatch`](pp_portable::ResidentBatch) by the `*_resident`
//!   drivers ([`resident`]);
//! * *per run of panels* (`[Panel; P]`): several panels side by side, so
//!   that one step of the recurrence is several independent ones.
//!
//! The row arithmetic is [`pp_portable::Lanes`], the workspace's one
//! lane-vector trait, so a lane's result is bit-identical in every
//! instantiation. The crate has no `unsafe`: a [`Panel`] views its chunk
//! as rows through `as_chunks_mut`.
//!
//! Factorisation happens **once** (the spline matrix is fixed in time); only
//! the solves run every time step, exactly as in the paper's Algorithm 1.
//! Because the one matrix serves every right-hand side, each factor type
//! stores the *reciprocal* of every pivot in the pivot's slot and no solve
//! divides; [`naive::solve_dense`] keeps its divisions and is the oracle.
//!
//! ```
//! use pp_portable::{Matrix, Layout, Parallel};
//! use pp_linalg::{pttrf, batched};
//!
//! // SPD tridiagonal system: d = diag, e = off-diag.
//! let d = vec![4.0; 8];
//! let e = vec![1.0; 7];
//! let factors = pttrf(&d, &e).unwrap();
//!
//! // 100 right-hand sides, all ones.
//! let mut b = Matrix::zeros(8, 100, Layout::Left);
//! b.fill(1.0);
//! batched::pttrs(&Parallel, &factors, &mut b);
//!
//! // Residual check on lane 0: A x = 1.
//! let x: Vec<f64> = b.col(0).to_vec();
//! let r0 = 4.0 * x[0] + x[1] - 1.0;
//! assert!(r0.abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
// Non-test code in this crate is free of `unwrap()`; keep it that way
// (failures must surface as typed errors or documented invariants).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
// Numerical kernels here deliberately use index loops (matching the
// LAPACK-style algorithms they implement) and NaN-rejecting negated
// comparisons; silence the corresponding style lints crate-wide.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::int_plus_one)]

pub mod banded;
pub mod batched;
pub mod error;
pub mod health;
mod lane;
pub mod lu;
pub mod naive;
pub mod pb;
pub mod pt;
pub mod refine;
pub mod resident;
pub mod solver;

pub use banded::{gbtrf, BandedLu, BandedMatrix};
pub use error::{Error, Result};
pub use health::{estimate_inverse_onenorm, rcond_estimate, FactorHealth};
pub use lane::{LaneRows, Panel};
pub use lu::{getrf, LuFactors};
pub use pb::{pbtrf, CholeskyBanded, SymBandedMatrix};
pub use pt::{pttrf, PtFactors};
pub use refine::{refine_lane, RefineConfig, RefineOutcome};
pub use resident::{gbtrs_resident, getrs_resident, pbtrs_resident, pttrs_resident};
pub use solver::LaneSolver;
