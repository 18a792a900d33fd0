//! # pp-splinesolver — the batched single-matrix / multi-RHS spline builder
//!
//! This crate is the Rust realisation of the paper's primary contribution:
//! a performance-portable kernel that builds spline coefficients by solving
//! **one fixed interpolation matrix against an enormous batch of
//! right-hand sides**, using the Schur-complement block decomposition of
//! Algorithm 1 and the batched-serial solvers of `pp-linalg`.
//!
//! ## The three builder versions
//!
//! The paper's artifact exposes `DDC_SPLINES_VERSION = 0, 1, 2`; so does
//! [`BuilderVersion`]:
//!
//! | version | paper section | structure |
//! |---|---|---|
//! | [`BuilderVersion::Baseline`] | Listing 2 | four parallel regions: `Q`-solve, dense λ correction, `getrs` (δ′), dense β correction — four passes over the right-hand sides |
//! | [`BuilderVersion::Fused`] | Listing 4, §IV-C | one fused region (`Q`-solve + dense `gemv` + `getrs` + dense `gemv`) — one pass, better temporal locality |
//! | [`BuilderVersion::FusedSpmv`] | Listing 6, §IV-D | fused kernel with the corner blocks `λ` and `β = Q⁻¹γ` stored sparse (COO) — O(nnz) corner work instead of O(n) |
//!
//! All three run the one region body on interleaved panels of eight lanes
//! and produce bit-comparable coefficients; they differ only in data
//! movement — which is exactly what the paper's Table III measures.
//!
//! ## Setup vs. solve
//!
//! [`SplineBuilder::new`] does everything that happens *once* (the paper
//! factorises on the host at initialisation): assemble `A`, detect the
//! border structure, factor `Q` with the Table I solver
//! ([`QClass`]), form `β = Q⁻¹ γ` and the Schur complement
//! `δ′ = δ − λ β`, and factor `δ′` densely. `solve_in_place` then runs
//! every time step over a `(n, batch)` block.
//!
//! ```
//! use pp_bsplines::{Breaks, PeriodicSplineSpace};
//! use pp_splinesolver::{BuilderVersion, SplineBuilder};
//! use pp_portable::{Layout, Matrix, Parallel};
//!
//! let space = PeriodicSplineSpace::new(Breaks::uniform(32, 0.0, 1.0).unwrap(), 3).unwrap();
//! let builder = SplineBuilder::new(space.clone(), BuilderVersion::FusedSpmv).unwrap();
//!
//! // 100 lanes, each interpolating the same sine.
//! let pts = space.interpolation_points();
//! let mut rhs = Matrix::from_fn(32, 100, Layout::Left, |i, _| (std::f64::consts::TAU * pts[i]).sin());
//! builder.solve_in_place(&Parallel, &mut rhs).unwrap();
//!
//! // rhs now holds spline coefficients; evaluate lane 7 at x = 0.4.
//! let coefs: Vec<f64> = rhs.col(7).to_vec();
//! let y = space.eval(&coefs, 0.4);
//! assert!((y - (std::f64::consts::TAU * 0.4_f64).sin()).abs() < 1e-3);
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

pub mod blocks;
pub mod builder;
pub mod checkpoint;
pub mod error;
pub mod evaluator;
pub mod iterative_backend;
mod stage;
pub mod tensor2d;
pub mod verified;

pub use blocks::{QClass, QFactors, SchurBlocks};
pub use builder::{BuilderVersion, Solved, SplineBuilder};
pub use checkpoint::{CheckpointStore, Snapshot, DEFAULT_KEEP};
pub use error::{Error, Result};
pub use evaluator::SplineEvaluator;
pub use iterative_backend::{IterativeConfig, IterativeSplineSolver, KrylovKind};
pub use tensor2d::TensorSpline2D;
pub use verified::{
    FallbackRung, LaneReport, LaneVerdict, QuarantineReason, VerifiedBuilder, VerifyConfig,
};
