//! # pp-bsplines — B-spline spaces
//!
//! B-spline machinery for the spline solver: knot vectors (uniform and
//! non-uniform, §II-A of the paper motivates non-uniform meshes for steep
//! equilibrium gradients), Cox–de Boor basis evaluation, spline spaces of
//! degree 3/4/5 — periodic, or clamped for non-periodic directions —,
//! Greville interpolation points, and assembly of the interpolation
//! (collocation) matrix `A` of equation (2) — the matrix whose sparsity
//! pattern is the paper's Fig. 1 and whose sub-matrix classification is
//! its Table I.
//!
//! ## Conventions
//!
//! A periodic space over break points `t_0 < … < t_n` (period
//! `L = t_n − t_0`) has exactly `n` degrees of freedom. The extended knot
//! vector wraps `degree` intervals around each end. Interpolation points
//! are the (wrapped) Greville abscissae
//! `g_k = (τ_{k+1} + … + τ_{k+d}) / d`, which for uniform knots places
//! odd-degree points on the break points and even-degree points on cell
//! midpoints — exactly the alignment that makes the interior of `A` banded
//! with thin periodic corner blocks. A clamped space
//! ([`SplineSpace::clamped`]) repeats `t_0` and `t_n` instead, has
//! `n + degree` degrees of freedom, and its `A` is banded with no corners.
//!
//! ```
//! use pp_bsplines::{Breaks, PeriodicSplineSpace};
//!
//! let space = PeriodicSplineSpace::new(Breaks::uniform(16, 0.0, 1.0).unwrap(), 3).unwrap();
//! assert_eq!(space.num_basis(), 16);
//!
//! // Interpolate sin(2πx) and evaluate the spline anywhere.
//! let values: Vec<f64> = space
//!     .interpolation_points()
//!     .iter()
//!     .map(|&x| (2.0 * std::f64::consts::PI * x).sin())
//!     .collect();
//! let coefs = space.interpolate_naive(&values).unwrap();
//! let y = space.eval(&coefs, 0.23);
//! assert!((y - (2.0 * std::f64::consts::PI * 0.23_f64).sin()).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]
// Numerical kernels here deliberately use index loops (matching the
// LAPACK-style algorithms they implement) and NaN-rejecting negated
// comparisons; silence the corresponding style lints crate-wide.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::int_plus_one)]

pub mod basis;
pub mod error;
mod kernel;
pub mod knots;
pub mod matrix;
pub mod space;

pub use error::{Error, Result};
pub use knots::Breaks;
pub use matrix::{assemble_interpolation_matrix, SplineMatrixStructure};
pub use space::{PeriodicSplineSpace, SplineSpace, MAX_DEGREE};
