//! # pp-advection — the batched semi-Lagrangian benchmark application
//!
//! The paper's performance evaluation (§III-C, §V, Fig. 2) runs a **1D
//! batched advection** solver: the advection term of the Vlasov equation
//! (1) is integrated along `x` with the backward semi-Lagrangian method,
//! batched over the `v` dimension. One step is Algorithm 2:
//!
//! 1. transpose the distribution so the interpolation dimension is
//!    contiguous per batch lane,
//! 2. build splines — the operation the whole paper optimises,
//! 3. transpose back,
//! 4. follow each characteristic one `Δt` backwards and interpolate.
//!
//! [`Advection1D`] implements exactly that, on either the direct
//! (Kokkos-kernels-style) or iterative (Ginkgo-style) spline backend, and
//! reports per-phase timings so the harness can reproduce both the
//! end-to-end GLUPS of Fig. 2 and the `ddc_splines_solve`-region timings
//! of Tables III and V.
//!
//! [`vlasov::VlasovPoisson1D1V`] composes two such advections with a 1-D
//! Poisson solve into the plasma two-stream-instability demo that GYSELA's
//! physics motivates.

#![forbid(unsafe_code)]
// Numerical kernels here deliberately use index loops (matching the
// LAPACK-style algorithms they implement) and NaN-rejecting negated
// comparisons; silence the corresponding style lints crate-wide.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::int_plus_one)]

pub mod error;
pub mod rotation2d;
pub mod semilagrangian;
pub mod vlasov;

pub use error::{Error, Result};
pub use rotation2d::Rotation2D;
pub use semilagrangian::{Advection1D, AdvectionDiagnostics, SplineBackend, StepTimings};
pub use vlasov::VlasovPoisson1D1V;
