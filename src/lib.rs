//! # batched-splines
//!
//! A performance-portable **batched spline solver** for semi-Lagrangian
//! plasma turbulence simulation — a from-scratch Rust reproduction of
//! *"Development of performance portable spline solver for exa-scale
//! plasma turbulence simulation"* (Asahi et al., SC 2024).
//!
//! The problem: build spline interpolation coefficients by solving **one
//! fixed small matrix against an enormous batch of right-hand sides**
//! (`A · X = B`, `A` of order ~10³, batch 10⁵–10¹²), every time step of a
//! gyrokinetic Vlasov code. The solution: a Schur-complement block
//! decomposition whose interior is handled by batched-serial specialised
//! solvers (`pttrs`/`pbtrs`/`gbtrs`), fused into a single per-lane kernel
//! with sparse corner corrections.
//!
//! This crate re-exports the whole workspace behind one name:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`portable`] | `pp-portable` | views, layouts, execution spaces |
//! | [`linalg`] | `pp-linalg` | batched serial `getrf/s`, `gbtrf/s`, `pbtrf/s`, `pttrf/s`, the corner `gemv` / `spmv` row operations |
//! | [`sparse`] | `pp-sparse` | COO / CSR, `spmv`, sparsity patterns |
//! | [`iterative`] | `pp-iterative` | BiCGStab, GMRES, block-Jacobi, the per-lane multi-RHS body |
//! | [`bsplines`] | `pp-bsplines` | periodic and clamped B-spline spaces, Greville points, matrix assembly |
//! | [`splinesolver`] | `pp-splinesolver` | **the paper's contribution**: the three-version batched spline builder |
//! | [`advection`] | `pp-advection` | semi-Lagrangian advection benchmark + Vlasov–Poisson demo |
//! | [`perfmodel`] | `pp-perfmodel` | Table II devices, roofline, Pennycook metric, cache simulator |
//!
//! ## Quickstart
//!
//! ```
//! use batched_splines::prelude::*;
//!
//! // A periodic cubic spline space on 64 uniform cells.
//! let space = PeriodicSplineSpace::new(Breaks::uniform(64, 0.0, 1.0).unwrap(), 3).unwrap();
//!
//! // The production builder: fused kernel + sparse corners (fastest in
//! // the paper's Table III).
//! let builder = SplineBuilder::new(space.clone(), BuilderVersion::FusedSpmv).unwrap();
//!
//! // 1000 right-hand sides: values at the interpolation points.
//! let pts = space.interpolation_points();
//! let mut b = Matrix::from_fn(64, 1000, Layout::Left, |i, j| {
//!     ((1.0 + j as f64 * 1e-3) * std::f64::consts::TAU * pts[i]).sin()
//! });
//! builder.solve_in_place(&Parallel, &mut b).unwrap();
//!
//! // Columns of `b` are now spline coefficients.
//! let lane0: Vec<f64> = b.col(0).to_vec();
//! assert!((space.eval(&lane0, 0.375) - (std::f64::consts::TAU * 0.375_f64).sin()).abs() < 1e-4);
//! ```

#![forbid(unsafe_code)]

pub use pp_advection as advection;
pub use pp_bsplines as bsplines;
pub use pp_iterative as iterative;
pub use pp_linalg as linalg;
pub use pp_perfmodel as perfmodel;
pub use pp_portable as portable;
pub use pp_sparse as sparse;
pub use pp_splinesolver as splinesolver;

/// The names almost every user needs, in one import.
pub mod prelude {
    pub use pp_advection::{Advection1D, AdvectionDiagnostics, SplineBackend, VlasovPoisson1D1V};
    pub use pp_bsplines::{Breaks, PeriodicSplineSpace, SplineSpace};
    pub use pp_iterative::{BreakdownKind, FaultInjector, LaneOutcome, StopCriteria};
    pub use pp_linalg::FactorHealth;
    pub use pp_perfmodel::{glups, Device};
    pub use pp_portable::{ExecSpace, Layout, Matrix, Parallel, ResidentBatch, Serial, LANE_WIDTH};
    pub use pp_splinesolver::{
        BuilderVersion, FallbackRung, IterativeConfig, IterativeSplineSolver, KrylovKind,
        LaneReport, LaneVerdict, QuarantineReason, RecoveryPolicy, SplineBuilder, SplineEvaluator,
        VerifiedBuilder, VerifyConfig,
    };
}
