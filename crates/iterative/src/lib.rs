//! # pp-iterative — Krylov iterative solvers (the Ginkgo substitute)
//!
//! The paper compares its Kokkos-kernels direct spline builder against a
//! [Ginkgo](https://ginkgo-project.github.io)-based iterative one (§II-C.2,
//! §III-B). This crate reproduces the configuration the paper uses:
//!
//! * the two solvers the paper runs — [`BiCgStab`] (on GPUs) and [`Gmres`]
//!   (on CPUs, because of the Ginkgo OpenMP BiCGStab issue #1563);
//! * a **block-Jacobi preconditioner** with tunable `max_block_size`
//!   between 1 and 32 ([`BlockJacobi`]);
//! * the stopping rule `‖A x − b‖ / ‖b‖ < 10⁻¹⁵` ([`StopCriteria`]);
//! * CSR matrix storage (from `pp-sparse`);
//! * the **per-lane body** ([`LaneKrylov`]): one right-hand side solved
//!   where it lies, warm-started from the previous time step's solution.
//!   Every batched solve runs it inside one lane region, the
//!   `pp-splinesolver` iterative backend's, over the whole batch at once:
//!   the paper's Listing 3 pipelines Ginkgo's solves in chunks of 8192 /
//!   65535 right-hand sides only because Ginkgo could not hold the whole
//!   batch, and independent scalar lanes need no chunks.
//!
//! The solver iteration counts this crate produces are the quantity
//! reported in the paper's Table IV.
//!
//! ## Fault handling
//!
//! At the paper's scale (up to 10¹² lanes per advection step) individual
//! right-hand sides *will* go wrong, and one bad lane must never doom its
//! batch. The fault layer is:
//!
//! * [`BreakdownKind`] — the typed taxonomy of why a Krylov solve stopped
//!   short (ρ → 0, ω → 0, NaN/Inf, stagnation, iteration budget), carried
//!   on every [`SolveResult`];
//! * [`LaneOutcome`] — per-lane health of a batched solve:
//!   healthy lanes keep their solutions, broken lanes carry their
//!   diagnosis;
//! * [`FaultInjector`] — deterministic fault injection (NaN/Inf lanes,
//!   near-singular perturbations, iteration starvation) for exercising
//!   the above in tests.

#![forbid(unsafe_code)]
// Non-test code in this crate is free of `unwrap()`; keep it that way
// (failures must surface as typed errors or documented invariants).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod bicgstab;
pub mod breakdown;
pub mod fault;
pub mod gmres;
pub mod logger;
pub mod multirhs;
pub mod precond;
pub mod solver;
pub mod stop;

pub use bicgstab::BiCgStab;
pub use breakdown::BreakdownKind;
pub use fault::{ChaosReport, FaultInjector};
pub use gmres::Gmres;
pub use logger::{ConvergenceLogger, RecoveryEvent, RecoveryStage};
pub use multirhs::{LaneKrylov, LaneOutcome, LaneResults};
pub use precond::{BlockJacobi, Identity, Preconditioner};
pub use solver::{IterativeSolver, SolveResult};
pub use stop::{ResidualVerdict, StopCriteria};
