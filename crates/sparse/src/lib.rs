//! # pp-sparse — sparse matrix storage and kernels
//!
//! Two storage formats and the sparse kernels the paper's optimisation
//! story revolves around:
//!
//! * [`Coo`] — COOrdinate-list storage. §IV-D of the paper stores the
//!   spline matrix's corner blocks in COO *"in order to avoid implementing
//!   kernels for both CSR and CSC formats"*; its Listing 5 COO class is
//!   reproduced here, and the builder's Listing 6 `spmv` walks
//!   [`Coo::iter`], one row operation per entry.
//! * [`Csr`] — Compressed Sparse Row, the format the Ginkgo-style iterative
//!   backend (`pp-iterative`) consumes, one lane at a time through
//!   [`Csr::spmv_into`].
//!
//! [`pattern::SparsityPattern`] reproduces the paper's Fig. 1 (the sparsity
//! pattern of the degree-3 uniform spline matrix) and detects bandwidths,
//! which the spline builder uses to classify its sub-matrix `Q` (Table I).

#![forbid(unsafe_code)]
// Numerical kernels here deliberately use index loops (matching the
// LAPACK-style algorithms they implement) and NaN-rejecting negated
// comparisons; silence the corresponding style lints crate-wide.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::int_plus_one)]

pub mod coo;
pub mod csr;
pub mod error;
pub mod pattern;

pub use coo::Coo;
pub use csr::Csr;
pub use error::{Error, Result};
pub use pattern::SparsityPattern;
