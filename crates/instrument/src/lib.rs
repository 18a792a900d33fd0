//! # pp-instrument — warn-once `PP_*` environment parsing
//!
//! The one module left is [`env`](mod@env): the parser every `PP_*`
//! variable goes through, which warns once per variable when a value is
//! malformed or clamped. `pp-portable` re-exports it as
//! `pp_portable::env`; no other crate names this one.
//!
//! The crate keeps its name and its manifest edges (`pp-portable` →
//! `pp-instrument` → `pp-perfmodel`, an edge no code uses) because
//! `benchmark/Cargo.lock`, the frozen benchmark's lock file, records
//! them: a change to either edge makes the benchmark's own `cargo run`
//! rewrite that file. Folding [`env`](mod@env) into `pp-portable` and
//! deleting the crate waits for a change that may refresh the lock.

#![forbid(unsafe_code)]

pub mod env;
