//! Batched solve drivers over lane-interleaved panels.
//!
//! On an [`InterleavedMatrix`] each row of a chunk is one contiguous
//! 64-byte `[f64; LANE_WIDTH]`, so instantiating the crate's sweeps
//! (see the `lane` module) for a [`Panel`] makes every recurrence step
//! one fixed-width loop — the shape LLVM turns into a single AVX-512 (or
//! two AVX2) vector operations, checked in the phase profile rather than
//! assumed. Each lane performs the operations of the strided-lane
//! instantiation, in the same order, so results are bit-identical per
//! lane; the partial final chunk of a batch runs the same wide body (its
//! padding lanes are never read back).

use crate::banded::BandedLu;
use crate::lane::Panel;
use crate::lu::LuFactors;
use crate::pb::CholeskyBanded;
use crate::pt::PtFactors;
use pp_portable::{ExecSpace, InterleavedMatrix};

/// Run `solve` on every chunk of `b`, chunk-parallel through `exec`.
fn for_each_panel<E: ExecSpace>(
    exec: &E,
    routine: &str,
    n: usize,
    b: &mut InterleavedMatrix,
    solve: impl Fn(&mut Panel<'_>) + Sync + Send,
) {
    assert_eq!(b.nrows(), n, "{routine}_interleaved: rhs rows != order");
    b.for_each_chunk_mut(exec, |_, _, chunk| solve(&mut Panel::new(chunk, n)));
}

/// Batched interleaved `pttrs`: solve every lane of `b` in place,
/// chunk-parallel through `exec`.
///
/// # Panics
/// Panics if `b.nrows() != factors.n()`.
pub fn pttrs_interleaved<E: ExecSpace>(exec: &E, factors: &PtFactors, b: &mut InterleavedMatrix) {
    for_each_panel(exec, "pttrs", factors.n(), b, |p| factors.solve_rows(p, 0));
}

/// Batched interleaved `pbtrs`, chunk-parallel through `exec`.
///
/// # Panics
/// Panics if `b.nrows() != factors.n()`.
pub fn pbtrs_interleaved<E: ExecSpace>(
    exec: &E,
    factors: &CholeskyBanded,
    b: &mut InterleavedMatrix,
) {
    for_each_panel(exec, "pbtrs", factors.n(), b, |p| factors.solve_rows(p, 0));
}

/// Batched interleaved `gbtrs`, chunk-parallel through `exec`.
///
/// # Panics
/// Panics if `b.nrows() != factors.n()`.
pub fn gbtrs_interleaved<E: ExecSpace>(exec: &E, factors: &BandedLu, b: &mut InterleavedMatrix) {
    for_each_panel(exec, "gbtrs", factors.n(), b, |p| factors.solve_rows(p, 0));
}

/// Batched interleaved dense `getrs`, chunk-parallel through `exec`.
///
/// # Panics
/// Panics if `b.nrows() != factors.n()`.
pub fn getrs_interleaved<E: ExecSpace>(exec: &E, factors: &LuFactors, b: &mut InterleavedMatrix) {
    for_each_panel(exec, "getrs", factors.n(), b, |p| factors.solve_rows(p, 0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pt::pttrf;
    use pp_portable::Serial;

    #[test]
    #[should_panic(expected = "rhs rows != order")]
    fn shape_mismatch_rejected() {
        let f = pttrf(&[4.0, 4.0], &[1.0]).unwrap();
        let mut b = InterleavedMatrix::zeros(3, 4);
        pttrs_interleaved(&Serial, &f, &mut b);
    }
}
