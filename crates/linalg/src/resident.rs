//! Batched solve drivers over lane-interleaved panels.
//!
//! On a [`ResidentBatch`] each row of a chunk is one contiguous 64-byte
//! `[f64; LANE_WIDTH]`, so instantiating the crate's sweeps (see the
//! `lane` module) for a [`Panel`] makes every recurrence step one
//! fixed-width loop — the shape LLVM turns into a single AVX-512 (or two
//! AVX2) vector operations, checked in `fig2_glups --isa`'s ns per panel
//! row rather than assumed. Each lane performs the operations of the
//! strided-lane instantiation, in the same order, so results are
//! bit-identical per lane; the partial final chunk of a batch runs the
//! same wide body (its padding lanes are never read back).
//!
//! The batch stays packed across a whole pipeline, so repeated solves
//! pay zero pack/unpack transposes: a caller with a host
//! [`pp_portable::Matrix`] packs once ([`ResidentBatch::pack`]), solves
//! any number of times, and unpacks once.

use crate::banded::BandedLu;
use crate::lane::Panel;
use crate::lu::LuFactors;
use crate::pb::CholeskyBanded;
use crate::pt::PtFactors;
use pp_portable::{ExecSpace, ResidentBatch};

/// Run `solve` on every chunk of `b`, chunk-parallel through `exec`.
fn for_each_panel<E: ExecSpace>(
    exec: &E,
    routine: &str,
    n: usize,
    b: &mut ResidentBatch,
    solve: impl Fn(&mut Panel<'_>) + Sync + Send,
) {
    assert_eq!(b.nrows(), n, "{routine}_resident: rhs rows != order");
    b.for_each_chunk_mut(exec, |_, _, chunk| solve(&mut Panel::new(chunk, n)));
}

/// Batched `pttrs` on resident panels: solve every lane of `b` in place,
/// chunk-parallel through `exec`.
///
/// # Panics
/// Panics if `b.nrows() != factors.n()`.
pub fn pttrs_resident<E: ExecSpace>(exec: &E, factors: &PtFactors, b: &mut ResidentBatch) {
    for_each_panel(exec, "pttrs", factors.n(), b, |p| factors.solve_rows(p, 0));
}

/// Batched `pbtrs` on resident panels, chunk-parallel through `exec`.
///
/// # Panics
/// Panics if `b.nrows() != factors.n()`.
pub fn pbtrs_resident<E: ExecSpace>(exec: &E, factors: &CholeskyBanded, b: &mut ResidentBatch) {
    for_each_panel(exec, "pbtrs", factors.n(), b, |p| factors.solve_rows(p, 0));
}

/// Batched `gbtrs` on resident panels, chunk-parallel through `exec`.
///
/// # Panics
/// Panics if `b.nrows() != factors.n()`.
pub fn gbtrs_resident<E: ExecSpace>(exec: &E, factors: &BandedLu, b: &mut ResidentBatch) {
    for_each_panel(exec, "gbtrs", factors.n(), b, |p| factors.solve_rows(p, 0));
}

/// Batched dense `getrs` on resident panels, chunk-parallel through
/// `exec`.
///
/// # Panics
/// Panics if `b.nrows() != factors.n()`.
pub fn getrs_resident<E: ExecSpace>(exec: &E, factors: &LuFactors, b: &mut ResidentBatch) {
    for_each_panel(exec, "getrs", factors.n(), b, |p| factors.solve_rows(p, 0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banded::{gbtrf, BandedMatrix};
    use crate::lu::getrf;
    use crate::pb::{pbtrf, SymBandedMatrix};
    use crate::pt::pttrf;
    use pp_portable::{Layout, Matrix, Parallel, Serial, TestRng};

    fn random_rhs(n: usize, batch: usize, seed: u64) -> Matrix {
        let mut rng = TestRng::seed_from_u64(seed);
        Matrix::from_fn(n, batch, Layout::Left, |_, _| rng.gen_range(-3.0..3.0))
    }

    fn assert_bits(expected: &Matrix, got: &Matrix, name: &str) {
        assert_eq!(expected.shape(), got.shape());
        for i in 0..expected.nrows() {
            for j in 0..expected.ncols() {
                assert_eq!(
                    expected.get(i, j).to_bits(),
                    got.get(i, j).to_bits(),
                    "{name} ({i},{j})"
                );
            }
        }
    }

    /// Three resident solves in sequence must be bit-identical to three
    /// pack/solve/unpack round trips (pack and unpack are pure copies).
    #[test]
    fn resident_multi_solve_matches_pack_per_solve_all_routines() {
        let n = 24;
        let pt = pttrf(&vec![4.0; n], &vec![-1.0; n - 1]).unwrap();
        let pb =
            pbtrf(&SymBandedMatrix::from_fn(n, 2, |i, j| if i == j { 6.0 } else { -1.0 }).unwrap())
                .unwrap();
        let gb = gbtrf(
            &BandedMatrix::from_fn(n, 1, 2, |i, j| {
                if i == j {
                    4.0
                } else {
                    1.0 + (i + j) as f64 * 0.01
                }
            })
            .unwrap(),
        )
        .unwrap();
        let mut rng = TestRng::seed_from_u64(5);
        let dense = Matrix::from_fn(n, n, Layout::Right, |i, j| {
            if i == j {
                8.0
            } else {
                rng.gen_range(-1.0..1.0)
            }
        });
        let lu = getrf(&dense).unwrap();

        type Apply<'a> = Box<dyn Fn(&mut ResidentBatch) + 'a>;
        let drivers: Vec<(&str, Apply<'_>)> = vec![
            ("pttrs", Box::new(|b| pttrs_resident(&Parallel, &pt, b))),
            ("pbtrs", Box::new(|b| pbtrs_resident(&Parallel, &pb, b))),
            ("gbtrs", Box::new(|b| gbtrs_resident(&Parallel, &gb, b))),
            ("getrs", Box::new(|b| getrs_resident(&Serial, &lu, b))),
        ];
        for batch in [3usize, 8, 13, 16] {
            let rhs = random_rhs(n, batch, 21);
            for (name, solve) in &drivers {
                // Reference: pack/solve/unpack on every call.
                let mut reference = rhs.clone();
                for _ in 0..3 {
                    let mut r = ResidentBatch::pack(&reference);
                    solve(&mut r);
                    r.unpack_into(&mut reference).unwrap();
                }
                // Resident: pack once, solve three times, unpack once.
                let mut r = ResidentBatch::pack(&rhs);
                for _ in 0..3 {
                    solve(&mut r);
                }
                let mut host = Matrix::zeros(n, batch, Layout::Left);
                r.unpack_into(&mut host).unwrap();
                assert_bits(&reference, &host, name);
            }
        }
    }

    #[test]
    #[should_panic(expected = "rhs rows != order")]
    fn shape_mismatch_rejected() {
        let f = pttrf(&[4.0, 4.0], &[1.0]).unwrap();
        let mut b = ResidentBatch::zeros(3, 4);
        pttrs_resident(&Serial, &f, &mut b);
    }
}
