//! Batched drivers: map a per-lane solver over every column of a
//! right-hand-side block through an execution space.
//!
//! These are the analogues of the paper's Listing 2 `parallel_for` wrappers
//! around `SerialPttrs` / `SerialGetrs`: parallelism lives **only** in the
//! batch direction, the per-lane work is strictly sequential.

use crate::banded::BandedLu;
use crate::lu::LuFactors;
use crate::pb::CholeskyBanded;
use crate::pt::PtFactors;
use pp_portable::{ExecSpace, Matrix};

/// Batched `pttrs`: solve the factored SPD tridiagonal system against every
/// column of `b` in place.
///
/// # Panics
/// Panics if `b.nrows() != factors.n()`.
pub fn pttrs<E: ExecSpace>(exec: &E, factors: &PtFactors, b: &mut Matrix) {
    assert_eq!(b.nrows(), factors.n(), "pttrs: rhs rows != matrix order");
    exec.for_each_lane_mut(b, |_, mut lane| factors.solve_lane(&mut lane));
}

/// Batched `pbtrs` over every column of `b`.
///
/// # Panics
/// Panics if `b.nrows() != factors.n()`.
pub fn pbtrs<E: ExecSpace>(exec: &E, factors: &CholeskyBanded, b: &mut Matrix) {
    assert_eq!(b.nrows(), factors.n(), "pbtrs: rhs rows != matrix order");
    exec.for_each_lane_mut(b, |_, mut lane| factors.solve_lane(&mut lane));
}

/// Batched `gbtrs` over every column of `b`.
///
/// # Panics
/// Panics if `b.nrows() != factors.n()`.
pub fn gbtrs<E: ExecSpace>(exec: &E, factors: &BandedLu, b: &mut Matrix) {
    assert_eq!(b.nrows(), factors.n(), "gbtrs: rhs rows != matrix order");
    exec.for_each_lane_mut(b, |_, mut lane| factors.solve_lane(&mut lane));
}

/// Batched `getrs` over every column of `b`.
///
/// # Panics
/// Panics if `b.nrows() != factors.n()`.
pub fn getrs<E: ExecSpace>(exec: &E, factors: &LuFactors, b: &mut Matrix) {
    assert_eq!(b.nrows(), factors.n(), "getrs: rhs rows != matrix order");
    exec.for_each_lane_mut(b, |_, mut lane| factors.solve_lane(&mut lane));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banded::{gbtrf, BandedMatrix};
    use crate::naive::{matvec, solve_dense};
    use crate::pb::{pbtrf, SymBandedMatrix};
    use crate::pt::pttrf;
    use pp_portable::TestRng;
    use pp_portable::{Layout, Parallel, Serial};

    fn rhs_block(rng: &mut TestRng, n: usize, batch: usize, layout: Layout) -> Matrix {
        Matrix::from_fn(n, batch, layout, |_, _| rng.gen_range(-2.0..2.0))
    }

    #[test]
    fn batched_pttrs_every_lane_correct_both_layouts_and_spaces() {
        let n = 16;
        let batch = 37;
        let d = vec![5.0; n];
        let e = vec![-1.2; n - 1];
        let f = pttrf(&d, &e).unwrap();
        let dense = Matrix::from_fn(n, n, Layout::Right, |i, j| {
            if i == j {
                5.0
            } else if i.abs_diff(j) == 1 {
                -1.2
            } else {
                0.0
            }
        });
        for layout in [Layout::Left, Layout::Right] {
            let mut rng = TestRng::seed_from_u64(77);
            let b = rhs_block(&mut rng, n, batch, layout);
            let mut x_ser = b.clone();
            let mut x_par = b.clone();
            pttrs(&Serial, &f, &mut x_ser);
            pttrs(&Parallel, &f, &mut x_par);
            assert_eq!(x_ser.max_abs_diff(&x_par), 0.0);
            for j in 0..batch {
                let expected = solve_dense(&dense, &b.col(j).to_vec()).unwrap();
                let got = x_ser.col(j).to_vec();
                for (u, v) in got.iter().zip(&expected) {
                    assert!((u - v).abs() < 1e-11, "lane {j} {layout:?}");
                }
            }
        }
    }

    #[test]
    fn batched_getrs_matches_per_lane_reference() {
        let mut rng = TestRng::seed_from_u64(3);
        let n = 7;
        let a = Matrix::from_fn(n, n, Layout::Right, |i, j| {
            let v: f64 = rng.gen_range(-1.0..1.0);
            if i == j {
                v + 10.0
            } else {
                v
            }
        });
        let f = crate::lu::getrf(&a).unwrap();
        let b = rhs_block(&mut rng, n, 20, Layout::Left);
        let mut x = b.clone();
        getrs(&Parallel, &f, &mut x);
        for j in 0..20 {
            let expected = solve_dense(&a, &b.col(j).to_vec()).unwrap();
            for (u, v) in x.col(j).to_vec().iter().zip(&expected) {
                assert!((u - v).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn batched_banded_solvers_residuals() {
        let mut rng = TestRng::seed_from_u64(9);
        let n = 25;
        let batch = 11;

        let gb = BandedMatrix::from_fn(n, 2, 2, |i, j| {
            if i == j {
                8.0
            } else {
                0.5 / (1.0 + i.abs_diff(j) as f64)
            }
        })
        .unwrap();
        let f_gb = gbtrf(&gb).unwrap();
        let b = rhs_block(&mut rng, n, batch, Layout::Left);
        let mut x = b.clone();
        gbtrs(&Parallel, &f_gb, &mut x);
        let dense = gb.to_dense();
        for j in 0..batch {
            let r = matvec(&dense, &x.col(j).to_vec());
            for (u, v) in r.iter().zip(b.col(j).to_vec()) {
                assert!((u - v).abs() < 1e-10);
            }
        }

        let pb = SymBandedMatrix::from_fn(n, 2, |i, j| if i == j { 8.0 } else { 0.5 }).unwrap();
        let f_pb = pbtrf(&pb).unwrap();
        let mut y = b.clone();
        pbtrs(&Parallel, &f_pb, &mut y);
        let dense_pb = pb.to_dense();
        for j in 0..batch {
            let r = matvec(&dense_pb, &y.col(j).to_vec());
            for (u, v) in r.iter().zip(b.col(j).to_vec()) {
                assert!((u - v).abs() < 1e-10);
            }
        }
    }

    #[test]
    #[should_panic(expected = "rhs rows != matrix order")]
    fn shape_mismatch_panics() {
        let f = pttrf(&[2.0, 2.0], &[0.5]).unwrap();
        let mut b = Matrix::zeros(3, 4, Layout::Left);
        pttrs(&Serial, &f, &mut b);
    }
}
