//! Per-lane serial kernels: the bodies that run inside a parallel region.
//!
//! These functions are the Rust counterparts of the paper's
//! `KokkosBatched::Serial{Pttrs,Getrs,Gemv}::invoke` internals (Listings 1,
//! 2 and 4). They take strided views, perform **in-place**, strictly
//! sequential work on one batch lane, and never allocate — so a fused
//! builder can call several of them back to back on the same lane while it
//! is hot in cache.

use crate::lane;
use pp_portable::instrument::{PhaseId, Span};
use pp_portable::{Matrix, Strided, StridedMut};

/// In-place solve of `L·D·Lᵀ x = b` for one lane, given the `pttrf`
/// factorisation `(d, e)` of an SPD tridiagonal matrix: the paper's
/// Listing 1 (`SerialPttrsInternal::invoke`), instantiated from the
/// crate's one `pttrs` sweep for a strided lane.
///
/// `d` has length `n`, `e` length `n-1`, and `b` length `n`.
#[inline]
pub fn pttrs_lane(d: &[f64], e: &[f64], b: &mut StridedMut<'_>) {
    debug_assert_eq!(b.len(), d.len());
    lane::pttrs(d, e, b, 0);
}

/// In-place solve of `P·L·U x = b` for one lane, given a dense LU
/// factorisation (`getrf` output: packed LU in `lu`, pivot rows in `ipiv`):
/// `KokkosBatched::SerialGetrs` with `Trans::NoTranspose`, instantiated
/// from the crate's one `getrs` sweep for a strided lane.
#[inline]
pub fn getrs_lane(lu: &Matrix, ipiv: &[usize], b: &mut StridedMut<'_>) {
    debug_assert_eq!(b.len(), lu.nrows());
    lane::getrs(lu, ipiv, b, 0);
}

/// Per-lane dense `y ← α A x + β y`.
///
/// Mirrors `KokkosBatched::SerialGemv` (`Trans::NoTranspose`,
/// `Algo::Gemv::Unblocked`) as used by the paper's fused kernel (Listing 4).
#[inline]
pub fn gemv_lane(alpha: f64, a: &Matrix, x: &Strided<'_>, beta: f64, y: &mut StridedMut<'_>) {
    let _span = Span::enter(PhaseId::CornerGemv);
    let (m, n) = a.shape();
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(y.len(), m);
    for i in 0..m {
        let mut s = 0.0;
        for j in 0..n {
            s += a.get(i, j) * x[j];
        }
        y[i] = alpha * s + beta * y[i];
    }
}

/// Per-lane `y ← y + α x` (axpy) on strided views.
#[inline]
pub fn axpy_lane(alpha: f64, x: &Strided<'_>, y: &mut StridedMut<'_>) {
    debug_assert_eq!(x.len(), y.len());
    for i in 0..x.len() {
        y[i] += alpha * x[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::getrf;
    use crate::naive::{matvec, solve_dense};
    use crate::pt::pttrf;
    use pp_portable::Layout;
    use pp_portable::TestRng;

    #[test]
    fn pttrs_lane_solves_spd_tridiagonal() {
        // A = tridiag(e, d, e), diagonally dominant => SPD.
        let n = 9;
        let d_orig = vec![4.0; n];
        let e_orig = vec![-1.0; n - 1];
        let f = pttrf(&d_orig, &e_orig).unwrap();

        let a = Matrix::from_fn(n, n, Layout::Right, |i, j| {
            if i == j {
                4.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 2.0).collect();
        let expected = solve_dense(&a, &b).unwrap();

        let mut x = b;
        pttrs_lane(f.d(), f.e(), &mut StridedMut::from_slice(&mut x));
        for (u, v) in x.iter().zip(&expected) {
            assert!((u - v).abs() < 1e-12, "{u} vs {v}");
        }
    }

    #[test]
    fn pttrs_lane_with_stride() {
        let d_orig = vec![3.0; 4];
        let e_orig = vec![1.0; 3];
        let f = pttrf(&d_orig, &e_orig).unwrap();

        let mut dense = vec![0.0; 8];
        for (i, v) in [1.0, 2.0, 3.0, 4.0].iter().enumerate() {
            dense[i * 2] = *v;
        }
        pttrs_lane(f.d(), f.e(), &mut StridedMut::new(&mut dense, 4, 2));

        let a = Matrix::from_fn(4, 4, Layout::Right, |i, j| {
            if i == j {
                3.0
            } else if i.abs_diff(j) == 1 {
                1.0
            } else {
                0.0
            }
        });
        let x: Vec<f64> = (0..4).map(|i| dense[i * 2]).collect();
        let r = matvec(&a, &x);
        for (ri, bi) in r.iter().zip([1.0, 2.0, 3.0, 4.0]) {
            assert!((ri - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn getrs_lane_matches_naive_reference() {
        let mut rng = TestRng::seed_from_u64(11);
        for n in [1, 2, 3, 5, 8, 17] {
            // Diagonally dominated random matrix: always nonsingular.
            let a = Matrix::from_fn(n, n, Layout::Right, |i, j| {
                let v: f64 = rng.gen_range(-1.0..1.0);
                if i == j {
                    v + n as f64
                } else {
                    v
                }
            });
            let f = getrf(&a).unwrap();
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let expected = solve_dense(&a, &b).unwrap();
            let mut x = b;
            getrs_lane(f.lu(), f.ipiv(), &mut StridedMut::from_slice(&mut x));
            for (u, v) in x.iter().zip(&expected) {
                assert!((u - v).abs() < 1e-10, "n={n}: {u} vs {v}");
            }
        }
    }

    #[test]
    fn getrs_lane_pivoting_matrix() {
        // Forces a row interchange.
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 0.0]]);
        let f = getrf(&a).unwrap();
        let mut b = vec![4.0, 3.0];
        getrs_lane(f.lu(), f.ipiv(), &mut StridedMut::from_slice(&mut b));
        assert!((b[0] - 3.0).abs() < 1e-14);
        assert!((b[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn gemv_lane_beta_and_alpha() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let x = [1.0, 1.0];
        let mut y = [10.0, 20.0];
        gemv_lane(
            2.0,
            &a,
            &Strided::from_slice(&x),
            0.5,
            &mut StridedMut::from_slice(&mut y),
        );
        // y = 2*A*[1,1] + 0.5*[10,20] = [6+5, 14+10]
        assert_eq!(y, [11.0, 24.0]);
    }

    #[test]
    fn axpy_lane_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [1.0, 1.0, 1.0];
        axpy_lane(
            -1.0,
            &Strided::from_slice(&x),
            &mut StridedMut::from_slice(&mut y),
        );
        assert_eq!(y, [0.0, -1.0, -2.0]);
    }

    #[test]
    fn pttrs_lane_empty_and_single() {
        // n = 0 is a no-op.
        let mut empty: Vec<f64> = vec![];
        pttrs_lane(&[], &[], &mut StridedMut::from_slice(&mut empty));
        // n = 1: x = b / d.
        let f = pttrf(&[2.0], &[]).unwrap();
        let mut b = vec![6.0];
        pttrs_lane(f.d(), f.e(), &mut StridedMut::from_slice(&mut b));
        assert_eq!(b, vec![3.0]);
    }
}
