//! `pttrf`: L·D·Lᵀ factorisation of a symmetric positive-definite
//! tridiagonal matrix.
//!
//! This is the `Q` solver for **uniform degree-3 splines** (Table I of the
//! paper) — the fastest row of every benchmark. The factorisation runs once
//! at setup; the solve ([`PtFactors::solve_rows`]) is the paper's
//! Listing 1.

use crate::error::{Error, Result};
use crate::health::{check_finite_input, check_solve_slice, rcond_estimate, FactorHealth};
use crate::lane::{self, LaneRows};
use pp_portable::StridedMut;

/// `L·D·Lᵀ` factors of an SPD tridiagonal matrix.
///
/// LAPACK `dpttrf` packing, except that `d_inv` holds the *reciprocals*
/// `fl(1 / D_i)` of `D`'s diagonal, in `D`'s place: one matrix serves every
/// right-hand side of the batch, so the divide `pttrs` would spend on each
/// row of each of them is taken here, once (the constant-matrix storage of
/// Gloster et al., PAPERS.md). `e` holds the sub-diagonal multipliers of
/// the unit bidiagonal `L`.
#[derive(Debug, Clone)]
pub struct PtFactors {
    d_inv: Vec<f64>,
    e: Vec<f64>,
    health: FactorHealth,
}

impl PtFactors {
    /// Matrix order.
    pub fn n(&self) -> usize {
        self.d_inv.len()
    }

    /// What the solve reads of `D`: the reciprocals `fl(1 / D_i)` of its
    /// diagonal (see [`PtFactors`]), not the diagonal.
    pub fn d(&self) -> &[f64] {
        &self.d_inv
    }

    /// Sub-diagonal multipliers of `L`.
    pub fn e(&self) -> &[f64] {
        &self.e
    }

    /// Numerical-health report captured at factorisation time (`ptcon`).
    pub fn health(&self) -> &FactorHealth {
        &self.health
    }

    /// Solve `A x = b` in place for one lane (`pttrs`).
    ///
    /// The lane length must equal the matrix order `n`.
    ///
    /// # Panics (debug)
    /// Debug builds assert `b.len() == self.n()`; release builds make the
    /// caller responsible. Use [`PtFactors::try_solve_slice`] for a checked
    /// variant.
    #[inline]
    pub fn solve_lane(&self, b: &mut StridedMut<'_>) {
        debug_assert_eq!(
            b.len(),
            self.n(),
            "pttrs: lane length must equal matrix order"
        );
        self.solve_rows(b, 0);
    }

    /// Solve in place on rows `row0..row0 + n` of `rows` (`pttrs`), for
    /// every lane the accessor carries: one strided lane or one
    /// interleaved panel, same sweep.
    #[inline(always)]
    pub fn solve_rows<R: LaneRows>(&self, rows: &mut R, row0: usize) {
        lane::pttrs(&self.d_inv, &self.e, rows, row0);
    }

    /// Solve into a plain slice (setup-time convenience).
    ///
    /// # Panics (debug)
    /// Debug builds assert `b.len() == self.n()` (see
    /// [`PtFactors::solve_lane`]).
    pub fn solve_slice(&self, b: &mut [f64]) {
        self.solve_lane(&mut StridedMut::from_slice(b));
    }

    /// Checked solve: verifies the length contract and rejects non-finite
    /// right-hand sides with a typed error.
    pub fn try_solve_slice(&self, b: &mut [f64]) -> Result<()> {
        check_solve_slice("pttrs", self.n(), b)?;
        self.solve_slice(b);
        Ok(())
    }
}

/// Factor an SPD tridiagonal matrix given its diagonal `d` (length `n`) and
/// off-diagonal `e` (length `n-1`), following LAPACK `dpttrf`.
///
/// Returns [`Error::NotPositiveDefinite`] if a transformed diagonal entry
/// is not strictly positive.
pub fn pttrf(d: &[f64], e: &[f64]) -> Result<PtFactors> {
    let n = d.len();
    if n > 0 && e.len() != n - 1 {
        return Err(Error::ShapeMismatch {
            op: "pttrf",
            detail: format!(
                "d has length {n}, e has length {} (need {})",
                e.len(),
                n - 1
            ),
        });
    }
    check_finite_input("pttrf", d.iter().chain(e.iter()).copied())?;
    // ‖A‖₁ of the tridiagonal matrix: column j sums |e_{j-1}| + |d_j| + |e_j|.
    let mut anorm = 0.0_f64;
    let mut amax = 0.0_f64;
    for j in 0..n {
        let left = if j > 0 { e[j - 1].abs() } else { 0.0 };
        let right = if j + 1 < n { e[j].abs() } else { 0.0 };
        anorm = anorm.max(left + d[j].abs() + right);
        amax = amax.max(d[j].abs()).max(left).max(right);
    }

    let mut dd = d.to_vec();
    let mut ee = e.to_vec();
    for i in 0..n.saturating_sub(1) {
        if dd[i] <= 0.0 {
            return Err(Error::NotPositiveDefinite {
                routine: "pttrf",
                index: i,
                value: dd[i],
            });
        }
        let ei = ee[i];
        ee[i] = ei / dd[i];
        dd[i + 1] -= ee[i] * ei;
    }
    if n > 0 && dd[n - 1] <= 0.0 {
        return Err(Error::NotPositiveDefinite {
            routine: "pttrf",
            index: n - 1,
            value: dd[n - 1],
        });
    }
    // Unpivoted growth: max |D| of the factor against max |A|. SPD
    // elimination can only shrink the diagonal, so this stays ≤ 1 for a
    // stable factorisation and collapses towards 0 near indefiniteness.
    let dmax = dd.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
    let pivot_growth = if amax > 0.0 { dmax / amax } else { 1.0 };
    let mut f = PtFactors {
        d_inv: dd.iter().map(|d| 1.0 / d).collect(),
        e: ee,
        health: FactorHealth {
            routine: "pttrf",
            anorm,
            rcond: 1.0,
            pivot_growth,
        },
    };
    // Symmetric: A = Aᵀ, one solve serves both estimator directions.
    let rcond = rcond_estimate(n, anorm, |v| f.solve_slice(v), |v| f.solve_slice(v));
    f.health.rcond = rcond;
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{relative_residual, solve_dense};
    use pp_portable::TestRng;
    use pp_portable::{Layout, Matrix};

    fn tridiag(d: &[f64], e: &[f64]) -> Matrix {
        let n = d.len();
        Matrix::from_fn(n, n, Layout::Right, |i, j| {
            if i == j {
                d[i]
            } else if i.abs_diff(j) == 1 {
                e[i.min(j)]
            } else {
                0.0
            }
        })
    }

    #[test]
    fn factorisation_reconstructs_matrix() {
        // A = L D L^T must reproduce (d, e), from what is stored: the
        // multipliers and the reciprocals of D.
        let d = vec![4.0, 5.0, 6.0, 7.0];
        let e = vec![1.0, -1.5, 2.0];
        let f = pttrf(&d, &e).unwrap();
        let dd: Vec<f64> = f.d().iter().map(|inv| 1.0 / inv).collect();
        // Rebuild: diag_i = D_i + l_{i-1}^2 D_{i-1}; off_i = l_i * D_i.
        let n = d.len();
        for i in 0..n {
            let rebuilt = dd[i]
                + if i > 0 {
                    f.e()[i - 1] * f.e()[i - 1] * dd[i - 1]
                } else {
                    0.0
                };
            assert!((rebuilt - d[i]).abs() < 1e-14);
        }
        for i in 0..n - 1 {
            assert!((f.e()[i] * dd[i] - e[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn solve_matches_dense_reference() {
        let mut rng = TestRng::seed_from_u64(17);
        for n in [1usize, 2, 3, 10, 50] {
            let d: Vec<f64> = (0..n).map(|_| rng.gen_range(3.0..5.0)).collect();
            let e: Vec<f64> = (0..n.saturating_sub(1))
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let a = tridiag(&d, &e);
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let expected = solve_dense(&a, &b).unwrap();
            let f = pttrf(&d, &e).unwrap();
            let mut x = b;
            f.solve_slice(&mut x);
            for (u, v) in x.iter().zip(&expected) {
                assert!((u - v).abs() < 1e-11, "n = {n}");
            }
        }
    }

    #[test]
    fn solve_lane_with_stride() {
        let f = pttrf(&[3.0; 4], &[1.0; 3]).unwrap();
        let mut dense = vec![0.0; 8];
        for (i, v) in [1.0, 2.0, 3.0, 4.0].iter().enumerate() {
            dense[i * 2] = *v;
        }
        f.solve_lane(&mut StridedMut::new(&mut dense, 4, 2));
        let x: Vec<f64> = (0..4).map(|i| dense[i * 2]).collect();
        let r = crate::naive::matvec(&tridiag(&[3.0; 4], &[1.0; 3]), &x);
        for (ri, bi) in r.iter().zip([1.0, 2.0, 3.0, 4.0]) {
            assert!((ri - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_non_positive_definite() {
        // Diagonal entry that goes non-positive after elimination.
        assert!(matches!(
            pttrf(&[1.0, 0.5], &[1.0]),
            Err(Error::NotPositiveDefinite { .. })
        ));
        assert!(matches!(
            pttrf(&[-1.0, 2.0], &[0.1]),
            Err(Error::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(matches!(
            pttrf(&[1.0, 2.0], &[]),
            Err(Error::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn empty_and_single() {
        // n = 0 is a no-op.
        let f = pttrf(&[], &[]).unwrap();
        assert_eq!(f.n(), 0);
        f.solve_slice(&mut []);
        // n = 1: x = b / d.
        let f = pttrf(&[2.0], &[]).unwrap();
        let mut b = vec![6.0];
        f.solve_slice(&mut b);
        assert_eq!(b, vec![3.0]);
    }

    #[test]
    fn health_tracks_conditioning() {
        // Well-conditioned diagonally dominant system.
        let good = pttrf(&[4.0, 4.0, 4.0, 4.0], &[1.0, 1.0, 1.0]).unwrap();
        assert!(good.health().rcond > 1e-3);
        assert!(good.health().pivot_growth <= 1.0 + 1e-12);
        assert!(!good.health().is_suspect());
        assert_eq!(good.health().routine, "pttrf");
        // Nearly indefinite: d barely above |e|² threshold.
        let sick = pttrf(&[1.0, 1.0 + 1e-13], &[1.0]).unwrap();
        assert!(
            sick.health().is_ill_conditioned(),
            "rcond {}",
            sick.health().rcond
        );
    }

    #[test]
    fn try_solve_slice_and_non_finite_inputs() {
        let f = pttrf(&[4.0, 4.0], &[1.0]).unwrap();
        let mut short = vec![1.0];
        assert!(matches!(
            f.try_solve_slice(&mut short),
            Err(Error::ShapeMismatch { op: "pttrs", .. })
        ));
        let mut nan = vec![f64::NAN, 0.0];
        assert!(matches!(
            f.try_solve_slice(&mut nan),
            Err(Error::NonFinite {
                routine: "pttrs",
                index: 0,
                ..
            })
        ));
        assert!(matches!(
            pttrf(&[1.0, f64::INFINITY], &[0.0]),
            Err(Error::NonFinite {
                routine: "pttrf",
                ..
            })
        ));
    }

    /// Property: for random diagonally-dominant SPD tridiagonal
    /// matrices, solve(A, A·x) recovers x.
    #[test]
    fn prop_solve_recovers_solution() {
        let mut g = TestRng::seed_from_u64(0x5EED_3F2D);
        for _ in 0..64 {
            let n = g.gen_range(1usize..40);
            let seed = g.gen_range(0u64..1000);
            let mut rng = TestRng::seed_from_u64(seed);
            let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
            // Strict diagonal dominance guarantees SPD here.
            let d: Vec<f64> = (0..n)
                .map(|i| {
                    let left = if i > 0 { e[i - 1].abs() } else { 0.0 };
                    let right = if i < n - 1 { e[i].abs() } else { 0.0 };
                    left + right + rng.gen_range(0.5..2.0)
                })
                .collect();
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let a = tridiag(&d, &e);
            let b = crate::naive::matvec(&a, &x_true);
            let f = pttrf(&d, &e).unwrap();
            let mut x = b.clone();
            f.solve_slice(&mut x);
            assert!(relative_residual(&a, &x, &b) < 1e-10);
            for (u, v) in x.iter().zip(&x_true) {
                assert!((u - v).abs() < 1e-8);
            }
        }
    }
}
