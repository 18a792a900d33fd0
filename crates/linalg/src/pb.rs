//! Symmetric positive-definite banded matrices and their Cholesky
//! factorisation (`pbtrf`/`pbtrs`).
//!
//! This is the `Q` solver for **uniform splines of degree 4 and 5**
//! (Table I of the paper). Lower-triangle LAPACK `pb` storage: element
//! `A(i, j)` with `j ≤ i ≤ j + kd` lives at `ab[i - j][j]`.

use crate::error::{Error, Result};
use crate::health::{check_finite_input, check_solve_slice, rcond_estimate, FactorHealth};
use crate::lane::{self, LaneRows};
use pp_portable::{run_scalar, StridedMut};

/// A symmetric positive-definite banded matrix (lower storage).
#[derive(Debug, Clone)]
pub struct SymBandedMatrix {
    n: usize,
    kd: usize,
    /// Column-major band storage, `kd + 1` rows by `n` columns.
    ab: Vec<f64>,
}

impl SymBandedMatrix {
    /// An all-zero SPD-banded container of order `n` with `kd`
    /// sub-diagonals.
    pub fn new(n: usize, kd: usize) -> Result<Self> {
        if kd >= n.max(1) {
            return Err(Error::InvalidBandwidth {
                op: "SymBandedMatrix::new",
                n,
                bandwidth: kd,
            });
        }
        Ok(Self {
            n,
            kd,
            ab: vec![0.0; (kd + 1) * n],
        })
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bandwidth (number of sub-diagonals).
    pub fn kd(&self) -> usize {
        self.kd
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(j <= i && i - j <= self.kd);
        (i - j) + j * (self.kd + 1)
    }

    /// Read `A(i, j)` (symmetry applied; outside-band reads zero).
    ///
    /// # Panics
    /// Panics if `i` or `j` is out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.n && j < self.n,
            "SymBandedMatrix::get out of bounds"
        );
        let (r, c) = if i >= j { (i, j) } else { (j, i) };
        if r - c <= self.kd {
            self.ab[self.idx(r, c)]
        } else {
            0.0
        }
    }

    /// Write `A(i, j)` (and by symmetry `A(j, i)`).
    ///
    /// Returns an error when the element lies outside the band and
    /// `v != 0`.
    pub fn set(&mut self, i: usize, j: usize, v: f64) -> Result<()> {
        let (r, c) = if i >= j { (i, j) } else { (j, i) };
        if r >= self.n {
            return Err(Error::ShapeMismatch {
                op: "SymBandedMatrix::set",
                detail: format!("({i}, {j}) out of range for order {}", self.n),
            });
        }
        if r - c > self.kd {
            if v == 0.0 {
                return Ok(());
            }
            return Err(Error::ShapeMismatch {
                op: "SymBandedMatrix::set",
                detail: format!("({i}, {j}) outside bandwidth {}", self.kd),
            });
        }
        let k = self.idx(r, c);
        self.ab[k] = v;
        Ok(())
    }

    /// Build from a generator sampled on the lower band only
    /// (`f(i, j)` with `j ≤ i ≤ j + kd`).
    pub fn from_fn(n: usize, kd: usize, mut f: impl FnMut(usize, usize) -> f64) -> Result<Self> {
        let mut m = Self::new(n, kd)?;
        for j in 0..n {
            for i in j..=(j + kd).min(n.saturating_sub(1)) {
                let k = m.idx(i, j);
                m.ab[k] = f(i, j);
            }
        }
        Ok(m)
    }

    /// Densify (tests / setup).
    pub fn to_dense(&self) -> pp_portable::Matrix {
        pp_portable::Matrix::from_fn(self.n, self.n, pp_portable::Layout::Right, |i, j| {
            self.get(i, j)
        })
    }
}

/// Banded Cholesky factors `A = L·Lᵀ` (lower storage, LAPACK `pbtrf`),
/// with each diagonal slot holding the *reciprocal* `fl(1 / L(j, j))`: the
/// two divides per row that `pbtrs` would spend on every right-hand side
/// are taken once, at factor time (see [`crate::PtFactors`]).
#[derive(Debug, Clone)]
pub struct CholeskyBanded {
    n: usize,
    kd: usize,
    ab: Vec<f64>,
    health: FactorHealth,
}

impl CholeskyBanded {
    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bandwidth.
    pub fn kd(&self) -> usize {
        self.kd
    }

    /// Numerical-health report captured at factorisation time (`pbcon`).
    pub fn health(&self) -> &FactorHealth {
        &self.health
    }

    /// `L(i, j)` for `i > j`; `1 / L(j, j)` on the diagonal.
    #[inline(always)]
    pub(crate) fn l(&self, i: usize, j: usize) -> f64 {
        self.ab[(i - j) + j * (self.kd + 1)]
    }

    /// Solve `A x = b` in place for one lane (`pbtrs`).
    ///
    /// The lane length must equal the matrix order `n`.
    ///
    /// # Panics (debug)
    /// Debug builds assert `b.len() == self.n()`; release builds make the
    /// caller responsible. Use [`CholeskyBanded::try_solve_slice`] for a
    /// checked variant.
    #[inline]
    pub fn solve_lane(&self, b: &mut StridedMut<'_>) {
        debug_assert_eq!(
            b.len(),
            self.n,
            "pbtrs: lane length must equal matrix order"
        );
        run_scalar(
            #[inline(always)]
            || self.solve_rows(b, 0),
        );
    }

    /// Solve in place on rows `row0..row0 + n` of `rows` (`pbtrs`), for
    /// every lane the accessor carries.
    #[inline(always)]
    pub fn solve_rows<R: LaneRows>(&self, rows: &mut R, row0: usize) {
        lane::pbtrs(self, rows, row0);
    }

    /// Solve into a plain slice (setup-time convenience).
    ///
    /// # Panics (debug)
    /// Debug builds assert `b.len() == self.n()` (see
    /// [`CholeskyBanded::solve_lane`]).
    pub fn solve_slice(&self, b: &mut [f64]) {
        self.solve_lane(&mut StridedMut::from_slice(b));
    }

    /// Checked solve: verifies the length contract and rejects non-finite
    /// right-hand sides with a typed error.
    pub fn try_solve_slice(&self, b: &mut [f64]) -> Result<()> {
        check_solve_slice("pbtrs", self.n(), b)?;
        self.solve_slice(b);
        Ok(())
    }
}

/// Cholesky-factor an SPD banded matrix (LAPACK `dpbtf2`, lower,
/// unblocked).
///
/// Returns [`Error::NotPositiveDefinite`] when a leading minor fails.
pub fn pbtrf(a: &SymBandedMatrix) -> Result<CholeskyBanded> {
    let n = a.n();
    let kd = a.kd();
    check_finite_input("pbtrf", a.ab.iter().copied())?;
    // ‖A‖₁ with symmetry: column j collects the stored lower band plus the
    // mirrored super-diagonal entries.
    let mut anorm = 0.0_f64;
    let mut amax = 0.0_f64;
    for j in 0..n {
        let mut col = 0.0;
        let lo = j.saturating_sub(kd);
        let hi = (j + kd).min(n.saturating_sub(1));
        for i in lo..=hi {
            let v = a.get(i, j).abs();
            col += v;
            amax = amax.max(v);
        }
        anorm = anorm.max(col);
    }
    let mut ab = a.ab.clone();
    let ld = kd + 1;
    for j in 0..n {
        let ajj = ab[j * ld];
        if ajj <= 0.0 {
            return Err(Error::NotPositiveDefinite {
                routine: "pbtrf",
                index: j,
                value: ajj,
            });
        }
        let ajj = ajj.sqrt();
        ab[j * ld] = ajj;
        let kn = kd.min(n - 1 - j);
        if kn > 0 {
            for i in 1..=kn {
                ab[i + j * ld] /= ajj;
            }
            // Symmetric rank-1 update of the trailing band (lower part).
            for c in 1..=kn {
                let ljc = ab[c + j * ld];
                if ljc != 0.0 {
                    for r in c..=kn {
                        ab[(r - c) + (j + c) * ld] -= ab[r + j * ld] * ljc;
                    }
                }
            }
        }
    }
    // Growth of the factor entries: max L(i,j)² / max|A|. Stable Cholesky
    // keeps this ≈ 1 (each L entry is bounded by the diagonal it divides).
    let lmax = ab.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
    let pivot_growth = if amax > 0.0 { lmax * lmax / amax } else { 1.0 };
    for ljj in ab.iter_mut().step_by(ld) {
        *ljj = 1.0 / *ljj;
    }
    let mut f = CholeskyBanded {
        n,
        kd,
        ab,
        health: FactorHealth {
            routine: "pbtrf",
            anorm,
            rcond: 1.0,
            pivot_growth,
        },
    };
    // Symmetric: one solve serves both estimator directions.
    let rcond = rcond_estimate(n, anorm, |v| f.solve_slice(v), |v| f.solve_slice(v));
    f.health.rcond = rcond;
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{matvec, relative_residual, solve_dense};
    use pp_portable::TestRng;

    /// A random strictly diagonally dominant symmetric banded matrix
    /// (hence SPD).
    fn random_spd_banded(rng: &mut TestRng, n: usize, kd: usize) -> SymBandedMatrix {
        let mut m = SymBandedMatrix::new(n, kd).unwrap();
        for j in 0..n {
            for i in j + 1..=(j + kd).min(n - 1) {
                m.set(i, j, rng.gen_range(-1.0..1.0)).unwrap();
            }
        }
        for i in 0..n {
            let row_sum: f64 = (0..n).filter(|&j| j != i).map(|j| m.get(i, j).abs()).sum();
            m.set(i, i, row_sum + rng.gen_range(0.5..2.0)).unwrap();
        }
        m
    }

    #[test]
    fn storage_symmetry() {
        let mut m = SymBandedMatrix::new(5, 2).unwrap();
        m.set(3, 1, 4.5).unwrap();
        assert_eq!(m.get(3, 1), 4.5);
        assert_eq!(m.get(1, 3), 4.5); // symmetric read
        m.set(1, 3, -2.0).unwrap(); // symmetric write
        assert_eq!(m.get(3, 1), -2.0);
        assert_eq!(m.get(0, 4), 0.0);
        assert!(m.set(0, 4, 1.0).is_err());
    }

    #[test]
    fn cholesky_reconstructs_matrix() {
        let mut rng = TestRng::seed_from_u64(2);
        let a = random_spd_banded(&mut rng, 8, 2);
        let f = pbtrf(&a).unwrap();
        // Rebuild A(i,j) = sum_k L(i,k) L(j,k) from what is stored (the
        // diagonal as reciprocals) and compare inside the band.
        let l = |i: usize, k: usize| if i == k { 1.0 / f.l(k, k) } else { f.l(i, k) };
        for j in 0..8 {
            for i in j..=(j + 2).min(7) {
                let mut s = 0.0;
                for k in 0..=j {
                    if i - k <= 2 && j - k <= 2 {
                        s += l(i, k) * l(j, k);
                    }
                }
                assert!((s - a.get(i, j)).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn solve_matches_dense_reference() {
        let mut rng = TestRng::seed_from_u64(31);
        for (n, kd) in [(1, 0), (4, 1), (9, 2), (20, 3), (40, 5)] {
            let a = random_spd_banded(&mut rng, n, kd);
            let dense = a.to_dense();
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let expected = solve_dense(&dense, &b).unwrap();
            let f = pbtrf(&a).unwrap();
            let mut x = b.clone();
            f.solve_slice(&mut x);
            for (u, v) in x.iter().zip(&expected) {
                assert!((u - v).abs() < 1e-10, "(n,kd)=({n},{kd})");
            }
            assert!(relative_residual(&dense, &x, &b) < 1e-12);
        }
    }

    #[test]
    fn non_positive_definite_rejected() {
        let mut a = SymBandedMatrix::new(3, 1).unwrap();
        a.set(0, 0, 1.0).unwrap();
        a.set(1, 0, 2.0).unwrap(); // makes the 2x2 leading minor negative
        a.set(1, 1, 1.0).unwrap();
        a.set(2, 2, 1.0).unwrap();
        assert!(matches!(pbtrf(&a), Err(Error::NotPositiveDefinite { .. })));
    }

    #[test]
    fn kd_zero_is_diagonal_solve() {
        let mut a = SymBandedMatrix::new(3, 0).unwrap();
        for i in 0..3 {
            a.set(i, i, (i + 1) as f64).unwrap();
        }
        let f = pbtrf(&a).unwrap();
        let mut x = vec![2.0, 6.0, 12.0];
        f.solve_slice(&mut x);
        for (u, v) in x.iter().zip([2.0, 3.0, 4.0]) {
            assert!((u - v).abs() < 1e-14);
        }
    }

    #[test]
    fn agrees_with_pt_solver_on_tridiagonal() {
        let n = 10;
        let a = SymBandedMatrix::from_fn(n, 1, |i, j| if i == j { 4.0 } else { 1.0 }).unwrap();
        let f_pb = pbtrf(&a).unwrap();
        let f_pt = crate::pt::pttrf(&vec![4.0; n], &vec![1.0; n - 1]).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut x1 = b.clone();
        let mut x2 = b;
        f_pb.solve_slice(&mut x1);
        f_pt.solve_slice(&mut x2);
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-13);
        }
    }

    #[test]
    fn health_reports_and_checked_solves() {
        let mut rng = TestRng::seed_from_u64(12);
        let a = random_spd_banded(&mut rng, 12, 2);
        let f = pbtrf(&a).unwrap();
        let h = f.health();
        assert_eq!(h.routine, "pbtrf");
        assert!(h.rcond > 1e-4, "rcond {}", h.rcond);
        assert!(h.pivot_growth < 3.0, "growth {}", h.pivot_growth);
        assert!(!h.is_suspect());

        let mut short = vec![1.0; 5];
        assert!(matches!(
            f.try_solve_slice(&mut short),
            Err(Error::ShapeMismatch { op: "pbtrs", .. })
        ));
        let mut nan = vec![0.0; 12];
        nan[7] = f64::NAN;
        assert!(matches!(
            f.try_solve_slice(&mut nan),
            Err(Error::NonFinite {
                routine: "pbtrs",
                index: 7,
                ..
            })
        ));

        let mut sick = SymBandedMatrix::new(3, 1).unwrap();
        sick.set(0, 0, f64::NAN).unwrap();
        assert!(matches!(
            pbtrf(&sick),
            Err(Error::NonFinite {
                routine: "pbtrf",
                ..
            })
        ));
    }

    /// Property: pbtrf/pbtrs recovers the true solution for random SPD
    /// banded systems.
    #[test]
    fn prop_spd_banded_solve_recovers() {
        let mut g = TestRng::seed_from_u64(0x5EED_5439);
        for _ in 0..64 {
            let n = g.gen_range(1usize..30);
            let kd = g.gen_range(0usize..5);
            let seed = g.gen_range(0u64..500);
            let kd = kd.min(n - 1);
            let mut rng = TestRng::seed_from_u64(seed);
            let a = random_spd_banded(&mut rng, n, kd);
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let b = matvec(&a.to_dense(), &x_true);
            let f = pbtrf(&a).unwrap();
            let mut x = b;
            f.solve_slice(&mut x);
            for (u, v) in x.iter().zip(&x_true) {
                assert!((u - v).abs() < 1e-8);
            }
        }
    }
}
