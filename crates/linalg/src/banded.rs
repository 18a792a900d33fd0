//! General banded matrices and their LU factorisation (`gbtrf`/`gbtrs`).
//!
//! This is the `Q` solver for **non-uniform splines of every degree**
//! (Table I of the paper): non-uniform knots break the symmetry that makes
//! the uniform matrices positive-definite, leaving a general banded system.
//!
//! Storage follows the LAPACK band convention: element `A(i, j)` of an
//! `n×n` matrix with `kl` sub- and `ku` super-diagonals lives at
//! `ab[ku + i - j][j]`. Factorisation with partial pivoting grows the upper
//! bandwidth to `kl + ku`, so [`BandedLu`] carries `2·kl + ku + 1` rows.

use crate::error::{Error, Result};
use crate::health::{check_finite_input, check_solve_slice, rcond_estimate, FactorHealth};
use crate::lane::{self, LaneRows};
use pp_portable::StridedMut;

/// A general banded matrix in LAPACK `gb` storage.
#[derive(Debug, Clone)]
pub struct BandedMatrix {
    n: usize,
    kl: usize,
    ku: usize,
    /// Column-major band storage, `ldab = kl + ku + 1` rows by `n` columns.
    ab: Vec<f64>,
}

impl BandedMatrix {
    /// An all-zero banded matrix of order `n` with `kl` sub-diagonals and
    /// `ku` super-diagonals.
    pub fn new(n: usize, kl: usize, ku: usize) -> Result<Self> {
        if kl >= n.max(1) || ku >= n.max(1) {
            return Err(Error::InvalidBandwidth {
                op: "BandedMatrix::new",
                n,
                bandwidth: kl.max(ku),
            });
        }
        Ok(Self {
            n,
            kl,
            ku,
            ab: vec![0.0; (kl + ku + 1) * n],
        })
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of sub-diagonals.
    pub fn kl(&self) -> usize {
        self.kl
    }

    /// Number of super-diagonals.
    pub fn ku(&self) -> usize {
        self.ku
    }

    /// `true` when `(i, j)` falls inside the band.
    #[inline]
    pub fn in_band(&self, i: usize, j: usize) -> bool {
        i < self.n && j < self.n && i + self.ku >= j && j + self.kl >= i
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(self.in_band(i, j));
        (self.ku + i - j) + j * (self.kl + self.ku + 1)
    }

    /// Read `A(i, j)`; elements outside the band read as zero.
    ///
    /// # Panics
    /// Panics if `i` or `j` is out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "BandedMatrix::get out of bounds");
        if self.in_band(i, j) {
            self.ab[self.idx(i, j)]
        } else {
            0.0
        }
    }

    /// Write `A(i, j)`.
    ///
    /// Returns an error when `(i, j)` lies outside the band and `v != 0`.
    pub fn set(&mut self, i: usize, j: usize, v: f64) -> Result<()> {
        if !self.in_band(i, j) {
            if v == 0.0 {
                return Ok(());
            }
            return Err(Error::ShapeMismatch {
                op: "BandedMatrix::set",
                detail: format!(
                    "({i}, {j}) outside band kl={}, ku={} of order {}",
                    self.kl, self.ku, self.n
                ),
            });
        }
        let k = self.idx(i, j);
        self.ab[k] = v;
        Ok(())
    }

    /// Build from a dense generator `f(i, j)` sampled inside the band only.
    pub fn from_fn(
        n: usize,
        kl: usize,
        ku: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Result<Self> {
        let mut m = Self::new(n, kl, ku)?;
        for j in 0..n {
            let lo = j.saturating_sub(ku);
            let hi = (j + kl).min(n - 1);
            for i in lo..=hi {
                let k = m.idx(i, j);
                m.ab[k] = f(i, j);
            }
        }
        Ok(m)
    }

    /// Densify (for tests and small setup-time work).
    pub fn to_dense(&self) -> pp_portable::Matrix {
        pp_portable::Matrix::from_fn(self.n, self.n, pp_portable::Layout::Right, |i, j| {
            self.get(i, j)
        })
    }
}

/// LU factors of a banded matrix, with partial pivoting
/// (`P·A = L·U`, LAPACK `gbtrf` packing: `ldab = 2·kl + ku + 1`), with each
/// diagonal slot holding the *reciprocal* `fl(1 / U(j, j))` of the pivot:
/// the divide per row that `gbtrs` would spend on every right-hand side is
/// taken once, at factor time (see [`crate::PtFactors`]).
#[derive(Debug, Clone)]
pub struct BandedLu {
    n: usize,
    kl: usize,
    ku: usize,
    /// Expanded band storage: `A(i, j)` at `ab[kl + ku + i - j][j]`.
    ab: Vec<f64>,
    ipiv: Vec<usize>,
    health: FactorHealth,
}

impl BandedLu {
    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Numerical-health report captured at factorisation time (`gbcon`).
    pub fn health(&self) -> &FactorHealth {
        &self.health
    }

    /// Effective upper bandwidth of `U` (`kl + ku` after pivoting).
    pub fn upper_bandwidth(&self) -> usize {
        self.kl + self.ku
    }

    #[inline]
    fn ldab(&self) -> usize {
        2 * self.kl + self.ku + 1
    }

    /// `L(i, j)` below the diagonal, `U(i, j)` above it, `1 / U(j, j)` on it.
    #[inline(always)]
    pub(crate) fn factor(&self, i: usize, j: usize) -> f64 {
        self.ab[(self.kl + self.ku + i - j) + j * self.ldab()]
    }

    #[inline(always)]
    pub(crate) fn kl_internal(&self) -> usize {
        self.kl
    }

    #[inline(always)]
    pub(crate) fn pivots(&self) -> &[usize] {
        &self.ipiv
    }

    /// Solve `A x = b` in place for one lane (`gbtrs`, no transpose).
    ///
    /// The lane length must equal the matrix order `n`.
    ///
    /// # Panics (debug)
    /// Debug builds assert `b.len() == self.n()`; release builds make the
    /// caller responsible. Use [`BandedLu::try_solve_slice`] for a checked
    /// variant.
    #[inline]
    pub fn solve_lane(&self, b: &mut StridedMut<'_>) {
        debug_assert_eq!(
            b.len(),
            self.n,
            "gbtrs: lane length must equal matrix order"
        );
        self.solve_rows(b, 0);
    }

    /// Solve in place on rows `row0..row0 + n` of `rows` (`gbtrs`, no
    /// transpose), for every lane the accessor carries.
    #[inline(always)]
    pub fn solve_rows<R: LaneRows>(&self, rows: &mut R, row0: usize) {
        lane::gbtrs(self, rows, row0);
    }

    /// Solve into a plain slice (setup-time convenience).
    ///
    /// # Panics (debug)
    /// Debug builds assert `b.len() == self.n()` (see
    /// [`BandedLu::solve_lane`]).
    pub fn solve_slice(&self, b: &mut [f64]) {
        self.solve_lane(&mut StridedMut::from_slice(b));
    }

    /// Checked solve: verifies the length contract and rejects non-finite
    /// right-hand sides with a typed error.
    pub fn try_solve_slice(&self, b: &mut [f64]) -> Result<()> {
        check_solve_slice("gbtrs", self.n(), b)?;
        self.solve_slice(b);
        Ok(())
    }

    /// Solve `Aᵀ x = b` in place (LAPACK `gbtrs` with `trans = 'T'`):
    /// solve `Uᵀ w = b` forward, `Lᵀ v = w` backward, then apply the row
    /// interchanges in reverse. Used by the condition estimator.
    pub fn solve_transposed_slice(&self, b: &mut [f64]) {
        let n = self.n;
        debug_assert_eq!(b.len(), n, "gbtrs^T: lane length must equal matrix order");
        let kl = self.kl;
        let kv = self.kl + self.ku;
        // Uᵀ (lower triangular, bandwidth kv): forward substitution.
        for j in 0..n {
            let mut s = b[j];
            let lo = j.saturating_sub(kv);
            for i in lo..j {
                s -= self.factor(i, j) * b[i];
            }
            b[j] = s * self.factor(j, j);
        }
        // Lᵀ (unit upper triangular, bandwidth kl) with the interchanges
        // replayed in reverse, exactly undoing the forward sweep of
        // `solve_lane`.
        for j in (0..n.saturating_sub(1)).rev() {
            let hi = (j + kl).min(n - 1);
            let mut s = b[j];
            for i in j + 1..=hi {
                s -= self.factor(i, j) * b[i];
            }
            b[j] = s;
            let p = self.ipiv[j];
            if p != j {
                b.swap(j, p);
            }
        }
    }
}

/// Factor a general banded matrix with partial pivoting (LAPACK `dgbtf2`,
/// unblocked).
pub fn gbtrf(a: &BandedMatrix) -> Result<BandedLu> {
    let n = a.n();
    let (kl, ku) = (a.kl(), a.ku());
    check_finite_input("gbtrf", a.ab.iter().copied())?;
    let kv = kl + ku;
    let ldab = 2 * kl + ku + 1;
    let mut ab = vec![0.0; ldab * n];
    // Copy the original band into the expanded storage; capture ‖A‖₁ and
    // max|A| for the health report on the way through.
    let mut anorm = 0.0_f64;
    let mut amax = 0.0_f64;
    for j in 0..n {
        let lo = j.saturating_sub(ku);
        let hi = (j + kl).min(n.saturating_sub(1));
        let mut col = 0.0;
        for i in lo..=hi {
            let v = a.get(i, j);
            ab[(kl + ku + i - j) + j * ldab] = v;
            col += v.abs();
            amax = amax.max(v.abs());
        }
        anorm = anorm.max(col);
    }
    let mut ipiv = vec![0usize; n];
    let at = |ab: &Vec<f64>, i: usize, j: usize| ab[(kl + ku + i - j) + j * ldab];

    for j in 0..n {
        let km = kl.min(n.saturating_sub(1).saturating_sub(j));
        // Pivot search in A(j..=j+km, j).
        let mut jp = 0usize;
        let mut best = at(&ab, j, j).abs();
        for p in 1..=km {
            let v = at(&ab, j + p, j).abs();
            if v > best {
                best = v;
                jp = p;
            }
        }
        if best < f64::MIN_POSITIVE {
            return Err(Error::Singular {
                routine: "gbtrf",
                index: j,
            });
        }
        ipiv[j] = j + jp;
        if jp != 0 {
            // Swap rows j and j+jp across columns j..=min(j+kv, n-1).
            let q_hi = (j + kv).min(n - 1);
            for q in j..=q_hi {
                let i1 = (kl + ku + j - q) + q * ldab;
                let i2 = (kl + ku + j + jp - q) + q * ldab;
                ab.swap(i1, i2);
            }
        }
        if km > 0 {
            let pivot = at(&ab, j, j);
            // Multipliers.
            for p in 1..=km {
                ab[(kl + ku + p) + j * ldab] /= pivot;
            }
            // Rank-1 update of the trailing band.
            let q_hi = (j + kv).min(n - 1);
            for q in j + 1..=q_hi {
                let ajq = at(&ab, j, q);
                if ajq != 0.0 {
                    for p in 1..=km {
                        ab[(kl + ku + j + p - q) + q * ldab] -= ab[(kl + ku + p) + j * ldab] * ajq;
                    }
                }
            }
        }
    }
    // Classical pivot growth max|U| / max|A| over the (expanded) upper
    // band of the factors.
    let mut umax = 0.0_f64;
    for j in 0..n {
        let lo = j.saturating_sub(kv);
        for i in lo..=j {
            umax = umax.max(ab[(kl + ku + i - j) + j * ldab].abs());
        }
    }
    let pivot_growth = if amax > 0.0 { umax / amax } else { 1.0 };
    for pivot in ab.iter_mut().skip(kv).step_by(ldab) {
        *pivot = 1.0 / *pivot;
    }

    let mut f = BandedLu {
        n,
        kl,
        ku,
        ab,
        ipiv,
        health: FactorHealth {
            routine: "gbtrf",
            anorm,
            rcond: 1.0,
            pivot_growth,
        },
    };
    let rcond = rcond_estimate(
        n,
        anorm,
        |v| f.solve_slice(v),
        |v| f.solve_transposed_slice(v),
    );
    f.health.rcond = rcond;
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{matvec, relative_residual, solve_dense};
    use pp_portable::TestRng;

    fn random_banded(rng: &mut TestRng, n: usize, kl: usize, ku: usize) -> BandedMatrix {
        BandedMatrix::from_fn(n, kl, ku, |i, j| {
            let v: f64 = rng.gen_range(-1.0..1.0);
            if i == j {
                v + 3.0 * (kl + ku + 1) as f64
            } else {
                v
            }
        })
        .unwrap()
    }

    #[test]
    fn storage_round_trip() {
        let mut m = BandedMatrix::new(6, 2, 1).unwrap();
        m.set(3, 2, 7.0).unwrap();
        m.set(0, 1, -2.0).unwrap();
        assert_eq!(m.get(3, 2), 7.0);
        assert_eq!(m.get(0, 1), -2.0);
        assert_eq!(m.get(0, 5), 0.0); // outside band reads zero
        assert!(m.set(0, 5, 1.0).is_err()); // cannot write outside band
        assert!(m.set(0, 5, 0.0).is_ok()); // zero write is a no-op
    }

    #[test]
    fn invalid_bandwidth_rejected() {
        assert!(BandedMatrix::new(3, 3, 0).is_err());
        assert!(BandedMatrix::new(3, 0, 3).is_err());
        assert!(BandedMatrix::new(3, 2, 2).is_ok());
    }

    #[test]
    fn to_dense_matches_get() {
        let mut rng = TestRng::seed_from_u64(1);
        let m = random_banded(&mut rng, 7, 2, 3);
        let d = m.to_dense();
        for i in 0..7 {
            for j in 0..7 {
                assert_eq!(d.get(i, j), m.get(i, j));
            }
        }
    }

    #[test]
    fn factor_solve_matches_dense_reference() {
        let mut rng = TestRng::seed_from_u64(23);
        for (n, kl, ku) in [(1, 0, 0), (5, 1, 1), (9, 2, 3), (20, 3, 2), (50, 4, 4)] {
            let a = random_banded(&mut rng, n, kl, ku);
            let dense = a.to_dense();
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let expected = solve_dense(&dense, &b).unwrap();
            let f = gbtrf(&a).unwrap();
            let mut x = b.clone();
            f.solve_slice(&mut x);
            for (u, v) in x.iter().zip(&expected) {
                assert!((u - v).abs() < 1e-10, "(n,kl,ku)=({n},{kl},{ku})");
            }
            assert!(relative_residual(&dense, &x, &b) < 1e-12);
        }
    }

    #[test]
    fn pivoting_is_exercised() {
        // Small diagonal forces interchanges.
        let mut a = BandedMatrix::new(4, 1, 1).unwrap();
        let entries = [
            (0, 0, 1e-12),
            (0, 1, 2.0),
            (1, 0, 3.0),
            (1, 1, 1.0),
            (1, 2, 1.0),
            (2, 1, 2.0),
            (2, 2, 1e-12),
            (2, 3, 4.0),
            (3, 2, 1.0),
            (3, 3, 2.0),
        ];
        for (i, j, v) in entries {
            a.set(i, j, v).unwrap();
        }
        let dense = a.to_dense();
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let f = gbtrf(&a).unwrap();
        let mut x = b.clone();
        f.solve_slice(&mut x);
        assert!(relative_residual(&dense, &x, &b) < 1e-9);
    }

    #[test]
    fn singular_banded_rejected() {
        let mut a = BandedMatrix::new(3, 1, 1).unwrap();
        // Column 1 entirely zero.
        a.set(0, 0, 1.0).unwrap();
        a.set(2, 2, 1.0).unwrap();
        a.set(1, 0, 0.0).unwrap();
        assert!(matches!(gbtrf(&a), Err(Error::Singular { .. })));
    }

    #[test]
    fn tridiagonal_special_case_matches_pt_solver() {
        // A general banded solve of an SPD tridiagonal system must agree
        // with the dedicated pttrf/pttrs path.
        let n = 12;
        let d = vec![4.0; n];
        let e = vec![-1.0; n - 1];
        let a = BandedMatrix::from_fn(n, 1, 1, |i, j| if i == j { 4.0 } else { -1.0 }).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();

        let f_gb = gbtrf(&a).unwrap();
        let mut x_gb = b.clone();
        f_gb.solve_slice(&mut x_gb);

        let f_pt = crate::pt::pttrf(&d, &e).unwrap();
        let mut x_pt = b.clone();
        f_pt.solve_slice(&mut x_pt);

        for (u, v) in x_gb.iter().zip(&x_pt) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_solve_matches_dense_reference() {
        let mut rng = TestRng::seed_from_u64(88);
        for (n, kl, ku) in [(1usize, 0usize, 0usize), (6, 1, 2), (14, 3, 1), (25, 2, 2)] {
            let a = random_banded(&mut rng, n, kl, ku);
            let dense = a.to_dense();
            let at = pp_portable::Matrix::from_fn(n, n, pp_portable::Layout::Right, |i, j| {
                dense.get(j, i)
            });
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let expected = solve_dense(&at, &b).unwrap();
            let f = gbtrf(&a).unwrap();
            let mut x = b;
            f.solve_transposed_slice(&mut x);
            for (u, v) in x.iter().zip(&expected) {
                assert!((u - v).abs() < 1e-10, "(n,kl,ku)=({n},{kl},{ku})");
            }
        }
    }

    #[test]
    fn health_and_checked_solves() {
        let mut rng = TestRng::seed_from_u64(3);
        let a = random_banded(&mut rng, 15, 2, 2);
        let f = gbtrf(&a).unwrap();
        let h = f.health();
        assert_eq!(h.routine, "gbtrf");
        assert!(h.rcond > 1e-4, "rcond {}", h.rcond);
        assert!(h.pivot_growth < 10.0, "growth {}", h.pivot_growth);
        assert!(!h.is_suspect());

        let mut short = vec![1.0; 3];
        assert!(matches!(
            f.try_solve_slice(&mut short),
            Err(Error::ShapeMismatch { op: "gbtrs", .. })
        ));
        let mut inf = vec![0.0; 15];
        inf[4] = f64::NEG_INFINITY;
        assert!(matches!(
            f.try_solve_slice(&mut inf),
            Err(Error::NonFinite {
                routine: "gbtrs",
                index: 4,
                ..
            })
        ));

        let mut sick = BandedMatrix::new(4, 1, 1).unwrap();
        sick.set(0, 0, f64::NAN).unwrap();
        assert!(matches!(
            gbtrf(&sick),
            Err(Error::NonFinite {
                routine: "gbtrf",
                ..
            })
        ));
    }

    /// Property: solve(A, A·x) == x for random diagonally-dominant
    /// banded matrices of arbitrary bandwidths.
    #[test]
    fn prop_banded_solve_recovers() {
        let mut g = TestRng::seed_from_u64(0x5EED_BB27);
        for _ in 0..64 {
            let n = g.gen_range(1usize..30);
            let kl = g.gen_range(0usize..4);
            let ku = g.gen_range(0usize..4);
            let seed = g.gen_range(0u64..500);
            let kl = kl.min(n - 1);
            let ku = ku.min(n - 1);
            let mut rng = TestRng::seed_from_u64(seed);
            let a = random_banded(&mut rng, n, kl, ku);
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let b = matvec(&a.to_dense(), &x_true);
            let f = gbtrf(&a).unwrap();
            let mut x = b.clone();
            f.solve_slice(&mut x);
            for (u, v) in x.iter().zip(&x_true) {
                assert!((u - v).abs() < 1e-8);
            }
        }
    }
}
