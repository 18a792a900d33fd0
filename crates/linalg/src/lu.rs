//! Dense LU factorisation with partial pivoting (`getrf`).
//!
//! In the spline builder this factors the small Schur complement `δ′`
//! (typically only a handful of rows), once, at initialisation — the paper
//! does this on the host and copies the factors to the device. The solve is
//! [`LuFactors::solve_rows`].

use crate::error::{Error, Result};
use crate::health::{check_finite_input, check_solve_slice, rcond_estimate, FactorHealth};
use crate::lane::{self, LaneRows};
use pp_portable::{Layout, Matrix, StridedMut};

/// Packed LU factors of a dense matrix: `P·A = L·U` with unit-diagonal `L`
/// stored below the diagonal of [`LuFactors::lu`], `U` above it and, on it,
/// the *reciprocals* `fl(1 / U(i, i))` of the pivots: the divide per row that
/// `getrs` would spend on every right-hand side is taken once, at factor
/// time (see [`crate::PtFactors`]).
#[derive(Debug, Clone)]
pub struct LuFactors {
    lu: Matrix,
    ipiv: Vec<usize>,
    health: FactorHealth,
}

impl LuFactors {
    /// Matrix order.
    pub fn n(&self) -> usize {
        self.lu.nrows()
    }

    /// Packed `L\U` matrix, reciprocal pivots on the diagonal (see
    /// [`LuFactors`]).
    pub fn lu(&self) -> &Matrix {
        &self.lu
    }

    /// Pivot row interchange vector: at step `i`, row `i` was swapped with
    /// row `ipiv[i]` (LAPACK convention, zero-based).
    pub fn ipiv(&self) -> &[usize] {
        &self.ipiv
    }

    /// Numerical-health report captured at factorisation time (`gecon`).
    pub fn health(&self) -> &FactorHealth {
        &self.health
    }

    /// Solve `A x = b` in place for one lane (`getrs`).
    ///
    /// The lane length must equal the matrix order `n`.
    ///
    /// # Panics (debug)
    /// Debug builds assert `b.len() == self.n()`; release builds make the
    /// caller responsible. Use [`LuFactors::try_solve_slice`] for a checked
    /// variant.
    #[inline]
    pub fn solve_lane(&self, b: &mut StridedMut<'_>) {
        debug_assert_eq!(
            b.len(),
            self.n(),
            "getrs: lane length must equal matrix order"
        );
        self.solve_rows(b, 0);
    }

    /// Solve in place on rows `row0..row0 + n` of `rows` (`getrs`, no
    /// transpose), for every lane the accessor carries.
    #[inline(always)]
    pub fn solve_rows<R: LaneRows>(&self, rows: &mut R, row0: usize) {
        lane::getrs(&self.lu, &self.ipiv, rows, row0);
    }

    /// Solve into a plain slice (convenience for setup-time work).
    ///
    /// # Panics (debug)
    /// Debug builds assert `b.len() == self.n()` (see
    /// [`LuFactors::solve_lane`]).
    pub fn solve_slice(&self, b: &mut [f64]) {
        self.solve_lane(&mut StridedMut::from_slice(b));
    }

    /// Checked solve: verifies the length contract and rejects non-finite
    /// right-hand sides with a typed error instead of silently propagating
    /// NaN through the substitution.
    pub fn try_solve_slice(&self, b: &mut [f64]) -> Result<()> {
        check_solve_slice("getrs", self.n(), b)?;
        self.solve_slice(b);
        Ok(())
    }

    /// Solve `Aᵀ x = b` in place (LAPACK `getrs` with `trans = 'T'`):
    /// `Aᵀ = Uᵀ Lᵀ P`, so solve `Uᵀ w = b` forward, `Lᵀ v = w` backward,
    /// then apply the pivots in reverse. Used by the condition estimator.
    pub fn solve_transposed_slice(&self, b: &mut [f64]) {
        let n = self.n();
        debug_assert_eq!(b.len(), n, "getrs^T: lane length must equal matrix order");
        // Uᵀ is lower triangular: forward substitution.
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= self.lu.get(k, i) * b[k];
            }
            b[i] = s * self.lu.get(i, i);
        }
        // Lᵀ is unit upper triangular: backward substitution.
        for i in (0..n).rev() {
            let mut s = b[i];
            for k in i + 1..n {
                s -= self.lu.get(k, i) * b[k];
            }
            b[i] = s;
        }
        // Undo P·A ordering: apply the interchanges in reverse.
        for i in (0..n).rev() {
            b.swap(i, self.ipiv[i]);
        }
    }
}

/// Factor a dense square matrix as `P·A = L·U` with partial pivoting.
///
/// Returns [`Error::Singular`] if a pivot vanishes to working precision.
pub fn getrf(a: &Matrix) -> Result<LuFactors> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(Error::ShapeMismatch {
            op: "getrf",
            detail: format!("matrix is {:?}, must be square", a.shape()),
        });
    }
    // Work in row-major for cache-friendly row operations.
    let mut lu = a.to_layout(Layout::Right);
    let mut ipiv = vec![0usize; n];

    // Health capture: ‖A‖₁ and max|A| before elimination overwrites A,
    // plus a non-finite input scan (index = flat row-major position).
    check_finite_input(
        "getrf",
        (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).map({
            let lu = &lu;
            move |(i, j)| lu.get(i, j)
        }),
    )?;
    let mut anorm = 0.0_f64;
    let mut amax = 0.0_f64;
    for j in 0..n {
        let mut col = 0.0;
        for i in 0..n {
            let v = lu.get(i, j).abs();
            col += v;
            amax = amax.max(v);
        }
        anorm = anorm.max(col);
    }

    for k in 0..n {
        // Pivot: largest magnitude in column k, rows k..n.
        let mut piv = k;
        let mut best = lu.get(k, k).abs();
        for i in k + 1..n {
            let v = lu.get(i, k).abs();
            if v > best {
                best = v;
                piv = i;
            }
        }
        if best < f64::MIN_POSITIVE {
            return Err(Error::Singular {
                routine: "getrf",
                index: k,
            });
        }
        ipiv[k] = piv;
        if piv != k {
            for j in 0..n {
                let t = lu.get(k, j);
                let u = lu.get(piv, j);
                lu.set(k, j, u);
                lu.set(piv, j, t);
            }
        }
        let pivot = lu.get(k, k);
        for i in k + 1..n {
            let m = lu.get(i, k) / pivot;
            lu.set(i, k, m);
            if m != 0.0 {
                for j in k + 1..n {
                    let v = lu.get(i, j) - m * lu.get(k, j);
                    lu.set(i, j, v);
                }
            }
        }
    }
    // Classical pivot growth max|U| / max|A|: ≈ 1 for a stable
    // elimination, ≫ 1 when partial pivoting failed to contain growth.
    let mut umax = 0.0_f64;
    for j in 0..n {
        for i in 0..=j {
            umax = umax.max(lu.get(i, j).abs());
        }
    }
    let pivot_growth = if amax > 0.0 { umax / amax } else { 1.0 };
    for i in 0..n {
        lu.set(i, i, 1.0 / lu.get(i, i));
    }

    let mut f = LuFactors {
        lu,
        ipiv,
        health: FactorHealth {
            routine: "getrf",
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
    use crate::naive::{relative_residual, solve_dense};
    use pp_portable::TestRng;

    fn random_nonsingular(rng: &mut TestRng, n: usize) -> Matrix {
        Matrix::from_fn(n, n, Layout::Right, |i, j| {
            let v: f64 = rng.gen_range(-1.0..1.0);
            if i == j {
                v + 2.0 * n as f64
            } else {
                v
            }
        })
    }

    #[test]
    fn factor_solve_round_trip_various_sizes() {
        let mut rng = TestRng::seed_from_u64(99);
        for n in [1, 2, 4, 7, 16, 33] {
            let a = random_nonsingular(&mut rng, n);
            let f = getrf(&a).unwrap();
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let mut x = b.clone();
            f.solve_slice(&mut x);
            assert!(relative_residual(&a, &x, &b) < 1e-12, "n = {n}");
        }
    }

    #[test]
    fn matches_naive_solver() {
        let mut rng = TestRng::seed_from_u64(5);
        for n in [1, 2, 3, 5, 8, 12, 17] {
            let a = random_nonsingular(&mut rng, n);
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let expected = solve_dense(&a, &b).unwrap();
            let f = getrf(&a).unwrap();
            let mut x = b;
            f.solve_slice(&mut x);
            for (u, v) in x.iter().zip(&expected) {
                assert!((u - v).abs() < 1e-11, "n={n}: {u} vs {v}");
            }
        }
    }

    #[test]
    fn pivoting_matrix_solves_to_the_known_answer() {
        // Forces a row interchange.
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 0.0]]);
        let f = getrf(&a).unwrap();
        let mut b = vec![4.0, 3.0];
        f.solve_slice(&mut b);
        assert!((b[0] - 3.0).abs() < 1e-14);
        assert!((b[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn requires_pivoting() {
        // Leading zero forces an interchange; without pivoting this fails.
        let a = Matrix::from_rows(&[&[0.0, 1.0, 2.0], &[1.0, 0.0, 1.0], &[2.0, 1.0, 0.0]]);
        let f = getrf(&a).unwrap();
        let b = vec![5.0, 3.0, 4.0];
        let mut x = b.clone();
        f.solve_slice(&mut x);
        assert!(relative_residual(&a, &x, &b) < 1e-13);
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(getrf(&a), Err(Error::Singular { .. })));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(3, 4, Layout::Right);
        assert!(matches!(getrf(&a), Err(Error::ShapeMismatch { .. })));
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[&[4.0]]);
        let f = getrf(&a).unwrap();
        let mut x = vec![8.0];
        f.solve_slice(&mut x);
        assert_eq!(x, vec![2.0]);
    }

    #[test]
    fn health_reports_well_conditioned_matrix() {
        let mut rng = TestRng::seed_from_u64(4);
        let a = random_nonsingular(&mut rng, 10);
        let f = getrf(&a).unwrap();
        let h = f.health();
        assert_eq!(h.routine, "getrf");
        assert!(h.rcond > 1e-4, "rcond {}", h.rcond);
        assert!(h.pivot_growth < 10.0, "growth {}", h.pivot_growth);
        assert!(!h.is_suspect());
        // anorm is the exact 1-norm (max column abs sum).
        let mut expected = 0.0_f64;
        for j in 0..10 {
            expected = expected.max((0..10).map(|i| a.get(i, j).abs()).sum());
        }
        assert!((h.anorm - expected).abs() < 1e-14);
    }

    #[test]
    fn health_flags_near_singular_matrix() {
        // Rows nearly linearly dependent: condition number ~1e12.
        let a = Matrix::from_rows(&[&[1.0, 1.0, 0.0], &[1.0, 1.0 + 1e-12, 0.0], &[0.0, 0.0, 1.0]]);
        let f = getrf(&a).unwrap();
        assert!(
            f.health().rcond < 1e-10,
            "rcond {} should flag near-singularity",
            f.health().rcond
        );
    }

    #[test]
    fn transpose_solve_matches_dense_reference() {
        let mut rng = TestRng::seed_from_u64(77);
        for n in [1usize, 3, 8, 17] {
            let a = random_nonsingular(&mut rng, n);
            let at = Matrix::from_fn(n, n, Layout::Right, |i, j| a.get(j, i));
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let expected = solve_dense(&at, &b).unwrap();
            let f = getrf(&a).unwrap();
            let mut x = b;
            f.solve_transposed_slice(&mut x);
            for (u, v) in x.iter().zip(&expected) {
                assert!((u - v).abs() < 1e-10, "n = {n}");
            }
        }
    }

    #[test]
    fn try_solve_slice_rejects_bad_inputs() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0]]);
        let f = getrf(&a).unwrap();
        let mut short = vec![1.0];
        assert!(matches!(
            f.try_solve_slice(&mut short),
            Err(Error::ShapeMismatch { op: "getrs", .. })
        ));
        let mut nan = vec![1.0, f64::NAN];
        assert!(matches!(
            f.try_solve_slice(&mut nan),
            Err(Error::NonFinite {
                routine: "getrs",
                lane: 0,
                index: 1,
            })
        ));
        let mut good = vec![2.0, 4.0];
        f.try_solve_slice(&mut good).unwrap();
        assert_eq!(good, vec![1.0, 2.0]);
    }

    #[test]
    fn non_finite_matrix_rejected_at_factorisation() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[f64::NAN, 1.0]]);
        assert!(matches!(
            getrf(&a),
            Err(Error::NonFinite {
                routine: "getrf",
                ..
            })
        ));
    }
}
