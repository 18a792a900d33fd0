//! Assembly and structural analysis of the spline interpolation matrix.
//!
//! `A[k][j] = B_j(g_k)` — equation (2) of the paper. For a periodic space
//! the matrix is banded except for thin corner blocks created by the
//! wrap-around basis functions (Fig. 1); for a clamped one it is banded.
//! [`SplineMatrixStructure`] measures that structure: the minimal *border
//! width* `b` such that the leading `(n−b)×(n−b)` block `Q` is banded (0
//! for a clamped space), plus `Q`'s bandwidths and symmetry — the inputs
//! to the Table I solver classification.

use crate::space::{SplineSpace, MAX_DEGREE};
use pp_portable::{Layout, Matrix};

/// Entries smaller than this (relative to the largest entry) are treated
/// as structural zeros during analysis, and entry pairs closer than this
/// count as symmetric. Cox–de Boor evaluation is accurate to ~1e-13 at
/// fine meshes, while genuine non-uniform asymmetry is O(1), so anywhere
/// in between is safe; 1e-10 leaves a wide margin on both sides.
const STRUCTURAL_EPS: f64 = 1e-10;

/// Assemble the dense interpolation matrix (`num_basis()` square, row `k`
/// = interpolation point `g_k`).
pub fn assemble_interpolation_matrix(space: &SplineSpace) -> Matrix {
    let n = space.num_basis();
    let mut a = Matrix::zeros(n, n, Layout::Right);
    let mut vals = [0.0; MAX_DEGREE + 1];
    for k in 0..n {
        let x = space.interpolation_point(k);
        let cell = space.eval_basis(x, &mut vals);
        for (m, &v) in vals.iter().enumerate().take(space.degree() + 1) {
            // += rather than =: distinct local indices can map to the same
            // periodic basis function on very coarse meshes.
            a.add_assign(k, space.coef_index(cell, m), v);
        }
    }
    a
}

/// Structural summary of a spline matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SplineMatrixStructure {
    /// Matrix order `n`.
    pub n: usize,
    /// Border width `b`: `Q = A[0..n−b, 0..n−b]` is the banded interior.
    pub border: usize,
    /// Sub-diagonal bandwidth of `Q`.
    pub q_kl: usize,
    /// Super-diagonal bandwidth of `Q`.
    pub q_ku: usize,
    /// Whether `Q` is numerically symmetric.
    pub q_symmetric: bool,
    /// Non-zeros in the `γ` block (`A[0..n−b, n−b..]`).
    pub gamma_nnz: usize,
    /// Non-zeros in the `λ` block (`A[n−b.., 0..n−b]`).
    pub lambda_nnz: usize,
}

impl SplineMatrixStructure {
    /// Analyse a dense spline matrix: find the smallest border `b ≥ 0`
    /// whose interior `Q` is banded with bandwidths at most `max_band`,
    /// then measure `Q`'s actual bandwidths and symmetry. A banded matrix —
    /// a clamped space's — has border 0; a periodic one of degree ≥ 2 never
    /// does, its corner entries sitting `n − 1 > 2·degree` off the diagonal
    /// (degree 1 collocates at the knots: `A = I`).
    ///
    /// Returns `None` if no border up to `n/2` produces a banded interior
    /// (i.e. the matrix is not of spline form).
    pub fn analyze(a: &Matrix, max_band: usize) -> Option<Self> {
        let n = a.nrows();
        if a.ncols() != n || n == 0 {
            return None;
        }
        let scale = a
            .as_slice()
            .iter()
            .fold(0.0_f64, |acc, &v| acc.max(v.abs()));
        let tol = scale * STRUCTURAL_EPS;
        let nz = |i: usize, j: usize| a.get(i, j).abs() > tol;

        'border: for b in 0..=n / 2 {
            let q = n - b;
            // Interior must be banded within max_band.
            for i in 0..q {
                for j in 0..q {
                    if nz(i, j) && i.abs_diff(j) > max_band {
                        continue 'border;
                    }
                }
            }
            // Found: measure actual bandwidths of Q.
            let mut q_kl = 0usize;
            let mut q_ku = 0usize;
            for i in 0..q {
                for j in 0..q {
                    if nz(i, j) {
                        if i > j {
                            q_kl = q_kl.max(i - j);
                        } else {
                            q_ku = q_ku.max(j - i);
                        }
                    }
                }
            }
            let mut q_symmetric = true;
            'sym: for i in 0..q {
                let lo = i.saturating_sub(q_kl.max(q_ku));
                for j in lo..i {
                    if (a.get(i, j) - a.get(j, i)).abs() > tol {
                        q_symmetric = false;
                        break 'sym;
                    }
                }
            }
            let gamma_nnz = (0..q)
                .flat_map(|i| (q..n).map(move |j| (i, j)))
                .filter(|&(i, j)| nz(i, j))
                .count();
            let lambda_nnz = (q..n)
                .flat_map(|i| (0..q).map(move |j| (i, j)))
                .filter(|&(i, j)| nz(i, j))
                .count();
            return Some(Self {
                n,
                border: b,
                q_kl,
                q_ku,
                q_symmetric,
                gamma_nnz,
                lambda_nnz,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knots::Breaks;

    fn space(n: usize, degree: usize, uniform: bool) -> SplineSpace {
        let breaks = if uniform {
            Breaks::uniform(n, 0.0, 1.0).unwrap()
        } else {
            Breaks::graded(n, 0.0, 1.0, 0.6).unwrap()
        };
        SplineSpace::new(breaks, degree).unwrap()
    }

    fn structure(space: &SplineSpace) -> SplineMatrixStructure {
        SplineMatrixStructure::analyze(&assemble_interpolation_matrix(space), space.degree())
            .expect("spline matrices are banded-plus-border by construction")
    }

    #[test]
    fn rows_sum_to_one() {
        // Partition of unity: every row of A sums to 1.
        for degree in [3, 4, 5] {
            for uniform in [true, false] {
                let periodic = space(16, degree, uniform);
                let clamped = SplineSpace::clamped(periodic.breaks().clone(), degree).unwrap();
                for sp in [periodic, clamped] {
                    let (a, nb) = (assemble_interpolation_matrix(&sp), sp.num_basis());
                    for i in 0..nb {
                        let s: f64 = (0..nb).map(|j| a.get(i, j)).sum();
                        assert!((s - 1.0).abs() < 1e-13, "deg {degree} uniform {uniform}");
                    }
                }
            }
        }
    }

    #[test]
    fn degree3_uniform_is_circulant_166() {
        // The classic cubic matrix: 4/6 on the diagonal, 1/6 on the cyclic
        // neighbours (Fig. 1 of the paper shows exactly this shape).
        let a = assemble_interpolation_matrix(&space(12, 3, true));
        for i in 0..12 {
            for j in 0..12 {
                let d = (i as isize - j as isize).rem_euclid(12);
                let expected = match d {
                    0 => 4.0 / 6.0,
                    1 | 11 => 1.0 / 6.0,
                    _ => 0.0,
                };
                assert!(
                    (a.get(i, j) - expected).abs() < 1e-13,
                    "({i},{j}) = {} expected {expected}",
                    a.get(i, j)
                );
            }
        }
    }

    #[test]
    fn structure_degree3_uniform_matches_paper() {
        // Table I row 1: Q is SPD tridiagonal; λ has exactly 2 non-zeros
        // (the paper: "the bottom-left corner matrix with the shape of
        // (1, 999) contains 2 non-zeros").
        let s = structure(&space(24, 3, true));
        assert_eq!(s.border, 1);
        assert_eq!((s.q_kl, s.q_ku), (1, 1));
        assert!(s.q_symmetric);
        assert_eq!(s.lambda_nnz, 2);
        assert_eq!(s.gamma_nnz, 2);
    }

    #[test]
    fn structure_degree4_and_5_uniform_are_symmetric_banded() {
        for degree in [4, 5] {
            let s = structure(&space(24, degree, true));
            assert!(s.q_symmetric, "deg {degree}");
            assert!(s.q_kl >= 2 && s.q_kl <= degree, "deg {degree}: {s:?}");
            assert_eq!(s.q_kl, s.q_ku);
            assert!(s.border <= degree);
        }
    }

    #[test]
    fn structure_nonuniform_is_asymmetric_banded() {
        for degree in [3, 4, 5] {
            let s = structure(&space(24, degree, false));
            assert!(
                !s.q_symmetric,
                "deg {degree}: non-uniform Q should be asymmetric"
            );
            assert!(s.q_kl <= degree && s.q_ku <= degree);
        }
    }

    #[test]
    fn analyze_rejects_dense_matrix() {
        let dense = Matrix::from_fn(10, 10, Layout::Right, |_, _| 1.0);
        assert!(SplineMatrixStructure::analyze(&dense, 3).is_none());
    }

    #[test]
    fn analyze_handles_plain_banded_matrix() {
        let tri = Matrix::from_fn(10, 10, Layout::Right, |i, j| {
            if i.abs_diff(j) <= 1 {
                1.0
            } else {
                0.0
            }
        });
        let s = SplineMatrixStructure::analyze(&tri, 3).unwrap();
        assert_eq!(s.border, 0);
        assert_eq!((s.q_kl, s.q_ku), (1, 1));
        assert_eq!((s.gamma_nnz, s.lambda_nnz), (0, 0));
    }

    #[test]
    fn interpolation_matrix_is_well_conditioned_enough_to_solve() {
        // The paper cites splines being well conditioned; the dense
        // reference solve must succeed for all six configurations.
        for degree in [3, 4, 5] {
            for uniform in [true, false] {
                let sp = space(20, degree, uniform);
                let a = assemble_interpolation_matrix(&sp);
                let b = vec![1.0; 20];
                let x = pp_linalg::naive::solve_dense(&a, &b).unwrap();
                // A·x = 1 and rows sum to 1 => x == 1.
                for v in x {
                    assert!((v - 1.0).abs() < 1e-10);
                }
            }
        }
    }
}
