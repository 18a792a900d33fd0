//! Schur-complement block decomposition of the spline matrix.
//!
//! Following §II-B.1 of the paper, the matrix is split as
//!
//! ```text
//!     A = | Q  γ |      Q: (n−b)×(n−b)  banded interior
//!         | λ  δ |      γ, λ, δ: thin border blocks (b = border width)
//! ```
//!
//! with the blockwise LU `A = [[Q, 0], [λ, δ′]] · [[I, β], [0, I]]` where
//! `β = Q⁻¹ γ` and `δ′ = δ − λ β`. Everything here happens **once at
//! setup** (the paper factorises on the host and copies to the device):
//! `Q` is factored with the specialised solver of Table I, `β` is formed
//! by `b` extra solves, and `δ′` is LU-factored densely. A clamped space's
//! matrix is banded: `b = 0`, `Q = A`, the border blocks are empty and the
//! solve is the `Q` sweep alone.
//!
//! The corner blocks used by the optimised kernels are stored both dense
//! (for the baseline/fused `gemv` paths) and in COO (for the `spmv` path).
//! Note the paper's "top-right corner matrix … contains 48 non-zeros" for
//! the cubic case: the top-right operand of the *solve* is `β = Q⁻¹ γ`,
//! whose entries decay exponentially away from the wrap rows and are
//! truncated at working precision — `γ` itself has only 2.

use crate::error::{Error, Result};
use pp_bsplines::{assemble_interpolation_matrix, SplineMatrixStructure, SplineSpace};
use pp_linalg::{
    gbtrf, getrf, pbtrf, pttrf, BandedLu, BandedMatrix, CholeskyBanded, LaneRows, LaneSolver,
    LuFactors, PtFactors, SymBandedMatrix,
};
use pp_portable::{Layout, Matrix};
use pp_sparse::Coo;

/// Relative threshold below which corner-block entries are treated as
/// structural zeros when building the COO operands.
const COO_THRESHOLD_REL: f64 = 1e-14;

/// The class of the interior block `Q` — the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QClass {
    /// Positive-definite symmetric tridiagonal — solved with `pttrs`
    /// (uniform mesh, degree 3).
    PdsTridiagonal,
    /// Positive-definite symmetric banded — solved with `pbtrs`
    /// (uniform mesh, degree 4 or 5).
    PdsBanded,
    /// General banded — solved with `gbtrs` (any non-uniform mesh).
    GeneralBanded,
}

impl QClass {
    /// The dedicated LAPACK solve routine (Table I parentheses).
    pub fn routine(self) -> &'static str {
        match self {
            QClass::PdsTridiagonal => "pttrs",
            QClass::PdsBanded => "pbtrs",
            QClass::GeneralBanded => "gbtrs",
        }
    }

    /// The classification the paper's Table I predicts for a degree and
    /// mesh uniformity.
    pub fn from_table(degree: usize, uniform: bool) -> Self {
        match (degree, uniform) {
            (3, true) => QClass::PdsTridiagonal,
            (_, true) => QClass::PdsBanded,
            (_, false) => QClass::GeneralBanded,
        }
    }
}

/// The concrete factorisation of the interior block `Q`, one variant per
/// Table I class. Exposed so kernels can dispatch statically.
pub enum QFactors {
    /// `pttrf` factors (uniform degree 3).
    PdsTridiagonal(PtFactors),
    /// `pbtrf` factors (uniform degree 4/5).
    PdsBanded(CholeskyBanded),
    /// `gbtrf` factors (non-uniform).
    GeneralBanded(BandedLu),
}

impl QFactors {
    /// View as the object-safe per-lane solver.
    pub(crate) fn as_lane_solver(&self) -> &dyn LaneSolver {
        match self {
            QFactors::PdsTridiagonal(f) => f,
            QFactors::PdsBanded(f) => f,
            QFactors::GeneralBanded(f) => f,
        }
    }

    /// Solve `Q x = b` in place on rows `row0..row0 + q` of `rows` with
    /// the class's routine, for every lane the accessor carries.
    #[inline(always)]
    pub fn solve_rows<R: LaneRows>(&self, rows: &mut R, row0: usize) {
        match self {
            QFactors::PdsTridiagonal(f) => f.solve_rows(rows, row0),
            QFactors::PdsBanded(f) => f.solve_rows(rows, row0),
            QFactors::GeneralBanded(f) => f.solve_rows(rows, row0),
        }
    }

    /// The matching Table I class.
    pub fn class(&self) -> QClass {
        match self {
            QFactors::PdsTridiagonal(_) => QClass::PdsTridiagonal,
            QFactors::PdsBanded(_) => QClass::PdsBanded,
            QFactors::GeneralBanded(_) => QClass::GeneralBanded,
        }
    }

    /// Numerical-health report of the underlying factorisation.
    pub fn health(&self) -> &pp_linalg::FactorHealth {
        match self {
            QFactors::PdsTridiagonal(f) => f.health(),
            QFactors::PdsBanded(f) => f.health(),
            QFactors::GeneralBanded(f) => f.health(),
        }
    }
}

/// How [`SchurBlocks::build`] picks the interior factorisation: follow the
/// Table I prediction (with graceful fallback), or force one class with no
/// fallback (the verified builder's ladder escalates explicitly).
#[derive(Debug, Clone, Copy)]
enum Choice {
    Predicted { uniform: bool },
    Forced(QClass),
}

/// The factored Schur decomposition of a spline matrix.
pub struct SchurBlocks {
    n: usize,
    q_size: usize,
    border: usize,
    q_class: QClass,
    q_factors: QFactors,
    delta_factors: LuFactors,
    lambda_dense: Matrix,
    beta_dense: Matrix,
    lambda_coo: Coo,
    beta_coo: Coo,
    structure: SplineMatrixStructure,
}

impl SchurBlocks {
    /// Decompose and factor the interpolation matrix of `space`.
    pub fn new(space: &SplineSpace) -> Result<Self> {
        let a = assemble_interpolation_matrix(space);
        Self::from_dense(&a, space.degree(), space.breaks().is_uniform())
    }

    /// Like [`SchurBlocks::new`], but factor the interior with a **forced**
    /// Table I class instead of the predicted one. Used by the verified
    /// builder's fallback ladder to re-factor one rung at a time; errors
    /// propagate instead of falling back (the ladder handles escalation).
    pub(crate) fn with_class(space: &SplineSpace, class: QClass) -> Result<Self> {
        let a = assemble_interpolation_matrix(space);
        Self::from_dense_forced(&a, space.degree(), class)
    }

    /// Decompose an explicit dense spline-like matrix. `degree` bounds the
    /// interior bandwidth; `uniform` selects the Table I classification to
    /// attempt first.
    pub fn from_dense(a: &Matrix, degree: usize, uniform: bool) -> Result<Self> {
        Self::build(a, degree, Choice::Predicted { uniform })
    }

    /// [`SchurBlocks::from_dense`] with a forced interior class and no
    /// silent fallback.
    pub(crate) fn from_dense_forced(a: &Matrix, degree: usize, class: QClass) -> Result<Self> {
        Self::build(a, degree, Choice::Forced(class))
    }

    fn build(a: &Matrix, degree: usize, choice: Choice) -> Result<Self> {
        let n = a.nrows();
        let structure = SplineMatrixStructure::analyze(a, degree).ok_or_else(|| {
            Error::UnexpectedStructure {
                detail: format!(
                    "no border up to n/2 leaves a banded interior (n = {n}, max band {degree})"
                ),
            }
        })?;
        let border = structure.border;
        let q_size = n - border;
        let (kl, ku) = (structure.q_kl, structure.q_ku);

        // --- factor Q with the Table I solver, falling back gracefully ---
        // Table I: non-uniform meshes always take the general-banded path;
        // uniform meshes try the specialised SPD solvers first (with a
        // graceful fallback should the numerics disagree). A forced class
        // skips both prediction and fallback: failures propagate so the
        // caller's escalation ladder can move to the next rung.
        let q_factors: QFactors = match choice {
            Choice::Predicted { uniform } => {
                let try_spd = uniform && structure.q_symmetric;
                if try_spd && kl <= 1 && ku <= 1 {
                    match Self::factor_tridiagonal(a, q_size) {
                        Ok(f) => f,
                        Err(_) => Self::factor_general(a, q_size, kl, ku)?,
                    }
                } else if try_spd {
                    match Self::factor_spd_banded(a, q_size, kl, ku) {
                        Ok(f) => f,
                        Err(_) => Self::factor_general(a, q_size, kl, ku)?,
                    }
                } else {
                    Self::factor_general(a, q_size, kl, ku)?
                }
            }
            Choice::Forced(QClass::PdsTridiagonal) => {
                if kl > 1 || ku > 1 {
                    return Err(Error::UnexpectedStructure {
                        detail: format!(
                            "pttrf requires a tridiagonal interior, got kl = {kl}, ku = {ku}"
                        ),
                    });
                }
                Self::factor_tridiagonal(a, q_size)?
            }
            Choice::Forced(QClass::PdsBanded) => {
                if !structure.q_symmetric {
                    return Err(Error::UnexpectedStructure {
                        detail: "pbtrf requires a symmetric interior".to_string(),
                    });
                }
                Self::factor_spd_banded(a, q_size, kl, ku)?
            }
            Choice::Forced(QClass::GeneralBanded) => Self::factor_general(a, q_size, kl, ku)?,
        };
        let q_class = q_factors.class();
        let q_solver = q_factors.as_lane_solver();

        // --- border blocks ---
        let lambda_dense =
            Matrix::from_fn(border, q_size, Layout::Right, |i, j| a.get(q_size + i, j));
        let delta = Matrix::from_fn(border, border, Layout::Right, |i, j| {
            a.get(q_size + i, q_size + j)
        });

        // β = Q⁻¹ γ, one solve per border column.
        let mut beta_dense = Matrix::zeros(q_size, border, Layout::Left);
        for c in 0..border {
            let mut col: Vec<f64> = (0..q_size).map(|i| a.get(i, q_size + c)).collect();
            q_solver.solve_slice(&mut col);
            beta_dense.col_mut(c).copy_from_slice(&col);
        }

        // δ′ = δ − λ β, then dense LU.
        let mut delta_prime = delta.clone();
        for i in 0..border {
            for j in 0..border {
                let s: f64 = (0..q_size)
                    .map(|k| lambda_dense.get(i, k) * beta_dense.get(k, j))
                    .sum();
                let v = delta_prime.get(i, j) - s;
                delta_prime.set(i, j, v);
            }
        }
        let delta_factors = getrf(&delta_prime).map_err(Error::from)?;

        // Sparse corner operands (paper §IV-D): threshold relative to each
        // block's largest entry.
        let lam_scale = lambda_dense
            .as_slice()
            .iter()
            .fold(0.0_f64, |m, &v| m.max(v.abs()));
        let beta_scale = beta_dense
            .as_slice()
            .iter()
            .fold(0.0_f64, |m, &v| m.max(v.abs()));
        let lambda_coo = Coo::from_dense(&lambda_dense, lam_scale * COO_THRESHOLD_REL);
        let beta_coo = Coo::from_dense(&beta_dense, beta_scale * COO_THRESHOLD_REL);

        Ok(Self {
            n,
            q_size,
            border,
            q_class,
            q_factors,
            delta_factors,
            lambda_dense,
            beta_dense,
            lambda_coo,
            beta_coo,
            structure,
        })
    }

    fn factor_tridiagonal(a: &Matrix, q_size: usize) -> Result<QFactors> {
        let d: Vec<f64> = (0..q_size).map(|i| a.get(i, i)).collect();
        let e: Vec<f64> = (0..q_size.saturating_sub(1))
            .map(|i| a.get(i + 1, i))
            .collect();
        Ok(QFactors::PdsTridiagonal(
            pttrf(&d, &e).map_err(Error::from)?,
        ))
    }

    fn factor_spd_banded(a: &Matrix, q_size: usize, kl: usize, ku: usize) -> Result<QFactors> {
        let kd = kl.max(ku);
        let sym = SymBandedMatrix::from_fn(q_size, kd, |i, j| a.get(i, j)).map_err(Error::from)?;
        Ok(QFactors::PdsBanded(pbtrf(&sym).map_err(Error::from)?))
    }

    fn factor_general(a: &Matrix, q_size: usize, kl: usize, ku: usize) -> Result<QFactors> {
        let banded = BandedMatrix::from_fn(
            q_size,
            kl.max(1).min(q_size - 1),
            ku.max(1).min(q_size - 1),
            |i, j| a.get(i, j),
        )
        .map_err(Error::from)?;
        let f = gbtrf(&banded).map_err(Error::from)?;
        Ok(QFactors::GeneralBanded(f))
    }

    /// Matrix order `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Order of the banded interior `Q`.
    pub fn q_size(&self) -> usize {
        self.q_size
    }

    /// Border width `b`.
    pub fn border(&self) -> usize {
        self.border
    }

    /// Which Table I class `Q` landed in.
    pub fn q_class(&self) -> QClass {
        self.q_class
    }

    /// The factored interior solver (object-safe view).
    pub fn q_solver(&self) -> &dyn LaneSolver {
        self.q_factors.as_lane_solver()
    }

    /// The concrete interior factors (for statically dispatched
    /// kernels).
    pub fn q_factors(&self) -> &QFactors {
        &self.q_factors
    }

    /// LU factors of the Schur complement `δ′`.
    pub fn delta_factors(&self) -> &LuFactors {
        &self.delta_factors
    }

    /// Dense `λ` block (`border × q_size`).
    pub(crate) fn lambda_dense(&self) -> &Matrix {
        &self.lambda_dense
    }

    /// Dense `β = Q⁻¹ γ` block (`q_size × border`).
    pub(crate) fn beta_dense(&self) -> &Matrix {
        &self.beta_dense
    }

    /// Sparse `λ` (the paper's `bottom_left_block`).
    pub fn lambda_coo(&self) -> &Coo {
        &self.lambda_coo
    }

    /// Sparse `β` (the paper's `top_right_block`).
    pub fn beta_coo(&self) -> &Coo {
        &self.beta_coo
    }

    /// Structural summary of the analysed matrix.
    pub fn structure(&self) -> &SplineMatrixStructure {
        &self.structure
    }

    /// Health report of the interior `Q` factorisation (rcond estimate and
    /// pivot growth, captured at setup).
    pub fn q_health(&self) -> &pp_linalg::FactorHealth {
        self.q_factors.health()
    }

    /// Health report of the Schur-complement `δ′` factorisation.
    pub fn delta_health(&self) -> &pp_linalg::FactorHealth {
        self.delta_factors.health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_bsplines::Breaks;

    fn space(n: usize, degree: usize, uniform: bool) -> SplineSpace {
        let breaks = if uniform {
            Breaks::uniform(n, 0.0, 1.0).unwrap()
        } else {
            Breaks::graded(n, 0.0, 1.0, 0.6).unwrap()
        };
        SplineSpace::new(breaks, degree).unwrap()
    }

    #[test]
    fn table1_classification_reproduced() {
        // The paper's Table I, verified against the actual matrices.
        for (degree, uniform, expected) in [
            (3, true, QClass::PdsTridiagonal),
            (4, true, QClass::PdsBanded),
            (5, true, QClass::PdsBanded),
            (3, false, QClass::GeneralBanded),
            (4, false, QClass::GeneralBanded),
            (5, false, QClass::GeneralBanded),
        ] {
            let blocks = SchurBlocks::new(&space(32, degree, uniform)).unwrap();
            assert_eq!(
                blocks.q_class(),
                expected,
                "degree {degree}, uniform {uniform}"
            );
            assert_eq!(blocks.q_class(), QClass::from_table(degree, uniform));
            assert_eq!(
                blocks.q_solver().routine(),
                expected.routine(),
                "solver matches class"
            );
        }
        // A clamped matrix is banded on any mesh: border 0, `Q = A` with
        // an interior its end rows make asymmetric — one `gbtrs` sweep.
        for (degree, uniform) in [(3, true), (4, true), (5, true), (3, false), (5, false)] {
            let breaks = space(32, degree, uniform).breaks().clone();
            let blocks = SchurBlocks::new(&SplineSpace::clamped(breaks, degree).unwrap()).unwrap();
            let what = format!("clamped degree {degree}, uniform {uniform}");
            assert_eq!(
                (blocks.border(), blocks.q_size()),
                (0, 32 + degree),
                "{what}"
            );
            assert_eq!(blocks.q_class(), QClass::GeneralBanded, "{what}");
            let s = blocks.structure();
            assert!(s.q_kl <= degree && s.q_ku <= degree, "{what}: {s:?}");
            assert_eq!(blocks.lambda_coo().nnz() + blocks.beta_coo().nnz(), 0);
        }
    }

    #[test]
    fn corner_blocks_are_sparse() {
        // Cubic uniform: λ keeps its 2 non-zeros; β is exponentially
        // truncated and much sparser than dense.
        // The exponential decay of Q⁻¹ keeps ~25 entries per wrap end at a
        // 1e-14 threshold, independent of n — so β stays O(1) while the
        // dense block grows with n.
        let blocks = SchurBlocks::new(&space(256, 3, true)).unwrap();
        assert_eq!(blocks.lambda_coo().nnz(), 2);
        let q = blocks.q_size();
        assert!(
            blocks.beta_coo().nnz() < q / 4,
            "β nnz {}",
            blocks.beta_coo().nnz()
        );
        assert!(blocks.beta_coo().nnz() >= 4);
    }

    #[test]
    fn beta_solves_q_beta_eq_gamma() {
        let sp = space(24, 4, true);
        let a = assemble_interpolation_matrix(&sp);
        let blocks = SchurBlocks::new(&sp).unwrap();
        let q = blocks.q_size();
        let b = blocks.border();
        // Check Q·β == γ column by column using the dense matrix.
        for c in 0..b {
            for i in 0..q {
                let qbeta: f64 = (0..q)
                    .map(|k| a.get(i, k) * blocks.beta_dense().get(k, c))
                    .sum();
                let gamma = a.get(i, q + c);
                assert!((qbeta - gamma).abs() < 1e-12, "({i},{c})");
            }
        }
    }

    #[test]
    fn delta_prime_is_nonsingular_for_all_configs() {
        for degree in [3, 4, 5] {
            for uniform in [true, false] {
                let blocks = SchurBlocks::new(&space(40, degree, uniform)).unwrap();
                assert!(blocks.delta_factors().n() == blocks.border());
            }
        }
    }

    #[test]
    fn health_is_exposed_for_every_config() {
        for degree in [3, 4, 5] {
            for uniform in [true, false] {
                let periodic = space(32, degree, uniform);
                let clamped = SplineSpace::clamped(periodic.breaks().clone(), degree).unwrap();
                for sp in [periodic, clamped] {
                    let blocks = SchurBlocks::new(&sp).unwrap();
                    let what = format!("degree {degree} uniform {uniform} {}", sp.is_periodic());
                    let q = blocks.q_health();
                    assert_eq!(q.routine, blocks.q_class().routine().replace("trs", "trf"));
                    assert!(!q.is_suspect(), "{what}: {q}");
                    let d = blocks.delta_health();
                    assert_eq!(d.routine, "getrf");
                    assert!(!d.is_suspect(), "{what}: {d}");
                }
            }
        }
    }

    #[test]
    fn forced_classes_build_the_ladder_rungs() {
        // A uniform cubic space supports every rung of the direct ladder.
        let sp = space(32, 3, true);
        let reference = SchurBlocks::new(&sp).unwrap();
        assert_eq!(reference.q_class(), QClass::PdsTridiagonal);

        let b: Vec<f64> = (0..reference.q_size())
            .map(|i| (i as f64 * 0.4).sin())
            .collect();
        let mut x_ref = b.clone();
        reference.q_solver().solve_slice(&mut x_ref);

        for class in [QClass::PdsBanded, QClass::GeneralBanded] {
            let forced = SchurBlocks::with_class(&sp, class).unwrap();
            assert_eq!(forced.q_class(), class, "forced {class:?}");
            let mut x = b.clone();
            forced.q_solver().solve_slice(&mut x);
            for (u, v) in x.iter().zip(&x_ref) {
                assert!((u - v).abs() < 1e-12, "forced {class:?}");
            }
        }

        // Forcing an impossible class errors instead of silently falling
        // back: a degree-4 interior is pentadiagonal, not tridiagonal.
        let quartic = space(32, 4, true);
        assert!(matches!(
            SchurBlocks::with_class(&quartic, QClass::PdsTridiagonal),
            Err(Error::UnexpectedStructure { .. })
        ));
        // And a non-uniform (asymmetric) interior rejects the SPD rung.
        let graded = space(32, 3, false);
        assert!(matches!(
            SchurBlocks::with_class(&graded, QClass::PdsBanded),
            Err(Error::UnexpectedStructure { .. })
        ));
    }

    #[test]
    fn rejects_unstructured_matrix() {
        let dense = Matrix::from_fn(12, 12, Layout::Right, |_, _| 1.0);
        assert!(matches!(
            SchurBlocks::from_dense(&dense, 3, true),
            Err(Error::UnexpectedStructure { .. })
        ));
    }

    #[test]
    fn paper_sized_cubic_beta_nnz_matches_magnitude() {
        // n = 1000 cubic uniform: the paper reports 48 non-zeros in the
        // top-right solve operand. Exponential decay of Q⁻¹ gives ~2 × 25
        // at a 1e-14 relative threshold — assert the same magnitude.
        let blocks = SchurBlocks::new(&space(1000, 3, true)).unwrap();
        let nnz = blocks.beta_coo().nnz();
        assert!(
            (30..=70).contains(&nnz),
            "expected ≈48 non-zeros in β, got {nnz}"
        );
        assert_eq!(blocks.lambda_coo().nnz(), 2);
    }
}
