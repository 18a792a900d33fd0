//! Tensor-product 2-D splines — the paper's §II-B claim made concrete:
//! *"Higher dimensional B-splines can be obtained by a tensor product of
//! 1D splines. For N-D splines, N equations in the form of equation (2)
//! must be solved. Each of these equations handles one of the dimensions
//! and behaves in the same way as the 1D case, batched over the other
//! dimensions."*
//!
//! [`TensorSpline2D`] keeps the coefficients in one `(nx, ny)`
//! [`ResidentBatch`], lanes along y, and builds them with the two
//! orientations the Vlasov step's Strang split already uses, in place: the
//! x pass solves the batch's panels where they lie, batched over y; the y
//! pass solves across its lanes, batched over x, on its 8 × 8 tiles where
//! they lie ([`TiledField`]): each block's tiles transposed into the
//! worker's panel, solved there and the coefficients transposed straight
//! back into its tile rows. No transpose of the batch, no second matrix,
//! no staging copy: both passes are the 1-D
//! [`SplineBuilder`]'s one region body, unchanged — the batched
//! single-matrix/multi-RHS kernel is the only primitive an N-D
//! interpolation needs.

use crate::builder::{BuilderVersion, Solved, SplineBuilder};
use crate::error::{Error, Result};
use pp_bsplines::{PeriodicSplineSpace, MAX_DEGREE};
use pp_portable::{ExecSpace, ResidentBatch, TiledField, LANE_WIDTH};

/// A doubly periodic tensor-product spline space with batched
/// construction.
///
/// ```
/// use pp_portable::{Layout, Matrix, Parallel, ResidentBatch};
/// use pp_splinesolver::tensor2d::uniform_tensor;
/// use pp_splinesolver::BuilderVersion;
///
/// let t = uniform_tensor(16, 16, 3, BuilderVersion::FusedSpmv).unwrap();
/// let mut c = ResidentBatch::pack(&Matrix::from_fn(16, 16, Layout::Left, |_, _| 2.0));
/// t.interpolate_in_place(&Parallel, &mut c).unwrap();
/// assert!((t.eval(&c, 0.3, 0.7) - 2.0).abs() < 1e-12);
/// ```
pub struct TensorSpline2D {
    builder_x: SplineBuilder,
    builder_y: SplineBuilder,
}

impl TensorSpline2D {
    /// Build the two 1-D factor spaces' builders (factorisations happen
    /// once, here).
    pub fn new(
        space_x: PeriodicSplineSpace,
        space_y: PeriodicSplineSpace,
        version: BuilderVersion,
    ) -> Result<Self> {
        Ok(Self {
            builder_x: SplineBuilder::new(space_x, version)?,
            builder_y: SplineBuilder::new(space_y, version)?,
        })
    }

    /// The x-direction factor space.
    pub fn space_x(&self) -> &PeriodicSplineSpace {
        self.builder_x.space()
    }

    /// The y-direction factor space.
    pub fn space_y(&self) -> &PeriodicSplineSpace {
        self.builder_y.space()
    }

    /// Grid of interpolation points `(x_i, y_j)`.
    pub fn interpolation_points(&self) -> (Vec<f64>, Vec<f64>) {
        (
            self.space_x().interpolation_points(),
            self.space_y().interpolation_points(),
        )
    }

    /// Turn a grid of values `f(x_i, y_j)` (shape `(nx, ny)`) into tensor
    /// coefficients, in place: the x pass on `c`'s panels
    /// ([`SplineBuilder::solve_resident`]), then the y pass on its tiles
    /// ([`SplineBuilder::solve_then`] over [`TiledField`]). Allocates
    /// nothing after a thread's first call.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] naming the dimension that differs: the
    /// rows of `c`, else its columns — the rows of the y-direction solve.
    pub fn interpolate_in_place<E: ExecSpace>(
        &self,
        exec: &E,
        c: &mut ResidentBatch,
    ) -> Result<()> {
        let nx = self.space_x().num_basis();
        let ny = self.space_y().num_basis();
        for (expected_rows, actual_rows) in [(nx, c.nrows()), (ny, c.ncols())] {
            if expected_rows != actual_rows {
                return Err(Error::ShapeMismatch {
                    expected_rows,
                    actual_rows,
                });
            }
        }
        self.builder_x.solve_resident(exec, c)?;
        let store = |_: usize, _: usize, solved: Solved<'_>| solved.store();
        self.builder_y
            .solve_then(exec, &mut TiledField::new(c), store)
    }

    /// Evaluate the tensor spline with coefficients `c` (shape
    /// `(nx, ny)`) at a point.
    pub fn eval(&self, c: &ResidentBatch, x: f64, y: f64) -> f64 {
        let sx = self.space_x();
        let sy = self.space_y();
        debug_assert_eq!(c.shape(), (sx.num_basis(), sy.num_basis()));
        let mut bx = [0.0; MAX_DEGREE + 1];
        let mut by = [0.0; MAX_DEGREE + 1];
        let cx = sx.eval_basis(x, &mut bx);
        let cy = sy.eval_basis(y, &mut by);
        // Lane `j` of `c` is element `j % LANE_WIDTH` of every row of panel
        // `j / LANE_WIDTH`: find the stencil's lanes once, not per term.
        let mut lanes = [(&[][..], 0); MAX_DEGREE + 1];
        for (my, lane) in lanes.iter_mut().enumerate().take(sy.degree() + 1) {
            let j = sy.coef_index(cy, my);
            *lane = (c.chunk(j / LANE_WIDTH), j % LANE_WIDTH);
        }
        let mut s = 0.0;
        for mx in 0..=sx.degree() {
            let ix = sx.coef_index(cx, mx);
            let mut row = 0.0;
            for (b, (panel, l)) in by.iter().zip(lanes).take(sy.degree() + 1) {
                row += b * panel[ix * LANE_WIDTH + l];
            }
            s += bx[mx] * row;
        }
        s
    }
}

/// Convenience: a square tensor space over `[0,1)²` with uniform meshes.
pub fn uniform_tensor(
    nx: usize,
    ny: usize,
    degree: usize,
    version: BuilderVersion,
) -> Result<TensorSpline2D> {
    use pp_bsplines::Breaks;
    let sx = PeriodicSplineSpace::new(Breaks::uniform(nx, 0.0, 1.0).map_err(Error::Space)?, degree)
        .map_err(Error::Space)?;
    let sy = PeriodicSplineSpace::new(Breaks::uniform(ny, 0.0, 1.0).map_err(Error::Space)?, degree)
        .map_err(Error::Space)?;
    TensorSpline2D::new(sx, sy, version)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_portable::{Layout, Matrix, Parallel, Serial};

    const TAU: f64 = std::f64::consts::TAU;

    fn smooth(x: f64, y: f64) -> f64 {
        (TAU * x).sin() * (2.0 * TAU * y).cos() + 0.5
    }

    #[test]
    fn reproduces_values_at_grid_points() {
        let t = uniform_tensor(24, 20, 3, BuilderVersion::FusedSpmv).unwrap();
        let (px, py) = t.interpolation_points();
        let mut f = ResidentBatch::pack(&Matrix::from_fn(24, 20, Layout::Left, |i, j| {
            smooth(px[i], py[j])
        }));
        let orig = f.clone();
        t.interpolate_in_place(&Parallel, &mut f).unwrap();
        for i in 0..24 {
            for j in 0..20 {
                let v = t.eval(&f, px[i], py[j]);
                assert!((v - orig.get(i, j)).abs() < 1e-11, "({i},{j})");
            }
        }
    }

    #[test]
    fn interpolates_smooth_function_off_grid() {
        let t = uniform_tensor(32, 32, 5, BuilderVersion::FusedSpmv).unwrap();
        let (px, py) = t.interpolation_points();
        let mut f = ResidentBatch::pack(&Matrix::from_fn(32, 32, Layout::Left, |i, j| {
            smooth(px[i], py[j])
        }));
        t.interpolate_in_place(&Parallel, &mut f).unwrap();
        for k in 0..40 {
            let x = 0.013 + 0.024 * k as f64;
            let y = 0.9 - 0.02 * k as f64;
            let err = (t.eval(&f, x, y) - smooth(x, y)).abs();
            assert!(err < 5e-5, "({x}, {y}): {err}");
        }
    }

    #[test]
    fn anisotropic_grid_and_mixed_degrees_via_spaces() {
        use pp_bsplines::Breaks;
        let sx = PeriodicSplineSpace::new(Breaks::uniform(40, 0.0, 2.0).unwrap(), 3).unwrap();
        let sy = PeriodicSplineSpace::new(Breaks::graded(16, -1.0, 1.0, 0.4).unwrap(), 4).unwrap();
        let t = TensorSpline2D::new(sx, sy, BuilderVersion::Fused).unwrap();
        let (px, py) = t.interpolation_points();
        let g = |x: f64, y: f64| (TAU * x / 2.0).cos() + (TAU * (y + 1.0) / 2.0).sin();
        let mut f = ResidentBatch::pack(&Matrix::from_fn(40, 16, Layout::Left, |i, j| {
            g(px[i], py[j])
        }));
        t.interpolate_in_place(&Serial, &mut f).unwrap();
        let (x, y) = (1.234, -0.321);
        assert!((t.eval(&f, x, y) - g(x, y)).abs() < 2e-3);
    }

    #[test]
    fn constant_reproduction_2d() {
        let t = uniform_tensor(16, 16, 4, BuilderVersion::Baseline).unwrap();
        let mut f = ResidentBatch::pack(&Matrix::from_fn(16, 16, Layout::Left, |_, _| 3.25));
        t.interpolate_in_place(&Serial, &mut f).unwrap();
        for k in 0..10 {
            let p = 0.05 + 0.09 * k as f64;
            assert!((t.eval(&f, p, 1.0 - p) - 3.25).abs() < 1e-11);
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let t = uniform_tensor(16, 20, 3, BuilderVersion::FusedSpmv).unwrap();
        // The error names the dimension that differs: rows, else columns.
        for (rows, cols, expected_rows, actual_rows) in [(15, 20, 16, 15), (16, 21, 20, 21)] {
            let mut bad = ResidentBatch::zeros(rows, cols);
            let Err(Error::ShapeMismatch {
                expected_rows: e,
                actual_rows: a,
            }) = t.interpolate_in_place(&Serial, &mut bad)
            else {
                panic!("({rows}, {cols}) accepted");
            };
            assert_eq!((e, a), (expected_rows, actual_rows), "({rows}, {cols})");
        }
    }

    #[test]
    fn periodicity_in_both_directions() {
        let t = uniform_tensor(20, 20, 3, BuilderVersion::FusedSpmv).unwrap();
        let (px, py) = t.interpolation_points();
        let mut f = ResidentBatch::pack(&Matrix::from_fn(20, 20, Layout::Left, |i, j| {
            smooth(px[i], py[j])
        }));
        t.interpolate_in_place(&Serial, &mut f).unwrap();
        let (x, y) = (0.3, 0.7);
        let base = t.eval(&f, x, y);
        assert!((t.eval(&f, x + 1.0, y) - base).abs() < 1e-12);
        assert!((t.eval(&f, x, y - 2.0) - base).abs() < 1e-12);
        assert!((t.eval(&f, x - 3.0, y + 4.0) - base).abs() < 1e-12);
    }

    /// The build is, bit for bit, the composition it replaced — a solve
    /// along x on the host matrix, a transpose, a solve along y, a
    /// transpose back — for every version, on ragged shapes (neither side
    /// a multiple of eight) and a graded × uniform pair, on both spaces.
    #[test]
    fn build_is_the_transposing_composition_bit_for_bit() {
        use pp_bsplines::Breaks;
        use pp_portable::{transpose_into, TestRng};
        fn build<E: ExecSpace>(exec: &E, t: &TensorSpline2D, f: &Matrix) -> ResidentBatch {
            let mut c = ResidentBatch::pack(f);
            t.interpolate_in_place(exec, &mut c).unwrap();
            c
        }
        let space = |b: Breaks, d| PeriodicSplineSpace::new(b, d).unwrap();
        let uniform = |n, d| space(Breaks::uniform(n, 0.0, 1.0).unwrap(), d);
        let mut rng = TestRng::seed_from_u64(38);
        for (sx, sy) in [
            (uniform(13, 3), uniform(21, 3)),
            (uniform(24, 4), uniform(20, 4)),
            (uniform(100, 5), uniform(37, 5)),
            (
                space(Breaks::graded(19, 0.0, 1.0, 0.6).unwrap(), 4),
                uniform(11, 3),
            ),
        ] {
            let (nx, ny) = (sx.num_basis(), sy.num_basis());
            let f = Matrix::from_fn(nx, ny, Layout::Left, |_, _| rng.gen_range(-1.0..1.0));
            for version in BuilderVersion::ALL {
                let bx = SplineBuilder::new(sx.clone(), version).unwrap();
                let by = SplineBuilder::new(sy.clone(), version).unwrap();
                let (mut want, mut want_t) = (f.clone(), Matrix::zeros(ny, nx, Layout::Left));
                bx.solve_in_place(&Serial, &mut want).unwrap();
                transpose_into(&want, &mut want_t).unwrap();
                by.solve_in_place(&Serial, &mut want_t).unwrap();
                transpose_into(&want_t, &mut want).unwrap();
                let t = TensorSpline2D::new(sx.clone(), sy.clone(), version).unwrap();
                for got in [build(&Serial, &t, &f), build(&Parallel, &t, &f)] {
                    for (i, j, w) in want.iter_entries() {
                        let what = format!("{nx}x{ny} {version:?} ({i}, {j})");
                        assert_eq!(got.get(i, j).to_bits(), w.to_bits(), "{what}");
                    }
                }
            }
        }
    }
}
