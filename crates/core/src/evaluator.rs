//! Batched spline evaluation.
//!
//! After the builder produces a `(n, batch)` coefficient block, the
//! semi-Lagrangian step evaluates every lane's spline at that lane's
//! characteristic feet (Algorithm 2, line 8). The evaluation is
//! embarrassingly parallel over lanes, like the build.

use crate::error::{Error, Result};
use pp_bsplines::PeriodicSplineSpace;
use pp_portable::{ExecSpace, Layout, Matrix, ResidentBatch, Strided, StridedMut, LANE_WIDTH};

/// Evaluates batched splines over a shared [`PeriodicSplineSpace`].
#[derive(Debug, Clone)]
pub struct SplineEvaluator {
    space: PeriodicSplineSpace,
}

impl SplineEvaluator {
    /// New evaluator for a space.
    pub fn new(space: PeriodicSplineSpace) -> Self {
        Self { space }
    }

    /// The underlying space.
    pub fn space(&self) -> &PeriodicSplineSpace {
        &self.space
    }

    /// `coefs (n, batch)`, `positions (m, batch)`, `out (m, batch)`.
    fn check_shapes(
        &self,
        coefs: (usize, usize),
        positions: (usize, usize),
        out: (usize, usize),
    ) -> Result<()> {
        let n = self.space.num_basis();
        if coefs.0 != n {
            return Err(Error::ShapeMismatch {
                expected_rows: n,
                actual_rows: coefs.0,
            });
        }
        if positions != out || positions.1 != coefs.1 {
            return Err(Error::ShapeMismatch {
                expected_rows: positions.0,
                actual_rows: out.0,
            });
        }
        Ok(())
    }

    /// Evaluate lane `j`'s spline (column `j` of `coefs`) at each position
    /// in column `j` of `positions`, writing into column `j` of `out`.
    ///
    /// Shapes: `coefs (n, batch)`, `positions (m, batch)`,
    /// `out (m, batch)`.
    pub fn eval_batched<E: ExecSpace>(
        &self,
        exec: &E,
        coefs: &Matrix,
        positions: &Matrix,
        out: &mut Matrix,
    ) -> Result<()> {
        self.check_shapes(coefs.shape(), positions.shape(), out.shape())?;
        if positions.nrows() == 0 {
            return Ok(());
        }
        let space = &self.space;
        exec.for_each_lane_mut(out, |j, out_lane| {
            space.eval_lane(coefs.col(j), positions.col(j), out_lane);
        });
        Ok(())
    }

    /// Resident variant of [`SplineEvaluator::eval_batched`]: coefficients
    /// are read straight out of the packed panels and results are written
    /// straight into the output batch's panels — no pack/unpack transpose
    /// on either side. Each panel goes through
    /// [`PeriodicSplineSpace::eval_panel`], lane `j` at `positions`' column
    /// `j` (copied into a contiguous one first unless `positions` is
    /// [`Layout::Left`]); lane for lane that is
    /// [`PeriodicSplineSpace::eval_lane`]'s body on the same coefficients
    /// and positions, so the two entry points agree bit for bit.
    ///
    /// Shapes: `coefs (n, batch)`, `positions (m, batch)`,
    /// `out (m, batch)`.
    pub fn eval_resident<E: ExecSpace>(
        &self,
        exec: &E,
        coefs: &ResidentBatch,
        positions: &Matrix,
        out: &mut ResidentBatch,
    ) -> Result<()> {
        self.check_shapes(
            (coefs.nrows(), coefs.ncols()),
            positions.shape(),
            (out.nrows(), out.ncols()),
        )?;
        let m = positions.nrows();
        if m == 0 {
            return Ok(());
        }
        let copied;
        let positions = if positions.layout() == Layout::Left {
            positions.as_slice()
        } else {
            copied = positions.to_layout(Layout::Left);
            copied.as_slice()
        };
        let space = &self.space;
        out.for_each_chunk_mut(exec, |c, lanes, chunk| {
            let feet = |l: usize| (&positions[(c * LANE_WIDTH + l) * m..][..m], 0.0);
            space.eval_panel(Some(coefs.chunk(c)), lanes, feet, chunk);
        });
        Ok(())
    }

    /// Evaluate one lane at arbitrary points (convenience for examples).
    pub fn eval_lane(&self, coefs: &Matrix, lane: usize, xs: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; xs.len()];
        self.space.eval_lane(
            coefs.col(lane),
            Strided::from_slice(xs),
            StridedMut::from_slice(&mut out),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BuilderVersion, SplineBuilder};
    use pp_bsplines::Breaks;
    use pp_portable::{Parallel, Serial};

    fn setup(n: usize, degree: usize) -> (PeriodicSplineSpace, SplineBuilder) {
        let sp = PeriodicSplineSpace::new(Breaks::uniform(n, 0.0, 1.0).unwrap(), degree).unwrap();
        let b = SplineBuilder::new(sp.clone(), BuilderVersion::FusedSpmv).unwrap();
        (sp, b)
    }

    #[test]
    fn batched_eval_matches_scalar_eval() {
        let (sp, builder) = setup(32, 3);
        let pts = sp.interpolation_points();
        let batch = 11;
        let mut coefs = Matrix::from_fn(32, batch, Layout::Left, |i, j| {
            ((j + 1) as f64 * std::f64::consts::TAU * pts[i]).cos()
        });
        builder.solve_in_place(&Parallel, &mut coefs).unwrap();

        let positions = Matrix::from_fn(50, batch, Layout::Left, |i, j| {
            (i as f64 + 0.5 * j as f64) / 50.0
        });
        let mut out = Matrix::zeros(50, batch, Layout::Left);
        let ev = SplineEvaluator::new(sp.clone());
        ev.eval_batched(&Parallel, &coefs, &positions, &mut out)
            .unwrap();

        for j in 0..batch {
            let c = coefs.col(j).to_vec();
            for i in 0..50 {
                let expected = sp.eval(&c, positions.get(i, j));
                assert!((out.get(i, j) - expected).abs() < 1e-14, "({i},{j})");
            }
        }
    }

    /// Both feeders hand the same lane views to the one kernel body, so
    /// host and resident results agree bit for bit — for every batch size
    /// around the panel width, either layout of coefficients and
    /// positions, out-of-period positions, and either execution space.
    #[test]
    fn resident_eval_bit_identical_to_batched() {
        let spaces = [
            PeriodicSplineSpace::new(Breaks::uniform(32, 0.0, 1.0).unwrap(), 3).unwrap(),
            PeriodicSplineSpace::new(Breaks::graded(32, 0.0, 1.0, 0.6).unwrap(), 5).unwrap(),
        ];
        for sp in spaces {
            let ev = SplineEvaluator::new(sp);
            for batch in [1usize, 7, 8, 9, 17] {
                let coefs = Matrix::from_fn(32, batch, Layout::Left, |i, j| {
                    ((j + 1) as f64 * 0.37 * i as f64).cos()
                });
                let positions = Matrix::from_fn(40, batch, Layout::Left, |i, j| {
                    ((i * 17) % 40) as f64 / 40.0 + 0.3 * j as f64 - 1.2
                });
                let mut reference = Matrix::zeros(40, batch, Layout::Left);
                ev.eval_batched(&Serial, &coefs, &positions, &mut reference)
                    .unwrap();

                let rcoefs = ResidentBatch::pack(&coefs);
                for layout in [Layout::Left, Layout::Right] {
                    let (c, p) = (coefs.to_layout(layout), positions.to_layout(layout));
                    let mut host = Matrix::zeros(40, batch, layout);
                    ev.eval_batched(&Parallel, &c, &p, &mut host).unwrap();
                    let mut rout = ResidentBatch::zeros(40, batch);
                    ev.eval_resident(&Parallel, &rcoefs, &p, &mut rout).unwrap();
                    let mut rserial = ResidentBatch::zeros(40, batch);
                    ev.eval_resident(&Serial, &rcoefs, &p, &mut rserial)
                        .unwrap();
                    for i in 0..40 {
                        for j in 0..batch {
                            let want = reference.get(i, j).to_bits();
                            let what = format!("batch {batch} {layout:?} ({i},{j})");
                            assert_eq!(host.get(i, j).to_bits(), want, "{what}");
                            assert_eq!(rout.get(i, j).to_bits(), want, "{what}");
                            assert_eq!(rserial.get(i, j).to_bits(), want, "{what}");
                        }
                    }
                }
            }
        }
    }

    /// Assembly and evaluation share the basis body, so solving for the
    /// coefficients and evaluating at the interpolation points returns the
    /// data: through the production builder on uniform degree 3, and
    /// through the dense reference solve on graded degree 5 (there the
    /// banded solve carries a ~1e-11 backward error of its own, with the
    /// old basis as with the new, which would hide the basis).
    #[test]
    fn solve_then_evaluate_returns_the_data() {
        let n = 64;
        let data_at = |x: f64, j: usize| ((j + 1) as f64 * std::f64::consts::TAU * x).sin() + 0.1;
        let check = |sp: &PeriodicSplineSpace, coefs: &Matrix, what: &str| {
            let pts = sp.interpolation_points();
            let positions = Matrix::from_fn(n, coefs.ncols(), Layout::Left, |i, _| pts[i]);
            let mut back = Matrix::zeros(n, coefs.ncols(), Layout::Left);
            SplineEvaluator::new(sp.clone())
                .eval_batched(&Serial, coefs, &positions, &mut back)
                .unwrap();
            for j in 0..coefs.ncols() {
                for i in 0..n {
                    let err = (back.get(i, j) - data_at(pts[i], j)).abs();
                    assert!(err <= 1e-13, "{what} ({i},{j}): {err:e}");
                }
            }
        };

        let (sp, builder) = setup(n, 3);
        let pts = sp.interpolation_points();
        let mut coefs = Matrix::from_fn(n, 5, Layout::Left, |i, j| data_at(pts[i], j));
        builder.solve_in_place(&Serial, &mut coefs).unwrap();
        check(&sp, &coefs, "uniform degree 3");

        let sp = PeriodicSplineSpace::new(Breaks::graded(n, 0.0, 1.0, 0.6).unwrap(), 5).unwrap();
        let pts = sp.interpolation_points();
        let lanes: Vec<Vec<f64>> = (0..5)
            .map(|j| {
                let data: Vec<f64> = pts.iter().map(|&x| data_at(x, j)).collect();
                sp.interpolate_naive(&data).unwrap()
            })
            .collect();
        let coefs = Matrix::from_fn(n, 5, Layout::Left, |i, j| lanes[j][i]);
        check(&sp, &coefs, "graded degree 5");
    }

    #[test]
    fn resident_eval_shape_checks() {
        let (sp, _) = setup(16, 3);
        let ev = SplineEvaluator::new(sp);
        let positions = Matrix::zeros(10, 4, Layout::Left);
        let mut out = ResidentBatch::zeros(10, 4);
        let coefs = ResidentBatch::zeros(15, 4); // wrong rows
        assert!(ev
            .eval_resident(&Serial, &coefs, &positions, &mut out)
            .is_err());
        let coefs = ResidentBatch::zeros(16, 3); // batch mismatch
        assert!(ev
            .eval_resident(&Serial, &coefs, &positions, &mut out)
            .is_err());
    }

    #[test]
    fn positions_outside_domain_wrap() {
        let (sp, builder) = setup(20, 3);
        let pts = sp.interpolation_points();
        let mut coefs = Matrix::from_fn(20, 1, Layout::Left, |i, _| {
            (std::f64::consts::TAU * pts[i]).sin()
        });
        builder.solve_in_place(&Serial, &mut coefs).unwrap();
        let ev = SplineEvaluator::new(sp);
        let inside = Matrix::from_fn(5, 1, Layout::Left, |i, _| 0.1 + 0.15 * i as f64);
        let outside = Matrix::from_fn(5, 1, Layout::Left, |i, _| 0.1 + 0.15 * i as f64 - 3.0);
        let mut a = Matrix::zeros(5, 1, Layout::Left);
        let mut b = Matrix::zeros(5, 1, Layout::Left);
        ev.eval_batched(&Serial, &coefs, &inside, &mut a).unwrap();
        ev.eval_batched(&Serial, &coefs, &outside, &mut b).unwrap();
        assert!(a.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn shape_checks() {
        let (sp, _) = setup(16, 3);
        let ev = SplineEvaluator::new(sp);
        let coefs = Matrix::zeros(15, 4, Layout::Left); // wrong rows
        let positions = Matrix::zeros(10, 4, Layout::Left);
        let mut out = Matrix::zeros(10, 4, Layout::Left);
        assert!(ev
            .eval_batched(&Serial, &coefs, &positions, &mut out)
            .is_err());
        let coefs = Matrix::zeros(16, 3, Layout::Left); // batch mismatch
        assert!(ev
            .eval_batched(&Serial, &coefs, &positions, &mut out)
            .is_err());
    }
}
