//! 2-D semi-Lagrangian advection on tensor-product splines.
//!
//! GYSELA's poloidal-plane advection moves the distribution function
//! along curved trajectories in two dimensions at once. The classic
//! verification problem is **solid-body rotation**: a field rotating
//! about the domain centre returns exactly to its initial state after a
//! full turn, so every deviation is method error.
//!
//! Each step evaluates the 2-D tensor spline (built by two batched 1-D
//! solves — the paper's N-D construction — on one resident batch) at the
//! rotated-back foot of every grid point. This exercises the spline builder
//! in both batch orientations plus the 2-D evaluator, per step.

use crate::error::{Error, Result};
use pp_portable::{ExecSpace, Layout, Matrix, ResidentBatch};
use pp_splinesolver::tensor2d::TensorSpline2D;
use pp_splinesolver::BuilderVersion;

/// Solid-body rotation of a doubly periodic field by semi-Lagrangian
/// steps on tensor-product splines.
pub struct Rotation2D {
    splines: TensorSpline2D,
    px: Vec<f64>,
    py: Vec<f64>,
    /// Rotation centre.
    centre: (f64, f64),
    /// Angle per step (radians).
    dtheta: f64,
    /// Scratch: spline coefficients.
    coefs: ResidentBatch,
}

impl Rotation2D {
    /// Set up an `n × n` doubly periodic domain `[0,1)²` rotating about
    /// its centre by `dtheta` radians per step, splines of `degree`.
    ///
    /// # Errors
    /// [`Error::NonFiniteInput`] (lane 0, index 0) for a non-finite
    /// `dtheta`, which would put every foot at NaN; the spline setup's
    /// errors for `n` and `degree`.
    pub fn new(n: usize, degree: usize, dtheta: f64) -> Result<Self> {
        if !dtheta.is_finite() {
            return Err(Error::NonFiniteInput { lane: 0, index: 0 });
        }
        let splines =
            pp_splinesolver::tensor2d::uniform_tensor(n, n, degree, BuilderVersion::FusedSpmv)?;
        let (px, py) = splines.interpolation_points();
        Ok(Self {
            splines,
            px,
            py,
            centre: (0.5, 0.5),
            dtheta,
            coefs: ResidentBatch::zeros(n, n),
        })
    }

    /// The tensor spline space.
    pub fn splines(&self) -> &TensorSpline2D {
        &self.splines
    }

    /// Initialise a field `f(x_i, y_j)` on the interpolation grid.
    pub fn init_field(&self, f: impl Fn(f64, f64) -> f64) -> Matrix {
        Matrix::from_fn(self.px.len(), self.py.len(), Layout::Left, |i, j| {
            f(self.px[i], self.py[j])
        })
    }

    /// Advance `field` by one rotation step (backward semi-Lagrangian:
    /// rotate each grid point back by `dtheta` and interpolate).
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] if `field` is not `(nx, ny)`; the field is
    /// left untouched.
    pub fn step<E: ExecSpace>(&mut self, exec: &E, field: &mut Matrix) -> Result<()> {
        let (nx, ny) = (self.px.len(), self.py.len());
        if field.shape() != (nx, ny) {
            return Err(Error::ShapeMismatch {
                detail: format!("field is {:?}, expected ({nx}, {ny})", field.shape()),
            });
        }
        // Build the tensor spline of the current field.
        self.coefs.pack_from(field).expect("same shape");
        self.splines.interpolate_in_place(exec, &mut self.coefs)?;

        // Evaluate at the rotated-back feet. The foot of (x, y) under a
        // backward rotation by dtheta about the centre:
        let (cx, cy) = self.centre;
        let (s, c) = self.dtheta.sin_cos();
        let splines = &self.splines;
        let coefs = &self.coefs;
        let px = &self.px;
        let py = &self.py;
        exec.for_each_lane_mut(field, |j, mut lane| {
            let y = py[j] - cy;
            for i in 0..nx {
                let x = px[i] - cx;
                let xf = cx + c * x + s * y;
                let yf = cy - s * x + c * y;
                lane[i] = splines.eval(coefs, xf, yf);
            }
        });
        Ok(())
    }

    /// Total field sum (conservation diagnostic).
    pub fn mass(&self, field: &Matrix) -> f64 {
        field.as_slice().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_portable::Parallel;

    fn blob(x: f64, y: f64) -> f64 {
        let (dx, dy) = (x - 0.5, y - 0.3);
        (-(dx * dx + dy * dy) / 0.006).exp()
    }

    #[test]
    fn full_turn_returns_to_start() {
        let steps = 36;
        let mut rot = Rotation2D::new(64, 3, std::f64::consts::TAU / steps as f64).unwrap();
        let mut f = rot.init_field(blob);
        let f0 = f.clone();
        for _ in 0..steps {
            rot.step(&Parallel, &mut f).unwrap();
        }
        let err = f.max_abs_diff(&f0);
        assert!(err < 0.02, "full-turn error {err}");
    }

    #[test]
    fn quarter_turn_moves_blob_to_quadrant() {
        let mut rot = Rotation2D::new(64, 3, std::f64::consts::FRAC_PI_2 / 9.0).unwrap();
        let mut f = rot.init_field(blob);
        for _ in 0..9 {
            rot.step(&Parallel, &mut f).unwrap();
        }
        // Blob started at (0.5, 0.3); after +90° (backward feet rotate
        // -90°) it should sit near (0.7, 0.5) or (0.3, 0.5) depending on
        // orientation — find the peak and check it moved off the start.
        let mut peak = (0, 0, f64::MIN);
        for i in 0..64 {
            for j in 0..64 {
                if f.get(i, j) > peak.2 {
                    peak = (i, j, f.get(i, j));
                }
            }
        }
        let (pi, pj, pv) = peak;
        let (x, y) = (pi as f64 / 64.0, pj as f64 / 64.0);
        assert!(pv > 0.8, "peak should survive: {pv}");
        let d_from_start = ((x - 0.5_f64).powi(2) + (y - 0.3_f64).powi(2)).sqrt();
        assert!(d_from_start > 0.15, "peak did not move: ({x}, {y})");
        // Still on the rotation circle of radius 0.2.
        let r = ((x - 0.5_f64).powi(2) + (y - 0.5_f64).powi(2)).sqrt();
        assert!((r - 0.2).abs() < 0.05, "peak off the circle: r = {r}");
    }

    #[test]
    fn mass_approximately_conserved() {
        let mut rot = Rotation2D::new(48, 5, 0.1).unwrap();
        let mut f = rot.init_field(|x, y| blob(x, y) + 0.2);
        let m0 = rot.mass(&f);
        for _ in 0..20 {
            rot.step(&Parallel, &mut f).unwrap();
        }
        let m1 = rot.mass(&f);
        assert!(((m1 - m0) / m0).abs() < 1e-3, "{m0} -> {m1}");
    }

    #[test]
    fn higher_degree_rotates_more_accurately() {
        let mut errs = Vec::new();
        for degree in [3usize, 5] {
            let steps = 18;
            let mut rot =
                Rotation2D::new(48, degree, std::f64::consts::TAU / steps as f64).unwrap();
            let mut f = rot.init_field(blob);
            let f0 = f.clone();
            for _ in 0..steps {
                rot.step(&Parallel, &mut f).unwrap();
            }
            errs.push(f.max_abs_diff(&f0));
        }
        assert!(errs[1] < errs[0], "deg5 {} vs deg3 {}", errs[1], errs[0]);
    }

    #[test]
    fn non_finite_dtheta_rejected() {
        for dtheta in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let e = Rotation2D::new(16, 3, dtheta).err();
            assert_eq!(
                e,
                Some(Error::NonFiniteInput { lane: 0, index: 0 }),
                "{dtheta}"
            );
        }
    }

    #[test]
    fn wrong_shape_rejected() {
        let mut rot = Rotation2D::new(32, 3, 0.1).unwrap();
        let mut bad = Matrix::zeros(31, 32, Layout::Left);
        assert!(rot.step(&Parallel, &mut bad).is_err());
    }
}
