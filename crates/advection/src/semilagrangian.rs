//! 1D batched semi-Lagrangian advection (the paper's Algorithm 2).

use crate::error::{Error, Result};
use pp_bsplines::PeriodicSplineSpace;
use pp_portable::{
    ExecSpace, Field, HostField, Layout, Matrix, ResidentBatch, Strided, StridedMut, LANE_WIDTH,
};
use pp_splinesolver::{
    BuilderVersion, IterativeConfig, IterativeSplineSolver, LaneReport, Solved, SplineBuilder,
    VerifiedBuilder, VerifyConfig,
};
use std::fmt;
use std::time::{Duration, Instant};

/// Which spline construction backend drives the advection — the paper's
/// Kokkos-kernels (direct) vs. Ginkgo (iterative) comparison.
// One long-lived backend per driver: the variant size gap is irrelevant.
#[allow(clippy::large_enum_variant)]
pub enum SplineBackend {
    /// Schur-complement direct builder (`pp-splinesolver::SplineBuilder`).
    Direct(SplineBuilder),
    /// Krylov iterative solver (`pp-splinesolver::IterativeSplineSolver`).
    Iterative(Box<IterativeSplineSolver>),
    /// Direct builder with per-lane verification, quarantine and the
    /// factorization fallback ladder
    /// (`pp-splinesolver::VerifiedBuilder`). Fills
    /// [`Advection1D::last_diagnostics`] each step.
    DirectVerified(Box<VerifiedBuilder>),
}

impl SplineBackend {
    /// Direct backend with a given kernel version.
    pub fn direct(space: PeriodicSplineSpace, version: BuilderVersion) -> Result<Self> {
        Ok(SplineBackend::Direct(SplineBuilder::new(space, version)?))
    }

    /// Iterative backend with a given configuration.
    pub fn iterative(space: PeriodicSplineSpace, config: IterativeConfig) -> Result<Self> {
        Ok(SplineBackend::Iterative(Box::new(
            IterativeSplineSolver::new(space, config)?,
        )))
    }

    /// Direct backend wrapped in per-lane verification (residual checks,
    /// refinement, quarantine, fallback ladder).
    pub fn direct_verified(
        space: PeriodicSplineSpace,
        version: BuilderVersion,
        config: VerifyConfig,
    ) -> Result<Self> {
        Ok(SplineBackend::DirectVerified(Box::new(
            SplineBuilder::new(space, version)?.verified(config),
        )))
    }

    fn space(&self) -> &PeriodicSplineSpace {
        match self {
            SplineBackend::Direct(b) => b.space(),
            SplineBackend::Iterative(s) => s.space(),
            SplineBackend::DirectVerified(b) => b.builder().space(),
        }
    }

    /// Short label for benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            SplineBackend::Direct(_) => "kokkos-kernels",
            SplineBackend::Iterative(_) => "ginkgo",
            SplineBackend::DirectVerified(_) => "kokkos-kernels-verified",
        }
    }
}

/// What the verified spline backend observed during one advection step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdvectionDiagnostics {
    /// Lanes whose input or solve was unrecoverable (zeroed and flagged).
    pub quarantined_lanes: Vec<usize>,
    /// Lanes rescued by a factorization-ladder rung.
    pub recovered_lanes: Vec<usize>,
    /// Lanes fixed by iterative refinement alone.
    pub refined_lanes: Vec<usize>,
    /// Total refinement steps spent across the batch.
    pub refinement_steps: usize,
    /// Worst relative residual over the healthy lanes.
    pub worst_residual: f64,
    /// Largest displacement the step was given, `max_j |d_j|` over its
    /// lanes: how far a characteristic foot `x_i − d_j` sits from its grid
    /// point — a CFL-style sanity figure for the semi-Lagrangian step.
    pub max_foot_displacement: f64,
}

impl AdvectionDiagnostics {
    /// `true` when no lane needed repair or quarantine.
    pub fn all_clean(&self) -> bool {
        self.quarantined_lanes.is_empty()
            && self.recovered_lanes.is_empty()
            && self.refined_lanes.is_empty()
    }

    fn from_report(report: &LaneReport, max_foot_displacement: f64) -> Self {
        AdvectionDiagnostics {
            quarantined_lanes: report.quarantined_lanes(),
            recovered_lanes: report.recovered_lanes(),
            refined_lanes: report.refined_lanes(),
            refinement_steps: report.total_refine_steps(),
            worst_residual: report.worst_residual(),
            max_foot_displacement,
        }
    }
}

impl fmt::Display for AdvectionDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} quarantined, {} recovered, {} refined ({} step(s)), \
             worst residual {:.3e}, max foot displacement {:.3e}",
            self.quarantined_lanes.len(),
            self.recovered_lanes.len(),
            self.refined_lanes.len(),
            self.refinement_steps,
            self.worst_residual,
            self.max_foot_displacement
        )
    }
}

/// Wall-clock breakdown of one advection step. There is no transpose
/// entry: on a host field Algorithm 2's line 3 is the solve's forward sweep
/// bringing the rows into its panel a few tiles of eight ahead of it, and
/// line 5 the lane walk writing its columns straight into the field, both
/// inside [`StepTimings::splines_solve`]'s region.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimings {
    /// The step's one parallel region: per block of eight lanes the spline
    /// build (the paper's `ddc_splines_solve`, line 4) and, fused with it
    /// while the coefficients are in cache, the interpolation at the
    /// characteristic feet (lines 6–10). For the `Iterative` backend it
    /// includes its Krylov region in front.
    pub splines_solve: Duration,
    /// Interpolation outside that region: the verified backend
    /// re-evaluating the lanes its serial tail repaired or quarantined.
    /// Zero on a clean step.
    pub interpolate: Duration,
}

impl StepTimings {
    /// Total step time.
    pub fn total(&self) -> Duration {
        self.splines_solve + self.interpolate
    }

    /// Accumulate another step's timings.
    pub fn accumulate(&mut self, other: &StepTimings) {
        self.splines_solve += other.splines_solve;
        self.interpolate += other.interpolate;
    }
}

/// Batched 1D constant-coefficient advection
/// `∂f/∂t + v ∂f/∂x = 0` on a periodic `x` domain: each velocity-grid
/// lane `v_j` advects independently, which is exactly the paper's
/// benchmark (§III-C, "solving the advection term along the x direction
/// while using batching along the v_x direction"). On a clamped space
/// ([`pp_bsplines::SplineSpace::clamped`]) the same step has inflow
/// boundaries: a foot outside `[x_min, x_max]` takes the spline's value at
/// the nearer end.
/// ```
/// use pp_advection::{Advection1D, SplineBackend};
/// use pp_bsplines::{Breaks, PeriodicSplineSpace};
/// use pp_portable::Parallel;
/// use pp_splinesolver::BuilderVersion;
///
/// let space = PeriodicSplineSpace::new(Breaks::uniform(32, 0.0, 1.0).unwrap(), 3).unwrap();
/// let backend = SplineBackend::direct(space, BuilderVersion::FusedSpmv).unwrap();
/// let mut adv = Advection1D::new(backend, vec![0.5, -0.5], 1e-2).unwrap();
/// let mut f = adv.init_distribution(|x, _| (std::f64::consts::TAU * x).sin());
/// let timings = adv.step(&Parallel, &mut f).unwrap();
/// assert!(timings.splines_solve > std::time::Duration::ZERO);
/// ```
pub struct Advection1D {
    backend: SplineBackend,
    /// Velocity of each batch lane.
    velocities: Vec<f64>,
    /// Interpolation grid along x (the spline interpolation points).
    x_points: Vec<f64>,
    /// The standing displacement `v_j·Δt` of each lane: the foot of the
    /// characteristic ending at `(x_i, v_j)` is `x_i − displacements[j]`
    /// (first-order backward integration, exact for constant advection),
    /// computed where it is used.
    displacements: Vec<f64>,
    /// The iterative backend's two resident coefficient stores: this
    /// step's, and the previous step's (the warm start).
    eta: Option<ResidentBatch>,
    eta_prev: Option<ResidentBatch>,
    dt: f64,
    /// Verification report of the most recent step (verified backend only).
    last_diagnostics: Option<AdvectionDiagnostics>,
}

impl Advection1D {
    /// Set up the solver for `Nv = velocities.len()` lanes and a fixed
    /// time step `dt` (use [`Advection1D::set_dt`] to change it).
    ///
    /// # Errors
    /// Rejects a non-finite `dt` or velocity with
    /// [`Error::NonFiniteInput`]: either would put every characteristic
    /// foot of a lane at NaN and every backend would then interpolate
    /// garbage. A bad `dt` poisons all lanes, so it is reported as lane 0,
    /// index 0; a bad velocity names its lane. A finite velocity and a
    /// finite `dt` whose product overflows are caught by every step
    /// instead (see [`Advection1D::step_resident`]).
    pub fn new(backend: SplineBackend, velocities: Vec<f64>, dt: f64) -> Result<Self> {
        if velocities.is_empty() {
            return Err(Error::ShapeMismatch {
                detail: "need at least one velocity lane".into(),
            });
        }
        if !dt.is_finite() {
            return Err(Error::NonFiniteInput { lane: 0, index: 0 });
        }
        if let Some(j) = velocities.iter().position(|v| !v.is_finite()) {
            return Err(Error::NonFiniteInput { lane: j, index: 0 });
        }
        Ok(Self {
            x_points: backend.space().interpolation_points(),
            backend,
            displacements: velocities.iter().map(|v| v * dt).collect(),
            velocities,
            eta: None,
            eta_prev: None,
            dt,
            last_diagnostics: None,
        })
    }

    /// Number of x points.
    pub fn nx(&self) -> usize {
        self.x_points.len()
    }

    /// Number of velocity lanes (the batch size).
    pub fn nv(&self) -> usize {
        self.velocities.len()
    }

    /// The x-direction interpolation grid.
    pub fn x_points(&self) -> &[f64] {
        &self.x_points
    }

    /// The spline space along x.
    pub fn space(&self) -> &PeriodicSplineSpace {
        self.backend.space()
    }

    /// Backend label for reports.
    pub fn backend_label(&self) -> &'static str {
        self.backend.label()
    }

    /// Verification diagnostics of the most recent step. `None` until a
    /// [`SplineBackend::DirectVerified`] step has run.
    pub fn last_diagnostics(&self) -> Option<&AdvectionDiagnostics> {
        self.last_diagnostics.as_ref()
    }

    /// Change the time step (recomputes the standing displacements).
    ///
    /// # Errors
    /// Rejects a non-finite `dt` with [`Error::NonFiniteInput`] (reported
    /// as lane 0, index 0 — a bad `dt` poisons every lane) and leaves the
    /// standing displacements untouched, so the driver stays usable.
    pub fn set_dt(&mut self, dt: f64) -> Result<()> {
        if !dt.is_finite() {
            return Err(Error::NonFiniteInput { lane: 0, index: 0 });
        }
        self.dt = dt;
        self.displacements = self.velocities.iter().map(|v| v * dt).collect();
        Ok(())
    }

    /// Initialise a distribution `f(x_i, v_j)` as a `(Nv, Nx)` row-major
    /// field (the paper keeps data row-major contiguous; lanes are rows).
    pub fn init_distribution(&self, f: impl Fn(f64, f64) -> f64) -> Matrix {
        let nv = self.nv();
        let nx = self.nx();
        Matrix::from_fn(nv, nx, Layout::Right, |j, i| {
            f(self.x_points[i], self.velocities[j])
        })
    }

    /// Advance the host field `f` — shape `(Nv, Nx)`, [`Layout::Right`],
    /// what [`Advection1D::init_distribution`] returns: lanes are rows — by
    /// one time step, in place, with the standing displacements `v_j·Δt`:
    /// lane `j`'s feet are `x_i − v_j·Δt`. Algorithm 2 verbatim in one
    /// parallel region on `exec`: eight rows of `f` are solved in the
    /// worker's panel (line 4), which the solve's forward sweep fills a few
    /// tiles of eight rows ahead of itself (line 3), and the lane walk
    /// writes each lane's interpolated values straight back into its row
    /// (lines 5–10). No slab stands behind `f`.
    ///
    /// The step is one parallel region over the field's blocks of eight
    /// lanes (DESIGN.md §14.3) — the panels of a resident slab, eight rows
    /// of a host field: a worker solves a panel where it lies, any other
    /// block in its scratch as an interleaved panel (eight rows, which the
    /// solve's forward sweep brings in a few tiles ahead of itself, or an
    /// 8 × 8 tile row, brought in whole) — for the verified backend screening it against the
    /// pristine right-hand sides, copied on the way in — and evaluates the
    /// coefficients at the feet straight back into the block while both are
    /// in cache. Neither the
    /// coefficients nor the feet ever exist as a slab. The `Iterative`
    /// backend is two regions: one solves every lane where it lies, lane by
    /// lane, into a resident coefficient store (warm-started from the
    /// previous step's), and one evaluates each block's panel of it back
    /// into the block.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] for a field of the wrong size, or a host
    /// field stored [`Layout::Left`] (its lanes are interleaved: pack it
    /// into a [`ResidentBatch`]); [`Error::NonFiniteInput`] (naming the
    /// lane, index 0) for a non-finite displacement, which would put every
    /// foot of the lane at NaN or ±∞; the `Iterative` backend's failure to
    /// converge. Every one of them is raised before a region writes `f`, so
    /// a failed step leaves `f` as it was.
    pub fn step<E: ExecSpace>(&mut self, exec: &E, f: &mut Matrix) -> Result<StepTimings> {
        if f.layout() == Layout::Left {
            let detail = format!(
                "f {:?} is stored Layout::Left, lanes must be rows",
                f.shape()
            );
            return Err(Error::ShapeMismatch { detail });
        }
        self.with_standing(|me, standing| me.advance(exec, &mut HostField::new(f), standing))
    }

    /// Advance a lane-contiguous resident slab `f` (shape `(Nx, Nv)`:
    /// rows = x, lanes = v) by one time step with the standing
    /// displacements `v_j·Δt`, through the same region as
    /// [`Advection1D::step`].
    ///
    /// The slab after this call is bit-identical to the `(Nv, Nx)` host
    /// matrix after [`Advection1D::step`], for every backend and every
    /// [`BuilderVersion`].
    ///
    /// # Errors
    /// As [`Advection1D::step`]; in particular a `v_j·Δt` that overflowed
    /// is rejected here, step after step, until [`Advection1D::set_dt`]
    /// replaces it.
    pub fn step_resident<E: ExecSpace>(
        &mut self,
        exec: &E,
        f: &mut ResidentBatch,
    ) -> Result<StepTimings> {
        self.with_standing(|me, standing| me.advance(exec, f, standing))
    }

    /// Run `step` with the standing displacements lent out of `self`.
    fn with_standing<R>(&mut self, step: impl FnOnce(&mut Self, &[f64]) -> R) -> R {
        let standing = std::mem::take(&mut self.displacements);
        let stepped = step(self, &standing);
        self.displacements = standing;
        stepped
    }

    /// **The** step, on any kind of field — every entry point is a shell
    /// over it — with *per-lane displacements*: lane `j`'s feet are
    /// `x_i − displacements[j]`. On a [`pp_portable::TiledField`] of a
    /// resident slab (shape `(Nv, Nx)`: rows are this driver's lanes, its
    /// lanes the `x` points) it advances the slab's transpose in place, each
    /// block of eight lanes being a row of its 8 × 8 tiles, transposed tile
    /// by tile into the worker's solve panel and evaluated straight back
    /// into its tile rows: the result is that of
    /// [`ResidentBatch::transpose_into`], then this step on the transposed
    /// slab, then `transpose_into` back, bit for bit, and the slab's padding
    /// lanes are never read or written.
    ///
    /// # Errors
    /// As [`Advection1D::step`], and [`Error::ShapeMismatch`] for a
    /// displacement vector of the wrong length.
    pub(crate) fn advance<E: ExecSpace, B: Field>(
        &mut self,
        exec: &E,
        f: &mut B,
        displacements: &[f64],
    ) -> Result<StepTimings> {
        let (nv, nx) = (self.nv(), self.nx());
        if f.shape() != (nx, nv) {
            let (rows, lanes) = f.shape();
            let detail = format!("field has {lanes} lanes of {rows} points, expected {nv} of {nx}");
            return Err(Error::ShapeMismatch { detail });
        }
        if displacements.len() != nv {
            return Err(Error::ShapeMismatch {
                detail: format!("{} displacements for {nv} lanes", displacements.len()),
            });
        }
        if let Some(j) = displacements.iter().position(|d| !d.is_finite()) {
            return Err(Error::NonFiniteInput { lane: j, index: 0 });
        }
        let mut t = StepTimings::default();

        let space = self.backend.space();
        let points = &self.x_points[..];
        // Lines 6-10 on one block: follow the characteristics back and
        // interpolate, lane by lane, into where the field keeps the lane.
        let interpolate = |chunk: usize, lanes: usize, solved: Solved<'_>| {
            // Lane `l`'s feet are `x_i − d_l`, formed in the walk's registers.
            let feet = |l: usize| (points, displacements[chunk * LANE_WIDTH + l]);
            match solved {
                Solved::InPlace(panel) => space.eval_panel(None, lanes, feet, panel),
                Solved::Apart { coefs, block } => space.eval_columns(coefs, feet, block),
            }
        };

        // Line 4 and lines 6-10, block by block (the measured region).
        let t0 = Instant::now();
        match &self.backend {
            SplineBackend::Direct(builder) => builder.solve_then(exec, f, interpolate)?,
            SplineBackend::DirectVerified(builder) => {
                let mut tail = Duration::ZERO;
                let report = builder.solve_then(exec, f, interpolate, |lane, coefs, out| {
                    let t0 = Instant::now();
                    let d = displacements[lane];
                    let feet: Vec<f64> = points.iter().map(|x| x - d).collect();
                    let (coefs, feet) = (Strided::from_slice(coefs), Strided::from_slice(&feet));
                    space.eval_lane(coefs, feet, StridedMut::from_slice(out));
                    tail += t0.elapsed();
                })?;
                t.interpolate = tail;
                // Every foot of lane `j` is `x_i − d_j`: the lane's feet
                // are `|d_j|` from their grid points, whatever `i`.
                let max_disp = displacements.iter().fold(0.0, |m: f64, d| m.max(d.abs()));
                self.last_diagnostics = Some(AdvectionDiagnostics::from_report(&report, max_disp));
            }
            SplineBackend::Iterative(solver) => {
                let mut eta = self
                    .eta
                    .take()
                    .unwrap_or_else(|| ResidentBatch::zeros(nx, nv));
                let prev = self.eta_prev.as_ref();
                if let Err(e) = solver.solve_then(exec, f, &mut eta, prev, interpolate) {
                    self.eta = Some(eta);
                    return Err(e.into());
                }
                // These coefficients warm-start the next step; the ones
                // they replace become its store.
                self.eta = self.eta_prev.replace(eta);
            }
        }
        t.splines_solve = t0.elapsed() - t.interpolate;
        Ok(t)
    }

    /// Total mass `Σ f` (a conserved quantity of periodic advection up to
    /// spline interpolation error; used by tests and examples).
    pub fn mass(&self, f: &Matrix) -> f64 {
        f.as_slice().iter().sum()
    }

    /// Analytic solution of constant advection after `steps` steps for an
    /// initial profile `f0(x, v)` — for accuracy checks.
    pub fn analytic(&self, f0: impl Fn(f64, f64) -> f64, steps: usize) -> Matrix {
        let t = self.dt * steps as f64;
        self.init_distribution(|x, v| f0(x - v * t, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_bsplines::{Breaks, SplineSpace};
    use pp_portable::{CountingExec, Parallel, Serial, TiledField};
    use pp_splinesolver::SplineEvaluator;

    fn gaussian(x: f64, _v: f64) -> f64 {
        let d = x - 0.5;
        (-d * d / 0.005).exp()
    }

    fn make(nx: usize, nv: usize, degree: usize, version: BuilderVersion) -> Advection1D {
        let space =
            PeriodicSplineSpace::new(Breaks::uniform(nx, 0.0, 1.0).unwrap(), degree).unwrap();
        let velocities: Vec<f64> = (0..nv).map(|j| 0.2 + 0.05 * j as f64).collect();
        let backend = SplineBackend::direct(space, version).unwrap();
        Advection1D::new(backend, velocities, 1e-2).unwrap()
    }

    #[test]
    fn advection_tracks_analytic_solution() {
        let mut adv = make(128, 4, 3, BuilderVersion::FusedSpmv);
        let mut f = adv.init_distribution(gaussian);
        let steps = 25;
        for _ in 0..steps {
            adv.step(&Parallel, &mut f).unwrap();
        }
        let exact = adv.analytic(gaussian, steps);
        let err = f.max_abs_diff(&exact);
        assert!(err < 5e-3, "advection error {err}");
    }

    #[test]
    fn mass_is_conserved() {
        let mut adv = make(64, 6, 3, BuilderVersion::Fused);
        let mut f = adv.init_distribution(|x, v| gaussian(x, v) + 0.1);
        let m0 = adv.mass(&f);
        for _ in 0..50 {
            adv.step(&Parallel, &mut f).unwrap();
        }
        let m1 = adv.mass(&f);
        assert!(((m1 - m0) / m0).abs() < 1e-10, "mass drifted: {m0} -> {m1}");
    }

    #[test]
    fn one_period_returns_to_start() {
        // With v·dt·steps == period, the exact solution is the initial
        // condition; spline error accumulates but stays small.
        let space = PeriodicSplineSpace::new(Breaks::uniform(128, 0.0, 1.0).unwrap(), 5).unwrap();
        let backend = SplineBackend::direct(space, BuilderVersion::FusedSpmv).unwrap();
        let mut adv = Advection1D::new(backend, vec![1.0], 0.01).unwrap();
        let mut f = adv.init_distribution(gaussian);
        let f0 = f.clone();
        for _ in 0..100 {
            adv.step(&Parallel, &mut f).unwrap();
        }
        assert!(f.max_abs_diff(&f0) < 1e-2, "{}", f.max_abs_diff(&f0));
    }

    #[test]
    fn higher_degree_is_more_accurate() {
        let mut errs = Vec::new();
        for degree in [3, 5] {
            let mut adv = make(64, 1, degree, BuilderVersion::FusedSpmv);
            let mut f = adv.init_distribution(|x, _| (std::f64::consts::TAU * x).sin());
            for _ in 0..20 {
                adv.step(&Serial, &mut f).unwrap();
            }
            let exact = adv.analytic(|x, _| (std::f64::consts::TAU * x).sin(), 20);
            errs.push(f.max_abs_diff(&exact));
        }
        assert!(
            errs[1] < errs[0],
            "deg5 {} should beat deg3 {}",
            errs[1],
            errs[0]
        );
    }

    #[test]
    fn negative_velocity_moves_left() {
        let mut adv = Advection1D::new(
            SplineBackend::direct(
                PeriodicSplineSpace::new(Breaks::uniform(128, 0.0, 1.0).unwrap(), 3).unwrap(),
                BuilderVersion::FusedSpmv,
            )
            .unwrap(),
            vec![-0.5],
            0.02,
        )
        .unwrap();
        let mut f = adv.init_distribution(gaussian);
        for _ in 0..10 {
            adv.step(&Serial, &mut f).unwrap();
        }
        // Peak should now be near x = 0.5 − 0.5·0.2 = 0.4.
        let mut best = (0, f64::MIN);
        for i in 0..128 {
            if f.get(0, i) > best.1 {
                best = (i, f.get(0, i));
            }
        }
        let peak_x = adv.x_points()[best.0];
        assert!((peak_x - 0.4).abs() < 0.02, "peak at {peak_x}");
    }

    #[test]
    fn timings_are_populated() {
        let mut adv = make(64, 8, 3, BuilderVersion::Baseline);
        let mut f = adv.init_distribution(gaussian);
        let t = adv.step(&Parallel, &mut f).unwrap();
        assert!(t.total() > Duration::ZERO);
        assert!(t.splines_solve > Duration::ZERO);
        let mut acc = StepTimings::default();
        acc.accumulate(&t);
        acc.accumulate(&t);
        assert_eq!(acc.total(), t.total() * 2);
    }

    #[test]
    fn verified_backend_matches_direct_and_reports_clean() {
        let space = PeriodicSplineSpace::new(Breaks::uniform(48, 0.0, 1.0).unwrap(), 3).unwrap();
        let velocities = vec![0.3, -0.2, 0.7];
        let mut adv_d = Advection1D::new(
            SplineBackend::direct(space.clone(), BuilderVersion::FusedSpmv).unwrap(),
            velocities.clone(),
            0.02,
        )
        .unwrap();
        let mut adv_v = Advection1D::new(
            SplineBackend::direct_verified(
                space,
                BuilderVersion::FusedSpmv,
                pp_splinesolver::VerifyConfig::default(),
            )
            .unwrap(),
            velocities,
            0.02,
        )
        .unwrap();
        assert_eq!(adv_v.backend_label(), "kokkos-kernels-verified");
        assert!(adv_v.last_diagnostics().is_none());

        let mut fd = adv_d.init_distribution(gaussian);
        let mut fv = fd.clone();
        for _ in 0..5 {
            adv_d.step(&Parallel, &mut fd).unwrap();
            adv_v.step(&Parallel, &mut fv).unwrap();
        }
        // Healthy lanes are bit-identical to the unverified direct path.
        assert_eq!(fd.max_abs_diff(&fv), 0.0);

        let diag = adv_v.last_diagnostics().unwrap();
        assert!(diag.all_clean(), "{diag}");
        assert!(diag.worst_residual < 1e-11);
        // max |v·dt| = 0.7 * 0.02.
        assert!((diag.max_foot_displacement - 0.014).abs() < 1e-12);
    }

    #[test]
    fn verified_backend_quarantines_poisoned_lane() {
        let space = PeriodicSplineSpace::new(Breaks::uniform(32, 0.0, 1.0).unwrap(), 3).unwrap();
        let mut adv = Advection1D::new(
            SplineBackend::direct_verified(
                space,
                BuilderVersion::FusedSpmv,
                pp_splinesolver::VerifyConfig::default(),
            )
            .unwrap(),
            vec![0.2, 0.3, 0.4],
            0.01,
        )
        .unwrap();
        let mut f = adv.init_distribution(gaussian);
        f.set(1, 10, f64::NAN); // poison lane 1 (lanes are rows of f)
        adv.step(&Parallel, &mut f).unwrap();
        let diag = adv.last_diagnostics().unwrap().clone();
        assert_eq!(diag.quarantined_lanes, vec![1]);
        // The poison was contained: every output value is finite, and the
        // healthy lanes advected normally.
        assert!(f.as_slice().iter().all(|v| v.is_finite()));
        let s = diag.to_string();
        assert!(s.contains("1 quarantined"), "{s}");
    }

    #[test]
    fn set_dt_changes_feet() {
        let mut adv = make(32, 1, 3, BuilderVersion::Fused);
        let mut f1 = adv.init_distribution(gaussian);
        let mut f2 = f1.clone();
        adv.step(&Serial, &mut f1).unwrap();
        adv.set_dt(2e-2).unwrap();
        adv.step(&Serial, &mut f2).unwrap();
        assert!(f1.max_abs_diff(&f2) > 1e-6, "dt change must alter the step");
    }

    #[test]
    fn non_finite_dt_rejected_on_every_backend() {
        let space = PeriodicSplineSpace::new(Breaks::uniform(32, 0.0, 1.0).unwrap(), 3).unwrap();
        let backends: Vec<SplineBackend> = vec![
            SplineBackend::direct(space.clone(), BuilderVersion::FusedSpmv).unwrap(),
            SplineBackend::direct_verified(
                space,
                BuilderVersion::FusedSpmv,
                pp_splinesolver::VerifyConfig::default(),
            )
            .unwrap(),
        ];
        for (backend, bad) in backends.into_iter().zip([f64::NAN, f64::INFINITY]) {
            let err = Advection1D::new(backend, vec![0.1, 0.2], bad)
                .map(|_| ())
                .unwrap_err();
            assert_eq!(err, Error::NonFiniteInput { lane: 0, index: 0 });
        }
    }

    #[test]
    fn non_finite_set_dt_rejected_and_driver_stays_usable() {
        let mut adv = make(32, 2, 3, BuilderVersion::FusedSpmv);
        let mut f = adv.init_distribution(gaussian);
        let reference = {
            let mut adv2 = make(32, 2, 3, BuilderVersion::FusedSpmv);
            let mut f2 = f.clone();
            adv2.step(&Serial, &mut f2).unwrap();
            f2
        };
        let err = adv.set_dt(f64::NAN).unwrap_err();
        assert_eq!(err, Error::NonFiniteInput { lane: 0, index: 0 });
        let err = adv.set_dt(f64::NEG_INFINITY).unwrap_err();
        assert_eq!(err, Error::NonFiniteInput { lane: 0, index: 0 });
        // The rejected set_dt must not have touched dt or the feet: the
        // next step matches an untouched driver bitwise.
        adv.step(&Serial, &mut f).unwrap();
        assert_eq!(f.max_abs_diff(&reference), 0.0);
    }

    #[test]
    fn non_finite_velocity_rejected() {
        let space = PeriodicSplineSpace::new(Breaks::uniform(32, 0.0, 1.0).unwrap(), 3).unwrap();
        let backend = SplineBackend::direct(space, BuilderVersion::FusedSpmv).unwrap();
        let err = Advection1D::new(backend, vec![0.1, f64::NEG_INFINITY, 0.3], 1e-2)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, Error::NonFiniteInput { lane: 1, index: 0 });
    }

    /// The feet are computed where they are used, so there is nothing to go
    /// stale: the reported displacement must be the largest one this step
    /// was given, on both entry points, whoever supplied them.
    #[test]
    fn foot_displacement_follows_every_step() {
        let space = PeriodicSplineSpace::new(Breaks::uniform(32, 0.0, 1.0).unwrap(), 3).unwrap();
        let backend = SplineBackend::direct_verified(
            space,
            BuilderVersion::FusedSpmv,
            pp_splinesolver::VerifyConfig::default(),
        )
        .unwrap();
        let mut adv = Advection1D::new(backend, vec![0.3, -0.2, 0.7], 0.02).unwrap();
        // The largest displacement the step was given.
        let fresh_max =
            |_: &Advection1D, disp: &[f64]| disp.iter().fold(0.0_f64, |m, d| m.max(d.abs()));
        let max_of = |adv: &Advection1D| adv.last_diagnostics().unwrap().max_foot_displacement;

        let standing: Vec<f64> = [0.3, -0.2, 0.7].iter().map(|v| v * 0.02).collect();
        let mut f = adv.init_distribution(gaussian);
        let mut slab = ResidentBatch::pack_transposed(&f);
        for _ in 0..2 {
            adv.step(&Serial, &mut f).unwrap();
            assert_eq!(max_of(&adv).to_bits(), fresh_max(&adv, &standing).to_bits());
            adv.step_resident(&Parallel, &mut slab).unwrap();
            assert_eq!(max_of(&adv).to_bits(), fresh_max(&adv, &standing).to_bits());
        }
        // Displaced steps see their own feet, and the standing ones return.
        let shifted = [0.05, -0.11, 0.002];
        adv.advance(&Serial, &mut HostField::new(&mut f), &shifted)
            .unwrap();
        assert_eq!(max_of(&adv).to_bits(), fresh_max(&adv, &shifted).to_bits());
        adv.advance(&Parallel, &mut slab, &shifted).unwrap();
        assert_eq!(max_of(&adv).to_bits(), fresh_max(&adv, &shifted).to_bits());
        adv.step(&Serial, &mut f).unwrap();
        assert_eq!(max_of(&adv).to_bits(), fresh_max(&adv, &standing).to_bits());
    }

    /// `v·Δt` overflows in lane 1 although `v` and `Δt` are finite: on
    /// every backend every step is rejected the same way, before it touches
    /// the distribution, until `set_dt` rewrites the displacements.
    #[test]
    fn overflowing_displacement_rejected_on_every_backend() {
        let space = PeriodicSplineSpace::new(Breaks::uniform(32, 0.0, 1.0).unwrap(), 3).unwrap();
        let backends = [
            SplineBackend::direct(space.clone(), BuilderVersion::FusedSpmv).unwrap(),
            SplineBackend::direct_verified(
                space.clone(),
                BuilderVersion::FusedSpmv,
                VerifyConfig::default(),
            )
            .unwrap(),
            SplineBackend::iterative(space, IterativeConfig::gpu()).unwrap(),
        ];
        for backend in backends {
            let what = backend.label();
            let mut adv = Advection1D::new(backend, vec![0.5, 1e200], 1e200).unwrap();
            let mut f = adv.init_distribution(gaussian);
            let mut slab = ResidentBatch::pack_transposed(&f);
            let untouched = f.clone();
            let bad = Error::NonFiniteInput { lane: 1, index: 0 };
            for _ in 0..2 {
                assert_eq!(adv.step(&Serial, &mut f).unwrap_err(), bad, "{what}");
                let rejected = adv.step_resident(&Parallel, &mut slab).unwrap_err();
                assert_eq!(rejected, bad, "{what}");
            }
            assert_bits(&untouched, &f, what);
            assert_bits(&untouched, &unpacked(&slab), what);
            adv.set_dt(1e-200).unwrap();
            adv.step(&Serial, &mut f).unwrap();
            adv.step_resident(&Parallel, &mut slab).unwrap();
            assert!(f.as_slice().iter().all(|v| v.is_finite()), "{what}");
            assert_bits(&f, &unpacked(&slab), what);
        }
    }

    /// Every backend the table tests run: `Direct` and
    /// `DirectVerified` under every builder version, and `Iterative`.
    fn every_backend(space: &PeriodicSplineSpace) -> Vec<(String, SplineBackend)> {
        let verify = VerifyConfig {
            abft: true,
            ..VerifyConfig::default()
        };
        let mut backends = Vec::new();
        for version in BuilderVersion::ALL {
            let direct = SplineBackend::direct(space.clone(), version);
            let verified = SplineBackend::direct_verified(space.clone(), version, verify.clone());
            for backend in [direct, verified] {
                let backend = backend.unwrap();
                backends.push((format!("{} {version:?}", backend.label()), backend));
            }
        }
        let iterative = SplineBackend::iterative(space.clone(), IterativeConfig::gpu()).unwrap();
        backends.push((iterative.label().to_string(), iterative));
        backends
    }

    /// Regions one step of `backend` makes: one for the direct backends,
    /// two for the Krylov one, which solves every lane before any lands.
    fn regions_per_step(backend: &SplineBackend) -> usize {
        1 + matches!(backend, SplineBackend::Iterative(_)) as usize
    }

    /// The step's shape: one parallel region (two on the Krylov backend,
    /// [`regions_per_step`]) on every kind of field — host rows with
    /// standing or supplied displacements, a resident slab, a slab's tiles
    /// — whatever the builder version (`Baseline`'s four regions are an
    /// ablation of the solve alone) and with or without verification:
    /// solve, screen and interpolation ride the same panel, and Algorithm
    /// 2's two transposes are the gather at the top of a block's turn and
    /// the lane walk's egress, not regions of their own.
    #[test]
    fn every_step_is_one_region() {
        let space = PeriodicSplineSpace::new(Breaks::uniform(32, 0.0, 1.0).unwrap(), 3).unwrap();
        let velocities: Vec<f64> = (0..5 * LANE_WIDTH + 3).map(|j| 0.01 * j as f64).collect();
        let shifted: Vec<f64> = velocities.iter().map(|v| 0.3 - v).collect();
        for (what, backend) in every_backend(&space) {
            let regions = regions_per_step(&backend);
            let mut adv = Advection1D::new(backend, velocities.clone(), 1e-2).unwrap();
            let mut f = adv.init_distribution(gaussian);
            let mut slab = ResidentBatch::pack_transposed(&f);
            let mut tiles = ResidentBatch::pack(&f);
            for _ in 0..2 {
                let exec: [CountingExec; 4] = Default::default();
                adv.step(&exec[0], &mut f).unwrap();
                adv.advance(&exec[1], &mut HostField::new(&mut f), &shifted)
                    .unwrap();
                adv.step_resident(&exec[2], &mut slab).unwrap();
                let mut tiled = TiledField::new(&mut tiles);
                adv.with_standing(|me, d| me.advance(&exec[3], &mut tiled, d))
                    .unwrap();
                for (field, exec) in ["host", "displaced", "resident", "tiled"].iter().zip(&exec) {
                    assert_eq!(exec.regions(), regions, "{what} {field}");
                }
            }
        }
    }

    /// The spaces the table tests step on: uniform cubic and graded quintic
    /// periodic spaces, and a clamped one whose feet leave the domain.
    fn table_spaces() -> [PeriodicSplineSpace; 3] {
        let uniform = Breaks::uniform(32, 0.0, 1.0).unwrap();
        let graded = Breaks::graded(32, 0.0, 1.0, 0.6).unwrap();
        [
            PeriodicSplineSpace::new(uniform, 3).unwrap(),
            PeriodicSplineSpace::new(graded.clone(), 5).unwrap(),
            SplineSpace::clamped(graded, 3).unwrap(),
        ]
    }

    /// A step that fails has not touched the field: every error is raised
    /// before a region writes it — the shape and displacement checks on
    /// every backend and kind of field, the Krylov solve's verdict between
    /// its two regions, on both a host and a resident field.
    #[test]
    fn rejected_host_step_leaves_the_field_untouched() {
        let space = PeriodicSplineSpace::new(Breaks::uniform(48, 0.0, 1.0).unwrap(), 3).unwrap();
        let velocities = vec![0.3, -0.2, 0.7];
        for (what, backend) in every_backend(&space) {
            let mut adv = Advection1D::new(backend, velocities.clone(), 0.02).unwrap();
            let mut f = adv.init_distribution(gaussian);
            let untouched = f.clone();
            let mut wrong = Matrix::zeros(4, 48, Layout::Right);
            wrong.fill(1.5);
            let rejected = adv.step(&Parallel, &mut wrong).unwrap_err();
            assert!(matches!(rejected, Error::ShapeMismatch { .. }), "{what}");
            assert!(wrong.as_slice().iter().all(|v| *v == 1.5), "{what}");
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let rejected = adv
                    .advance(&Parallel, &mut HostField::new(&mut f), &[0.01, bad, 0.01])
                    .unwrap_err();
                assert_eq!(rejected, Error::NonFiniteInput { lane: 1, index: 0 });
                assert_bits(&untouched, &f, &format!("{what} displacement {bad}"));
            }
            let rejected = adv.advance(&Parallel, &mut HostField::new(&mut f), &[0.01; 2]);
            assert!(
                matches!(rejected, Err(Error::ShapeMismatch { .. })),
                "{what}"
            );
            assert_bits(&untouched, &f, &what);
            // A slab transposed by mistake, stepped resident and tiled.
            let mut transposed = ResidentBatch::zeros(3, 48);
            let rejected = adv.step_resident(&Parallel, &mut transposed);
            assert!(
                matches!(rejected, Err(Error::ShapeMismatch { .. })),
                "{what}"
            );
            let mut transposed = ResidentBatch::zeros(48, 3);
            let mut tiles = TiledField::new(&mut transposed);
            let rejected = adv.with_standing(|me, d| me.advance(&Parallel, &mut tiles, d));
            assert!(
                matches!(rejected, Err(Error::ShapeMismatch { .. })),
                "{what}"
            );
            // The driver stays usable, on either kind of field.
            adv.step(&Parallel, &mut f).unwrap();
            adv.step_resident(&Parallel, &mut ResidentBatch::pack_transposed(&f))
                .unwrap();
        }
        // A Krylov solve capped at one iteration does not converge.
        let mut capped = IterativeConfig::gpu();
        capped.stop.max_iters = 1;
        let backend = SplineBackend::iterative(space, capped).unwrap();
        let mut adv = Advection1D::new(backend, velocities, 0.02).unwrap();
        let mut f = adv.init_distribution(gaussian);
        let untouched = f.clone();
        let mut slab = ResidentBatch::pack_transposed(&f);
        use pp_splinesolver::Error::NotConverged;
        for _ in 0..2 {
            let rejected = adv.step(&Parallel, &mut f).unwrap_err();
            assert!(
                matches!(rejected, Error::Spline(NotConverged { .. })),
                "{rejected}"
            );
            assert_bits(&untouched, &f, "not converged");
            let rejected = adv.step_resident(&Parallel, &mut slab).unwrap_err();
            assert!(
                matches!(rejected, Error::Spline(NotConverged { .. })),
                "{rejected}"
            );
            assert_bits(&untouched, &unpacked(&slab), "not converged resident");
        }
    }

    /// The `(Nv, Nx)` host field `slab` holds: its transpose, unpacked.
    fn unpacked(slab: &ResidentBatch) -> Matrix {
        let mut f = Matrix::zeros(slab.ncols(), slab.nrows(), Layout::Right);
        slab.unpack_transposed_into(&mut f)
            .expect("shape of the slab");
        f
    }

    fn assert_bits(want: &Matrix, got: &Matrix, what: &str) {
        assert_eq!(want.shape(), got.shape(), "{what}");
        for j in 0..want.nrows() {
            for i in 0..want.ncols() {
                assert_eq!(
                    want.get(j, i).to_bits(),
                    got.get(j, i).to_bits(),
                    "{what}: lane {j}, x {i}"
                );
            }
        }
    }

    /// What the tiled slab's padding lanes hold in the table test: a NaN no
    /// value of the step equals, so a padding lane read into a lane, or
    /// written over, shows in the bits.
    const SENTINEL: f64 = f64::from_bits(0x7ff8_dead_0000_0000);

    /// `batch` with [`SENTINEL`] in its padding lanes.
    fn with_sentinel(mut batch: ResidentBatch) -> ResidentBatch {
        let live = batch.ncols();
        for c in 0..batch.num_chunks() {
            for (k, v) in batch.chunk_mut(c).iter_mut().enumerate() {
                if c * LANE_WIDTH + k % LANE_WIDTH >= live {
                    *v = SENTINEL;
                }
            }
        }
        batch
    }

    /// Every value of `batch`, padding lanes included, as bits.
    fn slab_bits(batch: &ResidentBatch) -> Vec<u64> {
        let chunks = (0..batch.num_chunks()).flat_map(|c| batch.chunk(c));
        chunks.map(|v| v.to_bits()).collect()
    }

    /// The independent oracle: Algorithm 2 composed from public layer
    /// calls on host matrices — transpose, the version's `solve_in_place`
    /// (the Krylov solver's, warm-started from the previous step's
    /// coefficients, for `Iterative`), `eval_batched`, transpose — none of
    /// which the step goes through. Every backend of [`every_backend`]
    /// reproduces it bit for bit, three steps in a row, under both
    /// execution spaces, on every kind of field: the `(Nv, Nx)` host matrix
    /// (`step`), the resident slab of its transpose (`step_resident`) and
    /// the slab of the matrix itself stepped across its lanes through its
    /// tiles (`advance` on a [`TiledField`], the Vlasov v-advection's path).
    /// The tiled slab holds [`SENTINEL`] in its padding lanes, which come
    /// out untouched, and the three fields' verification reports are equal
    /// and clean. The spaces are [`table_spaces`] (the clamped one leaves a
    /// partial last chunk of the tiled slab); 1 lane is a lone partial
    /// block, and 43 are five full blocks and a partial one, which the runs
    /// of `Serial` (4 + 2) and of a 2- or 4-thread pool (3 + 3, 2 + 2 + 2)
    /// put in a run with full blocks. The direct and
    /// Krylov answers agree to 1e-9, and a `Layout::Left` host field is
    /// refused untouched.
    #[test]
    fn step_matches_algorithm_2_composed_from_layer_calls() {
        check_algorithm_2(&Serial);
        check_algorithm_2(&Parallel);
    }

    /// [`step_matches_algorithm_2_composed_from_layer_calls`] on `exec`.
    fn check_algorithm_2<E: ExecSpace>(exec: &E) {
        use pp_portable::transpose_into_with;
        for space in table_spaces() {
            let (nx, dt) = (space.num_basis(), 1e-2);
            let evaluator = SplineEvaluator::new(space.clone());
            let points = space.interpolation_points();
            for nv in [1usize, 43] {
                let what = format!(
                    "{} degree {} periodic {} nv {nv}",
                    exec.name(),
                    space.degree(),
                    space.is_periodic()
                );
                let velocities: Vec<f64> = (0..nv).map(|j| 0.2 - 0.05 * j as f64).collect();
                let feet =
                    Matrix::from_fn(nx, nv, Layout::Left, |i, j| points[i] - velocities[j] * dt);
                let f0 = Matrix::from_fn(nv, nx, Layout::Right, |j, i| {
                    gaussian(points[i], velocities[j])
                });
                // Three steps of the oracle with the solve `solve`.
                let layers = |solve: &mut dyn FnMut(&mut Matrix)| -> Vec<Matrix> {
                    let mut f = f0.clone();
                    let mut eta = Matrix::zeros(nx, nv, Layout::Left);
                    let mut interp = Matrix::zeros(nx, nv, Layout::Left);
                    (0..3)
                        .map(|_| {
                            transpose_into_with(exec, &f, &mut eta).unwrap();
                            solve(&mut eta);
                            evaluator
                                .eval_batched(exec, &eta, &feet, &mut interp)
                                .unwrap();
                            transpose_into_with(exec, &interp, &mut f).unwrap();
                            f.clone()
                        })
                        .collect()
                };
                // One oracle per backend, in `every_backend`'s order: each
                // version twice (plain, verified), then the Krylov solver.
                let mut oracles = Vec::new();
                for version in BuilderVersion::ALL {
                    let builder = SplineBuilder::new(space.clone(), version).unwrap();
                    let want = layers(&mut |eta| builder.solve_in_place(exec, eta).unwrap());
                    oracles.extend([want.clone(), want]);
                }
                let krylov = IterativeSplineSolver::new(space.clone(), IterativeConfig::gpu());
                let krylov = krylov.unwrap();
                let mut prev: Option<Matrix> = None;
                oracles.push(layers(&mut |eta| {
                    krylov.solve_in_place(eta, prev.as_ref()).unwrap();
                    prev = Some(eta.clone());
                }));
                let direct = &oracles[0][2];
                let diff = direct.max_abs_diff(&oracles[oracles.len() - 1][2]);
                assert!(diff < 1e-9, "{what}: direct vs iterative {diff}");

                let backends = every_backend(&space).into_iter();
                let backends = backends
                    .zip(every_backend(&space))
                    .zip(every_backend(&space));
                for ((((name, host), (_, resident)), (_, tiled)), want) in backends.zip(&oracles) {
                    let what = format!("{what} {name}");
                    let new = |backend| Advection1D::new(backend, velocities.clone(), dt).unwrap();
                    let (mut adv_h, mut adv_r, mut adv_t) = (new(host), new(resident), new(tiled));
                    let mut f = f0.clone();
                    let mut slab = ResidentBatch::pack_transposed(&f0);
                    let mut tiles = with_sentinel(ResidentBatch::pack(&f0));
                    for (step, want) in want.iter().enumerate() {
                        let what = format!("{what} step {step}");
                        adv_h.step(exec, &mut f).unwrap();
                        adv_r.step_resident(exec, &mut slab).unwrap();
                        let mut tiled = TiledField::new(&mut tiles);
                        adv_t
                            .with_standing(|me, d| me.advance(exec, &mut tiled, d))
                            .unwrap();
                        assert_bits(want, &f, &what);
                        assert_bits(want, &unpacked(&slab), &format!("{what} resident"));
                        let want_tiles = with_sentinel(ResidentBatch::pack(want));
                        assert_eq!(slab_bits(&tiles), slab_bits(&want_tiles), "{what} tiled");
                        let report = adv_h.last_diagnostics();
                        assert_eq!(report, adv_r.last_diagnostics(), "{what} resident");
                        assert_eq!(report, adv_t.last_diagnostics(), "{what} tiled");
                        assert!(report.is_none_or(|r| r.all_clean()), "{what}");
                    }
                    let mut left = f.to_layout(Layout::Left);
                    let refused = adv_h.step(exec, &mut left).unwrap_err();
                    assert!(matches!(refused, Error::ShapeMismatch { .. }), "{what}");
                    assert_bits(&f, &left, &format!("{what} refused"));
                }
            }
        }
    }
}
