//! A 1D1V Vlasov–Poisson mini-solver — the physics GYSELA's advection
//! kernels exist to serve, reduced to the smallest self-consistent system.
//!
//! Strang splitting of the Vlasov equation (1):
//! half-step `x`-advection (velocity `v`), Poisson solve for `E`, full
//! `v`-advection (acceleration `−E`), half-step `x`-advection. Both
//! advections are the batched semi-Lagrangian kernel of
//! [`Advection1D`] — so the spline
//! builder runs in *both* batch orientations every step, exactly the
//! workload shape the paper describes for the full 5D code.
//!
//! The `v` domain is truncated at `±v_max` and treated periodically; with
//! `f ≈ 0` near the cut this is the standard benign approximation for
//! two-stream-instability demos.

use std::path::PathBuf;

use crate::error::{Error, Result};
use crate::semilagrangian::{Advection1D, AdvectionDiagnostics, SplineBackend};
use pp_bsplines::{Breaks, PeriodicSplineSpace};
use pp_portable::{ExecSpace, Layout, Matrix, ResidentBatch, Serial, TiledField, LANE_WIDTH};
use pp_splinesolver::{BuilderVersion, CheckpointStore, Snapshot, VerifyConfig};

/// Self-consistent 1D1V Vlasov–Poisson solver on a doubly periodic
/// `(x, v)` grid.
///
/// The distribution lives in interleaved panels, in the x-advection's
/// orientation — the v-advection reads and writes their 8 × 8 tiles — and
/// stays packed across steps.
/// The host matrix behind [`VlasovPoisson1D1V::distribution`] is a mirror
/// of it, refreshed by [`VlasovPoisson1D1V::step`] and
/// [`VlasovPoisson1D1V::sync_host`].
pub struct VlasovPoisson1D1V {
    adv_x: Advection1D,
    adv_v: Advection1D,
    /// The distribution, `(Nx, Nv)` — rows x, lanes v: the x-advection
    /// orientation, which the v-advection advances through its tiles.
    f_xv: ResidentBatch,
    /// Host mirror `f(v_j, x_i)`, shape `(Nv, Nx)`, row-major.
    f: Matrix,
    /// Whether `f` holds what `f_xv` does: cleared before a step touches
    /// the slab, set where the two are made equal.
    f_current: bool,
    x_grid: Vec<f64>,
    v_grid: Vec<f64>,
    dx: f64,
    dv: f64,
    dt: f64,
    /// Latest electric field `E(x_i)`.
    e_field: Vec<f64>,
    /// Scratch of the field solve: the charge density, as
    /// [`density_into`] lays it out.
    rho: Matrix,
    /// Scratch: the v-advection's per-lane displacement `−E(x_i)·Δt`.
    disp: Vec<f64>,
    /// Completed Strang steps since construction or restore.
    step_index: u64,
    /// Run seed recorded in checkpoints (RNG / chaos-harness seed), so a
    /// resumed run replays the same injected-fault schedule.
    seed: u64,
    /// Periodic checkpointing: `(store, every-n-steps)`.
    checkpoint: Option<(CheckpointStore, u64)>,
}

impl VlasovPoisson1D1V {
    /// Build the solver: `nx × nv` grid over `[0, lx) × [−v_max, v_max)`,
    /// spline degree `degree`, time step `dt`.
    pub fn new(
        nx: usize,
        nv: usize,
        lx: f64,
        v_max: f64,
        degree: usize,
        dt: f64,
        f0: impl Fn(f64, f64) -> f64,
    ) -> Result<Self> {
        Self::build(
            nx,
            nv,
            lx,
            v_max,
            degree,
            dt,
            BuilderVersion::FusedSpmv,
            None,
            f0,
        )
    }

    /// Like [`VlasovPoisson1D1V::new`], but selecting the direct
    /// builder's kernel version (the paper's Table III ablation).
    #[allow(clippy::too_many_arguments)]
    pub fn new_with_version(
        nx: usize,
        nv: usize,
        lx: f64,
        v_max: f64,
        degree: usize,
        dt: f64,
        version: BuilderVersion,
        f0: impl Fn(f64, f64) -> f64,
    ) -> Result<Self> {
        Self::build(nx, nv, lx, v_max, degree, dt, version, None, f0)
    }

    /// Like [`VlasovPoisson1D1V::new`], but both advections run the
    /// verified direct backend: per-lane residual checks, quarantine of
    /// poisoned lanes, and the factorization fallback ladder. Diagnostics
    /// of the latest step are available via
    /// [`VlasovPoisson1D1V::advection_diagnostics`].
    #[allow(clippy::too_many_arguments)]
    pub fn new_verified(
        nx: usize,
        nv: usize,
        lx: f64,
        v_max: f64,
        degree: usize,
        dt: f64,
        config: VerifyConfig,
        f0: impl Fn(f64, f64) -> f64,
    ) -> Result<Self> {
        Self::build(
            nx,
            nv,
            lx,
            v_max,
            degree,
            dt,
            BuilderVersion::FusedSpmv,
            Some(config),
            f0,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        nx: usize,
        nv: usize,
        lx: f64,
        v_max: f64,
        degree: usize,
        dt: f64,
        version: BuilderVersion,
        verify: Option<VerifyConfig>,
        f0: impl Fn(f64, f64) -> f64,
    ) -> Result<Self> {
        let space_x =
            PeriodicSplineSpace::new(Breaks::uniform(nx, 0.0, lx).map_err(spline_err)?, degree)
                .map_err(spline_err)?;
        let space_v = PeriodicSplineSpace::new(
            Breaks::uniform(nv, -v_max, v_max).map_err(spline_err)?,
            degree,
        )
        .map_err(spline_err)?;

        let x_grid = space_x.interpolation_points();
        let v_grid = space_v.interpolation_points();

        let backend = |space: PeriodicSplineSpace| -> Result<SplineBackend> {
            match &verify {
                Some(config) => SplineBackend::direct_verified(space, version, config.clone()),
                None => SplineBackend::direct(space, version),
            }
        };
        let adv_x = Advection1D::new(
            backend(space_x)?,
            v_grid.clone(),
            dt / 2.0, // Strang half step
        )?;
        let adv_v = Advection1D::new(
            backend(space_v)?,
            vec![0.0; nx], // displacements supplied per step
            dt,
        )?;

        let f = Matrix::from_fn(nv, nx, Layout::Right, |j, i| f0(x_grid[i], v_grid[j]));
        let f_xv = ResidentBatch::pack_transposed(&f);
        Ok(Self {
            adv_x,
            adv_v,
            f_xv,
            f_current: true,
            f,
            dx: lx / nx as f64,
            dv: 2.0 * v_max / nv as f64,
            x_grid,
            v_grid,
            dt,
            e_field: vec![0.0; nx],
            rho: rho_scratch(nx),
            disp: vec![0.0; nx],
            step_index: 0,
            seed: 0,
            checkpoint: None,
        })
    }

    /// The distribution `f(v_j, x_i)` as a host matrix. Current after
    /// construction, [`VlasovPoisson1D1V::restore`],
    /// [`VlasovPoisson1D1V::step`] and [`VlasovPoisson1D1V::sync_host`];
    /// after [`VlasovPoisson1D1V::step_resident`] it still shows the state
    /// of the last of those until `sync_host` runs.
    pub fn distribution(&self) -> &Matrix {
        &self.f
    }

    /// x grid.
    pub fn x_grid(&self) -> &[f64] {
        &self.x_grid
    }

    /// v grid.
    pub fn v_grid(&self) -> &[f64] {
        &self.v_grid
    }

    /// Latest electric field.
    pub fn e_field(&self) -> &[f64] {
        &self.e_field
    }

    /// Verification diagnostics of the latest `(x, v)` advection steps.
    /// Both are `None` unless the solver was built with
    /// [`VlasovPoisson1D1V::new_verified`] and a step has run.
    pub fn advection_diagnostics(
        &self,
    ) -> (Option<&AdvectionDiagnostics>, Option<&AdvectionDiagnostics>) {
        (self.adv_x.last_diagnostics(), self.adv_v.last_diagnostics())
    }

    /// Charge density `ρ(x_i) = ∫ f dv` (uniform quadrature, lanes summed
    /// in ascending order), read off the resident slab: always current.
    pub fn density(&self) -> Vec<f64> {
        let nx = self.f_xv.nrows();
        let mut rho = rho_scratch(nx);
        density_into(&Serial, &self.f_xv, self.dv, &mut rho);
        rho.as_slice()[..nx].to_vec()
    }

    /// Solve the 1D periodic Poisson problem `∂E/∂x = ⟨ρ⟩ − ρ` (electron
    /// density `ρ` against a neutralising ion background) for the
    /// zero-mean electric field, by cumulative integration.
    pub fn solve_poisson(&mut self) {
        self.solve_poisson_with(&Serial);
    }

    /// [`VlasovPoisson1D1V::solve_poisson`] with the density as one
    /// region on `exec`.
    fn solve_poisson_with<E: ExecSpace>(&mut self, exec: &E) {
        density_into(exec, &self.f_xv, self.dv, &mut self.rho);
        let e = &mut self.e_field[..];
        let nx = e.len();
        let rho = &self.rho.as_slice()[..nx];
        let mean: f64 = rho.iter().sum::<f64>() / nx as f64;
        // Cumulative trapezoid of (⟨ρ⟩ − ρ).
        e[0] = 0.0;
        for i in 1..nx {
            e[i] = e[i - 1] + 0.5 * ((mean - rho[i - 1]) + (mean - rho[i])) * self.dx;
        }
        // Fix the gauge: zero-mean field.
        let e_mean: f64 = e.iter().sum::<f64>() / nx as f64;
        for v in e {
            *v -= e_mean;
        }
    }

    /// Electric-field energy `½ ∫ E² dx`.
    pub fn field_energy(&self) -> f64 {
        0.5 * self.e_field.iter().map(|e| e * e).sum::<f64>() * self.dx
    }

    /// Total mass `∫∫ f dx dv` of the host mirror: current exactly when
    /// [`VlasovPoisson1D1V::distribution`] is.
    pub fn mass(&self) -> f64 {
        self.f.as_slice().iter().sum::<f64>() * self.dx * self.dv
    }

    /// Completed Strang steps since construction, or since the restored
    /// checkpoint after [`VlasovPoisson1D1V::resume_from`].
    pub fn step_index(&self) -> u64 {
        self.step_index
    }

    /// Record `seed` (the run's RNG / chaos-harness seed) in every
    /// checkpoint, so a resumed run can replay the same schedule.
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// The recorded run seed (restored along with the state).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Checkpoint into `store` every `n` completed steps (`n` is clamped
    /// to at least 1). Combine with [`CheckpointStore::from_env`] to honor
    /// `PP_CHECKPOINT_DIR`/`PP_CHECKPOINT_KEEP`. Each write is atomic and
    /// `fsync`ed; see [`CheckpointStore::write`].
    pub fn checkpoint_every(&mut self, n: u64, store: CheckpointStore) {
        self.checkpoint = Some((store, n.max(1)));
    }

    /// Serialise the full simulation state (distribution, field, step
    /// index, time step, run seed) into a [`Snapshot`]. The distribution
    /// is the current one: read off the slab when the host mirror is
    /// stale.
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::new();
        if self.f_current {
            s.push_matrix("f", &self.f);
        } else {
            let mut f = Matrix::zeros(self.v_grid.len(), self.x_grid.len(), Layout::Right);
            self.f_xv
                .unpack_transposed_into(&mut f)
                .expect("grid fixed at build");
            s.push_matrix("f", &f);
        }
        s.push_f64s("e_field", &self.e_field);
        s.push_u64("step", self.step_index);
        s.push_f64("dt", self.dt);
        s.push_u64("seed", self.seed);
        s
    }

    /// Load state from a snapshot written by a solver with the same grid
    /// and time step. The restored distribution is bit-exact, so stepping
    /// on from here reproduces the uninterrupted run bit for bit.
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<()> {
        let f = snapshot.get_matrix("f").map_err(Error::from)?;
        if f.shape() != self.f.shape() {
            return Err(Error::Checkpoint {
                detail: format!(
                    "snapshot grid {:?} does not match solver grid {:?}",
                    f.shape(),
                    self.f.shape()
                ),
            });
        }
        let dt = snapshot.get_f64("dt").map_err(Error::from)?;
        if dt.to_bits() != self.dt.to_bits() {
            return Err(Error::Checkpoint {
                detail: format!("snapshot dt {dt:e} does not match solver dt {:e}", self.dt),
            });
        }
        let e_field = snapshot.get_f64s("e_field").map_err(Error::from)?;
        if e_field.len() != self.e_field.len() {
            return Err(Error::Checkpoint {
                detail: format!(
                    "snapshot field has {} points, solver has {}",
                    e_field.len(),
                    self.e_field.len()
                ),
            });
        }
        let step_index = snapshot.get_u64("step").map_err(Error::from)?;
        let seed = snapshot.get_u64("seed").map_err(Error::from)?;
        // Every section read and checked: nothing above has touched `self`.
        self.f_xv
            .pack_transposed_from(&f)
            .expect("shape checked above");
        self.f = f;
        self.f_current = true;
        self.e_field = e_field;
        self.step_index = step_index;
        self.seed = seed;
        Ok(())
    }

    /// Resume from the newest valid checkpoint generation under `dir`.
    /// Corrupt generations are skipped in favour of older intact ones
    /// (see [`CheckpointStore::restore_latest`]). Returns the restored
    /// step index, or `None` when no restorable checkpoint exists — the
    /// run then simply starts fresh.
    pub fn resume_from(&mut self, dir: impl Into<PathBuf>) -> Result<Option<u64>> {
        match CheckpointStore::new(dir).restore_latest() {
            Some((_, snapshot)) => {
                self.restore(&snapshot)?;
                Ok(Some(self.step_index))
            }
            None => Ok(None),
        }
    }

    /// One Strang-split time step, leaving
    /// [`VlasovPoisson1D1V::distribution`] current:
    /// [`VlasovPoisson1D1V::step_resident`], then
    /// [`VlasovPoisson1D1V::sync_host`].
    pub fn step<E: ExecSpace>(&mut self, exec: &E) -> Result<()> {
        self.step_resident(exec)?;
        self.sync_host_with(exec);
        Ok(())
    }

    /// One Strang-split time step on the resident distribution, which
    /// never changes orientation: the x-advections solve and interpolate
    /// its panels, the v-advection its 8 × 8 tiles where they lie (the step
    /// on the slab's [`pp_portable::TiledField`]: each tile transposed into
    /// the worker's solve panel, the results written straight back into
    /// its tile rows, nothing staged), and the
    /// density streams the slab where it lies. Four regions on `exec` —
    /// three advections and the density — and no allocation beyond each
    /// worker's first run. Nothing is unpacked: afterwards
    /// [`VlasovPoisson1D1V::distribution`] / [`VlasovPoisson1D1V::mass`]
    /// lag until [`VlasovPoisson1D1V::sync_host`] runs, while
    /// `density`, `e_field`, `field_energy` and `snapshot` (hence
    /// checkpoints) are always current.
    pub fn step_resident<E: ExecSpace>(&mut self, exec: &E) -> Result<()> {
        self.f_current = false;
        // Half x-advection.
        self.adv_x.step_resident(exec, &mut self.f_xv)?;
        // Field solve from the updated density.
        self.solve_poisson_with(exec);
        self.advect_v(exec)?;
        // Half x-advection.
        self.adv_x.step_resident(exec, &mut self.f_xv)?;
        self.step_index += 1;
        let due = self
            .checkpoint
            .as_ref()
            .is_some_and(|(_, every)| self.step_index.is_multiple_of(*every));
        if due {
            // Checkpoint boundary: unpack once, for the snapshot and for
            // any `sync_host` that follows.
            self.sync_host_with(exec);
            if let Some((store, _)) = &self.checkpoint {
                store.write(self.step_index, &self.snapshot())?;
            }
        }
        Ok(())
    }

    /// The full v-advection, across the slab's lanes through its tiles:
    /// per-x-lane displacement a·Δt = −E(x)·Δt.
    fn advect_v<E: ExecSpace>(&mut self, exec: &E) -> Result<()> {
        for (d, &e) in self.disp.iter_mut().zip(&self.e_field) {
            *d = -e * self.dt;
        }
        self.adv_v
            .advance(exec, &mut TiledField::new(&mut self.f_xv), &self.disp)?;
        Ok(())
    }

    /// Unpack the resident slab into the host mirror behind
    /// [`VlasovPoisson1D1V::distribution`]. Free when the slab has not
    /// moved since the mirror was last current.
    pub fn sync_host(&mut self) {
        self.sync_host_with(&Serial);
    }

    /// [`VlasovPoisson1D1V::sync_host`] with the unpack as one region on
    /// `exec`.
    fn sync_host_with<E: ExecSpace>(&mut self, exec: &E) {
        if !self.f_current {
            self.f_xv
                .unpack_transposed_into_with(exec, &mut self.f)
                .expect("grid fixed at build");
            self.f_current = true;
        }
    }
}

/// Rows of the slab one item of the density region sums.
const DENSITY_ROWS: usize = 64;

/// Density scratch for `nx` rows: lane `b` of the lane-contiguous matrix
/// is the block of [`DENSITY_ROWS`] rows that item `b` of the density
/// region owns, so the first `nx` elements of its storage are `ρ` in row
/// order.
fn rho_scratch(nx: usize) -> Matrix {
    Matrix::zeros(DENSITY_ROWS, nx.div_ceil(DENSITY_ROWS), Layout::Left)
}

/// `ρ_i = (Σ_j f(i, j))·dv` into a [`rho_scratch`], one region of `exec`
/// over blocks of rows. A block reads the slab in storage order — chunk
/// after chunk, its rows of each in turn — and every `ρ_i` is `f64`'s
/// `Iterator::sum` over lanes `j` ascending: the same additions in the
/// same order from the same initial value, whatever `exec`.
fn density_into<E: ExecSpace>(exec: &E, f_xv: &ResidentBatch, dv: f64, rho: &mut Matrix) {
    let nx = f_xv.nrows();
    // What `Iterator::sum` starts from (`-0.0` on current std): a row of
    // `-0.0` must sum to what it did when this was a `.sum()` per row.
    let empty_sum: f64 = std::iter::empty::<f64>().sum();
    exec.for_each_lane_mut(rho, |b, mut block| {
        let first = b * DENSITY_ROWS;
        let rows = DENSITY_ROWS.min(nx - first);
        let mut acc = [empty_sum; DENSITY_ROWS];
        for c in 0..f_xv.num_chunks() {
            let lanes = f_xv.chunk_lanes(c);
            let slab = &f_xv.chunk(c)[first * LANE_WIDTH..][..rows * LANE_WIDTH];
            for (a, row) in acc.iter_mut().zip(slab.chunks_exact(LANE_WIDTH)) {
                for v in &row[..lanes] {
                    *a += v;
                }
            }
        }
        for (i, a) in acc[..rows].iter().enumerate() {
            block[i] = a * dv;
        }
    });
}

fn spline_err(e: pp_bsplines::Error) -> Error {
    Error::Spline(pp_splinesolver::Error::Space(e))
}

/// Classic two-stream instability initial condition: two counter-streaming
/// Maxwellian beams with a small sinusoidal seed.
pub fn two_stream(v0: f64, amplitude: f64, k: f64) -> impl Fn(f64, f64) -> f64 {
    move |x: f64, v: f64| {
        let beams = 0.5 * ((-(v - v0) * (v - v0) / 0.5).exp() + (-(v + v0) * (v + v0) / 0.5).exp())
            / (0.5 * std::f64::consts::PI).sqrt();
        beams * (1.0 + amplitude * (k * x).cos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_portable::Parallel;

    fn small_solver() -> VlasovPoisson1D1V {
        // k·v0 = 0.7 ω_p: near the cold-beam maximum growth rate.
        VlasovPoisson1D1V::new(
            32,
            64,
            2.0 * std::f64::consts::PI / 0.5, // k = 0.5 fits one mode
            5.0,
            3,
            0.05,
            two_stream(1.4, 0.01, 0.5),
        )
        .unwrap()
    }

    #[test]
    fn poisson_solver_zero_for_uniform_density() {
        let mut s =
            VlasovPoisson1D1V::new(16, 16, 1.0, 4.0, 3, 0.1, |_, v| (-v * v).exp()).unwrap();
        s.solve_poisson();
        for &e in s.e_field() {
            assert!(e.abs() < 1e-12, "uniform density must give E = 0");
        }
    }

    #[test]
    fn poisson_derivative_matches_density_fluctuation() {
        let mut s = VlasovPoisson1D1V::new(64, 16, 1.0, 4.0, 3, 0.1, |x, v| {
            (-v * v).exp() * (1.0 + 0.2 * (std::f64::consts::TAU * x).sin())
        })
        .unwrap();
        s.solve_poisson();
        let rho = s.density();
        let mean: f64 = rho.iter().sum::<f64>() / rho.len() as f64;
        let e = s.e_field().to_vec();
        let dx = 1.0 / 64.0;
        // Central-difference dE/dx ≈ ⟨ρ⟩ − ρ away from the seam.
        for i in 1..63 {
            let de = (e[i + 1] - e[i - 1]) / (2.0 * dx);
            assert!(
                (de - (mean - rho[i])).abs() < 0.05 * (mean - rho[i]).abs().max(0.1),
                "i = {i}: dE/dx {de} vs {}",
                mean - rho[i]
            );
        }
    }

    #[test]
    fn mass_conserved_over_steps() {
        let mut s = small_solver();
        let m0 = s.mass();
        for _ in 0..5 {
            s.step(&Parallel).unwrap();
        }
        let m1 = s.mass();
        // Strang splitting + spline remap: mass is conserved to scheme
        // accuracy, not machine precision.
        assert!(((m1 - m0) / m0).abs() < 1e-4, "{m0} -> {m1}");
    }

    #[test]
    fn two_stream_instability_grows() {
        let mut s = small_solver();
        s.solve_poisson();
        let e0 = s.field_energy();
        // The ballistic part of the seed phase-mixes away first; the
        // unstable eigenmode then grows exponentially. Track the maximum.
        // Growth emerges around t ≈ 15 ω_p⁻¹ (measured: E reaches ~0.4 by
        // t = 20, ~350× the seed).
        let mut e_max: f64 = 0.0;
        for _ in 0..400 {
            s.step(&Parallel).unwrap();
            e_max = e_max.max(s.field_energy());
        }
        assert!(
            e_max > 10.0 * e0,
            "two-stream field energy should grow: {e0:.3e} -> max {e_max:.3e}"
        );
    }

    #[test]
    fn verified_solver_matches_plain_and_reports_clean() {
        let init = two_stream(1.4, 0.01, 0.5);
        let mut plain = VlasovPoisson1D1V::new(32, 32, 4.0, 5.0, 3, 0.05, &init).unwrap();
        let mut verified = VlasovPoisson1D1V::new_verified(
            32,
            32,
            4.0,
            5.0,
            3,
            0.05,
            VerifyConfig::default(),
            &init,
        )
        .unwrap();
        assert_eq!(verified.advection_diagnostics(), (None, None));
        for _ in 0..3 {
            plain.step(&Parallel).unwrap();
            verified.step(&Parallel).unwrap();
        }
        // Healthy batches are bit-identical, so the whole simulation is.
        assert_eq!(
            plain.distribution().max_abs_diff(verified.distribution()),
            0.0
        );
        let (dx, dv) = verified.advection_diagnostics();
        assert!(dx.unwrap().all_clean());
        assert!(dv.unwrap().all_clean());
    }

    /// A Strang step is four regions, plain or verified: its three
    /// advections — the v-advection on the slab's tiles — and the density.
    #[test]
    fn resident_strang_step_is_four_regions() {
        let init = two_stream(1.4, 0.01, 0.5);
        let plain = VlasovPoisson1D1V::new(32, 24, 4.0, 5.0, 3, 0.05, &init);
        let verify = VerifyConfig::default();
        let verified = VlasovPoisson1D1V::new_verified(32, 24, 4.0, 5.0, 3, 0.05, verify, &init);
        for solver in [plain, verified] {
            let mut solver = solver.unwrap();
            let exec = pp_portable::CountingExec::default();
            solver.step_resident(&exec).unwrap();
            assert_eq!(exec.regions(), 4);
        }
    }

    /// A verified v-advection that quarantines a lane lands its zeros
    /// through the tiled field's lane accessor: a NaN planted in x-row 17 of
    /// `f_xv` — a partial last block of 20 rows, in a slab whose 13 lanes
    /// leave a partial last chunk — poisons lane 17 of the v-advection. The
    /// slab must come out as the flip path leaves it (`transpose_into`,
    /// the step on the transposed slab, `transpose_into`), bit for bit,
    /// with the same report, the row zero.
    #[test]
    fn verified_v_advection_quarantines_a_row_through_the_tiles() {
        let init = two_stream(1.4, 0.01, 0.5);
        let make = || {
            let config = VerifyConfig::default();
            VlasovPoisson1D1V::new_verified(20, 13, 4.0, 5.0, 3, 0.05, config, &init).unwrap()
        };
        let (mut s, mut oracle) = (make(), make());
        for solver in [&mut s, &mut oracle] {
            solver.step_resident(&Parallel).unwrap();
            solver.f_xv.set(17, 4, f64::NAN);
        }
        s.advect_v(&Parallel).unwrap();
        for (d, &e) in oracle.disp.iter_mut().zip(&oracle.e_field) {
            *d = -e * oracle.dt;
        }
        let mut f_vx = ResidentBatch::zeros(13, 20);
        oracle.f_xv.transpose_into(&mut f_vx).unwrap();
        (oracle.adv_v)
            .advance(&Parallel, &mut f_vx, &oracle.disp)
            .unwrap();
        f_vx.transpose_into(&mut oracle.f_xv).unwrap();
        let (got, want) = (
            s.advection_diagnostics().1,
            oracle.advection_diagnostics().1,
        );
        assert_eq!(got, want);
        assert_eq!(got.unwrap().quarantined_lanes, vec![17]);
        for i in 0..20 {
            for j in 0..13 {
                let (a, b) = (s.f_xv.get(i, j), oracle.f_xv.get(i, j));
                assert_eq!(a.to_bits(), b.to_bits(), "({i}, {j})");
                assert!(i != 17 || a == 0.0, "({i}, {j}) is {a}");
            }
        }
    }

    /// The density contract: `ρ_i` is the naive ascending `Σ_j f(i, j)`
    /// times `dv`, bit for bit, on either execution space — for a lane
    /// count that fills its chunks, one that does not, and more rows than
    /// one block of the region; for a row of `-0.0` (whose sum is `-0.0`
    /// only from `Iterator::sum`'s own initial value) and for rows whose
    /// partial sums cancel, so that any other association shows.
    #[test]
    fn density_is_the_naive_ascending_sum_bitwise() {
        for nv in [8usize, 13, 64] {
            let nx = 96;
            let mut s = VlasovPoisson1D1V::new(nx, nv, 1.0, 4.0, 3, 0.1, |_, _| 0.0).unwrap();
            let mut rng = pp_portable::TestRng::seed_from_u64(nv as u64);
            let f = Matrix::from_fn(nv, nx, Layout::Right, |j, i| match i {
                0 => -0.0,
                // 1e16 + 1 − 1e16 is 0 left to right, 1 in any other order.
                1 => [1e16, 1.0, -1e16, 3.0][j % 4],
                _ => rng.gen_range(-1.0..1.0) * 10f64.powi((j % 7) as i32 - 3),
            });
            s.f_xv.pack_transposed_from(&f).unwrap();
            let want: Vec<f64> = (0..nx)
                .map(|i| (0..nv).map(|j| s.f_xv.get(i, j)).sum::<f64>() * s.dv)
                .collect();
            assert_eq!(want[0].to_bits(), (-0.0 * s.dv).to_bits(), "nv {nv}");
            let bits = |rho: &[f64]| rho.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&s.density()), bits(&want), "nv {nv}");
            let mut rho = rho_scratch(nx);
            density_into(&Parallel, &s.f_xv, s.dv, &mut rho);
            assert_eq!(bits(&rho.as_slice()[..nx]), bits(&want), "nv {nv} Parallel");
        }
    }

    /// A snapshot taken after resident steps must carry the current
    /// distribution, not the stale host mirror: restoring it and stepping
    /// on reproduces the uninterrupted run bit for bit.
    #[test]
    fn snapshot_after_resident_steps_carries_current_distribution() {
        let mut s = small_solver();
        s.step_resident(&Parallel).unwrap();
        s.step_resident(&Parallel).unwrap();
        let snap = s.snapshot();

        let mut resumed = small_solver();
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.step_index(), 2);
        resumed.step(&Parallel).unwrap();

        let mut straight = small_solver();
        for _ in 0..3 {
            straight.step(&Parallel).unwrap();
        }
        for (a, b) in straight
            .distribution()
            .as_slice()
            .iter()
            .zip(resumed.distribution().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in straight.e_field().iter().zip(resumed.e_field()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn sync_host_refreshes_distribution_and_restore_drops_slab() {
        let mut s = small_solver();
        let before = s.distribution().clone();
        s.step_resident(&Parallel).unwrap();
        // The host matrix is stale until an explicit sync.
        assert_eq!(before.max_abs_diff(s.distribution()), 0.0);
        s.sync_host();
        assert!(before.max_abs_diff(s.distribution()) > 0.0);
        let snap = s.snapshot();

        // A restore re-packs the slab: resident stepping afterwards must
        // start from the restored state, not from what earlier resident
        // steps left in the panels.
        let mut t = small_solver();
        t.step_resident(&Parallel).unwrap();
        t.step_resident(&Parallel).unwrap();
        t.restore(&snap).unwrap();
        t.step_resident(&Parallel).unwrap();
        t.sync_host();

        let mut u = small_solver();
        u.restore(&snap).unwrap();
        u.step_resident(&Parallel).unwrap();
        u.sync_host();
        assert_eq!(t.distribution().max_abs_diff(u.distribution()), 0.0);
        assert_eq!(t.step_index(), u.step_index());
    }

    #[test]
    fn distribution_stays_finite_and_mostly_positive() {
        let mut s = small_solver();
        for _ in 0..10 {
            s.step(&Parallel).unwrap();
        }
        let f = s.distribution();
        assert!(f.as_slice().iter().all(|v| v.is_finite()));
        // Semi-Lagrangian splines can undershoot slightly; bound it.
        let min = f.as_slice().iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min > -0.05, "excessive undershoot: {min}");
    }
}
