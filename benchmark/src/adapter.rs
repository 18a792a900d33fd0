//! The one file that calls into the repo's crates.
//!
//! Everything the benchmark needs from `pp-advection`, `pp-splinesolver`,
//! `pp-linalg`, `pp-bsplines` and `pp-portable` goes through here, and
//! only through their **public** API, so an API fold in the stack (say
//! `step_resident` → `step`) is a one-file follow-up. `README.md` lists
//! the functions used.
//!
//! Two things live here:
//!
//! * [`Driver`] — the real thing: builds a workload exactly as a user
//!   would and advances it with one `step*` call. End-to-end numbers
//!   time this and nothing else.
//! * [`Replay`] — the ledger's own copy of that step, written out as the
//!   sequence of public layer calls the driver makes internally, each
//!   wrapped in a span. It is trusted only after it has reproduced the
//!   driver's output bit for bit.
//!
//! plus the isolated layer probes ([`probe_layers`]).

use crate::ledger::{Tracer, STEP};
use crate::workloads::{
    Inputs, Kind, Spec, ADVECTION_DT, GRADING, VLASOV_DT, VLASOV_K, VLASOV_LX, VLASOV_VMAX,
};
use pp_advection::vlasov::two_stream;
use pp_advection::{Advection1D, SplineBackend, VlasovPoisson1D1V};
use pp_bsplines::{Breaks, PeriodicSplineSpace, MAX_DEGREE};
use pp_linalg::batched::{gbtrs, getrs, pbtrs, pttrs};
use pp_linalg::{gbtrs_resident, getrs_resident, pbtrs_resident, pttrs_resident};
use pp_portable::{
    parallel_for, pool_stats, transpose_into_with, Layout, Matrix, Parallel, ResidentBatch, Serial,
};
use pp_splinesolver::{
    BuilderVersion, LaneReport, QFactors, SplineBuilder, SplineEvaluator, VerifiedBuilder,
    VerifyConfig,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

type Res<T> = Result<T, String>;

fn msg(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Which execution space a step runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// The plain single-thread baseline.
    Serial,
    /// The persistent pool, `PP_NUM_THREADS` wide.
    Parallel,
}

/// Monomorphise `$body` for the chosen execution space.
macro_rules! on {
    ($exec:expr, $e:ident => $body:expr) => {
        match $exec {
            Exec::Serial => {
                let $e = &Serial;
                $body
            }
            Exec::Parallel => {
                let $e = &Parallel;
                $body
            }
        }
    };
}

/// Set the environment the repo's crates read, before they read it:
/// every ambient `PP_*` variable goes (adaptive policy, ABFT default,
/// trace dumps, watchdog slack …) and the pool width is pinned. Must run
/// first thing in `main`, while the process is still single-threaded.
pub fn hermetic_env(threads: usize) {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PP_") {
            std::env::remove_var(&key);
        }
    }
    std::env::set_var("PP_NUM_THREADS", threads.to_string());
}

/// Worker threads the repo's pool will use (after [`hermetic_env`]).
pub fn pool_threads() -> usize {
    pp_portable::num_threads()
}

fn space(spec: &Spec) -> Res<PeriodicSplineSpace> {
    let breaks = if spec.graded {
        Breaks::graded(spec.nx, 0.0, 1.0, GRADING)
    } else {
        Breaks::uniform(spec.nx, 0.0, 1.0)
    };
    PeriodicSplineSpace::new(breaks.map_err(msg)?, spec.degree).map_err(msg)
}

/// ABFT is switched on in code, never through `PP_ABFT`.
fn verify_config() -> VerifyConfig {
    VerifyConfig {
        abft: true,
        ..VerifyConfig::default()
    }
}

fn backend(spec: &Spec) -> Res<SplineBackend> {
    let space = space(spec)?;
    match spec.kind {
        Kind::Host => SplineBackend::direct(space, BuilderVersion::FusedSpmv),
        Kind::Resident => SplineBackend::direct(space, BuilderVersion::Interleaved),
        Kind::Verified => {
            SplineBackend::direct_verified(space, BuilderVersion::Interleaved, verify_config())
        }
        Kind::Vlasov => unreachable!("the Vlasov driver builds its own backends"),
    }
    .map_err(msg)
}

/// FNV-1a over the little-endian bytes of the field: the bit-identity
/// fingerprint of an output.
pub fn fnv64(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// What a finished run left behind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Fingerprint of the final `(nv, nx)` row-major field bits.
    pub fnv64: u64,
    /// Advection: RMS error against `Advection1D::analytic`. Vlasov:
    /// relative L² drift of the distribution (see [`Driver::finish`]).
    pub accuracy_err: f64,
    /// Every value of the final field is finite.
    pub finite: bool,
}

enum DriverKind {
    Host {
        adv: Advection1D,
        f: Matrix,
    },
    Resident {
        adv: Advection1D,
        slab: ResidentBatch,
        mirror: Matrix,
        verified: bool,
    },
    Vlasov {
        sim: Box<VlasovPoisson1D1V>,
        norm0: f64,
    },
}

/// A workload built the way a user of the library builds it.
pub struct Driver {
    kind: DriverKind,
    steps: usize,
}

fn l2(values: &[f64]) -> f64 {
    values.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Root-mean-square difference of two equally laid out fields.
fn rms_diff(a: &[f64], b: &[f64]) -> f64 {
    let sum: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (sum / a.len() as f64).sqrt()
}

impl Driver {
    /// Everything between "inputs exist" and "ready to step": spline
    /// space, Schur factorisation, characteristic feet, initial
    /// condition, and the pack into panels for resident workloads.
    pub fn build(spec: &Spec, inputs: &Inputs) -> Res<Driver> {
        let kind = match spec.kind {
            Kind::Vlasov => {
                let sim = VlasovPoisson1D1V::new_with_version(
                    spec.nx,
                    spec.nv,
                    VLASOV_LX,
                    VLASOV_VMAX,
                    spec.degree,
                    VLASOV_DT,
                    BuilderVersion::Interleaved,
                    two_stream(inputs.two_stream_v0, inputs.two_stream_amplitude, VLASOV_K),
                )
                .map_err(msg)?;
                let norm0 = l2(sim.distribution().as_slice());
                DriverKind::Vlasov {
                    sim: Box::new(sim),
                    norm0,
                }
            }
            Kind::Host => {
                let adv = Advection1D::new(backend(spec)?, inputs.velocities.clone(), ADVECTION_DT)
                    .map_err(msg)?;
                let f = adv.init_distribution(|x, v| inputs.profile(x, v));
                DriverKind::Host { adv, f }
            }
            Kind::Resident | Kind::Verified => {
                let adv = Advection1D::new(backend(spec)?, inputs.velocities.clone(), ADVECTION_DT)
                    .map_err(msg)?;
                let mirror = adv.init_distribution(|x, v| inputs.profile(x, v));
                let mut slab = ResidentBatch::zeros(spec.nx, spec.nv);
                slab.pack_transposed_from(&mirror).map_err(msg)?;
                DriverKind::Resident {
                    adv,
                    slab,
                    mirror,
                    verified: spec.kind == Kind::Verified,
                }
            }
        };
        Ok(Driver { kind, steps: 0 })
    }

    /// One time step: the single call the end-to-end numbers time.
    #[inline]
    pub fn step(&mut self, exec: Exec) -> Res<()> {
        self.steps += 1;
        match &mut self.kind {
            DriverKind::Host { adv, f } => on!(exec, e => adv.step(e, f)).map(drop),
            DriverKind::Resident { adv, slab, .. } => {
                on!(exec, e => adv.step_resident(e, slab)).map(drop)
            }
            DriverKind::Vlasov { sim, .. } => on!(exec, e => sim.step_resident(e)),
        }
        .map_err(msg)
    }

    /// Verified workloads: the last step's report named no repaired or
    /// quarantined lane. `true` for every other workload.
    pub fn last_step_clean(&self) -> bool {
        match &self.kind {
            DriverKind::Resident {
                adv,
                verified: true,
                ..
            } => adv.last_diagnostics().is_some_and(|d| d.all_clean()),
            _ => true,
        }
    }

    /// Bring the field back to the host and judge it.
    ///
    /// The advection accuracy figure is the root-mean-square error over
    /// all lanes and points, not the maximum: every lane carries the
    /// profile at its own offset, so the mean runs over all phases and
    /// repeats across seeds to a few per cent, where the maximum follows
    /// whichever lane the seed happened to align worst.
    ///
    /// The Vlasov accuracy figure is the relative drift of `‖f‖₂`: the
    /// continuous equation conserves it, the spline remap dissipates it,
    /// so it measures the scheme. (Mass is conserved to round-off by a
    /// uniform periodic remap, which makes its drift a cancellation
    /// residue rather than a repeatable accuracy figure.)
    pub fn finish(&mut self, inputs: &Inputs) -> Res<Outcome> {
        let steps = self.steps;
        let (field, accuracy_err) = match &mut self.kind {
            DriverKind::Host { adv, f } => {
                let exact = adv.analytic(|x, v| inputs.profile(x, v), steps);
                let err = rms_diff(f.as_slice(), exact.as_slice());
                (f.as_slice(), err)
            }
            DriverKind::Resident {
                adv, slab, mirror, ..
            } => {
                slab.unpack_transposed_into(mirror).map_err(msg)?;
                let exact = adv.analytic(|x, v| inputs.profile(x, v), steps);
                let err = rms_diff(mirror.as_slice(), exact.as_slice());
                (mirror.as_slice(), err)
            }
            DriverKind::Vlasov { sim, norm0 } => {
                sim.sync_host();
                let field = sim.distribution().as_slice();
                let err = ((l2(field) - *norm0) / *norm0).abs();
                (field, err)
            }
        };
        Ok(Outcome {
            fnv64: fnv64(field),
            accuracy_err,
            finite: field.iter().all(|v| v.is_finite()),
        })
    }
}

/// Pool counters the benchmark reads around a timed window.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolSnapshot {
    /// Dispatches so far, pooled and inline: an exact count.
    pub dispatches: u64,
    /// Cumulative time the workers spent running lane work.
    pub busy: Duration,
    /// Worker threads the pool owns (the dispatching caller excluded).
    pub workers: usize,
}

pub fn pool_snapshot() -> PoolSnapshot {
    let s = pool_stats();
    PoolSnapshot {
        dispatches: s.dispatches + s.inline_dispatches,
        busy: s.total_busy(),
        workers: s.workers,
    }
}

// ---------------------------------------------------------------------
// The ledger's replay of a step
// ---------------------------------------------------------------------

/// Span names. The prefix is the crate (= layer) the call belongs to.
pub mod span {
    pub const TRANSPOSE_IN: &str = "portable.transpose_in";
    pub const TRANSPOSE_OUT: &str = "portable.transpose_out";
    pub const COPY: &str = "portable.copy";
    pub const FLIP: &str = "portable.flip";
    pub const SOLVE: &str = "splinesolver.solve";
    pub const EVAL: &str = "splinesolver.eval";
    pub const FEET_SCAN: &str = "advection.feet_scan";
    pub const DIAGNOSTICS: &str = "advection.diagnostics";
    pub const FEET: &str = "advection.feet";
    pub const FIELD: &str = "advection.field";
}

// One long-lived solver per stage: the variant size gap is irrelevant.
#[allow(clippy::large_enum_variant)]
enum Solver {
    Plain(SplineBuilder),
    Verified(VerifiedBuilder),
}

/// One resident advection direction, as `Advection1D::step_resident`
/// runs it: the ledger's own builder, evaluator, feet and coefficient
/// scratch.
struct ResidentStage {
    solver: Solver,
    eval: SplineEvaluator,
    points: Vec<f64>,
    /// `(n, lanes)` characteristic feet, lane-contiguous.
    feet: Matrix,
    eta: ResidentBatch,
    /// Lanes a verified solve repaired or quarantined, summed over steps.
    flagged: u64,
}

impl ResidentStage {
    fn new(space: PeriodicSplineSpace, lanes: usize, verified: bool) -> Res<Self> {
        let n = space.num_basis();
        let points = space.interpolation_points();
        let builder =
            SplineBuilder::new(space.clone(), BuilderVersion::Interleaved).map_err(msg)?;
        Ok(ResidentStage {
            solver: if verified {
                Solver::Verified(builder.verified(verify_config()))
            } else {
                Solver::Plain(builder)
            },
            eval: SplineEvaluator::new(space),
            points,
            feet: Matrix::zeros(n, lanes, Layout::Left),
            eta: ResidentBatch::zeros(n, lanes),
            flagged: 0,
        })
    }

    /// `feet(i, j) = x_i − displacement(j)`, lane by lane, through the
    /// same `Matrix::set` the driver uses.
    fn write_feet(&mut self, displacement: impl Fn(usize) -> f64) {
        for j in 0..self.feet.ncols() {
            let d = displacement(j);
            for (i, x) in self.points.iter().enumerate() {
                self.feet.set(i, j, x - d);
            }
        }
    }

    fn step(&mut self, exec: Exec, slab: &mut ResidentBatch, tr: &mut Tracer) -> Res<()> {
        let (n, lanes) = (self.feet.nrows(), self.feet.ncols());
        if matches!(self.solver, Solver::Verified(_)) {
            // The verified step scans every foot for non-finite values.
            let feet = &self.feet;
            let finite = tr.leaf(span::FEET_SCAN, || {
                (0..lanes).all(|j| (0..n).all(|i| feet.get(i, j).is_finite()))
            });
            if !finite {
                return Err("non-finite characteristic foot".into());
            }
        }
        let eta = &mut self.eta;
        tr.leaf(span::COPY, || eta.copy_from(slab)).map_err(msg)?;
        let report: Option<LaneReport> = match &self.solver {
            Solver::Plain(b) => tr
                .leaf(span::SOLVE, || on!(exec, e => b.solve_resident(e, eta)))
                .map(|()| None),
            Solver::Verified(b) => tr
                .leaf(span::SOLVE, || on!(exec, e => b.solve_resident(e, eta)))
                .map(Some),
        }
        .map_err(msg)?;
        if let Some(report) = report {
            // … and folds the report and the largest displacement into
            // its per-step diagnostics.
            let (points, feet) = (&self.points, &self.feet);
            self.flagged += tr.leaf(span::DIAGNOSTICS, || {
                let mut max_disp = 0.0_f64;
                for j in 0..lanes {
                    for (i, x) in points.iter().enumerate() {
                        max_disp = max_disp.max((x - feet.get(i, j)).abs());
                    }
                }
                black_box(max_disp);
                black_box(report.total_refine_steps());
                black_box(report.worst_residual());
                let flagged = report.quarantined_lanes().len()
                    + report.recovered_lanes().len()
                    + report.refined_lanes().len();
                (flagged + usize::from(!report.all_verified())) as u64
            });
        }
        let (ev, eta, feet) = (&self.eval, &self.eta, &self.feet);
        tr.leaf(
            span::EVAL,
            || on!(exec, e => ev.eval_resident(e, eta, feet, slab)),
        )
        .map_err(msg)
    }
}

// One replay per run.
#[allow(clippy::large_enum_variant)]
enum ReplayKind {
    Host {
        builder: SplineBuilder,
        eval: SplineEvaluator,
        feet: Matrix,
        eta: Matrix,
        interp: Matrix,
        f: Matrix,
    },
    Resident {
        stage: ResidentStage,
        slab: ResidentBatch,
        mirror: Matrix,
    },
    Vlasov {
        x: ResidentStage,
        v: ResidentStage,
        f_xv: ResidentBatch,
        f_vx: ResidentBatch,
        mirror: Matrix,
        dx: f64,
        dv: f64,
    },
}

/// The ledger's replay of a workload: same inputs, same arithmetic, but
/// every layer call made from here, inside a span.
pub struct Replay {
    kind: ReplayKind,
}

impl Replay {
    pub fn build(spec: &Spec, inputs: &Inputs) -> Res<Replay> {
        let initial = |points: &[f64]| {
            Matrix::from_fn(spec.nv, spec.nx, Layout::Right, |j, i| {
                inputs.profile(points[i], inputs.velocities[j])
            })
        };
        let kind = match spec.kind {
            Kind::Host => {
                let space = space(spec)?;
                let points = space.interpolation_points();
                let mut feet = Matrix::zeros(spec.nx, spec.nv, Layout::Left);
                for (j, v) in inputs.velocities.iter().enumerate() {
                    for (i, x) in points.iter().enumerate() {
                        feet.set(i, j, x - v * ADVECTION_DT);
                    }
                }
                ReplayKind::Host {
                    builder: SplineBuilder::new(space.clone(), BuilderVersion::FusedSpmv)
                        .map_err(msg)?,
                    eval: SplineEvaluator::new(space),
                    feet,
                    eta: Matrix::zeros(spec.nx, spec.nv, Layout::Left),
                    interp: Matrix::zeros(spec.nx, spec.nv, Layout::Left),
                    f: initial(&points),
                }
            }
            Kind::Resident | Kind::Verified => {
                let mut stage =
                    ResidentStage::new(space(spec)?, spec.nv, spec.kind == Kind::Verified)?;
                stage.write_feet(|j| inputs.velocities[j] * ADVECTION_DT);
                let mirror = initial(&stage.points);
                let mut slab = ResidentBatch::zeros(spec.nx, spec.nv);
                slab.pack_transposed_from(&mirror).map_err(msg)?;
                ReplayKind::Resident {
                    stage,
                    slab,
                    mirror,
                }
            }
            Kind::Vlasov => {
                let uniform = |n, lo, hi| -> Res<PeriodicSplineSpace> {
                    PeriodicSplineSpace::new(Breaks::uniform(n, lo, hi).map_err(msg)?, spec.degree)
                        .map_err(msg)
                };
                let mut x = ResidentStage::new(uniform(spec.nx, 0.0, VLASOV_LX)?, spec.nv, false)?;
                let mut v = ResidentStage::new(
                    uniform(spec.nv, -VLASOV_VMAX, VLASOV_VMAX)?,
                    spec.nx,
                    false,
                )?;
                // Strang half step in x; v feet are rewritten per step
                // and otherwise stand at zero displacement.
                let half = VLASOV_DT / 2.0;
                let v_grid = v.points.clone();
                x.write_feet(|j| v_grid[j] * half);
                v.write_feet(|_| 0.0 * VLASOV_DT);
                let f0 = two_stream(inputs.two_stream_v0, inputs.two_stream_amplitude, VLASOV_K);
                let mirror = Matrix::from_fn(spec.nv, spec.nx, Layout::Right, |j, i| {
                    f0(x.points[i], v_grid[j])
                });
                ReplayKind::Vlasov {
                    f_xv: ResidentBatch::pack_transposed(&mirror),
                    f_vx: ResidentBatch::zeros(spec.nv, spec.nx),
                    mirror,
                    x,
                    v,
                    dx: VLASOV_LX / spec.nx as f64,
                    dv: 2.0 * VLASOV_VMAX / spec.nv as f64,
                }
            }
        };
        Ok(Replay { kind })
    }

    /// One step as a root [`STEP`] span with one child per layer call.
    pub fn step(&mut self, exec: Exec, tr: &mut Tracer) -> Res<()> {
        tr.span(STEP, |tr| match &mut self.kind {
            ReplayKind::Host {
                builder,
                eval,
                feet,
                eta,
                interp,
                f,
            } => {
                tr.leaf(
                    span::TRANSPOSE_IN,
                    || on!(exec, e => transpose_into_with(e, f, eta)),
                )
                .map_err(msg)?;
                tr.leaf(
                    span::SOLVE,
                    || on!(exec, e => builder.solve_in_place(e, eta)),
                )
                .map_err(msg)?;
                tr.leaf(
                    span::EVAL,
                    || on!(exec, e => eval.eval_batched(e, eta, feet, interp)),
                )
                .map_err(msg)?;
                tr.leaf(
                    span::TRANSPOSE_OUT,
                    || on!(exec, e => transpose_into_with(e, interp, f)),
                )
                .map_err(msg)
            }
            ReplayKind::Resident { stage, slab, .. } => stage.step(exec, slab, tr),
            ReplayKind::Vlasov {
                x,
                v,
                f_xv,
                f_vx,
                dx,
                dv,
                ..
            } => {
                x.step(exec, f_xv, tr)?;
                let field = tr.leaf(span::FIELD, || electric_field(f_xv, *dx, *dv));
                tr.leaf(span::FLIP, || f_xv.transpose_into(f_vx))
                    .map_err(msg)?;
                tr.leaf(span::FEET, || v.write_feet(|j| -field[j] * VLASOV_DT));
                v.step(exec, f_vx, tr)?;
                tr.leaf(span::FEET, || v.write_feet(|_| 0.0 * VLASOV_DT));
                tr.leaf(span::FLIP, || f_vx.transpose_into(f_xv))
                    .map_err(msg)?;
                x.step(exec, f_xv, tr)
            }
        })
    }

    /// Fingerprint of the current `(nv, nx)` row-major field.
    pub fn output_fnv64(&mut self) -> Res<u64> {
        Ok(match &mut self.kind {
            ReplayKind::Host { f, .. } => fnv64(f.as_slice()),
            ReplayKind::Resident { slab, mirror, .. } => {
                slab.unpack_transposed_into(mirror).map_err(msg)?;
                fnv64(mirror.as_slice())
            }
            ReplayKind::Vlasov { f_xv, mirror, .. } => {
                f_xv.unpack_transposed_into(mirror).map_err(msg)?;
                fnv64(mirror.as_slice())
            }
        })
    }

    /// Lanes the verified solves flagged so far (0 unless verified).
    pub fn lanes_flagged(&self) -> u64 {
        match &self.kind {
            ReplayKind::Resident { stage, .. } => stage.flagged,
            _ => 0,
        }
    }
}

/// Density and field solve as the resident Strang step performs them:
/// `ρ(x_i) = Σ_j f(i, j)·dv` in ascending lane order off the slab, then
/// the zero-mean cumulative-trapezoid integral of `⟨ρ⟩ − ρ`. These are
/// private to the Vlasov driver, so the replay carries its own copy;
/// the bit-for-bit check against the driver keeps the copy honest.
fn electric_field(slab: &ResidentBatch, dx: f64, dv: f64) -> Vec<f64> {
    let (nx, nv) = (slab.nrows(), slab.ncols());
    let rho: Vec<f64> = (0..nx)
        .map(|i| (0..nv).map(|j| slab.get(i, j)).sum::<f64>() * dv)
        .collect();
    let mean: f64 = rho.iter().sum::<f64>() / nx as f64;
    let mut e = vec![0.0; nx];
    for i in 1..nx {
        e[i] = e[i - 1] + 0.5 * ((mean - rho[i - 1]) + (mean - rho[i])) * dx;
    }
    let e_mean: f64 = e.iter().sum::<f64>() / nx as f64;
    for v in &mut e {
        *v -= e_mean;
    }
    e
}

// ---------------------------------------------------------------------
// Isolated layer probes
// ---------------------------------------------------------------------

/// Raw samples (nanoseconds per call) of the layer calls the replay
/// cannot see inside or that only run at set-up.
#[derive(Debug, Clone, Default)]
pub struct LayerProbes {
    /// `PeriodicSplineSpace::new` + `interpolation_points`.
    pub space_build_ns: Vec<u64>,
    /// `SplineBuilder::new` (assembly + Schur factorisation).
    pub factor_ns: Vec<u64>,
    /// The `Q` sweep alone on a `(q, nv)` batch.
    pub q_sweep_ns: Vec<u64>,
    /// Rows of `Q`.
    pub q_rows: usize,
    /// Border `getrs` alone on a `(border, nv)` batch.
    pub border_getrs_ns: Vec<u64>,
    /// Plain `solve_resident` on the verified workload's batch (empty
    /// elsewhere): the subtrahend of `verify_ms`.
    pub plain_solve_ns: Vec<u64>,
    /// `eval_basis`, one thread, mean nanoseconds per call per pass.
    pub eval_basis_ns: Vec<f64>,
    /// `ResidentBatch::pack_transposed_from` / `unpack_transposed_into`.
    pub pack_ns: Vec<u64>,
    pub unpack_ns: Vec<u64>,
    /// Empty-body `parallel_for(nv)`.
    pub dispatch_ns: Vec<u64>,
}

/// `reps` samples of `call`, each preceded by an untimed `prepare` on
/// the same state.
fn sample_ns<S>(
    reps: usize,
    state: &mut S,
    mut prepare: impl FnMut(&mut S),
    mut call: impl FnMut(&mut S),
) -> Vec<u64> {
    (0..reps)
        .map(|_| {
            prepare(state);
            let t0 = Instant::now();
            call(state);
            t0.elapsed().as_nanos() as u64
        })
        .collect()
}

/// Time the layers in isolation on the pool, `reps` samples each (the
/// caller takes medians, which discards the cold first sample).
pub fn probe_layers(spec: &Spec, inputs: &Inputs, reps: usize) -> Res<LayerProbes> {
    let mut out = LayerProbes::default();
    let exec = &Parallel;
    // The Vlasov x and v spaces are both uniform with 1024 cells; probe x.
    let make_space = || -> Res<PeriodicSplineSpace> {
        if spec.kind == Kind::Vlasov {
            let breaks = Breaks::uniform(spec.nx, 0.0, VLASOV_LX).map_err(msg)?;
            PeriodicSplineSpace::new(breaks, spec.degree).map_err(msg)
        } else {
            space(spec)
        }
    };
    let sp = make_space()?;
    let version = if spec.kind == Kind::Host {
        BuilderVersion::FusedSpmv
    } else {
        BuilderVersion::Interleaved
    };
    let builder = SplineBuilder::new(sp.clone(), version).map_err(msg)?;
    // Both succeeded just above with these arguments.
    out.space_build_ns = sample_ns(
        reps,
        &mut (),
        |()| (),
        |()| {
            black_box(make_space().expect("built above").interpolation_points());
        },
    );
    out.factor_ns = sample_ns(
        reps,
        &mut (),
        |()| (),
        |()| {
            black_box(SplineBuilder::new(sp.clone(), version).expect("built above"));
        },
    );
    let blocks = builder.blocks();
    let (q, border) = (blocks.q_size(), blocks.border());
    out.q_rows = q;

    // Right-hand sides: the workload's own profile, refilled before
    // every sample so repeated in-place solves cannot drift to denormals.
    let rhs = |rows: usize| {
        Matrix::from_fn(rows, spec.nv, Layout::Left, |i, _| {
            inputs.profile(i as f64 / rows as f64, 0.0)
        })
    };
    let (rhs_q, rhs_b) = (rhs(q), rhs(border));
    if spec.kind == Kind::Host {
        out.q_sweep_ns = sample_ns(
            reps,
            &mut rhs_q.clone(),
            |b| b.deep_copy_from(&rhs_q).expect("same shape"),
            |b| match blocks.q_factors() {
                QFactors::PdsTridiagonal(f) => pttrs(exec, f, b),
                QFactors::PdsBanded(f) => pbtrs(exec, f, b),
                QFactors::GeneralBanded(f) => gbtrs(exec, f, b),
            },
        );
        out.border_getrs_ns = sample_ns(
            reps,
            &mut rhs_b.clone(),
            |b| b.deep_copy_from(&rhs_b).expect("same shape"),
            |b| getrs(exec, blocks.delta_factors(), b),
        );
    } else {
        let (pq, pb) = (ResidentBatch::pack(&rhs_q), ResidentBatch::pack(&rhs_b));
        out.q_sweep_ns = sample_ns(
            reps,
            &mut pq.clone(),
            |b| b.copy_from(&pq).expect("same shape"),
            |b| match blocks.q_factors() {
                QFactors::PdsTridiagonal(f) => pttrs_resident(exec, f, b),
                QFactors::PdsBanded(f) => pbtrs_resident(exec, f, b),
                QFactors::GeneralBanded(f) => gbtrs_resident(exec, f, b),
            },
        );
        out.border_getrs_ns = sample_ns(
            reps,
            &mut pb.clone(),
            |b| b.copy_from(&pb).expect("same shape"),
            |b| getrs_resident(exec, blocks.delta_factors(), b),
        );
    }

    if spec.kind == Kind::Verified {
        let full = ResidentBatch::pack(&rhs(spec.nx));
        out.plain_solve_ns = sample_ns(
            reps,
            &mut full.clone(),
            |b| b.copy_from(&full).expect("same shape"),
            |b| builder.solve_resident(exec, b).expect("same shape"),
        );
    }

    // eval_basis over the feet of the first lanes, one thread.
    let points = sp.interpolation_points();
    let lanes = spec.nv.min(64);
    let feet: Vec<f64> = (0..lanes)
        .flat_map(|j| {
            let d = if spec.kind == Kind::Vlasov {
                // The x half step: lane velocity is the v grid value.
                (-VLASOV_VMAX + j as f64 * 2.0 * VLASOV_VMAX / spec.nv as f64) * VLASOV_DT / 2.0
            } else {
                inputs.velocities[j] * ADVECTION_DT
            };
            points.iter().map(move |x| x - d)
        })
        .collect();
    out.eval_basis_ns = sample_ns(
        reps,
        &mut (),
        |()| (),
        |()| {
            let mut vals = [0.0; MAX_DEGREE + 1];
            for &x in &feet {
                black_box(sp.eval_basis(x, &mut vals));
                black_box(&vals);
            }
        },
    )
    .into_iter()
    .map(|ns| ns as f64 / feet.len() as f64)
    .collect();

    if spec.kind != Kind::Host {
        let mirror = Matrix::from_fn(spec.nv, spec.nx, Layout::Right, |_, i| {
            inputs.profile(i as f64 / spec.nx as f64, 0.0)
        });
        let mut pair = (ResidentBatch::zeros(spec.nx, spec.nv), mirror);
        out.pack_ns = sample_ns(
            reps,
            &mut pair,
            |_| (),
            |(slab, mirror)| slab.pack_transposed_from(mirror).expect("same shape"),
        );
        out.unpack_ns = sample_ns(
            reps,
            &mut pair,
            |_| (),
            |(slab, mirror)| slab.unpack_transposed_into(mirror).expect("same shape"),
        );
    }

    out.dispatch_ns = sample_ns(
        reps.max(200),
        &mut (),
        |()| (),
        |()| {
            parallel_for(spec.nv, |i| {
                black_box(i);
            })
        },
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn fnv64_matches_the_reference_vectors() {
        // FNV-1a 64 of the empty input is the offset basis.
        assert_eq!(fnv64(&[]), 0xcbf2_9ce4_8422_2325);
        // Eight zero bytes (the bits of 0.0).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..8 {
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(fnv64(&[0.0]), h);
        assert_ne!(fnv64(&[0.0]), fnv64(&[-0.0]));
        assert_ne!(fnv64(&[1.0, 2.0]), fnv64(&[2.0, 1.0]));
    }

    /// The satellite "ledger ≡ step" at smoke size, for every workload:
    /// the replay reproduces the driver bit for bit, on both execution
    /// spaces.
    #[test]
    fn replay_reproduces_the_driver_bit_for_bit() {
        for spec in WORKLOADS {
            let spec = spec.smoke();
            let inputs = Inputs::generate(11, spec.nv);
            let mut reference = None;
            for exec in [Exec::Parallel, Exec::Serial] {
                let mut driver = Driver::build(&spec, &inputs).unwrap();
                let mut replay = Replay::build(&spec, &inputs).unwrap();
                let mut tr = Tracer::with_capacity(256);
                for _ in 0..3 {
                    driver.step(exec).unwrap();
                    assert!(driver.last_step_clean());
                    replay.step(exec, &mut tr).unwrap();
                }
                let outcome = driver.finish(&inputs).unwrap();
                assert!(outcome.finite);
                assert!(
                    outcome.accuracy_err < spec.tolerance,
                    "{}: {}",
                    spec.name,
                    outcome.accuracy_err
                );
                assert_eq!(
                    outcome.fnv64,
                    replay.output_fnv64().unwrap(),
                    "{}",
                    spec.name
                );
                assert_eq!(replay.lanes_flagged(), 0);
                // Serial and Parallel agree bit for bit as well.
                assert_eq!(*reference.get_or_insert(outcome.fnv64), outcome.fnv64);
            }
        }
    }

    #[test]
    fn probes_return_a_sample_per_rep() {
        for name in ["adv_host_u3", "adv_resident_n5", "adv_verified_u3"] {
            let spec = crate::workloads::find(name).unwrap().smoke();
            let inputs = Inputs::generate(3, spec.nv);
            let p = probe_layers(&spec, &inputs, 3).unwrap();
            assert_eq!(p.q_sweep_ns.len(), 3);
            assert_eq!(p.border_getrs_ns.len(), 3);
            assert_eq!(p.factor_ns.len(), 3);
            assert_eq!(p.eval_basis_ns.len(), 3);
            assert!(p.q_rows > 0 && p.q_rows < spec.nx);
            assert_eq!(
                p.plain_solve_ns.is_empty(),
                spec.kind != Kind::Verified,
                "{name}"
            );
            assert_eq!(p.pack_ns.is_empty(), spec.kind == Kind::Host, "{name}");
        }
    }
}
