//! One run of one workload: the untraced pass that produces the
//! end-to-end numbers, and the ledger pass that produces the per-layer
//! ones.
//!
//! A run is a sequence of **rounds**. A round builds the workload from
//! its inputs, runs the fixed warm-up steps (both are set-up and timed
//! as such), runs the fixed number of timed steps with one `Instant`
//! pair around each `step*` call, and checks the output. Step counts
//! per round never change, so accuracy and the output fingerprint are
//! deterministic; `--seconds` only decides how many whole rounds fit.
//!
//! Every duration is recorded together with the samples of the
//! benchmark's own reference kernel that bracket it, and reported
//! normalised by them — see [`crate::reference`].

use crate::adapter::{
    self, pool_snapshot, probe_layers, span, Driver, Exec, LayerProbes, Outcome, Replay,
};
use crate::host::{self, Triad};
use crate::json::Json;
use crate::ledger::{self, Span, Tracer};
use crate::metrics::{metric, metrics_json, Metric};
use crate::reference::{quiet_ns, Reference, Sampled, NOMINAL_NS};
use crate::stats::{median, median_ns, quantile};
use crate::workloads::{Inputs, Kind, Spec};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub spec: Spec,
    pub seed: u64,
    /// Measuring budget in seconds (rounds, ledger and probes share it
    /// when tracing).
    pub seconds: f64,
    pub trace: bool,
    /// Bytes per triad array; `None` sizes them from the last-level
    /// cache (the real probe), `Some` is for `--smoke` and tests.
    pub triad_array_bytes: Option<u64>,
}

/// Everything a run found out.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    /// Steps attempted, warm-up and ledger steps included.
    pub attempted: u64,
    pub failed: u64,
    /// Why ops failed; empty on a clean run.
    pub notes: Vec<String>,
    /// End-to-end metrics (untraced pass) or per-layer ones (trace).
    pub metrics: Vec<Metric>,
    pub output_fnv64: u64,
    pub timed_steps: usize,
    /// Set-ups timed: one per round, plus those that filled what the
    /// last round left of the budget.
    pub setup_samples: usize,
    /// Median timed step of each round in ms, as measured (uncorrected).
    pub round_median_ms: Vec<f64>,
    /// Quiet-host cost of the reference kernel in this run, ms.
    pub reference_quiet_ms: f64,
    /// Median reference sample over the quiet one, minus one: how much
    /// the neighbours slowed this run.
    pub interference: f64,
    pub spans: Vec<Span>,
    pub triad: Option<Triad>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.notes.is_empty()
    }

    /// The one-line result the PR driver reads: exactly `correct`,
    /// `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics_json(&self.metrics))
            .render()
    }

    /// The fuller record the suite aggregates, as `key<TAB>value` lines
    /// (a repeated key is a list). Flat on purpose: [`Record`] reads it
    /// back with `split_once`, so the crate needs no JSON reader.
    pub fn detail_record(&self) -> String {
        let mut out = String::new();
        let mut line = |key: &str, value: &dyn std::fmt::Display| {
            writeln!(out, "{key}\t{value}").expect("string write");
        };
        line("workload", &self.workload);
        line("seed", &self.seed);
        line("trace", &u8::from(self.trace));
        line("correct", &self.correct());
        line("ops", &self.attempted);
        line("failed_ops", &self.failed);
        for note in &self.notes {
            line("note", &note.replace(['\n', '\r'], " "));
        }
        line("output_fnv64", &format_args!("{:016x}", self.output_fnv64));
        line("timed_steps", &self.timed_steps);
        line("setup_samples", &self.setup_samples);
        for m in &self.round_median_ms {
            line("round_median_step_ms_raw", m);
        }
        line("reference_quiet_ms", &self.reference_quiet_ms);
        line("interference", &self.interference);
        for m in &self.metrics {
            line(&format!("metric.{}", m.name), &m.value);
        }
        if let Some(t) = &self.triad {
            line("triad_array_bytes", &t.array_bytes);
            line("triad_capped_by_mem_available", &t.capped);
        }
        out
    }
}

/// A detail record read back: the `(key, value)` lines in file order.
pub struct Record(Vec<(String, String)>);

impl Record {
    /// Lines without a tab are skipped.
    pub fn parse(text: &str) -> Record {
        Record(
            text.lines()
                .filter_map(|l| l.split_once('\t'))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        )
    }

    /// Every value recorded under `key`, in order.
    pub fn all<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> {
        self.0
            .iter()
            .filter(move |(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The first value recorded under `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        let (_, value) = self.0.iter().find(|(k, _)| k == key)?;
        Some(value)
    }

    /// The number under `key`; `NaN` if absent or not a number.
    pub fn num(&self, key: &str) -> f64 {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::NAN)
    }
}

/// The reference kernel and every sample it has produced in this run.
struct Sampler {
    reference: Reference,
    samples: Vec<u64>,
}

impl Sampler {
    fn new() -> Self {
        Sampler {
            reference: Reference::new(adapter::pool_threads()),
            samples: Vec::with_capacity(1024),
        }
    }

    /// Take a sample; the value returned is its mean with the previous
    /// one, i.e. the reference for whatever ran between the two.
    fn bracket(&mut self) -> u64 {
        let ns = self.reference.sample();
        let previous = self.samples.last().copied().unwrap_or(ns);
        self.samples.push(ns);
        (previous + ns) / 2
    }

    /// `(quiet reference cost in ns, interference)`: the run's 10th
    /// percentile sample, and how far the median sample sits above it.
    fn noise(&self) -> (f64, f64) {
        let quiet = quiet_ns(&self.samples);
        (quiet, median_ns(&self.samples) / quiet - 1.0)
    }
}

/// Steps per reference sample: one, unless steps are so short that a
/// sample after each would dominate the run (`adv_host_small`), in which
/// case a sample follows every ~20 ms of steps.
fn steps_per_sample(spec: &Spec) -> usize {
    if spec.nx * spec.nv >= 1 << 18 {
        1
    } else {
        40
    }
}

/// Result of a sequence of rounds.
#[derive(Default)]
struct Rounds {
    /// Per round, the set-up in segments: the build, then the warm-up
    /// steps in groups, each with the reference sample next to it.
    setup: Vec<Vec<Sampled>>,
    /// Every timed step.
    steps: Vec<Sampled>,
    round_median_ms: Vec<f64>,
    outcome: Option<Outcome>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    // Over the timed steps only (reference samples excluded):
    dispatches: u64,
    busy: Duration,
    workers: usize,
    cpu_s: f64,
    wall_s: f64,
    /// `VmHWM` when the first round ended, MiB.
    peak_rss_mib: Option<f64>,
}

impl Rounds {
    /// Every timed step, normalised, in nanoseconds.
    fn step_ns(&self) -> Vec<f64> {
        self.steps.iter().map(Sampled::normalised_ns).collect()
    }

    /// The set-up of every round, normalised, in seconds.
    fn setup_s(&self) -> Vec<f64> {
        self.setup
            .iter()
            .map(|segments| segments.iter().map(Sampled::normalised_ns).sum::<f64>() / 1e9)
            .collect()
    }
}

/// Everything from "inputs exist" to "ready for the first timed step":
/// the build, then the warm-up steps, reference samples around each. One
/// `setup_s` sample.
fn set_up(
    spec: &Spec,
    inputs: &Inputs,
    exec: Exec,
    sampler: &mut Sampler,
    out: &mut Rounds,
) -> Result<Driver, String> {
    let group = steps_per_sample(spec);
    let mut segments = Vec::with_capacity(2 + spec.warmup / group);
    sampler.bracket();
    let t0 = Instant::now();
    let mut driver = Driver::build(spec, inputs)?;
    let build_ns = t0.elapsed().as_nanos() as u64;
    segments.push(Sampled {
        ns: build_ns,
        reference_ns: sampler.bracket(),
    });
    let mut left = spec.warmup;
    while left > 0 {
        let n = left.min(group);
        let t0 = Instant::now();
        for _ in 0..n {
            out.attempted += 1;
            driver.step(exec)?;
        }
        let ns = t0.elapsed().as_nanos() as u64;
        segments.push(Sampled {
            ns,
            reference_ns: sampler.bracket(),
        });
        left -= n;
    }
    out.setup.push(segments);
    Ok(driver)
}

/// One round. Returns `Err` with the reason when an op failed.
fn round(
    spec: &Spec,
    inputs: &Inputs,
    exec: Exec,
    timed: usize,
    sampler: &mut Sampler,
    out: &mut Rounds,
) -> Result<(), String> {
    let group = steps_per_sample(spec);
    let mut driver = set_up(spec, inputs, exec, sampler, out)?;

    // ---- timed steps ---------------------------------------------------
    let first = out.steps.len();
    out.steps.reserve(timed);
    let mut done = 0;
    while done < timed {
        let n = (timed - done).min(group);
        let group_first = out.steps.len();
        let (pool0, cpu0) = (pool_snapshot(), host::cpu_seconds());
        for _ in 0..n {
            out.attempted += 1;
            let t = Instant::now();
            let stepped = driver.step(exec);
            out.steps.push(Sampled {
                ns: t.elapsed().as_nanos() as u64,
                reference_ns: 0,
            });
            stepped?;
            if !driver.last_step_clean() {
                return Err("verified step reported a repaired or quarantined lane".into());
            }
        }
        let (pool1, cpu1) = (pool_snapshot(), host::cpu_seconds());
        let reference_ns = sampler.bracket();
        for s in &mut out.steps[group_first..] {
            s.reference_ns = reference_ns;
            out.wall_s += s.ns as f64 / 1e9;
        }
        out.dispatches += pool1.dispatches - pool0.dispatches;
        out.busy += pool1.busy - pool0.busy;
        out.workers = pool1.workers;
        if let (Some(a), Some(b)) = (cpu0, cpu1) {
            out.cpu_s += b - a;
        }
        done += n;
    }
    let raw: Vec<u64> = out.steps[first..].iter().map(|s| s.ns).collect();
    out.round_median_ms.push(median_ns(&raw) / 1e6);

    // ---- output checks ---------------------------------------------------
    let outcome = driver.finish(inputs)?;
    if !outcome.finite {
        return Err("non-finite value in the final field".into());
    }
    if outcome.accuracy_err.is_nan() || outcome.accuracy_err > spec.tolerance {
        return Err(format!(
            "accuracy_err {:e} over the workload's tolerance {:e}",
            outcome.accuracy_err, spec.tolerance
        ));
    }
    match out.outcome {
        None => out.outcome = Some(outcome),
        // Same inputs, same step count: every round must end on the
        // same bits.
        Some(first) if first != outcome => {
            return Err(format!(
                "round outputs differ: {:016x} vs {:016x}",
                first.fnv64, outcome.fnv64
            ));
        }
        Some(_) => {}
    }
    Ok(())
}

/// Whole rounds until the next one would overrun `budget`; at least one.
/// What is left of the budget then goes to further set-ups alone: a
/// workload whose round takes seconds fits three or four in a run, too
/// few for a steady median of `setup_s`.
fn rounds(
    spec: &Spec,
    inputs: &Inputs,
    exec: Exec,
    timed: usize,
    budget: Duration,
    sampler: &mut Sampler,
) -> Rounds {
    let mut out = Rounds::default();
    let start = Instant::now();
    let fail = |out: &mut Rounds, why: String| {
        out.notes.push(why);
        // A failed check condemns the run, not one step.
        out.failed = out.attempted;
    };
    loop {
        let t0 = Instant::now();
        if let Err(why) = round(spec, inputs, exec, timed, sampler, &mut out) {
            fail(&mut out, why);
            return out;
        }
        // Read after the first round: from process start to here the
        // allocation sequence is fixed, so the high-water mark is the
        // workload's own. Later rounds only add what the allocator
        // happened to keep from earlier ones (a run-to-run coin toss of
        // one 8 MiB array on the seed's host).
        if out.peak_rss_mib.is_none() {
            out.peak_rss_mib = host::peak_rss_mib();
        }
        if start.elapsed() + t0.elapsed() > budget {
            break;
        }
    }
    // As long as one more fits, going by what the last one took.
    let last = out.setup.last().map_or(0, |s| s.iter().map(|x| x.ns).sum());
    let mut took = Duration::from_nanos(last);
    while start.elapsed() + took < budget {
        let t0 = Instant::now();
        if let Err(why) = set_up(spec, inputs, exec, sampler, &mut out) {
            fail(&mut out, why);
            break;
        }
        took = t0.elapsed();
    }
    out
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Run one workload.
pub fn run(cfg: &RunConfig) -> Report {
    let spec = &cfg.spec;
    let inputs = Inputs::generate(cfg.seed, spec.nv);
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let mut sampler = Sampler::new();
    // Tracing shares the budget: a third for the untraced reference,
    // a third for the ledger, the rest for probes and the baseline.
    let untraced_budget = if cfg.trace { budget / 3 } else { budget };
    let r = rounds(
        spec,
        &inputs,
        Exec::Parallel,
        spec.timed,
        untraced_budget,
        &mut sampler,
    );

    let mut report = Report {
        workload: spec.name,
        seed: cfg.seed,
        trace: cfg.trace,
        attempted: r.attempted,
        failed: r.failed,
        notes: r.notes.clone(),
        metrics: Vec::new(),
        output_fnv64: r.outcome.map_or(0, |o| o.fnv64),
        timed_steps: r.steps.len(),
        setup_samples: r.setup.len(),
        round_median_ms: r.round_median_ms.clone(),
        reference_quiet_ms: 0.0,
        interference: 0.0,
        spans: Vec::new(),
        triad: None,
    };

    if !cfg.trace {
        let (quiet, interference) = sampler.noise();
        report.reference_quiet_ms = ms(quiet);
        report.interference = interference;
        report.metrics = vec![
            metric("glups", spec.points_per_step() / median(&r.step_ns())),
            metric("setup_s", median(&r.setup_s())),
            metric("peak_rss_mib", r.peak_rss_mib.unwrap_or(f64::NAN)),
            metric(
                "accuracy_err",
                r.outcome.map_or(f64::NAN, |o| o.accuracy_err),
            ),
        ];
        return report;
    }

    // ---- ledger pass ------------------------------------------------
    // A quarter of the timed steps, but no fewer than 96 while the
    // budget lasts: the cover is a ratio of two medians, and on a noisy
    // host 24 pairs left it ±4 %.
    let ledger_steps = (r.steps.len() / 4).max(96);
    let mut tracer = Tracer::with_capacity(16 * ledger_steps);
    let ledger = ledger_pass(
        spec,
        &inputs,
        &mut tracer,
        &mut sampler,
        ledger_steps,
        budget / 3,
    );
    let ledger = ledger.unwrap_or_else(|why| {
        report.notes.push(format!("ledger: {why}"));
        LedgerPass::default()
    });
    report.attempted += ledger.attempted;
    if ledger.lanes_flagged > 0 {
        report
            .notes
            .push(format!("ledger: {} lane(s) flagged", ledger.lanes_flagged));
    }

    // ---- the plain single-thread baseline -----------------------------
    let serial = {
        let mut short = *spec;
        short.warmup = 2;
        rounds(
            &short,
            &inputs,
            Exec::Serial,
            (spec.timed / 6).max(8),
            Duration::ZERO,
            &mut sampler,
        )
    };
    report.attempted += serial.attempted;
    report
        .notes
        .extend(serial.notes.iter().map(|n| format!("serial: {n}")));

    // ---- isolated layers and the host --------------------------------
    // The probes are short calls in tight loops; the reference samples
    // around the lot normalise them all. One sample before and two after,
    // and their median: a single sample that caught a stall of the host
    // (seen: 27 ms for 2.7) would otherwise scale every probe figure.
    sampler.bracket();
    let probes = probe_layers(spec, &inputs, 7).unwrap_or_else(|why| {
        report.notes.push(format!("probe: {why}"));
        LayerProbes::default()
    });
    sampler.bracket();
    sampler.bracket();
    let probe_reference_ns = median_ns(&sampler.samples[sampler.samples.len() - 3..]);
    if !report.notes.is_empty() {
        report.failed = report.attempted;
    }
    let threads = adapter::pool_threads();
    let triad = host::triad(threads, 3, cfg.triad_array_bytes);

    let (quiet, interference) = sampler.noise();
    report.reference_quiet_ms = ms(quiet);
    report.interference = interference;
    report.metrics = layer_metrics(&LayerInputs {
        spec,
        untraced: &r,
        serial: &serial,
        spans: tracer.spans(),
        ledger: &ledger,
        probes: &probes,
        probe_reference_ns,
        triad: &triad,
        threads,
        quiet,
        interference,
    });
    report.spans = tracer.spans().to_vec();
    report.triad = Some(triad);
    report
}

#[derive(Default)]
struct LedgerPass {
    attempted: u64,
    lanes_flagged: u64,
    /// The replay reproduced the driver bit for bit.
    matches: bool,
    /// The real `step*` call run right before each replayed step, ns.
    real_ns: Vec<u64>,
    /// The reference bracketing each real + replayed pair.
    reference_ns: Vec<u64>,
}

/// Verify the replay against the driver, then record `steps` replayed
/// steps (fewer if `budget` runs out, never fewer than 12), each right
/// after one real step on the driver. The real steps are what the
/// ledger accounts for: taken in alternation, both sides see the same
/// phase of the host, which two passes seconds apart do not.
fn ledger_pass(
    spec: &Spec,
    inputs: &Inputs,
    tracer: &mut Tracer,
    sampler: &mut Sampler,
    steps: usize,
    budget: Duration,
) -> Result<LedgerPass, String> {
    let mut driver = Driver::build(spec, inputs)?;
    let mut replay = Replay::build(spec, inputs)?;
    let mut pass = LedgerPass::default();
    // k real steps against k replayed ones, compared bit for bit.
    let check = |driver: &mut Driver, replay: &mut Replay, k: usize| {
        let (real, replayed) = (driver.finish(inputs)?.fnv64, replay.output_fnv64()?);
        if real == replayed {
            Ok(())
        } else {
            Err(format!(
                "replay does not reproduce the step: driver {real:016x}, replay {replayed:016x} \
                 after {k} steps"
            ))
        }
    };
    // Warm-up doubles as the equivalence check, before any span is trusted.
    let mut scratch = Tracer::with_capacity(16 * spec.warmup);
    for _ in 0..spec.warmup {
        pass.attempted += 2;
        driver.step(Exec::Parallel)?;
        replay.step(Exec::Parallel, &mut scratch)?;
    }
    check(&mut driver, &mut replay, spec.warmup)?;
    // Reference samples around groups of steps, as in the untraced pass.
    let group = steps_per_sample(spec);
    sampler.bracket();
    let start = Instant::now();
    let mut done = 0;
    while done < steps && (done < 12 || start.elapsed() <= budget) {
        let n = (steps - done).min(group);
        for _ in 0..n {
            pass.attempted += 2;
            let t = Instant::now();
            let stepped = driver.step(Exec::Parallel);
            pass.real_ns.push(t.elapsed().as_nanos() as u64);
            stepped?;
            replay.step(Exec::Parallel, tracer)?;
        }
        let reference_ns = sampler.bracket();
        pass.reference_ns
            .extend(std::iter::repeat_n(reference_ns, n));
        done += n;
    }
    check(&mut driver, &mut replay, spec.warmup + done)?;
    pass.matches = true;
    pass.lanes_flagged = replay.lanes_flagged();
    Ok(pass)
}

struct LayerInputs<'a> {
    spec: &'a Spec,
    untraced: &'a Rounds,
    serial: &'a Rounds,
    spans: &'a [Span],
    ledger: &'a LedgerPass,
    probes: &'a LayerProbes,
    probe_reference_ns: f64,
    triad: &'a Triad,
    threads: usize,
    quiet: f64,
    interference: f64,
}

fn layer_metrics(x: &LayerInputs<'_>) -> Vec<Metric> {
    let spec = x.spec;
    let spans = x.spans;
    // Per replayed step, normalised by the reference samples around the
    // step, like every other duration of the run.
    let correct = |per_step: Vec<u64>| -> Vec<f64> {
        per_step
            .iter()
            .zip(&x.ledger.reference_ns)
            .map(|(&ns, &reference_ns)| Sampled { ns, reference_ns }.normalised_ns())
            .collect()
    };
    let per_step = |name: &str| correct(ledger::per_step_ns(spans, name));
    let med = |name: &str| median(&per_step(name));
    let or_zero = |v: f64| if v.is_finite() { v } else { 0.0 };

    let step = correct(ledger::step_durations_ns(spans));
    let own = correct(ledger::step_self_ns(spans));
    // What the replay's layer calls add up to, per replayed step.
    let layers: Vec<f64> = step.iter().zip(&own).map(|(s, o)| s - o).collect();
    let (solve, eval) = (per_step(span::SOLVE), per_step(span::EVAL));
    let transposes: Vec<f64> = per_step(span::TRANSPOSE_IN)
        .iter()
        .zip(per_step(span::TRANSPOSE_OUT))
        .map(|(a, b)| a + b)
        .collect();
    let core: Vec<f64> = (0..step.len())
        .map(|i| transposes[i] + solve[i] + eval[i])
        .collect();

    // The ledger accounts for the *real* step: cover and other are taken
    // against the real steps run in alternation with the replayed ones,
    // so work `step*` does that the replay omits (allocation, timers,
    // lazy scratch) lowers the cover and lands in `other` instead of
    // vanishing.
    let real_median = median(&correct(x.ledger.real_ns.clone()));
    let cover = median(&layers) / real_median;
    let other = real_median - median(&core);
    let u = x.untraced;
    let untraced = u.step_ns();
    let untraced_median = median(&untraced);
    let raw_median = median_ns(&u.steps.iter().map(|s| s.ns).collect::<Vec<_>>());
    let solve_ns = median(&solve);
    let transpose_ns = median(&transposes);
    // Computed traffic: each solve reads and writes the (nx, nv) block
    // once; each transpose reads one block and writes another.
    let block_bytes = 16.0 * (spec.nx * spec.nv) as f64;
    let solve_gbs = spec.sweeps() as f64 * block_bytes / solve_ns;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    // Probe medians, normalised by the samples around the probe phase.
    let p = x.probes;
    let probe_scale = NOMINAL_NS / x.probe_reference_ns;
    let probe_ns = |samples: &[u64]| median_ns(samples) * probe_scale;
    let q_sweep_ns = probe_ns(&p.q_sweep_ns);
    let getrs_ns = probe_ns(&p.border_getrs_ns);
    // Verified workload: the solve span holds solve + verification, so
    // the plain solve probed on the same batch separates the two.
    let (plain_solve_ns, verify_ns) = if spec.kind == Kind::Verified {
        let plain = probe_ns(&p.plain_solve_ns);
        (plain, solve_ns - plain)
    } else {
        (solve_ns, 0.0)
    };
    let corner_ns = plain_solve_ns - spec.sweeps() as f64 * (q_sweep_ns + getrs_ns);

    vec![
        metric("advection.step_ms_p10", ms(quantile(&untraced, 0.10))),
        metric("advection.step_ms_p50", ms(untraced_median)),
        metric("advection.step_ms_p90", ms(quantile(&untraced, 0.90))),
        metric(
            "advection.glups_raw",
            or_zero(spec.points_per_step() / raw_median),
        ),
        metric("advection.other_ms", or_zero(ms(other))),
        metric("advection.feet_ms", or_zero(ms(med(span::FEET)))),
        metric("advection.field_ms", or_zero(ms(med(span::FIELD)))),
        metric("advection.phase_cover", or_zero(cover)),
        metric("splinesolver.eval_ms", or_zero(ms(median(&eval)))),
        metric(
            "splinesolver.eval_ns_per_point",
            or_zero(median(&eval) / spec.points_per_step()),
        ),
        metric("splinesolver.solve_ms", or_zero(ms(solve_ns))),
        metric("splinesolver.solve_gbs", or_zero(solve_gbs)),
        metric(
            "splinesolver.solve_bw_frac",
            or_zero(solve_gbs / x.triad.gbs),
        ),
        metric("splinesolver.corner_ms", or_zero(ms(corner_ns))),
        metric("splinesolver.verify_ms", or_zero(ms(verify_ns))),
        metric("splinesolver.lanes_flagged", x.ledger.lanes_flagged as f64),
        metric(
            "splinesolver.factor_ms",
            or_zero(ms(probe_ns(&p.factor_ns))),
        ),
        metric("linalg.q_sweep_ms", or_zero(ms(q_sweep_ns))),
        metric(
            "linalg.q_sweep_ns_per_row",
            or_zero(q_sweep_ns / (p.q_rows.max(1) * spec.nv) as f64),
        ),
        metric("linalg.border_getrs_ms", or_zero(ms(getrs_ns))),
        metric(
            "bsplines.eval_basis_ns",
            or_zero(median(&p.eval_basis_ns) * probe_scale),
        ),
        metric(
            "bsplines.space_build_ms",
            or_zero(ms(probe_ns(&p.space_build_ns))),
        ),
        metric("portable.transpose_ms", or_zero(ms(transpose_ns))),
        metric(
            "portable.transpose_gbs",
            ratio(2.0 * block_bytes, transpose_ns),
        ),
        metric("portable.pack_ms", or_zero(ms(probe_ns(&p.pack_ns)))),
        metric("portable.unpack_ms", or_zero(ms(probe_ns(&p.unpack_ns)))),
        metric("portable.copy_ms", or_zero(ms(med(span::COPY)))),
        metric("portable.flip_ms", or_zero(ms(med(span::FLIP)))),
        metric(
            "portable.dispatch_us",
            or_zero(probe_ns(&p.dispatch_ns) / 1e3),
        ),
        metric(
            "portable.dispatches_per_step",
            u.dispatches as f64 / u.steps.len().max(1) as f64,
        ),
        metric(
            "portable.pool_speedup",
            or_zero(median(&x.serial.step_ns()) / untraced_median),
        ),
        // Time the pool's workers spent in lane work over the time they
        // could have: workers × wall time of the timed steps.
        metric(
            "portable.pool_busy_frac",
            ratio(u.busy.as_secs_f64(), u.workers as f64 * u.wall_s),
        ),
        metric("portable.cpu_per_wall", ratio(u.cpu_s, u.wall_s)),
        metric("host.triad_gbs", x.triad.gbs),
        metric("host.threads", x.threads as f64),
        metric("host.cores", host::cores() as f64),
        metric("host.reference_ms", ms(x.quiet)),
        metric("host.interference", x.interference),
        metric(
            "trace.overhead_frac",
            or_zero((median(&step) - real_median) / real_median),
        ),
        metric("trace.ledger_steps", step.len() as f64),
        metric("trace.spans", spans.len() as f64),
        metric(
            "trace.replay_matches_step",
            f64::from(u8::from(x.ledger.matches)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::workloads::WORKLOADS;

    fn smoke(name: &str, trace: bool) -> Report {
        run(&RunConfig {
            spec: crate::workloads::find(name).unwrap().smoke(),
            seed: 5,
            seconds: 0.0,
            trace,
            triad_array_bytes: Some(1 << 20),
        })
    }

    #[test]
    fn untraced_run_reports_exactly_the_end_to_end_metrics() {
        let report = smoke("adv_resident_u3", false);
        assert!(report.correct(), "{:?}", report.notes);
        let names: Vec<_> = report.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<_> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, expected);
        assert!(report
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0));
        assert_eq!(report.round_median_ms.len(), 1);
        assert_eq!(report.timed_steps, 12);
        assert_eq!(report.setup_samples, 1);
        assert_eq!(report.attempted, 14);
        assert!(report.reference_quiet_ms > 0.0);
        let line = report.result_line();
        assert!(
            line.starts_with(
                r#"{"correct":true,"attempted":14,"failed":0,"metrics":{"glups":{"value":"#
            ),
            "{line}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn every_duration_carries_a_reference_sample() {
        // Long and short steps alike: one sample per group of steps, one
        // per set-up segment, and none left at its placeholder zero.
        for (name, nx) in [("adv_resident_u3", 2048), ("adv_host_small", 256)] {
            let mut spec = crate::workloads::find(name).unwrap().smoke();
            spec.nx = nx;
            spec.warmup = 45;
            let inputs = Inputs::generate(1, spec.nv);
            let mut sampler = Sampler::new();
            let r = rounds(
                &spec,
                &inputs,
                Exec::Parallel,
                50,
                Duration::ZERO,
                &mut sampler,
            );
            assert!(r.notes.is_empty(), "{:?}", r.notes);
            let group = steps_per_sample(&spec);
            assert_eq!(group, if nx == 2048 { 1 } else { 40 });
            assert_eq!(r.steps.len(), 50);
            assert!(r.steps.iter().all(|s| s.reference_ns > 0 && s.ns > 0));
            assert_eq!(r.setup.len(), 1);
            assert_eq!(r.setup[0].len(), 1 + 45_usize.div_ceil(group));
            // build: 2 samples; then one per warm-up and per timed group.
            assert_eq!(
                sampler.samples.len(),
                2 + 45_usize.div_ceil(group) + 50_usize.div_ceil(group)
            );
            assert!(r.setup_s()[0] > 0.0);
            assert_eq!(r.step_ns().len(), 50);
        }
    }

    #[test]
    fn traced_run_reports_exactly_the_per_layer_metrics_for_every_workload() {
        for spec in WORKLOADS {
            let report = smoke(spec.name, true);
            assert!(report.correct(), "{}: {:?}", spec.name, report.notes);
            let names: Vec<_> = report.metrics.iter().map(|m| m.name).collect();
            let expected: Vec<_> = PER_LAYER.iter().map(|m| m.0).collect();
            assert_eq!(names, expected, "{}", spec.name);
            assert!(
                report.metrics.iter().all(|m| m.value.is_finite()),
                "{}",
                spec.name
            );
            let get = |n: &str| report.metrics.iter().find(|m| m.name == n).unwrap().value;
            assert_eq!(get("trace.replay_matches_step"), 1.0);
            assert_eq!(get("splinesolver.lanes_flagged"), 0.0);
            assert!(get("splinesolver.eval_ms") > 0.0);
            assert!(get("advection.phase_cover") > 0.5, "{}", spec.name);
            // Transposes exist on the host path only; flips on Vlasov only.
            assert_eq!(
                get("portable.transpose_ms") > 0.0,
                spec.kind == Kind::Host,
                "{}",
                spec.name
            );
            assert_eq!(get("portable.flip_ms") > 0.0, spec.kind == Kind::Vlasov);
            assert_eq!(
                get("splinesolver.verify_ms") != 0.0,
                spec.kind == Kind::Verified
            );
            assert!(!report.spans.is_empty());
        }
    }

    #[test]
    fn budget_left_after_the_last_round_goes_to_set_up_samples_only() {
        let spec = crate::workloads::find("adv_resident_u3").unwrap().smoke();
        let inputs = Inputs::generate(1, spec.nv);
        let mut sampler = Sampler::new();
        let budget = Duration::from_millis(250);
        let r = rounds(&spec, &inputs, Exec::Parallel, 12, budget, &mut sampler);
        assert!(r.notes.is_empty(), "{:?}", r.notes);
        let whole = r.round_median_ms.len();
        assert!(whole >= 1 && r.setup.len() >= whole);
        assert_eq!(r.steps.len(), 12 * whole);
        assert_eq!(
            r.attempted as usize,
            12 * whole + spec.warmup * r.setup.len()
        );
        assert!(r.setup_s().iter().all(|&s| s > 0.0));
    }

    #[test]
    fn detail_record_reads_back_exactly() {
        let mut report = smoke("adv_host_small", false);
        report.notes = vec!["first\nline".into(), "second".into()];
        let record = Record::parse(&report.detail_record());
        assert_eq!(record.get("workload"), Some("adv_host_small"));
        assert_eq!(record.get("trace"), Some("0"));
        assert_eq!(record.get("correct"), Some("false"));
        assert_eq!(record.num("ops"), report.attempted as f64);
        assert_eq!(
            record.all("note").collect::<Vec<_>>(),
            ["first line", "second"]
        );
        assert_eq!(
            record.get("output_fnv64"),
            Some(format!("{:016x}", report.output_fnv64).as_str())
        );
        // Values keep every bit, lists their order.
        for m in &report.metrics {
            let back = record.num(&format!("metric.{}", m.name));
            assert_eq!(back.to_bits(), m.value.to_bits(), "{}", m.name);
        }
        let medians: Vec<f64> = record
            .all("round_median_step_ms_raw")
            .map(|v| v.parse().unwrap())
            .collect();
        assert_eq!(medians, report.round_median_ms);
        assert_eq!(record.get("triad_array_bytes"), None);
        assert!(record.num("absent").is_nan());
        assert!(Record::parse("no tab here\n").get("no tab here").is_none());
    }

    #[test]
    fn a_tolerance_breach_fails_every_op() {
        let mut spec = crate::workloads::find("adv_host_small").unwrap().smoke();
        spec.tolerance = 0.0;
        let report = run(&RunConfig {
            spec,
            seed: 5,
            seconds: 0.0,
            trace: false,
            triad_array_bytes: None,
        });
        assert!(!report.correct());
        assert_eq!(report.failed, report.attempted);
        assert!(report.notes[0].contains("tolerance"), "{:?}", report.notes);
        assert!(report
            .result_line()
            .starts_with(r#"{"correct":false,"attempted":"#));
    }
}
