//! Bench-regression gate: compare a fresh `--smoke` bench run against a
//! committed full-size baseline and fail on gross regressions.
//!
//! Smoke runs use smaller sizes and far fewer reps than the committed
//! baselines, so exact comparison is meaningless. What *is* stable
//! across sizes is (a) per-dispatch pool latency at a given batch count,
//! and (b) the structure of the phase profile (which versions exist,
//! that phases cover most of the wall clock, that the dispatch histogram
//! is populated). The gate checks only those, with deliberately generous
//! tolerances — it exists to catch "dispatch got 10x slower" or "the
//! instrumentation layer stopped attributing", not 20% noise. Timing
//! comparisons additionally get a fixed absolute slack so single-core CI
//! scheduler hiccups at microsecond scales cannot trip the gate.
//!
//! Usage:
//!   bench_gate --kind dispatch --baseline BENCH_dispatch.json \
//!       --candidate target/BENCH_dispatch_smoke.json [--tol 4.0]
//!   bench_gate --kind phases --baseline BENCH_phases.json \
//!       --candidate target/BENCH_phases_smoke.json [--tol 4.0]
//!   bench_gate --kind chaos --baseline BENCH_chaos.json \
//!       --candidate target/BENCH_chaos_smoke.json
//!
//! The chaos kind is a pure robustness gate (no timing): both documents
//! must report zero invariant violations and zero silent-wrong SDC
//! rounds, and the committed baseline must prove the fault campaign
//! actually exercised corruption (detections > 0).
//!
//! Every kind first checks that *both* documents carry the
//! `schema_version` this binary was built against: comparing fields
//! across a schema skew is meaningless, so a missing or mismatched
//! version fails by name before any numeric check runs.

use pp_bench::json::Json;
use pp_portable::instrument::SCHEMA_VERSION;
use std::process::ExitCode;

/// Absolute slack added on top of the ratio tolerance for nanosecond
/// latency comparisons (absorbs scheduler noise on loaded CI runners).
const LATENCY_SLACK_NS: f64 = 25_000.0;

/// Minimum fraction of wall clock the phase spans must attribute.
const MIN_PHASE_COVER: f64 = 0.5;

/// Absolute slack added to per-phase wall-clock *share* comparisons.
/// Smoke runs shift phase shares a little (fixed per-call overheads
/// loom larger at small sizes); this absorbs that without letting a
/// phase silently grow from a sliver to the whole solve.
const PHASE_SHARE_SLACK: f64 = 0.10;

/// Which document a structural defect was found in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Baseline,
    Candidate,
}

impl Side {
    fn name(self) -> &'static str {
        match self {
            Side::Baseline => "baseline",
            Side::Candidate => "candidate",
        }
    }
}

/// A structural defect that makes a candidate/baseline ratio
/// meaningless. Every variant is reported as a named FAIL check — never
/// a panic (a corrupt committed baseline must not crash the gate) and
/// never a silent skip (a missing or zero entry must not pass).
#[derive(Debug, PartialEq)]
enum Mismatch {
    /// A numeric field required for a comparison is absent or null.
    MissingField { side: Side, path: String },
    /// A version entry present on one side has no counterpart.
    MissingVersion { side: Side, version: String },
    /// A phase recorded for a version on one side is absent from the
    /// same version on the other side.
    MissingPhase {
        side: Side,
        version: String,
        phase: String,
    },
    /// The committed baseline value is zero or non-finite. The ratio
    /// `candidate / baseline` is undefined there, and the latency bound
    /// `tol * baseline + slack` degenerates to the absolute slack
    /// alone — which would wave through any regression.
    DegenerateBaseline { what: String, value: f64 },
    /// The document's `schema_version` is absent or differs from the
    /// [`SCHEMA_VERSION`] this gate was built against. Field meanings
    /// may have shifted, so no comparison against it is trustworthy.
    SchemaSkew { side: Side, found: Option<f64> },
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mismatch::MissingField { side, path } => {
                write!(f, "{}: required field {path} missing or null", side.name())
            }
            Mismatch::MissingVersion { side, version } => {
                write!(f, "{}: version {version:?} has no entry", side.name())
            }
            Mismatch::MissingPhase {
                side,
                version,
                phase,
            } => write!(
                f,
                "{}: version {version:?} is missing phase {phase:?} present on the other side",
                side.name()
            ),
            Mismatch::DegenerateBaseline { what, value } => write!(
                f,
                "baseline {what} is {value} — ratio undefined, regenerate the baseline"
            ),
            Mismatch::SchemaSkew { side, found } => match found {
                Some(v) => write!(
                    f,
                    "{}: schema_version {v} != expected {SCHEMA_VERSION} — regenerate the document",
                    side.name()
                ),
                None => write!(
                    f,
                    "{}: schema_version missing (expected {SCHEMA_VERSION}) — regenerate the document",
                    side.name()
                ),
            },
        }
    }
}

struct Gate {
    failures: Vec<String>,
    checks: usize,
}

impl Gate {
    fn new() -> Self {
        Gate {
            failures: Vec::new(),
            checks: 0,
        }
    }

    fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.checks += 1;
        let what = what.into();
        if ok {
            println!("  ok   {what}");
        } else {
            println!("  FAIL {what}");
            self.failures.push(what);
        }
    }

    /// Record a structural mismatch as a failed check.
    fn mismatch(&mut self, m: Mismatch) {
        self.check(false, m.to_string());
    }

    /// `candidate <= tol * baseline + slack`, reported with the numbers.
    /// A zero or non-finite baseline is a typed failure: the bound would
    /// collapse to the slack alone and pass vacuously.
    fn check_latency(&mut self, what: &str, candidate: f64, baseline: f64, tol: f64) {
        if !(baseline > 0.0 && baseline.is_finite()) {
            self.mismatch(Mismatch::DegenerateBaseline {
                what: what.to_string(),
                value: baseline,
            });
            return;
        }
        let bound = tol * baseline + LATENCY_SLACK_NS;
        self.check(
            candidate <= bound,
            format!("{what}: {candidate:.0} ns <= {tol}x{baseline:.0}+slack = {bound:.0} ns"),
        );
    }
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"))
}

fn f64_at(v: &Json, path: &[&str]) -> Option<f64> {
    v.at(path).and_then(Json::as_f64)
}

/// Both sides must be stamped with the schema version this gate was
/// built against; any skew (or an unstamped document)
/// fails by name before field-by-field comparison starts.
fn gate_schema(gate: &mut Gate, baseline: &Json, candidate: &Json) {
    for (side, doc) in [(Side::Baseline, baseline), (Side::Candidate, candidate)] {
        match doc.get("schema_version").and_then(Json::as_f64) {
            Some(v) if v == f64::from(SCHEMA_VERSION) => gate.check(
                true,
                format!("{}: schema_version {SCHEMA_VERSION}", side.name()),
            ),
            found => gate.mismatch(Mismatch::SchemaSkew { side, found }),
        }
    }
}

/// Gate the dispatch_overhead bench: per-batch pool latency must stay
/// within `tol`x of the committed baseline for every batch count the
/// smoke run shares with it.
fn gate_dispatch(gate: &mut Gate, baseline: &Json, candidate: &Json, tol: f64) {
    gate.check(
        candidate.get("bench").and_then(Json::as_str) == Some("dispatch_overhead"),
        "candidate is a dispatch_overhead document",
    );
    let base_rows = baseline
        .get("per_dispatch_latency_ns")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    let cand_rows = candidate
        .get("per_dispatch_latency_ns")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    gate.check(!cand_rows.is_empty(), "candidate has latency rows");
    let mut compared = 0usize;
    for row in cand_rows {
        let (Some(batch), Some(pool)) = (f64_at(row, &["batch"]), f64_at(row, &["pool"])) else {
            gate.check(false, "latency row has batch+pool fields");
            continue;
        };
        let Some(base_pool) = base_rows
            .iter()
            .find(|r| f64_at(r, &["batch"]) == Some(batch))
            .and_then(|r| f64_at(r, &["pool"]))
        else {
            // Smoke batch missing from the baseline: nothing to compare.
            continue;
        };
        compared += 1;
        gate.check_latency(
            &format!("pool latency @ batch {batch}"),
            pool,
            base_pool,
            tol,
        );
    }
    gate.check(
        compared > 0,
        "at least one batch count overlaps the baseline",
    );
    gate.check(
        f64_at(candidate, &["pool_stats", "dispatches"]).unwrap_or(0.0) > 0.0,
        "pool actually dispatched work",
    );
}

/// Gate the phase_profile bench: the instrumentation layer must still
/// attribute the solve, for the same version set as the baseline.
fn gate_phases(gate: &mut Gate, baseline: &Json, candidate: &Json, tol: f64) {
    gate.check(
        candidate.get("bench").and_then(Json::as_str) == Some("phase_profile"),
        "candidate is a phase_profile document",
    );
    gate.check(
        candidate.get("instrumented").and_then(Json::as_bool) == Some(true),
        "candidate was built with --features instrument",
    );
    let version_names = |doc: &Json| -> Vec<String> {
        doc.get("versions")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|v| v.get("version").and_then(Json::as_str).map(String::from))
            .collect()
    };
    let base_versions = version_names(baseline);
    let cand_versions = version_names(candidate);
    gate.check(
        base_versions == cand_versions && !cand_versions.is_empty(),
        format!(
            "version set matches baseline ({})",
            cand_versions.join(", ")
        ),
    );
    let base_entries = baseline
        .get("versions")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    for v in candidate
        .get("versions")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        let name = v.get("version").and_then(Json::as_str).unwrap_or("?");
        let cover = f64_at(v, &["phase_cover"]).unwrap_or(0.0);
        gate.check(
            cover >= MIN_PHASE_COVER,
            format!("{name}: phase cover {cover:.3} >= {MIN_PHASE_COVER}"),
        );
        let phases = v
            .get("phases")
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len);
        gate.check(phases > 0, format!("{name}: at least one phase attributed"));
        let glups = v
            .at(&["roofline", "glups"])
            .map(|g| g.as_f64().unwrap_or(f64::NAN));
        gate.check(
            matches!(glups, Some(g) if g.is_finite() && g > 0.0),
            format!("{name}: roofline GLUPS is finite and positive"),
        );
        match base_entries
            .iter()
            .find(|b| b.get("version").and_then(Json::as_str) == Some(name))
        {
            Some(base_v) => gate_phase_shares(gate, name, base_v, v, tol),
            None => gate.mismatch(Mismatch::MissingVersion {
                side: Side::Baseline,
                version: name.to_string(),
            }),
        }
    }
    gate.check(
        f64_at(candidate, &["pool", "dispatch_ns", "count"]).unwrap_or(0.0) > 0.0,
        "dispatch histogram is populated",
    );
    let dispatch_mean = |doc: &Json, side: Side, gate: &mut Gate| {
        f64_at(doc, &["pool", "dispatch_ns", "mean"]).map_or_else(
            || {
                gate.mismatch(Mismatch::MissingField {
                    side,
                    path: "pool.dispatch_ns.mean".into(),
                });
                None
            },
            Some,
        )
    };
    let cand_mean = dispatch_mean(candidate, Side::Candidate, gate);
    let base_mean = dispatch_mean(baseline, Side::Baseline, gate);
    if let (Some(c), Some(b)) = (cand_mean, base_mean) {
        gate.check_latency("mean instrumented dispatch latency", c, b, tol);
    }
}

/// Per-phase name → total time, skipping the synthetic `"other"` bucket
/// (the unattributed remainder is covered by the phase_cover check).
/// A phase whose `total_ms` is absent or null is returned as NaN so the
/// caller can report *which* side is defective.
fn phase_totals(version_entry: &Json) -> Vec<(String, f64)> {
    version_entry
        .get("phases")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|p| {
            let name = p.get("phase").and_then(Json::as_str)?;
            if name == "other" {
                return None;
            }
            Some((
                name.to_string(),
                f64_at(p, &["total_ms"]).unwrap_or(f64::NAN),
            ))
        })
        .collect()
}

/// Compare one version's per-phase wall-clock *shares* between candidate
/// and baseline. Absolute phase times are size-dependent (smoke runs are
/// tiny), but the fraction of the solve each phase occupies is stable —
/// a phase ballooning from a sliver of the baseline to dominating the
/// candidate is exactly the "one kernel got 10x slower" regression this
/// gate exists to catch. Every lookup/division hazard is reported as a
/// typed mismatch: a phase missing from either side, a missing wall
/// clock, or a zero/non-finite committed phase time all FAIL by name
/// instead of panicking or silently passing.
fn gate_phase_shares(gate: &mut Gate, version: &str, base_v: &Json, cand_v: &Json, tol: f64) {
    let wall = |entry: &Json, side: Side, gate: &mut Gate| {
        f64_at(entry, &["wall_ms"]).map_or_else(
            || {
                gate.mismatch(Mismatch::MissingField {
                    side,
                    path: format!("versions[{version:?}].wall_ms"),
                });
                None
            },
            Some,
        )
    };
    let (Some(base_wall), Some(cand_wall)) = (
        wall(base_v, Side::Baseline, gate),
        wall(cand_v, Side::Candidate, gate),
    ) else {
        return;
    };
    if !(base_wall > 0.0 && base_wall.is_finite()) {
        gate.mismatch(Mismatch::DegenerateBaseline {
            what: format!("versions[{version:?}].wall_ms"),
            value: base_wall,
        });
        return;
    }
    let base_phases = phase_totals(base_v);
    let cand_phases = phase_totals(cand_v);
    // Symmetric difference of the phase sets is a typed failure on the
    // side that lost the phase.
    for (name, _) in &base_phases {
        if !cand_phases.iter().any(|(c, _)| c == name) {
            gate.mismatch(Mismatch::MissingPhase {
                side: Side::Candidate,
                version: version.to_string(),
                phase: name.clone(),
            });
        }
    }
    for (name, cand_ms) in &cand_phases {
        let Some((_, base_ms)) = base_phases.iter().find(|(b, _)| b == name) else {
            gate.mismatch(Mismatch::MissingPhase {
                side: Side::Baseline,
                version: version.to_string(),
                phase: name.clone(),
            });
            continue;
        };
        if base_ms.is_nan() {
            gate.mismatch(Mismatch::MissingField {
                side: Side::Baseline,
                path: format!("versions[{version:?}].phases[{name:?}].total_ms"),
            });
            continue;
        }
        if cand_ms.is_nan() {
            gate.mismatch(Mismatch::MissingField {
                side: Side::Candidate,
                path: format!("versions[{version:?}].phases[{name:?}].total_ms"),
            });
            continue;
        }
        if !(*base_ms > 0.0 && base_ms.is_finite()) {
            gate.mismatch(Mismatch::DegenerateBaseline {
                what: format!("versions[{version:?}].phases[{name:?}].total_ms"),
                value: *base_ms,
            });
            continue;
        }
        let base_share = base_ms / base_wall;
        let cand_share = cand_ms / cand_wall;
        let bound = tol * base_share + PHASE_SHARE_SLACK;
        gate.check(
            cand_share <= bound,
            format!(
                "{version}/{name}: share {cand_share:.3} <= {tol}x{base_share:.3}+{PHASE_SHARE_SLACK} = {bound:.3}"
            ),
        );
    }
}

/// Gate the chaos_soak campaign: zero tolerance for invariant
/// violations or silent-wrong SDC rounds, in both the fresh smoke run
/// and the committed full-size baseline.
fn gate_chaos(gate: &mut Gate, baseline: &Json, candidate: &Json) {
    gate.check(
        candidate.get("bench").and_then(Json::as_str) == Some("chaos_soak"),
        "candidate is a chaos_soak document",
    );
    gate.check(
        f64_at(candidate, &["violations"]) == Some(0.0),
        "candidate reports zero invariant violations",
    );
    gate.check(
        f64_at(candidate, &["sdc", "silent_wrong"]) == Some(0.0),
        "candidate reports zero silent-wrong SDC rounds",
    );
    let rounds = candidate
        .get("rounds")
        .and_then(Json::as_array)
        .map_or(0, <[Json]>::len);
    gate.check(
        rounds >= 8,
        format!("candidate soaked at least 8 seeds (got {rounds})"),
    );
    gate.check(
        f64_at(baseline, &["violations"]) == Some(0.0),
        "baseline reports zero invariant violations",
    );
    gate.check(
        f64_at(baseline, &["sdc", "silent_wrong"]) == Some(0.0),
        "baseline reports zero silent-wrong SDC rounds",
    );
    gate.check(
        f64_at(baseline, &["sdc", "detected"]).unwrap_or(0.0) > 0.0,
        "baseline campaign actually injected and detected corruption",
    );
}

fn main() -> ExitCode {
    let mut kind = String::new();
    let mut baseline = String::new();
    let mut candidate = String::new();
    let mut tol = 4.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut grab = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match a.as_str() {
            "--kind" => kind = grab("--kind"),
            "--baseline" => baseline = grab("--baseline"),
            "--candidate" => candidate = grab("--candidate"),
            "--tol" => tol = grab("--tol").parse().expect("--tol needs a number"),
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(
        !kind.is_empty() && !baseline.is_empty() && !candidate.is_empty(),
        "usage: bench_gate --kind dispatch|phases|chaos --baseline PATH --candidate PATH [--tol F]"
    );
    assert!(
        tol >= 3.0,
        "tolerances below 3x are noise-chasing; got {tol}"
    );

    let base = load(&baseline);
    let cand = load(&candidate);
    println!("=== bench_gate: {kind} ({candidate} vs {baseline}, tol {tol}x) ===");
    let mut gate = Gate::new();
    gate_schema(&mut gate, &base, &cand);
    match kind.as_str() {
        "dispatch" => gate_dispatch(&mut gate, &base, &cand, tol),
        "phases" => gate_phases(&mut gate, &base, &cand, tol),
        "chaos" => gate_chaos(&mut gate, &base, &cand),
        other => panic!("unknown --kind {other:?} (expected dispatch|phases|chaos)"),
    }
    if gate.failures.is_empty() {
        println!("bench_gate: {} check(s) passed", gate.checks);
        ExitCode::SUCCESS
    } else {
        println!(
            "bench_gate: {}/{} check(s) FAILED",
            gate.failures.len(),
            gate.checks
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built phase_profile document. `pttrs_ms` lets tests plant a
    /// zero committed phase time; `phases` controls the phase set.
    fn doc(pttrs_ms: f64, extra_phase: bool, dispatch_mean: &str) -> Json {
        let extra = if extra_phase {
            r#"{"phase": "corner_spmv", "calls": 30, "total_ms": 2.0, "mean_ns": 66.0},"#
        } else {
            ""
        };
        let text = format!(
            r#"{{
              "bench": "phase_profile",
              "instrumented": true,
              "versions": [
                {{
                  "version": "Original",
                  "wall_ms": 100.0,
                  "phase_cover": 0.9,
                  "phases": [
                    {{"phase": "solve_pttrs", "calls": 30, "total_ms": {pttrs_ms}}},
                    {extra}
                    {{"phase": "other", "calls": 0, "total_ms": 1.0, "mean_ns": null}}
                  ],
                  "roofline": {{"glups": 0.5}}
                }}
              ],
              "pool": {{"dispatch_ns": {{"count": 5, "mean": {dispatch_mean}}}}}
            }}"#
        );
        Json::parse(&text).expect("test doc parses")
    }

    fn run_phases(baseline: &Json, candidate: &Json) -> Vec<String> {
        let mut gate = Gate::new();
        gate_phases(&mut gate, baseline, candidate, 4.0);
        gate.failures
    }

    #[test]
    fn well_formed_matching_docs_pass() {
        let base = doc(80.0, true, "900.0");
        let cand = doc(70.0, true, "1000.0");
        assert_eq!(run_phases(&base, &cand), Vec::<String>::new());
    }

    #[test]
    fn zero_baseline_phase_time_is_typed_failure_not_silent_pass() {
        // A zero committed phase time previously collapsed the bound to
        // the absolute slack; now it must FAIL by name without panicking.
        let base = doc(0.0, true, "900.0");
        let cand = doc(70.0, true, "1000.0");
        let failures = run_phases(&base, &cand);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("solve_pttrs") && failures[0].contains("ratio undefined"),
            "{failures:?}"
        );
    }

    #[test]
    fn phase_missing_from_candidate_is_typed_failure() {
        let base = doc(80.0, true, "900.0");
        let cand = doc(70.0, false, "1000.0");
        let failures = run_phases(&base, &cand);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("candidate") && failures[0].contains("corner_spmv"),
            "{failures:?}"
        );
    }

    #[test]
    fn phase_missing_from_baseline_is_typed_failure() {
        let base = doc(80.0, false, "900.0");
        let cand = doc(70.0, true, "1000.0");
        let failures = run_phases(&base, &cand);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("baseline") && failures[0].contains("corner_spmv"),
            "{failures:?}"
        );
    }

    #[test]
    fn null_dispatch_mean_is_typed_failure_not_silent_skip() {
        let base = doc(80.0, true, "null");
        let cand = doc(70.0, true, "1000.0");
        let failures = run_phases(&base, &cand);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("baseline") && failures[0].contains("pool.dispatch_ns.mean"),
            "{failures:?}"
        );
    }

    #[test]
    fn zero_baseline_dispatch_mean_is_typed_failure() {
        let mut gate = Gate::new();
        gate.check_latency("mean dispatch", 10_000.0, 0.0, 4.0);
        assert_eq!(gate.failures.len(), 1, "{:?}", gate.failures);
        assert!(gate.failures[0].contains("ratio undefined"));
    }

    /// Hand-built dispatch_overhead document with one latency row.
    fn dispatch_doc(pool: f64) -> Json {
        let text = format!(
            r#"{{
              "bench": "dispatch_overhead",
              "schema_version": {SCHEMA_VERSION},
              "per_dispatch_latency_ns": [
                {{"batch": 256, "pool": {pool}, "scoped": 90000.0, "serial": 500000.0}}
              ],
              "pool_stats": {{"dispatches": 100}}
            }}"#
        );
        Json::parse(&text).expect("test doc parses")
    }

    fn run_dispatch(baseline: &Json, candidate: &Json) -> Vec<String> {
        let mut gate = Gate::new();
        gate_dispatch(&mut gate, baseline, candidate, 4.0);
        gate.failures
    }

    #[test]
    fn dispatch_latency_is_gated_against_the_baseline_row() {
        let base = dispatch_doc(10_000.0);
        assert!(run_dispatch(&base, &dispatch_doc(12_000.0)).is_empty());
        // 4 ms against 10 µs: far past 4x + 25 µs slack.
        let failures = run_dispatch(&base, &dispatch_doc(4_000_000.0));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("pool latency @ batch 256"));
    }

    fn run_schema(baseline: &Json, candidate: &Json) -> Vec<String> {
        let mut gate = Gate::new();
        gate_schema(&mut gate, baseline, candidate);
        gate.failures
    }

    #[test]
    fn matching_schema_versions_pass() {
        let doc = dispatch_doc(10_000.0);
        assert_eq!(run_schema(&doc, &doc), Vec::<String>::new());
    }

    #[test]
    fn missing_schema_version_fails_by_name() {
        let stamped = dispatch_doc(10_000.0);
        let unstamped = Json::parse(r#"{"bench": "dispatch_overhead"}"#).unwrap();
        let failures = run_schema(&stamped, &unstamped);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("candidate") && failures[0].contains("schema_version missing"),
            "{failures:?}"
        );
    }

    #[test]
    fn skewed_schema_version_fails_by_name() {
        let stamped = dispatch_doc(10_000.0);
        let skewed = Json::parse(r#"{"schema_version": 999}"#).unwrap();
        let failures = run_schema(&skewed, &stamped);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("baseline") && failures[0].contains("999"),
            "{failures:?}"
        );
    }

    #[test]
    fn ballooning_phase_share_fails() {
        // solve_pttrs at 4 ms of a 100 ms baseline (4% share) but 70 ms
        // of the 100 ms candidate (70%): 70% > 4x4%+10% = 26%.
        let base = doc(4.0, true, "900.0");
        let cand = doc(70.0, true, "1000.0");
        let failures = run_phases(&base, &cand);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("solve_pttrs"), "{failures:?}");
    }
}
