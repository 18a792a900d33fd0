//! Bench-regression gate: compare a fresh `--smoke` bench run against a
//! committed full-size baseline and fail on gross regressions.
//!
//! Smoke runs use smaller sizes and far fewer reps than the committed
//! baselines, so exact comparison is meaningless. What *is* stable
//! across sizes is per-dispatch pool latency at a given batch count. The
//! gate checks only that, with a deliberately generous tolerance — it
//! exists to catch "dispatch got 10x slower", not 20% noise. Timing
//! comparisons additionally get a fixed absolute slack so single-core CI
//! scheduler hiccups at microsecond scales cannot trip the gate.
//!
//! Usage:
//!   bench_gate --kind dispatch --baseline BENCH_dispatch.json \
//!       --candidate target/BENCH_dispatch_smoke.json [--tol 4.0]
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
use pp_bench::SCHEMA_VERSION;
use std::process::ExitCode;

/// Absolute slack added on top of the ratio tolerance for nanosecond
/// latency comparisons (absorbs scheduler noise on loaded CI runners).
const LATENCY_SLACK_NS: f64 = 25_000.0;

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
        "usage: bench_gate --kind dispatch|chaos --baseline PATH --candidate PATH [--tol F]"
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
        "chaos" => gate_chaos(&mut gate, &base, &cand),
        other => panic!("unknown --kind {other:?} (expected dispatch|chaos)"),
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
}
