//! The full suite, the smoke run and the repeatability check.
//!
//! The suite runs every workload [`ROUNDS`] times untraced, one child
//! process per run and one at a time, round-robin over the workloads —
//! so a minute-long fast or slow phase of a shared host lands on all
//! workloads alike and `peak_rss_mib` is per workload — then once more
//! with the ledger on. Children scrub their own environment
//! (`adapter::hermetic_env`), so the suite passes nothing but flags.

use crate::host;
use crate::json::Json;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::run::{run, Record, RunConfig};
use crate::stats::median;
use crate::workloads::{Spec, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Untraced child runs per workload. Three, so `setup_s` has three
/// samples per suite and `glups` a median that one slow run cannot move;
/// a constant, so any two `result.json` are aggregated alike.
const ROUNDS: usize = 3;

pub struct SuiteConfig {
    pub seed: u64,
    pub seconds: f64,
    /// Path of `result.json`; `trace.json` is written beside it.
    pub out: PathBuf,
}

/// One metric on one line: `workload  name  value unit`.
fn print_metric(workload: &str, name: &str, value: f64, unit: &str) {
    println!("{workload:<16} {name:<34} {value:>14.6e} {unit}");
}

/// Print metrics one per line.
pub fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        print_metric(workload, m.name, m.value, m.unit);
    }
}

/// Every workload at toy size, untraced and traced, in this process.
pub fn smoke(seed: u64) -> Result<bool, String> {
    let mut ok = true;
    for spec in WORKLOADS {
        for trace in [false, true] {
            let report = run(&RunConfig {
                spec: spec.smoke(),
                seed,
                seconds: 0.0,
                trace,
                triad_array_bytes: Some(16 << 20),
            });
            print_metrics(spec.name, &report.metrics);
            for note in &report.notes {
                eprintln!("stepbench: {}: {note}", spec.name);
            }
            println!(
                "{:<16} trace={} ops={} failed_ops={} output_fnv64={:016x}",
                spec.name,
                u8::from(trace),
                report.attempted,
                report.failed,
                report.output_fnv64
            );
            ok &= report.correct();
        }
    }
    println!("smoke: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

/// Run `exe` (this binary) on one workload in a child process and read
/// back the detail record it writes.
fn child(
    exe: &Path,
    cfg: &SuiteConfig,
    spec: &Spec,
    trace: bool,
    detail: &Path,
    trace_out: &Path,
) -> Result<Record, String> {
    // The scratch files are shared by all children: one that dies before
    // it writes must not leave its predecessor's to be read in its place.
    for stale in [detail, trace_out] {
        match std::fs::remove_file(stale) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("{}: {e}", stale.display()));
            }
            _ => {}
        }
    }
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail")
        .arg(detail)
        .arg("--trace-out")
        .arg(trace_out)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    // `status` waits for the child, so none outlives the suite.
    let status = cmd.status().map_err(|e| format!("spawn child: {e}"))?;
    read_back(status.code(), detail, spec, trace)
}

/// The record of a child that ended with `code`. Exit code 0 is a clean
/// run and 1 a run with failed ops; both write the record. Anything else
/// (usage error, panic, killed by a signal) fails the suite.
fn read_back(code: Option<i32>, detail: &Path, spec: &Spec, trace: bool) -> Result<Record, String> {
    if !matches!(code, Some(0 | 1)) {
        let how = code.map_or("a signal".to_string(), |c| format!("exit code {c}"));
        return Err(format!("{}: child ended with {how}", spec.name));
    }
    let text = std::fs::read_to_string(detail).map_err(|e| format!("{}: {e}", detail.display()))?;
    let record = Record::parse(&text);
    let found = (record.get("workload"), record.get("trace"));
    if found != (Some(spec.name), Some(if trace { "1" } else { "0" })) {
        return Err(format!(
            "{}: record of {found:?}, not of {} trace={}",
            detail.display(),
            spec.name,
            u8::from(trace)
        ));
    }
    Ok(record)
}

fn numbers<'a>(values: impl Iterator<Item = &'a str>) -> Vec<Json> {
    values
        .map(|v| Json::from(v.parse().unwrap_or(f64::NAN)))
        .collect()
}

/// Fold the untraced runs of one workload into its end-to-end figures.
/// `glups` and `setup_s` are medians over the runs, `peak_rss_mib` the
/// maximum; `accuracy_err` and the output fingerprint must agree
/// exactly, or the workload has failed.
fn aggregate(spec: &Spec, runs: &[Record], traced: &Record) -> (Json, bool) {
    let mut ok = true;
    let mut notes: Vec<Json> = Vec::new();
    let mut end_to_end = Json::obj();
    for &(name, unit, better, bound) in &END_TO_END {
        let key = format!("metric.{name}");
        let values: Vec<f64> = runs.iter().map(|d| d.num(&key)).collect();
        let value = match name {
            "peak_rss_mib" => values.iter().copied().fold(f64::NAN, f64::max),
            "accuracy_err" => {
                if values.windows(2).any(|w| w[0].to_bits() != w[1].to_bits()) {
                    ok = false;
                    notes.push("accuracy_err differs between rounds".into());
                }
                values.first().copied().unwrap_or(f64::NAN)
            }
            _ => median(&values),
        };
        ok &= values.iter().all(|v| v.is_finite()) && value.is_finite();
        end_to_end = end_to_end.with(
            name,
            Json::obj()
                .with("value", value)
                .with("unit", unit)
                .with("better", better)
                .with("bound", bound)
                .with(
                    "rounds",
                    values.iter().map(|&v| Json::from(v)).collect::<Vec<_>>(),
                ),
        );
    }
    let mut per_layer = Json::obj();
    for &(name, unit, _) in &PER_LAYER {
        let value = traced.num(&format!("metric.{name}"));
        ok &= value.is_finite();
        per_layer = per_layer.with(name, Json::obj().with("value", value).with("unit", unit));
    }
    let all = || runs.iter().chain([traced]);
    let fingerprints: Vec<&str> = all().filter_map(|d| d.get("output_fnv64")).collect();
    if fingerprints.len() != runs.len() + 1 || fingerprints.windows(2).any(|w| w[0] != w[1]) {
        ok = false;
        notes.push("output_fnv64 differs between runs".into());
    }
    for d in all() {
        ok &= d.get("correct") == Some("true");
        notes.extend(d.all("note").map(Json::from));
    }
    let doc = Json::obj()
        .with("name", spec.name)
        .with("why", spec.why)
        .with(
            "shape",
            Json::obj()
                .with("nx", spec.nx)
                .with("nv", spec.nv)
                .with("degree", spec.degree)
                .with("graded", spec.graded)
                .with("warmup_steps", spec.warmup)
                .with("timed_steps_per_round", spec.timed),
        )
        .with("ops", all().map(|d| d.num("ops")).sum::<f64>())
        .with(
            "failed_ops",
            all().map(|d| d.num("failed_ops")).sum::<f64>(),
        )
        .with("output_fnv64", fingerprints.first().copied().unwrap_or(""))
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
        .with(
            "timed_steps",
            numbers(runs.iter().filter_map(|d| d.get("timed_steps"))),
        )
        .with(
            "setup_samples",
            numbers(runs.iter().filter_map(|d| d.get("setup_samples"))),
        )
        .with(
            "round_median_step_ms_raw",
            runs.iter()
                .map(|d| Json::Arr(numbers(d.all("round_median_step_ms_raw"))))
                .collect::<Vec<_>>(),
        )
        .with(
            "reference_quiet_ms",
            numbers(all().filter_map(|d| d.get("reference_quiet_ms"))),
        )
        .with(
            "interference",
            numbers(all().filter_map(|d| d.get("interference"))),
        )
        .with("notes", notes);
    (doc, ok)
}

/// The text between the brackets of a rendered JSON array.
fn array_body(text: &str) -> Option<&str> {
    text.trim().strip_prefix('[')?.strip_suffix(']')
}

/// The full suite. Returns `result.json` as written and whether every op
/// and check succeeded.
pub fn full(cfg: &SuiteConfig) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = cfg
        .out
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    let scratch = dir.join("child.tsv");
    let child_trace = dir.join("child-trace.json");

    let mut runs: Vec<Vec<Record>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for round in 1..=ROUNDS {
        for (w, spec) in WORKLOADS.iter().enumerate() {
            eprintln!("stepbench: round {round}/{ROUNDS} {}", spec.name);
            runs[w].push(child(&exe, cfg, spec, false, &scratch, &child_trace)?);
        }
    }
    // Every child's spans, joined as text into one array.
    let mut spans: Vec<String> = Vec::new();
    let mut workloads = Vec::new();
    let mut triad = Json::Null;
    let mut ok = true;
    for (w, spec) in WORKLOADS.iter().enumerate() {
        eprintln!("stepbench: ledger {}", spec.name);
        let traced = child(&exe, cfg, spec, true, &scratch, &child_trace)?;
        let text = std::fs::read_to_string(&child_trace)
            .map_err(|e| format!("{}: {e}", child_trace.display()))?;
        let body = array_body(&text)
            .ok_or_else(|| format!("{}: not a JSON array", child_trace.display()))?;
        if !body.is_empty() {
            spans.push(body.to_string());
        }
        if triad == Json::Null {
            triad = Json::obj()
                .with("array_bytes", traced.num("triad_array_bytes"))
                .with(
                    "capped_by_mem_available",
                    traced.get("triad_capped_by_mem_available") == Some("true"),
                )
                .with("bytes_are", "computed (3*8*n per pass)");
        }
        let (doc, fine) = aggregate(spec, &runs[w], &traced);
        ok &= fine;
        workloads.push(doc);
    }
    let _ = std::fs::remove_file(&scratch);
    let _ = std::fs::remove_file(&child_trace);

    let result = Json::obj()
        .with("schema", "stepbench-result-v1")
        // This benchmark is the baseline; it claims no gain.
        .with("claim", Json::Null)
        .with("seed", cfg.seed.to_string())
        .with("seconds_per_run", cfg.seconds)
        .with("rounds", ROUNDS)
        .with(
            "host",
            Json::obj()
                .with("cores", host::cores())
                .with("threads", host::bench_threads())
                .with("cpu_model", host::cpu_model())
                .with("l2_bytes", host::cache_bytes(2).unwrap_or(0))
                .with("l3_bytes", host::cache_bytes(3).unwrap_or(0))
                .with(
                    "git_commit",
                    host::command_line("git", &["rev-parse", "HEAD"]),
                )
                .with("rustc", host::command_line("rustc", &["--version"]))
                .with("triad", triad),
        )
        .with("workloads", workloads);
    crate::write_file(&cfg.out, &result.render_pretty())?;
    let trace_path = dir.join("trace.json");
    crate::write_file(&trace_path, &format!("[{}]", spans.join(",")))?;

    print_result(&result);
    println!("result: {}", cfg.out.display());
    println!("trace:  {}", trace_path.display());
    println!("suite: {}", if ok { "ok" } else { "FAILED" });
    Ok((result, ok))
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Every metric of every workload, by name, with its unit.
fn print_result(result: &Json) {
    for w in result.get("workloads").map_or(&[][..], Json::items) {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
        for section in ["end_to_end", "per_layer"] {
            for (metric, v) in w.get(section).map_or(&[][..], Json::fields) {
                let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
                print_metric(name, metric, num(v, "value"), unit);
            }
        }
        println!(
            "{name:<16} ops={} failed_ops={} output_fnv64={}",
            num(w, "ops"),
            num(w, "failed_ops"),
            w.get("output_fnv64").and_then(Json::as_str).unwrap_or("?")
        );
    }
}

/// Repeatability: run the suite twice on the same code, into `set1.json`
/// and `set2.json` beside `cfg.out`, and check that the two agree.
pub fn repeat(cfg: &SuiteConfig) -> Result<bool, String> {
    let mut ok = true;
    let mut sets = Vec::new();
    for n in 1..=2 {
        let (doc, fine) = full(&SuiteConfig {
            seed: cfg.seed,
            seconds: cfg.seconds,
            out: cfg.out.with_file_name(format!("set{n}.json")),
        })?;
        ok &= fine;
        sets.push(doc);
    }
    let (agree, lines) = compare_docs(&sets[0], &sets[1]);
    for line in lines {
        println!("{line}");
    }
    ok &= agree;
    println!("repeat: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

/// Do two suites of the same code agree? Every end-to-end metric of every
/// workload must differ by no more than its bound (relative to the first
/// set); `accuracy_err`, `failed_ops`, `output_fnv64` and
/// `portable.dispatches_per_step` must agree exactly. `ops` is not
/// compared: rounds are whole, so a run fits one more or one fewer.
fn compare_docs(a: &Json, b: &Json) -> (bool, Vec<String>) {
    let mut ok = true;
    let mut lines = Vec::new();
    let find = |doc: &'_ Json, name: &str| -> Option<Json> {
        doc.get("workloads")?
            .items()
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
            .cloned()
    };
    for spec in WORKLOADS {
        let (Some(wa), Some(wb)) = (find(a, spec.name), find(b, spec.name)) else {
            ok = false;
            lines.push(format!("{:<16} missing from one set", spec.name));
            continue;
        };
        let value = |w: &Json, section: &str, metric: &str| -> f64 {
            w.get(section)
                .and_then(|s| s.get(metric))
                .map_or(f64::NAN, |m| num(m, "value"))
        };
        for &(metric, unit, _, bound) in &END_TO_END {
            let (va, vb) = (
                value(&wa, "end_to_end", metric),
                value(&wb, "end_to_end", metric),
            );
            let diff = ((vb - va) / va).abs();
            let exact = metric == "accuracy_err";
            let fine = if exact {
                va.to_bits() == vb.to_bits()
            } else {
                diff <= bound
            };
            ok &= fine;
            lines.push(format!(
                "{:<16} {metric:<14} {va:>13.6e} {vb:>13.6e} {unit:<6} diff {:>6.2}% bound {:>4.0}%{} {}",
                spec.name,
                diff * 100.0,
                bound * 100.0,
                if exact { " (exact)" } else { "" },
                if fine { "ok" } else { "FAILED" },
            ));
        }
        let exact_pairs = [
            (
                "failed_ops",
                num(&wa, "failed_ops").to_string(),
                num(&wb, "failed_ops").to_string(),
            ),
            (
                "output_fnv64",
                wa.get("output_fnv64").map_or(String::new(), Json::render),
                wb.get("output_fnv64").map_or(String::new(), Json::render),
            ),
            (
                "dispatches_per_step",
                value(&wa, "per_layer", "portable.dispatches_per_step").to_string(),
                value(&wb, "per_layer", "portable.dispatches_per_step").to_string(),
            ),
        ];
        for (what, va, vb) in exact_pairs {
            let fine = va == vb && va != "NaN";
            ok &= fine;
            lines.push(format!(
                "{:<16} {what:<14} {va} {vb} (exact) {}",
                spec.name,
                if fine { "ok" } else { "FAILED" }
            ));
        }
    }
    (ok, lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal suite document with the given glups on every workload.
    fn suite_doc(glups: f64, accuracy: f64, fnv: &str) -> Json {
        let workloads = WORKLOADS
            .iter()
            .map(|w| {
                let mut e2e = Json::obj();
                for &(name, unit, _, _) in &END_TO_END {
                    let v = match name {
                        "glups" => glups,
                        "accuracy_err" => accuracy,
                        _ => 1.0,
                    };
                    e2e = e2e.with(name, Json::obj().with("value", v).with("unit", unit));
                }
                Json::obj()
                    .with("name", w.name)
                    .with("failed_ops", 0u64)
                    .with("output_fnv64", fnv)
                    .with("end_to_end", e2e)
                    .with(
                        "per_layer",
                        Json::obj().with(
                            "portable.dispatches_per_step",
                            Json::obj().with("value", 4.0),
                        ),
                    )
            })
            .collect::<Vec<_>>();
        Json::obj().with("workloads", workloads)
    }

    #[test]
    fn sets_within_the_bound_agree_and_beyond_it_do_not() {
        let base = suite_doc(0.100, 1e-8, "abc");
        assert!(compare_docs(&base, &suite_doc(0.105, 1e-8, "abc")).0);
        assert!(compare_docs(&base, &suite_doc(0.095, 1e-8, "abc")).0);
        let (ok, lines) = compare_docs(&base, &suite_doc(0.080, 1e-8, "abc"));
        assert!(!ok);
        assert!(lines
            .iter()
            .any(|l| l.contains("glups") && l.contains("FAILED")));
    }

    #[test]
    fn exact_fields_must_agree_exactly() {
        let base = suite_doc(0.1, 1e-8, "abc");
        assert!(!compare_docs(&base, &suite_doc(0.1, 1.0000001e-8, "abc")).0);
        assert!(!compare_docs(&base, &suite_doc(0.1, 1e-8, "abd")).0);
        assert!(!compare_docs(&base, &Json::obj()).0);
    }

    #[test]
    fn aggregate_takes_median_max_and_checks_exactness() {
        let spec = &WORKLOADS[0];
        let run_doc = |glups: f64, rss: f64, acc: f64| {
            Record::parse(&format!(
                "correct\ttrue\nops\t42\nfailed_ops\t0\noutput_fnv64\t00ff\n\
                 metric.glups\t{glups}\nmetric.setup_s\t0.5\n\
                 metric.peak_rss_mib\t{rss}\nmetric.accuracy_err\t{acc}\n"
            ))
        };
        let mut traced = "correct\ttrue\nops\t10\nfailed_ops\t0\noutput_fnv64\t00ff\n".to_string();
        for (i, m) in PER_LAYER.iter().enumerate() {
            traced += &format!("metric.{}\t{i}\n", m.0);
        }
        let traced = Record::parse(&traced);
        let runs = [
            run_doc(0.10, 100.0, 1e-8),
            run_doc(0.30, 120.0, 1e-8),
            run_doc(0.20, 110.0, 1e-8),
        ];
        let (doc, ok) = aggregate(spec, &runs, &traced);
        assert!(ok);
        let e2e = doc.get("end_to_end").unwrap();
        assert_eq!(num(e2e.get("glups").unwrap(), "value"), 0.20);
        assert_eq!(num(e2e.get("peak_rss_mib").unwrap(), "value"), 120.0);
        assert_eq!(num(&doc, "ops"), 136.0);
        // Per-layer metrics come out in table order with the table's units.
        let layers = doc.get("per_layer").unwrap().fields();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert_eq!(layers[1].0, PER_LAYER[1].0);
        assert_eq!(num(&layers[1].1, "value"), 1.0);
        assert_eq!(layers[1].1.get("unit").and_then(Json::as_str), Some("ms"));

        let drifted = [run_doc(0.1, 100.0, 1e-8), run_doc(0.1, 100.0, 2e-8)];
        assert!(!aggregate(spec, &drifted, &traced).1);
        // A metric missing from a record fails the workload.
        assert!(!aggregate(spec, &runs, &Record::parse("correct\ttrue\n")).1);
    }

    /// A scratch directory of this test's own under the ignored `out/`.
    fn scratch_dir(test: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn a_stale_or_foreign_record_is_never_read_as_this_childs() {
        let dir = scratch_dir("stale");
        let detail = dir.join("child.tsv");
        let (first, second) = (&WORKLOADS[0], &WORKLOADS[1]);
        let stale = format!("workload\t{}\ntrace\t0\ncorrect\ttrue\n", first.name);

        // The record of the workload and pass asked for reads back …
        std::fs::write(&detail, &stale).unwrap();
        for code in [0, 1] {
            let record = read_back(Some(code), &detail, first, false).unwrap();
            assert_eq!(record.get("correct"), Some("true"));
        }
        // … another workload's, or the other pass's, does not …
        let why = read_back(Some(0), &detail, second, false).err().unwrap();
        assert!(why.contains(second.name), "{why}");
        assert!(read_back(Some(0), &detail, first, true).is_err());
        // … and a child that panicked, misparsed its flags or was killed
        // fails whatever the file says.
        for code in [Some(2), Some(101), None] {
            assert!(read_back(code, &detail, first, false).is_err(), "{code:?}");
        }

        // A child that exits without writing finds the previous child's
        // files gone: `false` ignores its arguments and exits with 1.
        let trace_out = dir.join("child-trace.json");
        std::fs::write(&trace_out, "[]").unwrap();
        let cfg = SuiteConfig {
            seed: 1,
            seconds: 0.0,
            out: dir.join("result.json"),
        };
        let why = child(Path::new("false"), &cfg, first, false, &detail, &trace_out)
            .err()
            .unwrap();
        assert!(why.contains("child.tsv"), "{why}");
        assert!(!detail.exists() && !trace_out.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn span_arrays_join_as_text() {
        assert_eq!(
            array_body("[{\"id\":0},{\"id\":1}]\n"),
            Some("{\"id\":0},{\"id\":1}")
        );
        assert_eq!(array_body("[]"), Some(""));
        assert_eq!(array_body("{}"), None);
    }
}
