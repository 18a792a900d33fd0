//! `stepbench` — the end-to-end advection-step benchmark.
//!
//! ```text
//! stepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last stdout line is the JSON result
//!     the PR driver reads ({correct, attempted, failed, metrics})
//! stepbench [--seed <n>] [--seconds <s>] [--out <file>]
//!     the full suite: every workload, three untraced child runs each plus
//!     one ledger run, aggregated into <file> and trace.json beside it
//! stepbench --repeat [--seed <n>] [--seconds <s>] [--out <file>]
//!     the suite twice (set1.json, set2.json beside <file>): do the two
//!     sets agree within the bounds?
//! stepbench --smoke            every workload at toy size, in-process, < 10 s
//! stepbench --emit-benchmark-json
//! ```
//!
//! Exit code 0 means every op succeeded and every check held.

mod adapter;
mod host;
mod json;
mod ledger;
mod metrics;
mod reference;
mod run;
mod stats;
mod suite;
mod workloads;

use run::{run, RunConfig};
use std::path::Path;
use std::process::ExitCode;

/// Default seed of the suite: the paper's submission date.
const DEFAULT_SEED: u64 = 20240924;

/// Parsed command line. Unknown flags are errors, not ignored.
#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
    detail: Option<String>,
    trace_out: Option<String>,
    smoke: bool,
    repeat: bool,
    emit: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = Some(
                    value("an unsigned integer")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && (0.0..=600.0).contains(&s)) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(value("a file path")?),
            "--detail" => args.detail = Some(value("a file path")?),
            "--trace-out" => args.trace_out = Some(value("a file path")?),
            "--smoke" => args.smoke = true,
            "--repeat" => args.repeat = true,
            "--emit-benchmark-json" => args.emit = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Write `text` to `path`, creating the directories above it.
fn write_file(path: impl AsRef<Path>, text: &str) -> Result<(), String> {
    let path = path.as_ref();
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload, as the PR driver (and the suite) invokes it.
fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    let spec = workloads::find(name).ok_or_else(|| {
        let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let report = run(&RunConfig {
        spec: if args.smoke { spec.smoke() } else { spec },
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(metrics::RUN_SECONDS as f64),
        trace: args.trace,
        triad_array_bytes: args.smoke.then_some(16 << 20),
    });
    for note in &report.notes {
        eprintln!("stepbench: {name}: {note}");
    }
    if let Some(path) = &args.detail {
        write_file(path, &report.detail_record())?;
    }
    if args.trace {
        let path = args
            .trace_out
            .as_deref()
            .unwrap_or("benchmark/out/trace.json");
        write_file(path, &ledger::to_json(&report.spans, name).render())?;
    }
    suite::print_metrics(name, &report.metrics);
    println!("{}", report.result_line());
    Ok(report.correct())
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if args.emit {
        print!("{}", metrics::benchmark_json().render_pretty());
        return Ok(true);
    }
    if let Some(name) = &args.workload {
        return run_one(&args, name);
    }
    if args.smoke {
        return suite::smoke(args.seed.unwrap_or(DEFAULT_SEED));
    }
    let cfg = suite::SuiteConfig {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(metrics::RUN_SECONDS as f64),
        out: args
            .out
            .as_deref()
            .unwrap_or("benchmark/out/result.json")
            .into(),
    };
    if args.repeat {
        suite::repeat(&cfg)
    } else {
        suite::full(&cfg).map(|(_, ok)| ok)
    }
}

fn main() -> ExitCode {
    // Before anything can read the environment or start a thread.
    adapter::hermetic_env(host::bench_threads());
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("stepbench: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn driver_invocation_parses() {
        let args = parse("--workload adv_host_u3 --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(args.workload.as_deref(), Some("adv_host_u3"));
        assert_eq!(args.seed, Some(7));
        assert_eq!(args.seconds, Some(12.0));
        assert!(args.trace);
        assert!(!parse("--trace 0").unwrap().trace);
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for bad in [
            "--workload",
            "--seed -1",
            "--seed x",
            "--seconds nan",
            "--seconds 601",
            "--trace 2",
            "--out",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn suite_flags_parse() {
        let args = parse("--seed 20240924 --out benchmark/out/result.json").unwrap();
        assert_eq!(args.out.as_deref(), Some("benchmark/out/result.json"));
        assert!(!args.repeat && !args.smoke);
        assert!(parse("--repeat").unwrap().repeat);
    }
}
