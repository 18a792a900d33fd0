//! The metric tables: the single definition of every name, unit,
//! direction and bound. `BENCHMARK.json` is generated from these (and a
//! unit test fails if the committed file drifts from them).

use crate::json::Json;
use crate::workloads::WORKLOADS;

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// `"higher"` or `"lower"`.
pub type Better = &'static str;
const HIGHER: Better = "higher";
const LOWER: Better = "lower";

/// `(name, unit, better, bound)`: what a user of the stack sees. The
/// bound is the share of the parent's median by which the metric may get
/// worse before a change counts as a regression.
pub const END_TO_END: [(&str, &str, Better, f64); 4] = [
    // sweeps·nx·nv·1e-9 / median(timed step), pooled over rounds, each
    // step normalised by the reference samples around it (reference.rs).
    ("glups", "1e9/s", HIGHER, 0.20),
    // Median over rounds: inputs → first timed step (build + warm-up),
    // normalised likewise.
    ("setup_s", "s", LOWER, 0.25),
    // VmHWM of the process when its first round ends.
    ("peak_rss_mib", "MiB", LOWER, 0.05),
    // RMS error vs the analytic solution (Vlasov: relative L² drift).
    ("accuracy_err", "1", LOWER, 0.10),
];

/// `(name, unit, better)`: one layer each, no bound. The prefix is the
/// crate the timed public call belongs to.
pub const PER_LAYER: [(&str, &str, Better); 42] = [
    ("advection.step_ms_p10", "ms", LOWER),
    ("advection.step_ms_p50", "ms", LOWER),
    ("advection.step_ms_p90", "ms", LOWER),
    ("advection.glups_raw", "1e9/s", HIGHER),
    ("advection.other_ms", "ms", LOWER),
    ("advection.feet_ms", "ms", LOWER),
    ("advection.field_ms", "ms", LOWER),
    ("advection.phase_cover", "1", HIGHER),
    ("splinesolver.eval_ms", "ms", LOWER),
    ("splinesolver.eval_ns_per_point", "ns", LOWER),
    ("splinesolver.solve_ms", "ms", LOWER),
    ("splinesolver.solve_gbs", "GB/s", HIGHER),
    ("splinesolver.solve_bw_frac", "1", HIGHER),
    ("splinesolver.corner_ms", "ms", LOWER),
    ("splinesolver.verify_ms", "ms", LOWER),
    ("splinesolver.lanes_flagged", "count", LOWER),
    ("splinesolver.factor_ms", "ms", LOWER),
    ("linalg.q_sweep_ms", "ms", LOWER),
    ("linalg.q_sweep_ns_per_row", "ns", LOWER),
    ("linalg.border_getrs_ms", "ms", LOWER),
    ("bsplines.eval_basis_ns", "ns", LOWER),
    ("bsplines.space_build_ms", "ms", LOWER),
    ("portable.transpose_ms", "ms", LOWER),
    ("portable.transpose_gbs", "GB/s", HIGHER),
    ("portable.pack_ms", "ms", LOWER),
    ("portable.unpack_ms", "ms", LOWER),
    ("portable.copy_ms", "ms", LOWER),
    ("portable.flip_ms", "ms", LOWER),
    ("portable.dispatch_us", "us", LOWER),
    ("portable.dispatches_per_step", "count", LOWER),
    ("portable.pool_speedup", "1", HIGHER),
    ("portable.pool_busy_frac", "1", HIGHER),
    ("portable.cpu_per_wall", "1", LOWER),
    ("host.triad_gbs", "GB/s", HIGHER),
    ("host.threads", "count", HIGHER),
    ("host.cores", "count", HIGHER),
    ("host.reference_ms", "ms", LOWER),
    ("host.interference", "1", LOWER),
    ("trace.overhead_frac", "1", LOWER),
    ("trace.ledger_steps", "count", HIGHER),
    ("trace.spans", "count", HIGHER),
    ("trace.replay_matches_step", "1", HIGHER),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// A value for a name of one of the tables; panics on an unknown name,
/// which is a bug in the benchmark, not a measurement.
pub fn metric(name: &str, value: f64) -> Metric {
    let (name, unit) = END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("metric {name} is in no table"));
    Metric { name, unit, value }
}

/// `{"name": {"value": v, "unit": u}, …}` in table order.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj().with("value", m.value).with("unit", m.unit),
                )
            })
            .collect(),
    )
}

/// The `BENCHMARK.json` document these tables define.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj()
        .with(
            "command",
            command.iter().map(|&s| Json::from(s)).collect::<Vec<_>>(),
        )
        .with("paths", vec![Json::from("benchmark")])
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            WORKLOADS
                .iter()
                .map(|w| Json::obj().with("name", w.name).with("why", w.why))
                .collect::<Vec<_>>(),
        )
        .with(
            "end_to_end",
            END_TO_END
                .iter()
                .map(|&(name, unit, better, bound)| {
                    Json::obj()
                        .with("name", name)
                        .with("unit", unit)
                        .with("better", better)
                        .with("bound", bound)
                })
                .collect::<Vec<_>>(),
        )
        .with(
            "per_layer",
            PER_LAYER
                .iter()
                .map(|&(name, unit, better)| {
                    Json::obj()
                        .with("name", name)
                        .with("unit", unit)
                        .with("better", better)
                })
                .collect::<Vec<_>>(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "a name is used twice");
        assert!(END_TO_END.iter().all(|m| valid_unit(m.1)));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.1)));
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((1..=60).contains(&RUN_SECONDS));
        // setup_s is mandatory, in seconds, lower is better, and has
        // the largest bound.
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").unwrap();
        assert_eq!((setup.1, setup.2), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.3 <= setup.3));
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(
            text,
            benchmark_json().render_pretty(),
            "regenerate with `stepbench --emit-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn metric_lookup_attaches_the_unit() {
        assert_eq!(metric("glups", 0.5).unit, "1e9/s");
        assert_eq!(metric("portable.dispatch_us", 3.0).unit, "us");
        let doc = metrics_json(&[metric("setup_s", 0.25)]);
        assert_eq!(doc.render(), r#"{"setup_s":{"value":0.25,"unit":"s"}}"#);
    }

    #[test]
    #[should_panic(expected = "in no table")]
    fn unknown_metric_is_a_bug() {
        metric("nope", 1.0);
    }
}
