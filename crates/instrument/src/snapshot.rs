//! Point-in-time aggregation of everything recorded so far, plus the
//! derived roofline numbers, serialised to the same hand-rolled JSON
//! style as `BENCH_dispatch.json`.

use crate::phase::PhaseId;
use pp_perfmodel::device::Device;
use pp_perfmodel::metrics::{achieved_bandwidth_gbs, bandwidth_fraction, glups};
use pp_perfmodel::roofline::memory_bound_time_s;
use std::fmt::Write as _;
use std::time::Duration;

/// Schema version stamped into every JSON document this workspace emits
/// (snapshots, traces, fault dumps, bench baselines). Bump on any
/// breaking field change; `bench_gate` fails by name on mismatch instead
/// of silently parsing.
pub const SCHEMA_VERSION: u32 = 1;

/// Aggregated totals of one phase across every recording thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Which phase.
    pub phase: PhaseId,
    /// Spans recorded.
    pub calls: u64,
    /// Total nanoseconds across all threads (wall time only when the
    /// phase ran serially; CPU time when it ran on several workers).
    pub total_ns: u64,
}

/// Aggregated state of one named histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramStat {
    /// Registry name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Non-empty log2 buckets as `(upper_bound_exclusive, count)`;
    /// bucket `[2^(b-1), 2^b)` reports upper bound `2^b`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramStat {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q ∈ [0, 1]`
    /// (0 when empty). Log2 buckets make this exact to a factor of 2.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return upper;
            }
        }
        self.max
    }
}

/// Measured throughput placed on a device roofline, via
/// `pp-perfmodel::{metrics, roofline, device}`.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflineAnnotation {
    /// Device the numbers are normalised against.
    pub device: &'static str,
    /// Lattice updates per second ×10⁻⁹ (paper eq. 7).
    pub glups: f64,
    /// Achieved effective bandwidth in GB/s (§V-B assumption).
    pub achieved_bw_gbs: f64,
    /// Device peak bandwidth in GB/s.
    pub peak_bw_gbs: f64,
    /// `achieved / peak` (Table V's parenthesised %).
    pub bandwidth_fraction: f64,
    /// Achieved fraction of the *attainable* memory-bound roofline
    /// (peak bandwidth × the device's streaming efficiency) — 1.0 means
    /// the solve runs exactly at the practical streaming limit.
    pub roofline_fraction: f64,
}

impl RooflineAnnotation {
    /// Annotate a measured solve of an `nx × nv` batch taking `elapsed`.
    ///
    /// # Panics
    /// Panics if `elapsed` is zero (no throughput is defined).
    pub fn measured(device: &Device, nx: usize, nv: usize, elapsed: Duration) -> Self {
        let achieved = achieved_bandwidth_gbs(nx, nv, elapsed);
        let total_bytes = (nx * nv * 8) as f64;
        RooflineAnnotation {
            device: device.name,
            glups: glups(nx, nv, elapsed),
            achieved_bw_gbs: achieved,
            peak_bw_gbs: device.peak_bw_gbs,
            bandwidth_fraction: bandwidth_fraction(achieved, device.peak_bw_gbs),
            roofline_fraction: memory_bound_time_s(device, total_bytes) / elapsed.as_secs_f64(),
        }
    }

    /// JSON object fragment (no trailing newline), e.g.
    /// `{"device": "...", "glups": 0.017, ...}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"device\": \"{}\", \"glups\": {}, \"achieved_bw_gbs\": {}, \
             \"peak_bw_gbs\": {}, \"bandwidth_fraction\": {}, \"roofline_fraction\": {}}}",
            json_escape(self.device),
            json_f64(self.glups),
            json_f64(self.achieved_bw_gbs),
            json_f64(self.peak_bw_gbs),
            json_f64(self.bandwidth_fraction),
            json_f64(self.roofline_fraction),
        )
    }
}

/// Everything recorded so far: phase totals plus the named metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Per-phase totals, in [`PhaseId::ALL`] order, zero-call phases
    /// omitted.
    pub phases: Vec<PhaseStat>,
    /// Named counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Named gauges, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Named histograms, name-sorted.
    pub histograms: Vec<HistogramStat>,
}

impl Snapshot {
    /// Capture the current totals. With the `instrument` feature off
    /// this is always empty.
    #[cfg(feature = "instrument")]
    pub fn capture() -> Snapshot {
        use std::sync::atomic::Ordering::Relaxed;

        let totals = crate::active::phase_totals();
        let phases = PhaseId::ALL
            .iter()
            .filter_map(|&p| {
                let (total_ns, calls) = totals[p.index()];
                (calls > 0).then_some(PhaseStat {
                    phase: p,
                    calls,
                    total_ns,
                })
            })
            .collect();

        let guard = crate::active::REGISTRY.lock().unwrap();
        let (counters, gauges, histograms) = match guard.as_ref() {
            None => (Vec::new(), Vec::new(), Vec::new()),
            Some(r) => (
                r.counters
                    .iter()
                    .map(|(name, c)| (name.to_string(), c.load(Relaxed)))
                    .collect(),
                r.gauges
                    .iter()
                    .map(|(name, g)| (name.to_string(), f64::from_bits(g.load(Relaxed))))
                    .collect(),
                r.histograms
                    .iter()
                    .map(|(name, h)| {
                        let count = h.count.load(Relaxed);
                        let buckets = h
                            .buckets
                            .iter()
                            .enumerate()
                            .filter_map(|(b, n)| {
                                let n = n.load(Relaxed);
                                (n > 0).then(|| {
                                    let upper = if b >= 64 { u64::MAX } else { 1u64 << b };
                                    (upper, n)
                                })
                            })
                            .collect();
                        HistogramStat {
                            name: name.to_string(),
                            count,
                            sum: h.sum.load(Relaxed),
                            min: if count == 0 { 0 } else { h.min.load(Relaxed) },
                            max: h.max.load(Relaxed),
                            buckets,
                        }
                    })
                    .collect(),
            ),
        };
        Snapshot {
            phases,
            counters,
            gauges,
            histograms,
        }
    }

    /// Capture the current totals. With the `instrument` feature off
    /// this is always empty.
    #[cfg(not(feature = "instrument"))]
    pub fn capture() -> Snapshot {
        Snapshot::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
    }

    /// Total nanoseconds recorded against `phase` (0 if absent).
    pub fn phase_total_ns(&self, phase: PhaseId) -> u64 {
        self.phases
            .iter()
            .find(|s| s.phase == phase)
            .map_or(0, |s| s.total_ns)
    }

    /// Calls recorded against `phase` (0 if absent).
    pub fn phase_calls(&self, phase: PhaseId) -> u64 {
        self.phases
            .iter()
            .find(|s| s.phase == phase)
            .map_or(0, |s| s.calls)
    }

    /// Value of the counter named `name` (0 if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramStat> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Sum of `total_ns` over every phase in `phases`.
    pub fn phase_sum_ns(&self, phases: &[PhaseId]) -> u64 {
        phases.iter().map(|&p| self.phase_total_ns(p)).sum()
    }

    /// Hand-rolled JSON object, 2-space indent, newline-terminated —
    /// the `BENCH_dispatch.json` house style.
    pub fn to_json(&self) -> String {
        let mut j = String::from("{\n");
        let _ = writeln!(j, "  \"schema_version\": {SCHEMA_VERSION},");
        j.push_str("  \"phases\": [\n");
        for (k, s) in self.phases.iter().enumerate() {
            let mean_ns = s.total_ns as f64 / s.calls as f64;
            let _ = write!(
                j,
                "    {{\"phase\": \"{}\", \"calls\": {}, \"total_ms\": {}, \"mean_ns\": {}}}",
                s.phase.name(),
                s.calls,
                json_f64(s.total_ns as f64 / 1e6),
                json_f64(mean_ns),
            );
            j.push_str(if k + 1 < self.phases.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        j.push_str("  ],\n  \"counters\": {");
        for (k, (name, v)) in self.counters.iter().enumerate() {
            let _ = write!(
                j,
                "{}\"{}\": {v}",
                if k == 0 { "" } else { ", " },
                json_escape(name)
            );
        }
        j.push_str("},\n  \"gauges\": {");
        for (k, (name, v)) in self.gauges.iter().enumerate() {
            let _ = write!(
                j,
                "{}\"{}\": {}",
                if k == 0 { "" } else { ", " },
                json_escape(name),
                json_f64(*v)
            );
        }
        j.push_str("},\n  \"histograms\": [\n");
        for (k, h) in self.histograms.iter().enumerate() {
            let _ = write!(
                j,
                "    {{\"name\": \"{}\", \"count\": {}, \"mean\": {}, \"min\": {}, \
                 \"max\": {}, \"p50_le\": {}, \"p99_le\": {}, \"buckets\": [",
                json_escape(&h.name),
                h.count,
                json_f64(h.mean()),
                h.min,
                h.max,
                h.quantile_upper_bound(0.50),
                h.quantile_upper_bound(0.99),
            );
            for (i, (upper, n)) in h.buckets.iter().enumerate() {
                let _ = write!(
                    j,
                    "{}{{\"le\": {upper}, \"count\": {n}}}",
                    if i == 0 { "" } else { ", " }
                );
            }
            j.push_str("]}");
            j.push_str(if k + 1 < self.histograms.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        j.push_str("  ]\n}\n");
        j
    }
}

/// Finite floats as `%.3f`, non-finite as JSON `null` (house style).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".into()
    }
}

/// Escape `s` for inclusion inside a JSON string literal, per RFC 8259:
/// backslash, quote, and all control characters below 0x20.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roofline_annotation_uses_device_peaks() {
        let d = Device::icelake();
        // nx·nv·8 bytes in `t`: achieved bw is exact, fractions follow.
        let ann = RooflineAnnotation::measured(&d, 1000, 1000, Duration::from_millis(10));
        let expect_bw = 1000.0 * 1000.0 * 8.0 / 0.010 / 1e9;
        assert!((ann.achieved_bw_gbs - expect_bw).abs() < 1e-9);
        assert!((ann.bandwidth_fraction - expect_bw / d.peak_bw_gbs).abs() < 1e-12);
        assert!(
            (ann.roofline_fraction - expect_bw / (d.peak_bw_gbs * d.stream_efficiency)).abs()
                < 1e-9
        );
        let json = ann.to_json();
        assert!(json.contains("\"glups\""));
        assert!(json.contains("\"roofline_fraction\""));
    }

    #[test]
    fn quantiles_from_buckets() {
        let h = HistogramStat {
            name: "q".into(),
            count: 10,
            sum: 0,
            min: 1,
            max: 900,
            // 5 samples ≤ 8, 4 ≤ 512, 1 ≤ 1024.
            buckets: vec![(8, 5), (512, 4), (1024, 1)],
        };
        assert_eq!(h.quantile_upper_bound(0.5), 8);
        assert_eq!(h.quantile_upper_bound(0.9), 512);
        assert_eq!(h.quantile_upper_bound(1.0), 1024);
    }

    #[test]
    fn empty_snapshot_serialises() {
        let s = Snapshot::default();
        assert!(s.is_empty());
        let j = s.to_json();
        assert!(j.contains("\"phases\": ["));
        assert!(j.ends_with("}\n"));
    }
}
