//! Per-phase attribution of the batched spline solve — the reproduction
//! of the paper's Table III methodology on CPU. Runs every
//! `BuilderVersion` under the instrumentation layer, snapshots the phase
//! totals, and writes `BENCH_phases.json` with derived GLUPS / achieved
//! bandwidth / roofline-fraction figures. Wall clock the spans do not
//! attribute is reported as an explicit `"other"` phase, so per-version
//! phase totals + other always sum to wall clock.
//!
//! The attribution loop runs on `Serial` so that phase sums are
//! comparable to wall clock (on a parallel executor span totals add up
//! to CPU time, not elapsed time). A second, pooled section exercises
//! `Parallel` to populate the dispatch-latency histogram and the pool
//! busy/idle gauges.
//!
//! With `--resident` an extra entry profiles the resident-batch
//! pipeline: pack once, a chain of panel-native solves, unpack once —
//! the amortization the per-solve interleaved version cannot express.
//! Its `transpose` phase holds exactly the two ingress/egress passes.
//!
//! Build with `--features instrument` or the phase arrays come back
//! empty (the layer compiles to a no-op without it).
//!
//! Usage: `phase_profile [--smoke] [--resident] [--out PATH]`

use pp_bench::SplineConfig;
use pp_perfmodel::Device;
use pp_portable::instrument::{self, RooflineAnnotation, Snapshot};
use pp_portable::{
    publish_pool_metrics, ExecSpace, Layout, Matrix, Parallel, ResidentBatch, Serial,
};
use pp_splinesolver::{BuilderVersion, SplineBuilder};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// JSON label of the resident pipeline entry (the pack-per-solve
/// interleaved version is `"Lane interleave"`).
const RESIDENT_LABEL: &str = "Lane interleave resident";

/// Chain length of the resident profile in *both* modes: the measured
/// quantity is the amortization of one pack + one unpack across the
/// chain, and the phase-share gate compares smoke against the committed
/// baseline — shrinking the chain in smoke mode would shift the
/// transpose share structurally, not just noisily.
const RESIDENT_CHAIN: usize = 30;

/// One version's measured profile.
struct VersionProfile {
    label: &'static str,
    wall: Duration,
    iters: usize,
    snapshot: Snapshot,
    roofline: RooflineAnnotation,
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".into()
    }
}

/// Sum every recorded phase — the solve phases are non-nested leaf spans
/// on the serial path, so the total is directly comparable to wall time.
fn phase_sum_ns(snapshot: &Snapshot) -> u64 {
    snapshot.phases.iter().map(|s| s.total_ns).sum()
}

/// Wall clock not attributed to any phase span: loop control, rhs
/// bookkeeping, span overhead itself. Reported as an explicit `"other"`
/// bucket so phase totals + other always sum to wall clock.
fn other_ns(snapshot: &Snapshot, wall: Duration) -> u64 {
    (wall.as_nanos() as u64).saturating_sub(phase_sum_ns(snapshot))
}

/// Wall-clock share of the `transpose` phase — the pack/unpack traffic
/// residency exists to amortize.
fn transpose_share(snapshot: &Snapshot, wall: Duration) -> f64 {
    let transpose_ns: u64 = snapshot
        .phases
        .iter()
        .filter(|s| s.phase.name() == "transpose")
        .map(|s| s.total_ns)
        .sum();
    transpose_ns as f64 / wall.as_nanos().max(1) as f64
}

fn main() {
    let mut smoke = false;
    let mut resident = false;
    let mut out = String::from("BENCH_phases.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--resident" => resident = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => {
                panic!("unknown argument {other:?} (expected --smoke / --resident / --out PATH)")
            }
        }
    }

    // Large lanes so per-lane span overhead (an `Instant::now` pair per
    // routine per lane) stays far below the measured kernel time.
    let (nx, nv, iters) = if smoke {
        (128, 64, 3)
    } else {
        (1024, 1024, 30)
    };
    let device = Device::icelake();

    println!("=== phase_profile: Table-III-style phase attribution ===");
    println!(
        "nx {nx}, nv {nv}, {iters} solve(s) per version, instrumented: {}{}",
        instrument::enabled(),
        if smoke { " [smoke]" } else { "" }
    );
    if !instrument::enabled() {
        println!("warning: built without --features instrument; phase arrays will be empty");
    }

    let space = SplineConfig {
        degree: 3,
        uniform: true,
    }
    .space(nx);
    let rhs = Matrix::from_fn(nx, nv, Layout::Left, |i, j| {
        ((i * 31 + j * 17) % 97) as f64 / 97.0 - 0.5
    });

    let mut profiles = Vec::new();
    for version in BuilderVersion::ALL {
        let builder = SplineBuilder::new(space.clone(), version).expect("builder setup");
        let mut b = rhs.clone();
        // Warm-up outside the measured window.
        builder
            .solve_in_place(&Serial, &mut b)
            .expect("warm-up solve");

        instrument::reset();
        let start = Instant::now();
        for _ in 0..iters {
            // Re-solving the coefficient block is numerically harmless and
            // keeps rhs copies out of the timed window.
            builder.solve_in_place(&Serial, &mut b).expect("solve");
        }
        let wall = start.elapsed();
        let snapshot = Snapshot::capture();
        let per_solve = wall / iters as u32;
        let roofline = RooflineAnnotation::measured(&device, nx, nv, per_solve);

        let cover = phase_sum_ns(&snapshot) as f64 / wall.as_nanos().max(1) as f64;
        println!(
            "{:<14} wall {:>9.3} ms/solve  cover {:>5.1}%  {:.4} GLUPS  {:>6.2} GB/s",
            version.label(),
            per_solve.as_secs_f64() * 1e3,
            cover * 100.0,
            roofline.glups,
            roofline.achieved_bw_gbs,
        );
        for s in &snapshot.phases {
            println!(
                "    {:<14} {:>9.3} ms  ({} call(s))",
                s.phase.name(),
                s.total_ns as f64 / 1e6,
                s.calls
            );
        }
        println!(
            "    {:<14} {:>9.3} ms  (unattributed remainder)",
            "other",
            other_ns(&snapshot, wall) as f64 / 1e6
        );
        profiles.push(VersionProfile {
            label: version.label(),
            wall,
            iters,
            snapshot,
            roofline,
        });
    }

    if resident {
        // Resident pipeline: pack once, RESIDENT_CHAIN panel-native
        // solves, unpack once. The only transpose traffic in the
        // measured window is the ingress/egress pair.
        let builder =
            SplineBuilder::new(space.clone(), BuilderVersion::Interleaved).expect("builder setup");
        let mut warm = rhs.clone();
        builder
            .solve_in_place(&Serial, &mut warm)
            .expect("warm-up solve");

        instrument::reset();
        let start = Instant::now();
        let mut rb = ResidentBatch::pack(&rhs);
        for _ in 0..RESIDENT_CHAIN {
            builder
                .solve_resident(&Serial, &mut rb)
                .expect("resident solve");
        }
        let mut host = Matrix::zeros(nx, nv, Layout::Left);
        rb.unpack_into(&mut host).expect("resident egress");
        std::hint::black_box(&host);
        let wall = start.elapsed();
        let snapshot = Snapshot::capture();
        let per_solve = wall / RESIDENT_CHAIN as u32;
        let roofline = RooflineAnnotation::measured(&device, nx, nv, per_solve);

        let cover = phase_sum_ns(&snapshot) as f64 / wall.as_nanos().max(1) as f64;
        println!(
            "{:<14} wall {:>9.3} ms/solve  cover {:>5.1}%  {:.4} GLUPS  {:>6.2} GB/s  \
             transpose share {:>5.1}%",
            RESIDENT_LABEL,
            per_solve.as_secs_f64() * 1e3,
            cover * 100.0,
            roofline.glups,
            roofline.achieved_bw_gbs,
            transpose_share(&snapshot, wall) * 100.0,
        );
        for s in &snapshot.phases {
            println!(
                "    {:<14} {:>9.3} ms  ({} call(s))",
                s.phase.name(),
                s.total_ns as f64 / 1e6,
                s.calls
            );
        }
        println!(
            "    {:<14} {:>9.3} ms  (unattributed remainder)",
            "other",
            other_ns(&snapshot, wall) as f64 / 1e6
        );
        profiles.push(VersionProfile {
            label: RESIDENT_LABEL,
            wall,
            iters: RESIDENT_CHAIN,
            snapshot,
            roofline,
        });
    }

    // Pooled section: populate the dispatch histogram and pool gauges.
    instrument::reset();
    let pool_iters = if smoke { 2 } else { 5 };
    let builder =
        SplineBuilder::new(space.clone(), BuilderVersion::FusedSpmv).expect("builder setup");
    let mut b = rhs.clone();
    for _ in 0..pool_iters {
        builder
            .solve_in_place(&Parallel, &mut b)
            .expect("pooled solve");
        Parallel.for_each_lane_mut(&mut b, |_, mut lane| {
            for i in 0..lane.len() {
                lane[i] = std::hint::black_box(lane[i]);
            }
        });
    }
    publish_pool_metrics();
    let pool_snapshot = Snapshot::capture();
    if let Some(h) = pool_snapshot.histogram("pool.dispatch_ns") {
        println!(
            "\npool dispatch latency: {} dispatch(es), mean {:.0} ns, p50 ≤ {} ns, p99 ≤ {} ns",
            h.count,
            h.mean(),
            h.quantile_upper_bound(0.50),
            h.quantile_upper_bound(0.99),
        );
    }

    // Hand-rolled JSON (the workspace is hermetic: no serde).
    let mut j = String::new();
    j.push_str("{\n  \"bench\": \"phase_profile\",\n");
    let _ = writeln!(
        j,
        "  \"schema_version\": {},",
        pp_portable::instrument::SCHEMA_VERSION
    );
    let _ = writeln!(j, "  \"smoke\": {smoke},");
    let _ = writeln!(j, "  \"instrumented\": {},", instrument::enabled());
    let _ = writeln!(j, "  \"nx\": {nx},");
    let _ = writeln!(j, "  \"nv\": {nv},");
    let _ = writeln!(j, "  \"iters_per_version\": {iters},");
    let _ = writeln!(j, "  \"device\": \"{}\",", device.name);
    j.push_str("  \"versions\": [\n");
    for (k, p) in profiles.iter().enumerate() {
        let wall_ms = p.wall.as_secs_f64() * 1e3;
        let cover = phase_sum_ns(&p.snapshot) as f64 / p.wall.as_nanos().max(1) as f64;
        let _ = writeln!(j, "    {{");
        let _ = writeln!(j, "      \"version\": \"{}\",", p.label);
        let _ = writeln!(j, "      \"wall_ms\": {},", json_f64(wall_ms));
        let _ = writeln!(
            j,
            "      \"wall_ms_per_solve\": {},",
            json_f64(wall_ms / p.iters as f64)
        );
        let _ = writeln!(j, "      \"phase_cover\": {},", json_f64(cover));
        let _ = writeln!(
            j,
            "      \"transpose_share\": {},",
            json_f64(transpose_share(&p.snapshot, p.wall))
        );
        j.push_str("      \"phases\": [\n");
        for s in &p.snapshot.phases {
            let _ = writeln!(
                j,
                "        {{\"phase\": \"{}\", \"calls\": {}, \"total_ms\": {}, \"mean_ns\": {}}},",
                s.phase.name(),
                s.calls,
                json_f64(s.total_ns as f64 / 1e6),
                json_f64(s.total_ns as f64 / s.calls.max(1) as f64),
            );
        }
        // The unattributed remainder closes the array: phase totals plus
        // "other" sum to wall_ms by construction.
        let _ = writeln!(
            j,
            "        {{\"phase\": \"other\", \"calls\": 0, \"total_ms\": {}, \"mean_ns\": null}}",
            json_f64(other_ns(&p.snapshot, p.wall) as f64 / 1e6),
        );
        j.push_str("      ],\n");
        let _ = writeln!(j, "      \"roofline\": {}", p.roofline.to_json());
        j.push_str("    }");
        j.push_str(if k + 1 < profiles.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ],\n");
    // Pool section: dispatch histogram + gauges from the parallel run.
    j.push_str("  \"pool\": {\n");
    match pool_snapshot.histogram("pool.dispatch_ns") {
        Some(h) => {
            let _ = writeln!(
                j,
                "    \"dispatch_ns\": {{\"count\": {}, \"mean\": {}, \"min\": {}, \
                 \"max\": {}, \"p50_le\": {}, \"p99_le\": {}}},",
                h.count,
                json_f64(h.mean()),
                h.min,
                h.max,
                h.quantile_upper_bound(0.50),
                h.quantile_upper_bound(0.99),
            );
        }
        None => j.push_str("    \"dispatch_ns\": null,\n"),
    }
    j.push_str("    \"gauges\": {");
    for (k, (name, v)) in pool_snapshot.gauges.iter().enumerate() {
        let _ = write!(
            j,
            "{}\"{name}\": {}",
            if k == 0 { "" } else { ", " },
            json_f64(*v)
        );
    }
    j.push_str("}\n  }\n}\n");
    std::fs::write(&out, &j).expect("writing bench JSON");
    println!("wrote {out}");
}
