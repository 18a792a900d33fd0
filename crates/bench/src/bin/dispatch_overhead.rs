//! Per-dispatch latency of the batched executors: the persistent worker
//! pool (`Parallel`) vs. the retired spawn-per-call dispatcher
//! (`ScopedParallel`) vs. the serial reference, plus small-batch GLUPS of
//! the full advection step on each. Writes machine-readable
//! `BENCH_dispatch.json`.
//!
//! This is the dispatch-overhead trap the batched-solver literature warns
//! about: the paper's hot path issues several `parallel_for` regions per
//! solve, so launch cost multiplies into every figure. The pool amortises
//! thread creation across the process lifetime the way a Kokkos dispatch
//! reuses its OpenMP team.
//!
//! Usage: `dispatch_overhead [--smoke] [--out PATH]`
//!   --smoke  tiny sizes / few reps (seconds; used by scripts/verify.sh)
//!   --out    output JSON path (default BENCH_dispatch.json)

use pp_advection::{Advection1D, SplineBackend};
use pp_bench::{fmt_ms, ScopedParallel};
use pp_perfmodel::glups;
use pp_portable::{num_threads, pool_stats, ExecSpace, Layout, Matrix, Parallel, Serial};
use pp_splinesolver::BuilderVersion;
use std::fmt::Write as _;
use std::time::Instant;

/// One latency row: mean ns per dispatch for each executor at one batch.
struct LatencyRow {
    batch: usize,
    pool_ns: f64,
    scoped_ns: f64,
    serial_ns: f64,
}

/// One GLUPS row: advection throughput for each executor at one (nx, nv).
struct GlupsRow {
    nx: usize,
    nv: usize,
    pool: f64,
    scoped: f64,
    serial: f64,
}

/// Mean ns of one `for_each_lane_mut` dispatch over `reps` repetitions.
fn time_dispatch<E: ExecSpace>(exec: &E, m: &mut Matrix, reps: usize) -> f64 {
    // Warm-up (first pooled dispatch also spawns the workers).
    exec.for_each_lane_mut(m, touch_lane);
    let start = Instant::now();
    for _ in 0..reps {
        exec.for_each_lane_mut(m, touch_lane);
    }
    start.elapsed().as_nanos() as f64 / reps as f64
}

/// Minimal per-lane work: enough to be a real kernel, small enough that
/// launch cost dominates — the regime Fig. 2's small batches live in.
fn touch_lane(j: usize, mut lane: pp_portable::StridedMut<'_>) {
    for i in 0..lane.len() {
        lane[i] = std::hint::black_box(lane[i] + (i + j) as f64);
    }
}

/// Mean GLUPS of the advection step at (nx, nv) on one executor.
fn advection_glups<E: ExecSpace>(exec: &E, nx: usize, nv: usize, iters: usize) -> f64 {
    let space = pp_bench::SplineConfig {
        degree: 3,
        uniform: true,
    }
    .space(nx);
    let backend = SplineBackend::direct(space, BuilderVersion::FusedSpmv).expect("setup");
    let velocities: Vec<f64> = (0..nv).map(|j| 0.1 + 0.8 * j as f64 / nv as f64).collect();
    let mut adv = Advection1D::new(backend, velocities, 1e-3).expect("setup");
    let mut f = adv.init_distribution(|x, _| (std::f64::consts::TAU * x).sin() + 1.5);
    adv.step(exec, &mut f).expect("warm-up step");
    let start = Instant::now();
    for _ in 0..iters {
        adv.step(exec, &mut f).expect("step");
    }
    glups(nx, nv, start.elapsed() / iters as u32)
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".into()
    }
}

fn main() {
    let mut smoke = false;
    let mut out = String::from("BENCH_dispatch.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => panic!("unknown argument {other:?} (expected --smoke / --out PATH)"),
        }
    }

    // Batch 1 is excluded: with a single lane both executors short-circuit
    // to the plain serial loop, so no dispatch exists to measure.
    let (batches, reps, lane_rows): (&[usize], usize, usize) = if smoke {
        (&[2, 16, 256, 1024], 30, 8)
    } else {
        (&[2, 4, 16, 64, 256, 1024, 4096, 16384], 300, 8)
    };

    println!("=== dispatch_overhead: pooled Parallel vs per-call scoped threads vs Serial ===");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "worker budget: {} thread(s) on {cores} core(s) (PP_NUM_THREADS overrides){}",
        num_threads(),
        if smoke { " [smoke]" } else { "" }
    );
    println!("\nbatch,pool_ns,scoped_ns,serial_ns,pool_speedup_vs_scoped");

    let mut latency = Vec::new();
    for &batch in batches {
        let mut m = Matrix::zeros(lane_rows, batch, Layout::Left);
        let pool_ns = time_dispatch(&Parallel, &mut m, reps);
        let scoped_ns = time_dispatch(&ScopedParallel, &mut m, reps);
        let serial_ns = time_dispatch(&Serial, &mut m, reps);
        println!(
            "{batch},{pool_ns:.0},{scoped_ns:.0},{serial_ns:.0},{:.1}",
            scoped_ns / pool_ns
        );
        latency.push(LatencyRow {
            batch,
            pool_ns,
            scoped_ns,
            serial_ns,
        });
    }

    let glups_cases: &[(usize, usize)] = if smoke {
        &[(64, 16)]
    } else {
        &[(256, 16), (256, 64), (1024, 64), (1024, 256)]
    };
    let glups_iters = if smoke { 5 } else { 50 };
    println!("\nsmall-batch advection GLUPS (direct backend, degree 3 uniform):");
    println!("nx,nv,pool,scoped,serial");
    let mut throughput = Vec::new();
    for &(nx, nv) in glups_cases {
        let pool = advection_glups(&Parallel, nx, nv, glups_iters);
        let scoped = advection_glups(&ScopedParallel, nx, nv, glups_iters);
        let serial = advection_glups(&Serial, nx, nv, glups_iters);
        println!("{nx},{nv},{pool:.4},{scoped:.4},{serial:.4}");
        throughput.push(GlupsRow {
            nx,
            nv,
            pool,
            scoped,
            serial,
        });
    }

    let stats = pool_stats();
    println!(
        "\npool stats: {} worker(s), {} dispatch(es), {} lane(s), {} inline, busy {}, idle {}",
        stats.workers,
        stats.dispatches,
        stats.lanes_dispatched,
        stats.inline_dispatches,
        fmt_ms(stats.total_busy()),
        fmt_ms(stats.total_idle()),
    );

    // Hand-rolled JSON (the workspace is hermetic: no serde).
    let mut j = String::new();
    j.push_str("{\n  \"bench\": \"dispatch_overhead\",\n");
    let _ = writeln!(j, "  \"schema_version\": {},", pp_bench::SCHEMA_VERSION);
    let _ = writeln!(j, "  \"smoke\": {smoke},");
    let _ = writeln!(j, "  \"num_threads\": {},", num_threads());
    let _ = writeln!(j, "  \"cores\": {cores},");
    let _ = writeln!(j, "  \"reps_per_point\": {reps},");
    j.push_str("  \"per_dispatch_latency_ns\": [\n");
    for (k, r) in latency.iter().enumerate() {
        let _ = write!(
            j,
            "    {{\"batch\": {}, \"pool\": {}, \"scoped\": {}, \
             \"serial\": {}, \"pool_speedup_vs_scoped\": {}}}",
            r.batch,
            json_f64(r.pool_ns),
            json_f64(r.scoped_ns),
            json_f64(r.serial_ns),
            json_f64(r.scoped_ns / r.pool_ns)
        );
        j.push_str(if k + 1 < latency.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ],\n  \"advection_glups\": [\n");
    for (k, r) in throughput.iter().enumerate() {
        let _ = write!(
            j,
            "    {{\"nx\": {}, \"nv\": {}, \"pool\": {}, \"scoped\": {}, \"serial\": {}}}",
            r.nx,
            r.nv,
            json_f64(r.pool),
            json_f64(r.scoped),
            json_f64(r.serial)
        );
        j.push_str(if k + 1 < throughput.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    j.push_str("  ],\n");
    let _ = writeln!(
        j,
        "  \"pool_stats\": {{\"workers\": {}, \"dispatches\": {}, \"lanes_dispatched\": {}, \
         \"inline_dispatches\": {}, \"busy_ms\": {}, \"idle_ms\": {}}}",
        stats.workers,
        stats.dispatches,
        stats.lanes_dispatched,
        stats.inline_dispatches,
        json_f64(stats.total_busy().as_secs_f64() * 1e3),
        json_f64(stats.total_idle().as_secs_f64() * 1e3)
    );
    j.push_str("}\n");
    std::fs::write(&out, &j).expect("writing bench JSON");
    println!("wrote {out}");
}
