//! Fig. 2 — GLUPS of the full 1D batched advection step vs. batch size
//! Nv, for the direct (Kokkos-kernels-style) and iterative (Ginkgo-style)
//! backends, all six spline configurations.
//!
//! Host measurements reproduce panels (a)/(d) (the CPU column); the GPU
//! panels' *shape* is discussed in EXPERIMENTS.md via the traffic model.
//! CSV series are printed for external plotting, followed by an ASCII
//! log-log plot per backend. Three more rows time the resident step
//! (`step_resident` on a slab packed once), plain, verified and verified
//! with the ABFT sums off, and print the instruction set the evaluator and
//! the screen run at, the plain step's ns/point and pool dispatches per
//! step, the same for the host step (`step` on the field itself), the
//! same-run step-time ratios of host to resident (timed in turns) and of
//! verified to plain and the verification surcharge in ns/point, the
//! resident chain's transpose share ([`transpose_share`]) and the same-run
//! ratio of the solve-and-evaluate call on a batch's tiles to the same call
//! on its panels ([`tiled_step_ratio`]) — the two dispatch counts and the
//! four ratios are what `scripts/check_bench.sh` gates.
//!
//! `fig2_glups --isa` prints the per-instruction-set rows of the evaluator
//! ([`isa_rows`]), of the panel transposer ([`transposer_isa_rows`]), of the
//! verified solve's screen ([`screen_isa_rows`]) and of the solve's sweep,
//! alone, two and four abreast ([`sweep_isa_rows`]), instead and exits.
//! Their speed-ups are over [`FMA_BASE`], AVX2: the baseline instance's
//! multiply-adds are calls into the `fma` routine, so a ratio over it
//! measures those calls, not the vector width. The baseline rows keep their
//! timings and the checksums every instance is held to.

use pp_advection::{Advection1D, SplineBackend};
use pp_bench::gpu_model::predict;
use pp_bench::{parse_positional, usage_exit, AsciiPlot, SplineConfig};
use pp_perfmodel::{glups, performance_portability, Device};
use pp_portable::{
    deinterleave_columns, interleave_columns, CountingExec, Layout, Lines, Matrix, PanelIsa,
    Parallel, ResidentBatch, Serial, TestRng, TiledField, LANE_WIDTH,
};
use pp_splinesolver::{
    BuilderVersion, IterativeConfig, SchurBlocks, Solved, SplineBuilder, VerifiedBuilder,
    VerifyConfig,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn measure(backend: SplineBackend, nx: usize, nv: usize, iters: usize) -> f64 {
    let velocities: Vec<f64> = (0..nv).map(|j| 0.1 + 0.8 * j as f64 / nv as f64).collect();
    let mut adv = Advection1D::new(backend, velocities, 1e-3).expect("setup");
    let mut f = adv.init_distribution(|x, _| (std::f64::consts::TAU * x).sin() + 1.5);
    // Warm-up step (also primes the iterative backend's warm start).
    adv.step(&Parallel, &mut f).expect("step");
    let start = Instant::now();
    for _ in 0..iters {
        adv.step(&Parallel, &mut f).expect("step");
    }
    glups(nx, nv, start.elapsed() / iters as u32)
}

/// Median time and pool dispatches of one step per backend, on a resident
/// slab packed once or (`host`) on the `(Nv, Nx)` host field itself: after
/// a warm-up round `steps` rounds time one step of every backend in turn,
/// so host drift lands on all of them alike.
fn measure_steps<const N: usize>(
    backends: [(SplineBackend, bool); N],
    nv: usize,
    steps: usize,
) -> [(Duration, usize); N] {
    let velocities: Vec<f64> = (0..nv).map(|j| 0.1 + 0.8 * j as f64 / nv as f64).collect();
    let mut drivers = backends.map(|(backend, host)| {
        let adv = Advection1D::new(backend, velocities.clone(), 1e-3).expect("setup");
        let f = adv.init_distribution(|x, _| (std::f64::consts::TAU * x).sin() + 1.5);
        let slab = (!host).then(|| ResidentBatch::pack_transposed(&f));
        let times = Vec::with_capacity(steps);
        (adv, f, slab, times, CountingExec::default())
    });
    for round in 0..=steps {
        for (adv, f, slab, times, exec) in &mut drivers {
            let start = Instant::now();
            match slab {
                Some(slab) => adv.step_resident(&*exec, slab),
                None => adv.step(&*exec, f),
            }
            .expect("step");
            if round > 0 {
                times.push(start.elapsed());
            }
        }
    }
    drivers.map(|(_, _, _, mut times, exec)| {
        times.sort();
        (times[steps / 2], exec.regions() / (steps + 1))
    })
}

/// The share of a resident pipeline's wall clock that only moves data, one
/// thread: pack an `(nx, nv)` host block once, 30 `solve_resident`s on the
/// batch (FusedSpmv, in place), unpack once, with an `Instant` read
/// between the three; (pack + unpack) / (pack + solves + unpack), the
/// median of five chains after a warm-up one.
fn transpose_share(builder: &SplineBuilder, nx: usize, nv: usize) -> f64 {
    const CHAIN: usize = 30;
    let rhs = Matrix::from_fn(nx, nv, Layout::Left, |i, j| {
        ((i * 31 + j * 17) % 97) as f64 / 97.0 - 0.5
    });
    let mut host = Matrix::zeros(nx, nv, Layout::Left);
    let mut shares: Vec<f64> = (0..6)
        .map(|_| {
            let start = Instant::now();
            let mut batch = ResidentBatch::pack(&rhs);
            let packed = Instant::now();
            for _ in 0..CHAIN {
                builder.solve_resident(&Serial, &mut batch).expect("solve");
            }
            let solved = Instant::now();
            batch.unpack_into(&mut host).expect("unpack");
            let end = Instant::now();
            black_box(&host);
            ((packed - start) + (end - solved)).as_secs_f64() / (end - start).as_secs_f64()
        })
        .skip(1)
        .collect();
    shares.sort_by(f64::total_cmp);
    shares[shares.len() / 2]
}

/// The Strang step's v-advection against its x-advection, same run, on
/// `Parallel`: `solve_then` with the advection step's evaluate continuation
/// (every lane walked at its feet `x_i − d_l` back into its block) over the
/// [`TiledField`] of an `(n, n)` batch — blocks are tile rows, transposed
/// tile by tile into the worker's panel and walked straight back into
/// them — and the same call over the batch's own panels. After a warm-up
/// round, `steps` rounds time one call of each in turn; the ratio of the
/// medians, tiled over panels.
fn tiled_step_ratio(n: usize, steps: usize) -> f64 {
    let space = SplineConfig::ALL[0].space(n);
    let builder = SplineBuilder::new(space.clone(), BuilderVersion::FusedSpmv).expect("setup");
    let points = space.interpolation_points();
    let shifts: Vec<f64> = (0..n)
        .map(|l| 1e-3 * (0.1 + 0.8 * l as f64 / n as f64))
        .collect();
    let mut batch = ResidentBatch::pack(&Matrix::from_fn(n, n, Layout::Left, |i, j| {
        ((i * 31 + j * 17) % 97) as f64 / 97.0 - 0.5
    }));
    let advect = |chunk: usize, lanes: usize, solved: Solved<'_>| {
        let feet = |l: usize| (&points[..], shifts[chunk * LANE_WIDTH + l]);
        match solved {
            Solved::InPlace(panel) => space.eval_panel(None, lanes, feet, panel),
            Solved::Apart { coefs, block } => space.eval_columns(coefs, feet, block),
        }
    };
    let (mut tiled, mut panels) = (Vec::with_capacity(steps), Vec::with_capacity(steps));
    for round in 0..=steps {
        let start = Instant::now();
        let mut tiles = TiledField::new(&mut batch);
        builder
            .solve_then(&Parallel, &mut tiles, advect)
            .expect("step");
        let between = Instant::now();
        builder
            .solve_then(&Parallel, &mut batch, advect)
            .expect("step");
        if round > 0 {
            tiled.push(between - start);
            panels.push(between.elapsed());
        }
    }
    let median = |mut times: Vec<Duration>| {
        times.sort();
        times[times.len() / 2].as_secs_f64()
    };
    median(tiled) / median(panels)
}

/// The base of every `--isa` speed-up: the narrowest instance with hardware
/// FMA (module docs).
const FMA_BASE: PanelIsa = PanelIsa::Avx2;

/// `base_ns / ns`, the speed-up of an instance over [`FMA_BASE`], which
/// took `base_ns` (`None` where the host lacks it); none for the baseline
/// instance.
fn speedup(isa: PanelIsa, ns: f64, base_ns: Option<f64>) -> Option<f64> {
    base_ns
        .filter(|_| isa != PanelIsa::Baseline)
        .map(|base| base / ns)
}

/// A ratio column: two decimals, or `-` where there is none.
fn column(ratio: Option<f64>) -> String {
    ratio.map_or_else(|| "-".to_string(), |r| format!("{r:.2}"))
}

/// The evaluator alone, one thread, per instruction set: `eval_panel_on`
/// over 128 panels of 1024 rows at the step's feet `(x_i, d_l)` — formed in
/// the walk as `x_i − d_l` — with `|d_l| ≤ 0.004` (four cells), best of 15
/// passes, uniform cubic and quintic (their closed forms) and graded quintic
/// (the triangle). Per row: ns/point, the share of runs on the vector path,
/// the speed-up over [`FMA_BASE`] and the Pennycook efficiency with its base
/// stated (speed-up ÷ the width ratio over AVX2's four doubles); per mesh
/// their harmonic mean over the instances with hardware FMA. Every instance
/// must return the baseline's checksum.
fn isa_rows() {
    const N: usize = 1024 * LANE_WIDTH;
    println!("mesh,isa,ns_per_point,vector_run_share,speedup_vs_avx2,efficiency_vs_avx2");
    for cfg in [0, 2, 5].map(|k| SplineConfig::ALL[k]) {
        let (space, mesh) = (cfg.space(N / LANE_WIDTH), cfg.label());
        let points = space.interpolation_points();
        let mut rng = TestRng::seed_from_u64(0x15A);
        let coefs: Vec<f64> = (0..128 * N).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let by: Vec<f64> = (0..128 * LANE_WIDTH)
            .map(|_| rng.gen_range(-0.004..0.004))
            .collect();
        let mut out = vec![0.0; N];
        let (mut base_sum, mut rows) = (None, Vec::new());
        let instances = PanelIsa::ALL.into_iter().zip([2.0, 4.0, 8.0]);
        for (isa, doubles) in instances.filter(|(isa, _)| isa.is_available()) {
            let (mut best, mut runs, mut sum) = (Duration::MAX, 0, 0.0);
            for _ in 0..15 {
                (runs, sum) = (0, 0.0);
                let start = Instant::now();
                for (panel, by) in coefs.chunks_exact(N).zip(by.chunks_exact(LANE_WIDTH)) {
                    let feet = |l: usize| (&points[..], by[l]);
                    runs += space.eval_panel_on(isa, Some(panel), LANE_WIDTH, feet, &mut out);
                    sum += out.iter().step_by(509).sum::<f64>();
                }
                best = best.min(start.elapsed());
            }
            let ns = best.as_secs_f64() * 1e9 / (128 * N) as f64;
            let base_sum: f64 = *base_sum.get_or_insert(sum);
            assert_eq!(sum.to_bits(), base_sum.to_bits(), "{}", isa.name());
            // A pass is 128 panels of N / LANE_WIDTH runs.
            let share = runs as f64 / (128 * N / LANE_WIDTH) as f64;
            rows.push((isa, doubles, ns, share));
        }
        let base_ns = rows.iter().find(|row| row.0 == FMA_BASE).map(|row| row.2);
        let mut efficiencies = Vec::new();
        for (isa, doubles, ns, share) in rows {
            let speedup = speedup(isa, ns, base_ns);
            let efficiency = speedup.map(|s| s / (doubles / 4.0));
            efficiencies.extend(efficiency.map(Some));
            let (speedup, efficiency) = (column(speedup), column(efficiency));
            println!(
                "{mesh},{},{ns:.2},{share:.3},{speedup},{efficiency}",
                isa.name()
            );
        }
        let p = performance_portability(&efficiencies);
        println!(
            "{mesh}: P(eval, H = {} FMA instances, base avx2) = {p:.2}",
            efficiencies.len()
        );
    }
}

/// The panel transposer alone, one thread, per instruction set, in cache: a
/// 1024-row panel into columns as the evaluator lays out the cubic ingress
/// (`n + 3` up to whole lines, 1032 apart, each starting a line) and columns
/// back into a slab panel, which starts a line too (egress; one scalar loop
/// on every instance), best of 15 × 256 passes; ns/element.
fn transposer_isa_rows() {
    const ROWS: usize = 1024;
    const STRIDE: usize = (ROWS + 3).next_multiple_of(LANE_WIDTH);
    println!("isa,deinterleave_ns_per_element,interleave_ns_per_element");
    let panel: Vec<f64> = (0..ROWS * LANE_WIDTH).map(|k| k as f64).collect();
    let mut cols = Lines::zeros(LANE_WIDTH * STRIDE);
    let mut slab = ResidentBatch::zeros(ROWS, LANE_WIDTH);
    let back = slab.chunk_mut(0);
    for isa in PanelIsa::ALL.into_iter().filter(|isa| isa.is_available()) {
        let mut ns = [Duration::MAX; 2];
        for _ in 0..15 {
            let start = Instant::now();
            (0..256).for_each(|_| deinterleave_columns(isa, &panel, LANE_WIDTH, STRIDE, &mut cols));
            let between = Instant::now();
            (0..256).for_each(|_| interleave_columns(&panel, LANE_WIDTH, back));
            (ns[0], ns[1]) = (ns[0].min(between - start), ns[1].min(between.elapsed()));
        }
        let [de, inter] = ns.map(|t| t.as_secs_f64() * 1e9 / (256 * ROWS * LANE_WIDTH) as f64);
        println!("{},{de:.3},{inter:.3}", isa.name());
    }
}

/// The verified solve's screen, one thread, per instruction set, over one
/// solved 1024-row panel and its right-hand sides — 128 KiB, in cache as the
/// step has them — best of 15 rounds of 256 passes, uniform cubic and graded
/// quintic. Two rows per instance: `screen`, `pass_on` (ABFT sums on), the
/// screen's whole work — the right-hand sides' sums and the pass over the
/// solved panel; and `snapshot`, `snapshot_on`, the copy of the right-hand
/// sides the verified step makes before the solve, with those sums taken on
/// the way. Per row of eight lanes: ns and the speed-up over [`FMA_BASE`];
/// every instance must return the baseline instance's sums (and copy).
/// Nothing is allocated inside the timed loops.
fn screen_isa_rows() {
    const ROWS: usize = 1024;
    println!("mesh,isa,pass,ns_per_row,speedup_vs_avx2");
    let verify = VerifyConfig {
        abft: true,
        ..VerifyConfig::default()
    };
    // Best of 15 rounds of 256 calls of `pass`, in ns per panel row.
    let time = |pass: &mut dyn FnMut()| {
        let mut best = Duration::MAX;
        for _ in 0..15 {
            let start = Instant::now();
            for _ in 0..256 {
                pass();
            }
            best = best.min(start.elapsed());
        }
        best.as_secs_f64() * 1e9 / (256 * ROWS) as f64
    };
    for cfg in [SplineConfig::ALL[0], SplineConfig::ALL[5]] {
        let builder = SplineBuilder::new(cfg.space(ROWS), BuilderVersion::FusedSpmv)
            .expect("factorisation")
            .verified(verify.clone());
        let mut rng = TestRng::seed_from_u64(0x5C4);
        let rhs = Matrix::from_fn(ROWS, LANE_WIDTH, Layout::Left, |_, _| {
            rng.gen_range(-1.0..1.0)
        });
        let (rhs, mut solved) = (ResidentBatch::pack(&rhs), ResidentBatch::pack(&rhs));
        let plain = builder.builder();
        plain.solve_resident(&Serial, &mut solved).expect("solve");
        let (x, rhs) = (solved.chunk(0), rhs.chunk(0));
        let mut kept = vec![0.0; rhs.len()];
        let (mut base_screen, mut base_snapshot, mut rows) = (None, None, Vec::new());
        for isa in PanelIsa::ALL.into_iter().filter(|isa| isa.is_available()) {
            let screen_ns = time(&mut || {
                black_box(builder.pass_on(isa, black_box(x), rhs));
            });
            let sums = builder.pass_on(isa, x, rhs);
            assert_eq!(sums, *base_screen.get_or_insert(sums), "{}", isa.name());

            let snapshot_ns = time(&mut || {
                black_box(VerifiedBuilder::snapshot_on(isa, black_box(rhs), &mut kept));
            });
            kept.fill(0.0);
            let sums = VerifiedBuilder::snapshot_on(isa, rhs, &mut kept);
            assert_eq!(kept, rhs, "{}: the snapshot is a copy", isa.name());
            assert_eq!(sums, *base_snapshot.get_or_insert(sums), "{}", isa.name());
            rows.push((isa, [("screen", screen_ns), ("snapshot", snapshot_ns)]));
        }
        let base = rows.iter().find(|row| row.0 == FMA_BASE).map(|row| row.1);
        for (isa, passes) in rows {
            for (k, (pass, ns)) in passes.into_iter().enumerate() {
                let speedup = column(speedup(isa, ns, base.map(|base| base[k].1)));
                println!("{},{},{pass},{ns:.2},{speedup}", cfg.label(), isa.name());
            }
        }
    }
}

/// The solve alone, one thread, per instruction set: `solve_panels_on` over
/// four 1024-row panels (256 KiB, in cache as a worker's run has them), one
/// panel per call (`alone`), two (`two`) or all four in one (`abreast`, what
/// a run gets), best of 15 rounds of 64 passes, uniform cubic (`pttrs`) and
/// graded quintic (`gbtrs`). A pass
/// first refills the panels from the right-hand sides, as a worker's turn
/// does, and that copy is in the figure. Per row of eight lanes: ns and the
/// speed-up over [`FMA_BASE`] alone; every instance must return the
/// baseline instance's checksum either way.
fn sweep_isa_rows() {
    const ROWS: usize = 1024;
    println!("mesh,isa,panels,sweep_ns_per_row,speedup_vs_avx2_alone");
    for cfg in [SplineConfig::ALL[0], SplineConfig::ALL[5]] {
        let builder =
            SplineBuilder::new(cfg.space(ROWS), BuilderVersion::FusedSpmv).expect("factorisation");
        let mut rng = TestRng::seed_from_u64(0x5EE);
        let rhs: Vec<f64> = (0..4 * ROWS * LANE_WIDTH)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let (mut base_sum, mut panels, mut rows) = (None, rhs.clone(), Vec::new());
        for isa in PanelIsa::ALL.into_iter().filter(|isa| isa.is_available()) {
            for (label, per) in [("alone", 1), ("two", 2), ("abreast", 4)] {
                let mut best = Duration::MAX;
                for _ in 0..15 * 64 {
                    let start = Instant::now();
                    panels.clone_from(&rhs);
                    for group in panels.chunks_mut(per * ROWS * LANE_WIDTH) {
                        builder.solve_panels_on(isa, black_box(group));
                    }
                    best = best.min(start.elapsed());
                }
                let ns = best.as_secs_f64() * 1e9 / (4 * ROWS) as f64;
                let sum = panels.iter().step_by(509).sum::<f64>();
                let base_sum: f64 = *base_sum.get_or_insert(sum);
                assert_eq!(sum.to_bits(), base_sum.to_bits(), "{} {label}", isa.name());
                rows.push((isa, label, ns));
            }
        }
        let base = rows
            .iter()
            .find(|row| (row.0, row.1) == (FMA_BASE, "alone"));
        let base_ns = base.map(|row| row.2);
        for (isa, label, ns) in rows {
            let speedup = column(speedup(isa, ns, base_ns));
            println!("{},{},{label},{ns:.2},{speedup}", cfg.label(), isa.name());
        }
    }
}

fn main() {
    if std::env::args().any(|a| a == "--isa") {
        isa_rows();
        transposer_isa_rows();
        screen_isa_rows();
        return sweep_isa_rows();
    }
    let args = parse_positional(std::env::args().skip(1), &[1024, 10_000, 2])
        .unwrap_or_else(|e| usage_exit("[nx] [nv] [iters]", &e));
    // Sweep Nv from 100 to the requested maximum, one point per decade
    // boundary plus midpoints, like the paper's scan of 100..100000.
    let mut sweep = vec![100usize, 300, 1000, 3000, 10_000, 30_000, 100_000];
    sweep.retain(|&v| v <= args.nv);
    println!(
        "=== Fig. 2: 1D batched advection GLUPS on the host CPU (Nx = {}) ===",
        args.nx
    );
    println!("(paper sweeps Nv = 100..100000; pass a larger max Nv to extend)\n");

    println!("backend,config,nv,glups");
    let mut direct_plot = AsciiPlot::new("kokkos-kernels backend: GLUPS vs Nv", 60, 16);
    let mut ginkgo_plot = AsciiPlot::new("ginkgo backend: GLUPS vs Nv", 60, 16);
    let markers = ['3', '4', '5', 'a', 'b', 'c'];

    for (ci, cfg) in SplineConfig::ALL.iter().enumerate() {
        let mut direct_points = Vec::new();
        let mut ginkgo_points = Vec::new();
        for &nv in &sweep {
            let g_direct = measure(
                SplineBackend::direct(cfg.space(args.nx), BuilderVersion::FusedSpmv)
                    .expect("setup"),
                args.nx,
                nv,
                args.iters,
            );
            println!("kokkos-kernels,{},{nv},{g_direct:.5}", cfg.label());
            direct_points.push((nv as f64, g_direct));

            // The iterative backend is markedly slower; cap its batch to
            // keep the default run short (the paper saw the same ordering
            // at every batch size).
            if nv <= 10_000 {
                let g_iter = measure(
                    SplineBackend::iterative(cfg.space(args.nx), IterativeConfig::cpu())
                        .expect("setup"),
                    args.nx,
                    nv,
                    args.iters,
                );
                println!("ginkgo,{},{nv},{g_iter:.5}", cfg.label());
                ginkgo_points.push((nv as f64, g_iter));
            }
        }
        direct_plot.add_series(&cfg.label(), markers[ci], &direct_points);
        ginkgo_plot.add_series(&cfg.label(), markers[ci], &ginkgo_points);
    }

    // The resident step, plain and behind verification (residuals on
    // every lane + the ABFT screen), and the host step — Algorithm 2
    // verbatim, what the sweep above ran — on the uniform cubic space. The
    // two resident rows come from the same rounds on this host, so their
    // ratio is what the verification layer costs the step, whatever the
    // host.
    let cubic = SplineConfig::ALL[0];
    let (nv, steps) = (args.nv.min(1024), args.iters.max(30));
    let space = || cubic.space(args.nx);
    let direct = |version| SplineBackend::direct(space(), version).expect("setup");
    // Plain against verified — residuals on every lane, the ABFT sums on or
    // off. Each pair runs in rounds of its own, and so does the host step
    // with a plain resident step beside it (their ratio is gated too): a
    // third 8 MiB field in a rotation would evict the other two and move
    // the gated ratio.
    let resident_pair = |abft| {
        let verify = VerifyConfig {
            abft,
            ..VerifyConfig::default()
        };
        let verified = SplineBackend::direct_verified(space(), BuilderVersion::FusedSpmv, verify)
            .expect("setup");
        let plain = direct(BuilderVersion::FusedSpmv);
        measure_steps([(plain, false), (verified, false)], nv, steps)
    };
    let [(plain, dispatches), (verified, _)] = resident_pair(true);
    let [(plain_again, _), (residual_only, _)] = resident_pair(false);
    let [(host, host_dispatches), (resident_beside, _)] = measure_steps(
        [
            (direct(BuilderVersion::FusedSpmv), true),
            (direct(BuilderVersion::FusedSpmv), false),
        ],
        nv,
        steps,
    );
    for (label, step) in [
        ("kokkos-kernels-resident", plain),
        ("kokkos-kernels-verified-resident", verified),
        ("kokkos-kernels-verified-noabft-resident", residual_only),
    ] {
        let g = glups(args.nx, nv, step);
        println!("{label},{},{nv},{g:.5}", cubic.label());
    }
    let ns_per_point = |step: Duration| step.as_secs_f64() * 1e9 / (args.nx * nv) as f64;
    println!(
        "host step: {:.2} ns/point, {host_dispatches} dispatch per step",
        ns_per_point(host)
    );
    println!(
        "resident step: evaluator and screen ISA {}, {:.2} ns/point, {dispatches} dispatch per step",
        PanelIsa::detected().name(),
        ns_per_point(plain)
    );
    println!(
        "verification surcharge: {:.2} ns/point ({:.2} with the ABFT sums off)",
        ns_per_point(verified) - ns_per_point(plain),
        ns_per_point(residual_only) - ns_per_point(plain_again)
    );
    println!(
        "host/resident step ratio: {:.3}",
        host.as_secs_f64() / resident_beside.as_secs_f64()
    );
    println!(
        "verified/plain resident step ratio: {:.3}",
        verified.as_secs_f64() / plain.as_secs_f64()
    );
    let builder = SplineBuilder::new(space(), BuilderVersion::FusedSpmv).expect("setup");
    println!(
        "resident transpose share: {:.3}",
        transpose_share(&builder, args.nx, nv)
    );
    println!(
        "tiled/resident step ratio: {:.3}",
        tiled_step_ratio(args.nx, steps)
    );

    println!("\n{}", direct_plot.render());
    println!("{}", ginkgo_plot.render());

    // GPU panels (b, c): the advection step is not modelled end-to-end,
    // but the spline-build phase is — print its modelled GLUPS so the
    // panels' saturation-with-batch shape is visible.
    println!("model: spline-build-only GLUPS on the GPU models (direct backend):");
    println!("device,config,nv,glups");
    let mut gpu_plot = AsciiPlot::new("model: A100/MI250X spline-build GLUPS vs Nv", 60, 14);
    for (device, marker) in [(Device::a100(), 'A'), (Device::mi250x(), 'M')] {
        let cfg = SplineConfig {
            degree: 3,
            uniform: true,
        };
        let blocks = SchurBlocks::new(&cfg.space(args.nx)).expect("factorisation");
        let mut points = Vec::new();
        for &nv in &sweep {
            let p = predict(&device, &blocks, BuilderVersion::FusedSpmv, nv);
            let g = (args.nx as f64) * (nv as f64) * 1e-9 / p.time_s;
            println!("{},{},{nv},{g:.4}", device.name, cfg.label());
            points.push((nv as f64, g));
        }
        gpu_plot.add_series(device.name, marker, &points);
    }
    println!("\n{}", gpu_plot.render());
    println!("expected shape: direct >> iterative at every Nv; GLUPS grows with Nv");
    println!("then saturates (visible in the GPU model, flat on a 1-core host);");
    println!("uniform >= non-uniform; lower degree >= higher degree.");
}
