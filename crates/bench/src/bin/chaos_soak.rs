//! Chaos-soak campaign: seeded randomized fault scenarios, with hard
//! invariants checked on every round. Writes machine-readable
//! `BENCH_chaos.json` and exits non-zero if any invariant is violated —
//! this is a robustness gate, not a performance benchmark.
//!
//! Each seed deterministically generates two legs. The Krylov leg
//! ([`FaultInjector::chaos_round`]) drives the batched Krylov stack:
//! system size, batch width, NaN-poisoned lanes, near-singular
//! perturbation, preconditioner block and chunk width. The SDC leg
//! ([`sdc_round`]) strikes bits in the coefficients a `VerifiedBuilder`
//! step solves, with the ABFT screen on, through the one verify body every
//! verified step runs. Invariants:
//!
//! * **accounted lanes** — every lane ends in exactly one typed outcome;
//! * **determinism** — every round replays bit-for-bit from its seed
//!   (tallies and solution checksum included);
//! * **no poisoned pool** — after the whole campaign the worker pool
//!   still runs a clean dispatch and a clean solve converges;
//! * **SDC containment** — an injected bit flip never becomes a silent
//!   wrong answer: transient strikes are healed by the screen's retry,
//!   persistent ones are recovered by a ladder rung or quarantined and
//!   zeroed, clean rounds never trip (`SdcRound::contained`).
//!
//! Usage: `chaos_soak [--seeds N] [--smoke] [--out PATH]`
//!   --seeds  number of seeds to soak (default 64; fewer than 8 is refused,
//!            and without --smoke fewer than 32 is raised to 32)
//!   --smoke  8 seeds, for scripts/verify.sh and CI PR runs
//!   --out    output JSON path (default BENCH_chaos.json)
//!
//! A malformed argument, or fewer than 8 seeds, exits 2 with a usage line.

use pp_bench::usage_exit;
use pp_iterative::FaultInjector;
use pp_portable::parallel_for;
use pp_splinesolver::verified::sdc_round;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const USAGE: &str = "[--seeds N] [--smoke] [--out PATH]";

/// The fewest seeds a campaign may soak: an empty or token campaign
/// proves nothing, however cleanly it exits.
const MIN_SEEDS: u64 = 8;

fn main() {
    let mut smoke = false;
    let mut seeds: Option<u64> = None;
    let mut out = String::from("BENCH_chaos.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--seeds" => {
                let n = args
                    .next()
                    .unwrap_or_else(|| usage_exit(USAGE, "--seeds needs a count"));
                seeds = Some(n.parse().unwrap_or_else(|_| {
                    usage_exit(
                        USAGE,
                        &format!("--seeds: `{n}` is not a non-negative integer"),
                    )
                }));
            }
            "--out" => {
                out = args
                    .next()
                    .unwrap_or_else(|| usage_exit(USAGE, "--out needs a path"))
            }
            other => usage_exit(USAGE, &format!("unknown argument `{other}`")),
        }
    }
    if let Some(n) = seeds.filter(|&n| n < MIN_SEEDS) {
        usage_exit(
            USAGE,
            &format!("--seeds {n}: a campaign soaks at least {MIN_SEEDS} seeds"),
        );
    }
    let count = match (smoke, seeds) {
        (true, n) => n.unwrap_or(MIN_SEEDS),
        (false, Some(n)) => n.max(32),
        (false, None) => 64,
    };

    println!("=== chaos_soak: {count} seeded fault campaign(s) ===");
    println!(
        "seed,lanes,poisoned,near_singular,elapsed_us,converged,broke,stalled,sdc_mode,\
         sdc_detected,sdc_corrected,sdc_uncorrected,sdc_silent_wrong"
    );

    let started = Instant::now();
    let mut rows = Vec::new();
    let mut violations = Vec::new();
    let (mut sdc_detected, mut sdc_corrected, mut sdc_uncorrected, mut sdc_silent_wrong) =
        (0usize, 0usize, 0usize, 0usize);
    for seed in 0..count {
        let r = FaultInjector::chaos_round(seed);
        let sdc = sdc_round(seed);
        sdc_detected += sdc.detected;
        sdc_corrected += sdc.corrected;
        sdc_uncorrected += sdc.uncorrected;
        sdc_silent_wrong += sdc.silent_wrong;
        if !sdc.contained() {
            violations.push(format!(
                "seed {seed}: sdc containment — mode {:?}, struck {:?}: {} detected, \
                 {} corrected, {} uncorrected, {} SILENT WRONG ANSWER(S); {}",
                sdc.mode,
                sdc.struck,
                sdc.detected,
                sdc.corrected,
                sdc.uncorrected,
                sdc.silent_wrong,
                sdc.report
            ));
        }
        if !r.tallies_consistent() {
            violations.push(format!(
                "seed {seed}: tally mismatch — {}+{}+{} != {} lanes",
                r.converged, r.broke, r.stalled, r.lanes
            ));
        }
        let replay = FaultInjector::chaos_round(seed);
        if replay.fingerprint() != r.fingerprint() {
            violations.push(format!(
                "seed {seed}: nondeterministic replay — {:?} vs {:?}",
                r.fingerprint(),
                replay.fingerprint()
            ));
        }
        println!(
            "{seed},{},{},{},{},{},{},{},{:?},{},{},{},{}",
            r.lanes,
            r.poisoned.len(),
            r.near_singular,
            r.elapsed.as_micros(),
            r.converged,
            r.broke,
            r.stalled,
            sdc.mode,
            sdc.detected,
            sdc.corrected,
            sdc.uncorrected,
            sdc.silent_wrong
        );
        rows.push((r, sdc));
    }
    let campaign_elapsed = started.elapsed();

    // Pool-health probe: the campaign must leave the worker pool usable.
    let hits = AtomicUsize::new(0);
    parallel_for(1024, |_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    if hits.load(Ordering::Relaxed) != 1024 {
        violations.push(format!(
            "poisoned pool — post-campaign dispatch visited {}/1024 lanes",
            hits.load(Ordering::Relaxed)
        ));
    }

    println!(
        "\ncampaign: {count} seed(s) in {campaign_elapsed:?}; sdc: {sdc_detected} detected / \
         {sdc_corrected} corrected / {sdc_uncorrected} uncorrected / \
         {sdc_silent_wrong} silent-wrong"
    );

    // Hand-rolled JSON (the workspace is hermetic: no serde).
    let mut j = String::new();
    j.push_str("{\n  \"bench\": \"chaos_soak\",\n");
    let _ = writeln!(j, "  \"schema_version\": {},", pp_bench::SCHEMA_VERSION);
    let _ = writeln!(j, "  \"smoke\": {smoke},");
    let _ = writeln!(j, "  \"seeds\": {count},");
    let _ = writeln!(j, "  \"elapsed_ms\": {},", campaign_elapsed.as_millis());
    let _ = writeln!(
        j,
        "  \"sdc\": {{\"detected\": {sdc_detected}, \"corrected\": {sdc_corrected}, \
         \"uncorrected\": {sdc_uncorrected}, \"silent_wrong\": {sdc_silent_wrong}}},"
    );
    let _ = writeln!(j, "  \"violations\": {},", violations.len());
    j.push_str("  \"rounds\": [\n");
    for (k, (r, sdc)) in rows.iter().enumerate() {
        let _ = write!(
            j,
            "    {{\"seed\": {}, \"lanes\": {}, \"poisoned\": {}, \"near_singular\": {}, \
             \"elapsed_us\": {}, \"converged\": {}, \"broke\": {}, \"stalled\": {}, \
             \"sdc_mode\": \"{:?}\", \"sdc_detected\": {}, \
             \"sdc_corrected\": {}, \"sdc_uncorrected\": {}, \"sdc_silent_wrong\": {}, \
             \"checksum\": \"{:#x}\"}}",
            r.seed,
            r.lanes,
            r.poisoned.len(),
            r.near_singular,
            r.elapsed.as_micros(),
            r.converged,
            r.broke,
            r.stalled,
            sdc.mode,
            sdc.detected,
            sdc.corrected,
            sdc.uncorrected,
            sdc.silent_wrong,
            r.checksum
        );
        j.push_str(if k + 1 < rows.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ]\n}\n");
    std::fs::write(&out, &j).expect("write JSON");
    println!("wrote {out}");

    if !violations.is_empty() {
        eprintln!("\nchaos_soak: {} invariant violation(s):", violations.len());
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
    println!("all invariants held across {count} seed(s)");
}
