#!/usr/bin/env bash
# Bench-regression smoke gate: gate the same-run ratios fig2_glups prints
# (no committed baseline: both sides of each ratio come from one run), run
# the seeded chaos campaign at smoke size, and check the committed
# campaign's record. This is a separate, non-required CI job — timing on
# shared runners is noisy, so a failure here is a prompt to look, not an
# automatic merge block.
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p target

# The advection step is one pool region, on a resident slab and on a host
# field alike (DESIGN.md §14.3), and verification rides it (§7.1): with
# residuals on every lane and the ABFT screen on, the step may cost at most
# 1.48x the plain one at nx = nv = 1024. Both rows come from the same run,
# so the ratio needs no baseline; the dispatch counts are exact. The ratio
# is a surcharge over a denominator, and the ceiling has moved with both:
# 1.65 when the screens were serial sweeps over the batch, ~1.2 after PR 15,
# 1.36-1.41 after PR 16 shrank the plain step, 1.47-1.64 (ceiling 1.8) since
# PR 19 took the plain step from 4.2-5.1 to 2.6-3.7 ns/point with the
# surcharge, which fig2_glups prints beside the ratio, unchanged at 1.2-1.9
# ns/point -- and 1.17-1.26 (eight runs, EXPERIMENTS.md) since PR 22 compiled
# the screen's pass at the host's width and dropped the per-block
# displacement scan: surcharge 0.4-0.8 ns/point (parent, same harness:
# 1.4-2.1). Ceiling = worst reading + 10 %, rounded up. A verify-side
# regression shows as a higher surcharge; judge it by that line, not by the
# ratio alone. On a host without AVX2 the pass runs at the baseline width
# and the ratio reads as it did at the parent: raise the ceiling there, do
# not read it as a regression. 1.28-1.32 (four runs; parent 1.21-1.24 in the
# same session) since PR 24 took a third off the solve of both steps --
# reciprocals at factor time, the carried row, four panels abreast: the plain
# step fell 0.3-0.4 ns/point, the surcharge stayed at 0.6-0.8, so the ceiling
# stays 1.4 with 6 % of margin where the rule above would give 1.45.
# 1.24-1.34 (twenty runs, median 1.30, alternating with the parent's
# 1.16-1.32, median 1.27) since the closed-form uniform weights, the
# de-interleave's tiles and the fixed-width egress into line-aligned slab
# panels took a seventh off the plain step. The surcharge did not move: 0.38-
# 0.57 ns/point, median 0.47, against the parent's 0.33-0.71, median 0.46, in
# the same runs; its spread is the host's (the parent's plain step swung
# 1.67-2.20 ns/point in them). Worst + 10 % is 1.478, rounded up to 1.48.
# A later, faster plain step pushed the ratio to 1.46-1.72 and the gate stayed
# red until the screen took the matrix's band shape and the right-hand sides'
# sums moved into the snapshot copy. Ten alternating readings on a
# loaded 2-vCPU AVX-512 host: 1.28-1.47 in eight (median of all ten 1.44,
# surcharge 0.67-1.14 ns/point), 1.77 and 1.87 in two where the host was
# busiest (surcharge 1.8-2.2); the parent read 1.48-1.99, median 1.61, in
# the same minutes. Ten more on a quieter host: 1.38-1.47, median 1.40,
# surcharge 0.71-0.97 (parent 1.55-1.60). The ceiling stays 1.48.
VERIFIED_STEP_CEILING=1.48
# Residency's acceptance criterion: the pack/unpack pair amortized across
# a resident chain must stay a sliver of its wall clock. fig2_glups times
# pack, thirty Serial solve_resident calls and unpack at nx = nv = 1024
# with Instant reads between them and prints (pack + unpack) / the whole.
# The ceiling follows the denominator: 0.15 while a resident solve was
# 1.69-1.75 ms (the share read 0.108-0.131), 0.25 (worst + 25 %) once the
# solve fell to 1.01 ms and the share read 0.188-0.199. Those readings
# came from spans in a separately instrumented build; this Instant ratio
# reads 0.09-0.10 on the same kind of host, and 0.13-0.14 once the thirty
# solves ran on the step's faster run body (EXPERIMENTS.md).
TRANSPOSE_SHARE_CEILING=0.25
# The Strang step's v-advection runs on the slab's 8 x 8 tiles where they
# lie: each block's tiles transposed into the worker's solve panel, the
# results walked straight back into its tile rows. fig2_glups times the
# step's solve-and-evaluate call (SplineBuilder::solve_then with the
# advection's evaluate continuation, Parallel) over the TiledField of a
# 1024^2 batch and over the same batch's panels, taking turns, and prints
# the ratio of the medians; both come from the same run, so it needs no
# baseline. Through a per-thread staging copy (gather, then scatter) the
# same harness read 1.47-1.58 (five runs); in place it read 0.91-1.13 in
# 25 runs on a 2-vCPU AVX-512 host. Ceiling = worst reading + 10 %,
# rounded up. A rise means the tiled path started paying for motion the
# panels do not: look for a copy or a strided pass. One reading a run
# later spread 1.036-1.309 in twelve runs with no regression behind it, so
# fig2_glups now takes seven, before its Fig. 2 sweep and after each of the
# sweep's six configurations, and the gate reads their median. Ten runs of
# that median, alternating with the parent's single reading on a 2-vCPU
# AVX-512 host: 1.328 1.295 1.308 1.125 1.319 1.315 1.311 1.267 1.288 1.305
# (three earlier runs: 1.327 1.312 1.325); the parent read 1.267 1.410
# 1.224 1.330 1.311 1.314 1.315 1.279 1.286 1.267. The median spreads
# 1.27-1.33 but for one run, against 1.22-1.41 for one reading; on that
# host the step sat above the ceiling at both commits (the ceiling was set
# where it read 0.91-1.13), so a failure here is a prompt to compare with
# the parent in the same minutes, not a verdict.
TILED_STEP_CEILING=1.25
# The host step (Algorithm 2 on the (Nv, Nx) matrix itself: each block of
# eight rows brought into its panel by the solve's forward sweep, the lane
# walk writing straight back into the rows) against the resident step on a
# slab of the same lanes: the host step must not fall behind the resident
# one again while both entry points exist. fig2_glups times the two in
# turns, step after step in the same rounds, and prints the ratio of their
# medians. Taken from two separately timed step lines instead, ten readings
# on the same host spread 0.434-1.177. In turns, twelve readings on a
# loaded 2-vCPU AVX-512 host: 0.969 0.936 0.947 0.961 0.955 0.946 0.934
# 0.962 0.982 0.913 0.929 0.965. Ceiling = worst reading + 10 %, rounded up.
HOST_STEP_CEILING=1.09
echo "==> fig2_glups 1024 1024: the resident step, plain and verified, the host step, the resident chain, the tiled step"
resident=$(cargo run --release -q -p pp-bench --bin fig2_glups -- 1024 1024 |
    grep -E '^(host step:|resident step:|host/resident step ratio:|verification surcharge:|verified/plain resident step ratio:|resident transpose share:|tiled/resident step ratio( readings)?:)')
echo "$resident"
echo "$resident" | grep -q '^resident step: .* 1 dispatch per step$'
echo "$resident" | grep -q '^host step: .* 1 dispatch per step$'
ratio=$(echo "$resident" | awk '/^verified\/plain resident step ratio:/ { print $NF }')
test -n "$ratio"
echo "==> verified / plain resident step: $ratio (ceiling $VERIFIED_STEP_CEILING)"
awk -v r="$ratio" -v c="$VERIFIED_STEP_CEILING" 'BEGIN { exit !(r <= c) }'
share=$(echo "$resident" | awk '/^resident transpose share:/ { print $NF }')
test -n "$share"
echo "==> resident transpose share: $share (ceiling $TRANSPOSE_SHARE_CEILING)"
awk -v s="$share" -v c="$TRANSPOSE_SHARE_CEILING" 'BEGIN { exit !(s < c) }'
host_ratio=$(echo "$resident" | awk '/^host\/resident step ratio:/ { print $NF }')
test -n "$host_ratio"
echo "==> host / resident step: $host_ratio (ceiling $HOST_STEP_CEILING)"
awk -v r="$host_ratio" -v c="$HOST_STEP_CEILING" 'BEGIN { exit !(r <= c) }'
tiled=$(echo "$resident" | awk '/^tiled\/resident step ratio:/ { print $NF }')
test -n "$tiled"
echo "==> tiled / resident step, median of seven: $tiled (ceiling $TILED_STEP_CEILING)"
awk -v r="$tiled" -v c="$TILED_STEP_CEILING" 'BEGIN { exit !(r <= c) }'

# The chaos soak is deterministic (seeded), so unlike the timing gates
# above this one is exact: chaos_soak exits non-zero on any invariant
# violation or silent-wrong SDC round, and refuses a campaign of fewer
# than 8 seeds.
echo "==> chaos_soak --smoke (seeded fault campaign with SDC injection)"
cargo run --release -q -p pp-bench --bin chaos_soak -- \
    --smoke --out target/BENCH_chaos_smoke.json

# The committed 64-seed campaign must itself be clean: no invariant
# violation, no silent-wrong SDC round. (That its rounds strike at all —
# a healed transient, a contained persistent strike — is tests/chaos.rs's.)
echo "==> committed BENCH_chaos.json: zero violations, zero silent-wrong"
grep -q '"violations": 0,' BENCH_chaos.json
grep -q '"silent_wrong": 0}' BENCH_chaos.json

# ... and must be what the campaign computes today: every round is a pure
# function of its seed, so a fresh 64-seed campaign reproduces the committed
# per-round checksums exactly. A difference means the Krylov arithmetic or
# the scenario draws moved: regenerate the file
# (`PP_NUM_THREADS=2 chaos_soak --seeds 64`) and say why in CHANGES.md.
echo "==> chaos_soak --seeds 64: per-round checksums against BENCH_chaos.json"
PP_NUM_THREADS=2 cargo run --release -q -p pp-bench --bin chaos_soak -- \
    --seeds 64 --out target/BENCH_chaos_fresh.json
checksums() { grep -o '"seed": [0-9]*,\|"checksum": "[^"]*"' "$1"; }
if ! diff <(checksums BENCH_chaos.json) <(checksums target/BENCH_chaos_fresh.json); then
    echo "FAIL: a fresh campaign's checksums differ from BENCH_chaos.json" >&2
    exit 1
fi

# Every chaos document — committed and fresh smoke run — must carry the
# current schema_version stamp: the loop names the file, before anyone
# reads a number out of one.
SCHEMA_VERSION=1
echo "==> schema_version stamp check (expected $SCHEMA_VERSION)"
for f in BENCH_chaos.json target/BENCH_chaos_smoke.json; do
    if ! grep -q "\"schema_version\": $SCHEMA_VERSION" "$f"; then
        echo "FAIL: $f is missing \"schema_version\": $SCHEMA_VERSION" >&2
        exit 1
    fi
done

echo "check_bench: all gates passed"
