#!/usr/bin/env bash
# Bench-regression smoke gate: run the two JSON-emitting benches at
# smoke sizes and compare against the committed full-size baselines
# with generous tolerances (see crates/bench/src/bin/bench_gate.rs for
# exactly what is and is not compared), and gate the same-run ratios
# fig2_glups prints. This is a separate, non-required
# CI job — timing on shared runners is noisy, so a failure here is a
# prompt to look, not an automatic merge block.
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p target

# A real worker pool even on single-core runners (>= 2: without one
# every dispatch is inline and there is no latency to gate), never more
# threads than a small runner has cores (<= 4): an oversubscribed pool
# measures the scheduler, not the dispatch.
cores=$(nproc)
POOL_THREADS=$((cores < 2 ? 2 : cores > 4 ? 4 : cores))

echo "==> dispatch_overhead --smoke"
PP_NUM_THREADS=$POOL_THREADS cargo run --release -q -p pp-bench --bin dispatch_overhead -- \
    --smoke --out target/BENCH_dispatch_smoke.json

echo "==> bench_gate: dispatch latency vs committed BENCH_dispatch.json"
cargo run --release -q -p pp-bench --bin bench_gate -- \
    --kind dispatch \
    --baseline BENCH_dispatch.json \
    --candidate target/BENCH_dispatch_smoke.json

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
VERIFIED_STEP_CEILING=1.48
# Residency's acceptance criterion: the pack/unpack pair amortized across
# a resident chain must stay a sliver of its wall clock. fig2_glups times
# pack, thirty Serial solve_resident calls and unpack at nx = nv = 1024
# with Instant reads between them and prints (pack + unpack) / the whole.
# The ceiling follows the denominator: 0.15 while a resident solve was
# 1.69-1.75 ms (the share read 0.108-0.131), 0.25 (worst + 25 %) once the
# solve fell to 1.01 ms and the share read 0.188-0.199. Those readings
# came from spans in a separately instrumented build; this Instant ratio
# reads 0.09-0.10 on the same kind of host (EXPERIMENTS.md).
TRANSPOSE_SHARE_CEILING=0.25
echo "==> fig2_glups 1024 1024: the resident step, plain and verified, the host step, the resident chain"
resident=$(cargo run --release -q -p pp-bench --bin fig2_glups -- 1024 1024 |
    grep -E '^(host step:|resident step:|verification surcharge:|verified/plain resident step ratio:|resident transpose share:)')
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

# The chaos soak is deterministic (seeded), so unlike the timing gates
# above this one is exact: any invariant violation or silent-wrong SDC
# round fails the script outright.
echo "==> chaos_soak --smoke (seeded fault campaign with SDC injection)"
cargo run --release -q -p pp-bench --bin chaos_soak -- \
    --smoke --out target/BENCH_chaos_smoke.json

echo "==> bench_gate: fault containment vs committed BENCH_chaos.json"
cargo run --release -q -p pp-bench --bin bench_gate -- \
    --kind chaos \
    --baseline BENCH_chaos.json \
    --candidate target/BENCH_chaos_smoke.json

# Every emitted document — committed baseline and fresh smoke run — must
# carry the current schema_version stamp. bench_gate already fails by
# name on skew for the documents it compares; this loop says the same
# with the file name, before anyone reads a number out of one.
SCHEMA_VERSION=1
echo "==> schema_version stamp check (expected $SCHEMA_VERSION)"
for f in BENCH_dispatch.json BENCH_chaos.json \
         target/BENCH_dispatch_smoke.json target/BENCH_chaos_smoke.json; do
    if ! grep -q "\"schema_version\": $SCHEMA_VERSION" "$f"; then
        echo "FAIL: $f is missing \"schema_version\": $SCHEMA_VERSION" >&2
        exit 1
    fi
done

echo "check_bench: all gates passed"
