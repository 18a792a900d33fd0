#!/usr/bin/env bash
# Tier-1 verification: build, full workspace test suite, and lint-clean
# clippy. CI and pre-merge both run exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

# The A/B driver is not run here (it needs two checkouts and minutes of a
# quiet host), nor the line census, the timing gates, the paper-scale
# capture or the mutation check (a suite run per mutant; nightly CI runs
# it); each must at least parse, and lint clean where the linter is.
echo "==> scripts/{ab,loc,check_bench,capture_results,mutants,mutants_lib}.sh: bash -n, shellcheck if installed"
for script in scripts/ab.sh scripts/loc.sh scripts/check_bench.sh scripts/capture_results.sh scripts/mutants.sh scripts/mutants_lib.sh; do
    bash -n "$script"
    if command -v shellcheck > /dev/null; then
        shellcheck "$script"
    fi
done

# Every mutant of the kill matrix must still change its file, so a moved
# line fails here, not in the nightly run. No build: perl into a copy, cmp.
echo "==> scripts/mutants.list: every mutant still changes its file"
# shellcheck source=scripts/mutants_lib.sh
source scripts/mutants_lib.sh
mutant_copy=$(mktemp)
still_applies() {
    if ! mutate "$2" "$3" "$mutant_copy"; then
        rm -f "$mutant_copy"
        echo "mutant not applied (its line moved): $1" >&2
        exit 1
    fi
}
for_each_mutant scripts/mutants.list still_applies
rm -f "$mutant_copy"

echo "==> cargo build --release"
cargo build --release

# Debug profile on purpose: keeps debug_assert! contracts (e.g. the
# solve_lane length preconditions) exercised by the suite. The suite
# includes crates/bench/tests/artefacts.rs: it regenerates the results/
# files that measure no time (fig1_sparsity 14 1000, table1_matrix_types
# 1000, table2_devices, table4_iterations 1000 8) with reproduce_all and
# compares each with its committed copy byte for byte, so Table IV's
# iteration counts are gated on every run.
echo "==> cargo test --workspace"
cargo test --workspace -q

# Every PP_* variable the stack reads is in README's knob table, and the
# table lists nothing the stack does not read.
echo "==> PP_* knob census (string literals under crates/*/src == README knob table)"
diff <(grep -rhoE '"PP_[A-Z_]+"' crates/*/src | tr -d '"' | grep -v '^PP_TEST_' | sort -u) \
    <(grep -oE '^\| `PP_[A-Z_]+`' README.md | grep -oE 'PP_[A-Z_]+' | sort -u)

# Worker budget of the chaos smoke below: a real pool even on single-core
# CI (>= 2), never more threads than a small runner has cores (<= 4).
cores=$(nproc)
POOL_THREADS=$((cores < 2 ? 2 : cores > 4 ? 4 : cores))
mkdir -p target

# Smoke-run the chaos-soak campaign: seeded fault scenarios (NaN lanes,
# near-singular systems, bit flips struck into the verified solve's
# screen). The binary exits non-zero if any invariant (every lane
# accounted for, seeded determinism, no silent-wrong answer, healthy
# pool) is violated. The full >= 32-seed soak runs in the nightly CI job.
echo "==> chaos_soak smoke (determinism, SDC containment, pool health)"
PP_NUM_THREADS=$POOL_THREADS cargo run --release -q -p pp-bench --bin chaos_soak -- \
    --smoke --out target/BENCH_chaos_smoke.json
test -s target/BENCH_chaos_smoke.json

# The end-to-end step benchmark (`benchmark/`, frozen by BENCHMARK.json)
# at toy size: all six workloads, untraced and traced. Deterministic, not
# a timing gate — the run fails when the ledger's replay stops matching
# the real step bit for bit or an accuracy tolerance breaks, and it fails
# to build when a library name it calls changes. The crate is not a
# workspace member, hence the manifest path.
echo "==> stepbench smoke (ledger replay == step, accuracy tolerances)"
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke

# The binary holds the instances that run: the baseline instance of the
# lane walk and of the solve's sweep is their one-lane body, not a third
# copy of the wide bodies that a host with AVX2 never runs (DESIGN.md,
# "Instruction sets"). stepbench's text read 2 136 433 bytes with those
# copies and 1 705 809 without them (x86-64, the pinned toolchain). The
# ceiling sits between the two, so a reinstated copy (+~450 KB) fails here
# and a toolchain's drift does not.
STEPBENCH_TEXT_CEILING=1850000
text=$(size benchmark/target/release/stepbench | awk 'NR == 2 { print $1 }')
echo "==> stepbench text: $text bytes (ceiling $STEPBENCH_TEXT_CEILING)"
test "$text" -le "$STEPBENCH_TEXT_CEILING"

# The 2-D example asserts its own accuracy (one full solid-body turn
# returns the blob to within 0.05): run it at its defaults, 48 steps.
echo "==> poloidal_rotation example (2-D tensor build + rotation accuracy)"
cargo run --release -q --example poloidal_rotation > /dev/null

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "verify: all checks passed"
