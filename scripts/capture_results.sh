#!/usr/bin/env bash
# Regenerate every table/figure at paper scale and store the outputs under
# results/. Used to refresh EXPERIMENTS.md; runs in ~20-30 minutes on one
# core (most of it the cache model behind section4_traffic and Table III,
# and the Fig. 2 sweep).
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

# `reproduce_all <stem> [nx] [nv] [iters]` prints results/<stem>.txt.
run() {
    local name="$1"; shift
    echo "=== $name ==="
    cargo run --release -q -p pp-bench --bin reproduce_all -- "$name" "$@" | tee "results/$name.txt"
}

run fig1_sparsity 14 1000
run table1_matrix_types 1000
run table2_devices
run section4_traffic 1000 100000
run table3_optimization 1000 100000 3
run table4_iterations 1000 8
run table5_portability 1000 100000 3
run ablation_chunks 1000 2048
run ablation_warmstart 500 32 8
run ablation_layout 1000 20000 3
echo "=== fig2_glups ==="
cargo run --release -q -p pp-bench --bin fig2_glups -- 1024 100000 2 | tee results/fig2_glups.txt
echo "=== reproduce_all ==="
cargo run --release -q -p pp-bench --bin reproduce_all | tee results/reproduce_all.txt

echo "all results captured under results/"
