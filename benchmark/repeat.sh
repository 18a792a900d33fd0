#!/usr/bin/env bash
# Repeatability: run the full suite twice on the same code and fail if any
# (end-to-end metric, workload) pair differs by more than the metric's
# bound, or if accuracy_err, failed_ops, output_fnv64 or
# portable.dispatches_per_step differ at all. The two sets are left in
# benchmark/out/set1.json and set2.json. Takes about fifteen minutes.
#
#   benchmark/repeat.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --offline --manifest-path benchmark/Cargo.toml --release --quiet -- \
    --repeat --seed "${1:-20240924}"
