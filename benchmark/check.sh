#!/usr/bin/env bash
# Lint, test and smoke-run the benchmark crate. The root verify.sh and CI
# only see workspace members, and this crate is deliberately not one, so
# this is the crate's own gate. Run from anywhere; needs no network.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=(--manifest-path benchmark/Cargo.toml)

cargo fmt "${manifest[@]}" -- --check
cargo clippy --offline "${manifest[@]}" --release --all-targets -- -D warnings
cargo test --offline "${manifest[@]}" --release
# Every workload at toy size, untraced and traced, ledger check included.
cargo run --offline "${manifest[@]}" --release --quiet -- --smoke
echo "benchmark/check.sh: ok"
