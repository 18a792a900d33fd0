#!/usr/bin/env bash
# Mutation check: does each contract of the repair path have a test that
# bites? Every mutant below is a one-line edit that breaks one step of the
# verified direct solve's screen → refine → pbtrs → gbtrs → getrs →
# quarantine ladder. The script copies the checkout (sources only, no
# `target/`, no `.git`) into a temporary directory, applies one mutant at a
# time there with `perl -pi`, runs `cargo test --workspace -q` and restores
# the file. A mutant is
#
#   killed       a test fails with it applied (what we want); the first
#                failing test is printed beside it;
#   survived     the suite still passes: no test pins that step;
#   no build     the mutated workspace does not compile, which shows
#                nothing: rewrite the mutant;
#   not applied  its pattern no longer matches the source (the code moved:
#                update the mutant).
#
#   scripts/mutants.sh [checkout]
#
# `checkout` defaults to the one holding this script; it is never modified.
# The unmutated suite runs first and must pass, so a kill means the mutant's
# fault. Exits 0 only when every mutant is killed. Takes one clean debug
# build of the workspace plus one incremental rebuild and suite run per
# mutant: about two minutes on a 2-vCPU x86-64 host.
set -euo pipefail
src=$(cd "${1:-$(dirname "$0")/..}" && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT

tar -C "$src" --exclude=./.git --exclude=./target --exclude=./benchmark/target \
    --exclude=./.bench_build -cf - . | tar -C "$work" -xf -
export CARGO_TARGET_DIR="$work/target"

suite() {
    (cd "$work" && cargo test --workspace -q > "$work/suite.log" 2>&1)
}

echo "==> unmutated suite"
if ! suite; then
    tail -n 40 "$work/suite.log"
    echo "mutants: the unmutated suite fails; nothing to measure" >&2
    exit 2
fi

verified=crates/core/src/verified.rs
# name | file | perl substitution (applied to every line of the file)
mutants=(
    "refinement skipped|$verified|s/^(\s*)if !probed \{/\$1if false && !probed {/"
    "RESIDUAL_TOL 1e-4|$verified|s/^const RESIDUAL_TOL: f64 = 1e-10;/const RESIDUAL_TOL: f64 = 1e-4;/"
    "pbtrs dropped from ladder()|$verified|s/^\s*rungs\.push\(FallbackRung::Pbtrs\);\s*\$//"
    "getrs dropped from ladder()|$verified|s/^\s*rungs\.push\(FallbackRung::Getrs\);\s*\$//"
    "ABFT retry not written back|$verified|s/^(\s*)\*x = \*y;/\$1let _ = (x, y);/"
    "quarantined lane not zeroed|$verified|s/^\s*land\(b, lane, &zeros\(\)\);\s*\$//"
)

killed=0
for mutant in "${mutants[@]}"; do
    IFS='|' read -r name file expr <<< "$mutant"
    cp "$work/$file" "$work/mutant.orig"
    perl -pi -e "$expr" "$work/$file"
    if cmp -s "$work/$file" "$work/mutant.orig"; then
        echo "not applied  $name"
        continue
    fi
    if suite; then
        echo "survived     $name"
    elif grep -q '^error: could not compile' "$work/suite.log"; then
        echo "no build     $name"
    else
        failed=$(grep -m1 -oE '^[^ ]+ --- FAILED' "$work/suite.log" || true)
        echo "killed       $name (${failed% --- FAILED})"
        killed=$((killed + 1))
    fi
    cp "$work/mutant.orig" "$work/$file"
done

echo "mutants: ${#mutants[@]}, killed $killed"
test "$killed" -eq "${#mutants[@]}"
