#!/usr/bin/env bash
# Kill matrix: does each contract have a test that bites, and which tests
# bite the same faults? Every mutant in scripts/mutants.list is a named
# one-line `perl -pi` edit that breaks one step of one contract. The script
# copies the checkout (sources only, no `target/`, no `.git`) into a
# temporary directory, applies one mutant at a time there, runs
# `cargo test --workspace --no-fail-fast -q` and restores the file. A
# mutant is
#
#   killed       a test fails with it applied (what we want); every
#                failing test is printed beside it, as
#                `package[/target]::test`;
#   survived     the suite still passes: no test pins that step;
#   no build     the mutated workspace does not compile, which shows
#                nothing: rewrite the mutant;
#   not applied  its pattern no longer matches the source (the code moved:
#                update the mutant; scripts/verify.sh catches this first);
#   timed out    the suite ran past 20 minutes: not a kill.
#
#   scripts/mutants.sh [checkout]
#
# `checkout` defaults to the one holding this script; it is never modified.
# The unmutated suite runs first and must pass, so a kill means the mutant's
# fault. Exits 0 only when every mutant is killed. Takes one clean debug
# build of the workspace plus one incremental rebuild and suite run per
# mutant: about 32 minutes for 32 mutants on a 2-vCPU x86-64 host.
set -euo pipefail
# shellcheck source=scripts/mutants_lib.sh
source "$(dirname "$0")/mutants_lib.sh"
src=$(cd "${1:-$(dirname "$0")/..}" && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT

tar -C "$src" --exclude=./.git --exclude=./target --exclude=./benchmark/target \
    --exclude=./.bench_build -cf - . | tar -C "$work" -xf -
export CARGO_TARGET_DIR="$work/target"

suite() {
    (cd "$work" && timeout 1200 cargo test --workspace --no-fail-fast -q < /dev/null > "$work/suite.log" 2>&1)
}

# Every test the last suite run failed, comma-separated. A failing test
# binary prints a `---- <test> stdout ----` header per failed test, then
# cargo names the binary in `error: test failed, to rerun pass `-p <pkg>
# [--lib | --test <name> | --doc]``; a binary that died without naming a
# test is printed as `<pkg>[/target] (crashed)`.
killers() {
    awk '
        /^---- .* stdout ----$/ {
            name = $0
            sub(/^---- /, "", name)
            sub(/ stdout ----$/, "", name)
            pending[++n] = name
            next
        }
        /^error: test failed, to rerun pass `/ {
            target = $0
            sub(/.*to rerun pass `/, "", target)
            sub(/`.*/, "", target)
            split(target, w, " ")
            label = w[2]
            if (w[3] == "--doc") label = label "/doc"
            else if (w[3] != "--lib") label = label "/" w[4]
            if (n == 0) out[++m] = label " (crashed)"
            for (i = 1; i <= n; i++) out[++m] = label "::" pending[i]
            n = 0
        }
        END { for (i = 1; i <= m; i++) printf "%s%s", (i > 1 ? ", " : ""), out[i] }
    ' "$work/suite.log"
}

echo "==> unmutated suite"
if ! suite; then
    tail -n 40 "$work/suite.log"
    echo "mutants: the unmutated suite fails; nothing to measure" >&2
    exit 2
fi

# One mutant of the list: apply it in the copy, run the suite, restore.
run_mutant() {
    local name=$1 file=$2 expr=$3 status=0 tests
    total=$((total + 1))
    if ! mutate "$work/$file" "$expr" "$work/mutant"; then
        echo "not applied  $name"
        return 0
    fi
    cp "$work/$file" "$work/mutant.orig"
    cp "$work/mutant" "$work/$file"
    suite || status=$?
    if [ "$status" -eq 0 ]; then
        echo "survived     $name"
    elif [ "$status" -eq 124 ]; then
        echo "timed out    $name"
    elif grep -q '^error: could not compile' "$work/suite.log"; then
        echo "no build     $name"
    else
        tests=$(killers)
        echo "killed       $name ($(echo "$tests" | awk -F', ' '{ print NF }')): $tests"
        killed=$((killed + 1))
    fi
    cp "$work/mutant.orig" "$work/$file"
}

total=0
killed=0
for_each_mutant "$work/scripts/mutants.list" run_mutant

echo "mutants: $total, killed $killed"
test "$killed" -eq "$total"
