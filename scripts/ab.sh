#!/usr/bin/env bash
# A/B of stepbench workloads between two checkouts of this repo: the
# table every perf PR puts in EXPERIMENTS.md (choosing-metrics §8).
#
#   scripts/ab.sh <parent-checkout> <change-checkout> <workload>|all [pairs=10] [seed=7]
#
# Builds `stepbench` once in each checkout (benchmark/target, as
# `cargo run --manifest-path benchmark/Cargo.toml` does), then runs
# `pairs` untraced pairs of BENCHMARK.json's run length, alternating
# which side goes first. Prints every run in pair order and, per
# end-to-end metric, each side's median and quartiles, the pairs the
# change won (ties count for neither), the ratio of the medians with
# its base, and whether the medians lie further apart than the parent's
# own quartiles do ("outside") or not ("inside": not resolved).
#
# `all` runs every workload BENCHMARK.json declares, one after another,
# and prints one table with a row per workload and metric: the claimed
# row and the must-not-move rows of a perf PR from one command.
#
# `ab.sh <checkout> <checkout> <workload>` — one checkout against itself —
# is the null run: its ratio's distance from 1 is the spread this host
# cannot resolve (0.996 on adv_resident_u3 when this was written).
# Run nothing else on the host meanwhile.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,24p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workloads=$3
pairs=${4:-10}
seed=${5:-7}

# The benchmark's own declaration: run length, workloads, metric names,
# directions.
decl=$change/BENCHMARK.json
seconds=$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' "$decl")
metrics=$(awk '
    /"end_to_end"/ { on = 1 }
    on && /\]/ { exit }
    on && /"name"/ { split($0, q, "\""); name = q[4] }
    on && /"better"/ { split($0, q, "\""); print name, q[4] }
' "$decl")
if [ "$workloads" = all ]; then
    workloads=$(awk '
        /"workloads"/ { on = 1 }
        on && /\]/ { exit }
        on && /"name"/ { split($0, q, "\""); print q[4] }
    ' "$decl")
fi
test -n "$seconds" && test -n "$metrics" && test -n "$workloads"

for dir in "$parent" "$change"; do
    echo "==> building stepbench in $dir" >&2
    cargo build --release --offline --quiet \
        --manifest-path "$dir/benchmark/Cargo.toml" --target-dir "$dir/benchmark/target"
done

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# One run: appends "<workload> <pair> <side> <failed> <name> <value> ..."
# to $runs.
run() {
    local side=$1 dir=$2 pair=$3 line
    line=$(cd "$dir" && benchmark/target/release/stepbench \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1) || true
    echo "$line" | awk -v head="$workload $pair $side" '
        {
            if (!match($0, /"failed":[0-9]+/)) { print "no result line: " $0 > "/dev/stderr"; exit 1 }
            out = head " " substr($0, RSTART + 9, RLENGTH - 9)
            rest = $0
            while (match(rest, /"[a-z_0-9.]+":\{"value":[^,}]+/)) {
                item = substr(rest, RSTART, RLENGTH)
                rest = substr(rest, RSTART + RLENGTH)
                name = item; sub(/^"/, "", name); sub(/".*/, "", name)
                sub(/.*"value":/, "", item)
                out = out " " name " " item
            }
            print out
        }' >> "$runs"
    tail -n 1 "$runs" >&2
}

for workload in $workloads; do
    echo "==> $workload, seed $seed, $pairs pairs of ${seconds} s (workload pair side failed metric value ...)" >&2
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then
            run parent "$parent" "$pair"
            run change "$change" "$pair"
        else
            run change "$change" "$pair"
            run parent "$parent" "$pair"
        fi
    done
done

echo
echo "seed $seed, $pairs alternating pairs of ${seconds} s per workload; ratio = change median / parent median;"
echo "inside / outside = the medians differ by less / more than the parent's interquartile distance"
awk -v metrics="$metrics" -v workloads="$workloads" '
    function quantile(v, n, q,    h, lo) {
        h = (n - 1) * q + 1; lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function summary(w, side, name,    n, i, j, x, v) {
        n = 0
        for (i = 1; i <= pairs; i++) if ((w, side, i, name) in val) {
            x = val[w, side, i, name] + 0
            for (j = n++; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
            v[j + 1] = x
        }
        med[side] = quantile(v, n, 0.5)
        iqd[side] = quantile(v, n, 0.75) - quantile(v, n, 0.25)
        return sprintf("%.6g [%.6g, %.6g]", med[side], quantile(v, n, 0.25), quantile(v, n, 0.75))
    }
    {
        if ($2 > pairs) pairs = $2
        failed[$1, $3] += $4
        for (i = 5; i < NF; i += 2) val[$1, $3, $2, $i] = $(i + 1)
    }
    END {
        printf "| workload | metric | parent median [q1, q3] | change median [q1, q3] | change wins | ratio | vs parent spread |\n|---|---|---|---|---|---|---|\n"
        n = split(metrics, m, /[ \n]+/)
        nw = split(workloads, ws, /[ \n]+/)
        for (x = 1; x <= nw; x++) for (k = 1; k < n; k += 2) {
            w = ws[x]; name = m[k]; higher = (m[k + 1] == "higher"); wins = 0; both = 0
            for (i = 1; i <= pairs; i++) {
                if (!(((w, "parent", i, name) in val) && ((w, "change", i, name) in val))) continue
                both++
                p = val[w, "parent", i, name] + 0; c = val[w, "change", i, name] + 0
                if (higher ? c > p : c < p) wins++
            }
            ps = summary(w, "parent", name); cs = summary(w, "change", name)
            ratio = med["parent"] != 0 ? sprintf("%.4f", med["change"] / med["parent"]) : "n/a"
            gap = med["change"] - med["parent"]; if (gap < 0) gap = -gap
            spread = gap > iqd["parent"] ? "outside" : "inside"
            printf "| %s | %s (%s is better) | %s | %s | %d of %d | %s | %s |\n", w, name, m[k + 1], ps, cs, wins, both, ratio, spread
        }
        for (x = 1; x <= nw; x++)
            printf "failed ops, %s: parent %d, change %d\n", ws[x], failed[ws[x], "parent"], failed[ws[x], "change"]
    }' "$runs"
