#!/usr/bin/env bash
# A/B of one stepbench workload between two checkouts of this repo: the
# table every perf PR puts in EXPERIMENTS.md (choosing-metrics §8).
#
#   scripts/ab.sh <parent-checkout> <change-checkout> <workload> [pairs=10] [seed=7]
#
# Builds `stepbench` once in each checkout (benchmark/target, as
# `cargo run --manifest-path benchmark/Cargo.toml` does), then runs
# `pairs` untraced pairs of BENCHMARK.json's run length, alternating
# which side goes first. Prints every run in pair order and, per
# end-to-end metric, each side's median and quartiles, the pairs the
# change won (ties count for neither) and the ratio of the medians with
# its base. Run nothing else on the host meanwhile.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,13p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seed=${5:-7}

# The benchmark's own declaration: run length, metric names, directions.
decl=$change/BENCHMARK.json
seconds=$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' "$decl")
metrics=$(awk '
    /"end_to_end"/ { on = 1 }
    on && /\]/ { exit }
    on && /"name"/ { split($0, q, "\""); name = q[4] }
    on && /"better"/ { split($0, q, "\""); print name, q[4] }
' "$decl")
test -n "$seconds" && test -n "$metrics"

for dir in "$parent" "$change"; do
    echo "==> building stepbench in $dir" >&2
    cargo build --release --offline --quiet \
        --manifest-path "$dir/benchmark/Cargo.toml" --target-dir "$dir/benchmark/target"
done

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# One run: appends "<pair> <side> <failed> <name> <value> ..." to $runs.
run() {
    local side=$1 dir=$2 pair=$3 line
    line=$(cd "$dir" && benchmark/target/release/stepbench \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1) || true
    echo "$line" | awk -v pair="$pair" -v side="$side" '
        {
            if (!match($0, /"failed":[0-9]+/)) { print "no result line: " $0 > "/dev/stderr"; exit 1 }
            out = pair " " side " " substr($0, RSTART + 9, RLENGTH - 9)
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

echo "==> $workload, seed $seed, $pairs pairs of ${seconds} s (pair side failed metric value ...)" >&2
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$parent" "$pair"
        run change "$change" "$pair"
    else
        run change "$change" "$pair"
        run parent "$parent" "$pair"
    fi
done

echo
echo "workload $workload, seed $seed, $pairs alternating pairs of ${seconds} s; ratio = change median / parent median"
awk -v metrics="$metrics" '
    function quantile(v, n, q,    h, lo) {
        h = (n - 1) * q + 1; lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function summary(side, name,    n, i, j, x, v) {
        n = 0
        for (i = 1; i <= pairs; i++) if ((side, i, name) in val) {
            x = val[side, i, name] + 0
            for (j = n++; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
            v[j + 1] = x
        }
        med[side] = quantile(v, n, 0.5)
        return sprintf("%.6g [%.6g, %.6g]", med[side], quantile(v, n, 0.25), quantile(v, n, 0.75))
    }
    {
        if ($1 > pairs) pairs = $1
        failed[$2] += $3
        for (i = 4; i < NF; i += 2) val[$2, $1, $i] = $(i + 1)
    }
    END {
        printf "| metric | parent median [q1, q3] | change median [q1, q3] | change wins | ratio |\n|---|---|---|---|---|\n"
        n = split(metrics, m, /[ \n]+/)
        for (k = 1; k < n; k += 2) {
            name = m[k]; higher = (m[k + 1] == "higher"); wins = 0; both = 0
            for (i = 1; i <= pairs; i++) {
                if (!((("parent", i, name) in val) && (("change", i, name) in val))) continue
                both++
                p = val["parent", i, name] + 0; c = val["change", i, name] + 0
                if (higher ? c > p : c < p) wins++
            }
            ps = summary("parent", name); cs = summary("change", name)
            ratio = med["parent"] != 0 ? sprintf("%.4f", med["change"] / med["parent"]) : "n/a"
            printf "| %s (%s is better) | %s | %s | %d of %d | %s |\n", name, m[k + 1], ps, cs, wins, both, ratio
        }
        printf "failed ops: parent %d, change %d\n", failed["parent"], failed["change"]
    }' "$runs"
