#!/usr/bin/env bash
# The two line censuses every simplicity gate quotes (ROADMAP aim 2):
#
#   scripts/loc.sh [checkout]
#
# 1. all `.rs` lines under crates tests examples src;
# 2. library lines: per crate, every `.rs` under `crates/<crate>/src` up to
#    its first column-0 `#[cfg(test)]` (the whole file if it has none),
#    then their sum.
#
# `checkout` defaults to the one holding this script; give a parent clone
# to read the other side of a gate.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

all=$(find crates tests examples src -name '*.rs' -print0 | xargs -0 cat | wc -l)
echo "all .rs (crates tests examples src): $all"

library=0
for src in crates/*/src; do
    lines=$(find "$src" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }')
    printf '  %-12s %6d\n' "$(basename "$(dirname "$src")")" "$lines"
    library=$((library + lines))
done
echo "library non-test lines: $library"
