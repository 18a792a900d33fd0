#!/usr/bin/env bash
# The four censuses every simplicity gate quotes (ROADMAP aims 2, 3 and 4):
#
#   scripts/loc.sh [checkout]
#
# 1. all `.rs` lines under crates tests examples src;
# 2. library lines: per crate, every `.rs` under `crates/<crate>/src` up to
#    its first column-0 `#[cfg(test)]` (the whole file if it has none),
#    then their sum;
# 3. `pub fn` lines (`pub`, then optionally `const` / `unsafe`, then `fn`;
#    `pub(crate)` and the like are not counted) in the same non-test part,
#    per crate, then the pp-portable + pp-splinesolver sum;
# 4. test lines: census 1 minus census 2.
#
# `checkout` defaults to the one holding this script; give a parent clone
# to read the other side of a gate.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

all=$(find crates tests examples src -name '*.rs' -print0 | xargs -0 cat | wc -l)
echo "all .rs (crates tests examples src): $all"

# Lines of the non-test part of every `.rs` under `$1` that match `$2`.
non_test() {
    find "$1" -name '*.rs' -print0 | xargs -0 awk -v pattern="$2" '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting && $0 ~ pattern { n++ }
        END { print n + 0 }'
}

library=0
for src in crates/*/src; do
    lines=$(non_test "$src" '')
    printf '  %-12s %6d\n' "$(basename "$(dirname "$src")")" "$lines"
    library=$((library + lines))
done
echo "library non-test lines: $library"

pub_fn='^[[:space:]]*pub[[:space:]]+((const|unsafe)[[:space:]]+)*fn[[:space:]]'
echo "library non-test pub fn lines:"
gated=0
for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    count=$(non_test "$src" "$pub_fn")
    printf '  %-12s %6d\n' "$crate" "$count"
    # pp-portable and pp-splinesolver live in crates/portable and crates/core.
    case $crate in portable | core) gated=$((gated + count)) ;; esac
done
echo "pub fn lines, pp-portable + pp-splinesolver: $gated"
echo "test lines (all .rs minus library): $((all - library))"
