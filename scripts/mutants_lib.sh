# shellcheck shell=bash
# Reading and applying scripts/mutants.list, shared by scripts/mutants.sh
# (which runs the suite per mutant) and scripts/verify.sh (which only checks
# that each mutant still applies). Source it; it runs nothing itself.

# for_each_mutant LIST CMD...: run `CMD... name file expr` in the calling
# shell for each mutant of LIST, one `name|file|perl substitution` a line;
# lines starting with `#` and blank lines are skipped.
for_each_mutant() {
    local list=$1 name file expr
    shift
    while IFS='|' read -r name file expr; do
        case $name in '' | '#'*) continue ;; esac
        "$@" "$name" "$file" "$expr"
    done < "$list"
}

# mutate FILE EXPR OUT: write FILE with EXPR applied to each of its lines
# (`perl -p`) to OUT. Fails when that changes nothing: the mutant's line
# moved, and the mutant must be updated.
mutate() {
    perl -pe "$2" "$1" > "$3"
    ! cmp -s "$1" "$3"
}
