#!/bin/sh
# Code lines under crates/*/src: non-blank lines that are not `//` comments
# (doc comments included). Prints the per-crate split, then the total --
# the figure ROADMAP aim 2 ("net line count should fall") is tracked by.
# Second column: the same count without the `#[cfg(test)]` modules that
# close a file, so tests moved out of (or into) src do not read as a change
# in the code.
cd "$(dirname "$0")/.." || exit 1
printf '%7s %7s\n' all no-test
for src in crates/*/src; do
    set -- $(find "$src" -name '*.rs' -exec awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !/^[[:space:]]*(\/\/|$)/ { all++; if (!in_tests) code++ }
        END { print all + 0, code + 0 }' {} +)
    printf '%7d %7d  %s\n' "$1" "$2" "$src"
    total=$((total + $1))
    total_code=$((total_code + $2))
done
printf '%7d %7d  total\n' "$total" "$total_code"
