#!/bin/sh
# Code lines under crates/*/src: non-blank lines that are not `//` comments
# (doc comments included). Prints the per-crate split, then the total --
# the figure ROADMAP aim 2 ("net line count should fall") is tracked by.
cd "$(dirname "$0")/.." || exit 1
for src in crates/*/src; do
    n=$(find "$src" -name '*.rs' -exec cat {} + | grep -cvE '^[[:space:]]*(//|$)')
    printf '%7d  %s\n' "$n" "$src"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
