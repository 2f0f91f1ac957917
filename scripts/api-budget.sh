#!/usr/bin/env bash
# Prints the size of the production crates' surface, so a PR's API and
# line delta shows up as a diff of docs/api-budget.txt:
#
#   per crate (coding engine net async), over every src/**/*.rs file in
#   sorted path order (a module split into a subdirectory still counts)
#     - code lines: each file up to its first #[cfg(test)], blank lines
#       and //-only lines (comments, docs) excluded. The first
#       #[cfg(test)] item of a file ends its counted region, whatever
#       follows it, so a test-only helper belongs at the end of a file;
#     - lines in that same region that can panic on purpose
#       (`.unwrap()`, `.expect(`, `panic!(`; `assert!` is a stated
#       precondition and is not counted);
#     - the sorted `pub fn` / `pub struct` / `pub enum` / `pub trait`
#       names declared in that same region;
#   then, outside that total, the code lines of the experiments
#   (crates/bench/src and examples), counted the same way.
#
# Usage: scripts/api-budget.sh [repo-root] > docs/api-budget.txt
# CI regenerates the file and fails on `diff`.
set -euo pipefail
export LC_ALL=C

root=${1:-$(cd "$(dirname "$0")/.." && pwd)}

# The production region of one file: everything before its test module.
production() {
  awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { print }' "$1"
}

# Code lines of that region: blank and //-only lines excluded.
code_lines() {
  production "$1" | grep -cvE '^[[:space:]]*(//.*)?$' || true
}

total=0
for crate in coding engine net async; do
  lines=0
  panics=0
  names=''
  src="$root/crates/$crate/src"
  while IFS= read -r file; do
    lines=$((lines + $(code_lines "$file")))
    hits=$(production "$file" | grep -vE '^[[:space:]]*//' |
      grep -cE '\.unwrap\(\)|\.expect\(|panic!\(' || true)
    panics=$((panics + hits))
    names+=$(production "$file" |
      sed -nE 's/^[[:space:]]*pub (fn|struct|enum|trait) ([A-Za-z_][A-Za-z0-9_]*).*/\1 \2/p' |
      sed "s|$| (${file#"$src/"})|")
    names+=$'\n'
  done < <(find "$src" -name '*.rs' -type f | sort)
  total=$((total + lines))
  items=$(printf '%s' "$names" | grep -c . || true)
  echo "== $crate: $lines code lines, $items public items"
  echo "   pre-test unwrap/expect/panic! lines: $panics"
  printf '%s' "$names" | grep . | sort
  echo
done
echo "== total: $total code lines"

# The experiments (the repro artifacts, the bench harness, the
# examples), counted the same way but kept out of the production total.
experiments=0
while IFS= read -r file; do
  experiments=$((experiments + $(code_lines "$file")))
done < <(find "$root/crates/bench/src" "$root/examples" -name '*.rs' -type f | sort)
echo "== experiments (crates/bench/src, examples): $experiments code lines"
