#!/usr/bin/env bash
# Prints the size of the production crates' surface, so a PR's API and
# line delta shows up as a diff of docs/api-budget.txt:
#
#   per production crate (coding engine net async, then model core
#   adversary sim predicates telemetry and the facade's src/), over
#   every src/**/*.rs file in sorted path order (a module split into a
#   subdirectory still counts)
#     - code lines: each file up to its first #[cfg(test)], blank lines
#       and //-only lines (comments, docs) excluded. The first
#       #[cfg(test)] item of a file ends its counted region, whatever
#       follows it, so a test-only helper belongs at the end of a file;
#     - lines in that same region that can panic on purpose
#       (`.unwrap()`, `.expect(`, `panic!(`; `assert!` is a stated
#       precondition and is not counted);
#     - the sorted `pub fn` / `pub struct` / `pub enum` / `pub trait`
#       names declared in that same region;
#   then two totals: `total` over coding engine net async (the figure
#   earlier listings report) and `all production total` over every
#   crate above; then, outside both, the code lines of the experiments
#   (crates/bench/src and examples) and of the models (crates/analysis/src
#   and crates/mc/src), counted the same way.
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

# Prints one crate's listing (label, source directory) and leaves its
# code-line count in `lines`.
crate_budget() {
  local label=$1 src=$2 panics=0 names='' file hits items
  lines=0
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
  items=$(printf '%s' "$names" | grep -c . || true)
  echo "== $label: $lines code lines, $items public items"
  echo "   pre-test unwrap/expect/panic! lines: $panics"
  printf '%s' "$names" | grep . | sort
  echo
}

total=0
for crate in coding engine net async; do
  crate_budget "$crate" "$root/crates/$crate/src"
  total=$((total + lines))
done
echo "== total: $total code lines"
echo

all=$total
for crate in model core adversary sim predicates telemetry; do
  crate_budget "$crate" "$root/crates/$crate/src"
  all=$((all + lines))
done
crate_budget 'heardof (facade, src)' "$root/src"
all=$((all + lines))
echo "== all production total: $all code lines"

# The experiments (the repro artifacts, the bench harness, the
# examples) and the models (the analysis toolkit and the model
# checker), counted the same way but kept out of both production totals.
outside() {
  local label=$1 sum=0 file
  shift
  while IFS= read -r file; do
    sum=$((sum + $(code_lines "$file")))
  done < <(find "$@" -name '*.rs' -type f | sort)
  echo "== $label: $sum code lines"
}
outside 'experiments (crates/bench/src, examples)' "$root/crates/bench/src" "$root/examples"
outside 'models (crates/analysis/src, crates/mc/src)' "$root/crates/analysis/src" "$root/crates/mc/src"
