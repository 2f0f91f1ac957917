#!/usr/bin/env bash
# Prints the size of the production crates' surface, so a PR's API and
# line delta shows up as a diff of docs/api-budget.txt:
#
#   per crate (coding engine net async)
#     - code lines: src/*.rs up to the first #[cfg(test)], blank lines
#       and //-only lines (comments, docs) excluded;
#     - lines in that same region that can panic on purpose
#       (`.unwrap()`, `.expect(`, `panic!(`; `assert!` is a stated
#       precondition and is not counted);
#     - the sorted `pub fn` / `pub struct` / `pub enum` / `pub trait`
#       names declared in that same region.
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

total=0
for crate in coding engine net async; do
  lines=0
  panics=0
  names=''
  for file in "$root/crates/$crate"/src/*.rs; do
    code=$(production "$file" | grep -cvE '^[[:space:]]*(//.*)?$' || true)
    lines=$((lines + code))
    hits=$(production "$file" | grep -vE '^[[:space:]]*//' |
      grep -cE '\.unwrap\(\)|\.expect\(|panic!\(' || true)
    panics=$((panics + hits))
    names+=$(production "$file" |
      sed -nE 's/^[[:space:]]*pub (fn|struct|enum|trait) ([A-Za-z_][A-Za-z0-9_]*).*/\1 \2/p' |
      sed "s|$| ($(basename "$file"))|")
    names+=$'\n'
  done
  total=$((total + lines))
  items=$(printf '%s' "$names" | grep -c . || true)
  echo "== $crate: $lines code lines, $items public items"
  echo "   pre-test unwrap/expect/panic! lines: $panics"
  printf '%s' "$names" | grep . | sort
  echo
done
echo "== total: $total code lines"
