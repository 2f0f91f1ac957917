#!/usr/bin/env bash
# Throughput regression gate for the frame pipeline's hot-path kernels.
#
# Usage: check-bench-regression.sh <committed.json> <fresh.json>...
#
# Every file is a `heardof-bench-report/v1` report (one metric per
# line, one claim per line, so plain grep/awk suffice — no JSON
# tooling in the gate); each fresh one is a separate pass of the
# bench. The gate iterates every metric/claim pair instead of
# hard-coding one headline:
#
#   * every claim in every fresh report must hold (each
#     `"holds": false` line is listed and fails the gate —
#     `claim_holds` is their conjunction, so legacy consumers reading
#     only the headline still gate everything);
#   * every `*_speedup` ratio in the committed report must be
#     reproduced within 10% by the median of the fresh passes
#     (median >= 0.9 x committed) — ratios compare a kernel against
#     its own baseline on the same machine in the same run, so they
#     survive a CI runner change where absolute nanoseconds would not,
#     and the median of several passes rides out one pass's scheduler
#     noise, which on a 2-vCPU runner is wider than 10%;
#   * every `*alloc*` count must not grow in any pass (fresh <=
#     committed) — allocation counts are exact and machine-independent.
set -euo pipefail

if [ "$#" -lt 2 ]; then
  echo "usage: $0 <committed.json> <fresh.json>..." >&2
  exit 2
fi
committed="$1"
shift
fresh_reports=("$@")

# Pulls one numeric metric out of a v1 report line like
#   "bitsliced_speedup": 9.237,
metric() {
  local file="$1" name="$2" value
  value="$(grep -E "^[[:space:]]*\"$name\":" "$file" \
    | head -n1 \
    | sed -E 's/.*: *([0-9.eE+-]+),?$/\1/')"
  if [ -z "$value" ]; then
    echo "MISSING METRIC: \"$name\" not found in $file" >&2
    exit 2
  fi
  echo "$value"
}

# Lists the metric names of one kind committed in a report: the gate
# iterates whatever the artifact ships rather than a hard-coded set,
# so a bench that adds a metric extends the gate automatically.
metric_names() {
  local file="$1" pattern="$2"
  sed -nE 's/^[[:space:]]*"([a-z0-9_]+)": [0-9.eE+-]+,?$/\1/p' "$file" \
    | grep -E "$pattern" || true
}

for file in "$committed" "${fresh_reports[@]}"; do
  if ! grep -q '"schema": "heardof-bench-report/v1"' "$file"; then
    echo "NOT A v1 BENCH REPORT: $file" >&2
    exit 2
  fi
done

fail=0

# 1. Every claim every fresh pass makes must hold on this runner.
for fresh in "${fresh_reports[@]}"; do
  if grep -q '"holds": false' "$fresh"; then
    echo "FAIL: claims not upheld by $fresh:" >&2
    grep '"holds": false' "$fresh" | sed -E 's/.*"claim": "([^"]*)".*/  - \1/' >&2
    fail=1
  fi
  # Belt and braces for reports predating the claims array.
  if ! grep -q '"claim_holds": true' "$fresh"; then
    echo "FAIL: the headline claim_holds of $fresh is not true" >&2
    fail=1
  fi
done

# 2. Every committed speedup ratio must be reproduced within 10% by
# the median of the fresh passes.
for name in $(metric_names "$committed" '_speedup$'); do
  committed_value="$(metric "$committed" "$name")"
  fresh_values=()
  for fresh in "${fresh_reports[@]}"; do
    fresh_values+=("$(metric "$fresh" "$name")")
  done
  median="$(printf '%s\n' "${fresh_values[@]}" | sort -g | awk '
    { v[NR] = $1 }
    END { if (NR % 2) print v[(NR + 1) / 2]; else print (v[NR / 2] + v[NR / 2 + 1]) / 2 }')"
  echo "committed $name: ${committed_value}x   fresh: ${fresh_values[*]} (median ${median}x)"
  if ! awk -v fresh="$median" -v committed="$committed_value" -v name="$name" 'BEGIN {
    floor = committed * 0.9
    if (fresh + 0 < floor) {
      printf "FAIL: %s regressed >10%% vs the committed artifact (floor %.3fx)\n", name, floor > "/dev/stderr"
      exit 1
    }
  }'; then
    fail=1
  fi
done

# 3. Allocation counts are exact: no fresh pass may allocate more.
for name in $(metric_names "$committed" 'alloc'); do
  committed_value="$(metric "$committed" "$name")"
  for fresh in "${fresh_reports[@]}"; do
    fresh_value="$(metric "$fresh" "$name")"
    echo "committed $name: ${committed_value}   fresh: ${fresh_value}"
    if ! awk -v fresh="$fresh_value" -v committed="$committed_value" -v name="$name" 'BEGIN {
      if (fresh + 0 > committed + 0) {
        printf "FAIL: %s grew vs the committed artifact\n", name > "/dev/stderr"
        exit 1
      }
    }'; then
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "OK: every claim holds in every pass, every ratio's median within 10%, no allocation growth"
