#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       One run of one workload; the last line of standard output is the
#       result object (this is the form BENCHMARK.json's command takes).
#
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--out <file>]
#       Every workload, each in its own process: the end-to-end run
#       (tracing off), then the traced run. Prints every metric by name
#       with its unit, appends the result lines to <file> (default
#       benchmark/out/results-seed<n>.jsonl) and exits non-zero if any
#       check failed.
#
# Run it from the repository root. Both forms build first, offline, from
# source, into $CARGO_TARGET_DIR (default benchmark/target).
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
target=${CARGO_TARGET_DIR:-$here/target}
export CARGO_TARGET_DIR=$target
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
bin=$target/release

workload='' seed=1 seconds='' trace=0 out=''
args=("$@")
while [ $# -gt 0 ]; do
  case $1 in
    --workload) workload=${2:?--workload needs a value}; shift 2 ;;
    --seed) seed=${2:?--seed needs a value}; shift 2 ;;
    --seconds) seconds=${2:?--seconds needs a value}; shift 2 ;;
    --trace) trace=${2:?--trace needs a value}; shift 2 ;;
    --out) out=${2:?--out needs a value}; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [ -n "$workload" ]; then
  if [ "$trace" = 1 ]; then
    exec "$bin/hobench-trace" "${args[@]}"
  fi
  exec "$bin/hobench" "${args[@]}"
fi

# Every workload. run_seconds comes from BENCHMARK.json unless given.
if [ -z "$seconds" ]; then
  seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")
fi
mkdir -p "$here/out"
out=${out:-$here/out/results-seed$seed.jsonl}
fresh=$(mktemp "$here/out/run.XXXXXX")
trap 'rm -f "$fresh"' EXIT
status=0
for w in clean-single lossy-mux-fountain bursty-adaptive threaded-clean sim-adversary; do
  for t in 0 1; do
    if [ "$t" = 1 ]; then
      line=$("$bin/hobench-trace" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
        --spans-out "$here/out/spans-$w.jsonl" | tail -n 1) || status=1
    else
      line=$("$bin/hobench" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1) || status=1
    fi
    [ -n "$line" ] || { echo "run.sh: $w --trace $t printed no result" >&2; status=1; continue; }
    echo "{\"workload\": \"$w\", \"seed\": $seed, \"seconds\": $seconds, \"trace\": $t, \"result\": $line}" >> "$fresh"
  done
done
"$bin/hobench-report" show "$fresh" || status=1
cat "$fresh" >> "$out"
echo "results appended to $out" >&2
exit $status
