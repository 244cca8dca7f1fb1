#!/usr/bin/env bash
# Shape-corpus scaling gate: no command has a superlinear cliff on a legal
# netlist.
#
# Run from the repository root, after `cargo build --release --bin smo`:
#
#   ./shape_gate.sh [path/to/smo]
#
# Four `smo gen` shapes — wide (`--latches N`), deep (`--stages N/2
# --width 2`), high fan-in (`--fanin 8`) and four phases (`--phases 4`) —
# are generated at n = 25k and 2n = 50k latches. Each of `solve`, `check`,
# `lint`, `report`, `diagnose` and `sweep --runs 4` is timed on both sizes,
# best of 5 runs, the runs on n and 2n taken in turn so that a slow phase
# of the host slows both sizes alike. The gate fails when t(2n) / t(n)
# exceeds 2.6 for a pair whose t(n) is at least 0.2 s: below that, process
# start and noise dominate the ratio. `analyze` is left out until its
# deep-pipeline cliff is fixed (ROADMAP item 1).
set -euo pipefail
cd "$(dirname "$0")"

smo=${1:-./target/release/smo}
max_ratio=2.6
min_seconds=0.2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# gen <shape> <latches> <file>: the shape's netlist at about that size.
gen() {
  case $1 in
    wide) "$smo" gen --latches "$2" --seed 7 --out "$3" ;;
    deep) "$smo" gen --stages $(($2 / 2)) --width 2 --seed 7 --out "$3" ;;
    fanin) "$smo" gen --latches "$2" --fanin 8 --seed 7 --out "$3" ;;
    phases) "$smo" gen --latches "$2" --phases 4 --seed 7 --out "$3" ;;
  esac > /dev/null 2>&1
}

# run_ns <netlist> <command> [flags…]: the wall time of one run of
# `smo <command> <netlist> [flags…]`, in nanoseconds.
run_ns() {
  local netlist=$1 command=$2 start end
  shift 2
  start=$(date +%s%N)
  "$smo" "$command" "$netlist" "$@" --max-input-mb 64 > /dev/null
  end=$(date +%s%N)
  echo $((end - start))
}

# best_pair <command> [flags…]: the best wall times of 5 runs on n.ckt and
# 5 on 2n.ckt, alternating between the two, as "t(n) t(2n)" in seconds.
best_pair() {
  local best1= best2= t
  for _ in 1 2 3 4 5; do
    t=$(run_ns "$dir/n.ckt" "$@")
    if [ -z "$best1" ] || [ "$t" -lt "$best1" ]; then best1=$t; fi
    t=$(run_ns "$dir/2n.ckt" "$@")
    if [ -z "$best2" ] || [ "$t" -lt "$best2" ]; then best2=$t; fi
  done
  awk -v a="$best1" -v b="$best2" 'BEGIN { printf "%.3f %.3f\n", a / 1e9, b / 1e9 }'
}

failed=0
printf '%-7s %-14s %8s %8s %6s\n' shape command 't(25k)' 't(50k)' ratio
for shape in wide deep fanin phases; do
  gen "$shape" 25000 "$dir/n.ckt"
  gen "$shape" 50000 "$dir/2n.ckt"
  for cmd in solve check lint report diagnose "sweep --runs 4"; do
    # shellcheck disable=SC2086 # `sweep --runs 4` splits into its words
    read -r t1 t2 < <(best_pair $cmd)
    ratio=$(awk -v a="$t1" -v b="$t2" 'BEGIN { printf "%.2f", b / a }')
    verdict=$(awk -v a="$t1" -v r="$ratio" -v lo="$min_seconds" -v hi="$max_ratio" \
      'BEGIN { print (a >= lo && r > hi) ? "FAIL" : "ok" }')
    printf '%-7s %-14s %8s %8s %6s %s\n' "$shape" "$cmd" "$t1" "$t2" "$ratio" "$verdict"
    if [ "$verdict" = FAIL ]; then
      failed=1
    fi
  done
done
if [ "$failed" -ne 0 ]; then
  echo "shape gate: t(2n)/t(n) > $max_ratio where t(n) >= ${min_seconds}s" >&2
  exit 1
fi
