#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
#
# Run from the repository root:
#
#   ./ci.sh
#
# Every step must pass; the script stops at the first failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo doc (workspace, rustdoc warnings are errors)"
# Broken intra-doc links (a moved module, a renamed item) fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo clippy unwrap/expect audit (lp + core, warn-level)"
# The numerical kernels must not panic on pathological inputs: surface
# every unwrap/expect in non-test code for review. Warn-level (not -D):
# the remaining sites are audited, documented panics.
cargo clippy -q -p smo-lp -p smo-core --lib -- \
  -W clippy::unwrap_used -W clippy::expect_used

echo "==> cargo test (every workspace crate)"
# Plain `cargo test` runs only the root `smo` package; `--workspace` adds
# the unit tests and proptests inside each crate (the graph search's
# oracle comparison among them).
cargo test -q --workspace

echo "==> e2e benchmark crate: fmt, clippy (-D warnings) and tests"
# The end-to-end benchmark is a workspace of its own (e2e/Cargo.toml), so
# the workspace-wide fmt, clippy and test steps above do not cover it; it
# links smo_api and smo_circuit, so their changes must keep it building.
cargo fmt --manifest-path e2e/Cargo.toml -- --check
cargo clippy --manifest-path e2e/Cargo.toml --all-targets -q -- -D warnings
cargo test -q --manifest-path e2e/Cargo.toml

echo "==> stress harness (pathological circuits, sparse-LU vs the dense oracle)"
cargo test -q --test stress

echo "==> scale-differential suite (sparse-LU vs the dense oracle, release)"
# The non-ignored tests (shipped netlists, stress suite, proptest-random
# circuits) also run under plain `cargo test` above; release mode adds the
# ignored 1k/5k-row generated-datapath tests, which are deadline-bounded
# so a solver regression fails fast instead of hanging CI.
cargo test -q --release --test scale_differential -- --include-ignored

echo "==> heap accounting (timing-model storage, default-solve peak; release)"
# A counting global allocator checks that building P2 makes the same
# handful of allocations at 1000 and 4000 latches, holds at most 128 B
# per row, and that the default solve's heap peak stays under its bound
# at 4000 and (the ignored test) 100k latches. The counters are global,
# so the tests run one at a time.
cargo test -q --release --test memory -- --include-ignored --test-threads=1

echo "==> sweep determinism + oracle suite"
cargo test -q --test sweep

echo "==> smo lint + smo analyze + certified smo solve over circuits/*.ckt"
# `lint` exits non-zero on error-severity findings; `analyze` exits 2 when
# the combinatorial bracket misses the optimum or the optimum's KKT
# certificate is invalid (an internal soundness bug). Either failure
# fails CI.
cargo build -q --release --bin smo
for ckt in circuits/*.ckt; do
  echo "--- $ckt"
  ./target/release/smo lint "$ckt"
  ./target/release/smo analyze "$ckt"
  # Every shipped netlist must solve with every verdict independently
  # checked (exit 0 and an explicit `certified: true` line).
  ./target/release/smo solve "$ckt" | grep -q "certified: true"
  # Graph-vs-LP differential: both backends must solve every shipped
  # netlist, certified, and report the same optimum to the printed
  # precision. The `backend: graph` grep doubles as proof the fast path
  # actually engages rather than silently falling back.
  graph_out=$(./target/release/smo solve "$ckt" --backend graph)
  lp_out=$(./target/release/smo solve "$ckt" --backend lp)
  printf '%s\n' "$graph_out" | grep "backend: graph" > /dev/null
  printf '%s\n' "$graph_out" | grep "certified: true" > /dev/null
  graph_tc=$(printf '%s\n' "$graph_out" | sed -n 1p)
  lp_tc=$(printf '%s\n' "$lp_out" | sed -n 1p)
  if [ "$graph_tc" != "$lp_tc" ]; then
    echo "BACKEND DISAGREEMENT on $ckt: graph '$graph_tc' vs lp '$lp_tc'" >&2
    exit 1
  fi
  # Short certified Monte-Carlo sweep: exercises the graph re-solves, their
  # certificates and the worker pool end to end on every shipped netlist.
  ./target/release/smo sweep "$ckt" --runs 4 --jobs 2 --certify > /dev/null
done

echo "==> smo check over circuits/*.ckt (race gate)"
# The one-shot static gate: lint passes + solve + short-path race
# analysis. Every shipped netlist must pass clean — except the
# deliberately racy demo, which must trip the gate with exit code 2 and
# a measured double-clocking-race witness.
for ckt in circuits/*.ckt; do
  echo "--- check $ckt"
  if [ "$ckt" = "circuits/race_demo.ckt" ]; then
    set +e
    check_out=$(./target/release/smo check "$ckt")
    check_rc=$?
    set -e
    if [ "$check_rc" -ne 2 ]; then
      echo "smo check $ckt: expected exit code 2, got $check_rc" >&2
      printf '%s\n' "$check_out" >&2
      exit 1
    fi
    printf '%s\n' "$check_out" | grep 'error: \[double-clocking-race\]' > /dev/null
    printf '%s\n' "$check_out" | grep 'retires the race' > /dev/null
  else
    ./target/release/smo check "$ckt" > /dev/null
  fi
done

echo "==> panic-freedom attributes on the numerical fast-path modules"
# The graph solver and the fast-path router must keep their deny-level
# unwrap/expect gates: a panic inside either would take down every
# `--backend auto` caller on pathological inputs.
grep -q 'deny(clippy::unwrap_used, clippy::expect_used)' crates/lp/src/graph.rs
grep -q 'deny(clippy::unwrap_used, clippy::expect_used)' crates/core/src/fastpath.rs
# MLP step 2 (the departure slide) runs on every solve, on both backends:
# the propagation system and the MLP driver keep the same attribute.
grep -q 'deny(clippy::unwrap_used, clippy::expect_used)' crates/core/src/propagation.rs
grep -q 'deny(clippy::unwrap_used, clippy::expect_used)' crates/core/src/mlp.rs
# The sparse-LU simplex and its pricing module serve `--backend lp` and
# the scale-differential oracle, and the large-circuit generator feeds the
# scaling gates: all keep the same deny-level attribute.
grep -q 'deny(clippy::unwrap_used, clippy::expect_used)' crates/lp/src/sparse.rs
grep -q 'deny(clippy::unwrap_used, clippy::expect_used)' crates/lp/src/pricing.rs
grep -q 'deny(clippy::unwrap_used, clippy::expect_used)' crates/gen/src/datapath.rs

echo "==> panic-freedom attributes across the analysis layer"
# The static-analysis crate backs the `smo check` CI gate itself: every
# source file keeps the deny-level unwrap/expect attribute so a
# pathological netlist degrades to an AnalyzeError, never a panic.
for f in crates/analyze/src/*.rs; do
  grep -q 'deny(clippy::unwrap_used, clippy::expect_used)' "$f" \
    || { echo "missing unwrap/expect deny attribute: $f" >&2; exit 1; }
done

echo "==> smo serve daemon gate (mixed batch over circuits/*.ckt, hostile inputs)"
# Start the daemon on an ephemeral port, drive every shipped netlist
# through solve/check plus a malformed netlist and an expired deadline,
# and require: structured answers for everything (zero crashes), the
# race demo's finding visible through the wire, and a clean drain.
serve_log=$(mktemp)
./target/release/smo serve --addr 127.0.0.1:0 > "$serve_log" &
serve_pid=$!
for _ in $(seq 1 50); do
  grep -q 'listening on ' "$serve_log" && break
  sleep 0.1
done
serve_addr=$(sed -n 's/^listening on //p' "$serve_log" | head -n 1)
if [ -z "$serve_addr" ]; then
  echo "smo serve did not come up" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
for ckt in circuits/*.ckt; do
  # Every netlist must solve and check over the wire (status ok ⇒ exit 0);
  # solving twice proves the result cache answers byte-compatibly.
  ./target/release/smo call "$serve_addr" solve "$ckt" > /dev/null
  ./target/release/smo call "$serve_addr" solve "$ckt" | grep '"cached":true' > /dev/null
  check_line=$(./target/release/smo call "$serve_addr" check "$ckt")
  if [ "$ckt" = "circuits/race_demo.ckt" ]; then
    printf '%s\n' "$check_line" | grep 'double-clocking-race' > /dev/null
  fi
done
# Hostile inputs must come back as structured errors, not crashes.
bad_ckt=$(mktemp --suffix=.ckt)
printf 'this is not a netlist\n!!!\n' > "$bad_ckt"
set +e
bad_line=$(./target/release/smo call "$serve_addr" solve "$bad_ckt")
bad_rc=$?
expired_line=$(./target/release/smo call "$serve_addr" solve circuits/gaas_mips.ckt --deadline-ms 0)
expired_rc=$?
set -e
rm -f "$bad_ckt"
[ "$bad_rc" -ne 0 ] && printf '%s\n' "$bad_line" | grep '"kind":"parse"' > /dev/null
[ "$expired_rc" -ne 0 ] && printf '%s\n' "$expired_line" | grep '"kind":"budget"' > /dev/null
# A netlist past the 4 MiB input limit, on one legal request line: the
# daemon frames and decodes it in linear time and answers `limit` at once.
big_ckt=$(mktemp --suffix=.ckt)
./target/release/smo gen --latches 40000 --seed 7 --out "$big_ckt" > /dev/null
set +e
big_line=$(timeout 10 ./target/release/smo call "$serve_addr" solve "$big_ckt")
big_rc=$?
set -e
rm -f "$big_ckt"
if [ "$big_rc" -ne 1 ] || ! printf '%s\n' "$big_line" | grep -q '"kind":"limit"'; then
  echo "oversized netlist: expected a limit error (exit 1), got exit $big_rc" >&2
  exit 1
fi
# The daemon must still be healthy after the hostile batch (no panics)…
./target/release/smo call "$serve_addr" stats | grep '"panics":0' > /dev/null
# …and must drain cleanly on shutdown.
./target/release/smo call "$serve_addr" shutdown | grep '"draining":true' > /dev/null
wait "$serve_pid"
grep -q 'drained, exiting' "$serve_log"
rm -f "$serve_log"

echo "==> bench_serve (regenerates BENCH_serve.json, enforces shed>0 under overload)"
./target/release/smo bench-serve --out BENCH_serve.json > /dev/null

echo "==> bench_sweep (regenerates BENCH_sweep.json, enforces 1-worker sweep >= 2x cold simplex)"
cargo run -q --release -p smo-bench --bin bench_sweep

echo "==> bench_fastpath (regenerates BENCH_fastpath.json, enforces graph >= 10x lp)"
cargo run -q --release -p smo-bench --bin bench_fastpath

echo "==> 5k-row generated circuit: certified sparse-LU solve under a deadline"
# End-to-end through the CLI: `smo gen` emits a 5k-constraint-row
# pipelined datapath, and the simplex backend must return a certified
# optimum inside an explicit wall-clock budget.
gen_ckt=$(mktemp --suffix=.ckt)
./target/release/smo gen --latches 1667 --seed 7 --out "$gen_ckt"
./target/release/smo solve "$gen_ckt" --backend lp --time-limit 300 \
  | grep "certified: true" > /dev/null
rm -f "$gen_ckt"

echo "==> 100k-latch generated circuit (300k rows): default-flag solve, check, lint, report, analyze, diagnose"
# The graph min-ratio solve ends each Bellman–Ford round at the first
# predecessor-graph cycle and scans only the nodes whose labels dropped,
# so a 300k-row solve takes about a second rather than the
# O(V·E)-per-round minutes. Every command must finish well inside the
# timeout, the solve certified and the analyze optimum proven. They all
# need --max-input-mb: the 12.7 MB netlist is past the 4 MiB default.
scale_ckt=$(mktemp --suffix=.ckt)
./target/release/smo gen --latches 100000 --seed 7 --out "$scale_ckt"
timeout 120 ./target/release/smo solve "$scale_ckt" --max-input-mb 64 --time-limit 30 \
  | grep "certified: true" > /dev/null
timeout 120 ./target/release/smo check "$scale_ckt" --max-input-mb 64 > /dev/null
timeout 120 ./target/release/smo lint "$scale_ckt" --max-input-mb 64 > /dev/null
timeout 120 ./target/release/smo report "$scale_ckt" --max-input-mb 64 > /dev/null
timeout 120 ./target/release/smo analyze "$scale_ckt" --max-input-mb 64 \
  | grep "certified optimal" > /dev/null
timeout 120 ./target/release/smo diagnose "$scale_ckt" --max-input-mb 64 > /dev/null
rm -f "$scale_ckt"

echo "==> 100k-latch deep pipeline (50k stages x 2 wide): certified default solve"
# Lawler's first cycle here runs through every stage. Merging its rows by
# a search per arc made this solve quadratic in the depth; it now takes
# about as long as the wide 100k-latch solve above.
deep_ckt=$(mktemp --suffix=.ckt)
./target/release/smo gen --stages 50000 --width 2 --seed 7 --out "$deep_ckt"
timeout 60 ./target/release/smo solve "$deep_ckt" --max-input-mb 64 \
  | grep "certified: true" > /dev/null
rm -f "$deep_ckt"

echo "==> 16.7k-latch generated circuit (50k rows): exact Tc(Δ) curve of a critical edge"
# `--param tc` reports the exact breakpoints of Tc*(Δ) by a few
# critical-cycle solves (2k + 1 for k breakpoints), so the whole sweep is a
# small multiple of one `smo solve` (about 0.8 s against 0.16 s on a
# 2-core host). Edge 10585 lies on the critical cycle of this seed-7
# datapath; its curve over [0, 2Δ] has four breakpoints.
curve_ckt=$(mktemp --suffix=.ckt)
./target/release/smo gen --latches 16700 --seed 7 --out "$curve_ckt"
curve_out=$(timeout 30 ./target/release/smo sweep "$curve_ckt" --param tc --edge 10585 --runs 8 --json)
printf '%s\n' "$curve_out" | grep '"breakpoints":\[[0-9]' > /dev/null
rm -f "$curve_ckt"

echo "==> 16.7k-latch generated circuit (50k rows): report, diagnose and analyze on the graph"
# `report` reads its critical segments off the critical cycle that proves
# Tc*, and `diagnose` takes one graph solve: its negative cycle seeds the
# deletion filter, which decides each trial on the seed's own graph.
# `analyze` makes the one default solve and proves it optimal for the LP
# by the KKT certificate of the critical cycle's duals. All four run in a
# small multiple of `smo check` (about 0.2 s on a 2-core host); on the
# simplex they took minutes.
graph_ckt=$(mktemp --suffix=.ckt)
./target/release/smo gen --latches 16700 --seed 7 --out "$graph_ckt"
timeout 30 ./target/release/smo report "$graph_ckt" \
  | grep -q "critical combinational segments"
timeout 30 ./target/release/smo diagnose "$graph_ckt" > /dev/null
set +e
capped_out=$(timeout 30 ./target/release/smo diagnose "$graph_ckt" --cycle-time 50)
capped_rc=$?
set -e
if [ "$capped_rc" -ne 1 ]; then
  echo "smo diagnose --cycle-time 50: expected exit code 1, got $capped_rc" >&2
  exit 1
fi
printf '%s\n' "$capped_out" | grep -q "(Farkas-certified)"
analyze_out=$(timeout 30 ./target/release/smo analyze "$graph_ckt")
printf '%s\n' "$analyze_out" | grep -q "certified optimal"
rm -f "$graph_ckt"

echo "==> shape-corpus scaling gate (wide, deep, fan-in 8, four phases; 25k vs 50k latches)"
# Doubling the latches of any generated shape may at most scale a
# command's best-of-5 wall time by 2.6 where it takes 0.2 s or more: no
# superlinear cliff on a legal netlist. The n and 2n runs alternate.
./shape_gate.sh ./target/release/smo

echo "==> 200k mindelay lines over 200k parallel paths: parsed in one indexed pass"
# Every `mindelay` line resolves against one (from, to) index of the
# edges, so this 6 MB netlist parses in well under a second; matching
# each line against every edge instead would take about a minute.
mindelay_ckt=$(mktemp --suffix=.ckt)
{
  printf 'clock 2\nlatch A phase=1 setup=1 dq=2\nlatch B phase=2 setup=1 dq=2\n'
  # `yes` dies of SIGPIPE when `head` is done; only `head` must succeed.
  { yes 'path A B delay=5' || true; } | head -n 200000
  { yes 'mindelay A B 1' || true; } | head -n 200000
} > "$mindelay_ckt"
timeout 20 ./target/release/smo solve "$mindelay_ckt" --max-input-mb 64 --json \
  | grep '"certified":true' > /dev/null
rm -f "$mindelay_ckt"

echo "CI OK"
