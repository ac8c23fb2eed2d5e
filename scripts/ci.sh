#!/usr/bin/env bash
# CI gate: lint, build and test the plain configuration, then rebuild with
# AddressSanitizer + UBSan and with ThreadSanitizer. Any warning (builds are
# -Werror), lint finding, test failure, or sanitizer report fails the script.
#
#   scripts/ci.sh [jobs]
set -euo pipefail

JOBS=${1:-$(nproc)}
cd "$(dirname "$0")/.."

echo "== lint (whole-program: call-graph reachability / dataflow) =="
cmake -B build -S .
cmake --build build --target uvmsim_lint -j"$JOBS"
./build/tools/uvmsim_lint --list-rules > /dev/null
# Project pass before anything else builds: per-file rules plus call-graph
# reachability and the dataflow rules. Each run lexes, indexes and analyzes
# every file from scratch, and any finding fails it. The pass must also stay
# interactive: 15 s is far above the 0.2 s it takes on a 4-vCPU host, so
# the budget catches pathological regressions, not noise.
LINT_T0=$(date +%s)
./build/tools/uvmsim_lint --project --root . src bench tools
LINT_T1=$(date +%s)
LINT_SECS=$((LINT_T1 - LINT_T0))
if [ "$LINT_SECS" -gt 15 ]; then
  echo "lint budget FAILED: ${LINT_SECS}s > 15s"; exit 1
fi
echo "lint project pass: ${LINT_SECS}s (budget 15s)"
# Self-check: the linter must still reject a known-bad fixture...
if ./build/tools/uvmsim_lint tests/lint_fixtures/banned_random_bad.cpp \
    > /dev/null 2>&1; then
  echo "lint self-check FAILED: bad fixture not flagged"; exit 1
fi
echo "lint self-check: bad fixture rejected"
# ...and its JSON output must be machine-readable.
if command -v python3 >/dev/null 2>&1; then
  # `|| true`: exit 1 (findings present) is expected here; only the JSON
  # shape is under test.
  (./build/tools/uvmsim_lint --json tests/lint_fixtures/banned_random_bad.cpp \
    || true) \
    | python3 -m json.tool > /dev/null || { echo "lint JSON invalid"; exit 1; }
  echo "lint JSON parses"
fi

echo "== plain build =="
cmake --build build -j"$JOBS"
ctest --test-dir build -j"$JOBS" --output-on-failure

echo "== clang-tidy (best effort) =="
if command -v clang-tidy >/dev/null 2>&1; then
  # Advisory: report generic bug patterns without failing CI; the enforced
  # project invariants live in uvmsim_lint above.
  clang-tidy -p build --quiet \
    src/sim/event_queue.cpp src/mem/page_mask.cpp src/uvm/fault_batch.cpp \
    src/uvm/service.cpp src/sim/trace.cpp 2>/dev/null || true
  echo "clang-tidy ran (advisory)"
else
  echo "clang-tidy unavailable; skipped"
fi

echo "== traced bench run (Chrome trace JSON must parse) =="
TRACE_OUT=$(mktemp /tmp/uvmsim-trace.XXXXXX.json)
UVMSIM_FAST=1 ./build/bench/fig03_fault_cost_breakdown --trace-out "$TRACE_OUT"
test -s "$TRACE_OUT"
grep -q '"traceEvents":\[' "$TRACE_OUT"
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "$TRACE_OUT" > /dev/null
  echo "trace JSON parses"
else
  echo "python3 unavailable; skipped JSON parse check"
fi
rm -f "$TRACE_OUT"

echo "== sweep determinism (UVMSIM_THREADS=1 vs 4 stdout must match) =="
SWEEP_BENCHES=(fig09_oversub_breakdown fig10_sgemm_oversub_rate
               abl1_threshold_sweep abl2_batch_size table2_sgemm_fault_scaling
               fig_policy_crossover)
SWEEP_TMP=$(mktemp -d /tmp/uvmsim-sweep.XXXXXX)
for b in "${SWEEP_BENCHES[@]}"; do
  UVMSIM_FAST=1 UVMSIM_THREADS=1 "./build/bench/$b" > "$SWEEP_TMP/$b.t1.txt"
  UVMSIM_FAST=1 UVMSIM_THREADS=4 "./build/bench/$b" > "$SWEEP_TMP/$b.t4.txt"
  diff -u "$SWEEP_TMP/$b.t1.txt" "$SWEEP_TMP/$b.t4.txt" > /dev/null \
    || { echo "sweep determinism FAILED for $b"; exit 1; }
  echo "$b: byte-identical"
done
rm -rf "$SWEEP_TMP"

echo "== bench output drift (default-size stdout vs results/) =="
# Every bench target in bench/CMakeLists.txt must print exactly its committed
# results/<bench>.txt at default size; a missing file or any diff fails.
# fig_full_scale is exempt (about a minute at default size); the stage below
# pins its FAST-mode digest instead.
DRIFT_TMP=$(mktemp -d /tmp/uvmsim-drift.XXXXXX)
for b in $(sed -n 's/^uvmsim_bench(\(.*\))$/\1/p' bench/CMakeLists.txt); do
  [ "$b" = fig_full_scale ] && continue
  [ -f "results/$b.txt" ] \
    || { echo "bench drift FAILED: results/$b.txt missing"; exit 1; }
  env -u UVMSIM_FAST -u UVMSIM_GPU_MIB UVMSIM_THREADS=4 "./build/bench/$b" \
    > "$DRIFT_TMP/$b.txt"
  diff -u "results/$b.txt" "$DRIFT_TMP/$b.txt" \
    || { echo "bench drift FAILED: $b differs from results/$b.txt"; exit 1; }
done
echo "every bench matches results/"
rm -rf "$DRIFT_TMP"

echo "== full-scale smoke determinism (--full-scale, THREADS=1 vs 4) =="
# The --full-scale preset (Titan V: 80 SMs, 12 GB PMA) at a CI-sized
# footprint: the explicit size flags override the preset's capacities while
# keeping the full-scale machinery (SM count, lanes-from-env) engaged.
# Servicing lanes must never change a single output byte.
FS_TMP=$(mktemp -d /tmp/uvmsim-fullscale.XXXXXX)
FS_FLAGS=(--full-scale --gpu-mib 96 --size-mib 128 --csv)
UVMSIM_THREADS=1 ./build/tools/uvmsim_cli "${FS_FLAGS[@]}" > "$FS_TMP/t1.txt"
UVMSIM_THREADS=4 ./build/tools/uvmsim_cli "${FS_FLAGS[@]}" > "$FS_TMP/t4.txt"
diff -u "$FS_TMP/t1.txt" "$FS_TMP/t4.txt" > /dev/null \
  || { echo "full-scale determinism FAILED (lanes changed output)"; exit 1; }
echo "uvmsim_cli --full-scale: byte-identical at 1 and 4 lanes"
# fig_full_scale re-checks the same contract via result digests (it exits
# nonzero if the serial and laned digests differ) and pins the digest itself:
# 341 MiB random working set on a 256 MiB GPU, both paths.
FS_DIGEST=df6bf0580f1d1f20
UVMSIM_FAST=1 UVMSIM_THREADS=4 ./build/bench/fig_full_scale > "$FS_TMP/fig.txt" \
  || { echo "fig_full_scale determinism FAILED"; cat "$FS_TMP/fig.txt"; exit 1; }
[ "$(grep -cE "^ *(serial|lanes=[0-9]+) .* $FS_DIGEST\$" "$FS_TMP/fig.txt")" -eq 2 ] \
  || { echo "fig_full_scale digest pin FAILED (want $FS_DIGEST on both paths)"
       cat "$FS_TMP/fig.txt"; exit 1; }
echo "fig_full_scale: digest $FS_DIGEST on the serial and laned paths"
rm -rf "$FS_TMP"

echo "== paper-shape gate (fig01 claim 4 / fig09 prefetch verdict / Table I) =="
# shape_check prints [SHAPE PASS]/[SHAPE FAIL] without affecting the exit
# code, so the gate greps stdout. fig01/fig09: prefetching must aggravate
# deep-oversubscribed random performance. Table I: its two §IV-C claims
# about the paper's eight applications.
SHAPE_TMP=$(mktemp -d /tmp/uvmsim-shape.XXXXXX)
UVMSIM_FAST=1 ./build/bench/fig01_uvm_vs_explicit > "$SHAPE_TMP/fig01.txt"
UVMSIM_FAST=1 ./build/bench/fig09_oversub_breakdown > "$SHAPE_TMP/fig09.txt"
UVMSIM_FAST=1 ./build/bench/table1_fault_reduction > "$SHAPE_TMP/table1.txt"
grep -q '^\[SHAPE PASS\] (random) prefetching aggravates deep oversubscription' \
  "$SHAPE_TMP/fig01.txt" \
  || { echo "shape gate FAILED: fig01 claim 4"; cat "$SHAPE_TMP/fig01.txt"; exit 1; }
grep -q '^\[SHAPE PASS\] disabling prefetching improves oversubscribed performance' \
  "$SHAPE_TMP/fig09.txt" \
  || { echo "shape gate FAILED: fig09 prefetch verdict"; cat "$SHAPE_TMP/fig09.txt"; exit 1; }
grep -q '^\[SHAPE PASS\] every Table I application sees substantial fault reduction' \
  "$SHAPE_TMP/table1.txt" \
  || { echo "shape gate FAILED: Table I reduction"; cat "$SHAPE_TMP/table1.txt"; exit 1; }
grep -q '^\[SHAPE PASS\] random coverage beats regular' "$SHAPE_TMP/table1.txt" \
  || { echo "shape gate FAILED: Table I random vs regular"; cat "$SHAPE_TMP/table1.txt"; exit 1; }
if grep -h '^\[SHAPE FAIL\]' "$SHAPE_TMP"/fig01.txt "$SHAPE_TMP"/fig09.txt \
    "$SHAPE_TMP"/table1.txt; then
  echo "shape gate FAILED: unexpected [SHAPE FAIL] above"; exit 1
fi
echo "shape gate: fig01 + fig09 + table1 all green"
rm -rf "$SHAPE_TMP"

echo "== backend-crossover shape gate (driver vs GPU-driven servicing) =="
# The ServicingBackend seam must show both sides of the trade: batching
# wins dense sequential access, per-fault GPU-side resolution wins sparse
# oversubscribed access.
XOVER_TMP=$(mktemp /tmp/uvmsim-xover.XXXXXX)
UVMSIM_FAST=1 ./build/bench/fig_backend_crossover > "$XOVER_TMP"
grep -q '^\[SHAPE PASS\] dense sequential access favors the batching driver' \
  "$XOVER_TMP" \
  || { echo "shape gate FAILED: crossover dense claim"; cat "$XOVER_TMP"; exit 1; }
grep -q '^\[SHAPE PASS\] sparse oversubscribed access favors GPU-driven paging' \
  "$XOVER_TMP" \
  || { echo "shape gate FAILED: crossover sparse claim"; cat "$XOVER_TMP"; exit 1; }
if grep '^\[SHAPE FAIL\]' "$XOVER_TMP"; then
  echo "shape gate FAILED: unexpected [SHAPE FAIL] above"; exit 1
fi
echo "backend-crossover gate: green"
rm -f "$XOVER_TMP"

echo "== policy-crossover shape gate (learned vs tree vs off, PR 10) =="
# The learned-prefetcher payoff: at deep oversubscription on the strided
# pattern, prefetch-off must beat the tree (the PR-5 regime) AND the markov
# predictor must beat both. The binary itself exits nonzero if the
# markov+clock run is not byte-identical at 1 vs 4 servicing lanes, so a
# bare failure here is also the determinism gate tripping.
POLICY_TMP=$(mktemp /tmp/uvmsim-policy.XXXXXX)
UVMSIM_FAST=1 ./build/bench/fig_policy_crossover > "$POLICY_TMP" \
  || { echo "policy crossover FAILED (lane determinism)"; cat "$POLICY_TMP"; exit 1; }
grep -q '^\[SHAPE PASS\] strided oversubscription reproduces PR 5' \
  "$POLICY_TMP" \
  || { echo "shape gate FAILED: off-beats-tree claim"; cat "$POLICY_TMP"; exit 1; }
grep -q '^\[SHAPE PASS\] the learned predictor beats BOTH' "$POLICY_TMP" \
  || { echo "shape gate FAILED: learned-beats-both claim"; cat "$POLICY_TMP"; exit 1; }
grep -q '^\[SHAPE PASS\] eviction choice shifts victim order' "$POLICY_TMP" \
  || { echo "shape gate FAILED: eviction-panel claim"; cat "$POLICY_TMP"; exit 1; }
if grep '^\[SHAPE FAIL\]' "$POLICY_TMP"; then
  echo "shape gate FAILED: unexpected [SHAPE FAIL] above"; exit 1
fi
echo "policy-crossover gate: green"
rm -f "$POLICY_TMP"

echo "== policy-panel CLI determinism (markov + clock/2q, legacy prefetch spellings; THREADS 1 vs 4) =="
PP_TMP=$(mktemp -d /tmp/uvmsim-policypanel.XXXXXX)
for ev in clock 2q; do
  PP_FLAGS=(--workload strided --size-mib 96 --gpu-mib 64
            --prefetch-policy markov --eviction "$ev" --csv)
  UVMSIM_THREADS=1 ./build/tools/uvmsim_cli "${PP_FLAGS[@]}" > "$PP_TMP/t1.txt"
  UVMSIM_THREADS=4 ./build/tools/uvmsim_cli "${PP_FLAGS[@]}" > "$PP_TMP/t4.txt"
  diff -u "$PP_TMP/t1.txt" "$PP_TMP/t4.txt" > /dev/null \
    || { echo "policy-panel determinism FAILED (eviction=$ev)"; exit 1; }
  echo "uvmsim_cli markov+$ev: byte-identical at 1 and 4 lanes"
done
# Legacy prefetch spellings must print exactly what their single-axis
# equivalents print, at every lane count.
PP_BASE=(--workload strided --size-mib 96 --gpu-mib 64 --eviction clock --csv)
for pair in "--prefetch on --prefetch-policy markov|--prefetch markov" \
            "--prefetch on|--prefetch tree"; do
  IFS='|' read -r -a PP_PAIR <<< "$pair"
  read -r -a PP_LEGACY <<< "${PP_PAIR[0]}"
  read -r -a PP_NEW <<< "${PP_PAIR[1]}"
  for th in 1 4; do
    UVMSIM_THREADS=$th ./build/tools/uvmsim_cli "${PP_BASE[@]}" \
      "${PP_LEGACY[@]}" > "$PP_TMP/legacy.txt"
    UVMSIM_THREADS=$th ./build/tools/uvmsim_cli "${PP_BASE[@]}" \
      "${PP_NEW[@]}" > "$PP_TMP/new.txt"
    diff -u "$PP_TMP/legacy.txt" "$PP_TMP/new.txt" > /dev/null \
      || { echo "prefetch spelling diff FAILED (${PP_PAIR[0]} vs" \
                "${PP_PAIR[1]}, THREADS=$th)"; exit 1; }
  done
  echo "uvmsim_cli ${PP_PAIR[0]} == ${PP_PAIR[1]} at 1 and 4 lanes"
done
rm -rf "$PP_TMP"

echo "== perf gate (uvmbench end-to-end metrics vs scripts/perf_baseline.json) =="
# Builds uvmbench into .bench_build/ and runs every BENCHMARK.json workload
# for 5 s at a pinned seed. Fails on a nonzero exit, an incorrect run or a
# failed run (digest drift included), or a metric worse than the committed
# baseline by more than its BENCHMARK.json bound. Then uvmbench's own tests.
python3 scripts/perf_gate.py
cmake --build .bench_build -j"$JOBS"
ctest --test-dir .bench_build --output-on-failure

echo "== campaign kill-and-resume smoke (SIGKILL x resume determinism) =="
scripts/campaign_smoke.sh build

echo "== sanitized build (ASan + UBSan) =="
cmake -B build-asan -S . -DUVMSIM_SANITIZE=address
cmake --build build-asan -j"$JOBS"
ctest --test-dir build-asan -j"$JOBS" --output-on-failure

echo "== sanitized build (TSan: lanes label + sweep harness) =="
cmake -B build-tsan -S . -DUVMSIM_SANITIZE=thread
cmake --build build-tsan -j"$JOBS" \
  --target thread_pool_test fault_batch_test prefetcher_test \
           backend_parity_test markov_prefetcher_test sweep_runner_test \
           fig09_oversub_breakdown fig_full_scale
# The "lanes" label covers the intra-run parallel servicing path: lane
# partitioning/reduction, sharded fault binning, plan precompute parity,
# and backend byte-identity at service_lanes in {1,2,4}.
ctest --test-dir build-tsan -L lanes -j"$JOBS" --output-on-failure
./build-tsan/tests/sweep_runner_test
UVMSIM_FAST=1 UVMSIM_THREADS=4 ./build-tsan/bench/fig09_oversub_breakdown \
  > /dev/null
# Laned full-scale servicing end to end under TSan (tiny footprint).
UVMSIM_FAST=1 UVMSIM_GPU_MIB=64 UVMSIM_THREADS=4 \
  ./build-tsan/bench/fig_full_scale > /dev/null
echo "tsan suite: clean"

echo "== ci: all green =="
