#!/usr/bin/env bash
# Full correctness gate: ASan/UBSan build + the whole test suite.
#
#   scripts/check.sh            # sanitized build in build-asan/, then ctest
#   scripts/check.sh --fast     # also run the fig/ablation benches (fast
#                               # mode) under the sanitizers afterwards
#
# The plain (RelWithDebInfo) build is what `cmake -B build` gives you; this
# script exists so "did I break anything?" is one command with memory and
# UB checking on.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build-asan
JOBS=$(nproc 2>/dev/null || echo 4)

# Lint gate first: dpulint (the token-aware analyzer, DESIGN.md §14) runs
# in seconds and catches whole bug classes (wall-clock in the model, raw
# control-plane posts, dropped or un-[[nodiscard]] Status, layering
# inversions) before the expensive sanitized build starts. The plain build/
# tree is configured ONCE here and reused for dpulint, lint-tidy, and the
# compile database — no reconfiguring per stage.
echo "== lint gate =="
cmake -B build -S . > /dev/null
cmake --build build -t dpulint -j "$JOBS" > /dev/null
build/tools/dpulint/dpulint --root . --self-test
build/tools/dpulint/dpulint --root . --json-out build/dpulint.json
if command -v clang-tidy > /dev/null 2>&1; then
  echo "== clang-tidy (curated checks) =="
  cmake --build build -t lint-tidy
else
  echo "== clang-tidy not installed; skipping tidy pass =="
fi

cmake -B "$BUILD_DIR" -S . -DDPU_SANITIZE=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# The fault-injection suite is the one place drop/dup/delay recovery paths
# (retransmit timers, sequence headers, dup suppression) execute; run it as
# its own sanitized pass so a fault-path memory bug can never hide behind a
# parallel ctest summary.
echo "== fault-injection suite (sanitized) =="
"$BUILD_DIR"/tests/fault_test

# Same treatment for the proxy failure model: crash/hang injection, the
# heartbeat monitor, and the host-fallback replay allocate and tear down
# state on paths no clean run touches — run them under ASan/UBSan explicitly.
echo "== proxy-failover suite (sanitized) =="
"$BUILD_DIR"/tests/failover_test

# The segmented data path (chunked pipelining + striping) shares countdown
# state across workers and replays chunks over the failover machinery; run
# its suite sanitized, then smoke the sweep bench so the striped issue loop,
# sibling delegation, and FIN aggregation all execute under ASan/UBSan.
echo "== stripe suite (sanitized) =="
"$BUILD_DIR"/tests/stripe_test
echo "== ablation_pipeline smoke (fast mode, sanitized) =="
DPU_BENCH_FAST=1 "$BUILD_DIR"/bench/ablation_pipeline > /dev/null

# Scale smoke: a 256-rank striped alltoall over the fat-tree fabric runs the
# calendar-queue hot path (hundreds of thousands of near-horizon events) and
# the d-mod-k core under ASan/UBSan. The full 4096-rank run lives in ctest as
# scale_alltoall_budget with a wall-clock ceiling; here the point is memory
# and UB coverage of the scaled-up shape, so small ranks are enough.
echo "== scale_alltoall smoke (sanitized) =="
"$BUILD_DIR"/bench/scale_alltoall --smoke > /dev/null

# Multi-tenant suite + pool smoke: admission rejection, fair-queue picks
# between tenants and finalize-time pruning while another tenant still runs
# are paths single-tenant runs never take — run the suite and a small
# tenant-count sweep under ASan/UBSan explicitly.
echo "== multi-tenant suite (sanitized) =="
"$BUILD_DIR"/tests/tenant_test
echo "== ablation_tenants smoke (sanitized) =="
"$BUILD_DIR"/bench/ablation_tenants --smoke > /dev/null

# Tie-shuffle smoke: replay the protocol regimes over a small seed matrix
# (sanitized) so a schedule race — an outcome that depends on same-virtual-
# time dispatch order — fails the gate, not just the nightly full matrix.
echo "== tie-shuffle determinism smoke (fast mode, sanitized) =="
DPU_BENCH_FAST=1 "$BUILD_DIR"/bench/ablation_determinism > /dev/null

if [[ "${1:-}" == "--fast" ]]; then
  echo "== fig/ablation benches (fast mode, sanitized) =="
  for b in "$BUILD_DIR"/bench/fig* "$BUILD_DIR"/bench/ablation_*; do
    [[ -x "$b" ]] || continue
    echo "-- $b"
    DPU_BENCH_FAST=1 "$b" > /dev/null
  done
fi

echo "check.sh: all green"
