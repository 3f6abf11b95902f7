#!/usr/bin/env bash
# Kernel-dispatch gate: prove every compiled SIMD level of the kernel
# layer (src/kernels/) is safe to ship on this host.
#
#   1. `dgnn_inspect kernels` reports the dispatch state; its
#      "available:" line decides which DGNN_SIMD values to sweep (plus
#      "off", which must always work).
#   2. kernel_parity_test runs once per level with DGNN_SIMD forced.
#      The suite checks every dispatched kernel against the scalar
#      reference bit for bit (memcmp), across transpose combos, ragged
#      shapes and thread counts 1/2/7 — so a green sweep means output
#      cannot depend on the CPU the binary landed on.
#   3. Whole models: DGNN, DGCF and HGT train 2 epochs on the tiny
#      preset at DGNN_SIMD=off and at each available level, and every
#      saved parameter file must be byte-identical (cmp) to the off one.
#   4. Forcing an unavailable level must FAIL loudly (the dispatcher
#      aborts rather than silently falling back): a request for a
#      specific ISA that cannot be honored is a deployment error.
#   5. bench_micro_kernels smoke: the GEMM/SpMM kernel sweeps must run
#      to completion at the forced-off and auto levels (one iteration
#      each — this checks the measurement pipeline, not throughput).
#   6. Every committed trajectory point under bench/trajectory/ must
#      still validate via `dgnn_inspect bench`, so kernel changes can
#      never rot the published serving trajectory.
#
# Usage: ci/check_kernels.sh [build-dir]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
PARITY="$BUILD_DIR/tests/kernel_parity_test"
MICRO="$BUILD_DIR/bench/bench_micro_kernels"
INSPECT="$BUILD_DIR/examples/dgnn_inspect"
CLI="$BUILD_DIR/examples/dgnn_cli"

if [[ ! -x "$PARITY" || ! -x "$MICRO" || ! -x "$INSPECT" || ! -x "$CLI" ]]
then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j"$(nproc)" \
    --target kernel_parity_test bench_micro_kernels dgnn_inspect dgnn_cli
fi

# ---- dispatch state --------------------------------------------------------
"$INSPECT" kernels
AVAILABLE="$("$INSPECT" kernels | sed -n 's/^available: //p')"
if [[ -z "$AVAILABLE" ]]; then
  echo "check_kernels: dgnn_inspect kernels reported no available ISAs" >&2
  exit 1
fi

# ---- parity sweep: scalar reference vs every available level ---------------
for level in off $AVAILABLE; do
  echo "check_kernels: parity suite with DGNN_SIMD=$level"
  DGNN_SIMD="$level" "$PARITY" --gtest_brief=1 || {
    echo "check_kernels: parity suite failed at DGNN_SIMD=$level" >&2
    exit 1
  }
done
echo "check_kernels: parity green at: off $AVAILABLE"

# ---- whole models: trained parameters identical at every level -------------
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
"$CLI" --mode=generate --data_dir="$WORK" --preset=tiny > /dev/null
for model in DGNN DGCF HGT; do
  for level in off $AVAILABLE; do
    DGNN_SIMD="$level" "$CLI" --mode=train --data_dir="$WORK" \
      --model="$model" --epochs=2 --params="$WORK/$model.$level.bin" \
      > /dev/null
  done
  for level in $AVAILABLE; do
    cmp -s "$WORK/$model.off.bin" "$WORK/$model.$level.bin" || {
      echo "check_kernels: $model parameters at DGNN_SIMD=$level differ" \
           "from DGNN_SIMD=off" >&2
      exit 1
    }
  done
done
echo "check_kernels: DGNN/DGCF/HGT parameters identical at: off $AVAILABLE"

# ---- forcing an unavailable level must abort, not fall back ----------------
for level in avx2 neon; do
  if [[ " $AVAILABLE " == *" $level "* ]]; then continue; fi
  rc=0
  DGNN_SIMD="$level" "$INSPECT" kernels > /dev/null 2>&1 || rc=$?
  if [[ "$rc" -eq 0 ]]; then
    echo "check_kernels: DGNN_SIMD=$level unavailable but did not fail" >&2
    exit 1
  fi
  echo "check_kernels: DGNN_SIMD=$level correctly rejected (unavailable)"
done

# ---- micro-kernel smoke ----------------------------------------------------
for level in off ""; do
  DGNN_SIMD="$level" "$MICRO" \
    --benchmark_filter='BM_(GemmKernel|SpmmKernel)' \
    --benchmark_min_time=0.01 > /dev/null || {
    echo "check_kernels: bench_micro_kernels smoke failed" \
         "(DGNN_SIMD='${level:-auto}')" >&2
    exit 1
  }
done
echo "check_kernels: bench_micro_kernels GEMM/SpMM smoke ok"

# ---- the published trajectory must keep validating -------------------------
shopt -s nullglob
for point in bench/trajectory/*.json; do
  "$INSPECT" bench "$point" || {
    echo "check_kernels: committed trajectory point $point is invalid" >&2
    exit 1
  }
done
echo "check_kernels: committed trajectory points valid"

echo "Kernel check passed."
