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
#   4. Serving: the trained DGNN is exported as an fp32 snapshot and as
#      an int8 + IVF one, dgnn_serve answers one fixed request file
#      (topk, similar_users and score over every user) on each at
#      DGNN_SIMD=off and at each available level, and every answer file
#      must be byte-identical (cmp) to the off one — the candidate scans
#      (ScoreRows, ScoreRowsQ8) keep the per-row reference chain in
#      every lane.
#   5. Forcing an unavailable level must FAIL loudly (the dispatcher
#      aborts rather than silently falling back): a request for a
#      specific ISA that cannot be honored is a deployment error.
#   6. bench_micro_kernels smoke: the GEMM/SpMM kernel sweeps and the
#      candidate scans must run to completion at the forced-off and auto
#      levels (one iteration each — this checks the measurement
#      pipeline, not throughput).
#   7. Every committed trajectory point under bench/trajectory/ must
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
SERVE="$BUILD_DIR/examples/dgnn_serve"

if [[ ! -x "$PARITY" || ! -x "$MICRO" || ! -x "$INSPECT" || ! -x "$CLI" ||
      ! -x "$SERVE" ]]
then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j"$(nproc)" \
    --target kernel_parity_test bench_micro_kernels dgnn_inspect dgnn_cli \
    dgnn_serve
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

# ---- serving: every answer identical at every level ------------------------
"$CLI" --mode=export --data_dir="$WORK" --params="$WORK/DGNN.off.bin" \
  --snapshot="$WORK/fp32.snap" > /dev/null
"$CLI" --mode=export --data_dir="$WORK" --params="$WORK/DGNN.off.bin" \
  --snapshot="$WORK/q8_ivf.snap" --quant=int8 --index --clusters=16 \
  > /dev/null
USERS="$(cut -f2 "$WORK/meta.tsv")"
ITEMS="$(cut -f3 "$WORK/meta.tsv")"
for ((u = 0; u < USERS; u++)); do
  for k in 1 10 $((ITEMS + 5)); do
    echo "{\"op\":\"topk\",\"user\":$u,\"k\":$k}"
  done
  for k in 3 $((USERS + 5)); do
    echo "{\"op\":\"similar_users\",\"user\":$u,\"k\":$k}"
  done
  echo "{\"op\":\"score\",\"user\":$u,\"item\":$((u * 7 % ITEMS))}"
done > "$WORK/requests.ndjson"
echo '{"op":"quit"}' >> "$WORK/requests.ndjson"
for snap in fp32 q8_ivf; do
  for level in off $AVAILABLE; do
    # --rerank=1 keeps the int8 shortlist at k, so the quantized scan
    # scores decide which candidates reach the exact rerank.
    DGNN_SIMD="$level" "$SERVE" --snapshot="$WORK/$snap.snap" --nprobe=4 \
      --rerank=1 < "$WORK/requests.ndjson" > "$WORK/answers.$snap.$level" \
      2> /dev/null
  done
  for level in $AVAILABLE; do
    cmp -s "$WORK/answers.$snap.off" "$WORK/answers.$snap.$level" || {
      echo "check_kernels: $snap serving answers at DGNN_SIMD=$level differ" \
           "from DGNN_SIMD=off" >&2
      exit 1
    }
  done
done
echo "check_kernels: fp32 and int8+IVF serving answers identical at:" \
     "off $AVAILABLE"

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
    --benchmark_filter='BM_(GemmKernel|SpmmKernel|ScoreRows)' \
    --benchmark_min_time=0.01 > /dev/null || {
    echo "check_kernels: bench_micro_kernels smoke failed" \
         "(DGNN_SIMD='${level:-auto}')" >&2
    exit 1
  }
done
echo "check_kernels: bench_micro_kernels GEMM/SpMM/ScoreRows smoke ok"

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
