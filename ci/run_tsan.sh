#!/usr/bin/env bash
# ThreadSanitizer job for the parallel hot paths.
#
# Configures a dedicated build tree with -DDGNN_SANITIZE=thread, builds the
# thread-pool and equivalence suites plus the serving suite (which has the
# concurrent-readers test), and runs them under CTest. Any data race makes
# TSan abort the test, so a green run certifies the pool and every
# ParallelFor call site race-free.
#
# Usage: ci/run_tsan.sh [build-dir]   (default: build-tsan)
#
# DGNN_SANITIZE=address works the same way for an ASan job:
#   cmake -B build-asan -S . -DDGNN_SANITIZE=address

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDGNN_SANITIZE=thread

cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target thread_pool_test parallel_equivalence_test serving_test \
           telemetry_test failure_test run_log_test diagnostics_test \
           serve_engine_test serve_snapshot_test failpoint_test \
           resume_test serve_trace_test kernel_parity_test \
           observability_test quant_test ivf_test shard_test \
           shard_router_test protocol_test

# halt_on_error: fail fast on the first race instead of drowning in reports.
# telemetry_test has the concurrent-increment test (8 threads hammering one
# counter/histogram/timer plus the span buffer); failure_test exercises the
# sampler fallback and checkpoint staging paths; run_log_test hammers the
# run-log writer from 8 threads (every line must stay valid JSON);
# diagnostics_test covers the check-numerics flag read by every tape op;
# serve_engine_test runs hot snapshot swaps under 8 concurrent reader
# threads plus concurrent callers against the in-flight bound;
# failpoint_test hammers the injection registry from concurrent threads
# (the 1in<n> determinism contract is exactly a race-freedom claim);
# resume_test
# checks kill/resume bit-identity across thread counts; serve_trace_test
# replays the same trace at 1/2/4 workers and requires the re-recorded
# bytes bit-identical (open-loop replay race-freedom claim);
# kernel_parity_test runs every dispatched SIMD variant across thread
# counts 1/2/7 (row-blocked GEMM/SpMM chunks must write disjoint ranges
# on every ISA); observability_test hammers the per-request trace sink
# and windowed-stats sampler from concurrent client threads (trace-id
# uniqueness and stage-histogram recording are lock-free claims);
# quant_test exercises the quantized dot kernels across thread counts
# and forced ISAs; ivf_test runs k-means index builds at thread counts
# 1/7 and requires bit-identical serialized bytes (the disjoint-slot
# assignment-scan claim); shard_router_test runs a live 3-worker fleet
# with a multi-threaded router (the probe loop, concurrent shedding
# clients, each dispatching and hedging on its own thread) against
# SocketServer's per-connection threads, and connect/close cycles that
# make SocketServer reap ended connection threads — the widest
# cross-thread surface in the repo;
# shard_test covers the shard ring and slice partitioning used by it;
# protocol_test drives a burst of concurrent backend calls through the
# shared NDJSON protocol module.
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R 'thread_pool_test|parallel_equivalence_test|serving_test|telemetry_test|failure_test|run_log_test|diagnostics_test|serve_engine_test|serve_snapshot_test|failpoint_test|resume_test|serve_trace_test|kernel_parity_test|observability_test|quant_test|ivf_test|shard_test|shard_router_test|protocol_test'

echo "TSan job passed: no data races detected."
