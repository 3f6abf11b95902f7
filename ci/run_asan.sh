#!/usr/bin/env bash
# AddressSanitizer job over the whole test suite.
#
# Configures a dedicated build tree with -DDGNN_SANITIZE=address, builds
# every target and runs the whole ctest suite with LeakSanitizer on. An
# out-of-bounds access, a use after free or a double free aborts its
# test, and memory still allocated and unreachable at exit fails it, so
# a green run certifies the suite free of them on the paths it
# exercises, the readers of untrusted bytes (snapshots, traces,
# checkpoints, the NDJSON protocol and the shard wire) included.
#
# Usage: ci/run_asan.sh [build-dir]   (default: build-asan)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDGNN_SANITIZE=address

cmake --build "$BUILD_DIR" -j"$(nproc)"

# detect_leaks=1 is LeakSanitizer's default on x86-64 Linux; it is spelled
# out so the job keeps checking leaks wherever it runs.
ASAN_OPTIONS="detect_leaks=1" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure

echo "ASan job passed: no memory error or leak reported."
