#!/usr/bin/env bash
# UndefinedBehaviorSanitizer job over the whole test suite.
#
# Configures a dedicated build tree with -DDGNN_SANITIZE=undefined, which
# compiles with -fsanitize=undefined -fno-sanitize-recover=undefined, so
# the first report (signed overflow, an out-of-range float cast, a
# misaligned or null access, a bad shift) aborts its test. Builds every
# target and runs the whole ctest suite: a green run certifies the suite
# free of undefined behaviour on the paths it exercises, the readers of
# untrusted bytes (snapshots, traces, checkpoints, the NDJSON protocol)
# included.
#
# Usage: ci/run_ubsan.sh [build-dir]   (default: build-ubsan)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-ubsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDGNN_SANITIZE=undefined

cmake --build "$BUILD_DIR" -j"$(nproc)"

# print_stacktrace: name the frame that went wrong in the test log.
UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure

echo "UBSan job passed: no undefined behaviour reported."
