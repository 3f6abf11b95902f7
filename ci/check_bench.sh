#!/usr/bin/env bash
# Bench gate: run one small open-loop serving point per PR, validate the
# machine-readable BENCH_serve.json it emits, and archive it.
#
#   1. bench_serve_load runs an open-loop (Poisson arrival) point at a
#      modest rate against the tiny preset and writes BENCH_serve.json.
#   2. dgnn_inspect bench validates the JSON: schema version, required
#      per-point fields, quantile ordering p50 <= p95 <= p99, and the
#      outcome-accounting identity ok + shed + expired + failed ==
#      requests. Exit 0 is the only acceptable answer. The same point
#      without its dispatch-lateness quantiles (the older point shape)
#      must validate too.
#   3. A deliberately malformed file must be REJECTED (exit 2) — the
#      validator is only a gate if it can actually fail. So must a point
#      whose lateness p50 exceeds its p99.
#   4. Every committed trajectory point under bench/trajectory/ must
#      still validate, so the published perf trajectory can never rot.
#   5. The fresh JSON is archived under <build-dir>/bench_archive/ with
#      a timestamped name (CI can export it as a run artifact).
#
# The point uses few requests on purpose: this gate checks the
# measurement pipeline, not the machine's absolute throughput. Published
# trajectory points are produced with bench/bench_serve_load directly at
# full scale and committed under bench/trajectory/.
#
# Usage: ci/check_bench.sh [build-dir]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
BENCH="$BUILD_DIR/bench/bench_serve_load"
INSPECT="$BUILD_DIR/examples/dgnn_inspect"

if [[ ! -x "$BENCH" || ! -x "$INSPECT" ]]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j"$(nproc)" \
    --target bench_serve_load dgnn_inspect
fi

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT

# ---- one small open-loop point --------------------------------------------
"$BENCH" --preset=tiny --dim=16 --arrival=poisson --qps=500 \
  --requests=300 --workers=2 --bench-json="$WORK_DIR/BENCH_serve.json"

if [[ ! -s "$WORK_DIR/BENCH_serve.json" ]]; then
  echo "check_bench: bench did not write BENCH_serve.json" >&2
  exit 1
fi

# ---- validator accepts the real file, rejects a malformed one -------------
"$INSPECT" bench "$WORK_DIR/BENCH_serve.json" || {
  echo "check_bench: valid BENCH_serve.json failed validation" >&2
  exit 1
}

# Break the accounting identity (ok + shed + expired + failed == requests)
# rather than the JSON syntax, so the semantic checks are what is tested.
python3 - "$WORK_DIR/BENCH_serve.json" "$WORK_DIR/BENCH_bad.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["points"][0]["ok"] += 1
json.dump(doc, open(sys.argv[2], "w"))
EOF
rc=0
"$INSPECT" bench "$WORK_DIR/BENCH_bad.json" > /dev/null 2>&1 || rc=$?
if [[ "$rc" -ne 2 ]]; then
  echo "check_bench: malformed bench JSON: expected exit 2, got $rc" >&2
  exit 1
fi

# A point written before the dispatch-lateness quantiles existed still
# validates; one whose lateness p50 exceeds its p99 does not.
python3 - "$WORK_DIR/BENCH_serve.json" "$WORK_DIR" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
point = doc["points"][0]
assert "lateness_ms_p50" in point and "lateness_ms_p99" in point, point
old = json.loads(json.dumps(doc))
for key in ("lateness_ms_p50", "lateness_ms_p99"):
    del old["points"][0][key]
json.dump(old, open(sys.argv[2] + "/BENCH_old.json", "w"))
point["lateness_ms_p50"] = point["lateness_ms_p99"] + 1.0
json.dump(doc, open(sys.argv[2] + "/BENCH_late.json", "w"))
EOF
"$INSPECT" bench "$WORK_DIR/BENCH_old.json" > /dev/null || {
  echo "check_bench: point without lateness quantiles failed validation" >&2
  exit 1
}
rc=0
"$INSPECT" bench "$WORK_DIR/BENCH_late.json" > /dev/null 2>&1 || rc=$?
if [[ "$rc" -ne 2 ]]; then
  echo "check_bench: lateness p50 > p99: expected exit 2, got $rc" >&2
  exit 1
fi

# Plain syntax corruption must also be rejected.
printf '{"schema_version": 1, "points": [' > "$WORK_DIR/BENCH_trunc.json"
rc=0
"$INSPECT" bench "$WORK_DIR/BENCH_trunc.json" > /dev/null 2>&1 || rc=$?
if [[ "$rc" -ne 2 ]]; then
  echo "check_bench: truncated bench JSON: expected exit 2, got $rc" >&2
  exit 1
fi
echo "check_bench: validator accepts good JSON, rejects bad"

# ---- the published trajectory must keep validating ------------------------
shopt -s nullglob
for point in bench/trajectory/*.json; do
  "$INSPECT" bench "$point" || {
    echo "check_bench: committed trajectory point $point is invalid" >&2
    exit 1
  }
done
echo "check_bench: committed trajectory points valid"

# ---- archive the fresh point ----------------------------------------------
mkdir -p "$BUILD_DIR/bench_archive"
STAMP="$(date -u +%Y%m%dT%H%M%SZ)"
cp "$WORK_DIR/BENCH_serve.json" \
   "$BUILD_DIR/bench_archive/BENCH_serve_$STAMP.json"
echo "check_bench: archived $BUILD_DIR/bench_archive/BENCH_serve_$STAMP.json"

echo "Bench check passed."
