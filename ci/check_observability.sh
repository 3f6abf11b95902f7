#!/usr/bin/env bash
# Observability gate: the serving observability plane must actually
# observe — stage timings that reconcile with end-to-end latency, trace
# ids that are unique and survive a hot swap, windowed stats that render
# as valid JSON and Prometheus text, and an offline inspector that
# rejects corruption.
#
#   1. bench_serve_load records an open-loop trace and replays it: the
#      point JSON must report distinct_trace_ids == requests, populated
#      stage means, and a stage-mean sum that reconciles with the
#      end-to-end mean (nothing unattributed beyond tolerance).
#   2. A live dgnn_serve session with --stats-out/--request-log at
#      sample rate 1: every response carries a unique trace_id across a
#      mid-stream hot swap; {"op":"stats"} returns the windowed payload;
#      {"op":"stats","format":"prom"} returns Prometheus text whose
#      counters match the JSON snapshot (round-trip by construction).
#   3. The per-request NDJSON log holds one record per request with
#      stage sums bounded by the end-to-end latency.
#   4. dgnn_inspect stats validates the stats JSONL (and renders it);
#      a corrupted line must fail the validation with exit 2.
#
# Usage: ci/check_observability.sh [build-dir]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/examples/dgnn_cli"
SERVE="$BUILD_DIR/examples/dgnn_serve"
INSPECT="$BUILD_DIR/examples/dgnn_inspect"
BENCH="$BUILD_DIR/bench/bench_serve_load"

if [[ ! -x "$CLI" || ! -x "$SERVE" || ! -x "$INSPECT" || ! -x "$BENCH" ]]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j"$(nproc)" \
    --target dgnn_cli dgnn_serve dgnn_inspect bench_serve_load
fi

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT

"$CLI" --mode=generate --data_dir="$WORK_DIR/data" --preset=tiny
"$CLI" --mode=train --data_dir="$WORK_DIR/data" --epochs=2 --batch=128 \
  --params="$WORK_DIR/model.bin" > /dev/null
"$CLI" --mode=export --data_dir="$WORK_DIR/data" \
  --params="$WORK_DIR/model.bin" --snapshot="$WORK_DIR/snap_a.bin" --tag=a
"$CLI" --mode=export --data_dir="$WORK_DIR/data" \
  --params="$WORK_DIR/model.bin" --snapshot="$WORK_DIR/snap_b.bin" --tag=b

# ---- 1. record + replay: stage attribution reconciles ---------------------
"$BENCH" --preset=tiny --arrival=poisson --qps=400 --requests=300 \
  --workers=2 --record-trace="$WORK_DIR/trace.bin" > /dev/null
"$BENCH" --preset=tiny --replay-trace="$WORK_DIR/trace.bin" --workers=2 \
  --bench-json="$WORK_DIR/BENCH_replay.json" > /dev/null

python3 - "$WORK_DIR/BENCH_replay.json" <<'EOF'
import json, sys

point = json.load(open(sys.argv[1]))["points"][0]
n = point["requests"]
assert n == 300, point
assert point["distinct_trace_ids"] == n, \
    f"trace ids not unique: {point['distinct_trace_ids']}/{n}"
stages = [point[k] for k in ("stage_queue_ms_mean", "stage_recal_ms_mean",
                             "stage_compute_ms_mean", "stage_rank_ms_mean",
                             "stage_reply_ms_mean")]
e2e = point["e2e_ms_mean"]
assert e2e > 0, point
assert any(s > 0 for s in stages), f"stage histograms empty: {point}"
total = sum(stages)
# Stages are stamped off the same monotonic clock as the end-to-end
# latency: their sum can never exceed it, and the unattributed residue
# (stamping overhead between stages) must stay small.
assert total <= e2e * 1.001, f"stage sum {total} exceeds e2e {e2e}"
assert total >= 0.5 * e2e, \
    f"stage sum {total} attributes <50% of e2e {e2e}"
print(f"check_observability: replay stage attribution OK "
      f"({total:.4f} of {e2e:.4f} ms mean attributed, "
      f"{point['distinct_trace_ids']} distinct trace ids)")
EOF

# ---- 2+3. live session: trace ids across hot swap, stats json + prom ------
python3 - "$SERVE" "$WORK_DIR" <<'EOF'
import json, re, subprocess, sys, time

serve, work = sys.argv[1], sys.argv[2]
proc = subprocess.Popen(
    [serve, f"--snapshot={work}/snap_a.bin",
     f"--stats-out={work}/stats.jsonl", "--stats-every-s=1",
     f"--request-log={work}/requests.jsonl", "--trace-sample-rate=1",
     "--slo-p99-ms=250", "--slo-availability=0.5"],
    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

def ask(obj):
    proc.stdin.write(json.dumps(obj) + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    assert line, f"no response for {obj} (server died?)"
    return json.loads(line)

# Requests before and after a hot swap: every response must carry a
# trace id, and no id may repeat across the swap.
ids = []
for u in range(10):
    r = ask({"op": "topk", "user": u, "k": 5})
    assert r["ok"], r
    ids.append(r["trace_id"])
r = ask({"op": "swap", "snapshot": f"{work}/snap_b.bin"})
assert r["ok"], r
for u in range(10):
    r = ask({"op": "topk", "user": u, "k": 5})
    assert r["ok"], r
    ids.append(r["trace_id"])
assert len(set(ids)) == len(ids) == 20, f"trace ids not unique: {ids}"

# Let the 1 s sampler tick so the windows are populated.
time.sleep(1.3)

# Windowed stats payload: flat counters plus windows plus slo.
stats = ask({"op": "stats"})
assert stats["ok"] and stats["requests"] == 20, stats
for w in ("1s", "10s", "60s"):
    win = stats["windows"][w]
    for field in ("qps", "availability", "p50_ms", "p95_ms", "p99_ms",
                  "queue_depth"):
        assert isinstance(win[field], (int, float)), (w, field, win)
assert stats["windows"]["60s"]["requests"] == 20, stats["windows"]["60s"]
assert stats["slo"]["p99_ms"] == 250, stats["slo"]
assert stats["slo"]["ticks"] >= 1, stats["slo"]

# Prometheus exposition: every line is a comment or `name{labels} value`,
# and the counters round-trip the JSON snapshot they were rendered from.
prom = ask({"op": "stats", "format": "prom"})
assert prom["ok"], prom
sample_re = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"\})? -?[0-9.eE+-]+$')
samples = {}
for line in prom["text"].rstrip("\n").split("\n"):
    if line.startswith("#"):
        assert line.startswith("# TYPE "), line
        continue
    assert sample_re.match(line), f"bad prom sample line: {line!r}"
    name, value = line.rsplit(" ", 1)
    samples[name] = float(value)
assert samples["dgnn_serve_requests_total"] == stats["requests"]
assert samples["dgnn_serve_snapshot_swaps_total"] == stats["snapshot_swaps"]
assert samples['dgnn_serve_window_qps{window="60s"}'] == \
    stats["windows"]["60s"]["qps"]

r = ask({"op": "quit"})
assert r["ok"], r
assert proc.wait(timeout=30) == 0

# Per-request log: one record per request, unique ids, stage sums bounded
# by the end-to-end latency.
records = [json.loads(l) for l in open(f"{work}/requests.jsonl") if l.strip()]
assert len(records) == 20, f"want 20 trace records, got {len(records)}"
assert len({t["trace_id"] for t in records}) == 20
for t in records:
    stage_sum = (t["queue_s"] + t["recal_s"] + t["compute_s"] +
                 t["rank_s"] + t["reply_s"])
    assert stage_sum <= t["total_s"] * 1.001 + 1e-9, t
    assert t["outcome"] == "ok", t
print("check_observability: live session trace ids + stats + prom OK")
EOF

# ---- 4. offline validation and corrupted-file must-fail -------------------
[[ -s "$WORK_DIR/stats.jsonl" ]] || {
  echo "check_observability: --stats-out wrote nothing" >&2; exit 1; }

"$INSPECT" stats "$WORK_DIR/stats.jsonl" > /dev/null || {
  echo "check_observability: valid stats JSONL failed inspection" >&2
  exit 1
}
# Here-strings, not a pipe into grep -q: under pipefail, grep -q exiting
# on its first match can SIGPIPE the writer and fail a passing check.
PROM="$("$INSPECT" stats "$WORK_DIR/stats.jsonl" --prom)" || {
  echo "check_observability: inspect --prom failed" >&2; exit 1; }
grep -q "^dgnn_serve_requests_total " <<< "$PROM" || {
  echo "check_observability: inspect --prom missing counters" >&2; exit 1; }
"$INSPECT" watch "$WORK_DIR/stats.jsonl" > /dev/null || {
  echo "check_observability: watch failed on valid stats JSONL" >&2
  exit 1
}

cp "$WORK_DIR/stats.jsonl" "$WORK_DIR/stats_bad.jsonl"
echo '{"requests": "corrupted"}' >> "$WORK_DIR/stats_bad.jsonl"
rc=0
"$INSPECT" stats "$WORK_DIR/stats_bad.jsonl" > /dev/null 2>&1 || rc=$?
if [[ "$rc" -ne 2 ]]; then
  echo "check_observability: corrupted stats file: expected exit 2," \
       "got $rc" >&2
  exit 1
fi
echo "check_observability: offline validation accepts good, rejects bad"

echo "Observability check passed."
