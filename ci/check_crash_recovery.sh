#!/usr/bin/env bash
# Crash-recovery gate: a training run SIGKILLed mid-epoch must be
# resumable from its periodic checkpoint with BIT-IDENTICAL final
# parameters, and the dead run's log must be a valid prefix.
#
#   1. dgnn_cli trains a reference run to completion and saves params.
#   2. A second run with the same flags plus --checkpoint /
#      --checkpoint-every=1 is SIGKILLed (kill -9, no cleanup) as soon as
#      its run log records its first successful checkpoint save —
#      mid-epoch by construction.
#   3. The victim's run log is checked: every complete line parses as
#      JSON (a crash may truncate the final line, never corrupt earlier
#      ones) and there is no run_end — the run died, it didn't lie.
#   4. dgnn_cli --resume continues from the checkpoint; the resumed run's
#      saved parameters must be byte-identical (cmp) to the reference.
#   5. The resumed log records resumed_from + status=completed, and
#      dgnn_inspect summarize across both logs renders the resume
#      lineage.
#
# Usage: ci/check_crash_recovery.sh [build-dir]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/examples/dgnn_cli"
INSPECT="$BUILD_DIR/examples/dgnn_inspect"

if [[ ! -x "$CLI" || ! -x "$INSPECT" ]]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target dgnn_cli dgnn_inspect
fi

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT

# Enough epochs that the run cannot finish before the kill lands; the
# resume still completes in seconds on the tiny preset.
TRAIN_FLAGS=(--mode=train --data_dir="$WORK_DIR/data" --epochs=40
             --batch=128 --seed=11)

"$CLI" --mode=generate --data_dir="$WORK_DIR/data" --preset=tiny

# ---- 1. reference: the uninterrupted run ----------------------------------
"$CLI" "${TRAIN_FLAGS[@]}" --params="$WORK_DIR/ref.bin" > /dev/null

# ---- 2. victim: checkpoint every batch, SIGKILL at the first checkpoint ---
"$CLI" "${TRAIN_FLAGS[@]}" --checkpoint="$WORK_DIR/train.ckpt" \
  --checkpoint-every=1 --params="$WORK_DIR/victim.bin" \
  --run-log="$WORK_DIR/victim.jsonl" > /dev/null &
VICTIM=$!
# Wait for the event step 3 asserts, a complete checkpoint line with
# action save_checkpoint and ok true, not for train.ckpt itself:
# SaveCheckpoint renames the file into place before it logs the save, so
# a kill that lands in between would leave no such line.
saved=0
python3 - "$WORK_DIR/victim.jsonl" <<'EOF' || saved=$?
import json, sys, time

path = sys.argv[1]
deadline = time.monotonic() + 10
while time.monotonic() < deadline:
    try:
        raw = open(path).read()
    except FileNotFoundError:
        raw = ""
    for line in raw.split("\n")[:-1]:  # complete lines only
        try:
            e = json.loads(line)
        except ValueError:
            continue
        if (e.get("event") == "checkpoint" and
                e.get("action") == "save_checkpoint" and e.get("ok")):
            sys.exit(0)
    time.sleep(0.005)
sys.exit(1)
EOF
if [[ "$saved" -ne 0 || ! -f "$WORK_DIR/train.ckpt" ]]; then
  echo "check_crash_recovery: no checkpoint save logged within 10s" >&2
  kill -9 "$VICTIM" 2> /dev/null || true
  exit 1
fi
kill -9 "$VICTIM"
wait "$VICTIM" && rc=0 || rc=$?
if [[ "$rc" -eq 0 || -f "$WORK_DIR/victim.bin" ]]; then
  echo "check_crash_recovery: victim finished before the kill landed" >&2
  exit 1
fi
echo "check_crash_recovery: victim SIGKILLed mid-epoch (rc=$rc)"

# ---- 3. the dead run's log is a valid prefix ------------------------------
# SIGKILL may truncate the final line mid-append; every complete line
# must still parse, and a dead run must not carry a run_end. Rewrites the
# log to its complete lines so dgnn_inspect can read it below.
python3 - "$WORK_DIR/victim.jsonl" <<'EOF'
import json, sys

path = sys.argv[1]
raw = open(path, "rb").read().decode()
lines = raw.split("\n")
if lines and lines[-1] and not raw.endswith("\n"):
    lines = lines[:-1]  # torn final append: allowed
lines = [l for l in lines if l]
assert lines, "victim log is empty"
events = [json.loads(l) for l in lines]  # raises on a corrupt line
kinds = [e["event"] for e in events]
assert kinds[0] == "run_start", kinds
assert "run_end" not in kinds, "SIGKILLed run claims it ended cleanly"
assert any(e["event"] == "checkpoint" and
           e.get("action") == "save_checkpoint" and e.get("ok")
           for e in events), "no successful checkpoint save in victim log"
open(path, "w").write("".join(l + "\n" for l in lines))
print(f"check_crash_recovery: victim log valid prefix ({len(lines)} events)")
EOF

# ---- 4. resume: final parameters must be bit-identical --------------------
"$CLI" "${TRAIN_FLAGS[@]}" --resume="$WORK_DIR/train.ckpt" \
  --params="$WORK_DIR/resumed.bin" \
  --run-log="$WORK_DIR/resumed.jsonl" > /dev/null
cmp "$WORK_DIR/ref.bin" "$WORK_DIR/resumed.bin" || {
  echo "check_crash_recovery: resumed parameters differ from the" \
       "uninterrupted run" >&2
  exit 1
}
echo "check_crash_recovery: resumed parameters bit-identical"

# ---- 5. resumed log lineage ----------------------------------------------
python3 - "$WORK_DIR/resumed.jsonl" "$WORK_DIR/train.ckpt" <<'EOF'
import json, sys

path, ckpt = sys.argv[1], sys.argv[2]
events = [json.loads(l) for l in open(path) if l.strip()]
start = next(e for e in events if e["event"] == "run_start")
assert start.get("resumed_from") == ckpt, start
end = next(e for e in events if e["event"] == "run_end")
assert end.get("status") == "completed", end
assert end.get("resumed_from") == ckpt, end
print("check_crash_recovery: resumed log records lineage")
EOF

# Here-strings, not a pipe into grep -q: under pipefail, grep -q exiting
# on its first match can SIGPIPE the writer and fail a passing check.
SUMMARY="$("$INSPECT" summarize "$WORK_DIR/victim.jsonl" \
  "$WORK_DIR/resumed.jsonl")" || {
  echo "check_crash_recovery: dgnn_inspect summarize failed" >&2
  exit 1
}
grep -q "resume lineage" <<< "$SUMMARY" || {
  echo "check_crash_recovery: dgnn_inspect did not render resume" \
       "lineage" >&2
  exit 1
}
echo "Crash-recovery check passed."
