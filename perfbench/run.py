#!/usr/bin/env python3
"""Runs one benchmark workload end to end and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Steps: build the library and the driver
from source (CMake, into .bench_build/ or $CARGO_TARGET_DIR), run the
load-generator self-test, prepare the inputs in a separate process (the
fixed world once per build, the seed's own inputs every run), run the
measured process, check its outputs, and print the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1). The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is nonzero when a build step or an output check fails.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_mid", "serve_ivf", "serve_routed")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_step(cmd, log_path, timeout, env=None):
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=log, env=env,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail("step failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log, 300)
    run_step(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
              "--target", "perfbench_driver", "perfbench_loadgen_test"],
             log, 800)


def source_revision():
    """Digest of the sources the benchmark builds and runs (src/ and
    perfbench/), so uncommitted changes get their own revision."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def prune_worlds(inputs, workload, keep):
    """Deletes all but the `keep` most recently used worlds of `workload`."""
    if not os.path.isdir(inputs):
        return
    worlds = [os.path.join(inputs, name) for name in os.listdir(inputs)
              if name.startswith(workload + "-")]
    worlds.sort(key=os.path.getmtime, reverse=True)
    for path in worlds[keep:]:
        shutil.rmtree(path, ignore_errors=True)


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/; run from a full checkout", 2)
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)
    end_to_end, per_layer = declared_metrics()

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    build(build_dir)
    driver = os.path.join(build_dir, "perfbench_driver")
    run_step([os.path.join(build_dir, "perfbench_loadgen_test")],
             os.path.join(build_dir, "loadgen_test.log"), 60)

    # Relative to the root, which is the working directory of every step:
    # Unix socket paths must stay short.
    work = os.path.relpath(
        os.path.join(build_root, "work",
                     "%s-s%d-t%d" % (args.workload, args.seed, args.trace)),
        ROOT)
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work))
    # Worlds are fixed, so one build's world is made once and reused;
    # keyed by the driver binary, a rebuilt program gets a fresh world.
    # Before a new world is made, only the most recently used other world
    # of the workload is kept, so alternating two builds (a parent and a
    # change) still finds both cached.
    with open(driver, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    inputs = os.path.join(build_root, "inputs")
    world = os.path.relpath(
        os.path.join(inputs, "%s-%s" % (args.workload, build_id)), ROOT)
    if not os.path.isdir(os.path.join(ROOT, world)):
        prune_worlds(inputs, args.workload, keep=1)
    common = [args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--world", world, "--dir", work]
    # Fault injection (DGNN_FAILPOINTS) is meant for the measured process;
    # the reference answers are made without it.
    prepare_env = {k: v for k, v in os.environ.items()
                   if k != "DGNN_FAILPOINTS"}
    t = time.monotonic()
    run_step([driver, "prepare"] + common,
             os.path.join(ROOT, work, "prepare.log"), 120, prepare_env)
    prepare_s = time.monotonic() - t
    os.utime(os.path.join(ROOT, world))  # marks the world as recently used

    ticks0 = cpu_ticks()
    try:
        proc = subprocess.run(
            [driver, "run"] + common + ["--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=150)
    except subprocess.TimeoutExpired:
        fail("measured run timed out")
    ticks1 = cpu_ticks()
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("driver printed no result (exit %d)" % proc.returncode)
    results_dir = os.path.join(build_root, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, "%s-seed%d-trace%d" %
                        (args.workload, args.seed, args.trace))
    trace_json = os.path.join(ROOT, work, "trace.json")
    if os.path.exists(trace_json):
        shutil.move(trace_json, stem + ".trace.json")
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)

    host = result["host"]
    host["revision"] = source_revision()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # Share of CPU time the hypervisor took from this VM during the
        # measured run: the usual cause of noisy latencies.
        host["steal_share"] = round(
            (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1]), 4)
    result["prepare_s"] = prepare_s
    with open(stem + ".json", "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    reported = result["metrics"]
    declared = end_to_end if args.trace == 0 else per_layer
    names = {name for name, _ in declared}
    metrics = {}
    for name, unit in declared:
        m = reported.get(name)
        if m is None and args.trace == 1:
            # A layer this workload does not run did no work.
            m = {"value": 0.0, "unit": unit}
        if m is None or m["unit"] != unit or not math.isfinite(m["value"]):
            fail("metric %s missing or malformed: %r" % (name, m))
        metrics[name] = {"value": m["value"], "unit": unit}
    undeclared = sorted(set(reported) - names)
    if undeclared:
        fail("metrics not declared in BENCHMARK.json: %s" % undeclared)

    tally = result["tally"]
    print("host: " + json.dumps(host, sort_keys=True))
    print("outcomes: " + json.dumps(tally, sort_keys=True) +
          "  prepare %.2f s (not measured)" % prepare_s)
    for name, m in metrics.items():
        if args.trace == 0 or name in reported:
            print("  %-28s %16.6f %s" % (name, m["value"], m["unit"]))
    if args.trace == 1:
        for name, m in result.get("traced_e2e", {}).items():
            base = result.get("untraced_e2e", {}).get(name)
            extra = ("  untraced %.6f (%+.2f%%)" %
                     (base["value"], 100.0 * (m["value"] / base["value"] - 1))
                     if base and base["value"] else "")
            print("  traced %-21s %16.6f %s%s" % (name, m["value"], m["unit"],
                                                   extra))
    for failure in result["check_failures"]:
        print("check failed: " + failure)
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(tally["sent"]),
        "failed": int(tally["shed"] + tally["expired"] + tally["failed"]),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
