#!/usr/bin/env python3
"""Client-protocol traffic diff between two builds.

Replays the request lines ci/check_serve.sh and ci/check_shard.sh send
(a healthy 3-shard fleet; "stats" is left out because its windows carry
timings) through dgnn_serve and dgnn_router of two build trees, and
compares their stdout byte for byte. The single-process session also
runs against an int8+IVF export (probed with --nprobe=12, as
ci/check_index.sh serves it) and an fp16 export, so every storage
format and the quantized rerank are diffed too. Use it to show that a
change to the serving front doors or the rankers leaves every response
line as it was.

usage: python3 ci/diff_client_traffic.py OLD_BUILD NEW_BUILD WORK_DIR
  (WORK_DIR is wiped and refilled; the inputs come from OLD_BUILD's
  dgnn_cli, so both builds serve the same snapshots)
"""
import json, os, shutil, subprocess, sys, time

old_build, new_build, work = sys.argv[1:4]
shutil.rmtree(work, ignore_errors=True)
os.makedirs(work)
cli = f"{old_build}/examples/dgnn_cli"

def run(*args):
    subprocess.run(args, check=True, stdout=subprocess.DEVNULL)

run(cli, "--mode=generate", f"--data_dir={work}/data", "--preset=tiny")
run(cli, "--mode=train", f"--data_dir={work}/data", "--epochs=2",
    "--batch=128", f"--params={work}/model.bin")
for tag, snap, extra in [("a", "snap_a.bin", []), ("b", "snap_b.bin", []),
                         ("fleet", "snap.bin", ["--shards=3"]),
                         ("fleet-v2", "snap_v2.bin", ["--shards=3"]),
                         ("q8ivf", "snap_q8_ivf.bin",
                          ["--quant=int8", "--index", "--clusters=16"]),
                         ("f16", "snap_f16.bin", ["--quant=fp16"])]:
    run(cli, "--mode=export", f"--data_dir={work}/data",
        f"--params={work}/model.bin", f"--snapshot={work}/{snap}",
        f"--tag={tag}", *extra)
data = bytearray(open(f"{work}/snap_a.bin", "rb").read())
data[len(data) // 2] ^= 0x40
open(f"{work}/snap_flip.bin", "wb").write(data)
os.makedirs(f"{work}/badswap")
for s in (0, 2):
    os.link(f"{work}/snap.bin.shard{s}of3", f"{work}/badswap/next.bin.shard{s}of3")
open(f"{work}/badswap/next.bin.shard1of3", "wb").write(b"DGNNSNP1 corrupt")

def lines(objs):
    return "".join(json.dumps(o) + "\n" for o in objs)

# check_serve.sh: scripted session (stats left out) plus the bursts of
# the overload session, sent to a server without the injected slowdown.
serve_session = (
    [{"op": "topk", "user": 3, "k": 5},
     {"op": "score", "user": 3, "item": 7},
     {"op": "similar_users", "user": 3, "k": 3},
     {"op": "topk", "user": 999999, "k": 5},
     {"op": "topk", "user": 3, "k": 0},
     {"op": "frobnicate"}]
    + [{"op": "topk", "user": u, "k": 5} for u in range(8)]
    + [{"op": "swap", "snapshot": f"{work}/snap_b.bin"}]
    + [{"op": "topk", "user": u, "k": 5} for u in range(8)]
    + [{"op": "swap", "snapshot": f"{work}/snap_flip.bin"},
       {"op": "topk", "user": 3, "k": 5},
       {"op": "reload"},
       {"op": "burst", "n": 32, "user": 3, "k": 5},
       {"op": "quit"}])

# check_shard.sh: the single-process side of the parity checks.
single_session = (
    [{"op": "topk", "user": u, "k": 10} for u in range(60)]
    + [o for u in (0, 7, 23) for o in
       ({"op": "score", "user": u, "item": 11},
        {"op": "similar_users", "user": u, "k": 5})]
    + [{"op": "topk", "user": 999999, "k": 10}, {"op": "quit"}])

# check_shard.sh: the router side against a healthy fleet.
router_session = (
    [{"op": "topk", "user": u, "k": 10} for u in range(60)]
    + [o for u in (0, 7, 23) for o in
       ({"op": "score", "user": u, "item": 11},
        {"op": "similar_users", "user": u, "k": 5})]
    + [{"op": "topk", "user": 999999, "k": 10},
       {"op": "swap", "snapshot": f"{work}/snap_v2.bin"},
       {"op": "topk", "user": 3, "k": 10},
       {"op": "swap", "snapshot": f"{work}/badswap/next.bin"},
       {"op": "topk", "user": 3, "k": 10},
       {"op": "quit"}])

def serve_stdout(build, snapshot, session, *extra):
    p = subprocess.run([f"{build}/examples/dgnn_serve", f"--snapshot={snapshot}",
                        *extra],
                       input=lines(session), capture_output=True, text=True,
                       timeout=120)
    assert p.returncode == 0, p.stderr
    return p.stdout

def router_stdout(build):
    socks = [f"{work}/s{s}.sock" for s in range(3)]
    workers = [subprocess.Popen(
        [f"{build}/examples/dgnn_serve", f"--snapshot={work}/snap.bin.shard{s}of3",
         f"--listen={socks[s]}"], stdin=subprocess.PIPE,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) for s in range(3)]
    try:
        for sock in socks:
            for _ in range(100):
                if os.path.exists(sock):
                    break
                time.sleep(0.05)
        p = subprocess.run(
            [f"{build}/examples/dgnn_router", f"--shards={','.join(socks)}",
             "--deadline-ms=5000", "--shard-timeout-ms=500",
             "--probe-interval-ms=30", "--retries=2"],
            input=lines(router_session), capture_output=True, text=True,
            timeout=120)
        assert p.returncode == 0, p.stderr
        return p.stdout
    finally:
        for w in workers:
            w.terminate()
            w.wait(timeout=30)

failed = False
for name, fn in [
        ("dgnn_serve check_serve session",
         lambda b: serve_stdout(b, f"{work}/snap_a.bin", serve_session)),
        ("dgnn_serve check_shard single session",
         lambda b: serve_stdout(b, f"{work}/snap.bin", single_session)),
        ("dgnn_serve int8+ivf single session",
         lambda b: serve_stdout(b, f"{work}/snap_q8_ivf.bin", single_session,
                                "--nprobe=12")),
        ("dgnn_serve fp16 single session",
         lambda b: serve_stdout(b, f"{work}/snap_f16.bin", single_session)),
        ("dgnn_router check_shard session", router_stdout)]:
    a = fn(old_build)
    b = fn(new_build)
    stem = f"{work}/{name.replace(' ', '_')}"
    open(stem + ".old", "w").write(a)
    open(stem + ".new", "w").write(b)
    if a == b:
        print(f"{name}: {a.count(chr(10))} response lines byte-identical")
    else:
        failed = True
        print(f"{name}: DIFFERS (see {stem}.old / .new)")
sys.exit(1 if failed else 0)
