"""Benchmark of schreierlab: seeded workloads, closed loop, one client.

    python3 perfbench/run.py --workload implicit-norms --seed 1 --seconds 30 --trace 0

Each pass runs the workload's whole op list once in a fresh interpreter
(worker.py), so the library's process-global caches start cold as they
do for every command-line user; passes run one after another until the
time is up.  The first pass checks every op's result; later passes must
reproduce its result hashes.  --trace 0 prints the end-to-end metrics of
untraced passes; --trace 1 alternates untraced and traced passes and
prints the per-layer metrics, with the tracing overhead as the
difference of the two.  The last line of stdout is the JSON result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("implicit-norms", "corpus-scans", "gluing-pipelines")
RUN_LIMIT_S = 170  # a run must end within 180 s
TAIL_BEYOND = 10   # samples the tail percentile must leave beyond it

sys.path.insert(0, HERE)
from tracer import METRICS as LAYER_METRICS  # noqa: E402
from worker import REF_KERNEL_S  # noqa: E402


class PassError(RuntimeError):
    pass


def run_pass(args, check, trace, budget):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--check", str(int(check)), "--trace", str(int(trace))]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT_DIR, "%s.spans.tsv" % args.workload)]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(start)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassError("pass exceeded %.0f s" % budget)
    if proc.returncode != 0 or not stdout.strip():
        raise PassError("worker exited with code %d" % proc.returncode)
    res = json.loads(stdout.strip().splitlines()[-1])
    res["wall_s"] = time.monotonic() - start
    res["traced"] = trace
    return res


def tail(values):
    """Value at the highest percentile that leaves TAIL_BEYOND samples
    beyond it, with that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "schreierlab", "__init__.py")):
        print("error: no schreierlab sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    began = time.monotonic()
    passes = []
    try:
        while True:
            trace = bool(args.trace) and len(passes) % 2 == 1
            left = RUN_LIMIT_S - (time.monotonic() - began)
            passes.append(run_pass(args, check=not passes, trace=trace, budget=left))
            elapsed = time.monotonic() - began
            enough = len(passes) >= (2 if args.trace else 1)
            if enough and elapsed + passes[-1]["wall_s"] > args.seconds:
                break
    except PassError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    first = passes[0]
    checked = {int(k): v for k, v in first["problems"].items()}
    problems = dict(checked)
    n_ops = len(first["latency"])
    failed = 0
    for p in passes:
        if p["ops_digest"] != first["ops_digest"]:
            print("error: op lists differ between passes", file=sys.stderr)
            return 1
        for k in range(n_ops):
            if k in checked or p["hashes"][k] != first["hashes"][k]:
                failed += 1
                problems.setdefault(k, {"op": "op %d" % k, "known": False,
                                        "problem": "result differs from the checked pass"})
    attempted = n_ops * len(passes)
    correct = all(v["known"] for v in problems.values())

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    per_op = [statistics.median(p["latency"][k] for p in plain) for k in range(n_ops)]
    tail_s, tail_pct = tail(per_op)
    busy = [sum(p["latency"]) for p in plain]
    end_to_end = {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "ops_per_s": (n_ops / sum(per_op), "ops/s"),
        "op_p50_ms": (1000 * statistics.median(per_op), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in plain), "MiB"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
    }
    env = {"python": platform.python_version(), "platform": platform.platform(),
           "nproc": os.cpu_count(), "seed": args.seed, "trace": args.trace,
           "workload": args.workload, "seconds": args.seconds,
           "passes": len(plain), "traced_passes": len(traced), "ops": n_ops}
    print("env " + json.dumps(env, sort_keys=True))
    print("digests ops=%s results=%s" % (first["ops_digest"], first["results_digest"]))
    print("speed kernel %.3f ms median over passes (reference %.3f ms); "
          "times below are at reference speed"
          % (1000 * statistics.median(p["kernel_s"] for p in passes), 1000 * REF_KERNEL_S))
    for k in sorted(problems):
        v = problems[k]
        print("%s failure: %s: %s" % ("known" if v["known"] else "UNEXPECTED",
                                      v["op"], v["problem"]))
    samples = "per-op medians over %d passes (%d samples)" % (len(plain), n_ops * len(plain))
    notes = {
        "op_p50_ms": "median of %d %s" % (n_ops, samples),
        "op_tail_ms": "p%.2f of %d %s" % (tail_pct, n_ops, samples),
        "ops_per_s": "%d ops over the sum of their %s" % (n_ops, samples),
        "setup_s": "median over %d interpreter starts" % len(passes),
        "ok_ratio": "1 - fail_ratio",
    }
    for name, (value, unit) in end_to_end.items():
        print("%-12s %14.6f %-6s %s" % (name, value, unit, notes.get(name, "")))
    print("%-12s %14.6f %-6s %d failed of %d attempted ops"
          % ("fail_ratio", failed / attempted, "ratio", failed, attempted))

    if not args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in end_to_end.items()}
    else:
        layers = [p["layers"] for p in traced]
        metrics = {}
        for name, unit in LAYER_METRICS:
            if name == "trace.overhead_s":
                value = (statistics.median(sum(p["latency"]) for p in traced)
                         - statistics.median(busy))
            elif unit == "count":
                value = layers[0][name]
                if any(lay[name] != value for lay in layers):
                    print("error: count %s differs between traced passes" % name,
                          file=sys.stderr)
                    correct = False
            else:
                value = statistics.median(lay[name] for lay in layers)
            metrics[name] = {"value": value, "unit": unit}
            print("%-45s %16.6f %s" % (name, value, unit))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
