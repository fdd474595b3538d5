"""One pass of a workload in a fresh interpreter (started by run.py).

Imports ``schreierlab`` from the checkout's ``src``, builds the seeded op
list, marks the end of set-up, then runs every op once in a closed loop,
timing each call.  Prints one JSON line: set-up time, per-op latencies,
per-op result hashes, digests, peak RSS and, with --check 1, the problems
the per-op checks found; with --trace 1 also the per-layer values.

Times are reported at reference speed.  On shared machines the speed of
a core can drift by 2x over seconds to minutes, far more than the changes
the benchmark has to resolve.  So a fixed
stdlib-only kernel (exact fractions, tuples, a dict: the interpreter paths
the library spends its time in) is timed next to the ops, at most
CALIBRATE_EVERY_S apart and again after every long op, and each time
is scaled by REF_KERNEL_S / (kernel time nearest to it).
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REF_KERNEL_S = 0.0035  # the kernel on an idle core of a 2-core x86-64 VM, Python 3.11
CALIBRATE_EVERY_S = 0.025


def _kernel():
    acc, memo = Fraction(0), {}
    for i in range(1, 1500):
        key = (i % 37, i % 11)
        acc += Fraction(i % 13 + 1, i % 7 + 2)
        memo[key] = memo.get(key, 0) + 1
    return acc


def kernel_time():
    """Best of two kernel runs, so one preemption does not count."""
    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        t = time.perf_counter() - t0
        best = t if best is None else min(best, t)
    return best


def _digest(parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--check", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import schreierlab
    if not os.path.abspath(schreierlab.__file__).startswith(SRC + os.sep):
        sys.exit("schreierlab imported from %s, not from %s" % (schreierlab.__file__, SRC))
    import workloads

    ops = workloads.build(args.workload, args.seed)
    ready = time.monotonic()
    kernel = [kernel_time()]
    kernel_at = time.perf_counter()

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    latency, hashes, problems = [], [], {}
    for k, op in enumerate(ops):
        if time.perf_counter() - kernel_at > CALIBRATE_EVERY_S:
            kernel.append(kernel_time())
            kernel_at = time.perf_counter()
        before = kernel[-1]
        t0 = time.perf_counter()
        try:
            outcome = op.call()
        except Exception as exc:  # a raising op is a measured outcome
            outcome = exc
        elapsed = time.perf_counter() - t0
        if elapsed > CALIBRATE_EVERY_S:
            kernel.append(kernel_time())
            kernel_at = time.perf_counter()
            before = (before + kernel[-1]) / 2
        latency.append(elapsed * REF_KERNEL_S / before)
        if tracer is not None:
            tracer.end_op()
        canon = workloads.canonical(outcome)
        hashes.append(_digest([op.label, canon]))
        if args.check:
            if tracer is not None:
                tracer.paused = True
            problem = op.check(outcome)
            if tracer is not None:
                tracer.paused = False
            if problem is not None:
                known = bool(op.known_failure) and type(outcome).__name__ == op.known_failure
                problems[k] = {"op": op.label[:200], "problem": problem[:300],
                               "known": known}

    scale = REF_KERNEL_S / statistics.median(kernel)
    out = {
        "setup_s": (ready - args.spawned_at) * REF_KERNEL_S / kernel[0],
        "latency": latency,
        "kernel_s": statistics.median(kernel),
        "hashes": hashes,
        "problems": problems,
        "ops_digest": _digest(op.label for op in ops),
        "results_digest": _digest(hashes),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(scale)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
