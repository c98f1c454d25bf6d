"""One measured round: a fresh process that sets up, runs every query of a
workload once and checks the outputs.

    python3 perfbench/child.py --workload NAME --plan PLAN.json --t0 T
                               --result OUT.json [--trace SPANS.jsonl]
                               [--setup-only | --first-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers the interpreter, ``import chamberwalks`` and
loading the generated inputs.  Results go to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time


def fingerprint(obj, digest):
    """Feed a canonical form of a query output into ``digest``."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        digest.update(obj.tobytes())
    elif hasattr(obj, "masses"):
        digest.update(obj.masses.tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            digest.update(repr(key).encode())
            fingerprint(obj[key], digest)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            fingerprint(item, digest)
    else:
        digest.update(repr(obj).encode())


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", default=None, help="write spans to this file")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--first-only", action="store_true", help="run only the first query")
    args = ap.parse_args()

    import chamberwalks
    import workloads

    with open(args.plan) as fh:
        plan = json.load(fh)
    queries, check = workloads.build(args.workload, plan)
    setup_s = time.monotonic() - args.t0
    if args.first_only:
        start = time.perf_counter()
        queries[0][1]()
        result = {"setup_s": setup_s, "first_s": time.perf_counter() - start}
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return
    result = {"setup_s": setup_s}
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(chamberwalks)
    checks = workloads.Checks()
    outputs, times = [], []
    for name, thunk in queries:
        start = time.perf_counter()
        try:
            out = thunk()
        except Exception as exc:  # a failing query is a failed check
            out = None
            checks.add(f"{name}: no exception", False, f"{type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - start)
        outputs.append(out)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if all(out is not None for out in outputs):
        try:
            check(outputs, checks)
        except Exception as exc:  # malformed output
            checks.add("outputs parse", False, f"{type(exc).__name__}: {exc}")
    digest = hashlib.sha256()
    fingerprint(outputs, digest)
    result.update({
        "queries": [name for name, _ in queries],
        "times": times,
        "peak_rss_mb": peak_rss_mb,
        "checks": checks.records,
        "digest": digest.hexdigest(),
    })
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
