"""The benchmark's own tests.

    python3 perfbench/selftest.py                 # determinism, traced == untraced
    python3 perfbench/selftest.py --seeds 20      # also: thresholds on 20 fresh seeds

Run from the repository root.  Checks that

* the input generator is deterministic per seed;
* a traced and an untraced round give identical outputs and check results;
* with ``--seeds N``, no check fails on seeds 1000..1000+N-1 other than the
  known defects, so a run on an unseen seed cannot false-fail.

Exits 1 on a failed expectation.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

workloads = run.import_workloads()


def fail(msg):
    print(f"FAIL {msg}")
    sys.exit(1)


def plan_for(name, seed, work):
    plan = workloads.generate(name, seed, str(work))
    path = work / "plan.json"
    path.write_text(json.dumps(plan))
    return plan, path


def unexpected(result):
    return [c for c in result["checks"] if not c["ok"] and c["defect"] is None]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=0)
    args = ap.parse_args()
    (run.ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".perfbench_work"))
    try:
        for name in workloads.NAMES:
            other, _ = plan_for(name, 8, work)
            first, _ = plan_for(name, 7, work)
            again, path = plan_for(name, 7, work)
            if first != again:
                fail(f"{name}: seed 7 gave two different plans")
            if first == other:
                fail(f"{name}: seeds 7 and 8 gave the same plan")
            plain = run.run_child(name, path, work, "plain")
            traced = run.run_child(name, path, work, "traced", trace=True)
            if plain["digest"] != traced["digest"]:
                fail(f"{name}: traced outputs differ from untraced ones")
            strip = [[(c["name"], c["ok"]) for c in r["checks"]] for r in (plain, traced)]
            if strip[0] != strip[1]:
                fail(f"{name}: traced check results differ from untraced ones")
            if unexpected(plain):
                fail(f"{name}: {unexpected(plain)}")
            print(f"ok {name}: deterministic plan; traced == untraced "
                  f"({len(plain['checks'])} checks)")
        bad_seeds = 0
        for seed in range(1000, 1000 + args.seeds):
            for name in workloads.NAMES:
                _, path = plan_for(name, seed, work)
                bad = unexpected(run.run_child(name, path, work, f"s{seed}"))
                bad_seeds += bool(bad)
                print(f"{'FAIL' if bad else 'ok'} {name} seed {seed}: "
                      f"{bad or 'no unexpected check failure'}", flush=True)
        if bad_seeds:
            fail(f"{bad_seeds} workload runs with unexpected check failures")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
