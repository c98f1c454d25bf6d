"""chamberwalks benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the repository root.  A run generates the workload's inputs from
the seed, then measures rounds for about ``--seconds``: each round is a
fresh child process (cold module caches) that sets up, runs every query of
the workload once and checks the outputs against an independent route.
While time remains, first-query-only children add cold first-query samples
(up to four); set-up-only children then give at least seven set-up samples.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Latencies are
medians over the rounds of a run.  A traced run alternates traced and
untraced rounds; the difference of their ``wall_s`` is the tracing
overhead.  perfbench/README.md describes the workloads and metrics.

Checks that fail because of a known defect of the program (listed in
workloads.py) are printed by name and counted in ``checks.failed_frac``;
``failed`` and ``correct`` count only the other failures.

``--all`` runs every workload untraced and traced and prints one report:
every metric by name with its unit, ``failed_frac`` and each failing check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 2
MIN_SETUP_SAMPLES = 7
MIN_FIRST_SAMPLES = 4   # first-query-only children fill up to this, time allowing
CHILD_TIMEOUT = 170


def child_env():
    """Environment of every child: the package from src/, BLAS threads
    pinned to at most two (setting them after numpy is imported, as the
    CLI's CW_THREADS does, has no effect)."""
    env = dict(os.environ)
    threads = str(min(2, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload, plan_path, work, tag, trace=False, setup_only=False,
              first_only=False):
    result = work / f"result-{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--plan", str(plan_path), "--result", str(result)]
    spans = work / f"spans-{tag}.jsonl"
    if trace:
        cmd += ["--trace", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    if first_only:
        cmd.append("--first-only")
    proc = subprocess.run(cmd + ["--t0", repr(time.monotonic())], env=child_env(),
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0 or not result.exists():
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{workload} child exited with {proc.returncode}")
    with open(result) as fh:
        out = json.load(fh)
    if trace:
        from tracing import summarize

        out["layers"] = summarize(spans)
    return out


def import_workloads():
    """workloads.py imports the package from src/, as the children do."""
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads


def measure(workload, seed, seconds, traced, work):
    """Generate the inputs, then run rounds for about ``seconds``."""
    plan = import_workloads().generate(workload, seed, str(work))
    plan_path = work / "plan.json"
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    run_child(workload, plan_path, work, "warmup", setup_only=True)

    rounds = []
    start = time.monotonic()
    while True:
        trace = traced and len(rounds) % 2 == 0
        rounds.append(run_child(workload, plan_path, work, len(rounds), trace=trace))
        rounds[-1]["traced"] = trace
        spent = time.monotonic() - start
        if len(rounds) >= MIN_ROUNDS and spent * (len(rounds) + 1) / len(rounds) > seconds:
            break
    setups = [r["setup_s"] for r in rounds]
    firsts = [r["times"][0] for r in rounds if not r["traced"]]
    while not traced and len(firsts) < MIN_FIRST_SAMPLES and time.monotonic() - start < seconds:
        probe = run_child(workload, plan_path, work, f"first{len(firsts)}", first_only=True)
        firsts.append(probe["first_s"])
        setups.append(probe["setup_s"])
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run_child(workload, plan_path, work, f"setup{len(setups)}",
                                setup_only=True)["setup_s"])
    return rounds, setups, firsts


def summarize_checks(rounds):
    """(attempted, unexpected failures, failing records, estimate violations)."""
    attempted, failed, failing = 0, 0, {}
    for r in rounds:
        for c in r["checks"]:
            attempted += 1
            if not c["ok"]:
                failed += c["defect"] is None
                failing[c["name"]] = c
    digests = {r["digest"] for r in rounds}
    attempted += 1
    if len(digests) != 1:
        failed += 1
        failing["outputs identical in every round (traced or not)"] = {
            "name": "outputs identical in every round (traced or not)", "ok": False,
            "detail": f"{len(digests)} distinct output digests", "defect": None}
    violations = sum(not c["ok"] and "within its estimate" in c["name"]
                     for c in rounds[0]["checks"])
    return attempted, failed, list(failing.values()), violations


def metrics_for(spec_list, values):
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_list}


def query_medians(rounds):
    """Each query's median latency over the given rounds."""
    return [statistics.median(r["times"][k] for r in rounds)
            for k in range(len(rounds[0]["times"]))]


def end_to_end(rounds, setups, firsts):
    plain = [r for r in rounds if not r["traced"]]
    times = query_medians(plain)
    times[0] = statistics.median(firsts)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(times),
        "first_query_s": times[0],
        "warm_query_s": statistics.median(times[1:]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(spec_list, rounds, attempted_all, failing_all, violations):
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    values = {}
    for m in spec_list:
        values[m["name"]] = statistics.median(r["layers"].get(m["name"], 0.0) for r in traced)
    values["trace.overhead_s"] = sum(query_medians(traced)) - sum(query_medians(plain))
    values["checks.failed_frac"] = failing_all / attempted_all
    values["checks.estimate_violations"] = violations
    return values


def run_workload(workload, seed, seconds, traced):
    """Measure one workload; returns the result, the failing check records
    and each query's median latency."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".perfbench_work"))
    try:
        rounds, setups, firsts = measure(workload, seed, seconds, traced, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, failing, violations = summarize_checks(rounds)
    failing_count = sum(not c["ok"] for r in rounds for c in r["checks"])
    if traced:
        values = per_layer(bench["per_layer"], rounds, attempted, failing_count, violations)
        metrics = metrics_for(bench["per_layer"], values)
    else:
        metrics = metrics_for(bench["end_to_end"], end_to_end(rounds, setups, firsts))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    plain = [r for r in rounds if not r["traced"]]
    per_query = list(zip(rounds[0]["queries"], query_medians(plain)))
    return result, failing, per_query


def print_run(workload, result, failing, per_query):
    print(f"# {workload}: {result['attempted']} checks, "
          f"{result['failed']} unexpected failures")
    for name, t in per_query:
        print(f"#   query {name}: median {t:.4f} s")
    for c in failing:
        tag = f"KNOWN DEFECT {c['defect']}" if c["defect"] else "FAIL"
        print(f"#   {tag}: {c['name']} ({c['detail']})")
    for name, m in result["metrics"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")


def run_all(seed, seconds):
    for workload in import_workloads().NAMES:
        plain, failing, per_query = run_workload(workload, seed, seconds, traced=False)
        traced, _, _ = run_workload(workload, seed, seconds, traced=True)
        layer = traced["metrics"]
        wall = plain["metrics"]["wall_s"]["value"]
        print(f"\n== {workload} (seed {seed}) ==")
        print_run(workload, plain, failing, per_query)
        print(f"#   failed_frac = {layer['checks.failed_frac']['value']:.4f} "
              f"(known defects included)")
        print(f"#   traced run: tracing overhead "
              f"{layer['trace.overhead_s']['value']:+.3f} s on wall_s {wall:.3f} s")
        for name, m in layer.items():
            if m["value"]:
                print(f"#     {name} = {m['value']:.6g} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="report on every workload")
    args = ap.parse_args()
    if not (ROOT / "src" / "chamberwalks" / "__init__.py").is_file():
        sys.exit(f"error: no chamberwalks sources under {ROOT / 'src'}")
    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    if args.all:
        run_all(args.seed, args.seconds)
        return
    if not args.workload:
        ap.error("--workload or --all is required")
    result, failing, per_query = run_workload(args.workload, args.seed, args.seconds,
                                              traced=bool(args.trace))
    print_run(args.workload, result, failing, per_query)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
