"""Per-layer tracing for the benchmark's traced runs.

Wrappers are installed on module attributes of the package from outside,
so only calls that go through those attributes are seen: a name a module
imported with ``from .weyl import ...`` keeps pointing at the original
function.  Each spanned call appends ``[name, start, end, parent]`` to an
in-memory list; the list is written out once, when the run ends.  Hot
functions are counted, not spanned, because a span per call would distort
the traced run.  Extra counters (``states``, ``hit_frac``, ...) are derived
from call arguments, results and the counted calls.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (module, attribute) pairs whose calls are spanned.
SPANNED = (
    ("hecke", "TraceTable.ensure_box"),
    ("hecke", "mul"),
    ("hecke", "bernstein_mul"),
    ("hecke", "t_to_x"),
    ("hecke", "x_to_t"),
    ("hecke", "f_value"),
    ("plancherel", "plancherel_trace"),
    ("plancherel", "f_series"),
    ("plancherel", "simple_walk_spectral_traces"),
    ("reps", "principal_series"),
    ("reps", "character"),
    ("walks", "enumerate_walks"),
    ("walks", "expand_t"),
    ("weyl", "ball"),
    ("limit", "state_space"),
    ("limit", "exact_distribution"),
    ("limit", "exact_distribution_rational"),
    ("limit", "llt_estimate"),
    ("limit", "mc_simulate"),
    ("serialize", "hecke_from_json"),
    ("serialize", "write_csv"),
    ("cli", "main"),
)

# Hot functions: call counts only, as (module, attribute, counter).  Every
# lattice step of the trace table is taken inside ``ensure_box``.
COUNTED = (
    ("weyl", "right_mul_gen", "weyl.right_mul_gen.calls"),
    ("weyl", "length", "weyl.length.calls"),
    ("hecke", "TraceTable._step", "hecke.TraceTable.ensure_box.steps"),
)


class Tracer:
    """Installs the wrappers and keeps spans and counters in memory."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._restore = []
        self._boxes = set()     # (id(table), box) requests seen so far
        self._steps_seen = 0    # lattice steps counted before the last request
        self._radii = set()     # state-space radii requested so far
        self._hits = defaultdict(int)
        self._requests = defaultdict(int)

    # -- installation ------------------------------------------------------

    def install(self, package):
        for mod_name, attr in SPANNED:
            name = f"{mod_name}.{attr}"
            self._patch(package, mod_name, attr,
                        self._spanned(name, getattr(self, "_count_" + name.replace(".", "_"), None)))
        for mod_name, attr, key in COUNTED:
            self._patch(package, mod_name, attr, self._counted(key))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, package, mod_name, attr, make_wrapper):
        owner = getattr(package, mod_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        self._restore.append((owner, leaf, original))
        setattr(owner, leaf, make_wrapper(original))

    def _spanned(self, name, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
                stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][2] = clock()
                if counter is not None:
                    counter(args, kwargs, result)
                return result
            return wrapper
        return make

    def _counted(self, key):
        counters = self.counters

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counters[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    # -- counters derived from arguments and results -----------------------

    def _count_hecke_TraceTable_ensure_box(self, args, kwargs, result):
        """A request is a distinct (table, box) pair: f_series asks for the
        same box once per torus node.  It is a hit if the table walked no
        lattice step for it."""
        key = "hecke.TraceTable.ensure_box"
        steps = self.counters[key + ".steps"]
        walked, self._steps_seen = steps - self._steps_seen, steps
        box = (id(args[0]), tuple(args[1]), tuple(args[2]))
        if box not in self._boxes:
            self._boxes.add(box)
            self._requests[key] += 1
            self._hits[key] += walked == 0

    def _count_plancherel_plancherel_trace(self, args, kwargs, result):
        n = args[1] if len(args) > 1 else kwargs.get("n_grid", 256)
        self.counters["plancherel.plancherel_trace.grid_points"] += n * n + n

    def _count_walks_enumerate_walks(self, args, kwargs, result):
        self.counters["walks.enumerate_walks.galleries"] += len(result)

    def _count_weyl_ball(self, args, kwargs, result):
        self.counters["weyl.ball.elements"] += len(result)

    def _count_limit_state_space(self, args, kwargs, result):
        radius = args[0]
        self.counters["limit.state_space.states"] += len(result.elems)
        self._requests["limit.state_space"] += 1
        self._hits["limit.state_space"] += radius in self._radii
        self._radii.add(radius)

    def _count_limit_exact_distribution(self, args, kwargs, result):
        n = args[1]
        dist = result if not isinstance(result, dict) else next(iter(result.values()))
        self.counters["limit.exact_distribution.matvecs"] += n
        self.counters["limit.exact_distribution.state_steps"] += n * len(dist.space.elems)

    def _count_limit_mc_simulate(self, args, kwargs, result):
        self.counters["limit.mc_simulate.trial_steps"] += args[0] * args[1]

    def _count_serialize_write_csv(self, args, kwargs, result):
        self.counters["serialize.write_csv.rows"] += len(args[2])

    # -- output --------------------------------------------------------------

    def dump(self, path):
        """Write the spans (JSON lines) and the counters (last line)."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
            counters = dict(self.counters)
            for key, requests in self._requests.items():
                counters[key + ".hit_frac"] = self._hits[key] / requests
            fh.write(json.dumps({"counters": counters}) + "\n")


def summarize(path):
    """Self time and call count per span name, plus the counters, from a
    file written by ``Tracer.dump``.  Self time is a span's duration minus
    the time its direct child spans cover."""
    spans = []
    counters = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if isinstance(rec, dict):
                counters = rec["counters"]
            else:
                spans.append(rec)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for name, start, end, _ in spans:
        self_s[name] += end - start
        calls[name] += 1
    for name, start, end, parent in spans:
        if parent >= 0:
            self_s[spans[parent][0]] -= end - start
    out = dict(counters)
    for name in calls:
        out[name + ".self_s"] = self_s[name]
        out[name + ".calls"] = calls[name]
    return out
