"""The three workloads: seeded input generation, the queries a run times and
the checks that compare each output against an independent route.

``generate(name, seed, work)`` runs once per benchmark run in the parent
process and returns a JSON-able plan; element files go under ``work``.
``build(plan)`` runs in each measured child process after set-up and returns
the ordered queries ``[(name, thunk)]`` and the check function, which maps
the list of query outputs to check records.  Queries go through what users
call: ``cli.main`` argv and public module functions.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
from fractions import Fraction

import numpy as np

from chamberwalks import cli, hecke, limit, plancherel, reps, serialize, walks, weyl

NAMES = ("algebra_trace", "walk_exact", "mc_sample")

# Known defects of the program, counted as failures and reported by name.
LLT_DEFECT = "llt_estimate_low_by_q^(2l(w))"
SERIES_DEFECT = "series_estimate_not_a_bound"

TRACE_DEPTH = 10        # series depth of the q=2 and q=3 trace queries
TRACE_DEPTH_RAT = 8     # series depth of the rational-q trace query
GRID = 256
LLT_NS = (100, 200, 400)
MC_N, MC_TRIALS = 40, 2_000_000
DIST_N, DIST_TRIALS = 10, 1_000_000
ORBIT_MIN_D = 1e-8      # c09's singular-point skip: |d(t)| below this is redrawn
SERIES_TOL = 1e-5       # series vs exact, relative; seen at most 2.2e-7 (30 seeds)


class Checks:
    """Collects check records ``{name, ok, detail, defect}``."""

    def __init__(self):
        self.records = []

    def add(self, name, ok, detail="", defect=None):
        self.records.append({"name": name, "ok": bool(ok), "detail": detail,
                             "defect": defect})


def run_cli(argv):
    """``chamberwalks <argv>`` in-process; returns its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": buf.getvalue()}


def _ball(radius):
    return sorted(weyl.ball(radius), key=lambda w: (weyl.length(w), w.mu, w.u))


def _random_word(rng, lo, hi):
    """A random reduced word over {0,1,2} with length in [lo, hi]."""
    while True:
        word = tuple(rng.randrange(3) for _ in range(rng.randint(lo, hi)))
        if weyl.is_reduced(word):
            return word


def _x_extents(h):
    hx = hecke.t_to_x(h)
    ms = [mu[0] for mu, _ in hx.terms] + [0]
    ns = [mu[1] for mu, _ in hx.terms] + [0]
    return (min(ms), max(ms), min(ns), max(ns)), len(hx.terms)


def _norm2(a):
    """Tr(a a*) by orthonormality of the T-basis: the sum of |c_w|^2."""
    return sum((c.a * c.a for c in a.terms.values()), Fraction(0))


def _trie_nodes(h):
    """Distinct nonempty prefixes of the reduced words of h's support: the
    number of batched matrix products a character evaluation performs."""
    return len({weyl.reduced_word(w)[:k] for w in h.terms
                for k in range(1, weyl.length(w) + 1)})


def _pick(rng, draw, accept, tries=100_000):
    """Draw until ``accept`` holds; rejection keeps every seed's cost alike."""
    for _ in range(tries):
        x = draw()
        if accept(x):
            return x
    raise RuntimeError("no acceptable input found")


# ---------------------------------------------------------------------------
# algebra_trace, part 1: `chamberwalks trace --method all` on seeded a a*.
# ---------------------------------------------------------------------------

# (role, q, depth, ball radius, X-support extents, X terms, trie nodes).
# The extents fix the lattice box the exact trace table must cover: the
# second q=2 query fits the first box (a table hit), the third needs a
# larger box (a full re-walk).  The sizes fix the cost of the series sum
# (X terms) and of the quadrature (trie nodes), so every seed costs alike.
TRACE_QUERIES = (
    ("q2_cold", "2", TRACE_DEPTH, 2, (-1, 1, -1, 1), 24, 12),
    ("q2_hit", "2", TRACE_DEPTH, 2, (0, 1, 0, 1), 12, 5),
    ("q2_grow", "2", TRACE_DEPTH, 3, (0, 2, 0, 2), 25, 11),
    ("q3_cold", "3", TRACE_DEPTH, 2, (-1, 1, -1, 1), 24, 12),
    ("q5/2_cold", "5/2", TRACE_DEPTH_RAT, 2, (0, 1, 0, 1), 12, 5),
)


def _gen_trace_cli(rng, work):
    queries = []
    for k, (role, q, depth, radius, extents, xterms, nodes) in enumerate(TRACE_QUERIES):
        field = hecke.ScalarField(Fraction(q))
        ball = _ball(radius)

        def draw():
            a = hecke.t_element(field, [(rng.choice(ball), field.make(rng.randint(1, 3)))
                                        for _ in range(3)])
            return a, hecke.mul(a, hecke.star(a))

        def accept(pair):
            return (_x_extents(pair[1]) == (extents, xterms)
                    and _trie_nodes(pair[1]) == nodes)

        a, h = _pick(rng, draw, accept)
        path = os.path.join(work, f"element{k}.json")
        with open(path, "w") as fh:
            fh.write(serialize.hecke_to_json(h))
        queries.append({"role": role, "q": q, "depth": depth, "element": path,
                        "exact": str(_norm2(a))})
    return {"queries": queries}


def _build_trace_cli(plan):
    queries = [
        (f"trace {p['role']}", lambda p=p: run_cli([
            "trace", "--method", "all", "--q", p["q"], "--grid", str(GRID),
            "--depth", str(p["depth"]), "--element", p["element"]]))
        for p in plan["queries"]
    ]

    def check(outputs, checks):
        for p, out in zip(plan["queries"], outputs):
            name = f"trace {p['role']}"
            checks.add(f"{name}: exit 0", out["rc"] == 0, f"rc={out['rc']}")
            res = json.loads(out["stdout"])
            exact = float(Fraction(p["exact"]))
            scale = max(1.0, abs(exact))
            got = res["exact"]["value"]
            checks.add(f"{name}: exact == sum |c_w|^2", got == exact,
                       f"{got!r} vs {exact!r}")
            err = abs(res["plancherel"]["value"] - exact)
            checks.add(f"{name}: plancherel vs exact <= 1e-9", err <= 1e-9 * scale,
                       f"err {err:.2e}")
            # The series route is the only reader of the trace table.
            err = abs(res["series"]["value"] - exact)
            checks.add(f"{name}: series vs exact <= {SERIES_TOL:g}", err <= SERIES_TOL * scale,
                       f"err {err:.2e}")
            for route in ("exact", "plancherel", "series"):
                err = abs(res[route]["value"] - exact)
                est = res[route]["abs_err_estimate"]
                checks.add(
                    f"{name}: {route} error within its estimate",
                    err <= max(est, 1e-12 * scale),
                    f"true error {err:.2e} vs reported {est:.2e}",
                    defect=SERIES_DEFECT if route == "series" else None,
                )
    return queries, check


# ---------------------------------------------------------------------------
# algebra_trace, part 2: exact algebra identities and torus quadrature
# through public module functions (no trace table, no walk state space).
# ---------------------------------------------------------------------------

def _terms(rng, spheres):
    """Plan form [[m, n, u, c], ...] of a T-basis element with one term from
    each listed sphere of the Cayley graph, small integer coefficients."""
    out = []
    for r in spheres:
        w = rng.choice(_sphere(r))
        out.append([w.mu[0], w.mu[1], w.u, rng.randint(1, 3)])
    return out


_SPHERES = {}


def _sphere(r):
    if r not in _SPHERES:
        _SPHERES[r] = [w for w in _ball(r) if weyl.length(w) == r]
    return _SPHERES[r]


def _element(field, terms):
    return hecke.t_element(field, [(weyl.AffineElement((m, n), u), field.make(c))
                                   for m, n, u, c in terms])


def _product(q, terms):
    a = _element(hecke.ScalarField(q), terms)
    return hecke.mul(a, hecke.star(a))


def _gen_algebra_quad(rng, work):
    orbit = []
    while len(orbit) < 48:
        q = 2 if len(orbit) % 2 == 0 else 3
        th = (rng.uniform(0.15, 3.0), rng.uniform(-3.0, -0.15))
        t = (np.exp(1j * th[0]), np.exp(1j * th[1]))
        # c09's singular-point skip
        if abs(hecke.d_at(float(q), t)) < ORBIT_MIN_D:
            continue
        orbit.append({"q": q, "theta": list(th), "h": _terms(rng, (1, 2, 3))})
    return {
        "round_trip": [{"q": 2 + k % 2, "h": _terms(rng, (2, 3, 4, 5))} for k in range(24)],
        "expand_ball": 5,
        "mul_pairs": [{"q": 2 + k % 2, "a": _terms(rng, (1, 2, 3)), "b": _terms(rng, (2, 3, 4))}
                      for k in range(20)],
        "quad": [{"q": q, "h": _pick(rng, lambda: _terms(rng, (1, 2, 3)),
                                     lambda t: _trie_nodes(_product(q, t)) == 16)}
                 for q in (2, 3, 2)],
        "orbit": orbit,
    }


def _build_algebra_quad(plan):
    fields = {q: hecke.ScalarField(q) for q in (2, 3)}

    def load(q, terms):
        return _element(fields[q], terms)

    trips = [load(o["q"], o["h"]) for o in plan["round_trip"]]
    pairs = [(load(o["q"], o["a"]), load(o["q"], o["b"])) for o in plan["mul_pairs"]]
    quads = [load(o["q"], o["h"]) for o in plan["quad"]]
    orbit = [(load(o["q"], o["h"]), o["q"], tuple(np.exp(1j * x) for x in o["theta"]))
             for o in plan["orbit"]]
    field2 = fields[2]
    cayley = _ball(plan["expand_ball"])

    def exact_algebra():
        trips_ok = [hecke.x_to_t(hecke.t_to_x(h)) == h for h in trips]
        expand_ok = [walks.expand_t(w, field2)
                     == hecke.t_to_x(hecke.t_element(field2, [(w, field2.one)]))
                     for w in cayley]
        mul_ok = [hecke.t_to_x(hecke.mul(a, b))
                  == hecke.bernstein_mul(hecke.t_to_x(a), hecke.t_to_x(b)) for a, b in pairs]
        return trips_ok, expand_ok, mul_ok

    def quadrature(a):
        h = hecke.mul(a, hecke.star(a))
        return {"exact": hecke.trace(h), "norm2": _norm2(a),
                "quad": plancherel.plancherel_trace(h, GRID)}

    def orbit_identity():
        out = []
        for h, q, t in orbit:
            chi = reps.character(reps.principal_series(q, t), h)
            terms = [hecke.f_value(h, s) for s in hecke.orbit_characters(t)]
            out.append((abs(sum(terms) - chi), max(abs(f) for f in terms)))
        return out

    queries = [
        ("round trips, expand_t vs t_to_x, mul vs bernstein_mul", exact_algebra),
    ] + [(f"plancherel_trace N={GRID} #{k}", lambda a=a: quadrature(a))
         for k, a in enumerate(quads)] + [
        ("orbit character identity", orbit_identity),
    ]

    def check(outputs, checks):
        (trips_ok, expand_ok, mul_ok), *rest = outputs
        quad_outs, devs = rest[:-1], rest[-1]
        checks.add("x_to_t(t_to_x(h)) == h", all(trips_ok),
                   f"{trips_ok.count(False)} of {len(trips_ok)} differ")
        checks.add("walks.expand_t == hecke.t_to_x", all(expand_ok),
                   f"{expand_ok.count(False)} of {len(expand_ok)} differ")
        checks.add("t_to_x(mul) == bernstein_mul(t_to_x, t_to_x)", all(mul_ok),
                   f"{mul_ok.count(False)} of {len(mul_ok)} differ")
        for k, out in enumerate(quad_outs):
            exact = out["exact"]
            checks.add(f"quadrature #{k}: Tr(a a*) == sum |c_w|^2",
                       exact == exact.field.make(out["norm2"]), f"{exact!r}")
            err = abs(out["quad"] - float(out["norm2"]))
            checks.add(f"quadrature #{k}: plancherel vs exact <= 1e-9",
                       err <= 1e-9 * max(1.0, float(out["norm2"])), f"err {err:.2e}")
        # Near a wall t^a = 1 the six orbit terms grow large and cancel, so
        # the rounding error scales with the largest term, not with the sum.
        worst = max(dev / max(1.0, big) for dev, big in devs)
        checks.add("orbit sum of f_value == principal character <= 1e-9 x largest term",
                   worst <= 1e-9, f"worst relative dev {worst:.2e} over {len(devs)} points")
    return queries, check


# ---------------------------------------------------------------------------
# walk_exact: `chamberwalks walk llt` plus the c07 spectral/recursion oracle.
# ---------------------------------------------------------------------------

def _gen_walk_exact(rng, work):
    words = [_random_word(rng, 1, 3) for _ in range(2)]
    return {"llt": [("2", ""), ("2", serialize.word_to_str(words[0])),
                    ("2", serialize.word_to_str(words[1])), ("3", "")],
            "oracle_q": 2, "oracle_n": 20, "rational_n": 8}


def _parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def _build_walk_exact(plan):
    ns = ",".join(str(n) for n in LLT_NS)
    q, nmax, nrat = plan["oracle_q"], plan["oracle_n"], plan["rational_n"]
    spec = limit.simple_walk_spec()
    queries = [
        (f"walk llt q={qq} word='{word}'", lambda qq=qq, word=word: run_cli(
            ["walk", "llt", "--q", qq, "--n", ns, "--word", word]))
        for qq, word in plan["llt"]
    ] + [
        (f"spectral traces and recursion n<={nmax}", lambda: (
            plancherel.simple_walk_spectral_traces(float(q), nmax, GRID),
            limit.exact_distribution(spec, nmax, q, snapshots=list(range(nmax + 1))))),
        (f"exact_distribution_rational n={nrat}",
         lambda: limit.exact_distribution_rational(spec, nrat, q)),
    ]

    def check(outputs, checks):
        *llt, (spectral, snaps), rational = outputs
        ratios = {}
        for (qq, word), out in zip(plan["llt"], llt):
            name = f"walk llt q={qq} word='{word}'"
            checks.add(f"{name}: exit 0", out["rc"] == 0, f"rc={out['rc']}")
            rows = {int(r["n"]): float(r["ratio"]) for r in _parse_csv(out["stdout"])}
            ratios[qq, word] = rows
            if word == "":
                r = [rows[n] for n in LLT_NS]
                checks.add(f"{name}: ratio rises toward 1 (c12 trend)",
                           r[0] < r[1] < r[2] and abs(r[2] - 1) < abs(r[0] - 1),
                           ", ".join(f"{x:.4f}" for x in r))
        n = LLT_NS[-1]
        for (qq, word), rows in ratios.items():
            if word and (qq, "") in ratios:
                rel = rows[n] / ratios[qq, ""][n]
                # The known defect has a signature: r(w)/r(e) is off by
                # q^(2 l(w)); any other departure is an unexpected failure.
                off = rel / Fraction(qq) ** (2 * len(word.split(",")))
                checks.add(f"walk llt q={qq} word='{word}': r(w)/r(e) in [0.8, 1.25] at n={n}",
                           0.8 <= rel <= 1.25,
                           f"r(w)/r(e) = {rel:.4f}, / q^(2 l(w)) = {off:.4f}",
                           defect=LLT_DEFECT if 0.8 <= off <= 1.25 else None)
        dev = max(abs(spectral[k] - snaps[k].p_value(weyl.IDENTITY, float(q)))
                  for k in range(nmax + 1))
        checks.add(f"spectral vs recursion return probability n<={nmax} <= 1e-8",
                   dev <= 1e-8, f"max dev {dev:.2e}")
        last = snaps[nrat]
        dev = max(abs(float(m) - last.mass(w)) for w, m in rational.items())
        support = {w for w, _ in last.items()} == set(rational)
        checks.add(f"float vs Fraction recursion n={nrat} <= 1e-12",
                   support and dev <= 1e-12 and sum(rational.values()) == 1,
                   f"max dev {dev:.2e}, same support {support}")
    return queries, check


# ---------------------------------------------------------------------------
# mc_sample: `chamberwalks walk compare` plus a c13-style distribution check.
# ---------------------------------------------------------------------------

def _gen_mc_sample(rng, work):
    return {
        "compare": [{"word": serialize.word_to_str(_random_word(rng, 0, 3)),
                     "seed": rng.randrange(1 << 30)} for _ in range(3)],
        "dist_seed": rng.randrange(1 << 30),
    }


def _build_mc_sample(plan):
    spec = limit.simple_walk_spec()
    queries = [
        (f"walk compare word='{c['word']}'", lambda c=c: run_cli([
            "walk", "compare", "--q", "2", "--n", str(MC_N), "--word", c["word"],
            "--trials", str(MC_TRIALS), "--seed", str(c["seed"])]))
        for c in plan["compare"]
    ] + [
        (f"mc_simulate and exact_distribution n={DIST_N}", lambda: (
            limit.mc_simulate(DIST_N, DIST_TRIALS, plan["dist_seed"], 2),
            limit.exact_distribution(spec, DIST_N, 2))),
    ]

    def check(outputs, checks):
        *compares, (emp, exact) = outputs
        for c, out in zip(plan["compare"], compares):
            name = f"walk compare word='{c['word']}'"
            row = _parse_csv(out["stdout"])[0]
            m, e = float(row["exact_mass"]), float(row["mc_mass"])
            sigmas = abs(e - m) / max(m * (1 - m) / MC_TRIALS, 1e-300) ** 0.5
            checks.add(f"{name}: exit code matches its 4-sigma rule",
                       out["rc"] == (0 if float(row["mc_sigmas"]) <= 4 else 1),
                       f"rc={out['rc']}")
            checks.add(f"{name}: Monte Carlo within 5 sigma of exact", sigmas <= 5,
                       f"{sigmas:.2f} sigma")
        worst, count = 0.0, 0
        for w, m in exact.items():
            if m > 1e-4:
                count += 1
                sigma = (m * (1 - m) / DIST_TRIALS) ** 0.5
                worst = max(worst, abs(emp.mass(w) - m) / sigma)
        checks.add(f"mc_simulate n={DIST_N}: every state within 5 sigma", worst <= 5,
                   f"worst {worst:.2f} sigma over {count} states")
        p = exact.masses
        tv = 0.5 * float(np.abs(emp.masses - p).sum())
        expected = 0.5 * float(np.sum(np.sqrt(2 * p * (1 - p) / (np.pi * DIST_TRIALS))))
        checks.add(f"mc_simulate n={DIST_N}: TV < 1.5x its expectation",
                   tv < 1.5 * expected, f"TV {tv:.5f} vs expectation {expected:.5f}")
    return queries, check


def _gen_algebra_trace(rng, work):
    return {"trace": _gen_trace_cli(rng, work), "algebra": _gen_algebra_quad(rng, work)}


def _build_algebra_trace(plan):
    """The CLI trace queries first (the first one meets a cold trace table),
    then the algebra and quadrature queries."""
    trace_queries, trace_check = _build_trace_cli(plan["trace"])
    algebra_queries, algebra_check = _build_algebra_quad(plan["algebra"])
    split = len(trace_queries)

    def check(outputs, checks):
        trace_check(outputs[:split], checks)
        algebra_check(outputs[split:], checks)
    return trace_queries + algebra_queries, check


_GEN = {"algebra_trace": _gen_algebra_trace, "walk_exact": _gen_walk_exact,
        "mc_sample": _gen_mc_sample}
_BUILD = {"algebra_trace": _build_algebra_trace, "walk_exact": _build_walk_exact,
          "mc_sample": _build_mc_sample}


def generate(name, seed, work):
    return _GEN[name](random.Random(f"{name}:{seed}"), work)


def build(name, plan):
    return _BUILD[name](plan)
