"""Batch command-line front end.

Subcommands: walk {exact,mc,llt,compare}, trace, walks, reps, spectrum.
Exit codes: 0 success, 1 tolerance violation, 2 usage or parse error.
All outputs are deterministic given the flags (including --seed); floats are
printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import hecke, limit, plancherel, reps, serialize, walks, weyl

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2


def _common_flags(p: argparse.ArgumentParser, q="2"):
    p.add_argument("--q", default=q, help="thickness, integer or p/r")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="chamberwalks", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    walk = sub.add_parser("walk", help="n-step walk distributions")
    wsub = walk.add_subparsers(dest="walk_command", required=True)
    for name, run in (("exact", cmd_distribution), ("mc", cmd_distribution),
                      ("llt", cmd_llt), ("compare", cmd_compare)):
        p = wsub.add_parser(name)
        p.set_defaults(run=run)
        _common_flags(p)
        if name == "llt":
            p.add_argument("--n", required=True, help="comma-separated step counts")
        else:
            p.add_argument("--n", type=int, required=True)
        if name in ("llt", "compare"):
            p.add_argument("--word", default="", help="relative position, e.g. '0,1'")
        if name in ("mc", "compare"):
            p.add_argument("--trials", type=int, default=100000)
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("trace", help="canonical trace by several routes")
    p.set_defaults(run=cmd_trace)
    _common_flags(p, q=None)  # None: the element's q
    p.add_argument("--grid", type=int, default=256, help="quadrature nodes per circle")
    p.add_argument("--method", choices=("exact", "plancherel", "series", "all"),
                   default="all")
    p.add_argument("--element", required=True, help="path to element JSON")
    p.add_argument("--depth", type=int, default=24)

    p = sub.add_parser("walks", help="enumerate positively folded galleries")
    p.set_defaults(run=cmd_walks)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--type", required=True, dest="type_word")
    p.add_argument("--start", default="", help="start alcove as word over 0,1,2")

    p = sub.add_parser("reps", help="module checks")
    rsub = p.add_subparsers(dest="reps_command", required=True)
    pc = rsub.add_parser("check")
    pc.set_defaults(run=cmd_reps)
    _common_flags(pc)
    pc.add_argument("--t", required=True, help="re,im,re,im of (t1,t2)")
    pc.add_argument("--u", default=None, help="re,im parameter of the 3-dim module")

    p = sub.add_parser("spectrum", help="closed-form spectral data")
    p.set_defaults(run=cmd_spectrum)
    _common_flags(p)
    return top


def _emit(args, text: str):
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_q(s: str) -> Fraction:
    q = serialize.parse_fraction(s, "--q")
    if q <= 1:
        raise ValueError("--q must exceed 1")
    return q


def _parse_steps(s: str) -> list:
    """The step counts of a comma-separated --n: at least one, each >= 1."""
    try:
        ns = [int(x) for x in s.split(",") if x]
    except ValueError:
        raise ValueError(f"--n expects comma-separated integers, got {s!r}") from None
    if not ns or min(ns) < 1:
        raise ValueError(f"--n expects step counts >= 1, got {s!r}")
    return ns


def _parse_complex(s: str, flag: str, count: int) -> list:
    """Exactly `count` finite complex numbers from a flag's re,im pairs."""
    try:
        parts = [float(x) for x in s.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 2 * count:
        raise ValueError(f"{flag} expects " + ",".join(["re,im"] * count))
    if not np.isfinite(parts).all():
        raise ValueError(f"{flag} takes finite numbers, got {s}")
    return [complex(*parts[k:k + 2]) for k in range(0, len(parts), 2)]


def _query(args):
    """q, the --word of a walk query, its element w and the sphere size q^l(w)."""
    q = _parse_q(args.q)
    word = serialize.parse_word(args.word)
    target = weyl.from_word(word)
    return q, word, target, float(q) ** weyl.length(target)


def cmd_distribution(args) -> int:
    q = _parse_q(args.q)
    if args.walk_command == "exact":
        dist = limit.exact_distribution(limit.simple_walk_spec(), args.n, q)
    else:
        dist = limit.mc_simulate(args.n, args.trials, args.seed, q)
    rows = [(serialize.word_to_str(weyl.reduced_word(w)), w.mu[0], w.mu[1],
             serialize.word_to_str(weyl.W0_WORDS[w.u]), float(mass), dist.p_value(w, float(q)))
            for w, mass in dist.items()]  # state order: (length, mu, u)
    header = ["word", "mu_m", "mu_n", "theta", "mass", "p_n"]
    _emit(args, serialize.write_csv(None, header, rows))
    return EXIT_OK


def cmd_llt(args) -> int:
    q, _, target, sphere = _query(args)
    ns = _parse_steps(args.n)
    rows = []
    for n, mass in zip(ns, limit.masses_at(limit.simple_walk_spec(), target, ns, q)):
        p = mass / sphere
        est = limit.llt_estimate(target, n, q)
        rows.append((n, p, est, p / est))
    _emit(args, serialize.write_csv(None, ["n", "p_n", "estimate", "ratio"], rows))
    return EXIT_OK


def cmd_compare(args) -> int:
    """Exact vs Monte Carlo vs asymptotic estimate at one relative position."""
    q, word, target, sphere = _query(args)
    [exact_mass] = limit.masses_at(limit.simple_walk_spec(), target, [args.n], q)
    emp = limit.mc_simulate(args.n, args.trials, args.seed, q)
    emp_mass = emp.mass(target)
    sigma = (max(exact_mass * (1 - exact_mass), 1e-300) / args.trials) ** 0.5
    dev = abs(emp_mass - exact_mass) / sigma
    est = limit.llt_estimate(target, args.n, q) if args.n >= 1 else float("nan")
    p_exact = exact_mass / sphere
    header = ["word", "n", "exact_mass", "mc_mass", "mc_sigmas", "p_n", "llt", "ratio"]
    row = (serialize.word_to_str(word), args.n, exact_mass, emp_mass,
           dev, p_exact, est, p_exact / est)
    _emit(args, serialize.write_csv(None, header, [row]))
    return EXIT_OK if dev <= 4.0 else EXIT_TOLERANCE


def cmd_trace(args) -> int:
    if args.grid < 32:  # the quadrature estimate compares N with N // 2 >= 16 nodes
        raise ValueError("--grid must be at least 32")
    with open(args.element) as fh:
        h = serialize.hecke_from_json(fh.read())
    if args.q is not None and _parse_q(args.q) != h.field.q:
        raise ValueError(f"--q {args.q} differs from the element's q = {h.field.q}")
    if h.basis == "X":
        h = hecke.x_to_t(h)
    results = {}
    if args.method in ("exact", "all"):
        results["exact"] = {
            "value": complex(hecke.trace(h)).real,
            "abs_err_estimate": 0.0,
            "N": None,
        }
    if args.method in ("plancherel", "all"):
        value, estimate = plancherel.plancherel_estimate(h, args.grid)
        results["plancherel"] = {
            "value": value.real,
            "abs_err_estimate": estimate,
            "N": args.grid,
        }
    ok = True
    if args.method in ("series", "all"):
        results["series"] = series = _series_trace(h, args.depth)
        ok = series["check_deviation"] <= series["check_bound"]
    if args.method != "all":
        _emit(args, json.dumps(results[args.method], default=float))
        return EXIT_OK if ok else EXIT_TOLERANCE
    vals = [r["value"] for r in results.values()]
    spread = max(vals) - min(vals)
    tol = sum(r["abs_err_estimate"] for r in results.values())
    tol += 1e-12 * max(1.0, abs(results["exact"]["value"]))
    results["max_discrepancy"] = spread
    _emit(args, json.dumps(results, default=float))
    return EXIT_OK if ok and spread <= tol else EXIT_TOLERANCE


# the generating-series check runs at radius _CHECK_RHO / (16 q^2), where the
# tail bound shrinks like _CHECK_RHO^depth, at these angles of (t1, t2)
_CHECK_RHO = 0.05
_CHECK_ANGLES = ((0.4, -1.1), (1.9, 0.8), (-2.5, 2.9), (3.0, -2.2))


def _series_trace(h, depth: int) -> dict:
    """Tr(h) as the exact constant term of the generating series F_t(h), and
    the largest deviation of F_t(h) at the given depth from the intertwiner
    closed form f_t(h) / (q^3 c(t) c(1/t)) at a few small t, with its bound:
    the series' tail bound plus 1e-12 max(1, |closed form|)."""
    q = float(h.field.q)
    hx = hecke.t_to_x(h)  # all three readers take the X-basis form
    t1, t2 = _CHECK_RHO / (16 * q * q) * np.exp(1j * np.array(_CHECK_ANGLES).T)
    series, tail = plancherel.f_series(hx, (t1, t2), depth)
    closed = np.array([hecke.f_value(hx, t) / (q ** 3 * plancherel.c_value(q, t)
                                              * plancherel.c_value(q, (1 / t[0], 1 / t[1])))
                       for t in zip(t1, t2)])
    return {
        "value": complex(plancherel.table_trace(hx)).real,
        "abs_err_estimate": 0.0,
        "N": depth,
        "check_deviation": float(np.abs(series - closed).max()),
        "check_bound": tail + 1e-12 * max(1.0, float(np.abs(closed).max())),
    }


def cmd_walks(args) -> int:
    word = serialize.parse_word(args.type_word)
    start = weyl.from_word(serialize.parse_word(args.start))
    lines = []
    for p in walks.enumerate_walks(word, start=start):
        lines.append(" | ".join([
            serialize.word_to_str(p.type_word),
            " ".join(p.tags) or "-",
            serialize.element_to_json(p.end),
            f"wt=({p.weight[0]},{p.weight[1]})",
            "theta=" + (serialize.word_to_str(weyl.W0_WORDS[p.direction]) or '""'),
            f"folds={p.fold_count}",
        ]))
    _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_reps(args) -> int:
    q = _parse_q(args.q)
    t = tuple(_parse_complex(args.t, "--t", 2))
    out = {
        "q": str(q),
        "t": [[t[0].real, t[0].imag], [t[1].real, t[1].imag]],
        "max_relation_residual": reps.max_relation_residual(reps.principal_series(q, t)),
        "irreducible": reps.is_principal_irreducible(q, t),
    }
    if args.u is not None:
        [u] = _parse_complex(args.u, "--u", 1)
        rep3 = reps.induced_three_dim(q, u)
        out["induced_max_relation_residual"] = reps.max_relation_residual(rep3)
    _emit(args, json.dumps(out, default=float))
    # NaN compares false, so it counts as a violation
    ok = out["max_relation_residual"] <= 1e-12 and (
        out.get("induced_max_relation_residual", 0.0) <= 1e-12
    )
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_spectrum(args) -> int:
    q = _parse_q(args.q)
    sd = limit.spectral_data(q)
    numeric = limit.eigen_surface((0.0, 0.0), q)
    dev = float(np.abs(np.array(sd.eigenvalues) - numeric).max())
    out = {
        "q": str(q),
        "eigenvalues": list(sd.eigenvalues),
        "induced_eigenvalues": [
            sd.induced_eigenvalues[0], sd.induced_eigenvalues[0],
            sd.induced_eigenvalues[1],
        ],
        "spectral_radius": sd.spectral_radius,
        "beta": sd.beta,
        "top_vector_entry": sd.top_vector_entry,
        "bottom_vector_entry": sd.bottom_vector_entry,
        "max_closed_form_deviation": dev,
    }
    _emit(args, json.dumps(out, default=float))
    return EXIT_OK if dev < 1e-12 else EXIT_TOLERANCE


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except OverflowError:
        # the floats the commands form from q are its powers and their ratios
        q = getattr(args, "q", None)
        print(f"error: {'q' if q is None else '--q ' + q} is too large: a power of q "
              "overflows a double", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
