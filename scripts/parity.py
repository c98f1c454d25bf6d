"""Bit-for-bit comparison of the exact walk against another checkout.

Runs the same queries on this checkout and on OTHER (a second checkout of
the repository, e.g. one made with ``git archive``), each in its own
interpreter with PYTHONPATH at that checkout's src/, and reports every
result whose bits differ:

- the ``state_space`` tables (elems, pos, lengths, target, ascent, with
  their dtypes) at radii 0, 1, 2, 40, 200, 201 and 800;
- ``exact_distribution`` of five walk specs at n in {0, 1, 17, 40} and
  q in {2, 3, 5/2}, on its own and as snapshots of one n = 40 run: the
  masses with their dtype and shape;
- ``masses_at`` of the same specs at every w of length <= 4;
- ``c_w_value`` at every w of length <= 4, q in {2, 3, 5/2, 11/10};
- ``mul`` and ``bernstein_mul`` of seeded products and ``macdonald_p`` of
  ten weights up to (10, 3), one of them not dominant, at q in {2, 3, 5/2},
  as (key, a, b) terms;
- ``t_to_x`` of T_(t_(100,100)) at q in {2, 5/2}, as (key, a, b) terms;
- the ``TraceTable.trace_row`` scalars over the hexagon of radius 22 at
  q in {2, 3, 5/2, 4, 101/100}, as (a, b) pairs;
- ``f_series`` value and tail bound of two elements at q = 2 and depths
  0, 1, 10 and 40, and ``plancherel_trace`` of T_(t_(25,25)) at q = 2;
- the stdout of ``walk exact/mc/llt/compare``, ``trace --method all`` on a
  T-basis element at q = 2 and an X-basis element at q = 5/2, ``walks``,
  ``reps check``, ``spectrum`` and ``scripts/llt_trend.py --n 1600 --big ""``.

A refactor that claims to keep every bit runs it against its parent
commit; it takes about 10 s.  Exits 1 on any difference.

Usage: python scripts/parity.py OTHER
"""

import cmath
import os
import pathlib
import pickle
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent.parent
QS = (2, 3, Fraction(5, 2))
NS = (0, 1, 17, 40)
CLI = (
    ["walk", "exact", "--q", "2", "--n", "12"],
    ["walk", "exact", "--q", "5/2", "--n", "5"],
    ["walk", "mc", "--q", "3", "--n", "10", "--trials", "5000", "--seed", "7"],
    ["walk", "llt", "--q", "2", "--n", "100,200,400", "--word", "0,1,2"],
    ["walk", "llt", "--q", "3", "--n", "1,2,50", "--word", ""],
    ["walk", "compare", "--q", "2", "--n", "40", "--word", "1,2",
     "--trials", "20000", "--seed", "3"],
    ["walk", "exact", "--n", "60"],
    ["walks", "--type", "1,2,1,0"],
    ["reps", "check", "--q", "2", "--t", "0.6,0.8,0.28,-0.96"],
    ["spectrum", "--q", "3"],
    ["spectrum", "--q", "5/2"],
)
# algebra elements for ``trace --method all``, by file name
ELEMENTS = {
    "t.json": '{"basis": "T", "q": "2", "terms": ['
              '{"index": {"mu": [0, 0], "u": ""}, "a": "3", "b": "0"}, '
              '{"index": {"mu": [1, 1], "u": "1,2,1"}, "a": "1/2", "b": "-1"}, '
              '{"index": {"mu": [-1, 2], "u": "2"}, "a": "-2", "b": "1/3"}, '
              '{"index": {"mu": [1, -1], "u": "1,2"}, "a": "0", "b": "1"}]}',
    "x.json": '{"basis": "X", "q": "5/2", "terms": ['
              '{"index": {"mu": [0, 0], "u": "1,2,1"}, "a": "1", "b": "0"}, '
              '{"index": {"mu": [2, -1], "u": "2,1"}, "a": "-3/4", "b": "2"}, '
              '{"index": {"mu": [-1, 0], "u": "1"}, "a": "5", "b": "-1/2"}]}',
}


def _specs():
    from chamberwalks import limit, weyl

    third, half = Fraction(1, 3), Fraction(1, 2)
    word = weyl.from_word
    return {
        "simple": limit.simple_walk_spec(),
        "two-letter": {weyl.GEN[0]: half, word((0, 1)): half},
        "three-word": {weyl.GEN[0]: third, word((1, 2)): third, word((2, 0)): third},
        "pair": {weyl.GEN[1]: half, weyl.GEN[2]: half},
        "rotation": {word(w): third for w in ((0, 1), (1, 2), (2, 0))},
    }


def _bits(x):
    """A value as its exact bits: arrays with dtype and shape, floats in hex."""
    import numpy as np

    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, float):
        return x.hex()
    return x


def _terms(h):
    """An algebra element as its sorted (key, a, b) terms."""
    return sorted((k.mu + (k.u,) if h.basis == "T" else k, str(c.a), str(c.b))
                  for k, c in h.terms.items())


def dump():
    """Every library result of this interpreter's checkout, keyed by name."""
    import numpy as np

    from chamberwalks import hecke, limit, plancherel, weyl

    out = {}
    for radius in (0, 1, 2, 40, 200, 201, 800):
        space = limit.state_space(radius)
        for name in ("elems", "pos", "lengths", "target", "ascent"):
            out[f"state_space r={radius} {name}"] = _bits(getattr(space, name))
    ball = sorted(weyl.ball(4), key=lambda w: (weyl.length(w), w.mu, w.u))
    for name, spec in _specs().items():
        for q in QS:
            for n in NS:
                out[f"exact {name} q={q} n={n}"] = _bits(
                    limit.exact_distribution(spec, n, q).masses)
            snaps = limit.exact_distribution(spec, max(NS), q, snapshots=NS)
            for n in NS:
                out[f"snapshot {name} q={q} n={n}"] = _bits(snaps[n].masses)
            for w in ball:
                out[f"masses_at {name} q={q} w={w}"] = [
                    _bits(m) for m in limit.masses_at(spec, w, NS, q)]
    for q in (*QS, Fraction(11, 10)):
        for w in ball:
            out[f"c_w_value q={q} w={w}"] = _bits(limit.c_w_value(w, q))
    for q in QS:
        field = hecke.ScalarField(q)
        rng = random.Random(7)
        for k in range(4):
            a, b = (hecke.t_element(field, [
                (rng.choice(ball), field.make(rng.randint(-3, 3), rng.randint(-2, 2)))
                for _ in range(4)]) for _ in range(2))
            out[f"mul q={q} #{k}"] = _terms(hecke.mul(a, b))
            out[f"bernstein_mul q={q} #{k}"] = _terms(
                hecke.bernstein_mul(hecke.t_to_x(a), hecke.t_to_x(b)))
        for mu in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (3, 0),
                   (3, 2), (5, 5), (-1, 2), (10, 3)):
            out[f"macdonald_p q={q} mu={mu}"] = _terms(hecke.macdonald_p(field, mu))
    for q in (2, Fraction(5, 2)):
        field = hecke.ScalarField(q)
        long_word = hecke.t_element(field, [(weyl.translation((100, 100)), field.one)])
        out[f"t_to_x t_(100,100) q={q}"] = _terms(hecke.t_to_x(long_word))
    radius = 22
    hexagon = [(m, n) for m in range(-radius, radius + 1) for n in range(-radius, radius + 1)
               if max(abs(weyl.pairing((m, n), a)) for a in weyl.POS_ROOTS) <= radius]
    for q in (2, 3, Fraction(5, 2), 4, Fraction(101, 100)):
        table = hecke.TraceTable(q)
        table.ensure_box((-radius // 2, 0), (0, 0))
        for mu in hexagon:
            out[f"trace_row q={q} mu={mu}"] = [(str(c.a), str(c.b)) for c in table.trace_row(mu)]
    field = hecke.ScalarField(2)
    word = weyl.from_word
    a = hecke.t_element(field, [(word((0, 1, 2)), field.one), (word((1, 2)), field.make(2)),
                                (word((0,)), field.make(3))])
    elements = {"a a*": hecke.mul(a, hecke.star(a)),
                "T_10": hecke.t_element(field, [(word((1, 0)), field.make(2, 1))])}
    r = 0.05 / (16 * 2 ** 2)
    t = (r * cmath.exp(0.4j), r * cmath.exp(-1.1j))
    for name, h in elements.items():
        for depth in (0, 1, 10, 40):
            value, tail = plancherel.f_series(h, t, depth)
            out[f"f_series {name} depth={depth}"] = (_bits(np.asarray(value)), _bits(tail))
    long_word = hecke.t_element(field, [(weyl.translation((25, 25)), field.one)])
    out["plancherel_trace t_(25,25)"] = _bits(np.asarray(plancherel.plancherel_trace(long_word)))
    return out


def outputs(root: pathlib.Path) -> dict:
    """The library results and command outputs of the checkout at root."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(argv):
        return subprocess.run([sys.executable, *argv], env=env, check=True,
                              capture_output=True, cwd=root).stdout

    out = pickle.loads(run([str(pathlib.Path(__file__).resolve()), "--dump"]))
    for argv in CLI:
        out[" ".join(argv)] = run(["-m", "chamberwalks.cli", *argv])
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in ELEMENTS.items():
            path = pathlib.Path(tmp) / name
            path.write_text(text)
            out[f"trace --method all {name}"] = run(
                ["-m", "chamberwalks.cli", "trace", "--method", "all", "--element", str(path)])
    out["llt_trend.py --n 1600"] = run(
        [str(root / "scripts" / "llt_trend.py"), "--n", "1600", "--big", ""])
    return out


def main():
    if sys.argv[1:] == ["--dump"]:
        sys.stdout.buffer.write(pickle.dumps(dump()))
        return 0
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    here, other = outputs(HERE), outputs(pathlib.Path(sys.argv[1]).resolve())
    differ = sorted(k for k in here.keys() | other.keys() if here.get(k) != other.get(k))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(here)} results compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
