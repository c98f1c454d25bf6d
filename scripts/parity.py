"""Bit-for-bit comparison of the exact walk against another checkout.

Runs the same queries on this checkout and on OTHER (a second checkout of
the repository, e.g. one made with ``git archive``), each in its own
interpreter with PYTHONPATH at that checkout's src/, and reports every
result whose bits differ:

- ``exact_distribution`` of five walk specs at n in {0, 1, 17, 40} and
  q in {2, 3, 5/2}, on its own and as snapshots of one n = 40 run: the
  masses with their dtype and shape;
- ``masses_at`` of the same specs at every w of length <= 4;
- ``c_w_value`` at every w of length <= 4, q in {2, 3, 5/2, 11/10};
- the stdout of ``walk exact/mc/llt/compare`` and of
  ``scripts/llt_trend.py --n 1600 --big ""``.

A refactor that claims to keep every bit runs it against its parent
commit; it takes about 10 s.  Exits 1 on any difference.

Usage: python scripts/parity.py OTHER
"""

import os
import pathlib
import pickle
import subprocess
import sys
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
)


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


def dump():
    """Every library result of this interpreter's checkout, keyed by name."""
    from chamberwalks import limit, weyl

    out = {}
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
