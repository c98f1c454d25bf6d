"""Return-probability asymptotics of the uniform nearest-neighbour walk.

Runs the exact recursion, restricted to the states that can still
return to the start (``limit.masses_at``), and compares the n-step return
probability against the closed-form n^-4 estimate, then extends the picture
to larger n through the spectral decomposition (Plancherel quadrature).
With --big "" the whole run takes about 1.2 s and 85 MB max RSS at
--n 1600, and about 7.4-8.3 s and 243 MB at --n 3200 (2-core Xeon).  Beyond
n = 5003 the light-cone ball exceeds the largest one state_space builds,
and the spectral route is the only one.

Usage: python scripts/llt_trend.py [--q 2] [--n 100,200,400] [--big 1600,6400]

--q takes an integer or a fraction such as 5/2, as the CLI does, and input
out of the domain exits 2 with one error line.  --n a,b --big a,b prints
both routes at the same n.
"""

import argparse
import sys
from fractions import Fraction

from chamberwalks import limit, plancherel, weyl


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--q", type=Fraction, default=Fraction(2))
    ap.add_argument("--n", default="100,200,400")
    ap.add_argument("--big", default="1600,6400")
    args = ap.parse_args()
    try:
        run(args)
    except OverflowError:
        print("error: --q is too large: a power of q overflows a double", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run(args):
    q = float(args.q)

    ns = [int(s) for s in args.n.split(",") if s]
    big = [int(s) for s in args.big.split(",") if s]

    print(f"# q = {q}")
    print(f"{'n':>8} {'p_n(c,c)':>14} {'estimate':>14} {'ratio':>8} "
          f"{'(1-r)n':>12}")
    # p_n(c, c) is the mass at e, divided by q^l(e) = 1
    masses = limit.masses_at(limit.simple_walk_spec(), weyl.IDENTITY, ns, q)
    for n, p in zip(ns, masses):
        est = limit.llt_estimate(weyl.IDENTITY, n, q)
        r = p / est
        print(f"{n:>8} {p:>14.6e} {est:>14.6e} {r:>8.4f} "
              f"{(1 - r) * n:>12.1f}")
    if big:
        spec = plancherel.spectral_return_probabilities(q, big, n_grid=512)
        for n, p in zip(big, spec):
            est = limit.llt_estimate(weyl.IDENTITY, n, q)
            r = p / est
            print(f"{n:>8} {p:>14.6e} {est:>14.6e} {r:>8.4f} "
                  f"{(1 - r) * n:>12.1f}  (spectral)")


if __name__ == "__main__":
    sys.exit(main())
