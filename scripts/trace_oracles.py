"""Three-way trace comparison for walk powers: exact recursion,
torus-quadrature spectral decomposition, and (at small n) the exact algebra.

Usage: python scripts/trace_oracles.py [--q 2] [--nmax 20] [--grid 256]

--q takes an integer or a fraction such as 5/2, as the CLI does.
"""

import argparse
from fractions import Fraction

from chamberwalks import hecke, limit, plancherel, weyl


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--q", type=Fraction, default=Fraction(2))
    ap.add_argument("--nmax", type=int, default=20)
    ap.add_argument("--grid", type=int, default=256)
    args = ap.parse_args()

    q = float(args.q)
    m6, m3, m1 = plancherel.mass_components(q, args.grid)
    print(f"# q = {args.q}: component masses {m6:.12f} + {m3:.12f} + "
          f"{m1:.12f} = {m6 + m3 + m1:.14f}")

    spectral = plancherel.simple_walk_spectral_traces(q, args.nmax, args.grid)
    snaps = limit.exact_distribution(
        limit.simple_walk_spec(), args.nmax, args.q,
        snapshots=list(range(args.nmax + 1)),
    )
    field = hecke.ScalarField(args.q)
    algebra = hecke.unit(field)
    walk = hecke.simple_walk(field)

    print(f"{'n':>4} {'recursion':>22} {'spectral':>22} {'|diff|':>10}")
    for n in range(args.nmax + 1):
        if n:
            algebra = hecke.mul(algebra, walk)
        exact = snaps[n].p_value(weyl.IDENTITY, q)
        if n <= 8:
            assert abs(complex(hecke.trace(algebra)).real - exact) < 1e-14
        print(f"{n:>4} {exact:>22.15e} {spectral[n]:>22.15e} "
              f"{abs(exact - spectral[n]):>10.2e}")


if __name__ == "__main__":
    main()
