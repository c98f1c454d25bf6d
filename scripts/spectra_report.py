"""Spectral data report: closed forms vs numerics, the perturbation surface,
and the fitted trigonometric coefficients of the shifted determinant (kept
as a recorded probe; the source identity's printed constants are
q-independent and are not asserted).

Usage: python scripts/spectra_report.py [--q 2]

--q takes an integer or a fraction such as 5/2, as the CLI does.
"""

import argparse
from fractions import Fraction

import numpy as np

from chamberwalks import limit


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--q", type=Fraction, default=Fraction(2))
    args = ap.parse_args()
    q = float(args.q)

    sd = limit.spectral_data(q)
    numeric = limit.eigen_surface((0.0, 0.0), q)
    print(f"# q = {q}")
    print("closed-form eigenvalues:", [f"{v:.12f}" for v in sd.eigenvalues])
    print("numeric eigenvalues:    ", [f"{v:.12f}" for v in numeric])
    print(f"max deviation: {np.abs(np.array(sd.eigenvalues) - numeric).max():.2e}")
    print(f"top-vector entry a = {sd.top_vector_entry:.12f}, "
          f"bottom b = {sd.bottom_vector_entry:.12f}")
    print(f"quadratic decay rate beta = {sd.beta:.12f}")
    mu = limit.induced_eigen_curve(0.0, q)
    print("induced-module eigenvalues:", [f"{v:.12f}" for v in mu])

    coef, resid = limit.determinant_probe(q)
    print("determinant identity (3*sqrt(q))^6 * det(pi(P) - lam1):")
    print(f"  fitted [const, first-shell, second-shell] = "
          f"[{coef[0]:.10f}, {coef[1]:.10f}, {coef[2]:.10f}]")
    print(f"  fit residual {resid:.2e}  "
          f"(q-independent exact constants 150, -48, -2)")


if __name__ == "__main__":
    main()
