"""Reference oracles shared by several test files.  Each recomputes what the
package computes by a route of its own: the Bruhat order by lifting along a
reduced word, the principal-series matrix elements from positively folded
galleries (never from ``reps``), and the small-angle density from the
closed-form c-function."""

import numpy as np

from chamberwalks import plancherel as P
from chamberwalks import walks as WK
from chamberwalks import weyl as W


def bruhat_leq(v, w) -> bool:
    """Subword order, by the standard one-pass lifting algorithm: eat the
    reduced word of w from the right, following descents of the candidate."""
    if W.length(v) > W.length(w):
        return False
    x = v
    for i in reversed(W.reduced_word(w)):
        if not W.is_ascent(x, i):
            x = W.right_mul_gen(x, i)
    return x == W.IDENTITY


def matrix_element_monomials(w, u: int, v: int, field):
    """The entry [pi_t(T_{w^-1})]_{v,u} as a list of (exponent, coefficient)
    pairs: galleries of type w starting at u with final direction v, each
    contributing coefficient Q(p) >= 0 on the character monomial
    t^(-w0 wt(p)).  Exposing the list lets callers assert nonnegativity
    before evaluating on the torus."""
    out = []
    for p in WK.enumerate_walks(W.reduced_word(w), start=W.finite(u)):
        if p.direction != v:
            continue
        e = W.w0_apply(W.W0_LONGEST, p.weight)
        out.append(((-e[0], -e[1]), WK.q_statistic(p, field)))
    return out


def walk_matrix(w, t, field):
    """Full 6x6 matrix of pi_t(T_{w^-1}) in the gallery basis."""
    m = np.zeros((6, 6), dtype=complex)
    for u in range(6):
        for p in WK.enumerate_walks(W.reduced_word(w), start=W.finite(u)):
            e = W.w0_apply(W.W0_LONGEST, p.weight)
            m[p.direction, u] += complex(
                WK.q_statistic(p, field)
            ) * t[0] ** -e[0] * t[1] ** -e[1]
    return m


def lemma34_check(theta, q) -> float:
    """Relative error of the sixth-order small-angle expansion of the
    principal spectral density:

        1/|c(e^(i theta))|^2  ~  q^6/(q-1)^6 t1^2 t2^2 (t1+t2)^2.

    Raises on the degenerate directions where the comparison polynomial
    vanishes."""
    q = float(q)
    t1, t2 = theta
    g = t1 * t1 * t2 * t2 * (t1 + t2) ** 2
    if g == 0:
        raise ValueError("angle lies on the zero set of the comparison term")
    t = (np.exp(1j * t1), np.exp(1j * t2))
    exact = 1.0 / abs(P.c_value(q, t)) ** 2
    approx = q ** 6 / (q - 1) ** 6 * g
    return abs(exact / approx - 1.0)
