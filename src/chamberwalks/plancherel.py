"""Spectral-side trace computations: c-functions, torus quadrature for the
three-component trace decomposition, the small-parameter trace generating
series, and the normalized coefficient functional.

The quadrature grid offsets every node by half a step, so no node lies on
the walls t1 = 1 or t2 = 1.  The third wall t1 t2 = 1 is not avoided: the N
nodes with k1 + k2 = N - 1 lie on it up to rounding (|t1 t2 - 1| is below
1.2e-15 for N <= 256), and ``c_value`` raises at some of them.  The weight
1/|c|^2 vanishes on the walls, and ``_grid_weights`` takes it as the
product f(t1) f(t2) f(t1 t2) of one factor per positive root.  On the grid
t1 t2 is a plain N-th root of unity, where the third factor is evaluated
directly, so the weight is exactly 0 on those nodes (f(1) = 0).  The
integrands are smooth and periodic, so the product trapezoid rule
converges faster than any power of 1/N.

Every average is taken on the band grid (_band_grid).  Each integrand,
a character of a Hecke element, a power of the walk operator or a
central polynomial, is a Laurent polynomial of some degree d in the torus
parameters, so its N-grid sum is a finite contraction sum_nu a_nu m_nu
with the moments m_nu of the weight on the N grid (|nu_i| <= d).  The
offset grid of K = min(N, 2d + 1) nodes per circle whose nodes carry the
trigonometric interpolant of those moments gives the same sum up to
rounding, and the real coefficients of the integrands pair conjugate
nodes, so each pair is evaluated once.  A term beyond the degree bound
would alias undetected; the bounds used here are proven.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from . import hecke, reps, weyl

__all__ = [
    "c_value", "c1_value", "plancherel_trace", "plancherel_estimate",
    "spectral_return_probabilities", "simple_walk_spectral_traces", "f_series",
    "table_trace", "central_trace_integral", "mass_components",
]

# torus points per batch of 6x6 matrices (bounds the memory of one batch)
_CHUNK = 8192


def c_value(q, t) -> complex:
    """Macdonald c-function: product over the three positive coroots of
    (1 - q^-1 t^-a) / (1 - t^-a).  Raises on the pole set."""
    q = float(q)
    den = hecke.d_at(q, t)
    if den == 0:
        raise ZeroDivisionError("c-function pole: t^a = 1 for some root a")
    return hecke.n_at(q, t) / den


def c1_value(q, u) -> complex:
    """Boundary c-function for the 3-dimensional family."""
    q = float(q)
    return (1 - q ** -1.5 / u) / (1 - q ** 0.5 / u)


def _offset_nodes(n: int):
    """The n offset nodes exp(2*pi*i*(k+1/2)/n) of one circle."""
    return np.exp(2j * np.pi * (np.arange(n) + 0.5) / n)


def _torus_pairs(nodes):
    """(t1, t2) over every pair of nodes, flat, t2 running fastest."""
    return np.repeat(nodes, len(nodes)), np.tile(nodes, len(nodes))


def _grid_nodes(n: int):
    """The offset nodes of the n-node quadrature grid, n >= 16."""
    if n < 16:
        raise ValueError("grid must have at least 16 nodes per circle")
    return _offset_nodes(n)


def _root_factor(q: float, z):
    """f(z) = |1 - z|^2 / |1 - z/q|^2 at points z of the unit circle: the
    factor of one positive root in 1/|c|^2."""
    return np.abs(1 - z) ** 2 / np.abs(1 - z / q) ** 2


def _grid_weights(q: float, n: int):
    """The Plancherel weights on the offset grid of n >= 16 nodes per circle:
    1/|c|^2 (n^2, flat in the order of _torus_pairs) and 1/|c1|^2 (n).  On
    the unit torus |1 - t^-a| = |1 - t^a|, so 1/|c|^2 = |d/n|^2 is the
    product f(t1) f(t2) f(t1 t2) of _root_factor over the positive roots.
    The nodes k1, k2 have t1 t2 = e^(2 pi i (k1 + k2 + 1)/n), a plain n-th
    root of unity, so f is evaluated at n offset nodes and n roots of unity,
    and the third factor is read at (k1 + k2 + 1) mod n.  It is exactly 0 at
    the root 1, on the nodes k1 + k2 = n - 1 of the wall t1 t2 = 1."""
    u = _grid_nodes(n)
    k = np.arange(n)
    diagonal = _root_factor(q, np.exp(2j * np.pi * k / n))[(k[:, None] + k + 1) % n]
    offset = _root_factor(q, u)
    return (np.outer(offset, offset) * diagonal).reshape(-1), np.abs(c1_value(q, u)) ** -2


def _terms(q: float, avg6, avg3, chi_sign):
    """The three terms of the Plancherel formula, from the weighted averages
    over the 6- and 3-dimensional families and the sign character:
    avg6/(6 q^3), (q-1)^2/(q^2(q^2-1)) avg3 and (q-1)^3/(q^3-1) chi_sign."""
    return (avg6 / (6 * q ** 3),
            (q - 1) ** 2 / (q ** 2 * (q ** 2 - 1)) * avg3,
            (q - 1) ** 3 / (q ** 3 - 1) * chi_sign)


def _over_principal(q: float, t1, t2, f):
    """f of the principal generators at the points (t1, t2), taken over
    batches of _CHUNK points and concatenated."""
    return np.concatenate([
        f(reps.principal_generators(q, t1[lo:lo + _CHUNK], t2[lo:lo + _CHUNK]))
        for lo in range(0, len(t1), _CHUNK)
    ])


@functools.lru_cache(maxsize=16)
def _moment_tables(q: float, n: int):
    """The inverse FFTs of the Plancherel weights of _grid_weights, 1/|c|^2
    (N x N, indexed [k1, k2] as t1, t2) and 1/|c1|^2 (N): up to a phase,
    the moments of the weights on the N grid.  Cached per (q, N),
    read-only."""
    w6, w3 = _grid_weights(q, n)
    tables = (np.fft.ifft2(w6.reshape(n, n)), np.fft.ifft(w3))
    for table in tables:
        table.setflags(write=False)
    return tables


def _interpolated_weights(q: float, n_grid: int, k: int):
    """The Plancherel weights on the offset grid of odd k < n_grid nodes per
    circle that reproduce the n_grid moments: the trigonometric interpolants
    w_k(t) = sum m_nu t^(-nu) over |nu_i| <= (k-1)/2, at the nodes.  The
    offset node of index j of the N grid is e^(i pi/N) times the j-th N-th
    root of unity, so m_nu = e^(i pi sum(nu)/N) table[nu] for a table of
    _moment_tables.  The node e^(i pi (2j+1)/k) turns t^(-nu) into
    e^(-2 pi i j nu/k) times the phase e^(-i pi nu/k), so each interpolant
    is one FFT of its phased band laid out at nu mod k.  The weights are
    real and conjugation-invariant, since 1/|c|^2 is and the grid is closed
    under conjugation, so the moments are real and even.  Returns w6 (k^2,
    flat in the order of _torus_pairs) and w3 (k)."""
    table6, table3 = _moment_tables(q, n_grid)
    nu = (np.arange(k) + k // 2) % k - k // 2  # 0, ..., (k-1)/2, -(k-1)/2, ..., -1
    phase = np.exp(-1j * np.pi * nu / k)
    m6 = np.exp(1j * np.pi * (nu[:, None] + nu) / n_grid) * table6[nu[:, None], nu]
    m3 = np.exp(1j * np.pi * nu / n_grid) * table3[nu]
    return (np.fft.fft2(m6 * np.outer(phase, phase)).real.reshape(-1),
            np.fft.fft(m3 * phase).real)


def _band_grid(q: float, n_grid: int, k: int):
    """The grid every average of this module is taken on, for integrands of
    degree <= (k-1)/2 in each torus parameter: (K, t1, t2, w6, u, w3), with
    K = min(N, k) nodes per circle, N = n_grid.  For K < N (k odd) the nodes
    carry _interpolated_weights, so the K-grid sum of such an integrand is
    its N-grid sum up to rounding; for K = N they carry 1/|c|^2 and
    1/|c1|^2.  u holds the K circle nodes and w3 their weights.  (t1, t2)
    are the first ceil(K^2/2) torus points of _torus_pairs and w6 their
    weights folded over conjugation, which maps the node of index j to that
    of K - 1 - j and so pairs the flat points p and K^2 - 1 - p: each point
    carries twice its weight, except the self-conjugate centre t = (-1, -1)
    of an odd K.  So sum f w6 is the full K-grid sum of f 1/|c|^2 for every
    f with f(conj t) = f(t), and sum Re(f) w6 is for f(conj t) = conj f(t)."""
    k = min(n_grid, k)
    half = (k * k + 1) // 2
    u = _offset_nodes(k)
    t1, t2 = (t[:half] for t in _torus_pairs(u))
    # either one checks the N grid
    w6, w3 = (_grid_weights(q, n_grid) if k == n_grid
              else _interpolated_weights(q, n_grid, k))
    w6 = 2.0 * w6[:half]
    if k % 2:
        w6[-1] /= 2  # the centre point is its own conjugate
    return k, t1, t2, w6, u, w3


def _char_degree(h: hecke.HeckeElement) -> int:
    """Degree bound d of chi_t(h) in each of t1, t2 (and of chi_u(h) in u):
    the largest |coordinate| over the finite Weyl group orbit of the
    translation part mu of a support element t_mu u.  In the Bernstein
    basis T_(t_mu u) has its lattice support in the convex hull of that
    orbit, whose coordinates peak at the vertices."""
    return max((abs(c) for w in h.terms for u in range(6)
                for c in weyl.w0_apply(u, w.mu)), default=0)


def plancherel_trace(h: hecke.HeckeElement, n_grid: int = 256) -> complex:
    """Canonical trace through the three-component spectral decomposition:

        (1/(6 q^3)) * avg over T^2 of chi_t(h)/|c(t)|^2
      + (q-1)^2/(q^2(q^2-1)) * avg over T of chi_u(h)/|c1(u)|^2
      + (q-1)^3/(q^3-1) * chi_sign(h)

    with both averages the trapezoid sums over the offset grid of n_grid
    nodes per circle.  The characters are Laurent polynomials of degree at
    most d (_char_degree) in each variable, so the sums are taken on the
    band grid of 2d + 1 nodes per circle (at most n_grid), exact up to
    rounding.  h has real coefficients and pi_conj(t) is the entrywise
    conjugate of pi_t, so chi_t(h) at conj(t) is the conjugate of its value
    at t: the torus average reads the real part of chi_t(h) on half the
    band grid."""
    if h.basis != "T":
        raise ValueError("plancherel_trace expects the T-basis")
    q = float(h.field.q)
    k, t1, t2, w6, u, w3 = _band_grid(q, n_grid, 2 * _char_degree(h) + 1)
    chars6 = _over_principal(q, t1, t2, lambda gens: reps.characters(h, gens))
    chars3 = reps.characters(h, reps.induced_generators(q, u))
    return complex(sum(_terms(q, np.sum(chars6.real * w6) / k ** 2, np.mean(chars3 * w3),
                              reps.character(reps.sign_character(q), h))))


def plancherel_estimate(h: hecke.HeckeElement, n_grid: int = 256):
    """(plancherel_trace(h, n_grid), its error estimate |T_N - T_(N/2)|):
    the value and its distance to the value on the grid of half as many
    nodes."""
    full = plancherel_trace(h, n_grid)
    return full, abs(full - plancherel_trace(h, n_grid // 2))


def mass_components(q: float, n_grid: int = 256):
    """Plancherel masses of the three spectral components (sum to 1): the
    terms of the unit, whose characters are the dimensions 6, 3 and 1, from
    the one-node band grid, which carries the moments m_0 of the two
    weights on the n_grid offset grid."""
    q = hecke.check_thickness(float(q))
    _, _, _, w6, _, w3 = _band_grid(q, n_grid, 1)
    return tuple(map(float, _terms(q, 6 * w6[0], 3 * w3[0], 1.0)))


def _power_sums(lam, ns):
    """Yield sum_i lam[:, i]^n for each n of the ascending distinct ns, from
    one running power: each n multiplies the last power by lam^(n - prev),
    a plain product when the gap is 1."""
    pw, prev = np.ones_like(lam), 0
    for n in ns:
        pw = pw * (lam if n - prev == 1 else lam ** (n - prev))
        prev = n
        yield pw.sum(axis=1)


def spectral_return_probabilities(q: float, ns, n_grid: int = 256):
    """Tr(P^n) for each n in ns through the spectral decomposition: the
    eigenvalues of the walk operator in the 6- and 3-dimensional families,
    raised to the n-th power and averaged against the Plancherel weights
    over the n_grid offset grid, plus the sign atom (eigenvalue -1/q).  The
    walk operator is Hermitian on the unit torus.  Returns an array aligned
    with ns, duplicates included; the powers come from one running product
    over the sorted distinct n.

    tr pi_t(P^n) is a Laurent polynomial of degree <= n in each of t1, t2
    (only pi(T_0) depends on t, through the monomials t^(-e) of roots e),
    and so is tr pi_u(P^n) in u, so the averages are taken on the band grid
    of K = min(N, 2 max(ns) + 1) nodes per circle, N = n_grid.  P has real
    coefficients, so pi_conj(t)(P) is the entrywise conjugate of pi_t(P)
    and has the same (real) eigenvalues: the conjugation fold of the band
    grid holds for every real-coefficient walk.  The swap t1 <-> t2 is not
    folded as well: it fixes the spectrum only for walks invariant under
    the diagram automorphism.

    Raises ValueError unless every n is an integer >= 0.  Raises where a
    value falls below the smallest normal double (n ~ 18,000 at q = 2)
    instead of returning a subnormal or 0.  Only n = 1 is exempt: its true
    value is 0, since the first step always leaves the identity."""
    ns = list(ns)
    for n in ns:
        if not isinstance(n, numbers.Integral) or n < 0:
            raise ValueError(f"step counts must be integers >= 0, got {n!r}")
    q = hecke.check_thickness(float(q))
    distinct = sorted(set(ns))
    k, t1, t2, w6, u, w3 = _band_grid(q, n_grid, 2 * max(distinct, default=0) + 1)
    lam6 = _over_principal(
        q, t1, t2, lambda gens: np.linalg.eigvalsh(reps.walk_operator(q, gens)))
    lam3 = np.linalg.eigvalsh(reps.walk_operator(q, reps.induced_generators(q, u)))
    values = {}
    for n, s6, s3 in zip(distinct, _power_sums(lam6, distinct),
                         _power_sums(lam3, distinct)):
        value = sum(_terms(q, np.sum(s6 * w6) / k ** 2, np.mean(s3 * w3), (-1 / q) ** n))
        if n != 1 and value < np.finfo(float).tiny:
            raise ValueError(f"Tr(P^n) underflows at n={n}, q={q}")
        values[n] = value
    return np.array([values[n] for n in ns])


def simple_walk_spectral_traces(q: float, n_max: int, n_grid: int = 256):
    """Tr(P^n) for n = 0..n_max through the spectral decomposition."""
    return spectral_return_probabilities(q, range(n_max + 1), n_grid)


# ---------------------------------------------------------------------------
# Trace generating series at small parameters.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _trace_table(q) -> hecke.TraceTable:
    """The trace table of thickness q, cached for the four latest q."""
    return hecke.TraceTable(q)


def _x_support(h: hecke.HeckeElement):
    """The X-basis terms of h and their lattice box, widened to contain 0."""
    hx = hecke.t_to_x(h) if h.basis == "T" else h
    support = list(hx.terms.items())
    offs_m = [nu[0] for (nu, _), _ in support] + [0]
    offs_n = [nu[1] for (nu, _), _ in support] + [0]
    return support, (min(offs_m), max(offs_m), min(offs_n), max(offs_n))


def f_series(h: hecke.HeckeElement, t, depth: int):
    """Sum of t^-mu Tr(x^mu h) over mu = -(a, b) with lo_m <= a <= lo_m + depth
    and lo_n <= b <= lo_n + depth, with exact traces; returns (value,
    reported_tail_bound).  (lo_m, lo_n) is the lowest corner of the X-support
    box of h widened to 0: every coefficient below it vanishes, and a
    negative corner makes the series a Laurent series.

    t = (t1, t2) holds two scalars or two arrays of broadcastable shapes; the
    value has their broadcast shape.  The coefficients are gathered once into
    a (depth+1)^2 grid and evaluated at every point.

    The tail bound is the crude coefficient bound |Tr(x^mu T_u)| <=
    (16 q^2)^(|mu_1| + |mu_2|) summed over the omitted shells at the largest
    |t_i| over all points, times the largest |t1^lo_m t2^lo_n|; it is inf
    where that sum diverges, even if the series converges.
    """
    if depth < 0:
        raise ValueError(f"series depth must be >= 0, got {depth}")
    q = float(h.field.q)
    t1, t2 = np.asarray(t[0], dtype=complex), np.asarray(t[1], dtype=complex)
    r = max(np.abs(t1).max(), np.abs(t2).max())
    if r >= 1 / q:
        raise ValueError("parameters outside the convergence domain |t_i| < 1/q")
    support, (lo_m, hi_m, lo_n, hi_n) = _x_support(h)
    if (lo_m < 0 and not np.abs(t1).min()) or (lo_n < 0 and not np.abs(t2).min()):
        raise ValueError("the Laurent series has a pole at t_i = 0")
    table = _trace_table(h.field.q)
    table.ensure_box((-depth, hi_m - lo_m), (-depth, hi_n - lo_n))

    # rows[i, j, u] = Tr(x^(hi_m - lo_m - i, hi_n - lo_n - j) T_u) as floats
    rows = np.array([
        [[float(c) for c in table.trace_row((m, n))]
         for n in range(hi_n - lo_n, -depth - 1, -1)]
        for m in range(hi_m - lo_m, -depth - 1, -1)
    ])
    # coef[a, b] = Tr(x^(-lo_m - a, -lo_n - b) h): one slice of rows per X-term
    coef = np.zeros((depth + 1, depth + 1), dtype=complex)
    for ((m, n), u), c in support:
        coef += complex(c) * rows[hi_m - m:hi_m - m + depth + 1,
                                  hi_n - n:hi_n - n + depth + 1, u]
    value = np.einsum("...a,ab,...b->...",
                      t1[..., None] ** np.arange(lo_m, lo_m + depth + 1), coef,
                      t2[..., None] ** np.arange(lo_n, lo_n + depth + 1))

    rho = r * (2 * q ** 0.5) ** 4
    if rho < 1:
        tail = (
            sum(abs(complex(c)) for _, c in support)
            * (depth + 2)
            * rho ** (depth + 1)
            / (1 - rho) ** 2
            * float((np.abs(t1) ** lo_m * np.abs(t2) ** lo_n).max())
        )
    else:
        tail = float("inf")
    return value, tail


def table_trace(h: hecke.HeckeElement):
    """Tr(h), the constant term of the trace generating series, exact in the
    field of h: the sum of c Tr(x^nu T_u) over the X-basis terms c x^nu T_u
    of h, read off the trace table over the support box."""
    support, (lo_m, hi_m, lo_n, hi_n) = _x_support(h)
    table = _trace_table(h.field.q)
    table.ensure_box((lo_m, hi_m), (lo_n, hi_n))
    return sum((c * table.trace_row(nu)[u] for (nu, u), c in support), h.field.zero)


def central_trace_integral(p: hecke.HeckeElement, n_grid: int = 256) -> complex:
    """Trace of p(x) 1_0 for symmetric p, by torus quadrature:
    (1/(6 q^3)) avg of p(t)/(c(t) c(1/t)) over the n_grid offset grid, with
    p(t) = sum_e c_e t^e over the terms c_e x^e of p.  p is a Laurent
    polynomial of degree d = max |e_i| with real coefficients, so the
    average is taken on the band grid of 2d + 1 nodes per circle, reading
    the real part of p on half of it.  Asymmetric input is rejected."""
    if p.basis != "X" or any(u != 0 for (_, u) in p.terms):
        raise ValueError("expected a symmetric element of the lattice subalgebra")
    for (e, _), c in p.terms.items():
        for u in range(6):
            if p.terms.get((weyl.w0_apply(u, e), 0)) != c:
                raise ValueError("input is not symmetric under the finite group")
    q = float(p.field.q)
    degree = max((abs(c) for e, _ in p.terms for c in e), default=0)
    k, t1, t2, w6, _, _ = _band_grid(q, n_grid, 2 * degree + 1)
    values = sum((complex(c) * t1 ** e[0] * t2 ** e[1] for (e, _), c in p.terms.items()),
                 np.zeros(len(t1), dtype=complex))
    return complex(_terms(q, np.sum(values.real * w6) / k ** 2, 0, 0)[0])
