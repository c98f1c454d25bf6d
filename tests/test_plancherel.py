import functools
import random
from fractions import Fraction

import numpy as np
import pytest

from chamberwalks import hecke as H
from chamberwalks import plancherel as P
from chamberwalks import reps as R
from chamberwalks import weyl as W
from oracles import lemma34_check


def test_c_value_examples():
    q = 2.0
    v = P.c_value(q, (1j, -1.0))
    assert np.isfinite(v.real) and v != 0
    with pytest.raises(ZeroDivisionError):
        P.c_value(q, (1.0, 0.5))
    # torus conjugate identity: |c|^2 = c(t) c(t^-1)
    t = (np.exp(0.7j), np.exp(-1.1j))
    lhs = abs(P.c_value(q, t)) ** 2
    rhs = P.c_value(q, t) * P.c_value(q, (1 / t[0], 1 / t[1]))
    assert abs(lhs - rhs) < 1e-13


def test_c1_no_torus_pole():
    q = 2.0
    for u in np.exp(1j * np.linspace(0, 2 * np.pi, 17)):
        v = P.c1_value(q, u)
        assert np.isfinite(v.real) and abs(v) > 0


def _offset_grid(n):
    """The n offset nodes e^(2 pi i (k + 1/2)/n) of one circle and the flat
    torus pairs (t1, t2) over them, t2 running fastest."""
    u = np.exp(2j * np.pi * (np.arange(n) + 0.5) / n)
    return u, np.repeat(u, n), np.tile(u, n)


def test_grid_avoids_walls():
    assert np.abs(P._offset_nodes(64) - 1.0).min() > 1e-3
    with pytest.raises(ValueError, match="at least 16 nodes"):
        P.mass_components(2.0, 8)
    # n = 100 asks for K = 201 > N nodes, so the N grid itself is used
    with pytest.raises(ValueError, match="at least 16 nodes"):
        P.spectral_return_probabilities(2.0, [100], 8)


@pytest.mark.parametrize("n", [64, 128, 256])
@pytest.mark.parametrize("q", [2, 3, 2.5])
def test_weight_on_the_diagonal_wall_nodes(q, n):
    """The N nodes with k1 + k2 = N - 1 lie on the wall t1 t2 = 1 up to
    rounding; the weight 1/|c|^2 there is exactly 0, the root factor f(1),
    not a pole, and every other node carries a positive finite weight."""
    u, t1, t2 = _offset_grid(n)
    k1, k2 = np.divmod(np.arange(n * n), n)
    on = k1 + k2 == n - 1
    assert np.abs(t1[on] * t2[on] - 1).max() < 1.2e-15
    weight, _ = P._grid_weights(q, n)
    assert (weight[on] == 0).all()
    assert np.isfinite(weight).all() and (weight[~on] > 0).all()


@pytest.mark.parametrize("n", [16, 96, 256])
@pytest.mark.parametrize("q", [2, 3, 2.5, 1.01])
def test_moment_tables_match_the_full_grid_weight(q, n):
    """The moments of the product-form weight against the inverse FFT of
    |d/n|^2 written out at all N^2 nodes from hecke.d_at and hecke.n_at."""
    u, t1, t2 = _offset_grid(n)
    weight = np.abs(H.d_at(q, (t1, t2)) / H.n_at(q, (t1, t2))) ** 2
    want6 = np.fft.ifft2(weight.reshape(n, n))
    want3 = np.fft.ifft(np.abs(P.c1_value(q, u)) ** -2)
    got6, got3 = P._moment_tables(q, n)
    assert np.abs(got6 - want6).max() <= 1e-15 * np.abs(want6).max()
    assert np.abs(got3 - want3).max() <= 1e-15 * np.abs(want3).max()


@pytest.mark.parametrize("q", [2, 3, 4])
def test_total_mass(q):
    m6, m3, m1 = P.mass_components(float(q), 128)
    assert abs(m6 + m3 + m1 - 1.0) < 1e-12
    assert m6 > 0 and m3 > 0 and m1 > 0


def test_trace_of_unit(field2):
    assert abs(P.plancherel_trace(H.unit(field2), 128) - 1.0) < 1e-12


def test_plancherel_trace_rejects_the_x_basis(field2):
    with pytest.raises(ValueError, match="plancherel_trace expects the T-basis"):
        P.plancherel_trace(H.unit(field2, "X"), 64)


def test_trace_of_basis_elements(field2):
    F = field2
    for w in list(W.ball(3)):
        if w == W.IDENTITY:
            continue
        v = P.plancherel_trace(H.t_element(F, [(w, F.one)]), 128)
        assert abs(v) < 1e-12, w


def _simple_walk(field):
    """The uniform nearest-neighbour walk (A_0 + A_1 + A_2)/3 in the T-basis,
    A_i = q^(-1/2) T_i."""
    c = field.inv_sqrt_q * field.make(Fraction(1, 3))
    return H.t_element(field, [(g, c) for g in W.GEN])


def test_trace_matches_exact_for_walk_powers(field2):
    F = field2
    spec = P.simple_walk_spectral_traces(2.0, 8, 128)
    h = H.unit(F)
    pw = _simple_walk(F)
    for n in range(9):
        if n:
            h = H.mul(h, pw)
        assert abs(spec[n] - float(complex(H.trace(h)).real)) < 1e-10


def test_quadrature_spectral_convergence():
    a = P.simple_walk_spectral_traces(2.0, 5, 128)[5]
    b = P.simple_walk_spectral_traces(2.0, 5, 256)[5]
    assert abs(a - b) < 1e-10


def test_generic_trace_matches_powers(field2):
    # the generic prefix-sharing path agrees with the eigenvalue path
    F = field2
    h = H.unit(F)
    pw = _simple_walk(F)
    for _ in range(5):
        h = H.mul(h, pw)
    spec = P.simple_walk_spectral_traces(2.0, 5, 96)[5]
    assert abs(P.plancherel_trace(h, 96) - spec) < 1e-11


@functools.lru_cache(maxsize=None)
def _full_grid_return_probabilities(q, n_grid):
    """Tr(P^n) for n = 0..20 over every node of the full offset grid, with
    no conjugation fold and no running power: eigenvalues node by node, a
    direct ** n, and the weight 1/|c|^2 written out from the positive roots."""
    u, t1, t2 = _offset_grid(n_grid)
    ops = R.walk_operator(q, R.principal_generators(q, t1, t2))
    lam6 = np.array([np.linalg.eigvalsh(m) for m in ops])
    w6 = np.ones(len(t1))
    for a, b in W.POS_ROOTS:
        ta = t1 ** -a * t2 ** -b
        w6 *= np.abs(1 - ta) ** 2 / np.abs(1 - ta / q) ** 2
    lam3 = np.array([np.linalg.eigvalsh(R.p_matrix(R.induced_three_dim(q, x)))
                     for x in u])
    w3 = np.abs(1 - q ** 0.5 / u) ** 2 / np.abs(1 - q ** -1.5 / u) ** 2
    return np.array([
        np.mean(np.sum(lam6 ** n, axis=1) * w6) / (6 * q ** 3)
        + (q - 1) ** 2 / (q ** 2 * (q ** 2 - 1)) * np.mean(np.sum(lam3 ** n, axis=1) * w3)
        + (q - 1) ** 3 / (q ** 3 - 1) * (-1 / q) ** n
        for n in range(21)
    ])


def _assert_close(values, reference, ns):
    """Within 1e-14 relative, aligned with ns; p_1(e) = 0, where both sides
    are rounding noise, within 1e-15 absolute."""
    for n, v, ref in zip(ns, values, reference):
        if n == 1:
            assert abs(v - ref) <= 1e-15, n
        else:
            assert abs(v - ref) <= 1e-14 * abs(ref), n


@pytest.mark.parametrize("n_grid", [128, 97])
@pytest.mark.parametrize("q", [2.0, 2.5])
def test_spectral_fold_matches_full_grid(q, n_grid):
    """The half-torus fold with running powers against the full grid, for
    an even N and an odd N.  The odd grid's centre t = (-1, -1) is its own
    conjugate, but it lies on the wall t1 t2 = 1, where the weight
    vanishes, so its multiplicity does not show in the values."""
    ns = range(21)
    _assert_close(P.spectral_return_probabilities(q, ns, n_grid),
                  _full_grid_return_probabilities(q, n_grid), ns)


def test_spectral_unsorted_duplicated_steps():
    q, n_grid, ns = 2.0, 97, [20, 0, 5, 5, 1]
    values = P.spectral_return_probabilities(q, ns, n_grid)
    single = [P.spectral_return_probabilities(q, [n], n_grid)[0] for n in ns]
    _assert_close(values, _full_grid_return_probabilities(q, n_grid)[ns], ns)
    _assert_close(values, single, ns)
    assert values[2] == values[3]


@pytest.mark.parametrize("ns", [range(21), [0], [1], [0, 1]])
@pytest.mark.parametrize("n_grid", [24, 41, 42])
def test_spectral_band_grid_matches_full_grid(n_grid, ns):
    """The K = min(N, 2 max(ns) + 1) grid against the full N grid: at n <= 20
    N = 24 and 41 give K = N, N = 42 gives K = 41 < N, and ns = [0], [1],
    [0, 1] give K = 1 or 3, where the nodes carry the interpolant of the
    N-grid moments."""
    q = 2.0
    ns = list(ns)
    _assert_close(P.spectral_return_probabilities(q, ns, n_grid),
                  _full_grid_return_probabilities(q, n_grid)[ns], ns)


def test_spectral_evaluates_the_band_grid_only(monkeypatch):
    """At n <= 20 the eigenvalues are taken on half the 41 x 41 grid, not on
    half the 256 x 256 grid."""
    points = []
    real = R.principal_generators

    def counting(q, t1, t2):
        points.append(len(t1))
        return real(q, t1, t2)

    monkeypatch.setattr(R, "principal_generators", counting)
    P.spectral_return_probabilities(2.0, range(21), 256)
    assert sum(points) <= (41 * 41 + 1) // 2


@pytest.mark.parametrize("bad", [-1, 2.5])
def test_spectral_rejects_bad_step_counts(bad):
    with pytest.raises(ValueError, match="integers >= 0"):
        P.spectral_return_probabilities(2.0, [3, bad], 64)


def test_symmetrizer_lattice_traces(field2):
    """Traces against the symmetrizer vanish off the antidominant cone and
    match the boundary-density quadrature on it."""
    F = field2
    q = 2.0
    e0x = H.t_to_x(H.symmetrizer_one(F))
    wq = float(H.w0_poincare(F))
    _, t1, t2 = _offset_grid(256)
    cbar = np.ones_like(t1)
    for a, b in W.POS_ROOTS:
        ta = t1 ** a * t2 ** b
        cbar *= (1 - ta / q) / (1 - ta)
    for m in range(-4, 5):
        for n in range(-4, 5):
            xm = H.x_element(F, [(((m, n), 0), F.one)])
            tr = H.trace(H.x_to_t(H.bernstein_mul(xm, e0x)))
            if not (m <= 0 and n <= 0):
                assert tr == F.zero, (m, n)
            else:
                quad = np.mean(t1 ** m * t2 ** n / cbar) / wq
                assert abs(complex(tr) - quad) < 1e-8, (m, n)


def test_f_series_unit(field2):
    q = 2.0
    t = (0.05, 0.03 + 0.02j)
    val, tail = P.f_series(H.unit(field2), t, 20)
    closed = 1.0 / (q ** 3 * P.c_value(q, t) * P.c_value(q, (1 / t[0], 1 / t[1])))
    assert abs(val - closed) / abs(closed) < 1e-10
    assert tail >= 0


def test_f_series_symmetrizer(field2):
    q = 2.0
    t = (0.04, 0.05)
    val, _ = P.f_series(H.symmetrizer_one(field2), t, 20)
    closed = 1.0 / (float(H.w0_poincare(field2)) * P.c_value(q, (1 / t[0], 1 / t[1])))
    assert abs(val - closed) / abs(closed) < 1e-10


def test_f_series_shift_covariance(field2):
    """Two-sided lattice shifts scale the series by the character value.
    Positive shifts keep the shifted support inside the truncation domain,
    so the identity holds up to a genuine deep-shell tail."""
    F = field2
    t = (0.04, 0.03)
    h = H.t_to_x(H.t_element(F, [(W.GEN[1], F.one)]))
    xl = H.x_element(F, [(((0, 1), 0), F.one)])
    xr = H.x_element(F, [(((1, 0), 0), F.one)])
    shifted = H.bernstein_mul(H.bernstein_mul(xl, h), xr)
    v1, _ = P.f_series(shifted, t, 18)
    v2, _ = P.f_series(h, t, 18)
    factor = t[0] * t[1]
    assert abs(v1 - factor * v2) / abs(v1) < 1e-10


def test_f_series_domain_guard(field2):
    with pytest.raises(ValueError):
        P.f_series(H.unit(field2), (0.9, 0.05), 5)
    with pytest.raises(ValueError):
        P.f_series(H.unit(field2), (np.array([0.05, 0.9]), 0.05), 5)
    # a negative depth would sum an empty coefficient grid
    with pytest.raises(ValueError, match="depth"):
        P.f_series(H.unit(field2), (0.05, 0.05), -1)


def test_f_series_depth_limit(field2):
    """The trace table behind a series of depth d spans a hexagon of radius
    about 2 d, so a depth above the limit raises before it is built."""
    with pytest.raises(ValueError, match=f"depth {P._MAX_DEPTH + 1} exceeds the limit"):
        P.f_series(H.unit(field2), (0.05, 0.05), P._MAX_DEPTH + 1)


def _f_series_by_terms(h, t, depth):
    """Reference sum: one trace-table lookup per (a, b) and X-term, with a
    and b starting at the lowest support coordinates (or 0) so the Laurent
    strips of a support with negative coordinates are included."""
    hx = H.t_to_x(h)
    lo_m = min([0] + [nu[0] for nu, _ in hx.terms])
    lo_n = min([0] + [nu[1] for nu, _ in hx.terms])
    table = H.TraceTable(h.field.q)
    table.ensure_box((-depth - 2, 4), (-depth - 2, 4))
    total = 0j
    for a in range(lo_m, lo_m + depth + 1):
        for b in range(lo_n, lo_n + depth + 1):
            for (nu, u), c in hx.terms.items():
                tr = float(table.trace_row((nu[0] - a, nu[1] - b))[u])
                total += complex(c) * tr * t[0] ** a * t[1] ** b
    return total


def _aa_star(F, words):
    a = H.t_element(F, [(W.from_word(w), F.make(k + 1)) for k, w in enumerate(words)])
    return H.mul(a, H.star(a))


# a a* whose X-support reaches (-1, -1): its series has Laurent strips
_NEG_WORDS = ((0, 1, 2), (1, 2), (0,))


def test_f_series_laurent_strips(field2):
    h = _aa_star(field2, _NEG_WORDS)
    assert any(min(nu) < 0 for nu, _ in H.t_to_x(h).terms)
    q = 2.0
    r = 0.05 / (16 * q * q)
    t = (r * np.exp(0.4j), r * np.exp(-1.1j))
    closed = H.f_value(h, t) / (q ** 3 * P.c_value(q, t) * P.c_value(q, (1 / t[0], 1 / t[1])))
    # a deep reference; depth 38 keeps its box inside the table c08 builds
    deep, _ = P.f_series(h, t, 38)
    assert abs(deep - closed) <= 1e-12 * abs(closed)
    for depth in (4, 10):
        v, tail = P.f_series(h, t, depth)
        assert tail >= abs(v - deep), depth
    ref = _f_series_by_terms(h, t, 10)
    assert abs(P.f_series(h, t, 10)[0] - ref) <= 1e-13 * abs(ref)
    # a Laurent strip has a pole where its parameter is 0
    for at_zero in ((0.0, 0.01), (0.01, 0.0), (np.array([0.01, 0.0]), 0.01)):
        with pytest.raises(ValueError, match="pole at t_i = 0"):
            P.f_series(h, at_zero, 4)


# 4 and 9/4 first: no later test reads their tables, so the trace-table
# cache of four keeps the K = 80 tables of q = 2 and 3 that the f_series
# tests below reuse
@pytest.mark.parametrize("q", ["4", "9/4", "2", "3", "5/2"])
def test_table_trace_is_exact(q):
    F = H.ScalarField(q)
    for words in (((1, 0), (2,)), _NEG_WORDS, ((2, 0, 1, 2), (1,), (0, 2))):
        h = _aa_star(F, words)
        assert P.table_trace(h) == H.trace(h), words
        assert P.table_trace(H.t_to_x(h)) == H.trace(h), words
    for w in W.ball(3):
        h = H.t_element(F, [(w, F.make(3, 1))])
        assert P.table_trace(h) == H.trace(h), w


@pytest.mark.parametrize("q", [2, 3])
def test_f_series_batched_matches_scalar(q):
    F = H.ScalarField(q)
    t1 = 0.05 * np.exp(1j * np.array([0.3, 1.9, -2.5]))[:, None]
    t2 = 0.04 * np.exp(1j * np.array([-0.7, 0.8, 2.9]))[None, :]
    # word (1, 0) spreads the X-support over four lattice points; the finite
    # word (1, 2) keeps the depth-40 box inside the table c08 builds
    for depth, word in ((10, (1, 0)), (40, (1, 2))):
        a = H.t_element(F, [(W.from_word(word), F.make(2)), (W.from_word((2,)), F.one)])
        h = H.mul(a, H.star(a))
        vals, tail = P.f_series(h, (t1, t2), depth)
        assert vals.shape == (3, 3)
        tails = []
        for j in range(3):
            for k in range(3):
                v, tail_jk = P.f_series(h, (t1[j, 0], t2[0, k]), depth)
                assert abs(vals[j, k] - v) <= 1e-15 * abs(v)
                tails.append(tail_jk)
        assert tail == max(tails)
        ref = _f_series_by_terms(h, (t1[1, 0], t2[0, 2]), 10)
        v, _ = P.f_series(h, (t1[1, 0], t2[0, 2]), 10)
        assert abs(v - ref) <= 1e-13 * abs(ref)


def _grid_sum_trace(h, n):
    """Reference quadrature: the trapezoid sums of plancherel_trace taken
    node by node over the N x N and N offset grids, with the weights written
    out from the positive roots."""
    q = float(h.field.q)
    u, t1_all, t2_all = _offset_grid(n)
    total6 = 0j
    for lo in range(0, n * n, 4096):
        t1, t2 = t1_all[lo:lo + 4096], t2_all[lo:lo + 4096]
        weight = np.ones(len(t1))
        for a, b in W.POS_ROOTS:
            ta = t1 ** -a * t2 ** -b
            weight *= np.abs(1 - ta) ** 2 / np.abs(1 - ta / q) ** 2
        total6 += np.sum(R.characters(h, R.principal_generators(q, t1, t2)) * weight)
    weight3 = np.abs(1 - q ** 0.5 / u) ** 2 / np.abs(1 - q ** -1.5 / u) ** 2
    chars3 = R.characters(h, R.induced_generators(q, u))
    return (total6 / n ** 2 / (6 * q ** 3)
            + (q - 1) ** 2 / (q ** 2 * (q ** 2 - 1)) * np.mean(chars3 * weight3)
            + (q - 1) ** 3 / (q ** 3 - 1) * R.character(R.sign_character(q), h))


# the translation by (10, 5): ten letters 0 in its reduced word, and its
# characters reach that degree, so the 16-node grid reads aliased moments
# m_(nu+16) = -m_nu and a degree bound one short leaves terms outside
_TEN_ZEROS = W.AffineElement((10, 5), 0)


@pytest.mark.parametrize("n", [16, 96, 256])
@pytest.mark.parametrize("q", ["2", "3", "5/2"])
def test_plancherel_trace_matches_grid_sum(q, n):
    F = H.ScalarField(q)
    assert W.reduced_word(_TEN_ZEROS).count(0) == 10
    elements = [_aa_star(F, ((1, 0), (2,))), _aa_star(F, _NEG_WORDS),
                H.t_element(F, [(_TEN_ZEROS, F.one)])]
    for h in elements:
        scale = max(1.0, sum(abs(complex(c)) for c in h.terms.values()))
        assert abs(P.plancherel_trace(h, n) - _grid_sum_trace(h, n)) <= 1e-13 * scale


def test_grid_limit(field2):
    """N = 2^16 would ask for (N, N) int64 index arrays (32 GiB): every route
    raises before it allocates them, and the largest admitted grid is 2048."""
    assert P._MAX_GRID == 2048
    for run in (lambda n: P.spectral_return_probabilities(2, [4], n),
                lambda n: P.mass_components(2, n),
                lambda n: P.plancherel_trace(H.t_element(field2, [(W.GEN[0], field2.one)]),
                                             n)):
        with pytest.raises(ValueError, match=f"grid of {2 ** 16} nodes per circle exceeds"):
            run(2 ** 16)


def test_plancherel_trace_degree_guard(field2):
    # degree 10 asks for K = 21 > N = 8 nodes, so the N grid itself is used
    h = H.t_element(field2, [(_TEN_ZEROS, field2.one)])
    with pytest.raises(ValueError, match="at least 16 nodes"):
        P.plancherel_trace(h, 8)


@pytest.mark.parametrize("n_grid", [64, 256])
def test_plancherel_trace_evaluates_the_band_grid_only(field2, monkeypatch, n_grid):
    """The characters are taken on half the (2d + 1) x (2d + 1) grid, d the
    degree bound, not on the N x N grid."""
    points = []
    real = R.principal_generators

    def counting(q, t1, t2):
        points.append(len(t1))
        return real(q, t1, t2)

    monkeypatch.setattr(R, "principal_generators", counting)
    h = _aa_star(field2, _NEG_WORDS)
    d = P._char_degree(h)
    assert 2 * d + 1 < n_grid
    P.plancherel_trace(h, n_grid)
    assert 0 < sum(points) <= ((2 * d + 1) ** 2 + 1) // 2


def test_char_degree_bounds_the_measured_degree():
    """On ball(11) the orbit bound is never below the degree that an FFT
    measures in either family, and never above the count of letters 0 it
    replaced.  That count is a degree bound of at most 11 here, so 32
    points per axis read every degree without aliasing."""
    F, q, m = H.ScalarField(2), 2.0, 32
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    gens6 = R.principal_generators(q, np.repeat(roots, m), np.tile(roots, m))
    gens3 = R.induced_generators(q, roots)
    freq = np.abs(np.fft.fftfreq(m, 1 / m))

    def degree(coef):
        nonzero = np.argwhere(np.abs(coef) > 1e-9 * max(1.0, np.abs(coef).max()))
        return int(freq[nonzero].max(initial=0))

    for w in W.ball(11):
        h = H.t_element(F, [(w, F.one)])
        c6 = np.fft.fft2(R.characters(h, gens6).reshape(m, m))
        c3 = np.fft.fft(R.characters(h, gens3))
        bound = P._char_degree(h)
        assert max(degree(c6), degree(c3)) <= bound <= W.reduced_word(w).count(0), w
    assert P._char_degree(H.t_element(F, [(W.AffineElement((1, 5), 5), F.one)])) == 5
    assert P._char_degree(H.t_element(F, [(_TEN_ZEROS, F.one)])) == 10


def test_plancherel_estimate_is_two_plancherel_traces(field2):
    # the value at N and its distance to the value at N/2, bit for bit
    h = _aa_star(field2, _NEG_WORDS)
    value, estimate = P.plancherel_estimate(h, 64)
    assert value == P.plancherel_trace(h, 64)
    assert estimate == abs(value - P.plancherel_trace(h, 32))


def test_moment_cache_is_bounded():
    bound = P._moment_tables.cache_info().maxsize
    for n in range(16, 16 + bound + 3):
        P.mass_components(2.0, n)
    assert P._moment_tables.cache_info().currsize == bound
    w6, w3 = P._moment_tables(2.0, 16)
    with pytest.raises(ValueError):
        w6[0, 0] = 0
    with pytest.raises(ValueError):
        w3[0] = 0


def test_f_value_ratio_consistency(field2):
    F = field2
    t = (0.05, 0.04 + 0.02j)
    h = H.t_element(F, [(W.GEN[1], F.one)])
    num, _ = P.f_series(h, t, 22)
    den, _ = P.f_series(H.unit(F), t, 22)
    assert abs(num / den - H.f_value(h, t)) < 1e-10


def test_symmetrized_f_is_character(field2, ball4):
    F = field2
    rng = random.Random(31)
    elems = list(ball4)
    for _ in range(10):
        h = H.t_element(F, [(rng.choice(elems), F.make(rng.randint(1, 3)))
                            for _ in range(3)])
        th = (rng.uniform(0.2, 3.0), rng.uniform(-3.0, -0.2))
        t = (np.exp(1j * th[0]), np.exp(1j * th[1]))
        rep = R.principal_series(2, t)
        chi = R.character(rep, h)
        total = sum(H.f_value(h, s) for s in H.orbit_characters(t))
        assert abs(total - chi) < 1e-9


def boundary_points(q: float, u: complex):
    """The three characters whose coefficient functionals sum to the 3-dim
    character: the inducing character s (s on the two simple coroots being
    1/q and sqrt(q) u) moved by the coset representatives e, s2, s1s2.
    (The source display mixes the u and 1/u orbits in two of the points;
    these are re-derived from the diagonal of the module.)"""
    return [
        (1 / q, q ** 0.5 * u),
        (q ** -0.5 * u, q ** -0.5 / u),
        (q ** 0.5 / u, 1 / q),
    ]


def test_boundary_character_identities(field2, ball4):
    """The two boundary identities relating the normalized coefficient
    functional to the characters of the 3- and 1-dimensional modules."""
    F = field2
    q = 2.0
    rng = random.Random(37)
    elems = list(ball4)
    skipped = 0
    for _ in range(12):
        h = H.t_element(F, [(rng.choice(elems), F.make(rng.randint(1, 3)))
                            for _ in range(2)])
        u = np.exp(1j * rng.uniform(0.1, 6.1))
        pts = boundary_points(q, u)
        if any(abs(H.d_at(q, t)) < 1e-8 for t in pts):
            skipped += 1
            continue
        total = sum(H.f_value(h, t) for t in pts)
        chi = R.character(R.induced_three_dim(q, u), h)
        assert abs(total - chi) < 1e-9
        val = H.f_value(h, (1 / q, 1 / q))
        chi2 = R.character(R.sign_character(q), h)
        assert abs(val - chi2) < 1e-9
    assert skipped < 6


def _central_trace_integral(p, n_grid: int = 256) -> complex:
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
            if p.terms.get((W.w0_apply(u, e), 0)) != c:
                raise ValueError("input is not symmetric under the finite group")
    q = float(p.field.q)
    degree = max((abs(c) for e, _ in p.terms for c in e), default=0)
    k, t1, t2, w6, _, _ = P._band_grid(q, n_grid, 2 * degree + 1)
    values = sum((complex(c) * t1 ** e[0] * t2 ** e[1] for (e, _), c in p.terms.items()),
                 np.zeros(len(t1), dtype=complex))
    return complex(P._terms(q, np.sum(values.real * w6) / k ** 2, 0, 0)[0])


def test_central_trace_integral(field2):
    F = field2
    one = H.unit(F, "X")
    v = _central_trace_integral(one, 128)
    assert abs(v - 1 / float(H.w0_poincare(F))) < 1e-10
    for lam in ((1, 1), (2, 1)):
        p = H.macdonald_p(F, lam)
        assert abs(_central_trace_integral(p, 128)) < 1e-10


def _orbit_sum(F, terms):
    """The symmetric element sum c x^e over the finite Weyl group orbits of
    the given (e, c) pairs."""
    return H.x_element(F, [((e, 0), F.make(c)) for mu, c in terms
                           for e in {W.w0_apply(u, mu) for u in range(6)}])


@pytest.mark.parametrize("n", [16, 96])
def test_central_trace_integral_matches_grid_sum(field2, n):
    """Against the trapezoid sum of p(t) / |c(t)|^2 / (6 q^3) taken node by
    node over the N x N offset grid, with the weight written out from the
    positive roots.  The orbit of (9, 2) has degree 11, so N = 16 takes
    the N grid itself and N = 96 the band grid of 23 nodes."""
    q = 2.0
    terms = ((0, 0), 3), ((1, 0), 1), ((2, -1), 2), ((9, 2), 1)
    p = _orbit_sum(field2, terms)
    _, t1, t2 = _offset_grid(n)
    weight = np.ones(len(t1))
    for a, b in W.POS_ROOTS:
        ta = t1 ** -a * t2 ** -b
        weight *= np.abs(1 - ta) ** 2 / np.abs(1 - ta / q) ** 2
    values = sum(complex(c) * t1 ** e[0] * t2 ** e[1] for (e, _), c in p.terms.items())
    want = np.mean(values * weight) / (6 * q ** 3)
    assert abs(want) > 0.1
    scale = sum(abs(complex(c)) for c in p.terms.values())
    assert abs(_central_trace_integral(p, n) - want) <= 1e-14 * scale


def test_central_trace_integral_rejects_asymmetric(field2):
    F = field2
    with pytest.raises(ValueError):
        _central_trace_integral(H.x_element(F, [(((1, 0), 0), F.one)]), 64)
    with pytest.raises(ValueError):
        _central_trace_integral(H.t_to_x(H.t_element(F, [(W.GEN[1], F.one)])), 64)


def _f_series_from_rows(h, t, depth):
    """f_series with its coefficient grid read through float(trace_row), one
    lookup per lattice point, from a table of its own: the same sums in the
    same order, so value and tail must agree bit for bit."""
    q = float(h.field.q)
    t1, t2 = np.asarray(t[0], dtype=complex), np.asarray(t[1], dtype=complex)
    support = list(H.t_to_x(h).terms.items())
    ms, ns = [0] + [nu[0] for (nu, _), _ in support], [0] + [nu[1] for (nu, _), _ in support]
    lo_m, hi_m, lo_n, hi_n = min(ms), max(ms), min(ns), max(ns)
    table = H.TraceTable(h.field.q)
    table.ensure_box((-depth, hi_m - lo_m), (-depth, hi_n - lo_n))
    rows = np.array([[[float(c) for c in table.trace_row((m, n))]
                      for n in range(hi_n - lo_n, -depth - 1, -1)]
                     for m in range(hi_m - lo_m, -depth - 1, -1)])
    coef = np.zeros((depth + 1, depth + 1), dtype=complex)
    for ((m, n), u), c in support:
        coef += complex(c) * rows[hi_m - m:hi_m - m + depth + 1, hi_n - n:hi_n - n + depth + 1, u]
    value = np.einsum("...a,ab,...b->...",
                      t1[..., None] ** np.arange(lo_m, lo_m + depth + 1), coef,
                      t2[..., None] ** np.arange(lo_n, lo_n + depth + 1))
    rho = max(np.abs(t1).max(), np.abs(t2).max()) * (2 * q ** 0.5) ** 4
    tail = (sum(abs(complex(c)) for _, c in support) * (depth + 2) * rho ** (depth + 1)
            / (1 - rho) ** 2 * float((np.abs(t1) ** lo_m * np.abs(t2) ** lo_n).max()))
    return value, tail


def test_f_series_reads_the_float_grid_bit_for_bit():
    """q = 7/3 is read by no other test, so on the first element each
    growing depth rebuilds the cached table with a corner of its box on the
    hexagon's edge; the second element reads inside that table."""
    F = H.ScalarField(Fraction(7, 3))
    r = 0.05 / (16 * (7 / 3) ** 2)
    t = (r * np.exp(0.4j) * np.array([1, 0.5]), r * np.exp(-1.1j))
    for h in (_aa_star(F, _NEG_WORDS), H.t_element(F, [(W.from_word((1, 0)), F.make(2, 1))])):
        for depth in (0, 1, 16):
            value, tail = P.f_series(h, t, depth)
            ref_value, ref_tail = _f_series_from_rows(h, t, depth)
            assert value.tobytes() == ref_value.tobytes(), depth
            assert tail.hex() == ref_tail.hex(), depth


def test_small_angle_density_expansion():
    """The expansion's values and their decay under halving are criterion 10
    of the acceptance gate; off it, a degenerate direction raises."""
    with pytest.raises(ValueError):
        lemma34_check((0.01, -0.01), 2)


def test_trace_table_cache_is_bounded():
    """Kept last in this file: it evicts the tables the tests above share.
    The tables are built empty, so the fill costs nothing."""
    bound = P._trace_table.cache_info().maxsize
    qs = [Fraction(100 + k, 7) for k in range(bound + 3)]
    for q in qs:
        P._trace_table(q)
    assert P._trace_table.cache_info().currsize == bound
    assert P._trace_table(qs[-1]) is P._trace_table(qs[-1])
