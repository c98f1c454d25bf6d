import inspect
import operator
import random
import sys
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chamberwalks import hecke as H
from chamberwalks import reps as R
from chamberwalks import weyl as W


# ---------------------------------------------------------------------------
# Scalars.
# ---------------------------------------------------------------------------


def test_scalar_field_ops(field2):
    F = field2
    x = F.make(Fraction(3, 2), Fraction(-1, 3))
    y = F.make(Fraction(-2), Fraction(5, 7))
    assert x + y == F.make(Fraction(-1, 2), Fraction(8, 21))
    assert x * y - y * x == F.zero
    assert (x * y) * x == x * (y * x)
    assert x * x.inv() == F.one
    with pytest.raises(ZeroDivisionError):
        F.zero.inv()


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_scalar_refuses_a_float_operand(field2, op):
    """A float is not exact: each operator returns NotImplemented for it, on
    either side, and Python raises TypeError."""
    x = field2.make(3, 1)
    with pytest.raises(TypeError):
        op(x, 0.5)
    with pytest.raises(TypeError):
        op(0.5, x)


def test_scaling_by_zero_gives_the_empty_element(field2):
    h = H.t_generator(field2, 1) + H.unit(field2)
    for zero in (0, field2.zero):
        scaled = h.scaled(zero)
        assert scaled.terms == {}
        assert (scaled.basis, scaled.field) == ("T", field2)


def test_scalar_square_q_canonicalization():
    F = H.ScalarField(4)
    # sqrt(4) = 2 is rational: (2, -1) must collapse to zero
    assert not F.make(2, -1)
    assert F.sqrt_q == F.make(2)
    assert F.quad == F.make(Fraction(3, 2))


@settings(max_examples=50, deadline=None)
@given(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
)
def test_exact_to_numeric_commutes(xa, ya):
    F = H.ScalarField(3)
    x, y = F.make(*xa), F.make(*ya)
    for op in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a - b):
        exact = complex(op(x, y))
        numer = op(complex(x), complex(y))
        assert abs(exact - numer) <= 1e-12 * max(1.0, abs(exact))


_QS = (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(4), Fraction(9, 4))
_ROOTS = {Fraction(4): Fraction(2), Fraction(9, 4): Fraction(3, 2)}
_RATIONALS = st.fractions(min_value=-30, max_value=30, max_denominator=24)


def _pair(q, a, b):
    """Oracle: a + b*sqrt(q) as a pair of Fractions, sqrt(q) folded into a
    when q is a square."""
    a, b = Fraction(a), Fraction(b)
    return (a + b * _ROOTS[q], Fraction(0)) if q in _ROOTS else (a, b)


def _pair_mul(q, x, y):
    return _pair(q, x[0] * y[0] + x[1] * y[1] * q, x[0] * y[1] + x[1] * y[0])


def _pair_inv(q, x):
    nrm = x[0] * x[0] - x[1] * x[1] * q
    return _pair(q, x[0] / nrm, -x[1] / nrm)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_QS), st.lists(_RATIONALS, min_size=7, max_size=7))
def test_scalar_matches_fraction_pair_oracle(q, parts):
    F = H.ScalarField(q)
    sq = F.sqrt_q_float
    x, y, z = (F.make(a, b) for a, b in zip(parts[0:6:2], parts[1:6:2]))
    px, py, pz = (_pair(q, a, b) for a, b in zip(parts[0:6:2], parts[1:6:2]))
    r = parts[6]

    def check(s, pair):
        assert (s.a, s.b) == pair
        assert type(s.a) is Fraction and type(s.b) is Fraction
        assert bool(s) == (pair != (0, 0))
        assert float(s) == float(pair[0] + pair[1] * sq)
        assert complex(s) == complex(pair[0] + pair[1] * sq)

    for s, pair in ((x, px), (y, py), (z, pz)):
        check(s, pair)
        check(-s, (-pair[0], -pair[1]))
    check(x + y, _pair(q, px[0] + py[0], px[1] + py[1]))
    check(x - y, _pair(q, px[0] - py[0], px[1] - py[1]))
    check(x * y, _pair_mul(q, px, py))
    check(x + r, _pair(q, px[0] + r, px[1]))
    check(r - x, _pair(q, r - px[0], -px[1]))
    check(r * x, _pair(q, r * px[0], r * px[1]))
    if py != (0, 0):
        check(y.inv(), _pair_inv(q, py))
        check(x / y, _pair_mul(q, px, _pair_inv(q, py)))
        assert (x * y) / y == x and hash((x * y) / y) == hash(x)
    else:
        with pytest.raises(ZeroDivisionError):
            y.inv()
    # one value reached along different paths: equal, and equal hashes
    paths = [(x + y) * z, x * z + y * z, z * y + (z * x - F.zero), z * (x + y + z) - z * z]
    assert all(p == paths[0] for p in paths)
    assert len({hash(p) for p in paths}) == 1
    assert (x - x == F.zero) and hash(x - x) == hash(F.zero)
    assert F.make(r) == r and (F.make(r) == r + 1) is False
    with pytest.raises(ZeroDivisionError):
        F.zero.inv()
    with pytest.raises(ZeroDivisionError):
        x / F.make(0, 0)
    if q in _ROOTS:
        with pytest.raises(ZeroDivisionError):
            F.make(_ROOTS[q], -1).inv()


def test_half_pow(field2):
    F = field2
    assert F.half_pow(2) == F.make(2)
    assert F.half_pow(-2) == F.make(Fraction(1, 2))
    assert F.half_pow(3) == F.make(0, 2)
    assert F.half_pow(1) * F.half_pow(-1) == F.one


# ---------------------------------------------------------------------------
# T-basis relations.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 5])
def test_quadratic_and_braid_relations(q):
    F = H.ScalarField(q)
    gens = [H.t_generator(F, i) for i in range(3)]
    for i, g in enumerate(gens):
        assert H.mul(g, g) == H.unit(F) + g.scaled(F.quad)
    for a, b in ((0, 1), (1, 2), (0, 2)):
        lhs = H.mul(H.mul(gens[a], gens[b]), gens[a])
        rhs = H.mul(H.mul(gens[b], gens[a]), gens[b])
        assert lhs == rhs


def test_identity_element(field2):
    F = field2
    h = H.t_element(F, [(W.from_word((0, 1)), F.make(3, 1))])
    assert H.mul(H.unit(F), h) == h
    assert H.mul(h, H.unit(F)) == h


def test_mixed_basis_product_rejected(field2):
    F = field2
    t, x = H.t_generator(F, 1), H.x_element(F, [(((1, 0), 2), F.one)])
    for a, b in ((t, x), (x, t)):
        with pytest.raises(ValueError, match="mul expects both factors in the T-basis"):
            H.mul(a, b)
        with pytest.raises(ValueError, match="bernstein_mul expects both factors in the X-basis"):
            H.bernstein_mul(a, b)


@pytest.mark.parametrize("operation, basis, message", [
    (lambda h: h + H.unit(h.field, "X"), "T", "cannot add elements in different bases"),
    (H.trace, "X", "trace expects the T-basis"),
    (H.star, "X", "star expects the T-basis"),
    (H.t_to_x, "X", "t_to_x expects the T-basis"),
    (H.x_to_t, "T", "x_to_t expects the X-basis"),
], ids=["add", "trace", "star", "t_to_x", "x_to_t"])
def test_wrong_basis_rejected(field2, operation, basis, message):
    with pytest.raises(ValueError, match=message):
        operation(H.unit(field2, basis))


def test_averaging_normalization(field2):
    # A_1 A_1 = q^-1 + (1 - q^-1) A_1 with A_1 = q^(-1/2) T_1
    F = field2
    a1 = H.t_generator(F, 1).scaled(F.inv_sqrt_q)
    sq = H.mul(a1, a1)
    qinv = F.half_pow(-2)
    expect = H.unit(F).scaled(qinv) + a1.scaled(F.one - qinv)
    assert sq == expect


def test_trace_examples(field2):
    F = field2
    assert H.trace(H.unit(F)) == F.one
    for w in W.ball(3):
        if w != W.IDENTITY:
            assert H.trace(H.t_element(F, [(w, F.one)])) == F.zero
    assert H.trace(H.symmetrizer_one(F)) == H.w0_poincare(F).inv()


def test_trace_symmetry_random(field2, ball4):
    F = field2
    rng = random.Random(11)
    elems = list(ball4)
    for _ in range(60):
        a = H.t_element(
            F, [(rng.choice(elems), F.make(rng.randint(-3, 3), rng.randint(0, 2)))
                for _ in range(3)]
        )
        b = H.t_element(
            F, [(rng.choice(elems), F.make(rng.randint(-3, 3))) for _ in range(3)]
        )
        assert H.trace(H.mul(a, b)) == H.trace(H.mul(b, a))


def test_trace_orthogonality(ball4, field2):
    F = field2
    elems = list(ball4)
    for u in elems:
        for v in elems:
            tr = H.trace(H.mul(H.star(H.t_element(F, [(u, F.one)])),
                               H.t_element(F, [(v, F.one)])))
            assert tr == (F.one if u == v else F.zero)


def test_star_involution(field2, ball4):
    F = field2
    rng = random.Random(5)
    elems = list(ball4)
    for _ in range(40):
        a = H.t_element(F, [(rng.choice(elems), F.make(rng.randint(-4, 4),
                                                        rng.randint(-2, 2)))
                            for _ in range(2)])
        b = H.t_element(F, [(rng.choice(elems), F.make(rng.randint(-4, 4)))
                            for _ in range(2)])
        assert H.star(H.star(a)) == a
        assert H.star(H.mul(a, b)) == H.mul(H.star(b), H.star(a))


def test_fields_reject_thin_q():
    for q in (1, "1/2", 0, -3):
        with pytest.raises(ValueError):
            H.ScalarField(q)


# ---------------------------------------------------------------------------
# Basis conversion and Bernstein products.
# ---------------------------------------------------------------------------


def test_t_to_x_trivial_cases(field2):
    F = field2
    assert H.t_to_x(H.unit(F)).terms == {((0, 0), 0): F.one}
    assert H.t_to_x(H.t_generator(F, 1)).terms == {((0, 0), 1): F.one}



def test_t_to_x_of_a_long_word_needs_no_recursion():
    """T_(t_(60,60)) (240 letters, dominant) is x^(60,60), built letter by
    letter without one stack frame per letter, with every prefix cached."""
    field = H.ScalarField(2)
    w = W.translation((60, 60))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        hx = H.t_to_x(H.t_element(field, [(w, field.one)]))
    finally:
        sys.setrecursionlimit(limit)
    assert hx == H.x_element(field, [(((60, 60), 0), field.one)])
    assert len(field._tx_cache) == W.length(w) + 1

def test_word_identities(field2):
    F = field2
    # x^{a1} = T2^-1 T0 T2 T1, x^{a2} = T1^-1 T0 T1 T2, x^{phi} = T0T1T2T1
    h = H.unit(F)
    for i, inv in ((2, True), (0, False), (2, False), (1, False)):
        h = H.rmul_gen(h, i, inverse=inv)
    assert H.t_to_x(h).terms == {((1, 0), 0): F.one}
    h = H.unit(F)
    for i, inv in ((1, True), (0, False), (1, False), (2, False)):
        h = H.rmul_gen(h, i, inverse=inv)
    assert H.t_to_x(h).terms == {((0, 1), 0): F.one}
    h = H.unit(F)
    for i in (0, 1, 2, 1):
        h = H.rmul_gen(h, i)
    assert H.t_to_x(h).terms == {((1, 1), 0): F.one}


def test_round_trip(field2, ball6):
    F = field2
    for w in ball6:
        tw = H.t_element(F, [(w, F.one)])
        assert H.x_to_t(H.t_to_x(tw)) == tw


def test_bernstein_monomials(field2):
    F = field2
    xa = H.x_element(F, [(((1, 0), 0), F.one)])
    xb = H.x_element(F, [(((-2, 1), 0), F.one)])
    assert H.bernstein_mul(xa, xb).terms == {((-1, 1), 0): F.one}
    assert H.bernstein_mul(xb, xa) == H.bernstein_mul(xa, xb)


def test_bernstein_worked_example(field2):
    # T1 x^{a1} = x^{-a1} T1 + quad (x^{a1} + 1)
    F = field2
    lhs = H.bernstein_mul(H.t_to_x(H.t_generator(F, 1)),
                          H.x_element(F, [(((1, 0), 0), F.one)]))
    expect = {((-1, 0), 1): F.one, ((1, 0), 0): F.quad, ((0, 0), 0): F.quad}
    assert lhs.terms == expect


@pytest.mark.parametrize("q", [2, 3])
def test_cross_basis_oracle(q):
    F = H.ScalarField(q)
    rng = random.Random(13)
    elems = list(W.ball(4))
    for _ in range(50):
        a = H.t_element(F, [(rng.choice(elems), F.make(rng.randint(1, 3)))
                            for _ in range(2)])
        b = H.t_element(F, [(rng.choice(elems), F.make(rng.randint(1, 3)))
                            for _ in range(2)])
        assert H.t_to_x(H.mul(a, b)) == H.bernstein_mul(H.t_to_x(a), H.t_to_x(b))


def _per_pair_bernstein_mul(h1, h2):
    """The Bernstein product one term pair at a time: T_u x^nu from the
    cache, right-multiplied by T_v one generator at a time, then shifted by
    mu and scaled by c1 c2."""
    field = h1.field
    out = {}
    for (mu, u), c1 in h1.terms.items():
        for (nu, v), c2 in h2.terms.items():
            mid = H._tu_times_xmonomial(field, u, nu)
            for j in W.W0_WORDS[v]:
                mid = H._rmul_fin_gen_x(mid, j, field)
            for (gamma, z), cm in mid.items():
                H._acc(out, ((gamma[0] + mu[0], gamma[1] + mu[1]), z), c1 * c2 * cm)
    return H.HeckeElement("X", out, field)


def _random_x_element(rng, field, size):
    """Random X-basis terms: lattice parts in [-2, 2]^2 (repeated, so that
    terms share mu and nu), all six finite parts, coefficients in
    Q(sqrt(q))."""
    return H.x_element(field, [
        (((rng.randint(-2, 2), rng.randint(-2, 2)), rng.randrange(6)),
         field.make(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-1, 1)))
        for _ in range(size)])


@pytest.mark.parametrize("q", [2, 3, Fraction(5, 2)])
def test_grouped_bernstein_mul_matches_per_pair_oracle(q, ball4):
    F = H.ScalarField(q)
    rng = random.Random(29)
    elems = sorted(ball4, key=lambda w: (w.mu, w.u))
    for _ in range(12):
        a = H.t_to_x(H.t_element(F, [(rng.choice(elems), F.make(rng.randint(1, 3)))
                                     for _ in range(3)]))
        b = H.t_to_x(H.t_element(F, [(rng.choice(elems), F.make(rng.randint(1, 3)))
                                     for _ in range(3)]))
        assert H.bernstein_mul(a, b) == _per_pair_bernstein_mul(a, b)
    for size in (1, 4, 12):
        a, b = _random_x_element(rng, F, size), _random_x_element(rng, F, size)
        assert H.bernstein_mul(a, b) == _per_pair_bernstein_mul(a, b)
        assert H.bernstein_mul(b, a) == _per_pair_bernstein_mul(b, a)


def _per_term_x_to_t(h):
    """x_to_t one X-term at a time: x^mu in the T-basis, right-multiplied
    along the reduced word of u, scaled and summed in term order."""
    out = {}
    for (mu, u), c in h.terms.items():
        piece = H.x_monomial_t_expansion(h.field, mu)
        for j in W.W0_WORDS[u]:
            piece = H.rmul_gen(piece, j)
        for k, v in piece.terms.items():
            H._acc(out, k, v * c)
    return H.HeckeElement("T", out, h.field)


@pytest.mark.parametrize("q", [2, 3, Fraction(5, 2)])
def test_x_to_t_matches_per_term_oracle(q, ball4):
    """Sharing the prefixes of one x^mu's T-expansions changes no value and
    no term order: W0_WORDS holds the prefix of each of its words."""
    assert all(word[:-1] in W.W0_WORDS for word in W.W0_WORDS[1:])
    F = H.ScalarField(q)
    rng = random.Random(31)
    elems = [H.t_to_x(H.t_element(F, [(w, F.one)])) for w in ball4]
    elems += [_random_x_element(rng, F, size) for size in (1, 4, 12, 30)]
    for h in elems:
        got, want = H.x_to_t(h), _per_term_x_to_t(h)
        assert got == want
        assert list(got.terms) == list(want.terms)


def test_is_ascent_matches_lengths(ball8):
    for w in ball8:
        for i in (0, 1, 2):
            assert W.is_ascent(w, i) == (W.length(W.right_mul_gen(w, i)) > W.length(w))


# ---------------------------------------------------------------------------
# Symmetrizer, intertwiners, spherical functions.
# ---------------------------------------------------------------------------


def test_symmetrizer(field2):
    F = field2
    e0 = H.symmetrizer_one(F)
    assert H.mul(e0, e0) == e0
    for i in (1, 2):
        assert H.mul(H.t_generator(F, i), e0) == e0.scaled(F.sqrt_q)
        assert H.mul(e0, H.t_generator(F, i)) == e0.scaled(F.sqrt_q)


def test_intertwiner_commutation(field3):
    F = field3
    for i in (1, 2):
        tau = H.intertwiner_tau(F, i)
        for mu in ((1, 0), (0, 1), (2, -1)):
            xm = H.x_element(F, [((mu, 0), F.one)])
            xs = H.x_element(F, [((W.w0_apply(i, mu), 0), F.one)])
            assert H.bernstein_mul(tau, xm) == H.bernstein_mul(xs, tau)


def test_intertwiner_square(field2):
    F = field2
    qinv = F.half_pow(-2)
    for i, av in ((1, (1, 0)), (2, (0, 1))):
        tau = H.intertwiner_tau(F, i)
        sq = H.bernstein_mul(tau, tau)
        f1 = H.x_element(F, [(((0, 0), 0), F.one), (((-av[0], -av[1]), 0), -qinv)])
        f2 = H.x_element(F, [(((0, 0), 0), F.one), ((av, 0), -qinv)])
        expect = H.bernstein_mul(f1, f2).scaled(F.make(F.q))
        assert sq == expect


def test_symmetrizer_intertwiner_identities(field2):
    F = field2
    e0x = H.t_to_x(H.symmetrizer_one(F))
    qinv = F.half_pow(-2)
    for i, av in ((1, (1, 0)), (2, (0, 1))):
        tau = H.intertwiner_tau(F, i)
        rhs = H.bernstein_mul(
            e0x, H.x_element(F, [(((0, 0), 0), F.sqrt_q),
                                 ((av, 0), -(F.sqrt_q * qinv))])
        )
        assert H.bernstein_mul(e0x, tau) == rhs
        # reversed side carries q^(1/2), not q^(-1/2)
        coef = H.x_element(F, [(((-av[0], -av[1]), 0), -F.sqrt_q),
                               (((0, 0), 0), F.sqrt_q * qinv)])
        assert H.bernstein_mul(tau, e0x) == H.bernstein_mul(coef, e0x)


@pytest.mark.parametrize("q", [2, 3])
def test_macdonald_spherical_identity(q):
    F = H.ScalarField(q)
    e0x = H.t_to_x(H.symmetrizer_one(F))
    assert H.macdonald_p(F, (0, 0)).terms == {((0, 0), 0): F.one}
    for mu in ((1, 1), (1, 2), (2, 1)):
        xm = H.x_element(F, [((mu, 0), F.one)])
        lhs = H.bernstein_mul(H.bernstein_mul(e0x, xm), e0x)
        rhs = H.bernstein_mul(H.macdonald_p(F, mu), e0x)
        assert lhs == rhs


def test_binomial_division_refuses_a_remainder(field2):
    """_divide_binomial undoes a product with 1 - x^(-a) for each positive
    coroot a, and raises where the division leaves a remainder."""
    F = field2
    f = {(2, 1): F.make(3), (0, 4): F.make(1, 1), (-1, -3): F.make(Fraction(-1, 2))}
    for a in W.POS_ROOTS:
        product = {}
        for e, c in f.items():
            H._acc(product, e, c)
            H._acc(product, (e[0] - a[0], e[1] - a[1]), -c)
        assert H._divide_binomial(product, a) == f
        with pytest.raises(ArithmeticError, match="remainder"):
            H._divide_binomial({**product, (5, 5): F.one}, a)


def test_macdonald_central(field2):
    F = field2
    p = H.macdonald_p(F, (1, 1))
    for u in range(6):
        moved = {(W.w0_apply(u, e), z): c for (e, z), c in p.terms.items()}
        assert moved == p.terms
    for other in (H.t_to_x(H.t_generator(F, 1)), H.t_to_x(H.t_generator(F, 2)),
                  H.x_element(F, [(((1, 0), 0), F.one)])):
        assert H.bernstein_mul(p, other) == H.bernstein_mul(other, p)


# ---------------------------------------------------------------------------
# Localized intertwiner-basis evaluation.
# ---------------------------------------------------------------------------


def test_tau_expansion_monomial(field3):
    F = field3
    t = (0.3 + 0.5j, -0.2 + 0.8j)
    h = H.x_element(F, [(((2, -1), 0), F.one)])
    vec = H.tau_expansion_at(h, t)
    assert abs(vec[0] - t[0] ** 2 / t[1]) < 1e-12
    assert max(abs(v) for v in vec[1:]) < 1e-12


def test_tau_expansion_intertwiner(field3):
    F = field3
    t = (0.4 + 0.3j, 0.9 - 0.2j)
    assert abs(H.f_value(H.intertwiner_tau(F, 1), t)) < 1e-12


def test_tau_expansion_symmetrizer(field2):
    F = field2
    q = float(F.q)
    t = (0.6 + 0.5j, -0.4 + 0.7j)
    e0 = H.symmetrizer_one(F)
    lhs = H.d_at(q, t) * H.f_value(e0, t)
    wq = 1 + 2 * q + 2 * q * q + q ** 3
    rhs = q ** 3 / wq * H.n_at(q, t)
    assert abs(lhs - rhs) < 1e-10


def test_tau_expansion_singular_rejected(field2):
    F = field2
    with pytest.raises(ValueError):
        H.tau_expansion_at(H.unit(F, "X"), (1.0, 0.5))


def _per_term_module_apply(terms, q, t, vec):
    """h vec in the localized rank-6 module at t, one X-term c x^mu T_u at a
    time: T_u by its generators right to left, each reading its characters
    t^(z^-1 e) afresh, then x^mu componentwise."""
    def char(z, e):
        e = W.w0_apply(W.w0_inv(z), e)
        return t[0] ** e[0] * t[1] ** e[1]

    quad = q ** 0.5 - q ** -0.5
    out = np.zeros(6, dtype=complex)
    for (mu, u), c in terms:
        cur = np.array(vec, dtype=complex)
        for i in reversed(W.W0_WORDS[u]):
            av = W.SIMPLE_ROOTS[i - 1]
            neg = (-av[0], -av[1])
            nxt = np.zeros(6, dtype=complex)
            for z in range(6):
                if cur[z] == 0:
                    continue
                sz = W.w0_mult(i, z)
                pole_new = 1 - char(sz, neg)
                if W.w0_length(sz) > W.w0_length(z):
                    nxt[sz] += cur[z] / pole_new
                else:
                    g = q * (1 - char(sz, neg) / q) * (1 - char(sz, av) / q)
                    nxt[sz] += cur[z] * g / pole_new
                nxt[z] += cur[z] * quad / (1 - char(z, neg))
            cur = nxt
        for z in range(6):
            cur[z] *= char(z, mu)
        out += c * cur
    return out


@pytest.mark.parametrize("q", [2, 3, Fraction(5, 2)])
def test_module_columns_match_per_term_oracle(q, ball4):
    """f_value and tau_expansion_at against the module action term by term,
    on and off the unit torus."""
    F = H.ScalarField(q)
    rng = random.Random(41)
    elems = sorted(ball4, key=lambda w: (w.mu, w.u))
    points = [(np.exp(0.7j), np.exp(-1.9j)), (np.exp(2.2j), np.exp(0.4j)),
              (0.6 * np.exp(0.3j), 1.7 * np.exp(-1.1j)), (0.05, 0.04 + 0.02j),
              (1.3 + 0.4j, -0.5 + 0.9j)]
    e0 = (1, 0, 0, 0, 0, 0)
    for t in points:
        for _ in range(4):
            h = H.t_element(F, [(rng.choice(elems), F.make(rng.randint(1, 3)))
                                for _ in range(3)])
            terms = [(key, complex(c)) for key, c in H.t_to_x(h).terms.items()]
            want = _per_term_module_apply(terms, float(q), t, e0)[0]
            assert abs(H.f_value(h, t) - want) <= 1e-12 * abs(want)
            want = np.array([
                _per_term_module_apply(terms, float(q), H._w0_on_character(W.w0_inv(u), t),
                                       e0)[u] for u in range(6)])
            got = H.tau_expansion_at(h, t)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_orbit_identity_at_a_near_wall_point(field2):
    """Orbit entry 12 of the algebra_trace benchmark inputs at seed 302: t1 t2
    lies 7.3e-5 from the wall.  With negative powers formed by division the
    two near-wall orbit points disagreed in their last bits and one f_value
    term moved by 5.8e-5, a deviation of 1.58e-9 times the largest term;
    see the decisions ledger."""
    F = field2
    t = (np.exp(1j * 2.418652034278627), np.exp(1j * -2.4185793971014222))
    h = H.t_element(F, [(W.AffineElement(mu, u), F.make(c))
                        for mu, u, c in (((0, 0), 2, 3), ((1, 1), 4, 3), ((0, -1), 1, 2))])
    terms = [H.f_value(h, s) for s in H.orbit_characters(t)]
    chi = R.character(R.principal_series(2, t), h)
    assert abs(sum(terms) - chi) <= 1e-9 * max(1.0, max(abs(f) for f in terms))


# ---------------------------------------------------------------------------
# Coefficient-growth and support bounds for gallery-basis elements.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3])
def test_gallery_basis_trace_bounds(q, ball6):
    """Traces of the gallery basis: |Tr(x_v)| <= 2^l(v) q^(l(v)/2), and a
    nonzero trace forces the lattice part into the antidominant cone."""
    F = H.ScalarField(q)
    for v in ball6:
        xv_terms = []
        for z, c in H.finite_inverse(F, W.w0_inv(v.u)).items():
            xv_terms.append(((v.mu, z), c))
        tr = H.trace(H.x_to_t(H.x_element(F, xv_terms)))
        bound = 2 ** W.length(v) * float(q) ** (W.length(v) / 2)
        assert abs(complex(tr)) <= bound + 1e-9
        if tr != F.zero:
            assert v.mu[0] <= 0 and v.mu[1] <= 0


def _check_trace_table_against_generic(q):
    tab = H.TraceTable(q)
    tab.ensure_box((-3, 2), (-2, 2))
    F = H.ScalarField(q)
    for m in range(-3, 3):
        for n in range(-2, 3):
            row = tab.trace_row((m, n))
            for u in range(6):
                tr = H.trace(H.x_to_t(H.x_element(F, [(((m, n), u), F.one)])))
                assert tr == row[u]


def test_trace_table_matches_generic():
    _check_trace_table_against_generic(2)
    # q - 1 = 1/100: the pair sweep divides by q_n q_d = 10100 on every
    # multiplication by q^(1/2) - q^(-1/2)
    _check_trace_table_against_generic(Fraction(101, 100))


def test_trace_table_matches_generic_q3():
    _check_trace_table_against_generic(3)


def test_trace_table_rational_q():
    tab = H.TraceTable(Fraction(5, 2))
    tab.ensure_box((-2, 0), (-2, 0))
    F = H.ScalarField(Fraction(5, 2))
    for m in range(-2, 1):
        for n in range(-2, 1):
            row = tab.trace_row((m, n))
            for u in range(6):
                tr = H.trace(H.x_to_t(H.x_element(F, [(((m, n), u), F.one)])))
                assert tr == row[u]


def _hexagon(radius):
    return [(m, n) for m in range(-radius, radius + 1) for n in range(-radius, radius + 1)
            if max(abs(W.pairing((m, n), a)) for a in W.POS_ROOTS) <= radius]


@pytest.mark.parametrize("q", ["2", "3", "5/2", "4", "9/4", "101/100"])
def test_trace_table_degree_bound_and_floats(q):
    """Every trace at height h = m + n is an integer polynomial of degree at
    most 2 (K - h) in q^(1/2) - q^(-1/2), so its canonical denominator
    divides (q_n q_d)^(K - h): the bound the table's fixed scale rests on.
    The float grid holds float() of each canonical trace, bit for bit."""
    tab = H.TraceTable(Fraction(q))
    tab.ensure_box((-4, 4), (-4, 4))
    radius = 12     # <(-4, 4), a_1> = -12
    qn, qd = Fraction(q).numerator, Fraction(q).denominator
    for m, n in _hexagon(radius):
        row = tab.trace_row((m, n))
        for c in row:
            denominator = lcm(c.a.denominator, c.b.denominator)
            assert (qn * qd) ** (radius - m - n) % denominator == 0, ((m, n), c)
        floats = tab.float_box((m, m), (n, n))
        assert floats.shape == (1, 1, 6)
        assert [x.hex() for x in floats[0, 0]] == [float(c).hex() for c in row], (m, n)
    for mu in [(radius, radius), (-radius, -radius), (radius + 1, 0)]:
        with pytest.raises(KeyError):
            tab.trace_row(mu)
    with pytest.raises(KeyError):
        tab.float_box((-radius, 0), (-radius, 0))


def test_trace_table_growth_coverage_and_symmetry():
    """A grown table equals a fresh one, lookups outside the covered hexagon
    raise, and the diagram automorphism (swap the simple reflections and the
    two lattice coordinates) fixes the trace."""
    grown = H.TraceTable(2)
    grown.ensure_box((-2, 0), (-2, 0))
    grown.ensure_box((-5, 1), (-4, 1))
    fresh = H.TraceTable(2)
    fresh.ensure_box((-5, 1), (-4, 1))
    radius = 11     # the largest |<mu, a>| at a corner: <(-5, 1), a_1> = -11
    omega = (0, 2, 1, 4, 3, 5)
    for m, n in _hexagon(radius):
        row = fresh.trace_row((m, n))
        assert grown.trace_row((m, n)) == row
        mirror = fresh.trace_row((n, m))
        assert all(mirror[omega[u]] == row[u] for u in range(6))
    for mu in [(6, 0), (0, -6), (-6, -6), (-6, 6), (2048, 0)]:
        with pytest.raises(KeyError):
            fresh.trace_row(mu)


def test_trace_table_radius_limit_leaves_the_table_unchanged():
    """A box whose hexagon exceeds the radius limit raises before the sweep,
    naming the radius; the table keeps its radius, rows, scale and floats."""
    tab = H.TraceTable(2)
    tab.ensure_box((-3, 1), (-2, 1))
    radius, rows, scale, floats = tab._radius, tab._rows, tab._scale, tab._floats
    box = ((-(H._MAX_RADIUS // 2 + 1), 0), (0, 0))
    too_far = H._box_radius(*box)
    assert too_far > H._MAX_RADIUS
    with pytest.raises(ValueError, match=f"trace table radius {too_far} exceeds the limit"):
        tab.ensure_box(*box)
    assert (tab._radius, tab._rows, tab._scale, tab._floats) == (radius, rows, scale, floats)
    fresh = H.TraceTable(2)
    fresh.ensure_box((-3, 1), (-2, 1))
    assert tab.trace_row((-3, -2)) == fresh.trace_row((-3, -2))
