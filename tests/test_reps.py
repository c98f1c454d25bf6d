import random

import numpy as np
import pytest

import display_matrices as DM
from chamberwalks import hecke as H
from chamberwalks import reps as R
from chamberwalks import weyl as W


# torus points for the batched builders: generic, unit-modulus and real
BATCH_T1 = np.array([0.37 + 0.56j, np.exp(0.3j), 1.0, -0.4 + 1.3j])
BATCH_T2 = np.array([-0.83 + 0.44j, np.exp(-2.1j), 1.0, 0.9])


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_six_dim_matches_display(q):
    t = (0.37 + 0.56j, -0.83 + 0.44j)
    rep = R.principal_series(q, t)
    for i, disp in enumerate(DM.six_dim(q, *t)):
        assert np.abs(R.a_normalized(rep, i) - disp).max() < 1e-12
    gens = R.principal_generators(q, BATCH_T1, BATCH_T2)
    for k, (t1, t2) in enumerate(zip(BATCH_T1, BATCH_T2)):
        for g, disp in zip(gens, DM.six_dim(q, t1, t2)):
            assert np.abs(g[k] / q ** 0.5 - disp).max() < 1e-12


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_three_dim_matches_display(q):
    u = np.exp(0.61j)
    rep = R.induced_three_dim(q, u)
    for i, disp in enumerate(DM.three_dim(q, u)):
        assert np.abs(rep.gens[i] / q ** 0.5 - disp).max() < 1e-12
    us = BATCH_T1 * BATCH_T2
    gens = R.induced_generators(q, us)
    for k, uk in enumerate(us):
        for g, disp in zip(gens, DM.three_dim(q, uk)):
            assert np.abs(g[k] / q ** 0.5 - disp).max() < 1e-12


def test_character_routes_agree(field2, ball4):
    """At one point, the character equals the trace of the module image and
    the batched character at that point."""
    F = field2
    rng = random.Random(31)
    elems = list(ball4)
    h = H.t_element(F, [(rng.choice(elems), F.make(rng.randint(1, 3), 1))
                        for _ in range(4)])
    t = (0.37 + 0.56j, -0.83 + 0.44j)
    chi = R.character(R.principal_series(2, t), h)
    trace = np.trace(R.evaluate(R.principal_series(2, t), h))
    batched = R.characters(h, R.principal_generators(2, BATCH_T1, BATCH_T2))
    assert abs(chi - trace) < 1e-12 * abs(chi)
    assert chi == batched[0]


def test_sign_character_values():
    q = 2.0
    rep = R.sign_character(q)
    for i in range(3):
        assert abs(rep.gens[i][0, 0] / q ** 0.5 - (-1 / q)) < 1e-15
    assert abs(R.p_matrix(rep)[0, 0] - (-1 / q)) < 1e-15


def test_relations(field2):
    for rep in (
        R.principal_series(2, (0.3 + 0.4j, 1.2 - 0.1j)),
        R.induced_three_dim(2, 0.8 + 0.6j),
        R.sign_character(2),
    ):
        assert R.max_relation_residual(rep) < 1e-12


def test_relation_residual_propagates_nan():
    rep = R.principal_series(2, (0.3 + 0.4j, 1.2 - 0.1j))
    gens = [g.copy() for g in rep.gens]
    gens[1][0, 0] = np.nan
    assert np.isnan(R.max_relation_residual(R.Representation(rep.q, tuple(gens))))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_single_modules_reject_non_finite_entries():
    """A parameter that is not finite, or whose inverse overflows, gives a
    non-finite generator entry."""
    for t in ((np.nan, 1.0), (1.0, np.inf), (1e-320, 1.0)):
        with pytest.raises(ValueError, match="non-finite"):
            R.principal_series(2, t)
    for u in (np.nan, np.inf, 1e-320):
        with pytest.raises(ValueError, match="non-finite"):
            R.induced_three_dim(2, u)


def test_entry_example():
    t = (0.3 + 0.4j, 0.9 + 0.1j)
    rep = R.principal_series(2, t)
    assert abs(R.a_normalized(rep, 0)[0, 5] - t[0] * t[1] / 2 ** 0.5) < 1e-14


def test_homomorphism(field2, ball4):
    F = field2
    rep = R.principal_series(2, (0.5 + 0.5j, -0.2 + 0.9j))
    rng = random.Random(23)
    elems = list(ball4)
    for _ in range(200):
        a = H.t_element(F, [(rng.choice(elems), F.make(rng.randint(1, 3)))])
        b = H.t_element(F, [(rng.choice(elems), F.make(rng.randint(1, 3)))])
        lhs = R.evaluate(rep, H.mul(a, b))
        rhs = R.evaluate(rep, a) @ R.evaluate(rep, b)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_evaluate_identity(field2):
    rep = R.principal_series(2, (0.5, 0.7))
    assert np.abs(R.evaluate(rep, H.unit(field2)) - np.eye(6)).max() == 0


def test_lattice_words_in_modules(field2):
    F = field2
    t = (0.37 + 0.2j, 0.8 - 0.3j)
    rep = R.principal_series(2, t)
    xa = H.x_to_t(H.x_element(F, [(((1, 0), 0), F.one)]))
    word = np.linalg.inv(rep.gens[2]) @ rep.gens[0] @ rep.gens[2] @ rep.gens[1]
    assert np.abs(R.evaluate(rep, xa) - word).max() < 1e-10

    rep3 = R.induced_three_dim(2, 0.6 + 0.8j)
    xphi = H.x_to_t(H.x_element(F, [(((1, 1), 0), F.one)]))
    word3 = rep3.gens[0] @ rep3.gens[1] @ rep3.gens[2] @ rep3.gens[1]
    assert np.abs(R.evaluate(rep3, xphi) - word3).max() < 1e-10


def test_characters_dimensions(field2):
    F = field2
    one = H.unit(F)
    assert R.character(R.principal_series(2, (0.5, 0.7)), one) == 6
    assert R.character(R.induced_three_dim(2, 1.0), one) == 3
    assert R.character(R.sign_character(2), one) == 1


def test_sign_character_on_lattice(field2):
    F = field2
    repS = R.sign_character(2)
    for mu in ((1, 0), (0, 1)):
        m = R.evaluate(repS, H.x_to_t(H.x_element(F, [((mu, 0), F.one)])))
        assert abs(m[0, 0] - 0.5) < 1e-12
    # the walk-operator value follows from the generator values
    assert abs(R.p_matrix(repS)[0, 0] + 0.5) < 1e-15


def test_character_of_intertwiner_monomials(field2):
    # chi_t(x^lam tau_w) = delta_{w,e} * orbit sum of t^(w' lam)
    F = field2
    t = (np.exp(0.53j), np.exp(-1.21j))
    rep = R.principal_series(2, t)
    for lam in ((1, 0), (1, 1), (-1, 2)):
        xl = H.x_element(F, [((lam, 0), F.one)])
        for u in range(6):
            el = H.bernstein_mul(xl, H.tau_element(F, u))
            chi = R.character(rep, H.x_to_t(el))
            if u == 0:
                expect = sum(
                    t[0] ** e[0] * t[1] ** e[1]
                    for e in (W.w0_apply(v, lam) for v in range(6))
                )
            else:
                expect = 0.0
            assert abs(chi - expect) < 1e-9


def test_central_character(field2):
    F = field2
    t = (0.62 + 0.3j, 1.4 - 0.2j)
    rep = R.principal_series(2, t)
    for lam in ((1, 0), (1, 1)):
        orbit = {W.w0_apply(u, lam) for u in range(6)}
        p = H.x_element(F, [((e, 0), F.one) for e in orbit])
        val = sum(t[0] ** e[0] * t[1] ** e[1] for e in orbit)
        m = R.evaluate(rep, H.x_to_t(p))
        assert np.abs(m - val * np.eye(6)).max() < 1e-10


def test_inducing_character(field2):
    F = field2
    u = np.exp(0.7j)
    rep3 = R.induced_three_dim(2, u)
    e1 = np.array([1, 0, 0], dtype=complex)
    m1 = R.evaluate(rep3, H.x_to_t(H.x_element(F, [(((1, 0), 0), F.one)])))
    m2 = R.evaluate(rep3, H.x_to_t(H.x_element(F, [(((0, 1), 0), F.one)])))
    assert np.abs(m1 @ e1 - 0.5 * e1).max() < 1e-12
    assert np.abs(m2 @ e1 - 2 ** 0.5 * u * e1).max() < 1e-12


def test_hermitian_on_torus():
    for th in ((0.3, -1.2), (2.5, 0.4)):
        rep = R.principal_series(2, (np.exp(1j * th[0]), np.exp(1j * th[1])))
        m = R.p_matrix(rep)
        assert np.abs(m - m.conj().T).max() < 1e-12
    rep3 = R.induced_three_dim(2, np.exp(0.9j))
    m3 = R.p_matrix(rep3)
    assert np.abs(m3 - m3.conj().T).max() < 1e-12


def test_kato_criterion():
    q = 2
    assert R.is_principal_irreducible(q, (np.exp(0.7j), np.exp(1.3j)))
    assert not R.is_principal_irreducible(q, (2.0, 0.37))
    assert not R.is_principal_irreducible(q, (0.5, 0.5))
    assert not R.is_principal_irreducible(q, (0.9, 2.0 / 0.9))   # t1 t2 = q
    assert not R.is_principal_irreducible(q, (1.7, 0.5 / 1.7))   # t1 t2 = 1/q
    # strictly off the boundary stays irreducible
    assert R.is_principal_irreducible(q, (2.0 + 1e-6, 0.37))
