import random

import numpy as np
import pytest

from chamberwalks import hecke as H
from chamberwalks import reps as R
from chamberwalks import walks as WK
from chamberwalks import weyl as W
from oracles import bruhat_leq, matrix_element_monomials, walk_matrix


def test_single_letter_gallery(field2):
    gallery = WK.enumerate_walks((1,))
    assert len(gallery) == 2
    tags = {p.tags for p in gallery}
    assert tags == {("F1",), ("C-",)}
    ends = {p.end for p in gallery}
    assert ends == {W.IDENTITY, W.GEN[1]}


def test_nonreduced_word_rejected():
    with pytest.raises(ValueError):
        WK.enumerate_walks((1, 1))


def test_golden_count_and_grouping():
    gallery = WK.enumerate_walks((1, 2, 1, 0))
    assert len(gallery) == 10
    by_weight = {}
    for p in gallery:
        by_weight.setdefault(p.weight, []).append(p)
    grouped = sorted((wt, len(ps)) for wt, ps in by_weight.items())
    # frozen golden grouping of the ten galleries by lattice weight
    assert grouped == [((-1, -1), 1), ((-1, 0), 1), ((0, -1), 1),
                       ((0, 0), 3), ((0, 1), 1), ((1, 0), 1), ((1, 1), 2)]


def test_unfolded_walk_present():
    for word in ((1, 2), (0, 1, 2), (1, 2, 1, 0)):
        gallery = WK.enumerate_walks(word)
        target = W.from_word(word)
        unfolded = [p for p in gallery if p.fold_count == 0]
        assert len(unfolded) == 1
        assert unfolded[0].end == target


def test_walk_invariants(field2):
    for word in ((1, 2, 1, 0), (0, 1, 2, 1), (2, 0, 1, 2, 0)):
        w = W.from_word(word)
        for p in WK.enumerate_walks(word):
            assert bruhat_leq(p.end, w)
            # dominance: the weight exceeds w.mu in both coroot coordinates
            assert p.weight[0] >= w.mu[0] and p.weight[1] >= w.mu[1]
            # replay the steps: crossings move, folds stay, ends match
            cur = p.start
            for tag, i in zip(p.tags, word):
                if tag.startswith("C"):
                    cur = W.right_mul_gen(cur, i)
            assert cur == p.end


def test_folds_are_positive():
    for word in ((1, 2, 1, 0), (1, 0, 2, 1)):
        for p in WK.enumerate_walks(word):
            cur = p.start
            for tag, i in zip(p.tags, word):
                if tag.startswith("F"):
                    _, sign = W.crossing_data(cur, i)
                    assert sign < 0  # current alcove on the positive side
                else:
                    cur = W.right_mul_gen(cur, i)


def test_q_statistic(field2):
    F = field2
    gallery = WK.enumerate_walks((1,))
    for p in gallery:
        expect = F.quad if p.fold_count else F.one
        assert WK.q_statistic(p, F) == expect


def test_expand_matches_straightening(field2, ball6):
    F = field2
    for w in ball6:
        assert WK.expand_t(w, F) == H.t_to_x(H.t_element(F, [(w, F.one)]))


def test_expansion_word_independent(field2):
    """Braid-equal reduced words produce identical expansions."""
    F = field2

    def expand_along(word):
        terms = {}
        for p in WK.enumerate_walks(word):
            c = WK.q_statistic(p, F)
            for z, cz in H.finite_inverse(F, W.w0_inv(p.direction)).items():
                H._acc(terms, (p.weight, z), c * cz)
        return terms

    assert expand_along((1, 2, 1)) == expand_along((2, 1, 2))
    assert expand_along((0, 1, 0)) == expand_along((1, 0, 1))


def test_matrix_element_identity(field2):
    F = field2
    t = (0.3 + 0.7j, 1.1 - 0.4j)
    m = walk_matrix(W.IDENTITY, t, F)
    assert np.abs(m - np.eye(6)).max() < 1e-14


def _gallery_basis_matrix(field):
    """Coordinates of the basis T_u^(-1) T_(longest) tensor cyclic vector."""
    b = np.zeros((6, 6), dtype=complex)
    for u in range(6):
        el = H.t_element(field, [(W.finite(z), c)
                                 for z, c in H.finite_inverse(field, u).items()])
        for j in W.W0_WORDS[W.W0_LONGEST]:
            el = H.rmul_gen(el, j)
        for w, c in el.terms.items():
            b[w.u, u] = complex(c)
    return b


def test_matrix_elements_vs_module(field2, ball4):
    F = field2
    t = (0.3 + 0.4j, -0.5 + 0.7j)
    rep = R.principal_series(2, t)
    b = _gallery_basis_matrix(F)
    binv = np.linalg.inv(b)
    for w in ball4:
        direct = binv @ R.evaluate(rep, H.t_element(F, [(W.inverse(w), F.one)])) @ b
        assert np.abs(direct - walk_matrix(w, t, F)).max() < 1e-10


def test_character_consistency(field2):
    """Traces are basis independent: gallery matrix vs module evaluation."""
    F = field2
    rng = random.Random(17)
    for w in [v for v in W.ball(5) if W.length(v) <= 5]:
        th = (rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
        t = (np.exp(1j * th[0]), np.exp(1j * th[1]))
        rep = R.principal_series(2, t)
        chi = np.trace(R.evaluate(rep, H.t_element(F, [(W.inverse(w), F.one)])))
        walk_chi = np.trace(walk_matrix(w, t, F))
        assert abs(chi - walk_chi) < 1e-10


def test_monomial_coefficients_nonnegative(field2):
    F = field2
    for w in W.ball(4):
        for u in range(6):
            for v in range(6):
                for _, c in matrix_element_monomials(w, u, v, F):
                    z = complex(c)
                    assert z.imag == 0 and z.real >= 0
