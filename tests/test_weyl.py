import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chamberwalks import limit as L
from chamberwalks import weyl as W


def test_identity_and_generators():
    assert W.length(W.IDENTITY) == 0
    for g in W.GEN:
        assert W.length(g) == 1
        assert W.multiply(g, g) == W.IDENTITY


def test_affine_generator_structure():
    s0 = W.GEN[0]
    assert s0.mu == (1, 1)
    assert s0.u == W.W0_LONGEST
    # reflection formula: s0 fixes the wall <x, phi> = 1 and sends 0 to phi^vee
    assert W.multiply(s0, W.translation((0, 0))) == s0


def test_reflection_formula_oracle():
    # s0 agrees with x -> x - (<x, phi> - 1) phi^vee on lattice points
    for pt in [(0, 0), (1, 0), (0, 1), (2, -1), (-1, 3)]:
        k = W.pairing(pt, (1, 1)) - 1
        expect = (pt[0] - k, pt[1] - k)
        s0 = W.GEN[0]
        img = W.w0_apply(s0.u, pt)
        img = (img[0] + s0.mu[0], img[1] + s0.mu[1])
        assert img == expect


def test_semidirect_product_law(ball4):
    elems = sorted(ball4, key=lambda w: (W.length(w), w.mu, w.u))
    rng = random.Random(0)
    for _ in range(200):
        a, b = rng.choice(elems), rng.choice(elems)
        prod = W.multiply(a, b)
        shifted = W.w0_apply(a.u, b.mu)
        assert prod.mu == (a.mu[0] + shifted[0], a.mu[1] + shifted[1])
        assert prod.u == W.w0_mult(a.u, b.u)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=10))
def test_group_laws_on_words(word):
    w = W.from_word(word)
    assert W.multiply(w, W.inverse(w)) == W.IDENTITY
    assert W.multiply(W.inverse(w), w) == W.IDENTITY


def test_length_matches_cayley_distance(ball8):
    for w, d in ball8.items():
        assert W.length(w) == d


def test_length_of_highest_coroot_translation():
    assert W.length(W.translation((1, 1))) == 4


def test_reduced_word_roundtrip(ball8):
    for w in ball8:
        word = W.reduced_word(w)
        assert len(word) == W.length(w)
        assert W.from_word(word) == w


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=12))
def test_reduced_word_roundtrip_random(word):
    w = W.from_word(word)
    again = W.reduced_word(w)
    assert len(again) == W.length(w) <= len(word)
    assert W.from_word(again) == w


def test_reduced_word_deterministic_tiebreak():
    # braid-equal words resolve to the lexicographically smallest descents
    w = W.from_word((1, 2, 1))
    assert W.from_word((2, 1, 2)) == w
    assert W.reduced_word(w) == (1, 2, 1)


def test_bruhat_basics(ball4):
    s1 = W.GEN[1]
    s12 = W.multiply(W.GEN[1], W.GEN[2])
    assert W.bruhat_leq(s1, s12)
    for w in ball4:
        assert W.bruhat_leq(W.IDENTITY, w)


def bruhat_leq_bruteforce(v, w) -> bool:
    """Reference for the Bruhat order: enumerate all subwords of
    reduced_word(w)."""
    word = W.reduced_word(w)
    for mask in range(1 << len(word)):
        sub = W.from_word(i for k, i in enumerate(word) if mask >> k & 1)
        if sub == v:
            return True
    return False


def test_bruhat_matches_bruteforce(ball4):
    elems = list(ball4)
    for v in elems:
        for w in elems:
            assert W.bruhat_leq(v, w) == bruhat_leq_bruteforce(v, w)


def test_dominance():
    assert W.dominance_leq((0, 0), (1, 0))
    assert not W.dominance_leq((1, 0), (0, 1))
    assert W.dominance_leq((-2, 1), (0, 1))


def test_inversion_sets():
    assert W.inversion_set(0) == frozenset()
    assert W.inversion_set(W.W0_LONGEST) == frozenset(W.POS_ROOTS)
    assert W.inversion_set(1) == frozenset({(1, 0)})
    for u in range(6):
        assert len(W.inversion_set(u)) == W.w0_length(u)


def test_crossing_data_examples():
    hyp, sign = W.crossing_data(W.IDENTITY, 1)
    assert hyp == ((1, 0), 0) and sign == -1
    hyp, sign = W.crossing_data(W.GEN[1], 1)
    assert hyp == ((1, 0), 0) and sign == +1


def test_crossing_antisymmetry(ball4):
    rng = random.Random(1)
    elems = list(ball4)
    for _ in range(500):
        a = rng.choice(elems)
        i = rng.randrange(3)
        hyp_a, sign_a = W.crossing_data(a, i)
        hyp_b, sign_b = W.crossing_data(W.right_mul_gen(a, i), i)
        assert hyp_a == hyp_b
        assert sign_a == -sign_b


def barycenter(a):
    """Exact barycenter of the alcove a(c0): t_mu u applied to (1/3, 1/3),
    the rational oracle for the walls and signs of crossing_data."""
    img = W.w0_apply(a.u, (Fraction(1, 3), Fraction(1, 3)))
    return (img[0] + a.mu[0], img[1] + a.mu[1])


def test_barycenter_exact():
    b = barycenter(W.IDENTITY)
    assert b == (Fraction(1, 3), Fraction(1, 3))
    # barycenters of distinct alcoves are distinct on ball(3)
    seen = set()
    for w in W.ball(3):
        seen.add(barycenter(w))
    assert len(seen) == len(W.ball(3))


def test_crossing_data_matches_barycenter_side():
    """crossing_data reads walls and signs off integer affine roots.  On
    ball(10) the wall is a positive root's hyperplane that reflects the
    exact barycenter of a onto that of a s_i, and the sign is +1 exactly
    when the barycenter of a lies on its negative side."""
    for a in W.ball(10):
        for i in range(3):
            (root, k), sign = W.crossing_data(a, i)
            assert root in W.POS_ROOTS
            side = W.pairing(barycenter(a), root) + k
            assert W.pairing(barycenter(W.right_mul_gen(a, i)), root) + k == -side != 0
            assert sign == (1 if side < 0 else -1), (a, i)


def test_ball_counts_match_geometric_enumeration():
    """The array-built state space (closed-form length over a lattice box)
    against the BFS ball: same elements in (length, mu, u) order, same
    lengths, and targets/ascents from right_mul_gen and BFS distances."""
    for radius in [*range(9), 25]:
        dist = W.ball(radius)
        elems = sorted(dist, key=lambda w: (dist[w], w.mu, w.u))
        space = L.state_space(radius)
        assert [space.element(s) for s in range(len(space.elems))] == elems
        assert space.lengths.tolist() == [dist[w] for w in elems]
        index = {w: s for s, w in enumerate(elems)}
        for s, w in enumerate(elems):
            assert space.state(w) == s
            for i in range(3):
                y = W.right_mul_gen(w, i)
                assert space.target[s, i] == index.get(y, -1)
                assert space.ascent[s, i] == (y not in dist or dist[y] > dist[w])


def test_length_array_is_exact_on_wide_inputs():
    """length_array keeps the integer dtype of m and n.  It matches length on
    Python ints and on int64 arrays with |m|, |n| up to 10^5, and at the
    corners of the largest lattice box state_space admits its int16 value
    equals the int64 one (the whole box is not evaluated here)."""
    rng = random.Random(43)
    big = 10 ** 5
    points = [(m, n, u) for m in (-big, 0, big) for n in (-big, 0, big) for u in range(6)]
    points += [(rng.randint(-big, big), rng.randint(-big, big), rng.randrange(6))
               for _ in range(300)]
    want = [W.length(W.AffineElement((m, n), u)) for m, n, u in points]
    assert [W.length_array(m, n, u) for m, n, u in points] == want
    got = W.length_array(*(np.array(col, dtype=np.int64) for col in zip(*points)))
    assert got.dtype == np.int64 and got.tolist() == want
    b = (math.isqrt(L._MAX_BOX_ENTRIES // 6) - 1) // 2
    assert b == 835 and (2 * b + 3) ** 2 * 6 > L._MAX_BOX_ENTRIES
    edge = np.array([-b, -b + 1, -1, 0, 1, b - 1, b])
    grid = np.meshgrid(edge, edge, np.arange(6), indexing="ij")
    narrow = W.length_array(*(g.astype(np.int16) for g in grid))
    wide = W.length_array(*(g.astype(np.int64) for g in grid))
    assert narrow.dtype == np.int16 and np.array_equal(narrow, wide)
    assert wide.max() == 6 * b + 2


def _automorphism(perm, elems):
    """The closed-form images of a list of elements."""
    rows = W.automorphism(perm)
    return [W.AffineElement((m, n), u) for m, n, u in
            ((w.mu[0] * rows[0] + w.mu[1] * rows[1] + rows[2 + w.u]).tolist() for w in elems)]


@pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
def test_automorphism_is_the_relabelled_reduced_word(perm):
    """On the ball of radius 12 the closed form t_(m,n) u -> m row[0] +
    n row[1] + row[2 + u] is the element of the reduced word with its
    letters permuted, preserves length and sends s_i to s_perm[i]."""
    elems = list(W.ball(12))
    images = _automorphism(perm, elems)
    for w, image in zip(elems, images):
        assert image == W.from_word([perm[i] for i in W.reduced_word(w)]), w
        assert W.length(image) == W.length(w)
    assert _automorphism(perm, W.GEN) == [W.GEN[perm[i]] for i in range(3)]


@pytest.mark.parametrize("p", list(itertools.permutations(range(3))))
def test_automorphisms_compose(p):
    """sigma_p o sigma_r = sigma_(p o r) for every pair of permutations."""
    elems = list(W.ball(12))
    for r in itertools.permutations(range(3)):
        composed = tuple(p[r[i]] for i in range(3))
        assert _automorphism(p, _automorphism(r, elems)) == _automorphism(composed, elems)


def test_thin_building_axioms(ball4):
    """delta(u, v) = u^-1 v satisfies the two local axioms on short pairs."""
    elems = list(ball4)
    for a in elems:
        for b in elems:
            w = W.multiply(W.inverse(a), b)
            # first axiom
            assert (w == W.IDENTITY) == (a == b)
            # second axiom: c adjacent to b of type i
            for i in range(3):
                c = W.right_mul_gen(b, i)
                ws = W.multiply(W.inverse(a), c)
                assert ws == W.right_mul_gen(w, i)
                if W.length(W.right_mul_gen(w, i)) == W.length(w) + 1:
                    assert ws == W.right_mul_gen(w, i)


def test_q_multiplicativity_along_reduced_products(ball4):
    # q_w = q^length is multiplicative when lengths add
    rng = random.Random(2)
    elems = list(ball4)
    for _ in range(200):
        u, v = rng.choice(elems), rng.choice(elems)
        uv = W.multiply(u, v)
        if W.length(uv) == W.length(u) + W.length(v):
            assert 2 ** W.length(uv) == 2 ** W.length(u) * 2 ** W.length(v)


def test_worked_gallery_example_structure():
    """The long worked gallery: everything reproducible from the printed
    words holds (the two endpoint expressions agree, the length drops by the
    two folds, subword order); the printed coordinate data itself is not
    recoverable and the actual lattice difference is frozen here."""
    w = W.from_word((0, 1, 2, 0, 1, 0, 2, 1, 0, 1, 2, 0))
    assert W.length(w) == 12
    v10 = W.from_word((0, 1, 2, 0, 1, 2, 1, 0, 2, 0))
    v8 = W.from_word((0, 1, 2, 0, 2, 1, 0, 2))
    assert v10 == v8
    assert W.length(v8) == 8
    assert W.bruhat_leq(v8, w)
    diff = (v8.mu[0] - w.mu[0], v8.mu[1] - w.mu[1])
    assert diff == (-3, -2)
    # difference lies in the coroot lattice even though the endpoints of the
    # printed coordinate data do not
