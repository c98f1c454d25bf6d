import itertools
import random
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from chamberwalks import hecke as H
from chamberwalks import limit as L
from chamberwalks import plancherel as P
from chamberwalks import reps as R
from chamberwalks import walks as WK
from chamberwalks import weyl as W


def test_zero_steps():
    d = L.exact_distribution(L.simple_walk_spec(), 0, 2)
    assert d.mass(W.IDENTITY) == 1.0
    assert d.total() == 1.0


def test_one_step():
    d = L.exact_distribution(L.simple_walk_spec(), 1, 2)
    assert d.mass(W.IDENTITY) == 0.0
    for i in range(3):
        assert abs(d.mass(W.GEN[i]) - 1 / 3) < 1e-15


@pytest.mark.parametrize("q", [2, 3])
def test_two_step_return(q):
    d = L.exact_distribution(L.simple_walk_spec(), 2, q)
    assert abs(d.p_value(W.IDENTITY, float(q)) - 1 / (3 * q)) < 1e-14


def test_mass_conservation_and_support():
    for n in (3, 6, 9):
        d = L.exact_distribution(L.simple_walk_spec(), n, 2)
        assert abs(d.total() - 1.0) < 1e-12
        for w, m in d.items():
            assert W.length(w) <= n
            assert m >= 0


def test_rational_matches_float():
    dr = L.exact_distribution_rational(L.simple_walk_spec(), 8, 2)
    df = L.exact_distribution(L.simple_walk_spec(), 8, 2)
    assert sum(dr.values()) == 1
    for w, m in dr.items():
        assert abs(float(m) - df.mass(w)) < 1e-12


def test_rational_cross_check_to_thirty_steps():
    """The double-precision recursion stays within rounding of the exact
    rational masses out to thirty steps (the stated cross-check horizon)."""
    dr = L.exact_distribution_rational(L.simple_walk_spec(), 30, 2)
    df = L.exact_distribution(L.simple_walk_spec(), 30, 2)
    assert sum(dr.values()) == 1
    worst = max(abs(float(m) - df.mass(w)) for w, m in dr.items())
    assert worst < 1e-13


def test_identity_mass_positive_from_two_steps_on():
    dr = L.exact_distribution_rational(L.simple_walk_spec(), 2, 2)
    masses = {2: dr.get(W.IDENTITY, Fraction(0))}
    d = L.exact_distribution(L.simple_walk_spec(), 12, 2,
                             snapshots=list(range(13)))
    for n in range(2, 13):
        assert d[n].mass(W.IDENTITY) > 0
    assert masses[2] == Fraction(1, 6)


@pytest.mark.parametrize("walk, message", [
    ({W.GEN[0]: Fraction(3, 2), W.GEN[1]: Fraction(-1, 2)}, "nonnegative"),
    ({W.GEN[0]: Fraction(1, 2)}, "sum to one"),
    ({}, "sum to one"),
])
def test_invalid_spec_is_refused(walk, message):
    """Every exact route reads the spec through one check."""
    for run in (lambda: L.exact_distribution(walk, 2, 2),
                lambda: L.masses_at(walk, W.IDENTITY, [2], 2),
                lambda: L.exact_distribution_rational(walk, 2, 2)):
        with pytest.raises(ValueError, match=message):
            run()


def test_general_radial_walk_matches_algebra(field2):
    """A non-simple radial walk: n-step masses agree with coefficients of
    the algebra power in the averaging basis."""
    F = field2
    s12 = W.from_word((1, 2))
    walk = {W.GEN[0]: Fraction(1, 2), s12: Fraction(1, 4),
            W.IDENTITY: Fraction(1, 4)}
    # algebra element: sum a_w q_w^(-1/2) T_w
    h = H.t_element(F, [
        (w, F.make(a) * F.half_pow(-W.length(w))) for w, a in walk.items()
    ])
    acc = H.unit(F)
    for n in range(1, 4):
        acc = H.mul(acc, h)
        d = L.exact_distribution(walk, n, 2)
        for w, c in acc.terms.items():
            mass = complex(c * F.half_pow(W.length(w))).real
            assert abs(d.mass(w) - mass) < 1e-12, (n, w)


# {s0: 1/2, s0 s1: 1/2}: its length-2 element moves two letters per step
TWO_LETTER_SPEC = {W.GEN[0]: Fraction(1, 2), W.from_word((0, 1)): Fraction(1, 2)}
# {s0, s1 s2, s2 s0} at 1/3 each: multi-letter words on an infinite support
THREE_WORD_SPEC = {W.GEN[0]: Fraction(1, 3), W.from_word((1, 2)): Fraction(1, 3),
                   W.from_word((2, 0)): Fraction(1, 3)}
# {s1, s2} at 1/2 each: fixed by the swap s1 <-> s2 only
PAIR_SPEC = {W.GEN[1]: Fraction(1, 2), W.GEN[2]: Fraction(1, 2)}
# {s0 s1, s1 s2, s2 s0} at 1/3 each: fixed by the rotations of the generators only
ROTATION_SPEC = {W.from_word(w): Fraction(1, 3) for w in ((0, 1), (1, 2), (2, 0))}


def _plain_recursion(walk, n, q):
    """Reference for exact_distribution: every state recomputed at every
    step with the full walk operator (diag, idx, val) of the horizon ball."""
    horizon = n * max(W.length(w) for w in walk)
    space = L.state_space(max(horizon, 1))
    states = np.arange(len(space.elems))
    words, _, _ = L._read_spec(walk)
    diag, idx, val = L._walk_matrix(space, words, float(q), states, states)
    x = np.zeros(len(space.elems))
    x[space.state(W.IDENTITY)] = 1.0
    out = [x]
    for _ in range(n):
        new = diag * x
        for k in range(len(idx)):
            new += val[k] * x[idx[k]]
        x = new
        out.append(x)
    return out


def test_rational_cross_check_two_letter_walk():
    """A spec with a length-2 element against the Fraction recursion, at a
    non-integer thickness.  Its support is the finite group <s0, s1>."""
    q = Fraction(5, 2)
    dr = L.exact_distribution_rational(TWO_LETTER_SPEC, 12, q)
    df = L.exact_distribution(TWO_LETTER_SPEC, 12, q)
    assert sum(dr.values()) == 1
    assert np.count_nonzero(df.masses) == len(dr)
    worst = max(abs(float(m) - df.mass(w)) for w, m in dr.items())
    assert worst < 1e-13


@pytest.mark.parametrize("walk, n, q", [
    (L.simple_walk_spec(), 0, 2), (L.simple_walk_spec(), 1, 3),
    (L.simple_walk_spec(), 17, Fraction(5, 2)), (L.simple_walk_spec(), 40, 2),
    (TWO_LETTER_SPEC, 9, 3), (TWO_LETTER_SPEC, 20, Fraction(5, 2)),
    (THREE_WORD_SPEC, 12, Fraction(5, 2)), (PAIR_SPEC, 12, 3),
    (ROTATION_SPEC, 9, 2), (ROTATION_SPEC, 20, Fraction(5, 2)),
])
def test_exact_distribution_cone_matches_plain_recursion(walk, n, q):
    """Recomputing only the orbits of length <= k L at step k changes no bit
    of any snapshot of a spec with no symmetry.  With symmetries the walk
    reads one value per orbit where the plain recursion holds ulp-different
    copies, so snapshot k stays within k eps relative of it (see the
    decisions ledger); a wrong orbit map would be off by O(1)."""
    plain = _plain_recursion(walk, n, q)
    snaps = L.exact_distribution(walk, n, q, snapshots=range(n + 1))
    _, _, group = L._read_spec(walk)
    exact = len(group) == 1
    for k in range(n + 1):
        got, want = snaps[k].masses, plain[k]
        if exact:
            assert np.array_equal(got, want), k
        else:
            assert np.all(np.abs(got - want) <= k * np.finfo(float).eps * want), k
    assert np.array_equal(L.exact_distribution(walk, n, q).masses, snaps[n].masses)


@pytest.mark.parametrize("walk, order", [
    (L.simple_walk_spec(), 6), (PAIR_SPEC, 2), (ROTATION_SPEC, 3),
    (TWO_LETTER_SPEC, 1), (THREE_WORD_SPEC, 1),
], ids=["simple", "pair", "rotation", "two-letter", "three-word"])
def test_orbits_match_relabelled_words(walk, order):
    """The orbit of each state is the set of elements whose reduced words
    are its reduced word with the letters permuted by the spec's symmetry
    group; each orbit is numbered by its first state."""
    _, _, group = L._read_spec(walk)
    assert len(group) == order
    space = L.state_space(12)
    reps, orbit = L._orbits(12, group)
    members = {}
    for s, o in enumerate(orbit.tolist()):
        members.setdefault(o, set()).add(s)
    for s in range(len(space.elems)):
        word = W.reduced_word(space.element(s))
        images = {space.state(W.from_word([p[i] for i in word])) for p in group}
        assert members[orbit[s]] == images, space.element(s)
    assert reps.tolist() == [min(members[o]) for o in range(len(members))]
    assert reps.tolist() == sorted(reps.tolist())


@pytest.mark.parametrize("walk", [L.simple_walk_spec(), PAIR_SPEC, ROTATION_SPEC,
                                  THREE_WORD_SPEC],
                         ids=["simple", "pair", "rotation", "three-word"])
def test_walk_matrix_at_representatives_reads_the_full_operator(walk):
    """The operator built at the orbit representatives is the full-ball
    operator (every state its own orbit) read at them, with each slot
    mapped to its orbit, on a ball whose edge rows point outside it."""
    words, _, group = L._read_spec(walk)
    space = L.state_space(7)
    reps, orbit = L._orbits(7, group)
    assert (space.target[reps] < 0).any()
    states = np.arange(len(space.elems))
    diag, idx, val = L._walk_matrix(space, words, 2.5, reps, orbit)
    full_diag, full_idx, full_val = L._walk_matrix(space, words, 2.5, states, states)
    assert idx.dtype == np.intp
    assert np.array_equal(diag, full_diag[reps])
    assert np.array_equal(idx, orbit[full_idx[:, reps]])
    assert np.array_equal(val, full_val[:, reps])


def test_walk_matrix_reads_the_tables_only_where_its_paths_go():
    """The uniform walk's operator on the ball of radius 200 (about a sixth
    of its states are representatives) peaks below one (states, 3) float64
    table: no table over the whole ball is built."""
    space = L.state_space(200)
    words, _, group = L._read_spec(L.simple_walk_spec())
    reps, orbit = L._orbits(200, group)
    tracemalloc.start()
    try:
        L._walk_matrix(space, words, 2.0, reps, orbit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(space.elems) * 3 * 8


def test_orbits_peak_below_32_bytes_per_state():
    """The uniform walk's orbits on a cached ball of radius 200 peak below
    32 bytes per state: no index over the whole ball is built per image."""
    space = L.state_space(200)
    _, _, group = L._read_spec(L.simple_walk_spec())
    tracemalloc.start()
    try:
        L._orbits.__wrapped__(200, group)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(space.elems) * 32


@pytest.mark.parametrize("q", [2, Fraction(5, 2)])
def test_masses_at_is_constant_on_orbits(q):
    """For the uniform walk, masses_at gives the same bits at w and at every
    image of w under a permutation of the generators."""
    spec, ns = L.simple_walk_spec(), [0, 3, 8, 13]
    for w in W.ball(4):
        want = L.masses_at(spec, w, ns, q)
        word = W.reduced_word(w)
        for perm in itertools.permutations(range(3)):
            image = W.from_word([perm[i] for i in word])
            assert L.masses_at(spec, image, ns, q) == want, (w, perm)


@pytest.mark.parametrize("walk", [L.simple_walk_spec(), TWO_LETTER_SPEC,
                                  THREE_WORD_SPEC, PAIR_SPEC, ROTATION_SPEC],
                         ids=["simple", "two-letter", "three-word", "pair",
                              "rotation"])
@pytest.mark.parametrize("q", [2, 3, Fraction(5, 2)])
@pytest.mark.parametrize("word", [(), (2,), (2, 0, 1), (1, 2, 1, 0)])
def test_masses_at_matches_exact_distribution(walk, q, word):
    """The light-cone walk returns the full recursion's masses bit for bit,
    including 0 where l(w) exceeds the reach of n steps."""
    w = W.from_word(word)
    for ns in ([0, 1, 2, 3], [7, 12], [25]):
        got = L.masses_at(walk, w, ns, q)
        want = [L.exact_distribution(walk, n, q).mass(w) for n in ns]
        assert got == want, ns
    if W.length(w) > 3 * max(W.length(v) for v in walk):
        assert L.masses_at(walk, w, [0, 1, 2, 3], q) == [0.0] * 4


@pytest.mark.parametrize("walk, word, ns", [
    (L.simple_walk_spec(), (), [7, 12]),
    (L.simple_walk_spec(), (2, 0, 1), [25, 3]),
    (TWO_LETTER_SPEC, (1, 2, 1, 0), [12]),
])
def test_masses_at_builds_the_light_cone_ball(monkeypatch, walk, word, ns):
    """The ball has radius floor((n L + l(w)) / 2), not the n L of the full
    recursion.  The query runs once first, so the ball and its orbit maps
    are cached and the recorded call is the query's own."""
    w = W.from_word(word)
    L.masses_at(walk, w, ns, 2)
    real, radii = L.state_space, []
    monkeypatch.setattr(L, "state_space", lambda r: radii.append(r) or real(r))
    L.masses_at(walk, w, ns, 2)
    step = max(W.length(v) for v in walk)
    assert radii == [(max(ns) * step + W.length(w)) // 2]
    L.masses_at(walk, W.from_word((0, 1, 2, 0, 1, 2)), [2], 2)  # out of reach
    assert len(radii) == 1


def test_negative_step_counts_rejected():
    spec = L.simple_walk_spec()
    with pytest.raises(ValueError):
        L.exact_distribution(spec, -3, 2)
    with pytest.raises(ValueError):
        L.exact_distribution(spec, 5, 2, snapshots=[-3, 5])
    with pytest.raises(ValueError):
        L.exact_distribution_rational(spec, -1, 2)
    with pytest.raises(ValueError):
        L.mc_simulate(-1, 100, 1, 2)
    with pytest.raises(ValueError):
        L.masses_at(spec, W.IDENTITY, [-3, 5], 2)
    with pytest.raises(ValueError):
        L.masses_at(spec, W.IDENTITY, [], 2)


@pytest.mark.parametrize("q", [1, Fraction(1, 2), 0])
def test_thickness_at_most_one_rejected(q):
    spec = L.simple_walk_spec()
    for run in (lambda: L.exact_distribution(spec, 2, q),
                lambda: L.exact_distribution_rational(spec, 2, q),
                lambda: L.masses_at(spec, W.IDENTITY, [2], q),
                lambda: L.mc_simulate(2, 100, 1, q),
                lambda: P.mass_components(q),
                lambda: P.spectral_return_probabilities(q, [2, 4])):
        with pytest.raises(ValueError, match="thickness q must exceed 1"):
            run()


def test_state_space_cache_is_bounded():
    bound = L.state_space.cache_info().maxsize
    for radius in range(1, bound + 4):
        L.state_space(radius)
    assert L.state_space.cache_info().currsize == bound
    assert L.state_space(bound + 3) is L.state_space(bound + 3)


def test_orbit_cache_is_bounded_and_read_only():
    _, _, group = L._read_spec(L.simple_walk_spec())
    bound = L._orbits.cache_info().maxsize
    for radius in range(1, bound + 4):
        L._orbits(radius, group)
    assert L._orbits.cache_info().currsize == bound
    reps, orbit = L._orbits(bound + 3, group)
    assert L._orbits(bound + 3, group)[1] is orbit
    for table in (reps, orbit):
        with pytest.raises(ValueError):
            table[0] = 0


def test_state_space_refuses_an_oversized_box():
    """Radius 10000 would need a box of 2.7e8 entries (about 5 GB at 19
    bytes per entry): it raises before allocating anything."""
    with pytest.raises(ValueError, match="radius 10000 needs a lattice box of 267013446"):
        L.state_space(10_000)


def test_state_space_refuses_a_negative_radius():
    """A negative radius raises before anything is allocated, instead of a
    one-state ball whose row is uninitialized memory."""
    with pytest.raises(ValueError, match="ball radius must be >= 0, got -1"):
        L.state_space.__wrapped__(-1)


def test_state_space_tables_are_compact():
    """The ball of radius 400 is built by one stable sort of int32 box
    indices on their int16 lengths, with its target gathers in blocks: its
    build peaks below 32 bytes per lattice-box entry and the finished ball
    holds below 20 (int64 tables took 59.5 and 40.2).  Rows and lengths are
    int16, state indices int32."""
    b = 400 // 3 + 2
    entries = (2 * b + 1) ** 2 * 6
    tracemalloc.start()
    try:
        space = L.state_space.__wrapped__(400)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * entries, peak / entries
    assert held < 20 * entries, held / entries
    assert space.elems.dtype == space.lengths.dtype == np.int16
    assert space.pos.dtype == space.target.dtype == np.int32


@pytest.mark.parametrize("radius", [40, 200])
def test_state_space_is_a_prefix_of_the_next_ball(radius):
    """The ball of radius r is the length-<= r prefix of the ball of radius
    r + 1: same elements, lengths and ascents, and the same targets once a
    target past the prefix reads as -1.  This checks the length-only state
    order and the ascents read from the target table beyond the BFS
    oracle's radius."""
    small, big = L.state_space(radius), L.state_space(radius + 1)
    cut = len(small.elems)
    assert big.lengths[cut - 1] == radius < big.lengths[cut]
    assert np.array_equal(small.elems, big.elems[:cut])
    assert np.array_equal(small.lengths, big.lengths[:cut])
    assert np.array_equal(small.ascent, big.ascent[:cut])
    target = big.target[:cut]
    assert np.array_equal(small.target, np.where(target < cut, target, -1))


def test_lookups_outside_the_ball():
    """Elements one step beyond the radius, far outside the lookup box, and
    one box width below a supported element (where a negative index would
    wrap around onto it) carry no mass."""
    d = L.exact_distribution(L.simple_walk_spec(), 3, 2)
    emp = L.mc_simulate(3, 1000, 5, 2)
    beyond = W.from_word((0, 1, 2, 0))
    far = [W.translation((-10 ** 6, 0)), W.translation((10 ** 6, 0)),
           W.AffineElement((0, -10 ** 6), 3)]
    assert W.length(beyond) == d.space.radius + 1
    for dist in (d, emp):
        width = 2 * dist.space.box + 1
        aliases = [W.AffineElement((w.mu[0] - width, w.mu[1]), w.u)
                   for w, _ in dist.items()]
        for w in [*aliases, beyond, *far]:
            assert dist.mass(w) == 0.0
            assert dist.p_value(w, 2.0) == 0.0


def test_walk_spec_validation():
    for run in (L.exact_distribution,
                lambda walk, n, q: L.masses_at(walk, W.IDENTITY, [n], q)):
        with pytest.raises(ValueError):
            run({W.GEN[0]: Fraction(1, 2)}, 1, 2)
        with pytest.raises(ValueError):
            run({W.GEN[0]: Fraction(3, 2), W.GEN[1]: Fraction(-1, 2)}, 1, 2)


def test_mc_deterministic_and_zero_steps():
    a = L.mc_simulate(3, 5000, 42, 2)
    b = L.mc_simulate(3, 5000, 42, 2)
    assert np.array_equal(a.masses, b.masses)
    c = L.mc_simulate(3, 5000, 43, 2)
    assert not np.array_equal(a.masses, c.masses)
    z = L.mc_simulate(0, 100, 1, 2)
    assert z.mass(W.IDENTITY) == 1.0


def _digit_mc(n, trials, seed, q):
    """Counts per state of an independent sampler that moves every trial:
    each step draws one digit d on [0, 3a) per trial, q = a/b.  Digit d
    picks wall type d mod 3 and moves on an ascent or when d div 3 < b, so
    the acceptance is exactly 1/q."""
    q = Fraction(q)
    w, b = 3 * q.numerator, q.denominator
    space = L.state_space(max(n, 1))
    rng = np.random.Generator(np.random.Philox(key=seed))
    state = np.full(trials, space.state(W.IDENTITY))
    for _ in range(n):
        d = rng.integers(0, w, size=trials)
        pick = d % 3
        move = space.ascent[state, pick] | (d // 3 < b)
        state = np.where(move, space.target[state, pick], state)
    return np.bincount(state, minlength=len(space.elems))


def _split_mc(n, trials, seed, q):
    """Reference for the stream of mc_simulate: one rng.multinomial(count,
    row) per live state, in state order, with the row of (stay, wall 0,
    wall 1, wall 2) written out wall by wall."""
    accept = float(1 / Fraction(q))
    space = L.state_space(max(n, 1))
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = np.zeros(len(space.elems), dtype=np.int64)
    counts[space.state(W.IDENTITY)] = trials
    for _ in range(n):
        new = np.zeros_like(counts)
        for s in np.flatnonzero(counts):
            row = [0.0]
            for up in space.ascent[s]:
                row[0] += 0.0 if up else (1 - accept) / 3
                row.append(1 / 3 if up else accept / 3)
            draw = rng.multinomial(counts[s], row)
            new[s] += draw[0]
            for i in range(3):
                new[space.target[s, i]] += draw[i + 1]
        counts = new
    return counts / trials


@pytest.mark.parametrize("n, trials, seed, q", [
    (0, 5, 1, 2), (1, 1, 3, 2), (17, 30001, 5, Fraction(5, 2)),
    (40, 20000, 8, 3), (12, 5000, 2, Fraction(3, 2)), (25, 4000, 9, 9),
    (11, 100000, 4, 2), (11, 100000, 6, Fraction(5, 2)),
    (11, 100000, 7, Fraction(3, 2)),
    (11, 65535, 10, 2), (11, 65536, 11, Fraction(5, 2)),
    (11, 65537, 12, Fraction(3, 2)),
    # every reachable state is live
    (12, 10 ** 12, 13, 2), (9, 2 ** 53 - 1, 14, 2.1),
])
def test_mc_stream_is_pinned(n, trials, seed, q):
    """One multinomial draw over the live states reproduces one draw per
    live state bit for bit."""
    emp = L.mc_simulate(n, trials, seed, q)
    assert np.array_equal(emp.masses, _split_mc(n, trials, seed, q))


def _spy_generator(monkeypatch, fail_at=None):
    """Replace np.random.Generator by a wrapper that records the shapes of
    the (counts, rows) of every multinomial draw and raises on draw number
    ``fail_at``."""
    real = np.random.Generator
    shapes = []

    class Spy:
        def __init__(self, bits):
            self.rng = real(bits)

        def multinomial(self, counts, rows):
            shapes.append((np.shape(counts), np.shape(rows)))
            if len(shapes) == fail_at:
                raise RuntimeError("draw failed")
            return self.rng.multinomial(counts, rows)

    monkeypatch.setattr(np.random, "Generator", Spy)
    return shapes


def test_mc_leaves_no_thread_behind():
    before = threading.active_count()
    L.mc_simulate(11, 100000, 4, 2)
    assert threading.active_count() == before


def test_mc_draw_error_reaches_the_caller(monkeypatch):
    """An exception in a draw, here the second step's, is raised by
    mc_simulate, and no thread is left behind."""
    _spy_generator(monkeypatch, fail_at=2)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="draw failed"):
        L.mc_simulate(11, 100000, 4, 2)
    assert threading.active_count() == before


@pytest.mark.parametrize("n, trials, q", [
    (11, 100000, 2), (11, 100000, Fraction(5, 2)), (11, 100000, Fraction(3, 2)),
    (10, 10 ** 6, 2), (40, 2 * 10 ** 6, 2), (6, 10 ** 6, 9),
])
def test_mc_tables_reachable_entries_inside_the_ball(n, trials, q, monkeypatch):
    """The states live before step k + 1 have length <= k <= n - 1, so every
    target they scatter to lies inside the ball; the rows of length n, which
    no live state reaches, do hold -1."""
    space = L.state_space(n)
    real = np.flatnonzero
    lives = []
    monkeypatch.setattr(np, "flatnonzero",
                        lambda a: lives.append(real(a)) or lives[-1])
    emp = L.mc_simulate(n, trials, 0, q)
    monkeypatch.undo()
    assert len(lives) == n
    for k, live in enumerate(lives):
        assert space.lengths[live].max() <= k, k
        assert not (space.target[live] < 0).any(), k
    assert (space.target[space.lengths == n] < 0).any()
    assert np.rint(emp.masses * trials).sum() == trials


@pytest.mark.parametrize("n, trials, q", [
    (0, 5, 2), (1, 1, 2), (11, 100000, 2), (11, 100000, Fraction(5, 2)),
    (40, 2 * 10 ** 6, 2), (8, 10 ** 9, 2), (3, 10 ** 9, 2), (5, 10 ** 9, 9),
])
def test_mc_table_is_no_larger_than_the_trials(n, trials, q, monkeypatch):
    """Each step draws one table of four outcomes per live state, so it has
    no more rows than there are trials or states in the ball; n = 0 draws
    nothing."""
    states = len(L.state_space(max(n, 1)).elems)
    shapes = _spy_generator(monkeypatch)
    L.mc_simulate(n, trials, 0, q)
    assert len(shapes) == n
    for counts, rows in shapes:
        assert rows == counts + (4,)
        assert counts[0] <= min(trials, states)


@pytest.mark.parametrize("q", [2, Fraction(5, 2), Fraction(3, 2), 9])
def test_mc_agrees_with_a_per_trajectory_sampler(q):
    """The count-splitting sample and the digit sampler, on their own seeds,
    agree at every state within 5 sigma of their difference."""
    n, trials = 10, 200_000
    split = L.mc_simulate(n, trials, 21, q).masses * trials
    digit = _digit_mc(n, trials, 22, q)
    pooled = (split + digit) / (2 * trials)
    sigma = np.sqrt(pooled * (1 - pooled) * 2 / trials)
    assert (np.abs(split - digit) / trials <= 5 * sigma).all()


@pytest.mark.parametrize("q", [2, Fraction(3, 2)])
def test_mc_support_lies_inside_the_exact_support(q):
    """At 10^12 trials every reachable state is live, and no state the
    exact walk leaves at an exact 0 gets mass."""
    for n in range(13):
        exact = L.exact_distribution(L.simple_walk_spec(), n, q).masses
        emp = L.mc_simulate(n, 10 ** 12, 30 + n, q).masses
        assert emp.shape == exact.shape
        assert not emp[exact == 0].any(), n


def test_mc_memory_does_not_grow_with_the_trials():
    """The peak is set by the ball, not by the trials: after one call that
    builds the ball and numpy's lazy state, 10^3 and 10^12 trials peak
    within a factor 1.5 of each other and below 400 bytes per state."""
    states = len(L.state_space(10).elems)
    L.mc_simulate(10, 10, 0, 2)
    peaks = []
    for trials in (10 ** 3, 10 ** 12):
        tracemalloc.start()
        try:
            L.mc_simulate(10, trials, 0, 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0] and max(peaks) < 400 * states, peaks


def test_mc_trials_domain():
    """1 <= trials < 2^53, since numpy draws each binomial in doubles.  The
    int64 counts sum to the trials exactly, here at 10^15."""
    for bad in (0, 2 ** 53):
        with pytest.raises(ValueError, match="trials"):
            L.mc_simulate(3, bad, 0, 2)
    trials = 10 ** 15
    emp = L.mc_simulate(12, trials, 0, 2)
    counts = np.rint(emp.masses * trials).astype(np.int64)
    assert np.array_equal(counts / trials, emp.masses)
    assert counts.sum() == trials


def test_mc_takes_any_thickness():
    """q > 1 is the only limit on q: the float 2.1, which is
    4728779608739021/2^51, and 21846/5 agree with the exact distribution at
    every state within 5 sigma."""
    n, trials = 6, 10 ** 6
    for q in (2.1, Fraction(21846, 5)):
        exact = L.exact_distribution(L.simple_walk_spec(), n, q).masses
        emp = L.mc_simulate(n, trials, 3, q).masses
        sigma = np.sqrt(exact * (1 - exact) / trials)
        assert (np.abs(emp - exact) <= 5 * sigma).all(), q


def test_mc_one_step_matches_kernel():
    trials = 200000
    emp = L.mc_simulate(1, trials, 7, 2)
    d = L.exact_distribution(L.simple_walk_spec(), 1, 2)
    for w, m in d.items():
        sigma = (float(m) * (1 - float(m)) / trials) ** 0.5
        assert abs(emp.mass(w) - float(m)) < 4 * sigma


def test_mc_two_step_return():
    trials = 400000
    emp = L.mc_simulate(2, trials, 11, 2)
    p = 1 / 6
    sigma = (p * (1 - p) / trials) ** 0.5
    assert abs(emp.mass(W.IDENTITY) - p) < 4 * sigma


# ---------------------------------------------------------------------------
# Spectral data.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
def test_closed_forms_match_eigensolver(q):
    sd = L.spectral_data(q)
    vals = L.eigen_surface((0.0, 0.0), q)
    assert np.abs(np.array(sd.eigenvalues) - vals).max() < 1e-12
    mu = L.induced_eigen_curve(0.0, q)
    expect = np.array([sd.induced_eigenvalues[0], sd.induced_eigenvalues[0],
                       sd.induced_eigenvalues[1]])
    assert np.abs(np.sort(mu) - np.sort(expect)).max() < 1e-12


@pytest.mark.parametrize("eigenvalues, angle", [
    (L.eigen_surface, (0.3 + 0.1j, 0.0)),
    (L.induced_eigen_curve, 0.2j),
])
def test_eigenvalues_refuse_an_angle_off_the_unit_torus(eigenvalues, angle):
    """Off the unit torus the walk operator is not Hermitian and eigvalsh
    would return wrong values: that raises a ValueError, which python -O
    keeps where it strips an assert."""
    with pytest.raises(ValueError, match="off the unit torus"):
        eigenvalues(angle, 2.0)


def test_eigenvalue_ordering():
    for q in (2.0, 3.0, 7.0):
        lam = L.spectral_data(q).eigenvalues
        assert 1 > lam[0] > lam[1] == lam[2] > lam[3] == lam[4] > lam[5]
        # positivity of the bottom eigenvalue holds only for large thickness
        if q >= 7:
            assert lam[5] > 0


def test_top_eigenvector_form():
    for q in (2.0, 3.0):
        sd = L.spectral_data(q)
        rep = R.principal_series(q, (1.0, 1.0))
        m = R.p_matrix(rep)
        vals, vecs = np.linalg.eigh(m)
        top = np.real(vecs[:, -1])
        top = top / top[1]
        a = sd.top_vector_entry
        assert np.abs(top - np.array([a, 1, 1, a, a, 1])).max() < 1e-10
        assert (sd.top_vector > 0).all()  # strictly positive top eigenvector
        # bottom eigenvector carries the companion constant with flipped sign
        bot = np.real(vecs[:, 0])
        bot = bot / bot[1]
        b = sd.bottom_vector_entry
        assert np.abs(bot - np.array([-b, 1, 1, -b, -b, 1])).max() < 1e-10


def test_spectral_radius_value():
    sd = L.spectral_data(2.0)
    assert abs(sd.spectral_radius - (3 + 73 ** 0.5) / 12) < 1e-15
    assert abs(L.spectral_data(2.0).eigenvalues[1] - 1 / 3) < 1e-15


def test_beta_by_finite_differences():
    for q in (2.0, 3.0):
        sd = L.spectral_data(q)
        h = 1e-3
        l0 = L.eigen_surface((0.0, 0.0), q)[0]
        vals = {}
        for d1, d2, hf in (((1, 0), None, 1.0), ((0, 1), None, 1.0),
                           ((1, 1), None, 3.0)):
            lam = L.eigen_surface((h * d1[0], h * d1[1]), q)[0]
            beta_fd = (l0 - lam) / (l0 * hf * h * h)
            assert abs(beta_fd / sd.beta - 1) < 1e-3


def test_c_w_values():
    assert abs(L.c_w_value(W.IDENTITY, 2) - 1.0) < 1e-14
    for w in W.ball(4):
        v = L.c_w_value(w, 2)
        assert v > 0
        assert abs(v - L.c_w_value(W.inverse(w), 2)) < 1e-12


def test_llt_estimate_shape():
    with pytest.raises(ValueError):
        L.llt_estimate(W.IDENTITY, 0, 2)
    for w in list(W.ball(2)):
        e = L.llt_estimate(w, 50, 2)
        assert e > 0
        ratio = e / L.llt_estimate(W.IDENTITY, 50, 2)
        assert abs(ratio - L.c_w_value(w, 2)) < 1e-12


@pytest.mark.parametrize("q, n", [(2, 400), (3, 200)])
def test_llt_estimate_normalization_is_length_free(q, n):
    """r(w) = p_n(w) / llt_estimate(w, n) is within 10% of r(e) for one word
    of each length up to 3: a normalization off by q^(2 l(w)) reads
    q^(-2 l(w)) here.  See the decisions ledger, "Corrected normalizations"."""
    spec = L.simple_walk_spec()

    def r(word):
        w = W.from_word(word)
        [mass] = L.masses_at(spec, w, [n], q)
        return mass / float(q) ** W.length(w) / L.llt_estimate(w, n, q)

    r_e = r(())
    for word in [(2,), (2, 0), (2, 0, 2)]:
        assert 0.9 <= r(word) / r_e <= 1.1, word


@pytest.mark.parametrize("n", [18000, 19000, 25600])
def test_underflow_raises(n):
    """Past n ~ 18,000 at q = 2 both routes would return a subnormal or 0."""
    with pytest.raises(ValueError, match=f"n={n}, q=2.0"):
        L.llt_estimate(W.IDENTITY, n, 2)
    with pytest.raises(ValueError, match=f"n={n}, q=2.0"):
        P.spectral_return_probabilities(2.0, [n], 128)


def test_no_underflow_error_short_of_it():
    tiny = np.finfo(float).tiny
    assert L.llt_estimate(W.IDENTITY, 17000, 2) > tiny
    assert P.spectral_return_probabilities(2.0, [17000], 128)[0] > tiny
    # p_1(e) = 0 exactly; the grid returns rounding noise of either sign,
    # and n = 1 is exempt from the underflow error.  A negative value shows
    # that the exemption, not a positive accident, lets the call through.
    p1 = [P.spectral_return_probabilities(q, [1], n_grid)[0]
          for q, n_grid in ((3.0, 256), (2.0, 256), (3.0, 64))]
    assert max(abs(p) for p in p1) <= 1e-15
    assert min(p1) < 0


def test_llt_ratio_trend():
    snaps = L.exact_distribution(L.simple_walk_spec(), 200, 2,
                                 snapshots=[50, 100, 200])
    ratios = []
    for n in (50, 100, 200):
        p = snaps[n].p_value(W.IDENTITY, 2.0)
        ratios.append(p / L.llt_estimate(W.IDENTITY, n, 2))
    assert ratios[0] < ratios[1] < ratios[2] < 1.0


def test_surface_bounds_small_grid():
    q = 2.0
    lam1 = L.spectral_data(q).spectral_radius
    thetas = np.linspace(-np.pi, np.pi, 14, endpoint=False)
    for t1 in thetas:
        for t2 in thetas:
            vals = L.eigen_surface((t1, t2), q)
            assert np.abs(vals).max() <= lam1 + 1e-12
            if (t1, t2) != (0.0, 0.0):
                assert np.abs(vals).max() < lam1


def test_induced_curve_bounds():
    for q in (2.0, 3.0):
        lam1 = L.spectral_data(q).spectral_radius
        for phi in np.linspace(-np.pi, np.pi, 50):
            assert np.abs(L.induced_eigen_curve(phi, q)).max() < lam1


def test_atom_below_spectral_radius():
    for q in (2.0, 3.0, 4.0):
        assert q ** -1.5 < L.spectral_data(q).spectral_radius


def test_perturbation_eigenvalues():
    q = 2.0
    rep0 = R.principal_series(q, (1.0, 1.0))
    for th in ((0.3, -0.8), (1.1, 0.2)):
        rep = R.principal_series(q, (np.exp(1j * th[0]), np.exp(1j * th[1])))
        diff = R.p_matrix(rep) - R.p_matrix(rep0)
        vals = np.sort(np.linalg.eigvalsh(diff))[::-1]
        expect = L.perturbation_eigenvalues(th, q)
        assert np.abs(vals - expect).max() < 1e-12
        # two-sided eigenvalue bounds for the Hermitian sum
        lam = L.eigen_surface(th, q)
        base = L.spectral_data(q).eigenvalues
        assert lam.max() <= base[0] + expect[0] + 1e-12
        assert lam.min() >= base[5] + expect[-1] - 1e-12


def test_nonnegative_fourier_structure(field2):
    """Every matrix entry of the gallery-basis module at torus points is a
    nonnegative combination of character monomials, so characters of
    nonnegative averaging combinations peak at the trivial character."""
    F = field2
    h_elems = [(W.GEN[0], Fraction(1, 2)), (W.from_word((1, 2)), Fraction(1, 2))]
    for w, _ in h_elems:
        for u in range(6):
            for v in range(6):
                for _, c in WK.matrix_element_monomials(w, u, v, F):
                    assert complex(c).real >= 0 and complex(c).imag == 0
    chi1 = sum(
        float(a) * 2.0 ** (-W.length(w) / 2)
        * np.trace(WK.walk_matrix(W.inverse(w), (1.0, 1.0), F)).real
        for w, a in h_elems
    )
    rng = random.Random(41)
    for _ in range(25):
        th = (rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
        t = (np.exp(1j * th[0]), np.exp(1j * th[1]))
        chi = sum(
            float(a) * 2.0 ** (-W.length(w) / 2)
            * np.trace(WK.walk_matrix(W.inverse(w), t, F))
            for w, a in h_elems
        )
        assert abs(chi) <= chi1 + 1e-12


def test_determinant_identity_normalized():
    """(3 sqrt(q))^6 det(pi_theta(P) - lam1 I) is exactly the q-independent
    trig polynomial 150 - 48 (first cosine shell) - 2 (second shell); the
    source display carries the prefactor to the first power only.  The
    polynomial vanishes exactly on the period lattice (150 - 144 - 6 = 0),
    which is the strict-inequality input the bound tests rely on."""
    for q in (2.0, 3.0):
        coef, resid = L.determinant_probe(q)
        assert resid < 1e-10
        assert np.abs(coef - np.array([150.0, -48.0, -2.0])).max() < 1e-9
    assert 150 - 48 * 3 - 2 * 3 == 0
