"""n-step distributions of radial chamber walks, Monte Carlo simulation,
closed-form spectral data of the uniform nearest-neighbour walk, and the
n^-4 local limit estimate.

The exact n-step distribution follows the averaging-operator recursion: a
step from w splits uniformly over the three wall types; an ascent moves to
ws_i, a descent moves there with probability 1/q and stays otherwise.  The
Monte Carlo chain samples the same kernel, so the two are independent only
in implementation: a deterministic gather recursion against a sample of the
per-state counts of the trajectories, split at each step by one multinomial
draw per live state; it reads only the ball's target and ascent tables.
The spectral route goes through the trace decomposition instead.

The chain lives on a ball of the affine Weyl group, built from arrays: the
closed-form length over a lattice box of (m, n, u) for w = t_(m,n) u, whose
flat (m, n, u) order a stable sort on length alone turns into the state
order (length, m, n, u); a dense (m, n, u) -> state lookup for the targets
of the three generators; and the ascents, read from the targets (a target
outside the ball has length radius + 1), checked against the BFS weyl.ball.

One step of the walk is a few gathers: ``_walk_matrix`` pulls each state
back through the words of the walk, and a step sums the weighted masses of
the states each one pulls from.  States are ordered by length, so the
states of length <= b are a prefix of those arrays, and a step that
recomputes only them works on slices.  One function, ``_light_cone``, serves
``exact_distribution`` and ``masses_at``: step k recomputes only the light
cone of a target, the states reachable in k steps from which the target is
still reachable in the steps left; the whole distribution is the cone of a
target at distance n L.  Every term a step drops or reads stale is an exact
0 or multiplies one, so both return the bits of the full recursion on the
quotient described next.

The walk is stepped on orbits, not on states.  A permutation of the three
generators extends to an automorphism of W (a diagram automorphism of the
triangle), and it maps the walk to itself when it maps the spec to itself.
The group H of those permutations (``_read_spec``) fixes the distribution
from e, which is therefore constant on H-orbits, so each step recomputes
one row per orbit, at its first state (``_orbits``), and reads one value
per orbit.  The uniform walk has |H| = 6 and steps about a sixth of the
ball.  A spec with trivial H has one state per orbit, and its masses are
the bits of the plain recursion.  With nontrivial H they move within
rounding of it: the plain recursion computes the members of an orbit by
different sums and gets ulp-different copies, where the quotient reads one.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import hecke, reps, weyl
from .weyl import IDENTITY, AffineElement

__all__ = [
    "StateSpace", "state_space", "WalkDistribution",
    "simple_walk_spec", "exact_distribution", "exact_distribution_rational",
    "masses_at", "mc_simulate",
    "SpectralData", "spectral_data", "c_w_value", "llt_estimate",
    "eigen_surface", "induced_eigen_curve", "determinant_probe",
]


# ---------------------------------------------------------------------------
# State space and transition structure.
# ---------------------------------------------------------------------------


@dataclass
class StateSpace:
    """Ball of the Cayley graph with integer-indexed transition tables.

    States are numbered in the order (length, m, n, u) of w = t_(m,n) u, so
    the identity is state 0.  ``elems[s]`` is the row (m, n, u) of state s
    and ``pos[m + box, n + box, u]`` is the state of t_(m,n) u, or -1 outside
    the ball.  The lattice box |m|, |n| <= box holds the ball and every
    one-step neighbour of it, since length >= 3 max(|m|, |n|) - 3.  Rows
    and lengths are int16, states int32 (see ``state_space``).
    """

    radius: int
    box: int
    elems: np.ndarray    # elems[s] = (m, n, u), int16
    pos: np.ndarray      # pos[m + box, n + box, u] = state, -1 if outside, int32
    lengths: np.ndarray  # int16
    target: np.ndarray   # target[s, i] = state of elems[s] * s_i, -1 if outside, int32
    ascent: np.ndarray   # ascent[s, i] = length goes up

    def state(self, w: AffineElement) -> int:
        """State of w, -1 if w lies outside the ball."""
        m, n = w.mu
        b = self.box
        # a negative index would silently wrap around in pos
        if abs(m) > b or abs(n) > b:
            return -1
        return int(self.pos[m + b, n + b, w.u])

    def element(self, s: int) -> AffineElement:
        m, n, u = self.elems[s].tolist()
        return AffineElement((m, n), u)


# the largest lattice box state_space builds: at 19 bytes per entry (traced at
# radius 400 to 2501) its build peaks near 0.32 GB; the largest radius is 2501
_MAX_BOX_ENTRIES = 2 ** 24
# rows per block of the target gathers and the orbit labels
_BLOCK = 1 << 14


@functools.lru_cache(maxsize=2)
def state_space(radius: int) -> StateSpace:
    """The ball of the given radius, cached for the two latest radii.  Raises
    ValueError before any allocation if the radius is negative or its box
    exceeds _MAX_BOX_ENTRIES.

    Lengths and rows are int16 (|m|, |n| <= b <= 835 and lengths <= 6b + 2
    in the largest box), state and box indices int32 (< 2^24).  The state
    order is one stable sort of the int16 lengths inside the ball, which
    keeps the box's (m, n, u) order within each length.  The sort's int64
    temporaries span the ball but not the peak of the build: that comes
    later, from the target gathers, which run in blocks of _BLOCK states
    (traced: 22.0, 19.2, 19.1 and 19.2 bytes per box entry at radius 200,
    800, 1600 and 2501)."""
    if radius < 0:
        raise ValueError(f"ball radius must be >= 0, got {radius}")
    b = radius // 3 + 2
    side = 2 * b + 1
    entries = side ** 2 * 6
    if entries > _MAX_BOX_ENTRIES:
        raise ValueError(f"radius {radius} needs a lattice box of {entries} entries, "
                         f"above the limit of {_MAX_BOX_ENTRIES}")
    axis = np.arange(-b, b + 1, dtype=np.int16)
    grid = np.meshgrid(axis, axis, np.arange(6, dtype=np.int16), indexing="ij", sparse=True)
    flat = weyl.length_array(*grid).ravel()
    keep = np.flatnonzero(flat <= radius).astype(np.int32)
    keep = keep[np.argsort(flat[keep], kind="stable")]
    lengths = flat[keep]
    del flat
    pos = np.full((side, side, 6), -1, dtype=np.int32)
    pos.ravel()[keep] = np.arange(len(keep), dtype=np.int32)
    # keep = ((m + b) side + n + b) 6 + u, split one column at a time
    elems = np.empty((len(keep), 3), dtype=np.int16)
    mn, elems[:, 2] = np.divmod(keep, 6)
    elems[:, 0], elems[:, 1] = np.divmod(mn, side)
    del mn
    elems[:, :2] -= b
    # w s_i moves the box index of w by a step that depends on (u, i) alone
    steps = [np.array([(w.mu[0] * side + w.mu[1]) * 6 + w.u - u for u, w in enumerate(
        weyl.right_mul_gen(weyl.finite(u), i) for u in range(6))]) for i in range(3)]
    target = np.empty((len(keep), 3), dtype=np.int32)
    ascent = np.empty((len(keep), 3), dtype=bool)
    for lo in range(0, len(keep), _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        for i, step in enumerate(steps):
            t = target[rows, i] = pos.ravel()[keep[rows] + step[elems[rows, 2]]]
            # a neighbour outside the ball has length radius + 1: an ascent
            ascent[rows, i] = (t < 0) | (lengths[t] > lengths[rows])
    return StateSpace(radius, b, elems, pos, lengths, target, ascent)


@dataclass
class WalkDistribution:
    """Sparse mass assignment after n steps of a radial walk."""

    n: int
    space: StateSpace
    masses: np.ndarray

    def mass(self, w: AffineElement) -> float:
        s = self.space.state(w)
        return 0.0 if s < 0 else float(self.masses[s])

    def p_value(self, w: AffineElement, q: float) -> float:
        """Transition probability to a fixed chamber at relative position w:
        the basis mass divided by the sphere size q^length."""
        s = self.space.state(w)
        if s < 0:
            return 0.0
        return float(self.masses[s]) / q ** int(self.space.lengths[s])

    def items(self):
        """(element, mass) over the support, in state order."""
        for s in np.flatnonzero(self.masses):
            yield self.space.element(s), self.masses[s]

    def total(self) -> float:
        return float(np.sum(self.masses))


def simple_walk_spec():
    """The uniform nearest-neighbour walk as basis-coefficient map."""
    return {weyl.GEN[i]: Fraction(1, 3) for i in range(3)}


def _read_spec(walk: dict) -> tuple:
    """(words, L, H) of a walk spec, after checking that its coefficients
    are nonnegative and sum to one.  words lists the (reduced word,
    Fraction coefficient) of each element in spec order, L is the length of
    the longest element, and H is the group of permutations of the
    generators (s0, s1, s2) whose automorphisms s_i -> s_perm[i] map the
    spec to itself, as a tuple of permutations with the identity first."""
    spec = {w: Fraction(a) for w, a in walk.items()}
    if any(a < 0 for a in spec.values()):
        raise ValueError("radial walk coefficients must be nonnegative")
    if sum(spec.values()) != 1:
        raise ValueError("radial walk coefficients must sum to one")
    words = [(weyl.reduced_word(w), a) for w, a in spec.items()]
    group = tuple(
        perm for perm in itertools.permutations(range(3))
        if {weyl.from_word([perm[i] for i in word]): a for word, a in words} == spec)
    return words, max(len(word) for word, _ in words), group


def _check_steps(n: int):
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")


def _walk_matrix(space: StateSpace, words, q: float, reps, orbit):
    """The walk operator P on orbits in gather form (diag, idx, val):

        (P x)[o] = diag[o] x[o] + sum_k val[k, o] x[idx[k, o]],

    with x[o] the mass of each state of orbit o; orbit[s] is the orbit of
    state s and reps[o] the first state of orbit o.  words are the
    (reduced word, coefficient) pairs of ``_read_spec``.  Row o is the row
    of t = reps[o], pulled back through each word, last letter first.  Under
    wall type i, t receives the mass of t s_i with weight 1 if that move is
    an ascent (l(t s_i) < l(t)) and 1/q otherwise, and keeps 1 - 1/q of its
    own mass if t s_i is shorter.  A word of length l gives 2^l paths: the
    one that stays at every letter adds to diag, each other one is a slot k,
    which reads the orbit (intp) of the state it ends at.  The paths read
    target and ascent only at the states they visit; one that leaves the
    ball has weight 0 and a placeholder index.  Slot order is radius-free."""
    diag = np.zeros(len(reps))
    idx, val = [], []
    for word, a in words:
        paths = [(reps, 1.0)]
        for i in reversed(word):
            nxt = []
            for s, v in paths:
                t, up = space.target[s, i], space.ascent[s, i]
                nxt += [(s, v * np.where(up, 0.0, 1.0 - 1.0 / q)),
                        (np.where(t >= 0, t, s), v * (np.where(up, 1.0 / q, 1.0) * (t >= 0)))]
            paths = nxt
        (_, stay), *rest = paths
        diag += float(a) * stay
        for s, v in rest:
            idx.append(orbit[s])
            val.append(float(a) * v)
    return diag, np.array(idx, dtype=np.intp), np.array(val)


@functools.lru_cache(maxsize=2)
def _orbits(radius: int, group) -> tuple:
    """(reps, orbit) of the ball of the given radius under a group of
    generator permutations, cached for the two latest (radius, group) pairs
    like the ball itself; both arrays are read-only.

    reps[o] is the first state of orbit o in state order, so reps is
    increasing and, as automorphisms preserve length, the orbits are ordered
    by length too; orbit[s] is the orbit of state s.  Both are int32, like
    the ball's state indices.  Each state is labelled with the least state
    among its images under the group (the identity first).  The flat pos
    index of the image of t_(m,n) u is m alpha + n beta + gamma[u]
    (``weyl.automorphism``), so one gather per block of states reads their
    images."""
    space = state_space(radius)
    stride = np.array([6 * (2 * space.box + 1), 6, 1])  # pos strides of (m + box, n + box, u)
    maps = []
    for perm in group[1:]:
        alpha, beta, *gamma = weyl.automorphism(perm) @ stride
        maps.append((alpha, beta, np.add(gamma, space.box * (stride[0] + stride[1]))))
    label = np.arange(len(space.elems), dtype=np.int32)
    for lo in range(0, len(label), _BLOCK):  # blocks whose indices stay in cache
        block = slice(lo, lo + _BLOCK)
        m, n, u = space.elems[block].astype(np.intp).T  # the int16 rows, widened once
        for alpha, beta, gamma in maps:
            at = gamma[u] + m * alpha + n * beta
            np.minimum(label[block], space.pos.take(at), out=label[block])
    first = label == np.arange(len(label), dtype=np.int32)
    orbit = (np.cumsum(first, dtype=np.int32) - 1)[label]
    reps = np.flatnonzero(first).astype(np.int32)
    for table in (reps, orbit):
        table.setflags(write=False)
    return reps, orbit


def _propagate(lengths, op, bounds):
    """Masses per orbit after 0, 1, 2, ... steps from the identity (state 0
    and orbit 0), yielded as one array updated in place.  Step k recomputes
    only the orbits of length <= bounds[k - 1], a row prefix of the operator
    since orbits are ordered by length; every other entry keeps its
    value."""
    diag, idx, val = op
    x = np.zeros(len(lengths))
    x[0] = 1.0
    yield x
    for r in np.searchsorted(lengths, bounds, side="right"):
        acc = diag[:r] * x[:r]
        for k in range(len(idx)):
            acc += val[k, :r] * x.take(idx[k, :r])
        x[:r] = acc
        yield x


def _light_cone(walk: dict, n: int, q, w=None):
    """(space, orbit, masses) of the light cone of w after n steps of a walk
    spec: the ball, the orbit of each of its states under the spec's group
    H, and the ``_propagate`` generator of the per-orbit masses after 0, 1,
    ..., n steps.  None if l(w) > n L, L the length of the longest element
    of the spec.

    The ball has radius R = floor((n L + max(l(w), 4)) / 2): a generator
    path from e to w of n L letters that leaves the radius (n L + l(w)) / 2
    would need more than n L letters to come back, and a larger ball holds
    the same cone.  Taking l(w) at least 4 gives every target of length <= 4
    one ball per step count, which ``state_space`` caches.  Step k
    recomputes only the orbits of length <= min(k L, l(w) + (n - k) L, R),
    the ones reachable in k steps from which w is still reachable in the
    n - k left.  Each recomputed orbit sums the same terms in the same
    order as on the full ball: an orbit's first state does not depend on
    the radius, a row's slots come in the same order on both balls and
    carry the same weights between cone states, since no path between them
    leaves radius R; a state outside the ball or not yet reached holds an
    exact 0, which adds nothing to a sum; and the stale values above the
    cone lie more than L above every state still in it, so no step reads
    them.  No w is a target at distance n L, the whole distribution:
    radius n L (at least 1, the ball of ``mc_simulate``) and bound k L."""
    words, step, group = _read_spec(walk)
    q = hecke.check_thickness(float(q))
    reach = n * step
    if w is None:
        lw, radius = reach, max(reach, 1)
    else:
        lw = weyl.length(w)
        if lw > reach:
            return None
        radius = (reach + max(lw, 4)) // 2
    bounds = [min(k * step, lw + (n - k) * step, radius) for k in range(1, n + 1)]
    space = state_space(radius)
    reps, orbit = _orbits(radius, group)
    op = _walk_matrix(space, words, q, reps, orbit)
    return space, orbit, _propagate(space.lengths[reps], op, bounds)


def exact_distribution(walk: dict, n: int, q, snapshots=None):
    """Distribution after n steps, double precision via gather steps.

    With snapshots=[n1, n2, ...] returns {ni: WalkDistribution} capturing the
    distribution at each requested step count (all in 0..n).

    The masses are the light cone of a target at distance n L
    (``_light_cone``), stepped one value per orbit of the spec's symmetry
    group (see the module docstring) and expanded to every state of the
    ball: bit for bit the plain recursion when that group is trivial, within
    rounding of it otherwise.
    """
    _check_steps(n)
    wanted = {n} if snapshots is None else set(snapshots)
    if any(not 0 <= k <= n for k in wanted):
        raise ValueError(f"snapshots must lie in 0..{n}")
    space, orbit, steps = _light_cone(walk, n, q)
    out = {k: WalkDistribution(k, space, masses[orbit])
           for k, masses in enumerate(steps) if k in wanted}
    return out[n] if snapshots is None else out


def masses_at(walk: dict, w: AffineElement, ns, q) -> list:
    """The masses at w after each step count in ns, equal bit for bit to
    ``exact_distribution(walk, n, q).mass(w)``: the value of the orbit of w
    in its light cone after max(ns) steps (``_light_cone``)."""
    ns = list(ns)
    if not ns:
        raise ValueError("need at least one step count")
    for k in ns:
        _check_steps(k)
    cone = _light_cone(walk, max(ns), q, w)
    if cone is None:  # w is out of reach at every n in ns
        return [0.0] * len(ns)
    space, orbit, steps = cone
    target = orbit[space.state(w)]
    at = [float(x[target]) for x in steps]
    return [at[k] for k in ns]


def exact_distribution_rational(walk: dict, n: int, q) -> dict:
    """Reference recursion with Fraction masses (dict element -> mass)."""
    _check_steps(n)
    words, _, _ = _read_spec(walk)
    q = hecke.check_thickness(Fraction(q))
    dist = {IDENTITY: Fraction(1)}
    for _ in range(n):
        new = {}
        for start, mass in dist.items():
            for word, a in words:
                pieces = {start: mass * a}
                for i in word:
                    nxt = {}
                    for v, m in pieces.items():
                        vs = weyl.right_mul_gen(v, i)
                        if weyl.length(vs) > weyl.length(v):
                            nxt[vs] = nxt.get(vs, Fraction(0)) + m
                        else:
                            nxt[vs] = nxt.get(vs, Fraction(0)) + m / q
                            nxt[v] = nxt.get(v, Fraction(0)) + m * (1 - 1 / q)
                    pieces = nxt
                for v, m in pieces.items():
                    new[v] = new.get(v, Fraction(0)) + m
        dist = {v: m for v, m in new.items() if m}
    return dist


def mc_simulate(n: int, trials: int, seed: int, q) -> WalkDistribution:
    """Empirical distribution of the uniform nearest-neighbour radial chain
    after n steps of ``trials`` independent trajectories from e.

    The trajectories are exchangeable, so their counts per state carry their
    whole law, and the counts are what is sampled: given the counts after k
    steps, the counts after k + 1 steps are the sum over states s of
    Multinomial(count_s, row_s).  Row s has four outcomes, stay and the
    targets of walls 0, 1 and 2.  A wall move has probability 1/3 on an
    ascent and 1/(3q) on a descent, and stay (1 - 1/q)/3 per descent, an
    exact 0 at a state whose walls are all ascents.  Numpy gives the last
    outcome what the others leave, and a wall move always has probability
    >= 1/(3q) > 0.  The acceptance 1/q is rounded to a double.

    Each step draws ``rng.multinomial`` once over the live states (count
    > 0), in state order, on one Philox stream keyed by the seed, so the
    result is reproducible for fixed (n, trials, seed, q) and costs
    O(n x states) whatever ``trials`` is.  A live state at step k has length
    <= k <= n - 1, so every target it reaches is inside the ball of radius
    max(n, 1).  The counts are int64 and sum to ``trials`` exactly; trials
    stay below 2^53 because numpy draws each binomial in doubles, which hold
    every integer up to there.  q may be any thickness q > 1.
    """
    _check_steps(n)
    if not isinstance(trials, numbers.Integral) or not isinstance(seed, numbers.Integral):
        raise ValueError(f"trials and seed must be integers, got {trials!r} and {seed!r}")
    if not 1 <= trials < 2 ** 53:
        raise ValueError(f"need 1 <= trials < 2^53, got {trials}")
    if not 0 <= seed < 2 ** 128:
        raise ValueError(f"need 0 <= seed < 2^128, got {seed}")
    accept = float(1 / Fraction(hecke.check_thickness(q)))
    space = state_space(max(n, 1))
    descents = np.count_nonzero(~space.ascent, axis=1)
    rows = np.column_stack((descents * ((1 - accept) / 3),
                            np.where(space.ascent, 1 / 3, accept / 3)))
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = np.zeros(len(space.elems), dtype=np.int64)
    counts[space.state(IDENTITY)] = trials
    for _ in range(n):
        live = np.flatnonzero(counts)
        draws = rng.multinomial(counts[live], rows[live])
        counts = np.zeros_like(counts)
        counts[live] = draws[:, 0]
        # s -> s s_i is a bijection, so no index repeats within one column;
        # one intp copy serves both the read and the write of +=
        for i in range(3):
            counts[space.target[live, i].astype(np.intp)] += draws[:, i + 1]
    return WalkDistribution(n, space, counts / trials)


# ---------------------------------------------------------------------------
# Closed-form spectral data for the uniform nearest-neighbour walk.
# ---------------------------------------------------------------------------


@dataclass
class SpectralData:
    """Eigendata of the 6- and 3-dimensional modules at the trivial character."""

    q: float
    discriminant_root: float      # sqrt(q^2 + 34q + 1)
    eigenvalues: tuple            # six values, descending, with multiplicity
    top_vector_entry: float       # the 'a' in the unnormalized top vector
    bottom_vector_entry: float    # the 'b' in the unnormalized bottom vector
    top_vector: np.ndarray        # unit top eigenvector
    beta: float                   # quadratic decay rate of the top eigenvalue
    induced_eigenvalues: tuple    # (repeated value, simple value)

    @property
    def spectral_radius(self) -> float:
        return self.eigenvalues[0]


def spectral_data(q) -> SpectralData:
    q = hecke.check_thickness(float(q))
    s = (q * q + 34 * q + 1) ** 0.5
    if not math.isfinite(s):
        raise OverflowError(f"q = {q} is too large: q^2 overflows a double")
    lam1 = (3 * (q - 1) + s) / (6 * q)
    lam2 = 2 * (q - 1) / (3 * q)
    lam4 = (q - 1) / (3 * q)
    lam6 = (3 * (q - 1) - s) / (6 * q)
    a = (s - (q - 1)) / (6 * q ** 0.5)
    b = (q - 1 + s) / (6 * q ** 0.5)
    v = np.array([a, 1, 1, a, a, 1], dtype=float)
    v /= np.linalg.norm(v)
    beta = 2 / (9 * lam1 * s)
    rq = q ** 0.5
    mu_rep = (rq - 2 / rq + 1) / (3 * rq)
    mu_simple = (rq - 2 / rq - 2) / (3 * rq)
    return SpectralData(
        q=q,
        discriminant_root=s,
        eigenvalues=(lam1, lam2, lam2, lam4, lam4, lam6),
        top_vector_entry=a,
        bottom_vector_entry=b,
        top_vector=v,
        beta=beta,
        induced_eigenvalues=(mu_rep, mu_simple),
    )


def c_w_value(w: AffineElement, q) -> float:
    """Quadratic form of the unit top eigenvector against the averaging
    operator of w^-1 in the 6-dimensional module at the trivial character."""
    field = hecke.ScalarField(q)
    q = float(q)
    rep = reps.principal_series(q, (1.0, 1.0))
    m = reps.evaluate(rep, hecke.t_element(field, [(weyl.inverse(w), field.one)]))
    m /= q ** (0.5 * weyl.length(w))
    v = spectral_data(q).top_vector
    return float(np.real(v @ m @ v))


def llt_estimate(w: AffineElement, n: int, q) -> float:
    """Leading-order n-step transition probability to relative position w:

        C_w q^3 / (27 sqrt(3) beta^4 pi (q-1)^6) * lam1^n n^-4.

    Raises where that falls below the smallest normal double (n ~ 18,000
    at q = 2) instead of returning a subnormal or 0.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    q = float(q)
    data = spectral_data(q)
    const = (
        c_w_value(w, q)
        * q ** 3
        / (27 * np.sqrt(3.0) * data.beta ** 4 * np.pi * (q - 1) ** 6)
    )
    value = float(const * data.spectral_radius ** n * float(n) ** -4.0)
    if value < np.finfo(float).tiny:
        raise ValueError(f"llt_estimate underflows at n={n}, q={q}")
    return value


def _descending_eigenvalues(module, q, angle):
    """Walk-operator eigenvalues of module(q, e^(i angle)), sorted descending."""
    m = reps.p_matrix(module(float(q), np.exp(1j * np.asarray(angle))))
    if not np.abs(m - m.conj().T).max() < 1e-12:  # NaN fails too
        raise ValueError("angle off the unit torus: the walk operator is not Hermitian")
    return np.linalg.eigvalsh(m)[::-1]


def eigen_surface(theta, q):
    """Six eigenvalues of the walk operator in the 6-dimensional module at e^(i theta)."""
    return _descending_eigenvalues(reps.principal_series, q, theta)


def induced_eigen_curve(phi: float, q):
    """Three eigenvalues of the walk operator in the 3-dimensional module."""
    return _descending_eigenvalues(reps.induced_three_dim, q, phi)


def determinant_probe(q) -> float:
    """The largest deviation of (3 sqrt(q))^6 det(pi_theta(P) - lam1 I) from
    150 - 48 c1 - 2 c2 on a regular 24 x 24 grid over [-pi, pi)^2, where c1
    and c2 sum the first- and second-shell cosines.  The source display
    carries the prefactor to the first power only, a typo recorded in
    DECISIONS.md; the scale amplifies rounding as q^3."""
    q = float(q)
    lam1 = spectral_data(q).spectral_radius
    grid = 24
    thetas = np.linspace(-np.pi, np.pi, grid, endpoint=False)
    th1, th2 = np.repeat(thetas, grid), np.tile(thetas, grid)
    m = reps.walk_operator(q, reps.principal_generators(
        q, np.exp(1j * th1), np.exp(1j * th2)))
    det = (3 * q ** 0.5) ** 6 * np.linalg.det(m - lam1 * np.eye(6))
    c1 = np.cos(th1) + np.cos(th2) + np.cos(th1 + th2)
    c2 = np.cos(th1 + 2 * th2) + np.cos(2 * th1 + th2) + np.cos(th1 - th2)
    return float(np.abs(det - (150 - 48 * c1 - 2 * c2)).max())
