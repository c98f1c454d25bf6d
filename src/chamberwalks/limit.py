"""n-step distributions of radial chamber walks, Monte Carlo simulation,
closed-form spectral data of the uniform nearest-neighbour walk, and the
n^-4 local limit estimate.

The exact n-step distribution follows the averaging-operator recursion: a
step from w splits uniformly over the three wall types; an ascent moves to
ws_i, a descent moves there with probability 1/q and stays otherwise.  The
Monte Carlo chain samples the same kernel, so the two are independent only
in implementation: a deterministic gather recursion against trajectories
drawn in blocks of k steps, one uint16 draw per trial and block and one
gather from a fused k-step table, with the acceptance exactly 1/q for
rational q.  A second thread makes the draw of the next block while the
current block gathers; it draws in block order, one block at a time, so
the stream is the same as on one thread.  The spectral route goes through
the trace decomposition instead.

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
recomputes only them works on slices.  ``exact_distribution`` recomputes at
step k the states of length <= k L (L the longest element of the walk's
support); the others still hold an exact 0.  ``masses_at`` serves a query
at one relative position w: it works on the ball of radius
(n L + l(w)) / 2, which holds every path from e to w, and recomputes at
step k only the light cone, the states of length <= min(k L,
l(w) + (n - k) L).  Every term a step drops or reads stale is an exact 0
or multiplies one, so both return the bits of the full recursion on the
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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import hecke, plancherel, reps, weyl
from .weyl import IDENTITY, AffineElement

__all__ = [
    "StateSpace", "state_space", "WalkDistribution",
    "simple_walk_spec", "exact_distribution", "masses_at", "mc_simulate",
    "SpectralData", "spectral_data", "c_w_value", "llt_estimate",
    "eigen_surface", "induced_eigen_curve", "lemma34_check",
    "perturbation_eigenvalues",
    "determinant_probe",
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
    one-step neighbour of it, since length >= 3 max(|m|, |n|) - 3.
    """

    radius: int
    box: int
    elems: np.ndarray    # elems[s] = (m, n, u)
    pos: np.ndarray      # pos[m + box, n + box, u] = state, -1 if outside
    lengths: np.ndarray
    target: np.ndarray   # target[s, i] = state of elems[s] * s_i, -1 if outside
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


# the largest lattice box state_space builds: at 60 bytes per entry (traced at
# radius 800 and 1200) its build peaks near 1.0 GB; the largest radius is 2501
_MAX_BOX_ENTRIES = 2 ** 24


@functools.lru_cache(maxsize=2)
def state_space(radius: int) -> StateSpace:
    """The ball of the given radius, cached for the two latest radii.  Raises
    ValueError before any allocation if its box exceeds _MAX_BOX_ENTRIES."""
    b = radius // 3 + 2
    entries = (2 * b + 1) ** 2 * 6
    if entries > _MAX_BOX_ENTRIES:
        raise ValueError(f"radius {radius} needs a lattice box of {entries} entries, "
                         f"above the limit of {_MAX_BOX_ENTRIES}")
    side = np.arange(-b, b + 1)
    grid = np.meshgrid(side, side, np.arange(6), indexing="ij", sparse=True)
    flat = weyl.length_array(*grid).ravel()
    keep = np.flatnonzero(flat <= radius)  # in (m, n, u) order
    # int16 keys (lengths <= radius <= 2501) take numpy's radix sort
    keep = keep[np.argsort(flat[keep].astype(np.int16), kind="stable")]
    lengths = flat[keep]
    del flat
    pos = np.full((2 * b + 1, 2 * b + 1, 6), -1, dtype=np.int64)
    pos.ravel()[keep] = np.arange(len(keep))
    elems = np.stack(np.unravel_index(keep, pos.shape), axis=1)
    elems[:, :2] -= b
    # w s_i moves the box index of w by a step that depends on (u, i) alone
    u6 = np.arange(6)
    steps = [(dm * (2 * b + 1) + dn) * 6 + tu - u6 for dm, dn, tu in
             (weyl.right_mul_gen_array(0 * u6, 0 * u6, u6, i) for i in range(3))]
    target = pos.ravel()[keep[:, None] + np.column_stack(steps)[elems[:, 2]]]
    # a neighbour outside the ball has length radius + 1: an ascent
    ascent = (target < 0) | (lengths[target] > lengths[:, None])
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
    are nonnegative and sum to one.  words lists the (reduced word, float
    coefficient) of each element in spec order, L is the length of the
    longest element, and H is the group of permutations of the generators
    (s0, s1, s2) whose automorphisms s_i -> s_perm[i] map the spec to
    itself, as a tuple of permutations with the identity first."""
    spec = {w: Fraction(a) for w, a in walk.items()}
    if any(a < 0 for a in spec.values()):
        raise ValueError("radial walk coefficients must be nonnegative")
    if sum(spec.values()) != 1:
        raise ValueError("radial walk coefficients must sum to one")
    words = {w: weyl.reduced_word(w) for w in spec}
    group = tuple(
        perm for perm in itertools.permutations(range(3))
        if {weyl.from_word([perm[i] for i in words[w]]): a
            for w, a in spec.items()} == spec)
    return ([(words[w], float(a)) for w, a in spec.items()],
            max(map(len, words.values())), group)


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
        diag += a * stay
        for s, v in rest:
            idx.append(orbit[s])
            val.append(a * v)
    return diag, np.array(idx, dtype=np.intp), np.array(val)


def _automorphisms(space: StateSpace, perms) -> np.ndarray:
    """sigma[s, j], the state of the image of state s under the automorphism
    s_i -> s_perms[j][i], as an int32 array of shape (states, len(perms)).

    Automorphisms preserve length, so each maps the ball onto itself.  They
    are built one length layer at a time from the target table: a state s
    of length l > 0 is p s_i with p = s s_i its first descent, of length
    l - 1, and its image is sigma(p) s_perm[i]."""
    descent = np.argmin(space.ascent, axis=1)
    flat = space.target.ravel()
    below = flat[3 * np.arange(len(descent)) + descent]
    letter = np.asarray(perms, dtype=np.int32).reshape(-1, 3)[:, descent].T
    sigma = np.zeros(letter.shape, dtype=np.int32)
    layers = np.searchsorted(space.lengths, np.arange(1, space.radius + 2))
    for lo, hi in zip(layers[:-1], layers[1:]):
        sigma[lo:hi] = flat[3 * sigma[below[lo:hi]] + letter[lo:hi]]
    return sigma


@functools.lru_cache(maxsize=2)
def _orbits(radius: int, group) -> tuple:
    """(reps, orbit) of the ball of the given radius under a group of
    generator permutations, cached for the two latest (radius, group) pairs
    like the ball itself; both arrays are read-only.

    reps[o] is the first state of orbit o in state order, so reps is
    increasing and, as automorphisms preserve length, the orbits are ordered
    by length too; orbit[s] is the orbit of state s, int32.  A subgroup of
    S3 is generated by its first 3-cycle and its first transposition, where
    it has them, so two state maps suffice: each state takes the least
    label reachable through them."""
    space = state_space(radius)
    gens = []
    for fixed in (0, 1):  # a 3-cycle fixes no letter, a transposition one
        gens += [p for p in group if sum(p[i] == i for i in range(3)) == fixed][:1]
    maps = _automorphisms(space, gens).T
    label = np.arange(len(space.elems), dtype=np.int32)
    while True:
        nxt = label
        for sigma in maps:
            nxt = np.minimum(nxt, nxt[sigma])
        if np.array_equal(nxt, label):
            break
        label = nxt
    first = label == np.arange(len(label))
    orbit = (np.cumsum(first, dtype=np.int32) - 1)[label]
    reps = np.flatnonzero(first)
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


def _quotient_walk(words, group, q: float, radius: int, bounds):
    """(space, orbit, masses) of a walk read by ``_read_spec`` on the ball
    of the given radius: the ball, the orbit of each state under the
    spec's group H, and the ``_propagate`` generator of the per-orbit
    masses under the given bounds."""
    space = state_space(radius)
    reps, orbit = _orbits(radius, group)
    op = _walk_matrix(space, words, q, reps, orbit)
    return space, orbit, _propagate(space.lengths[reps], op, bounds)


def exact_distribution(walk: dict, n: int, q, snapshots=None):
    """Distribution after n steps, double precision via gather steps.

    With snapshots=[n1, n2, ...] returns {ni: WalkDistribution} capturing the
    distribution at each requested step count (all in 0..n).

    Step k recomputes only the orbits of length <= k L, L the longest
    element of the walk's support: the rest are unreachable and hold an
    exact 0, which is what the full step would write there.  The masses are
    stepped one value per orbit of the spec's symmetry group (see the
    module docstring) and expanded to every state of the ball: bit for bit
    the plain recursion when that group is trivial, within rounding of it
    otherwise.
    """
    _check_steps(n)
    wanted = set(snapshots or ())
    if any(not 0 <= k <= n for k in wanted):
        raise ValueError(f"snapshots must lie in 0..{n}")
    words, step, group = _read_spec(walk)
    q = hecke.check_thickness(float(q))
    space, orbit, steps = _quotient_walk(words, group, q, max(n * step, 1),
                                         [k * step for k in range(1, n + 1)])
    out = {}
    for k, masses in enumerate(steps):
        if k in wanted:
            out[k] = WalkDistribution(k, space, masses[orbit])
    if snapshots is None:
        return WalkDistribution(n, space, masses[orbit])
    return out


def masses_at(walk: dict, w: AffineElement, ns, q) -> list:
    """The masses at w after each step count in ns, equal bit for bit to
    ``exact_distribution(walk, n, q).mass(w)``.

    Only the light cone of w is propagated.  With n = max(ns) and L the
    longest element of the walk's support, the ball has radius
    R = floor((n L + l(w)) / 2): a generator path from e to w of n L letters
    that leaves it would need more than n L letters to come back.  Step k
    recomputes only the orbits of length <= min(k L, l(w) + (n - k) L, R),
    the ones reachable in k steps from which w is still reachable in the
    n - k left.  Each recomputed orbit sums the same terms in the same order
    as on the full ball: an orbit's first state does not depend on the
    radius, a row's slots come in the same order on both balls and carry
    the same weights between cone states, since no path between them leaves
    radius R; a state outside the ball or not yet reached holds an exact 0,
    which adds nothing to a sum; and the stale values above the cone lie
    more than L above every state still in it, so no step reads them.  The
    mass at w is the value of its orbit.
    """
    ns = list(ns)
    if not ns:
        raise ValueError("need at least one step count")
    for k in ns:
        _check_steps(k)
    words, step, group = _read_spec(walk)
    q = hecke.check_thickness(float(q))
    n, lw = max(ns), weyl.length(w)
    if lw > n * step:  # w is out of reach at every n in ns
        return [0.0] * len(ns)
    radius = (n * step + lw) // 2
    bounds = [min(k * step, lw + (n - k) * step, radius) for k in range(1, n + 1)]
    space, orbit, steps = _quotient_walk(words, group, q, radius, bounds)
    target = orbit[space.state(w)]
    at = [float(x[target]) for x in steps]
    return [at[k] for k in ns]


def exact_distribution_rational(walk: dict, n: int, q) -> dict:
    """Reference recursion with Fraction masses (dict element -> mass)."""
    _check_steps(n)
    _read_spec(walk)  # raises on an invalid spec
    q = hecke.check_thickness(Fraction(q))
    dist = {IDENTITY: Fraction(1)}
    word_cache = {w: weyl.reduced_word(w) for w in walk}
    for _ in range(n):
        new = {}
        for start, mass in dist.items():
            for w, a in walk.items():
                pieces = {start: mass * Fraction(a)}
                for i in word_cache[w]:
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


def _mc_tables(space: StateSpace, q: Fraction, n: int, trials: int) -> list:
    """The step tables [T_1, ..., T_k] of ``mc_simulate``, int32 arrays of
    shape (states, W^j) with W = 3a for q = a/b.

    Digit d = 3j + i of T_1 picks wall type i and accepts the move when
    j < b: ``T_1[s, d]`` is ``target[s, i]`` then, else the ascent target
    or s itself.  ``T_(j+1)[s, r W + d] = T_1[T_j[s, r], d]``, so the first
    step is the most significant digit; an entry -1 (an ascent out of the
    ball) stays -1.  k is the largest k <= n with W^k <= 2^16 and
    states x W^k <= trials, and 1 if there is none.
    """
    states, w = len(space.target), 3 * q.numerator
    if w * states >= 2 ** 31:
        raise ValueError(f"{states} states overflow the int32 step table")
    k = 1
    while k < n and w ** (k + 1) <= 2 ** 16 and states * w ** (k + 1) <= trials:
        k += 1
    stay = np.where(space.ascent, space.target, np.arange(states)[:, None])
    one = np.concatenate(
        (np.tile(space.target, q.denominator),
         np.tile(stay, q.numerator - q.denominator)), axis=1,
    ).astype(np.int32)
    tables = [one]
    for _ in range(k - 1):
        prev = tables[-1]
        tables.append(np.where(prev[:, :, None] < 0, -1, one[prev])
                      .reshape(states, -1))
    return tables


# trials per gather chunk: the chunk's states, indices and draws stay in cache
_GATHER_CHUNK = 1 << 16


def mc_simulate(n: int, trials: int, seed: int, q) -> WalkDistribution:
    """Empirical distribution of the uniform nearest-neighbour radial chain.

    All trials advance together on one Philox stream keyed by the seed, in
    blocks of k steps.  A block draws one uint16 per trial, uniform on
    [0, W^k) with W = 3a for q = a/b, and moves every trial k steps by one
    gather, ``state = T_k[W^k state + r]`` (see ``_mc_tables``).  Read in
    base W, most significant digit first, the draw gives one digit
    d = 3j + i per step: wall type i, and a descent accepted when j < b, so
    the acceptance probability is exactly 1/q.  k is the largest k <= n
    with W^k <= 2^16 and states x W^k <= trials, so the table is never
    larger than the trials' state array; the n mod k steps left over take
    one more draw on T_(n mod k).  A trial starts a block of m steps at
    length <= n - m, and those rows of T_m hold no -1.

    One worker thread makes the draws, in block order and one at a time:
    the draw of block j + 1 runs while this thread gathers block j, so the
    stream does not depend on thread scheduling.  The gather runs in chunks
    of ``_GATHER_CHUNK`` trials through one int32 scratch array, with
    ``mode='clip'``, which clamps instead of checking.  Every index is in
    range by construction: 0 <= state < states (a trial's state is a state
    of the ball, never the -1 of an ascent out of it, by the row argument
    above) and 0 <= r < W^m, so W^m state + r < states x W^m, the size of
    T_m, which is below 2^31 as W x states < 2^31 and
    states x W^k <= trials < 2^31.  ``'raise'`` would not have caught a
    stray -1 either: numpy wraps negative indices.

    The result is reproducible for fixed (n, trials, seed, q), but the draws
    a given trial sees, and k, depend on ``trials``, so runs with different
    trial counts do not share trajectories.  q is read as a Fraction: a
    float such as 2.1 has a numerator near 2^52, and q with W > 2^16
    raises, as do W x states >= 2^31 and trials >= 2^31.
    """
    from concurrent.futures import ThreadPoolExecutor

    _check_steps(n)
    if not 1 <= trials < 2 ** 31:
        raise ValueError(f"need 1 <= trials < 2^31, got {trials}")
    given, q = q, Fraction(hecke.check_thickness(q))
    w = 3 * q.numerator
    if w > 2 ** 16:
        raise ValueError(
            f"q = {given} is {q}: a draw needs 3 x {q.numerator} values, over "
            f"2^16; pass q as a Fraction with a numerator up to 21845, such "
            f"as Fraction('2.1')")
    space = state_space(max(n, 1))
    tables = _mc_tables(space, q, n, trials)
    k = len(tables)
    rng = np.random.Generator(np.random.Philox(key=seed))
    state = np.full(trials, space.state(IDENTITY), dtype=np.int32)
    idx = np.empty(min(trials, _GATHER_CHUNK), dtype=np.int32)
    blocks = [min(k, n - done) for done in range(0, n, k)]

    def draw(m):
        return rng.integers(0, w ** m, size=trials, dtype=np.uint16)

    with ThreadPoolExecutor(max_workers=1) as drawer:
        ahead = drawer.submit(draw, blocks[0]) if blocks else None
        for j, m in enumerate(blocks):
            r = ahead.result()
            if j + 1 < len(blocks):
                ahead = drawer.submit(draw, blocks[j + 1])
            table, scale = tables[m - 1].ravel(), w ** m
            for lo in range(0, trials, _GATHER_CHUNK):
                part = state[lo:lo + _GATHER_CHUNK]
                chunk = idx[:len(part)]
                np.multiply(part, scale, out=chunk)
                np.add(chunk, r[lo:lo + _GATHER_CHUNK], out=chunk)
                np.take(table, chunk, out=part, mode="clip")
    counts = np.bincount(state, minlength=len(space.target))
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
    h = hecke.t_element(field, [(weyl.inverse(w), field.one)])
    m = reps.evaluate(rep, h) / q ** (0.5 * weyl.length(w))
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


def eigen_surface(theta, q):
    """Six eigenvalues of the walk operator in the 6-dimensional module at
    the unit-torus character e^(i theta), sorted descending."""
    rep = reps.principal_series(float(q), np.exp(1j * np.asarray(theta)))
    m = reps.p_matrix(rep)
    assert np.abs(m - m.conj().T).max() < 1e-12
    vals = np.linalg.eigvalsh(m)
    return vals[::-1]


def induced_eigen_curve(phi: float, q):
    """Three eigenvalues of the walk operator in the 3-dimensional module."""
    rep = reps.induced_three_dim(float(q), np.exp(1j * phi))
    m = reps.p_matrix(rep)
    vals = np.linalg.eigvalsh(m)
    return vals[::-1]


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
    exact = 1.0 / abs(plancherel.c_value(q, t)) ** 2
    approx = q ** 6 / (q - 1) ** 6 * g
    return abs(exact / approx - 1.0)


def perturbation_eigenvalues(theta, q):
    """Closed-form eigenvalues of the difference between the walk operator
    at e^(i theta) and at the trivial character: three plus-minus pairs
    (2/(3 sqrt(q))) |sin(x/2)| for x in {theta1, theta2, theta1+theta2}."""
    q = float(q)
    out = []
    for x in (theta[0], theta[1], theta[0] + theta[1]):
        v = 2 / (3 * q ** 0.5) * abs(np.sin(x / 2))
        out.extend([v, -v])
    return np.array(sorted(out, reverse=True))


def determinant_probe(q, grid: int = 24):
    """Least-squares fit of the shifted determinant of the walk operator
    against the trigonometric basis [1, sum of first-shell cosines, sum of
    second-shell cosines]; returns (coefficients, max residual).

    The determinant is scaled by (3 sqrt(q))^6 (the determinant of the
    entrywise-displayed matrix), and the fit recovers the constants
    (150, -48, -2) exactly and q-independently.  The source display carries
    the prefactor 3 sqrt(q) to the first power only, a typo recorded in
    DECISIONS.md."""
    q = float(q)
    lam1 = spectral_data(q).spectral_radius
    scale = (3 * q ** 0.5) ** 6
    thetas = np.linspace(-np.pi, np.pi, grid, endpoint=False)
    th1, th2 = np.repeat(thetas, grid), np.tile(thetas, grid)
    m = reps.walk_operator(q, reps.principal_generators(
        q, np.exp(1j * th1), np.exp(1j * th2)))
    vals = scale * np.linalg.det(m - lam1 * np.eye(6)).real
    rows = np.stack([
        np.ones_like(th1),
        np.cos(th1) + np.cos(th2) + np.cos(th1 + th2),
        np.cos(th1 + 2 * th2) + np.cos(2 * th1 + th2) + np.cos(th1 - th2),
    ], axis=1)
    coef, *_ = np.linalg.lstsq(rows, vals, rcond=None)
    resid = np.abs(rows @ coef - vals).max()
    return coef, float(resid)
