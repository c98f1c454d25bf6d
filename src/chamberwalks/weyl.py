"""Exact combinatorics of the rank-2 affine Weyl group of the triangle tiling.

The group is W = Q ⋊ W0 where Q = Z·a1 + Z·a2 is the coroot lattice of the
A2 root system and W0 ≅ S3 is its finite Weyl group.  Elements are kept in
the normal form t_mu · u with mu in Q and u in W0, so equality, inversion
and the semidirect-product law are all O(1).  Lattice vectors are integer
pairs (m, n) of coordinates in the simple-coroot basis; roots are integer
pairs (a, b) of coordinates in the simple-root basis.

Lengths, ascents and wall crossings are read from integer root tables: the
descent signs _DESCENTS and the affine simple roots _ASCENT.  Crossing signs
feed exact algebra downstream and are never decided by floating point.

>>> length(GEN[0])
1
>>> length(translation((1, 1)))
4
>>> reduced_word(from_word((1, 2)))
(1, 2)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AffineElement", "IDENTITY", "GEN", "W0_WORDS", "W0_LONGEST",
    "PHI_VEE", "RHO_VEE", "POS_ROOTS", "SIMPLE_ROOTS",
    "pairing", "w0_mult", "w0_inv", "w0_length", "w0_apply",
    "w0_from_word", "inversion_set",
    "inverse", "right_mul_gen", "translation", "finite",
    "length", "is_ascent", "length_array", "automorphism",
    "reduced_word", "from_word", "is_reduced",
    "crossing_data", "ball",
]

# ---------------------------------------------------------------------------
# The finite Weyl group W0 = S3, indexed 0..5.
# ---------------------------------------------------------------------------

W0_WORDS = ((), (1,), (2,), (1, 2), (2, 1), (1, 2, 1))

# Simple reflections on coroot coordinates (m, n):
#   s1: (m, n) -> (n - m, n)        s2: (m, n) -> (m, m - n)
_M1 = ((-1, 1), (0, 1))
_M2 = ((1, 0), (1, -1))
_MID = ((1, 0), (0, 1))


def _matmul(x, y):
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def _build_w0():
    mats = []
    for word in W0_WORDS:
        m = _MID
        for i in word:
            m = _matmul(m, _M1 if i == 1 else _M2)
        mats.append(m)
    index = {m: k for k, m in enumerate(mats)}
    mult = tuple(
        tuple(index[_matmul(mats[a], mats[b])] for b in range(6)) for a in range(6)
    )
    inv = tuple(next(b for b in range(6) if mult[a][b] == 0) for a in range(6))
    return tuple(mats), mult, inv


_W0_MATS, _W0_MULT, _W0_INV = _build_w0()
W0_LONGEST = 5          # s1 s2 s1, the reflection through the highest root

SIMPLE_ROOTS = ((1, 0), (0, 1))
POS_ROOTS = ((1, 0), (0, 1), (1, 1))
PHI_VEE = (1, 1)        # highest coroot
RHO_VEE = (1, 1)        # half-sum of positive coroots


def w0_mult(a: int, b: int) -> int:
    return _W0_MULT[a][b]


def w0_inv(a: int) -> int:
    return _W0_INV[a]


def w0_length(a: int) -> int:
    return len(W0_WORDS[a])


def w0_from_word(word) -> int:
    u = 0
    for i in word:
        u = _W0_MULT[u][1 if i == 1 else 2]
    return u


def w0_apply(u: int, vec):
    """Apply u in W0 to a lattice/rational vector in coroot coordinates.
    The same map acts on roots a*a1 + b*a2 given as (a, b): the root system
    is simply laced and a_i, a_i^vee share coordinates."""
    m = _W0_MATS[u]
    return (m[0][0] * vec[0] + m[0][1] * vec[1], m[1][0] * vec[0] + m[1][1] * vec[1])


def pairing(vec, root) -> int:
    """<vec, root> with vec in coroot coordinates and root = a*a1 + b*a2."""
    a, b = root
    m, n = vec
    return a * (2 * m - n) + b * (2 * n - m)


def _is_negative_root(root) -> bool:
    return root[0] <= 0 and root[1] <= 0


# _DESCENTS[u][r] = 1 when u^{-1} sends POS_ROOTS[r] to a negative root, else 0.
_DESCENTS = tuple(
    tuple(int(_is_negative_root(w0_apply(_W0_INV[u], root))) for root in POS_ROOTS)
    for u in range(6)
)


def inversion_set(u: int) -> frozenset:
    """Positive roots sent to negative roots by u^{-1}; size equals w0_length."""
    return frozenset(r for r, d in zip(POS_ROOTS, _DESCENTS[u]) if d)


# ---------------------------------------------------------------------------
# Affine elements in normal form t_mu * u.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AffineElement:
    """Normal form (mu, u) of the affine group element t_mu * u."""

    mu: tuple
    u: int

    def __repr__(self):
        return f"Aff(mu={self.mu}, u={''.join(map(str, W0_WORDS[self.u])) or 'e'})"


IDENTITY = AffineElement((0, 0), 0)

# s0 is the affine reflection through the wall <x, phi> = 1: t_{phi^vee} s_phi.
GEN = (
    AffineElement(PHI_VEE, W0_LONGEST),
    AffineElement((0, 0), 1),
    AffineElement((0, 0), 2),
)


def inverse(a: AffineElement) -> AffineElement:
    ui = _W0_INV[a.u]
    mi = w0_apply(ui, a.mu)
    return AffineElement((-mi[0], -mi[1]), ui)


def right_mul_gen(a: AffineElement, i: int) -> AffineElement:
    if i == 0:
        shift = w0_apply(a.u, PHI_VEE)
        return AffineElement(
            (a.mu[0] + shift[0], a.mu[1] + shift[1]), _W0_MULT[a.u][W0_LONGEST]
        )
    return AffineElement(a.mu, _W0_MULT[a.u][i])


def translation(mu) -> AffineElement:
    return AffineElement((mu[0], mu[1]), 0)


def finite(u: int) -> AffineElement:
    return AffineElement((0, 0), u)


def length(w: AffineElement) -> int:
    """Hyperplane-count length: sum over positive roots a of
    |<mu, a> - [u^{-1}a < 0]|.  Cross-checked against the Cayley-graph
    metric in the test suite before being trusted anywhere."""
    total = 0
    for root, d in zip(POS_ROOTS, _DESCENTS[w.u]):
        k = pairing(w.mu, root) - d
        total += k if k >= 0 else -k
    return total


# The affine simple roots alpha_i = (b, k), the function x -> <x, b> + k
# that is positive on the fundamental alcove: (a_1, 0), (a_2, 0), (-phi, 1).
# _ASCENT[u][i] holds (u b, k, [u b > 0]), the part of t_mu u (alpha_i) that
# does not depend on mu.
_ASCENT = tuple(
    tuple((ub, k, not _is_negative_root(ub))
          for ub, k in ((w0_apply(u, (-1, -1)), 1),
                        (w0_apply(u, SIMPLE_ROOTS[0]), 0),
                        (w0_apply(u, SIMPLE_ROOTS[1]), 0)))
    for u in range(6)
)


def is_ascent(w: AffineElement, i: int) -> bool:
    """length(w s_i) > length(w), without computing either length.  The
    step is an ascent exactly when the affine root w(alpha_i) is positive;
    for w = t_mu u and alpha_i = (b, k) that root is (u b, k - <mu, u b>),
    positive when its constant is > 0, or is 0 and u b is a positive root."""
    root, k, positive = _ASCENT[w.u][i]
    m = k - pairing(w.mu, root)
    return m > 0 or (m == 0 and positive)


# _DESCENTS for length_array over whole state spaces; bool, so that the
# lengths keep the dtype of m and n (int64 for Python ints)
_DESCENT_ARRAY = np.array(_DESCENTS, dtype=bool)


def length_array(m, n, u):
    """length(t_(m,n) u), elementwise; same hyperplane count as length.

    The result has the integer dtype of m and n (int64 for Python ints), and
    is exact while that dtype holds 6 max(|m|, |n|) + 2: the int16 box of
    ``limit.state_space`` stays far below 2^15."""
    desc = _DESCENT_ARRAY[u]
    return sum(
        np.abs(pairing((m, n), root) - desc[..., r]) for r, root in enumerate(POS_ROOTS)
    )


@functools.lru_cache(maxsize=6)  # one entry per permutation of (0, 1, 2)
def automorphism(perm) -> np.ndarray:
    """The automorphism s_i -> s_perm[i] of W in closed form, as read-only
    rows (m, n, u): the images of t_(1,0) and t_(0,1), then of the six u in
    W0, read from their relabelled reduced words.  It maps translations to
    translations linearly, so t_(m,n) u goes to m row[0] + n row[1] +
    row[2 + u]."""
    elems = [translation((1, 0)), translation((0, 1))] + [finite(u) for u in range(6)]
    images = [from_word([perm[i] for i in reduced_word(w)]) for w in elems]
    rows = np.array([(*w.mu, w.u) for w in images])
    rows.setflags(write=False)
    return rows


def reduced_word(w: AffineElement) -> tuple:
    """Reduced word over {0,1,2}, lexicographically smallest descent first
    when read from the right (so the result is deterministic)."""
    letters = []
    cur = w
    for _ in range(length(w)):
        for i in (0, 1, 2):
            if not is_ascent(cur, i):
                letters.append(i)
                cur = right_mul_gen(cur, i)
                break
        else:  # pragma: no cover - impossible for a nontrivial element
            raise AssertionError("element of positive length with no descent")
    letters.reverse()
    return tuple(letters)


def from_word(word) -> AffineElement:
    w = IDENTITY
    for i in word:
        w = right_mul_gen(w, i)
    return w


def is_reduced(word) -> bool:
    return length(from_word(word)) == len(word)


def crossing_data(a: AffineElement, i: int):
    """The hyperplane ((root, k) with root positive) separating the alcoves
    of a and a*s_i, and the crossing sign: +1 when the step a -> a*s_i goes
    from the negative to the positive side of the wall.

    The positive side of a wall is the one containing a far subcone of the
    dominant sector, concretely {x : <x, root> + k >= 0} for a positive root.
    The affine root a(alpha_i) = (u b, k - <mu, u b>) that is_ascent reads
    is positive on the alcove of a = t_mu u and vanishes on the wall.  The
    step leaves the side where it is positive, which is the wall's positive
    side exactly when u b is a positive root.
    """
    root, k, positive = _ASCENT[a.u][i]
    k -= pairing(a.mu, root)
    if positive:
        return (root, k), -1
    return ((-root[0], -root[1]), -k), 1


def ball(radius: int):
    """Cayley-graph ball: dict element -> distance from the identity, BFS
    over right multiplication by the three generators.  The package itself
    does not call it: it is the tests' oracle for the closed-form length and
    for limit.state_space."""
    dist = {IDENTITY: 0}
    frontier = [IDENTITY]
    for d in range(1, radius + 1):
        nxt = []
        for w in frontier:
            for i in (0, 1, 2):
                y = right_mul_gen(w, i)
                if y not in dist:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return dist
