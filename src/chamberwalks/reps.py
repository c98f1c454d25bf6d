"""The three finite-dimensional modules entering the spectral decomposition.

* a 6-dimensional family induced from the lattice character t = (t1, t2),
  constructed on the basis [1, T1, T2, T12, T21, T121] (tensored with the
  cyclic vector) from the generator action rules;
* a 3-dimensional family induced from a one-dimensional module of the
  subalgebra generated by T1 and the lattice, parametrized by u; and
* the one-dimensional sign character T_i -> -q^(-1/2).

Generator matrices are kept in the standard (T) normalization; divide by
sqrt(q) for the averaging-operator normalization, which is Hermitian on the
torus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hecke, weyl

__all__ = [
    "Representation", "principal_series", "induced_three_dim", "sign_character",
    "principal_generators", "induced_generators", "characters",
    "evaluate", "character", "walk_operator", "p_matrix",
    "is_principal_irreducible", "max_relation_residual",
]


@dataclass
class Representation:
    """Generator images pi(T_0), pi(T_1), pi(T_2) plus bookkeeping."""

    q: float
    gens: tuple

    @property
    def dim(self) -> int:
        return self.gens[0].shape[0]

    @property
    def batch(self) -> tuple:
        """The generator images as a batch of one, shape (1, dim, dim)."""
        return tuple(g[None] for g in self.gens)


def principal_generators(q, t1, t2):
    """The 6-dimensional module over arrays of central characters (t1, t2):
    returns (g0, g1, g2), each of shape (len(t1), 6, 6); g1 and g2 do not
    depend on t and are broadcast views.

    Columns are images of the basis vectors.  T1, T2 act by the finite
    subalgebra multiplication; the affine generator sends the basis vector
    of w to t^(-w^-1 phi) times the vector of s_phi w, plus a diagonal
    (q^(1/2)-q^(-1/2)) term when the highest root is not an inversion of w.
    """
    q = float(q)
    npts = len(t1)
    quad = q ** 0.5 - q ** -0.5
    m1 = np.zeros((6, 6), dtype=complex)
    m2 = np.zeros((6, 6), dtype=complex)
    g0 = np.zeros((npts, 6, 6), dtype=complex)
    for u in range(6):
        for i, m in ((1, m1), (2, m2)):
            su = weyl.w0_mult(i, u)
            m[su, u] += 1
            if weyl.w0_length(su) < weyl.w0_length(u):
                m[u, u] += quad
        # affine generator
        e = weyl.w0_apply(weyl.w0_inv(u), weyl.PHI_VEE)
        target = weyl.w0_mult(weyl.W0_LONGEST, u)
        g0[:, target, u] += t1 ** (-e[0]) * t2 ** (-e[1])
        if weyl.POS_ROOTS[2] not in weyl.inversion_set(u):  # phi not an inversion of u
            g0[:, u, u] += quad
    g1 = np.broadcast_to(m1, (npts, 6, 6))
    g2 = np.broadcast_to(m2, (npts, 6, 6))
    return g0, g1, g2


def induced_generators(q, u):
    """The 3-dimensional module over an array of nonzero parameters u:
    returns (g0, g1, g2), each of shape (len(u), 3, 3)."""
    q = float(q)
    npts = len(u)
    r = q ** -0.5
    quad = q ** 0.5 - r
    m1 = np.array([[-r, 0, 0], [0, 0, 1], [0, 1, quad]], dtype=complex)
    m2 = np.array([[0, 1, 0], [1, quad, 0], [0, 0, -r]], dtype=complex)
    g0 = np.zeros((npts, 3, 3), dtype=complex)
    g0[:, 0, 0] = quad
    g0[:, 1, 1] = -r
    g0[:, 0, 2] = -u
    g0[:, 2, 0] = -1 / u
    return g0, np.broadcast_to(m1, (npts, 3, 3)), np.broadcast_to(m2, (npts, 3, 3))


def _single(q, gens) -> Representation:
    """The module of a batch of one generator triple; raises ValueError on a
    non-finite entry (a parameter that is not finite, or so small that a
    power of it overflows)."""
    if not all(np.isfinite(g).all() for g in gens):
        raise ValueError("the generator matrices have a non-finite entry")
    return Representation(float(q), tuple(np.array(g[0]) for g in gens))


def principal_series(q, t) -> Representation:
    """The 6-dimensional module with central character t = (t1, t2)."""
    t1, t2 = complex(t[0]), complex(t[1])
    if t1 == 0 or t2 == 0:
        raise ValueError("central character components must be nonzero")
    return _single(q, principal_generators(q, np.array([t1]), np.array([t2])))


def induced_three_dim(q, u) -> Representation:
    """The 3-dimensional module with parameter u (nonzero complex)."""
    u = complex(u)
    if u == 0:
        raise ValueError("parameter must be nonzero")
    return _single(q, induced_generators(q, np.array([u])))


def sign_character(q) -> Representation:
    """The one-dimensional module T_i -> -q^(-1/2)."""
    q = float(q)
    m = np.array([[-(q ** -0.5)]], dtype=complex)
    return Representation(q, (m, m, m))


# complex entries of one prefix chain of _sum_over_words: 12 letters of
# (8192, 6, 6) matrices, 57 MB, so a batch of plancherel's 8192 points is split
# only for words longer than 12 letters
_CHAIN_ENTRIES = 12 * 8192 * 6 * 6


def _words(h: hecke.HeckeElement) -> list:
    """The (reduced word, complex coefficient) of each term c T_w of a T-basis
    element, in sorted word order."""
    if h.basis != "T":
        raise ValueError("expected the T-basis; convert with x_to_t")
    return sorted((weyl.reduced_word(w), complex(c)) for w, c in h.terms.items())


def _sum_over_words(words, gens, image, out):
    """Add c * image(pi(T_w)) to out for each (word, c) of ``_words``, with
    pi(T_w) over a batch of generator triples of shape (npts, d, d).  The
    words are visited in sorted order, so products along a common prefix are
    computed once; only the current prefix chain is kept alive."""
    npts, d = gens[0].shape[0], gens[0].shape[1]
    stack = [np.broadcast_to(np.eye(d, dtype=complex), (npts, d, d))]
    path = []
    for word, coeff in words:
        k = 0
        while k < len(path) and k < len(word) and path[k] == word[k]:
            k += 1
        del stack[k + 1:]
        del path[k:]
        for i in word[k:]:
            stack.append(stack[-1] @ gens[i])
            path.append(i)
        out += coeff * image(stack[-1])
    return out


def characters(h: hecke.HeckeElement, gens) -> np.ndarray:
    """Characters of a T-basis element over a batch of generator triples,
    taken over sub-batches of points whose prefix chain, one (points, d, d)
    array per letter of the longest word, stays within _CHAIN_ENTRIES.  Each
    point's value does not depend on its sub-batch."""
    words = _words(h)
    npts, d = gens[0].shape[0], gens[0].shape[1]
    longest = max([1] + [len(word) for word, _ in words])
    step = max(1, _CHAIN_ENTRIES // (d * d * longest))
    out = np.zeros(npts, dtype=complex)
    for lo in range(0, npts, step):
        _sum_over_words(words, [g[lo:lo + step] for g in gens],
                        lambda m: np.trace(m, axis1=1, axis2=2), out[lo:lo + step])
    return out


def evaluate(rep: Representation, h: hecke.HeckeElement) -> np.ndarray:
    """Image of a T-basis element: sum of coefficients times word matrices."""
    return _sum_over_words(_words(h), rep.batch, lambda m: m[0],
                           np.zeros((rep.dim, rep.dim), dtype=complex))


def character(rep: Representation, h: hecke.HeckeElement) -> complex:
    return complex(characters(h, rep.batch)[0])


def walk_operator(q, gens) -> np.ndarray:
    """Image (A_0 + A_1 + A_2)/3 of the uniform nearest-neighbour walk from
    generator images, single or batched."""
    return (gens[0] + gens[1] + gens[2]) / (3 * float(q) ** 0.5)


def p_matrix(rep: Representation) -> np.ndarray:
    return walk_operator(rep.q, rep.gens)


def is_principal_irreducible(q, t) -> bool:
    """Kato's criterion: irreducible iff t^(a) avoids q and 1/q for every
    root a, i.e. none of t1, t2, t1*t2 equals q or 1/q to within
    1e-12 max(1, q)."""
    q = float(q)
    vals = (complex(t[0]), complex(t[1]), complex(t[0]) * complex(t[1]))
    for v in vals:
        for bad in (q, 1.0 / q):
            if abs(v - bad) <= 1e-12 * max(1.0, q):
                return False
    return True


def max_relation_residual(rep: Representation) -> float:
    """Largest entrywise violation of the quadratic and braid relations;
    NaN if any entry is NaN."""
    m0, m1, m2 = rep.gens
    quad = rep.q ** 0.5 - rep.q ** -0.5
    eye = np.eye(rep.dim)
    residuals = [np.abs(m @ m - eye - quad * m).max() for m in rep.gens]
    residuals += [np.abs(a @ b @ a - b @ a @ b).max()
                  for a, b in ((m0, m1), (m1, m2), (m0, m2))]
    return float(np.max(residuals))
