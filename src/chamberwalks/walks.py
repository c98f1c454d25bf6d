"""Positively folded gallery enumeration and the expansions it computes.

A gallery of a fixed reduced type word proceeds alcove by alcove; at each
letter it either crosses the indicated wall (always permitted, tagged with
the exact crossing sign) or folds on it, which is permitted only when the
current alcove lies on the positive side of the wall.  Enumeration order is
fold-before-cross, depth-first, so output is reproducible.

The package's consumer is the standard-to-Bernstein base change (every T_w
is a signed-free sum of gallery endpoint elements weighted by a power of
q^(1/2) - q^(-1/2) counting folds).  The tests build a second one from the
same galleries, the principal-series matrix elements, as an oracle for the
modules of ``reps``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import hecke, weyl
from .weyl import AffineElement, IDENTITY

__all__ = ["AlcoveWalk", "enumerate_walks", "q_statistic", "expand_t"]


@dataclass(frozen=True)
class AlcoveWalk:
    """One positively folded gallery: start alcove, type word, step tags
    ('C+', 'C-', or 'F<type>'), cached end alcove and per-type fold counts."""

    start: AffineElement
    type_word: tuple
    tags: tuple
    end: AffineElement
    folds: tuple

    @property
    def weight(self):
        """Lattice part of the end alcove."""
        return self.end.mu

    @property
    def direction(self) -> int:
        """Finite part of the end alcove."""
        return self.end.u

    @property
    def fold_count(self) -> int:
        return sum(self.folds)


def enumerate_walks(type_word, start: AffineElement = IDENTITY):
    """All positively folded galleries of the given reduced type word.

    Raises ValueError when the word is not reduced (the expansion formulas
    are only valid for reduced words).
    """
    type_word = tuple(type_word)
    if not weyl.is_reduced(type_word):
        raise ValueError(f"type word {type_word} is not reduced")

    out = []

    def dfs(k, alcove, tags, folds):
        if k == len(type_word):
            out.append(
                AlcoveWalk(start, type_word, tuple(tags), alcove, tuple(folds))
            )
            return
        i = type_word[k]
        _, sign = weyl.crossing_data(alcove, i)
        if sign < 0:
            # on the positive side: folding is positive, hence allowed
            tags.append(f"F{i}")
            folds[i] += 1
            dfs(k + 1, alcove, tags, folds)
            tags.pop()
            folds[i] -= 1
            tags.append("C-")
        else:
            tags.append("C+")
        dfs(k + 1, weyl.right_mul_gen(alcove, i), tags, folds)
        tags.pop()

    dfs(0, start, [], [0, 0, 0])
    return out


def q_statistic(walk: AlcoveWalk, field):
    """(q^(1/2) - q^(-1/2))^(number of folds)."""
    c = field.one
    for _ in range(walk.fold_count):
        c = c * field.quad
    return c


def expand_t(w: AffineElement, field) -> hecke.HeckeElement:
    """T_w in the Bernstein basis via gallery enumeration: each gallery p
    contributes Q(p) x_{end(p)} with x_{t_mu u} = x^mu (T_{u^-1})^(-1)
    (the inverse sits on the index as well; fixed by the round-trip and
    cross-basis oracles)."""
    pairs = []
    for p in enumerate_walks(weyl.reduced_word(w)):
        c = q_statistic(p, field)
        inv = hecke.finite_inverse(field, weyl.w0_inv(p.direction))
        pairs += [((p.weight, z), c * cz) for z, cz in inv.items()]
    return hecke.x_element(field, pairs)

