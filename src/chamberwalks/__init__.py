"""Exact Hecke-algebra engine and spectral toolkit for radial chamber walks
on thick triangle buildings: affine Weyl group combinatorics, two-basis
exact algebra over Q(sqrt(q)), folded-gallery expansions, explicit finite
dimensional modules, torus-quadrature trace decomposition, and the local
limit estimate for the uniform nearest-neighbour walk."""

from . import hecke, limit, plancherel, reps, serialize, walks, weyl

__all__ = ["weyl", "hecke", "walks", "reps", "plancherel", "limit",
           "serialize"]
__version__ = "0.1.0"
