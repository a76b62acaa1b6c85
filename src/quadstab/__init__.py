"""Exact symbolic toolkit for the blown-up one-node quadric threefold.

Computes intersection theory, line-bundle cohomology, graded Hom spaces,
exceptional-collection mutations, integer K-theory lattices, and stability
machinery for the projective bundle P(O + O(a,b)) over P^1 x P^1, together
with a check harness that replays every golden identity.

The package re-exports nothing: import each name from the module that
defines it, for example ``from quadstab.calculus import Calculus``.
"""
