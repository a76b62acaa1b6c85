"""Reference functions that only the tests use; the package does not need them."""

from typing import Sequence

from quadstab.lattice import LatticeQuotient


def project(q: LatticeQuotient, source_coords: Sequence[int]) -> tuple[int, ...]:
    """The image in Z^rank of a vector given in the source lattice's basis."""
    cols = len(q.projection[0]) if q.projection else 0
    return tuple(
        sum(q.projection[i][j] * source_coords[i] for i in range(len(source_coords)))
        for j in range(cols)
    )
