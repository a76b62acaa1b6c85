"""Reference functions that only the tests use; the package does not need them."""

import configparser
from fractions import Fraction
from typing import Sequence

from quadstab.geometry import ChowElement, DivisorClass, Geometry
from quadstab.lattice import KClass, LatticeQuotient


def project(q: LatticeQuotient, source_coords: Sequence[int]) -> tuple[int, ...]:
    """The image in Z^rank of a vector given in the source lattice's basis."""
    cols = len(q.projection[0]) if q.projection else 0
    return tuple(
        sum(q.projection[i][j] * source_coords[i] for i in range(len(source_coords)))
        for j in range(cols)
    )


def chern_character(g: Geometry, D: DivisorClass) -> ChowElement:
    """ch(O(D)) = 1 + D + D^2/2 + D^3/6, by Fraction arithmetic in the Chow ring."""
    d = ChowElement.of_divisor(D)
    d2 = g.chow_mul(d, d)
    d3 = g.chow_mul(d2, d)
    return ChowElement.constant(1) + d + d2.scale(Fraction(1, 2)) + d3.scale(Fraction(1, 6))


def class_chern_character(basis: Sequence[ChowElement], x: KClass) -> ChowElement:
    """sum_i x_i ch(O(D_i)), one Chow sum per term, given the Chern
    characters of the line-bundle basis SOD1_DIVISORS in order."""
    total = ChowElement.constant(0)
    for c, ch in zip(x, basis):
        total = total + ch.scale(c)
    return total


def p1_cohomology(n: int) -> dict[int, int]:
    """Cohomology dimensions of O(n) on P^1."""
    if n >= 0:
        return {0: n + 1}
    if n <= -2:
        return {1: -n - 1}
    return {}


def threefold_cohomology(g: Geometry, D: DivisorClass) -> dict[int, int]:
    """The cohomology of O(D) as the sum, over the pushforward_decomposition
    summands O_E(d, e), of the products of the P^1 cohomologies, moved up
    by the level."""
    level, summands = g.pushforward_decomposition(D)
    dims: dict[int, int] = {}
    for s in summands:
        for i, di in p1_cohomology(s.d).items():
            for j, dj in p1_cohomology(s.e).items():
                dims[i + j + level] = dims.get(i + j + level, 0) + di * dj
    return dims


def configparser_sections(text: str) -> dict[str, dict[str, str]]:
    """The section -> key -> value map that configparser reads from an INI
    text, with the settings the harness once used: '=' the only delimiter,
    '#' the only comment prefix, no interpolation and keys kept as written.
    [DEFAULT] holds its own keys only, and is left out when it holds none.
    Raises configparser.Error for a text that configparser refuses."""
    parser = configparser.ConfigParser(delimiters=("=",), comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str
    parser.read_string(text)
    defaults = dict(parser.defaults())
    for key in defaults:  # else every section would list them as its own
        parser.remove_option(parser.default_section, key)
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    return {parser.default_section: defaults, **sections} if defaults else sections
