"""Numerical K-theory as an integer lattice of rank 8 with the Euler pairing.

A K-theory class is a vector in Z^8: its coordinates in the fixed basis of
the eight line bundles O, O(h), O(k), O(h+k), O(H), O(H+h), O(H+k),
O(H+h+k).  Line classes are computed in closed form from the relations of
the K-ring; a tensor product with a line bundle, and so the Serre twist, is
linear over the line-bundle basis.  The Euler pairing is x^T G y with an
integer Gram matrix G of values chi(O(D)) from Geometry.euler_characteristic,
the one integer Hirzebruch-Riemann-Roch of the program (it also feeds the
props.hrr-vs-cohomology check).  The covector x^T G of each left argument is
computed once and kept, so a pairing is one dot product of eight integers.
The rational pairing Geometry.hrr_euler on Chern characters is only the test
oracle these are checked against.  The Chern character of a class (chern)
and the basis determinant are computed from the integer rows 6 ch(O(D)) of
the basis line bundles, and divided by 6, or by 6^8, once at the end.
Sublattices are kept in Hermite normal form, integer systems are solved
against it (integer_solution), and quotients are computed by a Smith normal
form built from alternating row and column Hermite forms.  The determinant
of a rational matrix is taken by fraction-free integer elimination.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, NamedTuple, Optional, Sequence

from .geometry import ChowElement, DivisorClass, Frozen, Geometry, SurfaceDivisor, Q, _set, _Vector


class LatticeError(Exception):
    pass


# ---------------------------------------------------------------------------
# exact linear algebra helpers
# ---------------------------------------------------------------------------


def rational_inverse(matrix: Sequence[Sequence[Q]]) -> list[list[Q]]:
    """Invert a square matrix over the rationals (a test oracle)."""
    n = len(matrix)
    aug = [[Q(v) for v in row] + [Q(1) if i == j else Q(0) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise LatticeError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def rational_determinant(matrix: Sequence[Sequence[Q]]) -> Q:
    """Determinant of a square rational matrix, without fractions on the way.

    Each row is scaled by the lcm of its denominators, fraction-free
    (Bareiss) elimination runs over the integers, and the determinant is
    divided by the product of the row scales at the end.
    """
    rows = [[Q(v) for v in row] for row in matrix]
    scales = [math.lcm(*(v.denominator for v in row)) for row in rows]
    m = [[int(v * s) for v in row] for row, s in zip(rows, scales)]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return Q(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            m[i] = [(x * m[k][k] - m[i][k] * y) // prev for x, y in zip(m[i], m[k])]
        prev = m[k][k]
    return Q(sign * m[-1][-1] if n else 1, math.prod(scales))


def solve_rational(matrix: Sequence[Sequence[Q]], rhs: Sequence[Q]) -> Optional[list[Q]]:
    """Solve x * matrix = rhs for a row vector x (matrix rows = generators).

    Returns None when the system has no solution.  The matrix may have more
    columns than rows; all equations are verified against the solution.
    The test oracle for integer_solution.
    """
    rows = [list(map(Q, r)) for r in matrix]
    m = len(rows)
    if m == 0:
        return [] if all(v == 0 for v in rhs) else None
    n = len(rows[0])
    # Gaussian elimination on the transposed system matrix^T * x^T = rhs^T.
    aug = [[rows[r][c] for r in range(m)] + [Q(rhs[c])] for c in range(n)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(m):
        pivot = next((r for r in range(row, n) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[row])]
        pivots.append((row, col))
        row += 1
        if row == n:
            break
    for r in range(row, n):
        if aug[r][m] != 0:
            return None
    x = [Q(0)] * m
    for r, c in pivots:
        x[c] = aug[r][m]
    # verify (guards the case row == n with unused equations)
    for c in range(n):
        if sum(x[r] * rows[r][c] for r in range(m)) != rhs[c]:
            return None
    return x


def hnf_with_transform(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form H of the matrix, with unimodular U, U*M = H'.

    H is returned without its zero rows; U is square of size len(rows) and
    its trailing rows span the left kernel.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(map(int, r)) for r in rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    row = 0
    for col in range(n):
        pivot = None
        for r in range(row, m):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        u[row], u[pivot] = u[pivot], u[row]
        for r in range(row + 1, m):
            while a[r][col] != 0:
                if abs(a[row][col]) > abs(a[r][col]):
                    a[row], a[r] = a[r], a[row]
                    u[row], u[r] = u[r], u[row]
                q = a[r][col] // a[row][col]
                a[r] = [v - q * w for v, w in zip(a[r], a[row])]
                u[r] = [v - q * w for v, w in zip(u[r], u[row])]
        if a[row][col] < 0:
            a[row] = [-v for v in a[row]]
            u[row] = [-v for v in u[row]]
        for r in range(row):
            q = a[r][col] // a[row][col]
            if q:
                a[r] = [v - q * w for v, w in zip(a[r], a[row])]
                u[r] = [v - q * w for v, w in zip(u[r], u[row])]
        row += 1
        if row == m:
            break
    return [a[r] for r in range(row)], u


def integer_kernel(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of {x : x * M = 0} for row vectors x over the integers."""
    m = len(rows)
    if m == 0:
        return []
    h, u = hnf_with_transform(rows)
    return [u[r] for r in range(len(h), m)]


def integer_solution(rows: Sequence[Sequence[int]], target: Sequence[int]) -> Optional[list[int]]:
    """An integer row vector x with x * M = target (M's rows = generators), or None.

    Back-substitution against the Hermite normal form H = U*M gives the
    coordinates y of the target over the rows of H, and x = y * U.  When the
    rows are independent x is the only solution.
    """
    if rows and len(target) != len(rows[0]):
        raise LatticeError(f"target length {len(target)} != row length {len(rows[0])}")
    h, u = hnf_with_transform(rows)
    rest = list(map(int, target))
    y = []
    for row in h:
        col = next(i for i, x in enumerate(row) if x)
        q, r = divmod(rest[col], row[col])
        if r:
            return None
        y.append(q)
        rest = [x - q * v for x, v in zip(rest, row)]
    if any(rest):
        return None
    return [sum(c * u[i][j] for i, c in enumerate(y)) for j in range(len(rows))]


def _matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    return [[sum(map(operator.mul, row, col)) for col in zip(*b)] for row in a]


def smith_normal_form(
    rows: Sequence[Sequence[int]],
) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Invariant factors of the matrix plus unimodular U, V with U*M*V diagonal.

    The diagonal starts with the positive invariants, each dividing the next.
    Row Hermite forms of the matrix and of its transpose alternate until it
    is diagonal (Cohen, Computational Algebraic Number Theory, 2.4).  While
    some d_i fails to divide a later d_j, column j is added into column i;
    the next row form replaces d_i by gcd(d_i, d_j), a proper divisor.
    """
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    if not (m and n):
        return [], u, v
    while True:
        h, t = hnf_with_transform(a)
        u = _matmul(t, u)
        h, t = hnf_with_transform([list(c) for c in zip(*h + [[0] * n] * (m - len(h)))])
        v = _matmul(v, list(zip(*t)))
        a = [list(c) for c in zip(*h + [[0] * m] * (n - len(h)))]
        if any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            continue
        d = [a[i][i] for i in range(min(m, n)) if a[i][i]]
        stray = next(((i, j) for j in range(len(d)) for i in range(j) if d[j] % d[i]), None)
        if stray is None:
            return d, u, v
        i, j = stray
        for row in a + v:
            row[i] += row[j]


# ---------------------------------------------------------------------------
# K-theory classes
# ---------------------------------------------------------------------------

SOD1_DIVISORS: tuple[DivisorClass, ...] = (
    DivisorClass(0, 0, 0),
    DivisorClass(0, 1, 0),
    DivisorClass(0, 0, 1),
    DivisorClass(0, 1, 1),
    DivisorClass(1, 0, 0),
    DivisorClass(1, 1, 0),
    DivisorClass(1, 0, 1),
    DivisorClass(1, 1, 1),
)


class KClass(_Vector):
    """A numerical K-theory class: its eight integer coordinates in the basis
    of line bundles O(D), D in SOD1_DIVISORS, with vector arithmetic."""

    __slots__ = ()

    def rank(self) -> int:
        # every basis line bundle has rank one
        return sum(self)


def _superset_sums(v: Sequence[int]) -> list[int]:
    """Monomial coordinates x^i y^j z^k of a class given in the nilpotent
    basis (x-1)^i (y-1)^j (z-1)^k.

    Index 4i + j + 2k is the SOD1_DIVISORS position of O(iH + jh + kk).
    """
    v = list(v)
    for bit in (1, 2, 4):
        for i in range(8):
            if not i & bit:
                v[i] -= v[i | bit]
    return v


class KTheory:
    """Integer arithmetic in the rank-8 numerical K-theory lattice.

    With x = [O(H)], y = [O(h)], z = [O(k)] the K-ring is
    Z[x, y, z] / ((y-1)^2, (z-1)^2, (x-1)(x-L)),  L = [O(-a*h - b*k)],
    and its additive basis x^i y^j z^k (i, j, k in {0, 1}) is the line-bundle
    basis SOD1_DIVISORS.  Line classes come from these relations, and a
    tensor product with O(D) by linearity over the line-bundle basis; the
    Euler pairing from an integer Gram matrix built on first
    use by Hirzebruch-Riemann-Roch, as the covector x^T G, memoized per
    class x, dotted with y.  gram_matrix computes one covector per row, and
    euler_pairings one per distinct left class of its pairs; neither keeps
    it, so the memo holds only left arguments of euler_pairing.
    """

    def __init__(self, geometry: Geometry):
        self.geometry = geometry
        self._lines: dict[DivisorClass, KClass] = {}
        self._gram: Optional[list[list[int]]] = None
        self._covectors: dict[KClass, tuple[int, ...]] = {}

    # -- constructors --------------------------------------------------------

    def line_class(self, D: DivisorClass) -> KClass:
        """[O(D)] = x^n y^p z^q for D = nH + ph + qk, in closed form.

        Write u = x-1, v = y-1, w = z-1, so v^2 = w^2 = 0 and y^p z^q is
        (1 + pv)(1 + qw).  In the K-ring x^n = 1 + B_n u with
        B_n = (L^n - 1)/(L - 1) = sum_{m<n} L^m and L^m = (1 - amv)(1 - bmw),
        so B_n = n - a*s1*v - b*s1*w + ab*s2*vw with s1 = sum m, s2 = sum m^2.
        """
        cached = self._lines.get(D)
        if cached is not None:
            return cached
        a, b = self.geometry.config.a, self.geometry.config.b
        n, p, q = D.nH, D.nh, D.nk
        s1 = n * (n - 1) // 2
        s2 = n * (n - 1) * (2 * n - 1) // 6
        b0, b1, b2, b3 = n, -a * s1, -b * s1, a * b * s2
        nilpotent = (
            1, p, q, p * q,
            b0, b0 * p + b1, b0 * q + b2, b0 * p * q + b1 * q + b2 * p + b3,
        )
        out = KClass(_superset_sums(nilpotent))
        self._lines[D] = out
        return out

    def pushforward_class(self, beta: SurfaceDivisor) -> KClass:
        """Class of the surface sheaf O_E(beta) pushed into the threefold."""
        lift = DivisorClass(0, beta.d, beta.e)
        E = self.geometry.exceptional_divisor_class()
        return self.line_class(lift) - self.line_class(lift - E)

    def unit(self) -> KClass:
        return self.line_class(DivisorClass(0, 0, 0))

    def tensor_line(self, x: KClass, D: DivisorClass) -> KClass:
        """x (x) O(D) = sum_i x_i [O(D_i + D)] over the basis D_i.

        The product is linear in x, and [O(D_i)] [O(D)] = [O(D_i + D)].
        """
        out = [0] * 8
        for c, Di in zip(x, SOD1_DIVISORS):
            if c:
                for t, v in enumerate(self.line_class(Di + D)):
                    out[t] += c * v
        return KClass(out)

    # -- pairing and Serre twist ----------------------------------------------

    def _gram_rows(self) -> list[list[int]]:
        """G[i][j] = chi(O(D_i), O(D_j)) = chi(O(D_j - D_i)) on SOD1_DIVISORS.

        D_j - D_i runs over the 27 classes of {-1, 0, 1}^3, so
        Geometry.euler_characteristic is called once for each of those and
        the 64 entries are read from them.
        """
        if self._gram is None:
            euler = self.geometry.euler_characteristic
            chi = {d: euler(DivisorClass(*d)) for d in itertools.product((-1, 0, 1), repeat=3)}
            self._gram = [
                [chi[Dj.nH - Di.nH, Dj.nh - Di.nh, Dj.nk - Di.nk] for Dj in SOD1_DIVISORS]
                for Di in SOD1_DIVISORS
            ]
        return self._gram

    def _covector(self, x: KClass) -> tuple[int, ...]:
        """The row vector x^T G."""
        return tuple(sum(map(operator.mul, x, column)) for column in zip(*self._gram_rows()))

    def euler_pairing(self, x: KClass, y: KClass) -> int:
        """chi(x, y) = x^T G y, as the covector x^T G (kept per x) dotted with y."""
        covector = self._covectors.get(x)
        if covector is None:
            covector = self._covectors[x] = self._covector(x)
        return sum(map(operator.mul, covector, y))

    def serre_class(self, x: KClass) -> KClass:
        return -self.tensor_line(x, self.geometry.canonical_class())

    # -- class-level mutations -------------------------------------------------

    def _require_exceptional(self, e: KClass) -> None:
        chi = self.euler_pairing(e, e)
        if chi != 1:
            raise LatticeError(f"class is not exceptional: chi(e,e) = {chi}")

    def mutate_class_left(self, e: KClass, x: KClass) -> KClass:
        self._require_exceptional(e)
        return x - e.scale(self.euler_pairing(e, x))

    def mutate_class_right(self, x: KClass, e: KClass) -> KClass:
        self._require_exceptional(e)
        return x - e.scale(self.euler_pairing(x, e))

    def gram_matrix(self, classes: Sequence[KClass]) -> list[list[int]]:
        """[[chi(x, y) for y] for x], one covector x^T G per row, not kept."""
        return [[sum(map(operator.mul, c, y)) for y in classes] for c in map(self._covector, classes)]

    def euler_pairings(self, pairs: Iterable[tuple[KClass, KClass]]) -> list[int]:
        """[chi(x, y) for x, y in pairs], one covector x^T G per distinct x, not kept."""
        covectors: dict[KClass, tuple[int, ...]] = {}
        out = []
        for x, y in pairs:
            covector = covectors.get(x)
            if covector is None:
                covector = covectors[x] = self._covector(x)
            out.append(sum(map(operator.mul, covector, y)))
        return out

    # -- integral coordinates ----------------------------------------------------

    def sod1_classes(self) -> list[KClass]:
        return [self.line_class(D) for D in SOD1_DIVISORS]

    def basis_determinant(self) -> Q:
        """Determinant of the Chern characters of the basis line bundles: that
        of their integer rows 6 ch(O(D)), divided by 6^8."""
        g = self.geometry
        return rational_determinant([g.six_chern_character(D) for D in SOD1_DIVISORS]) / 6 ** 8

    def coordinates(self, x: KClass) -> tuple[int, ...]:
        """Coordinates of the class in the fixed line-bundle basis."""
        return tuple(x)

    def from_coordinates(self, coords: Sequence) -> KClass:
        """The class with the given basis coordinates.

        Raises LatticeError unless there are eight entries and each is an
        integer (an int, or a Fraction with denominator 1).
        """
        if len(coords) != 8:
            raise LatticeError(f"expected 8 coordinates, got {len(coords)}")
        for c in coords:
            if getattr(c, "denominator", None) != 1:
                raise LatticeError(f"non-integral coordinate {c!r}")
        return KClass(int(c) for c in coords)

    def chern(self, x: KClass) -> ChowElement:
        """Chern character sum_i x_i ch(O(D_i)) of the class.

        The sum runs over the integer rows 6 ch(O(D_i)) and is divided by 6
        once, at the end.
        """
        rows = [self.geometry.six_chern_character(D) for D in SOD1_DIVISORS]
        return ChowElement(Q(sum(map(operator.mul, x, column)), 6) for column in zip(*rows))


# ---------------------------------------------------------------------------
# integer lattices
# ---------------------------------------------------------------------------


class IntegerLattice(Frozen):
    """Sublattice of Z^n given by generator rows, canonicalized by HNF, so
    two lattices are equal exactly when their ambient ranks and HNF rows are."""

    __slots__ = ("ambient_rank", "hnf")

    def __init__(self, ambient_rank: int, generators: Iterable[Sequence[int]] = ()):
        ambient_rank = int(ambient_rank)
        gens = [list(map(int, g)) for g in generators]
        for g in gens:
            if len(g) != ambient_rank:
                raise LatticeError(f"generator length {len(g)} != ambient rank {ambient_rank}")
        hnf, _ = hnf_with_transform(gens) if gens else ([], [])
        _set(self, "ambient_rank", ambient_rank)
        _set(self, "hnf", tuple(tuple(r) for r in hnf))

    @property
    def rank(self) -> int:
        return len(self.hnf)

    def member(self, vec: Sequence[int]) -> bool:
        if len(vec) != self.ambient_rank:
            raise LatticeError("vector length does not match ambient rank")
        return self.basis_coordinates(vec) is not None

    def contains_lattice(self, other: "IntegerLattice") -> bool:
        return all(self.member(row) for row in other.hnf)

    def intersection(self, other: "IntegerLattice") -> "IntegerLattice":
        if self.ambient_rank != other.ambient_rank:
            raise LatticeError("ambient ranks differ")
        a = [list(r) for r in self.hnf]
        b = [list(r) for r in other.hnf]
        stacked = a + [[-x for x in row] for row in b]
        kernel = integer_kernel(stacked)
        gens = []
        for coeffs in kernel:
            vec = [0] * self.ambient_rank
            for c, row in zip(coeffs[: len(a)], a):
                vec = [x + c * y for x, y in zip(vec, row)]
            gens.append(vec)
        return IntegerLattice(self.ambient_rank, gens)

    def basis_coordinates(self, vec: Sequence[int]) -> Optional[list[int]]:
        """Integer coordinates of a vector in the HNF basis, or None."""
        return integer_solution(self.hnf, vec)

    def __str__(self) -> str:
        rows = ", ".join("[" + ", ".join(map(str, r)) + "]" for r in self.hnf)
        return f"lattice(rank {self.rank} in Z^{self.ambient_rank}: {rows})"


class LatticeQuotient(NamedTuple):
    """Quotient of a lattice by a sublattice, via Smith normal form."""

    source: IntegerLattice
    kernel: IntegerLattice
    rank: int
    torsion: tuple[int, ...]
    projection: tuple[tuple[int, ...], ...]  # source-basis coords -> Z^rank
    lift: tuple[tuple[int, ...], ...]  # rows: source-basis coords per free generator


def quotient(source: IntegerLattice, kernel: IntegerLattice) -> LatticeQuotient:
    r = source.rank
    rows = []
    for row in kernel.hnf:
        coords = source.basis_coordinates(row)
        if coords is None:
            raise LatticeError("kernel is not contained in the source lattice")
        rows.append(coords)
    if not rows:
        invariants: list[int] = []
        v = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    else:
        invariants, _, v = smith_normal_form(rows)
    s = len(invariants)
    torsion = tuple(d for d in invariants if d > 1)
    projection = tuple(tuple(v[i][j] for j in range(s, r)) for i in range(r))
    lift_rows = []
    for j in range(s, r):
        # row j of V^-1; V is unimodular, so the solve always succeeds
        row = integer_solution(v, [1 if i == j else 0 for i in range(r)])
        if row is None:
            raise LatticeError("non-integral quotient lift")
        lift_rows.append(tuple(row))
    return LatticeQuotient(
        source=source,
        kernel=kernel,
        rank=r - s,
        torsion=torsion,
        projection=projection,
        lift=tuple(lift_rows),
    )


def lattice_from(ktheory: KTheory, classes: Sequence[KClass]) -> IntegerLattice:
    return IntegerLattice(8, [ktheory.coordinates(c) for c in classes])
