"""Intersection theory and line-bundle cohomology on X = P(O + O(a,b)) over P^1 x P^1.

The threefold is fibered over the quadric surface E = P^1 x P^1.  Divisor
classes are written in the basis H (relative O(1) of the fibration), h and k
(pullbacks of the two rulings of E).  The Chow ring is

    h^2 = k^2 = 0,      H^2 = -a*H*h - b*H*k,      deg(H*h*k) = 1,

with all coefficients exact rationals.  A Chow element (ChowElement) is one
row of eight coefficients in the basis 1; H, h, k; Hh, Hk, hk; pt, the row
that six_chern_character returns, in integers, for 6 ch(O(D)).

The default twist (a, b) = (-1, -1) is the blow-up of the quadric threefold
with one ordinary double point; there the exceptional divisor class is
H - h - k and the canonical class is -2H - h - k.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional

Q = Fraction


class GeometryError(Exception):
    pass


_set = object.__setattr__


class Frozen:
    """Slotted base of immutable values.  The fields of a value are the
    __slots__ of its class: __init__ takes them positionally in that order
    and sets each once through _set.  A value equals only a value of its own
    class with equal fields and hashes as its field tuple, unless its class
    takes object's identity hash (the nodes); repr prints it as a dataclass.
    Each subclass is given its __eq__ here, from its own __slots__, so it
    states its fields once and defines no __init__, __eq__ or __hash__."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__hash__ is object.__hash__:
            return
        get = operator.attrgetter(*cls.__slots__) if cls.__slots__ else (lambda value: ())

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        cls.__eq__ = __eq__

    def __init__(self, *values):
        fields = self.__slots__
        if len(values) != len(fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(fields)} fields {fields}, got {len(values)}"
            )
        for field, value in zip(fields, values):
            _set(self, field, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild the value through __init__, which takes
        # the fields in slot order; the default sets each slot through
        # __setattr__, which refuses
        return type(self), self._values()


class GeometryConfig(NamedTuple):
    """Twist (a, b) of the bundle O + O(a, b) defining the threefold."""

    a: int = -1
    b: int = -1


class DivisorClass(NamedTuple):
    """Integer divisor class nH*H + nh*h + nk*k on the threefold."""

    nH: int = 0
    nh: int = 0
    nk: int = 0

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.nH + other.nH, self.nh + other.nh, self.nk + other.nk)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.nH - other.nH, self.nh - other.nh, self.nk - other.nk)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-self.nH, -self.nh, -self.nk)

    def __str__(self) -> str:
        parts = []
        for coeff, sym in ((self.nH, "H"), (self.nh, "h"), (self.nk, "k")):
            if coeff == 0:
                continue
            mag = "" if abs(coeff) == 1 else str(abs(coeff))
            parts.append(("-" if coeff < 0 else ("+" if parts else "")) + mag + sym)
        return "".join(parts) if parts else "0"


class SurfaceDivisor(NamedTuple):
    """Divisor class of O_E(d, e) on the quadric surface E."""

    d: int = 0
    e: int = 0

    def __add__(self, other: "SurfaceDivisor") -> "SurfaceDivisor":
        return SurfaceDivisor(self.d + other.d, self.e + other.e)

    def __sub__(self, other: "SurfaceDivisor") -> "SurfaceDivisor":
        return SurfaceDivisor(self.d - other.d, self.e - other.e)

    def __neg__(self) -> "SurfaceDivisor":
        return SurfaceDivisor(-self.d, -self.e)

    def __str__(self) -> str:
        return f"({self.d},{self.e})"


class _Vector(tuple):
    """A tuple of coefficients with entrywise vector arithmetic; each result
    is of the class of its left operand."""

    __slots__ = ()

    def __add__(self, other):
        return type(self)(map(operator.add, self, other))

    def __sub__(self, other):
        return type(self)(map(operator.sub, self, other))

    def __neg__(self):
        return type(self)(-x for x in self)

    def scale(self, t):
        return type(self)(t * x for x in self)

    def is_zero(self) -> bool:
        return not any(self)


class ChowElement(_Vector):
    """A Chow class with the ring relations already applied, as its eight
    exact coefficients in the order c0; H, h, k; Hh, Hk, hk; pt.

    This is the order of Geometry.six_chern_character, and the representation
    is unique.  Arithmetic is entrywise; c0, c1, c2 and c3 read the graded
    parts, c1 and c2 as tuples of three coefficients.
    """

    __slots__ = ()

    c0 = property(operator.itemgetter(0))
    c1 = property(operator.itemgetter(slice(1, 4)))
    c2 = property(operator.itemgetter(slice(4, 7)))
    c3 = property(operator.itemgetter(7))

    def dual(self) -> "ChowElement":
        """Negate the odd-degree parts (the Chern-character dual)."""
        c0, H, h, k, Hh, Hk, hk, pt = self
        return ChowElement((c0, -H, -h, -k, Hh, Hk, hk, -pt))

    @staticmethod
    def constant(t) -> "ChowElement":
        return ChowElement((Q(t),) + (Q(0),) * 7)

    @staticmethod
    def of_divisor(D: DivisorClass) -> "ChowElement":
        return ChowElement((Q(0), Q(D.nH), Q(D.nh), Q(D.nk)) + (Q(0),) * 4)

    def __str__(self) -> str:
        return "{} + ({})H+({})h+({})k + ({})Hh+({})Hk+({})hk + ({})pt".format(*self)


ONE = ChowElement.constant(1)


class GradedDims:
    """Finite map degree -> dimension of a graded vector space.

    Stored as a dict that holds no zero dimension, so the empty map is the
    zero space and two maps are equal whatever order they were built in;
    items(), str() and repr() list the degrees in increasing order.  The
    constructor rejects a degree or a dimension that is not an integer, and
    a negative dimension.  translate, dual, +, join, meet, monus, les_sum and
    scale (by m >= 1) cannot make a zero or a negative entry, so they do not
    check again.  The map is never changed after it is built, so euler() is
    computed on first use and kept in a slot that equality and hash ignore.
    Every map is built with that slot set to None, so the first read is a
    test for None and raises nothing.
    """

    __slots__ = ("_dims", "_euler")

    def __init__(self, data: Optional[Mapping[int, int]] = None):
        dims = {}
        for deg, dim in (data or {}).items():
            try:
                deg, dim = operator.index(deg), operator.index(dim)
            except TypeError:
                raise GeometryError(f"non-integer degree or dimension {deg!r}: {dim!r}") from None
            if dim < 0:
                raise GeometryError(f"negative dimension {dim} in degree {deg}")
            if dim:
                dims[deg] = dim
        self._dims = dims
        self._euler = None

    @staticmethod
    def _of(dims: dict[int, int]) -> "GradedDims":
        """Wrap a dict of positive dimensions that no one else holds."""
        out = object.__new__(GradedDims)
        out._dims = dims
        out._euler = None
        return out

    @staticmethod
    def single(deg: int, dim: int = 1) -> "GradedDims":
        return GradedDims({deg: dim})

    def items(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._dims.items()))

    def get(self, deg: int) -> int:
        return self._dims.get(deg, 0)

    def is_zero(self) -> bool:
        return not self._dims

    def euler(self) -> int:
        if self._euler is None:
            self._euler = sum(v if d % 2 == 0 else -v for d, v in self._dims.items())
        return self._euler

    def translate(self, t: int) -> "GradedDims":
        return GradedDims._of({d + t: v for d, v in self._dims.items()})

    def dual(self, n: int) -> "GradedDims":
        """Dims of the dual space placed so degree i maps to n - i."""
        return GradedDims._of({n - d: v for d, v in self._dims.items()})

    def scale(self, m: int) -> "GradedDims":
        """The dims of m copies of the space, m >= 1."""
        return GradedDims._of({d: v * m for d, v in self._dims.items()})

    def __add__(self, other: "GradedDims") -> "GradedDims":
        if not other._dims:
            return self
        if not self._dims:
            return other
        out = dict(self._dims)
        for d, v in other._dims.items():
            out[d] = out.get(d, 0) + v
        return GradedDims._of(out)

    def join(self, other: "GradedDims") -> "GradedDims":
        """Degreewise maximum, over the union of the degrees."""
        if not other._dims:
            return self
        out = dict(self._dims)
        for d, v in other._dims.items():
            if v > out.get(d, 0):
                out[d] = v
        return GradedDims._of(out)

    def meet(self, other: "GradedDims") -> "GradedDims":
        """Degreewise minimum, over the intersection of the degrees."""
        a, b = self._dims, other._dims
        if len(b) < len(a):
            a, b = b, a
        return GradedDims._of({d: min(v, b[d]) for d, v in a.items() if d in b})

    def monus(self, other: "GradedDims") -> "GradedDims":
        """Degreewise truncated difference max(0, self - other)."""
        if not other._dims:
            return self
        b = other._dims
        return GradedDims._of(
            {d: v - b.get(d, 0) for d, v in self._dims.items() if v > b.get(d, 0)}
        )

    def les_sum(self, source: "GradedDims", rank: "GradedDims", shift: int) -> "GradedDims":
        """(self ∸ rank) + (source ∸ rank) moved up by `shift`, in one pass.

        This is what a long exact sequence leaves in each degree: the
        cokernel of a map of the given rank into self, plus its kernel in
        source, read `shift` degrees away.  With nothing to take away or
        add it returns self, so an exact value's shared map stays shared.
        """
        r = rank._dims
        if not r and not source._dims:
            return self
        out = {}
        for d, v in self._dims.items():
            v -= r.get(d, 0)
            if v > 0:
                out[d] = v
        for d, v in source._dims.items():
            v -= r.get(d, 0)
            if v > 0:
                d += shift
                out[d] = out.get(d, 0) + v
        return GradedDims._of(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedDims) and self._dims == other._dims

    def __hash__(self) -> int:
        return hash(frozenset(self._dims.items()))

    def __str__(self) -> str:
        return "{" + ", ".join(f"{d}: {v}" for d, v in self.items()) + "}"

    def __repr__(self) -> str:
        return f"GradedDims({dict(self.items())})"


def _add_surface_cohomology(dims: dict[int, int], d: int, e: int, shift: int) -> None:
    """Add the cohomology of O_E(d, e), moved up by `shift` degrees, into `dims`.

    O(n) on P^1 has n + 1 sections for n >= 0, -n - 1 classes in degree 1
    for n <= -2 and no cohomology for n = -1, so O_E(d, e) has one nonzero
    degree, (d < 0) + (e < 0), of dimension |(d + 1)(e + 1)|.
    """
    dim = abs((d + 1) * (e + 1))
    if dim:
        deg = shift + (d < 0) + (e < 0)
        dims[deg] = dims.get(deg, 0) + dim


class Geometry:
    """All intersection-theoretic and cohomological operations for one twist."""

    def __init__(self, config: GeometryConfig = GeometryConfig()):
        self.config = config
        self._todd: Optional[ChowElement] = None
        # c1, the curve class 2(c1^2 + c2) and the number c1 c2, all integral
        self._rr: Optional[tuple[tuple, tuple, int]] = None

    # -- Chow ring ---------------------------------------------------------

    def _curve_product(self, u: tuple, v: tuple) -> tuple:
        """(Hh, Hk, hk) coefficients of the product of two divisor classes.

        Uses H^2 = -a*Hh - b*Hk and h^2 = k^2 = 0.
        """
        a, b = self.config.a, self.config.b
        uH, uh, uk = u
        vH, vh, vk = v
        return (
            uH * vh + uh * vH - a * uH * vH,
            uH * vk + uk * vH - b * uH * vH,
            uh * vk + uk * vh,
        )

    def _point_product(self, u: tuple, v: tuple):
        """Degree of a divisor class u times a curve class v.

        Uses H*Hh = -b*pt, H*Hk = -a*pt, H*hk = h*Hk = k*Hh = pt and all
        other products zero.
        """
        a, b = self.config.a, self.config.b
        uH, uh, uk = u
        vHh, vHk, vhk = v
        return uH * (-b * vHh - a * vHk + vhk) + uh * vHk + uk * vHh

    def chow_mul(self, x: ChowElement, y: ChowElement) -> ChowElement:
        x0, x1, x2, x3 = x.c0, x.c1, x.c2, x.c3
        y0, y1, y2, y3 = y.c0, y.c1, y.c2, y.c3
        return ChowElement((
            x0 * y0,
            *(x0 * v + u * y0 for u, v in zip(x1, y1)),
            *(x0 * v + u * y0 + w for u, v, w in zip(x2, y2, self._curve_product(x1, y1))),
            x0 * y3 + x3 * y0 + self._point_product(x1, y2) + self._point_product(y1, x2),
        ))

    def degree(self, x: ChowElement) -> Q:
        return x.c3

    # -- distinguished classes ----------------------------------------------

    def canonical_class(self) -> DivisorClass:
        a, b = self.config.a, self.config.b
        return DivisorClass(-2, -(a + 2), -(b + 2))

    def exceptional_divisor_class(self) -> DivisorClass:
        a, b = self.config.a, self.config.b
        return DivisorClass(1, a, b)

    def restrict_to_E(self, D: DivisorClass) -> SurfaceDivisor:
        # H restricts trivially to the surface; h, k restrict to the rulings.
        return SurfaceDivisor(D.nh, D.nk)

    # -- characteristic classes ----------------------------------------------

    def six_chern_character(self, D: DivisorClass) -> tuple[int, ...]:
        """6 ch(O(D)) = (6, 6D, 3D^2, D^3) as eight integers, in ChowElement order."""
        d = (D.nH, D.nh, D.nk)
        d2 = self._curve_product(d, d)
        return (6, 6 * D.nH, 6 * D.nh, 6 * D.nk, 3 * d2[0], 3 * d2[1], 3 * d2[2],
                self._point_product(d, d2))

    def chern_character(self, D: DivisorClass) -> ChowElement:
        return ChowElement(Q(v, 6) for v in self.six_chern_character(D))

    def chern_classes(self) -> tuple[ChowElement, ChowElement]:
        """First and second Chern classes of the tangent bundle, with int entries."""
        a, b = self.config.a, self.config.b
        z = (0, 0, 0)
        # total Chern class of the tangent bundle: (1 + t1)(1 + 2h)(1 + 2k)
        # with t1 = 2H + a*h + b*k
        total = self.chow_mul(
            self.chow_mul(ChowElement((1, 2, a, b, *z, 0)), ChowElement((1, 0, 2, 0, *z, 0))),
            ChowElement((1, 0, 0, 2, *z, 0)),
        )
        return ChowElement((0, *total.c1, *z, 0)), ChowElement((0, *z, *total.c2, 0))

    def todd_class(self) -> ChowElement:
        if self._todd is not None:
            return self._todd
        c1, c2 = self.chern_classes()
        c1sq = self.chow_mul(c1, c1)
        c1c2 = self.chow_mul(c1, c2)
        td = (
            ONE
            + c1.scale(Q(1, 2))
            + (c1sq + c2).scale(Q(1, 12))
            + c1c2.scale(Q(1, 24))
        )
        self._todd = td
        return td

    # -- cohomology ----------------------------------------------------------

    @staticmethod
    def surface_cohomology(s: SurfaceDivisor) -> GradedDims:
        dims: dict[int, int] = {}
        _add_surface_cohomology(dims, s.d, s.e, 0)
        return GradedDims._of(dims)

    def pushforward_decomposition(
        self, D: DivisorClass
    ) -> tuple[Optional[int], list[SurfaceDivisor]]:
        """Decompose the derived pushforward of O(D) along the P^1-fibration.

        Returns (level, summands): level 0 for an honest pushforward, 1 for a
        first derived functor, None when the pushforward vanishes.
        """
        a, b = self.config.a, self.config.b
        n = D.nH
        if n >= 0:
            return 0, [SurfaceDivisor(D.nh - i * a, D.nk - i * b) for i in range(n + 1)]
        if n == -1:
            return None, []
        return 1, [SurfaceDivisor(D.nh + j * a, D.nk + j * b) for j in range(1, -n)]

    def threefold_cohomology(self, D: DivisorClass) -> GradedDims:
        """The cohomology of O(D), summed over the surface degrees of the
        pushforward_decomposition summands without building them."""
        a, b = self.config.a, self.config.b
        n, p, q = D.nH, D.nh, D.nk
        dims: dict[int, int] = {}
        if n >= 0:
            for i in range(n + 1):
                _add_surface_cohomology(dims, p - i * a, q - i * b, 0)
        else:
            for j in range(1, -n):
                _add_surface_cohomology(dims, p + j * a, q + j * b, 1)
        return GradedDims._of(dims)

    # -- Riemann-Roch ---------------------------------------------------------

    def euler_characteristic(self, D: DivisorClass) -> int:
        """chi(O(D)) by integer Hirzebruch-Riemann-Roch.

        24 chi = D (D (4D + 6c1) + 2(c1^2 + c2)) + c1 c2 with c1, c2 the
        Chern classes of the tangent bundle; every product is integral.
        The divisor class 4D + 6c1 and the curve class D (4D + 6c1) +
        2(c1^2 + c2) are written out coefficient by coefficient, and the
        ring relations are those of _curve_product and _point_product.
        Raises GeometryError if the right side is not divisible by 24.
        """
        if self._rr is None:
            c1, c2 = self.chern_classes()
            curve = tuple(2 * (x + y) for x, y in zip(self.chow_mul(c1, c1).c2, c2.c2))
            self._rr = (c1.c1, curve, self.degree(self.chow_mul(c1, c2)))
        (cH, ch, ck), (vHh, vHk, vhk), c1c2 = self._rr
        nH, nh, nk = D
        Hh, Hk, hk = self._curve_product(D, (4 * nH + 6 * cH, 4 * nh + 6 * ch, 4 * nk + 6 * ck))
        chi, rest = divmod(self._point_product(D, (Hh + vHh, Hk + vHk, hk + vhk)) + c1c2, 24)
        if rest:
            raise GeometryError(f"chi(O({D})) is not an integer")
        return chi

    def hrr_euler(self, x: ChowElement, y: ChowElement) -> Q:
        """The rational Riemann-Roch pairing deg(ch(x)^dual ch(y) td)."""
        return self.degree(self.chow_mul(self.chow_mul(x.dual(), y), self.todd_class()))
