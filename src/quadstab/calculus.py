"""Graded Hom computation and mutation calculus for formal derived objects.

RHom between two expression trees is computed by structural recursion.  Two
atoms reduce to line-bundle cohomology on the threefold or the surface (with
a Serre-duality transport when the surface sheaf sits on the left, and a
two-term resolution when both atoms sit on the surface); shifts and sums
unfold into their parts.  Every other pair is a cone against an atom or a
cone, and _candidates tries its rules in this order:

1. the defining orthogonality RHom(e, L_e x) = 0 = RHom(R_e x, e) of
   mutations, which settles the value alone;
2. the adjunction RHom(L_e x, L_e y) = RHom(x, y), valid when
   RHom(x, e) = 0, and its twin for right mutations;
3. the long exact sequence of a cone in the second argument, once per
   presentation of that argument as a cone;
4. the long exact sequence of a cone in the first argument, likewise;
5. one Serre-duality hop, which transports the query to the other side;
   the LES sub-queries of a pair under a hop stay on that side and never
   hop again.

An LES bound is exact in the degrees where every connecting map has forced
rank: rank 0 when one side vanishes, and rank at least one when one
argument equals a cone vertex up to shift and the triangle map is canonical
(identity tracking).  The candidates are merged until the value is
determined; otherwise it is ambiguous, with degreewise bounds and the exact
Euler number.

Every graded value, from an atom's cohomology to the answer of rhom, is one
RHomResult: degreewise lower and upper bounds (GradedDims, the upper one
possibly unknown) and the Euler number.  A pair met again while it is in
progress answers the trivial sound bound, so an undecided value is always
an ambiguous RHomResult; determined_dims is the only code that turns one
into an exception (PreconditionError), for a step that needs the value.
Two memos hold these values.  Atom values are keyed by the kind and the
integer differences of the atoms' coefficients, since line-bundle and O_E
cohomology is translation invariant: RHom(O(D1), O(D2)) = H*(O(D2 - D1)),
and likewise for the three mixed kinds.  Composite pairs are keyed by
(X, Y, transport), since their rules recurse and may take a Serre hop.  A
sum is unfolded once per distinct child, whose value is scaled by the
number of times it occurs.  Keeping a hop's sub-queries on the dual side
loses nothing: for X = cone(S -> T), the hop of RHom(X, Y) meets the
sub-query RHom(Y, S (x) omega), whose own hop would land on
RHom(S (x) omega, Y (x) omega) = RHom(S, Y) by twist invariance, and the
direct side of the same query computes RHom(S, Y) as its own LES
sub-query; likewise for a cone in the other argument.
Beside them the Calculus memoizes per node its K-class, its twists by a
line bundle, its presentations, its normal form and, for a sum, its distinct
children with their multiplicities, so a tree shared by many queries (a
named object, a Serre-twisted argument) is walked once and a sum is grouped
once however often it is unfolded; a normalization that raises is not kept,
so it raises again on the next call.

Every walk over the node kinds reads a node's exact class (type(x) is Cone),
never isinstance: the eight node classes are final and hash-consed
(expressions.py), so a node's class is its kind and equal nodes are one
object, which also lets two unshifted nodes be compared by identity alone.

Ambiguity is a value, never a silent guess; every returned Euler number is
recomputed independently as the K-theory pairing x^T G y, with G the integer
Gram matrix of the line-bundle basis from Hirzebruch-Riemann-Roch.  A broken
invariant (two bounds of one pair with different Euler numbers, a lower
bound above an upper one) raises SoundnessError, also under python -O.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, NamedTuple, Optional, Sequence

from .geometry import DivisorClass, Geometry, GradedDims, SurfaceDivisor
from .lattice import SOD1_DIVISORS, KClass, KTheory
from .expressions import (
    Cone,
    FormalObject,
    LineAtom,
    MutateLeftNode,
    MutateRightNode,
    ParseError,
    PushAtom,
    Shift,
    Sum,
    Zero,
    pair,
    pretty,
    shifted,
    strip_shift,
)


class PreconditionError(Exception):
    pass


class SoundnessError(Exception):
    """An internal invariant of the calculus failed; raised also under -O."""


# Largest number of copies of e, over all degrees, in the evaluation or
# coevaluation cone of a mutation or the universal extension of a tilt.  The
# count is the dimension of a Hom space, which grows like the cube of a
# divisor coefficient: RHom(O, O(nH)) for n = 10,000 (inside MAX_COEFFICIENT)
# has dimension 333,483,355,001.
MAX_COPIES = 10_000


class CopyLimitError(ParseError):
    """A mutation or a tilt would hold more than MAX_COPIES copies of one
    object: like the parser's limits, it refuses an input as too large."""


# Most characters of an argument tree that an error message prints; a tree
# of MAX_NODES nodes prints as tens of kilobytes.
MAX_SHOWN = 200


def _shown(x: FormalObject) -> str:
    """The printed tree x for a message, cut after MAX_SHOWN characters."""
    text = pretty(x)
    return text if len(text) <= MAX_SHOWN else text[:MAX_SHOWN] + "..."


class RHomResult(NamedTuple):
    """Graded Hom value: degreewise lower and upper bounds and the Euler number.

    `hi` is None when no upper bound is known.  The value is determined when
    the bounds meet: then `status` is 'determined' and `dims` the common
    bound; otherwise `status` is 'ambiguous', `dims` None and `bounds` the
    pair (lo, hi).  Every bound is sound, so merging two results for the
    same pair keeps the larger lower and the smaller upper bound.
    """

    lo: GradedDims
    hi: Optional[GradedDims]
    euler: int

    @staticmethod
    def exact(dims: GradedDims) -> "RHomResult":
        return RHomResult(dims, dims, dims.euler())

    @property
    def determined(self) -> bool:
        return self.hi is not None and (self.lo is self.hi or self.lo == self.hi)

    @property
    def status(self) -> str:
        return "determined" if self.determined else "ambiguous"

    @property
    def dims(self) -> Optional[GradedDims]:
        return self.hi if self.determined else None

    @property
    def bounds(self) -> Optional[tuple[GradedDims, Optional[GradedDims]]]:
        return None if self.determined else (self.lo, self.hi)

    def is_empty(self) -> bool:
        return self.determined and self.hi.is_zero()

    def __str__(self) -> str:
        if self.determined:
            return str(self.hi)
        return f"ambiguous(euler={self.euler}, lower={self.lo}, upper={self.hi})"

    def _regrade(self, op, n: int) -> "RHomResult":
        """Both bounds mapped by op(dims, n), an exact value kept exact; an
        odd n flips the sign of the Euler number."""
        lo = op(self.lo, n)
        hi = lo if self.hi is self.lo else None if self.hi is None else op(self.hi, n)
        return RHomResult(lo, hi, self.euler if n % 2 == 0 else -self.euler)

    def translate(self, t: int) -> "RHomResult":
        return self._regrade(GradedDims.translate, t)

    def dual(self, n: int) -> "RHomResult":
        return self._regrade(GradedDims.dual, n)

    def scale(self, m: int) -> "RHomResult":
        """The value of m copies of the pair, m >= 1: both bounds and the
        Euler number times m, an exact value kept exact."""
        if m == 1:
            return self
        lo = self.lo.scale(m)
        hi = lo if self.hi is self.lo else None if self.hi is None else self.hi.scale(m)
        return RHomResult(lo, hi, m * self.euler)

    def add(self, other: "RHomResult") -> "RHomResult":
        lo = self.lo + other.lo
        if self.hi is None or other.hi is None:
            hi = None
        elif self.hi is self.lo and other.hi is other.lo:
            hi = lo
        else:
            hi = self.hi + other.hi
        return RHomResult(lo, hi, self.euler + other.euler)

    def merge(self, other: "RHomResult") -> "RHomResult":
        """Intersect two sound bounds for the same value."""
        if self.euler != other.euler:
            raise SoundnessError(f"inconsistent Euler numbers: {self.euler} vs {other.euler}")
        lo = self.lo.join(other.lo)
        if self.hi is None:
            hi = other.hi
        elif other.hi is None:
            hi = self.hi
        else:
            hi = self.hi.meet(other.hi)
        if hi is not None:
            excess = lo.monus(hi)
            if not excess.is_zero():
                d = excess.items()[0][0]
                raise SoundnessError(
                    f"contradictory bounds in degree {d}: {lo.get(d)} > {hi.get(d)}"
                )
        return RHomResult(lo, hi, self.euler)


_ZERO = RHomResult.exact(GradedDims())
_NO_RANK = GradedDims()  # the least rank of an LES map: none in any degree


# Node kinds, read with type(x): every node class is final (expressions.py)
_ATOMS = frozenset({LineAtom, PushAtom})
_LEAVES = frozenset({Zero, LineAtom, PushAtom})  # each its own normal form

_H = DivisorClass(0, 1, 0)
_K = DivisorClass(0, 0, 1)


class Calculus:
    """Rewrite engine bound to one geometry twist."""

    def __init__(self, geometry: Optional[Geometry] = None):
        self.geometry = geometry or Geometry()
        self.ktheory = KTheory(self.geometry)
        self._atom_memo: dict[tuple, RHomResult] = {}
        self._rhom_memo: dict[tuple, RHomResult] = {}
        self._stack: set[tuple] = set()
        self._class_memo: dict[FormalObject, KClass] = {}
        self._twist_memo: dict[tuple[FormalObject, DivisorClass], FormalObject] = {}
        self._pres_memo: dict[FormalObject, tuple] = {}
        self._norm_memo: dict[FormalObject, FormalObject] = {}
        self._group_memo: dict[Sum, tuple[tuple[FormalObject, int], ...]] = {}

    # ------------------------------------------------------------------
    # classes
    # ------------------------------------------------------------------

    def class_of(self, x: FormalObject) -> KClass:
        cached = self._class_memo.get(x)
        if cached is not None:
            return cached
        kt = self.ktheory
        kind = type(x)
        if kind is Zero:
            out = kt.unit() - kt.unit()
        elif kind is LineAtom:
            out = kt.line_class(x.divisor)
        elif kind is PushAtom:
            out = kt.pushforward_class(x.beta)
        elif kind is Shift:
            out = self.class_of(x.child).scale((-1) ** (x.n % 2))
        elif kind is Sum:
            out = kt.unit() - kt.unit()
            for c in x.children:
                out = out + self.class_of(c)
        elif kind is Cone:
            out = self.class_of(x.target) - self.class_of(x.source)
        elif kind is MutateLeftNode:
            out = kt.mutate_class_left(self.class_of(x.e), self.class_of(x.x))
        elif kind is MutateRightNode:
            out = kt.mutate_class_right(self.class_of(x.x), self.class_of(x.e))
        else:
            raise TypeError(f"no class for {x!r}")
        self._class_memo[x] = out
        return out

    def tensor_line(self, x: FormalObject, D: DivisorClass) -> FormalObject:
        """Twist the whole tree by the line bundle O(D).

        Twists are memoized per (node, D), so a subtree shared by many
        twisted trees (as in repeated Serre transports) is twisted once.
        """
        kind = type(x)
        if D == DivisorClass(0, 0, 0) or kind is Zero:
            return x
        key = (x, D)
        cached = self._twist_memo.get(key)
        if cached is not None:
            return cached
        if kind is LineAtom:
            out = LineAtom(x.divisor + D)
        elif kind is PushAtom:
            out = PushAtom(x.beta + self.geometry.restrict_to_E(D))
        elif kind is Shift:
            out = Shift(self.tensor_line(x.child, D), x.n)
        elif kind is Sum:
            out = Sum(tuple(self.tensor_line(c, D) for c in x.children))
        elif kind is Cone:
            # twisting by a line bundle is an equivalence, canonicity survives
            out = Cone(
                self.tensor_line(x.source, D),
                self.tensor_line(x.target, D),
                x.provenance,
                None if x.mutation is None else self.tensor_line(x.mutation, D),
            )
        elif kind is MutateLeftNode or kind is MutateRightNode:
            # L_e x (x) O(D) = L_{e(D)} x(D), and likewise for R
            out = kind(*(self.tensor_line(c, D) for c in pair(x)))
        else:
            raise TypeError(f"cannot twist {x!r}")
        self._twist_memo[key] = out
        return out

    # ------------------------------------------------------------------
    # normalization and mutations
    # ------------------------------------------------------------------

    def normalize(self, x: FormalObject) -> FormalObject:
        """The normal form of x, memoized per node; a failure is not kept."""
        if type(x) in _LEAVES:
            return x
        out = self._norm_memo.get(x)
        if out is None:
            out = self._norm_memo[x] = self._normalize(x)
        return out

    def _normalize(self, x: FormalObject) -> FormalObject:
        kind = type(x)
        if kind is Shift:
            return shifted(self.normalize(x.child), x.n)
        if kind is Sum:
            flat: list[FormalObject] = []
            for c in x.children:
                c = self.normalize(c)
                if type(c) is Zero:
                    continue
                if type(c) is Sum:
                    flat.extend(c.children)
                else:
                    flat.append(c)
            if not flat:
                return Zero()
            if len(flat) == 1:
                return flat[0]
            return Sum(tuple(flat))
        if kind is Cone:
            src = self.normalize(x.source)
            tgt = self.normalize(x.target)
            if type(src) is Zero:
                return tgt
            if type(tgt) is Zero:
                return shifted(src, 1)
            if src == x.source and tgt == x.target:
                return x
            return Cone(src, tgt, x.provenance, x.mutation)
        if kind is MutateLeftNode:
            return self.mutate_left(x.e, x.x)
        if kind is MutateRightNode:
            return self.mutate_right(x.x, x.e)
        raise TypeError(f"cannot normalize {x!r}")

    def determined_dims(self, X: FormalObject, Y: FormalObject, who: str) -> GradedDims:
        """The dims of RHom(X, Y); PreconditionError, naming `who`, when the
        value is not determined.  The only code that turns an undecided
        value into an exception."""
        r = self.rhom(X, Y)
        if not r.determined:
            raise PreconditionError(f"{who}: RHom({_shown(X)}, {_shown(Y)}) is {r}")
        return r.dims

    def _check_exceptional(self, e: FormalObject, who: str) -> None:
        dims = self.determined_dims(e, e, who)
        if dims != GradedDims.single(0, 1):
            raise PreconditionError(f"{who}: {_shown(e)} is not exceptional, RHom(e,e) = {dims}")

    @staticmethod
    def copies(e: FormalObject, dims: GradedDims, sign: int) -> FormalObject:
        """The sum of dim copies of e[sign * deg] over the degrees of dims.

        sign -1 gives the source of the evaluation map RHom(e, x) (x) e -> x,
        sign +1 the target of the coevaluation x -> RHom(x, e)^* (x) e.
        Raises CopyLimitError, before building anything, past MAX_COPIES.
        """
        count = sum(dim for _, dim in dims.items())
        if count > MAX_COPIES:
            raise CopyLimitError(
                f"a cone needs {count} copies of an object, more than the limit {MAX_COPIES}"
            )
        copies: list[FormalObject] = []
        for deg, dim in dims.items():
            copies.extend([shifted(e, sign * deg)] * dim)
        if len(copies) == 1:
            return copies[0]
        return Sum(tuple(copies))

    def mutate_left(self, e: FormalObject, x: FormalObject) -> FormalObject:
        e = self.normalize(e)
        x = self.normalize(x)
        self._check_exceptional(e, "mutate_left")
        return self._mutate_left(e, x)

    def _termwise(self, x: FormalObject, mutate) -> Optional[FormalObject]:
        """A mutation is exact: it keeps zero and commutes with shifts and
        sums.  Applies `mutate` to the parts of such an x; None otherwise."""
        kind = type(x)
        if kind is Zero:
            return x
        if kind is Shift:
            return shifted(mutate(x.child), x.n)
        if kind is Sum:
            return self.normalize(Sum(tuple(mutate(c) for c in x.children)))
        return None

    def _mutate_left(self, e: FormalObject, x: FormalObject) -> FormalObject:
        out = self._termwise(x, lambda c: self._mutate_left(e, c))
        if out is not None:
            return out
        r = self.determined_dims(e, x, "mutate_left")
        if r.is_zero():
            return x
        if self._same_up_to_shift(x, e) is not None:
            return Zero()

        tag = MutateLeftNode(e, x)
        g = self.geometry
        if type(e) is LineAtom:
            D = e.divisor
            E = g.exceptional_divisor_class()
            if (
                type(x) is PushAtom
                and x.beta == g.restrict_to_E(D)
                and r == GradedDims.single(0, 1)
            ):
                # restriction sequence O(D-E) -> O(D) -> O_E(D)
                return shifted(LineAtom(D - E), 1)
            if type(x) is LineAtom and r == GradedDims.single(0, 1):
                if x.divisor - D == E:
                    # co-restriction: cone of the canonical section of O(E)
                    return PushAtom(g.restrict_to_E(x.divisor))
            if type(x) is LineAtom and r == GradedDims({0: 2}):
                diff = x.divisor - D
                for ruling in (_H, _K):
                    if diff == ruling:
                        # pulled-back Euler sequence on the ruling
                        return shifted(LineAtom(D - ruling), 1)
                if g.threefold_cohomology(E) == GradedDims.single(0, 1):
                    for ruling in (_H, _K):
                        if diff == ruling + E:
                            # The evaluation factors through O(D + ruling):
                            # its section space is 2-dimensional and maps
                            # isomorphically under the canonical section of
                            # O(E).  The octahedron on the factorization
                            # yields this cone; its map is nonzero, else
                            # RHom(result, O(D-ruling)[1]) would contain the
                            # identity while both LES ends vanish.
                            return Cone(
                                shifted(PushAtom(g.restrict_to_E(x.divisor)), -1),
                                shifted(LineAtom(D - ruling), 1),
                                "euler",
                                tag,
                            )
        if type(x) is Cone:
            try:
                src = self._mutate_left(e, x.source)
                tgt = self._mutate_left(e, x.target)
            except PreconditionError:
                pass
            else:
                prov = x.provenance
                if not (
                    self.rhom(x.source, e).is_empty() and self.rhom(x.target, e).is_empty()
                ):
                    # the functor image of the defining map may vanish, so the
                    # distributed cone is not certified canonical
                    prov = "unspecified"
                return self.normalize(Cone(src, tgt, prov, tag))
        return Cone(self.copies(e, r, -1), x, "evaluation", tag)

    def mutate_right(self, x: FormalObject, e: FormalObject) -> FormalObject:
        x = self.normalize(x)
        e = self.normalize(e)
        self._check_exceptional(e, "mutate_right")
        return self._mutate_right(x, e)

    def _mutate_right(self, x: FormalObject, e: FormalObject) -> FormalObject:
        out = self._termwise(x, lambda c: self._mutate_right(c, e))
        if out is not None:
            return out
        r = self.determined_dims(x, e, "mutate_right")
        if r.is_zero():
            return x
        if self._same_up_to_shift(x, e) is not None:
            return Zero()
        inner = x.mutation if type(x) is Cone else None
        if type(inner) is MutateLeftNode and inner.e == e and self.rhom(inner.x, e).is_empty():
            # inverse equivalence: R_e L_e y = y for y left-orthogonal to e
            return inner.x
        cone = Cone(x, self.copies(e, r, +1), "evaluation", MutateRightNode(x, e))
        return shifted(cone, -1)

    # ------------------------------------------------------------------
    # RHom engine
    # ------------------------------------------------------------------

    def rhom(self, X: FormalObject, Y: FormalObject) -> RHomResult:
        # an atom is its own normal form
        if type(X) in _ATOMS and type(Y) in _ATOMS:
            return self._atom_info(X, Y)
        return self._info(self.normalize(X), self.normalize(Y))

    def _info(self, X: FormalObject, Y: FormalObject, transport: bool = True) -> RHomResult:
        """Best knowledge of RHom(X, Y).

        Two atoms are answered from the atom memo: they do not recurse and
        their value does not depend on `transport`, so they never enter the
        pair memo or the in-progress stack.  Shifts and sums are unfolded
        into their parts; every other pair is memoized by (X, Y, transport).
        A pair met again while it is in progress answers the trivial sound
        bound (lower bound 0, no upper bound, the exact Euler number), so
        every recursion of the rules ends.

        `transport` allows one Serre-duality hop for this pair and for the
        LES sub-queries of its rules; the hop sets it False for the dual
        pair and all of that pair's sub-queries, so a query cannot bounce
        between the two sides forever (each hop twists by the canonical
        bundle, so the pairs never repeat on their own) and a pair under a
        hop never hops again.  A sum is unfolded once per distinct child,
        in the order of first occurrence, and that child's value is scaled
        by its multiplicity.
        """
        kx, ky = type(X), type(Y)
        if kx in _ATOMS and ky in _ATOMS:
            return self._atom_info(X, Y)
        if kx is Zero or ky is Zero:
            return _ZERO
        if kx is Shift:
            return self._info(X.child, Y, transport).translate(X.n)
        if ky is Shift:
            return self._info(X, Y.child, transport).translate(-Y.n)
        if kx is Sum:
            total = _ZERO
            for c, m in self._groups(X):
                total = total.add(self._info(c, Y, transport).scale(m))
            return total
        if ky is Sum:
            total = _ZERO
            for c, m in self._groups(Y):
                total = total.add(self._info(X, c, transport).scale(m))
            return total

        key = (X, Y, transport)
        cached = self._rhom_memo.get(key)
        if cached is not None:
            return cached
        if key in self._stack:
            return RHomResult(GradedDims(), None, self._euler(X, Y))
        self._stack.add(key)
        try:
            info = self._rhom_memo[key] = self._core_info(X, Y, transport)
        finally:
            self._stack.discard(key)
        return info

    def _groups(self, s: Sum) -> tuple[tuple[FormalObject, int], ...]:
        """The distinct children of s with their multiplicities, in the
        order of first occurrence; counted once per node."""
        groups = self._group_memo.get(s)
        if groups is None:
            groups = self._group_memo[s] = tuple(Counter(s.children).items())
        return groups

    def _euler(self, X: FormalObject, Y: FormalObject) -> int:
        return self.ktheory.euler_pairing(self.class_of(X), self.class_of(Y))

    def _core_info(self, X: FormalObject, Y: FormalObject, transport: bool) -> RHomResult:
        """Merge the candidates of the rules, each with the Euler number of
        the pair, until the value is determined.  A composite normal form
        holds a cone, so there is at least one LES candidate."""
        euler = self._euler(X, Y)
        best: Optional[RHomResult] = None
        for candidate in self._candidates(X, Y, transport, euler):
            if candidate.euler != euler:
                raise SoundnessError(
                    f"Euler mismatch for RHom({_shown(X)}, {_shown(Y)}): "
                    f"{candidate.euler} vs {euler}"
                )
            best = candidate if best is None else best.merge(candidate)
            if best.determined:
                break
        return best

    def _candidates(
        self, X: FormalObject, Y: FormalObject, transport: bool, euler: int
    ) -> Iterator[RHomResult]:
        """Sound bounds for RHom(X, Y) in rule order, one per LES presentation."""
        if self._mutation_orthogonality(X, Y):
            yield _ZERO
            return
        # a shortcut that decides no value the LES rules miss, kept for speed:
        # without it cold-cli op_tail_ms rose 4.0 -> 4.5 ms (2-vCPU Xeon)
        adjunction = self._adjunction_info(X, Y)
        if adjunction is not None:
            yield adjunction
        for cone in self._presentations(Y):
            # Hom(X, S) -> Hom(X, T); when X is S[m], the identity of S maps
            # to the triangle map, so the rank is >= 1 in degree -m
            source = self._info(X, cone.source, transport)
            target = self._info(X, cone.target, transport)
            forced = self._same_up_to_shift(cone.source, X)
            yield self._combine_les(cone, source, target, forced, +1, euler)
        for cone in self._presentations(X):
            # Hom(T, Y) -> Hom(S, Y); when Y is T[m], the rank is >= 1 in degree m
            target = self._info(cone.target, Y, transport)
            source = self._info(cone.source, Y, transport)
            forced = self._same_up_to_shift(Y, cone.target)
            yield self._combine_les(cone, source, target, forced, -1, euler)
        if transport:
            # Serre duality, one hop: RHom^i(X, Y) = RHom^(3-i)(Y, X (x) omega)^*
            twisted = self.normalize(self.tensor_line(X, self.geometry.canonical_class()))
            yield self._info(Y, twisted, transport=False).dual(3)

    # -- base cases -----------------------------------------------------

    def _atom_info(self, X, Y) -> RHomResult:
        """RHom between two atoms, memoized by kind and integer differences.

        Line-bundle and O_E cohomology is translation invariant, so the value
        depends only on which kinds of atom meet and on the difference of
        their divisors: Y - X, Y - X|_E, X - Y|_E (before the Serre twist)
        or Y - X on the surface.  The key holds that difference as plain
        ints, e.g. ("line-line", dH, dh, dk); restriction to E keeps the h
        and k coefficients.  The divisor objects are built only on a miss.
        """
        if type(X) is LineAtom:
            xH, xh, xk = X.divisor
            if type(Y) is LineAtom:
                yH, yh, yk = Y.divisor
                key = ("line-line", yH - xH, yh - xh, yk - xk)
            else:
                yd, ye = Y.beta
                key = ("line-push", yd - xh, ye - xk)
        elif type(Y) is LineAtom:
            xd, xe = X.beta
            _, yh, yk = Y.divisor
            key = ("push-line", xd - yh, xe - yk)
        else:
            xd, xe = X.beta
            yd, ye = Y.beta
            key = ("push-push", yd - xd, ye - xe)
        info = self._atom_memo.get(key)
        if info is None:
            info = self._atom_memo[key] = self._atom_value(*key)
        return info

    def _atom_value(self, kind: str, *diff: int) -> RHomResult:
        g = self.geometry
        if kind == "line-line":
            return RHomResult.exact(g.threefold_cohomology(DivisorClass(*diff)))
        beta = SurfaceDivisor(*diff)
        if kind == "line-push":
            return RHomResult.exact(g.surface_cohomology(beta))
        if kind == "push-line":
            # Serre duality: transport to maps out of the line bundle
            omega = g.restrict_to_E(g.canonical_class())
            return RHomResult.exact(g.surface_cohomology(beta + omega).dual(3))
        # both on the surface: resolve the left one by line bundles; the
        # result R fits the triangle R -> A -> B, determined when no degree
        # carries both sides.  The LES map A -> B has rank at most min(a, b).
        a = g.surface_cohomology(beta)
        E_restr = g.restrict_to_E(g.exceptional_divisor_class())
        b = g.surface_cohomology(beta + E_restr)
        lo = a.les_sum(b, a.meet(b), 1)
        return RHomResult(lo, a + b.translate(1), a.euler() - b.euler())

    # -- mutation identities ----------------------------------------------

    @staticmethod
    def _same_up_to_shift(x: FormalObject, y: FormalObject) -> Optional[int]:
        if type(x) is not Shift and type(y) is not Shift:
            return 0 if x is y else None
        xc, xs = strip_shift(x)
        yc, ys = strip_shift(y)
        return ys - xs if xc == yc else None

    def _mutation_orthogonality(self, X: FormalObject, Y: FormalObject) -> bool:
        if type(Y) is Cone and type(Y.mutation) is MutateLeftNode:
            if self._same_up_to_shift(Y.mutation.e, X) is not None:
                return True
        if type(X) is Cone and type(X.mutation) is MutateRightNode:
            if self._same_up_to_shift(X.mutation.e, Y) is not None:
                return True
        return False

    def _adjunction_info(self, X: FormalObject, Y: FormalObject) -> Optional[RHomResult]:
        if type(X) is not Cone or type(Y) is not Cone:
            return None
        mx, my = X.mutation, Y.mutation
        if mx is None or type(mx) is not type(my) or mx.e != my.e:
            return None
        # RHom(L_e x, L_e y) = RHom(x, y) provided RHom(x, e) = 0, and
        # RHom(R_e x, R_e y) = RHom(x, y) provided RHom(e, y) = 0
        if type(mx) is MutateLeftNode:
            side = self._info(mx.x, mx.e)
        else:
            side = self._info(my.e, my.x)
        return self._info(mx.x, my.x) if side.is_empty() else None

    # -- presentations -----------------------------------------------------

    def _presentations(self, x: FormalObject) -> tuple[Cone, ...]:
        """The cones the LES rules expand for x: none when x is no cone, else
        x and, for a left mutation L_e y with RHom(e, y) determined and
        nonzero, its evaluation cone RHom(e, y) (x) e -> y.  Memoized."""
        if type(x) is not Cone:
            return ()
        cached = self._pres_memo.get(x)
        if cached is not None:
            return cached
        forms: list[Cone] = [x]
        tag = x.mutation
        if type(tag) is MutateLeftNode:
            r = self.rhom(tag.e, tag.x)
            if r.determined and not r.is_empty():
                forms.append(Cone(self.copies(tag.e, r.dims, -1), tag.x, "evaluation", tag))
        out = tuple(dict.fromkeys(forms))
        self._pres_memo[x] = out
        return out

    # -- LES combination -----------------------------------------------------

    @staticmethod
    def _combine_les(
        cone: Cone,
        source: RHomResult,
        target: RHomResult,
        forced_degree: Optional[int],
        source_offset: int,
        euler: int,
    ) -> RHomResult:
        """dims_i = coker(rank at i) + ker(rank at i + source_offset side).

        Computes (target_i - r_i) + (source_{i+off} - r_{i+off}) with interval
        arithmetic on whole graded bounds; `source_offset` is +1 for a cone in
        the second argument and -1 for a cone in the first argument.  Each
        rank lies between 0 and min(source_d, target_d); in the forced degree
        it is at least 1 when the triangle map is canonical and both sides are
        determined.  The largest rank gives the lower bound and the smallest
        the upper one, each built by one `GradedDims.les_sum`, so a candidate
        builds three maps: the rank bound and the two sums.
        """
        if source.hi is None or target.hi is None:
            return RHomResult(GradedDims(), None, euler)
        rank_hi = source.hi.meet(target.hi)
        rank_lo = _NO_RANK
        if (
            forced_degree is not None
            and cone.provenance != "unspecified"
            and source.determined
            and target.determined
            and rank_hi.get(forced_degree)
        ):
            rank_lo = GradedDims.single(forced_degree)
        lo = target.lo.les_sum(source.lo, rank_hi, -source_offset)
        hi = target.hi.les_sum(source.hi, rank_lo, -source_offset)
        return RHomResult(lo, hi, euler)

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------

    def is_exceptional(self, x: FormalObject) -> bool:
        return self.determined_dims(x, x, "is_exceptional") == GradedDims.single(0, 1)

    def is_semiorthogonal(self, collection: Sequence[FormalObject]) -> "SemiorthReport":
        objects = [self.normalize(x) for x in collection]
        violations: list[tuple[int, int, str]] = []
        ambiguous: list[tuple[int, int, str]] = []
        for j in range(len(objects)):
            for i in range(j):
                r = self.rhom(objects[j], objects[i])
                if not r.determined:
                    ambiguous.append((j, i, str(r)))
                elif not r.dims.is_zero():
                    violations.append((j, i, str(r.dims)))
        return SemiorthReport(
            ok=not violations and not ambiguous,
            violations=tuple(violations),
            ambiguous=tuple(ambiguous),
        )

    def is_ext_exceptional(self, collection: Sequence[FormalObject]) -> "ExtExceptionalReport":
        objects = [self.normalize(x) for x in collection]
        failures: list[tuple[int, int, int]] = []
        ambiguous: list[tuple[int, int, str]] = []
        not_exceptional: list[int] = []
        for i, x in enumerate(objects):
            for j, y in enumerate(objects):
                r = self.rhom(x, y)
                if not r.determined:
                    ambiguous.append((i, j, str(r)))
                elif i == j:
                    if r.dims != GradedDims.single(0, 1):
                        not_exceptional.append(i)
                else:
                    failures.extend((i, j, deg) for deg, dim in r.dims.items() if deg <= 0 and dim)
        return ExtExceptionalReport(
            ok=not failures and not ambiguous and not not_exceptional,
            failures=tuple(failures),
            not_exceptional=tuple(not_exceptional),
            ambiguous=tuple(ambiguous),
        )

    def is_spherical(self, x: FormalObject, n: int) -> bool:
        x = self.normalize(x)
        if self.determined_dims(x, x, "is_spherical") != GradedDims.single(0) + GradedDims.single(n):
            return False
        cls = self.class_of(x)
        return self.ktheory.serre_class(cls) == cls.scale((-1) ** (n % 2))

    # ------------------------------------------------------------------
    # identity certification
    # ------------------------------------------------------------------

    def probe_panel(self) -> list[FormalObject]:
        panel: list[FormalObject] = [LineAtom(D) for D in SOD1_DIVISORS]
        panel.append(PushAtom(SurfaceDivisor(-1, 0)))
        panel.append(PushAtom(SurfaceDivisor(0, -1)))
        return panel

    def verify_identity(self, X: FormalObject, Y: FormalObject) -> "IdentityReport":
        """Certify class+probe equivalence of two formal objects."""
        X = self.normalize(X)
        Y = self.normalize(Y)
        class_ok = self.class_of(X) == self.class_of(Y)
        mismatches: list[str] = []
        ambiguous: list[str] = []
        if X != Y:
            for probe in self.probe_panel():
                pairs = (
                    (self.rhom(probe, X), self.rhom(probe, Y), f"RHom({pretty(probe)}, -)"),
                    (self.rhom(X, probe), self.rhom(Y, probe), f"RHom(-, {pretty(probe)})"),
                )
                for a, b, desc in pairs:
                    if not (a.determined and b.determined):
                        ambiguous.append(desc)
                    elif a.dims != b.dims:
                        mismatches.append(f"{desc}: {a.dims} != {b.dims}")
        return IdentityReport(
            ok=class_ok and not mismatches and not ambiguous,
            class_ok=class_ok,
            mismatches=tuple(mismatches),
            ambiguous=tuple(ambiguous),
        )


class SemiorthReport(NamedTuple):
    ok: bool
    violations: tuple[tuple[int, int, str], ...]
    ambiguous: tuple[tuple[int, int, str], ...]


class ExtExceptionalReport(NamedTuple):
    ok: bool
    failures: tuple[tuple[int, int, int], ...]  # (i, j, degree)
    not_exceptional: tuple[int, ...]
    ambiguous: tuple[tuple[int, int, str], ...]


class IdentityReport(NamedTuple):
    ok: bool
    class_ok: bool
    mismatches: tuple[str, ...]
    ambiguous: tuple[str, ...]
