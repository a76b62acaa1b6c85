"""Finite-length hearts, central charges, tilting, descent, and axiom checks.

Hearts are presented by their simple objects; every verification is decided
on the simples together with the sign structure of the positive cone, with
exact rational arithmetic throughout.  Harder-Narasimhan data is computed
only for direct sums of simples; for a finite-length heart the HN property
itself is automatic.  descend(calc, heart, kernel_classes, Z) is the only
code that builds the downstairs data (quotient, induced charge and its
support report); check_weak_stability_condition(heart, Z, descent) reads the
support from it.  The support property is checked for the zero quadratic
form, where it says that the charge is injective: ker Z = 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from typing import NamedTuple, Optional, Sequence, Union

from .geometry import Frozen, GradedDims, Q
from .lattice import (
    IntegerLattice,
    KClass,
    LatticeQuotient,
    integer_kernel,
    integer_solution,
    quotient as lattice_quotient,
)
from .calculus import Calculus, PreconditionError, SoundnessError
from .expressions import Cone, FormalObject, shifted


@total_ordering
class _Infinity:
    """The slope of a charge on the real axis: above every rational number,
    equal only to itself, printed as inf."""

    def __lt__(self, other) -> bool:
        return False

    def __repr__(self) -> str:
        return "inf"


INFINITY = _Infinity()

Slope = Union[Fraction, _Infinity]


class StabilityError(Exception):
    pass


class Heart(Frozen):
    """Heart of a bounded t-structure presented by simples.

    Fields: labels: tuple[str, ...]; simples: tuple[FormalObject, ...];
    classes: tuple[KClass, ...]; hom_table: tuple[tuple[GradedDims, ...], ...].
    """

    __slots__ = ("labels", "simples", "classes", "hom_table")

    def __len__(self) -> int:
        return len(self.simples)


class CentralCharge(Frozen):
    """Complex charge values, one per simple, with exact rational parts;
    values: tuple[tuple[Q, Q], ...], one (re, im) per simple."""

    __slots__ = ("values",)

    @staticmethod
    def of(pairs: Sequence[tuple]) -> "CentralCharge":
        return CentralCharge(tuple((Q(re), Q(im)) for re, im in pairs))

    def value(self, coeffs: Sequence[int]) -> tuple[Q, Q]:
        if len(coeffs) != len(self.values):
            raise StabilityError(
                f"{len(coeffs)} coefficients for a charge on {len(self.values)} simples"
            )
        re = sum((Q(c) * v[0] for c, v in zip(coeffs, self.values)), Q(0))
        im = sum((Q(c) * v[1] for c, v in zip(coeffs, self.values)), Q(0))
        return (re, im)

    def __len__(self) -> int:
        return len(self.values)


# ---------------------------------------------------------------------------
# heart construction
# ---------------------------------------------------------------------------


def make_heart(calc: Calculus, simples: Sequence[tuple[str, FormalObject]]) -> Heart:
    """The heart of the Ext-exceptional collection given as (label, object) simples."""
    labels = tuple(lbl for lbl, _ in simples)
    objects = tuple(calc.normalize(obj) for _, obj in simples)
    report = calc.is_ext_exceptional(objects)
    if not report.ok:
        detail = []
        for i, j, deg in report.failures:
            detail.append(
                f"Hom^{deg}({labels[i]}, {labels[j]}) is nonzero"
            )
        for i in report.not_exceptional:
            detail.append(f"{labels[i]} is not exceptional")
        for i, j, msg in report.ambiguous:
            detail.append(f"({labels[i]}, {labels[j]}): {msg}")
        raise PreconditionError("not an Ext-exceptional collection: " + "; ".join(detail))
    return _build_heart(calc, labels, objects)


def _build_heart(
    calc: Calculus, labels: tuple[str, ...], objects: tuple[FormalObject, ...]
) -> Heart:
    """The heart on normalized simples with independent classes and determined Homs."""
    classes = tuple(calc.class_of(x) for x in objects)
    rows = [calc.ktheory.coordinates(c) for c in classes]
    if IntegerLattice(8, rows).rank != len(classes):
        raise PreconditionError("classes of simples are linearly dependent")
    table = tuple(
        tuple(calc.determined_dims(x, y, "hom table entry") for y in objects) for x in objects
    )
    return Heart(labels, objects, classes, table)


# ---------------------------------------------------------------------------
# slopes and stability functions
# ---------------------------------------------------------------------------


def slope(Z: CentralCharge, v: Sequence[int]) -> Slope:
    if all(c == 0 for c in v):
        raise StabilityError("slope of the zero vector is undefined")
    if any(c < 0 for c in v):
        raise StabilityError("slope is defined on the nonnegative cone only")
    re, im = Z.value(v)
    if im == 0:
        return INFINITY
    return -re / im


class StabilityFunctionReport(NamedTuple):
    ok: bool  # Z is a weak stability function
    failures: tuple[str, ...]
    kernel_directions: tuple[int, ...]

    @property
    def strong(self) -> bool:
        """Z is a strong stability function: weak, with no simple of charge zero."""
        return self.ok and not self.kernel_directions


def check_stability_function(heart: Heart, Z: CentralCharge) -> StabilityFunctionReport:
    """Check the weak positivity axiom on the positive cone of the heart.

    Every nonzero nonnegative combination of simples lands in the allowed
    half-plane as soon as every simple does, since the region is closed
    under addition; a simple of charge zero is a kernel direction, which a
    weak stability function permits and a strong one does not.
    """
    if len(Z) != len(heart):
        raise StabilityError("charge length does not match number of simples")
    failures: list[str] = []
    kernel_dirs: list[int] = []
    for i, (re, im) in enumerate(Z.values):
        if im < 0:
            failures.append(f"simple {heart.labels[i]} has Im Z < 0")
        elif im == 0:
            if re == 0:
                kernel_dirs.append(i)
            elif re > 0:
                failures.append(
                    f"simple {heart.labels[i]} maps to the positive real axis"
                )
    return StabilityFunctionReport(
        ok=not failures, failures=tuple(failures), kernel_directions=tuple(kernel_dirs)
    )


def hn_filtration(
    Z: CentralCharge, multiset: Sequence[int]
) -> list[tuple[Slope, dict[int, int]]]:
    """Group a direct sum of simples by slope, strictly decreasing."""
    if not multiset:
        raise StabilityError("empty multiset has no filtration")
    counts: dict[int, int] = {}
    for idx in multiset:
        counts[idx] = counts.get(idx, 0) + 1
    groups: dict[Slope, dict[int, int]] = {}
    for idx, mult in counts.items():
        unit = [0] * len(Z)
        unit[idx] = 1
        mu = slope(Z, unit)
        groups.setdefault(mu, {})[idx] = mult
    return [(mu, groups[mu]) for mu in sorted(groups, reverse=True)]


# ---------------------------------------------------------------------------
# tilting
# ---------------------------------------------------------------------------


def tilt_at(calc: Calculus, heart: Heart, j: int) -> Heart:
    """Tilt at the torsion pair (perp(S_j), [S_j]).

    The new simples are S_j[1] together with, for each other simple, its
    universal extension by S_j; an extension of multiplicity zero leaves the
    simple unchanged.  An extension by more than MAX_COPIES copies of S_j
    raises CopyLimitError before any is built.
    """
    n = len(heart)
    if not 0 <= j < n:
        raise StabilityError(f"simple index {j} out of range")
    for i in range(n):
        if i == j:
            continue
        dims = heart.hom_table[i][j]
        bad = [deg for deg, _ in dims.items() if deg <= 0]
        if bad:
            raise PreconditionError(
                f"Hom^{bad[0]}({heart.labels[i]}, {heart.labels[j]}) is nonzero; "
                "the torsion pair is not available"
            )
    S = heart.simples[j]
    new: list[tuple[str, FormalObject]] = [
        (f"{heart.labels[j]}[1]", calc.normalize(shifted(S, 1)))
    ]
    multiplicities: dict[int, int] = {}
    for i in range(n):
        if i == j:
            continue
        d = heart.hom_table[i][j].get(1)
        multiplicities[i] = d
        if d == 0:
            new.append((heart.labels[i], heart.simples[i]))
            continue
        copies = calc.copies(S, GradedDims.single(0, d), +1)
        ext = Cone(shifted(heart.simples[i], -1), copies, "universalExtension", None)
        new.append((f"ext({heart.labels[i]},{heart.labels[j]})", calc.normalize(ext)))
    labels, objects = zip(*new)
    tilted = _build_heart(calc, labels, objects)
    # class bookkeeping: new classes sum to -[S_j] + sum_i ([S_i] + d_i [S_j])
    expected = heart.classes[j].scale(-1)
    for i in range(n):
        if i != j:
            expected = expected + heart.classes[i] + heart.classes[j].scale(multiplicities[i])
    if sum(tilted.classes[1:], tilted.classes[0]) != expected:
        raise SoundnessError("tilt class bookkeeping failed")
    return tilted


# ---------------------------------------------------------------------------
# support property
# ---------------------------------------------------------------------------


def _charge_kernel(Z_rows: Sequence[tuple[Q, Q]]) -> list[list[int]]:
    """Integer basis of the kernel of v -> sum v_i z_i on Z^n."""
    n = len(Z_rows)
    denom = 1
    for re, im in Z_rows:
        denom = math.lcm(denom, re.denominator, im.denominator)
    matrix = [[int(re * denom), int(im * denom)] for re, im in Z_rows]
    return integer_kernel(matrix)


class SupportReport(NamedTuple):
    ok: bool
    kernel_rank: int


def check_support(Z: CentralCharge) -> SupportReport:
    """The support property of Z for the zero quadratic form.

    The zero form is negative definite on ker Z exactly when ker Z = 0, and
    it is nonnegative on every class, so the axiom says Z is injective.
    """
    kernel_rank = len(_charge_kernel(Z.values))
    return SupportReport(ok=kernel_rank == 0, kernel_rank=kernel_rank)


# ---------------------------------------------------------------------------
# descent along the kernel lattice
# ---------------------------------------------------------------------------


class Verdict(NamedTuple):
    ok: bool
    detail: str


class DescentReport(NamedTuple):
    """Three verdicts and the data they were decided on: the quotient of Z^n
    (simple coordinates) by the kernel lattice, the charge induced on its
    free generators, and that charge's support report for the zero form."""

    serre_generator: Verdict
    kernel_matches_ker_z: Verdict
    induced_strong: Verdict
    quotient: LatticeQuotient
    induced: CentralCharge
    support: SupportReport

    @property
    def ok(self) -> bool:
        return (
            self.serre_generator.ok
            and self.kernel_matches_ker_z.ok
            and self.induced_strong.ok
        )


def descend(
    calc: Calculus,
    heart: Heart,
    kernel_classes: Sequence[KClass],
    Z: CentralCharge,
) -> DescentReport:
    """Descend the heart and charge along the quotient by the kernel lattice.

    Checks, in order: the kernel lattice is generated by classes visible in
    the positive cone of the heart (a designated simple together with
    difference vectors of simples); ker Z equals the kernel lattice; the
    induced charge on the quotient (by Smith normal form) is well defined
    and a strong stability function on the image of the cone.  Well defined
    is tested once, simple by simple: the induced charge of the image of e_i
    is Z(e_i) for every i exactly when Z vanishes on the kernel, since the
    e_i - lift(proj e_i) span the saturation of the kernel and Z is linear
    over Q.  A nonzero image has the charge of a simple checked here, by
    check_stability_function, so the strong verdict covers every nonzero
    image.
    """
    n = len(heart)
    positivity = check_stability_function(heart, Z)
    units = [[1 if t == i else 0 for t in range(n)] for i in range(n)]
    simple_rows = [calc.ktheory.coordinates(c) for c in heart.classes]

    coords_rows: list[list[int]] = []
    for kc in kernel_classes:
        sol = integer_solution(simple_rows, calc.ktheory.coordinates(kc))
        if sol is None:
            raise StabilityError(
                "kernel class is not an integer combination of the simple classes"
            )
        coords_rows.append(sol)
    kernel = IntegerLattice(n, coords_rows)

    # (1) generation by positive-cone classes: simples lying in the kernel,
    # together with difference vectors of simples (class shadows of objects
    # identified in the quotient).
    gens: list[list[int]] = []
    simple_gens: list[int] = []
    for i, unit in enumerate(units):
        if kernel.member(unit):
            gens.append(unit)
            simple_gens.append(i)
    for i in range(n):
        for jj in range(n):
            if i == jj:
                continue
            diff = [0] * n
            diff[i] += 1
            diff[jj] -= 1
            if kernel.member(diff):
                gens.append(diff)
    generated = IntegerLattice(n, gens)
    if not simple_gens:
        v1 = Verdict(False, "no simple class lies in the kernel lattice")
    elif generated != kernel:
        v1 = Verdict(
            False,
            "kernel is not spanned by simple classes and their differences",
        )
    else:
        names = ", ".join(heart.labels[i] for i in simple_gens)
        v1 = Verdict(True, f"kernel generated by simple(s) {names} plus relation vectors")

    # (2) ker Z as a sublattice equals the kernel lattice
    ker_z = IntegerLattice(n, _charge_kernel(Z.values))
    if ker_z == kernel:
        v2 = Verdict(True, f"ker Z has rank {ker_z.rank} and matches the kernel lattice")
    else:
        v2 = Verdict(False, f"ker Z = {ker_z} but kernel lattice = {kernel}")

    # (3) induced charge: well defined on the quotient and strong on the image
    quot = lattice_quotient(IntegerLattice(n, units), kernel)
    problems: list[str] = []
    induced = CentralCharge(tuple(Z.value(lift) for lift in quot.lift))
    nonzero_images = [img for img in quot.projection if any(img)]
    if not nonzero_images:
        problems.append(
            "no simple survives in the quotient; the induced charge is zero"
        )
    problems.extend(positivity.failures)
    for i in positivity.kernel_directions:
        if not kernel.member(units[i]):
            problems.append(f"simple {heart.labels[i]} has Z = 0 but is not in the kernel")
    for i in range(n):
        # Z factors through the quotient: the image of e_i has charge Z(e_i)
        if induced.value(quot.projection[i]) != Z.values[i]:
            problems.append(
                f"induced charge disagrees with Z on simple {heart.labels[i]}"
            )
    v3 = Verdict(not problems, "; ".join(problems) if problems else "induced charge is strong")
    support = check_support(induced)

    return DescentReport(
        serre_generator=v1,
        kernel_matches_ker_z=v2,
        induced_strong=v3,
        quotient=quot,
        induced=induced,
        support=support,
    )


# ---------------------------------------------------------------------------
# full axiom bundle
# ---------------------------------------------------------------------------


class AxiomReport(NamedTuple):
    ok: bool
    stability_function: StabilityFunctionReport
    support: SupportReport


def check_weak_stability_condition(
    heart: Heart, Z: CentralCharge, descent: Optional[DescentReport] = None
) -> AxiomReport:
    """Check that (heart, Z) is a weak stability condition.

    The weak stability-function axiom is checked on the simples.  The HN
    property is automatic for a finite-length heart presented by simples.
    The support property, for the zero form, is the one ``descent`` decided
    on the quotient by ker Z; without a descent it asks that Z itself have
    no kernel on the simple coordinates.
    """
    sf = check_stability_function(heart, Z)
    support = descent.support if descent is not None else check_support(Z)
    return AxiomReport(ok=sf.ok and support.ok, stability_function=sf, support=support)
