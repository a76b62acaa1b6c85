"""The golden-identity check suite: one REGISTRY row per identity.

Every numbered identity the engine is expected to reproduce lives here as
one REGISTRY row: the check's name, a short anchor string stating the
identity, the expected text its report prints, a provenance tag ('pinned'
for frozen golden values, 'derived' for values produced by an independent
oracle), and a runner that returns the verdict and the measured text.  The
property checks, named 'props.*', run at every twist; the golden values of
the others are specific to the default twist (-1, -1), and they are
skipped, not run, at other twists.

quadstab.harness imports this module on the first read of its REGISTRY or
CHECK_NAMES, and harness.run_checks runs the rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .geometry import ChowElement, DivisorClass, Geometry, GeometryConfig, SurfaceDivisor
from .lattice import IntegerLattice, integer_solution
from .expressions import FormalObject, LineAtom, PushAtom, Shift, parse_object, pretty
from .calculus import PreconditionError
from .stability import check_weak_stability_condition, slope
from .harness import DEFAULT_TWIST, ConfigError, Context

PROPERTY_TWISTS = ((-1, -1), (0, 0), (-2, 0))


@dataclass(frozen=True)
class Check:
    """One REGISTRY row; the runner returns the verdict and the measured text."""

    name: str
    anchor: str
    expected: str
    tag: str
    runner: Callable[[Context], tuple[bool, str]]


def _check_sod1_semiorthogonal(ctx: Context) -> tuple[bool, str]:
    report = ctx.calc.is_semiorthogonal(ctx.sod1_objects())
    gram = ctx.kt.gram_matrix([ctx.calc.class_of(x) for x in ctx.sod1_objects()])
    unipotent = all(gram[i][i] == 1 for i in range(8)) and all(
        gram[j][i] == 0 for j in range(8) for i in range(j)
    )
    ok = report.ok and unipotent
    return ok, f"backward homs vanish: {report.ok}, gram unipotent upper-triangular: {unipotent}"


def _check_sod1_determinant(ctx: Context) -> tuple[bool, str]:
    det = ctx.kt.basis_determinant()
    return abs(det) == 1, f"det = {det}"


def _check_serre_canonical(ctx: Context) -> tuple[bool, str]:
    K = ctx.geometry.canonical_class()
    return K == DivisorClass(-2, -1, -1), str(K)


def _check_serre_duality_pairing(ctx: Context) -> tuple[bool, str]:
    kt = ctx.kt
    basis = kt.sod1_classes()
    bad = 0
    for x in basis:
        for y in basis:
            if kt.euler_pairing(x, y) != kt.euler_pairing(y, kt.serre_class(x)):
                bad += 1
    return bad == 0, f"{bad} violations"


def _check_serre_e_class(ctx: Context) -> tuple[bool, str]:
    g = ctx.geometry
    E = g.exceptional_divisor_class()
    HE = g.chow_mul(
        ChowElement.of_divisor(DivisorClass(1, 0, 0)), ChowElement.of_divisor(E)
    )
    ok = E == DivisorClass(1, -1, -1) and HE.is_zero()
    return ok, f"E = {E}, H*E zero: {HE.is_zero()}"


def _check_serre_adjunction(ctx: Context) -> tuple[bool, str]:
    g = ctx.geometry
    restr = g.restrict_to_E(g.canonical_class() + g.exceptional_divisor_class())
    return restr == SurfaceDivisor(-2, -2), str(restr)


def _check_k1_semiorthogonal(ctx: Context) -> tuple[bool, str]:
    report = ctx.calc.is_semiorthogonal(ctx.sod2_objects())
    detail = "pass" if report.ok else f"violations={report.violations}, ambiguous={report.ambiguous}"
    return report.ok, detail


def _check_step1(ctx: Context) -> tuple[bool, str]:
    ok = True
    parts = []
    P = PushAtom(SurfaceDivisor(-1, 0))
    for i in range(3):
        line = LineAtom(DivisorClass(i, 0, 0))
        r = ctx.calc.rhom(line, P)
        fixed = ctx.calc.mutate_left(line, P) == P
        ok = ok and r.is_empty() and fixed
        parts.append(f"RHom(O({i}H), OE(-1,0)) = {r}")
    return ok, "; ".join(parts)


def _check_step2(ctx: Context) -> tuple[bool, str]:
    cases = [
        ("L(O(2H), OE(0,0))", "shift(O(H+h+k),1)"),
        ("L(O(H+h+k), O(2H))", "OE(0,0)"),
        ("L(O(H), OE(0,0))", "shift(O(h+k),1)"),
    ]
    ok = True
    parts = []
    for src, tgt in cases:
        result = ctx.obj(src)
        target = ctx.obj(tgt)
        rep = ctx.calc.verify_identity(result, target)
        ok = ok and rep.ok
        parts.append(f"{src} -> {pretty(result)} ({'ok' if rep.ok else 'MISMATCH'})")
    return ok, "; ".join(parts)


def _check_step3_euler(ctx: Context) -> tuple[bool, str]:
    cases = [
        ("L(O(), O(h))", "shift(O(-h),1)"),
        ("L(O(), O(k))", "shift(O(-k),1)"),
        ("L(O(H), O(H+h))", "shift(O(H-h),1)"),
        ("L(O(H), O(H+k))", "shift(O(H-k),1)"),
    ]
    ok = True
    parts = []
    for src, tgt in cases:
        rep = ctx.calc.verify_identity(ctx.obj(src), ctx.obj(tgt))
        ok = ok and rep.ok
        parts.append(f"{src} -> {tgt}: {'ok' if rep.ok else 'MISMATCH'}")
    return ok, "; ".join(parts)


def _check_step3_orthogonality(ctx: Context) -> tuple[bool, str]:
    objs = ["O(h+k)", "O(H-h)", "O(H-k)"]
    ok = True
    parts = []
    for i, x in enumerate(objs):
        for j, y in enumerate(objs):
            if i == j:
                continue
            r = ctx.calc.rhom(ctx.obj(x), ctx.obj(y))
            ok = ok and r.is_empty()
            if not r.is_empty():
                parts.append(f"RHom({x},{y}) = {r}")
    return ok, "; ".join(parts) or "all vanish"


def _check_step4(ctx: Context) -> tuple[bool, str]:
    result = ctx.obj("L(O(-k), L(O(), O(H-h)))")
    rep = ctx.calc.verify_identity(result, PushAtom(SurfaceDivisor(-1, 0)))
    return rep.ok, pretty(result)


def _check_triple_exceptional(ctx: Context) -> tuple[bool, str]:
    triple = ctx.triple_objects()
    semi = ctx.calc.is_semiorthogonal(triple)
    each = all(ctx.calc.is_exceptional(x) for x in triple)
    ok = semi.ok and each
    return ok, f"semiorthogonal: {semi.ok}, all exceptional: {each}"


def _check_kernel_generators(ctx: Context) -> tuple[bool, str]:
    kt = ctx.kt
    calc = ctx.calc
    kernel = ctx.kernel_lattice()
    P_cls = kt.coordinates(kt.pushforward_class(SurfaceDivisor(-1, 0)))
    Q_cls = kt.coordinates(kt.pushforward_class(SurfaceDivisor(0, -1)))
    push_span = IntegerLattice(8, [P_cls, Q_cls])
    e_in = push_span.member(kt.coordinates(calc.class_of(ctx.obj("Ecal"))))
    diff = kt.line_class(DivisorClass(0, -1, 0)) - kt.line_class(DivisorClass(0, 0, -1))
    killed = IntegerLattice(8, [P_cls, Q_cls, kt.coordinates(diff)])
    gf = calc.class_of(ctx.obj("G")) + calc.class_of(ctx.obj("F"))
    gf_in = killed.member(kt.coordinates(gf))
    # the kernel is exactly the part of the pushforward-killed lattice that
    # lives inside the rank-3 sublattice
    meet = ctx.dprime_lattice().intersection(killed)
    ok = e_in and gf_in and meet == kernel
    return (
        ok,
        f"[Ecal] in span(push atoms): {e_in}; [G]+[F] killed: {gf_in}; intersection matches: {meet == kernel}",
    )


def _check_kernel_rank(ctx: Context) -> tuple[bool, str]:
    rank = ctx.kernel_lattice().rank
    return rank == 2, f"rank {rank}"


def _check_kernel_quotient(ctx: Context) -> tuple[bool, str]:
    quot = ctx.kernel_quotient()
    ok = quot.rank == 1 and not quot.torsion
    return ok, f"rank {quot.rank}, torsion {list(quot.torsion)}"


def _check_kernel_relation(ctx: Context) -> tuple[bool, str]:
    calc = ctx.calc
    kt = ctx.kt
    lhs = calc.class_of(ctx.obj("Ecal"))
    rhs = calc.class_of(ctx.obj("F")) + kt.line_class(DivisorClass(0, -1, 0))
    relation = lhs == rhs
    # [O(-h)] - [O(-k)] in D'-coordinates, with [G] the representative of
    # [O(-k)] (their pushforwards agree): e1 - e2 in the triple basis.
    triple = [kt.coordinates(calc.class_of(x)) for x in ctx.triple_objects()]
    kernel3 = []
    for cls in ctx.kernel_classes():
        coords = integer_solution(triple, kt.coordinates(cls))
        if coords is None:
            raise PreconditionError("kernel relation: a kernel class is not integral over the triple")
        kernel3.append(coords)
    member = IntegerLattice(3, kernel3).member([1, -1, 0])
    ok = relation and member
    return ok, f"relation holds: {relation}; (1,-1,0) in kernel: {member}"


def _check_ext_triple(ctx: Context) -> tuple[bool, str]:
    calc = ctx.calc
    good = calc.is_ext_exceptional([ctx.obj("O(-h)"), ctx.obj("G"), ctx.obj("shift(F,-2)")])
    bad = calc.is_ext_exceptional([ctx.obj("O(-h)"), ctx.obj("G"), ctx.obj("F")])
    witness = (0, 2, -1) in bad.failures
    ok = good.ok and not bad.ok and witness
    return ok, f"shifted ok: {good.ok}; unshifted failures: {list(bad.failures)}"


def _check_heart_b(ctx: Context) -> tuple[bool, str]:
    heart = ctx.heart("B")
    return len(heart) == 3, f"simples: {heart.labels}"


def _check_tilt_simples(ctx: Context) -> tuple[bool, str]:
    calc = ctx.calc
    tilted = ctx.heart("Atilde")
    expected = [
        calc.class_of(ctx.obj("shift(F,-1)")),
        calc.class_of(ctx.obj("shift(Ecal,-2)")),
        calc.class_of(ctx.obj("G")),
    ]
    ok = list(tilted.classes) == expected
    return ok, f"labels {tilted.labels}, classes match: {ok}"


def _check_tilt_dims(ctx: Context) -> tuple[bool, str]:
    heart = ctx.heart("B")
    d1 = heart.hom_table[0][2].get(1)
    d2 = heart.hom_table[1][2].get(1)
    return (d1, d2) == (1, 0), f"({d1}, {d2})"


def _check_spherical(ctx: Context) -> tuple[bool, str]:
    calc = ctx.calc
    E = ctx.obj("Ecal")
    r = calc.rhom(E, E)
    cls = calc.class_of(E)
    serre_ok = calc.ktheory.serre_class(cls) == cls.scale(-1)
    ok = calc.is_spherical(E, 3) and calc.is_spherical(Shift(E, 1), 3)
    return ok, f"dims {r}, serre twist ok: {serre_ok}"


def _descent_verdict(field: str) -> Callable[[Context], tuple[bool, str]]:
    """The runner that reads one Verdict, already (ok, detail), of ctx.descent()."""
    return lambda ctx: getattr(ctx.descent(), field)


def _check_descent_quotient(ctx: Context) -> tuple[bool, str]:
    quot = ctx.descent().quotient
    ok = quot.rank == 1 and not quot.torsion
    return ok, f"quotient rank {quot.rank}, torsion {list(quot.torsion) or 'none'}"


def _check_axioms_upstairs(ctx: Context) -> tuple[bool, str]:
    # the torsion-pair charge on B: slope of the third simple is smallest
    heart_b, ZB = ctx.charge("Z_B")
    if heart_b != "B":
        raise ConfigError(f"charge 'Z_B' is on heart {heart_b!r}; this check reads it on heart 'B'")
    heart_name, Z = ctx.charge("Z_up")
    rep = check_weak_stability_condition(ctx.hearts[heart_name], Z, ctx.descent())
    s1 = slope(ZB, [1, 0, 0])
    s3 = slope(ZB, [0, 0, 1])
    order_ok = s1 > s3
    ok = rep.ok and order_ok
    return (
        ok,
        f"stability fn: {rep.stability_function.ok}, support: {rep.support.ok}, "
        f"slope order {s1} > {s3}: {order_ok}",
    )


def _check_axioms_downstairs(ctx: Context) -> tuple[bool, str]:
    # induced_strong covers every nonzero image: each has a simple's charge
    rep = ctx.descent()
    ok = rep.induced_strong.ok and rep.support.ok and rep.quotient.rank == 1
    return ok, f"strong: {rep.induced_strong.ok}, support: {rep.support.ok}"


def _check_props_hrr(ctx: Context) -> tuple[bool, str]:
    bad = 0
    total = 0
    for twist in _twists_for(ctx):
        g = Geometry(GeometryConfig(*twist))
        for nH in range(-4, 5):
            for nh in range(-4, 5):
                for nk in range(-4, 5):
                    D = DivisorClass(nH, nh, nk)
                    total += 1
                    if g.threefold_cohomology(D).euler() != g.euler_characteristic(D):
                        bad += 1
    return bad == 0, f"{bad}/{total} mismatches"


def _sweep_objects(ctx: Context) -> list[FormalObject]:
    """The objects props.euler-soundness pairs: the 150 atoms O(aH+bh+ck)
    and OE(d,e) with every coefficient in [-2, 2], then G, F and Ecal at the
    default twist."""
    span = range(-2, 3)
    objects: list[FormalObject] = [LineAtom(DivisorClass(a, b, c)) for a in span for b in span for c in span]
    objects += [PushAtom(SurfaceDivisor(d, e)) for d in span for e in span]
    if ctx.config.twist == DEFAULT_TWIST:
        objects += [ctx.obj(n) for n in ("G", "F", "Ecal")]
    return objects


def _check_props_euler(ctx: Context) -> tuple[bool, str]:
    calc = ctx.calc
    rhom = calc.rhom
    objects = _sweep_objects(ctx)
    # the oracle is the integer HRR Gram form x^T G y of the classes (the
    # registry's "Chern-character pairing" text predates it and is golden)
    gram = ctx.kt.gram_matrix([calc.class_of(x) for x in objects])
    bad = determined = 0
    for x, row in zip(objects, gram):
        for y, expected in zip(objects, row):
            r = rhom(x, y)
            if r.euler != expected:
                bad += 1
            if r.determined:
                determined += 1
                if r.hi.euler() != expected:
                    bad += 1
    return bad == 0, f"{bad} mismatches over {len(objects) ** 2} pairs ({determined} determined)"


def _check_props_involution(ctx: Context) -> tuple[bool, str]:
    # The class-level mutations kill [e], so they are inverse to each other
    # exactly on the orthogonal complements, matching the object-level
    # equivalences between perp(e) and e-perp.
    kt = ctx.kt
    rng = random.Random(1789)
    basis = kt.sod1_classes()
    bad = 0
    for _ in range(60):
        e = basis[rng.randrange(8)]
        coeffs = [rng.randint(-3, 3) for _ in range(8)]
        x = kt.from_coordinates(coeffs)
        lx = kt.mutate_class_left(e, x)
        if kt.euler_pairing(e, lx) != 0:
            bad += 1
        rx = kt.mutate_class_right(x, e)
        if kt.euler_pairing(rx, e) != 0:
            bad += 1
        left_domain = x - e.scale(kt.euler_pairing(x, e))  # chi(-, e) = 0
        if kt.mutate_class_right(kt.mutate_class_left(e, left_domain), e) != left_domain:
            bad += 1
        right_domain = x - e.scale(kt.euler_pairing(e, x))  # chi(e, -) = 0
        if kt.mutate_class_left(e, kt.mutate_class_right(right_domain, e)) != right_domain:
            bad += 1
    return bad == 0, f"{bad} failures over 60 samples"


def _random_expression(rng: random.Random, depth: int) -> str:
    def atom() -> str:
        if rng.random() < 0.5:
            return _random_line(rng)
        return f"OE({rng.randint(-2, 2)},{rng.randint(-2, 2)})"

    if depth == 0:
        return atom()
    roll = rng.random()
    if roll < 0.35:
        return atom()
    if roll < 0.55:
        return f"shift({_random_expression(rng, depth - 1)},{rng.randint(-2, 2)})"
    if roll < 0.7:
        n = rng.randint(2, 3)
        inner = ",".join(_random_expression(rng, depth - 1) for _ in range(n))
        return f"sum({inner})"
    if roll < 0.85:
        return f"cone({_random_expression(rng, depth - 1)},{_random_expression(rng, depth - 1)})"
    mutator = "L" if rng.random() < 0.5 else "R"
    e = _random_line(rng)
    x = atom() if rng.random() < 0.6 else f"shift({atom()},{rng.randint(-1, 1)})"
    if mutator == "L":
        return f"L({e},{x})"
    return f"R({x},{e})"


def _random_line(rng: random.Random) -> str:
    """O(D) for D with H, h and k coefficients drawn in that order from [-2, 2]."""
    return pretty(LineAtom(DivisorClass(*(rng.randint(-2, 2) for _ in range(3)))))


def _corpus(count: int = 100) -> list[str]:
    rng = random.Random(20240917)
    return [_random_expression(rng, rng.randint(0, 3)) for _ in range(count)]


def _check_props_normalize(ctx: Context) -> tuple[bool, str]:
    calc = ctx.calc
    bad = 0
    unsound = 0
    for text in _corpus():
        tree = parse_object(text)
        try:
            once = calc.normalize(tree)
        except PreconditionError:
            continue
        if calc.normalize(once) != once:
            bad += 1
        if calc.class_of(once) != calc.class_of(tree):
            unsound += 1
    return bad == 0 and unsound == 0, f"{bad} non-idempotent, {unsound} class changes"


def _check_props_roundtrip(ctx: Context) -> tuple[bool, str]:
    bad = 0
    for text in _corpus():
        tree = parse_object(text)
        if parse_object(pretty(tree)) != tree:
            bad += 1
    return bad == 0, f"{bad} failures"


def _twists_for(ctx: Context) -> list[tuple[int, int]]:
    twists = [ctx.config.twist]
    for t in PROPERTY_TWISTS:
        if t not in twists:
            twists.append(t)
    return twists


REGISTRY: tuple[Check, ...] = (
    Check("sod1.semiorthogonal", "8 line bundles: no backward homs",
          "28 vanishing backward homs; unipotent upper-triangular gram", "derived", _check_sod1_semiorthogonal),
    Check("sod1.basis-determinant", "line-bundle classes are a Z-basis", "|det| = 1", "derived", _check_sod1_determinant),
    Check("serre.canonical", "K = -2H-h-k", "-2H-h-k", "pinned", _check_serre_canonical),
    Check("serre.duality-pairing", "chi(x,y) = chi(y,Sx)",
          "chi(x,y) = chi(y, Sx) on all 64 basis pairs", "derived", _check_serre_duality_pairing),
    Check("serre.E-class", "E = H-h-k", "E = H-h-k and H*E = 0", "pinned", _check_serre_e_class),
    Check("serre.adjunction", "(K+E)|_E = -2h-2k", "(K+E)|_E = (-2,-2)", "pinned", _check_serre_adjunction),
    Check("k1.semiorthogonal", "resolution decomposition is semiorthogonal",
          "all backward homs of the 8-object decomposition vanish", "pinned", _check_k1_semiorthogonal),
    Check("kvso.step1.orthogonality", "RHom(O(iH), OE(-1,0)) = 0",
          "complete orthogonality to O, O(H), O(2H); mutation fixes the sheaf", "pinned", _check_step1),
    Check("kvso.step2.mutations", "mutations through O(2H), O(H+h+k), O(H)",
          "O(H+h+k)[1]; OE(0,0); O(h+k)[1]", "pinned", _check_step2),
    Check("kvso.step3.euler-mutations", "L_O O(h) = O(-h)[1] and twists",
          "four Euler-sequence mutations", "pinned", _check_step3_euler),
    Check("kvso.step3.complete-orthogonality", "RHom(O(h+k), O(H-h)) = 0 etc.",
          "O(h+k), O(H-h), O(H-k) mutually completely orthogonal", "pinned", _check_step3_orthogonality),
    Check("kvso.step4.claim", "L_{O(-k)} L_O O(H-h) = OE(-1,0)", "OE(-1,0)", "pinned", _check_step4),
    Check("kvso.triple-exceptional", "length-3 exceptional collection",
          "O(-h), G, F is an exceptional collection", "pinned", _check_triple_exceptional),
    Check("kernel.generators", "kernel generated by [Ecal], [G]+[F]",
          "[Ecal] and [G]+[F] generate the pushforward-killed part of the rank-3 lattice", "pinned",
          _check_kernel_generators),
    Check("kernel.rank", "kernel rank 2", "rank 2", "pinned", _check_kernel_rank),
    Check("kernel.quotient-Z", "quotient is Z", "rank 1, torsion-free", "pinned", _check_kernel_quotient),
    Check("kernel.relation-E-F-Oh", "[Ecal] = [F] + [O(-h)]",
          "[Ecal] = [F] + [O(-h)]; difference vector lies in the kernel", "pinned", _check_kernel_relation),
    Check("ext.triple", "(O(-h), G, F[-2]) is Ext-exceptional",
          "shifted triple passes; unshifted fails with a degree -1 witness", "pinned", _check_ext_triple),
    Check("heart.B", "extension closure is a heart", "three-simple heart from the shifted triple", "pinned",
          _check_heart_b),
    Check("tilt.simples", "tilt yields F[-1], Ecal[-2], G", "classes of F[-1], Ecal[-2], G", "pinned",
          _check_tilt_simples),
    Check("tilt.univ-ext-dims", "Ext^1 multiplicities 1 and 0", "multiplicities (1, 0)", "pinned", _check_tilt_dims),
    Check("spherical.K", "kernel generator is 3-spherical",
          "RHom(Ecal,Ecal) = {0: 1, 3: 1} and S[Ecal] = -[Ecal]", "pinned", _check_spherical),
    Check("descent.serre-generator", "kernel visible in the heart", "kernel generated inside the positive cone",
          "pinned", _descent_verdict("serre_generator")),
    Check("descent.kerZ", "ker Z = kernel lattice", "ker Z equals the kernel lattice", "pinned",
          _descent_verdict("kernel_matches_ker_z")),
    Check("descent.quotient", "quotient is Z", "rank 1, torsion-free", "pinned", _check_descent_quotient),
    Check("descent.strong-downstairs", "induced charge is strong", "induced charge is a strong stability function",
          "pinned", _descent_verdict("induced_strong")),
    Check("axioms.weak-upstairs", "weak stability condition upstairs",
          "weak axioms hold; torsion-pair slopes are ordered", "pinned", _check_axioms_upstairs),
    Check("axioms.bridgeland-downstairs", "Bridgeland condition downstairs",
          "strong stability + support on the rank-1 quotient", "pinned", _check_axioms_downstairs),
    Check("props.hrr-vs-cohomology", "Riemann-Roch matches cohomology",
          "cohomology Euler numbers match Riemann-Roch", "derived", _check_props_hrr),
    Check("props.euler-soundness", "RHom Euler numbers match the pairing",
          "every RHom Euler number equals the Chern-character pairing", "derived", _check_props_euler),
    Check("props.mutation-involution", "class mutations are involutive",
          "class mutations are mutually inverse on the orthogonal complements", "derived", _check_props_involution),
    Check("props.normalize-idempotent", "normalize is idempotent",
          "normalize is idempotent and preserves classes on the corpus", "derived", _check_props_normalize),
    Check("props.parser-roundtrip", "parser round-trip", "parse(print(x)) = x on the corpus", "derived",
          _check_props_roundtrip),
)

CHECK_NAMES = tuple(c.name for c in REGISTRY)
