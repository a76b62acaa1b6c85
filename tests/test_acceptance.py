"""Acceptance suite: every criterion is exact (tolerance zero).

Each test prints one PASS/FAIL line so the suite doubles as a human-readable
scoreboard when run with `pytest -s tests/test_acceptance.py`.
"""

from fractions import Fraction

from quadstab.geometry import (
    DivisorClass,
    Geometry,
    GeometryConfig,
    GradedDims,
    SurfaceDivisor,
)
from quadstab.expressions import LineAtom, PushAtom, Shift, parse_object, pretty
from quadstab.checks import _corpus
from quadstab.harness import run_checks, default_config
from quadstab.lattice import IntegerLattice, quotient, solve_rational
from quadstab.stability import (
    check_stability_function,
    check_weak_stability_condition,
    descend,
)

D = DivisorClass
S = SurfaceDivisor
Q = Fraction


def report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_c01_sod1_semiorthogonality(ctx):
    objs = ctx.sod1_objects()
    computed = []
    for j in range(8):
        for i in range(j):
            r = ctx.calc.rhom(objs[j], objs[i])
            computed.append(r.status == "determined" and r.dims.is_zero())
    gram = ctx.kt.gram_matrix([ctx.calc.class_of(x) for x in objs])
    unipotent = all(gram[i][i] == 1 for i in range(8)) and all(
        gram[j][i] == 0 for j in range(8) for i in range(j)
    )
    ok = len(computed) == 28 and all(computed) and unipotent
    report("1 sod1-semiorthogonality", ok)


def test_c02_canonical_and_exceptional_classes(ctx):
    g = ctx.geometry
    ok = (
        g.canonical_class() == D(-2, -1, -1)
        and g.exceptional_divisor_class() == D(1, -1, -1)
        and g.restrict_to_E(g.canonical_class() + g.exceptional_divisor_class())
        == S(-2, -2)
    )
    report("2 canonical-and-exceptional", ok)


def test_c03_mutation_identities(ctx):
    cases = [
        ("L(O(2H), OE(0,0))", "shift(O(H+h+k),1)"),
        ("L(O(H+h+k), O(2H))", "OE(0,0)"),
        ("L(O(H), OE(0,0))", "shift(O(h+k),1)"),
        ("L(O(), O(h))", "shift(O(-h),1)"),
        ("L(O(), O(k))", "shift(O(-k),1)"),
        ("L(O(H), O(H+h))", "shift(O(H-h),1)"),
        ("L(O(H), O(H+k))", "shift(O(H-k),1)"),
        ("L(O(-k), L(O(), O(H-h)))", "OE(-1,0)"),
    ]
    ok = True
    for src, tgt in cases:
        rep = ctx.calc.verify_identity(ctx.obj(src), ctx.obj(tgt))
        ok = ok and rep.ok
    report("3 mutation-identities", ok)


GOLDEN = [
    ("O()", "OE(-1,0)", {}),
    ("O(H)", "OE(-1,0)", {}),
    ("O(2H)", "OE(-1,0)", {}),
    ("OE(-1,0)", "OE(0,-1)", {2: 1}),
    ("OE(-1,0)", "O(-k)", {2: 1}),
    ("O(-h)", "G", {1: 1}),
    ("O(-h)", "F", {-1: 1, 1: 1}),
    ("G", "F", {0: 1}),
    ("O(-h)", "Ecal", {1: 1}),
    ("Ecal", "Ecal", {0: 1, 3: 1}),
]


def test_c04_golden_rhom_table(ctx):
    ok = True
    for src, tgt, dims in GOLDEN:
        r = ctx.calc.rhom(ctx.obj(src), ctx.obj(tgt))
        ok = ok and r.status == "determined" and r.dims == GradedDims(dims)
    report("4 golden-rhom-table", ok)


def test_c05_kernel_lattice(ctx):
    kernel = ctx.kernel_lattice()
    quot = quotient(ctx.dprime_lattice(), kernel)
    relation = ctx.calc.class_of(ctx.names["Ecal"]) == ctx.calc.class_of(
        ctx.names["F"]
    ) + ctx.kt.line_class(D(0, -1, 0))
    triple_rows = [
        [Q(v) for v in ctx.kt.coordinates(ctx.calc.class_of(x))]
        for x in ctx.triple_objects()
    ]
    coords = []
    for cls in ctx.kernel_classes():
        sol = solve_rational(triple_rows, [Q(v) for v in ctx.kt.coordinates(cls)])
        coords.append([int(c) for c in sol])
    difference_in_kernel = IntegerLattice(3, coords).member([1, -1, 0])
    ok = (
        kernel.rank == 2
        and quot.rank == 1
        and quot.torsion == ()
        and relation
        and difference_in_kernel
    )
    report("5 kernel-lattice", ok)


def test_c06_ext_exceptionality(ctx):
    good = ctx.calc.is_ext_exceptional(
        [ctx.obj("O(-h)"), ctx.names["G"], ctx.obj("shift(F,-2)")]
    )
    bad = ctx.calc.is_ext_exceptional(
        [ctx.obj("O(-h)"), ctx.names["G"], ctx.names["F"]]
    )
    ok = good.ok and not bad.ok and (0, 2, -1) in bad.failures
    report("6 ext-exceptionality", ok)


def test_c07_tilt(ctx):
    heart_B = ctx.hearts["B"]
    tilted = ctx.hearts["Atilde"]
    expected_classes = [
        ctx.calc.class_of(ctx.obj("shift(F,-1)")),
        ctx.calc.class_of(ctx.obj("shift(Ecal,-2)")),
        ctx.calc.class_of(ctx.names["G"]),
    ]
    mults = (heart_B.hom_table[0][2].get(1), heart_B.hom_table[1][2].get(1))
    ok = list(tilted.classes) == expected_classes and mults == (1, 0)
    report("7 tilt", ok)


def test_c08_sphericality(ctx):
    E = ctx.names["Ecal"]
    r = ctx.calc.rhom(E, E)
    cls = ctx.calc.class_of(E)
    ok = (
        r.status == "determined"
        and r.dims == GradedDims({0: 1, 3: 1})
        and ctx.kt.serre_class(cls) == cls.scale(-1)
        and ctx.calc.is_spherical(Shift(E, 1), 3)
    )
    report("8 sphericality", ok)


def test_c09_stability(ctx):
    heart = ctx.hearts["Atilde"]
    _, Z = ctx.charges["Z_up"]
    weak = check_stability_function(heart, Z)
    rep = descend(ctx.calc, heart, ctx.kernel_classes(), Z)
    upstairs = check_weak_stability_condition(heart, Z, rep)
    nonzero = [img for img in rep.quotient.projection if any(img)]
    strong_down = all(
        im > 0 or (im == 0 and re < 0)
        for re, im in (rep.induced.value(img) for img in nonzero)
    )
    ok = (
        weak.ok
        and upstairs.ok
        and rep.kernel_matches_ker_z.ok
        and rep.quotient.rank == 1
        and rep.quotient.torsion == ()
        and rep.support.ok
        and strong_down
        and rep.ok
    )
    report("9 stability", ok)


def test_c10_property_suites(ctx):
    ok = True
    # Riemann-Roch vs cohomology and Serre duality at three twists
    for twist in [(-1, -1), (0, 0), (-2, 0)]:
        g = Geometry(GeometryConfig(*twist))
        unit = g.chern_character(D(0, 0, 0))
        K = g.canonical_class()
        for nH in range(-4, 5):
            for nh in range(-4, 5):
                for nk in range(-4, 5):
                    dd = D(nH, nh, nk)
                    coh = g.threefold_cohomology(dd)
                    ok = ok and coh.euler() == g.hrr_euler(unit, g.chern_character(dd))
                    ok = ok and coh == g.threefold_cohomology(K - dd).dual(3)
        for d in range(-6, 7):
            for e in range(-6, 7):
                lhs = g.surface_cohomology(S(d, e))
                ok = ok and lhs == g.surface_cohomology(S(-2 - d, -2 - e)).dual(2)
    # euler soundness of every determined RHom over the atom box
    atoms = [
        LineAtom(D(nH, nh, nk))
        for nH in range(-2, 3)
        for nh in range(-2, 3)
        for nk in range(-2, 3)
    ] + [PushAtom(S(d, e)) for d in range(-2, 3) for e in range(-2, 3)]
    for x in atoms:
        cx = ctx.calc.class_of(x)
        for y in atoms:
            r = ctx.calc.rhom(x, y)
            expected = ctx.kt.euler_pairing(cx, ctx.calc.class_of(y))
            ok = ok and r.euler == expected
            if r.status == "determined":
                ok = ok and r.dims.euler() == expected
    # class-mutation involution on the orthogonal complements
    import random

    rng = random.Random(7)
    basis = ctx.kt.sod1_classes()
    for _ in range(40):
        e = basis[rng.randrange(8)]
        x = ctx.kt.from_coordinates([rng.randint(-3, 3) for _ in range(8)])
        dom = x - e.scale(ctx.kt.euler_pairing(x, e))
        ok = ok and ctx.kt.mutate_class_right(ctx.kt.mutate_class_left(e, dom), e) == dom
        ok = ok and ctx.kt.euler_pairing(e, ctx.kt.mutate_class_left(e, x)) == 0
    # normalize idempotence and parser round-trip on the corpus
    from quadstab.calculus import PreconditionError

    for text in _corpus(100):
        tree = parse_object(text)
        ok = ok and parse_object(pretty(tree)) == tree
        try:
            once = ctx.calc.normalize(tree)
        except PreconditionError:
            continue
        ok = ok and ctx.calc.normalize(once) == once
    report("10 property-suites", ok)


def test_harness_registry_all_pass():
    results = run_checks(default_config())
    bad = [(r.name, r.status) for r in results if r.status != "pass"]
    print(f"ACCEPTANCE harness-registry: {'PASS' if not bad else f'FAIL {bad}'}")
    assert not bad
