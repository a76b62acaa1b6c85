"""Golden graded-Hom values and the mutation engine.

Every frozen dimension table in GOLDEN_RHOM is a value the construction
quotes; the engine must reproduce each one exactly and with determined
status.
"""

import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from quadstab.geometry import DivisorClass, Geometry, GeometryConfig, GradedDims, SurfaceDivisor
from quadstab.expressions import (
    MAX_DEPTH,
    Cone,
    LineAtom,
    PushAtom,
    Shift,
    Sum,
    Zero,
    parse_object,
)
from quadstab.calculus import (
    MAX_COPIES,
    Calculus,
    CopyLimitError,
    PreconditionError,
    RHomResult,
    SoundnessError,
)
from quadstab import harness
from quadstab.checks import _corpus
from quadstab.harness import Context, default_config, run_checks, validate_config
from quadstab.lattice import KTheory

D = DivisorClass
S = SurfaceDivisor


# (source, target, {degree: dim}) -- all statuses must be 'determined'
GOLDEN_RHOM = [
    ("O()", "OE(-1,0)", {}),
    ("O(H)", "OE(-1,0)", {}),
    ("O(2H)", "OE(-1,0)", {}),
    ("O(2H)", "OE(0,0)", {0: 1}),
    ("O(H+h+k)", "O(2H)", {0: 1}),
    ("O()", "O(h)", {0: 2}),
    ("O()", "O(H-h)", {0: 2}),
    ("O(h+k)", "O(H-h)", {}),
    ("O(h+k)", "O(H-k)", {}),
    ("O(-k)", "OE(-1,0)", {}),
    ("O(-h)", "OE(0,-1)", {}),
    ("O(-h-H+h+k)", "OE(0,-1)", {1: 1}),  # O(-E-h) against the second ruling sheaf
    ("OE(-1,0)", "OE(0,-1)", {2: 1}),
    ("OE(-1,0)", "O(-k)", {2: 1}),
    ("O(-h)", "G", {1: 1}),
    ("O(-h)", "Ecal", {1: 1}),
    ("O(-h)", "F", {-1: 1, 1: 1}),
    ("G", "F", {0: 1}),
    ("G", "G", {0: 1}),
    ("F", "F", {0: 1}),
    ("Ecal", "Ecal", {0: 1, 3: 1}),
    ("G", "O(-h)", {}),
    ("F", "O(-h)", {}),
    ("F", "G", {}),
    ("shift(F,-2)", "shift(F,-2)", {0: 1}),
    ("O(-h)", "shift(F,-2)", {1: 1, 3: 1}),
    ("G", "shift(F,-2)", {2: 1}),
]


class TestGoldenRhomTable:
    @pytest.mark.parametrize("src, tgt, dims", GOLDEN_RHOM)
    def test_value(self, ctx, src, tgt, dims):
        r = ctx.calc.rhom(ctx.obj(src), ctx.obj(tgt))
        assert r.status == "determined", f"ambiguous: {r}"
        assert r.dims == GradedDims(dims)

    @pytest.mark.parametrize("src, tgt, dims", GOLDEN_RHOM)
    def test_euler_consistency(self, ctx, src, tgt, dims):
        X, Y = ctx.obj(src), ctx.obj(tgt)
        r = ctx.calc.rhom(X, Y)
        assert r.euler == ctx.kt.euler_pairing(ctx.calc.class_of(X), ctx.calc.class_of(Y))
        assert r.euler == GradedDims(dims).euler()


class TestRhomMechanics:
    def test_shift_translation(self, ctx):
        # Hom^i(X[n], Y) = Hom^{i-n}(X, Y) and Hom^i(X, Y[n]) = Hom^{i+n}(X, Y)
        base = ctx.calc.rhom(ctx.obj("OE(-1,0)"), ctx.obj("OE(0,-1)")).dims
        shifted_first = ctx.calc.rhom(ctx.obj("shift(OE(-1,0),-2)"), ctx.obj("OE(0,-1)"))
        assert shifted_first.dims == base.translate(-2)
        shifted_second = ctx.calc.rhom(ctx.obj("OE(-1,0)"), ctx.obj("shift(OE(0,-1),-2)"))
        assert shifted_second.dims == base.translate(2)

    def test_sum_additivity(self, ctx):
        one = ctx.calc.rhom(ctx.obj("O()"), ctx.obj("O(h)")).dims
        double = ctx.calc.rhom(ctx.obj("O()"), ctx.obj("sum(O(h),O(h))")).dims
        assert double == one + one

    def test_zero_object(self, ctx):
        assert ctx.calc.rhom(Zero(), ctx.obj("O()")).is_empty()
        assert ctx.calc.rhom(ctx.obj("O()"), Zero()).is_empty()

    def test_ambiguous_is_a_value(self, ctx):
        # overlapping section spaces on the surface: not determined by the
        # defining resolution, but the Euler number is still exact
        # (chi_E(1,1) - chi_E(0,0) = 4 - 1 = 3)
        r = ctx.calc.rhom(ctx.obj("OE(0,0)"), ctx.obj("OE(1,1)"))
        assert r.status == "ambiguous"
        lo, hi = r.bounds
        assert r.euler == 3
        assert hi is not None and hi.get(0) >= lo.get(0) >= 3

    def test_unspecified_cone_blocks_refinement(self, ctx):
        # the same triangle shape as a mutation cone, but parsed: no
        # provenance, so the identity-tracking rank is not forced
        parsed = ctx.obj("cone(shift(OE(-1,0),-2), OE(0,-1))")
        r = ctx.calc.rhom(ctx.obj("OE(-1,0)"), parsed)
        assert r.status == "ambiguous"

    def test_mutation_cone_refinement_applies(self, ctx):
        r = ctx.calc.rhom(ctx.obj("OE(-1,0)"), ctx.names["Ecal"])
        assert r.is_empty()


class TestMutations:
    @pytest.mark.parametrize(
        "expr, target",
        [
            ("L(O(2H), OE(0,0))", "shift(O(H+h+k),1)"),
            ("L(O(H+h+k), O(2H))", "OE(0,0)"),
            ("L(O(H), OE(0,0))", "shift(O(h+k),1)"),
            ("L(O(), O(h))", "shift(O(-h),1)"),
            ("L(O(), O(k))", "shift(O(-k),1)"),
            ("L(O(H), O(H+h))", "shift(O(H-h),1)"),
            ("L(O(H), O(H+k))", "shift(O(H-k),1)"),
            ("L(O(-k), L(O(), O(H-h)))", "OE(-1,0)"),
        ],
    )
    def test_named_mutations(self, ctx, expr, target):
        result = ctx.obj(expr)
        report = ctx.calc.verify_identity(result, ctx.obj(target))
        assert report.ok, report

    def test_mutation_through_orthogonal_is_identity(self, ctx):
        P = ctx.obj("OE(-1,0)")
        for i in range(3):
            assert ctx.calc.mutate_left(ctx.obj(f"O({i}H)"), P) == P

    def test_self_mutation_vanishes(self, ctx):
        assert ctx.calc.mutate_left(ctx.obj("O(h)"), ctx.obj("O(h)")) == Zero()
        assert ctx.calc.mutate_left(ctx.obj("O(h)"), ctx.obj("shift(O(h),2)")) == Zero()

    def test_orthogonality_after_left_mutation(self, ctx):
        cases = [("O(2H)", "OE(0,0)"), ("O()", "O(h)"), ("OE(-1,0)", "O(-k)"),
                 ("OE(-1,0)", "OE(0,-1)"), ("O()", "O(H-h)")]
        for e_text, x_text in cases:
            e = ctx.obj(e_text)
            out = ctx.calc.mutate_left(e, ctx.obj(x_text))
            assert ctx.calc.rhom(e, out).is_empty(), (e_text, x_text)

    def test_orthogonality_after_right_mutation(self, ctx):
        out = ctx.calc.mutate_right(ctx.names["G"], ctx.obj("OE(-1,0)"))
        assert ctx.calc.rhom(out, ctx.obj("OE(-1,0)")).is_empty()

    def test_right_mutation_class(self, ctx):
        out = ctx.calc.mutate_right(ctx.names["G"], ctx.obj("OE(-1,0)"))
        assert ctx.calc.class_of(out) == ctx.calc.class_of(ctx.obj("O(-k)"))

    def test_right_then_left_identity_when_orthogonal(self, ctx):
        # O(-k) has no homs to OE(-1,0), so the right mutation undoes the
        # left one outright (the engine recognizes the inverse equivalence)
        e = ctx.obj("OE(-1,0)")
        x = ctx.obj("O(-k)")
        lx = ctx.calc.mutate_left(e, x)
        back = ctx.calc.mutate_right(lx, e)
        assert back == x

    def test_left_then_right_identity_when_orthogonal(self, ctx):
        # O(h) maps to OE(-1,0) but receives nothing back, so the right
        # mutation is a genuine cone and the left mutation undoes it
        e = ctx.obj("OE(-1,0)")
        y = ctx.obj("O(h)")
        assert not ctx.calc.rhom(y, e).is_empty()
        assert ctx.calc.rhom(e, y).is_empty()
        ry = ctx.calc.mutate_right(y, e)
        assert ry != y
        assert ctx.calc.mutate_left(e, ry) == y

    def test_mutation_requires_exceptional(self, ctx):
        with pytest.raises(PreconditionError):
            ctx.calc.mutate_left(ctx.obj("Ecal"), ctx.obj("O()"))

    def test_mutation_distributes_over_sum(self, ctx):
        out = ctx.calc.mutate_left(ctx.obj("O()"), ctx.obj("sum(O(h),O(k))"))
        expected = ctx.calc.normalize(ctx.obj("sum(shift(O(-h),1),shift(O(-k),1))"))
        assert out == expected


class TestDefiningTriangles:
    def test_g_is_the_expected_cone(self, ctx):
        # cone on OE(-1,0)[-2] -> O(-k)
        G = ctx.names["G"]
        assert isinstance(G, Cone)
        assert G.source == Shift(PushAtom(S(-1, 0)), -2)
        assert G.target == LineAtom(D(0, 0, -1))

    def test_e_is_the_expected_cone(self, ctx):
        E = ctx.names["Ecal"]
        assert isinstance(E, Cone)
        assert E.source == Shift(PushAtom(S(-1, 0)), -2)
        assert E.target == PushAtom(S(0, -1))

    def test_two_term_complex_shape(self, ctx):
        # L_O O(H-h) is the cone on OE(-1,0)[-1] -> O(-k)[1]; its class is
        # [OE(-1,0)] - [O(-k)]
        W = ctx.obj("L(O(), O(H-h))")
        assert isinstance(W, Cone)
        assert W.source == Shift(PushAtom(S(-1, 0)), -1)
        assert W.target == Shift(LineAtom(D(0, 0, -1)), 1)
        cls = ctx.calc.class_of(W)
        expected = ctx.calc.class_of(ctx.obj("OE(-1,0)")) - ctx.calc.class_of(
            ctx.obj("O(-k)")
        )
        assert cls == expected

    def test_two_term_complex_homs(self, ctx):
        W = ctx.obj("L(O(), O(H-h))")
        assert ctx.calc.rhom(ctx.obj("O(-h)"), W).dims == GradedDims({0: 1})
        assert ctx.calc.rhom(ctx.obj("O()"), W).is_empty()
        r = ctx.calc.rhom(W, ctx.obj("OE(-1,0)"))
        assert r.status == "determined"

    def test_f_class_matches_triangle(self, ctx):
        # [F] = [Ecal] - [O(-h)]
        calc = ctx.calc
        assert calc.class_of(ctx.names["F"]) == calc.class_of(
            ctx.names["Ecal"]
        ) - calc.class_of(ctx.obj("O(-h)"))


class TestNormalize:
    def test_cone_with_zero_source(self, ctx):
        x = Cone(Zero(), ctx.obj("O(h)"))
        assert ctx.calc.normalize(x) == ctx.obj("O(h)")

    def test_cone_with_zero_target(self, ctx):
        x = Cone(ctx.obj("O(h)"), Zero())
        assert ctx.calc.normalize(x) == Shift(LineAtom(D(0, 1, 0)), 1)

    def test_nested_shift(self, ctx):
        x = ctx.calc.normalize(ctx.obj("shift(shift(O(h),1),-1)"))
        assert x == LineAtom(D(0, 1, 0))

    def test_sum_flattening(self, ctx):
        x = parse_object("sum(sum(O(h),O(k)),zero(),O())")
        out = ctx.calc.normalize(x)
        assert isinstance(out, Sum) and len(out.children) == 3

    def test_normalize_preserves_class(self, ctx):
        for text in ["L(O(2H), OE(0,0))", "L(O(-k), L(O(), O(H-h)))", "R(G, OE(-1,0))",
                     "cone(O(h), shift(O(k),2))", "sum(O(), shift(OE(1,1),-1))"]:
            tree = parse_object(text, ctx.names)
            assert ctx.calc.class_of(ctx.calc.normalize(tree)) == ctx.calc.class_of(tree)

    def test_idempotent_on_corpus(self, ctx):
        from quadstab.checks import _corpus

        calc = ctx.calc
        for text in _corpus(100):
            tree = parse_object(text)
            try:
                once = calc.normalize(tree)
            except PreconditionError:
                continue
            assert calc.normalize(once) == once


def _normal_form(calc, tree):
    """calc.normalize(tree), or the type of the error it raises."""
    try:
        return calc.normalize(tree)
    except (PreconditionError, CopyLimitError) as exc:
        return type(exc)


class TestNormalizeMemo:
    """normalize keeps its result per node on the Calculus; the memo must not
    change a result, and a failure is raised again, never kept."""

    def test_shared_equals_fresh_on_corpus(self):
        shared = Calculus(Geometry())
        trees = [parse_object(text) for text in _corpus()]
        fresh = [_normal_form(Calculus(Geometry()), tree) for tree in trees]
        assert [_normal_form(shared, tree) for tree in trees] == fresh
        assert any(isinstance(out, Cone) for out in fresh)

    def test_second_call_returns_the_same_object(self):
        calc = Calculus(Geometry())
        tree = parse_object("L(OE(-1,0), L(O(), O(H-k)))")
        assert calc.normalize(tree) is calc.normalize(tree)
        assert calc.normalize(parse_object("L(OE(-1,0), L(O(), O(H-k)))")) is calc.normalize(tree)

    def test_copy_limit_is_raised_on_every_call(self):
        calc = Calculus(Geometry())
        tree = parse_object("L(O(), O(10000H))")
        for _ in range(2):
            with pytest.raises(CopyLimitError):
                calc.normalize(tree)
        assert tree not in calc._norm_memo

    def test_precondition_failure_is_raised_on_every_call(self):
        calc = Calculus(Geometry(GeometryConfig(0, 0)))
        tree = parse_object("L(OE(-1,0), O(-k))")
        for _ in range(2):
            with pytest.raises(PreconditionError, match="is ambiguous"):
                calc.normalize(tree)
        assert tree not in calc._norm_memo


class TestPredicates:
    def test_line_bundles_exceptional(self, ctx):
        assert ctx.calc.is_exceptional(ctx.obj("O(2H+h-k)"))

    def test_surface_atom_exceptional(self, ctx):
        assert ctx.calc.is_exceptional(ctx.obj("OE(-1,0)"))

    def test_kernel_object_not_exceptional(self, ctx):
        assert not ctx.calc.is_exceptional(ctx.names["Ecal"])

    def test_sod1_semiorthogonal(self, ctx):
        assert ctx.calc.is_semiorthogonal(ctx.sod1_objects()).ok

    def test_sod1_reversed_fails_with_witness(self, ctx):
        report = ctx.calc.is_semiorthogonal(list(reversed(ctx.sod1_objects())))
        assert not report.ok
        assert report.violations

    def test_sod2_semiorthogonal(self, ctx):
        assert ctx.calc.is_semiorthogonal(ctx.sod2_objects()).ok

    def test_ext_exceptional_triple(self, ctx):
        good = ctx.calc.is_ext_exceptional(
            [ctx.obj("O(-h)"), ctx.names["G"], ctx.obj("shift(F,-2)")]
        )
        assert good.ok

    def test_ext_exceptional_fails_without_shift(self, ctx):
        bad = ctx.calc.is_ext_exceptional([ctx.obj("O(-h)"), ctx.names["G"], ctx.names["F"]])
        assert not bad.ok
        assert (0, 2, -1) in bad.failures

    def test_single_object_ext_exceptional(self, ctx):
        assert ctx.calc.is_ext_exceptional([ctx.obj("O(h)")]).ok

    def test_spherical(self, ctx):
        assert ctx.calc.is_spherical(ctx.names["Ecal"], 3)
        assert ctx.calc.is_spherical(ctx.obj("shift(Ecal,1)"), 3)
        assert not ctx.calc.is_spherical(ctx.obj("O()"), 3)

    @pytest.mark.parametrize("dims, spherical", [({0: 2}, True), ({0: 1}, False)])
    def test_zero_spherical_wants_two_dimensions_in_degree_zero(self, ctx, monkeypatch, dims, spherical):
        # A 0-spherical x has RHom(x, x) = k^2 in degree 0 and S(x) = x.
        monkeypatch.setattr(ctx.calc, "determined_dims", lambda x, y, who: GradedDims(dims))
        monkeypatch.setattr(ctx.calc.ktheory, "serre_class", lambda cls: cls)
        assert ctx.calc.is_spherical(ctx.obj("O()"), 0) is spherical


def _strip_tags(tree):
    """Forget provenance and mutation tags, keeping the same object."""
    from quadstab.expressions import Cone, Shift, Sum

    if isinstance(tree, Shift):
        return Shift(_strip_tags(tree.child), tree.n)
    if isinstance(tree, Sum):
        return Sum(tuple(_strip_tags(c) for c in tree.children))
    if isinstance(tree, Cone):
        return Cone(_strip_tags(tree.source), _strip_tags(tree.target), "unspecified", None)
    return tree


class TestSoundnessCrossChecks:
    """The canonicity machinery must never contradict the plain LES."""

    @pytest.mark.parametrize("src, tgt, dims", GOLDEN_RHOM)
    def test_untagged_bounds_contain_golden_dims(self, ctx, src, tgt, dims):
        X = _strip_tags(ctx.obj(src))
        Y = _strip_tags(ctx.obj(tgt))
        r = ctx.calc.rhom(X, Y)
        golden = GradedDims(dims)
        assert r.euler == golden.euler()
        if r.status == "determined":
            assert r.dims == golden
        else:
            lo, hi = r.bounds
            for deg, dim in golden.items():
                assert lo.get(deg) <= dim
                if hi is not None:
                    assert hi.get(deg) >= dim
            if hi is not None:
                for deg, dim in lo.items():
                    assert golden.get(deg) >= dim

    @pytest.mark.parametrize("src, tgt, dims", GOLDEN_RHOM)
    def test_serre_duality_of_dims(self, ctx, src, tgt, dims):
        # dims_i(X, Y) = dims_{3-i}(Y, X (x) omega) whenever both determined
        X, Y = ctx.obj(src), ctx.obj(tgt)
        omega = ctx.geometry.canonical_class()
        dual = ctx.calc.rhom(Y, ctx.calc.tensor_line(X, omega))
        if dual.status == "determined":
            assert dual.dims.dual(3) == GradedDims(dims)

    def test_sod2_gram_unipotent(self, ctx):
        classes = [ctx.calc.class_of(x) for x in ctx.sod2_objects()]
        gram = ctx.kt.gram_matrix(classes)
        for i in range(8):
            assert gram[i][i] == 1
            for j in range(i):
                assert gram[i][j] == 0


class TestIdentityCertification:
    def test_class_mismatch_detected(self, ctx):
        rep = ctx.calc.verify_identity(ctx.obj("O(h)"), ctx.obj("O(k)"))
        assert not rep.ok and not rep.class_ok

    def test_probe_mismatch_detected(self, ctx):
        # same class, different objects: O(-h)[1] + O(h) vs direct sum with
        # the roles of h and k swapped has a different class, so instead use
        # two objects with equal class but different homs
        a = ctx.obj("sum(O(h), shift(O(h),2))")
        b = ctx.obj("sum(O(h), shift(O(h),-2))")
        assert ctx.calc.class_of(a) == ctx.calc.class_of(b)
        rep = ctx.calc.verify_identity(a, b)
        assert not rep.ok and rep.class_ok and rep.mismatches

    def test_structural_equality_short_circuits(self, ctx):
        rep = ctx.calc.verify_identity(ctx.names["G"], ctx.names["G"])
        assert rep.ok


class TestMemoIndependence:
    """RHom results do not depend on memo state or on query order."""

    PAIRS = 1000

    def test_shared_fresh_and_reversed_agree(self):
        normalizer = Calculus(Geometry())
        objects = []
        for text in _corpus():
            try:
                objects.append(normalizer.normalize(parse_object(text)))
            except PreconditionError:
                continue
        rng = random.Random(20261018)
        pairs = [(rng.choice(objects), rng.choice(objects)) for _ in range(self.PAIRS)]
        hashes = [hash(x) for x in objects]

        shared = Calculus(Geometry())
        forward = [shared.rhom(x, y) for x, y in pairs]
        reverse_calc = Calculus(Geometry())
        reverse = [reverse_calc.rhom(x, y) for x, y in reversed(pairs)][::-1]
        fresh = [Calculus(Geometry()).rhom(x, y) for x, y in pairs]

        assert forward == fresh
        assert reverse == fresh
        assert [hash(x) for x in objects] == hashes
        assert len(set(objects)) > 50


class TestTwistMemo:
    """Serre transport twists each subtree once: twists are memoized per
    (node, divisor) on the Calculus."""

    def test_deep_cone_chain_is_linear(self):
        text = "O(h)"
        for _ in range(MAX_DEPTH - 1):
            text = f"cone(O(),{text})"
        calc = Calculus(Geometry())
        x = parse_object(text)
        # RHom(O(), chain) is ambiguous, so the mutation is refused
        with pytest.raises(PreconditionError):
            calc.mutate_left(parse_object("O()"), x)
        # re-twisting each subtree at every level would take 169,100 calls
        assert len(calc._twist_memo) <= 3000
        omega = calc.geometry.canonical_class()
        assert calc.tensor_line(x, omega) == Calculus(Geometry()).tensor_line(x, omega)


class TestTwistCommutesWithNormalize:
    """Twisting by a line bundle is an equivalence, so it commutes with the
    mutations, L_e x (x) O(D) = L_{e(D)} x(D): twisting an unevaluated tree
    and then normalizing gives the twisted normal form, mutation records
    included."""

    TWISTS = (D(1, 0, 0), D(0, 1, 0), D(0, 0, -1))

    def test_on_mutation_trees(self):
        texts = [text for text in _corpus() if "L(" in text or "R(" in text]
        trees = [parse_object(text) for text in texts]
        trees += validate_config(default_config()).names.values()
        assert len(trees) == 30
        calc = Calculus(Geometry())
        for tree in trees:
            normal = _normal_form(calc, tree)
            for twist in self.TWISTS:
                expected = normal if isinstance(normal, type) else calc.tensor_line(normal, twist)
                assert _normal_form(calc, calc.tensor_line(tree, twist)) == expected, (tree, twist)


class TestCopyLimit:
    """A mutation cone holds one copy of e per dimension of a Hom space; past
    MAX_COPIES the calculus refuses before building any of them."""

    @pytest.mark.parametrize("text", ["L(O(),O(10000H))", "R(O(10000H),O())", "L(O(),O(30H))"])
    def test_refused_past_the_limit(self, text):
        with pytest.raises(CopyLimitError, match=f"more than the limit {MAX_COPIES}"):
            Calculus(Geometry()).normalize(parse_object(text))

    def test_below_the_limit_builds_the_sum(self):
        calc = Calculus(Geometry())
        # RHom(O, O(20H)) = {0: 3311}
        out = calc.normalize(parse_object("L(O(),O(20H))"))
        assert isinstance(out.source, Sum) and len(out.source.children) == 3311


R3 = range(-3, 4)
LINE_GRID = [LineAtom(D(a, b, c)) for a in R3 for b in R3 for c in R3]
PUSH_GRID = [PushAtom(S(d, e)) for d in R3 for e in R3]


@pytest.fixture(scope="module")
def atom_grid():
    """RHom of every pair of grid atoms, of all four kinds, on one Calculus,
    and the size of its atom memo right after."""
    calc = Calculus(Geometry())
    atoms = LINE_GRID + PUSH_GRID
    values = {(x, y): calc.rhom(x, y) for x in atoms for y in atoms}
    return calc, values, len(calc._atom_memo)


class TestAtomMemo:
    """Atom pairs are memoized by (kind, divisor difference), apart from the
    pair memo; the memo must not change a value."""

    def test_shared_equals_fresh_and_twisted(self, atom_grid):
        calc, values, _ = atom_grid
        rng = random.Random(20261018)
        twists = [x.divisor for x in LINE_GRID]
        for x, y in rng.sample(list(values), 3000):
            assert Calculus(Geometry()).rhom(x, y) == values[x, y]
            T = rng.choice(twists)
            fresh = Calculus(Geometry())
            assert fresh.rhom(fresh.tensor_line(x, T), fresh.tensor_line(y, T)) == values[x, y]

    def test_line_pairs_are_threefold_cohomology(self, atom_grid):
        calc, values, _ = atom_grid
        g = Geometry()
        for x in LINE_GRID:
            for y in LINE_GRID:
                assert values[x, y] == RHomResult.exact(g.threefold_cohomology(y.divisor - x.divisor))

    def test_serre_duality(self, atom_grid):
        calc, values, _ = atom_grid
        omega = calc.geometry.canonical_class()
        determined = 0
        for (x, y), r in values.items():
            if r.determined:
                determined += 1
                assert r == calc.rhom(y, calc.tensor_line(x, omega)).dual(3), (x, y)
        # only pairs of surface sheaves can be ambiguous
        assert determined >= len(values) - len(PUSH_GRID) ** 2

    def test_atom_pairs_bypass_the_pair_memo(self, atom_grid):
        calc, values, atom_keys = atom_grid
        assert len(values) == (343 + 49) ** 2
        assert calc._rhom_memo == {} and not calc._stack
        # 13^3 line-line differences, and 13^2 for each of the three other kinds
        assert atom_keys == 13**3 + 3 * 13**2


R2 = range(-2, 3)
SMALL_GRID = [LineAtom(D(a, b, c)) for a in R2 for b in R2 for c in R2] + [PushAtom(S(d, e)) for d in R2 for e in R2]
ATOM_PAIRS = [(x, y) for x in SMALL_GRID for y in SMALL_GRID]


class TestAtomRhom:
    """rhom answers two atoms straight from the atom memo, since an atom is
    its own normal form; every other pair goes through normalize."""

    @staticmethod
    def via_normal_forms(calc, x, y):
        return calc._info(calc.normalize(x), calc.normalize(y))

    def test_fresh(self):
        for x, y in random.Random(2026).sample(ATOM_PAIRS, 400):
            reference = Calculus(Geometry())
            assert Calculus(Geometry()).rhom(x, y) == self.via_normal_forms(reference, x, y), (x, y)

    def test_warm(self):
        assert len({(type(x), type(y)) for x, y in ATOM_PAIRS}) == 4
        warm, reference = Calculus(Geometry()), Calculus(Geometry())
        values = [warm.rhom(x, y) for x, y in ATOM_PAIRS]
        assert values == [self.via_normal_forms(reference, x, y) for x, y in ATOM_PAIRS]
        assert [warm.rhom(x, y) for x, y in reversed(ATOM_PAIRS)] == values[::-1]
        assert values == [self.via_normal_forms(warm, x, y) for x, y in ATOM_PAIRS]

    def test_a_non_atom_still_reaches_normalize(self, monkeypatch):
        calc = Calculus(Geometry())
        X, Y = parse_object("L(O(),O(H))"), parse_object("O()")
        normal = calc.normalize(X)
        assert normal != X
        seen = []
        normalize = Calculus.normalize

        def spying(self, x):
            seen.append(x)
            return normalize(self, x)

        monkeypatch.setattr(Calculus, "normalize", spying)
        assert calc.rhom(X, Y) == calc.rhom(normal, Y)
        assert X in seen
        seen.clear()
        calc.rhom(LineAtom(D(0, 0, 0)), PushAtom(S(1, 0)))
        assert seen == []


class TestReportOpCounts:
    """The default report reuses atom values by divisor difference: without
    the atom memo it makes about 25,000 cohomology calls and 23,900 pair
    memo entries.  Its 2,321 Euler pairings have 332 distinct left classes,
    and the pairing keeps one covector per left class; props.euler-soundness
    reads its oracle from one Gram table, not one pairing per pair.  rhom
    answers two atoms without normalize, so the report makes 2,884
    normalize calls."""

    def test_default_report(self, monkeypatch):
        calls = {"n": 0}

        def counting(name):
            original = getattr(Geometry, name)

            def wrapper(*args):
                calls["n"] += 1
                return original(*args)

            is_static = isinstance(inspect.getattr_static(Geometry, name), staticmethod)
            return staticmethod(wrapper) if is_static else wrapper

        for name in ("threefold_cohomology", "surface_cohomology"):
            monkeypatch.setattr(Geometry, name, counting(name))
        lefts = set()
        pairing, normalize = KTheory.euler_pairing, Calculus.normalize
        pairings, normalizations = [], []

        def recording(kt, x, y):
            lefts.add(x)
            pairings.append(x)
            return pairing(kt, x, y)

        def normalizing(calc, x):
            normalizations.append(x)
            return normalize(calc, x)

        monkeypatch.setattr(KTheory, "euler_pairing", recording)
        monkeypatch.setattr(Calculus, "normalize", normalizing)
        ctx = Context(default_config())
        results = run_checks(ctx)
        assert all(r.status == "pass" for r in results)
        assert calls["n"] <= 7000
        assert len(ctx.calc._rhom_memo) <= 2000
        assert len(ctx.calc._atom_memo) <= 1000
        assert len(ctx.kt._covectors) <= len(lefts) <= 400
        assert len(pairings) <= 2321
        assert len(normalizations) <= 2884


class TestUndecided:
    """An undecided RHom is an ambiguous RHomResult everywhere in the engine;
    determined_dims is the one place that turns it into PreconditionError."""

    TEXT = "cone(O(),O(H))"

    def test_self_rhom_is_ambiguous(self, ctx):
        x = ctx.obj(self.TEXT)
        assert str(ctx.calc.rhom(x, x)) == "ambiguous(euler=-3, lower={1: 3}, upper={0: 2, 1: 5})"

    def test_is_exceptional_raises_precondition_error(self, ctx):
        with pytest.raises(PreconditionError, match=r"^is_exceptional: RHom\(.*\) is ambiguous"):
            ctx.calc.is_exceptional(ctx.obj(self.TEXT))

    def test_ext_exceptional_records_the_self_pair_as_ambiguous(self, ctx):
        x = ctx.obj(self.TEXT)
        report = ctx.calc.is_ext_exceptional([x, ctx.obj("O(h)")])
        assert not report.ok
        assert report.ambiguous == ((0, 0, str(ctx.calc.rhom(x, x))),)
        assert report.failures == ((1, 0, 0),)
        assert report.not_exceptional == ()

    def test_a_pair_in_progress_answers_the_trivial_bound(self):
        calc = Calculus(Geometry())
        X, Y = calc.normalize(parse_object(self.TEXT)), parse_object("O(h)")
        euler = Calculus(Geometry()).rhom(X, Y).euler
        calc._stack.add((X, Y, True))
        assert calc._info(X, Y) == RHomResult(GradedDims(), None, euler)
        assert calc._rhom_memo == {}


class TestRHomResult:
    """Status, dims and bounds follow from the two bounds lo and hi."""

    def test_determined_when_the_bounds_meet(self):
        r = RHomResult(GradedDims({1: 1, 3: 1}), GradedDims({3: 1, 1: 1}), 2)
        assert r.status == "determined" and r.determined
        assert r.dims == GradedDims({1: 1, 3: 1}) and r.bounds is None
        assert not r.is_empty()

    def test_ambiguous_when_they_differ_or_hi_is_unknown(self):
        r = RHomResult(GradedDims({0: 3}), GradedDims({0: 4, 1: 1}), 3)
        assert r.status == "ambiguous" and not r.determined
        assert r.dims is None and r.bounds == (GradedDims({0: 3}), GradedDims({0: 4, 1: 1}))
        unknown = RHomResult(GradedDims(), None, 5)
        assert unknown.status == "ambiguous" and unknown.bounds == (GradedDims(), None)
        assert not unknown.is_empty()

    def test_exact_and_empty(self):
        assert RHomResult.exact(GradedDims({1: 2})) == RHomResult(GradedDims({1: 2}), GradedDims({1: 2}), -2)
        assert RHomResult.exact(GradedDims()).is_empty()
        assert not RHomResult(GradedDims(), GradedDims({0: 1}), 0).is_empty()

    def test_equality(self):
        a = RHomResult(GradedDims({0: 1}), GradedDims({0: 1, 2: 1}), 1)
        assert a == RHomResult(GradedDims({0: 1}), GradedDims({2: 1, 0: 1}), 1)
        assert a != RHomResult(GradedDims({0: 1}), GradedDims({0: 1, 2: 1}), 2)
        assert a != RHomResult(GradedDims({0: 1}), None, 1)
        assert hash(a) == hash(RHomResult(GradedDims({0: 1}), GradedDims({2: 1, 0: 1}), 1))

    def test_str_as_recorded(self, ctx):
        # strings of the same queries before the value type had lo/hi fields
        determined = ctx.calc.rhom(ctx.obj("O(-h)"), ctx.obj("shift(F,-2)"))
        assert str(determined) == "{1: 1, 3: 1}"
        ambiguous = ctx.calc.rhom(ctx.obj("OE(0,0)"), ctx.obj("OE(1,1)"))
        assert str(ambiguous) == "ambiguous(euler=3, lower={0: 3}, upper={0: 4, 1: 1})"
        assert str(RHomResult(GradedDims(), None, 5)) == "ambiguous(euler=5, lower={}, upper=None)"

    def test_rhom_returns_the_memoized_value(self, ctx):
        X, Y = ctx.obj("O(-h)"), ctx.names["Ecal"]
        assert ctx.calc.rhom(X, Y) is ctx.calc.rhom(X, Y)

    def test_scale(self):
        exact = RHomResult.exact(GradedDims({0: 1, 1: 2}))
        tripled = exact.scale(3)
        assert tripled == RHomResult.exact(GradedDims({0: 3, 1: 6}))
        assert tripled.hi is tripled.lo and tripled.euler == -3
        bounded = RHomResult(GradedDims({0: 1}), GradedDims({0: 2, 2: 1}), 1).scale(2)
        assert bounded == RHomResult(GradedDims({0: 2}), GradedDims({0: 4, 2: 2}), 2)
        unknown = RHomResult(GradedDims({1: 1}), None, 5).scale(4)
        assert unknown == RHomResult(GradedDims({1: 4}), None, 20)
        assert exact.scale(1) is exact

    def test_merge_intersects_the_bounds(self):
        a = RHomResult(GradedDims({0: 1}), GradedDims({0: 2, 1: 1}), 1)
        b = RHomResult(GradedDims({1: 1}), GradedDims({0: 2, 1: 1, 2: 5}), 1)
        assert a.merge(b) == RHomResult(GradedDims({0: 1, 1: 1}), GradedDims({0: 2, 1: 1}), 1)
        assert a.merge(RHomResult(GradedDims(), None, 1)) == a


class TestSumGrouping:
    """_info answers each distinct child of a sum once and scales its value
    by the child's multiplicity."""

    @pytest.mark.parametrize("sum_on_left", [True, False], ids=["left", "right"])
    def test_equal_children_answered_once(self, monkeypatch, sum_on_left):
        reference = Calculus(Geometry())
        x, y = reference.normalize(parse_object("cone(O(),O(H))")), parse_object("O(h)")
        Z = reference.normalize(parse_object("cone(O(-h),O(k))"))
        total = Sum((x, x, x, y))

        def value(calc, child):
            return calc.rhom(child, Z) if sum_on_left else calc.rhom(Z, child)

        expected = value(reference, x).add(value(reference, x)).add(value(reference, x))
        expected = expected.add(value(reference, y))

        entered = []
        info = Calculus._info

        def recording(self, X, Y, transport=True):
            entered.append((X, Y))
            return info(self, X, Y, transport)

        monkeypatch.setattr(Calculus, "_info", recording)
        assert value(Calculus(Geometry()), total) == expected
        assert entered.count((x, Z) if sum_on_left else (Z, x)) == 1


class TestRuleLoop:
    """_core_info merges the candidates of _candidates; each must carry the
    Euler number of the pair."""

    def test_a_candidate_with_another_euler_number_raises(self, monkeypatch):
        calc = Calculus(Geometry())
        X, Y = parse_object("O()"), calc.normalize(parse_object("cone(O(),O(H))"))
        assert calc._euler(X, Y) == 4
        wrong = RHomResult.exact(GradedDims({0: 1}))
        monkeypatch.setattr(Calculus, "_adjunction_info", lambda self, X, Y: wrong)
        with pytest.raises(SoundnessError, match=r"^Euler mismatch for RHom\(O\(\), cone\(O\(\),O\(H\)\)\): 1 vs 4$"):
            calc.rhom(X, Y)


class TestSoundnessUnderOptimize:
    """Invariant failures raise SoundnessError also when asserts are off."""

    SCRIPT = """
import sys
from quadstab.calculus import RHomResult, SoundnessError
from quadstab.geometry import GradedDims as G
assert False, "asserts must be off"
cases = {
    "euler": (RHomResult(G({0: 1}), G({0: 1}), 1), RHomResult(G({0: 1}), None, 2)),
    "lo>hi": (RHomResult(G({0: 2}), None, 0), RHomResult(G(), G({0: 1, 1: 1}), 0)),
}
for name, (a, b) in cases.items():
    try:
        a.merge(b)
    except SoundnessError as exc:
        print(name, exc)
    else:
        sys.exit(f"{name}: merged")
"""

    def test_merge_raises_with_python_O(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-O", "-c", self.SCRIPT],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.splitlines()
        assert out == [
            "euler inconsistent Euler numbers: 1 vs 2",
            "lo>hi contradictory bounds in degree 0: 2 > 1",
        ]


class TestGoldenPool:
    """The benchmark's recorded pool of 1,000 RHom values, replayed exactly:
    the same Euler number and the same dims, or the same lo and hi."""

    POOL = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "rhom_pool.json"

    @staticmethod
    def record(r: RHomResult) -> dict:
        if r.determined:
            return {"euler": r.euler, "dims": [list(p) for p in r.dims.items()]}
        hi = None if r.hi is None else [list(p) for p in r.hi.items()]
        return {"euler": r.euler, "lo": [list(p) for p in r.lo.items()], "hi": hi}

    @pytest.fixture(scope="class")
    def parsed(self):
        """Every text that harness.parse_object parses in this class."""
        texts = []
        real = harness.parse_object

        def counting(text, names=None):
            texts.append(text)
            return real(text, names)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "parse_object", counting)
            yield texts

    @pytest.fixture(scope="class")
    def replay(self, parsed):
        """One Context after the replay, and (x, y, golden, value) per pair."""
        pool = json.loads(self.POOL.read_text(encoding="utf-8"))
        texts = pool["expressions"]
        ctx = Context(default_config())
        parsed.clear()  # the config's own expressions are no pool texts
        rows = []
        for a, b, golden in pool["pairs"]:
            rows.append((texts[a], texts[b], golden, ctx.calc.rhom(ctx.obj(texts[a]), ctx.obj(texts[b]))))
        return ctx, rows

    def test_every_pair_as_recorded(self, replay):
        _, rows = replay
        mismatches = [(x, y, golden, str(r)) for x, y, golden, r in rows if self.record(r) != golden]
        assert len(rows) == 1000
        assert mismatches == []
        assert sum(not r.determined for *_, r in rows) == 459

    def test_each_distinct_text_is_parsed_once(self, replay, parsed):
        # the 2,000 texts of the pool hold 881 distinct ones
        _, rows = replay
        assert len(parsed) == len(set(parsed)) == 881
        assert set(parsed) == {text for x, y, *_ in rows for text in (x, y)}

    def test_pair_memo_size(self, replay):
        # 9,201 entries while the sub-queries of a pair under a Serre hop
        # could hop again; 5,867 since they stay on the dual side
        ctx, _ = replay
        assert len(ctx.calc._rhom_memo) <= 6000
