"""Seeded stress test: the Hom engine on random expression pairs.

Whatever the tree shape, rhom must return a value whose Euler number matches
the Chern-character pairing, with lower bounds below upper bounds, and
normalization must preserve classes.  Mutations that hit an ambiguous
precondition are allowed to refuse, never to crash.
"""

import random

import pytest

from quadstab.calculus import PreconditionError
from quadstab.expressions import parse_object, pretty
from quadstab.checks import _corpus


@pytest.fixture(scope="module")
def trees(ctx):
    out = []
    for text in _corpus(80):
        tree = parse_object(text)
        try:
            out.append(ctx.calc.normalize(tree))
        except PreconditionError:
            continue
    return out


def test_rhom_never_crashes_and_euler_matches(ctx, trees):
    rng = random.Random(4021)
    calc, kt = ctx.calc, ctx.kt
    for _ in range(400):
        x = trees[rng.randrange(len(trees))]
        y = trees[rng.randrange(len(trees))]
        r = calc.rhom(x, y)
        expected = kt.euler_pairing(calc.class_of(x), calc.class_of(y))
        assert r.euler == expected, (pretty(x), pretty(y))
        if r.status == "determined":
            assert r.dims.euler() == expected
        else:
            lo, hi = r.bounds
            for deg, dim in lo.items():
                if hi is not None:
                    assert hi.get(deg) >= dim


def test_rhom_on_named_objects_against_corpus(ctx, trees):
    rng = random.Random(97)
    calc, kt = ctx.calc, ctx.kt
    named = [ctx.names[n] for n in ("G", "F", "Ecal")]
    for _ in range(120):
        x = named[rng.randrange(3)]
        y = trees[rng.randrange(len(trees))]
        for a, b in ((x, y), (y, x)):
            r = calc.rhom(a, b)
            assert r.euler == kt.euler_pairing(calc.class_of(a), calc.class_of(b))


def test_golden_values_survive_adjunction_ablation(ctx, monkeypatch):
    # With the mutation-adjunction route disabled, the remaining strategies
    # must still never contradict the golden table: any determined result
    # agrees, any ambiguous result brackets it.
    from quadstab.calculus import Calculus
    from quadstab.geometry import GradedDims
    from test_calculus import GOLDEN_RHOM

    fresh = Calculus(ctx.geometry)
    monkeypatch.setattr(Calculus, "_adjunction_info", lambda self, X, Y: None)
    for src, tgt, dims in GOLDEN_RHOM:
        X = fresh.normalize(parse_object(src, ctx.names))
        Y = fresh.normalize(parse_object(tgt, ctx.names))
        r = fresh.rhom(X, Y)
        golden = GradedDims(dims)
        assert r.euler == golden.euler()
        if r.status == "determined":
            assert r.dims == golden, (src, tgt)
        else:
            lo, hi = r.bounds
            for deg, dim in golden.items():
                assert lo.get(deg) <= dim
                if hi is not None:
                    assert hi.get(deg) >= dim


def test_presentations_agree_on_probes(ctx):
    # every stored presentation of a named mutation object is the same
    # object, so probe Homs computed against each must coincide
    calc = ctx.calc
    for name in ("G", "F", "Ecal"):
        node = ctx.names[name]
        forms = calc._presentations(node)
        assert len(forms) >= 1
        for probe in calc.probe_panel():
            base_out = calc.rhom(node, probe)
            base_in = calc.rhom(probe, node)
            for form in forms:
                assert calc.class_of(form) == calc.class_of(node)
                r_out = calc.rhom(form, probe)
                r_in = calc.rhom(probe, form)
                assert r_out.euler == base_out.euler
                assert r_in.euler == base_in.euler
                if r_out.status == base_out.status == "determined":
                    assert r_out.dims == base_out.dims
                if r_in.status == base_in.status == "determined":
                    assert r_in.dims == base_in.dims


def test_tensor_twist_is_compatible_with_rhom(ctx, trees):
    # twisting both arguments by a line bundle leaves RHom unchanged
    from quadstab.geometry import DivisorClass

    rng = random.Random(53)
    calc = ctx.calc
    for _ in range(60):
        x = trees[rng.randrange(len(trees))]
        y = trees[rng.randrange(len(trees))]
        D = DivisorClass(rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(-1, 1))
        plain = calc.rhom(x, y)
        twisted = calc.rhom(calc.tensor_line(x, D), calc.tensor_line(y, D))
        assert plain.euler == twisted.euler
        if plain.status == "determined" and twisted.status == "determined":
            assert plain.dims == twisted.dims
