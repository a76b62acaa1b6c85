"""The integer kernels of Geometry and KTheory against their Fraction and
per-summand oracles in oracles.py, at the default twist and three others."""

import itertools
import random
from fractions import Fraction

import pytest

from quadstab.geometry import DivisorClass, Geometry, GeometryConfig, GradedDims
from quadstab.lattice import SOD1_DIVISORS, KTheory

import oracles

D = DivisorClass
TWISTS = [(-1, -1), (0, 0), (-2, 0), (1, 2)]


def grid(r):
    return [D(*c) for c in itertools.product(range(-r, r + 1), repeat=3)]


@pytest.mark.parametrize("twist", TWISTS)
def test_chern_character_matches_the_fraction_formula(twist):
    g = Geometry(GeometryConfig(*twist))
    for dd in grid(3):
        got, want = g.chern_character(dd), oracles.chern_character(g, dd)
        assert got == want
        assert str(got) == str(want)
        assert all(type(v) is Fraction for v in got)
        assert g.six_chern_character(dd) == tuple(6 * v for v in want)
        assert all(type(v) is int for v in g.six_chern_character(dd))


@pytest.mark.parametrize("twist", TWISTS)
def test_class_chern_matches_the_fraction_sum(twist):
    g = Geometry(GeometryConfig(*twist))
    kt = KTheory(g)
    basis = [oracles.chern_character(g, Di) for Di in SOD1_DIVISORS]
    rng = random.Random(17)
    classes = [kt.line_class(dd) for dd in grid(2)]
    classes += [kt.from_coordinates([rng.randint(-20, 20) for _ in range(8)]) for _ in range(200)]
    classes.append(kt.from_coordinates([0] * 8))
    for x in classes:
        got, want = kt.chern(x), oracles.class_chern_character(basis, x)
        assert got == want
        assert str(got) == str(want)
        assert all(type(v) is Fraction for v in got)


@pytest.mark.parametrize("twist", TWISTS)
def test_gram_rows_are_the_direct_euler_characteristics(twist):
    g = Geometry(GeometryConfig(*twist))
    direct = [[g.euler_characteristic(Dj - Di) for Dj in SOD1_DIVISORS] for Di in SOD1_DIVISORS]
    assert KTheory(g)._gram_rows() == direct


def test_a_gram_build_makes_27_euler_characteristic_calls(monkeypatch):
    calls = []
    original = Geometry.euler_characteristic

    def counting(self, D):
        calls.append(D)
        return original(self, D)

    monkeypatch.setattr(Geometry, "euler_characteristic", counting)
    kt = KTheory(Geometry())
    kt._gram_rows()
    kt._gram_rows()
    assert len(calls) == len(set(calls)) == 27


@pytest.mark.parametrize("twist", TWISTS)
def test_threefold_cohomology_is_the_sum_over_the_pushforward(twist):
    g = Geometry(GeometryConfig(*twist))
    for dd in grid(4):
        assert g.threefold_cohomology(dd) == GradedDims(oracles.threefold_cohomology(g, dd))
