import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from quadstab.geometry import (
    ChowElement,
    DivisorClass,
    Geometry,
    GeometryConfig,
    GeometryError,
    GradedDims,
    SurfaceDivisor,
)
from quadstab.expressions import MAX_COEFFICIENT

D = DivisorClass
S = SurfaceDivisor


def chow(d):
    return ChowElement.of_divisor(d)


class TestChowRing:
    def test_square_of_ruling_vanishes(self, geom):
        h = chow(D(0, 1, 0))
        assert geom.chow_mul(h, h).is_zero()

    def test_relative_hyperplane_relation(self, geom):
        # H^2 = H*h + H*k at the default twist; cross-check H*E = 0
        H = chow(D(1, 0, 0))
        sq = geom.chow_mul(H, H)
        assert sq.c2 == (Fraction(1), Fraction(1), Fraction(0))
        HE = geom.chow_mul(H, chow(geom.exceptional_divisor_class()))
        assert HE.is_zero()

    def test_point_class(self, geom):
        H, h, k = chow(D(1, 0, 0)), chow(D(0, 1, 0)), chow(D(0, 0, 1))
        p = geom.chow_mul(geom.chow_mul(H, h), k)
        assert geom.degree(p) == 1

    def test_degree_of_top_power(self, geom):
        H = chow(D(1, 0, 0))
        cube = geom.chow_mul(geom.chow_mul(H, H), H)
        assert geom.degree(cube) == 2  # degree of the quadric threefold

    def test_degree_two_element_has_no_point_part(self, geom):
        h, k = chow(D(0, 1, 0)), chow(D(0, 0, 1))
        assert geom.degree(geom.chow_mul(h, k)) == 0

    def test_commutative_on_samples(self, geom):
        xs = [chow(D(1, -2, 3)), chow(D(0, 1, 1)), chow(D(-1, 0, 2))]
        for x in xs:
            for y in xs:
                left = geom.chow_mul(x, y)
                assert left == geom.chow_mul(y, x)


class TestDistinguishedClasses:
    @pytest.mark.parametrize(
        "twist, expected",
        [((-1, -1), D(-2, -1, -1)), ((0, 0), D(-2, -2, -2)), ((-2, 0), D(-2, 0, -2))],
    )
    def test_canonical_class(self, twist, expected):
        g = Geometry(GeometryConfig(*twist))
        assert g.canonical_class() == expected

    def test_canonical_top_cohomology(self):
        # h^3 of the canonical bundle is 1 at every twist checked
        for twist in [(-1, -1), (0, 0), (-2, 0)]:
            g = Geometry(GeometryConfig(*twist))
            assert g.threefold_cohomology(g.canonical_class()) == GradedDims({3: 1})

    def test_exceptional_class(self, geom):
        assert geom.exceptional_divisor_class() == D(1, -1, -1)

    def test_exceptional_restricts_to_normal_bundle(self, geom):
        E = geom.exceptional_divisor_class()
        assert geom.restrict_to_E(E) == S(-1, -1)

    @pytest.mark.parametrize("a", range(-3, 4))
    @pytest.mark.parametrize("b", range(-3, 4))
    def test_H_times_E_vanishes_all_twists(self, a, b):
        g = Geometry(GeometryConfig(a, b))
        HE = g.chow_mul(chow(D(1, 0, 0)), chow(g.exceptional_divisor_class()))
        assert HE.is_zero()

    def test_adjunction(self, geom):
        K, E = geom.canonical_class(), geom.exceptional_divisor_class()
        assert geom.restrict_to_E(K + E) == S(-2, -2)

    def test_restriction_drops_fiber_class(self, geom):
        for i in range(-2, 3):
            assert geom.restrict_to_E(D(i, 0, 0)) == S(0, 0)
        assert geom.restrict_to_E(D(0, -2, -1)) == S(-2, -1)


class TestChernCharacterAndTodd:
    def test_unit(self, geom):
        assert geom.chern_character(D(0, 0, 0)) == ChowElement.constant(1)

    def test_line_bundle_leading_terms(self, geom):
        ch = geom.chern_character(D(1, 0, 0))
        assert ch.c0 == 1
        assert ch.c1 == (Fraction(1), Fraction(0), Fraction(0))
        # ch_3 = H^3/6 = 2/6
        assert geom.degree(ch) == Fraction(1, 3)

    def test_todd_degree_is_euler_characteristic(self):
        for twist in [(-1, -1), (0, 0), (-2, 0), (1, 2)]:
            g = Geometry(GeometryConfig(*twist))
            assert g.degree(g.todd_class()) == 1

    def test_todd_c1_part(self, geom):
        td = geom.todd_class()
        # td_1 = -K/2 = (2H + h + k)/2
        assert td.c1 == (Fraction(1), Fraction(1, 2), Fraction(1, 2))

    def test_todd_c1_part_other_twist(self):
        g = Geometry(GeometryConfig(0, 0))
        assert g.todd_class().c1 == (Fraction(1), Fraction(1), Fraction(1))


class TestSurfaceCohomology:
    @pytest.mark.parametrize(
        "s, expected",
        [
            (S(0, 0), {0: 1}),
            (S(0, -2), {1: 1}),
            (S(-1, 0), {}),
            (S(-2, -2), {2: 1}),
            (S(1, 1), {0: 4}),
            (S(3, -4), {1: 12}),
            (S(-3, 2), {1: 6}),
        ],
    )
    def test_values(self, geom, s, expected):
        assert geom.surface_cohomology(s) == GradedDims(expected)

    def test_kunneth_euler(self, geom):
        for d in range(-6, 7):
            for e in range(-6, 7):
                assert geom.surface_cohomology(S(d, e)).euler() == (d + 1) * (e + 1)

    def test_serre_duality_on_surface(self, geom):
        for d in range(-6, 7):
            for e in range(-6, 7):
                lhs = geom.surface_cohomology(S(d, e))
                rhs = geom.surface_cohomology(S(-2 - d, -2 - e)).dual(2)
                assert lhs == rhs

    def test_piecewise_closed_form(self, geom):
        # the piecewise closed form for the Kunneth dimensions
        for d in range(-5, 6):
            for e in range(-5, 6):
                dims = geom.surface_cohomology(S(d, e))
                expected = {}
                if d >= 0 and e >= 0:
                    expected[0] = (d + 1) * (e + 1)
                if d >= 0 and e <= -2:
                    expected[1] = (d + 1) * (-e - 1)
                if d <= -2 and e >= 0:
                    expected[1] = (-d - 1) * (e + 1)
                if d <= -2 and e <= -2:
                    expected[2] = (-d - 1) * (-e - 1)
                assert dims == GradedDims(expected)


class TestPushforward:
    def test_step3_case(self, geom):
        level, summands = geom.pushforward_decomposition(D(1, -2, -1))
        assert level == 0
        assert summands == [S(-2, -1), S(-1, 0)]

    def test_acyclic_fiber_degree(self, geom):
        level, summands = geom.pushforward_decomposition(D(-1, 5, 7))
        assert level is None and summands == []

    def test_derived_level(self, geom):
        level, summands = geom.pushforward_decomposition(D(-2, 0, 0))
        assert level == 1
        assert summands == [S(-1, -1)]

    def test_symmetric_powers(self, geom):
        level, summands = geom.pushforward_decomposition(D(2, 0, 0))
        assert level == 0
        assert summands == [S(0, 0), S(1, 1), S(2, 2)]


class TestThreefoldCohomology:
    @pytest.mark.parametrize(
        "d, expected",
        [
            (D(1, -1, -1), {0: 1}),  # the exceptional divisor class
            (D(0, 1, 0), {0: 2}),
            (D(1, 0, 0), {0: 5}),
            (D(1, -2, -1), {}),
            (D(0, 0, 0), {0: 1}),
            (D(-2, -1, -1), {3: 1}),
        ],
    )
    def test_values(self, geom, d, expected):
        assert geom.threefold_cohomology(d) == GradedDims(expected)

    @pytest.mark.parametrize("twist", [(-1, -1), (0, 0), (-2, 0)])
    def test_hrr_agreement(self, twist):
        g = Geometry(GeometryConfig(*twist))
        unit = g.chern_character(D(0, 0, 0))
        for nH in range(-4, 5):
            for nh in range(-4, 5):
                for nk in range(-4, 5):
                    dd = D(nH, nh, nk)
                    assert g.threefold_cohomology(dd).euler() == g.hrr_euler(
                        unit, g.chern_character(dd)
                    )

    @pytest.mark.parametrize("twist", [(-1, -1), (0, 0), (-2, 0)])
    def test_serre_duality(self, twist):
        g = Geometry(GeometryConfig(*twist))
        K = g.canonical_class()
        for nH in range(-4, 5):
            for nh in range(-4, 5):
                for nk in range(-4, 5):
                    dd = D(nH, nh, nk)
                    lhs = g.threefold_cohomology(dd)
                    rhs = g.threefold_cohomology(K - dd).dual(3)
                    assert lhs == rhs


class TestIntegerRiemannRoch:
    """Geometry.euler_characteristic against the rational hrr_euler oracle."""

    TWISTS = [(-1, -1), (0, 0), (-2, 0), (1, -2), (2, 3), (-3, 1)]

    @pytest.mark.parametrize("twist", TWISTS)
    def test_matches_rational_oracle(self, twist):
        g = Geometry(GeometryConfig(*twist))
        unit = g.chern_character(D(0, 0, 0))
        for nH in range(-4, 5):
            for nh in range(-4, 5):
                for nk in range(-4, 5):
                    dd = D(nH, nh, nk)
                    chi = g.euler_characteristic(dd)
                    assert type(chi) is int
                    assert chi == g.hrr_euler(unit, g.chern_character(dd))

    def test_non_integral_value_raises(self):
        g = Geometry()
        g.euler_characteristic(D(0, 0, 0))
        c1, curve, c1c2 = g._rr
        g._rr = (c1, curve, c1c2 + 1)
        with pytest.raises(GeometryError, match="not an integer"):
            g.euler_characteristic(D(1, 0, 0))

    @pytest.mark.parametrize("twist", [(-1, -1), (2, 3)])
    def test_matches_rational_oracle_at_the_largest_coefficients(self, twist):
        # the eight sign corners of the parser's coefficient box
        g = Geometry(GeometryConfig(*twist))
        unit = g.chern_character(D(0, 0, 0))
        M = MAX_COEFFICIENT
        assert M == 10_000
        for signs in itertools.product((1, -1), repeat=3):
            dd = D(*(s * M for s in signs))
            chi = g.euler_characteristic(dd)
            assert type(chi) is int
            assert chi == g.hrr_euler(unit, g.chern_character(dd))

    def test_hrr_check_calls_each_kernel_once_per_divisor(self, monkeypatch):
        # the check compares the two integer kernels it names on 3 twists x
        # 729 divisors, each pair once, and never the rational pairing
        from quadstab import checks, harness

        calls = {"threefold_cohomology": [], "euler_characteristic": [], "hrr_euler": []}

        def recording(name):
            original = getattr(Geometry, name)

            def wrapper(self, *args):
                calls[name].append((self.config, *args))
                return original(self, *args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(Geometry, name, recording(name))
        ok, actual = checks._check_props_hrr(harness.Context(harness.default_config()))
        assert (ok, actual) == (True, "0/2187 mismatches")
        cohomology, chi = calls["threefold_cohomology"], calls["euler_characteristic"]
        assert len(cohomology) == len(set(cohomology)) == 2187
        assert len(chi) == len(set(chi)) == 2187
        assert set(cohomology) == set(chi)
        assert len({config for config, _ in chi}) == 3
        assert calls["hrr_euler"] == []

    def test_hrr_check_uses_no_rational_pairing(self, monkeypatch):
        from quadstab import checks, harness

        calls = {"hrr_euler": 0, "chern_character": 0}

        def counting(name):
            original = getattr(Geometry, name)

            def wrapper(self, *args):
                calls[name] += 1
                return original(self, *args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(Geometry, name, counting(name))
        ok, actual = checks._check_props_hrr(harness.Context(harness.default_config()))
        assert ok, actual
        assert calls == {"hrr_euler": 0, "chern_character": 0}


class TestHrrEuler:
    def test_structure_sheaf(self, geom):
        unit = geom.chern_character(D(0, 0, 0))
        assert geom.hrr_euler(unit, unit) == 1

    def test_hyperplane(self, geom):
        unit = geom.chern_character(D(0, 0, 0))
        assert geom.hrr_euler(unit, geom.chern_character(D(1, 0, 0))) == 5

    def test_against_surface_sheaf(self, geom, kt):
        # chi(O(2H), pushforward of O_E) = 1
        two_h = kt.line_class(D(2, 0, 0))
        eps = kt.pushforward_class(S(0, 0))
        assert kt.euler_pairing(two_h, eps) == 1


class TestGradedDims:
    def test_no_zero_entries(self):
        assert GradedDims({0: 0, 1: 2}) == GradedDims({1: 2})

    def test_euler_translate_dual(self):
        d = GradedDims({0: 1, 3: 1})
        assert d.euler() == 0
        assert d.translate(2) == GradedDims({2: 1, 5: 1})
        assert d.dual(3) == GradedDims({0: 1, 3: 1})
        assert d.translate(1).euler() == 0
        assert GradedDims({1: 2}).euler() == -2

    def test_add_and_str(self):
        assert GradedDims({0: 1}) + GradedDims({0: 2, 1: 1}) == GradedDims({0: 3, 1: 1})
        assert str(GradedDims({0: 1, 2: 3})) == "{0: 1, 2: 3}"
        assert str(GradedDims()) == "{}"

    def test_negative_dimension_rejected(self):
        with pytest.raises(Exception):
            GradedDims({0: -1})

    def test_equal_whatever_the_insertion_order(self):
        a, b = GradedDims({3: 1, -1: 2, 0: 1}), GradedDims({0: 1, 3: 1, -1: 2})
        assert a == b and hash(a) == hash(b)
        assert GradedDims({2: 1}) + GradedDims({0: 1}) == GradedDims({0: 1}) + GradedDims({2: 1})

    def test_items_str_and_repr_in_increasing_degree(self):
        d = GradedDims({3: 1, -1: 2, 0: 0, 1: 4})
        assert d.items() == ((-1, 2), (1, 4), (3, 1))
        assert str(d) == "{-1: 2, 1: 4, 3: 1}"
        assert repr(d) == "GradedDims({-1: 2, 1: 4, 3: 1})"
        assert d.dual(3).items() == ((0, 1), (2, 4), (4, 2))

    def test_join_meet_monus(self):
        a, b = GradedDims({-1: 2, 0: 1, 2: 3}), GradedDims({0: 4, 2: 1, 5: 1})
        assert a.join(b) == GradedDims({-1: 2, 0: 4, 2: 3, 5: 1})
        assert a.meet(b) == GradedDims({0: 1, 2: 1})
        assert a.monus(b) == GradedDims({-1: 2, 2: 2})
        assert b.monus(a) == GradedDims({0: 3, 5: 1})
        zero = GradedDims()
        assert a.join(zero) == zero.join(a) == a
        assert a.meet(zero) == zero.meet(a) == zero
        assert a.monus(zero) == a and zero.monus(a) == zero and a.monus(a) == zero

    def test_scale(self):
        d = GradedDims({-1: 2, 0: 1, 3: 4})
        assert d.scale(3) == GradedDims({-1: 6, 0: 3, 3: 12})
        assert d.scale(3).euler() == 3 * d.euler()
        assert d.scale(1) == d and GradedDims().scale(5) == GradedDims()

    def test_join_meet_monus_degreewise(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b = (GradedDims({d: rng.randint(0, 3) for d in range(-2, 3)}) for _ in "ab")
            for d in range(-3, 4):
                assert a.join(b).get(d) == max(a.get(d), b.get(d))
                assert a.meet(b).get(d) == min(a.get(d), b.get(d))
                assert a.monus(b).get(d) == max(0, a.get(d) - b.get(d))

    def test_les_sum_is_monus_plus_moved_monus(self):
        # every map with degrees in -1..2 and dims 0..2, so also the empty
        # map and a rank above both sides
        grid = itertools.product(range(3), repeat=4)
        maps = [GradedDims(dict(zip(range(-1, 3), dims))) for dims in grid]
        mismatches = []
        for rank in maps:
            kept = [m.monus(rank) for m in maps]
            for shift in (-1, 1):
                moved = [k.translate(shift) for k in kept]
                for a, a_kept in zip(maps, kept):
                    for b, b_moved in zip(maps, moved):
                        if a.les_sum(b, rank, shift) != a_kept + b_moved:
                            mismatches.append((a, b, rank, shift))
        assert len(maps) == 81
        assert mismatches == []

    def test_negative_dimension_rejected_with_geometry_error(self):
        with pytest.raises(GeometryError, match="negative dimension -2 in degree 1"):
            GradedDims({0: 1, 1: -2})

    @pytest.mark.parametrize(
        "data", [{0: 0.5}, {1.7: 2}, {0: Fraction(1, 2)}, {0: Fraction(2)}, {"1": 1}, {0: None}]
    )
    def test_non_integer_degree_or_dimension_rejected(self, data):
        with pytest.raises(GeometryError, match="non-integer degree or dimension"):
            GradedDims(data)

    @staticmethod
    def fresh_euler(d):
        return sum(v if deg % 2 == 0 else -v for deg, v in d.items())

    def test_cached_euler_equals_a_fresh_one(self):
        # euler() is kept after its first call; no operation may hand on
        # the kept Euler number of its operand
        rng = random.Random(2026)
        for _ in range(300):
            a, b = (GradedDims({d: rng.randint(0, 4) for d in range(-3, 4)}) for _ in "ab")
            a.euler(), b.euler()
            t = rng.randint(-3, 3)
            outs = (
                a.translate(t),
                a.dual(t),
                a + b,
                a.join(b),
                a.meet(b),
                a.monus(b),
                a.scale(3),
                a.les_sum(b, a.meet(b), t),
            )
            for out in outs:
                assert out.euler() == self.fresh_euler(out)
                assert out.euler() == out.euler()  # the kept value
            assert a.euler() == self.fresh_euler(a)

    def test_cached_euler_does_not_change_equality_or_hash(self):
        rng = random.Random(99)
        for _ in range(100):
            data = {d: rng.randint(0, 3) for d in range(-2, 3)}
            cached, plain = GradedDims(data), GradedDims(dict(reversed(list(data.items()))))
            cached.euler()
            assert cached == plain and plain == cached and hash(cached) == hash(plain)
            assert len({cached, plain}) == 1


# two maps with even and odd, negative and positive degrees
_A = {-2: 1, -1: 4, 0: 3, 1: 2, 4: 1}
_B = {-1: 2, 0: 1, 1: 4, 3: 1, 6: 2}

# every way a map is built, each call a new map from new operands
BUILDS = {
    "init": lambda: GradedDims(_A),
    "single": lambda: GradedDims.single(-3, 2),
    "_of": lambda: GradedDims._of(dict(_B)),
    "translate": lambda: GradedDims(_A).translate(3),
    "dual": lambda: GradedDims(_A).dual(3),
    "scale": lambda: GradedDims(_B).scale(4),
    "+": lambda: GradedDims(_A) + GradedDims(_B),
    "join": lambda: GradedDims(_A).join(GradedDims(_B)),
    "meet": lambda: GradedDims(_A).meet(GradedDims(_B)),
    "monus": lambda: GradedDims(_B).monus(GradedDims(_A)),
    "les_sum": lambda: GradedDims(_A).les_sum(GradedDims(_B), GradedDims({0: 1, 1: 1}), 1),
}


@pytest.mark.parametrize("build", sorted(BUILDS))
class TestEulerCache:
    """GradedDims keeps its Euler number in a slot that every map is built
    with, as None, and that equality, hash, printing and copies do not see."""

    @staticmethod
    def alternating_sum(d):
        return sum(v if deg % 2 == 0 else -v for deg, v in d.items())

    def test_the_slot_starts_empty(self, build):
        assert BUILDS[build]()._euler is None

    def test_two_reads_give_the_alternating_sum(self, build):
        d = BUILDS[build]()
        assert not d.is_zero()
        want = self.alternating_sum(d)
        assert d.euler() == want
        assert d._euler == want
        assert d.euler() == want

    def test_a_read_map_equals_hashes_and_prints_like_an_unread_one(self, build):
        read, unread = BUILDS[build](), BUILDS[build]()
        read.euler()
        assert read == unread and unread == read
        assert hash(read) == hash(unread)
        assert len({read, unread}) == 1
        assert str(read) == str(unread) and repr(read) == repr(unread)
        assert unread._euler is None

    @pytest.mark.parametrize("read_first", [False, True])
    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_a_copy_is_equal_with_the_same_euler_number(self, build, clone, read_first):
        d = BUILDS[build]()
        if read_first:
            d.euler()
        out = clone(d)
        assert type(out) is GradedDims
        assert out == d and hash(out) == hash(d) and repr(out) == repr(d)
        assert out.euler() == d.euler() == self.alternating_sum(d)
