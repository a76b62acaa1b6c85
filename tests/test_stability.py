import inspect
from fractions import Fraction

import pytest

from quadstab.geometry import GradedDims
from quadstab.calculus import PreconditionError
from quadstab.stability import (
    INFINITY,
    CentralCharge,
    StabilityError,
    Verdict,
    check_stability_function,
    check_support,
    check_weak_stability_condition,
    descend,
    hn_filtration,
    make_heart,
    slope,
    tilt_at,
)

Q = Fraction

I = (0, 1)  # the charge value i as an exact pair


@pytest.fixture(scope="module")
def heart_B(ctx):
    return ctx.hearts["B"]


@pytest.fixture(scope="module")
def heart_A(ctx):
    return ctx.hearts["Atilde"]


@pytest.fixture(scope="module")
def Z_up(ctx):
    return ctx.charges["Z_up"][1]


class TestMakeHeart:
    def test_heart_from_shifted_triple(self, ctx, heart_B):
        assert len(heart_B) == 3
        # hom table diagonal: one-dimensional endomorphisms
        for i in range(3):
            assert heart_B.hom_table[i][i] == GradedDims({0: 1})

    def test_unshifted_triple_rejected_with_witness(self, ctx):
        with pytest.raises(PreconditionError) as err:
            make_heart(
                ctx.calc,
                [("S1", ctx.obj("O(-h)")), ("S2", ctx.names["G"]), ("S3", ctx.names["F"])],
            )
        assert "Hom^-1(S1, S3)" in str(err.value)

    def test_single_simple_heart(self, ctx):
        heart = make_heart(ctx.calc, [("S", ctx.obj("O(2H)"))])
        assert len(heart) == 1

    def test_failures_are_listed(self, ctx):
        with pytest.raises(PreconditionError) as err:
            make_heart(ctx.calc, [("a", ctx.obj("O()")), ("s", ctx.obj("sum(O(),O(h))"))])
        assert str(err.value) == (
            "not an Ext-exceptional collection: Hom^0(a, s) is nonzero; "
            "Hom^0(s, a) is nonzero; s is not exceptional"
        )

    def test_ambiguous_pairs_are_listed(self, ctx):
        with pytest.raises(PreconditionError) as err:
            make_heart(ctx.calc, [("x", ctx.obj("cone(O(),O(H))")), ("y", ctx.obj("O(h)"))])
        assert str(err.value).endswith(
            "(x, x): ambiguous(euler=-3, lower={1: 3}, upper={0: 2, 1: 5})"
        )

    def test_dependent_classes_rejected(self, ctx):
        with pytest.raises(PreconditionError):
            make_heart(
                ctx.calc,
                [("A", ctx.obj("O(h)")), ("B", ctx.obj("shift(O(h),2)"))],
            )


class TestSlope:
    def test_purely_imaginary(self):
        Z = CentralCharge.of([I])
        assert slope(Z, [1]) == 0

    def test_real_value_is_infinite(self):
        Z = CentralCharge.of([(-1, 0)])
        assert slope(Z, [1]) == INFINITY

    def test_mixed(self):
        Z = CentralCharge.of([(-1, 1)])
        assert slope(Z, [1]) == 1

    def test_scaling_invariance(self):
        Z = CentralCharge.of([(-2, 3), (1, 1)])
        assert slope(Z, [2, 4]) == slope(Z, [1, 2])

    def test_rejects_zero_and_negative(self):
        Z = CentralCharge.of([I])
        with pytest.raises(StabilityError):
            slope(Z, [0])
        with pytest.raises(StabilityError):
            slope(Z, [-1])


class TestStabilityFunction:
    def test_weak_passes_with_zero_value(self, heart_A):
        Z = CentralCharge.of([I, (0, 0), I])
        report = check_stability_function(heart_A, Z)
        assert report.ok
        assert not report.strong
        assert report.kernel_directions == (1,)

    def test_strong_passes_upper_half(self, heart_B):
        Z = CentralCharge.of([I, I, I])
        assert check_stability_function(heart_B, Z).strong

    def test_positive_real_fails_weak(self, heart_B):
        Z = CentralCharge.of([I, I, (1, 0)])
        report = check_stability_function(heart_B, Z)
        assert not report.ok
        assert not report.strong

    def test_negative_real_passes_weak_and_strong(self, heart_B):
        Z = CentralCharge.of([(-1, 0), I, I])
        report = check_stability_function(heart_B, Z)
        assert report.ok
        assert report.strong


def test_one_option_among_the_stability_entry_points():
    optional = [
        name
        for fn in (check_stability_function, check_weak_stability_condition, make_heart)
        for name, p in inspect.signature(fn).parameters.items()
        if p.default is not p.empty
    ]
    assert optional == ["descent"]


class TestChargeLength:
    def test_value_rejects_a_wrong_length(self):
        Z = CentralCharge.of([I, (-1, 1)])
        assert Z.value([1, 2]) == (Q(-2), Q(3))
        for coeffs in ([1], [1, 0, 0]):
            with pytest.raises(StabilityError):
                Z.value(coeffs)

    def test_slope_rejects_a_wrong_length(self):
        with pytest.raises(StabilityError):
            slope(CentralCharge.of([I, (-1, 1)]), [0, 0, 1])

    def test_descend_rejects_a_wrong_length(self, ctx, heart_A):
        with pytest.raises(StabilityError):
            descend(ctx.calc, heart_A, ctx.kernel_classes(), CentralCharge.of([I, I]))


class TestHNFiltration:
    def test_groups_sorted_by_slope(self):
        Z = CentralCharge.of([(-1, 0), I, (0, 1)])
        # slopes: inf, 0, 0
        out = hn_filtration(Z, [0, 1, 2, 2])
        assert out[0][0] == INFINITY and out[0][1] == {0: 1}
        assert out[1][0] == 0 and out[1][1] == {1: 1, 2: 2}

    def test_zero_charge_simple_has_infinite_slope(self):
        Z = CentralCharge.of([I, (0, 0), I])
        out = hn_filtration(Z, [1])
        assert out == [(INFINITY, {1: 1})]

    def test_homogeneous_multiset(self):
        Z = CentralCharge.of([I, I])
        out = hn_filtration(Z, [0, 1, 0])
        assert len(out) == 1

    def test_empty_rejected(self):
        with pytest.raises(StabilityError):
            hn_filtration(CentralCharge.of([I]), [])

    def test_infinite_slope_sorts_first_and_exactly(self):
        Z = CentralCharge.of([(0, 1), (1, 2), (-1, 0), (-1, 1)])
        out = hn_filtration(Z, [0, 1, 2, 3])
        assert [mu for mu, _ in out] == [INFINITY, 1, 0, Q(-1, 2)]
        assert [group for _, group in out] == [{2: 1}, {3: 1}, {0: 1}, {1: 1}]

    def test_no_slope_is_a_float(self, ctx):
        charges = [Z for _, Z in ctx.charges.values()] + [
            CentralCharge.of(values)
            for values in ([I, (0, 0), I], [(-1, 0), I, (0, 1)], [(-2, 3), (1, 1)], [(1, 0)])
        ]
        slopes = []
        for Z in charges:
            for idx in range(len(Z)):
                unit = [0] * len(Z)
                unit[idx] = 1
                slopes.append(slope(Z, unit))
        assert INFINITY in slopes and Q(-100) in slopes
        assert not any(isinstance(mu, float) for mu in slopes)
        assert str(INFINITY) == "inf"


class TestTilt:
    def test_tilted_simples(self, ctx, heart_B, heart_A):
        calc = ctx.calc
        expected = [
            calc.class_of(ctx.obj("shift(F,-1)")),
            calc.class_of(ctx.obj("shift(Ecal,-2)")),
            calc.class_of(ctx.names["G"]),
        ]
        assert list(heart_A.classes) == expected

    def test_universal_extension_multiplicities(self, heart_B):
        assert heart_B.hom_table[0][2].get(1) == 1
        assert heart_B.hom_table[1][2].get(1) == 0

    def test_second_simple_persists(self, ctx, heart_A):
        # the simple with no extension survives the tilt unchanged
        assert heart_A.simples[2] == ctx.names["G"]

    def test_class_bookkeeping(self, heart_B, heart_A):
        total_new = heart_A.classes[0]
        for c in heart_A.classes[1:]:
            total_new = total_new + c
        d = [heart_B.hom_table[i][2].get(1) for i in range(2)]
        expected = heart_B.classes[2].scale(-1)
        for i in range(2):
            expected = expected + heart_B.classes[i] + heart_B.classes[2].scale(d[i])
        assert total_new == expected

    def test_tilt_requires_torsion_pair(self, ctx, heart_B):
        # an Ext-exceptional heart always satisfies the precondition, so
        # fabricate a hom table with a degree-0 hom into the chosen simple
        from quadstab.stability import Heart

        table = [list(row) for row in heart_B.hom_table]
        table[0][2] = GradedDims({0: 1, 1: 1})
        fake = Heart(
            heart_B.labels,
            heart_B.simples,
            heart_B.classes,
            tuple(tuple(row) for row in table),
        )
        with pytest.raises(PreconditionError) as err:
            tilt_at(ctx.calc, fake, 2)
        assert "Hom^0" in str(err.value)

    def test_tilt_index_range(self, ctx, heart_B):
        with pytest.raises(StabilityError):
            tilt_at(ctx.calc, heart_B, 5)

    def test_universal_extension_is_spherical_kernel_class(self, ctx, heart_A):
        calc = ctx.calc
        assert calc.class_of(heart_A.simples[1]) == calc.class_of(
            ctx.obj("shift(Ecal,-2)")
        )
        r = calc.rhom(heart_A.simples[1], heart_A.simples[1])
        assert r.dims == GradedDims({0: 1, 3: 1})


class TestSupport:
    def test_zero_form_with_trivial_kernel(self):
        Z = CentralCharge.of([I])
        report = check_support(Z)
        assert report.ok and report.kernel_rank == 0


def _strong_on_nonzero_images(report) -> bool:
    images = [img for img in report.quotient.projection if any(img)]
    return all(
        im > 0 or (im == 0 and re < 0)
        for re, im in (report.induced.value(img) for img in images)
    )


class TestDescent:
    def test_all_three_verdicts(self, ctx):
        report = ctx.descent()
        assert report.serre_generator.ok
        assert report.kernel_matches_ker_z.ok
        assert report.induced_strong.ok
        assert report.ok

    def test_kernel_in_simple_coordinates(self, ctx):
        from quadstab.lattice import IntegerLattice

        report = ctx.descent()
        assert report.quotient.kernel == IntegerLattice(
            3, [[0, 1, 0], [-1, 0, 1]]
        )

    def test_quotient_is_integers(self, ctx):
        report = ctx.descent()
        assert report.quotient.rank == 1
        assert report.quotient.torsion == ()

    def test_induced_charge_functoriality(self, ctx, Z_up):
        report = ctx.descent()
        assert len(report.induced) == report.quotient.rank == 1
        for i in range(3):
            unit = [1 if t == i else 0 for t in range(3)]
            img = report.quotient.projection[i]
            via_quotient = (
                sum(Q(img[t]) * report.induced.values[t][0] for t in range(1)),
                sum(Q(img[t]) * report.induced.values[t][1] for t in range(1)),
            )
            assert via_quotient == Z_up.value(unit)

    def test_wrong_charge_fails_kernel_match(self, ctx, heart_A):
        Z = CentralCharge.of([I, I, I])
        report = descend(ctx.calc, heart_A, ctx.kernel_classes(), Z)
        assert not report.kernel_matches_ker_z.ok

    def test_kernel_without_a_simple_fails_generation(self, ctx, heart_A, Z_up):
        c0, _, c2 = heart_A.classes
        report = descend(ctx.calc, heart_A, [c0 - c2], Z_up)
        assert report.serre_generator == Verdict(False, "no simple class lies in the kernel lattice")

    def test_full_kernel_fails_strong(self, ctx, heart_A):
        # kernel = everything: quotient rank 0, zero induced charge, and the
        # strong verdict fails because nothing survives
        Z = CentralCharge.of([(0, 0), (0, 0), (0, 0)])
        all_classes = list(heart_A.classes)
        report = descend(ctx.calc, heart_A, all_classes, Z)
        assert report.quotient.rank == 0
        assert not report.induced_strong.ok

    @pytest.mark.parametrize(
        "values, full_kernel, strong",
        [
            ([I, (0, 0), I], False, True),
            ([(-1, 0), (0, 0), (-1, 0)], False, True),
            ([(-1, 1), (0, 0), (-1, 1)], False, True),
            ([I, I, I], False, False),
            ([(0, 0), (0, 0), (0, 0)], True, False),
        ],
    )
    def test_induced_strong_covers_every_nonzero_image(
        self, ctx, heart_A, values, full_kernel, strong
    ):
        classes = list(heart_A.classes) if full_kernel else ctx.kernel_classes()
        report = descend(ctx.calc, heart_A, classes, CentralCharge.of(values))
        assert report.induced_strong.ok == strong
        if report.induced_strong.ok:
            assert _strong_on_nonzero_images(report)

    @pytest.mark.parametrize(
        "values, offenders",
        [
            ([I, (1, 1), (0, 2)], [0, 1]),
            ([I, (1, 1), I], [1]),
            ([I, (0, 0), (0, 2)], [0]),
        ],
    )
    def test_a_charge_off_the_kernel_is_named_per_simple(self, ctx, heart_A, values, offenders):
        # Z does not vanish on the kernel exactly when some simple's image
        # has another induced charge; each such simple is named once
        report = descend(ctx.calc, heart_A, ctx.kernel_classes(), CentralCharge.of(values))
        assert not report.induced_strong.ok
        assert report.induced_strong.detail.split("; ") == [
            f"induced charge disagrees with Z on simple {heart_A.labels[i]}" for i in offenders
        ]
        assert "does not vanish" not in report.induced_strong.detail

    def test_default_descent_is_strong_on_every_nonzero_image(self, ctx):
        report = ctx.descent()
        assert report.induced_strong.ok and _strong_on_nonzero_images(report)


class TestAxiomBundles:
    def test_weak_upstairs(self, ctx, heart_A, Z_up):
        descent = ctx.descent()
        report = check_weak_stability_condition(heart_A, Z_up, descent)
        assert report.ok
        assert report.support is descent.support

    def test_strong_upstairs_fails(self, ctx, heart_A, Z_up):
        report = check_weak_stability_condition(heart_A, Z_up, ctx.descent())
        assert not report.stability_function.strong
        assert report.stability_function.kernel_directions == (1,)

    def test_bridgeland_downstairs(self, ctx):
        rep = ctx.descent()
        assert rep.support.ok
        assert rep.support.kernel_rank == 0
        assert _strong_on_nonzero_images(rep)

    def test_descent_support_matches_a_direct_check(self, ctx):
        # the support descend stores is the one a direct check on its data gives
        rep = ctx.descent()
        assert rep.support == check_support(rep.induced)

    def test_failing_axiom_a(self, ctx, heart_B):
        Z = CentralCharge.of([(1, 0), I, I])
        report = check_weak_stability_condition(heart_B, Z)
        assert not report.ok
        assert not report.stability_function.ok

    def test_without_descent_support_is_on_simple_coordinates(self, ctx, heart_B):
        single = make_heart(ctx.calc, [("S", ctx.obj("O(2H)"))])
        report = check_weak_stability_condition(single, CentralCharge.of([I]))
        assert report.ok and report.support.kernel_rank == 0
        # three simples always give Z a kernel, which fails the zero form
        report = check_weak_stability_condition(heart_B, CentralCharge.of([I, I, (-1, 0)]))
        assert report.stability_function.ok and not report.ok
        assert report.support.kernel_rank == 1 and not report.support.ok
