"""The value records are named tuples: read-only, printed and hashed as before.

A record that nothing needs dataclass behaviour from is a typing.NamedTuple,
which costs far less to create at import than a generated dataclass.  These
tests pin what its callers see: fields cannot be set, repr and str print the
texts they printed as dataclasses, the hash is that of the field tuple (so
set and dict orders stay put), a CheckResult's dict keeps its key order for
the JSON report, and no two configurations share a mutable dict.

Heart, CentralCharge and IntegerLattice are slotted Frozen values, not
dataclasses; the values Heart and CentralCharge showed as frozen dataclasses
on the default hearts and charges are pinned here, IntegerLattice keeps
the hash and text it had as a plain class, and a wrong field count for
these or an expression node raises TypeError naming the class.
"""

import copy
import pickle

import pytest

from quadstab.calculus import ExtExceptionalReport, IdentityReport, RHomResult, SemiorthReport
from quadstab.expressions import LineAtom, MutateLeftNode, Shift, Zero
from quadstab.geometry import DivisorClass, GeometryConfig, GradedDims, SurfaceDivisor
from quadstab.harness import (
    DEFAULT_CONFIG_TEXT,
    CheckResult,
    Context,
    HarnessConfig,
    ResolvedConfig,
    TiltSpec,
    default_config,
    run_checks,
)
from quadstab.lattice import IntegerLattice, LatticeQuotient
from quadstab.stability import (
    AxiomReport,
    CentralCharge,
    DescentReport,
    Heart,
    StabilityFunctionReport,
    SupportReport,
    Verdict,
)

RECORDS = [
    GeometryConfig,
    DivisorClass,
    SurfaceDivisor,
    LatticeQuotient,
    RHomResult,
    SemiorthReport,
    ExtExceptionalReport,
    IdentityReport,
    StabilityFunctionReport,
    SupportReport,
    Verdict,
    DescentReport,
    AxiomReport,
    HarnessConfig,
    TiltSpec,
    ResolvedConfig,
    CheckResult,
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_set(record):
    value = record(*[None] * len(record._fields))
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)


@pytest.mark.parametrize(
    "value, shown, text",
    [
        (DivisorClass(1, -1, 0), "DivisorClass(nH=1, nh=-1, nk=0)", "H-h"),
        (DivisorClass(), "DivisorClass(nH=0, nh=0, nk=0)", "0"),
        (SurfaceDivisor(1, -2), "SurfaceDivisor(d=1, e=-2)", "(1,-2)"),
        (GeometryConfig(), "GeometryConfig(a=-1, b=-1)", "GeometryConfig(a=-1, b=-1)"),
        (GeometryConfig(0, 2), "GeometryConfig(a=0, b=2)", "GeometryConfig(a=0, b=2)"),
        (
            RHomResult.exact(GradedDims({0: 2})),
            "RHomResult(lo=GradedDims({0: 2}), hi=GradedDims({0: 2}), euler=2)",
            "{0: 2}",
        ),
        (
            RHomResult(GradedDims({0: 3}), GradedDims({0: 4, 1: 1}), 3),
            "RHomResult(lo=GradedDims({0: 3}), hi=GradedDims({0: 4, 1: 1}), euler=3)",
            "ambiguous(euler=3, lower={0: 3}, upper={0: 4, 1: 1})",
        ),
        (
            RHomResult(GradedDims(), None, 5),
            "RHomResult(lo=GradedDims({}), hi=None, euler=5)",
            "ambiguous(euler=5, lower={}, upper=None)",
        ),
    ],
    ids=repr,
)
def test_repr_and_str_as_recorded(value, shown, text):
    assert repr(value) == shown
    assert str(value) == text
    assert f"{value}" == text


@pytest.mark.parametrize("coefficients", [(0, 0, 0), (1, -1, 0), (-2, -1, -1), (3, 5, -7)], ids=str)
def test_divisor_hash_is_the_field_tuple_hash(coefficients):
    assert hash(DivisorClass(*coefficients)) == hash(coefficients)


def test_check_result_dict_keys_in_report_order():
    (result,) = run_checks(HarnessConfig.from_text(DEFAULT_CONFIG_TEXT), ("kernel.rank",))
    doc = result.to_dict()
    assert list(doc) == ["name", "status", "expected", "actual", "anchor", "tag"]
    assert doc == {
        "name": "kernel.rank",
        "status": "pass",
        "expected": "rank 2",
        "actual": "rank 2",
        "anchor": "kernel rank 2",
        "tag": "pinned",
    }


@pytest.mark.parametrize("text", [DEFAULT_CONFIG_TEXT, "", "[geometry]\ntwist = 0,0\n"], ids=["default", "empty", "twist"])
def test_configs_share_no_dict(text):
    first, second = HarnessConfig.from_text(text), HarnessConfig.from_text(text)
    assert first == second
    dicts = [(mine, theirs) for mine, theirs in zip(first, second) if isinstance(mine, dict)]
    assert len(dicts) == 3
    assert all(mine is not theirs for mine, theirs in dicts)


# repr, as a frozen dataclass printed them, of the default hearts and charges
HEART_REPRS = {
    'B': (
        "Heart(labels=('O(-h)', 'G', 'shift(F,-2)'), simples=(LineAtom(divisor=DivisorClass(nH=0, nh=-1, "
        'nk=0)), Cone(source=Shift(child=PushAtom(beta=SurfaceDivisor(d=-1, e=0)), n=-2), '
        "target=LineAtom(divisor=DivisorClass(nH=0, nh=0, nk=-1)), provenance='evaluation', "
        'mutation=MutateLeftNode(e=PushAtom(beta=SurfaceDivisor(d=-1, e=0)), '
        'x=LineAtom(divisor=DivisorClass(nH=0, nh=0, nk=-1)))), '
        'Shift(child=Cone(source=Shift(child=Cone(source=Shift(child=PushAtom(beta=SurfaceDivisor(d=-1, '
        "e=0)), n=-2), target=PushAtom(beta=SurfaceDivisor(d=0, e=-1)), provenance='evaluation', "
        'mutation=MutateLeftNode(e=PushAtom(beta=SurfaceDivisor(d=-1, e=0)), '
        'x=PushAtom(beta=SurfaceDivisor(d=0, e=-1)))), n=-1), '
        'target=Shift(child=LineAtom(divisor=DivisorClass(nH=0, nh=-1, nk=0)), n=1), '
        "provenance='unspecified', mutation=MutateLeftNode(e=PushAtom(beta=SurfaceDivisor(d=-1, e=0)), "
        'x=Cone(source=Shift(child=PushAtom(beta=SurfaceDivisor(d=0, e=-1)), n=-1), '
        "target=Shift(child=LineAtom(divisor=DivisorClass(nH=0, nh=-1, nk=0)), n=1), provenance='euler', "
        'mutation=MutateLeftNode(e=LineAtom(divisor=DivisorClass(nH=0, nh=0, nk=0)), '
        'x=LineAtom(divisor=DivisorClass(nH=1, nh=0, nk=-1)))))), n=-2)), classes=((2, -1, 0, 0, 0, 0, 0,'
        ' 0), (2, 0, 0, 0, -2, 1, 0, 0), (-2, 0, 1, 0, 0, 1, -1, 0)), hom_table=((GradedDims({0: 1}), '
        'GradedDims({1: 1}), GradedDims({1: 1, 3: 1})), (GradedDims({}), GradedDims({0: 1}), '
        'GradedDims({2: 1})), (GradedDims({}), GradedDims({}), GradedDims({0: 1}))))'
    ),
    'Atilde': (
        "Heart(labels=('shift(F,-2)[1]', 'ext(O(-h),shift(F,-2))', 'G'), simples=(Shift(child=Cone(source"
        '=Shift(child=Cone(source=Shift(child=PushAtom(beta=SurfaceDivisor(d=-1, e=0)), n=-2), '
        "target=PushAtom(beta=SurfaceDivisor(d=0, e=-1)), provenance='evaluation', "
        'mutation=MutateLeftNode(e=PushAtom(beta=SurfaceDivisor(d=-1, e=0)), '
        'x=PushAtom(beta=SurfaceDivisor(d=0, e=-1)))), n=-1), '
        'target=Shift(child=LineAtom(divisor=DivisorClass(nH=0, nh=-1, nk=0)), n=1), '
        "provenance='unspecified', mutation=MutateLeftNode(e=PushAtom(beta=SurfaceDivisor(d=-1, e=0)), "
        'x=Cone(source=Shift(child=PushAtom(beta=SurfaceDivisor(d=0, e=-1)), n=-1), '
        "target=Shift(child=LineAtom(divisor=DivisorClass(nH=0, nh=-1, nk=0)), n=1), provenance='euler', "
        'mutation=MutateLeftNode(e=LineAtom(divisor=DivisorClass(nH=0, nh=0, nk=0)), '
        'x=LineAtom(divisor=DivisorClass(nH=1, nh=0, nk=-1)))))), n=-1), '
        'Cone(source=Shift(child=LineAtom(divisor=DivisorClass(nH=0, nh=-1, nk=0)), n=-1), target=Shift(c'
        'hild=Cone(source=Shift(child=Cone(source=Shift(child=PushAtom(beta=SurfaceDivisor(d=-1, e=0)), '
        "n=-2), target=PushAtom(beta=SurfaceDivisor(d=0, e=-1)), provenance='evaluation', "
        'mutation=MutateLeftNode(e=PushAtom(beta=SurfaceDivisor(d=-1, e=0)), '
        'x=PushAtom(beta=SurfaceDivisor(d=0, e=-1)))), n=-1), '
        'target=Shift(child=LineAtom(divisor=DivisorClass(nH=0, nh=-1, nk=0)), n=1), '
        "provenance='unspecified', mutation=MutateLeftNode(e=PushAtom(beta=SurfaceDivisor(d=-1, e=0)), "
        'x=Cone(source=Shift(child=PushAtom(beta=SurfaceDivisor(d=0, e=-1)), n=-1), '
        "target=Shift(child=LineAtom(divisor=DivisorClass(nH=0, nh=-1, nk=0)), n=1), provenance='euler', "
        'mutation=MutateLeftNode(e=LineAtom(divisor=DivisorClass(nH=0, nh=0, nk=0)), '
        "x=LineAtom(divisor=DivisorClass(nH=1, nh=0, nk=-1)))))), n=-2), provenance='universalExtension',"
        ' mutation=None), Cone(source=Shift(child=PushAtom(beta=SurfaceDivisor(d=-1, e=0)), n=-2), '
        "target=LineAtom(divisor=DivisorClass(nH=0, nh=0, nk=-1)), provenance='evaluation', "
        'mutation=MutateLeftNode(e=PushAtom(beta=SurfaceDivisor(d=-1, e=0)), '
        'x=LineAtom(divisor=DivisorClass(nH=0, nh=0, nk=-1))))), classes=((2, 0, -1, 0, 0, -1, 1, 0), (0,'
        ' -1, 1, 0, 0, 1, -1, 0), (2, 0, 0, 0, -2, 1, 0, 0)), hom_table=((GradedDims({0: 1}), '
        'GradedDims({1: 1}), GradedDims({})), (GradedDims({2: 1}), GradedDims({0: 1, 3: 1}), '
        'GradedDims({1: 1})), (GradedDims({1: 1}), GradedDims({2: 1}), GradedDims({0: 1}))))'
    ),
}

CHARGE_REPRS = {
    'Z_B': (
        'CentralCharge(values=((Fraction(0, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(1, 1)), '
        '(Fraction(1, 1), Fraction(1, 100))))'
    ),
    'Z_up': (
        'CentralCharge(values=((Fraction(0, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(0, 1)), '
        '(Fraction(0, 1), Fraction(1, 1))))'
    ),
}

CHARGE_HASHES = {"Z_B": 4464558110411728325, "Z_up": -8237598861681720355}


@pytest.fixture(scope="module")
def ctx():
    return Context(default_config())


@pytest.mark.parametrize("name", sorted(HEART_REPRS))
def test_heart_as_recorded(ctx, name):
    heart = ctx.hearts[name]
    fields = (heart.labels, heart.simples, heart.classes, heart.hom_table)
    assert repr(heart) == "".join(HEART_REPRS[name])
    assert len(heart) == 3
    same = Heart(*fields)
    assert same is not heart and same == heart and not same != heart
    assert hash(heart) == hash(same) == hash(fields)
    assert heart != fields and heart.__eq__(fields) is NotImplemented
    assert {ctx.hearts[other] == heart for other in HEART_REPRS} == {True, False}


@pytest.mark.parametrize("name", sorted(CHARGE_REPRS))
def test_charge_as_recorded(ctx, name):
    _, Z = ctx.charge(name)
    assert repr(Z) == "".join(CHARGE_REPRS[name])
    assert len(Z) == 3
    same = CentralCharge(Z.values)
    assert same is not Z and same == Z and not same != Z
    assert hash(Z) == hash(same) == hash((Z.values,)) == CHARGE_HASHES[name]
    assert Z != Z.values and Z.__eq__(Z.values) is NotImplemented
    assert {ctx.charge(other)[1] == Z for other in CHARGE_REPRS} == {True, False}


def test_hearts_and_charges_are_read_only(ctx):
    _, Z = ctx.charge("Z_B")
    for value in (ctx.hearts["B"], Z):
        assert copy.deepcopy(value) == value == pickle.loads(pickle.dumps(value))
        assert not hasattr(value, "__dict__")
        for name in type(value).__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)


@pytest.mark.parametrize("cls", [Heart, CentralCharge, LineAtom, Shift, MutateLeftNode, Zero])
def test_wrong_field_count_is_refused(cls):
    n = len(cls.__slots__)
    for count in {0, n + 1} - {n}:
        with pytest.raises(TypeError, match=f"^{cls.__name__} takes {n} fields"):
            cls(*range(count))


# Each lattice with its str and hash as recorded when it was a plain class
# (a tuple of ints hashes the same in every process).
LATTICES = {
    "rank 2": (
        IntegerLattice(3, [[2, 4, 0], [0, 3, 3]]),
        "lattice(rank 2 in Z^3: [2, 1, -3], [0, 3, 3])",
        9118100783619949922,
    ),
    "zero": (IntegerLattice(2), "lattice(rank 0 in Z^2: )", 7952677415836332426),
}


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_lattice_is_a_frozen_value(name):
    lat, text, recorded = LATTICES[name]
    assert str(lat) == text
    assert hash(lat) == recorded
    assert not hasattr(lat, "__dict__")
    for field in ("ambient_rank", "hnf"):
        with pytest.raises(AttributeError):
            setattr(lat, field, None)
        with pytest.raises(AttributeError):
            delattr(lat, field)
    assert hash(lat) == hash((lat.ambient_rank, lat.hnf))
    assert lat != lat.hnf and lat.__eq__(lat.hnf) is NotImplemented
    assert copy.deepcopy(lat) == lat == pickle.loads(pickle.dumps(lat))
