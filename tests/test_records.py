"""The value records are named tuples: read-only, printed and hashed as before.

A record that nothing needs dataclass behaviour from is a typing.NamedTuple,
which costs far less to create at import than a generated dataclass.  These
tests pin what its callers see: fields cannot be set, repr and str print the
texts they printed as dataclasses, the hash is that of the field tuple (so
set and dict orders stay put), a CheckResult's dict keeps its key order for
the JSON report, and no two configurations share a mutable dict.
"""

import pytest

from quadstab.calculus import ExtExceptionalReport, IdentityReport, RHomResult, SemiorthReport
from quadstab.geometry import DivisorClass, GeometryConfig, GradedDims, SurfaceDivisor
from quadstab.harness import (
    DEFAULT_CONFIG_TEXT,
    CheckResult,
    HarnessConfig,
    ResolvedConfig,
    TiltSpec,
    run_checks,
)
from quadstab.lattice import LatticeQuotient
from quadstab.stability import (
    AxiomReport,
    DescentReport,
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
