"""Laws the calculus must obey whatever rules decide a value.

Twist invariance: tensoring both arguments by one line bundle L is an
autoequivalence, so RHom(X (x) L, Y (x) L) = RHom(X, Y) as whole values,
the bounds of an ambiguous value included.  The law is checked on the
benchmark's recorded pool of 1,000 pairs.  Twisted trees carry twisted
mutation tags, so the rules meet inputs the pool itself does not hold.
"""

import json
from pathlib import Path

import pytest

from quadstab.geometry import DivisorClass
from quadstab.harness import Context, default_config

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "rhom_pool.json"

# O(H), O(h), O(k), O(-H+h), O(-h+2k)
TWISTS = [
    DivisorClass(1, 0, 0),
    DivisorClass(0, 1, 0),
    DivisorClass(0, 0, 1),
    DivisorClass(-1, 1, 0),
    DivisorClass(0, -1, 2),
]


@pytest.fixture(scope="module")
def pool():
    """One shared Context, the pool's normalized pairs and their values."""
    doc = json.loads(POOL.read_text(encoding="utf-8"))
    ctx = Context(default_config())
    objects = [ctx.obj(text) for text in doc["expressions"]]
    pairs = [(objects[a], objects[b]) for a, b, _ in doc["pairs"]]
    values = [ctx.calc.rhom(x, y) for x, y in pairs]
    return ctx.calc, pairs, values


@pytest.mark.parametrize("D", TWISTS, ids=str)
def test_twist_invariance(pool, D):
    calc, pairs, values = pool
    assert len(pairs) == 1000
    broken = []
    for (x, y), value in zip(pairs, values):
        twisted = calc.rhom(calc.tensor_line(x, D), calc.tensor_line(y, D))
        if twisted != value:
            broken.append((x, y, str(value), str(twisted)))
    assert broken == []
