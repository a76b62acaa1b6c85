"""Laws the calculus must obey whatever rules decide a value.

Twist invariance: tensoring both arguments by one line bundle L is an
autoequivalence, so RHom(X (x) L, Y (x) L) = RHom(X, Y) as whole values,
the bounds of an ambiguous value included.  Twisted trees carry twisted
mutation tags, so the rules meet inputs the pools themselves do not hold.

Derived duality: RHom(X, Y) = RHom(Y^v, X^v).  The dual route swaps the
cone-in-first and cone-in-second LES rules and drops every mutation tag, so
it is not a restatement of a rule; it may decide fewer values, and where
both routes decide one they must agree.  Serre duality is not checked here:
the calculus itself transports along it.

The ambiguity is counted in two parts: the pairs that hold a cone parsed
from text, whose map is left open, and the pairs the engine leaves open.
Each part is capped on its own.

Every rule is consulted: the engine stops merging candidates once the value
is determined, so a later rule's bound is never compared with it.  An engine
that merges every candidate must raise no SoundnessError and give the same
value for every pair.

The laws run on the benchmark's recorded pool of 1,000 pairs and on all
pairs of the distinct normal forms of the harness corpus; every rule is also
consulted on the pairs of the props.euler-soundness sweep.

Hash-consing: a node equals another only if it is that node, on every path
that builds one (parsing, normalizing, twisting, tilting a heart, copying and
pickling), across Contexts: two nodes of one structure are one object.

Gram form: props.euler-soundness queries one atom pair per translation
class, so every pair of its sweep is checked here against chi(x, y) = x^T G y
of the classes, at the default twist and three others: the Euler number of
the value, and that of its upper bound when the value is determined.

Query order: the sweep reports the same mismatch and determined counts when
its objects come forward, reversed or shuffled, each on a fresh Context, at
four twists, so no value depends on what the memo held before.
"""

import copy
import json
import pickle
import random
from pathlib import Path

import pytest

from quadstab import checks
from quadstab.calculus import Calculus, CopyLimitError, PreconditionError, SoundnessError
from quadstab.expressions import Cone, FormalObject, LineAtom, PushAtom, Shift, Sum, Zero, parse_object
from quadstab.geometry import DivisorClass, SurfaceDivisor
from quadstab.checks import _corpus, _sweep_objects
from quadstab.harness import DEFAULT_CONFIG_TEXT, Context, HarnessConfig, default_config

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "rhom_pool.json"

# O(H), O(h), O(k), O(-H+h), O(-h+2k)
TWISTS = [
    DivisorClass(1, 0, 0),
    DivisorClass(0, 1, 0),
    DivisorClass(0, 0, 1),
    DivisorClass(-1, 1, 0),
    DivisorClass(0, -1, 2),
]


def _values(calc, pairs):
    return [calc.rhom(x, y) for x, y in pairs]


@pytest.fixture(scope="module")
def pool():
    """One shared Context, the pool's normalized pairs and their values."""
    doc = json.loads(POOL.read_text(encoding="utf-8"))
    ctx = Context(default_config())
    objects = [ctx.obj(text) for text in doc["expressions"]]
    pairs = [(objects[a], objects[b]) for a, b, _ in doc["pairs"]]
    return ctx.calc, pairs, _values(ctx.calc, pairs)


@pytest.fixture(scope="module")
def corpus():
    """One shared Context and all ordered pairs of the distinct normal forms
    of the corpus (the texts the calculus refuses are left out)."""
    ctx = Context(default_config())
    objects = {}
    for text in _corpus():
        try:
            objects[ctx.calc.normalize(parse_object(text))] = None
        except (PreconditionError, CopyLimitError):
            continue
    pairs = [(x, y) for x in objects for y in objects]
    return ctx.calc, pairs, _values(ctx.calc, pairs)


@pytest.fixture(scope="module")
def sweep():
    """One shared Context and the 23,409 pairs props.euler-soundness queries:
    150 atoms and G, F, Ecal at the default twist, each against each."""
    ctx = Context(default_config())
    objects = _sweep_objects(ctx)
    pairs = [(x, y) for x in objects for y in objects]
    return ctx.calc, pairs, _values(ctx.calc, pairs)


def dual(calc, x):
    """The derived dual of a normalized tree, without mutation tags.

    O(D)^v = O(-D); O_E(d,e)^v = O_E(a-d, b-e)[-1] with E|_E = (a,b), since
    (i_* A)^v = i_*(A^v (x) O_E(E))[-1]; shifts negate, sums dualize
    childwise, and cone(S -> T)^v = cone(T^v -> S^v)[-1].
    """
    if isinstance(x, Zero):
        return x
    if isinstance(x, LineAtom):
        return LineAtom(-x.divisor)
    if isinstance(x, PushAtom):
        g = calc.geometry
        e = g.restrict_to_E(g.exceptional_divisor_class())
        return Shift(PushAtom(SurfaceDivisor(e.d - x.beta.d, e.e - x.beta.e)), -1)
    if isinstance(x, Shift):
        return Shift(dual(calc, x.child), -x.n)
    if isinstance(x, Sum):
        return Sum(tuple(dual(calc, c) for c in x.children))
    if isinstance(x, Cone):
        return Shift(Cone(dual(calc, x.target), dual(calc, x.source), x.provenance, None), -1)
    raise TypeError(f"no dual for {x!r}")


def holds_parsed_cone(x):
    """Whether a normalized tree still holds a cone parsed from text: one
    with provenance `unspecified` and no mutation record, whose map is left
    open.  RHom against such a cone can depend on which map is meant, so an
    ambiguous value may be the correct answer; a pair that holds none and is
    still ambiguous is left open by the engine."""
    if isinstance(x, Cone):
        parsed = x.provenance == "unspecified" and x.mutation is None
        return parsed or holds_parsed_cone(x.source) or holds_parsed_cone(x.target)
    if isinstance(x, Shift):
        return holds_parsed_cone(x.child)
    if isinstance(x, Sum):
        return any(holds_parsed_cone(c) for c in x.children)
    return False


def _within(value, bounds):
    """A determined value lies inside the bounds of another result."""
    above_lo = bounds.lo.monus(value).is_zero()
    return above_lo and (bounds.hi is None or value.monus(bounds.hi).is_zero())


def _duality_disagreements(calc, pairs, values):
    """The pairs breaking derived duality, and how many pairs both routes
    determine."""
    broken = []
    both = 0
    for (x, y), value in zip(pairs, values):
        other = calc.rhom(dual(calc, y), dual(calc, x))
        if other.euler != value.euler:
            broken.append(("euler", x, y, str(value), str(other)))
        elif value.determined and other.determined:
            both += 1
            if value.dims != other.dims:
                broken.append(("dims", x, y, str(value), str(other)))
        elif value.determined and not _within(value.dims, other):
            broken.append(("bounds", x, y, str(value), str(other)))
        elif other.determined and not _within(other.dims, value):
            broken.append(("bounds", x, y, str(value), str(other)))
    return broken, both


def _twist_disagreements(calc, pairs, values, D):
    broken = []
    for (x, y), value in zip(pairs, values):
        twisted = calc.rhom(calc.tensor_line(x, D), calc.tensor_line(y, D))
        if twisted != value:
            broken.append((x, y, str(value), str(twisted)))
    return broken


@pytest.mark.parametrize("D", TWISTS, ids=str)
def test_twist_invariance(pool, D):
    calc, pairs, values = pool
    assert len(pairs) == 1000
    assert _twist_disagreements(calc, pairs, values, D) == []


def test_twist_invariance_on_the_corpus(corpus):
    calc, pairs, values = corpus
    assert _twist_disagreements(calc, pairs, values, TWISTS[0]) == []


def test_derived_duality_on_the_pool(pool):
    broken, both = _duality_disagreements(*pool)
    assert broken == []
    # both routes determined 540 pairs when the law was added; rules only add
    assert both >= 540


def test_derived_duality_on_the_corpus(corpus):
    broken, both = _duality_disagreements(*corpus)
    assert broken == []
    assert both >= 5331


def test_corpus_ambiguity_does_not_rise(corpus):
    _, pairs, values = corpus
    assert len(pairs) == 88 * 88
    # 2,403 of the 7,744 pairs were ambiguous when this count was pinned
    assert sum(not v.determined for v in values) <= 2403


# (map-dependent, engine) ambiguous pairs when the split was pinned.  Neither
# part may rise; a rule that moves pairs from one part to the other re-pins
# both counts here.
AMBIGUITY_PARTS = {"pool": (324, 135), "corpus": (1494, 909)}


@pytest.mark.parametrize("pairs_of", sorted(AMBIGUITY_PARTS))
def test_neither_part_of_the_ambiguity_rises(pairs_of, request):
    _, pairs, values = request.getfixturevalue(pairs_of)
    ambiguous = [(x, y) for (x, y), value in zip(pairs, values) if not value.determined]
    map_dependent = sum(holds_parsed_cone(x) or holds_parsed_cone(y) for x, y in ambiguous)
    cap_map_dependent, cap_engine = AMBIGUITY_PARTS[pairs_of]
    assert map_dependent <= cap_map_dependent
    assert len(ambiguous) - map_dependent <= cap_engine


class ExhaustiveCalculus(Calculus):
    """Merges every candidate the rules yield for a pair, determined or not,
    so that merge compares each later bound with the value found first."""

    def _core_info(self, X, Y, transport):
        euler = self._euler(X, Y)
        best = None
        for candidate in self._candidates(X, Y, transport, euler):
            if candidate.euler != euler:
                raise SoundnessError(f"Euler mismatch: {candidate.euler} vs {euler}")
            best = candidate if best is None else best.merge(candidate)
        return best


@pytest.mark.parametrize("pairs_of", ["pool", "corpus", "sweep"])
def test_every_rule_agrees_with_the_first_determined(pairs_of, request):
    calc, pairs, values = request.getfixturevalue(pairs_of)
    exhaustive = ExhaustiveCalculus(calc.geometry)
    moved = [
        (x, y, str(value), str(other))
        for (x, y), value, other in zip(pairs, values, _values(exhaustive, pairs))
        if other != value
    ]
    assert moved == []


def _sweep_at(twist):
    """The sweep's pairs and values on a fresh Context at another twist."""
    ctx = Context(HarnessConfig.from_text(DEFAULT_CONFIG_TEXT.replace("twist = -1,-1", f"twist = {twist}")))
    objects = _sweep_objects(ctx)
    pairs = [(x, y) for x in objects for y in objects]
    return ctx.calc, pairs, _values(ctx.calc, pairs)


@pytest.mark.parametrize("twist", ["-1,-1", "0,0", "-2,0", "1,-2"])
def test_every_sweep_pair_agrees_with_the_gram_form(twist, request):
    calc, pairs, values = request.getfixturevalue("sweep") if twist == "-1,-1" else _sweep_at(twist)
    assert len(pairs) == (153 if twist == "-1,-1" else 150) ** 2
    pairing, class_of = calc.ktheory.euler_pairing, calc.class_of
    disagreements = []
    for (x, y), value in zip(pairs, values):
        chi = pairing(class_of(x), class_of(y))
        if value.euler != chi or (value.determined and value.hi.euler() != chi):
            disagreements.append((x, y, str(value), chi))
    assert disagreements == []


ORDERS = {
    "forward": lambda objects: objects,
    "reversed": lambda objects: objects[::-1],
    "shuffled": lambda objects: random.Random(1789).sample(objects, len(objects)),
}


@pytest.mark.parametrize("twist", ["-1,-1", "0,0", "-2,0", "1,-2"])
def test_the_sweep_counts_do_not_depend_on_the_object_order(twist, monkeypatch):
    config = HarnessConfig.from_text(DEFAULT_CONFIG_TEXT.replace("twist = -1,-1", f"twist = {twist}"))
    texts = {}
    for order, arrange in ORDERS.items():
        monkeypatch.setattr(checks, "_sweep_objects", lambda ctx: arrange(_sweep_objects(ctx)))
        ok, texts[order] = checks._check_props_euler(Context(config))
    assert ok
    assert len(set(texts.values())) == 1, texts


def _structures(roots):
    """Every node reachable from roots (mutation records included), each
    with a number that only nodes of one structure share: class and fields,
    with the children numbered first, computed without node equality."""
    numbers, table, nodes = {}, {}, []

    def number(x):
        n = numbers.get(id(x))
        if n is None:
            fields = []
            for name in x.__slots__:
                value = getattr(x, name)
                if isinstance(value, FormalObject):
                    value = number(value)
                elif type(value) is tuple:  # the children of a sum
                    value = tuple(number(c) for c in value)
                fields.append(value)
            n = numbers[id(x)] = table.setdefault((type(x), *fields), len(table))
            nodes.append(x)
        return n

    for root in roots:
        number(root)
    return [(numbers[id(x)], x) for x in nodes]


def test_equal_nodes_are_identical_on_every_construction_path():
    texts = json.loads(POOL.read_text(encoding="utf-8"))["expressions"]
    roots = []
    for ctx in (Context(default_config()), Context(default_config())):
        names = ctx.names
        parsed = [parse_object(text, names) for text in texts]
        normal = [ctx.obj(text) for text in texts]
        twisted = [ctx.calc.tensor_line(x, D) for x in normal for D in TWISTS]
        simples = [x for heart in ctx.hearts.values() for x in heart.simples]
        roots += parsed + normal + twisted + simples
    roots += [copied(x) for x in roots[: 2 * len(texts)] for copied in (copy.copy, copy.deepcopy)]
    roots += pickle.loads(pickle.dumps(roots[: 2 * len(texts)]))
    first = {}
    for n, x in _structures(roots):
        y = first.setdefault(n, x)
        assert x is y and x == y, f"two objects of one structure: {x!r}"
    # nodes of distinct structures are unequal: none is lost from a dict
    assert len(dict.fromkeys(first.values())) == len(first)
