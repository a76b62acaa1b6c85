import copy
import json
import os
import pickle
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from quadstab.geometry import DivisorClass, SurfaceDivisor
from quadstab.checks import _corpus
from quadstab.expressions import (
    MAX_COEFFICIENT,
    MAX_DEPTH,
    MAX_NODES,
    Cone,
    FormalObject,
    LineAtom,
    MutateLeftNode,
    MutateRightNode,
    ParseError,
    PushAtom,
    Shift,
    Sum,
    Zero,
    parse_object,
    pretty,
    shifted,
    strip_shift,
)

D = DivisorClass
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
POOL, GOLDEN_REPORT = GOLDEN / "rhom_pool.json", GOLDEN / "report.json"


class TestParser:
    def test_line_bundle(self):
        obj = parse_object("O(2H+h-k)")
        assert obj == LineAtom(D(2, 1, -1))

    def test_trivial_bundle(self):
        assert parse_object("O()") == LineAtom(D(0, 0, 0))

    def test_negative_leading_coefficient(self):
        assert parse_object("O(-2H-h-k)") == LineAtom(D(-2, -1, -1))

    def test_repeated_symbols_accumulate(self):
        assert parse_object("O(h+h+h)") == LineAtom(D(0, 3, 0))

    def test_surface_sheaf(self):
        assert parse_object("OE(-1,0)") == PushAtom(SurfaceDivisor(-1, 0))

    def test_shift(self):
        assert parse_object("shift(O(),3)") == Shift(LineAtom(D(0, 0, 0)), 3)

    def test_mutation_nodes(self):
        obj = parse_object("L(OE(-1,0), O(-k))")
        assert obj == MutateLeftNode(PushAtom(SurfaceDivisor(-1, 0)), LineAtom(D(0, 0, -1)))
        obj = parse_object("R(O(h), O())")
        assert obj == MutateRightNode(LineAtom(D(0, 1, 0)), LineAtom(D(0, 0, 0)))

    def test_sum_and_cone_and_zero(self):
        obj = parse_object("sum(O(h), O(k), zero())")
        assert isinstance(obj, Sum) and len(obj.children) == 3
        cone = parse_object("cone(O(), O(h))")
        assert isinstance(cone, Cone) and cone.provenance == "unspecified"

    def test_names(self):
        marker = LineAtom(D(9, 9, 9))
        assert parse_object("mything", {"mything": marker}) is marker

    def test_whitespace(self):
        assert parse_object(" shift( O( H - h ) , -2 ) ") == Shift(LineAtom(D(1, -1, 0)), -2)

    @pytest.mark.parametrize(
        "bad",
        ["O(2)", "O(H", "shift(O())", "sum()", "unknownname", "OE(1)", "O() trailing", ""],
    )
    def test_errors_carry_position(self, bad):
        with pytest.raises(ParseError) as err:
            parse_object(bad)
        assert "position" in str(err.value)

    @pytest.mark.parametrize("bad", ["OE(", "OE(-", "shift(O(),", "O(H+", "sum(O(),"])
    def test_error_at_the_end_is_at_the_end(self, bad):
        with pytest.raises(ParseError) as err:
            parse_object(bad)
        assert err.value.position == len(bad)

    def test_error_positions_lie_inside_the_text(self):
        # every prefix of the corpus texts, and each with one character
        # deleted, doubled or replaced by a sign, digit or bracket
        rng = random.Random(251)
        texts = set()
        for text in _corpus():
            texts.update(text[:i] for i in range(len(text)))
            for _ in range(10):
                i = rng.randrange(len(text))
                texts.update((text[:i] + text[i + 1 :], text[:i] + text[i] + text[i:]))
                texts.add(text[:i] + rng.choice("+-,()0 ") + text[i + 1 :])
        outside = []
        for text in sorted(texts):
            try:
                parse_object(text)
            except ParseError as exc:
                if exc.position is not None and not 0 <= exc.position <= len(text):
                    outside.append((text, exc.position))
        assert outside == [] and len(texts) > 3000


NESTERS = {
    "shift": lambda s: f"shift({s},1)",
    "sum": lambda s: f"sum({s},O(-H))",
    "cone": lambda s: f"cone(O(-h-k),{s})",
    "L": lambda s: f"L(O(),{s})",
    "R": lambda s: f"R({s},O())",
}


def nested(kind: str, levels: int, leaf: str = "O()") -> str:
    """`levels` objects nested inside one another, the innermost `leaf`."""
    text = leaf
    for _ in range(levels - 1):
        text = NESTERS[kind](text)
    return text


class TestDepthLimit:
    @pytest.mark.parametrize("kind", sorted(NESTERS))
    def test_limit_accepted(self, kind):
        parse_object(nested(kind, MAX_DEPTH))

    @pytest.mark.parametrize("kind", sorted(NESTERS))
    def test_beyond_limit_rejected(self, kind):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_object(nested(kind, MAX_DEPTH + 1))

    def test_wide_trees_are_not_limited(self):
        wide = "sum(" + ",".join(nested("shift", MAX_DEPTH - 1) for _ in range(50)) + ")"
        assert len(parse_object(wide).children) == 50


class TestNameLimits:
    """A name counts toward the limits as the tree it stands for."""

    def test_name_depth_adds_to_the_nesting(self):
        names = {"A": parse_object(nested("shift", MAX_DEPTH))}
        assert parse_object("A", names) is names["A"]
        with pytest.raises(ParseError, match="nested deeper"):
            parse_object("shift(A,1)", names)

    def test_shared_subtrees_count_at_each_place(self):
        names = {"X0": parse_object("O()")}
        for k in range(1, 13):
            names[f"X{k}"] = parse_object(f"sum(X{k - 1},X{k - 1})", names)
        # X12 is 8,191 nodes; X13 would be 16,383
        assert len(parse_object("X12", names).children) == 2
        with pytest.raises(ParseError, match=f"more than {MAX_NODES} nodes"):
            parse_object("sum(X12,X12)", names)

    def test_text_alone_is_limited(self):
        with pytest.raises(ParseError, match=f"more than {MAX_NODES} nodes"):
            parse_object("sum(" + ",".join(["O()"] * MAX_NODES) + ")")


class TestCoefficientLimit:
    """Integers past MAX_COEFFICIENT are a ParseError, not a huge computation."""

    M = MAX_COEFFICIENT

    def test_limit_accepted(self):
        assert parse_object(f"O({self.M}H-{self.M}h+k)") == LineAtom(D(self.M, -self.M, 1))
        assert parse_object(f"OE(-{self.M},{self.M})") == PushAtom(SurfaceDivisor(-self.M, self.M))
        assert parse_object(f"shift(O(),-{self.M})") == Shift(LineAtom(D(0, 0, 0)), -self.M)

    @pytest.mark.parametrize(
        "text",
        [
            f"O({MAX_COEFFICIENT + 1}H)",
            f"O(-{MAX_COEFFICIENT + 1}k)",
            "O(100000000H)",
            f"OE({MAX_COEFFICIENT + 1},0)",
            f"OE(0,-{MAX_COEFFICIENT + 1})",
            f"shift(O(),{MAX_COEFFICIENT + 1})",
            # longer than int() converts without raising ValueError
            "O(" + "9" * 5000 + "h)",
            "OE(0," + "1" * 5000 + ")",
        ],
    )
    def test_beyond_limit_rejected(self, text):
        with pytest.raises(ParseError, match="limited to"):
            parse_object(text)

    def test_like_terms_are_limited_after_adding(self):
        half = MAX_COEFFICIENT // 2 + 1
        with pytest.raises(ParseError, match="coefficient .* of H exceeds"):
            parse_object(f"O({half}H+{half}H)")
        assert parse_object(f"O({half}H-{half}H)") == LineAtom(D(0, 0, 0))

    def test_only_ascii_digits(self):
        # '²'.isdigit() is true, but int() rejects it
        with pytest.raises(ParseError, match="expected one of H, h, k"):
            parse_object("O(²H)")
        with pytest.raises(ParseError, match="expected an integer"):
            parse_object("OE(²,0)")


def _all_kinds() -> Cone:
    """A tree holding every node class, built without the parser."""
    inner = MutateRightNode(LineAtom(D(1, 0, 0)), MutateLeftNode(Zero(), LineAtom(D(0, 0, -1))))
    return Cone(
        LineAtom(D(0, 1, 0)),
        Sum((PushAtom(SurfaceDivisor(-1, 0)), Shift(Zero(), 1))),
        "evaluation",
        MutateLeftNode(LineAtom(D(0, 0, 0)), inner),
    )


def _nodes(x):
    """Every node of a tree, the mutation records of cones included."""
    yield x
    for name in x.__slots__:
        value = getattr(x, name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, FormalObject):
                yield from _nodes(child)


class TestNodes:
    def test_every_node_class_is_covered(self):
        kinds = {type(n) for n in _nodes(_all_kinds())}
        assert kinds == {Cone, LineAtom, MutateLeftNode, MutateRightNode, PushAtom, Shift, Sum, Zero}

    def test_equal_trees_have_equal_hashes(self):
        a, b = _all_kinds(), _all_kinds()
        assert a is b and a == b and hash(a) == hash(b)
        text = "cone(L(O(),shift(OE(1,2),3)),sum(R(O(h),O()),zero()))"
        assert parse_object(text) is parse_object(text)

    def test_hash_distinguishes_node_classes(self):
        e, x = LineAtom(D(0, 0, 0)), LineAtom(D(0, 1, 0))
        assert MutateLeftNode(e, x) != MutateRightNode(e, x)
        assert len({hash(MutateLeftNode(e, x)), hash(MutateRightNode(e, x))}) == 2

    def test_hash_is_stable(self):
        tree = _all_kinds()
        first = {id(n): hash(n) for n in _nodes(tree)}
        for _ in range(3):
            assert {id(n): hash(n) for n in _nodes(tree)} == first

    def test_hash_is_the_identity_hash(self):
        for node in _nodes(_all_kinds()):
            assert "_hash" not in type(node).__slots__
            assert hash(node) == object.__hash__(node)
            assert type(node).__eq__ is object.__eq__

    def test_a_cone_is_given_its_defaults_before_the_lookup(self):
        x, y = LineAtom(D(0, 0, 0)), LineAtom(D(0, 1, 0))
        assert Cone(x, y) is Cone(x, y, "unspecified") is Cone(x, y, "unspecified", None)
        assert Cone(x, y, "evaluation") is not Cone(x, y)
        for fields in ((x,), (x, y, "unspecified", None, None)):
            with pytest.raises(TypeError):
                Cone(*fields)

    def test_fields_are_frozen(self):
        for node in _nodes(_all_kinds()):
            for name in node.__slots__:
                with pytest.raises(AttributeError):
                    setattr(node, name, None)

    def test_threads_that_build_one_node_get_one_object(self):
        # trees not built before, each built by every thread at once
        def build(out):
            out.extend(Shift(Cone(LineAtom(D(k, 7919, -7919)), Zero()), k) for k in range(2000))

        outs = [[] for _ in range(4)]
        threads = [threading.Thread(target=build, args=(out,)) for out in outs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(len(out) == 2000 for out in outs)
        assert all(x is y for out in outs[1:] for x, y in zip(outs[0], out))

    def test_copy_and_pickle_rebuild_equal_trees(self):
        tree = _all_kinds()
        for copied in (copy.copy(tree), copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
            assert copied is tree

    def test_outputs_do_not_depend_on_node_hashes(self, tmp_path):
        # node hashes are addresses, different in every process; the JSON
        # report and rhom/mutate on pool texts must not see them
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from quadstab.cli import main\n"
            "from quadstab.harness import DEFAULT_TWIST, default_config, emit_report, run_checks\n"
            "out, texts = Path(sys.argv[1]), sys.argv[2:]\n"
            "out.write_text(emit_report(run_checks(default_config()), 'json', DEFAULT_TWIST) + '\\n')\n"
            "print(main(['report']))\n"
            "for x, y in zip(texts, texts[1:]):\n"
            "    print(main(['rhom', x, y]), main(['mutate', 'L', x, y]), main(['mutate', 'R', x, y]))\n"
        )
        texts = json.loads(POOL.read_text(encoding="utf-8"))["expressions"][:8]
        src = str(Path(__file__).resolve().parents[1] / "src")
        runs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            report = tmp_path / f"report-{seed}.json"
            proc = subprocess.run(
                [sys.executable, "-c", script, str(report), *texts],
                capture_output=True, text=True, env=env, timeout=120, check=True,
            )
            runs.append((proc.stdout, proc.stderr, report.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][2] == GOLDEN_REPORT.read_bytes()

    def test_nodes_have_no_dict(self):
        for node in _nodes(_all_kinds()):
            assert not hasattr(node, "__dict__")

    def test_repr_and_pretty_unchanged(self):
        tree = _all_kinds()
        hash(tree)
        assert repr(tree) == (
            "Cone(source=LineAtom(divisor=DivisorClass(nH=0, nh=1, nk=0)), "
            "target=Sum(children=(PushAtom(beta=SurfaceDivisor(d=-1, e=0)), "
            "Shift(child=Zero(), n=1))), provenance='evaluation', "
            "mutation=MutateLeftNode(e=LineAtom(divisor=DivisorClass(nH=0, nh=0, nk=0)), "
            "x=MutateRightNode(x=LineAtom(divisor=DivisorClass(nH=1, nh=0, nk=0)), "
            "e=MutateLeftNode(e=Zero(), x=LineAtom(divisor=DivisorClass(nH=0, nh=0, nk=-1))))))"
        )
        assert pretty(tree) == "cone(O(h),sum(OE(-1,0),shift(zero(),1)))"


class TestPrinter:
    @pytest.mark.parametrize(
        "text",
        [
            "O()",
            "O(2H+h-k)",
            "O(-2H-h-k)",
            "OE(-1,0)",
            "shift(O(H),1)",
            "sum(O(h),O(k))",
            "cone(O(),O(h))",
            "L(OE(-1,0),O(-k))",
            "R(O(-k),O())",
            "zero()",
        ],
    )
    def test_round_trip(self, text):
        tree = parse_object(text)
        assert parse_object(pretty(tree)) == tree


class TestHelpers:
    def test_shifted_collapses(self):
        x = LineAtom(D(0, 0, 0))
        assert shifted(shifted(x, 1), -1) == x
        assert shifted(x, 0) == x
        assert shifted(Zero(), 5) == Zero()

    def test_strip_shift(self):
        x = LineAtom(D(1, 0, 0))
        core, n = strip_shift(Shift(Shift(x, 2), -5))
        assert core == x and n == -3
