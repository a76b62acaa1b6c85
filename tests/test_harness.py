import configparser
import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

import quadstab
from quadstab import checks, harness, stability
from quadstab.calculus import MAX_COPIES, Calculus, PreconditionError
from quadstab.expressions import MAX_COEFFICIENT, MAX_DEPTH, LineAtom, PushAtom
from quadstab.geometry import DivisorClass, SurfaceDivisor
from quadstab.lattice import KTheory

from quadstab.harness import (
    CHECK_NAMES,
    ConfigError,
    Context,
    DEFAULT_CONFIG_TEXT,
    DEFAULT_TWIST,
    HarnessConfig,
    default_config,
    emit_report,
    run_checks,
)
from quadstab.cli import main

from oracles import configparser_sections
from test_expressions import NESTERS, nested


def with_object(line: str) -> str:
    return DEFAULT_CONFIG_TEXT.replace("[objects]\n", f"[objects]\n{line}\n")


# Configs that a typo would otherwise let run as something else, each with
# the part of the error that names the section, key or object at fault.
TYPO_CONFIGS = {
    "unknown-section": (DEFAULT_CONFIG_TEXT.replace("[geometry]", "[geometri]"), "unknown section [geometri]"),
    "unknown-geometry-key": (DEFAULT_CONFIG_TEXT.replace("twist =", "twsit ="), "key 'twsit' in [geometry]"),
    "unknown-checks-key": (DEFAULT_CONFIG_TEXT + "\n[checks]\nskip = kernel.rank\n", "key 'skip' in [checks]"),
    "default-section-key": ("[DEFAULT]\nX = O()\n" + DEFAULT_CONFIG_TEXT, "key 'X' in [DEFAULT]"),
    "blank-check-selection": (DEFAULT_CONFIG_TEXT + "\n[checks]\nonly =\n", "names no check"),
    "keyword-object-name": (with_object("sum = O()"), "object 'sum'"),
    "spaced-object-name": (with_object("my obj = O()"), "object 'my obj'"),
}


class TestConfig:
    def test_default_parses(self):
        cfg = default_config()
        assert cfg.twist == (-1, -1)
        assert set(cfg.objects) == {"G", "F", "Ecal"}
        assert set(cfg.hearts) == {"B", "Atilde"}
        assert set(cfg.charges) == {"Z_B", "Z_up"}

    def test_charge_values_exact(self):
        cfg = default_config()
        _, values = cfg.charges["Z_B"]
        assert values[2] == (1, pytest.approx(0.01)) or values[2][1].denominator == 100

    def test_bad_twist(self):
        with pytest.raises(ConfigError):
            HarnessConfig.from_text("[geometry]\ntwist = cow\n")

    def test_bad_charge(self):
        with pytest.raises(ConfigError):
            HarnessConfig.from_text("[charges]\nZ = B ; 0,1\n")

    @pytest.mark.parametrize("value", ["0", "007", "1/100", "-3", "+2", " 12 ", "1_000", "\u0661", "9" * 40])
    def test_charge_values_equal_fraction(self, value):
        # plain ASCII digits take int(), the rest Fraction's own string parse
        assert harness._parse_complex_pair(f"({value},1)", "Z") == (Fraction(value.strip()), 1)

    @pytest.mark.parametrize("value", ["\u00b2", "", "1/0", "9" * 5000])
    def test_bad_charge_values(self, value):
        with pytest.raises(ConfigError, match="bad value"):
            harness._parse_complex_pair(f"({value},1)", "Z")

    def test_unknown_check_selection(self):
        with pytest.raises(ConfigError):
            run_checks(default_config(), selection=("not.a.check",))

    def test_selection_via_config(self):
        text = DEFAULT_CONFIG_TEXT + "\n[checks]\nonly = kernel.rank, serre.canonical\n"
        cfg = HarnessConfig.from_text(text)
        results = run_checks(cfg)
        assert [r.name for r in results] == ["serre.canonical", "kernel.rank"]

    def test_context_reports_object_errors(self):
        text = DEFAULT_CONFIG_TEXT.replace("L(OE(-1,0), O(-k))", "L(OE(-1,0), O(-q))")
        cfg = HarnessConfig.from_text(text)
        with pytest.raises(ConfigError):
            Context(cfg)

    def test_config_errors_precede_checks(self):
        # a broken expression is rejected up front, not inside a check
        text = DEFAULT_CONFIG_TEXT.replace("L(OE(-1,0), O(-k))", "L(OE(-1,0), bogus)")
        cfg = HarnessConfig.from_text(text)
        with pytest.raises(ConfigError):
            run_checks(cfg, selection=("serre.canonical",))

    @pytest.mark.parametrize("case", sorted(TYPO_CONFIGS))
    def test_typos_are_refused_by_name(self, case):
        text, named = TYPO_CONFIGS[case]
        with pytest.raises(ConfigError, match=re.escape(named)):
            Context(HarnessConfig.from_text(text))

    def test_charge_length_validated(self):
        text = DEFAULT_CONFIG_TEXT.replace(
            "Z_up = Atilde ; (0,1) ; (0,0) ; (0,1)", "Z_up = Atilde ; (0,1)"
        )
        with pytest.raises(ConfigError):
            run_checks(HarnessConfig.from_text(text), selection=("serre.canonical",))


# Lines for random INI texts: headers, key lines, continuations, comments
# and blanks, with the odd forms and whitespace configparser treats
# specially ('\r', '\x0c' and '\u2028' are whitespace but do not end a line).
INI_PIECES = (
    "[DEFAULT]", "[]", "[a] b", "[ x ]", "[a]", "[b]", "  [b]", "[a]]", "[[a]", "[a",
    "k =", "=x", " = x", "a = b = c", "k = v", "K = v", "k=v", "no equals here", "  k = w", "\tm = n",
    "  continued", "\tcontinued", "      deeper", "", "   ", "# comment", "   # indented comment",
    "\t#", "k = v\r", "\r", "\x0ck = v", "  \x0ccontinued", "x = \x0c", "k\u2028= v",
    "\u2028continued", "x = \u2028", "\u2028", "k = v # not a comment",
)
# The one form the reader refuses although configparser reads it: a line
# that starts with '[' and is not '[name]'.
REFUSED_FORM = "expected '[section]'"


def _ordered(sections: dict) -> dict:
    """Each section's keys in order; an empty [DEFAULT] holds nothing."""
    return {name: list(keys.items()) for name, keys in sections.items() if name != "DEFAULT" or keys}


class TestConfigReader:
    """harness._read_sections against configparser, the reader it replaced."""

    def test_agrees_with_configparser(self):
        rng = random.Random(1919)
        seen = {"same map": 0, "both refuse": 0, "refused form": 0}
        for _ in range(4000):
            lines = [rng.choice(INI_PIECES) for _ in range(rng.randint(1, 8))]
            if rng.random() < 0.8:
                lines.insert(0, rng.choice(("[a]", "[b]", "[DEFAULT]")))
            text = "\n".join(lines) + rng.choice(("", "\n"))
            try:
                want = configparser_sections(text)
            except configparser.Error:
                want = None
            try:
                got = harness._read_sections(text)
            except ConfigError as exc:
                # a refusal is either configparser's too, or the one named form
                assert want is None or REFUSED_FORM in str(exc), (text, want, exc)
                seen["both refuse" if want is None else "refused form"] += 1
                continue
            assert want is not None, (text, got)
            assert _ordered(got) == _ordered(want), text
            seen["same map"] += 1
        assert min(seen.values()) > 20, seen

    @pytest.mark.parametrize("line", ["[hearts] extra", "[] = O()", "[objects = O()"])
    def test_refuses_a_bracket_line_that_is_not_a_header(self, line):
        text = f"[objects]\nA = O()\n{line}\n"
        assert configparser_sections(text)
        with pytest.raises(ConfigError, match=re.escape(f"config line 3: {REFUSED_FORM}")):
            harness._read_sections(text)

    def test_continued_values(self):
        text = "[objects]\nA = sum(O(),\n\n  # a comment\n   O(h))\n\n\nB = A\n"
        expected = {"objects": {"A": "sum(O(),\n\nO(h))", "B": "A"}}
        assert harness._read_sections(text) == configparser_sections(text) == expected
        assert HarnessConfig.from_text(text).objects["A"] == "sum(O(),\n\nO(h))"

    def test_default_config_is_read_on_every_call(self, monkeypatch, capsys):
        calls = []
        real = HarnessConfig.from_text

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(HarnessConfig, "from_text", staticmethod(counting))
        argvs = [["cohomology", "H"], ["rhom", "O()", "O(h)"], ["rhom", "O()", "O(h)"], ["kernel"]]
        for argv in argvs:
            assert main(argv) == 0
        assert calls == [DEFAULT_CONFIG_TEXT] * len(argvs)


class TestRegistry:
    def test_registry_is_complete(self):
        assert len(CHECK_NAMES) == 33
        assert len(set(CHECK_NAMES)) == 33

    def test_full_run_passes(self, full_results):
        assert all(r.status == "pass" for r in full_results), [
            (r.name, r.status) for r in full_results if r.status != "pass"
        ]

    def test_results_in_registry_order(self, full_results):
        assert [r.name for r in full_results] == list(CHECK_NAMES)

    def test_selection(self):
        results = run_checks(default_config(), selection=("kernel.rank",))
        assert len(results) == 1 and results[0].status == "pass"

    def test_other_twist_skips_pinned_checks(self):
        cfg = HarnessConfig.from_text(DEFAULT_CONFIG_TEXT.replace("-1,-1", "0,0"))
        results = run_checks(cfg)
        ran = [r.name for r in results if r.status == "pass"]
        assert ran == [n for n in CHECK_NAMES if n.startswith("props.")] and len(ran) == 5
        assert [r.status for r in results].count("skipped") == 28


class TestReports:
    def test_text_report_mentions_every_check(self, full_results):
        text = emit_report(full_results, "text")
        for name in CHECK_NAMES:
            assert name in text
        assert "33 checks" in text

    def test_json_schema(self, full_results):
        doc = json.loads(emit_report(full_results, "json", (-1, -1)))
        assert doc["version"] == "1"
        assert doc["geometry"] == {"twist": [-1, -1]}
        assert len(doc["results"]) == 33
        first = doc["results"][0]
        assert set(first) == {"name", "status", "expected", "actual", "anchor", "tag"}

    def test_json_deterministic(self, full_results, second_results):
        a = emit_report(full_results, "json", (-1, -1))
        b = emit_report(second_results, "json", (-1, -1))
        assert a == b

    def test_timestamp_excluded_from_body(self, full_results):
        with_stamp = json.loads(
            emit_report(full_results, "json", (-1, -1), timestamp="2024-01-01T00:00:00")
        )
        without = json.loads(emit_report(full_results, "json", (-1, -1)))
        with_stamp.pop("timestamp")
        assert with_stamp == without

    def test_empty_selection_empty_results(self):
        assert emit_report([], "json", (-1, -1)).count('"results": []') == 1


@pytest.fixture(scope="module")
def full_results():
    return run_checks(default_config())


@pytest.fixture(scope="module")
def second_results():
    return run_checks(default_config())


def readme_block(opening: str) -> str:
    """The body of the README's first fenced block that starts at `opening`."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split(opening + "\n", 1)[1].split("```", 1)[0]


def readme_examples() -> list[tuple[list[str], str]]:
    """The (arguments, output) of each `quadstab ...  # -> output` line of
    the README's CLI block."""
    block = readme_block("## CLI\n\n```")
    return [
        (shlex.split(command)[1:], output)
        for command, output in re.findall(r"^(quadstab .*?)\s+# -> (.*)$", block, re.M)
    ]


README_EXAMPLES = readme_examples()


class TestReadmeExamples:
    def test_the_cli_block_has_examples(self):
        assert README_EXAMPLES

    @pytest.mark.parametrize(
        "argv, output", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES]
    )
    def test_prints_its_output(self, argv, output, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == output + "\n"

    def test_the_example_config_checks(self, tmp_path, capsys):
        path = tmp_path / "example.cfg"
        path.write_text(readme_block("```ini"), encoding="utf-8")
        assert main(["--config", str(path), "check"]) == 0


def replay(argvs: list[list[str]]) -> list[tuple[int, str, str]]:
    """The exit code, stdout and stderr of main(argv) for each argv, in order."""
    calls = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        calls.append((code, out.getvalue(), err.getvalue()))
    return calls


@pytest.fixture(scope="module")
def golden_cli():
    """The benchmark's recorded CLI queries and one replay of them all."""
    path = TestBenchmarkGolden.GOLDEN / "cli_pool.json"
    queries = json.loads(path.read_text(encoding="utf-8"))["queries"]
    return queries, replay([q["argv"] for q in queries])


class TestCli:
    def test_cohomology(self, capsys):
        assert main(["cohomology", "H-h-k"]) == 0
        assert capsys.readouterr().out.strip() == "{0: 1}"

    def test_rhom(self, capsys):
        assert main(["rhom", "O(-h)", "G"]) == 0
        assert capsys.readouterr().out.strip() == "{1: 1}"

    def test_mutate(self, capsys):
        assert main(["mutate", "L", "O(2H)", "OE(0,0)"]) == 0
        assert capsys.readouterr().out.strip() == "shift(O(H+h+k),1)"

    def test_class(self, capsys):
        assert main(["class", "O()"]) == 0
        out = capsys.readouterr().out
        assert "coordinates: [1, 0, 0, 0, 0, 0, 0, 0]" in out

    def test_gram_collection(self, capsys):
        assert main(["gram", "TRIPLE"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["[1, -1, -2]", "[0, 1, 1]", "[0, 0, 1]"]

    def test_kernel(self, capsys):
        assert main(["kernel"]) == 0
        out = capsys.readouterr().out
        assert "quotient rank 1, torsion none" in out

    def test_check_single(self, capsys):
        assert main(["check", "--only", "kernel.rank"]) == 0

    def test_check_json_output(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["check", "--only", "serre.canonical", "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["results"][0]["status"] == "pass"
        assert "timestamp" in doc

    def test_parse_error_exit_code(self, capsys):
        assert main(["rhom", "O(", "O()"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("H+", "expected one of H, h, k (at position 2)"),
            ("H-x", "expected one of H, h, k (at position 2)"),
            ("H)x", "trailing input (at position 1)"),
            (")", "trailing input (at position 0)"),
            ("H h", "trailing input (at position 2)"),
        ],
    )
    def test_cohomology_error_positions_are_in_the_argument(self, text, message, capsys):
        assert main(["cohomology", "--", text]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("text", ["", "  "])
    def test_cohomology_of_the_blank_divisor(self, text, capsys):
        assert main(["cohomology", "--", text]) == 0
        assert capsys.readouterr().out == "{0: 1}\n"

    @pytest.mark.parametrize("only", [",", "", " , "])
    def test_empty_selection_exit_code(self, only, capsys):
        assert main(["check", "--only", only]) == 2
        assert capsys.readouterr().err == "error: the check selection names no check\n"

    def test_unknown_check_exit_code(self, capsys):
        assert main(["check", "--only", "bogus.check"]) == 2

    def test_config_file(self, tmp_path, capsys):
        path = tmp_path / "alt.cfg"
        path.write_text(DEFAULT_CONFIG_TEXT.replace("-1,-1", "0,0"))
        assert main(["--config", str(path), "cohomology", "h"]) == 0
        assert capsys.readouterr().out.strip() == "{0: 2}"

    def test_missing_config_file(self, capsys):
        assert main(["--config", "/nonexistent/path.cfg", "kernel"]) == 2

    def test_report_command(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "33 checks" in out


class TestLazyNames:
    """A CLI call builds only the named objects its expressions use."""

    @pytest.fixture
    def mutations(self, monkeypatch):
        """The arguments of every Calculus.mutate_left call."""
        calls = []
        real = Calculus.mutate_left

        def counting(calc, e, x):
            calls.append((e, x))
            return real(calc, e, x)

        monkeypatch.setattr(Calculus, "mutate_left", counting)
        return calls

    @pytest.fixture
    def twist00(self, tmp_path):
        # the default [objects] lines at a twist where G, F and Ecal do not exist
        objects = DEFAULT_CONFIG_TEXT.split("[hearts]")[0].replace("-1,-1", "0,0")
        path = tmp_path / "twist00.cfg"
        path.write_text(objects)
        return str(path)

    def test_unnamed_query_at_another_twist(self, twist00, capsys):
        assert main(["--config", twist00, "rhom", "O()", "O(h)"]) == 0
        assert capsys.readouterr().out.strip() == "{0: 2}"

    def test_named_query_at_another_twist_still_fails(self, twist00, capsys):
        assert main(["--config", twist00, "rhom", "O()", "G"]) == 1
        assert capsys.readouterr().err.strip() == (
            "error: mutate_left: RHom(OE(-1,0), OE(-1,0)) is "
            "ambiguous(euler=0, lower={}, upper={0: 1, 1: 1})"
        )

    def test_unnamed_rhom_builds_no_mutation(self, mutations, capsys):
        assert main(["rhom", "O()", "O(h)"]) == 0
        assert mutations == []

    def test_gram_triple_builds_g_and_f_only(self, mutations, capsys):
        # G takes one left mutation and F two; Ecal is not built
        assert main(["gram", "TRIPLE"]) == 0
        assert len(mutations) == 3

    def test_cli_pool_does_not_depend_on_reading_names_first(self, golden_cli, monkeypatch):
        queries, calls = golden_cli
        commands = ("rhom", "mutate", "class", "gram")
        kept = [i for i, q in enumerate(queries) if q["argv"][0] in commands]
        argvs = [queries[i]["argv"] for i in kept]
        lazy = [calls[i] for i in kept]
        real_init = Context.__init__

        def eager_init(ctx, config):
            real_init(ctx, config)
            ctx.names

        monkeypatch.setattr(Context, "__init__", eager_init)
        assert replay(argvs) == lazy
        assert len(argvs) == 560


class TestDeepNesting:
    @pytest.mark.parametrize("kind", sorted(NESTERS))
    def test_tree_at_the_limit(self, kind, capsys):
        tree = nested(kind, MAX_DEPTH)
        for argv in (["rhom", "O(H)", tree], ["class", tree], ["mutate", "L", "O()", tree]):
            assert main(argv) == 0, argv[0]
            assert capsys.readouterr().err == ""

    def test_beyond_the_limit_exits_2_without_traceback(self):
        env = dict(os.environ, PYTHONPATH=str(Path(quadstab.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "quadstab", "rhom", nested("shift", 1200), "O()"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "nested deeper" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestHugeCoefficients:
    @pytest.mark.parametrize(
        "argv",
        [
            ["cohomology", "100000000H"],
            ["rhom", "O()", "O(100000000H)"],
            ["cohomology", "1" * 5000 + "H"],
        ],
    )
    def test_exit_2_without_traceback(self, argv):
        env = dict(os.environ, PYTHONPATH=str(Path(quadstab.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "quadstab", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and f"{MAX_COEFFICIENT}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_mutation_past_the_copy_limit_exits_2(self):
        # inside MAX_COEFFICIENT, but RHom(O, O(10000H)) has 333,483,355,001
        # dimensions: one copy of O() each in the evaluation cone
        env = dict(os.environ, PYTHONPATH=str(Path(quadstab.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "quadstab", "mutate", "L", "O()", "O(10000H)"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "333483355001" in lines[0] and f"{MAX_COPIES}" in lines[0]


class TestTiltCopyLimit:
    """A tilt's universal extension holds one copy of the simple per
    dimension of an Ext^1; past MAX_COPIES it is refused before any copy is
    built."""

    CONFIG = "[geometry]\ntwist = -1,-1\n\n[hearts]\nB = O() ; shift(O(-{n}H),1)\nT = tilt B 1\n"

    def run(self, n, tmp_path, capsys):
        path = tmp_path / "tilt.cfg"
        path.write_text(self.CONFIG.format(n=n), encoding="utf-8")
        start = time.process_time()
        code = main(["--config", str(path), "check", "--only", "heart.B"])
        return code, capsys.readouterr().out, time.process_time() - start

    def test_refused_past_the_limit(self, tmp_path, capsys):
        # Ext^1 has 348,551 dimensions here; refused as an oversized input,
        # with exit 2, as the parser refuses one
        path = tmp_path / "tilt.cfg"
        path.write_text(self.CONFIG.format(n=100), encoding="utf-8")
        start = time.process_time()
        code = main(["--config", str(path), "check", "--only", "heart.B"])
        assert time.process_time() - start < 1
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: a cone needs 348551 copies of an object, more than the limit {MAX_COPIES}\n"

    def test_below_the_limit_builds_the_sum(self, tmp_path, capsys):
        _, out, _ = self.run(3, tmp_path, capsys)
        assert "cone(O(-3H),sum(" + ",".join(["O()"] * 30) + "))" in out


class TestDeterminism:
    def test_two_runs_byte_identical(self, full_results, second_results):
        a = emit_report(full_results, "json", (-1, -1))
        b = emit_report(second_results, "json", (-1, -1))
        assert a == b


def named_chain(name: str, body: str, last: int) -> str:
    """The default config with objects name0 = O() and, for k = 1 .. last,
    name<k> = body, where {prev} in body stands for name<k-1>."""
    lines = [f"{name}0 = O()"]
    lines += [f"{name}{k} = " + body.format(prev=f"{name}{k - 1}") for k in range(1, last + 1)]
    return DEFAULT_CONFIG_TEXT.replace("[objects]\n", "[objects]\n" + "\n".join(lines) + "\n")


# A name counts as the tree it stands for: a chain past MAX_DEPTH, or a tree
# doubled line by line past MAX_NODES, is refused when the config is read.
NAME_CONFIGS = {
    "name-chain-150": named_chain("Y", "cone(O(h),{prev})", 149),
    "name-sum-doubling-20": named_chain("X", "sum({prev},{prev})", 20),
    "name-cone-doubling-20": named_chain("Z", "cone({prev},{prev})", 20),
}

# Configs that are not INI text of the accepted form, each with the number
# of the line at fault.
MALFORMED_CONFIGS = {
    "no-section-header": ("twist = -1,-1\n" + DEFAULT_CONFIG_TEXT, 1),
    "line-without-equals": (with_object("A O()"), 5),
    "empty-key": (with_object("= O()"), 5),
    "duplicate-section": (DEFAULT_CONFIG_TEXT + "\n[geometry]\n", DEFAULT_CONFIG_TEXT.count("\n") + 2),
    "duplicate-key": (DEFAULT_CONFIG_TEXT.replace("twist = -1,-1\n", "twist = -1,-1\ntwist = 0,0\n"), 3),
}

HOSTILE_CONFIGS = {
    "not-utf8": b"\xff\xfe[geometry]\ntwist = -1,-1\n",
    "charge-divides-by-zero": DEFAULT_CONFIG_TEXT.replace("(1,1/100)", "(1/0,1)").encode(),
    "tilt-without-arguments": DEFAULT_CONFIG_TEXT.replace("tilt B 3", "tilt").encode(),
    "charge-unknown-heart": DEFAULT_CONFIG_TEXT.replace("Z_up = Atilde", "Z_up = Nowhere").encode(),
    "duplicate-object": DEFAULT_CONFIG_TEXT.replace("[objects]\n", "[objects]\nG = O()\n").encode(),
    "unknown-check": (DEFAULT_CONFIG_TEXT + "\n[checks]\nonly = nonexistent.check\n").encode(),
    **{case: text.encode() for case, (text, _) in TYPO_CONFIGS.items()},
    # Fraction would expand the charge into a 33-million-bit integer
    "charge-in-exponent-notation": DEFAULT_CONFIG_TEXT.replace("(1,1/100)", "(1e10000000,1/100)").encode(),
    **{case: text.encode() for case, text in NAME_CONFIGS.items()},
    **{case: text.encode() for case, (text, _) in MALFORMED_CONFIGS.items()},
}


class TestHostileConfigs:
    """Every command resolves the whole config first: a bad one exits 2."""

    @pytest.mark.parametrize("command", [["rhom", "O()", "O(h)"], ["check"]], ids=["rhom", "check"])
    @pytest.mark.parametrize("case", sorted(HOSTILE_CONFIGS))
    def test_exits_2_with_an_error_line(self, case, command, tmp_path, capsys):
        path = tmp_path / "hostile.cfg"
        path.write_bytes(HOSTILE_CONFIGS[case])
        assert main(["--config", str(path), *command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_malformed_text_names_its_line(self, case, tmp_path, capsys):
        text, line = MALFORMED_CONFIGS[case]
        path = tmp_path / "malformed.cfg"
        path.write_text(text, encoding="utf-8")
        assert main(["--config", str(path), "rhom", "O()", "O(h)"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config line {line}: ") and err.count("\n") == 1


# The default config without one heart or charge a check reads by name,
# with a check that reads it.
MISSING_NAMES = {
    "B": (
        DEFAULT_CONFIG_TEXT.replace("B = O(-h)", "B0 = O(-h)").replace("tilt B ", "tilt B0 ").replace("= B ;", "= B0 ;"),
        "heart.B",
    ),
    "Atilde": (DEFAULT_CONFIG_TEXT.replace("Atilde", "At"), "tilt.simples"),
    "Z_B": (DEFAULT_CONFIG_TEXT.replace("Z_B = B ; (0,1) ; (0,1) ; (1,1/100)\n", ""), "axioms.weak-upstairs"),
    "Z_up": (DEFAULT_CONFIG_TEXT.replace("Z_up = Atilde ; (0,1) ; (0,0) ; (0,1)\n", ""), "descent.kerZ"),
}


class TestMissingNames:
    """A config without a heart or charge that a check reads is at fault:
    the check stops the run with a config error, it is not ambiguous."""

    @pytest.mark.parametrize("name", sorted(MISSING_NAMES))
    def test_exits_2_naming_it(self, name, tmp_path, capsys):
        text, check = MISSING_NAMES[name]
        assert text != DEFAULT_CONFIG_TEXT
        path = tmp_path / "missing.cfg"
        path.write_text(text, encoding="utf-8")
        assert main(["--config", str(path), "check", "--only", check]) == 2
        kind = "charge" if name.startswith("Z_") else "heart"
        assert capsys.readouterr().err == f"error: unknown {kind} {name!r}\n"

    def test_run_checks_lets_it_through(self):
        with pytest.raises(ConfigError, match="unknown heart 'Atilde'"):
            run_checks(HarnessConfig.from_text("[geometry]\ntwist = -1,-1\n"), ("tilt.simples",))


class TestKernelOutsideTheTriple:
    """Objects that put [Ecal] and [G]+[F] outside the span of O(-h), G, F:
    there is no kernel quotient, and no command ends in a traceback."""

    CONFIG = "[objects]\nG = O()\nF = O(h)\nEcal = O(H)\n"

    @pytest.fixture
    def config(self, tmp_path):
        path = tmp_path / "outside.cfg"
        path.write_text(self.CONFIG, encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["cohomology", "h"],
            ["rhom", "G", "F"],
            ["mutate", "L", "G", "F"],
            ["class", "Ecal"],
            ["gram", "TRIPLE"],
            ["kernel"],
            ["check"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_no_traceback(self, argv, config):
        env = dict(os.environ, PYTHONPATH=str(Path(quadstab.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "quadstab", "--config", config, *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode in (0, 1, 2)
        assert "Traceback" not in proc.stderr

    def test_kernel_exits_1_with_one_error_line(self, config, capsys):
        assert main(["--config", config, "kernel"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: kernel quotient: kernel is not contained in the source lattice\n"

    def test_quotient_check_is_ambiguous(self, config, capsys):
        assert main(["--config", config, "check", "--only", "kernel.quotient-Z"]) == 1
        assert "actual: PreconditionError: kernel quotient: " in capsys.readouterr().out

    def test_relation_check_is_ambiguous(self, config, capsys):
        assert main(["--config", config, "check", "--only", "kernel.relation-E-F-Oh"]) == 1
        out = capsys.readouterr().out
        assert "[AMBIGUOUS] kernel.relation-E-F-Oh" in out
        assert "actual: PreconditionError: kernel relation: " in out


class TestNameLimits:
    @pytest.mark.parametrize("command", [["rhom", "O()", "O(h)"], ["check"]], ids=["rhom", "check"])
    @pytest.mark.parametrize("case", sorted(NAME_CONFIGS))
    def test_refused_at_once_with_one_error_line(self, case, command, tmp_path, capsys):
        path = tmp_path / "names.cfg"
        path.write_text(NAME_CONFIGS[case], encoding="utf-8")
        start = time.process_time()
        assert main(["--config", str(path), *command]) == 2
        assert time.process_time() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_doubled_tree_inside_the_limit_answers(self, tmp_path, capsys):
        # X12 stands for a tree of 8,191 nodes, 4,096 of them O()
        path = tmp_path / "names.cfg"
        path.write_text(named_chain("X", "sum({prev},{prev})", 12), encoding="utf-8")
        assert main(["--config", str(path), "rhom", "O()", "X12"]) == 0
        assert capsys.readouterr().out == "{0: 4096}\n"

    def test_error_line_cuts_a_long_tree(self, tmp_path, capsys):
        # Z12 stands for a tree of 8,191 nodes, 41 kB when printed in full
        path = tmp_path / "names.cfg"
        path.write_text(named_chain("Z", "cone({prev},{prev})", 12), encoding="utf-8")
        assert main(["--config", str(path), "mutate", "L", "O(-H)", "Z12"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mutate_left: RHom(O(-H), cone(cone(") and err.count("\n") == 1
        assert "...) is ambiguous" in err and len(err.encode()) < 1000

    def test_chain_at_the_depth_limit_answers(self, tmp_path, capsys):
        path = tmp_path / "names.cfg"
        path.write_text(named_chain("Y", "cone(O(h),{prev})", MAX_DEPTH - 1), encoding="utf-8")
        assert main(["--config", str(path), "class", f"Y{MAX_DEPTH - 1}"]) == 0
        assert capsys.readouterr().out.endswith(f"coordinates: [1, {1 - MAX_DEPTH}, 0, 0, 0, 0, 0, 0]\n")


@pytest.fixture
def parsed(monkeypatch):
    """Every text that harness.parse_object parses, in order."""
    texts = []
    real = harness.parse_object

    def counting(text, names=None):
        texts.append(text)
        return real(text, names)

    monkeypatch.setattr(harness, "parse_object", counting)
    return texts


class TestOneResolution:
    CONFIG_EXPRESSIONS = [*default_config().objects.values(), "O(-h)", "G", "shift(F,-2)"]

    def test_run_checks_parses_each_config_expression_once(self, parsed):
        results = run_checks(default_config(), ("heart.B",))
        assert [r.status for r in results] == ["pass"]
        assert parsed == self.CONFIG_EXPRESSIONS

    def test_cli_parses_each_config_expression_once(self, parsed, capsys):
        assert main(["rhom", "O()", "O(h)"]) == 0
        assert parsed == self.CONFIG_EXPRESSIONS + ["O()", "O(h)"]

    def test_each_config_error_is_written_once(self):
        source = Path(harness.__file__).read_text(encoding="utf-8")
        for fragment in (
            'f"object {name!r}: {exc}"',
            "expected 'tilt <heart> <position>'",
            "unknown parent",
            "bad position",
            "position {position} out of range",
            "empty simple",
            'f"heart {name!r}: {exc}"',
            "references unknown heart",
            "values for ",
        ):
            assert source.count(fragment) == 1, fragment


class TestTextMemo:
    """Context.obj keeps the normal form it returns per exact text."""

    TEXT = "cone(O(-h),G)"

    @staticmethod
    def resolved(config, parsed):
        """A Context, built with its config resolved, and the parse log emptied."""
        ctx = Context(config)
        parsed.clear()
        return ctx

    def test_a_text_is_parsed_once(self, parsed):
        ctx = self.resolved(default_config(), parsed)
        first = ctx.obj(self.TEXT)
        assert ctx.obj(self.TEXT) is first
        assert parsed == [self.TEXT]

    def test_a_failing_text_raises_on_every_call(self, parsed):
        # the default [objects] at a twist where G does not exist
        objects = DEFAULT_CONFIG_TEXT.split("[hearts]")[0].replace("-1,-1", "0,0")
        ctx = self.resolved(HarnessConfig.from_text(objects), parsed)
        for _ in range(2):
            with pytest.raises(PreconditionError):
                ctx.obj("G")
        assert parsed == ["G", "G"]
        assert ctx._objs == {}

    def test_two_contexts_parse_apart_and_get_one_node(self, parsed):
        # the memos are per Context; only the hash-consed nodes are shared
        one = self.resolved(default_config(), parsed)
        other = self.resolved(default_config(), parsed)
        x, y = one.obj(self.TEXT), other.obj(self.TEXT)
        assert x is y
        assert parsed == [self.TEXT, self.TEXT]
        assert one._objs is not other._objs and one.calc._norm_memo is not other.calc._norm_memo


class TestBrokenHeart:
    """A heart that fails to build is built once; every check reading it
    reports the same failure."""

    def test_make_heart_runs_once(self, monkeypatch):
        calls = []
        real = harness.make_heart

        def counting(calc, simples):
            calls.append(simples)
            return real(calc, simples)

        monkeypatch.setattr(harness, "make_heart", counting)
        text = DEFAULT_CONFIG_TEXT.replace("B = O(-h) ; G ; shift(F,-2)", "B = O(-h) ; G ; F")
        assert text != DEFAULT_CONFIG_TEXT
        results = run_checks(HarnessConfig.from_text(text), ("heart.B", "tilt.simples", "descent.kerZ"))
        assert len(calls) == 1
        assert [r.status for r in results] == ["ambiguous"] * 3
        assert len({r.actual for r in results}) == 1
        assert results[0].actual.startswith("PreconditionError: ")


class TestOneDescent:
    """descend builds the downstairs data once, support report included, and
    both axioms checks read that report."""

    AXIOMS = ("axioms.weak-upstairs", "axioms.bridgeland-downstairs")

    @pytest.fixture
    def support_calls(self, monkeypatch):
        calls = []
        real = stability.check_support

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(stability, "check_support", counting)
        return calls

    def test_default_run_checks_makes_one_support_check(self, support_calls):
        results = run_checks(default_config())
        assert {r.status for r in results} == {"pass"}
        assert len(support_calls) == 1

    def test_axioms_checks_see_the_same_support_report(self, monkeypatch, support_calls):
        seen = []
        real = checks.check_weak_stability_condition

        def spying(*args):
            report = real(*args)
            seen.append(report.support)
            return report

        monkeypatch.setattr(checks, "check_weak_stability_condition", spying)
        ctx = Context(default_config())
        results = run_checks(ctx, self.AXIOMS)
        assert [r.status for r in results] == ["pass", "pass"]
        assert len(support_calls) == 1
        assert len(seen) == 1 and seen[0] is ctx.descent().support
        assert all("support: True" in r.actual for r in results)


class TestChargesOnTheirHearts:
    """A charge is read on the heart its config line names, and a charge
    evaluated on a vector of another length is an error, not a truncation.
    axioms.weak-upstairs reads Z_B on the simples of B, so a Z_B on any
    other heart is a config error."""

    DESCENT_CHECKS = (
        "descent.serre-generator",
        "descent.kerZ",
        "descent.quotient",
        "descent.strong-downstairs",
        "axioms.weak-upstairs",
        "axioms.bridgeland-downstairs",
    )

    @staticmethod
    def config(old: str, new: str) -> HarnessConfig:
        """The default config with a heart C = O(-h) ; G and one line replaced."""
        text = DEFAULT_CONFIG_TEXT.replace("Atilde = tilt B 3\n", "Atilde = tilt B 3\nC = O(-h) ; G\n")
        assert old in text
        return HarnessConfig.from_text(text.replace(old, new))

    def test_short_z_b_is_refused(self):
        cfg = self.config("Z_B = B ; (0,1) ; (0,1) ; (1,1/100)", "Z_B = C ; (0,1) ; (-1,1)")
        with pytest.raises(ConfigError, match="^charge 'Z_B' is on heart 'C'; this check reads it on heart 'B'$"):
            run_checks(cfg, ("axioms.weak-upstairs",))

    def test_z_b_on_another_three_simple_heart_exits_2(self, tmp_path, capsys):
        text = DEFAULT_CONFIG_TEXT.replace("Z_B = B ;", "Z_B = Atilde ;")
        assert text != DEFAULT_CONFIG_TEXT
        path = tmp_path / "z_b.cfg"
        path.write_text(text, encoding="utf-8")
        assert main(["--config", str(path), "check", "--only", "axioms.weak-upstairs"]) == 2
        assert capsys.readouterr().err == (
            "error: charge 'Z_B' is on heart 'Atilde'; this check reads it on heart 'B'\n"
        )

    def test_z_up_descends_on_the_heart_it_names(self):
        cfg = self.config("Z_up = Atilde ; (0,1) ; (0,0) ; (0,1)", "Z_up = C ; (0,1) ; (0,1)")
        results = run_checks(cfg, self.DESCENT_CHECKS)
        assert [r.status for r in results] == ["ambiguous"] * len(self.DESCENT_CHECKS)
        assert {r.actual for r in results} == {
            "StabilityError: kernel class is not an integer combination of the simple classes"
        }


def euler_sweep_with_one_entry_moved() -> tuple:
    """Run props.euler-soundness with one oracle entry moved by 1 and every
    query to Calculus.rhom recorded.  Returns the check's verdict and text,
    the number of queries and whether they came in the sweep's order: row
    by row over the atoms and then G, F and Ecal, each against every object
    in that order.  It asserts nothing, so it reports the same under
    ``python -O``."""
    ctx = Context(default_config())
    span = range(-2, 3)
    atoms = [LineAtom(DivisorClass(a, b, c)) for a in span for b in span for c in span]
    atoms += [PushAtom(SurfaceDivisor(d, e)) for d in span for e in span]
    named = [ctx.obj(n) for n in ("G", "F", "Ecal")]  # built before the spy
    objects = atoms + named
    order = [(x, y) for x in objects for y in objects]
    moved = (atoms.index(PushAtom(SurfaceDivisor(-2, -2))), atoms.index(PushAtom(SurfaceDivisor(-1, -1))))
    queries, depth = [], [0]
    rhom, gram_matrix = Calculus.rhom, KTheory.gram_matrix

    def spying(calc, x, y):
        # the engine's own inner queries (normalizing a mutation) are not the sweep's
        if not depth[0]:
            queries.append((x, y))
        depth[0] += 1
        try:
            return rhom(calc, x, y)
        finally:
            depth[0] -= 1

    def moving(kt, classes):
        # RHom(OE(-2,-2), OE(-1,-1)) is ambiguous, so only its Euler number
        # meets the entry and one move makes one mismatch
        table = gram_matrix(kt, classes)
        table[moved[0]][moved[1]] += 1
        return table

    with mock.patch.object(Calculus, "rhom", spying), mock.patch.object(KTheory, "gram_matrix", moving):
        ok, text = checks._check_props_euler(ctx)
    return ok, text, len(queries), queries == order


class TestEulerSweep:
    """props.euler-soundness queries every pair once, in a fixed order, and
    compares each against the Gram table, so a wrong entry shows."""

    RESULT = (False, "1 mismatches over 23409 pairs (23031 determined)", 23409, True)

    def test_order_and_one_moved_entry(self):
        assert euler_sweep_with_one_entry_moved() == self.RESULT

    def test_under_python_O(self):
        script = (
            "from test_harness import euler_sweep_with_one_entry_moved\n"
            "assert False, 'asserts must be off'\n"
            "print(euler_sweep_with_one_entry_moved())\n"
        )
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(quadstab.__file__).parents[1]), str(tests)]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            check=True,
        )
        assert proc.stdout == f"{self.RESULT}\n"


class TestBenchmarkGolden:
    """The benchmark's recorded report and CLI outputs, replayed read-only."""

    GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"

    def test_report_json_byte_identical(self, full_results):
        golden = (self.GOLDEN / "report.json").read_text(encoding="utf-8")
        assert emit_report(full_results, "json", DEFAULT_TWIST) + "\n" == golden

    def test_report_json_byte_identical_under_python_O(self):
        # soundness invariants raise SoundnessError, not AssertionError, so
        # the report must not change when asserts are off
        script = (
            "from quadstab.harness import DEFAULT_TWIST, emit_report, run_checks\n"
            "assert False, 'asserts must be off'\n"
            "print(emit_report(run_checks(), 'json', DEFAULT_TWIST))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(quadstab.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            check=True,
        )
        assert proc.stdout == (self.GOLDEN / "report.json").read_text(encoding="utf-8")

    def test_cli_pool_as_recorded(self, golden_cli):
        queries, calls = golden_cli
        mismatches = []
        for q, (code, out, _) in zip(queries, calls):
            if (code, out) != (q["code"], q["stdout"]):
                mismatches.append((q["argv"], code, out))
        assert len(queries) == 821
        assert mismatches == []


class TestTracerTargets:
    """perfbench/tracer.py wraps program functions by name; a rename or a
    change of kind there silently breaks the traced benchmark run."""

    PROPERTIES = ("harness:Context.names", "harness:Context.hearts", "harness:Context.charges")

    def test_every_target_resolves(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        layers = importlib.import_module("tracer").LAYERS
        targets = [t for group in layers.values() for t in group]
        assert set(self.PROPERTIES) <= set(targets)
        for target in targets:
            module_name, attr = target.split(":")
            owner = importlib.import_module(f"quadstab.{module_name}")
            *cls, member = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            raw = inspect.getattr_static(owner, member)
            # the tracer re-wraps a cached_property as a plain method
            assert not isinstance(raw, functools.cached_property), target
            if target in self.PROPERTIES:
                assert isinstance(raw, property), target

    def test_wrapped_registry_runs_each_check_once(self, monkeypatch):
        # the rows and the names property wrapped as Tracer.install wraps them
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        tracer_module = importlib.import_module("tracer")
        tracer, group = tracer_module.Tracer(), tracer_module.CHECK_GROUP
        wrapped = tuple(replace(c, runner=tracer._wrap(c.runner, group, c.name)) for c in harness.REGISTRY)
        monkeypatch.setattr(harness, "REGISTRY", wrapped)
        names = inspect.getattr_static(Context, "names")
        monkeypatch.setattr(Context, "names", property(tracer._wrap(names.fget, "harness.context")))
        report = emit_report(run_checks(), "json", DEFAULT_TWIST) + "\n"
        assert report == (TestBenchmarkGolden.GOLDEN / "report.json").read_text(encoding="utf-8")
        assert tracer.calls[group] == len(CHECK_NAMES) and set(tracer.check_s) == set(CHECK_NAMES)
        assert set(Context(default_config()).names) == {"G", "F", "Ecal"}
        assert tracer.calls["harness.context"] == 1
