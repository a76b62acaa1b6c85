"""Source hygiene over src/quadstab, by the standard-library ast module.

A deletion tends to leave an unused import or an orphaned private helper
behind; these tests name each one.  Every name a module imports must be used
in that module (``from __future__`` is exempt).  Every private ``_name``
function, method or class must be referenced somewhere in the package.  Every
exception class the package defines must be raised by name somewhere in it,
so no caller catches an exception that can no longer occur.  The package
``__init__.py`` re-exports nothing, so a fresh import of one module loads
only the package and what that module itself imports.
Every ``module:attr`` target that the benchmark's tracer wraps still exists,
so a refactor that drops one fails here and not first in a traced run.
No module imports configparser: the harness reads its INI text itself, and
a second reader beside it would read some texts differently.  Only the
classes that need dataclass behaviour are dataclasses; every other value
record is a typing.NamedTuple or a slotted geometry.Frozen value.  Only
quadstab.checks imports dataclasses, and a process that runs no check loads
neither dataclasses, inspect nor the check registry.  Frozen derives each
subclass's __init__ and equality from its __slots__, so only the named few
classes define __init__, __eq__ or __hash__ in their bodies.  The package
holds no floating point, as the README promises: a float literal or a
random float is drawn only where the random corpus picks a branch, '/'
divides only in the four functions that divide Fractions, nothing calls
float(), and the basis determinant and the default charges' slopes are
Fractions or INFINITY.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quadstab

PACKAGE = Path(quadstab.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_module_imports_configparser():
    importers = [name for name, tree in MODULES.items() if "configparser" in set(_imported_modules(tree))]
    assert importers == []


def test_only_the_check_module_imports_dataclasses():
    importers = [name for name, tree in MODULES.items() if "dataclasses" in set(_imported_modules(tree))]
    assert importers == ["checks.py"]


# A fresh process: the set-up every call makes, then each CLI command but
# check and report.  It prints which of the modules a call that runs no
# check should not load are loaded, then the same after one check runs.
SETUP_PATH = """
import contextlib, io, sys
import quadstab.harness
from quadstab import cli
from quadstab.harness import Context, default_config

WATCHED = ("dataclasses", "inspect", "quadstab.checks")
Context(default_config()).names
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["rhom", "O()", "O(h)"], ["cohomology", "H"], ["mutate", "L", "O()", "O(h)"],
                 ["class", "F"], ["gram", "SOD2"], ["kernel"]):
        assert cli.main(argv) == 0, argv
    before = [m for m in WATCHED if m in sys.modules]
    assert cli.main(["check", "--only", "heart.B"]) == 0
print(before, "quadstab.checks" in sys.modules)
"""


def test_calls_that_run_no_check_load_no_dataclasses_and_no_registry():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PATH], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    assert proc.stdout.strip() == "[] True"


def _used_names(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def test_every_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        used = _used_names(tree)
        unused.extend(f"{name}: {imported}" for imported in _imported_names(tree) if imported not in used)
    assert unused == []


def test_every_private_definition_is_referenced():
    used = set()
    for tree in MODULES.values():
        used |= _used_names(tree)
        used |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    orphans = []
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                private = node.name.startswith("_") and not node.name.startswith("__")
                if private and node.name not in used:
                    orphans.append(f"{name}: {node.name}")
    assert orphans == []


def _raised_names(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_exception_class_is_raised():
    raised = set().union(*(_raised_names(tree) for tree in MODULES.values()))
    never = []
    for name, tree in MODULES.items():
        classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
        if not classes:
            continue  # importing __main__ would run the CLI
        module = importlib.import_module(f"quadstab.{Path(name).stem}")
        for cls in classes:
            if issubclass(getattr(module, cls), BaseException) and cls not in raised:
                never.append(f"{name}: {cls}")
    assert never == []


# Each module and the quadstab modules a fresh import of it loads: itself,
# the package, and the package modules it imports.
OWN_IMPORTS = {
    "quadstab.geometry": ["quadstab", "quadstab.geometry"],
    "quadstab.expressions": ["quadstab", "quadstab.expressions", "quadstab.geometry"],
    "quadstab.lattice": ["quadstab", "quadstab.geometry", "quadstab.lattice"],
}


@pytest.mark.parametrize("module", sorted(OWN_IMPORTS))
def test_a_fresh_import_loads_only_what_the_module_imports(module):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    script = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'quadstab'))"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    assert proc.stdout.strip() == repr(OWN_IMPORTS[module])


def _tracer_targets() -> list[str]:
    """The targets of the LAYERS table in perfbench/tracer.py, read as text."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    layers = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS"
    )
    return [target for targets in ast.literal_eval(layers).values() for target in targets]


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    assert targets
    missing = []
    for target in targets:
        module_name, attr = target.split(":")
        owner = importlib.import_module(f"quadstab.{module_name}")
        try:
            *path, member = attr.split(".")
            for name in path:
                owner = getattr(owner, name)
            inspect.getattr_static(owner, member)
        except AttributeError:
            missing.append(target)
    assert missing == []


# The only class that stays a dataclass: the benchmark's tracer calls
# dataclasses.replace on the Check rows of the registry.  The expression
# nodes, Heart, CentralCharge and IntegerLattice are slotted Frozen values;
# Frozen derives their __init__, and the equality and hash of all but the
# hash-consed nodes.
DATACLASSES = {"checks.Check"}


def test_dataclasses_are_only_the_named_few():
    found = set()
    for name, tree in MODULES.items():
        if not any(isinstance(node, ast.ClassDef) for node in tree.body):
            continue  # importing __main__ would run the CLI
        module = importlib.import_module(f"quadstab.{Path(name).stem}")
        for attr, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == module.__name__ and dataclasses.is_dataclass(value):
                found.add(f"{Path(name).stem}.{attr}")
    assert found == DATACLASSES, (
        "a @dataclass class execs its generated __init__, __repr__, __eq__, __hash__ and "
        "__setattr__ when its module is imported, about 0.9 ms per class in every process, "
        "where a typing.NamedTuple record costs about 0.1 ms: make a new value record a "
        "NamedTuple, or name here why it must be a dataclass"
    )


# The classes whose bodies bind __eq__ or __hash__.  Frozen gives each
# subclass an __eq__ built from its __slots__, and so would silently replace
# one written in a subclass body; FormalObject takes object's identity
# equality and hash, since its nodes are hash-consed; and GradedDims compares
# its dict of dimensions and ignores its cached Euler number.
OWN_EQUALITY = {"geometry.Frozen", "expressions.FormalObject", "geometry.GradedDims"}


def _binds_equality(cls: ast.ClassDef) -> bool:
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [getattr(target, "id", None) for target in node.targets]
        elif isinstance(node, ast.AnnAssign):
            names = [getattr(node.target, "id", None)]
        else:
            continue
        if {"__eq__", "__hash__"} & set(names):
            return True
    return False


def test_only_the_named_few_classes_state_their_equality():
    found = {
        f"{Path(name).stem}.{node.name}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _binds_equality(node)
    }
    assert found == OWN_EQUALITY


# The Frozen classes whose bodies define __init__.  Frozen.__init__ takes the
# fields in __slots__ order, the order __reduce__ rebuilds a value from;
# IntegerLattice builds its HNF from generator rows (its HNF rows rebuild the
# same HNF).  A Cone's defaults are filled in by the node table, before the
# lookup.
OWN_INIT = {"lattice.IntegerLattice"}


def test_only_the_named_few_frozen_classes_define_init():
    from quadstab.geometry import Frozen

    for name in MODULES:
        if name != "__main__.py":  # importing __main__ would run the CLI
            importlib.import_module(f"quadstab.{Path(name).stem}")
    found, todo = set(), Frozen.__subclasses__()
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith("quadstab.") and "__init__" in vars(cls):
            found.add(f"{cls.__module__.split('.')[1]}.{cls.__qualname__}")
    assert found == OWN_INIT


# Where a float may appear: the corpus generator draws rng.random() and
# compares it with float literals to pick a branch.  Where '/' may divide:
# on Fractions, in the rational eliminations, the basis determinant and the
# slope of a charge.
FLOAT_SITES = {"checks._random_expression", "checks._random_expression.atom"}
DIVISION_SITES = {
    "lattice.rational_inverse",
    "lattice.solve_rational",
    "lattice.KTheory.basis_determinant",
    "stability.slope",
}


def _numeric_sites() -> dict[str, set[str]]:
    """The dotted def scope of each float literal or rng.random() call, each
    '/' and each float() call in the package, by kind."""
    found: dict[str, set[str]] = {"float": set(), "division": set(), "float()": set()}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if isinstance(child, ast.Constant) and isinstance(child.value, (float, complex)):
                found["float"].add(scope)
            elif isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "random":
                found["float"].add(scope)
            elif isinstance(child, ast.Call) and getattr(child.func, "id", None) == "float":
                found["float()"].add(scope)
            elif isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                found["division"].add(scope)
            visit(child, inner)

    for name, tree in MODULES.items():
        visit(tree, Path(name).stem)
    return found


def test_no_floating_point():
    from quadstab.harness import Context, default_config
    from quadstab.stability import INFINITY, slope

    assert _numeric_sites() == {"float": FLOAT_SITES, "division": DIVISION_SITES, "float()": set()}
    ctx = Context(default_config())
    values = [ctx.kt.basis_determinant()]
    for _, Z in ctx.charges.values():
        n = len(Z)
        values += [slope(Z, [int(i == j) for j in range(n)]) for i in range(n)] + [slope(Z, [1] * n)]
    assert [v for v in values if v is not INFINITY and type(v) is not Fraction] == []
