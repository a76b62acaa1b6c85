"""Configuration, the named-object Context, and the runner of the check suite.

HarnessConfig.from_text reads the INI text in one pass over its lines
(_read_sections: '[name]' headers, 'key = value' lines split at the first
'=', full-line '#' comments and indented continuation lines, the grammar
the README states), refuses a section or key it does not know, and parses
the twist, the charge values and the check selection; validate_config,
the only code that parses its expressions, checks the rest of the config
in one pass and returns a ResolvedConfig.  Context(config) calls it when it
is built, so a bad config raises ConfigError there, and builds its objects
and hearts from the ResolvedConfig.  A check that reads a heart or charge
the config does not define raises ConfigError, which run_checks lets
through.

The registry rows, REGISTRY and CHECK_NAMES, live in quadstab.checks.  That
module is imported on the first read of either name (through this module's
__getattr__), so a process that runs no check never loads it; the names are
then bound here, and run_checks runs the REGISTRY this module holds, so a
caller may rebind it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .geometry import (
    Geometry,
    GeometryConfig,
    SurfaceDivisor,
    Q,
)
from .lattice import (
    SOD1_DIVISORS,
    IntegerLattice,
    KClass,
    LatticeError,
    LatticeQuotient,
    lattice_from,
    quotient,
)
from .expressions import (
    FormalObject,
    LineAtom,
    ParseError,
    PushAtom,
    is_name,
    parse_object,
)
from .calculus import Calculus, PreconditionError
from .stability import (
    CentralCharge,
    DescentReport,
    Heart,
    StabilityError,
    descend,
    make_heart,
    tilt_at,
)

REPORT_VERSION = "1"

DEFAULT_CONFIG_TEXT = """\
[geometry]
twist = -1,-1

[objects]
G = L(OE(-1,0), O(-k))
F = L(OE(-1,0), L(O(), O(H-k)))
Ecal = L(OE(-1,0), OE(0,-1))

[hearts]
B = O(-h) ; G ; shift(F,-2)
Atilde = tilt B 3

[charges]
Z_B = B ; (0,1) ; (0,1) ; (1,1/100)
Z_up = Atilde ; (0,1) ; (0,0) ; (0,1)
"""

DEFAULT_TWIST = (-1, -1)


class ConfigError(Exception):
    pass


# each section a config may hold, with the keys it may hold (None: any name)
SECTIONS: dict[str, Optional[tuple[str, ...]]] = {
    "geometry": ("twist",),
    "objects": None,
    "hearts": None,
    "charges": None,
    "checks": ("only",),
}


class HarnessConfig(NamedTuple):
    twist: tuple[int, int]
    objects: dict[str, str]
    hearts: dict[str, str]
    charges: dict[str, tuple[str, tuple[tuple[Q, Q], ...]]]
    selection: Optional[tuple[str, ...]] = None

    @staticmethod
    def from_text(text: str) -> "HarnessConfig":
        sections = _read_sections(text)
        defaults = sections.pop("DEFAULT", {})
        if defaults:
            raise ConfigError(f"key {next(iter(defaults))!r} in [DEFAULT]: keys belong in a named section")
        for section, keys in sections.items():
            if section not in SECTIONS:
                raise ConfigError(f"unknown section [{section}]")
            allowed = SECTIONS[section]
            for key in keys:
                if allowed is not None and key not in allowed:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
        twist = DEFAULT_TWIST
        raw = sections.get("geometry", {}).get("twist")
        if raw is not None:
            try:
                a, b = (int(t.strip()) for t in raw.split(","))
            except ValueError as exc:
                raise ConfigError(f"bad twist {raw!r}") from exc
            twist = (a, b)
        charges = {}
        for name, defn in sections.get("charges", {}).items():
            parts = [p.strip() for p in defn.split(";")]
            if len(parts) < 2:
                raise ConfigError(f"charge {name!r} needs a heart and values")
            values = tuple(_parse_complex_pair(p, name) for p in parts[1:])
            charges[name] = (parts[0], values)
        only = sections.get("checks", {}).get("only")
        return HarnessConfig(
            twist,
            {name: expr.strip() for name, expr in sections.get("objects", {}).items()},
            {name: defn.strip() for name, defn in sections.get("hearts", {}).items()},
            charges,
            None if only is None else split_selection(only),
        )


def split_selection(text: str) -> tuple[str, ...]:
    """The check names of a comma-separated selection, blanks dropped."""
    return tuple(n.strip() for n in text.split(",") if n.strip())


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    """The section -> key -> value map of an INI text, read in one pass.

    Lines are split on "\n" only and stripped of whitespace.  A blank line,
    or a line that starts with '#', holds nothing; a blank line inside a
    value adds an empty line to it.  A line indented deeper than the last
    key line continues that key's value.  Any other line is a '[name]'
    header or a 'key = value' line split at its first '='.  A value is its
    lines joined by "\n", with trailing blank lines dropped.  A header met
    again is an error, except [DEFAULT], and so is a key met again in its
    section.  This is the map configparser gives with delimiters ('=',),
    comment prefixes ('#',), no interpolation and case-keeping keys, except
    that a line starting with '[' must be exactly '[name]' with a name.
    """
    sections: dict[str, dict[str, list[str]]] = {}
    section = ""
    keys: Optional[dict[str, list[str]]] = None
    value: Optional[list[str]] = None  # the lines of the value being read
    indent = 0  # the indentation of the last header or key line
    for number, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if not stripped:
            if value is not None:
                value.append("")
            continue
        if stripped[0] == "#":
            continue
        depth = len(line) - len(line.lstrip())
        if value is not None and depth > indent:
            value.append(stripped)
            continue
        indent = depth
        if stripped[0] == "[":
            section = stripped[1:-1]
            if stripped[-1] != "]" or not section:
                raise ConfigError(f"config line {number}: expected '[section]', got {stripped!r}")
            if section in sections and section != "DEFAULT":
                raise ConfigError(f"config line {number}: section [{section}] is given twice")
            keys = sections.setdefault(section, {})
            value = None
        elif keys is None:
            raise ConfigError(f"config line {number}: {stripped!r} comes before any [section] header")
        else:
            key, delimiter, rest = stripped.partition("=")
            key = key.rstrip()
            if not delimiter:
                raise ConfigError(f"config line {number}: expected 'key = value', got {stripped!r}")
            if not key:
                raise ConfigError(f"config line {number}: no key before '=' in {stripped!r}")
            if key in keys:
                raise ConfigError(f"config line {number}: key {key!r} is given twice in [{section}]")
            value = keys[key] = [rest.strip()]
    return {
        name: {key: "\n".join(lines).rstrip() for key, lines in entries.items()}
        for name, entries in sections.items()
    }


def _parse_complex_pair(text: str, owner: str) -> tuple[Q, Q]:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ConfigError(f"charge {owner!r}: expected '(re,im)', got {text!r}")
    if "e" in text.lower():
        # Fraction would expand 1e10000000 into a 33-million-bit integer
        raise ConfigError(f"charge {owner!r}: exponent notation is not accepted, got {text!r}")
    try:
        re_s, im_s = text[1:-1].split(",")
        return (_fraction(re_s.strip()), _fraction(im_s.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"charge {owner!r}: bad value {text!r}") from exc


def _fraction(text: str) -> Q:
    """Fraction(text), through int() when text is plain ASCII digits: Fraction's
    string pattern costs more than the number."""
    return Fraction(int(text)) if text.isascii() and text.isdigit() else Fraction(text)


def default_config() -> HarnessConfig:
    return HarnessConfig.from_text(DEFAULT_CONFIG_TEXT)


class TiltSpec(NamedTuple):
    """A heart given as the tilt of an earlier heart at one of its simples."""

    parent: str
    index: int  # 0-based position of the simple tilted at


HeartSpec = Union[tuple[tuple[str, FormalObject], ...], TiltSpec]


class ResolvedConfig(NamedTuple):
    """A configuration after its one parsing and checking pass.

    ``names`` holds the parsed object trees (not normalized), a heart is its
    ``(label, tree)`` simples or a TiltSpec, and a charge is the name of its
    heart with its CentralCharge.
    """

    names: dict[str, FormalObject]
    hearts: dict[str, HeartSpec]
    charges: dict[str, tuple[str, CentralCharge]]


def validate_config(config: HarnessConfig) -> ResolvedConfig:
    """Parse and check the objects, hearts and charges of a configuration.

    This is the only code that parses config expressions.  It is a syntactic
    pass: expressions must parse, names must resolve and sizes must match;
    whether the named mutations and hearts exist at the configured twist is
    a mathematical question answered when Context builds them.
    """
    if config.selection is not None:
        _known_checks(config.selection)
    names: dict[str, FormalObject] = {}
    for name, expr in config.objects.items():
        if not is_name(name):
            raise ConfigError(f"object {name!r}: not a name an expression can use")
        try:
            names[name] = parse_object(expr, names)
        except Exception as exc:
            raise ConfigError(f"object {name!r}: {exc}") from exc
    hearts: dict[str, HeartSpec] = {}
    sizes: dict[str, int] = {}
    for name, defn in config.hearts.items():
        words = defn.split()
        if words and words[0] == "tilt":
            if len(words) != 3:
                raise ConfigError(f"heart {name!r}: expected 'tilt <heart> <position>'")
            parent = words[1]
            if parent not in sizes:
                raise ConfigError(f"heart {name!r}: unknown parent {parent!r}")
            try:
                position = int(words[2])
            except ValueError as exc:
                raise ConfigError(f"heart {name!r}: bad position {words[2]!r}") from exc
            if not 1 <= position <= sizes[parent]:
                raise ConfigError(f"heart {name!r}: position {position} out of range")
            hearts[name] = TiltSpec(parent, position - 1)
            sizes[name] = sizes[parent]
            continue
        simples = []
        for part in defn.split(";"):
            part = part.strip()
            if not part:
                raise ConfigError(f"heart {name!r}: empty simple")
            try:
                simples.append((part, parse_object(part, names)))
            except Exception as exc:
                raise ConfigError(f"heart {name!r}: {exc}") from exc
        hearts[name] = tuple(simples)
        sizes[name] = len(simples)
    charges: dict[str, tuple[str, CentralCharge]] = {}
    for name, (heart_name, values) in config.charges.items():
        if heart_name not in sizes:
            raise ConfigError(f"charge {name!r} references unknown heart {heart_name!r}")
        if len(values) != sizes[heart_name]:
            raise ConfigError(
                f"charge {name!r} has {len(values)} values for "
                f"{sizes[heart_name]} simples"
            )
        charges[name] = (heart_name, CentralCharge(values))
    return ResolvedConfig(names, hearts, charges)


# ---------------------------------------------------------------------------
# runtime context
# ---------------------------------------------------------------------------


class Context:
    """Runtime objects for one configuration.

    Context(config) resolves the config by validate_config at once, so a bad
    config raises ConfigError here.  Named objects are normalized and hearts
    built from the resolved config, lazily: at twists other than the default
    one the golden mutation objects need not exist, and the checks that would
    use them are skipped.  obj(text) parses against the resolved, not yet
    normalized trees and normalizes the result, so it builds only the names
    the text uses; names reads every name through obj, so it builds them all
    and none twice.  obj keeps the normal form it returns per exact text (the
    names are fixed per Context, so one text always means one tree), and a
    text that is met again is neither parsed nor normalized again; a text
    whose parse or build raises is not kept, so it raises again on every
    call.  Hearts are built once: when the build fails, every read of hearts
    raises that same error.
    """

    def __init__(self, config: HarnessConfig):
        self.config = config
        self._resolved = validate_config(config)
        self.geometry = Geometry(GeometryConfig(*config.twist))
        self.calc = Calculus(self.geometry)
        self.kt = self.calc.ktheory
        self._objs: dict[str, FormalObject] = {}
        self._hearts: Union[dict[str, Heart], Exception, None] = None
        self._descent: Optional[DescentReport] = None

    @property
    def names(self) -> dict[str, FormalObject]:
        return {name: self.obj(name) for name in self._resolved.names}

    @property
    def hearts(self) -> dict[str, Heart]:
        if self._hearts is None:
            hearts: dict[str, Heart] = {}
            try:
                for name, spec in self._resolved.hearts.items():
                    if isinstance(spec, TiltSpec):
                        hearts[name] = tilt_at(self.calc, hearts[spec.parent], spec.index)
                    else:
                        hearts[name] = make_heart(self.calc, spec)
                self._hearts = hearts
            except (PreconditionError, StabilityError) as exc:
                self._hearts = exc  # the build is deterministic: keep the failure
        if isinstance(self._hearts, Exception):
            raise self._hearts.with_traceback(None)  # do not chain every read's frames
        return self._hearts

    @property
    def charges(self) -> dict[str, tuple[str, CentralCharge]]:
        return self._resolved.charges

    def heart(self, name: str) -> Heart:
        """The configured heart of this name; a config without it is at fault."""
        if name not in self._resolved.hearts:
            raise ConfigError(f"unknown heart {name!r}")
        return self.hearts[name]

    def charge(self, name: str) -> tuple[str, CentralCharge]:
        """The configured charge of this name with its heart's name."""
        charges = self.charges
        if name not in charges:
            raise ConfigError(f"unknown charge {name!r}")
        return charges[name]

    # -- shared named data ---------------------------------------------------

    def obj(self, text: str) -> FormalObject:
        out = self._objs.get(text)
        if out is None:
            out = self._objs[text] = self.calc.normalize(parse_object(text, self._resolved.names))
        return out

    def sod1_objects(self) -> list[FormalObject]:
        return [LineAtom(D) for D in SOD1_DIVISORS]

    def sod2_objects(self) -> list[FormalObject]:
        return [
            PushAtom(SurfaceDivisor(-2, -1)),
            PushAtom(SurfaceDivisor(-1, -1)),
            self.obj("O(-h)"),
            self.obj("G"),
            self.obj("F"),
            self.obj("O()"),
            self.obj("O(H)"),
            self.obj("O(2H)"),
        ]

    def triple_objects(self) -> list[FormalObject]:
        return [self.obj("O(-h)"), self.obj("G"), self.obj("F")]

    COLLECTIONS = {"SOD1": sod1_objects, "SOD2": sod2_objects, "TRIPLE": triple_objects}

    def collection(self, name: str) -> list[FormalObject]:
        if name not in self.COLLECTIONS:
            raise ConfigError(f"unknown collection {name!r}")
        return self.COLLECTIONS[name](self)

    def kernel_classes(self) -> list[KClass]:
        e_cls = self.calc.class_of(self.obj("Ecal"))
        gf = self.calc.class_of(self.obj("G")) + self.calc.class_of(self.obj("F"))
        return [e_cls, gf]

    def dprime_lattice(self) -> IntegerLattice:
        classes = [self.calc.class_of(x) for x in self.triple_objects()]
        return lattice_from(self.kt, classes)

    def kernel_lattice(self) -> IntegerLattice:
        return lattice_from(self.kt, self.kernel_classes())

    def kernel_quotient(self) -> LatticeQuotient:
        """The rank-3 lattice of the triple over the pushforward kernel.

        Raises PreconditionError when the configured objects put the kernel
        outside the triple's lattice, so that there is no such quotient.
        """
        try:
            return quotient(self.dprime_lattice(), self.kernel_lattice())
        except LatticeError as exc:
            raise PreconditionError(f"kernel quotient: {exc}") from None

    def descent(self) -> DescentReport:
        """The descent of the charge Z_up and the heart its config line names."""
        if self._descent is None:
            heart_name, Z = self.charge("Z_up")
            self._descent = descend(self.calc, self.hearts[heart_name], self.kernel_classes(), Z)
        return self._descent


# ---------------------------------------------------------------------------
# running the checks
# ---------------------------------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    status: str  # 'pass' | 'fail' | 'ambiguous' | 'skipped'
    expected: str
    actual: str
    anchor: str
    tag: str  # 'pinned' | 'derived'

    def to_dict(self) -> dict:
        return self._asdict()


def _registry(name: str):
    """REGISTRY or CHECK_NAMES as this module holds it now.  The first read
    imports quadstab.checks and binds both names here; a name bound already,
    by an earlier read or by a caller, is kept."""
    bound = globals()
    if name not in bound:
        from . import checks

        bound.setdefault("REGISTRY", checks.REGISTRY)
        bound.setdefault("CHECK_NAMES", checks.CHECK_NAMES)
    return bound[name]


def __getattr__(name: str):
    if name in ("REGISTRY", "CHECK_NAMES"):
        return _registry(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _known_checks(selection: Sequence[str]) -> None:
    if not selection:
        raise ConfigError("the check selection names no check")
    names = _registry("CHECK_NAMES")
    unknown = [n for n in selection if n not in names]
    if unknown:
        raise ConfigError(f"unknown check name(s): {', '.join(unknown)}")


def run_checks(
    config: Union[HarnessConfig, Context, None] = None,
    selection: Optional[Sequence[str]] = None,
) -> list[CheckResult]:
    """Run the selected checks (default: the config's [checks], else all).

    ``config`` may be a Context, whose resolved config is then reused.
    """
    ctx = config if isinstance(config, Context) else Context(config or default_config())
    config = ctx.config
    if selection is None:
        selection = config.selection
    else:
        _known_checks(selection)
    results: list[CheckResult] = []
    for check in _registry("REGISTRY"):
        if selection is not None and check.name not in selection:
            continue
        expected = check.expected
        if not check.name.startswith("props.") and config.twist != DEFAULT_TWIST:
            status, expected = "skipped", "-"
            actual = f"golden values are specific to twist {DEFAULT_TWIST}; configured twist is {config.twist}"
        else:
            try:
                ok, actual = check.runner(ctx)
                status = "pass" if ok else "fail"
            except (ParseError, ConfigError):
                raise  # an input refused as too large, or a config without a name a check reads
            except Exception as exc:  # ambiguity or precondition failures
                status = "ambiguous"
                expected = check.anchor
                actual = f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(check.name, status, expected, actual, check.anchor, check.tag))
    return results


def emit_report(
    results: Sequence[CheckResult],
    fmt: str = "text",
    twist: tuple[int, int] = DEFAULT_TWIST,
    timestamp: Optional[str] = None,
) -> str:
    if fmt == "text":
        lines = []
        width = max((len(r.name) for r in results), default=10)
        for r in results:
            lines.append(
                f"[{r.status.upper():<9}] {r.name:<{width}}  "
                f"expected: {r.expected}  actual: {r.actual}"
            )
        counts = {}
        for r in results:
            counts[r.status] = counts.get(r.status, 0) + 1
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        lines.append(f"-- {len(results)} checks: {summary or 'none selected'}")
        return "\n".join(lines)
    if fmt == "json":
        import json

        doc = {
            "version": REPORT_VERSION,
            "geometry": {"twist": list(twist)},
            "results": [r.to_dict() for r in results],
        }
        if timestamp is not None:
            doc["timestamp"] = timestamp
        return json.dumps(doc, indent=2, sort_keys=True)
    raise ConfigError(f"unknown report format {fmt!r}")
