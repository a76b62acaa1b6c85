"""Configuration, named-object registry, and the golden-identity check suite.

Every numbered identity the engine is expected to reproduce lives here as
one REGISTRY row: the check's name, a short anchor string stating the
identity, the expected text its report prints, a provenance tag ('pinned'
for frozen golden values, 'derived' for values produced by an independent
oracle), and a runner that returns the verdict and the measured text.  The
property checks, named 'props.*', run at every twist; the golden values of
the others are specific to the default twist (-1, -1), and they are
skipped, not run, at other twists.

HarnessConfig.from_text reads the INI text in one pass over its lines
(_read_sections: '[name]' headers, 'key = value' lines split at the first
'=', full-line '#' comments and indented continuation lines, the grammar
the README states), refuses a section or key it does not know, and parses
the twist, the charge values and the check selection; validate_config,
the only code that parses its expressions, checks the rest of the config
in one pass and returns a ResolvedConfig, from which Context builds its
objects and hearts.  A check that reads a heart or charge the config does
not define raises ConfigError, which run_checks lets through.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .geometry import (
    DivisorClass,
    Geometry,
    GeometryConfig,
    GradedDims,
    SurfaceDivisor,
    Q,
)
from .lattice import (
    SOD1_DIVISORS,
    IntegerLattice,
    KClass,
    LatticeError,
    LatticeQuotient,
    integer_solution,
    lattice_from,
    quotient,
)
from .expressions import (
    FormalObject,
    LineAtom,
    ParseError,
    PushAtom,
    Shift,
    is_name,
    parse_object,
    pretty,
)
from .calculus import Calculus, PreconditionError
from .stability import (
    CentralCharge,
    DescentReport,
    Heart,
    StabilityError,
    check_weak_stability_condition,
    descend,
    make_heart,
    slope,
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
PROPERTY_TWISTS = ((-1, -1), (0, 0), (-2, 0))


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

    Context(config) never raises: the config is resolved by validate_config
    on the first call of resolve() or the first access to names, hearts or
    charges, which raise ConfigError for a bad config.  Named objects are
    normalized and hearts built from the resolved config, lazily: at twists
    other than the default one the golden mutation objects need not exist,
    and the checks that would use them are skipped.  obj(text) parses against
    the resolved, not yet normalized trees and normalizes the result, so it
    builds only the names the text uses; names reads every name through
    obj, so it builds them all and none twice.  obj keeps the normal form it
    returns per exact text (the names are fixed per Context, so one text
    always means one tree), and a text that is met again is neither parsed
    nor normalized again; a text whose parse or build raises is not kept, so
    it raises again on every call.  Hearts
    are built once: when the build fails, every read of hearts raises that
    same error.
    """

    def __init__(self, config: HarnessConfig):
        self.config = config
        self.geometry = Geometry(GeometryConfig(*config.twist))
        self.calc = Calculus(self.geometry)
        self.kt = self.calc.ktheory
        self._resolved: Optional[ResolvedConfig] = None
        self._objs: dict[str, FormalObject] = {}
        self._hearts: Union[dict[str, Heart], Exception, None] = None
        self._descent: Optional[DescentReport] = None

    def resolve(self) -> ResolvedConfig:
        if self._resolved is None:
            self._resolved = validate_config(self.config)
        return self._resolved

    @property
    def names(self) -> dict[str, FormalObject]:
        return {name: self.obj(name) for name in self.resolve().names}

    @property
    def hearts(self) -> dict[str, Heart]:
        if self._hearts is None:
            hearts: dict[str, Heart] = {}
            try:
                for name, spec in self.resolve().hearts.items():
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
        return self.resolve().charges

    def heart(self, name: str) -> Heart:
        """The configured heart of this name; a config without it is at fault."""
        if name not in self.resolve().hearts:
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
            out = self._objs[text] = self.calc.normalize(parse_object(text, self.resolve().names))
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
# check registry
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


@dataclass(frozen=True)
class Check:
    """One REGISTRY row; the runner returns the verdict and the measured text."""

    name: str
    anchor: str
    expected: str
    tag: str
    runner: Callable[[Context], tuple[bool, str]]


def _check_sod1_semiorthogonal(ctx: Context) -> tuple[bool, str]:
    report = ctx.calc.is_semiorthogonal(ctx.sod1_objects())
    gram = ctx.kt.gram_matrix([ctx.calc.class_of(x) for x in ctx.sod1_objects()])
    unipotent = all(gram[i][i] == 1 for i in range(8)) and all(
        gram[j][i] == 0 for j in range(8) for i in range(j)
    )
    ok = report.ok and unipotent
    return ok, f"backward homs vanish: {report.ok}, gram unipotent upper-triangular: {unipotent}"


def _check_sod1_determinant(ctx: Context) -> tuple[bool, str]:
    det = ctx.kt.basis_determinant()
    return abs(det) == 1, f"det = {det}"


def _check_serre_canonical(ctx: Context) -> tuple[bool, str]:
    K = ctx.geometry.canonical_class()
    return K == DivisorClass(-2, -1, -1), str(K)


def _check_serre_duality_pairing(ctx: Context) -> tuple[bool, str]:
    kt = ctx.kt
    basis = kt.sod1_classes()
    bad = 0
    for x in basis:
        for y in basis:
            if kt.euler_pairing(x, y) != kt.euler_pairing(y, kt.serre_class(x)):
                bad += 1
    return bad == 0, f"{bad} violations"


def _check_serre_e_class(ctx: Context) -> tuple[bool, str]:
    from .geometry import ChowElement

    g = ctx.geometry
    E = g.exceptional_divisor_class()
    HE = g.chow_mul(
        ChowElement.of_divisor(DivisorClass(1, 0, 0)), ChowElement.of_divisor(E)
    )
    ok = E == DivisorClass(1, -1, -1) and HE.is_zero()
    return ok, f"E = {E}, H*E zero: {HE.is_zero()}"


def _check_serre_adjunction(ctx: Context) -> tuple[bool, str]:
    g = ctx.geometry
    restr = g.restrict_to_E(g.canonical_class() + g.exceptional_divisor_class())
    return restr == SurfaceDivisor(-2, -2), str(restr)


def _check_k1_semiorthogonal(ctx: Context) -> tuple[bool, str]:
    report = ctx.calc.is_semiorthogonal(ctx.sod2_objects())
    detail = "pass" if report.ok else f"violations={report.violations}, ambiguous={report.ambiguous}"
    return report.ok, detail


def _check_step1(ctx: Context) -> tuple[bool, str]:
    ok = True
    parts = []
    P = PushAtom(SurfaceDivisor(-1, 0))
    for i in range(3):
        line = LineAtom(DivisorClass(i, 0, 0))
        r = ctx.calc.rhom(line, P)
        fixed = ctx.calc.mutate_left(line, P) == P
        ok = ok and r.is_empty() and fixed
        parts.append(f"RHom(O({i}H), OE(-1,0)) = {r}")
    return ok, "; ".join(parts)


def _check_step2(ctx: Context) -> tuple[bool, str]:
    cases = [
        ("L(O(2H), OE(0,0))", "shift(O(H+h+k),1)"),
        ("L(O(H+h+k), O(2H))", "OE(0,0)"),
        ("L(O(H), OE(0,0))", "shift(O(h+k),1)"),
    ]
    ok = True
    parts = []
    for src, tgt in cases:
        result = ctx.obj(src)
        target = ctx.obj(tgt)
        rep = ctx.calc.verify_identity(result, target)
        ok = ok and rep.ok
        parts.append(f"{src} -> {pretty(result)} ({'ok' if rep.ok else 'MISMATCH'})")
    return ok, "; ".join(parts)


def _check_step3_euler(ctx: Context) -> tuple[bool, str]:
    cases = [
        ("L(O(), O(h))", "shift(O(-h),1)"),
        ("L(O(), O(k))", "shift(O(-k),1)"),
        ("L(O(H), O(H+h))", "shift(O(H-h),1)"),
        ("L(O(H), O(H+k))", "shift(O(H-k),1)"),
    ]
    ok = True
    parts = []
    for src, tgt in cases:
        rep = ctx.calc.verify_identity(ctx.obj(src), ctx.obj(tgt))
        ok = ok and rep.ok
        parts.append(f"{src} -> {tgt}: {'ok' if rep.ok else 'MISMATCH'}")
    return ok, "; ".join(parts)


def _check_step3_orthogonality(ctx: Context) -> tuple[bool, str]:
    objs = ["O(h+k)", "O(H-h)", "O(H-k)"]
    ok = True
    parts = []
    for i, x in enumerate(objs):
        for j, y in enumerate(objs):
            if i == j:
                continue
            r = ctx.calc.rhom(ctx.obj(x), ctx.obj(y))
            ok = ok and r.is_empty()
            if not r.is_empty():
                parts.append(f"RHom({x},{y}) = {r}")
    return ok, "; ".join(parts) or "all vanish"


def _check_step4(ctx: Context) -> tuple[bool, str]:
    result = ctx.obj("L(O(-k), L(O(), O(H-h)))")
    rep = ctx.calc.verify_identity(result, PushAtom(SurfaceDivisor(-1, 0)))
    return rep.ok, pretty(result)


def _check_triple_exceptional(ctx: Context) -> tuple[bool, str]:
    triple = ctx.triple_objects()
    semi = ctx.calc.is_semiorthogonal(triple)
    each = all(ctx.calc.is_exceptional(x) for x in triple)
    ok = semi.ok and each
    return ok, f"semiorthogonal: {semi.ok}, all exceptional: {each}"


def _check_kernel_generators(ctx: Context) -> tuple[bool, str]:
    kt = ctx.kt
    calc = ctx.calc
    kernel = ctx.kernel_lattice()
    P_cls = kt.coordinates(kt.pushforward_class(SurfaceDivisor(-1, 0)))
    Q_cls = kt.coordinates(kt.pushforward_class(SurfaceDivisor(0, -1)))
    push_span = IntegerLattice(8, [P_cls, Q_cls])
    e_in = push_span.member(kt.coordinates(calc.class_of(ctx.obj("Ecal"))))
    diff = kt.line_class(DivisorClass(0, -1, 0)) - kt.line_class(DivisorClass(0, 0, -1))
    killed = IntegerLattice(8, [P_cls, Q_cls, kt.coordinates(diff)])
    gf = calc.class_of(ctx.obj("G")) + calc.class_of(ctx.obj("F"))
    gf_in = killed.member(kt.coordinates(gf))
    # the kernel is exactly the part of the pushforward-killed lattice that
    # lives inside the rank-3 sublattice
    meet = ctx.dprime_lattice().intersection(killed)
    ok = e_in and gf_in and meet == kernel
    return (
        ok,
        f"[Ecal] in span(push atoms): {e_in}; [G]+[F] killed: {gf_in}; intersection matches: {meet == kernel}",
    )


def _check_kernel_rank(ctx: Context) -> tuple[bool, str]:
    rank = ctx.kernel_lattice().rank
    return rank == 2, f"rank {rank}"


def _check_kernel_quotient(ctx: Context) -> tuple[bool, str]:
    quot = ctx.kernel_quotient()
    ok = quot.rank == 1 and not quot.torsion
    return ok, f"rank {quot.rank}, torsion {list(quot.torsion)}"


def _check_kernel_relation(ctx: Context) -> tuple[bool, str]:
    calc = ctx.calc
    kt = ctx.kt
    lhs = calc.class_of(ctx.obj("Ecal"))
    rhs = calc.class_of(ctx.obj("F")) + kt.line_class(DivisorClass(0, -1, 0))
    relation = lhs == rhs
    # [O(-h)] - [O(-k)] in D'-coordinates, with [G] the representative of
    # [O(-k)] (their pushforwards agree): e1 - e2 in the triple basis.
    triple = [kt.coordinates(calc.class_of(x)) for x in ctx.triple_objects()]
    kernel3 = []
    for cls in ctx.kernel_classes():
        coords = integer_solution(triple, kt.coordinates(cls))
        if coords is None:
            raise PreconditionError("kernel relation: a kernel class is not integral over the triple")
        kernel3.append(coords)
    member = IntegerLattice(3, kernel3).member([1, -1, 0])
    ok = relation and member
    return ok, f"relation holds: {relation}; (1,-1,0) in kernel: {member}"


def _check_ext_triple(ctx: Context) -> tuple[bool, str]:
    calc = ctx.calc
    good = calc.is_ext_exceptional([ctx.obj("O(-h)"), ctx.obj("G"), ctx.obj("shift(F,-2)")])
    bad = calc.is_ext_exceptional([ctx.obj("O(-h)"), ctx.obj("G"), ctx.obj("F")])
    witness = (0, 2, -1) in bad.failures
    ok = good.ok and not bad.ok and witness
    return ok, f"shifted ok: {good.ok}; unshifted failures: {list(bad.failures)}"


def _check_heart_b(ctx: Context) -> tuple[bool, str]:
    heart = ctx.heart("B")
    return len(heart) == 3, f"simples: {heart.labels}"


def _check_tilt_simples(ctx: Context) -> tuple[bool, str]:
    calc = ctx.calc
    tilted = ctx.heart("Atilde")
    expected = [
        calc.class_of(ctx.obj("shift(F,-1)")),
        calc.class_of(ctx.obj("shift(Ecal,-2)")),
        calc.class_of(ctx.obj("G")),
    ]
    ok = list(tilted.classes) == expected
    return ok, f"labels {tilted.labels}, classes match: {ok}"


def _check_tilt_dims(ctx: Context) -> tuple[bool, str]:
    heart = ctx.heart("B")
    d1 = heart.hom_table[0][2].get(1)
    d2 = heart.hom_table[1][2].get(1)
    return (d1, d2) == (1, 0), f"({d1}, {d2})"


def _check_spherical(ctx: Context) -> tuple[bool, str]:
    calc = ctx.calc
    E = ctx.obj("Ecal")
    r = calc.rhom(E, E)
    dims_ok = r.status == "determined" and r.dims == GradedDims({0: 1, 3: 1})
    cls = calc.class_of(E)
    serre_ok = calc.ktheory.serre_class(cls) == cls.scale(-1)
    spherical = calc.is_spherical(E, 3) and calc.is_spherical(Shift(E, 1), 3)
    ok = dims_ok and serre_ok and spherical
    return ok, f"dims {r}, serre twist ok: {serre_ok}"


def _check_descent_generator(ctx: Context) -> tuple[bool, str]:
    v = ctx.descent().serre_generator
    return v.ok, v.detail


def _check_descent_kerz(ctx: Context) -> tuple[bool, str]:
    v = ctx.descent().kernel_matches_ker_z
    return v.ok, v.detail


def _check_descent_quotient(ctx: Context) -> tuple[bool, str]:
    quot = ctx.descent().quotient
    ok = quot.rank == 1 and not quot.torsion
    return ok, f"quotient rank {quot.rank}, torsion {list(quot.torsion) or 'none'}"


def _check_descent_strong(ctx: Context) -> tuple[bool, str]:
    v = ctx.descent().induced_strong
    return v.ok, v.detail


def _check_axioms_upstairs(ctx: Context) -> tuple[bool, str]:
    heart_name, Z = ctx.charge("Z_up")
    rep = check_weak_stability_condition(ctx.hearts[heart_name], Z, ctx.descent())
    # the torsion-pair charge on B: slope of the third simple is smallest
    _, ZB = ctx.charge("Z_B")
    s1 = slope(ZB, [1, 0, 0])
    s3 = slope(ZB, [0, 0, 1])
    order_ok = s1 > s3
    ok = rep.ok and order_ok
    return (
        ok,
        f"stability fn: {rep.stability_function.ok}, support: {rep.support.ok}, "
        f"slope order {s1} > {s3}: {order_ok}",
    )


def _check_axioms_downstairs(ctx: Context) -> tuple[bool, str]:
    # induced_strong covers every nonzero image: each has a simple's charge
    rep = ctx.descent()
    ok = rep.induced_strong.ok and rep.support.ok and rep.quotient.rank == 1
    return ok, f"strong: {rep.induced_strong.ok}, support: {rep.support.ok}"


def _check_props_hrr(ctx: Context) -> tuple[bool, str]:
    bad = 0
    total = 0
    for twist in _twists_for(ctx):
        g = Geometry(GeometryConfig(*twist))
        for nH in range(-4, 5):
            for nh in range(-4, 5):
                for nk in range(-4, 5):
                    D = DivisorClass(nH, nh, nk)
                    total += 1
                    if g.threefold_cohomology(D).euler() != g.euler_characteristic(D):
                        bad += 1
    return bad == 0, f"{bad}/{total} mismatches"


def _check_props_euler(ctx: Context) -> tuple[bool, str]:
    calc = ctx.calc
    span = range(-2, 3)
    objects: list[FormalObject] = [LineAtom(DivisorClass(a, b, c)) for a in span for b in span for c in span]
    objects += [PushAtom(SurfaceDivisor(d, e)) for d in span for e in span]
    atoms = range(len(objects))
    if ctx.config.twist == DEFAULT_TWIST:
        objects += [ctx.obj(n) for n in ("G", "F", "Ecal")]
    named = range(len(atoms), len(objects))
    # the oracle is the integer HRR Gram form x^T G y of the classes (the
    # registry's "Chern-character pairing" text predates it and is golden)
    gram = ctx.kt.gram_matrix([calc.class_of(x) for x in objects])
    bad = determined = total = 0
    for rows, columns in ((atoms, atoms), (named, atoms), (atoms, named), (named, named)):
        for i in rows:
            x, expected_row = objects[i], gram[i]
            for j in columns:
                total += 1
                r = calc.rhom(x, objects[j])
                expected = expected_row[j]
                if r.euler != expected:
                    bad += 1
                if r.status == "determined":
                    determined += 1
                    if r.dims.euler() != expected:
                        bad += 1
    return bad == 0, f"{bad} mismatches over {total} pairs ({determined} determined)"


def _check_props_involution(ctx: Context) -> tuple[bool, str]:
    # The class-level mutations kill [e], so they are inverse to each other
    # exactly on the orthogonal complements, matching the object-level
    # equivalences between perp(e) and e-perp.
    kt = ctx.kt
    rng = random.Random(1789)
    basis = kt.sod1_classes()
    bad = 0
    for _ in range(60):
        e = basis[rng.randrange(8)]
        coeffs = [rng.randint(-3, 3) for _ in range(8)]
        x = kt.from_coordinates(coeffs)
        lx = kt.mutate_class_left(e, x)
        if kt.euler_pairing(e, lx) != 0:
            bad += 1
        rx = kt.mutate_class_right(x, e)
        if kt.euler_pairing(rx, e) != 0:
            bad += 1
        left_domain = x - e.scale(kt.euler_pairing(x, e))  # chi(-, e) = 0
        if kt.mutate_class_right(kt.mutate_class_left(e, left_domain), e) != left_domain:
            bad += 1
        right_domain = x - e.scale(kt.euler_pairing(e, x))  # chi(e, -) = 0
        if kt.mutate_class_left(e, kt.mutate_class_right(right_domain, e)) != right_domain:
            bad += 1
    return bad == 0, f"{bad} failures over 60 samples"


def _random_expression(rng: random.Random, depth: int) -> str:
    def atom() -> str:
        if rng.random() < 0.5:
            return _random_line(rng)
        return f"OE({rng.randint(-2, 2)},{rng.randint(-2, 2)})"

    if depth == 0:
        return atom()
    roll = rng.random()
    if roll < 0.35:
        return atom()
    if roll < 0.55:
        return f"shift({_random_expression(rng, depth - 1)},{rng.randint(-2, 2)})"
    if roll < 0.7:
        n = rng.randint(2, 3)
        inner = ",".join(_random_expression(rng, depth - 1) for _ in range(n))
        return f"sum({inner})"
    if roll < 0.85:
        return f"cone({_random_expression(rng, depth - 1)},{_random_expression(rng, depth - 1)})"
    mutator = "L" if rng.random() < 0.5 else "R"
    e = _random_line(rng)
    x = atom() if rng.random() < 0.6 else f"shift({atom()},{rng.randint(-1, 1)})"
    if mutator == "L":
        return f"L({e},{x})"
    return f"R({x},{e})"


def _random_line(rng: random.Random) -> str:
    """O(D) for D with H, h and k coefficients drawn in that order from [-2, 2]."""
    return pretty(LineAtom(DivisorClass(*(rng.randint(-2, 2) for _ in range(3)))))


def _corpus(count: int = 100) -> list[str]:
    rng = random.Random(20240917)
    return [_random_expression(rng, rng.randint(0, 3)) for _ in range(count)]


def _check_props_normalize(ctx: Context) -> tuple[bool, str]:
    calc = ctx.calc
    bad = 0
    unsound = 0
    for text in _corpus():
        tree = parse_object(text)
        try:
            once = calc.normalize(tree)
        except PreconditionError:
            continue
        if calc.normalize(once) != once:
            bad += 1
        if calc.class_of(once) != calc.class_of(tree):
            unsound += 1
    return bad == 0 and unsound == 0, f"{bad} non-idempotent, {unsound} class changes"


def _check_props_roundtrip(ctx: Context) -> tuple[bool, str]:
    bad = 0
    for text in _corpus():
        tree = parse_object(text)
        if parse_object(pretty(tree)) != tree:
            bad += 1
    return bad == 0, f"{bad} failures"


def _twists_for(ctx: Context) -> list[tuple[int, int]]:
    twists = [ctx.config.twist]
    for t in PROPERTY_TWISTS:
        if t not in twists:
            twists.append(t)
    return twists


REGISTRY: tuple[Check, ...] = (
    Check("sod1.semiorthogonal", "8 line bundles: no backward homs",
          "28 vanishing backward homs; unipotent upper-triangular gram", "derived", _check_sod1_semiorthogonal),
    Check("sod1.basis-determinant", "line-bundle classes are a Z-basis", "|det| = 1", "derived", _check_sod1_determinant),
    Check("serre.canonical", "K = -2H-h-k", "-2H-h-k", "pinned", _check_serre_canonical),
    Check("serre.duality-pairing", "chi(x,y) = chi(y,Sx)",
          "chi(x,y) = chi(y, Sx) on all 64 basis pairs", "derived", _check_serre_duality_pairing),
    Check("serre.E-class", "E = H-h-k", "E = H-h-k and H*E = 0", "pinned", _check_serre_e_class),
    Check("serre.adjunction", "(K+E)|_E = -2h-2k", "(K+E)|_E = (-2,-2)", "pinned", _check_serre_adjunction),
    Check("k1.semiorthogonal", "resolution decomposition is semiorthogonal",
          "all backward homs of the 8-object decomposition vanish", "pinned", _check_k1_semiorthogonal),
    Check("kvso.step1.orthogonality", "RHom(O(iH), OE(-1,0)) = 0",
          "complete orthogonality to O, O(H), O(2H); mutation fixes the sheaf", "pinned", _check_step1),
    Check("kvso.step2.mutations", "mutations through O(2H), O(H+h+k), O(H)",
          "O(H+h+k)[1]; OE(0,0); O(h+k)[1]", "pinned", _check_step2),
    Check("kvso.step3.euler-mutations", "L_O O(h) = O(-h)[1] and twists",
          "four Euler-sequence mutations", "pinned", _check_step3_euler),
    Check("kvso.step3.complete-orthogonality", "RHom(O(h+k), O(H-h)) = 0 etc.",
          "O(h+k), O(H-h), O(H-k) mutually completely orthogonal", "pinned", _check_step3_orthogonality),
    Check("kvso.step4.claim", "L_{O(-k)} L_O O(H-h) = OE(-1,0)", "OE(-1,0)", "pinned", _check_step4),
    Check("kvso.triple-exceptional", "length-3 exceptional collection",
          "O(-h), G, F is an exceptional collection", "pinned", _check_triple_exceptional),
    Check("kernel.generators", "kernel generated by [Ecal], [G]+[F]",
          "[Ecal] and [G]+[F] generate the pushforward-killed part of the rank-3 lattice", "pinned",
          _check_kernel_generators),
    Check("kernel.rank", "kernel rank 2", "rank 2", "pinned", _check_kernel_rank),
    Check("kernel.quotient-Z", "quotient is Z", "rank 1, torsion-free", "pinned", _check_kernel_quotient),
    Check("kernel.relation-E-F-Oh", "[Ecal] = [F] + [O(-h)]",
          "[Ecal] = [F] + [O(-h)]; difference vector lies in the kernel", "pinned", _check_kernel_relation),
    Check("ext.triple", "(O(-h), G, F[-2]) is Ext-exceptional",
          "shifted triple passes; unshifted fails with a degree -1 witness", "pinned", _check_ext_triple),
    Check("heart.B", "extension closure is a heart", "three-simple heart from the shifted triple", "pinned",
          _check_heart_b),
    Check("tilt.simples", "tilt yields F[-1], Ecal[-2], G", "classes of F[-1], Ecal[-2], G", "pinned",
          _check_tilt_simples),
    Check("tilt.univ-ext-dims", "Ext^1 multiplicities 1 and 0", "multiplicities (1, 0)", "pinned", _check_tilt_dims),
    Check("spherical.K", "kernel generator is 3-spherical",
          "RHom(Ecal,Ecal) = {0: 1, 3: 1} and S[Ecal] = -[Ecal]", "pinned", _check_spherical),
    Check("descent.serre-generator", "kernel visible in the heart", "kernel generated inside the positive cone",
          "pinned", _check_descent_generator),
    Check("descent.kerZ", "ker Z = kernel lattice", "ker Z equals the kernel lattice", "pinned", _check_descent_kerz),
    Check("descent.quotient", "quotient is Z", "rank 1, torsion-free", "pinned", _check_descent_quotient),
    Check("descent.strong-downstairs", "induced charge is strong", "induced charge is a strong stability function",
          "pinned", _check_descent_strong),
    Check("axioms.weak-upstairs", "weak stability condition upstairs",
          "weak axioms hold; torsion-pair slopes are ordered", "pinned", _check_axioms_upstairs),
    Check("axioms.bridgeland-downstairs", "Bridgeland condition downstairs",
          "strong stability + support on the rank-1 quotient", "pinned", _check_axioms_downstairs),
    Check("props.hrr-vs-cohomology", "Riemann-Roch matches cohomology",
          "cohomology Euler numbers match Riemann-Roch", "derived", _check_props_hrr),
    Check("props.euler-soundness", "RHom Euler numbers match the pairing",
          "every RHom Euler number equals the Chern-character pairing", "derived", _check_props_euler),
    Check("props.mutation-involution", "class mutations are involutive",
          "class mutations are mutually inverse on the orthogonal complements", "derived", _check_props_involution),
    Check("props.normalize-idempotent", "normalize is idempotent",
          "normalize is idempotent and preserves classes on the corpus", "derived", _check_props_normalize),
    Check("props.parser-roundtrip", "parser round-trip", "parse(print(x)) = x on the corpus", "derived",
          _check_props_roundtrip),
)

CHECK_NAMES = tuple(c.name for c in REGISTRY)


def _known_checks(selection: Sequence[str]) -> None:
    if not selection:
        raise ConfigError("the check selection names no check")
    unknown = [n for n in selection if n not in CHECK_NAMES]
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
    ctx.resolve()
    config = ctx.config
    if selection is None:
        selection = config.selection
    else:
        _known_checks(selection)
    results: list[CheckResult] = []
    for check in REGISTRY:
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
