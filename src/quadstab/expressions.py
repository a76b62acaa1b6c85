"""Expression trees for formal objects of the derived category, with a parser.

Grammar (also emitted by the pretty-printer):

    obj     := 'O(' divisor ')' | 'OE(' int ',' int ')'
             | 'shift(' obj ',' int ')'
             | 'L(' obj ',' obj ')' | 'R(' obj ',' obj ')'
             | 'sum(' obj {',' obj} ')'
             | 'cone(' obj ',' obj ')' | 'zero()' | NAME
    divisor := '' | signed term { ('+'|'-') term },  term := [int] ('H'|'h'|'k')

L and R are mutation nodes; the calculus elaborates them into cones during
normalization, and each such cone keeps the L or R node it evaluates as its
record of the mutation.  Cones parsed from text carry no provenance.  A NAME
stands for the whole tree bound to it, and counts as that tree toward the
limits: a tree nested deeper than MAX_DEPTH or holding more than MAX_NODES
nodes, and an integer or a divisor coefficient larger than MAX_COEFFICIENT
in absolute value, are rejected with a ParseError.

Nodes are immutable slotted geometry.Frozen values, built from their fields
in __slots__ order; their repr is the dataclass text.  Nodes are hash-consed
through one process-wide table, keyed by class and fields and never emptied
(a one-shot CLI process does not notice): equal trees are one object, so a
node takes object's identity equality and hash, and every memo lookup of the
calculus hashes and compares in C.  Identity hashes differ between
processes, so no output may depend on them.
"""

from __future__ import annotations

from typing import Optional

from .geometry import DivisorClass, Frozen, SurfaceDivisor


class ParseError(Exception):
    """Text that does not parse, or an input past one of the size limits.

    `position` is where in the text parsing failed, or None for a limit met
    after parsing.
    """

    def __init__(self, message: str, position: Optional[int] = None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


_NODES: dict[tuple, "FormalObject"] = {}  # every node built, by (class, *fields)


class _HashConsed(type):
    def __call__(cls, *fields):
        """The node with these fields, built only if there is none yet."""
        if cls is Cone:  # a cone built without provenance and mutation
            fields += ("unspecified", None)[len(fields) - 2 :]
        key = (cls, *fields)
        node = _NODES.get(key)
        if node is None:  # setdefault: two threads that build one node get one
            node = _NODES.setdefault(key, super().__call__(*fields))
        return node


class FormalObject(Frozen, metaclass=_HashConsed):
    """Base class of the hash-consed expression-tree nodes: equality is identity."""

    __slots__ = ()
    __hash__ = object.__hash__  # and object's __eq__, which Frozen then keeps


class Zero(FormalObject):
    __slots__ = ()


class LineAtom(FormalObject):
    """Line bundle O(D) on the threefold; divisor: DivisorClass."""

    __slots__ = ("divisor",)


class PushAtom(FormalObject):
    """Sheaf O_E(d, e) on the embedded quadric surface; beta: SurfaceDivisor."""

    __slots__ = ("beta",)


class Shift(FormalObject):
    """child[n]; child: FormalObject, n: int."""

    __slots__ = ("child", "n")


class Sum(FormalObject):
    """Direct sum; children: tuple[FormalObject, ...]."""

    __slots__ = ("children",)


class MutateLeftNode(FormalObject):
    """Left mutation L(e, x); e, x: FormalObject.  In a tree it is
    unevaluated and removed by normalization; as the `mutation` of a cone it
    records, with normal-form children, the mutation that cone evaluates."""

    __slots__ = ("e", "x")


class MutateRightNode(FormalObject):
    """Right mutation R(x, e); x, e: FormalObject.  Unevaluated in a tree,
    and the record of a cone that evaluates it, as for MutateLeftNode."""

    __slots__ = ("x", "e")


class Cone(FormalObject):
    """Third vertex of the triangle source -> target -> cone -> source[1];
    source, target: FormalObject, provenance: str ("unspecified" if omitted).

    `mutation` is the L or R node (MutateLeftNode | MutateRightNode) the
    cone evaluates, if it is one, and None (the default) otherwise."""

    __slots__ = ("source", "target", "provenance", "mutation")


# The words that take two objects, each with the class whose first two
# fields hold them in the order they are written.
_PAIR_WORDS = {"L": MutateLeftNode, "R": MutateRightNode, "cone": Cone}
_WORD_OF = {cls: word for word, cls in _PAIR_WORDS.items()}
# The words the parser reads as constructors, never as names.
_KEYWORDS = frozenset({"O", "OE", "shift", "sum", "zero", *_PAIR_WORDS})


def is_name(word: str) -> bool:
    """Whether an expression can refer to an object called `word`."""
    return bool(word) and all(c.isalnum() or c == "_" for c in word) and word not in _KEYWORDS


def pair(x: FormalObject) -> tuple[FormalObject, FormalObject]:
    """The two objects of an L, R or cone node, in written order."""
    first, second = x.__slots__[:2]
    return getattr(x, first), getattr(x, second)


def shifted(x: FormalObject, n: int) -> FormalObject:
    if n == 0:
        return x
    if isinstance(x, Shift):
        return shifted(x.child, x.n + n)
    if isinstance(x, Zero):
        return x
    return Shift(x, n)


def strip_shift(x: FormalObject) -> tuple[FormalObject, int]:
    """Peel outer shifts, returning (core, total shift)."""
    n = 0
    while isinstance(x, Shift):
        n += x.n
        x = x.child
    return x, n


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# Most objects nested inside one another that the parser accepts.  The
# calculus recurses about three frames per level of a cone (its long exact
# sequence; a pair under a Serre hop never hops again), so 100 levels stay
# well inside Python's default recursion limit of 1000: rhom(O(), chain)
# for a chain cone(O(), cone(O(), ... O(h))) built in code answers at 300
# levels and raises RecursionError at 350.  Real expressions are a few
# levels deep.
MAX_DEPTH = 100

# Most nodes a parsed tree may hold, with every name expanded into the tree
# it stands for.  Names share subtrees, so a few lines can stand for a huge
# tree: with X0 = O() and Xk = sum(X{k-1},X{k-1}), X20 holds 2,097,151
# nodes, which the calculus would walk one by one.
MAX_NODES = 10_000

# Largest absolute value of an integer the parser accepts: a divisor
# coefficient (after like terms are added), an OE degree or a shift.  The
# cohomology of O(nH) sums |n| + 1 pushforward summands, so an unbounded
# coefficient would exhaust memory instead of failing with a ParseError.
MAX_COEFFICIENT = 10_000


class _Parser:
    def __init__(self, text: str, names: Optional[dict[str, FormalObject]] = None):
        self.text = text
        self.pos = 0
        self.names = names or {}
        self.depth = 0
        self.nodes = 0
        self.measures: dict[FormalObject, tuple[int, int]] = {}

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def too_deep(self) -> ParseError:
        return self.error(f"objects nested deeper than {MAX_DEPTH} levels")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def end(self) -> None:
        """Raise unless only whitespace is left."""
        if self.peek():
            raise self.error("trailing input")

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def read_digits(self) -> Optional[int]:
        """The unsigned decimal number at the cursor; None when there is none."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        token = self.text[start : self.pos]
        if not token:
            return None
        # compare lengths first: int() refuses strings of 4,300 digits or more
        if len(token) > len(str(MAX_COEFFICIENT)) or int(token) > MAX_COEFFICIENT:
            raise ParseError(f"integers are limited to {MAX_COEFFICIENT} in absolute value", start)
        return int(token)

    def read_int(self) -> int:
        sign = self.peek()
        if sign in ("+", "-"):  # a tuple: "", the end of the text, is in every string
            self.pos += 1
        value = self.read_digits()
        if value is None:
            raise self.error("expected an integer")
        return -value if sign == "-" else value

    def read_word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if start == self.pos:
            raise self.error("expected a name")
        return self.text[start : self.pos]

    def parse_divisor(self) -> DivisorClass:
        coeffs = {"H": 0, "h": 0, "k": 0}
        self.skip_ws()
        if self.peek() == ")":
            return DivisorClass(0, 0, 0)
        first = True
        while True:
            self.skip_ws()
            sign = 1
            if self.peek() == "+":
                self.pos += 1
            elif self.peek() == "-":
                sign = -1
                self.pos += 1
            elif not first:
                break
            self.skip_ws()
            mag = self.read_digits()
            if mag is None:
                mag = 1
            self.skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] not in "Hhk":
                raise self.error("expected one of H, h, k")
            coeffs[self.text[self.pos]] += sign * mag
            self.pos += 1
            first = False
            if self.peek() not in ("+", "-"):
                break
        for sym, coeff in coeffs.items():
            if abs(coeff) > MAX_COEFFICIENT:
                raise self.error(
                    f"coefficient {coeff} of {sym} exceeds {MAX_COEFFICIENT} in absolute value"
                )
        return DivisorClass(coeffs["H"], coeffs["h"], coeffs["k"])

    def parse_object(self) -> FormalObject:
        if self.depth == MAX_DEPTH:
            raise self.too_deep()
        self.depth += 1
        self.nodes += 1
        obj = self._parse_node()
        self.depth -= 1
        return obj

    def measure(self, x: FormalObject) -> tuple[int, int]:
        """The depth and the node count of x, a shared subtree counted at
        each place it occurs; computed once per distinct node, since a walk
        that expands shared subtrees takes exponential time."""
        out = self.measures.get(x)
        if out is None:
            depth = nodes = 0
            for child in _children(x):
                d, n = self.measure(child)
                depth = max(depth, d)
                nodes += n
            out = self.measures[x] = (depth + 1, nodes + 1)
        return out

    def _parse_node(self) -> FormalObject:
        word = self.read_word()
        if word == "O":
            self.expect("(")
            d = self.parse_divisor()
            self.expect(")")
            return LineAtom(d)
        if word == "OE":
            self.expect("(")
            d = self.read_int()
            self.expect(",")
            e = self.read_int()
            self.expect(")")
            return PushAtom(SurfaceDivisor(d, e))
        if word == "shift":
            self.expect("(")
            x = self.parse_object()
            self.expect(",")
            n = self.read_int()
            self.expect(")")
            return Shift(x, n)
        if word in _PAIR_WORDS:
            self.expect("(")
            first = self.parse_object()
            self.expect(",")
            second = self.parse_object()
            self.expect(")")
            return _PAIR_WORDS[word](first, second)
        if word == "sum":
            self.expect("(")
            children = [self.parse_object()]
            while self.peek() == ",":
                self.expect(",")
                children.append(self.parse_object())
            self.expect(")")
            return Sum(tuple(children))
        if word == "zero":
            self.expect("(")
            self.expect(")")
            return Zero()
        if word in self.names:
            tree = self.names[word]
            depth, nodes = self.measure(tree)
            # the root of the tree is counted already, at the current depth
            if self.depth + depth - 1 > MAX_DEPTH:
                raise self.too_deep()
            self.nodes += nodes - 1
            return tree
        raise self.error(f"unknown name '{word}'")


def _children(x: FormalObject) -> tuple[FormalObject, ...]:
    if isinstance(x, Shift):
        return (x.child,)
    if isinstance(x, Sum):
        return x.children
    if type(x) in _WORD_OF:
        return pair(x)
    return ()


def parse_object(text: str, names: Optional[dict[str, FormalObject]] = None) -> FormalObject:
    parser = _Parser(text, names)
    obj = parser.parse_object()
    parser.end()
    # counted, never expanded, so checked once: parsing is linear in the text
    if parser.nodes > MAX_NODES:
        raise ParseError(f"objects of more than {MAX_NODES} nodes")
    return obj


def parse_divisor(text: str) -> DivisorClass:
    """A divisor such as 'H-h-k' on its own, as written inside O(...); the
    blank text is the zero divisor.  Error positions are in `text`."""
    parser = _Parser(text)
    divisor = parser.parse_divisor() if parser.peek() else DivisorClass(0, 0, 0)
    parser.end()
    return divisor


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def pretty(x: FormalObject) -> str:
    if isinstance(x, Zero):
        return "zero()"
    if isinstance(x, LineAtom):
        d = x.divisor
        return f"O({'' if d == DivisorClass(0, 0, 0) else d})"
    if isinstance(x, PushAtom):
        return f"OE({x.beta.d},{x.beta.e})"
    if isinstance(x, Shift):
        return f"shift({pretty(x.child)},{x.n})"
    if isinstance(x, Sum):
        return "sum(" + ",".join(pretty(c) for c in x.children) + ")"
    word = _WORD_OF.get(type(x))
    if word is not None:
        first, second = pair(x)
        return f"{word}({pretty(first)},{pretty(second)})"
    raise TypeError(f"cannot print {x!r}")
