"""Seeded input generation for the benchmark workloads.

Everything here is owned by the benchmark: the expression generator does not
reuse the harness corpus, so edits to the program cannot change the inputs.

Inputs come in two stages.  A *pool* is generated once from a fixed master
seed and recorded with its golden outputs under ``golden/``
(``record_golden.py``).  A run then *samples* its inputs from the pool with
the ``--seed`` it was given, so every seed has golden values while the same
seed always gives the same inputs.
"""

from __future__ import annotations

import random
from collections import Counter

NAMED = ("G", "F", "Ecal")

# Queries per kind in one cold-cli pass.  This is a chosen mix, not an
# observed one: there is no record of how the CLI is used.  The cheap
# ``cohomology`` calls are as many as the calls dearer than the
# ``rhom``/``mutate`` band, so that the median latency falls inside that band
# and not on the edge between bands.
CLI_MIX = {
    "cohomology": 56,
    "class": 24,
    "rhom": 36,
    "mutate": 36,
    "gram": 12,
    "kernel": 4,
    "check": 16,
}
STABILITY_CHECKS = (
    "heart.B",
    "tilt.simples",
    "tilt.univ-ext-dims",
    "descent.serre-generator",
    "descent.kerZ",
    "descent.quotient",
    "descent.strong-downstairs",
    "axioms.weak-upstairs",
    "axioms.bridgeland-downstairs",
)


# ---------------------------------------------------------------------------
# expression text generator
# ---------------------------------------------------------------------------


def divisor_text(rng: random.Random, span: int = 2) -> str:
    parts = []
    for sym in "Hhk":
        c = rng.randint(-span, span)
        if c == 0:
            continue
        mag = "" if abs(c) == 1 else str(abs(c))
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(f"{sign}{mag}{sym}")
    return "".join(parts)


def atom_text(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return f"O({divisor_text(rng)})"
    return f"OE({rng.randint(-2, 2)},{rng.randint(-2, 2)})"


def expression_text(rng: random.Random, depth: int) -> str:
    """Random expression of tree depth at most ``depth``."""
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(NAMED) if rng.random() < 0.1 else atom_text(rng)
    roll = rng.random()
    if roll < 0.3:
        return f"shift({expression_text(rng, depth - 1)},{rng.randint(-2, 2)})"
    if roll < 0.55:
        children = ",".join(expression_text(rng, depth - 1) for _ in range(rng.randint(2, 3)))
        return f"sum({children})"
    if roll < 0.8:
        return f"cone({expression_text(rng, depth - 1)},{expression_text(rng, depth - 1)})"
    e = f"O({divisor_text(rng)})"
    x = atom_text(rng)
    if depth > 1 and rng.random() < 0.4:
        x = f"shift({x},{rng.randint(-1, 1)})"
    if rng.random() < 0.5:
        return f"L({e},{x})"
    return f"R({x},{e})"


def tree_stats(text: str) -> tuple[int, int]:
    """(depth, node count) of an expression text, as written.

    Atoms and configured names are leaves of depth 0; integer arguments of
    ``shift`` and ``OE`` are not nodes.
    """

    def node(pos: int) -> tuple[int, int, int]:
        start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        word = text[start:pos]
        if pos == len(text) or text[pos] != "(":
            return 0, 1, pos
        if word in ("O", "OE", "zero"):
            return 0, 1, text.index(")", pos) + 1
        depth, count = 0, 1
        pos += 1
        while text[pos] != ")":
            if text[pos] == ",":
                pos += 1
            elif text[pos] in "+-" or text[pos].isdigit():
                pos += 1
                while text[pos].isdigit():
                    pos += 1
            else:
                d, c, pos = node(pos)
                depth, count = max(depth, d + 1), count + c
        return depth, count, pos + 1

    depth, count, _ = node(0)
    return depth, count


# ---------------------------------------------------------------------------
# sampling a run's inputs from the recorded pools
# ---------------------------------------------------------------------------


def sample_rhom_pairs(pool_size: int, seed: int, scale: float = 1.0) -> list[int]:
    """Indices into the recorded pair pool, a seeded share ``scale`` of them.

    At full size every pair of the pool is queried, so the work of a pass
    does not hinge on whether a seed happens to draw the few costliest pairs.
    """
    rng = random.Random(f"rhom-corpus:{seed}")
    return rng.sample(range(pool_size), max(1, round(pool_size * scale)))


def rhom_pass_order(count: int, seed: int, index: int) -> list[int]:
    """The seeded order in which pass ``index`` of a run queries its ``count``
    pairs; the order decides what the shared memo holds at each query."""
    rng = random.Random(f"rhom-corpus:{seed}:pass{index}")
    return rng.sample(range(count), count)


def sample_cli_queries(pool: list[dict], seed: int, mix: dict = CLI_MIX) -> list[int]:
    """Indices into the recorded query pool, a fixed count of each kind.

    Queries of a kind are distinct while the pool has enough of them (the
    ``kernel`` query takes no argument, so it is the same query each time).
    """
    rng = random.Random(f"cold-cli:{seed}")
    by_kind: dict[str, list[int]] = {}
    for i, q in enumerate(pool):
        by_kind.setdefault(q["kind"], []).append(i)
    chosen: list[int] = []
    for kind, n in mix.items():
        group = by_kind[kind]
        chosen += rng.sample(group, n) if n <= len(group) else rng.choices(group, k=n)
    rng.shuffle(chosen)
    return chosen


def histogram(values) -> dict[str, int]:
    return {str(k): v for k, v in sorted(Counter(values).items())}
