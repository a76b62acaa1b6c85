"""Record the input pools and golden outputs under ``golden/``.

Run from the repository root against the commit whose outputs are to be
pinned:

    PYTHONPATH=src python3 perfbench/record_golden.py

It writes three files:

* ``report.json``: the default-twist JSON report, without timestamp;
* ``rhom_pool.json``: the expression pool, the pair pool, and for every pair
  the RHom value computed on a fresh ``Calculus`` (the order-free reference);
* ``cli_pool.json``: one-shot CLI queries with their stdout and exit code.

Pool entries the program refuses (a ``PreconditionError`` or a non-zero
exit) are left out and counted in the ``refused`` field, so that every
recorded query is one the program answers.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from inputs import NAMED, STABILITY_CHECKS, atom_text, divisor_text, expression_text, tree_stats

GOLDEN = Path(__file__).resolve().parent / "golden"
MASTER_SEED = 20261017

RHOM_EXPRESSIONS = 1000
RHOM_PAIRS = 1000
# weights of the maximal tree depth 0..4 of a generated expression
DEPTH_WEIGHTS = (3, 3, 2, 1, 0.5)
MAX_NODES = 12

CLI_POOL = {"cohomology": 200, "class": 150, "rhom": 200, "mutate": 150, "gram": 60, "check": 60}


def result_record(result) -> dict:
    """JSON form of an RHomResult: Euler number plus dims or bounds."""
    rec = {"euler": result.euler}
    if result.status == "determined":
        rec["dims"] = [list(p) for p in result.dims.items()]
    else:
        lo, hi = result.bounds
        rec["lo"] = [list(p) for p in lo.items()]
        rec["hi"] = None if hi is None else [list(p) for p in hi.items()]
    return rec


def record_rhom_pool() -> dict:
    from quadstab.calculus import Calculus, PreconditionError
    from quadstab.geometry import Geometry, GeometryConfig
    from quadstab.harness import Context, default_config

    rng = random.Random(f"rhom-pool:{MASTER_SEED}")
    ctx = Context(default_config())
    texts: list[str] = []
    refused = 0
    while len(texts) < RHOM_EXPRESSIONS:
        depth = rng.choices(range(len(DEPTH_WEIGHTS)), DEPTH_WEIGHTS)[0]
        text = expression_text(rng, depth)
        if text in texts or tree_stats(text)[1] > MAX_NODES:
            continue
        try:
            ctx.obj(text)
        except PreconditionError:
            refused += 1
            continue
        texts.append(text)
    objects = [ctx.obj(t) for t in texts]
    seen: set[tuple[int, int]] = set()
    pairs = []
    while len(pairs) < RHOM_PAIRS:
        i, j = rng.randrange(len(texts)), rng.randrange(len(texts))
        if (i, j) in seen:
            continue
        seen.add((i, j))
        calc = Calculus(Geometry(GeometryConfig(*ctx.config.twist)))
        X, Y = objects[i], objects[j]
        result = calc.rhom(X, Y)
        euler = calc.ktheory.euler_pairing(calc.class_of(X), calc.class_of(Y))
        if result.euler != euler:
            raise SystemExit(f"Euler mismatch on pool pair {texts[i]} / {texts[j]}")
        pairs.append([i, j, result_record(result)])
    return {"master_seed": MASTER_SEED, "refused": refused, "expressions": texts, "pairs": pairs}


def run_cli(argv: list[str]) -> tuple[int, str]:
    from quadstab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_candidates(rng: random.Random, kind: str) -> list[str]:
    if kind == "cohomology":
        # "--" keeps argparse from reading a leading minus sign as an option
        return ["cohomology", "--", divisor_text(rng, 3) or "H"]
    if kind == "class":
        return ["class", expression_text(rng, rng.randint(0, 3))]
    if kind == "rhom":
        return ["rhom", expression_text(rng, rng.randint(0, 2)), expression_text(rng, rng.randint(0, 2))]
    if kind == "mutate":
        e = f"O({divisor_text(rng)})"
        x = expression_text(rng, rng.randint(0, 1))
        if rng.random() < 0.5:
            return ["mutate", "L", e, x]
        return ["mutate", "R", x, e]
    if kind == "gram":
        if rng.random() < 0.3:
            return ["gram", rng.choice(("TRIPLE", "SOD1", "SOD2"))]
        objs = [rng.choice(NAMED) if rng.random() < 0.2 else atom_text(rng) for _ in range(rng.randint(2, 4))]
        return ["gram", *objs]
    if kind == "check":
        names = rng.sample(STABILITY_CHECKS, rng.randint(1, 3))
        return ["check", "--only", ",".join(names)]
    raise ValueError(kind)


def record_cli_pool() -> dict:
    rng = random.Random(f"cli-pool:{MASTER_SEED}")
    queries = []
    refused: dict[str, int] = {}
    code, out = run_cli(["kernel"])
    queries.append({"kind": "kernel", "argv": ["kernel"], "code": code, "stdout": out})
    for kind, count in CLI_POOL.items():
        seen: set[tuple[str, ...]] = set()
        while len(seen) < count:
            argv = cli_candidates(rng, kind)
            if tuple(argv) in seen:
                continue
            code, out = run_cli(argv)
            if code != 0:
                refused[kind] = refused.get(kind, 0) + 1
                continue
            seen.add(tuple(argv))
            queries.append({"kind": kind, "argv": argv, "code": code, "stdout": out})
    return {"master_seed": MASTER_SEED, "refused": refused, "queries": queries}


def record_report() -> str:
    from quadstab.harness import DEFAULT_TWIST, default_config, emit_report, run_checks

    results = run_checks(default_config())
    bad = [r.name for r in results if r.status != "pass"]
    if bad:
        raise SystemExit(f"checks do not pass: {bad}")
    return emit_report(results, "json", DEFAULT_TWIST)


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "report.json").write_text(record_report() + "\n", encoding="utf-8")
    for name, doc in (("cli_pool.json", record_cli_pool()), ("rhom_pool.json", record_rhom_pool())):
        with open(GOLDEN / name, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
            handle.write("\n")
    print(f"golden values written to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
