"""One benchmark process: set-up probe, timed passes, or a traced pass.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH``; prints one JSON object
as its last line.

    workload.py setup
    workload.py timed  --workload W --seed N --seconds S [--golden DIR] [--scale F]
    workload.py traced --workload W --seed N [--golden DIR] [--scale F]

``setup`` and ``timed`` run with the speed probe of ``speed.py`` started and
give, beside each CPU time, the time spent in the probe's slices over the
same interval and their number.  ``timed`` repeats passes over the same
inputs, each on fresh program state, until ``--seconds`` have elapsed.
``traced`` runs one untraced reference pass, installs the tracer, and runs
one traced pass, without the probe.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

import inputs
from speed import SpeedProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent


def setup_probe() -> dict:
    """Import the package, build the default Context, resolve the names."""
    probe = SpeedProbe()
    probe.start()
    try:
        mark = probe.mark()
        from quadstab.harness import Context, default_config

        ctx = Context(default_config())
        ctx.names
        setup_s, ref_s, slices = probe.since(mark)
    finally:
        probe.stop()
    return {"setup_s": setup_s, "ref_s": ref_s, "slices": slices}


# ---------------------------------------------------------------------------
# sound comparison against the golden values
# ---------------------------------------------------------------------------


def _dims(pairs) -> dict[int, int]:
    return {int(d): int(v) for d, v in pairs}


def compare_rhom(result, golden: dict) -> tuple[bool, bool]:
    """(matches, tightened) for an RHom result against its golden record.

    A determined golden value must be reproduced exactly.  A golden
    ambiguous value may tighten, within its recorded bounds.
    """
    if result.euler != golden["euler"]:
        return False, False
    if "dims" in golden:
        ok = result.status == "determined" and dict(result.dims.items()) == _dims(golden["dims"])
        return ok, False
    lo = _dims(golden["lo"])
    hi = None if golden["hi"] is None else _dims(golden["hi"])
    if result.status == "determined":
        new_lo = new_hi = dict(result.dims.items())
    else:
        new_lo = dict(result.bounds[0].items())
        new_hi = None if result.bounds[1] is None else dict(result.bounds[1].items())
    if any(new_lo.get(d, 0) < v for d, v in lo.items()):
        return False, False
    if hi is not None:
        if new_hi is None or any(v > hi.get(d, 0) for d, v in new_hi.items()):
            return False, False
    tightened = new_lo != lo or new_hi != hi
    return True, tightened


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class OpLog:
    """Latency of each operation of a pass and, when traced, whether the
    operation spent time in the Context layer.

    Times leave out the probe's slices; beside each time are the seconds
    spent in slices and their number over the same interval (0 when the
    probe is not running).
    """

    def __init__(self, probe: SpeedProbe, tracer=None):
        self.probe = probe
        self.tracer = tracer
        self.times: list[float] = []
        self.refs: list[float] = []
        self.slices: list[int] = []
        self.context_ops = 0

    def begin(self) -> None:
        """Start of the timed region."""
        gc.collect()
        if self.tracer:
            self.tracer.reset()
        self.start = self.probe.mark()

    def measure(self, fn, *args):
        tracer = self.tracer
        before = tracer.group_self("harness.context") if tracer else 0.0
        mark = self.probe.mark()
        try:
            return fn(*args)
        finally:
            took, ref, slices = self.probe.since(mark)
            self.times.append(took)
            self.refs.append(ref)
            self.slices.append(slices)
            if tracer and tracer.group_self("harness.context") > before:
                self.context_ops += 1

    def close(self) -> None:
        """End of the timed region: take the trace before outputs are checked."""
        self.run_s, self.ref_s, self.pass_slices = self.probe.since(self.start)
        self.trace = None
        if self.tracer:
            layers = self.tracer.summary(self.run_s)
            layers["harness.context.op_share"] = self.context_ops / max(len(self.times), 1)
            self.trace = {"layers": layers, "checks": self.tracer.check_times()}

    def result(self, **fields) -> dict:
        probe = {"ref_s": self.ref_s, "slices": self.pass_slices, "op_refs": self.refs, "op_slices": self.slices}
        order = list(range(len(self.times)))  # operation i of every pass is the same
        return {"run_s": self.run_s, "ops": self.times, "order": order, **probe, "trace": self.trace, **fields}


class Report:
    """One full default-twist run_checks plus its JSON report.

    The operation is the whole report, the command a user runs; per-check
    times come from the traced run.
    """

    # cheap checks run when the workload is scaled down for the self-test
    TINY = ("sod1.basis-determinant", "serre.canonical", "kernel.rank", "heart.B", "props.parser-roundtrip")

    def __init__(self, seed: int, golden: Path, scale: float):
        import quadstab.harness as harness

        self.harness = harness
        self.golden_text = (golden / "report.json").read_text(encoding="utf-8").rstrip("\n")
        self.golden = {r["name"]: r for r in json.loads(self.golden_text)["results"]}
        self.selection = None if scale >= 1 else self.TINY

    def input_properties(self) -> dict:
        return {"checks": len(self.selection or self.harness.CHECK_NAMES), "inputs": "default configuration"}

    def run_pass(self, probe: SpeedProbe, tracer=None, index: int = 0) -> dict:
        h = self.harness

        def report():
            results = h.run_checks(h.default_config(), self.selection)
            return results, h.emit_report(results, "json", h.DEFAULT_TWIST)

        log = OpLog(probe, tracer)
        log.begin()
        try:
            results, doc = log.measure(report)
        except Exception:  # a failed operation is counted, not fatal
            results, doc = [], None
        log.close()
        expected = len(self.selection or self.golden)
        failed = sum(1 for r in results if r.status != "pass" or r.to_dict() != self.golden.get(r.name))
        failed += expected - len(results)
        if self.selection is None and doc != self.golden_text and failed == 0:
            failed = 1  # the document differs outside the per-check entries
        return log.result(attempted=expected, failed=failed)


class RhomCorpus:
    """Seeded expression pairs through Calculus.rhom on one shared Calculus."""

    def __init__(self, seed: int, golden: Path, scale: float):
        import quadstab.harness as harness

        self.harness = harness
        pool = json.loads((golden / "rhom_pool.json").read_text(encoding="utf-8"))
        texts, pairs = pool["expressions"], pool["pairs"]
        keys = inputs.sample_rhom_pairs(len(pairs), seed, scale)
        self.queries = [(texts[pairs[k][0]], texts[pairs[k][1]], pairs[k][2]) for k in keys]
        self.seed = seed
        self.checked_euler = False

    def input_properties(self) -> dict:
        stats = [inputs.tree_stats(t) for x, y, _ in self.queries for t in (x, y)]
        atoms = sum(1 for x, y, _ in self.queries if _is_atom(x) and _is_atom(y))
        return {
            "queries": len(self.queries),
            "depth_histogram": inputs.histogram(d for d, _ in stats),
            "node_histogram": inputs.histogram(n for _, n in stats),
            "atom_atom_share": atoms / len(self.queries),
            "repeated_share": 1 - len({(x, y) for x, y, _ in self.queries}) / len(self.queries),
        }

    def run_pass(self, probe: SpeedProbe, tracer=None, index: int = 0) -> dict:
        """Query every pair once, in the order of pass ``index`` of the seed.

        Each pass of a run takes its own seeded order, so the latency of a
        pair, its median over the passes, does not hinge on one order of
        what the memo holds when it is queried.  Operation times are
        returned in the order they ran; ``order`` maps them to the pairs.
        """
        h = self.harness
        ctx = h.Context(h.default_config())
        ctx.names
        calc = ctx.calc
        order = inputs.rhom_pass_order(len(self.queries), self.seed, index)
        queries = [self.queries[k] for k in order]

        def query(x: str, y: str):
            return calc.rhom(ctx.obj(x), ctx.obj(y))

        log = OpLog(probe, tracer)
        results = []
        log.begin()
        for x, y, _ in queries:
            try:
                results.append(log.measure(query, x, y))
            except Exception as exc:  # a failed operation is counted, not fatal
                results.append(exc)
        log.close()
        failed = ambiguous = tightened = 0
        for (x, y, golden), result in zip(queries, results):
            if isinstance(result, Exception):
                failed += 1
                continue
            ok, tighter = compare_rhom(result, golden)
            failed += not ok
            tightened += tighter
            ambiguous += result.status == "ambiguous"
            if not self.checked_euler:
                # independent check, on the first pass of a run: the Euler
                # number is the pairing of the two classes
                X, Y = ctx.obj(x), ctx.obj(y)
                failed += result.euler != ctx.kt.euler_pairing(calc.class_of(X), calc.class_of(Y))
        self.checked_euler = True
        return log.result(
            attempted=len(queries), failed=failed, ambiguous=ambiguous, tightened=tightened, order=order
        )


class ColdCli:
    """One-shot in-process CLI calls, each building its own Context."""

    def __init__(self, seed: int, golden: Path, scale: float):
        import quadstab.cli as cli

        self.cli = cli
        pool = json.loads((golden / "cli_pool.json").read_text(encoding="utf-8"))["queries"]
        mix = {k: max(1, round(n * scale)) for k, n in inputs.CLI_MIX.items()}
        self.queries = [pool[k] for k in inputs.sample_cli_queries(pool, seed, mix)]

    def input_properties(self) -> dict:
        kinds: dict[str, int] = {}
        exprs = []
        atom_pairs = rhoms = 0
        for q in self.queries:
            kinds[q["kind"]] = kinds.get(q["kind"], 0) + 1
            args = [a for a in q["argv"][1:] if a not in ("L", "R", "TRIPLE", "SOD1", "SOD2")]
            if q["kind"] in ("class", "rhom", "mutate", "gram"):
                exprs += args
            if q["kind"] == "rhom":
                rhoms += 1
                atom_pairs += _is_atom(args[0]) and _is_atom(args[1])
        stats = [inputs.tree_stats(t) for t in exprs]
        return {
            "queries": len(self.queries),
            "kinds": kinds,
            "depth_histogram": inputs.histogram(d for d, _ in stats),
            "node_histogram": inputs.histogram(n for _, n in stats),
            "atom_atom_share": atom_pairs / rhoms if rhoms else 0.0,
            "repeated_share": 1 - len({tuple(q["argv"]) for q in self.queries}) / len(self.queries),
        }

    def run_pass(self, probe: SpeedProbe, tracer=None, index: int = 0) -> dict:
        def query(argv: list[str]) -> tuple[object, str]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            return code, out.getvalue()

        log = OpLog(probe, tracer)
        outcomes = []
        log.begin()
        for q in self.queries:
            try:
                outcomes.append(log.measure(query, q["argv"]))
            except Exception as exc:  # a failed operation is counted, not fatal
                outcomes.append((repr(exc), ""))
        log.close()
        failed = sum(1 for q, outcome in zip(self.queries, outcomes) if outcome != (q["code"], q["stdout"]))
        return log.result(attempted=len(self.queries), failed=failed)


def _is_atom(text: str) -> bool:
    return text.startswith(("O(", "OE("))


WORKLOADS = {"report": Report, "rhom-corpus": RhomCorpus, "cold-cli": ColdCli}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed(work, seconds: float) -> dict:
    """Repeat passes while the next one, at the mean pass length so far, still
    ends within ``seconds`` of wall time (at least one pass)."""
    passes = []
    probe = SpeedProbe()
    probe.start()
    try:
        start = time.perf_counter()
        while True:
            passes.append(work.run_pass(probe, index=len(passes)))
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
    finally:
        probe.stop()
    for p in passes:
        del p["trace"]
    return {"passes": passes, "peak_rss_mb": peak_rss_mb()}


def traced(work) -> dict:
    probe = SpeedProbe()  # never started: traced passes run without slices
    reference = work.run_pass(probe)
    del reference["trace"]
    tracer = Tracer()
    tracer.install()
    traced_pass = work.run_pass(probe, tracer)
    trace = traced_pass.pop("trace")
    trace["layers"]["trace.overhead_share"] = traced_pass["run_s"] / reference["run_s"] - 1
    return {"passes": [reference, traced_pass], **trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "timed", "traced"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--golden", default=str(HERE / "golden"))
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = setup_probe()
    else:
        work = WORKLOADS[args.workload](args.seed, Path(args.golden), args.scale)
        result = timed(work, args.seconds) if args.mode == "timed" else traced(work)
        result["inputs"] = work.input_properties()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
