"""Benchmark entry point for quadstab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
``src/``.  Each workload runs in its own fresh single-threaded Python
process, one at a time.  With ``--trace 0`` the run measures set-up in
several fresh processes, then repeats passes of the workload for the given
seconds, checks every output against the golden values in
``perfbench/golden`` and prints the end-to-end metrics.  With ``--trace 1``
it runs one untraced and one traced pass and prints the per-layer metrics;
the spans are also written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it give
the same metrics in words, the provenance stamp and the input properties.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# set-up probes, split before and after the timed process so that they do
# not all fall into one phase of a host whose speed drifts
SETUP_SAMPLES = (5, 4)
# time a run may take beyond --seconds: interpreter starts, set-up probes,
# the pass that runs past --seconds, and the golden checks after it
MARGIN_S = 120
TAIL_BEYOND = 10  # samples the tail percentile must leave beyond it


class BenchError(Exception):
    pass


def child(args: list[str], deadline: float) -> dict:
    """Run workload.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), *args],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded the time limit: {args}") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process failed with exit code {proc.returncode}: {args}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it.

    With TAIL_BEYOND samples or fewer there is no such percentile, and the
    maximum is reported as the 100th.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def stamp(args, sizes: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "sizes": sizes,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_rev() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def load_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layers


def workload_args(args) -> list[str]:
    return ["--workload", args.workload, "--seed", str(args.seed), "--golden", args.golden, "--scale", str(args.scale)]


def summarize(res: dict, failed: int) -> dict:
    passes = res["passes"]
    return {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "inputs": res["inputs"],
        "sizes": {"passes": len(passes), "operations_per_pass": len(passes[0]["ops"])},
    }


def scaled(interval: dict, key: str) -> float:
    """A CPU time of a probed interval, at the reference speed."""
    if not interval["slices"]:
        raise BenchError("no speed probe slice ran in a timed interval")
    return speed.scale(interval[key], interval["ref_s"], interval["slices"])


def slice_us(interval: dict) -> str:
    return f"{interval['ref_s'] / interval['slices'] * 1e6:.1f}"


def unpermute(values: list, order: list[int]) -> list:
    """Values of operations that ran in ``order``, by operation."""
    out = [None] * len(values)
    for value, op in zip(values, order):
        out[op] = value
    return out


def run_timed(args, deadline: float) -> tuple[dict, dict, list[str]]:
    before, after = SETUP_SAMPLES
    probes = [child(["setup"], deadline) for _ in range(before)]
    res = child(["timed", *workload_args(args), "--seconds", str(args.seconds)], deadline)
    probes += [child(["setup"], deadline) for _ in range(after)]
    setups = [scaled(p, "setup_s") for p in probes]
    passes = res["passes"]
    # every pass runs the same operations, in the order it gives: take each
    # operation's median over the passes, then the percentiles over operations
    op_times = [unpermute(speed.scale_each(p["ops"], p["op_refs"], p["op_slices"]), p["order"]) for p in passes]
    per_op = [statistics.median(times) for times in zip(*op_times)]
    op_tail, pct = tail(per_op)
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(scaled(p, "run_s") for p in passes),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": op_tail * 1e3,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    summary = summarize(res, sum(p["failed"] for p in passes))
    attempted, failed = summary["attempted"], summary["failed"]
    notes = [
        f"passes {len(passes)}, operations per pass {len(passes[0]['ops'])}, setup samples {len(setups)}",
        "times are CPU times at the reference speed; measured CPU times (s): run "
        + " ".join(f"{p['run_s']:.4f}" for p in passes)
        + ", setup "
        + " ".join(f"{p['setup_s']:.4f}" for p in probes),
        f"mean speed probe slice (us), nominal {speed.NOMINAL_SLICE_S * 1e6:.0f}: passes "
        + " ".join(slice_us(p) for p in passes)
        + ", setup "
        + " ".join(slice_us(p) for p in probes),
        f"op_tail_ms is the p{pct:.2f} latency of {len(per_op)} operation(s), each the median over the passes"
        + (f", {TAIL_BEYOND} beyond it" if len(per_op) > TAIL_BEYOND else ""),
        f"failed_share = {failed}/{attempted} = {failed / attempted:.6f}",
    ]
    if "ambiguous" in passes[0]:
        amb = sum(p["ambiguous"] for p in passes)
        tight = sum(p["tightened"] for p in passes)
        notes.append(f"ambiguous_share = {amb}/{attempted} = {amb / attempted:.6f} (tightened vs golden: {tight})")
    return values, summary, notes


def run_traced(args, deadline: float, layer_units: dict) -> tuple[dict, dict, list[str]]:
    res = child(["traced", *workload_args(args)], deadline)
    layers = res["layers"]
    values = {}
    for name in layer_units:
        if name.startswith("harness.check.") and name.endswith(".s"):
            values[name] = res["checks"].get(name[len("harness.check.") : -2], 0.0)
        else:
            values[name] = layers[name]
    passes = res["passes"]
    self_times = [v for k, v in layers.items() if k.endswith(".self_s")]
    self_total = sum(self_times)
    ops_total = sum(passes[1]["ops"])
    run_s = layers["trace.run_s"]
    residual = self_total + layers["trace.unattributed_s"] - run_s
    # The sum holds by construction of the tracer; the orderings do not.
    # Every wrapped span lies inside an operation, and every operation inside
    # the pass, each timed by its own clock readings, and no self time is
    # negative.
    eps = 1e-6 * max(run_s, 1.0)
    consistent = (
        abs(residual) <= eps
        and min(self_times) >= -eps
        and self_total <= ops_total + eps
        and ops_total <= run_s + eps
    )
    summary = summarize(res, sum(p["failed"] for p in passes) + (not consistent))
    attempted, failed = summary["attempted"], summary["failed"]
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(
        json.dumps({"layers": layers, "checks": res["checks"]}, indent=1) + "\n",
        encoding="utf-8",
    )
    notes = [
        f"untraced pass {passes[0]['run_s']:.6f} s, traced pass {passes[1]['run_s']:.6f} s",
        f"self times {self_total:.6f} s + unattributed {layers['trace.unattributed_s']:.6f} s"
        f" = traced run {run_s:.6f} s (residual {residual:.2e} s)",
        f"self times {self_total:.6f} s <= operations {ops_total:.6f} s <= traced run {run_s:.6f} s: {consistent}",
        f"spans written to {trace_file.relative_to(ROOT)}",
        f"failed_share = {failed}/{attempted} = {failed / attempted:.6f}",
    ]
    return values, summary, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="quadstab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", default=str(HERE / "golden"), help="directory of golden values")
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (self-test only)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.seconds + MARGIN_S
    try:
        if not (SRC / "quadstab" / "__init__.py").is_file():
            raise BenchError(f"no quadstab sources under {SRC}")
        e2e_units, layer_units = load_metrics()
        if args.trace:
            values, summary, notes = run_traced(args, deadline, layer_units)
            units = layer_units
        else:
            values, summary, notes = run_timed(args, deadline)
            units = e2e_units
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("stamp " + json.dumps(stamp(args, summary["sizes"])))
    print("inputs " + json.dumps(summary["inputs"]))
    for name, unit in units.items():
        print(f"metric {name} = {values[name]!r} {unit}")
    for note in notes:
        print(note)
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
