"""Self-test of the benchmark, on tiny inputs.

    python3 perfbench/selftest.py

For every workload, in both the timed and the traced mode, checks that the
run passes its correctness gate and prints every metric named in
BENCHMARK.json with its unit.  Then it corrupts a copy of the golden values
and checks that the gate catches it: ``failed`` rises above 0 and
``correct`` turns false.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.02"


def run(workload: str, trace: int, golden: Path | None = None) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", SCALE]
    if golden is not None:
        cmd += ["--golden", str(golden)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def corrupt(golden: Path) -> None:
    """Change one value in every golden record."""
    report = json.loads((golden / "report.json").read_text(encoding="utf-8"))
    for entry in report["results"]:
        entry["actual"] += " (corrupted)"
    (golden / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    rhom = json.loads((golden / "rhom_pool.json").read_text(encoding="utf-8"))
    for pair in rhom["pairs"]:
        pair[2]["euler"] += 1
    (golden / "rhom_pool.json").write_text(json.dumps(rhom), encoding="utf-8")
    cli = json.loads((golden / "cli_pool.json").read_text(encoding="utf-8"))
    for query in cli["queries"]:
        query["stdout"] += "corrupted\n"
    (golden / "cli_pool.json").write_text(json.dumps(cli), encoding="utf-8")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        bad_golden = Path(tmp) / "golden"
        shutil.copytree(HERE / "golden", bad_golden)
        corrupt(bad_golden)
        for w in spec["workloads"]:
            name = w["name"]
            for trace, metrics in wanted.items():
                lines, result = run(name, trace)
                assert result["correct"] and result["failed"] == 0, (name, trace, result)
                assert result["attempted"] >= 1, (name, trace)
                assert set(result["metrics"]) == {m["name"] for m in metrics}, (name, trace)
                for m in metrics:
                    got = result["metrics"][m["name"]]
                    assert got["unit"] == m["unit"], (name, m["name"])
                    line = f"metric {m['name']} = {got['value']!r} {m['unit']}"
                    assert line in lines, (name, line)
            lines, result = run(name, 0, bad_golden)
            assert result["failed"] > 0 and not result["correct"], (name, "corrupted golden not caught")
            print(f"{name}: metrics complete, gate live ({result['failed']}/{result['attempted']} failed on corrupted golden)")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
