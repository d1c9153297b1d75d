"""Smoke run of the whole benchmark at tiny size; a broken harness shows in seconds.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced with
`--size tiny`, and checks the result line against the contract: exactly
the keys correct, attempted, failed and metrics, every end-to-end or
per-layer metric with its unit, correct outputs and no failed operation.
Checks that a traced run writes its spans, that compare.py reads the
records, and that a copy of the benchmark without the package next to it
exits non-zero without printing a result.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "0.5"


def run(cwd: Path, workload: str, trace: int, extra: list[str]) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", SECONDS, "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_problems(stdout: str, wanted: dict[str, str], positive: bool) -> list[str]:
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a whole number >= 1")
    if result.get("failed") != 0:
        problems.append(f"failed is {result.get('failed')}")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(wanted):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(wanted))}")
    for name, m in metrics.items():
        if m.get("unit") != wanted.get(name):
            problems.append(f"{name}: unit {m.get('unit')!r}")
        if not isinstance(m.get("value"), (int, float)) or (positive and m["value"] <= 0):
            problems.append(f"{name}: value {m.get('value')!r}")
    return problems


def main() -> int:
    spec = compare.load_spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    runs = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp") as tmp:
        tmp = Path(tmp)
        for wl in spec["workloads"]:
            name = wl["name"]
            for trace, wanted in ((0, e2e), (1, layers)):
                out, spans = tmp / f"{name}-{trace}.json", tmp / f"{name}.spans"
                extra = ["--out", str(out)] + (["--spans", str(spans)] if trace else [])
                proc = run(ROOT, name, trace, extra)
                if proc.returncode != 0:
                    failures.append(f"{name} trace {trace}: exit {proc.returncode}\n"
                                    f"{proc.stderr}")
                    continue
                for p in result_problems(proc.stdout, wanted, positive=not trace):
                    failures.append(f"{name} trace {trace}: {p}")
                runs.append(json.loads(out.read_text(encoding="utf-8")))
                if trace and not (spans.is_file() and spans.stat().st_size):
                    failures.append(f"{name}: traced run wrote no spans")
            print(f"{name}: ran traced and untraced", file=sys.stderr)

        bare = tmp / "bare"
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, spec["workloads"][0]["name"], 0, [])
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("without the package the run did not fail cleanly")

    meta = {"vconway": "-", "python": "-", "platform": "-", "nproc": 0,
            "seeds": [1], "seconds": float(SECONDS)}
    result = {"meta": meta, "runs": runs}
    with contextlib.redirect_stdout(io.StringIO()):
        compare.compare(result, result, spec)

    for f in failures:
        print(f"FAIL {f}")
    print("smoke: " + ("FAIL" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
