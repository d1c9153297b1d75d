"""Run a set of benchmark runs and write them to one result file.

    python3 perfbench/series.py --out .bench_out/before.json --seeds 1-10
    python3 perfbench/series.py --out .bench_out/traced.json --seeds 1-4 --trace both

Runs run.py once per workload, seed and trace setting, one after another,
each in its own process, with the run length from BENCHMARK.json.  The
result file records the seeds, the vconway version, Python, the platform
and nproc, plus every run's record.  Then it prints, per workload and
end-to-end metric, the median, the quartiles and the spread (quartile
distance over median) against the metric's bound; `wide` marks a spread
above a third of the bound and `OVER` one above the bound.  With
`--trace both` every seed runs untraced and traced back to back,
alternating which goes first, and the tracing overhead is printed: per
workload and metric, the median over seeds of the traced value divided
by the untraced one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(workload: str, seed: int, seconds: float, trace: int, tmp: Path) -> dict:
    out = tmp / f"{workload}-{seed}-{trace}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def summarize(runs: list[dict], spec: dict) -> None:
    untraced = compare.values_by(runs, 0)
    print(f"{'workload':<12} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for wl in spec["workloads"]:
        for metric in spec["end_to_end"]:
            values = untraced.get((wl["name"], metric["name"]))
            if not values:
                continue
            q1, med, q3 = compare.quartiles(values)
            s = compare.spread(values)
            flag = "OVER" if s > metric["bound"] else "wide" if s > metric["bound"] / 3 else ""
            print(f"{wl['name']:<12} {metric['name']:<12} {med:>12.5g} {q1:>12.5g} "
                  f"{q3:>12.5g} {s:>7.1%} {metric['bound']:>6}  {flag}")
        failed, attempted = compare.failed_share(runs, wl["name"])
        if attempted:
            print(f"{wl['name']:<12} failed {failed} of {attempted} operations")
    pairs: dict[tuple[str, int], dict[int, dict]] = {}
    for run in runs:
        pairs.setdefault((run["workload"], run["seed"]), {})[run["trace"]] = run["e2e"]
    ratios: dict[tuple[str, str], list[float]] = {}
    for (workload, _seed), pair in pairs.items():
        if len(pair) == 2:
            for metric, m in pair[1].items():
                ratios.setdefault((workload, metric), []).append(m["value"] / pair[0][metric]["value"])
    if ratios:
        print("tracing overhead: median over seeds of traced / untraced [min, max]")
        for (workload, metric), r in ratios.items():
            if metric != "setup_s":
                print(f"{workload:<12} {metric:<12} {statistics.median(r):.3f} "
                      f"[{min(r):.3f}, {max(r):.3f}]")


def main(argv: list[str] | None = None) -> int:
    spec = compare.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    ap.add_argument("--trace", choices=("0", "1", "both"), default="0")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    runs = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp") as tmp:
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in seeds:
                traces = [int(args.trace)] if args.trace != "both" else [seed % 2, 1 - seed % 2]
                for trace in traces:
                    rec = run_one(workload, seed, spec["run_seconds"], trace, Path(tmp))
                    runs.append(rec)
                    print(f"{workload} seed {seed} trace {trace}: {json.dumps(rec['e2e'])}",
                          file=sys.stderr)
    first = runs[0]
    meta = {key: first[key] for key in ("vconway", "python", "platform", "nproc")}
    meta.update(seeds=seeds, seconds=spec["run_seconds"], trace=args.trace)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"meta": meta, "runs": runs}, indent=1) + "\n",
                        encoding="utf-8")
    summarize(runs, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
