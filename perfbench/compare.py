"""Compare two result files written by series.py.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints one row per workload and end-to-end metric: each side's median and
quartiles over its runs, the change of the median, the metric's bound from
BENCHMARK.json and a verdict.  A metric is `unresolved` when either side's
run-to-run spread (quartile distance over median) is wider than its bound,
unless every run of one side beats every run of the other.  It is `worse`
when the second median is worse than the first by more than the bound,
`better` when it is better by more than the bound, and `same` otherwise.
Also prints each side's share of failed operations per workload, and exits
1 when any metric is worse or a failed share differs.  Only untraced runs
count.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def values_by(runs: list[dict], trace: int) -> dict[tuple[str, str], list[float]]:
    """End-to-end values of the runs with the given trace flag, by (workload, metric)."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        if run["trace"] == trace:
            for name, m in run["e2e"].items():
                out.setdefault((run["workload"], name), []).append(m["value"])
    return out


def failed_share(runs: list[dict], workload: str) -> tuple[int, int]:
    attempted = sum(r["result"]["attempted"] for r in runs if r["workload"] == workload)
    failed = sum(r["result"]["failed"] for r in runs if r["workload"] == workload)
    return failed, attempted


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    # flip lower-is-better metrics so that larger always reads better
    sign = 1 if better == "higher" else -1
    a_up, b_up = [sign * v for v in a], [sign * v for v in b]
    change = (statistics.median(b_up) - statistics.median(a_up)) / abs(statistics.median(a))
    if spread(a) > bound or spread(b) > bound:
        if min(b_up) > max(a_up):
            return "better"
        if max(b_up) < min(a_up):
            return "worse"
        return "unresolved"
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(before: dict, after: dict, spec: dict) -> int:
    a_vals = values_by(before["runs"], 0)
    b_vals = values_by(after["runs"], 0)
    print(f"before: {describe(before)}")
    print(f"after:  {describe(after)}")
    header = f"{'workload':<12} {'metric':<12} {'before med [q1, q3]':>30} " \
             f"{'after med [q1, q3]':>30} {'change':>8} {'bound':>6}  verdict"
    print(header)
    status = 0
    for wl in spec["workloads"]:
        for metric in spec["end_to_end"]:
            key = (wl["name"], metric["name"])
            if key not in a_vals or key not in b_vals:
                continue
            a, b = a_vals[key], b_vals[key]
            change = (statistics.median(b) - statistics.median(a)) / statistics.median(a)
            v = verdict(a, b, metric["bound"], metric["better"])
            status |= v == "worse"
            print(f"{wl['name']:<12} {metric['name']:<12} {fmt(a):>30} {fmt(b):>30} "
                  f"{change:>+8.1%} {metric['bound']:>6}  {v}")
    for wl in spec["workloads"]:
        fa, na = failed_share(before["runs"], wl["name"])
        fb, nb = failed_share(after["runs"], wl["name"])
        if na and nb:
            same = fa * nb == fb * na
            status |= not same
            print(f"{wl['name']:<12} failed {fa}/{na} before, {fb}/{nb} after"
                  f"{'' if same else '  DIFFERENT SHARE'}")
    return status


def describe(result: dict) -> str:
    m = result["meta"]
    return (f"vconway {m['vconway']}, Python {m['python']}, {m['platform']}, "
            f"nproc {m['nproc']}, seeds {m['seeds']}, {m['seconds']} s per run")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    return compare(before, after, load_spec())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
