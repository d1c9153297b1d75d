"""Run one workload of the vconway benchmark and print its result as JSON.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from `src/` next to
this directory, never from an installed copy; without it the run exits 2
and prints no result.  The last line on stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (see E2E), with
times scaled by the machine's speed while they were taken (see
calibration.py);
with `--trace 1` the module boundaries are wrapped and the metrics are
the per-layer totals (see tracing.PER_LAYER).  `--out FILE` also writes a
record with the run's settings, the machine, the unscaled times and the
end-to-end figures even of a traced run, which series.py collects;
`--spans FILE` writes every recorded span as one JSON array per line.
"""

from __future__ import annotations

import argparse
import collections
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import calibration
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("laurent", "diagram", "moves", "invariants", "verify", "cli")
SETUP_REPEATS = 21
# Calibration samples taken before and after the operations.
CAL_BRACKET = 5

# (name, unit) of every end-to-end metric, in report order.
E2E = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms", "ms"),
    ("items_per_s", "1/s"),
)


class MissingProgram(Exception):
    pass


def import_program() -> SimpleNamespace:
    """Import vconway afresh from SRC, dropping any copy already imported."""
    if not (SRC / "vconway" / "__init__.py").is_file():
        raise MissingProgram(f"no vconway package under {SRC}")
    for key in [k for k in sys.modules if k == "vconway" or k.startswith("vconway.")]:
        del sys.modules[key]
    mods = {name: importlib.import_module(f"vconway.{name}") for name in MODULES}
    pkg = sys.modules["vconway"]
    if Path(pkg.__file__).resolve().parent != (SRC / "vconway").resolve():
        raise MissingProgram(f"vconway was imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(version=pkg.__version__, **mods)


def set_up(name: str, size: workloads.Size, seed: int):
    """Import the package and make the first inputs, SETUP_REPEATS times,
    each followed by a sample of the set-up kernel.  The last repetition's
    objects are used; returns them with the set-up times and the samples."""
    times, cal = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous copy's garbage is not this set-up's cost
        t0 = time.perf_counter()
        program = import_program()
        wl = workloads.make(name, program, size, seed)
        pending = collections.deque(wl.item() for _ in range(workloads.SETUP_OPS))
        times.append(time.perf_counter() - t0)
        gc.collect()
        cal.append(calibration.setup_sample())
    return program, wl, pending, times, cal


def measure(wl: workloads.Workload, pending, seconds: float, tracer) -> dict:
    """Run whole operations until `seconds` have passed and check each
    output; returns the start and end of every operation that did not fail."""
    op_spans: list[tuple[float, float]] = []
    items = 0
    attempted = failed = 0
    problems: list[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        item = pending.popleft() if pending else wl.item()
        if tracer is not None:
            tracer.begin(attempted)
        t0 = time.perf_counter()
        try:
            output, done = wl.run(item)
        except Exception:  # a failed operation is counted, and the run goes on
            output = None
            traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end()
        attempted += 1
        if output is None:
            failed += 1
        else:
            op_spans.append((t0, t1))
            items += done
            problems += wl.check(item, output)
        if time.perf_counter() >= deadline:
            break
    problems += wl.final_checks()
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "op_spans": op_spans, "items": items}


def e2e_metrics(setup: list[float], setup_cal: list[float], m: dict,
                sampler: calibration.Sampler, scaled: bool) -> dict:
    """The end-to-end metrics, with times scaled by the calibration kernels
    unless `scaled` is false: set-up by the set-up kernel sampled after each
    repetition, an operation by the samples near it.  An operation's time
    leaves out the samples taken inside it."""
    if scaled:
        setup_s = calibration.REF_SETUP_S * statistics.median(
            t / c for t, c in zip(setup, setup_cal))
    else:
        setup_s = statistics.median(setup)
    ops = []
    for t0, t1 in m["op_spans"]:
        t = t1 - t0 - sampler.inside(t0, t1)
        ops.append(t * sampler.scale(t0, t1) if scaled else t)
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_ms": statistics.median(ops) * 1e3,
        "items_per_s": m["items"] / sum(ops),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E}


def layer_metrics(tracer: tracing.Tracer) -> dict:
    values = tracer.per_layer()
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _better in tracing.PER_LAYER}


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every operation, for the smoke run")
    ap.add_argument("--out", type=Path, help="also write a full record here")
    ap.add_argument("--spans", type=Path, help="write the traced spans here")
    args = ap.parse_args(argv)
    size = workloads.TINY if args.size == "tiny" else workloads.FULL

    sys.path.insert(0, str(SRC))
    try:
        program, wl, pending, setup, setup_cal = set_up(args.workload, size, args.seed)
    except (MissingProgram, ValueError) as exc:  # no package, or no such workload
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # A traced run takes no samples inside operations, which would land in
    # its spans; its end-to-end figures, kept only in --out, are scaled by
    # the bracket samples alone.
    sampler = calibration.Sampler()
    sampler.bracket(CAL_BRACKET)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(program)
    else:
        sampler.start()
    try:
        m = measure(wl, pending, args.seconds, tracer)
    finally:
        sampler.stop()
    sampler.bracket(CAL_BRACKET)
    if tracer is not None:
        tracer.uninstall()
    for problem in m["problems"][:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    if not m["op_spans"]:
        print(f"error: all {m['attempted']} operations failed", file=sys.stderr)
        return 1

    e2e = e2e_metrics(setup, setup_cal, m, sampler, scaled=True)
    result = {
        "correct": not m["problems"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": layer_metrics(tracer) if tracer is not None else e2e,
    }
    if args.spans is not None and tracer is not None:
        tracer.write_spans(args.spans)
    if args.out is not None:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "vconway": program.version,
            **machine(), "item_unit": wl.item_unit, "items": m["items"],
            "setup_s": setup, "setup_calibration_s": setup_cal,
            "op_spans": m["op_spans"], "calibration_s": sampler.times,
            "calibration_ends": sampler.ends,
            "unscaled": e2e_metrics(setup, setup_cal, m, sampler, scaled=False),
            "e2e": e2e, "result": result,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
