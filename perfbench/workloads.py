"""The benchmark's workloads: inputs made from a seed, one timed operation, checks.

Every workload drives vconway from outside, through `vconway.cli.main` and
the public functions of its modules, always read from the module at call
time (`program.diagram.parse_diagram`, not a name imported once), so the
tracer's wrappers see the calls.  An operation is the unit that is timed,
counted in `attempted`, and checked:

  campaign     one round: `vconway verify --trials 100`, then
               `vconway verify --random 4,1,2 --trials 50`, both in-process
               with JSON out
  large_z_24   one diagram of 24 crossings through parse, validate and report
  walks        one random Reidemeister walk with Z at both ends

Checks compare each output with an independent computation or a property
the method must have; none compares with stored earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Size:
    """Operation sizes; FULL is what the benchmark measures, TINY is for the smoke run."""

    campaign_trials: int
    random_trials: int
    band_divisor: int
    walk_steps: int


FULL = Size(campaign_trials=100, random_trials=50, band_divisor=1, walk_steps=300)
TINY = Size(campaign_trials=10, random_trials=5, band_divisor=4, walk_steps=30)

# Inputs made during set-up; later operations draw theirs from the same
# seeded stream, outside the timed spans.
SETUP_OPS = 16


class Workload:
    """One workload.  `item` draws the next input from the seeded stream,
    `run` is the timed operation and returns (output, work items done),
    `check` returns the problems found in an output (empty when correct)."""

    name = ""
    item_unit = ""

    def __init__(self, program, size: Size, rng: random.Random):
        self.p = program
        self.size = size
        self.rng = rng

    def item(self):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, output) -> list[str]:
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        """Untimed checks made once, after the measured operations."""
        return []


def _cli_json(program, argv: list[str]) -> tuple[int, dict | None]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = program.cli.main(argv)
    text = buf.getvalue()
    try:
        return code, json.loads(text)
    except json.JSONDecodeError:
        return code, None


class Campaign(Workload):
    """The product's main loop: small codes of up to 8 crossings whose walks
    grow to 12.  About 40% of Z calls repeat an earlier diagram, so this is
    where a Z cache, one Z per diagram or a check registry can pay off."""

    name = "campaign"
    item_unit = "check trials"

    def item(self):
        s = self.size
        seed_a = str(self.rng.randrange(1 << 30))
        seed_b = str(self.rng.randrange(1 << 30))
        return (
            ["verify", "--trials", str(s.campaign_trials), "--seed", seed_a,
             "--format", "json"],
            ["verify", "--random", "4,1,2", "--trials", str(s.random_trials),
             "--seed", seed_b, "--format", "json"],
        )

    def run(self, item):
        results = [_cli_json(self.p, argv) for argv in item]
        for code, payload in results:
            # exit 1 is a campaign that found failures: its payload is an
            # output, and check() reports the wrong answers it holds
            if code not in (0, 1) or payload is None:
                raise RuntimeError(f"verify exited {code}")
        trials = sum(c["trials"] for _code, payload in results for c in payload["checks"])
        return results, trials

    def check(self, item, output) -> list[str]:
        problems = []
        for argv, (code, payload) in zip(item, output):
            where = " ".join(argv)
            if code != 0:
                problems.append(f"{where}: exited {code}")
            if payload.get("passed") is not True:
                problems.append(f"{where}: passed is not true")
            if not payload.get("checks"):
                problems.append(f"{where}: no checks reported")
            for c in payload.get("checks", []):
                if c["trials"] <= 0:
                    problems.append(f"{where}: {c['name']} ran no trials")
                if not c["informational"] and c["failures"] != 0:
                    problems.append(f"{where}: {c['name']} has {c['failures']} failures")
        return problems

    def final_checks(self) -> list[str]:
        # A wrong crossing block must be caught: shows the checks are live.
        # Fixed seed, so the verdict does not depend on the benchmark seed.
        argv = ["verify", "--trials", "20", "--seed", "0", "--mutate", "--format", "json"]
        code, payload = _cli_json(self.p, argv)
        if code != 1 or payload is None:
            return [f"verify --mutate exited {code}, expected 1"]
        if not any(c["failures"] > 0 for c in payload["checks"]):
            return ["verify --mutate reported no failures"]
        return []


class LargeZ(Workload):
    """The `compute` pipeline on 24-crossing codes with 1-3 components.
    Nearly all time is in `det`; no diagram repeats and no moves run, so a
    determinant change shows here and a cache gains nothing."""

    name = "large_z_24"
    item_unit = "diagrams"

    def __init__(self, program, size: Size, rng: random.Random):
        super().__init__(program, size, rng)
        self.crossings = 24 // size.band_divisor
        self.count = 0

    def item(self):
        components = 1 + self.count % 3
        self.count += 1
        cfg = self.p.moves.GeneratorConfig(self.crossings, components, 0,
                                           seed=self.rng.randrange(1 << 30))
        d = self.p.moves.random_diagram(cfg)
        return self.p.diagram.format_diagram(d), self.rng.randrange(1 << 30)

    def run(self, item):
        text, _ = item
        d = self.p.diagram.parse_diagram(text)
        problems = self.p.diagram.validate(d)
        if problems:
            raise ValueError("; ".join(problems))
        return (d, self.p.invariants.report(d)), 1

    def check(self, item, output) -> list[str]:
        inv, laurent = self.p.invariants, self.p.laurent
        _, pick = item
        d, rep = output
        problems = []
        if rep.conway.reconstruct() != rep.z_normalized:
            problems.append("conway does not reconstruct z_normalized")
        if d.has_empty_component():
            if not rep.z.is_zero():
                problems.append("Z is not 0 with a crossing-free component")
            return problems
        if rep.c0 != inv.c0_cycle_form(d):
            problems.append("c0 differs from the TP cycle form")
        if len(d.components) == 1 and not rep.c0.is_zero():
            problems.append("c0 is not 0 on a knot")
        # skein residual at one crossing, reusing the report's Z for the
        # crossing's own sign: Z(D+) - x Z(D-) - (1 - x) Z(D0) = 0
        ids = d.classical_ids()
        cid = ids[pick % len(ids)]
        sign = d.crossings[cid].sign
        other = inv.z_polynomial(self.p.diagram.set_sign(d, cid, -sign))
        zp, zm = (rep.z, other) if sign > 0 else (other, rep.z)
        z0 = inv.z_polynomial(self.p.diagram.smooth(self.p.diagram.set_sign(d, cid, 1), cid))
        residual = zp - laurent.X * zm - (laurent.ONE - laurent.X) * z0
        if not residual.is_zero():
            problems.append(f"skein residual at crossing {cid} is not 0")
        return problems


class Walks(Workload):
    """Random Reidemeister walks of a few hundred steps from codes of 6-10
    crossings.  Most time is in moves (site scans, apply, validate) and the
    dets are small; almost every Z call is on a new diagram, so a per-call
    cost a Z cache adds shows here as a loss."""

    name = "walks"
    item_unit = "move steps"

    def item(self):
        k = self.rng.randint(6, 10)
        c = self.rng.randint(1, 3)
        cfg = self.p.moves.GeneratorConfig(k, c, 0, seed=self.rng.randrange(1 << 30))
        return self.p.moves.random_diagram(cfg), self.rng.randrange(1 << 30)

    def run(self, item):
        start, seed = item
        inv, diagram = self.p.invariants, self.p.diagram
        before = inv.z_normalized(start)
        end = self.p.moves.random_walk(start, self.size.walk_steps, seed=seed)
        after = inv.z_normalized(end)
        again = diagram.parse_diagram(diagram.format_diagram(end))
        return (end, before, after, again), self.size.walk_steps

    def check(self, item, output) -> list[str]:
        end, before, after, again = output
        problems = []
        if before != after:
            problems.append("z_normalized differs at the two ends of the walk")
        if self.p.diagram.validate(end):
            problems.append("walk endpoint does not validate")
        if again != end:
            problems.append("walk endpoint does not round-trip through format/parse")
        return problems


def make(name: str, program, size: Size, seed: int) -> Workload:
    rng = random.Random(f"{name}/{seed}")
    if name == "campaign":
        return Campaign(program, size, rng)
    if name == "walks":
        return Walks(program, size, rng)
    if name == "large_z_24":
        return LargeZ(program, size, rng)
    raise ValueError(f"unknown workload {name!r}")
