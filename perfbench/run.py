"""Closed-loop benchmark of the stringcoh command line.

Run from the repository root:

    python3 perfbench/run.py --workload check-small --seed 1 --seconds 10 --trace 0

One process runs one workload, so the peak resident memory it reports is
that workload's own.  One client, no threads: each command starts only
after the previous one returned.  The commands are the real CLI,
``stringcoh.cli.main([command, file, "--json"])``, called in-process on
input files the benchmark writes from its seed.

Every workload is a fixed mathematical corpus, so the reference stored in
``reference.json`` applies to every seed.  The seed renames every vertex
and arrow, shuffles the relation lines and shuffles the command order.
Declaration order, which fixes the canonical ids, is kept, so the seed
changes the bytes the program reads but not the work it has to do.

The run first sets up several times (fresh import, input generation, file
writes) and reports the median as ``setup_s``.  It then runs whole passes
over the workload's commands while the next pass is expected to end within
``--seconds``, at least one pass.  Every command is checked (see ``gate``).
Timings are scaled to a reference host speed (see ``HostSpeed``).  With
``--trace 1`` the run alternates untraced and traced passes and reports
per-layer metrics from the traced ones, with the tracing overhead measured
against the untraced ones.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
TAIL_BEYOND = 10      # samples that must lie above the reported tail
MAX_FAILURE_LINES = 20
PROBE_INTERVAL_S = 0.1    # longest stretch of commands between two probes
PROBE_REFERENCE_S = 0.0016  # the probe's time at the reference host speed


@dataclass(frozen=True)
class Recipe:
    """One input: a two-lane line quiver or a generated presentation."""

    kind: str                       # "a_n" or "generate_dsl"
    arg: int                        # n, or the generator seed
    max_vertices: int | None = None
    max_arrows: int | None = None

    @property
    def key(self) -> str:
        if self.kind == "a_n":
            return f"a_n({self.arg})"
        if self.max_vertices is None:
            return f"generate_dsl({self.arg})"
        return (f"generate_dsl({self.arg}, max_vertices={self.max_vertices}, "
                f"max_arrows={self.max_arrows})")

    def text(self, generate_dsl) -> str:
        if self.kind == "a_n":
            return a_n_text(self.arg)
        if self.max_vertices is None:
            return generate_dsl(self.arg)
        return generate_dsl(self.arg, max_vertices=self.max_vertices,
                            max_arrows=self.max_arrows)


@dataclass(frozen=True)
class Workload:
    command: str
    recipes: tuple[Recipe, ...]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "hh-lanes": Workload("hh", (Recipe("a_n", 12),)),
    "check-lanes": Workload("check", (Recipe("a_n", 7),)),
    "check-generated": Workload("check", tuple(
        Recipe("generate_dsl", s, 24, 48) for s in range(13))),
    "check-small": Workload("check", tuple(
        Recipe("generate_dsl", s) for s in range(100))),
}


def a_n_text(n: int) -> str:
    """The two-lane line quiver: vertices 0..n, parallel arrows a_i, b_i at
    each step, every same-lane length-2 composition killed."""
    lines = ["vertex " + " ".join(str(i) for i in range(n + 1))]
    for i in range(1, n + 1):
        lines.append(f"arrow a{i} {i - 1} {i}")
        lines.append(f"arrow b{i} {i - 1} {i}")
    for i in range(1, n):
        lines.append(f"relation a{i} a{i + 1}")
        lines.append(f"relation b{i} b{i + 1}")
    return "\n".join(lines) + "\n"


def relabel(text: str, rng: random.Random) -> str:
    """Rename every vertex and arrow and shuffle the relation lines.

    Vertex and arrow lines keep their order, so the canonical ids, and with
    them every basis and matrix the program builds, are unchanged.
    """
    vertices, arrows, relations = [], [], []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "vertex":
            vertices += tokens[1:]
        elif tokens[0] == "arrow":
            arrows.append(tokens[1:])
        elif tokens[0] == "relation":
            relations.append(tokens[1:])
    vname = dict(zip(vertices, (f"v{k}" for k in rng.sample(
        range(10 * len(vertices)), len(vertices)))))
    aname = dict(zip((a[0] for a in arrows), (f"x{k}" for k in rng.sample(
        range(10 * len(arrows)), len(arrows)))))
    rng.shuffle(relations)
    out = ["vertex " + " ".join(vname[v] for v in vertices)]
    out += [f"arrow {aname[a]} {vname[s]} {vname[t]}" for a, s, t in arrows]
    out += ["relation " + " ".join(aname[a] for a in rel) for rel in relations]
    return "\n".join(out) + "\n"


# -- set-up ------------------------------------------------------------------

def import_program():
    """Import stringcoh afresh from this checkout's sources."""
    if not (SRC / "stringcoh" / "__init__.py").is_file():
        sys.exit(f"perfbench: no stringcoh sources under {SRC}")
    for name in [m for m in sys.modules if m.split(".")[0] == "stringcoh"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("stringcoh.cli")
    generate = importlib.import_module("stringcoh.generate")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported stringcoh from {cli.__file__}")
    return cli, generate


def setup(workload: Workload, seed: int, workdir: Path):
    """Import, generate the inputs and write them; returns the CLI module
    and the commands as (recipe key, file) in the seed's order."""
    cli, generate = import_program()
    rng = random.Random(seed)
    recipes = list(workload.recipes)
    rng.shuffle(recipes)
    workdir.mkdir(parents=True, exist_ok=True)
    commands = []
    for i, recipe in enumerate(recipes):
        path = workdir / f"{i:03d}.quiver"
        path.write_text(relabel(recipe.text(generate.generate_dsl), rng),
                        encoding="utf-8")
        commands.append((recipe.key, str(path)))
    return cli, commands


# -- the correctness gate ----------------------------------------------------

def gate(command: str, code, out: str, ref: dict | None):
    """Check one command's result.  Returns (failure reason or None,
    whether the only failed property is the documented chain-maps audit)."""
    if code is None:
        return f"raised {out}", False
    if ref is None:
        return "no reference entry", False
    try:
        doc = json.loads(out)
    except ValueError:
        return "output is not JSON", False
    hh = doc.get("hh", {})
    if not hh.get("agree") or hh.get("dims") != hh.get("dims_formula"):
        return "HH formula differs from matrix", False
    if doc.get("ap", {}).get("counts") != ref["ap_counts"]:
        return "AP sizes differ from the reference", False
    if hh.get("dims") != ref["hh_dims"]:
        return "HH dimensions differ from the reference", False
    red = False
    if command == "check":
        props = {p["name"]: p["passed"]
                 for p in doc.get("properties", {}).get("checks", [])}
        failed = sorted(name for name, ok in props.items() if not ok)
        red = failed == ["chain-maps"]
        if not (code == 0 and not failed or code == 3 and red):
            return f"exit {code}, failed properties {failed}", False
        if props.get("exactness") is not True:
            return "exactness homology is not all zero", False
        cup = doc.get("cup", {})
        if cup.get("all_zero") is not True:
            return "a cup product is not zero in cohomology", False
        if cup.get("pairs_checked") != ref["cup_pairs_checked"]:
            return "cup pairs_checked differs from the reference", False
        if cup.get("positive_class_dims") != ref["cup_class_dims"]:
            return "cup class dimensions differ from the reference", False
    elif code != 0:
        return f"exit {code}", False
    return None, red


def run_command(cli, command: str, path: str):
    """One CLI call; returns (seconds, exit code or None if it raised, stdout)."""
    buf = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main([command, path, "--json"])
    except (Exception, SystemExit) as exc:   # a raising command is a failure
        return perf_counter() - start, None, repr(exc)
    return perf_counter() - start, code, buf.getvalue()


# -- host speed --------------------------------------------------------------

def probe() -> float:
    """Seconds for a fixed job of the kinds of work stringcoh does:
    tuple-keyed dicts, big integers, fractions, a sort.  It shares no code
    with stringcoh, so a faster program still reads faster.  The fastest of
    three tries, so that a single preemption does not count as a slow host."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        table: dict[tuple[int, int], int] = {}
        total = Fraction(0)
        for i in range(2000):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0) + i * i
            if i % 50 == 0:
                total += Fraction(i, i + 1)
        sorted(table.items())
        best = min(best, perf_counter() - start)
    return best


class HostSpeed:
    """Scales measured seconds to the reference host speed.

    On a shared VM with 2 vCPUs (Intel Xeon, 2.1 GHz) the same code runs up
    to 1.5 times slower in phases that last from 5 s to over a minute, so
    no run length averages them out.  The probe is timed between commands,
    at least every PROBE_INTERVAL_S.  Each command's time is multiplied by
    PROBE_REFERENCE_S over the mean of the probes just before and after it.
    """

    def __init__(self):
        self.probes = [probe()]
        self._at = perf_counter()
        self._pending: list[float] = []

    def add(self, seconds: float):
        self._pending.append(seconds)

    def due(self) -> bool:
        return perf_counter() - self._at >= PROBE_INTERVAL_S

    def flush(self) -> list[float]:
        """Probe now and return the pending times, scaled."""
        self.probes.append(probe())
        self._at = perf_counter()
        factor = 2 * PROBE_REFERENCE_S / (self.probes[-2] + self.probes[-1])
        scaled = [t * factor for t in self._pending]
        self._pending.clear()
        return scaled


# -- the measured loop -------------------------------------------------------

@dataclass
class Pass:
    traced: bool
    latencies: list[float]     # scaled to the reference host speed
    raw_seconds: float

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


def run_passes(cli, workload, commands, reference, seconds, tracer, speed):
    """Whole passes while the next one is expected to end in time, at least
    one; with a tracer, passes alternate untraced and traced and at least
    one of each runs."""
    passes: list[Pass] = []
    durations: list[float] = []    # whole passes, probes and checks included
    failures: list[str] = []
    red = 0
    start = perf_counter()
    while (len(passes) < (2 if tracer is not None else 1)
           or perf_counter() - start + statistics.median(durations) <= seconds):
        pass_start = perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        latencies, raw = [], 0.0
        for i, (key, path) in enumerate(commands):
            elapsed, code, out = run_command(cli, workload.command, path)
            speed.add(elapsed)
            raw += elapsed
            if speed.due() or i == len(commands) - 1:
                latencies += speed.flush()
            if traced:
                tracer.end_command()
            reason, only_red = gate(workload.command, code, out,
                                    reference.get(key))
            if reason is not None:
                failures.append(f"{key}: {reason}")
            red += only_red
        if traced:
            tracer.uninstall()
        passes.append(Pass(traced, latencies, raw))
        durations.append(perf_counter() - pass_start)
    return passes, failures, red


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least TAIL_BEYOND samples above it:
    the sample with exactly that many above it.  When that percentile would
    be below the median (fewer than 2 * TAIL_BEYOND samples), the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], (f"max of {n} samples (too few for a percentile "
                             f"at or above p50 with {TAIL_BEYOND} above it)")
    p = 100 * (n - TAIL_BEYOND) / n
    return ordered[n - TAIL_BEYOND - 1], f"p{p:.1f} of {n} samples"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(name: str, seed: int, seconds: float, trace: bool,
        reference: dict, workdir: Path):
    """Run one workload; returns (result object, report lines)."""
    workload = WORKLOADS[name]
    speed = HostSpeed()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        speed.flush()
        started = perf_counter()
        cli, commands = setup(workload, seed, workdir)
        speed.add(perf_counter() - started)
        setup_times += speed.flush()

    tracer = tracing.Tracer() if trace else None
    passes, failures, red = run_passes(cli, workload, commands, reference,
                                       seconds, tracer, speed)
    attempted = len(passes) * len(commands)
    lines = [f"workload {name}, seed {seed}: {len(commands)} command(s) "
             f"'{workload.command}' per pass, {len(passes)} pass(es)"]
    lines.append("pass seconds: " + " ".join(
        f"{p.seconds:.3f}{'t' if p.traced else ''}" for p in passes))
    lines.append(
        f"host speed: median probe {statistics.median(speed.probes):.5f} s "
        f"against the reference {PROBE_REFERENCE_S} s; unscaled median pass "
        f"{statistics.median(p.raw_seconds for p in passes):.4f} s")
    lines += [f"FAILED {f}" for f in failures[:MAX_FAILURE_LINES]]
    plain = [p for p in passes if not p.traced]
    if trace:
        traced = [p for p in passes if p.traced]
        base = statistics.median(p.seconds for p in plain)
        metrics = tracer.metrics(len(traced))
        metrics["trace.overhead_frac"] = (
            statistics.median(p.seconds for p in traced) / base - 1, "frac")
        metrics["checks.chain_maps_red"] = (red / len(passes), "count")
    else:
        samples = [t for p in plain for t in p.latencies]
        tail_value, tail_note = tail(samples)
        metrics = {
            "wall_s": (statistics.median(p.seconds for p in plain), "s"),
            "latency_p50_s": (statistics.median(samples), "s"),
            "latency_tail_s": (tail_value, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        lines.append(f"latency_tail_s is the {tail_note}")
    lines.append(f"failed_frac {len(failures) / attempted:.4f} "
                 f"({len(failures)} of {attempted} commands)")
    lines.append(f"chain_maps_red {red / len(passes):g} of {len(commands)} "
                 "commands per pass (only the documented chain-maps audit failed)")
    lines += [f"{k} {v:.6g} {unit}" for k, (v, unit) in metrics.items()]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["inputs"]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result, lines = run(args.workload, args.seed, args.seconds,
                            bool(args.trace), reference, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
