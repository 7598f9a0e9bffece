#!/usr/bin/env python3
"""holgal benchmark: classify and verify sweeps, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle-odd --seed 1 --seconds 15 --trace 0

Every holgal command runs in a fresh child interpreter that imports the
checkout's ``src/``. With ``--trace 0`` the run repeats the workload's
commands while the next repetition still fits in ``--seconds``, sets the
workload up before every command and after the last one, and reports the
end-to-end metrics of BENCHMARK.json as medians, scaled to a reference
speed of the machine. With ``--trace 1`` it runs each command twice
untraced and twice under ``perfbench/tracer.py``, in adjacent pairs, and
reports the per-layer metrics. Either way every output is checked against
reference digests recorded from the seed commit, and the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. perfbench/README.md describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACER = BENCH / "tracer.py"

SETUP_REPEATS = 3  # per run, at least
SETUP_SLOT_S = 1.0  # set-up time spent, at least, before each command
TRACE_PAIRS = 2  # each command runs once traced first and once untraced first

# The machine's speed drifts by up to 1.9x in phases of a second to an hour,
# on both processors at once. While a child runs, a thread of this process
# times a fixed burst of pure-Python work every PROBE_GAP_S on the spare
# processor (about 2% of it), and every time metric is multiplied by
# (REFERENCE_BURST_S / mean burst) ** SPEED_EXPONENT: it reads in seconds at
# the speed at which one burst takes REFERENCE_BURST_S, about the fast phase
# of a 2-vCPU Xeon VM under Python 3.11. The probe swings more than the
# holgal commands do: over 117 commands at probe speeds from 0.44 to 1.35 of
# the reference, the commands' time went as the probe's to a power of 0.73
# (all together) to 0.9 (within a quarter of an hour). README.md has more.
PROBE_GAP_S = 0.02
REFERENCE_BURST_S = 0.0004
SPEED_EXPONENT = 0.8
RUN_LIMIT_S = 170.0  # every run must end within 180 s

# Whole contexts, not samples; see README.md for why each was chosen.
WORKLOADS: dict[str, tuple[str, ...]] = {
    "oracle-odd": ("classify 3 3", "classify 5 2"),
    "sweep-2-5": ("classify 2 5 --jobs 2",),
    "lattice-49": ("classify 7 2 --criteria-only --max-order 4096",),
    "verify-desk": ("verify 2 4", "verify 3 3"),
}

SETUP_CODE = """\
import sys
import holgal
print(holgal.__file__)
for spec in sys.argv[1:]:
    p, e, bound = (int(x) if x else None for x in spec.split(","))
    ctx = holgal.make_context(p, e)
    holgal.all_subgroups(ctx, bound)
    holgal.transitive_pairs(ctx, bound)
"""

# Spans whose self time is reported as "<span>.s".
SELF_TIMED = (
    "subgroups.all_subgroups",
    "criteria.transitive_pairs",
    "criteria.predicate",
    "criteria.verdict",
    "subgroups.core",
    "subgroups.quotient",
    "oracle.models",
    "oracle.decision",
    "subgroups.find_isomorphism",
    "cli.emit",
)
COUNTED = (
    "oracle.admitted",
    "oracle.rejected.size",
    "oracle.rejected.profile",
    "oracle.rejected.search",
    "oracle.rejected.no_subgroup",
    "subgroups.find_isomorphism.found",
    "cli.emit.bytes",
    "verify.checks",
    "verify.failed",
    "holomorph.mul.calls",
    "holomorph.inv.calls",
    "holomorph.power.calls",
    "holomorph.element_order.calls",
    "holomorph.commute.calls",
)
# Per-layer metrics that depend on timing, and the change count itself; every
# other one is a count that must repeat exactly for one version of the code.
TIMED = {"cli.jobs.cpu_over_wall", "trace.overhead_s", "trace.coverage", "trace.count_changes"}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


class SpeedProbe:
    """Times a fixed burst of work in a thread until stopped; at least one burst."""

    _PERMS = [tuple(random.Random(i).sample(range(48), 48)) for i in range(16)]

    def __init__(self) -> None:
        self.bursts: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while True:
            start = perf_counter()
            x = self._PERMS[0]
            for i in range(150):
                x = tuple(x[j] for j in self._PERMS[i & 15])
            self.bursts.append(perf_counter() - start)
            if self._stop.wait(PROBE_GAP_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def scale(self) -> float:
        """Factor that converts a time measured meanwhile to the reference speed.

        The slowest fifth of the bursts is dropped: those were preempted,
        mostly by the child's own processes, rather than slowed by the
        machine.
        """
        bursts = sorted(self.bursts)
        return (REFERENCE_BURST_S / statistics.fmean(bursts[: max(1, len(bursts) * 4 // 5)])) ** SPEED_EXPONENT


@dataclass(frozen=True)
class Invocation:
    """One holgal command line, without --out."""

    text: str

    @property
    def args(self) -> list[str]:
        return self.text.split()

    @property
    def command(self) -> str:
        return self.args[0]

    @property
    def key(self) -> str:
        """Reference key: the command without --jobs, which must not change output."""
        args = self.args
        if "--jobs" in args:
            at = args.index("--jobs")
            del args[at : at + 2]
        return " ".join(args)

    @property
    def context(self) -> str:
        """The set-up child's "p,e,bound" argument (bound empty when default)."""
        args = self.args
        bound = args[args.index("--max-order") + 1] if "--max-order" in args else ""
        return f"{args[1]},{args[2]},{bound}"


@dataclass
class Child:
    code: Optional[int]  # None when killed at the run's time limit
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    scale: float  # SpeedProbe.scale while it ran


@dataclass
class Sample:
    """One invocation's measurements and gate outcome."""

    invocation: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    scale: float
    attempted: int
    failed: int
    pairs: int


@dataclass
class Pass:
    """One run of every invocation of a workload."""

    samples: list[Sample] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.samples)

    @property
    def cpu_s(self) -> float:
        return sum(s.cpu_s for s in self.samples)

    @property
    def ref_wall_s(self) -> float:
        """Wall time at the reference speed."""
        return sum(s.wall_s * s.scale for s in self.samples)

    @property
    def ref_cpu_s(self) -> float:
        return sum(s.cpu_s * s.scale for s in self.samples)

    @property
    def rss_mb(self) -> float:
        return max(s.rss_mb for s in self.samples)

    @property
    def attempted(self) -> int:
        return sum(s.attempted for s in self.samples)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.samples)

    @property
    def pairs(self) -> int:
        return sum(s.pairs for s in self.samples)


def load_json(path: Path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HOLGAL_MAX_ORDER"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(cmd: list[str], workdir: Path, deadline: float) -> Child:
    """Run cmd to completion, with rusage of it and the workers it waited for.

    The child leads its own process group, so at the deadline the kill also
    reaches its pool workers. Resource usage comes from the child's own
    wait4, not from RUSAGE_CHILDREN, whose peak would carry over between
    children.
    """
    out_path = workdir / "stdout.txt"
    with open(out_path, "w") as out, open(workdir / "stderr.txt", "w") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=workdir, env=child_env(), stdout=out, stderr=err, start_new_session=True
        )
    timer = threading.Timer(max(deadline - perf_counter(), 0.0), _kill_group, (proc.pid,))
    timer.start()
    try:
        with SpeedProbe() as probe:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # workers orphaned by a crash
    killed = os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    return Child(
        code=None if killed else proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(),
        scale=probe.scale,
    )


def sha256(path: Path) -> Optional[str]:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def records_path(workdir: Path) -> Path:
    return workdir / "records.jsonl"


def manifest_path(workdir: Path) -> Path:
    return workdir / "records.jsonl.manifest.json"


def gate(inv: Invocation, child: Child, workdir: Path, reference: dict) -> tuple[int, int]:
    """(attempted, failed) operations of one finished invocation.

    classify: its pairs, all failed unless it exited 0 (every pair agrees)
    and both records and manifest match the reference digests. verify: its
    checks; a check fails unless its line reads PASS or INFO, and every
    check fails when the command crashed or timed out.
    """
    ref = reference[inv.key]
    if inv.command == "classify":
        total = ref["pairs"]
        ok = (
            child.code == 0
            and sha256(records_path(workdir)) == ref["records_sha256"]
            and sha256(manifest_path(workdir)) == ref["manifest_sha256"]
        )
        return total, 0 if ok else total
    lines = child.stdout.splitlines()[:-1]  # the last line is the summary
    total = max(ref["checks"], len(lines))
    if child.code not in (0, 1):
        return total, total
    passed = sum(1 for line in lines if line.startswith(("PASS ", "INFO ")))
    return total, total - passed


def run_invocation(
    inv: Invocation, workdir: Path, deadline: float, reference: dict, trace_prefix: Optional[str] = None
) -> Sample:
    for path in (records_path(workdir), manifest_path(workdir)):
        path.unlink(missing_ok=True)
    args = inv.args + (["--out", str(records_path(workdir))] if inv.command == "classify" else [])
    if trace_prefix is None:
        cmd = [sys.executable, "-m", "holgal.cli", *args]
    else:
        cmd = [sys.executable, str(TRACER), trace_prefix, *args]
    child = run_child(cmd, workdir, deadline)
    attempted, failed = gate(inv, child, workdir, reference)
    return Sample(
        invocation=inv.text,
        wall_s=child.wall_s,
        cpu_s=child.cpu_s,
        rss_mb=child.rss_mb,
        scale=child.scale,
        attempted=attempted,
        failed=failed,
        pairs=reference[inv.key]["pairs"],
    )


def setup_once(invocations: list[Invocation], workdir: Path, deadline: float) -> float:
    """Wall time at the reference speed of a fresh interpreter building what every command needs first."""
    contexts = sorted({inv.context for inv in invocations})
    child = run_child([sys.executable, "-c", SETUP_CODE, *contexts], workdir, deadline)
    if child.code != 0:
        raise BenchError(f"set-up failed (exit {child.code}): {(workdir / 'stderr.txt').read_text()}")
    imported = Path(child.stdout.splitlines()[0]).resolve()
    if SRC.resolve() not in imported.parents:
        raise BenchError(f"set-up imported holgal from {imported}, not from {SRC}")
    return child.wall_s * child.scale


def measure(
    invocations: list[Invocation], seconds: float, rng: random.Random, workdir: Path, deadline: float, reference: dict
) -> tuple[list[float], list[Pass]]:
    """Set-up times and passes: repeat the workload while the next pass fits in seconds.

    The machine's speed drifts in phases of several seconds, so set-ups run
    in slots before every command and after the last one rather than back
    to back: their median then samples the same stretch of time as the
    passes.
    """
    setups: list[float] = []

    def setup_slot(at_least: int) -> None:
        spent = 0.0
        while len(setups) < at_least or spent < SETUP_SLOT_S:
            setups.append(setup_once(invocations, workdir, deadline))
            spent += setups[-1]

    passes: list[Pass] = []
    measured = 0.0
    while True:
        order = list(invocations)
        rng.shuffle(order)
        current = Pass()
        started = perf_counter()
        for inv in order:
            setup_slot(len(setups) + 1)
            current.samples.append(run_invocation(inv, workdir, deadline, reference))
        passes.append(current)
        measured += current.wall_s
        now = perf_counter()
        if measured + current.wall_s > seconds or now + (now - started) > deadline:
            break
    setup_slot(max(len(setups) + 1, SETUP_REPEATS))
    return setups, passes


def measure_traced(
    invocations: list[Invocation], rng: random.Random, workdir: Path, deadline: float, reference: dict
) -> tuple[list[Pass], list[Pass]]:
    """Untraced and traced passes, TRACE_PAIRS of each.

    Each command's untraced and traced runs are adjacent, and which goes
    first alternates, so that a drift of the machine's speed cancels out of
    the difference. Traced pass i writes its spans under workdir/trace-i.
    """
    order = list(invocations)
    rng.shuffle(order)
    untraced = [Pass() for _ in range(TRACE_PAIRS)]
    traced = [Pass() for _ in range(TRACE_PAIRS)]
    for i in range(TRACE_PAIRS):
        for j, inv in enumerate(order):
            sides = [(untraced[i], None), (traced[i], str(workdir / f"trace-{i}"))]
            if (i + j) % 2:
                sides.reverse()
            for side, prefix in sides:
                side.samples.append(run_invocation(inv, workdir, deadline, reference, trace_prefix=prefix))
    return untraced, traced


def end_to_end_metrics(setups: list[float], passes: list[Pass]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(p.ref_wall_s for p in passes),
        "cpu_s": statistics.median(p.ref_cpu_s for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        "pairs_per_s": statistics.median(p.pairs / p.ref_wall_s for p in passes),
    }


def merge_traces(prefix: Path) -> dict:
    """Sum the per-process aggregates that tracer.py wrote under prefix."""
    merged: dict = {"spans": {}, "counts": {}, "by_context": {}, "covered_s": 0.0}
    for path in sorted(prefix.parent.glob(prefix.name + ".*.json")):
        part = load_json(path)
        for name, (calls, self_s, inclusive_s) in part["spans"].items():
            entry = merged["spans"].setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += inclusive_s
        for name, value in part["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + value
        # a lattice rebuilt in a pool worker is the same lattice
        for kind, sizes in part["by_context"].items():
            merged["by_context"].setdefault(kind, {}).update(sizes)
        merged["covered_s"] += part["covered_s"]
        path.unlink()
    return merged


def layer_metrics(trace: dict, traced: Pass, names: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its merged trace."""
    spans, counts = trace["spans"], trace["counts"]

    def span(name: str, column: int) -> float:
        return spans.get(name, [0, 0.0, 0.0])[column]

    iso_calls = span("subgroups.find_isomorphism", 0)
    quotients = span("subgroups.quotient", 0)
    metrics = {name + ".s": span(name, 1) for name in SELF_TIMED}
    metrics.update({name: counts.get(name, 0) for name in COUNTED})
    metrics.update(
        {
            "subgroups.all_subgroups.subgroups": sum(trace["by_context"].get("subgroups", {}).values()),
            "criteria.transitive_pairs.pairs": sum(trace["by_context"].get("pairs", {}).values()),
            "subgroups.quotient.mean_order": counts.get("subgroups.quotient.order_sum", 0) / quotients
            if quotients
            else 0.0,
            "oracle.decision.calls": span("oracle.decision", 0),
            "subgroups.find_isomorphism.calls": iso_calls,
            "subgroups.find_isomorphism.hit_ratio": counts.get("subgroups.find_isomorphism.found", 0) / iso_calls
            if iso_calls
            else 0.0,
            "trace.coverage": trace["covered_s"] / traced.wall_s,
        }
    )
    # A check's whole duration, including the layers it calls.
    for name in names:
        if name.startswith("verify.") and name.endswith(".s"):
            metrics[name] = span(name[: -len(".s")], 2)
    return metrics


def count_changes(metrics: dict[str, float], stored: dict[str, float]) -> list[str]:
    """Deterministic counts that differ from the stored seed counts."""
    changes = []
    for name, value in sorted(metrics.items()):
        if name in TIMED or name.endswith(".s"):
            continue
        if name not in stored or abs(stored[name] - value) > 1e-9 * max(1.0, abs(value)):
            changes.append(f"{name}: {stored.get(name)} -> {value}")
    return changes


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_at_start": os.getloadavg(),
    }


def run(
    workload: str, commands: tuple[str, ...], seed: int, seconds: float, trace: bool, workdir: Path
) -> tuple[dict, dict]:
    """Result object and raw samples of one run of the given holgal commands."""
    started = perf_counter()
    deadline = started + RUN_LIMIT_S
    spec = load_json(ROOT / "BENCHMARK.json")
    reference = load_json(BENCH / "reference.json")
    rng = random.Random(seed)
    invocations = [Invocation(text) for text in commands]
    raw: dict = {"workload": workload, "seed": seed, "trace": trace, "machine": machine_info()}

    if not trace:
        setups, passes = measure(invocations, seconds, rng, workdir, deadline, reference["outputs"])
        metrics = end_to_end_metrics(setups, passes)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        raw["setup_s"] = setups
    else:
        untraced, traced = measure_traced(invocations, rng, workdir, deadline, reference["outputs"])
        passes = [p for pair in zip(untraced, traced) for p in pair]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        per_pass = [
            layer_metrics(merge_traces(workdir / f"trace-{i}"), traced[i], list(units)) for i in range(TRACE_PAIRS)
        ]
        stored = reference["counts"].get(workload, {})
        # Both traced passes must reproduce the stored counts.
        changes = sorted({line for m in per_pass for line in count_changes(m, stored)})
        metrics = per_pass[0]
        metrics["cli.jobs.cpu_over_wall"] = statistics.median(p.cpu_s / p.wall_s for p in untraced)
        metrics["trace.overhead_s"] = statistics.median(t.ref_wall_s - u.ref_wall_s for t, u in zip(traced, untraced))
        metrics["trace.count_changes"] = len(changes)
        for line in changes:
            print(f"count changed since the seed commit: {line}")
        extra = sorted(set(metrics) - set(units))
        if extra:
            print(f"traced but not listed in BENCHMARK.json: {', '.join(extra)}")
    raw["passes"] = [[vars(s) for s in p.samples] for p in passes]

    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not computed: {sorted(missing)}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for s in p.samples:
            print(f"{s.invocation:48s} {s.wall_s:8.3f} s wall {s.cpu_s:8.3f} s cpu {s.rss_mb:7.1f} MB "
                  f"speed x{s.scale:.3f} failed {s.failed}/{s.attempted}")
    for name, unit in units.items():
        print(f"{workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"{workload} failed_frac = {failed / attempted:.6g} ({failed}/{attempted} operations)")
    print(f"{workload} run took {perf_counter() - started:.1f} s")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, raw


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="orders the commands of each pass")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--raw", type=Path, help="also write raw samples and machine info here")
    args = parser.parse_args(argv)

    if not (SRC / "holgal" / "cli.py").is_file():
        print(f"error: no holgal sources under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, raw = run(
            args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.raw:
        raw["result"] = result
        args.raw.parent.mkdir(parents=True, exist_ok=True)
        args.raw.write_text(json.dumps(raw, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
