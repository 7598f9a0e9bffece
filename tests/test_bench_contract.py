"""What the benchmark in perfbench/ needs from the package.

The benchmark's files are loaded by path and never edited here. A rename in
the package would otherwise surface only when the benchmark runs: as a
failed set-up child, a workload command that does not parse, or a traced
metric that silently reads 0.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import holgal.oracle
import holgal.verify
from holgal import classify_pair, make_context, transitive_pairs
from holgal.cli import build_parser
from holgal.oracle import pair_decision

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


bench = _load("bench_contract_run", BENCH / "run.py")
tracer = _load("bench_contract_tracer", BENCH / "tracer.py")


def test_setup_child_runs_on_the_checkout():
    # contexts as "p,e,bound": the default, and a bound passed positionally
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run(
        [sys.executable, "-c", bench.SETUP_CODE, "2,3,", "3,2,64"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert Path(child.stdout.splitlines()[0]).resolve().is_relative_to(ROOT / "src")


def test_workload_commands_parse():
    for commands in bench.WORKLOADS.values():
        for command in commands:
            build_parser().parse_args(command.split())


def test_every_traced_function_exists():
    hooks = list(tracer._hooks(holgal.verify))
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in hooks
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert hooks and missing == []


def test_traced_checks_match_the_declared_metrics():
    # the tracer spans every check_* function of holgal.verify and the run
    # reports each span's time as a declared "verify.<check>.s" metric, so a
    # renamed check, or a new helper named check_*, would change the metrics
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    tracer._reset()
    try:
        for module, _, make in tracer._hooks(holgal.verify):
            if module == "holgal.verify":
                make(lambda: [])()
        spans = {name for name in tracer._spans if name.startswith("verify.")}
    finally:
        tracer._reset()
    # run_checks is reported through its counts, not a time
    assert "verify.run_checks" in spans
    assert {"verify.checks", "verify.failed"} <= declared
    checks = {name + ".s" for name in spans - {"verify.run_checks"}}
    timed = {name for name in declared if name.startswith("verify.") and name.endswith(".s")}
    assert timed and checks == timed


@pytest.mark.parametrize("pe", [(2, 3), (3, 2), (2, 4)])
def test_tracer_knows_every_oracle_reason(pe):
    # the tracer buckets each rejection by the start of its reason and stops
    # a traced run on a reason it does not know
    ctx = make_context(*pe)
    unknown = set()
    for _, big, _, sub in transitive_pairs(ctx):
        reason = pair_decision(big, sub).reason
        if reason != "isomorphism found" and not reason.startswith(tuple(tracer._REJECTIONS)):
            unknown.add(reason)
    assert unknown == set()


def test_tracer_sees_one_decision_per_pair(monkeypatch):
    # the tracer counts oracle decisions by rebinding holgal.oracle._decide;
    # pair_decision must look it up at call time, once per uncached pair
    ctx = make_context(2, 3)
    decide = holgal.oracle._decide
    calls = []

    def counting(pair, ctx):
        calls.append(pair.size)
        return decide(pair, ctx)

    monkeypatch.setattr(holgal.oracle, "_decide", counting)
    pair_decision.cache_clear()
    try:
        pairs = transitive_pairs(ctx)
        for gi, big, hi, sub in pairs:
            classify_pair(ctx, gi, big, hi, sub)
    finally:
        pair_decision.cache_clear()
    assert len(calls) == len(pairs) > 0
