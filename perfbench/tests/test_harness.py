"""Quick self-test of the benchmark harness on tiny contexts.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules["perfbench_run"] = bench  # dataclasses resolve annotations through it
_spec.loader.exec_module(bench)
_spec = importlib.util.spec_from_file_location("perfbench_tracer", BENCH / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

TINY = ("classify 2 2", "classify 3 1", "verify 2 2", "verify 3 1")
TINY_PAIRS = 7 + 4
TINY_OPERATIONS = TINY_PAIRS + 27 + 22  # pairs of the classifies, checks of the verifies


def _spec_names(kind: str) -> list[str]:
    return [m["name"] for m in bench.load_json(bench.ROOT / "BENCHMARK.json")[kind]]


def test_end_to_end_run_emits_every_metric(tmp_path):
    result, raw = bench.run("tiny", TINY, seed=3, seconds=0, trace=False, workdir=tmp_path)
    assert list(result["metrics"]) == _spec_names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert (result["correct"], result["attempted"], result["failed"]) == (True, TINY_OPERATIONS, 0)
    # a slot of set-ups before each of the four commands, and one after them
    assert len(raw["setup_s"]) >= len(TINY) + 1
    assert sum(raw["setup_s"]) >= (len(TINY) + 1) * bench.SETUP_SLOT_S
    json.dumps(result)


def test_traced_run_emits_every_layer_metric(tmp_path):
    result, _ = bench.run("tiny", TINY, seed=3, seconds=0, trace=True, workdir=tmp_path)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == _spec_names("per_layer")
    assert result["correct"] and result["attempted"] == 2 * bench.TRACE_PAIRS * TINY_OPERATIONS
    assert metrics["criteria.transitive_pairs.pairs"] == TINY_PAIRS
    assert metrics["verify.checks"] == 27 + 22 and metrics["verify.failed"] == 0
    # The tiny classifies decide every pair; the verifies decide more.
    assert metrics["oracle.decision.calls"] >= TINY_PAIRS
    assert metrics["subgroups.find_isomorphism.found"] <= metrics["subgroups.find_isomorphism.calls"]
    assert metrics["cli.emit.bytes"] > 0 and metrics["verify.equivalence.s"] > 0
    assert 0 < metrics["trace.coverage"]
    assert not list(tmp_path.glob("trace-*"))


def test_tampered_records_count_as_failed(tmp_path, monkeypatch):
    real_run_child = bench.run_child

    def run_child_then_tamper(cmd, workdir, deadline):
        child = real_run_child(cmd, workdir, deadline)
        records = bench.records_path(workdir)
        if records.exists():
            records.write_text(records.read_text().replace('"agree": true', '"agree": false', 1))
        return child

    monkeypatch.setattr(bench, "run_child", run_child_then_tamper)
    result, _ = bench.run("tiny", TINY[:2], seed=0, seconds=0, trace=False, workdir=tmp_path)
    assert result["failed"] == TINY_PAIRS == result["attempted"]
    assert result["correct"] is False


def test_speed_probe_drops_preempted_bursts():
    probe = bench.SpeedProbe()
    probe.bursts = [bench.REFERENCE_BURST_S] * 4 + [1.0]  # the last was preempted
    assert probe.scale == pytest.approx(1.0)
    probe.bursts = [2 * bench.REFERENCE_BURST_S] * 5  # half the reference speed
    assert probe.scale == pytest.approx(0.5**bench.SPEED_EXPONENT)


@pytest.mark.parametrize(
    "admitted, reason, counted",
    [
        (True, "isomorphism found", "oracle.admitted"),
        (False, "size incompatible: |group| = 6, |marked| = 2, need |group| = 4 * |marked|", "oracle.rejected.size"),
        (False, "no transitive subgroup of order 8 exists", "oracle.rejected.no_subgroup"),
        (False, "order/centrality/marking profile matches no transitive subgroup", "oracle.rejected.profile"),
        (False, "backtracking exhausted over 3 profile-matching candidates", "oracle.rejected.search"),
    ],
)
def test_oracle_reasons_are_bucketed(admitted, reason, counted):
    tracer._reset()
    tracer._decision((), SimpleNamespace(admitted=admitted, reason=reason))
    assert tracer._counts == {counted: 1}


def test_unknown_oracle_reason_is_an_error():
    with pytest.raises(RuntimeError, match="unknown oracle rejection reason"):
        tracer._decision((), SimpleNamespace(admitted=False, reason="something new"))


@pytest.mark.parametrize(
    "code, stdout, expected",
    [
        (0, "PASS a\nINFO b\n2/2 checks passed\n", (22, 20)),  # missing lines fail
        (1, "PASS a\nFAIL b\n1/2 checks passed\n", (22, 21)),
        (None, "PASS a\n", (22, 22)),  # killed at the time limit
        (-11, "", (22, 22)),  # crashed
    ],
)
def test_verify_gate(tmp_path, code, stdout, expected):
    child = bench.Child(code=code, wall_s=1.0, cpu_s=1.0, rss_mb=1.0, stdout=stdout, scale=1.0)
    reference = bench.load_json(BENCH / "reference.json")["outputs"]
    assert bench.gate(bench.Invocation("verify 3 1"), child, tmp_path, reference) == expected


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    assert bench.main(["--workload", "oracle-odd", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
