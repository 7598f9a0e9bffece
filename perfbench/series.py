#!/usr/bin/env python3
"""Run the benchmark over ten seeds; summarise, compare and record.

    python3 perfbench/series.py
    python3 perfbench/series.py --compare ../parent-checkout
    python3 perfbench/series.py --record 0001_lattice

Every workload of BENCHMARK.json runs with seeds 1 to 10, the ten pairs that
the comparison rule needs. Each run is one `run.py` process started from the
root of its checkout. With --compare the two checkouts alternate which runs
first: this one on odd seeds, the other on even seeds. The summary gives, per workload and metric,
each side's median, quartiles and spread (interquartile range over median),
and how many seeds this checkout won. --record writes every run's result,
raw samples and machine info to trajectory/BENCH_<label>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run.py run in checkout: its result and raw samples."""
    raw_path = checkout / ".bench_work" / f"series-{os.getpid()}.json"
    raw_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), "--raw", str(raw_path),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} exited {proc.returncode}\n{proc.stderr}")
    raw = json.loads(raw_path.read_text())
    raw_path.unlink()
    return raw


def commit(checkout: Path):
    """Short hash of the checkout's HEAD, or None outside a git repository."""
    proc = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=checkout, capture_output=True, text=True
    )
    return proc.stdout.strip() or None if proc.returncode == 0 else None


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and IQR over median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def summarise(workload: str, runs: dict[str, list[dict]], spec: dict, trace: bool) -> None:
    kind = "per_layer" if trace else "end_to_end"
    mine, other = runs["this"], runs.get("other")
    failed = sum(r["result"]["failed"] for r in mine)
    attempted = sum(r["result"]["attempted"] for r in mine)
    print(f"\n{workload}: {len(mine)} runs, failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    for metric in spec[kind]:
        name, unit = metric["name"], metric["unit"]
        values = [r["result"]["metrics"][name]["value"] for r in mine]
        median, q1, q3, rel = spread(values)
        line = f"  {name:40s} {median:12.6g} {unit:8s} q1 {q1:.6g} q3 {q3:.6g} spread {rel:.3f}"
        if "bound" in metric:
            line += f" (bound {metric['bound']})"
        if other:
            theirs = [r["result"]["metrics"][name]["value"] for r in other]
            sign = -1 if metric["better"] == "lower" else 1
            wins = sum(1 for a, b in zip(values, theirs) if sign * (a - b) > 0)
            their_median, _, _, their_rel = spread(theirs)
            line += f" | other {their_median:.6g} spread {their_rel:.3f} | wins {wins}/{len(values)}"
        print(line)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true", help="per-layer metrics instead")
    parser.add_argument("--compare", type=Path, help="root of another checkout")
    parser.add_argument("--record", metavar="LABEL", help="write trajectory/BENCH_<LABEL>.json")
    args = parser.parse_args()

    sides = {"this": ROOT} | ({"other": args.compare.resolve()} if args.compare else {})
    record = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs: dict[str, list[dict]] = {side: [] for side in sides}
        for seed in SEEDS:
            order = list(sides) if seed % 2 else list(reversed(sides))
            for side in order:
                raw = run_once(sides[side], workload, seed, spec["run_seconds"], args.trace)
                runs[side].append(raw)
                record.append({"side": side, **raw})
                metrics = raw["result"]["metrics"]
                shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in list(metrics.items())[:5])
                print(f"{workload} seed {seed} {side}: failed {raw['result']['failed']} {shown}", flush=True)
        summarise(workload, runs, spec, args.trace)

    if args.record:
        path = BENCH / "trajectory" / f"BENCH_{args.record}.json"
        entry = {
            "label": args.record,
            "recorded": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
            "seconds": spec["run_seconds"],
            "trace": args.trace,
            "commit": commit(ROOT),
            "runs": record,
        }
        path.write_text(json.dumps(entry, indent=1) + "\n")
        print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
