"""Batch driver: classify sweeps, property verification, single-pair probes.

Exit codes: 0 success (classify: all records agree), 1 disagreement or
failed check, 2 capacity/parameter error, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional

from .criteria import RECORD_COLUMNS, Verdict, classify_pair, transitive_pairs
from .holomorph import format_element, parse_element
from .oracle import pair_decision, transitive_subgroups
from .residue import make_context
from .subgroups import CapacityError, all_subgroups, closure
from .verify import run_checks

SCHEMA_VERSION = "v1"
DEFAULT_MAX_ORDER = 512


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _write_records(path: Path, fmt: str, verdicts: list[Verdict]) -> None:
    if fmt == "json":
        with open(path, "w") as handle:
            for verdict in verdicts:
                handle.write(json.dumps(verdict.record()) + "\n")
    else:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(RECORD_COLUMNS)
            for verdict in verdicts:
                record = verdict.record()
                writer.writerow([_csv_cell(record[col]) for col in RECORD_COLUMNS])


def _write_manifest(path: Path, ctx) -> None:
    subs = all_subgroups(ctx)
    manifest = {
        "schema": SCHEMA_VERSION,
        "p": ctx.p,
        "e": ctx.e,
        "hol_order": ctx.n * len(ctx.units),
        "subgroups": [
            {
                "index": i,
                "order": len(sub),
                "elements": [format_element(g) for g in sub.elements],
            }
            for i, sub in enumerate(subs)
        ],
        "transitive_indices": [i for i, _ in transitive_subgroups(ctx)],
    }
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")


def _bounded_context(args):
    """The context of args.p, args.e, after checking |Hol| against --max-order."""
    ctx = make_context(args.p, args.e)
    all_subgroups(ctx, args.max_order)
    return ctx


def _classify_chunk(args) -> list[Verdict]:
    p, e, run_oracle, lo, hi = args
    ctx = make_context(p, e)
    return [
        classify_pair(ctx, gi, big, hi_, sub, run_oracle=run_oracle)
        for gi, big, hi_, sub in transitive_pairs(ctx)[lo:hi]
    ]


def cmd_classify(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    ctx = _bounded_context(args)
    # called as _classify_chunk calls it, so forked workers hit the same cache entry
    pairs = transitive_pairs(ctx)
    run_oracle = not args.criteria_only

    if args.jobs > 1 and len(pairs) > 1:
        step = -(-len(pairs) // args.jobs)
        chunks = [
            (args.p, args.e, run_oracle, lo, min(lo + step, len(pairs)))
            for lo in range(0, len(pairs), step)
        ]
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            verdicts = [v for chunk in pool.map(_classify_chunk, chunks) for v in chunk]
    else:
        verdicts = _classify_chunk((args.p, args.e, run_oracle, 0, len(pairs)))

    fmt = args.format
    out = Path(args.out) if args.out else Path(f"holgal_classify_p{args.p}e{args.e}." + ("jsonl" if fmt == "json" else "csv"))
    _write_records(out, fmt, verdicts)
    _write_manifest(Path(str(out) + ".manifest.json"), ctx)

    tallies: dict[str, int] = {}
    for verdict in verdicts:
        tallies[verdict.case] = tallies.get(verdict.case, 0) + 1
    admits = tallies.get("ADMITS", 0)
    parts = [f"pairs={len(verdicts)}", f"admits={admits}"]
    parts += [f"{case}={count}" for case, count in sorted(tallies.items()) if case != "ADMITS"]
    if run_oracle:
        disagreements = sum(1 for v in verdicts if not v.agree)
        parts.append(f"disagreements={disagreements}")
    print(" ".join(parts))
    print(f"wrote {len(verdicts)} records to {out}")
    if run_oracle and disagreements:
        return 1
    return 0


def cmd_verify(args) -> int:
    ctx = _bounded_context(args)
    results = run_checks(ctx)
    for result in results:
        print(result.line())
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _parse_generators(text: str, ctx) -> list:
    gens = []
    for piece in text.split(";"):
        piece = piece.strip()
        if piece:
            gens.append(parse_element(piece, ctx))
    if not gens:
        raise ValueError(f"no generators in {text!r}")
    return gens


def cmd_probe(args) -> int:
    ctx = _bounded_context(args)
    subs = all_subgroups(ctx)
    big = closure(_parse_generators(args.G, ctx), ctx)
    sub = closure(_parse_generators(args.H, ctx), ctx)
    g_index, h_index = subs.index(big), subs.index(sub)
    verdict = classify_pair(ctx, g_index, big, h_index, sub)
    print(f"p={ctx.p} e={ctx.e} |Hol|={ctx.n * len(ctx.units)}")
    print(f"G: index {g_index}, order {len(big)}")
    print(f"H: index {h_index}, order {len(sub)}")
    for key, value in verdict.record().items():
        print(f"  {key} = {value}")

    report = pair_decision(big, sub)
    if report.admitted:
        witness = " ".join(format_element(g) for g in report.witness.elements)
        print(f"witness: transitive subgroup index {report.witness_index}: {witness}")
        print(f"isomorphism (quotient index -> witness index): {list(report.isomorphism)}")
    else:
        print(f"fired case: {verdict.case}")
        print(f"oracle reason: {report.reason}")
    return 0 if verdict.agree else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holgal",
        description="Decide embeddability of quotient pairs from transitive "
        "subgroups of Hol(C_{p^e}), by exhaustive oracle and closed-form criteria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    classify = sub.add_parser("classify", help="classify every (G, H) pair and emit records")
    classify.add_argument("p", type=int)
    classify.add_argument("e", type=int)
    classify.add_argument("--out", help="output path (default holgal_classify_p<p>e<e>.<ext>)")
    classify.add_argument("--format", choices=("json", "csv"), default="json")
    classify.add_argument("--criteria-only", action="store_true", help="skip the oracle")
    classify.add_argument("--jobs", type=int, default=1, help="parallel workers")
    classify.set_defaults(func=cmd_classify)

    verify = sub.add_parser("verify", help="run the structural property suite")
    verify.add_argument("p", type=int)
    verify.add_argument("e", type=int)
    verify.set_defaults(func=cmd_verify)

    probe = sub.add_parser("probe", help="classify one pair given by generators")
    probe.add_argument("p", type=int)
    probe.add_argument("e", type=int)
    probe.add_argument("--G", required=True, help='generators "[u,a];[u,a];..."')
    probe.add_argument("--H", required=True, help='generators "[u,a];[u,a];..."')
    probe.set_defaults(func=cmd_probe)

    for command in (classify, verify, probe):
        command.add_argument(
            "--max-order",
            type=int,
            default=DEFAULT_MAX_ORDER,
            help="largest |Hol| to enumerate (default %(default)s)",
        )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc} (raise it with --max-order)", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
