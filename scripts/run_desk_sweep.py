#!/usr/bin/env python3
"""Run the full desk-scale sweep: classify + verify every standard context.

Writes classification tables and manifests into results/ and prints one
summary line per context.  Pass --stretch to add (2,5), (5,2), (3,3) and
(7,2), where |Hol| is 512, 500, 486 and 2058: about 32 s more on a 2-vCPU
machine, 21 s of it in `verify 7 2`.  Each command gets --max-order equal
to its |Hol|.  Runs from a checkout without installing: the checkout's src/
goes on the import path.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from holgal.cli import main as holgal_main  # noqa: E402

STANDARD = [(2, 2), (2, 3), (2, 4), (3, 2)]
STRETCH = [(2, 5), (5, 2), (3, 3), (7, 2)]


def run(argv) -> int:
    code = holgal_main([str(a) for a in argv])
    if code != 0:
        print(f"command {argv} exited {code}", file=sys.stderr)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stretch", action="store_true", help="include the large contexts")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    contexts = STANDARD + (STRETCH if args.stretch else [])

    worst = 0
    for p, e in contexts:
        # exactly |Hol| = n * phi(n), n = p^e: the CLI's default bound of 512 rejects (7, 2)
        bound = ["--max-order", p**e * p ** (e - 1) * (p - 1)]
        started = time.time()
        out = out_dir / f"classify_p{p}e{e}.jsonl"
        code = run(["classify", p, e, "--out", out, "--jobs", args.jobs, *bound])
        worst = max(worst, code)
        print(f"[classify p={p} e={e}] exit {code} in {time.time() - started:.1f}s -> {out}")
        started = time.time()
        code = run(["verify", p, e, *bound])
        worst = max(worst, code)
        print(f"[verify   p={p} e={e}] exit {code} in {time.time() - started:.1f}s")
    return worst


if __name__ == "__main__":
    sys.exit(main())
