"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Stretch contexts (|Hol| = 512 and p^e = 25) run only when the
HOLGAL_STRETCH environment variable is set to 1.
"""

import json
import os
import time

import pytest

from holgal import make_context
from holgal.cli import main
from holgal.oracle import regular_catalog, regular_subgroups
from holgal.verify import (
    CheckResult,
    check_center_commutator,
    check_center_structure,
    check_centralizer_sizes,
    check_dichotomy,
    check_equivalence,
    check_hall_properties,
    check_no_full_order_congruence,
    check_order_formula,
    check_power_formula,
    check_regular_classes,
    check_residue_formulas,
    check_transitive_element_orders,
)

STRETCH = os.environ.get("HOLGAL_STRETCH") == "1"

FORMULA_CONTEXTS = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (2, 5)]  # p^e in {4..32}


def _criterion(number: int, name: str, results, elapsed=None, budget=None):
    failed = [r for r in results if not r.passed]
    status = "PASS" if not failed else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {number} ({name}): {status}{timing}")
    for result in failed:
        print("  " + result.line())
    assert not failed, f"criterion {number}: {[r.line() for r in failed]}"
    if budget is not None and elapsed is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"


def test_criterion_1_formula_equivalence():
    """Closed forms match iterative/big-integer oracles, all elements, k <= 2n."""
    start = time.time()
    results = []
    for p, e in FORMULA_CONTEXTS:
        ctx = make_context(p, e)
        results.append(check_power_formula(ctx))
        results.append(check_order_formula(ctx))
        results.extend(check_residue_formulas(ctx, kmax=2 * ctx.n))
    _criterion(1, "power/order/valuation formulas", results, time.time() - start, budget=10.0)


def test_criterion_2_even_equivalence():
    """Criteria equal the oracle on every pair, e in {2, 3, 4}; exact."""
    start = time.time()
    results = [check_equivalence(make_context(2, e)) for e in (2, 3, 4)]
    _criterion(2, "even-case criteria/oracle equivalence", results, time.time() - start)


@pytest.mark.skipif(not STRETCH, reason="stretch context |Hol| = 512; set HOLGAL_STRETCH=1")
def test_criterion_2_stretch_e5():
    start = time.time()
    results = [check_equivalence(make_context(2, 5))]
    _criterion(2, "even-case criteria/oracle equivalence, stretch e=5", results, time.time() - start)


def test_criterion_3_odd_equivalence():
    """Conjugacy-to-stabilizer equals the oracle at p^e = 9; exact, < 1 min."""
    start = time.time()
    results = [check_equivalence(make_context(3, 2))]
    _criterion(3, "odd-case criteria/oracle equivalence", results, time.time() - start, budget=60.0)


@pytest.mark.skipif(not STRETCH, reason="stretch context p^e = 25; set HOLGAL_STRETCH=1")
def test_criterion_3_stretch_25():
    start = time.time()
    results = [check_equivalence(make_context(5, 2))]
    _criterion(3, "odd-case criteria/oracle equivalence, stretch p^e=25", results, time.time() - start)


def test_criterion_4_dichotomy():
    """Branch (a) admits everything; branch (b) rejects the translation witness."""
    start = time.time()
    results = [check_dichotomy(make_context(2, e)) for e in (2, 3, 4)]
    _criterion(4, "dichotomy", results, time.time() - start)


def test_criterion_5_structural_properties():
    """Centers, commutators, order bounds, congruences and centralizers, e <= 4."""
    start = time.time()
    results = []
    for e in (2, 3, 4):
        ctx = make_context(2, e)
        results.append(check_center_structure(ctx))
        results.append(check_center_commutator(ctx))
        results.append(check_transitive_element_orders(ctx))
        results.append(check_no_full_order_congruence(ctx))
        results.append(check_centralizer_sizes(ctx))
    _criterion(5, "structural property suite", results, time.time() - start)


def test_criterion_6_hall_suite():
    """Hall-part transitivity, index identity and conjugacy transfer at p^e = 9."""
    start = time.time()
    results = check_hall_properties(make_context(3, 2))
    results.append(check_transitive_element_orders(make_context(3, 2)))
    _criterion(6, "Hall-part suite", results, time.time() - start)


def test_criterion_7_regular_classes():
    """Regular subgroups realize exactly the cyclic-index-2 catalog, e in {3, 4};
    e = 2 classes are recorded and the catalog clause flagged, not asserted."""
    start = time.time()
    results = [check_regular_classes(make_context(2, e)) for e in (3, 4)]
    flagged = check_regular_classes(make_context(2, 2))
    assert flagged.informational and "flagged" in flagged.detail
    labels = sorted({label for _, label in regular_subgroups(make_context(2, 2))})
    assert labels == ["C2xC2", "C4"]
    for e in (3, 4):
        ctx = make_context(2, e)
        assert sorted({label for _, label in regular_subgroups(ctx)}) == sorted(
            name for name, _ in regular_catalog(ctx)
        )
    results.append(flagged)
    _criterion(7, "regular subgroup isomorphism classes", results, time.time() - start, budget=60.0)


def test_criterion_8_determinism(tmp_path):
    """classify 2 3 is byte-identical across runs, including with --jobs 8."""
    start = time.time()
    paths = [tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl")]
    assert main(["classify", "2", "3", "--out", str(paths[0])]) == 0
    assert main(["classify", "2", "3", "--out", str(paths[1])]) == 0
    assert main(["classify", "2", "3", "--out", str(paths[2]), "--jobs", "8"]) == 0
    blobs = [p.read_bytes() for p in paths]
    manifest_blobs = [(tmp_path / (p.name + ".manifest.json")).read_bytes() for p in paths]
    identical = blobs[0] == blobs[1] == blobs[2] and (
        manifest_blobs[0] == manifest_blobs[1] == manifest_blobs[2]
    )
    records = [json.loads(line) for line in blobs[0].decode().splitlines()]
    agree = all(r["agree"] is True for r in records)
    result = CheckResult(
        "byte-identical classify output, sequential and --jobs 8",
        identical and agree,
        f"{len(records)} records",
    )
    _criterion(8, "determinism", [result], time.time() - start)
