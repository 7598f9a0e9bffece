"""The property-suite plumbing itself: result lines, reference iso search,
and planted faults that single checks must catch."""

import re

import pytest

import holgal.verify
from holgal import act, make_context, mul
from holgal.holomorph import left_coset
from holgal.oracle import abstract_group
from holgal.subgroups import closure, holomorph_group
from holgal.verify import (
    CheckResult,
    check_action_homomorphism,
    check_iso_bruteforce,
    isomorphic_bruteforce,
    run_checks,
)

C22 = make_context(2, 2)


class TestCheckResult:
    def test_pass_line(self):
        assert CheckResult("thing", True).line() == "PASS thing"

    def test_fail_line_carries_detail(self):
        assert CheckResult("thing", False, "g=[1, 3]").line() == "FAIL thing: g=[1, 3]"

    def test_info_line(self):
        assert CheckResult("thing", True, "note", informational=True).line() == "INFO thing: note"


class TestBruteforceReference:
    def test_detects_isomorphic(self):
        table = abstract_group(holomorph_group(C22))
        assert isomorphic_bruteforce(table, table)

    def test_rejects_different_groups(self):
        cyclic = abstract_group(closure([(1, 1)], C22))
        klein = abstract_group(closure([(1, 3), (2, 1)], C22))
        assert not isomorphic_bruteforce(cyclic, klein)

    def test_respects_marking(self):
        hol = holomorph_group(C22)
        from holgal.subgroups import quotient, trivial_subgroup

        central = quotient(hol, trivial_subgroup(C22), closure([(2, 1)], C22))
        reflection = quotient(hol, trivial_subgroup(C22), closure([(1, 3)], C22))
        assert not isomorphic_bruteforce(central, reflection)
        assert isomorphic_bruteforce(central, central)


class TestSuiteShape:
    def test_every_check_passes_and_names_are_unique(self):
        results = run_checks(C22)
        names = [r.name for r in results]
        assert len(set(names)) == len(names)
        assert all(r.passed for r in results)
        assert any(r.informational for r in results)  # catalog flag at e = 2

    def test_odd_suite_has_hall_checks(self):
        results = run_checks(make_context(3, 2))
        names = {r.name for r in results}
        assert "Hall conjugacy transfer" in names
        assert all(r.passed for r in results)


def parse_triple(detail):
    u, a, v, b, x = map(int, re.fullmatch(
        r"g=\[(\d+), (\d+)\] h=\[(\d+), (\d+)\] x=(\d+)", detail
    ).groups())
    return (u, a), (v, b), x


class TestActionHomomorphism:
    @pytest.mark.parametrize("pe", [(2, 1), (3, 1), (2, 3), (3, 2)])
    def test_passes_on_the_group_law(self, pe):
        assert check_action_homomorphism(make_context(*pe)).passed

    def test_wrong_product_fails_at_a_real_counterexample(self, monkeypatch):
        # v*b where the law has v*a: wrong whenever v*(b - a) != 0 mod n
        def wrong(g, elems, n):
            u, a = g
            return [((u + v * b) % n, (a * b) % n) for v, b in elems]

        monkeypatch.setattr(holgal.verify, "left_coset", wrong)
        ctx = make_context(2, 3)
        result = check_action_homomorphism(ctx)
        assert not result.passed
        g, h, x = parse_triple(result.detail)
        (product,) = wrong(g, [h], ctx.n)
        assert act(product, x, ctx) != act(g, act(h, x, ctx), ctx)
        assert act(mul(g, h, ctx), x, ctx) == act(g, act(h, x, ctx), ctx)

    @pytest.mark.parametrize("shift, outside", [(1, False), (0, True)])
    def test_product_wrong_at_a_single_h_is_named(self, monkeypatch, shift, outside):
        # the product (g0, h0) is moved by one translation step, or given a
        # multiplier that is not a unit; every other product is right
        ctx = make_context(3, 2)
        g0, h0 = (4, 5), (7, 2)

        def once_wrong(g, elems, n):
            out = left_coset(g, elems, n)
            if g == g0:
                i = elems.index(h0)
                w, c = out[i]
                out[i] = ((w + shift) % n, 3 if outside else c)
            return out

        monkeypatch.setattr(holgal.verify, "left_coset", once_wrong)
        result = check_action_homomorphism(ctx)
        assert not result.passed
        assert result.detail == "g=[4, 5] h=[7, 2] x=0"


class TestIsoBruteforce:
    def test_compares_pairs_where_quotients_are_small(self):
        result = check_iso_bruteforce(make_context(2, 3))
        assert result.line() == "PASS isomorphism search vs brute force: 60 pairs"

    def test_comparing_nothing_is_informational(self):
        result = check_iso_bruteforce(make_context(2, 4))
        assert result.passed and result.informational
        assert result.line().startswith("INFO isomorphism search vs brute force: 0 pairs")
