"""Closed-form predicates, dichotomy descriptors, verdicts."""

import pytest

from holgal import (
    CASE_ADMITS,
    CASE_I,
    CASE_II,
    CASE_III,
    CASE_IV,
    CASE_ODD_NOT_CONJUGATE,
    classify_pair,
    closure,
    dichotomy_case,
    even_predicate,
    hall_p_part,
    holomorph_group,
    make_context,
    odd_predicate,
    transitive_pairs,
)
from holgal.criteria import RECORD_COLUMNS
from holgal.subgroups import all_subgroups

C22 = make_context(2, 2)
C23 = make_context(2, 3)
C24 = make_context(2, 4)
C32 = make_context(3, 2)


class TestOddPredicate:
    def test_stabilizer_conjugate_pair(self):
        big = hall_p_part(holomorph_group(C32))  # order 27
        assert len(big) == 27
        sub = closure([(3, 4)], C32)
        assert odd_predicate(big, sub)

    def test_translation_subgroup_fails(self):
        big = hall_p_part(holomorph_group(C32))
        sub = closure([(3, 1)], C32)
        assert not odd_predicate(big, sub)

    def test_rejects_even_prime(self):
        hol = holomorph_group(C22)
        with pytest.raises(ValueError):
            odd_predicate(hol, closure([(2, 1)], C22))

    def test_rejects_wrong_index(self):
        big = holomorph_group(C32)
        with pytest.raises(ValueError):
            odd_predicate(big, closure([(3, 1)], C32))  # index 18, not 9


class TestEvenPredicate:
    def test_central_translation_admits(self):
        hol = holomorph_group(C22)
        assert even_predicate(hol, closure([(2, 1)], C22)) == (True, CASE_ADMITS)

    def test_reflection_admits_at_e2(self):
        hol = holomorph_group(C22)
        assert even_predicate(hol, closure([(1, 3)], C22)) == (True, CASE_ADMITS)

    def test_case_one_fires_on_big_translation_meet(self):
        hol = holomorph_group(C23)
        assert even_predicate(hol, closure([(2, 1)], C23)) == (False, CASE_I)

    def test_rejects_odd_prime(self):
        big = hall_p_part(holomorph_group(C32))
        with pytest.raises(ValueError):
            even_predicate(big, closure([(3, 4)], C32))

    def test_case_tallies_e2(self):
        tally = {}
        for gi, big, hi, sub in transitive_pairs(C22):
            _, case = even_predicate(big, sub)
            tally[case] = tally.get(case, 0) + 1
        assert tally == {CASE_ADMITS: 7}

    def test_case_tallies_e3(self):
        tally = {}
        for gi, big, hi, sub in transitive_pairs(C23):
            _, case = even_predicate(big, sub)
            tally[case] = tally.get(case, 0) + 1
        assert tally == {CASE_ADMITS: 53, CASE_I: 1, CASE_II: 1, CASE_III: 8}

    def test_case_four_exists_at_e4(self):
        cases = set()
        for gi, big, hi, sub in transitive_pairs(C24):
            admitted, case = even_predicate(big, sub)
            cases.add(case)
            assert admitted == (case == CASE_ADMITS)
        assert cases == {CASE_ADMITS, CASE_I, CASE_II, CASE_III, CASE_IV}


class TestDichotomy:
    def test_regular_group_is_irrelevant(self):
        desc = dichotomy_case(closure([(1, 1)], C22))
        assert desc.s == 0 and desc.branch == "irrelevant"

    def test_hol_c4_is_branch_a(self):
        desc = dichotomy_case(holomorph_group(C22))
        assert (desc.s, desc.has_full_order, desc.branch) == (1, True, "a")

    def test_hol_c8_is_branch_b_with_witness(self):
        desc = dichotomy_case(holomorph_group(C23))
        assert desc.s == 2 and desc.branch == "b"
        assert desc.witness.elements == ((0, 1), (2, 1), (4, 1), (6, 1))
        admitted, case = even_predicate(holomorph_group(C23), desc.witness)
        assert not admitted and case == CASE_I


class TestClassifyPair:
    def test_record_columns(self):
        gi, big, hi, sub = transitive_pairs(C22)[0]
        verdict = classify_pair(C22, gi, big, hi, sub)
        assert tuple(verdict.record().keys()) == RECORD_COLUMNS

    def test_case_label_matches_criteria_flag(self):
        for gi, big, hi, sub in transitive_pairs(C23):
            verdict = classify_pair(C23, gi, big, hi, sub)
            assert (verdict.case == CASE_ADMITS) == verdict.criteria
            assert verdict.agree is True

    def test_criteria_only_leaves_oracle_unset(self):
        gi, big, hi, sub = transitive_pairs(C22)[0]
        verdict = classify_pair(C22, gi, big, hi, sub, run_oracle=False)
        assert verdict.oracle is None and verdict.agree is None

    def test_odd_context_cases(self):
        seen = set()
        for gi, big, hi, sub in transitive_pairs(C32):
            verdict = classify_pair(C32, gi, big, hi, sub)
            seen.add(verdict.case)
            assert verdict.agree is True
            assert verdict.h_conj_stab == verdict.criteria
        assert seen == {CASE_ADMITS, CASE_ODD_NOT_CONJUGATE}

    def test_statistics_fields(self):
        hol = holomorph_group(C22)
        subs = all_subgroups(C22)
        gi = subs.index(hol)
        half = closure([(2, 1)], C22)
        hi = subs.index(half)
        verdict = classify_pair(C22, gi, hol, hi, half)
        assert verdict.g_order == 8 and verdict.h_order == 2
        assert verdict.g_cap_n == 4 and verdict.h_cap_n == 2
        assert verdict.s == 1
        assert verdict.has_full_order_elem and verdict.h_normal
        assert verdict.case == CASE_ADMITS


class TestPairEnumeration:
    def test_pairs_are_canonically_ordered(self):
        pairs = transitive_pairs(C23)
        keys = [(gi, hi) for gi, _, hi, _ in pairs]
        assert keys == sorted(keys)

    def test_every_pair_has_right_index(self):
        for gi, big, hi, sub in transitive_pairs(C22):
            assert len(big) == C22.n * len(sub)
            assert sub.issubset(big)
