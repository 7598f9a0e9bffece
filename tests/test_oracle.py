"""Exhaustive embedding oracle: witnesses, pre-filters, regular-subgroup labels."""

import pytest

from holgal import (
    AbstractGroup,
    all_subgroups,
    closure,
    find_isomorphism,
    holomorph_group,
    make_context,
    quotient,
    transitive_pairs,
    trivial_subgroup,
)
from holgal.oracle import (
    abstract_group,
    oracle_decision,
    pair_decision,
    pair_quotient,
    regular_catalog,
    regular_subgroups,
    transitive_subgroups,
    transitive_subgroups_of_order,
)

C22 = make_context(2, 2)
C23 = make_context(2, 3)
C32 = make_context(3, 2)

KLEIN = ((0, 1), (1, 3), (2, 1), (3, 3))


class TestTransitiveSubgroups:
    def test_order_four_members(self):
        subs = transitive_subgroups_of_order(C22, 4)
        assert {s.elements for s in subs} == {
            ((0, 1), (1, 1), (2, 1), (3, 1)),
            KLEIN,
        }

    def test_whole_group(self):
        subs = transitive_subgroups_of_order(C22, 8)
        assert subs == (holomorph_group(C22),)

    def test_below_degree_is_empty(self):
        assert transitive_subgroups_of_order(C22, 2) == ()

    def test_indices_are_lattice_positions(self):
        lattice = all_subgroups(C23)
        for idx, sub in transitive_subgroups(C23):
            assert lattice[idx] == sub


class TestAdmits:
    def test_translation_group_admits_itself(self):
        pair = abstract_group(closure([(1, 1)], C22))
        assert oracle_decision(pair, C22).admitted

    def test_klein_quotient_admits(self):
        hol = holomorph_group(C22)
        pair = quotient(hol, closure([(2, 1)], C22))
        assert oracle_decision(pair, C22).admitted

    def test_dihedral_with_reflection_mark_admits(self):
        hol = holomorph_group(C22)
        refl = closure([(1, 3)], C22)
        pair = quotient(hol, trivial_subgroup(C22), refl)
        report = oracle_decision(pair, C22)
        assert report.admitted
        assert report.witness is not None and report.isomorphism is not None
        model = abstract_group(report.witness)
        mapping = report.isomorphism
        for i in range(pair.size):
            for j in range(pair.size):
                assert mapping[pair.table[i][j]] == model.table[mapping[i]][mapping[j]]

    def test_big_translation_meet_fails(self):
        hol = holomorph_group(C23)
        sub = closure([(2, 1)], C23)
        assert not pair_decision(hol, sub).admitted

    def test_size_incompatibility_is_definite_false(self):
        table = AbstractGroup(table=((0, 1), (1, 0)))  # C_2, marked trivial
        report = oracle_decision(table, C22)
        assert not report.admitted
        assert "size incompatible" in report.reason

    def test_self_witness_everywhere(self):
        for ctx in (C22, C23, C32):
            for _, sub in transitive_subgroups(ctx):
                assert oracle_decision(abstract_group(sub), ctx).admitted

    def test_conjugacy_reduction_preserves_answers(self):
        # the oracle tries one model per Hol-class; the reference scans them all
        for ctx in (C23, C32):
            for _, big, _, sub in transitive_pairs(ctx):
                pair = pair_quotient(big, sub)
                scan = any(
                    find_isomorphism(pair, abstract_group(model)) is not None
                    for model in transitive_subgroups_of_order(ctx, pair.size)
                )
                assert oracle_decision(pair, ctx).admitted == scan

    @pytest.mark.parametrize("pe", [(2, 3), (3, 2), (2, 4)])
    def test_witness_is_lowest_isomorphic_index(self, pe):
        # probe prints this witness, so it must not depend on which class
        # members the search keeps
        ctx = make_context(*pe)
        admitted = 0
        for _, big, _, sub in transitive_pairs(ctx):
            pair = pair_quotient(big, sub)
            report = oracle_decision(pair, ctx)
            if not report.admitted:
                continue
            lowest = min(
                idx
                for idx, model in transitive_subgroups(ctx)
                if find_isomorphism(pair, abstract_group(model)) is not None
            )
            assert report.witness_index == lowest
            admitted += 1
        assert admitted > 0

    @pytest.mark.parametrize("pe", [(2, 3), (3, 2), (2, 4)])
    def test_pair_decision_is_the_core_quotient_decision(self, pe):
        ctx = make_context(*pe)
        for _, big, _, sub in transitive_pairs(ctx):
            cached = pair_decision(big, sub)
            direct = oracle_decision(pair_quotient(big, sub), ctx)
            assert (cached.admitted, cached.reason) == (direct.admitted, direct.reason)
            assert cached.witness_index == direct.witness_index
            assert cached.isomorphism == direct.isomorphism

    def test_missing_halfway_order_forces_rejection(self):
        threshold = 2 ** (C23.e - 1)
        checked = 0
        for _, big, _, sub in transitive_pairs(C23):
            pair = pair_quotient(big, sub)
            if threshold not in pair.element_orders:
                assert not oracle_decision(pair, C23).admitted
                checked += 1
        assert checked > 0


class TestRegularSubgroups:
    def test_labels_at_e2(self):
        labelled = {sub.elements: label for sub, label in regular_subgroups(C22)}
        assert labelled == {
            ((0, 1), (1, 1), (2, 1), (3, 1)): "C4",
            KLEIN: "C2xC2",
        }

    def test_all_have_order_n(self):
        for ctx in (C22, C23, C32):
            for sub, _ in regular_subgroups(ctx):
                assert len(sub) == ctx.n

    def test_classes_at_e3(self):
        labels = {label for _, label in regular_subgroups(C23)}
        assert labels == {"C8", "C4xC2", "D8", "Q8"}

    def test_odd_p_regulars_are_cyclic(self):
        assert {label for _, label in regular_subgroups(C32)} == {"C9"}


class TestCatalog:
    @pytest.mark.parametrize("pe", [(2, 2), (2, 3), (2, 4), (3, 2)])
    def test_tables_are_groups(self, pe):
        ctx = make_context(*pe)
        for name, model in regular_catalog(ctx):
            model.validate()
            assert model.size == ctx.n

    def test_entries_pairwise_non_isomorphic(self):
        ctx = make_context(2, 4)
        entries = regular_catalog(ctx)
        assert len(entries) == 6
        for i, (_, first) in enumerate(entries):
            for _, second in entries[i + 1 :]:
                assert find_isomorphism(first, second) is None

    def test_entries_have_cyclic_index_two_subgroup(self):
        ctx = make_context(2, 4)
        for name, model in regular_catalog(ctx):
            assert max(model.element_orders) >= ctx.n // 2
