"""Lattice machinery: closure, enumeration, cores, quotients, isomorphisms."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holgal import (
    AbstractGroup,
    CapacityError,
    all_subgroups,
    are_conjugate,
    center,
    closure,
    conjugates,
    core,
    derived_subgroup,
    find_isomorphism,
    generators,
    hall_p_part,
    holomorph_group,
    inv,
    is_cyclic,
    is_normal,
    is_regular,
    is_transitive,
    make_context,
    mul,
    quotient,
    quotient_cosets,
    stabilizer,
    translation_part,
    trivial_subgroup,
)
from holgal.criteria import transitive_pairs
from holgal.oracle import abstract_group, pair_quotient, transitive_subgroups_of_order
from holgal.verify import isomorphic_bruteforce

C22 = make_context(2, 2)
C23 = make_context(2, 3)
C32 = make_context(3, 2)
C24 = make_context(2, 4)
C33 = make_context(3, 3)
C52 = make_context(5, 2)

KLEIN_ELEMENTS = ((0, 1), (1, 3), (2, 1), (3, 3))


def assert_closed(sub):
    assert closure(sub.elements, sub.ctx).elements == sub.elements


def assert_is_isomorphism(mapping, first, second):
    assert sorted(mapping) == list(range(first.size))
    for i in range(first.size):
        for j in range(first.size):
            assert mapping[first.table[i][j]] == second.table[mapping[i]][mapping[j]]
    assert {mapping[i] for i in first.marked} == set(second.marked)


@lru_cache(maxsize=None)
def conjugation_map(g, ctx):
    """x -> g x g^-1 for every x in Hol, from the validated mul and inv."""
    g_inv = inv(g, ctx)
    return {x: mul(mul(g, x, ctx), g_inv, ctx) for x in holomorph_group(ctx)}


def elementwise_orbit(big, sub):
    """Member sets of g sub g^-1 for every element g of big, one by one,
    looked up in each g's conjugation map."""
    orbit = set()
    for g in big:
        image = conjugation_map(g, big.ctx)
        orbit.add(frozenset(map(image.__getitem__, sub.elements)))
    return orbit


def table_of(elements, mul) -> AbstractGroup:
    """The Cayley table of elements under mul, identity listed first."""
    index = {x: i for i, x in enumerate(elements)}
    return AbstractGroup(table=tuple(tuple(index[mul(x, y)] for y in elements) for x in elements))


def c4_semidirect_c4(x, y):
    """<a, b | a^4 = b^4 = 1, b a b^-1 = a^-1>, elements a^i b^j as (i, j)."""
    return ((x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 4)


def c2_times_q8(x, y):
    """C_2 x Q_8, Q_8 = <a, b | a^4 = 1, b^2 = a^2, b a b^-1 = a^-1>; (c, i, j) = c a^i b^j."""
    i, j = x[1] + (-1) ** x[2] * y[1], x[2] + y[2]
    return ((x[0] + y[0]) % 2, (i + 2 * (j // 2)) % 4, j % 2)


class TestClosure:
    def test_empty_generators(self):
        assert closure([], C22).elements == ((0, 1),)

    def test_translation_generator_gives_whole_translation_group(self):
        assert closure([(1, 1)], C22).elements == ((0, 1), (1, 1), (2, 1), (3, 1))

    def test_two_generators_fill_the_holomorph(self):
        assert closure([(1, 3), (0, 3)], C22) == holomorph_group(C22)

    @given(st.data())
    @settings(max_examples=40)
    def test_closure_is_closed(self, data):
        ctx = data.draw(st.sampled_from([C22, C23, C32]))
        gens = data.draw(
            st.lists(
                st.tuples(st.integers(0, ctx.n - 1), st.sampled_from(ctx.units)),
                max_size=3,
            )
        )
        sub = closure(gens, ctx)
        assert_closed(sub)
        assert all(g in sub for g in gens)
        total = ctx.n * len(ctx.units)
        assert total % len(sub) == 0


class TestEnumeration:
    def test_hol_c4_has_ten_subgroups(self):
        subs = all_subgroups(C22)
        assert len(subs) == 10
        assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 2, 2, 4, 4, 4, 8]
        for sub in subs:
            assert_closed(sub)

    def test_transitive_members_at_e2(self):
        subs = [s.elements for s in all_subgroups(C22) if is_transitive(s)]
        assert subs == [
            ((0, 1), (1, 1), (2, 1), (3, 1)),  # the translation group N
            KLEIN_ELEMENTS,
            holomorph_group(C22).elements,
        ]

    def test_lagrange_at_e3(self):
        total = C23.n * len(C23.units)
        for sub in all_subgroups(C23):
            assert total % len(sub) == 0

    def test_no_duplicates(self):
        subs = all_subgroups(C23)
        assert len({s.elements for s in subs}) == len(subs)

    def test_capacity_bound(self):
        with pytest.raises(CapacityError):
            all_subgroups(C23, max_order=16)
        # the bound is inclusive: |Hol(C_8)| = 32
        assert all_subgroups(C23, max_order=32) == all_subgroups(C23)

    # (5,1) and (7,1) have |Hol| = 20 and 42 = 2*3*7, so one subgroup is
    # extended by several primes
    @pytest.mark.parametrize("ctx", [C22, C23, C32, make_context(5, 1), make_context(7, 1)])
    def test_matches_naive_saturation(self, ctx):
        # independent enumeration: extend every subgroup by every outside
        # element and close, with no normality or prime-index shortcuts
        found = {closure([], ctx).elements}
        frontier = [closure([], ctx)]
        while frontier:
            sub = frontier.pop()
            for g in holomorph_group(ctx).elements:
                if g in sub.member_set:
                    continue
                bigger = closure(sub.elements + (g,), ctx)
                if bigger.elements not in found:
                    found.add(bigger.elements)
                    frontier.append(bigger)
        assert [s.elements for s in all_subgroups(ctx)] == sorted(
            found, key=lambda t: (len(t), t)
        )


class TestOrbits:
    def test_stabilizer_of_full_group(self):
        assert stabilizer(holomorph_group(C22)).elements == ((0, 1), (0, 3))

    def test_orbit_stabilizer_for_transitive(self):
        for sub in all_subgroups(C23):
            if is_transitive(sub):
                assert len(sub) == C23.n * len(stabilizer(sub))

    def test_regularity(self):
        assert is_regular(closure([(1, 1)], C22))
        assert is_regular(closure(KLEIN_ELEMENTS, C22))
        assert not is_regular(holomorph_group(C22))

    def test_translation_part(self):
        assert translation_part(holomorph_group(C22)).elements == (
            (0, 1), (1, 1), (2, 1), (3, 1),
        )
        assert translation_part(closure([(1, 3)], C22)).elements == ((0, 1),)

    def test_translation_bound_p2(self):
        total = C23.n * len(C23.units)
        for sub in all_subgroups(C23):
            assert len(translation_part(sub)) * total >= len(sub) * C23.n


class TestCore:
    def test_core_of_self(self):
        hol = holomorph_group(C22)
        assert core(hol, hol) == hol

    def test_central_translation_is_its_own_core(self):
        hol = holomorph_group(C22)
        half = closure([(2, 1)], C22)
        assert core(hol, half) == half
        assert is_normal(hol, half)

    def test_reflection_has_trivial_core(self):
        hol = holomorph_group(C22)
        refl = closure([(1, 3)], C22)
        assert core(hol, refl).elements == ((0, 1),)
        assert not is_normal(hol, refl)

    def test_requires_containment(self):
        with pytest.raises(ValueError):
            core(closure([(1, 1)], C22), closure([(1, 3)], C22))

    def test_maximality_by_lattice_scan(self):
        subs = all_subgroups(C22)
        for big in subs:
            for sub in subs:
                if not sub.issubset(big):
                    continue
                nucleus = core(big, sub)
                assert nucleus.issubset(sub)
                assert is_normal(big, nucleus)
                for other in subs:
                    if other.issubset(sub) and is_normal(big, other):
                        assert other.issubset(nucleus)

    def test_translation_meet_in_core(self):
        for ctx in (C22, C23, C32):
            subs = all_subgroups(ctx)
            for big in subs:
                for sub in subs:
                    if sub.issubset(big):
                        assert translation_part(sub).issubset(core(big, sub))


class TestConjugacy:
    def test_self_conjugate(self):
        hol = holomorph_group(C22)
        refl = closure([(1, 3)], C22)
        assert are_conjugate(hol, refl, refl)

    def test_size_mismatch(self):
        hol = holomorph_group(C22)
        assert not are_conjugate(hol, closure([(1, 3)], C22), closure([(1, 1)], C22))

    def test_reflections_conjugate_by_translation(self):
        hol = holomorph_group(C22)
        assert are_conjugate(hol, closure([(1, 3)], C22), closure([(3, 3)], C22))

    def test_stabilizer_not_conjugate_to_central(self):
        hol = holomorph_group(C22)
        assert not are_conjugate(hol, closure([(0, 3)], C22), closure([(2, 1)], C22))


class TestCenterAndDerived:
    def test_center_of_abelian_is_itself(self):
        n_group = closure([(1, 1)], C23)
        assert center(n_group) == n_group

    def test_dihedral_center_and_derived(self):
        hol = holomorph_group(C22)
        assert center(hol).elements == ((0, 1), (2, 1))
        assert derived_subgroup(hol).elements == ((0, 1), (2, 1))

    def test_half_translation_central_in_nonregular_transitive(self):
        half = (C23.n // 2, 1)
        for sub in all_subgroups(C23):
            if is_transitive(sub) and not is_regular(sub):
                assert half in center(sub).member_set

    def test_is_cyclic(self):
        assert is_cyclic(closure([(1, 1)], C23))
        assert not is_cyclic(closure(KLEIN_ELEMENTS, C22))


class TestGeneratorQueries:
    """The generator-based queries against their element-wise definitions."""

    @pytest.mark.parametrize("ctx", [C24, C33, C52])
    def test_generators_generate(self, ctx):
        for sub in all_subgroups(ctx):
            assert closure(generators(sub), ctx) == sub
        assert generators(trivial_subgroup(ctx)) == ()

    @pytest.mark.parametrize("ctx", [C24, C33, C52])
    def test_derived_subgroup_matches_all_commutators(self, ctx):
        n = ctx.n
        for sub in all_subgroups(ctx):
            shifts = {(u * (b - 1) - v * (a - 1)) % n for u, a in sub for v, b in sub}
            assert derived_subgroup(sub) == closure([(w, 1) for w in shifts], ctx)

    @pytest.mark.parametrize("ctx", [C24, C33])
    def test_normal_and_conjugate_match_every_conjugate(self, ctx):
        for _, big, _, sub in transitive_pairs(ctx):
            orbit = elementwise_orbit(big, sub)
            assert is_normal(big, sub) == (orbit == {sub.member_set})
            stab = stabilizer(big).member_set
            assert are_conjugate(big, sub, stabilizer(big)) == (stab in orbit)

    @pytest.mark.parametrize("ctx", [C24, C33, C52])
    def test_core_is_meet_of_every_conjugate(self, ctx):
        subs = all_subgroups(ctx)
        for big in subs:
            for sub in subs:
                if sub.issubset(big):
                    meet = frozenset.intersection(*elementwise_orbit(big, sub))
                    assert core(big, sub).member_set == meet

    @pytest.mark.parametrize("ctx", [C23, C32])
    def test_are_conjugate_matches_scan_over_big(self, ctx):
        subs = all_subgroups(ctx)
        for big in subs:
            inside = [s for s in subs if s.issubset(big)]
            for first in inside:
                orbit = elementwise_orbit(big, first)
                for second in inside:
                    if len(second) == len(first):
                        expected = second.member_set in orbit
                        assert are_conjugate(big, first, second) == expected

    @pytest.mark.parametrize("ctx", [C24, C33])
    def test_rebuilt_subgroup_equals_and_hashes_like_its_lattice_entry(self, ctx):
        for sub in all_subgroups(ctx):
            rebuilt = closure(sub.elements, ctx)
            assert rebuilt is not sub
            assert rebuilt == sub and hash(rebuilt) == hash(sub)
            assert {rebuilt: True}[sub]

    @pytest.mark.parametrize("ctx", [C24, C33])
    def test_conjugates_is_the_orbit_under_every_element(self, ctx):
        subs = all_subgroups(ctx)
        for big in subs:
            for sub in subs:
                if sub.issubset(big):
                    assert conjugates(big, sub) == elementwise_orbit(big, sub)


class TestHallPart:
    def test_hall_part_of_full_group_at_p3(self):
        part = hall_p_part(holomorph_group(C32))
        assert len(part) == 27
        assert {a for _, a in part.elements} == {1, 4, 7}

    def test_p2_is_identity(self):
        hol = holomorph_group(C23)
        assert hall_p_part(hol) == hol

    def test_transitivity_transfers(self):
        for sub in all_subgroups(C32):
            if is_transitive(sub):
                assert is_transitive(hall_p_part(sub))

    def test_index_identity_for_p_power_indices(self):
        subs = all_subgroups(C32)
        for big in subs:
            for sub in subs:
                if not sub.issubset(big):
                    continue
                index = len(big) // len(sub)
                reduced = index
                while reduced % 3 == 0:
                    reduced //= 3
                if reduced != 1:
                    continue
                assert len(hall_p_part(big)) // len(hall_p_part(sub)) == index

    def test_conjugacy_transfer(self):
        subs = all_subgroups(C32)
        for big in subs:
            nine_indexed = [
                s for s in subs if s.issubset(big) and len(s) * 9 == len(big)
            ]
            for i, first in enumerate(nine_indexed):
                for second in nine_indexed[i + 1 :]:
                    assert are_conjugate(big, first, second) == are_conjugate(
                        big, hall_p_part(first), hall_p_part(second)
                    )


class TestQuotient:
    def test_quotient_by_trivial_is_the_group_itself(self):
        hol = holomorph_group(C22)
        table = quotient(hol, trivial_subgroup(C22))
        assert table.size == 8
        table.validate()
        reps = quotient_cosets(hol, trivial_subgroup(C22))
        assert reps == hol.elements

    def test_quotient_by_self_is_trivial(self):
        hol = holomorph_group(C22)
        assert quotient(hol, hol).size == 1

    def test_hol_c4_mod_center_is_klein(self):
        hol = holomorph_group(C22)
        table = quotient(hol, closure([(2, 1)], C22))
        table.validate()
        assert table.size == 4
        assert sorted(table.element_orders) == [1, 2, 2, 2]

    def test_marked_is_image_of_designated_subgroup(self):
        hol = holomorph_group(C22)
        half = closure([(2, 1)], C22)
        stab = closure([(0, 3), (2, 1)], C22)
        table = quotient(hol, half, stab)
        assert len(table.marked) == 2
        table.validate()

    def test_rejects_non_normal(self):
        hol = holomorph_group(C22)
        with pytest.raises(ValueError):
            quotient(hol, closure([(1, 3)], C22))

    def test_rejects_marked_not_above_normal(self):
        hol = holomorph_group(C22)
        half = closure([(2, 1)], C22)
        refl = closure([(1, 3)], C22)
        with pytest.raises(ValueError):
            quotient(hol, half, refl)

    def test_identity_coset_first_and_reps_minimal(self):
        for sub in all_subgroups(C23):
            if not is_normal(holomorph_group(C23), sub):
                continue
            reps = quotient_cosets(holomorph_group(C23), sub)
            assert reps[0] == (0, 1)
            assert list(reps) == sorted(reps)


class TestFindIsomorphism:
    def test_identity_on_equal_groups(self):
        table = abstract_group(holomorph_group(C22))
        mapping = find_isomorphism(table, table)
        assert mapping is not None
        assert_is_isomorphism(mapping, table, table)

    def test_cyclic_vs_klein_is_none(self):
        cyclic = abstract_group(closure([(1, 1)], C22))
        klein = abstract_group(closure(KLEIN_ELEMENTS, C22))
        assert find_isomorphism(cyclic, klein) is None

    def test_size_mismatch_is_none(self):
        small = abstract_group(closure([(1, 1)], C22))
        big = abstract_group(holomorph_group(C22))
        assert find_isomorphism(small, big) is None

    def test_outer_automorphism_moves_reflection_pair_to_stabilizer(self):
        # D_4 with a non-central reflection pair marked embeds onto D_4 with
        # the point stabilizer marked, although the two subgroups are not
        # conjugate: an outer automorphism swaps the reflection classes.
        hol = holomorph_group(C22)
        refl = closure([(1, 3)], C22)
        assert not are_conjugate(hol, refl, stabilizer(hol))
        first = quotient(hol, trivial_subgroup(C22), refl)
        second = abstract_group(hol)
        mapping = find_isomorphism(first, second)
        assert mapping is not None
        assert_is_isomorphism(mapping, first, second)

    def test_marked_constraint_can_forbid_otherwise_isomorphic_pairs(self):
        hol = holomorph_group(C22)
        half = closure([(2, 1)], C22)  # central, order 2
        refl = closure([(1, 3)], C22)  # non-central, order 2
        first = quotient(hol, trivial_subgroup(C22), half)
        second = quotient(hol, trivial_subgroup(C22), refl)
        assert find_isomorphism(first, AbstractGroup(table=first.table)) is None
        assert find_isomorphism(first, second) is None

    def test_agrees_with_bruteforce_on_small_pairs(self):
        tables = []
        for ctx in (C22, C23):
            for sub in all_subgroups(ctx):
                if is_transitive(sub) and len(sub) <= 16:
                    tables.append(abstract_group(sub))
        for first in tables:
            for second in tables:
                fast = find_isomorphism(first, second)
                slow = isomorphic_bruteforce(first, second)
                assert (fast is not None) == slow
                if fast is not None:
                    assert_is_isomorphism(fast, first, second)

    def test_one_element_tables(self):
        trivial = AbstractGroup(table=((0,),))
        assert find_isomorphism(trivial, trivial) == (0,)

    def test_same_keys_without_isomorphism_is_none(self):
        # Both groups have center C_2 x C_2, three involutions and twelve
        # elements of order 4, so every candidate image shares its key; the
        # generator images must be rejected by the relations between them.
        first = table_of([(i, j) for i in range(4) for j in range(4)], c4_semidirect_c4)
        second = table_of(
            [(c, i, j) for c in range(2) for i in range(4) for j in range(2)], c2_times_q8
        )
        first.validate()
        second.validate()
        assert first.profile == second.profile
        assert not isomorphic_bruteforce(first, second)
        assert find_isomorphism(first, second) is None
        assert find_isomorphism(second, first) is None

    @pytest.mark.parametrize("ctx", [C23, C32, C24], ids=lambda c: f"p{c.p}e{c.e}")
    def test_agrees_with_bruteforce_on_oracle_inputs(self, ctx):
        # The oracle's own calls: each pair's core quotient against every
        # transitive model of the same order, up to order 16.  A returned map
        # that checks out as a marked isomorphism proves the brute-force answer
        # is True, and different element orders prove it is False, so brute
        # force runs only where it decides something: a None from the search
        # against a model with the same element orders.  (Brute force can take
        # seconds to confirm an isomorphism of order 16, or to refute one
        # between groups whose element orders differ.)
        pairs = {pair_quotient(big, sub) for _, big, _, sub in transitive_pairs(ctx)}
        found = 0
        for pair in pairs:
            if pair.size > 16:
                continue
            for model in map(abstract_group, transitive_subgroups_of_order(ctx, pair.size)):
                fast = find_isomorphism(pair, model)
                if fast is not None:
                    assert_is_isomorphism(fast, pair, model)
                    found += 1
                elif sorted(pair.element_orders) == sorted(model.element_orders):
                    assert not isomorphic_bruteforce(pair, model)
        assert found > 0
