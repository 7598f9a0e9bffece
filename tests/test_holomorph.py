"""Element algebra: multiplication, powers, orders, commutators, the action."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from holgal import (
    IDENTITY,
    act,
    commutator,
    commute,
    element_order,
    element_order_iterative,
    format_element,
    inv,
    make_context,
    mul,
    parse_element,
    power,
)
from holgal.holomorph import compose, conjugate_each, left_coset

CONTEXTS = [make_context(2, 2), make_context(2, 3), make_context(2, 4), make_context(3, 2)]


def hol_elements(ctx):
    return [(u, a) for u in range(ctx.n) for a in ctx.units]


@st.composite
def context_and_elements(draw, count=1):
    ctx = draw(st.sampled_from(CONTEXTS))
    elems = tuple(
        (draw(st.integers(0, ctx.n - 1)), draw(st.sampled_from(ctx.units)))
        for _ in range(count)
    )
    return (ctx, *elems)


class TestMul:
    def test_reference_values(self):
        assert mul((1, 3), (1, 3), make_context(2, 2)) == (0, 1)
        assert mul((0, 3), (1, 3), make_context(2, 3)) == (3, 1)

    @given(context_and_elements(1))
    def test_identity_laws(self, data):
        ctx, g = data
        assert mul(g, IDENTITY, ctx) == g
        assert mul(IDENTITY, g, ctx) == g

    @given(context_and_elements(3))
    def test_associative(self, data):
        ctx, g, h, k = data
        assert mul(mul(g, h, ctx), k, ctx) == mul(g, mul(h, k, ctx), ctx)

    def test_rejects_invalid(self):
        ctx = make_context(2, 2)
        with pytest.raises(ValueError):
            mul((4, 1), (0, 1), ctx)
        with pytest.raises(ValueError):
            mul((0, 2), (0, 1), ctx)


class TestKernels:
    """The unchecked kernels against the validated mul and inv, on every pair."""

    @pytest.mark.parametrize("pe", [(2, 3), (3, 2), (2, 4)])
    def test_compose_matches_mul(self, pe):
        ctx = make_context(*pe)
        elems = hol_elements(ctx)
        for g in elems:
            for s in elems:
                assert compose(g, s, ctx.n) == mul(g, s, ctx)

    @pytest.mark.parametrize("pe", [(2, 3), (3, 2), (2, 4)])
    def test_left_coset_matches_mul(self, pe):
        ctx = make_context(*pe)
        elems = hol_elements(ctx)
        for g in elems:
            assert left_coset(g, elems, ctx.n) == [mul(g, s, ctx) for s in elems]

    @pytest.mark.parametrize("pe", [(2, 3), (3, 2), (2, 4)])
    def test_conjugate_each_matches_mul_and_inv(self, pe):
        ctx = make_context(*pe)
        elems = hol_elements(ctx)
        for g in elems:
            expected = [mul(mul(g, s, ctx), inv(g, ctx), ctx) for s in elems]
            assert list(conjugate_each(elems, g, ctx.n)) == expected


class TestInv:
    def test_reference_values(self):
        assert inv(IDENTITY, make_context(2, 2)) == IDENTITY
        assert inv((1, 3), make_context(2, 3)) == (5, 3)
        assert inv((0, 5), make_context(2, 4)) == (0, 13)  # 5 * 13 = 65 = 1 mod 16

    @given(context_and_elements(1))
    def test_inverse_law(self, data):
        ctx, g = data
        assert mul(g, inv(g, ctx), ctx) == IDENTITY
        assert mul(inv(g, ctx), g, ctx) == IDENTITY


class TestPower:
    def test_reference_values(self):
        ctx = make_context(2, 4)
        assert power((1, 5), 0, ctx) == IDENTITY
        assert power((1, 5), 4, ctx) == (12, 1)
        assert power((1, 3), 2, make_context(2, 3)) == (4, 1)

    @pytest.mark.parametrize("ctx", CONTEXTS)
    def test_matches_iterated_multiplication(self, ctx):
        for g in hol_elements(ctx):
            x = IDENTITY
            for k in range(2 * ctx.n + 1):
                assert power(g, k, ctx) == x
                x = mul(x, g, ctx)

    @given(context_and_elements(1), st.integers(-20, 20))
    def test_negative_exponents(self, data, k):
        ctx, g = data
        assert power(g, -k, ctx) == inv(power(g, k, ctx), ctx)


class TestAct:
    def test_reference_values(self):
        ctx = make_context(2, 3)
        assert act((1, 3), 2, ctx) == 7
        assert act(IDENTITY, 5, ctx) == 5

    @given(context_and_elements(2), st.integers(0, 100))
    def test_action_composes(self, data, x):
        ctx, g, h = data
        x %= ctx.n
        assert act(mul(g, h, ctx), x, ctx) == act(g, act(h, x, ctx), ctx)

    @given(context_and_elements(1))
    def test_base_point_reads_translation(self, data):
        ctx, g = data
        assert act(g, 0, ctx) == g[0]

    def test_stabilizer_of_base_point_means_zero_shift(self):
        ctx = make_context(2, 3)
        for g in hol_elements(ctx):
            assert (act(g, 0, ctx) == 0) == (g[0] == 0)


class TestElementOrder:
    def test_reference_values(self):
        assert element_order((1, 3), make_context(2, 3)) == 4
        assert element_order((1, 5), make_context(2, 4)) == 16
        assert element_order((3, 4), make_context(3, 2)) == 3

    @pytest.mark.parametrize("pe", [(2, 2), (2, 3), (3, 2)])
    def test_matches_iteration_exhaustively(self, pe):
        ctx = make_context(*pe)
        for g in hol_elements(ctx):
            assert element_order(g, ctx) == element_order_iterative(g, ctx)

    @given(context_and_elements(1))
    def test_power_at_order_is_identity(self, data):
        ctx, g = data
        t = element_order(g, ctx)
        assert power(g, t, ctx) == IDENTITY
        assert all(power(g, k, ctx) != IDENTITY for k in range(1, min(t, 12)))


class TestCommutator:
    def test_reference_values(self):
        ctx = make_context(2, 3)
        assert commutator((1, 3), (0, 3), ctx) == (2, 1)
        assert commutator((1, 3), (1, 3), ctx) == IDENTITY
        assert commutator((1, 3), IDENTITY, ctx) == IDENTITY

    @given(context_and_elements(2))
    def test_translation_identity(self, data):
        ctx, g, h = data
        (u, a), (v, b) = g, h
        got = commutator(g, h, ctx)
        assert got == ((u * (b - 1) - v * (a - 1)) % ctx.n, 1)

    @given(context_and_elements(2))
    def test_commute_congruence(self, data):
        ctx, g, h = data
        assert commute(g, h, ctx) == (mul(g, h, ctx) == mul(h, g, ctx))


class TestTextForm:
    def test_render(self):
        assert format_element((3, 5)) == "[3, 5]"

    @given(context_and_elements(1))
    def test_roundtrip(self, data):
        ctx, g = data
        assert parse_element(format_element(g), ctx) == g

    def test_parse_tolerates_spacing_and_negatives(self):
        ctx = make_context(2, 3)
        assert parse_element(" [ 1 ,3 ] ", ctx) == (1, 3)
        assert parse_element("[-1, -1]", ctx) == (7, 7)

    def test_parse_rejects_garbage(self):
        ctx = make_context(2, 3)
        with pytest.raises(ValueError):
            parse_element("(1, 3)", ctx)
        with pytest.raises(ValueError):
            parse_element("[1, 2]", ctx)
