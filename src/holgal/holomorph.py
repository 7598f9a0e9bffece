"""Element algebra of Hol(C_{p^e}) = translations x automorphisms.

An element is a plain pair (u, a): it acts on Z/p^e by x -> u + a*x, so u is
the translation part and a the multiplier (a coprime to p).  The identity is
(0, 1) and the point stabilizer of 0 is exactly {(0, a)}.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from .residue import (
    GroupContext,
    capped_valuation,
    geometric_sum,
    padic_valuation,
    unit_order,
)

HolElement = tuple[int, int]

IDENTITY: HolElement = (0, 1)


def validate_element(g: HolElement, ctx: GroupContext) -> None:
    """Raise ValueError unless g is a canonical element of Hol for ctx."""
    u, a = g
    if not (0 <= u < ctx.n):
        raise ValueError(f"translation part {u} out of range for n = {ctx.n}")
    if a not in ctx.unit_set:
        raise ValueError(f"multiplier {a} is not a unit mod {ctx.n}")


def compose(g: HolElement, h: HolElement, n: int) -> HolElement:
    """Unchecked g*h mod n, where h acts first on points: (u,a)(v,b) = (u + v*a, a*b)."""
    return (g[0] + h[0] * g[1]) % n, (g[1] * h[1]) % n


def left_coset(g: HolElement, elems: Iterable[HolElement], n: int) -> list[HolElement]:
    """Unchecked [g*s for s in elems], in order."""
    u, a = g
    return [((u + v * a) % n, (a * b) % n) for v, b in elems]


def conjugate_each(elems: Iterable[HolElement], g: HolElement, n: int) -> Iterator[HolElement]:
    """Unchecked g*s*g^-1 for s in elems, lazily.  Units commute, so no inverse
    is needed: (u,a)(v,b)(u,a)^-1 = (u + v*a - b*u, b)."""
    u, a = g
    return (((u + v * a - b * u) % n, b) for v, b in elems)


def mul(g: HolElement, h: HolElement, ctx: GroupContext) -> HolElement:
    """Product g*h, where h acts first on points: (u,a)(v,b) = (u + v*a, a*b)."""
    validate_element(g, ctx)
    validate_element(h, ctx)
    return compose(g, h, ctx.n)


def inv(g: HolElement, ctx: GroupContext) -> HolElement:
    """Inverse: (-u * a^-1 mod n, a^-1 mod n)."""
    validate_element(g, ctx)
    u, a = g
    ainv = pow(a, -1, ctx.n)
    return (-u * ainv) % ctx.n, ainv


def power(g: HolElement, k: int, ctx: GroupContext) -> HolElement:
    """k-th power via the geometric-sum formula: (u*sum(a,k), a^k)."""
    validate_element(g, ctx)
    if k < 0:
        return power(inv(g, ctx), -k, ctx)
    u, a = g
    return (u * geometric_sum(a, k, ctx)) % ctx.n, pow(a, k, ctx.n)


def act(g: HolElement, x: int, ctx: GroupContext) -> int:
    """Image of the point x under g: u + a*x mod n."""
    validate_element(g, ctx)
    u, a = g
    return (u + a * x) % ctx.n


def element_order(g: HolElement, ctx: GroupContext) -> int:
    """Order of g in Hol.

    For a = 1 mod p the closed form applies: the translation part dies after
    p^(e - v) steps where v is the (capped) valuation of u, corrected by
    v_2((a+1)/2) when p = 2 and a = 3 mod 4.  Other multipliers (odd p only)
    fall back to iteration.
    """
    validate_element(g, ctx)
    u, a = g
    p, e = ctx.p, ctx.e
    if a % p != 1:
        return element_order_iterative(g, ctx)
    mult_order = unit_order(a, ctx)
    drop = capped_valuation(u, ctx)
    if p == 2 and a % 4 == 3:
        drop += padic_valuation((a + 1) // 2, 2)
    return max(p ** max(e - drop, 0), mult_order)


def element_order_iterative(g: HolElement, ctx: GroupContext) -> int:
    """Order of g by repeated multiplication (reference path)."""
    validate_element(g, ctx)
    n = ctx.n
    x, t = g, 1
    while x != IDENTITY:
        x = compose(x, g, n)
        t += 1
    return t


def commutator(g: HolElement, h: HolElement, ctx: GroupContext) -> HolElement:
    """h*g*h^-1*g^-1; always a pure translation (u(b-1) - v(a-1), 1)."""
    return mul(mul(h, g, ctx), inv(mul(g, h, ctx), ctx), ctx)


def commute(g: HolElement, h: HolElement, ctx: GroupContext) -> bool:
    """True iff g and h commute, via u(b-1) = v(a-1) mod n."""
    validate_element(g, ctx)
    validate_element(h, ctx)
    (u, a), (v, b) = g, h
    return (u * (b - 1) - v * (a - 1)) % ctx.n == 0


def format_element(g: HolElement) -> str:
    """Render as "[u, a]"."""
    return f"[{g[0]}, {g[1]}]"


_ELEMENT_RE = re.compile(r"^\s*\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]\s*$")


def parse_element(text: str, ctx: GroupContext) -> HolElement:
    """Parse "[u, a]" (whitespace tolerant), reducing u and a mod n."""
    m = _ELEMENT_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse element from {text!r}; expected '[u, a]'")
    u, a = int(m.group(1)) % ctx.n, int(m.group(2)) % ctx.n
    validate_element((u, a), ctx)
    return u, a
