"""Closed-form predicates deciding embeddability from structural statistics.

No search happens here: every decision reads off sizes, normality and
element orders of the pair (G, H).  The oracle module answers the same
question by exhaustive search; the two are cross-validated in the test and
verify suites.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Optional

from .holomorph import element_order
from .residue import GroupContext, padic_valuation
from .subgroups import (
    Subgroup,
    all_subgroups,
    are_conjugate,
    closure,
    derived_subgroup,
    is_normal,
    is_transitive,
    stabilizer,
    translation_part,
)
from .oracle import pair_decision, transitive_subgroups

CASE_ADMITS = "ADMITS"
CASE_I = "CASE_I"
CASE_II = "CASE_II"
CASE_III = "CASE_III"
CASE_IV = "CASE_IV"
CASE_ODD_NOT_CONJUGATE = "ODD_NOT_CONJUGATE"

ALL_CASES = (CASE_ADMITS, CASE_I, CASE_II, CASE_III, CASE_IV, CASE_ODD_NOT_CONJUGATE)


@lru_cache(maxsize=None)
def has_full_order_element(group: Subgroup) -> bool:
    """True iff the subgroup contains an element of order n = p^e."""
    n = group.ctx.n
    return any(element_order(g, group.ctx) == n for g in group.elements)


def _check_pair(big: Subgroup, sub: Subgroup) -> GroupContext:
    ctx = big.ctx
    if sub.ctx != ctx:
        raise ValueError("pair lives in different contexts")
    if not sub.issubset(big):
        raise ValueError("H is not contained in G")
    if not is_transitive(big):
        raise ValueError("G must be transitive")
    if len(sub) * ctx.n != len(big):
        raise ValueError(f"H must have index {ctx.n} in G")
    return ctx


def odd_predicate(big: Subgroup, sub: Subgroup) -> bool:
    """Embeddability for odd p: H must be conjugate to the stabilizer in G."""
    ctx = _check_pair(big, sub)
    if ctx.p == 2:
        raise ValueError("odd_predicate requires an odd prime")
    return are_conjugate(big, sub, stabilizer(big))


def even_predicate(big: Subgroup, sub: Subgroup) -> tuple[bool, str]:
    """Embeddability for p = 2, with the failure case that fired.

    Failure cases, keyed on |H meet translations| and checked in order:
      I    the meet has size >= 4
      II   size 2 and G has no element of order 2^e
      III  size 2 and H is not normal in G
      IV   size 1, H generated by an odd-shift point reflection, |G| = 2^(e+1),
           stabilizer = <(0, 1 + 2^(e-1))>, and the translation meet of G is
           large (>= 8, or = 4 with derived subgroup of size 4)
    """
    ctx = _check_pair(big, sub)
    if ctx.p != 2:
        raise ValueError("even_predicate requires p = 2")
    meet = len(translation_part(sub))
    if meet >= 4:
        return False, CASE_I
    if meet == 2:
        if not has_full_order_element(big):
            return False, CASE_II
        if not is_normal(big, sub):
            return False, CASE_III
        return True, CASE_ADMITS
    if _fires_case_iv(big, sub, ctx):
        return False, CASE_IV
    return True, CASE_ADMITS


def _fires_case_iv(big: Subgroup, sub: Subgroup, ctx: GroupContext) -> bool:
    n = ctx.n
    if len(sub) != 2:
        return False
    u, a = sub.elements[1]  # the non-identity element; identity sorts first
    if a != n - 1 or u % 2 == 0:
        return False
    if len(big) != 2 * n:
        return False
    half_unit = (1 + n // 2) % n
    if stabilizer(big).member_set != frozenset({(0, 1), (0, half_unit)}):
        return False
    big_meet = len(translation_part(big))
    if big_meet >= 8:
        return True
    return big_meet == 4 and len(derived_subgroup(big)) == 4


@dataclass(frozen=True)
class DichotomyDescriptor:
    """Shape of a transitive 2-group G: s, full-order flag, predicted branch."""

    s: int
    has_full_order: bool
    branch: str  # "a" (all pairs admit), "b" (a normal witness fails), "irrelevant"
    witness: Optional[Subgroup] = None


def dichotomy_case(big: Subgroup) -> DichotomyDescriptor:
    """Classify a transitive subgroup for p = 2 by (s, full-order element).

    Branch "a" predicts every index-2^e subgroup admits; branch "b" carries
    the witness <translation by 2^(e-s)> that must fail; regular groups
    (s = 0) are out of scope since their only index-2^e subgroup is trivial.
    """
    ctx = big.ctx
    if ctx.p != 2:
        raise ValueError("dichotomy_case requires p = 2")
    if not is_transitive(big):
        raise ValueError("dichotomy_case requires a transitive subgroup")
    s = len(big).bit_length() - 1 - ctx.e
    full = has_full_order_element(big)
    if s == 0:
        return DichotomyDescriptor(s=s, has_full_order=full, branch="irrelevant")
    if s == 1 and full:
        return DichotomyDescriptor(s=s, has_full_order=full, branch="a")
    witness = closure([(2 ** (ctx.e - s) % ctx.n, 1)], ctx)
    return DichotomyDescriptor(s=s, has_full_order=full, branch="b", witness=witness)


@dataclass(frozen=True)
class Verdict:
    """One classified (G, H) pair: statistics, both answers, fired case."""

    p: int
    e: int
    g_index: int
    h_index: int
    g_order: int
    h_order: int
    h_cap_n: int
    g_cap_n: int
    s: int
    has_full_order_elem: bool
    h_normal: bool
    h_conj_stab: bool
    case: str
    oracle: Optional[bool]
    criteria: bool
    agree: Optional[bool]

    def record(self) -> dict:
        """Flat emission record (the JSON-lines / CSV row)."""
        return {name: getattr(self, name) for name in RECORD_COLUMNS}


RECORD_COLUMNS = tuple(f.name for f in fields(Verdict))


def classify_pair(
    ctx: GroupContext,
    g_index: int,
    big: Subgroup,
    h_index: int,
    sub: Subgroup,
    run_oracle: bool = True,
) -> Verdict:
    """Build the full verdict for one (G, H) pair."""
    if ctx.p == 2:
        crit, case = even_predicate(big, sub)
    else:
        crit = odd_predicate(big, sub)
        case = CASE_ADMITS if crit else CASE_ODD_NOT_CONJUGATE
    oracle_answer: Optional[bool] = None
    if run_oracle:
        oracle_answer = pair_decision(big, sub).admitted
    return Verdict(
        p=ctx.p,
        e=ctx.e,
        g_index=g_index,
        h_index=h_index,
        g_order=len(big),
        h_order=len(sub),
        h_cap_n=len(translation_part(sub)),
        g_cap_n=len(translation_part(big)),
        s=int(padic_valuation(len(big), ctx.p)) - ctx.e,
        has_full_order_elem=has_full_order_element(big),
        h_normal=is_normal(big, sub),
        h_conj_stab=are_conjugate(big, sub, stabilizer(big)),
        case=case,
        oracle=oracle_answer,
        criteria=crit,
        agree=None if oracle_answer is None else oracle_answer == crit,
    )


@lru_cache(maxsize=None)
def transitive_pairs(
    ctx: GroupContext, max_order: Optional[int] = None
) -> tuple[tuple[int, Subgroup, int, Subgroup], ...]:
    """All (g_index, G, h_index, H) with G transitive and [G : H] = n."""
    subs = all_subgroups(ctx, max_order)
    out = []
    for gi, big in transitive_subgroups(ctx):
        h_order = len(big) // ctx.n
        for hi, sub in enumerate(subs):
            if len(sub.elements) == h_order and sub.member_set <= big.member_set:
                out.append((gi, big, hi, sub))
    return tuple(out)
