"""Ground truth by exhaustive search over transitive subgroups.

Given an abstract group with a marked subgroup, decide whether it is
isomorphic to some transitive subgroup of Hol with the marked part carried
exactly onto the point stabilizer.  Hol-conjugate transitive subgroups give
isomorphic marked pairs, so the search tries one model per Hol-conjugacy
class.  Failure reports name the strongest pre-filter that fired, success
reports carry a witness and the isomorphism.

A pair (G, H) of subgroups of Hol poses this question for (G/C, H/C), with C
the core of H in G.  `pair_quotient` builds that marked table and
`pair_decision` answers it, cached per pair; `oracle_decision` answers it for
any marked table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .residue import GroupContext
from .subgroups import (
    AbstractGroup,
    Subgroup,
    all_subgroups,
    conjugates,
    core,
    find_isomorphism,
    holomorph_group,
    is_regular,
    is_transitive,
    quotient,
    stabilizer,
    trivial_subgroup,
)


@lru_cache(maxsize=None)
def transitive_subgroups(ctx: GroupContext) -> tuple[tuple[int, Subgroup], ...]:
    """All transitive subgroups with their canonical lattice indices."""
    return tuple(
        (i, sub) for i, sub in enumerate(all_subgroups(ctx)) if is_transitive(sub)
    )


def transitive_subgroups_of_order(ctx: GroupContext, order: int) -> tuple[Subgroup, ...]:
    return tuple(sub for _, sub in transitive_subgroups(ctx) if len(sub) == order)


def abstract_group(group: Subgroup) -> AbstractGroup:
    """Cayley table of a subgroup with its point stabilizer marked."""
    return quotient(group, trivial_subgroup(group.ctx), stabilizer(group))


@lru_cache(maxsize=None)
def _transitive_models(ctx: GroupContext):
    """(lattice index, subgroup, stabilizer-marked table), one per Hol-class.

    A Hol-conjugate of a transitive subgroup, marked at its point stabilizer,
    is isomorphic to the original as a marked pair (any point stabilizer is
    conjugate to the base one by transitivity), so one model per class
    decides every pair.  Each class is kept as its first member in lattice
    order; the lowest-indexed transitive subgroup isomorphic to a pair is
    therefore always a kept model, and it is the witness the search reports.
    """
    hol = holomorph_group(ctx)
    seen: set[frozenset] = set()
    models = []
    for idx, sub in transitive_subgroups(ctx):
        if sub.member_set not in seen:
            seen |= conjugates(hol, sub)
            models.append((idx, sub, abstract_group(sub)))
    return tuple(models)


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one embedding search, with audit trail."""

    admitted: bool
    reason: str
    witness_index: Optional[int] = None
    witness: Optional[Subgroup] = None
    isomorphism: Optional[tuple[int, ...]] = None


def _decide(pair: AbstractGroup, ctx: GroupContext) -> OracleReport:
    size = pair.size
    if size % ctx.n != 0 or len(pair.marked) * ctx.n != size:
        return OracleReport(
            admitted=False,
            reason=f"size incompatible: |group| = {size}, |marked| = {len(pair.marked)}, "
            f"need |group| = {ctx.n} * |marked|",
        )
    models = [m for m in _transitive_models(ctx) if m[2].size == size]
    if not models:
        return OracleReport(
            admitted=False, reason=f"no transitive subgroup of order {size} exists"
        )
    survivors = [m for m in models if m[2].profile == pair.profile]
    if not survivors:
        return OracleReport(
            admitted=False,
            reason="order/centrality/marking profile matches no transitive subgroup",
        )
    for idx, sub, model in survivors:
        iso = find_isomorphism(pair, model)
        if iso is not None:
            return OracleReport(
                admitted=True,
                reason="isomorphism found",
                witness_index=idx,
                witness=sub,
                isomorphism=iso,
            )
    return OracleReport(
        admitted=False,
        reason=f"backtracking exhausted over {len(survivors)} profile-matching candidates",
    )


def oracle_decision(pair: AbstractGroup, ctx: GroupContext) -> OracleReport:
    """Full report for one marked table against the transitive models."""
    return _decide(pair, ctx)


def pair_quotient(big: Subgroup, sub: Subgroup) -> AbstractGroup:
    """(G/C, H/C) as a marked table, C the core of H in G."""
    return quotient(big, core(big, sub), sub)


@lru_cache(maxsize=None)
def pair_decision(big: Subgroup, sub: Subgroup) -> OracleReport:
    """Full report for the pair (G, H); the index is not checked here, a
    mismatch is reported as "size incompatible"."""
    return _decide(pair_quotient(big, sub), big.ctx)


# ---------------------------------------------------------------------------
# Regular subgroups and their isomorphism classes


def _cyclic_table(m: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple((i + j) % m for j in range(m)) for i in range(m))


def _metacyclic_table(m: int, twist: int, square: int) -> tuple[tuple[int, ...], ...]:
    """Order-2m group <r, s | r^m = 1, s^2 = r^square, s r s^-1 = r^twist>."""
    size = 2 * m
    rows = []
    for k1 in range(size):
        i1, j1 = k1 % m, k1 // m
        row = []
        for k2 in range(size):
            i2, j2 = k2 % m, k2 // m
            i = (i1 + (twist if j1 else 1) * i2 + (square if j1 and j2 else 0)) % m
            row.append(i + m * (j1 ^ j2))
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def regular_catalog(ctx: GroupContext) -> tuple[tuple[str, AbstractGroup], ...]:
    """The order-n groups having a cyclic subgroup of index 2 (plus C_n itself).

    For p = 2 and e >= 4 these are six distinct groups: cyclic, cyclic x C2,
    dihedral, quaternion, semidihedral and modular maximal-cyclic; smaller e
    drops the entries that collapse into each other.  For odd p only the
    cyclic group can act regularly, so the catalog is just C_n.
    """
    n = ctx.n
    entries = [(f"C{n}", AbstractGroup(table=_cyclic_table(n)))]
    if ctx.p != 2:
        return tuple(entries)
    m = n // 2
    if ctx.e >= 2:
        entries.append((f"C{m}xC2", AbstractGroup(table=_metacyclic_table(m, 1, 0))))
    if ctx.e >= 3:
        entries.append((f"D{n}", AbstractGroup(table=_metacyclic_table(m, m - 1, 0))))
        entries.append((f"Q{n}", AbstractGroup(table=_metacyclic_table(m, m - 1, m // 2))))
    if ctx.e >= 4:
        entries.append((f"SD{n}", AbstractGroup(table=_metacyclic_table(m, m // 2 - 1, 0))))
        entries.append((f"M{n}", AbstractGroup(table=_metacyclic_table(m, m // 2 + 1, 0))))
    return tuple(entries)


@lru_cache(maxsize=None)
def regular_subgroups(ctx: GroupContext) -> tuple[tuple[Subgroup, str], ...]:
    """All regular subgroups of Hol, labelled by isomorphism class."""
    out = []
    for _, sub in transitive_subgroups(ctx):
        if not is_regular(sub):
            continue
        table = abstract_group(sub)
        label = next(
            (name for name, model in regular_catalog(ctx) if find_isomorphism(table, model)),
            "unrecognized",
        )
        out.append((sub, label))
    return tuple(out)
