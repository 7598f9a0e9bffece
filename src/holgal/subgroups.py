"""Subgroup machinery over Hol(C_{p^e}).

Subgroups are canonical sorted tuples of (u, a) pairs inside one context.
Every product, left coset and conjugate here goes through the unchecked
kernels of `holomorph` (`compose`, `left_coset`, `conjugate_each`), the
only place that states the group law.

Enumeration of the full subgroup lattice works bottom-up: start from the
trivial subgroup, then repeatedly attach a prime-order coset on top of a
normalized subgroup.  Every nontrivial subgroup of the (solvable) holomorph
sits above a normal subgroup of prime index, so by induction on the order
the sweep reaches everything.  The smaller subgroup has prime index in each
such extension, so any of the extension's new elements would rebuild it:
each one is built once per (subgroup, prime), and its elements are skipped
afterwards.

Normality, conjugacy, cores, conjugacy orbits and the derived subgroup are
decided from the greedy generating sets of `generators` instead of from
every element of G: normality and conjugacy check the generators of H; a
core is the fixed point of intersecting H with its conjugates by the
generators of G; orbits are walked breadth-first along those generators;
conjugacy tries one element per left coset of H; and [G, G] is closed from
the commutators of pairs of generators.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional

from .holomorph import (IDENTITY, HolElement, commutator, commute, compose, conjugate_each,
                        element_order, left_coset, power, validate_element)
from .residue import GroupContext


class CapacityError(RuntimeError):
    """|Hol| exceeds the enumeration bound a caller passed."""


@dataclass(frozen=True)
class Subgroup:
    """A closed, sorted set of holomorph elements."""

    ctx: GroupContext
    elements: tuple[HolElement, ...]

    @cached_property
    def member_set(self) -> frozenset[HolElement]:
        return frozenset(self.elements)

    def __post_init__(self) -> None:
        # every lru_cache lookup hashes its Subgroup arguments, so the hash is stored;
        # set here, not lazily, so every instance's __dict__ has one key order
        object.__setattr__(self, "_hash", hash((self.ctx, self.elements)))

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, g: HolElement) -> bool:
        return g in self.member_set

    def __iter__(self):
        return iter(self.elements)

    def issubset(self, other: "Subgroup") -> bool:
        return self.member_set <= other.member_set


def _subgroup(ctx: GroupContext, members: Iterable[HolElement]) -> Subgroup:
    return Subgroup(ctx=ctx, elements=tuple(sorted(members)))


@lru_cache(maxsize=None)
def holomorph_group(ctx: GroupContext) -> Subgroup:
    """The full group Hol(C_{p^e}) of order n * |units|."""
    return _subgroup(ctx, ((u, a) for u in range(ctx.n) for a in ctx.units))


def trivial_subgroup(ctx: GroupContext) -> Subgroup:
    return Subgroup(ctx=ctx, elements=(IDENTITY,))


def closure(gens: Iterable[HolElement], ctx: GroupContext) -> Subgroup:
    """Least subgroup containing gens, by product saturation."""
    gens = sorted(set(gens))
    for g in gens:
        validate_element(g, ctx)
    n = ctx.n
    members = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        x = frontier.pop()
        for y in left_coset(x, gens, n):
            if y not in members:
                members.add(y)
                frontier.append(y)
    return _subgroup(ctx, members)


def _check_same_ctx(*groups: Subgroup) -> GroupContext:
    ctx = groups[0].ctx
    if any(g.ctx != ctx for g in groups):
        raise ValueError("subgroups live in different contexts")
    return ctx


def _prime_factors(m: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return tuple(out)


@lru_cache(maxsize=None)
def _lattice(ctx: GroupContext) -> tuple[Subgroup, ...]:
    hol = holomorph_group(ctx).elements
    total = len(hol)
    n = ctx.n
    by_size: dict[int, set[frozenset[HolElement]]] = defaultdict(set)
    by_size[1].add(frozenset({IDENTITY}))
    primes = _prime_factors(total)
    qth_power = {q: {g: power(g, q, ctx) for g in hol} for q in primes}
    for size in sorted(d for d in range(1, total + 1) if total % d == 0):
        for sub in list(by_size.get(size, ())):
            for q in primes:
                if (total // size) % q:
                    continue
                gq = qth_power[q]
                # sub has index q in every extension, so each element of
                # bigger outside sub generates the same bigger again
                covered = set(sub)
                for g in hol:
                    if g in covered or gq[g] not in sub:
                        continue
                    if not sub.issuperset(conjugate_each(sub, g, n)):
                        continue
                    # g normalizes sub and has image of order exactly q in
                    # the quotient, so the union of q cosets is a subgroup.
                    bigger = set(sub)
                    x = g
                    for _ in range(1, q):
                        bigger.update(left_coset(x, sub, n))
                        x = compose(x, g, n)
                    if len(bigger) != size * q:
                        raise RuntimeError(
                            f"extension of a subgroup of order {size} by an element of "
                            f"prime order {q} modulo it has {len(bigger)} elements"
                        )
                    covered |= bigger
                    by_size[size * q].add(frozenset(bigger))

    every = [_subgroup(ctx, s) for bucket in by_size.values() for s in bucket]
    return tuple(sorted(every, key=lambda s: (len(s), s.elements)))


def all_subgroups(ctx: GroupContext, max_order: Optional[int] = None) -> tuple[Subgroup, ...]:
    """Every subgroup of Hol, each once, in canonical (order, elements) order.

    There is no bound unless the caller passes one: with `max_order` given,
    CapacityError is raised before enumeration when |Hol| exceeds it.
    """
    total = ctx.n * len(ctx.units)
    if max_order is not None and total > max_order:
        raise CapacityError(
            f"|Hol| = {total} for p={ctx.p}, e={ctx.e} exceeds the enumeration "
            f"bound {max_order}"
        )
    return _lattice(ctx)


@lru_cache(maxsize=None)
def is_transitive(group: Subgroup) -> bool:
    """True iff the translation parts of the group cover all of Z/n."""
    return len({u for u, _ in group.elements}) == group.ctx.n


@lru_cache(maxsize=None)
def stabilizer(group: Subgroup) -> Subgroup:
    """Point stabilizer of 0: the elements with zero translation part."""
    return _subgroup(group.ctx, (g for g in group.elements if g[0] == 0))


def is_regular(group: Subgroup) -> bool:
    return is_transitive(group) and len(stabilizer(group)) == 1


@lru_cache(maxsize=None)
def translation_part(group: Subgroup) -> Subgroup:
    """Intersection with the translation subgroup: elements (u, 1)."""
    return _subgroup(group.ctx, (g for g in group.elements if g[1] == 1))


@lru_cache(maxsize=None)
def generators(group: Subgroup) -> tuple[HolElement, ...]:
    """A generating set: scanning from the largest element down, keep each
    element outside the closure of those kept so far.

    Every kept element at least doubles that closure, so there are at most
    log2 |group| of them; the trivial group has none.
    """
    gens: list[HolElement] = []
    span = trivial_subgroup(group.ctx)
    for g in reversed(group.elements):
        if len(span) == len(group):
            break
        if g not in span:
            gens.append(g)
            span = closure(gens, group.ctx)
    return tuple(gens)


@lru_cache(maxsize=None)
def core(big: Subgroup, sub: Subgroup) -> Subgroup:
    """Largest normal subgroup of big inside sub: meet of all conjugates.

    Starting from K = sub, K is replaced by its meet with g K g^-1 over
    every generator g of big until it stops shrinking.  Every K contains the
    core, which is normal and so lies in each conjugate of K.  A stable K
    lies in each g K g^-1, which has its size, so every generator of big
    normalizes K; then K is a normal subgroup of big inside sub, hence
    inside the core, and the two are equal.
    """
    ctx = _check_same_ctx(big, sub)
    if not sub.issubset(big):
        raise ValueError("core requires sub <= big")
    gens = generators(big)
    meet = set(sub.member_set)
    while len(meet) > 1:
        current = tuple(meet)
        for g in gens:
            meet.intersection_update(conjugate_each(current, g, ctx.n))
        if len(meet) == len(current):
            break
    return _subgroup(ctx, meet)


@lru_cache(maxsize=None)
def is_normal(big: Subgroup, sub: Subgroup) -> bool:
    """True iff every generator of big conjugates every generator of sub into sub.

    Conjugation by g is then a map of sub into itself, hence onto it, and
    the elements g with g sub g^-1 = sub form a subgroup, which contains
    the generators of big and so all of big.
    """
    ctx = _check_same_ctx(big, sub)
    if not sub.issubset(big):
        raise ValueError("is_normal requires sub <= big")
    members = sub.member_set
    sub_gens = generators(sub)
    return all(members.issuperset(conjugate_each(sub_gens, g, ctx.n)) for g in generators(big))


@lru_cache(maxsize=None)
def _order_profile(group: Subgroup) -> tuple[int, ...]:
    return tuple(sorted(element_order(g, group.ctx) for g in group.elements))


@lru_cache(maxsize=None)
def are_conjugate(big: Subgroup, first: Subgroup, second: Subgroup) -> bool:
    """True iff some element of big conjugates first onto second.

    After the size and element-order checks, an element g of big qualifies
    iff it conjugates every generator of first into second: g first g^-1 is
    then a subgroup of second of the same size.  Every element g h of the
    left coset g first conjugates first exactly as g does, so one g is tried
    per left coset: [big : first] trials instead of |big|.
    """
    ctx = _check_same_ctx(big, first, second)
    if not (first.issubset(big) and second.issubset(big)):
        raise ValueError("are_conjugate requires both subgroups inside big")
    if len(first) != len(second):
        return False
    if _order_profile(first) != _order_profile(second):
        return False
    n = ctx.n
    target = second.member_set
    first_gens = generators(first)
    covered: set[HolElement] = set()
    for g in big.elements:
        if g in covered:
            continue
        if target.issuperset(conjugate_each(first_gens, g, n)):
            return True
        covered.update(left_coset(g, first.elements, n))
    return False


def conjugates(big: Subgroup, sub: Subgroup) -> frozenset[frozenset[HolElement]]:
    """Member sets of the conjugates g sub g^-1 over every g in big.

    Found breadth-first from sub under conjugation by the generators of big:
    the set reached is closed under conjugation by each generator, hence by
    every product of generators, which in a finite group is every element.
    """
    ctx = _check_same_ctx(big, sub)
    gens = generators(big)
    orbit = {sub.member_set}
    frontier = [sub.member_set]
    for members in frontier:  # frontier grows while it is walked
        for g in gens:
            image = frozenset(conjugate_each(members, g, ctx.n))
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return frozenset(orbit)


@lru_cache(maxsize=None)
def center(group: Subgroup) -> Subgroup:
    ctx = group.ctx
    return _subgroup(
        ctx, (g for g in group.elements if all(commute(g, h, ctx) for h in group.elements))
    )


def centralizer(group: Subgroup, g: HolElement) -> Subgroup:
    ctx = group.ctx
    return _subgroup(ctx, (h for h in group.elements if commute(g, h, ctx)))


@lru_cache(maxsize=None)
def derived_subgroup(group: Subgroup) -> Subgroup:
    """Subgroup generated by all commutators (always inside the translations).

    Only commutators of pairs of generators are taken.  They generate a
    subgroup of the cyclic translation group, whose subgroups are all
    characteristic, so it is normal in Hol and hence already equals the
    normal closure of those commutators, which is [G, G].
    """
    ctx = group.ctx
    gens = generators(group)
    return closure([commutator(g, h, ctx) for g in gens for h in gens], ctx)


@lru_cache(maxsize=None)
def is_cyclic(group: Subgroup) -> bool:
    target = len(group)
    return any(element_order(g, group.ctx) == target for g in group.elements)


def hall_p_part(group: Subgroup) -> Subgroup:
    """Intersection with the unique Hall p-subgroup of Hol.

    For odd p that subgroup is {(u, a) : a = 1 mod p}; for p = 2 the whole
    holomorph is a 2-group, so the result is the group itself.
    """
    ctx = group.ctx
    if ctx.p == 2:
        return group
    return _subgroup(ctx, (g for g in group.elements if g[1] % ctx.p == 1))


# ---------------------------------------------------------------------------
# Abstract groups (Cayley tables) and isomorphism search


@dataclass(frozen=True)
class AbstractGroup:
    """Cayley table over 0..m-1 with identity 0 and a marked subgroup."""

    table: tuple[tuple[int, ...], ...]
    marked: frozenset[int] = frozenset({0})

    @property
    def size(self) -> int:
        return len(self.table)

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        orders = []
        for i in range(self.size):
            x, t = i, 1
            while x != 0:
                x = self.table[x][i]
                t += 1
            orders.append(t)
        return tuple(orders)

    @cached_property
    def center_set(self) -> frozenset[int]:
        m = self.size
        return frozenset(
            i for i in range(m) if all(self.table[i][j] == self.table[j][i] for j in range(m))
        )

    @cached_property
    def element_keys(self) -> tuple[tuple[int, bool, bool], ...]:
        """Per-element invariant (order, central, marked) used by iso search."""
        return tuple(
            (self.element_orders[i], i in self.center_set, i in self.marked)
            for i in range(self.size)
        )

    @cached_property
    def profile(self) -> tuple:
        """Isomorphism-invariant fingerprint of the (group, marked) pair."""
        return tuple(sorted(self.element_keys))

    def validate(self) -> None:
        """Check the table is a group law with identity 0 and closed marking."""
        m = self.size
        full = set(range(m))
        for i, row in enumerate(self.table):
            if len(row) != m:
                raise ValueError(f"row {i} has length {len(row)}, expected {m}")
            if set(row) != full:
                raise ValueError(f"row {i} is not a permutation")
        for j in range(m):
            if {self.table[i][j] for i in range(m)} != full:
                raise ValueError(f"column {j} is not a permutation")
            if self.table[0][j] != j or self.table[j][0] != j:
                raise ValueError("identity is not at index 0")
        if m <= 64:
            triples = ((i, j, k) for i in range(m) for j in range(m) for k in range(m))
        else:
            rng = random.Random(0)
            triples = ((rng.randrange(m), rng.randrange(m), rng.randrange(m)) for _ in range(512))
        for i, j, k in triples:
            if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                raise ValueError(f"associativity fails at {(i, j, k)}")
        for i in self.marked:
            for j in self.marked:
                if self.table[i][j] not in self.marked:
                    raise ValueError("marked subset is not closed")


@lru_cache(maxsize=None)
def _coset_structure(big: Subgroup, normal: Subgroup):
    """Reps (minimal per coset, ascending), element->coset map, Cayley table."""
    ctx = big.ctx
    n = ctx.n
    if not is_normal(big, normal):
        raise ValueError("quotient requires a normal subgroup")
    to_coset: dict[HolElement, int] = {}
    reps: list[HolElement] = []
    for g in big.elements:  # ascending, so the first hit in a coset is its minimum
        if g in to_coset:
            continue
        idx = len(reps)
        reps.append(g)
        to_coset.update(dict.fromkeys(left_coset(g, normal.elements, n), idx))
    table = tuple(tuple(map(to_coset.__getitem__, left_coset(a, reps, n))) for a in reps)
    return tuple(reps), to_coset, table


def quotient(big: Subgroup, normal: Subgroup, marked_from: Optional[Subgroup] = None) -> AbstractGroup:
    """Quotient big/normal as a Cayley table; marked = image of marked_from."""
    if marked_from is None:
        marked_from = normal
    _check_same_ctx(big, normal, marked_from)
    if not normal.issubset(marked_from) or not marked_from.issubset(big):
        raise ValueError("marked subgroup must sit between the normal subgroup and big")
    _, to_coset, table = _coset_structure(big, normal)
    marked = frozenset(to_coset[h] for h in marked_from.elements)
    return AbstractGroup(table=table, marked=marked)


def quotient_cosets(big: Subgroup, normal: Subgroup) -> tuple[HolElement, ...]:
    """Coset representatives in table order (minimal element of each coset)."""
    reps, _, _ = _coset_structure(big, normal)
    return reps


def _generating_sequence(group: AbstractGroup) -> list[int]:
    """Greedy generators: highest order first, smallest index on ties.

    The span of the generators chosen so far is kept closed under right
    multiplication by each of them, which in a finite group is exactly the
    subgroup they generate.
    """
    m = group.size
    orders, table = group.element_orders, group.table
    in_span = [False] * m
    in_span[0] = True
    span = [0]
    gens: list[int] = []
    while len(span) < m:
        best = max((i for i in range(m) if not in_span[i]), key=lambda i: (orders[i], -i))
        gens.append(best)
        for x in span:  # span grows while it is walked
            row = table[x]
            for g in gens:
                y = row[g]
                if not in_span[y]:
                    in_span[y] = True
                    span.append(y)
    return gens


def find_isomorphism(first: AbstractGroup, second: AbstractGroup) -> Optional[tuple[int, ...]]:
    """An isomorphism first -> second carrying marked onto marked, or None.

    Backtracks over the images of a greedy generating sequence g_1, ..., g_k
    of first, each image drawn from the elements of second that share the
    generator's (order, central, marked) key.  After each choice the map is
    extended breadth-first over the Cayley graph of <g_1, ..., g_d> from the
    identity, setting f(x * g_j) = f(x) * f(g_j) along every edge; a conflict
    with an earlier value, a reused image or a key mismatch rejects the
    choice.  A map that respects every generator edge is a homomorphism, so a
    complete map is a bijective, key-preserving isomorphism, and keys carry
    the marked subgroup onto the marked subgroup.
    """
    m = first.size
    if m != second.size:
        return None
    if first.profile != second.profile:
        return None
    key_a, key_b = first.element_keys, second.element_keys
    buckets: dict[tuple, list[int]] = defaultdict(list)
    for j in range(m):
        buckets[key_b[j]].append(j)
    table_a, table_b = first.table, second.table
    gens = _generating_sequence(first)

    def walk(images: list[int]) -> Optional[list[int]]:
        """The map on <gens[:len(images)]> fixed by images, or None on a clash."""
        edges = list(zip(gens, images))
        fmap = [-1] * m
        fmap[0] = 0
        used = [False] * m
        used[0] = True
        queue = [0]
        for x in queue:
            row_a, row_b = table_a[x], table_b[fmap[x]]
            for g, h in edges:
                y, fy = row_a[g], row_b[h]
                known = fmap[y]
                if known < 0:
                    if used[fy] or key_a[y] != key_b[fy]:
                        return None
                    fmap[y] = fy
                    used[fy] = True
                    queue.append(y)
                elif known != fy:
                    return None
        return fmap

    def search(images: list[int], fmap: list[int]) -> Optional[list[int]]:
        depth = len(images)
        if depth == len(gens):
            return fmap
        for img in buckets[key_a[gens[depth]]]:
            if img in fmap:
                continue
            images.append(img)
            extended = walk(images)
            found = search(images, extended) if extended is not None else None
            images.pop()
            if found is not None:
                return found
        return None

    fmap = search([], walk([]))
    return None if fmap is None else tuple(fmap)
