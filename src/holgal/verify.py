"""Property suite: every structural fact the criteria rest on, run per context.

Each check returns a CheckResult with a pass flag and, on failure, a small
counterexample.  `run_checks` assembles the suite appropriate to the parity
of p; the `verify` CLI command prints one line per check.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .criteria import (
    CASE_ADMITS,
    classify_pair,
    dichotomy_case,
    even_predicate,
    has_full_order_element,
    transitive_pairs,
)
from .holomorph import (
    IDENTITY,
    element_order,
    element_order_iterative,
    format_element,
    left_coset,
    power,
)
from .oracle import (
    abstract_group,
    oracle_decision,
    pair_decision,
    pair_quotient,
    regular_catalog,
    regular_subgroups,
    transitive_subgroups,
    transitive_subgroups_of_order,
)
from .residue import (
    GroupContext,
    geometric_sum,
    geometric_sum_valuation,
    padic_valuation,
    unit_order,
)
from .subgroups import (
    AbstractGroup,
    Subgroup,
    all_subgroups,
    are_conjugate,
    center,
    centralizer,
    conjugates,
    core,
    derived_subgroup,
    find_isomorphism,
    hall_p_part,
    holomorph_group,
    is_cyclic,
    is_normal,
    is_regular,
    is_transitive,
    stabilizer,
    translation_part,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    informational: bool = False

    def line(self) -> str:
        tag = "INFO" if self.informational else ("PASS" if self.passed else "FAIL")
        suffix = f": {self.detail}" if self.detail else ""
        return f"{tag} {self.name}{suffix}"


# ---------------------------------------------------------------------------
# Element-level formulas


def check_power_formula(ctx: GroupContext) -> CheckResult:
    """power(g, k) against k-fold iterated multiplication, all g, k <= 2n."""
    n = ctx.n
    for g in holomorph_group(ctx).elements:
        x = IDENTITY
        for k in range(2 * n + 1):
            if power(g, k, ctx) != x:
                return CheckResult(
                    "power formula vs iterated multiplication", False,
                    f"g={format_element(g)} k={k}: {power(g, k, ctx)} != {x}",
                )
            x = (x[0] + g[0] * x[1]) % n, (x[1] * g[1]) % n
    return CheckResult("power formula vs iterated multiplication", True)


def check_order_formula(ctx: GroupContext) -> CheckResult:
    """Closed-form element orders against brute iteration, all elements."""
    for g in holomorph_group(ctx).elements:
        fast, slow = element_order(g, ctx), element_order_iterative(g, ctx)
        if fast != slow:
            return CheckResult(
                "closed-form order vs iterative order", False,
                f"g={format_element(g)}: closed form {fast}, iteration {slow}",
            )
    return CheckResult("closed-form order vs iterative order", True)


def check_residue_formulas(ctx: GroupContext, kmax: Optional[int] = None) -> list[CheckResult]:
    """Geometric sums and their valuations against exact big-integer sums."""
    kmax = 4 * ctx.n if kmax is None else kmax
    p, n = ctx.p, ctx.n
    sum_name = "modular geometric sum vs exact sum"
    val_name = "valuation formula vs exact geometric sum"
    results = []
    sum_fail = val_fail = None
    for a in ctx.units:
        exact, apow = 0, 1
        for k in range(kmax + 1):
            if sum_fail is None and geometric_sum(a, k, ctx) != exact % n:
                sum_fail = f"a={a} k={k}"
            if val_fail is None and a % p == 1 % p:
                if geometric_sum_valuation(a, k, p) != padic_valuation(exact, p):
                    val_fail = f"a={a} k={k}"
            exact += apow
            apow *= a
    results.append(CheckResult(sum_name, sum_fail is None, sum_fail or ""))
    results.append(CheckResult(val_name, val_fail is None, val_fail or ""))
    return results


def check_unit_orders(ctx: GroupContext) -> CheckResult:
    """Unit orders divide |Aut|; squares of units mod 4 divide 2^(e-2)."""
    aut_order = len(ctx.units)
    for a in ctx.units:
        t = unit_order(a, ctx)
        if aut_order % t:
            return CheckResult(
                "unit order divides |Aut|", False, f"a={a}: order {t} vs |Aut|={aut_order}"
            )
        if ctx.p == 2 and ctx.e >= 3 and a % 4 == 1 and (2 ** (ctx.e - 2)) % t:
            return CheckResult(
                "unit order divides |Aut|", False,
                f"a={a} = 1 mod 4 has order {t}, not dividing 2^(e-2)",
            )
    return CheckResult("unit order divides |Aut|", True)


def check_action_homomorphism(ctx: GroupContext) -> CheckResult:
    """act(g*h, x) = act(g, act(h, x)) for all g, h, x, with g*h from
    left_coset.  Compared a row at a time: row[g][x] = act(g, x), and
    itemgetter(*row[h]) applied to row[g] is the row of x -> act(g, act(h, x))."""
    n = ctx.n
    elems = holomorph_group(ctx).elements
    row = {(u, a): tuple((u + a * x) % n for x in range(n)) for u, a in elems}
    # n >= 2, so each getter returns a tuple, the same type as a row
    after = [itemgetter(*row[h]) for h in elems]
    for g in elems:
        acted = row[g]
        composed = [get(acted) for get in after]
        product = list(map(row.get, left_coset(g, elems, n)))
        if composed != product:
            i = next(i for i, (c, p) in enumerate(zip(composed, product)) if c != p)
            # a product outside Hol has no row and fails at the first point
            want = product[i] or (None,) * n
            x = next(x for x in range(n) if composed[i][x] != want[x])
            return CheckResult(
                "holomorph action is a group action", False,
                f"g={format_element(g)} h={format_element(elems[i])} x={x}",
            )
    return CheckResult("holomorph action is a group action", True)


def check_commutator_identity(ctx: GroupContext) -> list[CheckResult]:
    """Commutators are translations by u(b-1) - v(a-1); commuting iff that is 0."""
    n = ctx.n
    elems = holomorph_group(ctx).elements
    comm_fail = cong_fail = None
    for u, a in elems:
        for v, b in elems:
            shift = (u * (b - 1) - v * (a - 1)) % n
            # h*g*h^-1*g^-1 computed longhand
            hg = (v + u * b) % n, (b * a) % n
            gh = (u + v * a) % n, (a * b) % n
            ghi = pow(gh[1], -1, n)
            inv_gh = (-gh[0] * ghi) % n, ghi
            got = (hg[0] + inv_gh[0] * hg[1]) % n, (hg[1] * inv_gh[1]) % n
            if comm_fail is None and got != (shift, 1):
                comm_fail = f"g={format_element((u, a))} h={format_element((v, b))}: {got} != ({shift}, 1)"
            if cong_fail is None and (gh == hg) != (shift == 0):
                cong_fail = f"g={format_element((u, a))} h={format_element((v, b))}"
    return [
        CheckResult("commutator translation identity", comm_fail is None, comm_fail or ""),
        CheckResult("commuting iff u(b-1) = v(a-1) mod n", cong_fail is None, cong_fail or ""),
    ]


# ---------------------------------------------------------------------------
# Lattice-level properties


def check_lagrange(ctx: GroupContext) -> CheckResult:
    total = ctx.n * len(ctx.units)
    for sub in all_subgroups(ctx):
        if total % len(sub):
            return CheckResult("Lagrange", False, f"subgroup of order {len(sub)}")
    return CheckResult("Lagrange", True)


def check_core_lattice(ctx: GroupContext) -> list[CheckResult]:
    """Core is normal, sits inside H, swallows H's translation meet, and is
    the largest normal-in-G subgroup of H (maximality scanned when |Hol| <= 64)."""
    subs = all_subgroups(ctx)
    total = ctx.n * len(ctx.units)
    basic_fail = meet_fail = max_fail = None
    scan_maximality = total <= 64
    for big in subs:
        inside = [s for s in subs if s.issubset(big)]
        for sub in inside:
            nucleus = core(big, sub)
            if basic_fail is None and not (
                nucleus.issubset(sub) and is_normal(big, nucleus)
            ):
                basic_fail = f"|G|={len(big)} |H|={len(sub)}"
            if meet_fail is None and not translation_part(sub).issubset(nucleus):
                meet_fail = f"|G|={len(big)} |H|={len(sub)}"
            if scan_maximality and max_fail is None:
                for other in inside:
                    if (
                        other.issubset(sub)
                        and is_normal(big, other)
                        and not other.issubset(nucleus)
                    ):
                        max_fail = f"|G|={len(big)} |H|={len(sub)} |K|={len(other)}"
                        break
    out = [
        CheckResult("core is a normal subgroup inside H", basic_fail is None, basic_fail or ""),
        CheckResult("translation meet of H lies in the core", meet_fail is None, meet_fail or ""),
    ]
    if scan_maximality:
        out.append(CheckResult("core maximality (lattice scan)", max_fail is None, max_fail or ""))
    return out


def isomorphic_bruteforce(first: AbstractGroup, second: AbstractGroup) -> bool:
    """Reference isomorphism test: plain backtracking over images in index
    order, pruning only on homomorphism conflicts and the marked constraint."""
    m = first.size
    if m != second.size or len(first.marked) != len(second.marked):
        return False
    images = [-1] * m
    used = [False] * m

    def assign(i: int) -> bool:
        if i == m:
            return True
        for b in range(m):
            if used[b] or ((i in first.marked) != (b in second.marked)):
                continue
            images[i] = b
            used[b] = True
            ok = True
            for x in range(i + 1):
                prod = first.table[x][i]
                if prod <= i and second.table[images[x]][b] != images[prod]:
                    ok = False
                    break
                prod = first.table[i][x]
                if prod <= i and second.table[b][images[x]] != images[prod]:
                    ok = False
                    break
            if ok and assign(i + 1):
                return True
            used[b] = False
            images[i] = -1
        return False

    return assign(0)


def check_iso_bruteforce(ctx: GroupContext) -> CheckResult:
    """find_isomorphism against the unpruned reference search on small pairs
    (quotients of order <= 12, at most 60 comparisons).  Where every quotient
    is larger, nothing is compared and the result is informational."""
    name = "isomorphism search vs brute force"
    compared = 0
    for _, big, _, sub in transitive_pairs(ctx):
        pair = pair_quotient(big, sub)
        if pair.size > 12:
            continue
        for model in map(abstract_group, transitive_subgroups_of_order(ctx, pair.size)):
            fast = find_isomorphism(pair, model) is not None
            slow = isomorphic_bruteforce(pair, model)
            if fast != slow:
                return CheckResult(
                    name, False, f"size {pair.size}: backtracker {fast}, brute force {slow}"
                )
            compared += 1
            if compared >= 60:
                return CheckResult(name, True, f"{compared} pairs")
    if compared == 0:
        return CheckResult(
            name, True, "0 pairs: every quotient has order > 12", informational=True
        )
    return CheckResult(name, True, f"{compared} pairs")


# ---------------------------------------------------------------------------
# Oracle sanity


def check_oracle_self_witness(ctx: GroupContext) -> CheckResult:
    """(G, stabilizer(G)) must always embed: G is its own witness."""
    for idx, sub in transitive_subgroups(ctx):
        if not oracle_decision(abstract_group(sub), ctx).admitted:
            return CheckResult("oracle accepts (G, stabilizer)", False, f"G index {idx}")
    return CheckResult("oracle accepts (G, stabilizer)", True)


def check_oracle_conjugation(ctx: GroupContext) -> CheckResult:
    """Conjugate subgroups of G induce the same oracle answer."""
    pairs = transitive_pairs(ctx)
    by_big: dict = {}
    for gi, big, hi, sub in pairs:
        by_big.setdefault((gi, big), []).append((hi, sub))
    for (gi, big), subs in by_big.items():
        answers = {hi: pair_decision(big, sub).admitted for hi, sub in subs}
        # conjugacy classes among the candidate subgroups
        index_of = {sub.member_set: hi for hi, sub in subs}
        for hi, sub in subs:
            for image in conjugates(big, sub):
                other = index_of[image]
                if answers[hi] != answers[other]:
                    return CheckResult(
                        "oracle constant on conjugacy classes", False,
                        f"G index {gi}: H indices {hi} vs {other}",
                    )
    return CheckResult("oracle constant on conjugacy classes", True)


def check_oracle_reduction(ctx: GroupContext) -> CheckResult:
    """The oracle, which tries one model per Hol-conjugacy class, answers as a
    scan of every transitive subgroup of the pair's order does."""
    models = [abstract_group(sub) for _, sub in transitive_subgroups(ctx)]
    for _, big, _, sub in transitive_pairs(ctx):
        pair = pair_quotient(big, sub)
        scan = any(
            find_isomorphism(pair, model) is not None
            for model in models
            if model.size == pair.size
        )
        if pair_decision(big, sub).admitted != scan:
            return CheckResult(
                "conjugacy-reduced oracle preserves answers", False, f"|G|={len(big)}"
            )
    return CheckResult("conjugacy-reduced oracle preserves answers", True)


def check_prefilter(ctx: GroupContext) -> CheckResult:
    """p = 2: a quotient without an order 2^(e-1) element never embeds."""
    threshold = 2 ** (ctx.e - 1)
    for _, big, _, sub in transitive_pairs(ctx):
        if threshold not in pair_quotient(big, sub).element_orders:
            if pair_decision(big, sub).admitted:
                return CheckResult(
                    "missing order-2^(e-1) element forces rejection", False,
                    f"|G|={len(big)} |H|={len(sub)}",
                )
    return CheckResult("missing order-2^(e-1) element forces rejection", True)


# ---------------------------------------------------------------------------
# Structural facts, p = 2


def check_translation_bound(ctx: GroupContext) -> CheckResult:
    """|S meet translations| >= |S| * n / |Hol| for every subgroup S."""
    total = ctx.n * len(ctx.units)
    for sub in all_subgroups(ctx):
        if len(translation_part(sub)) * total < len(sub) * ctx.n:
            return CheckResult(
                "translation meet lower bound", False, f"|S|={len(sub)}"
            )
    return CheckResult("translation meet lower bound", True)


def check_transitive_element_orders(ctx: GroupContext) -> CheckResult:
    """Transitive subgroups contain an element of order 2^(e-1) (p = 2) or
    p^e (odd p)."""
    needed = 2 ** (ctx.e - 1) if ctx.p == 2 else ctx.n
    name = f"transitive subgroups contain an element of order {needed}"
    for idx, sub in transitive_subgroups(ctx):
        if all(element_order(g, ctx) != needed for g in sub.elements):
            return CheckResult(name, False, f"G index {idx}")
    return CheckResult(name, True)


def check_no_full_order_congruence(ctx: GroupContext) -> CheckResult:
    """Without an order-2^e element: b - 1 = 2v mod 4 throughout, and the
    stabilizer multipliers are all 1 mod 4."""
    for idx, sub in transitive_subgroups(ctx):
        if has_full_order_element(sub):
            continue
        for v, b in sub.elements:
            if (b - 1 - 2 * v) % 4:
                return CheckResult(
                    "no-full-order congruence mod 4", False,
                    f"G index {idx}, element {format_element((v, b))}",
                )
        if any(a % 4 != 1 for _, a in stabilizer(sub).elements):
            return CheckResult(
                "no-full-order congruence mod 4", False,
                f"G index {idx}: stabilizer leaves the square units",
            )
    return CheckResult("no-full-order congruence mod 4", True)


def check_center_structure(ctx: GroupContext) -> CheckResult:
    """Non-regular transitive: translation by n/2 is central and Z(G) is
    cyclic; with no order-2^e element, (n/4, 1 + n/2) is central of order 4."""
    half = ctx.n // 2
    for idx, sub in transitive_subgroups(ctx):
        if is_regular(sub):
            continue
        z = center(sub)
        if (half, 1) not in z.member_set or not is_cyclic(z):
            return CheckResult("center structure", False, f"G index {idx}")
        if not has_full_order_element(sub):
            witness = (ctx.n // 4, (1 + half) % ctx.n)
            if witness not in z.member_set or element_order(witness, ctx) != 4:
                return CheckResult(
                    "center structure", False, f"G index {idx}: order-4 witness missing"
                )
    return CheckResult("center structure", True)


def check_center_commutator(ctx: GroupContext) -> CheckResult:
    """|Z(G)| * |[G,G]| = 2^e for non-regular transitive G."""
    for idx, sub in transitive_subgroups(ctx):
        if is_regular(sub):
            continue
        prod = len(center(sub)) * len(derived_subgroup(sub))
        if prod != ctx.n:
            return CheckResult(
                "center times commutator equals 2^e", False,
                f"G index {idx}: product {prod}",
            )
    return CheckResult("center times commutator equals 2^e", True)


def check_centralizer_sizes(ctx: GroupContext) -> CheckResult:
    """For |G| = 2^(e+1) transitive containing (0, 1 + n/2): that element has
    centralizer of size exactly 2^e, and every odd-shift point reflection has
    centralizer <= 2^e, strict exactly when the non-congruence fires."""
    if ctx.e < 2:
        return CheckResult("centralizer sizes", True, "vacuous at e = 1")
    half_unit = 1 + ctx.n // 2
    modulus = ctx.n // 2
    for idx, sub in transitive_subgroups(ctx):
        if len(sub) != 2 * ctx.n or (0, half_unit) not in sub.member_set:
            continue
        if len(centralizer(sub, (0, half_unit))) != ctx.n:
            return CheckResult(
                "centralizer sizes", False, f"G index {idx}: |C(phi)| != 2^e"
            )
        for u, a in sub.elements:
            if a != ctx.n - 1 or u % 2 == 0:
                continue
            size = len(centralizer(sub, (u, a)))
            if size > ctx.n:
                return CheckResult(
                    "centralizer sizes", False,
                    f"G index {idx}: |C({format_element((u, a))})| = {size} > 2^e",
                )
            noncong = any((u * (b - 1) + 2 * v) % modulus for v, b in sub.elements)
            if (size < ctx.n) != noncong:
                return CheckResult(
                    "centralizer sizes", False,
                    f"G index {idx}: strictness mismatch at {format_element((u, a))}",
                )
    return CheckResult("centralizer sizes", True)


def check_dichotomy(ctx: GroupContext) -> CheckResult:
    """Branch (a) groups admit every pair; branch (b) groups reject the
    normal translation witness, by criteria and by the oracle."""
    subs_by_big: dict[int, list[Subgroup]] = {}
    for gi, _, _, small in transitive_pairs(ctx):
        subs_by_big.setdefault(gi, []).append(small)
    for idx, sub in transitive_subgroups(ctx):
        desc = dichotomy_case(sub)
        if desc.branch == "a":
            for small in subs_by_big.get(idx, ()):
                admitted, case = even_predicate(sub, small)
                if not admitted or case != CASE_ADMITS:
                    return CheckResult(
                        "dichotomy", False, f"G index {idx}: pair rejected in branch (a)"
                    )
        elif desc.branch == "b":
            witness = desc.witness
            if not witness.issubset(sub):
                return CheckResult(
                    "dichotomy", False, f"G index {idx}: witness not inside G"
                )
            admitted, _ = even_predicate(sub, witness)
            if admitted or pair_decision(sub, witness).admitted:
                return CheckResult(
                    "dichotomy", False, f"G index {idx}: witness admitted in branch (b)"
                )
    return CheckResult("dichotomy", True)


def check_meet_rules(ctx: GroupContext) -> CheckResult:
    """Meet size >= 4 forces rejection; meet size 2 admits exactly when G has
    a full-order element and H is normal."""
    for gi, big, hi, sub in transitive_pairs(ctx):
        admitted = pair_decision(big, sub).admitted
        meet = len(translation_part(sub))
        if meet >= 4 and admitted:
            return CheckResult(
                "translation meet decision rules", False,
                f"G {gi}, H {hi}: meet {meet} admitted",
            )
        if meet == 2:
            expected = has_full_order_element(big) and is_normal(big, sub)
            if admitted != expected:
                return CheckResult(
                    "translation meet decision rules", False,
                    f"G {gi}, H {hi}: oracle {admitted}, rule {expected}",
                )
    return CheckResult("translation meet decision rules", True)


def check_equivalence(ctx: GroupContext) -> CheckResult:
    """Headline: closed-form criteria equal the exhaustive oracle on every pair."""
    name = (
        "even criteria match the oracle" if ctx.p == 2 else "odd criteria match the oracle"
    )
    tally: dict[str, int] = {}
    for gi, big, hi, sub in transitive_pairs(ctx):
        verdict = classify_pair(ctx, gi, big, hi, sub)
        tally[verdict.case] = tally.get(verdict.case, 0) + 1
        if not verdict.agree:
            return CheckResult(
                name, False,
                f"G {gi}, H {hi}: criteria {verdict.criteria} ({verdict.case}), "
                f"oracle {verdict.oracle}",
            )
    summary = ", ".join(f"{k}={v}" for k, v in sorted(tally.items()))
    return CheckResult(name, True, summary)


def check_regular_classes(ctx: GroupContext) -> CheckResult:
    """Regular subgroup isomorphism classes against the index-2-cyclic catalog."""
    labels = sorted({label for _, label in regular_subgroups(ctx)})
    catalog = sorted(name for name, _ in regular_catalog(ctx))
    if "unrecognized" in labels:
        return CheckResult("regular isomorphism classes", False, f"classes={labels}")
    if ctx.p == 2 and ctx.e == 2:
        return CheckResult(
            "regular isomorphism classes", True,
            f"classes={labels}; catalog exception clause at e=2 flagged, recorded only",
            informational=True,
        )
    if ctx.p == 2 and ctx.e >= 3:
        if labels != catalog:
            return CheckResult(
                "regular isomorphism classes", False,
                f"classes={labels} != catalog={catalog}",
            )
        return CheckResult("regular isomorphism classes", True, f"classes={labels}")
    # odd p (and p = 2, e = 1): only the cyclic group acts regularly
    if labels != [f"C{ctx.n}"]:
        return CheckResult("regular isomorphism classes", False, f"classes={labels}")
    return CheckResult("regular isomorphism classes", True, f"classes={labels}")


# ---------------------------------------------------------------------------
# Hall-part facts, odd p


def check_hall_properties(ctx: GroupContext) -> list[CheckResult]:
    subs = all_subgroups(ctx)
    trans_fail = index_fail = transfer_fail = None
    for big in subs:
        if is_transitive(big) and not is_transitive(hall_p_part(big)):
            trans_fail = f"|G|={len(big)}"
            break
    p = ctx.p
    for big in subs:
        inside = [s for s in subs if s.issubset(big)]
        big_hall = hall_p_part(big)
        p_power_indexed = []
        for sub in inside:
            index = len(big) // len(sub)
            q = index
            while q % p == 0:
                q //= p
            if q != 1:
                continue
            sub_hall = hall_p_part(sub)
            p_power_indexed.append((sub, sub_hall))
            if index_fail is None and len(big_hall) * len(sub) != len(sub_hall) * len(big):
                index_fail = f"|G|={len(big)} |H|={len(sub)}"
        if transfer_fail is None:
            for i, (first, first_hall) in enumerate(p_power_indexed):
                for second, second_hall in p_power_indexed[i + 1 :]:
                    lhs = are_conjugate(big, first, second)
                    rhs = are_conjugate(big, first_hall, second_hall)
                    if lhs != rhs:
                        transfer_fail = f"|G|={len(big)} |H1|={len(first)} |H2|={len(second)}"
                        break
                if transfer_fail:
                    break
    return [
        CheckResult("Hall part of a transitive subgroup is transitive", trans_fail is None, trans_fail or ""),
        CheckResult("Hall index identity", index_fail is None, index_fail or ""),
        CheckResult("Hall conjugacy transfer", transfer_fail is None, transfer_fail or ""),
    ]


# ---------------------------------------------------------------------------
# Suite assembly


def run_checks(ctx: GroupContext) -> list[CheckResult]:
    """All structural properties for one context, parity-appropriate."""
    results: list[CheckResult] = []
    results.append(check_power_formula(ctx))
    results.append(check_order_formula(ctx))
    results.extend(check_residue_formulas(ctx))
    results.append(check_unit_orders(ctx))
    results.append(check_action_homomorphism(ctx))
    results.extend(check_commutator_identity(ctx))
    results.append(check_lagrange(ctx))
    results.extend(check_core_lattice(ctx))
    results.append(check_iso_bruteforce(ctx))
    results.append(check_oracle_self_witness(ctx))
    results.append(check_oracle_conjugation(ctx))
    results.append(check_oracle_reduction(ctx))
    results.append(check_transitive_element_orders(ctx))
    results.append(check_regular_classes(ctx))
    if ctx.p == 2:
        results.append(check_translation_bound(ctx))
        results.append(check_no_full_order_congruence(ctx))
        results.append(check_center_structure(ctx))
        results.append(check_center_commutator(ctx))
        results.append(check_centralizer_sizes(ctx))
        results.append(check_prefilter(ctx))
        results.append(check_meet_rules(ctx))
        results.append(check_dichotomy(ctx))
    else:
        results.extend(check_hall_properties(ctx))
    results.append(check_equivalence(ctx))
    return results
