"""Exact toolkit for transitive subgroups of holomorphs of cyclic p-groups.

Decides, for quotient pairs (G/C, H/C) arising from transitive subgroups G
of Hol(C_{p^e}), whether the pair embeds as a transitive subgroup with the
marked subgroup landing on the point stabilizer: once by exhaustive search
(the oracle), once by closed-form structural criteria, and cross-validates
the two exhaustively at desk scale.
"""

from .residue import (
    INFINITY,
    GroupContext,
    capped_valuation,
    geometric_sum,
    geometric_sum_valuation,
    make_context,
    padic_valuation,
    unit_order,
)
from .holomorph import (
    IDENTITY,
    HolElement,
    act,
    commutator,
    commute,
    element_order,
    element_order_iterative,
    format_element,
    inv,
    mul,
    parse_element,
    power,
)
from .subgroups import (
    AbstractGroup,
    CapacityError,
    Subgroup,
    all_subgroups,
    are_conjugate,
    center,
    centralizer,
    closure,
    conjugates,
    core,
    derived_subgroup,
    find_isomorphism,
    generators,
    hall_p_part,
    holomorph_group,
    is_cyclic,
    is_normal,
    is_regular,
    is_transitive,
    quotient,
    quotient_cosets,
    stabilizer,
    translation_part,
    trivial_subgroup,
)
from .oracle import (
    OracleReport,
    abstract_group,
    oracle_decision,
    pair_decision,
    pair_quotient,
    regular_subgroups,
    transitive_subgroups,
    transitive_subgroups_of_order,
)
from .criteria import (
    CASE_ADMITS,
    CASE_I,
    CASE_II,
    CASE_III,
    CASE_IV,
    CASE_ODD_NOT_CONJUGATE,
    DichotomyDescriptor,
    Verdict,
    classify_pair,
    dichotomy_case,
    even_predicate,
    odd_predicate,
    transitive_pairs,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
