"""Exact and sublinear deciders for the two-palindrome concatenation language.

A word belongs to the language when it splits into two nonempty even-length
palindromes. The package provides the exact membership reduction, the exact
Hamming distance to the language, a meet-in-the-middle property tester whose
search step is an analytically simulated Grover search, and a seeded
experiment harness that accounts every input query.
"""

from .distance import DistanceResult, distance_to_language, far_threshold, is_eps_far
from .generators import (
    FarInstanceError,
    gen_far,
    gen_gamma,
    gen_member,
    gen_sigma,
    random_word,
)
from .grover import (
    DEFAULT_GROVER_CONFIG,
    GroverConfig,
    GroverOutcome,
    grover_search,
    round_success_probability,
    schedule_success_probability,
)
from .ledger import QueryLedger
from .membership import (
    MembershipResult,
    brute_force_member,
    check_symmetric_characterization,
    exact_member,
    kmp_member,
    kmp_occurrences,
    kmp_search,
)
from .tester import (
    IndexGrids,
    OffsetSample,
    Verdict,
    ceil_sqrt,
    classical_test,
    cube_grids,
    icbrt,
    left_string,
    offset_count,
    quantum_test,
    right_string,
    sample_offsets,
    sqrt_grids,
)
from .trie import Trie
from .words import Decomposition, RotatedDoubledView, Word, reverse

__all__ = [
    "DEFAULT_GROVER_CONFIG",
    "Decomposition",
    "DistanceResult",
    "FarInstanceError",
    "GroverConfig",
    "GroverOutcome",
    "IndexGrids",
    "MembershipResult",
    "OffsetSample",
    "QueryLedger",
    "RotatedDoubledView",
    "Trie",
    "Verdict",
    "Word",
    "brute_force_member",
    "ceil_sqrt",
    "check_symmetric_characterization",
    "classical_test",
    "cube_grids",
    "distance_to_language",
    "exact_member",
    "far_threshold",
    "gen_far",
    "gen_gamma",
    "gen_member",
    "gen_sigma",
    "grover_search",
    "icbrt",
    "is_eps_far",
    "kmp_member",
    "kmp_occurrences",
    "kmp_search",
    "left_string",
    "offset_count",
    "quantum_test",
    "random_word",
    "reverse",
    "right_string",
    "round_success_probability",
    "sample_offsets",
    "schedule_success_probability",
    "sqrt_grids",
]

__version__ = "0.1.0"
