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
    GroverOutcome,
    round_success_probability,
    schedule_success_probability,
)
from .ledger import QueryLedger
from .membership import (
    MembershipResult,
    check_symmetric_characterization,
    exact_member,
)
from .tester import (
    Verdict,
    ceil_sqrt,
    classical_test,
    icbrt,
    offset_count,
    quantum_test,
    sample_offsets,
)
from .words import Decomposition, Word

__all__ = [
    "Decomposition",
    "DistanceResult",
    "FarInstanceError",
    "GroverOutcome",
    "MembershipResult",
    "QueryLedger",
    "Verdict",
    "Word",
    "ceil_sqrt",
    "check_symmetric_characterization",
    "classical_test",
    "distance_to_language",
    "exact_member",
    "far_threshold",
    "gen_far",
    "gen_gamma",
    "gen_member",
    "gen_sigma",
    "icbrt",
    "is_eps_far",
    "offset_count",
    "quantum_test",
    "random_word",
    "round_success_probability",
    "sample_offsets",
    "schedule_success_probability",
]

__version__ = "0.1.0"
