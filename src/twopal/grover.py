"""Analytic simulation of Grover search with an unknown solution count.

The search state never leaves the plane spanned by the uniform superposition
of solutions and of non-solutions, where each Grover iteration is a rotation
by 2*theta with sin(theta) = sqrt(t/N). A round that runs k iterations and
measures therefore succeeds with probability sin((2k+1)*theta)^2 exactly, so
the simulator samples round outcomes from that formula instead of evolving a
state vector.

Rounds follow the classic unknown-count schedule of Boyer, Brassard, Hoyer
and Tapp: the iteration count of each round is drawn uniformly from [0, M)
with M growing by GROWTH_FACTOR per round from 1 (and never beyond sqrt(N)),
until a measurement hits a solution or a hard cap of
ceil(CAP_MULTIPLIER * sqrt(N)) total iterations is spent. Both are fixed
constants, not settings, because the error bound the tester relies on holds
for exactly these values. Each round costs its iterations plus one
verification evaluation; with no solutions the search costs the full cap,
mirroring a real run that cannot stop early.

The simulator charges nothing: its outcome counts the evaluations, and the
caller prices them (the tester books m input queries per evaluation). The
round loop, search_solutions, takes the solution indices from its caller:
the tester finds them privately, and uncharged, with its collision kernel.
The solution count never reaches the caller through the outcome.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np


# the completeness bound (search error at most 0.1 whenever a solution
# exists) is established, through schedule_success_probability, for these
# two values only
CAP_MULTIPLIER = 3.0
GROWTH_FACTOR = 8 / 7

# the exact analysis stops once less mass than this is still searching
_RUNNING_MASS_TOL = 1e-14

# rounds are cheap; this only guards against astronomically unlucky streams
_ROUND_LIMIT_FLOOR = 64


@dataclass(frozen=True)
class RoundTrace:
    iterations: int
    success_probability: float


@dataclass
class GroverOutcome:
    found: Optional[int]
    iterations_used: int
    rounds: list[RoundTrace] = field(default_factory=list)

    @property
    def evaluations(self) -> int:
        """Predicate evaluations the search cost: k + 1 per round of k
        iterations, or the iteration cap when no rounds ran."""
        return self.iterations_used + len(self.rounds)


def round_success_probability(k: int, theta: float) -> float:
    """Probability that measuring after k iterations yields a solution."""
    return math.sin((2 * k + 1) * theta) ** 2


def _round_caps(m_max: float) -> Iterator[int]:
    """Per-round draw bounds ceil(M); shared by the sampler and the exact
    analysis so both see the identical schedule, float drift included."""
    m = 1.0
    while True:
        yield math.ceil(m)
        m = min(m * GROWTH_FACTOR, m_max)


def _iteration_cap(domain_size: int) -> int:
    return math.ceil(CAP_MULTIPLIER * math.sqrt(domain_size))


def search_solutions(
    domain_size: int,
    solutions: Sequence[int],
    rng: random.Random,
) -> GroverOutcome:
    """Search [0, domain_size) whose solutions are the ascending indices
    in solutions.

    The outcome's evaluations count what the search cost: k + 1 predicate
    evaluations per round (k iterations plus the verification measurement),
    or the flat iteration cap when there are no solutions. Nothing is
    charged here; the caller books them. On success the returned index is
    uniform over the solutions.
    """
    if domain_size < 1:
        raise ValueError("domain must be nonempty")
    t = len(solutions)
    cap = _iteration_cap(domain_size)

    if t == 0:
        return GroverOutcome(found=None, iterations_used=cap, rounds=[])

    theta = math.asin(math.sqrt(t / domain_size))
    caps = _round_caps(math.sqrt(domain_size))
    round_limit = max(_ROUND_LIMIT_FLOOR, 4 * cap)
    used = 0
    rounds: list[RoundTrace] = []
    found: Optional[int] = None
    while used < cap and len(rounds) < round_limit:
        k = min(rng.randrange(next(caps)), cap - used)
        p = round_success_probability(k, theta)
        rounds.append(RoundTrace(k, p))
        used += k
        if rng.random() < p:
            found = solutions[rng.randrange(t)]
            break
    return GroverOutcome(found=found, iterations_used=used, rounds=rounds)


def schedule_success_probability(domain_size: int, solution_count: int) -> float:
    """Exact overall success probability of search_solutions for a given
    solution count, by dynamic programming over consumed iterations.

    Tracks the probability mass still searching at each iteration budget and
    folds in each round's uniform draw; draws that would overrun the cap are
    truncated and end the search, exactly as in the sampler. Used to verify
    the schedule's error bound and as the reference for empirical found-rate
    tests.
    """
    if domain_size < 1:
        raise ValueError("domain must be nonempty")
    if not 0 <= solution_count <= domain_size:
        raise ValueError("solution count out of range")
    if solution_count == 0:
        return 0.0
    theta = math.asin(math.sqrt(solution_count / domain_size))
    cap = _iteration_cap(domain_size)
    p = np.array([round_success_probability(k, theta) for k in range(cap + 1)])

    budgets = np.arange(cap)
    fail_at_cap = 1.0 - p[cap - budgets]  # truncated draw from budget b runs cap-b
    running = np.zeros(cap)
    running[0] = 1.0
    failed = 0.0
    caps = _round_caps(math.sqrt(domain_size))
    for _ in range(max(_ROUND_LIMIT_FLOOR, 4 * cap)):
        if running.sum() <= _RUNNING_MASS_TOL:
            break
        draw_bound = next(caps)
        weight = 1.0 / draw_bound
        new = np.zeros(cap)
        for k in range(min(draw_bound, cap)):
            new[k:cap] += running[: cap - k] * ((1.0 - p[k]) * weight)
        truncated_draws = np.clip(draw_bound - (cap - budgets), 0, None)
        failed += weight * float((running * fail_at_cap * truncated_draws).sum())
        running = new
    return 1.0 - failed - float(running.sum())
