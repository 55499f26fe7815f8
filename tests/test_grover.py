import inspect
import math
import random

import pytest
from mpmath import mp

from twopal import grover, round_success_probability, schedule_success_probability
from twopal.grover import _iteration_cap, search_solutions

mp.dps = 50


def high_precision_probability(domain, solutions, k):
    theta = mp.asin(mp.sqrt(mp.mpf(solutions) / domain))
    return float(mp.sin((2 * k + 1) * theta) ** 2)


def test_round_probability_matches_high_precision():
    for domain, solutions in (
        (4, 1),
        (7, 2),
        (16, 1),
        (64, 4),
        (103, 1),
        (256, 16),
        (1024, 7),
        (10**6, 1),
    ):
        theta = math.asin(math.sqrt(solutions / domain))
        for k in (0, 1, 2, 3, 5, 17, 100, 999):
            expected = high_precision_probability(domain, solutions, k)
            assert abs(round_success_probability(k, theta) - expected) <= 1e-12


def test_round_probability_frozen_cases():
    theta = math.asin(math.sqrt(1 / 4))  # pi/6
    assert abs(round_success_probability(1, theta) - 1.0) <= 1e-12
    assert abs(round_success_probability(0, theta) - 0.25) <= 1e-12
    assert abs(round_success_probability(0, math.pi / 2) - 1.0) <= 1e-12


def test_no_solutions_charges_full_cap():
    for domain in (1, 5, 64, 1000):
        outcome = search_solutions(domain, [], random.Random(7))
        cap = _iteration_cap(domain)
        assert outcome.found is None
        assert outcome.iterations_used == cap
        assert outcome.rounds == []
        assert outcome.evaluations == cap


def test_all_solutions_measures_immediately():
    outcome = search_solutions(16, range(16), random.Random(5))
    assert outcome.found is not None
    assert outcome.iterations_used == 0
    assert len(outcome.rounds) == 1
    assert outcome.rounds[0].iterations == 0
    assert abs(outcome.rounds[0].success_probability - 1.0) <= 1e-12
    assert outcome.evaluations == 1


def test_found_index_is_a_solution():
    solutions = [3, 11, 40]
    rng = random.Random(13)
    for _ in range(300):
        outcome = search_solutions(64, solutions, rng)
        if outcome.found is not None:
            assert outcome.found in solutions


def test_every_solution_reachable():
    solutions = [1, 22, 45, 63]
    rng = random.Random(17)
    seen = set()
    for _ in range(400):
        outcome = search_solutions(64, solutions, rng)
        if outcome.found is not None:
            seen.add(outcome.found)
    assert sorted(seen) == solutions


def test_iterations_and_charge_bounds():
    rng = random.Random(19)
    for domain, solutions in ((16, 1), (64, 3), (100, 10), (256, 1)):
        for _ in range(50):
            outcome = search_solutions(domain, range(solutions), rng)
            cap = _iteration_cap(domain)
            assert outcome.iterations_used <= cap
            assert outcome.evaluations <= cap + len(outcome.rounds)
            assert outcome.evaluations == sum(
                r.iterations + 1 for r in outcome.rounds
            )


def test_simulator_counts_evaluations_and_charges_nothing():
    params = list(inspect.signature(search_solutions).parameters)
    assert params == ["domain_size", "solutions", "rng"]
    assert not hasattr(grover, "QueryLedger")
    rng = random.Random(23)
    for domain in (1, 16, 100, 1000):
        for solutions in ([], [0], range(0, domain, 7)):
            outcome = search_solutions(domain, solutions, rng)
            if outcome.rounds:
                expected = sum(r.iterations + 1 for r in outcome.rounds)
            else:
                assert not solutions
                expected = _iteration_cap(domain)
            assert outcome.evaluations == expected


def test_deterministic_given_seed():
    a = search_solutions(64, [4, 31], random.Random(29))
    b = search_solutions(64, [4, 31], random.Random(29))
    assert a.found == b.found
    assert a.iterations_used == b.iterations_used
    assert a.rounds == b.rounds


def test_domain_validation():
    with pytest.raises(ValueError):
        search_solutions(0, [], random.Random(0))


def test_schedule_probability_edge_cases():
    assert schedule_success_probability(10, 0) == 0.0
    assert schedule_success_probability(1, 1) > 0.999999
    assert abs(schedule_success_probability(16, 16) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        schedule_success_probability(0, 0)
    with pytest.raises(ValueError):
        schedule_success_probability(4, 5)


def test_schedule_failure_bound_across_grid():
    # error stays at most 0.1 whenever at least one solution exists
    worst = 0.0
    for domain in (2, 3, 4, 8, 16, 64, 256, 1024, 4096, 65536, 10**6):
        counts = {1, 2, 3, max(1, domain // 100), max(1, domain // 4), domain}
        for t in counts:
            if t > domain:
                continue
            failure = 1.0 - schedule_success_probability(domain, t)
            worst = max(worst, failure)
            assert failure <= 0.1, (domain, t, failure)
    assert worst <= 0.1


def test_found_index_uniform_over_solutions():
    # chi-square goodness of fit at the 0.01 level, 3 degrees of freedom
    solutions = [5, 21, 40, 57]
    rng = random.Random(37)
    counts = dict.fromkeys(solutions, 0)
    runs = 10_000
    found = 0
    for _ in range(runs):
        outcome = search_solutions(64, solutions, rng)
        if outcome.found is not None:
            counts[outcome.found] += 1
            found += 1
    expected = found / len(solutions)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 11.345


def test_schedule_probability_matches_empirical():
    domain, t = 8, 1
    analytic = schedule_success_probability(domain, t)
    rng = random.Random(31)
    runs = 20000
    hits = sum(
        search_solutions(domain, [5], rng).found is not None
        for _ in range(runs)
    )
    se = math.sqrt(max(analytic * (1 - analytic), 1e-12) / runs)
    assert abs(hits / runs - analytic) <= 4 * se + 1e-9
