"""Acceptance suite: one test per release criterion, each printing a verdict
line (run with -s to see them on success)."""

import math
import random
import time

import numpy as np
import pytest
from mpmath import mp

from helpers import all_words, brute_force_member, left, member_constructions, right
from twopal import (
    Decomposition,
    DistanceResult,
    QueryLedger,
    check_symmetric_characterization,
    distance_to_language,
    exact_member,
    gen_member,
    icbrt,
    random_word,
    round_success_probability,
    schedule_success_probability,
)
from twopal.experiment import ExperimentConfig, run_experiment
from twopal.grover import search_solutions

mp.dps = 50

SCALING_SIZES = (2**9, 2**12, 2**15, 2**18, 2**21)


def _verdict(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_reduction_equals_brute_force_exhaustively():
    start = time.perf_counter()
    words = 0
    mismatches = 0
    for n in range(4, 19, 2):
        for w in all_words(n):
            words += 1
            if exact_member(w).is_member != brute_force_member(w).is_member:
                mismatches += 1
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "substring reduction equals brute force on all words, n <= 18",
        mismatches == 0 and elapsed < 60,
        f"{words} words, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_02_symmetric_pair_characterization():
    checked_members = 0
    violations = 0
    for n in range(4, 15, 2):
        for w in all_words(n):
            result = exact_member(w)
            if not result.is_member:
                continue
            checked_members += 1
            a = result.witness.half_u
            if not check_symmetric_characterization(w, result.witness):
                violations += 1
            target = (2 * a - 1) % n
            for i in range(2 * a):
                for j in range(2 * a, n):
                    if (i + j) % n == target:
                        violations += 1
    _verdict(
        2,
        "mirror pairs agree and cross-half pairs miss the congruence, n <= 14",
        violations == 0,
        f"{checked_members} members checked",
    )


def test_criterion_03_every_member_has_a_grid_pair():
    rng = random.Random(1234)
    checked = 0
    failures = 0
    for n in range(4, 17, 2):
        step = icbrt(n)
        for w, a in member_constructions(n):
            target = 2 * a - 1
            beta = target % step
            j = target - beta
            ok = beta in range(step) and j in range(0, n, step) and beta + j == target
            for _ in range(100):
                shifts = [rng.randrange(n) for _ in range(8)]
                if left(w, beta, shifts) != right(w, j, shifts):
                    ok = False
                    break
            checked += 1
            failures += not ok
    _verdict(
        3,
        "grid pair exists and collides for every member, n <= 16, 100 samples",
        failures == 0,
        f"{checked} member constructions",
    )


def test_criterion_04_tester_completeness_at_desk_scale():
    start = time.perf_counter()
    config = ExperimentConfig(
        sizes=(1024,),
        epsilons=(0.1,),
        trials=400,
        seed=41,
        modes=("quantum",),
        member_fraction=1.0,
    )
    cell = run_experiment(config).cells[0]
    elapsed = time.perf_counter() - start
    low, _ = cell.wilson
    ok = cell.accept_rate >= 0.85 and low > 0.80 and elapsed < 120
    _verdict(
        4,
        "quantum tester accepts members (n=1024, eps=0.1, 400 trials)",
        ok,
        f"accept rate {cell.accept_rate:.3f}, Wilson low {low:.3f}, {elapsed:.1f}s",
    )


def test_criterion_05_tester_soundness_at_desk_scale():
    start = time.perf_counter()
    config = ExperimentConfig(
        sizes=(1024,),
        epsilons=(0.1,),
        trials=400,
        seed=43,
        modes=("quantum",),
        member_fraction=0.0,
    )
    cell = run_experiment(config).cells[0]
    elapsed = time.perf_counter() - start
    reject_rate = 1.0 - cell.accept_rate
    ok = cell.skipped is None and reject_rate >= 0.70 and elapsed < 300
    _verdict(
        5,
        "quantum tester rejects certified far words (n=1024, eps=0.1, 400 trials)",
        ok,
        f"reject rate {reject_rate:.3f}, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def scaling_report():
    start = time.perf_counter()
    config = ExperimentConfig(
        sizes=SCALING_SIZES,
        epsilons=(0.1,),
        trials=4,
        seed=1706,
        modes=("quantum", "classical"),
        member_fraction=0.0,
    )
    report = run_experiment(config)
    return report, time.perf_counter() - start


def _cells_by_size(report, mode):
    return {
        cell.n: cell
        for cell in report.cells
        if cell.mode == mode and cell.instance_class == "far"
    }


def test_criterion_06_quantum_query_scaling(scaling_report):
    report, elapsed = scaling_report
    cells = _cells_by_size(report, "quantum")
    ratios = {
        n: cells[n].mean_queries / (10.0 * n ** (1 / 3) * math.log2(n))
        for n in SCALING_SIZES
    }
    base = ratios[SCALING_SIZES[0]]
    spread_ok = all(0.5 * base <= r <= 2.0 * base for r in ratios.values())
    ok = spread_ok and elapsed < 600 and all(cells[n].skipped is None for n in cells)
    detail = ", ".join(f"2^{int(math.log2(n))}:{r:.2f}" for n, r in ratios.items())
    _verdict(
        6,
        "charged queries track (1/eps) n^(1/3) log n within 2x",
        ok,
        f"ratios {detail}, sweep {elapsed:.0f}s",
    )


def test_criterion_07_classical_scaling_and_separation(scaling_report):
    report, _ = scaling_report
    classical = _cells_by_size(report, "classical")
    quantum = _cells_by_size(report, "quantum")
    ratios = {
        n: classical[n].mean_queries / (10.0 * math.sqrt(n) * math.log2(n))
        for n in SCALING_SIZES
    }
    base = ratios[SCALING_SIZES[0]]
    stable = all(0.5 * base <= r <= 2.0 * base for r in ratios.values())
    separated = all(
        quantum[n].mean_queries < classical[n].mean_queries
        for n in SCALING_SIZES
        if n >= 2**15
    )
    detail = ", ".join(
        f"2^{int(math.log2(n))}:{quantum[n].mean_queries:.0f}<{classical[n].mean_queries:.0f}"
        for n in SCALING_SIZES
        if n >= 2**15
    )
    _verdict(
        7,
        "classical baseline tracks sqrt(n) log n and quantum stays below it",
        stable and separated,
        detail,
    )


def test_criterion_08_grover_simulator_fidelity():
    start = time.perf_counter()

    fidelity_ok = True
    for domain, t in ((4, 1), (16, 1), (64, 4), (103, 1), (1024, 3)):
        theta = math.asin(math.sqrt(t / domain))
        theta_hp = mp.asin(mp.sqrt(mp.mpf(t) / domain))
        for k in (0, 1, 2, 5, 20, 101):
            exact = float(mp.sin((2 * k + 1) * theta_hp) ** 2)
            if abs(round_success_probability(k, theta) - exact) > 1e-12:
                fidelity_ok = False

    runs = 10_000
    rate_ok = True
    rates = []
    for domain, t in ((16, 1), (64, 1), (64, 4), (256, 16)):
        solutions = range(0, domain, domain // t)
        assert len(solutions) == t
        rng = random.Random(2024)
        hits = sum(
            search_solutions(domain, solutions, rng).found is not None
            for _ in range(runs)
        )
        analytic = schedule_success_probability(domain, t)
        se = math.sqrt(max(analytic * (1.0 - analytic), 1e-12) / runs)
        rates.append(f"({domain},{t}):{hits / runs:.4f}~{analytic:.4f}")
        if abs(hits / runs - analytic) > 3 * se:
            rate_ok = False

    none_found = all(
        search_solutions(50, [], random.Random(s)).found is None
        for s in range(200)
    )
    elapsed = time.perf_counter() - start
    _verdict(
        8,
        "simulated search is faithful to the rotation amplitudes",
        fidelity_ok and rate_ok and none_found and elapsed < 60,
        f"{'; '.join(rates)}, {elapsed:.1f}s",
    )


def _pair_gather_distance(w):
    """Reference distance by counting every split's equal mirror pairs in one
    gather. Split a pairs even position 2*alpha with odd position 2*beta + 1
    exactly when alpha + beta = a - 1 (mod h), h = n/2, so
    equal[r] = sum over alpha of [even[alpha] == odd[(r - alpha) mod h]]
    counts the equal pairs of split r + 1; the distance is h minus the
    largest count, and the smallest |u| wins ties. No transform is used."""
    h = w.n // 2
    arr = np.frombuffer(w.symbols, dtype=np.uint8)
    even, odd = arr[0::2], arr[1::2]
    alpha = np.arange(h)
    equal = (odd[(alpha[:, None] - alpha) % h] == even).sum(axis=1)
    a = int(np.argmax(equal[: h - 1])) + 1
    return DistanceResult(h - int(equal[a - 1]), Decomposition(a, h - a))


def test_criterion_09_distance_oracle_agreement():
    rng = random.Random(97)
    disagreements = 0
    for _ in range(10_000):
        n = 2 * rng.randrange(2, 257)
        w = random_word(n, rng)
        if _pair_gather_distance(w) != distance_to_language(w):
            disagreements += 1
    equivalence_ok = True
    for n in range(4, 17, 2):
        for w in all_words(n):
            if (distance_to_language(w).distance == 0) != brute_force_member(
                w
            ).is_member:
                equivalence_ok = False
    _verdict(
        9,
        "fast distance equals baseline; zero distance iff member (n <= 16)",
        disagreements == 0 and equivalence_ok,
        "10000 random words up to n=512",
    )


def test_criterion_10_exact_decider_reads_linearly():
    rng = random.Random(131)
    worst = 0.0
    ok = True
    for exp in range(8, 21, 2):
        n = 2**exp
        half = rng.randint(1, n // 2 - 1)
        words = [
            gen_member(half, n // 2 - half, rng),
            gen_member(n // 2 - half, half, rng),
            random_word(n, rng),
            random_word(n, rng),
        ]
        for w in words:
            ledger = QueryLedger()
            exact_member(w, ledger)
            worst = max(worst, ledger.classical_reads / n)
            if ledger.classical_reads > 3 * n:
                ok = False
    _verdict(
        10,
        "exact decider reads at most 3n symbols across n up to 2^20",
        ok,
        f"worst reads/n = {worst:.3f}",
    )
