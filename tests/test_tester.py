import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import all_words, left, member_constructions, member_words, right
import twopal
from twopal import (
    Word,
    ceil_sqrt,
    classical_test,
    distance_to_language,
    far_threshold,
    gen_far,
    gen_gamma,
    gen_member,
    icbrt,
    is_eps_far,
    offset_count,
    quantum_test,
    random_word,
    sample_offsets,
)
from twopal.grover import _iteration_cap, search_solutions
from twopal.ledger import QueryLedger
from twopal import tester
from twopal.tester import PREFIX_SHIFTS, _fingerprints, _grid_hits, _rotations


# --- integer roots and grids -------------------------------------------


def test_icbrt_exhaustive_small():
    for n in range(20001):
        c = icbrt(n)
        assert c**3 <= n < (c + 1) ** 3


def test_icbrt_perfect_cube_edges():
    for c in (1, 2, 7, 10, 64, 128, 1000, 10**6):
        assert icbrt(c**3) == c
        assert icbrt(c**3 - 1) == c - 1
        assert icbrt(c**3 + 1) == c


@given(st.integers(min_value=0, max_value=10**18))
def test_icbrt_property(n):
    c = icbrt(n)
    assert c**3 <= n < (c + 1) ** 3


@given(st.integers(min_value=0, max_value=10**18))
def test_ceil_sqrt_property(n):
    r = ceil_sqrt(n)
    assert (r - 1) ** 2 < n <= r * r or (n == 0 and r == 0)


def _kernel_grids(monkeypatch, n, step_of):
    """The row and column starts the kernel gathers at length n."""
    calls = _spy_on_fingerprints(monkeypatch)
    _grid_hits(Word(bytes(n)), 0.5, random.Random(0), None, step_of)
    rows, columns = calls[:2]
    return rows, columns


def test_grid_invariants(monkeypatch):
    # the kernel serves even lengths only: 26 and 28 straddle the cube 27
    for n in (4, 6, 8, 26, 28, 100, 512, 2**12, 2**15, 2**18, 2**21):
        rows, columns = _kernel_grids(monkeypatch, n, icbrt)
        step = icbrt(n)
        assert rows == list(range(step))
        assert all(j % step == 0 for j in columns)
        assert all(0 <= j < n for j in columns)
        assert len(columns) == (n - 1) // step + 1
        rows, columns = _kernel_grids(monkeypatch, n, ceil_sqrt)
        assert len(rows) == ceil_sqrt(n)
        assert all(0 <= j < n for j in columns)


def test_smallest_sizes_degenerate_to_pair_search(monkeypatch):
    rows, columns = _kernel_grids(monkeypatch, 4, icbrt)
    assert icbrt(4) == 1
    assert rows == [0]
    assert len(columns) == 4


# --- offsets and fingerprints ------------------------------------------


def test_offset_count_frozen():
    assert offset_count(1024, 0.1) == 200
    assert offset_count(256, 0.25) == 64
    assert offset_count(4, 0.5) == 8


def test_offset_count_domain_errors():
    for bad_n in (0, 2, 5):
        with pytest.raises(ValueError):
            offset_count(bad_n, 0.1)
    for bad_eps in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            offset_count(8, bad_eps)


def test_sample_offsets_shape():
    shifts = sample_offsets(1024, 0.1, random.Random(3))
    assert len(shifts) == 200
    assert all(0 <= p < 1024 for p in shifts.tolist())


@pytest.mark.parametrize("n", [4, 6, 16, 514, 1000, 1024, 1 << 21])
def test_sample_offsets_reproduces_randrange_stream_and_state(n):
    for seed in range(200):
        epsilon = (0.1, 0.3, 0.7)[seed % 3]
        batched, reference = random.Random(seed), random.Random(seed)
        shifts = sample_offsets(n, epsilon, batched)
        m = offset_count(n, epsilon)
        assert shifts.tolist() == [reference.randrange(n) for _ in range(m)]
        assert batched.getstate() == reference.getstate()


def test_fingerprint_frozen_examples():
    x = Word.from_text("01101001")
    assert left(x, 1, (1, 2)) == bytes([0, 1])
    assert left(x, 0, (1,)) == bytes([1])
    assert right(x, 2, (1, 2)) == bytes([0, 1])
    assert _gather(x, [1, 0], [-1, -2]) == [bytes([0, 1]), bytes([1, 0])]
    assert _gather(x, [2], [1, 2]) == [bytes([0, 1])]


def test_uniform_word_fingerprints_uniform():
    x = Word.from_text("0000")
    shifts = np.array([0, 1, 2, 3, 1])
    assert _gather(x, range(4), -shifts) == [bytes(5)] * 4
    assert _gather(x, range(4), shifts) == [bytes(5)] * 4


def _gather(x, starts, shifts):
    """_fingerprints read at any int starts and shifts, as a list of
    starts: the kernel reduces its shifts mod n before it reads."""
    shifts = np.asarray(shifts, np.int64) % x.n
    return _fingerprints(_rotations(x), [s % x.n for s in starts], shifts)


def _per_symbol(x, starts, shifts):
    return [bytes(x.symbols[(s + p) % x.n] for p in shifts) for s in starts]


def test_fingerprints_match_per_symbol_on_small_binary_words():
    for n in range(1, 11):
        shifts = [-p for p in range(n)] + list(range(n)) + [n - 1, 0]
        for x in all_words(n):
            expected = _per_symbol(x, range(n), shifts)
            assert _gather(x, range(n), shifts) == expected


def test_fingerprints_match_per_symbol_on_ternary_words():
    rng = random.Random(17)
    for n in (3, 8, 31, 256, 1000):
        x = random_word(n, rng, 3)
        starts = [rng.randrange(n) for _ in range(20)]
        shifts = [rng.randrange(-n + 1, n) for _ in range(40)]
        assert _gather(x, starts, shifts) == _per_symbol(x, starts, shifts)


def test_fingerprints_wrap_at_large_n():
    n = 2**21
    x = random_word(n, random.Random(19))
    starts = [0, 1, n // 2, n - 2, n - 1]
    shifts = [-(n - 1), -2, -1, 0, 1, 2, n - 1]
    assert _gather(x, starts, shifts) == _per_symbol(x, starts, shifts)


@pytest.mark.parametrize("n", [8, 1000, 1 << 21])
def test_fingerprints_agree_on_range_list_and_array_starts(n):
    # a slice of the rotations is read as one block, a list of starts one
    # rotation at a time; both read the same symbols
    x = random_word(n, random.Random(n))
    rotations = _rotations(x)
    assert rotations.shape == (n, n) and not rotations.flags.writeable
    rng = random.Random(23)
    shifts = [-(n - 1), -1, 0, 1, n - 1] + [rng.randrange(-n + 1, n) for _ in range(40)]
    shifts = np.array(shifts) % n
    for starts in (range(0, n, n // 8), range(3, min(n, 40), 5), range(n - 1, -1, -n // 4)):
        expected = _per_symbol(x, starts, shifts.tolist())
        stop = None if starts.stop < 0 else starts.stop
        forms = (slice(starts.start, stop, starts.step), list(starts))
        for form in forms:
            assert _fingerprints(rotations, form, shifts) == expected
            assert _fingerprints(rotations, form, shifts.tolist()) == expected


# --- the shift sample as an array --------------------------------------


def test_offset_sample_is_a_read_only_int64_copy():
    drawn = sample_offsets(1024, 0.1, random.Random(3))
    assert drawn.dtype == np.int64 and len(drawn) == 200
    with pytest.raises(ValueError):
        drawn[0] = 0
    with pytest.raises(ValueError):
        drawn += 1
    assert drawn.flags.writeable is False
    # handed shifts of another dtype run as an int64 copy of the source
    source = drawn.astype(np.uint32)
    x = random_word(1024, random.Random(4))
    shifts, *_ = _grid_hits(x, 0.1, random.Random(3), source, icbrt)
    source[0] += 1
    assert shifts.dtype == np.int64
    assert shifts.tolist() == drawn.tolist()


def test_tuple_and_array_samples_fingerprint_alike():
    rng = random.Random(29)
    for n, alphabet_size in ((8, 2), (1024, 2), (1000, 3), (1 << 15, 2)):
        x = random_word(n, rng, alphabet_size)
        drawn = sample_offsets(n, 0.2, rng)
        as_tuple = tuple(drawn.tolist())
        assert len(as_tuple) == len(drawn)
        assert np.array_equal(np.asarray(as_tuple, np.int64), drawn)
        starts = (0, 1, n // 3, n - 1)
        rows = [left(x, i, as_tuple) for i in starts]
        columns = [right(x, j, as_tuple) for j in starts]
        assert _gather(x, starts, -drawn) == rows
        assert _gather(x, starts, drawn) == columns


def _verdict_fields(verdict):
    ledger = verdict.ledger
    return (
        verdict.accept,
        verdict.found_pair,
        verdict.rounds,
        ledger.classical_reads,
        ledger.quantum_charged,
        ledger.predicate_calls,
        ledger.uncharged_reads,
    )


@pytest.mark.parametrize("mode", ["quantum", "classical"])
def test_testers_give_the_same_verdicts_on_tuple_built_samples(mode):
    run = quantum_test if mode == "quantum" else classical_test
    cases = [
        (kind, n, seed) for kind in ("member", "far", "alt") for n in (64, 1024) for seed in (1, 2)
    ]

    def verdicts(as_tuple):
        out = []
        for kind, n, seed in cases:
            rng = random.Random(seed + 100)
            shifts = None
            if as_tuple:
                shifts = tuple(sample_offsets(n, 0.2, rng).tolist())
            x = _seeded_word(kind, n, 0.2, seed)
            out.append(_verdict_fields(run(x, 0.2, rng, shifts)))
        return out

    expected = verdicts(as_tuple=False)
    assert verdicts(as_tuple=True) == expected
    assert any(accept for accept, *_ in expected) and not all(accept for accept, *_ in expected)


@pytest.mark.parametrize("tester", [quantum_test, classical_test])
@pytest.mark.parametrize("n", [16, 1024, 1 << 15])
def test_a_handed_sample_stands_for_the_testers_own_draw(tester, n):
    # far words are certified at eps 0.1: uniform words rarely reach 0.3 n
    words = [("member", seed) for seed in (1, 2)] + [("far", seed) for seed in (1, 2)]
    accepts = set()
    for epsilon in (0.1, 0.3):
        for kind, seed in words:
            x = _seeded_word(kind, n, 0.1, seed)
            rng_a, rng_b = random.Random(seed + 50), random.Random(seed + 50)
            alone = tester(x, epsilon, rng_a)
            shifts = sample_offsets(n, epsilon, rng_b)
            handed = tester(x, epsilon, rng_b, shifts)
            assert handed.accept == alone.accept
            assert handed.ledger == alone.ledger
            assert handed.found_pair == alone.found_pair
            assert handed.rounds == alone.rounds
            assert rng_a.getstate() == rng_b.getstate()
            accepts.add(alone.accept)
    assert accepts == {True, False}


@pytest.mark.parametrize("tester", [quantum_test, classical_test])
def test_a_handed_sample_of_the_wrong_length_is_refused(tester):
    x = _seeded_word("member", 1024, 0.1, 3)
    m = offset_count(1024, 0.1)
    for shifts in (range(m - 1), range(m + 1), range(offset_count(1024, 0.3))):
        with pytest.raises(ValueError, match="shifts"):
            tester(x, 0.1, random.Random(0), shifts)


@pytest.mark.parametrize("tester", [quantum_test, classical_test])
@pytest.mark.parametrize("n", [1024, 3000])
def test_handed_shifts_are_read_mod_n(tester, n):
    # the kernel reduces the shifts once; unreduced, one at or above n would
    # fall off the rotation view and one in [-n, 0) would wrap by accident
    accepts = set()
    for kind, seed in (("member", 1), ("far", 2)):
        x = _seeded_word(kind, n, 0.1, seed)
        shifts = sample_offsets(n, 0.1, random.Random(seed + 50))
        expected = _verdict_fields(tester(x, 0.1, random.Random(seed + 50)))
        for k in (-2, -1, 1, 3):
            moved = shifts + k * n
            assert moved.min() < 0 or moved.max() >= n
            rng = random.Random(seed + 50)
            sample_offsets(n, 0.1, rng)
            assert _verdict_fields(tester(x, 0.1, rng, moved)) == expected, k
        accepts.add(expected[0])
    assert accepts == {True, False}


# --- completeness ------------------------------------------------------


def test_member_grid_pair_exists_and_collides():
    rng = random.Random(61)
    for n in range(4, 17, 2):
        step = icbrt(n)
        for w, a in member_constructions(n):
            target = 2 * a - 1
            beta = target % step
            j = target - beta
            assert beta in range(step)
            assert j in range(0, n, step)
            assert beta + j == target
            for _ in range(3):
                shifts = [rng.randrange(n) for _ in range(8)]
                assert left(w, beta, shifts) == right(w, j, shifts)


def test_classical_accepts_every_member():
    for n in (4, 6, 8, 10, 12):
        for w in member_words(n):
            assert classical_test(w, 0.3, random.Random(n)).accept


def test_quantum_accepts_members_mostly():
    accepted = 0
    for seed in range(100):
        rng = random.Random(seed)
        half_u = rng.randint(1, 511)
        w = gen_member(half_u, 512 - half_u, rng)
        accepted += quantum_test(w, 0.1, rng).accept
    # the only loss is the simulated search's error, at most 0.1 per trial
    assert accepted >= 95


def test_found_pair_collides_on_the_sampled_offsets():
    hits = 0
    for seed in range(30):
        gen_rng = random.Random(seed)
        half_u = gen_rng.randint(1, 127)
        w = gen_member(half_u, 128 - half_u, gen_rng)
        # the tester draws its offsets first, so a cloned rng reproduces them
        expected = sample_offsets(256, 0.2, random.Random(1000 + seed))
        verdict = quantum_test(w, 0.2, random.Random(1000 + seed))
        if verdict.accept:
            hits += 1
            i, j = verdict.found_pair
            step = icbrt(256)
            assert i in range(step) and j in range(0, 256, step)
            assert left(w, i, expected) == right(w, j, expected)
    assert hits >= 27


def test_classical_found_pair_collides():
    w = gen_member(37, 91, random.Random(3))  # n = 256
    expected = sample_offsets(256, 0.2, random.Random(4))
    verdict = classical_test(w, 0.2, random.Random(4))
    assert verdict.accept
    i, j = verdict.found_pair
    assert left(w, i, expected) == right(w, j, expected)


# --- soundness ---------------------------------------------------------


def test_testers_reject_certified_far_words():
    for seed in range(60):
        rng = random.Random(1000 + seed)
        w = gen_far(256, 0.15, rng)
        assert not quantum_test(w, 0.15, rng).accept
        assert not classical_test(w, 0.15, rng).accept


def test_far_pair_collision_frequency():
    # fixed certified far word, fresh offset samples: a grid pair should
    # almost never agree on every shift (bound (1-eps)^m per valid pair)
    n, eps = 256, 0.25
    flip_rng = random.Random(53)
    base = bytearray(i % 2 for i in range(n))
    for pos in flip_rng.sample(range(n), 40):
        base[pos] ^= 1
    w = Word(bytes(base))
    assert distance_to_language(w).distance >= far_threshold(eps, n)

    m = offset_count(n, eps)
    step = icbrt(n)
    i_values = np.arange(step)
    j_values = np.arange(0, n, step)
    samples = 10_000
    shift_rng = np.random.default_rng(59)
    shifts = shift_rng.integers(0, n, size=(samples, m))
    arr = np.frombuffer(w.symbols, dtype=np.uint8)
    lefts = arr[(i_values[:, None, None] - shifts[None, :, :]) % n]
    rights = arr[(j_values[:, None, None] + shifts[None, :, :]) % n]

    # tie the vectorized replica to the tester's fingerprint kernel
    for s_idx in (0, 17, 4096):
        rows = _gather(w, i_values[:3].tolist(), -shifts[s_idx])
        columns = _gather(w, j_values[:3].tolist(), shifts[s_idx])
        assert rows == [bytes(lefts[idx, s_idx]) for idx in range(3)]
        assert columns == [bytes(rights[idx, s_idx]) for idx in range(3)]

    collisions = 0
    for idx in range(len(i_values)):
        collisions += int((lefts[idx][None, :, :] == rights).all(axis=2).sum())
    pair_count = len(i_values) * len(j_values)
    mean_frequency = collisions / (pair_count * samples)
    assert mean_frequency <= 3.0 / n**2


# --- verdict plumbing --------------------------------------------------


def test_domain_errors():
    rng = random.Random(0)
    for text in ("01", "010", "01010"):
        with pytest.raises(ValueError):
            quantum_test(Word.from_text(text), 0.1, rng)
        with pytest.raises(ValueError):
            classical_test(Word.from_text(text), 0.1, rng)
    with pytest.raises(ValueError):
        quantum_test(Word.from_text("0110"), 1.0, rng)


def test_quantum_ledger_accounting():
    w = gen_member(100, 412, random.Random(71))
    verdict = quantum_test(w, 0.1, random.Random(73))
    m = offset_count(1024, 0.1)
    ledger = verdict.ledger
    assert ledger.classical_reads == icbrt(1024) * m
    assert ledger.quantum_charged == ledger.predicate_calls * m
    assert ledger.total_charged == ledger.classical_reads + ledger.quantum_charged


def test_classical_ledger_full_scan_cost():
    far = gen_far(1024, 0.1, random.Random(79))
    verdict = classical_test(far, 0.1, random.Random(81))
    assert not verdict.accept
    step = ceil_sqrt(1024)
    m = offset_count(1024, 0.1)
    assert verdict.ledger.classical_reads == (step + len(range(0, 1024, step))) * m
    assert verdict.ledger.classical_reads == 12800
    assert verdict.ledger.quantum_charged == 0


def test_classical_ledger_charges_the_scan_up_to_the_first_hit():
    w = gen_member(37, 91, random.Random(3))  # n = 256
    verdict = classical_test(w, 0.2, random.Random(4))
    shifts = sample_offsets(256, 0.2, random.Random(4))
    step = ceil_sqrt(256)
    rows = {left(w, i, shifts) for i in range(step)}
    k = next(k for k, j in enumerate(range(0, 256, step)) if right(w, j, shifts) in rows)
    assert k > 0 and verdict.found_pair[1] == k * step
    assert verdict.ledger.classical_reads == (step + k + 1) * len(shifts)


def test_promise_violating_input_still_returns_verdict():
    # neither a member nor far: the verdict is recorded, nothing is promised
    w = gen_gamma(20, 3)
    assert 0 < distance_to_language(w).distance < far_threshold(0.2, 20)
    for seed in range(5):
        assert quantum_test(w, 0.2, random.Random(seed)).accept in (True, False)
        assert classical_test(w, 0.2, random.Random(seed)).accept in (True, False)


def test_tiny_members_accepted():
    for n in (4, 6):
        w = gen_member(1, n // 2 - 1, random.Random(5))
        assert classical_test(w, 0.5, random.Random(6)).accept
        assert quantum_test(w, 0.5, random.Random(7)).accept


# --- seeded verdicts ---------------------------------------------------

# (accept, found_pair, classical_reads, quantum_charged, predicate_calls,
# uncharged_reads), recorded from the per-symbol fingerprint implementation
# (uncharged_reads from the index-array gather the rotation view replaced).
# Any rewrite of how fingerprints, the row table or the column scan are
# built must reproduce every field, not only the verdict.
SEEDED_VERDICTS = [
    ("quantum", "member", 64, 0.1, 1, (True, (1, 8), 480, 1320, 11, 888)),
    ("classical", "member", 64, 0.1, 1, (True, (1, 8), 1200, 0, 0, 504)),
    ("quantum", "member", 64, 0.2, 2, (True, (1, 60), 240, 240, 4, 828)),
    ("classical", "member", 64, 0.2, 2, (True, (5, 56), 960, 0, 0, 444)),
    ("quantum", "far", 64, 0.1, 1, (False, None, 480, 1440, 12, 768)),
    ("classical", "far", 64, 0.1, 1, (False, None, 1920, 0, 0, 384)),
    ("quantum", "far", 64, 0.2, 2, (False, None, 240, 720, 12, 768)),
    ("classical", "far", 64, 0.2, 2, (False, None, 960, 0, 0, 384)),
    ("quantum", "alt", 64, 0.1, 1, (True, (0, 4), 480, 120, 1, 2688)),
    ("classical", "alt", 64, 0.1, 1, (True, (0, 0), 1080, 0, 0, 1344)),
    ("quantum", "alt", 64, 0.2, 2, (True, (0, 20), 240, 60, 1, 1728)),
    ("classical", "alt", 64, 0.2, 2, (True, (0, 0), 540, 0, 0, 864)),
    ("quantum", "member", 1024, 0.1, 1, (True, (7, 130), 2000, 3200, 16, 5144)),
    ("classical", "member", 1024, 0.1, 1, (True, (9, 128), 7400, 0, 0, 1736)),
    ("quantum", "member", 1024, 0.2, 2, (True, (9, 970), 1000, 1700, 17, 5044)),
    ("classical", "member", 1024, 0.2, 2, (True, (19, 960), 6300, 0, 0, 1636)),
    ("quantum", "far", 1024, 0.1, 1, (False, None, 2000, 6200, 31, 4944)),
    ("classical", "far", 1024, 0.1, 1, (False, None, 12800, 0, 0, 1536)),
    ("quantum", "far", 1024, 0.2, 2, (False, None, 1000, 3100, 31, 4944)),
    ("classical", "far", 1024, 0.2, 2, (False, None, 6400, 0, 0, 1536)),
    ("quantum", "alt", 1024, 0.1, 1, (True, (0, 50), 2000, 200, 1, 25544)),
    ("classical", "alt", 1024, 0.1, 1, (True, (0, 0), 6600, 0, 0, 7936)),
    ("quantum", "alt", 1024, 0.2, 2, (True, (0, 210), 1000, 100, 1, 15244)),
    ("classical", "alt", 1024, 0.2, 2, (True, (0, 0), 3300, 0, 0, 4736)),
    ("quantum", "member", 32768, 0.1, 1, (True, (19, 4384), 9600, 16500, 55, 49452)),
    ("classical", "member", 32768, 0.1, 1, (True, (35, 4368), 62100, 0, 0, 8988)),
    ("quantum", "member", 32768, 0.2, 2, (True, (31, 31296), 4800, 17700, 118, 49302)),
    ("classical", "member", 32768, 0.2, 2, (True, (23, 31304), 53250, 0, 0, 8838)),
    ("quantum", "far", 32768, 0.1, 1, (False, None, 9600, 28800, 96, 49152)),
    ("classical", "far", 32768, 0.1, 1, (False, None, 108900, 0, 0, 8688)),
    ("quantum", "far", 32768, 0.2, 2, (False, None, 4800, 14400, 96, 49152)),
    ("classical", "far", 32768, 0.2, 2, (False, None, 54450, 0, 0, 8688)),
    ("quantum", "alt", 32768, 0.1, 1, (True, (0, 31552), 9600, 300, 1, 356352)),
    ("classical", "alt", 32768, 0.1, 1, (True, (0, 0), 54900, 0, 0, 62988)),
    ("quantum", "alt", 32768, 0.2, 2, (True, (0, 17856), 4800, 150, 1, 202752)),
    ("classical", "alt", 32768, 0.2, 2, (True, (0, 0), 27450, 0, 0, 35838)),
]


def _seeded_word(kind, n, epsilon, seed):
    rng = random.Random(seed)
    if kind == "member":
        half_u = rng.randint(1, n // 2 - 1)
        return gen_member(half_u, n // 2 - half_u, rng)
    if kind == "far":
        return gen_far(n, epsilon, rng)
    return Word(bytes(i % 2 for i in range(n)))  # (01)^(n/2)


@pytest.mark.parametrize("mode, kind, n, epsilon, seed, expected", SEEDED_VERDICTS)
def test_seeded_verdicts_are_frozen(mode, kind, n, epsilon, seed, expected):
    x = _seeded_word(kind, n, epsilon, seed)
    run = quantum_test if mode == "quantum" else classical_test
    verdict = run(x, epsilon, random.Random(seed + 100))
    ledger = verdict.ledger
    assert (
        verdict.accept,
        verdict.found_pair,
        ledger.classical_reads,
        ledger.quantum_charged,
        ledger.predicate_calls,
        ledger.uncharged_reads,
    ) == expected


# --- column-hit kernel -------------------------------------------------


def _scan_hits(x, step, shifts):
    """Reference for the kernel: every column's full right fingerprint looked
    up among the rows' left fingerprints, first row per fingerprint."""
    rows = {}
    for i in range(step):
        rows.setdefault(left(x, i, shifts), i)
    hits = {}
    for k, j in enumerate(range(0, x.n, step)):
        s = right(x, j, shifts)
        if s in rows:
            hits[k] = rows[s]
    return hits


def _scan_verdict(mode, x, epsilon, seed):
    """Hits and verdict fields of a tester that scans every column in full
    and searches the ascending hit columns with the simulator."""
    rng = random.Random(seed)
    shifts = sample_offsets(x.n, epsilon, rng)
    m = len(shifts)
    ledger = QueryLedger()
    step = icbrt(x.n) if mode == "quantum" else ceil_sqrt(x.n)
    columns = range(0, x.n, step)
    ledger.read_classical(step * m)
    hits = _scan_hits(x, step, shifts)
    rounds = []
    if mode == "quantum":
        outcome = search_solutions(len(columns), sorted(hits), rng)
        found, rounds = outcome.found, outcome.rounds
        if rounds:
            evaluations = sum(r.iterations + 1 for r in rounds)
        else:
            evaluations = _iteration_cap(len(columns))
        ledger.charge_predicate(evaluations)
        ledger.charge_quantum(evaluations * m)
    else:
        found = min(hits, default=None)
        scanned = len(columns) if found is None else found + 1
        ledger.read_classical(scanned * m)
    pair = None if found is None else (hits[found], columns[found])
    fields = (
        found is not None,
        pair,
        ledger.classical_reads,
        ledger.quantum_charged,
        ledger.predicate_calls,
        rounds,
    )
    return list(hits.items()), fields


def _check_against_scan(x, epsilon, seed):
    """Assert the kernel and both testers match the full scan; return how
    many columns passed the prefix but failed the full fingerprint."""
    near_misses = 0
    for mode, run in (("quantum", quantum_test), ("classical", classical_test)):
        expected_hits, expected = _scan_verdict(mode, x, epsilon, seed)
        step_of = icbrt if mode == "quantum" else ceil_sqrt
        shifts, step, ledger, hits = _grid_hits(
            x, epsilon, random.Random(seed), None, step_of
        )
        m = len(shifts)
        assert list(hits.items()) == expected_hits, (mode, x.symbols, seed)
        assert ledger.classical_reads == step * m
        width = min(PREFIX_SHIFTS, m)
        if width < m:
            extra = ledger.uncharged_reads - len(range(0, x.n, step)) * width
            near_misses += extra // m - len(hits)
        verdict = run(x, epsilon, random.Random(seed))
        got = (
            verdict.accept,
            verdict.found_pair,
            verdict.ledger.classical_reads,
            verdict.ledger.quantum_charged,
            verdict.ledger.predicate_calls,
            verdict.rounds,
        )
        assert got == expected, (mode, x.symbols, seed)
    return near_misses


def test_kernel_matches_full_scan_on_every_small_binary_word():
    # eps 0.1 gives m = 40 < PREFIX_SHIFTS at n = 4 and m = 52..72 above it
    assert offset_count(4, 0.1) < PREFIX_SHIFTS < offset_count(6, 0.1)
    for n in range(4, 13, 2):
        for index, x in enumerate(all_words(n)):
            _check_against_scan(x, 0.1, index)


def test_kernel_matches_full_scan_when_m_equals_the_prefix():
    assert offset_count(8, 0.125) == PREFIX_SHIFTS
    for index, x in enumerate(all_words(8)):
        _check_against_scan(x, 0.125, index)


def _near_member(n, rng, alphabet_size):
    half_u = rng.randint(1, n // 2 - 1)
    x = bytearray(gen_member(half_u, n // 2 - half_u, rng, alphabet_size).symbols)
    for pos in rng.sample(range(n), max(1, n // 64)):
        x[pos] = (x[pos] + 1) % alphabet_size
    return Word(bytes(x), alphabet_size)


@pytest.mark.parametrize("alphabet_size", [2, 3])
def test_kernel_matches_full_scan_on_seeded_words(alphabet_size):
    rng = random.Random(67 + alphabet_size)
    near_misses = 0
    for n in (16, 64, 1000, 4096, 2**15):
        for epsilon in (0.1, 0.3, 0.6):
            for seed in range(3):
                half_u = rng.randint(1, n // 2 - 1)
                words = [
                    random_word(n, rng, alphabet_size),
                    gen_member(half_u, n // 2 - half_u, rng, alphabet_size),
                    _near_member(n, rng, alphabet_size),
                ]
                for x in words:
                    near_misses += _check_against_scan(x, epsilon, seed)
    # some columns passed the prefix and were then dropped by the full check
    assert near_misses > 0


def _periodic_words(n):
    yield Word(bytes(n))
    yield Word(bytes(i % 2 for i in range(n)))
    yield Word(bytes(int(i % 4 == 3) for i in range(n)))
    for i in sorted({0, 1, n // 2, n - 1}):
        yield gen_gamma(n, i)


@pytest.mark.parametrize("n", [16, 64, 1000, 1024, 4096])
def test_kernel_matches_full_scan_on_periodic_words(n):
    for x in _periodic_words(n):
        for epsilon in (0.1, 0.5):
            for seed in range(3):
                _check_against_scan(x, epsilon, seed)


# (mode, word, seed, (accept, found_pair, classical_reads, quantum_charged,
# predicate_calls, uncharged_reads)) at n = 2^21, eps 0.1, recorded before
# the prefix filter (uncharged_reads before the rotation view): every column
# of these words survives the prefix, the kernel's worst case
WORST_CASE_VERDICTS = [
    ("quantum", "zeros", 0, (True, (0, 1975040), 53760, 420, 1, 7667712)),
    ("classical", "zeros", 0, (True, (0, 0), 609000, 0, 0, 677664)),
    ("quantum", "zeros", 7, (True, (0, 189696), 53760, 420, 1, 7667712)),
    ("classical", "zeros", 7, (True, (0, 0), 609000, 0, 0, 677664)),
    ("quantum", "alt", 0, (True, (0, 1975040), 53760, 420, 1, 7667712)),
    ("classical", "alt", 0, (True, (0, 0), 609000, 0, 0, 677664)),
    ("quantum", "alt", 7, (True, (0, 189696), 53760, 420, 1, 7667712)),
    ("classical", "alt", 7, (True, (0, 0), 609000, 0, 0, 677664)),
    ("quantum", "0001", 0, (True, (2, 1975040), 53760, 420, 1, 7667712)),
    ("classical", "0001", 0, (True, (2, 0), 609000, 0, 0, 677664)),
    ("quantum", "0001", 7, (True, (2, 189696), 53760, 420, 1, 7667712)),
    ("classical", "0001", 7, (True, (2, 0), 609000, 0, 0, 677664)),
]


def test_worst_case_verdicts_at_large_n_are_unchanged_and_bounded():
    n = 2**21
    words = {
        "zeros": Word(bytes(n)),
        "alt": Word(bytes(i % 2 for i in range(n))),
        "0001": Word(bytes(int(i % 4 == 3) for i in range(n))),
    }
    start = time.perf_counter()
    for mode, name, seed, expected in WORST_CASE_VERDICTS:
        run = quantum_test if mode == "quantum" else classical_test
        verdict = run(words[name], 0.1, random.Random(seed))
        ledger = verdict.ledger
        assert (
            verdict.accept,
            verdict.found_pair,
            ledger.classical_reads,
            ledger.quantum_charged,
            ledger.predicate_calls,
            ledger.uncharged_reads,
        ) == expected, (mode, name, seed)
    # the twelve verdicts take about 0.3 s on a 2-core host
    assert time.perf_counter() - start < 10.0


def test_worst_case_kernel_memory_stays_linear():
    # every column of the all-zero word passes the prefix screen, so the
    # quantum tester reads all 16384 full fingerprints: the rotation view
    # costs 2n bytes, and no index array of one int64 per symbol is built
    n = 2**21
    zeros = Word(bytes(n))
    tracemalloc.start()
    try:
        verdict = quantum_test(zeros, 0.1, random.Random(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.accept
    assert verdict.ledger.uncharged_reads == 16384 * (PREFIX_SHIFTS + 420)
    assert peak <= 12 * n


def _prefix_columns(x, step, shifts):
    """Indices k of the columns whose fingerprint on the first
    min(PREFIX_SHIFTS, m) shifts is some row's."""
    head = shifts[:PREFIX_SHIFTS]
    rows = {left(x, i, head) for i in range(step)}
    columns = range(0, x.n, step)
    return [k for k, j in enumerate(columns) if right(x, j, head) in rows]


def _prefix_candidates(x, step, shifts):
    """How many columns pass the prefix screen."""
    return len(_prefix_columns(x, step, shifts))


def test_uncharged_reads_are_bounded_and_never_charged():
    rng = random.Random(71)
    n = 2**21
    cases = [
        (gen_far(n, 0.1, rng), 0.1),
        (gen_member(300, 212, rng), 0.1),
        (Word(bytes(1024)), 0.1),
        (Word(bytes(i % 2 for i in range(64))), 0.5),
    ]
    testers = ((quantum_test, icbrt), (classical_test, ceil_sqrt))
    for x, epsilon in cases:
        for run, step_of in testers:
            verdict = run(x, epsilon, random.Random(5))
            shifts = sample_offsets(x.n, epsilon, random.Random(5))
            step = step_of(x.n)
            m = len(shifts)
            bound = len(range(0, x.n, step)) * min(PREFIX_SHIFTS, m)
            bound += _prefix_candidates(x, step, shifts) * m
            ledger = verdict.ledger
            assert 0 < ledger.uncharged_reads <= bound
            charged = ledger.classical_reads + ledger.quantum_charged
            assert ledger.total_charged == charged
    # on a far word almost no column survives the prefix, so the private
    # reads stay far below the m per column of building every fingerprint
    far = cases[0][0]
    for run, step_of in testers:
        verdict = run(far, 0.1, random.Random(5))
        m = offset_count(n, 0.1)
        assert verdict.ledger.uncharged_reads < len(range(0, n, step_of(n))) * m
        assert not verdict.accept


def test_quantum_verdict_carries_its_rounds():
    w = gen_member(100, 412, random.Random(71))
    verdict = quantum_test(w, 0.1, random.Random(73))
    assert verdict.accept and verdict.rounds
    ledger = verdict.ledger
    assert ledger.predicate_calls == sum(r.iterations + 1 for r in verdict.rounds)
    far = gen_far(1024, 0.1, random.Random(79))
    assert quantum_test(far, 0.1, random.Random(81)).rounds == []
    assert classical_test(w, 0.1, random.Random(73)).rounds == []


def test_both_testers_run_the_one_collision_kernel_once(monkeypatch):
    removed = ("_build_left_table", "_column_hits", "_shift_sample", "_check_domain")
    for name in removed:
        assert not hasattr(tester, name), name
    # the kernel takes plain shifts and a step function, no wrapper types
    for name in ("OffsetSample", "IndexGrids", "cube_grids", "sqrt_grids"):
        assert not hasattr(tester, name) and not hasattr(twopal, name), name
    assert len(twopal.__all__) == 26
    calls = []

    def spy(*args):
        calls.append(args[4])
        return _grid_hits(*args)

    monkeypatch.setattr(tester, "_grid_hits", spy)
    w = gen_member(100, 412, random.Random(71))
    for run, step_of in ((quantum_test, icbrt), (classical_test, ceil_sqrt)):
        calls.clear()
        run(w, 0.1, random.Random(73))
        assert calls == [step_of]


@pytest.mark.parametrize("n", [100, 1000, 3072, 5000, 65538])
def test_far_charges_match_the_closed_forms_off_the_cube_sizes(n):
    # a rejecting quantum run reads step * m for the rows, then pays m for
    # each of the cap's evaluations; a rejecting classical run reads s * m
    # for the rows and m for each of its ceil(n / s) columns
    m = offset_count(n, 0.1)
    step = icbrt(n)
    cap = math.ceil(3 * math.sqrt(len(range(0, n, step))))
    s = ceil_sqrt(n)
    for seed in range(4):
        far = gen_far(n, 0.1, random.Random(seed))
        q = quantum_test(far, 0.1, random.Random(seed))
        assert not q.accept and q.rounds == []
        assert (q.ledger.classical_reads, q.ledger.quantum_charged) == (
            step * m,
            cap * m,
        )
        assert q.ledger.predicate_calls == cap
        assert q.ledger.total_charged == m * (step + cap)
        c = classical_test(far, 0.1, random.Random(seed))
        assert not c.accept
        assert c.ledger.total_charged == c.ledger.classical_reads
        assert c.ledger.total_charged == m * (s + math.ceil(n / s))


def test_far_charge_closed_forms_at_every_even_size():
    # per unit of m, a far word costs icbrt(n) + ceil(3 sqrt(N)) quantum
    # and s + ceil(n / s) classical queries; both testers read the same m
    n = np.arange(4, 2**21 + 1, 2, dtype=np.int64)
    step = np.rint(np.cbrt(n)).astype(np.int64)
    step -= step**3 > n
    step += (step + 1) ** 3 <= n
    cap = np.ceil(3 * np.sqrt(-(-n // step))).astype(np.int64)
    s = np.rint(np.sqrt(n)).astype(np.int64)
    s += s * s < n
    s -= (s - 1) ** 2 >= n
    quantum = step + cap
    classical = s + -(-n // s)
    rng = random.Random(10)
    for k in [*rng.sample(range(len(n)), 2000), 0, 1, len(n) - 1]:
        size = int(n[k])
        assert step[k] == icbrt(size) and s[k] == ceil_sqrt(size), size
        assert cap[k] == _iteration_cap(len(range(0, size, icbrt(size)))), size
    for c in range(2, 129):
        for size in (c**3 - 2, c**3, c**3 + 2, c * c - 2, c * c, c * c + 2):
            k = (size - 4) // 2
            if size % 2 == 0 and 0 <= k < len(n):
                assert step[k] == icbrt(size) and s[k] == ceil_sqrt(size), size
    # 4 <= quantum / n^(1/3) < 4.96 = 124/25, compared in integers; both
    # ends are nearly reached: 4.00 at every cube, 4.953 at n = 6
    assert (quantum**3 >= 64 * n).all()
    assert (quantum**3 * 25**3 < 124**3 * n).all()
    assert (quantum**3 == 64 * n).sum() == 64
    assert (quantum**3 * 100**3 > 495**3 * n).any()
    # quantum is below classical at every even n above 90, and not at 90
    behind = n[quantum >= classical]
    assert len(behind) == 42 and behind.max() == 90


# --- fixed costs the kernel skips ----------------------------------------


def _spy_on_fingerprints(monkeypatch):
    """Record the starts of every _fingerprints call the tester makes."""
    calls = []

    def spy(rotations, starts, shifts):
        calls.append(np.arange(len(rotations))[starts].tolist())
        return _fingerprints(rotations, starts, shifts)

    monkeypatch.setattr(tester, "_fingerprints", spy)
    return calls


@pytest.mark.parametrize("n", [1024, 2**15])
@pytest.mark.parametrize("step_of", [icbrt, ceil_sqrt])
def test_no_column_past_the_prefix_reads_nothing_more(monkeypatch, n, step_of):
    far = gen_far(n, 0.1, random.Random(n))
    assert is_eps_far(far, 0.1)
    shifts = sample_offsets(n, 0.1, random.Random(7))
    step = step_of(n)
    columns = range(0, n, step)
    assert len(shifts) > PREFIX_SHIFTS
    assert _prefix_columns(far, step, shifts) == []
    calls = _spy_on_fingerprints(monkeypatch)
    _, _, ledger, hits = _grid_hits(far, 0.1, random.Random(7), shifts, step_of)
    assert hits == {}
    # the rows, then the prefix screen alone: no gather of full fingerprints
    assert calls == [list(range(step)), list(columns)]
    assert ledger.uncharged_reads == len(columns) * min(PREFIX_SHIFTS, len(shifts))


@pytest.mark.parametrize("n", [1024, 2**15])
def test_full_fingerprints_are_gathered_for_the_prefix_candidates_only(
    monkeypatch, n
):
    rng = random.Random(n + 1)
    member = gen_member(n // 3, n // 2 - n // 3, rng)
    shifts = sample_offsets(n, 0.1, rng)
    step = icbrt(n)
    columns = range(0, n, step)
    candidates = _prefix_columns(member, step, shifts)
    assert candidates
    calls = _spy_on_fingerprints(monkeypatch)
    _, _, ledger, hits = _grid_hits(member, 0.1, rng, shifts, icbrt)
    assert hits and set(hits) <= set(candidates)
    assert calls == [
        list(range(step)),
        list(columns),
        [columns[k] for k in candidates],
    ]
    prefix_reads = len(columns) * PREFIX_SHIFTS
    assert ledger.uncharged_reads == prefix_reads + len(candidates) * len(shifts)


def test_row_table_maps_each_fingerprint_to_its_first_row():
    n = 2**15
    shifts = sample_offsets(n, 0.1, random.Random(11))
    x = Word(bytes(int(i % 4 == 3) for i in range(n)))
    # the columns see the rows' table only through the row each one hits:
    # the cube grid's columns are all 0 mod 4, the sqrt grid's 0 or 2 mod 4
    for step_of, first_rows in ((icbrt, {2}), (ceil_sqrt, {0, 2})):
        step = step_of(n)
        columns = range(len(range(0, n, step)))
        # one fingerprint, first met at row 0: every column maps to row 0
        _, _, _, zeros = _grid_hits(
            Word(bytes(n)), 0.1, random.Random(11), shifts, step_of
        )
        assert zeros == dict.fromkeys(columns, 0)
        expected = {}
        for i in range(step):
            expected.setdefault(left(x, i, shifts), i)
        assert len(expected) == 4
        _, _, _, hits = _grid_hits(x, 0.1, random.Random(11), shifts, step_of)
        assert hits == {k: expected[right(x, k * step, shifts)] for k in columns}
        # every column hits, at the first row of its residue mod 4
        assert set(hits.values()) == first_rows
