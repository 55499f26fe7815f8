import hashlib
import inspect
import math
import random
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import _distance_baseline, all_words, brute_force_member, mismatched_pairs
from twopal import (
    Decomposition,
    Word,
    distance_to_language,
    far_threshold,
    gen_far,
    gen_gamma,
    gen_member,
    is_eps_far,
    random_word,
)
from twopal.distance import (
    BLOCK_CUTOVER,
    INDICATOR_TILE,
    DistanceResult,
    _block_shape,
    _indicator,
    _plan,
    _twiddles,
    _workspace,
)
from twopal.experiment import ExperimentConfig, run_experiment


def test_frozen_examples():
    assert distance_to_language(Word.from_text("0000")).distance == 0
    r = distance_to_language(Word.from_text("100000"))
    assert r.distance == 1
    assert r.best_split == Decomposition(1, 2)
    assert distance_to_language(Word.from_text("111000")).distance == 1
    assert distance_to_language(Word.from_text("0110")).distance == 2


def test_is_eps_far_frozen_examples():
    assert is_eps_far(Word.from_text("100000"), 0.1)
    assert not is_eps_far(Word.from_text("0000"), 0.01)
    assert not is_eps_far(Word.from_text("100000"), 0.5)


def test_far_threshold_rounding():
    assert far_threshold(0.1, 1024) == 103
    assert far_threshold(0.1, 20) == 2  # exact product despite float 0.1
    assert far_threshold(0.3, 10) == 3
    assert far_threshold(0.99, 6) == 6
    assert far_threshold(0.25, 8) == 2


@pytest.mark.parametrize("epsilon", [0.0, 1.0, -1.0, 1.5, math.nan])
def test_epsilon_outside_the_open_unit_interval_is_refused(epsilon):
    # one check, in far_threshold: is_eps_far no longer calls every word far
    # at epsilon <= 0, and gen_far still refuses before any draw
    refused = pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)")
    with refused:
        far_threshold(epsilon, 8)
    for text in ("0000", "01101001", "100000"):
        with refused:
            is_eps_far(Word.from_text(text), epsilon)
    rng = random.Random(5)
    state = rng.getstate()
    with refused:
        gen_far(8, epsilon, rng)
    assert rng.getstate() == state


def test_domain_errors():
    for text in ("", "01", "010", "01010"):
        with pytest.raises(ValueError):
            distance_to_language(Word.from_text(text) if text else Word(b""))


def test_distance_takes_only_the_word():
    # one implementation: the quadratic scan is a test reference, not a mode
    assert list(inspect.signature(distance_to_language).parameters) == ["x"]


def test_zero_distance_iff_member_exhaustive():
    for n in range(4, 13, 2):
        for w in all_words(n):
            assert (distance_to_language(w).distance == 0) == brute_force_member(
                w
            ).is_member


def test_fast_equals_baseline_random():
    rng = random.Random(31)
    for _ in range(1500):
        n = 2 * rng.randrange(2, 257)
        w = random_word(n, rng)
        assert _distance_baseline(w) == distance_to_language(w)


def test_fast_equals_baseline_ternary():
    rng = random.Random(37)
    for _ in range(300):
        n = 2 * rng.randrange(2, 65)
        w = random_word(n, rng, alphabet_size=3)
        assert _distance_baseline(w) == distance_to_language(w)


@pytest.mark.parametrize("n_max, alphabet_size", [(14, 2), (10, 3)])
def test_fast_equals_baseline_exhaustive(n_max, alphabet_size):
    for n in range(4, n_max + 1, 2):
        for w in all_words(n, alphabet_size):
            assert distance_to_language(w) == _distance_baseline(w)


def _adversarial_words(n):
    h = n // 2
    yield Word(bytes(n))
    yield Word(bytes(i % 2 for i in range(n)))
    yield Word(bytes(int(i % 4 == 3) for i in range(n)))
    yield Word(bytes(h) + bytes([1]) * h)
    for i in sorted({0, 1, h - 1, h, n - 2, n - 1}):
        yield gen_gamma(n, i)


@pytest.mark.parametrize("n", [4, 6, 8, 16, 30, 64, 98, 256, 1000, 1022])
def test_fast_equals_baseline_periodic_and_adversarial(n):
    for w in _adversarial_words(n):
        assert distance_to_language(w) == _distance_baseline(w)


@pytest.mark.parametrize("n", [6, 10, 1022, 2050, 4098])
def test_fast_equals_baseline_on_odd_half_lengths(n):
    # the correlation runs at length n/2, which is odd here
    rng = random.Random(n)
    words = list(_adversarial_words(n))
    words += [random_word(n, rng, alphabet_size=k) for k in (2, 2, 3, 5)]
    for w in words:
        assert distance_to_language(w) == _distance_baseline(w)


# --- the derived last spectrum -----------------------------------------


def _count_transforms(monkeypatch, names=("rfft",)):
    """Record (name, length of the transformed axis) of every call to the
    named numpy.fft transforms: the input's length for rfft, the output's
    (the real length) for irfft, either for fft and ifft."""
    calls = []
    for name in names:
        transform = getattr(np.fft, name)

        def counted(a, *args, _name=name, _transform=transform, **kwargs):
            out = _transform(a, *args, **kwargs)
            axis = kwargs.get("axis", -1)
            calls.append((_name, (a if _name == "rfft" else out).shape[axis]))
            return out

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize(
    "alphabet_size, codes",
    [(3, (0, 1)), (3, (0, 2)), (3, (1, 2)), (256, (0, 255)), (256, (7, 8, 200))],
)
def test_fast_equals_baseline_when_codes_are_absent(alphabet_size, codes):
    # the derived spectrum belongs to the last code that occurs, not to the
    # alphabet's largest code
    rng = random.Random(59)
    for n in (4, 6, 16, 64, 1000, 1022):
        for _ in range(4):
            w = Word(bytes(rng.choice(codes) for _ in range(n)), alphabet_size)
            assert distance_to_language(w) == _distance_baseline(w)


@pytest.mark.parametrize("alphabet_size", [2, 3, 256])
@pytest.mark.parametrize("n", [4, 6, 64, 1000])
def test_one_symbol_words_run_no_transform(monkeypatch, alphabet_size, n):
    calls = _count_transforms(monkeypatch)
    for sym in sorted({0, 1, alphabet_size - 1}):
        w = Word(bytes([sym]) * n, alphabet_size)
        assert distance_to_language(w) == _distance_baseline(w)
        assert distance_to_language(w).distance == 0
    assert calls == []


@pytest.mark.parametrize(
    "alphabet_size, codes",
    [(2, (0, 1)), (3, (0, 1)), (3, (0, 1, 2)), (7, (2, 4, 5, 6))],
)
def test_transforms_one_fewer_than_present_symbols(monkeypatch, alphabet_size, codes):
    # two half-length forward transforms (even and odd positions) per
    # present symbol but the last, then one half-length inverse
    w = Word(bytes(c for c in codes for _ in range(64)), alphabet_size)
    calls = _count_transforms(monkeypatch, ("rfft", "irfft"))
    distance_to_language(w)
    h = w.n // 2
    assert calls == [("rfft", h)] * (2 * (len(codes) - 1)) + [("irfft", h)]


@pytest.mark.parametrize("alphabet_size", [5, 7, 256])
@pytest.mark.parametrize("n", [1000, 1022, 4096])
def test_fast_equals_baseline_seeded_large_alphabets(alphabet_size, n):
    rng = random.Random(alphabet_size * 10_000 + n)
    for _ in range(3):
        w = random_word(n, rng, alphabet_size=alphabet_size)
        assert distance_to_language(w) == _distance_baseline(w)


def test_fast_split_count_at_large_n():
    n = 1 << 21
    w = random_word(n, random.Random(2021))
    result = distance_to_language(w)
    assert result.distance == len(mismatched_pairs(w, result.best_split.half_u))


def test_gen_far_output_is_frozen():
    # digests of gen_far over seeds 0..4 per (n, epsilon, alphabet); every
    # epsilon but the 0.1 cases sits near the typical random distance, so
    # most draws are rejected by the oracle before one is returned
    expected = {
        (16, 0.2, 2): "af3f38fe7d397701",
        (64, 0.17, 2): "87a14994cd915b7e",
        (1024, 0.1, 2): "467a74e903016ded",
        (1024, 0.218, 2): "f492dfa6f66434d5",
        (3000, 0.313, 3): "6a494c78954fab52",
        (4098, 0.232, 2): "0920bd8a0a3578e9",
        (1 << 16, 0.1, 2): "6d7efd04d9280cca",
    }
    for (n, eps, k), digest in expected.items():
        h = hashlib.blake2b(digest_size=8)
        for seed in range(5):
            h.update(gen_far(n, eps, random.Random(seed), alphabet_size=k).symbols)
        assert h.hexdigest() == digest, (n, eps, k)


@settings(max_examples=80)
@given(st.integers(min_value=2, max_value=40), st.randoms(use_true_random=False))
def test_fast_equals_baseline_property(half_n, rng):
    w = random_word(2 * half_n, rng)
    assert _distance_baseline(w) == distance_to_language(w)


def test_repair_witness():
    # flipping one symbol per mismatched pair of the best split yields a member
    rng = random.Random(41)
    for _ in range(300):
        n = 2 * rng.randrange(2, 65)
        w = random_word(n, rng)
        result = distance_to_language(w)
        pairs = mismatched_pairs(w, result.best_split.half_u)
        assert len(pairs) == result.distance
        repaired = bytearray(w.symbols)
        for i, j in pairs:
            repaired[i] = repaired[j]
        assert brute_force_member(Word(bytes(repaired))).is_member


def test_complement_invariance():
    rng = random.Random(43)
    for _ in range(200):
        n = 2 * rng.randrange(2, 65)
        w = random_word(n, rng)
        flipped = Word(bytes(1 - c for c in w.symbols))
        assert distance_to_language(w).distance == distance_to_language(flipped).distance


def test_single_one_words_have_distance_one():
    for n in range(4, 65, 2):
        for i in range(n):
            assert distance_to_language(gen_gamma(n, i)).distance == 1


def test_alternating_word_attains_maximum():
    # every mirror pair spans one even and one odd index, so all disagree
    for n in range(4, 65, 2):
        w = Word(bytes(i % 2 for i in range(n)))
        assert distance_to_language(w).distance == n // 2


def test_distance_never_exceeds_half_length():
    rng = random.Random(47)
    for _ in range(300):
        n = 2 * rng.randrange(2, 100)
        assert distance_to_language(random_word(n, rng)).distance <= n // 2


# --- the per-thread workspace ------------------------------------------


def _word_with_present(n, present, rng):
    """A word of length n over alphabet max(present, 2) in which the first
    min(n, present) codes all occur."""
    alphabet_size = max(present, 2)
    if present == 1:
        return Word(bytes([alphabet_size - 1]) * n, alphabet_size)
    codes = list(range(min(n, present)))
    codes += [rng.randrange(present) for _ in range(n - len(codes))]
    rng.shuffle(codes)
    return Word(bytes(codes), alphabet_size)


def _fresh_thread_distance(w):
    """distance_to_language(w) on a new thread, whose workspace is empty."""
    results = []
    thread = threading.Thread(target=lambda: results.append(distance_to_language(w)))
    thread.start()
    thread.join()
    return results[0]


def test_workspace_survives_sizes_and_alphabets_going_up_and_down():
    rng = random.Random(71)
    for n in (4, 6, 1022, 1 << 18, 16, 2050, (1 << 18) + 2):
        # the quadratic reference is out of reach at 2^18; there the
        # reference is the same oracle run with an empty workspace
        large = n > 4096
        for present in (1, 2, 3) if large else (1, 2, 3, 256):
            w = _word_with_present(n, present, rng)
            fast = distance_to_language(w)
            if large:
                assert fast == _fresh_thread_distance(w)
                pairs = mismatched_pairs(w, fast.best_split.half_u)
                assert len(pairs) == fast.distance
            else:
                assert fast == _distance_baseline(w)


def test_two_threads_of_different_sizes_are_both_correct():
    rng = random.Random(73)
    words = [
        [random_word(n, rng, alphabet_size=k) for k in (2, 3, 2)]
        for n in (1022, 2050)
    ]
    expected = [[_distance_baseline(w) for w in ws] for ws in words]
    start = threading.Barrier(2)
    got = [[], []]

    def work(slot):
        start.wait()
        for _ in range(40):
            got[slot].append([distance_to_language(w) for w in words[slot]])

    threads = [threading.Thread(target=work, args=(slot,)) for slot in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for slot in (0, 1):
        assert got[slot] == [expected[slot]] * 40


def test_workers_after_a_large_parent_call_give_the_serial_report():
    distance_to_language(random_word(1 << 18, random.Random(79)))
    config = ExperimentConfig(
        sizes=(16, 64),
        epsilons=(0.2,),
        trials=6,
        seed=83,
        modes=("quantum", "classical", "exact"),
    )

    def cells(report):
        return [replace(cell, seconds=0.0) for cell in report.cells]

    serial = run_experiment(config)
    assert cells(run_experiment(replace(config, workers=2))) == cells(serial)


def test_repeat_binary_call_traces_at_most_5n_bytes():
    n = 1 << 18
    w = random_word(n, random.Random(89))
    expected = distance_to_language(w)
    tracemalloc.start()
    try:
        result = distance_to_language(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == expected
    assert peak <= 5 * n


@pytest.mark.parametrize("h, shape", [(512, (512, 1)), (1 << 15, (128, 256))])
def test_at_most_one_forward_transform_per_symbol_reads_its_own_output(
    monkeypatch, h, shape
):
    # numpy copies a transform's input, h floats, when out overlaps it; the
    # even half is transformed out of the other buffer, so only the odd
    # half's transform pays for that copy
    assert _block_shape(h) == shape
    rng = random.Random(h)
    words = {k: random_word(2 * h, rng, alphabet_size=k) for k in (2, 3)}
    expected = {k: distance_to_language(w) for k, w in words.items()}
    overlaps = []
    rfft = np.fft.rfft

    def recorded(a, *args, out=None, **kwargs):
        overlaps.append(out is not None and np.shares_memory(a, out))
        return rfft(a, *args, out=out, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", recorded)
    for present, w in words.items():
        overlaps.clear()
        assert distance_to_language(w) == expected[present]
        # two forward transforms per present symbol but the last
        assert len(overlaps) == 2 * (present - 1)
        assert sum(overlaps) <= present - 1


# --- blocked (four-step) transforms above the cutover -------------------

# (half-length, blocked shape): the smallest blocked half-length, one with
# N2 = 2 * N1 as at odd powers of two, and one with a small odd factor
BLOCKED = [(16385, (113, 145)), (16928, (92, 184)), (3 << 13, (128, 192))]


def test_block_shape_rule():
    assert BLOCK_CUTOVER == 2**14
    for h in (2, 3, 512, 1 << 14):
        assert _block_shape(h) == (h, 1)
    for h, shape in BLOCKED:
        assert _block_shape(h) == shape
    assert _block_shape(1 << 20) == (1024, 1024)
    assert _block_shape(16411) == (16411, 1)  # prime
    assert _block_shape(2 * 16411) == (2, 16411)


def _words_with_absent_codes(n, rng):
    """Words over alphabets 2, 3 and 256 in which only some codes occur."""
    yield random_word(n, rng)
    for alphabet_size, codes in ((3, (0, 2)), (256, (7, 8, 200))):
        symbols = bytes(rng.choice(codes) for _ in range(n))
        yield Word(symbols, alphabet_size)


@pytest.mark.parametrize("h, shape", BLOCKED)
def test_fast_equals_baseline_just_above_the_cutover(h, shape):
    rng = random.Random(h)
    words = list(_words_with_absent_codes(2 * h, rng))
    if h == BLOCKED[0][0]:
        words += _adversarial_words(2 * h)
    for w in words:
        assert distance_to_language(w) == _distance_baseline(w)


def test_prime_half_length_above_the_cutover_runs_single_transforms(monkeypatch):
    h = 16411
    rng = random.Random(h)
    words = [random_word(2 * h, rng), random_word(2 * h, rng, alphabet_size=3)]
    expected = [_distance_baseline(w) for w in words]
    calls = _count_transforms(monkeypatch, ("rfft", "irfft", "fft", "ifft"))
    assert distance_to_language(words[0]) == expected[0]
    assert calls == [("rfft", h)] * 2 + [("irfft", h)]
    assert distance_to_language(words[1]) == expected[1]


def _residue_counts(w):
    """Equal mirror pairs per residue a - 1 of split a, residue h - 1
    included, from one unblocked length-h rfft per symbol and half and one
    irfft, every symbol transformed, no workspace."""
    arr = np.frombuffer(w.symbols, dtype=np.uint8)
    h = w.n // 2
    spectrum = np.zeros(h // 2 + 1, dtype=np.complex128)
    for sym in np.unique(arr):
        spectrum += np.fft.rfft(arr[0::2] == sym) * np.fft.rfft(arr[1::2] == sym)
    return np.rint(np.fft.irfft(spectrum, h))


def _single_transform_distance(w):
    """The distance from _residue_counts: the first largest count of a
    split, that is, the smallest |u| among the best splits."""
    h = w.n // 2
    equal = _residue_counts(w)
    a = int(np.argmax(equal[: h - 1])) + 1
    return DistanceResult(h - int(equal[a - 1]), Decomposition(a, h - a))


@pytest.mark.parametrize("alphabet_size", [2, 3])
def test_blocked_equals_single_transform_at_2_21(alphabet_size):
    w = random_word(1 << 21, random.Random(101 + alphabet_size), alphabet_size)
    assert distance_to_language(w) == _single_transform_distance(w)


def test_blocked_transforms_stay_below_the_cutover_at_2_21(monkeypatch):
    n = 1 << 21
    rng = random.Random(103)
    words = {k: random_word(n, rng, alphabet_size=k) for k in (2, 3)}
    calls = _count_transforms(monkeypatch, ("rfft", "irfft", "fft", "ifft"))
    for present, w in words.items():
        calls.clear()
        distance_to_language(w)
        assert max(length for _, length in calls) <= BLOCK_CUTOVER
        # each forward transform is one rfft and one fft: two per present
        # symbol but the last, then one inverse
        names = [name for name, _ in calls]
        assert names == ["rfft", "fft"] * (2 * (present - 1)) + ["ifft", "irfft"]


def test_factored_twiddles_stay_small_at_2_21():
    n = 1 << 21
    w = random_word(n, random.Random(107))
    distance_to_language(random_word(64, random.Random(0)))  # drop the 2^21 plan
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        distance_to_language(w)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    buffers = sum(buf.nbytes for buf in _workspace.buffers)
    # the full (N1/2 + 1) x N2 table would hold about n/4 complex values
    # (8 MB); the factored pair holds 2 * 513 * 32 of them (0.5 MB)
    assert retained - buffers < 0.04 * (n // 2) * 16


def test_first_2_21_call_on_a_new_thread_keeps_only_its_buffers_and_tables():
    # a new thread starts with an empty workspace, and the cleared table
    # cache holds no 2^21 tables, so this call keeps exactly what it makes:
    # the thread's two buffers and the factored twiddle pair
    n = 1 << 21
    w = random_word(n, random.Random(107))
    expected = _single_transform_distance(w)  # also loads numpy.fft untraced
    measured = []

    def work():
        _twiddles.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = distance_to_language(w)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        buffers = sum(buf.nbytes for buf in _workspace.buffers)
        measured.append((result, retained, buffers))

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    [(result, retained, buffers)] = measured
    assert result == expected
    assert buffers >= n * 8
    # the full (N1/2 + 1) x N2 table would hold about n/4 complex values
    # (8 MB); the factored pair holds 2 * 513 * 32 of them (0.5 MB)
    assert 0 <= retained - buffers < 0.04 * (n // 2) * 16


def test_one_workspace_serves_every_size_after_the_largest():
    # one thread, starting with an empty workspace, serves 2^21, then 1024,
    # 2^16 and 2^21 again: the smaller sizes run in views of the 2^21
    # buffers, and the second 2^21 plan is cut from the first one's memory
    rng = random.Random(113)
    sizes = (1 << 21, 1024, 1 << 16, 1 << 21)
    words = [[random_word(n, rng, alphabet_size=k) for k in (2, 3)] for n in sizes]
    expected = [[_fresh_thread_distance(w) for w in ws] for ws in words]
    got, plans = [], []

    def work():
        for ws in words:
            got.append([distance_to_language(w) for w in ws])
            plans.append(_workspace.plan)

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert got == expected
    assert expected[1] == [_distance_baseline(w) for w in words[1]]
    first = plans[0]
    for plan in plans[1:]:
        assert np.shares_memory(plan.real, first.real)
        for buf in (0, 1):
            assert np.shares_memory(plan.spectra[buf], first.spectra[buf])
    assert plans[3].shape == first.shape
    assert plans[3].spectra[0].base is first.spectra[0].base
    assert plans[3].real.base is first.real.base


def test_twiddle_tables_are_computed_once_per_shape():
    # a size switch reuses the read-only tables of a shape served before;
    # at n = 2^21 the factored pair stays below 4% of the full table
    h = 1 << 20
    _plan(512)  # a kept 2^20 plan may predate a cleared table cache
    tables = _plan(h).twiddles
    _plan(512)
    _plan(1 << 15)
    assert all(a is b for a, b in zip(_plan(h).twiddles, tables, strict=True))
    assert _twiddles(*_block_shape(h)) is tables
    assert not any(table.flags.writeable for table in tables)
    assert sum(table.nbytes for table in tables) < 0.04 * h * 16


@pytest.mark.parametrize("h, shape", [(512, (512, 1)), (1 << 15, (128, 256))])
def test_inverse_runs_its_column_ifft_in_place_into_the_odd_buffer(
    monkeypatch, h, shape
):
    # blocked, the one ifft transforms the product spectrum into itself;
    # either shape then leaves the result grid in the odd buffer's reals
    assert _block_shape(h) == shape
    rng = random.Random(h + 1)
    words = [random_word(2 * h, rng, alphabet_size=k) for k in (2, 3)]
    expected = [_single_transform_distance(w) for w in words]
    calls = []
    for name in ("ifft", "irfft"):
        transform = getattr(np.fft, name)

        def recorded(a, *args, out=None, _name=name, _transform=transform, **kwargs):
            calls.append((_name, a, out))
            return _transform(a, *args, out=out, **kwargs)

        monkeypatch.setattr(np.fft, name, recorded)
    for w, result in zip(words, expected):
        calls.clear()
        assert distance_to_language(w) == result
        names = [name for name, *_ in calls]
        assert names == (["ifft", "irfft"] if shape[1] > 1 else ["irfft"])
        if shape[1] > 1:
            _, a, out = calls[0]
            assert out is a
        assert calls[-1][2] is _plan(h).real


def test_unrounded_counts_are_within_1e_6_of_integers_at_2_21(monkeypatch):
    # the blocked path rounds each twiddle product twice; the equal-pair
    # counts must still come out exact
    rint = np.rint
    margins = []

    def recorded(a, *args, **kwargs):
        margins.append(float(np.abs(a - rint(a)).max()))
        return rint(a, *args, **kwargs)

    monkeypatch.setattr(np, "rint", recorded)
    rng = random.Random(109)
    for alphabet_size in (2, 3):
        distance_to_language(random_word(1 << 21, rng, alphabet_size))
    assert len(margins) == 2
    assert max(margins) < 1e-6


# --- the split pick on the N2 x N1 grid ---------------------------------

# blocked half-lengths whose N2 x N1 result grid the pick reads, and the
# reference each is checked against (the quadratic scan is out of reach
# at 2^20)
PICKED = [(1 << 15, (128, 256), "baseline"), (1 << 20, (1024, 1024), "single")]


def _tie_words(h, n2):
    """(name, word) pairs of length 2h: the largest count at residue h - 1,
    which is no split, or several best splits."""
    n = 2 * h
    rng = random.Random(h)
    half = random_word(h, rng).symbols
    yield "even palindrome", Word(half + half[::-1])
    yield "period 4", Word(bytes([0, 0, 0, 1]) * (n // 4))
    yield "period 8", Word(bytes([0, 1, 1, 0, 1, 0, 0, 0]) * (n // 8))
    # y is a member of length h split at a, so y + y is one at a and a + h/2
    a = h // 4 + 3
    y = gen_member(a, h // 2 - a, rng).symbols
    yield "two splits", Word(y + y)
    # ones at even 0, h and odd 2*N2 - 1, h + 2*N2 + 1 tie at the four odd
    # sums: residues N2 - 1 (cell [N2 - 1, 0]), N2 (cell [0, 1]) and both
    # plus h/2, so a row-first pick would report |u| = N2 + 1, not N2
    symbols = bytearray(n)
    for i in (0, 2 * n2 - 1, h, h + 2 * n2 + 1):
        symbols[i] = 1
    yield "column boundary", Word(bytes(symbols))


@pytest.mark.parametrize("h, shape, reference", PICKED)
def test_split_pick_keeps_the_smallest_u_and_skips_residue_h_minus_1(
    h, shape, reference
):
    assert _block_shape(h) == shape
    n2 = shape[1]
    for name, w in _tie_words(h, n2):
        counts = _residue_counts(w)
        best = np.flatnonzero(counts[: h - 1] == counts[: h - 1].max())
        if name == "even palindrome":
            # every mirror pair of residue h - 1 is equal
            assert counts[h - 1] == h > counts[: h - 1].max()
        elif name == "two splits":
            assert counts[best].tolist() == [h, h]
            assert best.tolist() == [h // 4 + 2, 3 * h // 4 + 2]
        elif name == "column boundary":
            assert best.tolist() == [n2 - 1, n2, h // 2 + n2 - 1, h // 2 + n2]
        else:
            # the ties span several columns and several rows of one column
            columns, rows = best // n2, best % n2
            assert len(set(columns.tolist())) > 1
            assert len(set(rows[columns == columns[0]].tolist())) > 1
        result = distance_to_language(w)
        if reference == "baseline":
            assert result == _distance_baseline(w), name
        else:
            assert result == _single_transform_distance(w), name
        assert result.best_split.half_u == best[0] + 1, name


@pytest.mark.parametrize("h", [1 << 15, 1 << 20])
def test_real_passes_run_along_contiguous_rows(monkeypatch, h):
    # both real passes read and write whole rows; a real pass down axis 0
    # strides across the whole block and takes about twice as long at 2^21
    rng = random.Random(h)
    words = [random_word(2 * h, rng, alphabet_size=k) for k in (2, 3)]
    expected = [distance_to_language(w) for w in words]
    layouts = []
    for name in ("rfft", "irfft"):
        transform = getattr(np.fft, name)

        def recorded(a, *args, _name=name, _transform=transform, **kwargs):
            out = _transform(a, *args, **kwargs)
            axis = kwargs.get("axis", -1) % a.ndim
            layouts.append(
                (_name, a.ndim, axis, a.flags.c_contiguous, out.flags.c_contiguous)
            )
            return out

        monkeypatch.setattr(np.fft, name, recorded)
    assert [distance_to_language(w) for w in words] == expected
    # binary: two forward transforms and one inverse; ternary: four and one
    names = ["rfft", "rfft", "irfft"] + ["rfft"] * 4 + ["irfft"]
    assert [name for name, *_ in layouts] == names
    for name, ndim, axis, rows_in, rows_out in layouts:
        assert (ndim, axis, rows_in, rows_out) == (2, 1, True, True), name


@pytest.mark.parametrize(
    "h, shape",
    [
        (512, (512, 1)),
        (16385, (113, 145)),
        (1 << 15, (128, 256)),
        (1 << 20, (1024, 1024)),
    ],
)
def test_tiled_indicator_equals_the_one_call_write(h, shape):
    # blocked grids are written INDICATOR_TILE columns at a time, the last
    # tile short when N1 is not a multiple of it; a single-row grid at once
    assert _block_shape(h) == shape
    assert shape[1] == 1 or shape[0] > INDICATOR_TILE
    arr = np.random.default_rng(h).integers(0, 3, 2 * h, dtype=np.uint8)
    plan = _plan(h)
    out = plan.real
    for half in arr.reshape(*plan.shape, 2).T:
        for sym in range(3):
            expected = np.equal(half, sym).astype(np.float64)
            ind, count = _indicator(half, sym, out)
            assert ind is out
            assert np.array_equal(ind, expected)
            assert count == int(np.count_nonzero(half == sym))
