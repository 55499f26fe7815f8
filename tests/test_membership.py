import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from helpers import all_words, member_constructions, member_words
from twopal import (
    Decomposition,
    QueryLedger,
    RotatedDoubledView,
    Word,
    brute_force_member,
    check_symmetric_characterization,
    exact_member,
    gen_gamma,
    gen_member,
    kmp_member,
    kmp_occurrences,
    kmp_search,
    random_word,
    reverse,
)


# --- KMP ---------------------------------------------------------------


def test_kmp_frozen_examples():
    assert kmp_search(b"\x00\x01\x01\x00", bytes([1, 1, 0, 0, 1, 1])) is None
    assert kmp_search(bytes(4), bytes(6)) == 0
    x = Word.from_text("01101001")
    view = RotatedDoubledView(x)
    assert bytes(view[i] for i in range(14)) == Word.from_text("11010010110100").symbols
    assert kmp_search(Word.from_text("1001").symbols, view, 14) == 3
    assert kmp_search(reverse(x).symbols, view, 14) == 3


def test_kmp_empty_pattern_rejected():
    with pytest.raises(ValueError):
        kmp_search(b"", b"0101")


def naive_occurrences(pattern, text):
    return [
        i
        for i in range(len(text) - len(pattern) + 1)
        if text[i : i + len(pattern)] == pattern
    ]


def test_kmp_against_naive_enumeration():
    rng = random.Random(17)
    for _ in range(2000):
        pattern = bytes(rng.getrandbits(1) for _ in range(rng.randrange(1, 7)))
        text = bytes(rng.getrandbits(1) for _ in range(rng.randrange(0, 40)))
        assert list(kmp_occurrences(pattern, text)) == naive_occurrences(pattern, text)


def test_kmp_first_match_against_find_bulk():
    rng = random.Random(23)
    for _ in range(100_000):
        pattern = bytes(rng.getrandbits(1) for _ in range(rng.randrange(1, 9)))
        text = bytes(rng.getrandbits(1) for _ in range(rng.randrange(0, 64)))
        expected = text.find(pattern)
        assert kmp_search(pattern, text) == (None if expected < 0 else expected)


@given(st.binary(min_size=1, max_size=10), st.binary(max_size=200))
def test_kmp_occurrences_property(pattern, text):
    assert list(kmp_occurrences(pattern, text)) == naive_occurrences(pattern, text)


def test_reverse_occurrences_cannot_start_late():
    # |y| - |reverse(x)| = n - 2 bounds every start position
    for n in range(4, 13, 2):
        for w in all_words(n):
            view = RotatedDoubledView(w)
            for pos in kmp_occurrences(reverse(w).symbols, view, 2 * n - 2):
                assert pos <= n - 2


# --- brute force and the reduction ------------------------------------


def test_brute_force_frozen_examples():
    assert brute_force_member(Word.from_text("0000")).witness == Decomposition(1, 1)
    assert not brute_force_member(Word.from_text("0110")).is_member
    assert brute_force_member(Word.from_text("01101001")).witness == Decomposition(2, 2)


def test_exact_member_frozen_examples():
    assert exact_member(Word.from_text("0000")).is_member
    assert not exact_member(Word.from_text("100000")).is_member
    # reverse occurs in the view only at even offsets here, so not a member
    assert not exact_member(Word.from_text("0101")).is_member
    assert not brute_force_member(Word.from_text("0101")).is_member


def test_degenerate_lengths_are_non_members():
    for text in ("", "01", "010", "01010"):
        w = Word.from_text(text) if text else Word(b"")
        assert not brute_force_member(w).is_member
        assert not exact_member(w).is_member


def test_equivalence_exhaustive_binary():
    for n in range(4, 15, 2):
        for w in all_words(n):
            assert exact_member(w).is_member == brute_force_member(w).is_member


def test_equivalence_exhaustive_ternary():
    for n in (4, 6, 8):
        for w in all_words(n, alphabet_size=3):
            assert exact_member(w).is_member == brute_force_member(w).is_member


def is_even_palindrome(chunk: bytes) -> bool:
    return len(chunk) % 2 == 0 and len(chunk) > 0 and chunk == chunk[::-1]


def test_witnesses_are_valid_decompositions():
    for n in range(4, 15, 2):
        for w in member_words(n):
            for result in (exact_member(w), brute_force_member(w)):
                a = result.witness.half_u
                assert 2 * (result.witness.half_u + result.witness.half_v) == n
                assert is_even_palindrome(w.symbols[: 2 * a])
                assert is_even_palindrome(w.symbols[2 * a :])


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=30),
    st.randoms(use_true_random=False),
)
def test_random_members_recognized(half_u, half_v, rng):
    w = gen_member(half_u, half_v, rng)
    result = exact_member(w)
    assert result.is_member
    a = result.witness.half_u
    assert is_even_palindrome(w.symbols[: 2 * a])
    assert is_even_palindrome(w.symbols[2 * a :])


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=12), st.randoms(use_true_random=False))
def test_random_words_agree_with_brute_force(half_n, rng):
    w = random_word(2 * half_n, rng)
    assert exact_member(w).is_member == brute_force_member(w).is_member


# --- two-find decider against the KMP reference -------------------------


def decision(decider, w):
    ledger = QueryLedger()
    result = decider(w, ledger)
    return result.is_member, result.witness, ledger.classical_reads


def assert_matches_kmp(w):
    assert decision(exact_member, w) == decision(kmp_member, w), w.text()


def periodic_words(n):
    for unit in (b"\x00\x01", b"\x00\x00\x00\x01", b"\x00\x00\x01", b"\x00"):
        yield Word((unit * n)[:n])
    for i in {0, 1, n // 2, n - 1}:
        yield gen_gamma(n, i)


def test_fast_decider_matches_kmp_exhaustive_binary():
    for n in range(17):
        for w in all_words(n):
            assert_matches_kmp(w)


def test_fast_decider_matches_kmp_exhaustive_ternary():
    for n in range(11):
        for w in all_words(n, alphabet_size=3):
            assert_matches_kmp(w)


def test_fast_decider_matches_kmp_seeded_random():
    rng = random.Random(2015)
    for n in (18, 20, 32, 64, 100, 256, 1000, 4096):
        for alphabet_size in (2, 3):
            half = rng.randint(1, n // 2 - 1)
            assert_matches_kmp(gen_member(half, n // 2 - half, rng, alphabet_size))
            assert_matches_kmp(gen_member(n // 2 - 1, 1, rng, alphabet_size))
            assert_matches_kmp(random_word(n, rng, alphabet_size))
            assert_matches_kmp(random_word(n + 1, rng, alphabet_size))


def test_fast_decider_matches_kmp_periodic():
    for n in (4, 6, 8, 10, 12, 18, 24, 30, 64, 96, 250, 1000, 1024, 4096):
        for w in periodic_words(n):
            assert_matches_kmp(w)


def test_fast_decider_linear_on_periodic_words():
    # a find-again loop over every occurrence is quadratic on these words and
    # needs tens of seconds at this size; two find calls need milliseconds
    n = 2**18
    words = [
        Word(b"\x00\x01" * (n // 2)),
        Word(b"\x00\x00\x00\x01" * (n // 4)),
        Word(bytes(n)),
    ]
    start = time.perf_counter()
    results = [decision(exact_member, w) for w in words]
    assert time.perf_counter() - start < 2.0
    assert [member for member, _, _ in results] == [False, False, True]
    assert all(reads <= 3 * n for _, _, reads in results)


# --- ledger accounting -------------------------------------------------


def test_exact_member_linear_read_bound():
    rng = random.Random(3)
    for n in (8, 64, 512, 4096):
        for w in (gen_member(n // 4, n // 4, rng), random_word(n, rng)):
            ledger = QueryLedger()
            exact_member(w, ledger)
            assert ledger.classical_reads <= 3 * n
            assert ledger.quantum_charged == 0


def test_exact_member_short_input_reads_nothing():
    ledger = QueryLedger()
    exact_member(Word.from_text("01"), ledger)
    exact_member(Word.from_text("010"), ledger)
    assert ledger.classical_reads == 0


# --- symmetric-position characterization -------------------------------


def test_characterization_frozen_examples():
    assert check_symmetric_characterization(
        Word.from_text("01101001"), Decomposition(2, 2)
    )
    assert check_symmetric_characterization(Word.from_text("0000"), Decomposition(1, 1))
    assert not check_symmetric_characterization(
        Word.from_text("0010"), Decomposition(1, 1)
    )


def test_characterization_holds_for_all_member_witnesses():
    for n in range(4, 13, 2):
        for w, a in member_constructions(n):
            assert check_symmetric_characterization(w, Decomposition(a, n // 2 - a))


def test_cross_half_pairs_never_satisfy_congruence():
    # index pairs straddling the split cannot sum to 2|u|-1 mod n
    for n in range(4, 15, 2):
        for a in range(1, n // 2):
            target = (2 * a - 1) % n
            for i in range(2 * a):
                for j in range(2 * a, n):
                    assert (i + j) % n != target


def test_shift_pairs_agree_for_members():
    for n in range(4, 11, 2):
        for w, a in member_constructions(n):
            target = (2 * a - 1) % n
            s = w.symbols
            for i in range(n):
                j = (target - i) % n
                for p in range(n):
                    assert s[(i - p) % n] == s[(j + p) % n]
