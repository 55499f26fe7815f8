import random
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import RotatedDoubledView, all_words, reverse
from twopal import (
    QueryLedger,
    Word,
    distance_to_language,
    exact_member,
    gen_sigma,
    quantum_test,
    random_word,
)
from twopal.words import check_even_length


def materialized_view(w: Word) -> bytes:
    return w.symbols[1:] + w.symbols[:-1]


def test_view_frozen_examples():
    v = RotatedDoubledView(Word.from_text("0110"))
    assert v[0] == 1
    assert v[3] == 0
    assert bytes(v[i] for i in range(len(v))) == bytes([1, 1, 0, 0, 1, 1])


def test_view_matches_materialized_exhaustive_small():
    for n in range(2, 13):
        for w in all_words(n):
            v = RotatedDoubledView(w)
            assert bytes(v[i] for i in range(2 * n - 2)) == materialized_view(w)


@given(st.integers(min_value=2, max_value=4000), st.randoms(use_true_random=False))
def test_view_matches_materialized_random(n, rng):
    w = random_word(n, rng)
    v = RotatedDoubledView(w)
    expected = materialized_view(w)
    for i in rng.sample(range(2 * n - 2), min(50, 2 * n - 2)):
        assert v[i] == expected[i]


def test_view_bounds():
    v = RotatedDoubledView(Word.from_text("0110"))
    with pytest.raises(IndexError):
        v[-1]
    with pytest.raises(IndexError):
        v[6]
    with pytest.raises(ValueError):
        RotatedDoubledView(Word.from_text("0"))


def test_view_charges_one_read_per_access():
    ledger = QueryLedger()
    v = RotatedDoubledView(Word.from_text("011010"), ledger)
    for i in range(len(v)):
        v[i]
    assert ledger.classical_reads == 10


def test_reverse_frozen_examples():
    assert reverse(Word.from_text("0110")).text() == "0110"
    assert reverse(Word.from_text("100")).text() == "001"
    assert reverse(Word(b"")).text() == ""


@given(
    st.integers(min_value=0, max_value=300),
    st.sampled_from([2, 3]),
    st.randoms(use_true_random=False),
)
def test_reverse_involution(n, alphabet_size, rng):
    w = random_word(n, rng, alphabet_size)
    assert reverse(reverse(w)) == w
    assert len(reverse(w)) == len(w)


def test_word_validation():
    with pytest.raises(ValueError):
        Word(bytes([0, 2]), alphabet_size=2)
    with pytest.raises(ValueError):
        Word(b"\x00", alphabet_size=1)
    Word(bytes([0, 2]), alphabet_size=3)


@pytest.mark.parametrize("alphabet_size", [2, 3, 7, 255, 256])
def test_word_symbol_range_edges(alphabet_size):
    top = alphabet_size - 1
    Word(b"", alphabet_size)
    Word(bytes([top, 0, top]), alphabet_size)
    Word(bytes(range(alphabet_size)), alphabet_size)
    if alphabet_size < 256:
        with pytest.raises(ValueError):
            Word(bytes([0, top + 1, 0]), alphabet_size)
        with pytest.raises(ValueError):
            Word(bytes([top + 1]), alphabet_size)


@pytest.mark.parametrize("alphabet_size", [0, 1, 257, 1000])
def test_word_rejects_alphabet_outside_one_byte(alphabet_size):
    with pytest.raises(ValueError):
        Word(b"", alphabet_size)
    with pytest.raises(ValueError):
        Word(b"\x00\x01", alphabet_size)


def test_word_copies_bytes_like_symbols_to_bytes():
    # 00110011 is 00 + 110011: a member, splitting as |u| = 1
    source = bytearray([0, 0, 1, 1] * 2)
    for symbols in (
        source,
        memoryview(source),
        np.array([0, 0, 1, 1] * 2, dtype=np.uint8),
    ):
        w = Word(symbols)
        assert type(w.symbols) is bytes and w.symbols == bytes(source)
        assert w.n == 8 and hash(w) == hash(Word(bytes(source)))
        assert exact_member(w).is_member
        assert distance_to_language(w).distance == 0
    w = Word(source)
    source[0] = 1
    assert w.symbols == b"\x00\x00\x01\x01" * 2


@pytest.mark.parametrize(
    "symbols",
    [np.array([0, 0, 1, 1] * 2), "00110011", [0, 0, 1, 1], 8],
    ids=["int64-array", "str", "list", "int"],
)
def test_word_rejects_symbols_that_are_not_one_byte_items(symbols):
    with pytest.raises(ValueError, match="one-byte items"):
        Word(symbols)


def test_word_text_round_trip():
    for text in ("", "0", "0110", "01101001", "2101", "000"):
        size = max(2, max((int(c) for c in text), default=1) + 1)
        assert Word.from_text(text, size).text() == text
    with pytest.raises(ValueError):
        Word.from_text("01a0")



@pytest.mark.parametrize("alphabet_size", [2, 3, 10])
def test_word_text_is_one_digit_per_symbol(alphabet_size):
    rng = random.Random(alphabet_size)
    for n in (0, 1, 7, 1000):
        symbols = bytes(rng.randrange(alphabet_size) for _ in range(n))
        text = Word(symbols, alphabet_size).text()
        assert text == "".join(str(c) for c in symbols)
        assert Word.from_text(text, alphabet_size).symbols == symbols


@pytest.mark.parametrize(
    "text", ["0\u0661", "\u0660\u0661\u0661\u0660", "\uff10\uff11", "01\u00b2"]
)
def test_word_text_rejects_non_ascii_digits(text):
    with pytest.raises(ValueError, match="word text must be digits"):
        Word.from_text(text, 10)


def test_word_text_round_trip_is_linear_time():
    rng = np.random.default_rng(3)
    word = Word(rng.integers(0, 2, 1 << 22, dtype=np.uint8).tobytes())
    start = time.perf_counter()
    assert Word.from_text(word.text()) == word
    # per-symbol Python parsing and joining took about 2.4 s here
    assert time.perf_counter() - start < 1.0

@pytest.mark.parametrize("alphabet_size", [11, 13, 256])
def test_word_text_refuses_symbols_without_one_digit(alphabet_size):
    digits = Word(bytes([9, 0, 3]), alphabet_size)
    assert Word.from_text(digits.text(), alphabet_size) == digits
    for top in (10, alphabet_size - 1):
        with pytest.raises(ValueError):
            Word(bytes([0, top, 3]), alphabet_size).text()


def test_even_length_rule_is_stated_once():
    for n in (4, 6, 1024):
        check_even_length(n)
    for n in (-2, 0, 1, 2, 3, 5, 1023):
        with pytest.raises(ValueError, match=f"even and >= 4, got n={n}$"):
            check_even_length(n)
    odd = Word(bytes(5))
    for call in (
        lambda: distance_to_language(odd),
        lambda: gen_sigma(5),
        lambda: quantum_test(odd, 0.3, random.Random(0)),
    ):
        with pytest.raises(ValueError, match="^length must be even and >= 4, got n=5$"):
            call()


def test_random_word_deterministic_per_seed():
    a = random_word(64, random.Random(42))
    b = random_word(64, random.Random(42))
    assert a == b
    assert random_word(64, random.Random(43)) != a


def test_random_word_ternary():
    w = random_word(500, random.Random(7), alphabet_size=3)
    assert set(w.symbols) == {0, 1, 2}
