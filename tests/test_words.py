import random

import pytest
from hypothesis import given, strategies as st

from helpers import all_words
from twopal import QueryLedger, RotatedDoubledView, Word, random_word, reverse


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


def test_word_text_round_trip():
    for text in ("", "0", "0110", "01101001", "2101", "000"):
        size = max(2, max((int(c) for c in text), default=1) + 1)
        assert Word.from_text(text, size).text() == text
    with pytest.raises(ValueError):
        Word.from_text("01a0")


def test_random_word_deterministic_per_seed():
    a = random_word(64, random.Random(42))
    b = random_word(64, random.Random(42))
    assert a == b
    assert random_word(64, random.Random(43)) != a


def test_random_word_ternary():
    w = random_word(500, random.Random(7), alphabet_size=3)
    assert set(w.symbols) == {0, 1, 2}
