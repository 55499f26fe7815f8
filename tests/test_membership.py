import importlib
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    RotatedDoubledView,
    all_words,
    brute_force_member,
    kmp_member,
    kmp_occurrences,
    member_constructions,
    member_words,
    mirrored_pairs_agree,
    reverse,
)
import twopal
from twopal import membership
from twopal import (
    Decomposition,
    distance_to_language,
    QueryLedger,
    Word,
    check_symmetric_characterization,
    exact_member,
    gen_gamma,
    gen_member,
    random_word,
)


# --- the references stay in the tests ----------------------------------

REFERENCE_NAMES = (
    "brute_force_member",
    "kmp_member",
    "kmp_occurrences",
    "_failure_function",
    "RotatedDoubledView",
    "reverse",
    "_distance_baseline",
    "mismatched_pairs",
)


@pytest.mark.parametrize(
    "module", ["twopal", "twopal.words", "twopal.membership", "twopal.distance"]
)
def test_package_defines_no_reference_implementation(module):
    namespace = vars(importlib.import_module(module))
    assert [name for name in REFERENCE_NAMES if name in namespace] == []
    assert not set(REFERENCE_NAMES) & set(twopal.__all__)


def test_words_module_does_not_import_the_ledger():
    assert "QueryLedger" not in vars(importlib.import_module("twopal.words"))


# --- KMP ---------------------------------------------------------------


def test_kmp_frozen_examples():
    assert list(kmp_occurrences(b"\x00\x01\x01\x00", bytes([1, 1, 0, 0, 1, 1]))) == []
    assert next(kmp_occurrences(bytes(4), bytes(6))) == 0
    x = Word.from_text("01101001")
    view = RotatedDoubledView(x)
    assert bytes(view[i] for i in range(14)) == Word.from_text("11010010110100").symbols
    assert next(kmp_occurrences(Word.from_text("1001").symbols, view)) == 3
    assert next(kmp_occurrences(reverse(x).symbols, view)) == 3


def test_kmp_empty_pattern_rejected():
    with pytest.raises(ValueError):
        next(kmp_occurrences(b"", b"0101"))


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
        assert next(kmp_occurrences(pattern, text), -1) == expected


@given(st.binary(min_size=1, max_size=10), st.binary(max_size=200))
def test_kmp_occurrences_property(pattern, text):
    assert list(kmp_occurrences(pattern, text)) == naive_occurrences(pattern, text)


def test_reverse_occurrences_cannot_start_late():
    # |y| - |reverse(x)| = n - 2 bounds every start position
    for n in range(4, 13, 2):
        for w in all_words(n):
            view = RotatedDoubledView(w)
            for pos in kmp_occurrences(reverse(w).symbols, view):
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


# --- fast decider against the KMP reference ----------------------------


def decision(decider, w):
    ledger = QueryLedger()
    result = decider(w, ledger)
    return result.is_member, result.witness, ledger.classical_reads


def assert_matches_kmp(w):
    assert decision(exact_member, w) == decision(kmp_member, w), w.symbols.hex()


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
    # a find-again loop over every occurrence is quadratic on the periodic
    # words and needs tens of seconds at this size; the last three are the
    # shapes a byte-wise find was slowest on. All need milliseconds.
    n = 2**18
    rng = random.Random(18)
    words = [
        Word(b"\x00\x01" * (n // 2)),
        Word(b"\x00\x00\x00\x01" * (n // 4)),
        Word(bytes(n)),
        random_word(n, rng),
        gen_gamma(n, n // 3),
        gen_member(n // 4, n // 4, rng),
    ]
    start = time.perf_counter()
    results = [decision(exact_member, w) for w in words]
    assert time.perf_counter() - start < 2.0
    verdicts = [member for member, _, _ in results]
    assert verdicts == [False, False, True, False, False, True]
    assert all(reads <= 3 * n for _, _, reads in results)


# --- bit-packed phases -----------------------------------------------------


def test_pack_min_is_pinned():
    assert membership.PACK_MIN == 2**15


def spy_on_bit_witness(monkeypatch):
    """Record the length of every word exact_member searches as bits."""
    calls = []
    bit_witness = membership._bit_witness

    def spy(x):
        calls.append(x.n)
        return bit_witness(x)

    monkeypatch.setattr(membership, "_bit_witness", spy)
    return calls


@pytest.mark.parametrize("pack_min", [8, membership.PACK_MIN])
def test_bit_path_runs_exactly_for_long_binary_multiples_of_eight(
    monkeypatch, pack_min
):
    monkeypatch.setattr(membership, "PACK_MIN", pack_min)
    calls = spy_on_bit_witness(monkeypatch)
    rng = random.Random(pack_min)
    lengths = {4, 6, 8, 16, 24, pack_min - 8, pack_min - 2, pack_min}
    lengths |= {pack_min + k for k in (1, 2, 4, 6, 8, 16)}
    for n in sorted(k for k in lengths if k >= 4):
        for alphabet_size in (2, 3, 16, 256):
            words = [random_word(n, rng, alphabet_size), Word(bytes(n), alphabet_size)]
            if n % 2 == 0:
                h = rng.randint(1, n // 2 - 1)
                words.append(gen_member(h, n // 2 - h, rng, alphabet_size))
            for w in words:
                before = len(calls)
                exact_member(w)
                packed = alphabet_size == 2 and n % 8 == 0 and n >= pack_min
                assert len(calls) - before == packed, (n, alphabet_size)


def test_bit_path_matches_kmp_exhaustive(monkeypatch):
    monkeypatch.setattr(membership, "PACK_MIN", 8)
    for n in (8, 16):
        for w in all_words(n):
            assert_matches_kmp(w)


def test_bit_path_matches_kmp_seeded_in_every_phase(monkeypatch):
    monkeypatch.setattr(membership, "PACK_MIN", 8)
    rng = random.Random(2016)
    phases = set()
    for n in [*range(24, 129, 8), 256, 1000, 1024, 4096]:
        for half in {1, 2, 3, 4, rng.randint(1, n // 2 - 1), n // 2 - 1}:
            w = gen_member(half, n // 2 - half, rng)
            assert_matches_kmp(w)
            phases.add((exact_member(w).witness.half_u - 1) % 4)
        assert_matches_kmp(random_word(n, rng))
    assert phases == {0, 1, 2, 3}


def splits(w):
    """Every witness pair index j = |u| - 1, by brute force."""
    s, n = w.symbols, w.n
    return [
        a - 1
        for a in range(1, n // 2)
        if s[: 2 * a] == s[: 2 * a][::-1] and s[2 * a :] == s[2 * a :][::-1]
    ]


def test_bit_path_later_phase_holds_the_smaller_witness(monkeypatch):
    # phase 0 finds j = 4 first; phase 1 must still find the smaller j = 1
    monkeypatch.setattr(membership, "PACK_MIN", 8)
    w = Word.from_text("011" * 8)
    assert splits(w) == [1, 4, 7, 10]
    assert exact_member(w).witness == Decomposition(2, 10)
    for n in (24, 48, 96, 1008, 4080):
        assert_matches_kmp(Word.from_text(("011" * n)[:n]))


def test_bit_path_matches_kmp_periodic(monkeypatch):
    monkeypatch.setattr(membership, "PACK_MIN", 8)
    for n in (8, 16, 24, 32, 64, 96, 1000, 1024, 4096):
        for w in periodic_words(n):
            assert_matches_kmp(w)
        for unit in ("011", "0110", "00111", "0001011"):
            assert_matches_kmp(Word.from_text((unit * n)[:n]))


# --- parity screen -----------------------------------------------------------


def parity_balanced(w):
    """True iff every symbol occurs as often at even positions as at odd
    ones."""
    return sorted(w.symbols[0::2]) == sorted(w.symbols[1::2])


def test_members_are_parity_balanced():
    # both palindromes have even length, so each mirror pair joins an even
    # and an odd position
    for alphabet_size, top in ((2, 16), (3, 8)):
        for n in range(4, top + 1, 2):
            for w in all_words(n, alphabet_size):
                if brute_force_member(w).is_member:
                    assert parity_balanced(w), w.symbols.hex()
    rng = random.Random(17)
    for alphabet_size in (2, 3, 16, 256):
        for n in (4, 18, 64, 1000, 1026, 4096, 2**15):
            for half in {1, rng.randint(1, n // 2 - 1), n // 2 - 1}:
                w = gen_member(half, n // 2 - half, rng, alphabet_size)
                assert parity_balanced(w), (n, alphabet_size, half)


@pytest.mark.parametrize(
    "n, alphabet_size", [(n, 2) for n in range(4, 17, 2)] + [(4, 3), (6, 3), (8, 3)]
)
def test_no_single_symbol_change_of_a_member_is_a_member(n, alphabet_size):
    # one change breaks a member's even/odd balance of that symbol, so every
    # member has sensitivity n: a deterministic decider reads all of it, and
    # the randomized and quantum lower bounds in the README follow
    members = {w.symbols for w in member_words(n, alphabet_size)}
    for m in members:
        for i in range(n):
            for c in range(alphabet_size):
                if c != m[i]:
                    assert m[:i] + bytes([c]) + m[i + 1 :] not in members


@pytest.mark.parametrize("alphabet_size", [2, 3])
def test_single_symbol_changes_of_long_members_cost_3n_minus_2(
    monkeypatch, alphabet_size
):
    # binary members at n = PACK_MIN take the bit path (and its parity
    # screen), ternary ones the pair path; either way a changed member is
    # rejected and charged what a search that finds no witness reads
    n = membership.PACK_MIN
    calls = spy_on_bit_witness(monkeypatch)
    rng = random.Random(13 + alphabet_size)
    changed = 0
    for half_u in (1, rng.randint(2, n // 2 - 2), n // 2 - 1):
        w = gen_member(half_u, n // 2 - half_u, rng, alphabet_size)
        positions = {0, 2 * half_u - 1, 2 * half_u, n - 1, *rng.sample(range(n), 4)}
        for i in sorted(positions):
            s = bytearray(w.symbols)
            s[i] = (s[i] + rng.randint(1, alphabet_size - 1)) % alphabet_size
            ledger = QueryLedger()
            assert not exact_member(Word(s, alphabet_size), ledger).is_member
            assert ledger.classical_reads == 3 * n - 2
            changed += 1
    assert calls == ([n] * changed if alphabet_size == 2 else [])


def balanced_non_members(n, rng):
    """Parity-balanced binary non-members: uniform words with ones cleared
    on the heavier parity until the counts agree, and words whose two ones
    at k and n - 1 - k sit on the axis n - 1, which certifies no split."""
    words = []
    for _ in range(3):
        s = bytearray(random_word(n, rng).symbols)
        excess = sum(s[0::2]) - sum(s[1::2])
        heavy = [i for i in range(excess < 0, n, 2) if s[i]]
        for i in rng.sample(heavy, abs(excess)):
            s[i] = 0
        words.append(Word(s))
    for k in (0, rng.randrange(n // 2)):
        s = bytearray(n)
        s[k] = s[n - 1 - k] = 1
        words.append(Word(s))
    return words


class PatternBuilt(Exception):
    """Raised by the packbits spy where the bit path builds its pattern."""


def spy_on_packbits(monkeypatch, stop_at_pattern=False):
    """Record the bit order of every np.packbits call. The bit path packs
    the word big-endian for its screen and ring, then little-endian for its
    pattern, before it builds the ring or any phase text; with
    stop_at_pattern that second call raises PatternBuilt instead."""
    orders = []
    packbits = membership.np.packbits

    def spy(*args, bitorder="big", **kwargs):
        orders.append(bitorder)
        if stop_at_pattern and bitorder == "little":
            raise PatternBuilt
        return packbits(*args, bitorder=bitorder, **kwargs)

    monkeypatch.setattr(membership.np, "packbits", spy)
    return orders


@pytest.mark.parametrize("n", [membership.PACK_MIN, 1024, 1026])
def test_parity_screen_rejects_before_any_text_is_built(monkeypatch, n):
    rng = random.Random(n)
    half = rng.randint(1, n // 2 - 1)
    unbalanced = [
        random_word(n, rng),
        Word((b"\x00\x01" * n)[:n]),
        Word((b"\x00\x00\x00\x01" * n)[:n]),
        gen_gamma(n, rng.randrange(n)),
    ]
    balanced = [gen_member(half, n // 2 - half, rng), *balanced_non_members(n, rng)]
    orders = spy_on_packbits(monkeypatch, stop_at_pattern=True)
    # the pair search starts its pattern and text by translating through
    # this table, and an empty table makes `translate` raise
    monkeypatch.setattr(membership, "_SWAP_NIBBLES", b"")
    bit_path = n % 8 == 0 and n >= membership.PACK_MIN
    for w in unbalanced:
        assert not parity_balanced(w)
        assert decision(exact_member, w) == (False, None, 3 * n - 2)
    assert orders == ["big"] * (bit_path * len(unbalanced))
    for w in balanced:
        if bit_path:
            with pytest.raises(PatternBuilt):
                exact_member(w)
        else:
            with pytest.raises(ValueError, match="translation table"):
                exact_member(w)
    assert orders[len(unbalanced) * bit_path :] == ["big", "little"] * (
        bit_path * len(balanced)
    )


def imbalance(symbols):
    """Ones at even positions minus ones at odd positions."""
    return sum(symbols[0::2]) - sum(symbols[1::2])


def with_imbalance(s, target, rng):
    """The binary symbols s with distinct random positions flipped until
    they hold target more ones at even positions than at odd ones."""
    s = bytearray(s)
    excess = imbalance(s) - target
    # flipping a one at an even position or a zero at an odd one lowers the
    # imbalance by one, and flipping any other symbol raises it by one
    flips = [i for i, c in enumerate(s) if (c == (i % 2 == 0)) == (excess > 0)]
    for i in rng.sample(flips, abs(excess)):
        s[i] ^= 1
    assert imbalance(s) == target
    return bytes(s)


@pytest.mark.parametrize("n", [membership.PACK_MIN + 8, membership.PACK_MIN + 56])
def test_parity_screen_counts_the_trailing_bytes(monkeypatch, n):
    # n/8 is 1 or 7 bytes past a multiple of 8, so the screen's 64-bit
    # words cover the first cut symbols and the last bytes are counted apart
    size = n // 8
    cut = 8 * (size - size % 8)
    assert 0 < n - cut < 64
    rng = random.Random(n)
    orders = spy_on_packbits(monkeypatch)

    def searched(w):
        before = len(orders)
        result = decision(exact_member, w)
        assert orders[before] == "big"
        return result, orders[before + 1 :] == ["little"]

    # balanced in the 64-bit words, unbalanced in the trailing bytes only
    for target in (1, -1, 2, -3):
        head = with_imbalance(random_word(cut, rng).symbols, 0, rng)
        tail = with_imbalance(random_word(n - cut, rng).symbols, target, rng)
        w = Word(head + tail)
        assert not parity_balanced(w)
        assert searched(w) == ((False, None, 3 * n - 2), False)
    # the head's imbalance cancelled by the trailing bytes: members and
    # non-members, all searched
    words = []
    for target in (1, -1, 2, -3):
        head = with_imbalance(random_word(cut, rng).symbols, target, rng)
        tail = with_imbalance(random_word(n - cut, rng).symbols, -target, rng)
        words.append(Word(head + tail))
    members = []
    while len(members) < 3:
        half = rng.randint(1, n // 2 - 1)
        w = gen_member(half, n // 2 - half, rng)
        if imbalance(w.symbols[:cut]):
            members.append(w)
    for w in words + members:
        assert parity_balanced(w) and imbalance(w.symbols[:cut]) != 0
        result, was_searched = searched(w)
        assert was_searched
        assert result == decision(kmp_member, w)
        assert result[0] == (w in members)


@pytest.mark.parametrize("n", [1026, membership.PACK_MIN, 2**17])
def test_balanced_non_members_match_kmp(n):
    # the screen passes these, so they reach the phase finds (or the pair
    # find at 1026) and are searched to the end
    for w in balanced_non_members(n, random.Random(n)):
        assert parity_balanced(w)
        assert not exact_member(w).is_member
        assert_matches_kmp(w)


# --- packed pairs and two-byte units ---------------------------------------


def relabel(w, low, high, alphabet_size):
    """w with its symbols 0 and 1 renamed to low and high."""
    table = bytes.maketrans(b"\x00\x01", bytes([low, high]))
    return Word(w.symbols.translate(table), alphabet_size)


def first_find_is_misaligned(w):
    """True when the first match of reverse(w) in y(w)[1:], read as raw
    bytes, starts mid-pair, so a two-byte search needs its second find."""
    s = w.symbols
    return (s[2:] + s[:-2]).find(s[::-1]) % 2 == 1


def test_fast_decider_matches_kmp_relabelled_binary():
    # codes 0 and 15 fill both nibbles of a packed byte; 16 and 255 are
    # two-byte units
    for n in range(13):
        for w in all_words(n):
            assert_matches_kmp(relabel(w, 0, 15, 16))
            assert_matches_kmp(relabel(w, 16, 255, 256))


@pytest.mark.parametrize("alphabet_size", [16, 17, 256])
def test_fast_decider_matches_kmp_on_large_alphabets(alphabet_size):
    rng = random.Random(alphabet_size)
    extremes = bytes([0, alphabet_size - 1])
    for n in (4, 6, 18, 64, 100, 1000, 4096):
        half = rng.randint(1, n // 2 - 1)
        u = extremes + random_word(half, rng, alphabet_size).symbols
        v = random_word(n // 2 - half, rng, alphabet_size).symbols
        rest = random_word(n - 2, rng, alphabet_size).symbols
        member = Word(u + u[::-1] + v + v[::-1], alphabet_size)
        assert exact_member(member).is_member
        words = [
            member,
            gen_member(n // 2 - 1, 1, rng, alphabet_size),
            Word(extremes + rest, alphabet_size),
            random_word(n + 1, rng, alphabet_size),
        ]
        for w in words:
            assert_matches_kmp(w)


def test_fast_decider_matches_kmp_periodic_large_codes():
    # on two-byte units the first match of these words starts mid-pair, and
    # the second find settles both verdicts: (ab)^k and (aaab)^k are not
    # members, (aba)^k and (aaabb)^k are
    seconds = {False: 0, True: 0}
    a, b = b"\xc8", b"\xff"
    for unit in (a + b, a * 3 + b, a * 2 + b, a + b + a, a * 3 + b * 2, a):
        for n in (4, 6, 8, 10, 12, 18, 24, 30, 64, 96, 250, 1000, 1024, 4096):
            w = Word((unit * n)[:n], 256)
            assert_matches_kmp(w)
            if first_find_is_misaligned(w):
                seconds[exact_member(w).is_member] += 1
    assert seconds[False] and seconds[True]


@settings(max_examples=200)
@given(st.integers(min_value=2, max_value=256), st.data())
def test_fast_decider_matches_kmp_property(alphabet_size, data):
    symbols = st.lists(st.integers(0, alphabet_size - 1), min_size=1, max_size=12)
    u, v = bytes(data.draw(symbols)), bytes(data.draw(symbols))
    word = bytes(data.draw(st.lists(st.integers(0, alphabet_size - 1), max_size=40)))
    assert_matches_kmp(Word(u + u[::-1] + v + v[::-1], alphabet_size))
    assert_matches_kmp(Word(u + v[::-1] + v + u[::-1], alphabet_size))
    assert_matches_kmp(Word(word, alphabet_size))


def benchmark_shapes(n, rng):
    """Members split at the middle and at the edge, a uniform word, (01)^k,
    (0001)^k, the all-zero word and a single one."""
    return [
        gen_member(n // 4, n // 4, rng),
        gen_member(n // 2 - 1, 1, rng),
        random_word(n, rng),
        Word(b"\x00\x01" * (n // 2)),
        Word(b"\x00\x00\x00\x01" * (n // 4)),
        Word(bytes(n)),
        gen_gamma(n, rng.randrange(n)),
    ]


def test_benchmark_shapes_match_kmp():
    for w in benchmark_shapes(2**14, random.Random(14)):
        assert_matches_kmp(w)


def test_benchmark_shapes_match_distance_oracle():
    # a member has distance 0, and its witness is the best split: both take
    # the smallest |u|
    n = 2**20
    for w in benchmark_shapes(n, random.Random(20)):
        member, witness, reads = decision(exact_member, w)
        oracle = distance_to_language(w)
        assert member == (oracle.distance == 0)
        assert reads <= 3 * n
        if member:
            assert witness == oracle.best_split


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


def test_characterization_matches_per_index_reference():
    for alphabet_size, top in ((3, 8), (2, 10)):
        for n in range(4, top + 1, 2):
            for w in all_words(n, alphabet_size):
                for a in range(1, n // 2):
                    d = Decomposition(a, n // 2 - a)
                    assert check_symmetric_characterization(
                        w, d
                    ) == mirrored_pairs_agree(w, d)


def test_characterization_reduces_half_u_modulo_n():
    # |u| is not bounded by n / 2 here: the pairs sum to 2|u| - 1 mod n
    for n in range(4, 11, 2):
        for w in all_words(n):
            for a in range(1, 2 * n + 1):
                d = Decomposition(a, 1)
                assert check_symmetric_characterization(w, d) == mirrored_pairs_agree(
                    w, d
                )


def test_characterization_reads_the_word_in_place():
    n = 1 << 20
    d = Decomposition(n // 4 + 1, n // 4 - 1)
    w = gen_member(d.half_u, d.half_v, random.Random(97))
    tracemalloc.start()
    try:
        assert check_symmetric_characterization(w, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one boolean comparison of at most n bytes, no copy of the word
    assert peak <= n + 64 * 1024


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
