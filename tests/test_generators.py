import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import _distance_baseline, brute_force_member
from twopal import (
    FarInstanceError,
    Word,
    distance_to_language,
    exact_member,
    far_threshold,
    gen_far,
    gen_gamma,
    gen_member,
    gen_sigma,
    random_word,
)
from twopal import generators
from twopal.generators import SCALAR_TAIL, _randbelow


def test_sigma_frozen():
    assert gen_sigma(6).text() == "000000"
    assert exact_member(gen_sigma(6)).is_member


def test_gamma_frozen():
    assert gen_gamma(6, 0).text() == "100000"
    assert not exact_member(gen_gamma(6, 0)).is_member
    assert gen_gamma(4, 2).text() == "0010"
    assert not exact_member(gen_gamma(4, 2)).is_member


def test_sigma_member_gamma_not_for_all_small_sizes():
    for n in range(4, 40, 2):
        assert brute_force_member(gen_sigma(n)).is_member
        for i in range(n):
            assert not brute_force_member(gen_gamma(n, i)).is_member


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([2, 3]),
    st.randoms(use_true_random=False),
)
def test_gen_member_satisfies_oracle(half_u, half_v, alphabet_size, rng):
    w = gen_member(half_u, half_v, rng, alphabet_size)
    assert len(w) == 2 * (half_u + half_v)
    assert brute_force_member(w).is_member


def test_gen_member_frozen_shape():
    # u="01", v="10" concatenates to 01|10|10|01
    class FixedBits:
        def __init__(self, bits):
            self.bits = list(bits)

        def randbytes(self, n):
            out = bytes(self.bits[:n])
            del self.bits[:n]
            return out

    w = gen_member(2, 2, FixedBits([0, 1, 1, 0]))
    assert w.text() == "01101001"
    assert brute_force_member(w).is_member


@pytest.mark.parametrize("alphabet_size", [2, 3, 16, 17, 256])
def test_gen_member_draws_what_two_random_words_draw(alphabet_size):
    # randbytes takes whole 32-bit outputs, so an odd half leaves part of its
    # last one unused; v must still start where a second random_word would
    halves = (1, 3, 5, 200, 513)
    for half_u in halves:
        for half_v in halves:
            seed = 1000 * half_u + half_v
            drawn, twin = random.Random(seed), random.Random(seed)
            w = gen_member(half_u, half_v, drawn, alphabet_size)
            u = random_word(half_u, twin, alphabet_size).symbols
            v = random_word(half_v, twin, alphabet_size).symbols
            assert w == Word(u + u[::-1] + v + v[::-1], alphabet_size)
            assert drawn.getstate() == twin.getstate()


def test_gen_far_certified():
    rng = random.Random(11)
    for n, eps in ((4, 0.25), (64, 0.1), (256, 0.15), (1024, 0.1)):
        w = gen_far(n, eps, rng)
        # recompute the certificate independently of the sampling path
        assert _distance_baseline(w).distance >= far_threshold(eps, n)


def test_gen_far_exhaustion():
    with pytest.raises(FarInstanceError):
        gen_far(6, 0.99, random.Random(0), max_attempts=100)


@pytest.mark.parametrize("epsilon", [0.6, 0.99])
@pytest.mark.parametrize("n", [4, 8, 1024, 2**18])
def test_gen_far_refuses_an_unreachable_threshold_before_any_draw(
    monkeypatch, n, epsilon
):
    # the distance never exceeds n/2, so no word can be certified
    assert far_threshold(epsilon, n) > n // 2

    def certify(*args, **kwargs):
        raise AssertionError("an unreachable threshold certified a word")

    monkeypatch.setattr(generators, "distance_to_language", certify)
    rng = random.Random(n)
    state = rng.getstate()
    with pytest.raises(FarInstanceError, match="exceeds n/2"):
        gen_far(n, epsilon, rng)
    assert rng.getstate() == state


def test_gen_far_still_searches_a_threshold_of_n_over_2(monkeypatch):
    # n = 8, eps 0.45: ceil(3.6) = 4 = n/2 mirror pairs, not ruled out, so
    # the whole budget is drawn and certified, as the seeded skip reason says
    assert far_threshold(0.45, 8) == 4
    calls = []

    def certify(w):
        calls.append(w)
        return distance_to_language(w)

    monkeypatch.setattr(generators, "distance_to_language", certify)
    with pytest.raises(FarInstanceError, match="after 5 attempts$"):
        gen_far(8, 0.45, random.Random(3), max_attempts=5)
    assert len(calls) == 5


def test_generator_domain_errors():
    for bad_n in (-2, 0, 2, 5, 7):
        with pytest.raises(ValueError):
            gen_sigma(bad_n)
        with pytest.raises(ValueError):
            gen_gamma(bad_n, 0)
        with pytest.raises(ValueError):
            gen_far(bad_n, 0.1, random.Random(0))
    with pytest.raises(ValueError):
        gen_gamma(6, 6)
    with pytest.raises(ValueError):
        gen_gamma(6, -1)
    with pytest.raises(ValueError):
        gen_member(0, 1, random.Random(0))
    with pytest.raises(ValueError):
        gen_far(8, 0.0, random.Random(0))
    with pytest.raises(ValueError):
        gen_far(8, 1.0, random.Random(0))


@pytest.mark.parametrize("alphabet_size", [-3, 0, 1, 257])
def test_bad_alphabet_raises_before_any_draw(alphabet_size):
    # _randbelow never returns for a bound below 1, so the alphabet is
    # checked before anything is drawn
    rng = random.Random(0)
    state = rng.getstate()
    for make in (
        lambda: random_word(4, rng, alphabet_size),
        lambda: gen_member(2, 2, rng, alphabet_size),
        lambda: gen_far(8, 0.1, rng, alphabet_size=alphabet_size),
    ):
        with pytest.raises(ValueError):
            make()
        assert rng.getstate() == state


@settings(max_examples=25)
@given(
    st.integers(min_value=2, max_value=64),
    st.integers(min_value=0, max_value=2**32),
)
def test_gen_far_small_eps_always_succeeds(half_n, seed):
    n = 2 * half_n + 2
    w = gen_far(n, 1.0 / n, random.Random(seed))
    assert not exact_member(w).is_member


@pytest.mark.parametrize("alphabet_size", [3, 5, 7, 255])
def test_random_word_reproduces_per_symbol_randrange(alphabet_size):
    # alphabets that do not divide 256 draw batches of 32-bit outputs; the
    # symbols and the generator's final state are those of one randrange
    # call per symbol
    cases = [(n, seed) for n in (1, 2, 10, 1000, 4099) for seed in range(4)]
    cases.append((1 << 21, alphabet_size))
    for n, seed in cases:
        batched, reference = random.Random(seed), random.Random(seed)
        w = random_word(n, batched, alphabet_size)
        assert w.symbols == bytes(reference.randrange(alphabet_size) for _ in range(n))
        assert batched.getstate() == reference.getstate()


@pytest.mark.parametrize("alphabet_size", [2, 4, 16, 256])
def test_random_word_on_power_of_two_alphabets_keeps_byte_residues(alphabet_size):
    # alphabets dividing 256 reduce one random byte per symbol modulo the
    # alphabet; the reference does it with a translate table
    table = bytes(b % alphabet_size for b in range(256))
    for n in (0, 1, 6, 1000, 1 << 21):
        drawn, reference = random.Random(n), random.Random(n)
        w = random_word(n, drawn, alphabet_size)
        assert w.symbols == reference.randbytes(n).translate(table)
        assert drawn.getstate() == reference.getstate()


@pytest.mark.parametrize("alphabet_size", [2, 4, 16, 256])
def test_random_word_masks_long_words_like_a_byte_table(alphabet_size):
    # the numpy mask keeps the same low bits as a byte-at-a-time translate;
    # 4095, 4097, 2^15 + 3 and 2^21 + 1 are not multiples of any vector width
    table = bytes(b % alphabet_size for b in range(256))
    for n in (4095, 4096, 4097, 4098, (1 << 15) + 3, (1 << 21) + 1):
        for seed in range(3):
            drawn, reference = random.Random(seed), random.Random(seed)
            w = random_word(n, drawn, alphabet_size)
            assert w.symbols == reference.randbytes(n).translate(table)
            assert drawn.getstate() == reference.getstate()


@pytest.mark.parametrize(
    "bound",
    [1, 2, 3, 1024, 1025, 1 << 21, 1 << 31, (1 << 31) + 1, (1 << 32) - 1],
)
def test_randbelow_reproduces_randrange_around_the_scalar_tail(bound):
    # the counts straddle the switch to scalar draws at SCALAR_TAIL missing;
    # raw outputs are kept below bound << (32 - bits), whose shift is 31
    # at bound 2 and 0 from bound 2^31 on
    assert SCALAR_TAIL == 16
    for count in (0, 1, 16, 17, 33, 420):
        for seed in range(3):
            drawn, reference = random.Random(seed), random.Random(seed)
            values = _randbelow(drawn, bound, count)
            assert values.tolist() == [reference.randrange(bound) for _ in range(count)]
            assert drawn.getstate() == reference.getstate()
