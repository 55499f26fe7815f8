import random

import pytest
from hypothesis import given, settings, strategies as st

from twopal import (
    FarInstanceError,
    brute_force_member,
    distance_to_language,
    exact_member,
    far_threshold,
    gen_far,
    gen_gamma,
    gen_member,
    gen_sigma,
    random_word,
)


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


def test_gen_far_certified():
    rng = random.Random(11)
    for n, eps in ((4, 0.25), (64, 0.1), (256, 0.15), (1024, 0.1)):
        w = gen_far(n, eps, rng)
        # recompute the certificate independently of the sampling path
        assert distance_to_language(w, "baseline").distance >= far_threshold(eps, n)


def test_gen_far_exhaustion():
    with pytest.raises(FarInstanceError):
        gen_far(6, 0.99, random.Random(0), max_attempts=100)


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
