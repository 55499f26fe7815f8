"""Certified instance generators for experiments.

Members are built directly from random halves. Adversarial single-one words
and the all-zero word cover the classic hard instances. Far instances are
rejection-sampled and certified against the exact distance oracle, because
perturbing a member bounds the distance to that member only, not to the whole
language.
"""

from __future__ import annotations

import random

import numpy as np

from .distance import distance_to_language, far_threshold
from .words import Word, check_even_length

# _LOW_BITS[k] maps each byte b to b % 2^k, its k low bits
_LOW_BITS = tuple(bytes(b & ((1 << k) - 1) for b in range(256)) for k in range(9))


class FarInstanceError(RuntimeError):
    """No far instance found within the attempt budget."""


def _randbelow(rng: random.Random, bound: int, count: int) -> np.ndarray:
    """count draws of rng.randrange(bound), for 1 <= bound < 2^32: the same
    values, and rng is left in the same state.

    Each randrange(bound) call keeps the top bound.bit_length() bits of one
    32-bit generator output and retries while they are >= bound. Here the
    outputs are drawn in batches, one per missing value, and filtered the
    same way; a batch never yields more values than are missing, so no
    output is drawn that randrange would not have drawn.
    """
    shift = 32 - bound.bit_length()
    kept = [np.empty(0, dtype=np.uint32)]
    missing = count
    while missing:
        words = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
        draws = np.frombuffer(words, dtype="<u4") >> shift
        kept.append(draws[draws < bound])
        missing -= kept[-1].size
    return np.concatenate(kept)


def random_word(n: int, rng: random.Random, alphabet_size: int = 2) -> Word:
    """Uniform random word of length n."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    if 256 % alphabet_size == 0:
        table = _LOW_BITS[alphabet_size.bit_length() - 1]
        return Word(rng.randbytes(n).translate(table), alphabet_size)
    symbols = _randbelow(rng, alphabet_size, n).astype(np.uint8)
    return Word(symbols.tobytes(), alphabet_size)


def gen_member(
    half_u: int, half_v: int, rng: random.Random, alphabet_size: int = 2
) -> Word:
    """u + reverse(u) + v + reverse(v) with uniformly random u, v."""
    if half_u < 1 or half_v < 1:
        raise ValueError("both halves must be nonempty")
    u = random_word(half_u, rng, alphabet_size).symbols
    v = random_word(half_v, rng, alphabet_size).symbols
    return Word(u + u[::-1] + v + v[::-1], alphabet_size)


def gen_sigma(n: int, alphabet_size: int = 2) -> Word:
    """The all-zero word; always a member (u = 0, v = the rest)."""
    check_even_length(n)
    return Word(bytes(n), alphabet_size)


def gen_gamma(n: int, i: int, alphabet_size: int = 2) -> Word:
    """All zeros except a single one at position i; never a member, since the
    lone one has no mirror partner under any split."""
    check_even_length(n)
    if not 0 <= i < n:
        raise ValueError(f"position {i} out of range [0, {n})")
    symbols = bytearray(n)
    symbols[i] = 1
    return Word(bytes(symbols), alphabet_size)


def gen_far(
    n: int,
    epsilon: float,
    rng: random.Random,
    max_attempts: int = 1000,
    alphabet_size: int = 2,
) -> Word:
    """Uniform random word certified at distance >= ceil(epsilon * n).

    Raises FarInstanceError when the budget runs out, which signals that
    epsilon is too large for this n (the distance never exceeds n/2).
    """
    check_even_length(n)
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    threshold = far_threshold(epsilon, n)
    for _ in range(max_attempts):
        w = random_word(n, rng, alphabet_size)
        if distance_to_language(w).distance >= threshold:
            return w
    raise FarInstanceError(
        f"no far instance found for n={n}, epsilon={epsilon} "
        f"after {max_attempts} attempts"
    )
