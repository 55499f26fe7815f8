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

# _randbelow draws its last values one by one once at most this many are
# missing: each batch round has a fixed cost of a few microseconds, and the
# rounds left for a few values cost more than one getrandbits call per output
SCALAR_TAIL = 16


class FarInstanceError(RuntimeError):
    """No far instance found within the attempt budget."""


def _randbelow(rng: random.Random, bound: int, count: int) -> np.ndarray:
    """count draws of rng.randrange(bound), for 1 <= bound < 2^32: the same
    values, and rng is left in the same state.

    Each randrange(bound) call keeps the top bound.bit_length() bits of one
    32-bit generator output and retries while they are >= bound; the top
    bits are below bound exactly when the raw output is below
    bound << (32 - bits). Here the outputs are drawn in batches, one per
    missing value, and the raw outputs are filtered against that limit; a
    batch never yields more values than are missing, so no output is drawn
    that randrange would not have drawn. The last SCALAR_TAIL or fewer
    values are drawn by one getrandbits(32) call per output, the same single
    output randrange's getrandbits(bits) takes. The kept outputs are shifted
    down to their top bits once, at the end.
    """
    bits = bound.bit_length()
    limit = bound << (32 - bits)
    kept = []
    missing = count
    while missing > SCALAR_TAIL:
        words = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
        draws = np.frombuffer(words, dtype="<u4")
        kept.append(draws[draws < limit])
        missing -= kept[-1].size
    tail = []
    while missing:
        r = rng.getrandbits(32)
        if r < limit:
            tail.append(r)
            missing -= 1
    kept.append(np.array(tail, dtype=np.uint32))
    values = np.concatenate(kept)
    values >>= 32 - bits
    return values


def _random_symbols(n: int, rng: random.Random, alphabet_size: int) -> bytes:
    """The symbols of random_word(n, rng, alphabet_size), as plain bytes,
    for n >= 0; a bad alphabet raises ValueError before any draw."""
    if not 2 <= alphabet_size <= 256:
        # checked before drawing: _randbelow never returns for a bound below 1
        raise ValueError("alphabet needs 2 to 256 symbols, one byte each")
    if 256 % alphabet_size == 0:
        raw = np.frombuffer(rng.randbytes(n), dtype=np.uint8)
        return (raw & (alphabet_size - 1)).tobytes()
    return _randbelow(rng, alphabet_size, n).astype(np.uint8).tobytes()


def random_word(n: int, rng: random.Random, alphabet_size: int = 2) -> Word:
    """Uniform random word of length n.

    An alphabet dividing 256 takes one rng.randbytes(n) call and keeps each
    byte's low bits, by one numpy mask. Any other alphabet takes the values
    of one rng.randrange(alphabet_size) call per symbol (_randbelow). Either
    way the word and rng's final state depend only on rng's state, n and
    the alphabet. A bad length or alphabet raises ValueError before any draw.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    return Word(_random_symbols(n, rng, alphabet_size), alphabet_size)


def gen_member(
    half_u: int, half_v: int, rng: random.Random, alphabet_size: int = 2
) -> Word:
    """u + reverse(u) + v + reverse(v) with uniformly random u, v.

    u and v are drawn as random_word(half_u, ...) and then
    random_word(half_v, ...) would draw them, but as plain bytes, so only
    the finished word is built and validated. Bad halves or a bad alphabet
    raise ValueError before any draw.
    """
    if half_u < 1 or half_v < 1:
        raise ValueError("both halves must be nonempty")
    u = _random_symbols(half_u, rng, alphabet_size)
    v = _random_symbols(half_v, rng, alphabet_size)
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
    epsilon is too large for this n, and before any draw when the threshold
    exceeds n/2, a distance no word reaches: each split has n/2 mirror pairs.
    """
    check_even_length(n)
    threshold = far_threshold(epsilon, n)
    if threshold > n // 2:
        raise FarInstanceError(
            f"no far instance exists for n={n}, epsilon={epsilon}: the "
            f"threshold {threshold} exceeds n/2 = {n // 2}, the largest distance"
        )
    for _ in range(max_attempts):
        w = random_word(n, rng, alphabet_size)
        if distance_to_language(w).distance >= threshold:
            return w
    raise FarInstanceError(
        f"no far instance found for n={n}, epsilon={epsilon} "
        f"after {max_attempts} attempts"
    )
