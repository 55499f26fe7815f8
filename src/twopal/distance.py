"""Exact Hamming distance from a word to the two-palindrome language.

For a fixed split |u| = a, the nearest word with that shape differs from x in
exactly one position per mismatched mirror pair, so the distance is the
minimum over splits of the mismatched-pair count. The mirror pairs of split a
are exactly the ordered pairs (i, j) with i + j = 2a - 1 (mod n), so one
length-n cyclic self-convolution of the symbol indicator vectors counts them
for every split at once in O(n log n). The indicators of the present symbols
sum to the all-ones vector, so the last one's spectrum is derived as n at
index 0 minus the others' spectra instead of transformed: a binary word takes
two transforms. The quadratic split scan is kept only as the reference the
tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .words import Decomposition, Word


@dataclass(frozen=True)
class DistanceResult:
    distance: int
    best_split: Decomposition


def far_threshold(epsilon: float, n: int) -> int:
    """ceil(epsilon * n), tolerating float rounding at integer products."""
    return math.ceil(epsilon * n - 1e-9)


def _check_domain(x: Word) -> None:
    if x.n < 4 or x.n % 2:
        raise ValueError(f"distance needs even length >= 4, got n={x.n}")


def mismatched_pairs(x: Word, half_u: int) -> list[tuple[int, int]]:
    """Mirror pairs (i, j) that disagree under the split |u| = half_u."""
    n = x.n
    s = x.symbols
    pairs = []
    for i in range(half_u):
        j = 2 * half_u - 1 - i
        if s[i] != s[j]:
            pairs.append((i, j))
    h = (n - 2 * half_u) // 2
    for t in range(h):
        i, j = 2 * half_u + t, n - 1 - t
        if s[i] != s[j]:
            pairs.append((i, j))
    return pairs


def _distance_baseline(x: Word) -> DistanceResult:
    n = x.n
    arr = np.frombuffer(x.symbols, dtype=np.uint8)
    best = None
    best_a = 0
    for a in range(1, n // 2):
        left = int((arr[:a] != arr[a : 2 * a][::-1]).sum())
        block = arr[2 * a :]
        h = (n - 2 * a) // 2
        right = int((block[:h] != block[h:][::-1]).sum())
        total = left + right
        if best is None or total < best:
            best, best_a = total, a
    return DistanceResult(best, Decomposition(best_a, n // 2 - best_a))


def _distance_fast(x: Word) -> DistanceResult:
    n = x.n
    arr = np.frombuffer(x.symbols, dtype=np.uint8)
    # equal ordered pairs per index sum mod n: a cyclic self-convolution per symbol
    present = [sym for sym in range(x.alphabet_size) if (arr == sym).any()]
    power = np.zeros(n // 2 + 1, dtype=np.complex128)
    # the indicators sum to all ones, whose spectrum is n at index 0 and 0
    # elsewhere, so the last present symbol's spectrum is that minus the others'
    last = np.zeros(n // 2 + 1, dtype=np.complex128)
    last[0] = n
    for sym in present[:-1]:
        spec = np.fft.rfft(arr == sym)
        power += spec * spec
        last -= spec
    power += last * last
    # split a reads residue 2a - 1: n ordered pairs, none with i == j as it is odd
    equal = np.rint(np.fft.irfft(power, n)[1 : n - 2 : 2]).astype(np.int64)
    per_split = (n - equal) // 2
    a = int(np.argmin(per_split)) + 1
    return DistanceResult(int(per_split[a - 1]), Decomposition(a, n // 2 - a))


def distance_to_language(x: Word, method: str = "auto") -> DistanceResult:
    """Minimum Hamming distance from x to any two-palindrome concatenation.

    method: "auto" (the default) and "fast" both run one length-n cyclic
    convolution, O(n log n) at every size; "baseline" is the quadratic split
    scan, kept only as the reference tests compare against. Both produce
    identical results, including the smallest-|u| tie-break on the reported
    split.
    """
    _check_domain(x)
    if method in ("auto", "fast"):
        return _distance_fast(x)
    if method == "baseline":
        return _distance_baseline(x)
    raise ValueError(f"unknown method {method!r}")


def is_eps_far(x: Word, epsilon: float) -> bool:
    """True iff x is at distance >= ceil(epsilon * n) from every member."""
    _check_domain(x)
    return distance_to_language(x).distance >= far_threshold(epsilon, x.n)
