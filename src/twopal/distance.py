"""Exact Hamming distance from a word to the two-palindrome language.

For a fixed split |u| = a, the nearest word with that shape differs from x in
exactly one position per mismatched mirror pair, so the distance is the
minimum over splits of the mismatched-pair count. The mirror pairs of split a
are the index pairs whose sum is 2a - 1 (mod n); that sum is odd, so each
pair joins an even index 2*alpha and an odd index 2*beta + 1 with
alpha + beta = a - 1 (mod n/2). One length-n/2 cyclic convolution of the
even-position indicators with the odd-position ones, per symbol, therefore
counts the equal pairs of every split at once in O(n log n). In each half the
indicators of the present symbols sum to the all-ones vector, so the last
symbol's two spectra are derived from the others' instead of transformed: a
binary word takes two half-length forward transforms and one inverse. The
quadratic split scan is kept only as the reference the tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .words import Decomposition, Word, check_even_length


@dataclass(frozen=True)
class DistanceResult:
    distance: int
    best_split: Decomposition


def far_threshold(epsilon: float, n: int) -> int:
    """ceil(epsilon * n), tolerating float rounding at integer products."""
    return math.ceil(epsilon * n - 1e-9)


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
    h = n // 2
    arr = np.frombuffer(x.symbols, dtype=np.uint8)
    even, odd = arr[0::2], arr[1::2]
    present = [sym for sym in range(x.alphabet_size) if (arr == sym).any()]
    # split a pairs even index 2*alpha with odd index 2*beta + 1 exactly when
    # alpha + beta = a - 1 (mod h): a length-h cyclic convolution per symbol
    power = np.zeros(h // 2 + 1, dtype=np.complex128)
    # each half's indicators sum to all ones, whose spectrum is h at index 0
    # and 0 elsewhere, so the last present symbol's spectra are that minus
    # the others'
    last_even = np.zeros(h // 2 + 1, dtype=np.complex128)
    last_even[0] = h
    last_odd = last_even.copy()
    for sym in present[:-1]:
        spec_even = np.fft.rfft(even == sym)
        spec_odd = np.fft.rfft(odd == sym)
        power += spec_even * spec_odd
        last_even -= spec_even
        last_odd -= spec_odd
    power += last_even * last_odd
    # each split has h mirror pairs; residue a - 1 counts its equal ones
    equal = np.rint(np.fft.irfft(power, h)[: h - 1]).astype(np.int64)
    per_split = h - equal
    a = int(np.argmin(per_split)) + 1
    return DistanceResult(int(per_split[a - 1]), Decomposition(a, h - a))


def distance_to_language(x: Word, method: str = "auto") -> DistanceResult:
    """Minimum Hamming distance from x to any two-palindrome concatenation.

    method: "auto" (the default) and "fast" both run one length-n/2 cyclic
    convolution, O(n log n) at every size; "baseline" is the quadratic split
    scan, kept only as the reference tests compare against. Both produce
    identical results, including the smallest-|u| tie-break on the reported
    split.
    """
    check_even_length(x.n)
    if method in ("auto", "fast"):
        return _distance_fast(x)
    if method == "baseline":
        return _distance_baseline(x)
    raise ValueError(f"unknown method {method!r}")


def is_eps_far(x: Word, epsilon: float) -> bool:
    """True iff x is at distance >= ceil(epsilon * n) from every member."""
    return distance_to_language(x).distance >= far_threshold(epsilon, x.n)
