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
binary word takes two half-length forward transforms and one inverse.
Away from index 0 the derived spectra are minus the sum of the others', so a
binary word's product spectrum is 2 * E * O there; index 0 is the exact
integer sum over symbols of count_even * count_odd.

The transforms run in a per-thread workspace of two float64 buffers sized
for the last half-length served. Each holds one half's indicator, and its
spectrum is written over it through a complex view; the product is formed
in place and the inverse transform writes into the other buffer. A binary
word therefore allocates nothing of size n/2 per call beyond the copy numpy
makes of a transform's input when the output overlaps it. The quadratic
split scan is kept only as the reference the tests compare against.
"""

from __future__ import annotations

import math
import threading
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


_workspace = threading.local()


def _buffers(h: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's two buffers for half-length h, each large enough for h
    reals or the h // 2 + 1 values of their spectrum."""
    if getattr(_workspace, "h", None) != h:
        size = 2 * (h // 2 + 1)
        _workspace.buffers = (np.empty(size), np.empty(size))
        _workspace.h = h
    return _workspace.buffers


def _indicator(half: np.ndarray, sym: int, buf: np.ndarray) -> tuple[np.ndarray, int]:
    """Write half == sym as floats into buf's first len(half) values; return
    that view and its count."""
    ind = np.equal(half, sym, out=buf[: half.size])
    return ind, int(ind.sum())


def _spectrum(ind: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """rfft of the indicator held in buf, written over it."""
    return np.fft.rfft(ind, out=buf.view(np.complex128))


def _distance_fast(x: Word) -> DistanceResult:
    n = x.n
    h = n // 2
    arr = np.frombuffer(x.symbols, dtype=np.uint8)
    even, odd = arr[0::2], arr[1::2]
    lo, hi = int(arr.min()), int(arr.max())
    if lo == hi:
        # every mirror pair is equal
        return DistanceResult(0, Decomposition(1, h - 1))
    buf_even, buf_odd = _buffers(h)
    # split a pairs even index 2*alpha with odd index 2*beta + 1 exactly when
    # alpha + beta = a - 1 (mod h): a length-h cyclic convolution per symbol.
    # Each half's indicators sum to all ones, whose spectrum is 0 away from
    # index 0, so the last present symbol hi is not transformed: its spectra
    # are minus the sum of the others' there. Index 0 of the product is the
    # number of equal pairs in any split, from the counts.
    if hi - lo == 1:
        ind_even, count_even = _indicator(even, lo, buf_even)
        ind_odd, count_odd = _indicator(odd, lo, buf_odd)
        power = _spectrum(ind_even, buf_even)
        power *= _spectrum(ind_odd, buf_odd)
        power *= 2
        pairs = count_even * count_odd + (h - count_even) * (h - count_odd)
    else:
        power = np.zeros(h // 2 + 1, dtype=np.complex128)
        sum_even = np.zeros_like(power)
        sum_odd = np.zeros_like(power)
        pairs = total_even = total_odd = 0
        for sym in range(lo, hi):
            ind_even, count_even = _indicator(even, sym, buf_even)
            ind_odd, count_odd = _indicator(odd, sym, buf_odd)
            if count_even + count_odd == 0:
                continue
            spec_even = _spectrum(ind_even, buf_even)
            spec_odd = _spectrum(ind_odd, buf_odd)
            power += spec_even * spec_odd
            sum_even += spec_even
            sum_odd += spec_odd
            pairs += count_even * count_odd
            total_even += count_even
            total_odd += count_odd
        power += sum_even * sum_odd
        pairs += (h - total_even) * (h - total_odd)
    power[0] = pairs
    # each split has h mirror pairs; residue a - 1 counts its equal ones
    equal = np.fft.irfft(power, h, out=buf_odd[:h])
    np.rint(equal, out=equal)
    # argmax returns the first maximum: the smallest |u| among the best splits
    a = int(np.argmax(equal[: h - 1])) + 1
    return DistanceResult(h - int(equal[a - 1]), Decomposition(a, h - a))


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
