"""Enumeration and reference helpers shared across the suite.

The references are the second, slower implementation of each job that the
package's fast paths are compared against; they are not part of the package:

- membership: `brute_force_member` (every even split, the ground truth) and
  `kmp_member`, the Knuth-Morris-Pratt walk (`kmp_occurrences`,
  `_failure_function`) over the charged view `RotatedDoubledView`, whose
  reads define what `exact_member` charges;
- distance: `_distance_baseline`, the quadratic split scan,
  `mismatched_pairs`, the disagreeing mirror pairs of one split, and
  `batched_distances`, every split's mismatches over a whole array of words
  at once (with `binary_words`, every binary word of one length);
- fingerprints: `left`, `right` and `mirrored_pairs_agree`, read one symbol
  at a time.
"""

import itertools
from typing import Iterator, Optional, Sequence

import numpy as np

from twopal import Decomposition, DistanceResult, MembershipResult, QueryLedger, Word


def all_words(n, alphabet_size=2):
    for tup in itertools.product(range(alphabet_size), repeat=n):
        yield Word(bytes(tup), alphabet_size)


def member_constructions(n, alphabet_size=2):
    """Every (word, half_u) built directly from the language definition."""
    for a in range(1, n // 2):
        h = n // 2 - a
        for u in itertools.product(range(alphabet_size), repeat=a):
            ub = bytes(u)
            prefix = ub + ub[::-1]
            for v in itertools.product(range(alphabet_size), repeat=h):
                vb = bytes(v)
                yield Word(prefix + vb + vb[::-1], alphabet_size), a


def member_words(n, alphabet_size=2):
    """Distinct member words of length n."""
    seen = set()
    for word, _ in member_constructions(n, alphabet_size):
        if word.symbols not in seen:
            seen.add(word.symbols)
            yield word


def left(x, i, shifts):
    """Row i's fingerprint (x[(i - p) mod n] for each shift p), read one
    symbol at a time: the reference for the tester's gathered rows."""
    s, n = x.symbols, x.n
    return bytes([s[(i - p) % n] for p in np.asarray(shifts).tolist()])


def right(x, j, shifts):
    """Column j's fingerprint (x[(j + p) mod n] for each shift p), read one
    symbol at a time: the reference for the tester's gathered columns."""
    s, n = x.symbols, x.n
    return bytes([s[(j + p) % n] for p in np.asarray(shifts).tolist()])


def mirrored_pairs_agree(x, d):
    """True iff x[i] == x[(2|u| - 1 - i) mod n] for every index i, checked
    one index at a time: the reference for check_symmetric_characterization."""
    s, n = x.symbols, x.n
    target = (2 * d.half_u - 1) % n
    return all(s[i] == s[(target - i) % n] for i in range(n))


def reverse(w: Word) -> Word:
    """The word read back to front; an involution."""
    return Word(w.symbols[::-1], w.alphabet_size)


class RotatedDoubledView:
    """Virtual y(x): x minus its first symbol, then x minus its last symbol.

    Length is 2n-2. Index i maps to x[(i+1) mod n]: for i < n-1 that is
    x[i+1], past the seam it wraps to x[i-n+1]. Reads go through the base
    word; if a ledger is attached, each access records one classical read.
    """

    __slots__ = ("base", "n", "k", "ledger")

    def __init__(self, base: Word, ledger: Optional[QueryLedger] = None) -> None:
        if base.n < 2:
            raise ValueError("rotation-doubled view needs a word of length >= 2")
        self.base = base
        self.n = base.n
        self.k = 2 * base.n - 2
        self.ledger = ledger

    def __len__(self) -> int:
        return self.k

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.k:
            raise IndexError(f"view index {i} out of range [0, {self.k})")
        if self.ledger is not None:
            self.ledger.read_classical()
        return self.base.symbols[(i + 1) % self.n]


def _failure_function(pattern: Sequence[int]) -> list[int]:
    """fail[q] = length of the longest proper border of pattern[:q+1]."""
    fail = [0] * len(pattern)
    k = 0
    for q in range(1, len(pattern)):
        c = pattern[q]
        while k and pattern[k] != c:
            k = fail[k - 1]
        if pattern[k] == c:
            k += 1
        fail[q] = k
    return fail


def kmp_occurrences(pattern: Sequence[int], text: Sequence[int]) -> Iterator[int]:
    """Yield every start index of pattern in text, in increasing order.

    text only needs indexed access; each position is read exactly once, so a
    virtual sequence (such as RotatedDoubledView) works without being
    materialized. Total work is O(len(text) + len(pattern)).
    """
    m = len(pattern)
    if m == 0:
        raise ValueError("empty pattern")
    fail = _failure_function(pattern)
    q = 0
    for i in range(len(text)):
        c = text[i]
        while q and pattern[q] != c:
            q = fail[q - 1]
        if pattern[q] == c:
            q += 1
        if q == m:
            yield i - m + 1
            q = fail[q - 1]


def brute_force_member(x: Word) -> MembershipResult:
    """Try every even split; quadratic and deliberately unoptimized.

    Returns the witness with the smallest |u| when x is a member. Odd or
    too-short words are non-members by definition.
    """
    n = x.n
    if n < 4 or n % 2:
        return MembershipResult(False)
    s = x.symbols
    for a in range(1, n // 2):
        left = s[: 2 * a]
        if left != left[::-1]:
            continue
        right = s[2 * a :]
        if right == right[::-1]:
            return MembershipResult(True, Decomposition(a, n // 2 - a))
    return MembershipResult(False)


def kmp_member(x: Word, ledger: Optional[QueryLedger] = None) -> MembershipResult:
    """Reference decider: KMP search for reverse(x) inside the virtual y(x).

    An occurrence starting at i certifies that x[:i+1] and x[i+1:] are both
    palindromes, which is a valid decomposition only when i is odd and both
    parts are nonempty (i+1 in [2, n-2]); other occurrences are skipped and
    the scan continues. Charges n reads for the reversed pattern plus one
    read per visited view position, O(n) in total.
    """
    n = x.n
    if n < 4 or n % 2:
        return MembershipResult(False)
    if ledger is not None:
        ledger.read_classical(n)
    pattern = x.symbols[::-1]
    view = RotatedDoubledView(x, ledger)
    for i in kmp_occurrences(pattern, view):
        if i % 2 == 1 and i <= n - 3:
            return MembershipResult(True, Decomposition((i + 1) // 2, (n - i - 1) // 2))
    return MembershipResult(False)


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


def binary_words(n: int) -> np.ndarray:
    """Every binary word of length n as a (2^n, n) uint8 array: row c holds
    the bits of c, lowest first."""
    codes = np.arange(1 << n, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(codes, axis=1, count=n, bitorder="little")


def batched_distances(words: np.ndarray) -> np.ndarray:
    """The distance to the language of each row of a (B, n) array of words,
    by brute force over every split, independent of the FFT oracle. The split
    |u| = a mirrors position k onto (s - k) mod n with the odd axis
    s = 2a - 1 < n - 1, and n even leaves no position on its own mirror, so
    each disagreeing mirror pair is counted twice."""
    n = words.shape[1]
    k = np.arange(n)
    best = np.full(len(words), n, np.int64)
    for s in range(1, n - 1, 2):
        np.minimum(best, (words != words[:, (s - k) % n]).sum(axis=1), out=best)
    return best // 2
