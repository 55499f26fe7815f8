"""Exact membership deciders for the two-palindrome concatenation language.

`brute_force_member` tries every even split directly and is the trusted
ground truth. `exact_member` reduces the question to substring search: x
decomposes as two nonempty even palindromes iff reverse(x) occurs in the
rotation-doubled view y(x) at an odd offset i with i+1 in [2, n-2]. An odd
offset starts on a symbol pair, so the search runs on pairs: the text is
y(x)[1:], whose units are the pairs (x[2k], x[2k+1]) rotated by one, and the
pattern is reverse(x), whose units are the same pairs swapped, in reverse
order. Over at most 16 symbols each pair packs into one byte, and one
`bytes.find` over the n - 2 packed bytes decides, since every match is an
odd offset. Over larger alphabets a unit is two raw bytes, and a match may
start mid-pair; the occurrences of a length-n pattern in a text shorter than
2n form one arithmetic progression (Kociumaka, Radoszewski, Rytter and
Walen, SODA 2015), so the first two decide whether an aligned one exists.
`kmp_member` is the reference it is tested against: Knuth-Morris-Pratt over
the virtual view, charging the ledger one read per visited symbol.
`exact_member` charges the count that reference reads, in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .ledger import QueryLedger
from .words import Decomposition, RotatedDoubledView, Word


# _SWAP_NIBBLES maps each byte c << 4 | d to d << 4 | c
_SWAP_NIBBLES = bytes((b & 15) << 4 | b >> 4 for b in range(256))


@dataclass(frozen=True)
class MembershipResult:
    is_member: bool
    witness: Optional[Decomposition] = None

    def __post_init__(self) -> None:
        if self.is_member != (self.witness is not None):
            raise ValueError("witness must be present exactly for members")


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


def exact_member(x: Word, ledger: Optional[QueryLedger] = None) -> MembershipResult:
    """Decide membership with one `find` over packed symbol pairs, or at
    most two over two-byte pairs.

    A witness offset i = 2j + 1 of reverse(x) in y(x) is a match at pair j
    of the text y(x)[1:], both read as pairs. Over at most 16 symbols the
    pair (c, d) packs into the byte c << 4 | d, so every match is a witness
    and the first is the smallest. Otherwise a pair is two raw bytes and the
    matches at byte offsets b0, b0 + p, b0 + 2p, ... include an aligned one
    iff b0 or p is even, the first such being b0 or b0 + p. Either way the
    text is shorter than twice the pattern, so any aligned match gives
    i <= n - 3, a valid split. Each find is linear-time (CPython >= 3.10
    falls back to two-way matching). The ledger is charged what `kmp_member`
    reads: n for the pattern, plus i + n view symbols when it stops at
    witness i, or all 2n - 2 when there is none.
    """
    n = x.n
    if n < 4 or n % 2:
        return MembershipResult(False)
    s = x.symbols
    if x.alphabet_size <= 16:
        # the little-endian pair value d << 8 | c, shifted and folded,
        # leaves d << 4 | c in its low byte: the pattern's unit
        pairs = np.frombuffer(s, dtype="<u2")
        swapped = (pairs >> 4 | pairs).astype(np.uint8).tobytes()
        units, pattern, width = swapped.translate(_SWAP_NIBBLES), swapped[::-1], 1
    else:
        units, pattern, width = s, s[::-1], 2
    text = units[width:] + units[:-width]
    j = text.find(pattern)
    if j >= 0 and j % width:
        j = text.find(pattern, j + 1)
    if j < 0 or j % width:
        if ledger is not None:
            ledger.read_classical(3 * n - 2)
        return MembershipResult(False)
    i = 2 * (j // width) + 1
    if ledger is not None:
        ledger.read_classical(2 * n + i)
    return MembershipResult(True, Decomposition((i + 1) // 2, (n - i - 1) // 2))


def check_symmetric_characterization(x: Word, d: Decomposition) -> bool:
    """True iff symbols agree on every index pair summing to 2|u|-1 mod n.

    For a genuine member with a correct witness this always holds: such pairs
    are exactly the positions mirrored about one of the two palindrome
    centers.
    """
    n = x.n
    s = x.symbols
    target = (2 * d.half_u - 1) % n
    return all(s[i] == s[(target - i) % n] for i in range(n))
