"""Exact membership deciders for the two-palindrome concatenation language.

`brute_force_member` tries every even split directly and is the trusted
ground truth. `exact_member` reduces the question to substring search: x
decomposes as two nonempty even palindromes iff reverse(x) occurs in the
rotation-doubled view y(x) at an odd offset i with i+1 in [2, n-2]. It
materializes y(x) (2n - 2 bytes) and makes at most two `bytes.find` calls:
the occurrences of a length-n pattern in a text shorter than 2n form one
arithmetic progression (Kociumaka, Radoszewski, Rytter and Walen, SODA 2015),
so the first two occurrences decide whether an odd one exists.
`kmp_member` is the reference it is tested against: Knuth-Morris-Pratt over
the virtual view, charging the ledger one read per visited symbol.
`exact_member` charges the count that reference reads, in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .ledger import QueryLedger
from .words import Decomposition, RotatedDoubledView, Word


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


def kmp_occurrences(
    pattern: Sequence[int], text: Sequence[int], text_len: Optional[int] = None
) -> Iterator[int]:
    """Yield every start index of pattern in text, in increasing order.

    text only needs indexed access; each position is read exactly once, so a
    virtual sequence (such as RotatedDoubledView) works without being
    materialized. Total work is O(text_len + pattern length).
    """
    m = len(pattern)
    if m == 0:
        raise ValueError("empty pattern")
    if text_len is None:
        text_len = len(text)
    fail = _failure_function(pattern)
    q = 0
    for i in range(text_len):
        c = text[i]
        while q and pattern[q] != c:
            q = fail[q - 1]
        if pattern[q] == c:
            q += 1
        if q == m:
            yield i - m + 1
            q = fail[q - 1]


def kmp_search(
    pattern: Sequence[int], text: Sequence[int], text_len: Optional[int] = None
) -> Optional[int]:
    """Smallest start index of pattern in text, or None."""
    return next(kmp_occurrences(pattern, text, text_len), None)


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
    for i in kmp_occurrences(pattern, view, 2 * n - 2):
        if i % 2 == 1 and i <= n - 3:
            return MembershipResult(True, Decomposition((i + 1) // 2, (n - i - 1) // 2))
    return MembershipResult(False)


def exact_member(x: Word, ledger: Optional[QueryLedger] = None) -> MembershipResult:
    """Decide membership with at most two `find` calls on the materialized y(x).

    Occurrences of reverse(x) in y(x) are i0, i0 + p, i0 + 2p, ..., so an odd
    one exists iff i0 is odd or p is odd, and then the first odd one is i0 or
    i0 + p; any odd start is at most n - 3, a valid split. Each find is
    linear-time (CPython >= 3.10 falls back to two-way matching). The ledger is
    charged what `kmp_member` reads: n for the pattern, plus i + n view
    symbols when it stops at witness i, or all 2n - 2 when there is none.
    """
    n = x.n
    if n < 4 or n % 2:
        return MembershipResult(False)
    s = x.symbols
    text = s[1:] + s[:-1]
    pattern = s[::-1]
    i = text.find(pattern)
    if i >= 0 and i % 2 == 0:
        i = text.find(pattern, i + 1)
    if i < 0 or i % 2 == 0 or i > n - 3:
        if ledger is not None:
            ledger.read_classical(3 * n - 2)
        return MembershipResult(False)
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
