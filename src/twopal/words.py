"""Words over a small alphabet and the rotation-doubled view used by the
membership reduction.

A word x of length n splits as x = u + reverse(u) + v + reverse(v) with u, v
nonempty exactly when n is even, n >= 4, and some even split turns both halves
into palindromes. The rotation-doubled view y(x) — x without its first symbol
followed by x without its last symbol — is the key derived object: x belongs
to the language iff reverse(x) occurs in y(x) at a suitable position.
`RotatedDoubledView` computes element i on demand and charges one read per
access; it is the text of the reference decider `kmp_member`. The fast
decider `exact_member` materializes y(x) instead, as 2n - 2 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .ledger import QueryLedger


@dataclass(frozen=True)
class Word:
    """Immutable sequence of symbol codes, binary by default.

    Symbols are stored packed (one byte each) so random access is O(1).
    """

    symbols: bytes
    alphabet_size: int = 2

    def __post_init__(self) -> None:
        if self.alphabet_size < 2:
            raise ValueError("alphabet needs at least two symbols")
        if self.symbols and max(self.symbols) >= self.alphabet_size:
            raise ValueError("symbol code out of range for alphabet")

    @property
    def n(self) -> int:
        return len(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, i: int) -> int:
        return self.symbols[i]

    @classmethod
    def from_text(cls, text: str, alphabet_size: int = 2) -> "Word":
        """Parse an ASCII digit string such as "0110"."""
        try:
            codes = bytes(int(c) for c in text)
        except ValueError:
            raise ValueError(f"word text must be digits, got {text!r}") from None
        return cls(codes, alphabet_size)

    def text(self) -> str:
        """ASCII digit serialization, the inverse of from_text."""
        return "".join(str(c) for c in self.symbols)


def reverse(w: Word) -> Word:
    """The word read back to front; an involution."""
    return Word(w.symbols[::-1], w.alphabet_size)


@dataclass(frozen=True)
class Decomposition:
    """Split witness: lengths |u| and |v| of a two-palindrome decomposition."""

    half_u: int
    half_v: int

    def __post_init__(self) -> None:
        if self.half_u < 1 or self.half_v < 1:
            raise ValueError("both palindrome halves must be nonempty")


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
