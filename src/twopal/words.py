"""Words over a small alphabet and the rotation-doubled view used by the
membership reduction.

A word x of length n splits as x = u + reverse(u) + v + reverse(v) with u, v
nonempty exactly when n is even, n >= 4, and some even split turns both halves
into palindromes. The rotation-doubled view y(x) — x without its first symbol
followed by x without its last symbol — is the key derived object: x belongs
to the language iff reverse(x) occurs in y(x) at a suitable position.
`RotatedDoubledView` computes element i on demand and charges one read per
access; it is the text of the reference decider `kmp_member`. The fast
decider `exact_member` never builds y(x). A binary word whose length is a
multiple of 8 and at least PACK_MIN is searched as bits, eight symbols to a
byte: four texts of at most n/4 bytes, x rotated by 2, 4, 6 and 8 symbols
and packed. Every other word is searched as symbol pairs of y(x)[1:], n - 2
bytes when each pair packs into one byte (alphabets of at most 16 symbols)
and 2n - 4 bytes otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ledger import QueryLedger


def check_even_length(n: int) -> None:
    """Reject a length no two-palindrome word has: members are even and >= 4."""
    if n < 4 or n % 2:
        raise ValueError(f"length must be even and >= 4, got n={n}")


# ASCII digit <-> symbol code, for codes 0..9
_FROM_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))
_TO_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


@dataclass(frozen=True)
class Word:
    """Immutable sequence of symbol codes, binary by default.

    Symbols are stored packed (one byte each) so random access is O(1). Any
    bytes-like input of one-byte items (bytearray, memoryview, a uint8
    array) is stored as a bytes copy; anything else raises ValueError.
    """

    symbols: bytes
    alphabet_size: int = 2

    def __post_init__(self) -> None:
        if type(self.symbols) is not bytes:
            # a wider item (an int64 array, say) would be read as several
            # symbols, and a bytearray would stay mutable and unhashable
            try:
                view = memoryview(self.symbols)
            except TypeError:
                view = None
            if view is None or view.itemsize != 1:
                raise ValueError("symbols must be bytes-like with one-byte items")
            object.__setattr__(self, "symbols", view.tobytes())
        if not 2 <= self.alphabet_size <= 256:
            raise ValueError("alphabet needs 2 to 256 symbols, one byte each")
        codes = np.frombuffer(self.symbols, dtype=np.uint8)
        if codes.size and codes.max() >= self.alphabet_size:
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
        # str.isdigit alone would accept non-ASCII digits such as "\u0661"
        if not text.isascii() or (text and not text.isdigit()):
            # quote the first offender only: the text may be megabytes long
            i = len(text) - len(text.lstrip("0123456789"))
            raise ValueError(
                f"word text must be digits, got {text[i]!r} at index {i}"
            )
        return cls(text.encode("ascii").translate(_FROM_DIGITS), alphabet_size)

    def text(self) -> str:
        """ASCII digit serialization, the inverse of from_text; only symbols
        below 10 have a one-digit form, so any other raises ValueError."""
        if self.symbols and np.frombuffer(self.symbols, dtype=np.uint8).max() >= 10:
            raise ValueError("text() needs every symbol below 10")
        return self.symbols.translate(_TO_DIGITS).decode("ascii")


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
