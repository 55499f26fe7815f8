"""Words over a small alphabet and the split witness of the membership
reduction.

A word x of length n splits as x = u + reverse(u) + v + reverse(v) with u, v
nonempty exactly when n is even, n >= 4, and some even split turns both halves
into palindromes. The rotation-doubled view y(x) — x without its first symbol
followed by x without its last symbol — is the key derived object: x belongs
to the language iff reverse(x) occurs in y(x) at a suitable position.
`exact_member` in membership.py decides that without building y(x); its
module docstring describes how the search reads x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


@dataclass(frozen=True)
class Decomposition:
    """Split witness: lengths |u| and |v| of a two-palindrome decomposition."""

    half_u: int
    half_v: int

    def __post_init__(self) -> None:
        if self.half_u < 1 or self.half_v < 1:
            raise ValueError("both palindrome halves must be nonempty")
