"""Exact membership decider for the two-palindrome concatenation language.

`exact_member` reduces the question to substring search: x decomposes as two
nonempty even palindromes iff reverse(x) occurs in the rotation-doubled view
y(x) at an odd offset i with i+1 in [2, n-2], that is, iff reverse(x) equals
x rotated left by i + 1 = 2j + 2 symbols for some 0 <= j <= n/2 - 2. Both
palindromes of a member have even length, so every mirror pair joins an even
and an odd position, and a member holds each symbol as often at even
positions as at odd ones. Binary words are screened on this before any
search: a word that fails it is a non-member. Binary words whose length is a
multiple of 8 and at least PACK_MIN are searched as bits, eight symbols to a
byte. Their screen counts the packed word's even and odd bits as 64-bit
words, plus the fewer than 8 bytes left over. The pattern is reverse(x)
packed, that is x packed little-endian with its bytes reversed, and for each
phase f = j mod 4 the text is x read cyclically from symbol 2 + 2f, packed,
so a match at byte q is j = 4q + f. The four texts are written in turn into
one buffer and searched there without a copy. Four finds over texts of at
most n/4 bytes decide, the smallest j over the phases being the first
witness. Every other word (alphabets above 2, lengths not a multiple of 8,
words shorter than PACK_MIN) is searched as symbol pairs: the text is
y(x)[1:], whose units are the pairs (x[2k], x[2k+1]) rotated by one, and the
pattern is reverse(x), whose units are the same pairs swapped, in reverse
order. Over at most 16 symbols each pair packs into one byte, and one
`bytes.find` over the n - 2 packed bytes decides, since every match is an
odd offset. Over larger alphabets a unit is two raw bytes, and a match may
start mid-pair; the occurrences of a length-n pattern in a text shorter than
2n form one arithmetic progression (Kociumaka, Radoszewski, Rytter and
Walen, SODA 2015), so the first two decide whether an aligned one exists.
`exact_member` charges, in closed form, the reads of a Knuth-Morris-Pratt
walk over y(x) (Knuth, Morris and Pratt, 1977) that reads each visited
symbol once. That walk and a brute-force split scan are the references the
decider is tested against; they live in tests/helpers.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ledger import QueryLedger
from .words import Decomposition, Word


# _SWAP_NIBBLES maps each byte c << 4 | d to d << 4 | c
_SWAP_NIBBLES = bytes((b & 15) << 4 | b >> 4 for b in range(256))
# the bits of a big-endian packed byte that hold even and odd positions,
# repeated over a 64-bit word (the same in either byte order)
_EVEN_BITS = np.uint64(0xAAAA_AAAA_AAAA_AAAA)
_ODD_BITS = np.uint64(0x5555_5555_5555_5555)

# binary words this long or longer (and a multiple of 8) are searched as bits.
# Below it the four phase texts cost more to build than the shorter finds
# save, and a phase text may be shorter than the 2500 bytes from which
# CPython's find is linear-time (shorter texts get a search that is not)
PACK_MIN = 2**15


@dataclass(frozen=True)
class MembershipResult:
    is_member: bool
    witness: Optional[Decomposition] = None

    def __post_init__(self) -> None:
        if self.is_member != (self.witness is not None):
            raise ValueError("witness must be present exactly for members")


def _pair_witness(x: Word) -> int:
    """The smallest j with reverse(x) at the odd offset 2j + 1 of y(x), or
    -1: one `find` over packed symbol pairs, or at most two over two-byte
    pairs.

    A witness offset i = 2j + 1 of reverse(x) in y(x) is a match at pair j
    of the text y(x)[1:], both read as pairs. Over at most 16 symbols the
    pair (c, d) packs into the byte c << 4 | d, so every match is a witness
    and the first is the smallest. Otherwise a pair is two raw bytes and the
    matches at byte offsets b0, b0 + p, b0 + 2p, ... include an aligned one
    iff b0 or p is even, the first such being b0 or b0 + p. Either way the
    text is shorter than twice the pattern, so any aligned match gives
    i <= n - 3, a valid split.

    A binary word is screened first: a member's mirror pairs each join an
    even and an odd position, so it has as many pairs (1, 0) as (0, 1), and
    a word with unequal counts returns -1 before any text is built.
    """
    s = x.symbols
    if x.alphabet_size <= 16:
        # the little-endian pair value d << 8 | c, shifted and folded,
        # leaves d << 4 | c in its low byte: the pattern's unit
        pairs = np.frombuffer(s, dtype="<u2")
        swapped = (pairs >> 4 | pairs).astype(np.uint8).tobytes()
        # parity screen: a binary member has as many pairs (1, 0) as (0, 1)
        if x.alphabet_size == 2 and swapped.count(0x01) != swapped.count(0x10):
            return -1
        units, pattern, width = swapped.translate(_SWAP_NIBBLES), swapped[::-1], 1
    else:
        units, pattern, width = s, s[::-1], 2
    text = units[width:] + units[:-width]
    j = text.find(pattern)
    if j >= 0 and j % width:
        j = text.find(pattern, j + 1)
    if j < 0 or j % width:
        return -1
    return j // width


def _bit_witness(x: Word) -> int:
    """The smallest j with reverse(x) at the odd offset 2j + 1 of y(x), or
    -1, for a binary word whose length is a multiple of 8: four `find`s over
    bit-packed text, one per phase of j mod 4.

    reverse(x) at offset 2j + 1 of y(x) means reverse(x) equals x rotated
    left by 2j + 2 symbols. The pattern packs reverse(x) eight symbols to a
    byte, which is x packed little-endian with its bytes reversed. The text
    of phase f packs x read cyclically from symbol 2 + 2f, each byte shifted
    out of two neighbouring bytes of the packed ring; all four phases are
    written in place into one buffer of 2 * (n/8) bytes and searched there
    without a copy. A match at byte q is j = 4q + f. Each phase stops its
    find where j would pass the smallest witness so far (at first the last
    valid one, n/2 - 2), so the smallest j over the four phases is the first
    witness.

    The packed word is screened first: a member's mirror pairs each join an
    even and an odd position, so it holds as many ones at even positions as
    at odd ones, and a word with unequal counts returns -1 before the
    pattern or the ring is built. The counts are taken over the packed bytes
    read as 64-bit words, plus the fewer than 8 bytes left over.
    """
    n = x.n
    size = n // 8
    symbols = np.frombuffer(x.symbols, dtype=np.uint8)
    packed = np.packbits(symbols)
    # parity screen: packbits is big-endian, so the 0xAA bits hold the
    # symbols at even positions and the 0x55 bits those at odd ones; n/8
    # need not be a multiple of 8, so the bytes past the last whole 64-bit
    # word are counted apart
    cut = size - size % 8
    words, rest = packed[:cut].view(np.uint64), packed[cut:]
    even = np.bitwise_count(words & _EVEN_BITS).sum()
    odd = np.bitwise_count(words & _ODD_BITS).sum()
    even += np.bitwise_count(rest & 0xAA).sum()
    odd += np.bitwise_count(rest & 0x55).sum()
    if even != odd:
        return -1
    pattern = np.packbits(symbols, bitorder="little")[::-1].tobytes()
    ring = np.concatenate((packed, packed))
    text = bytearray(2 * size)
    buffer = np.frombuffer(text, dtype=np.uint8)
    best = n // 2 - 1
    for f in range(4):
        # the matches with 4q + f < best start at q < stop
        stop = (best - f + 3) // 4
        if stop <= 0:
            break
        shift = 2 + 2 * f
        end = stop + size
        phase = buffer[: end - 1]
        if shift == 8:
            phase[:] = ring[1:end]
        else:
            np.left_shift(ring[: end - 1], shift, out=phase)
            phase |= ring[1:end] >> (8 - shift)
        q = text.find(pattern, 0, end - 1)
        if q >= 0:
            best = 4 * q + f
    return best if best < n // 2 - 1 else -1


def exact_member(x: Word, ledger: Optional[QueryLedger] = None) -> MembershipResult:
    """Decide membership with at most four linear-time `find`s.

    Binary words whose length is a multiple of 8 and at least PACK_MIN are
    searched as bits (see _bit_witness): four finds, one per phase of the
    witness pair index mod 4, over texts of at most n/4 bytes written in
    turn into one buffer, against a pattern packed in one call. Every other
    word (alphabets above 2, lengths not a multiple of 8, shorter words) is
    searched as symbol pairs (see _pair_witness): one find over n - 2 packed
    bytes when pairs pack into a byte, at most two over two-byte pairs. Each
    find is linear-time (CPython >= 3.10 falls back to two-way matching).
    Both first screen a binary word on parity: a member's mirror pairs each
    join an even and an odd position, so a word whose ones are not split
    evenly between even and odd positions is a non-member, rejected without
    a search; the bit path counts the packed word's bits as 64-bit words.
    Both return the smallest witness offset i, so the ledger is
    charged what the Knuth-Morris-Pratt walk over y(x) reads (`kmp_member`
    in tests/helpers.py): n for the pattern, plus i + n view
    symbols when it stops at witness i, or all 2n - 2 when there is none,
    screened words included.
    """
    n = x.n
    if n < 4 or n % 2:
        return MembershipResult(False)
    if x.alphabet_size == 2 and n % 8 == 0 and n >= PACK_MIN:
        j = _bit_witness(x)
    else:
        j = _pair_witness(x)
    if j < 0:
        if ledger is not None:
            ledger.read_classical(3 * n - 2)
        return MembershipResult(False)
    i = 2 * j + 1
    if ledger is not None:
        ledger.read_classical(2 * n + i)
    return MembershipResult(True, Decomposition((i + 1) // 2, (n - i - 1) // 2))


def check_symmetric_characterization(x: Word, d: Decomposition) -> bool:
    """True iff symbols agree on every index pair summing to 2|u|-1 mod n.

    For a genuine member with a correct witness this always holds: such pairs
    are exactly the positions mirrored about one of the two palindrome
    centers. With s = 2|u| mod n, index i < s pairs with s - 1 - i and
    index i >= s with n + s - 1 - i, so x[:s] and x[s:] must each equal
    its own reverse; both comparisons read the word in place.
    """
    a = np.frombuffer(x.symbols, dtype=np.uint8)
    s = (2 * d.half_u) % x.n
    left, right = a[:s], a[s:]
    return np.array_equal(left, left[::-1]) and np.array_equal(right, right[::-1])
