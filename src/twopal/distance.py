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

Half-lengths above BLOCK_CUTOVER run each transform blocked, as a four-step
FFT (Bailey, "FFTs in external or hierarchical memory", 1990) on the
h = N1 x N2 factoring of the sequence, N1 being h's largest divisor not
above sqrt(h) (1024 x 1024 at n = 2^21). Each half's indicator is written,
INDICATOR_TILE columns at a time, as an N2 x N1 grid whose cell [j2, j1]
holds position N2 * j1 + j2, so that both real passes run along contiguous
rows: a length-N1 rfft along each row, one multiply by the twiddles
W_h^(j2 * k1) and a complex length-N2 fft down each column, every transform
short enough to stay in cache. The spectrum is
left in the permuted order, position [k2, k1] holding frequency
k1 + N1 * k2, because the convolution only multiplies spectra pointwise;
the inverse runs the same steps backwards (ifft down each column, the
conjugate twiddles, an irfft along each row), which lands the result in the
same N2 x N1 grid, cell [j2, j1] holding residue N2 * j1 + j2. The best
split is read from that grid in place: its last cell, residue h - 1, is no
split and is set to -1; residues ascend down each column and then across
columns, so the first column holding the maximum, then its first row
holding it, is the smallest |u|. Columns k1 <= N1 / 2 hold every
frequency, column N1 - k1 being column k1 conjugated and reversed. Index 0
is position [0, 0]. The twiddles are kept factored: with j2 = c + C * d,
one table over (c, k1) and one over (d, k1), each about sqrt(N2) rows high
(0.5 MB at n = 2^21, against 8 MB for the full table; a prime N2 leaves
C = 1 and the second table full). At or below the cutover, or when h has no divisor
between 2 and sqrt(h), the shape is (h, 1): the grid is a single row, run
through one plain rfft and one irfft, with no twiddles.

The transforms run in a per-thread workspace of two float64 buffers, which
stay at the largest size the thread has served (about 17 MB once it has
served n = 2^21): each half-length runs in views of their first elements,
so moving between sizes allocates nothing. The twiddle tables are computed
once per blocked shape and shared by all threads. Each buffer holds one
half's spectrum, through a complex view. numpy copies a transform's whole
input whenever its output overlaps it, so the even half's indicator is
written into the odd buffer and transformed into the even one; the odd
half's indicator then goes into the odd buffer and is transformed in place.
The product is formed in place in the even buffer. Blocked, the inverse's
column ifft and conjugate twiddles run in place there too (a strided
transform along axis 0 works through small batches of columns, so no
whole copy is made); for either shape the final irfft writes the result
into the odd buffer. A binary word therefore allocates nothing of size n/2
per call beyond the one copy numpy makes of the odd half's input. The
tests compare every result with a quadratic split scan, kept in
tests/helpers.py.
"""

from __future__ import annotations

import functools
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
    """ceil(epsilon * n), tolerating float rounding at integer products;
    ValueError when epsilon lies outside (0, 1), NaN included."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return math.ceil(epsilon * n - 1e-9)


# half-lengths above this run as blocked four-step transforms (_block_shape)
BLOCK_CUTOVER = 2**14


def _root_divisor(m: int) -> int:
    """The largest divisor of m not above sqrt(m); 1 when m is 1 or prime."""
    for d in range(math.isqrt(m), 1, -1):
        if m % d == 0:
            return d
    return 1


def _block_shape(h: int) -> tuple[int, int]:
    """(N1, N2) with N1 * N2 = h: N1 is h's largest divisor not above
    sqrt(h) when h exceeds BLOCK_CUTOVER and has one, else the shape is
    (h, 1), a single transform."""
    n1 = _root_divisor(h) if h > BLOCK_CUTOVER else 1
    return (n1, h // n1) if n1 > 1 else (h, 1)


# twiddle tables are kept for this many blocked shapes, the most recently
# used; a sweep of n = 2^9..2^21 uses six (n = 2^16..2^21), 1.2 MB in all
TWIDDLE_SHAPES = 16


@functools.lru_cache(maxsize=TWIDDLE_SHAPES)
def _twiddles(n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """W_h^(j2 * k1) for rows j2 < N2 and columns k1 <= N1 / 2, in factored
    form: with j2 = c + C * d, a (1, C, N1 / 2 + 1) table of W_h^(c * k1)
    and a (D, 1, N1 / 2 + 1) table of W_h^(C * d * k1), so that both
    broadcast over a (D, C, N1 / 2 + 1) view of the spectrum. The tables
    are read-only: each shape's pair is computed once and shared by every
    thread."""
    h = n1 * n2
    k1 = np.arange(n1 // 2 + 1)
    c = _root_divisor(n2)
    low = np.arange(c).reshape(1, -1, 1) * k1
    high = (c * np.arange(n2 // c)).reshape(-1, 1, 1) * k1
    tables = np.exp(-2j * np.pi / h * low), np.exp(-2j * np.pi / h * high)
    for table in tables:
        table.flags.writeable = False
    return tables


@dataclass(frozen=True)
class _Plan:
    """This thread's transforms for one half-length h: the blocked shape
    (N1, N2), views of the two workspace buffers (the odd buffer's first h
    reals as an N2 x N1 grid, and each buffer's first
    2 * N2 * (N1 // 2 + 1) reals as one spectrum of N2 x (N1 // 2 + 1)
    complex values) and the twiddle tables, none for the (h, 1) shape,
    whose grid and spectrum are single rows."""

    h: int
    shape: tuple[int, int]
    real: np.ndarray
    spectra: tuple[np.ndarray, np.ndarray]
    twiddles: tuple[np.ndarray, ...]


_workspace = threading.local()


def _plan(h: int) -> _Plan:
    """This thread's plan for half-length h, kept until another h is served.

    The plan's views are cut from the thread's two workspace buffers, which
    only ever grow: they stay at the largest size served so far, so moving
    between sizes allocates nothing once the largest has been seen (a
    thread that has served n = 2^21 keeps about 17 MB)."""
    plan = getattr(_workspace, "plan", None)
    if plan is not None and plan.h == h:
        return plan
    n1, n2 = _block_shape(h)
    cols = n1 // 2 + 1
    size = 2 * n2 * cols
    buffers = getattr(_workspace, "buffers", ())
    if not buffers or buffers[0].size < size:
        buffers = _workspace.buffers = (np.empty(size), np.empty(size))
    real = buffers[1][:h].reshape(n2, n1)
    spectra = tuple(
        buf[:size].view(np.complex128).reshape(n2, cols) for buf in buffers
    )
    twiddles = _twiddles(n1, n2) if n2 > 1 else ()
    plan = _workspace.plan = _Plan(h, (n1, n2), real, spectra, twiddles)
    return plan


# a blocked indicator is written this many grid columns at a time. Along a
# grid row the half is read with a stride of 2 * N2 bytes, so one write over
# the whole grid reloads each cache line of the half once per row it serves;
# a tile this narrow keeps its lines cached until every row has used them
# (at n = 2^21 on a 2-core x86 host, 1.7 ms per indicator against 2.6 ms)
INDICATOR_TILE = 64


def _indicator(half: np.ndarray, sym: int, out: np.ndarray) -> tuple[np.ndarray, int]:
    """Write half == sym as floats into out; return it and its count. A
    single-row grid, the (h, 1) shape, is written in one call."""
    tile = INDICATOR_TILE if out.shape[0] > 1 else out.shape[1]
    for j in range(0, out.shape[1], tile):
        np.equal(half[:, j : j + tile], sym, out=out[:, j : j + tile])
    return out, int(out.sum())


def _twiddle(
    spec: np.ndarray, twiddles: tuple[np.ndarray, ...], inverse: bool = False
) -> None:
    """Multiply spec[j2, k1] by W_h^(j2 * k1), or by its conjugate, in place.
    The conjugates are taken per call (15 us at n = 2^21) rather than kept:
    kept, they would double the tables' memory."""
    view = spec.reshape(-1, twiddles[0].shape[1], spec.shape[1])
    for table in twiddles:
        view *= table.conj() if inverse else table


def _spectrum(ind: np.ndarray, spec: np.ndarray, plan: _Plan) -> np.ndarray:
    """Forward transform of the grid ind, written into spec: a length-N1
    rfft along each row, then, blocked, the twiddles and a length-N2 fft
    down each column. Position [k2, k1] of the result holds frequency
    k1 + N1 * k2."""
    np.fft.rfft(ind, axis=1, out=spec)
    if not plan.twiddles:
        return spec
    _twiddle(spec, plan.twiddles)
    return np.fft.fft(spec, axis=0, out=spec)


def _inverse(power: np.ndarray, plan: _Plan) -> np.ndarray:
    """The real length-h sequence whose spectrum, in _spectrum's order, is
    power, as an N2 x N1 grid whose cell [j2, j1] holds index N2 * j1 + j2,
    written into the odd buffer's reals. Blocked, the column ifft and the
    conjugate twiddles run in place in power, which is overwritten, and
    only the row irfft writes elsewhere."""
    if plan.twiddles:
        np.fft.ifft(power, axis=0, out=power)
        _twiddle(power, plan.twiddles, inverse=True)
    return np.fft.irfft(power, plan.shape[0], axis=1, out=plan.real)


def distance_to_language(x: Word) -> DistanceResult:
    """Minimum Hamming distance from x to any two-palindrome concatenation.

    Exact, by one length-n/2 cyclic convolution, O(n log n) at every size.
    Among the best splits the reported one has the smallest |u|.
    """
    check_even_length(x.n)
    h = x.n // 2
    arr = np.frombuffer(x.symbols, dtype=np.uint8)
    lo, hi = int(arr.min()), int(arr.max())
    if lo == hi:
        # every mirror pair is equal
        return DistanceResult(0, Decomposition(1, h - 1))
    plan = _plan(h)
    # each half as the N2 x N1 grid whose cell [j2, j1] is its position
    # N2 * j1 + j2, that is, symbol 2 * (N2 * j1 + j2) + parity
    even, odd = arr.reshape(*plan.shape, 2).T
    real_odd = plan.real
    spec_even, spec_odd = plan.spectra
    # split a pairs even index 2*alpha with odd index 2*beta + 1 exactly when
    # alpha + beta = a - 1 (mod h): a length-h cyclic convolution per symbol.
    # Each half's indicators sum to all ones, whose spectrum is 0 away from
    # index 0, so the last present symbol hi is not transformed: its spectra
    # are minus the sum of the others' there. Index 0 of the product is the
    # number of equal pairs in any split, from the counts. Spectra stay in
    # the blocked transform's permuted order, which a pointwise product
    # does not see, and index 0 is still position [0, 0]. Each even
    # indicator goes through the odd buffer, so that its transform does not
    # overlap its output and numpy makes no copy of it.
    if hi - lo == 1:
        ind_even, count_even = _indicator(even, lo, real_odd)
        power = _spectrum(ind_even, spec_even, plan)
        ind_odd, count_odd = _indicator(odd, lo, real_odd)
        power *= _spectrum(ind_odd, spec_odd, plan)
        power *= 2
        pairs = count_even * count_odd + (h - count_even) * (h - count_odd)
    else:
        power = np.zeros_like(spec_even)
        sum_even = np.zeros_like(power)
        sum_odd = np.zeros_like(power)
        pairs = total_even = total_odd = 0
        for sym in range(lo, hi):
            if sym not in x.symbols:  # a byte search, no indicator
                continue
            ind_even, count_even = _indicator(even, sym, real_odd)
            _spectrum(ind_even, spec_even, plan)
            ind_odd, count_odd = _indicator(odd, sym, real_odd)
            _spectrum(ind_odd, spec_odd, plan)
            power += spec_even * spec_odd
            sum_even += spec_even
            sum_odd += spec_odd
            pairs += count_even * count_odd
            total_even += count_even
            total_odd += count_odd
        power += sum_even * sum_odd
        pairs += (h - total_even) * (h - total_odd)
    power.flat[0] = pairs
    # each split has h mirror pairs; residue a - 1 counts its equal ones
    grid = _inverse(power, plan)
    np.rint(grid, out=grid)
    # cell [j2, j1] holds residue N2 * j1 + j2, so residues ascend down each
    # column and then across columns; the last cell, residue h - 1, is no
    # split. The first column holding the maximum, then its first row
    # holding it, is the smallest |u| among the best splits.
    grid[-1, -1] = -1
    columns = grid.max(axis=0)
    j1 = int(columns.argmax())
    j2 = int(grid[:, j1].argmax())
    a = grid.shape[0] * j1 + j2 + 1
    return DistanceResult(h - int(columns[j1]), Decomposition(a, h - a))


def is_eps_far(x: Word, epsilon: float) -> bool:
    """True iff x is at distance >= ceil(epsilon * n) from every member;
    ValueError, before any transform, when epsilon lies outside (0, 1)."""
    threshold = far_threshold(epsilon, x.n)
    return distance_to_language(x).distance >= threshold
