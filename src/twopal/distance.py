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
above sqrt(h) (1024 x 1024 at n = 2^21). Each half is read as an N2 x N1
grid whose cell [j2, j1] holds position N2 * j1 + j2, so that both real
passes run along contiguous rows: a length-N1 rfft along each row, one
multiply by the twiddles W_h^(j2 * k1) and a complex length-N2 fft down
each column, every transform short enough to stay in cache. The spectrum is
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

A forward transform writes its half's indicator one row block at a time,
about ROW_BLOCK reals (64 grid rows, 512 KB at n = 2^21; the single row of
an (h, 1) grid), into a block of its own, and rffts that block straight
into its rows of the half's spectrum while the block is still in cache. So
no transform's output overlaps its input, and numpy, which copies a
transform's whole input when they overlap, copies no half. The two halves'
transforms write disjoint memory, so at half-lengths of THREAD_MIN (2^18)
and up, on a host with more than one CPU, the even half runs on the
calling thread while a helper thread runs the odd one: numpy's FFTs and
ufuncs release the interpreter lock, and at n = 2^21 a binary call takes
0.66-0.70 of its one-thread time (31-32 against 45-48 ms, medians of 60
interleaved calls on a 2-core host). The inverse is split the
same way, its column ifft and conjugate twiddles by column range, then its
row irfft by row range. Each helper is a new thread, started for one step
and joined before the step ends, so a call leaves no thread behind and a
process forked after it inherits none. Below THREAD_MIN the threads' start
and join (about 0.1 ms each, three per binary call) and their contention
cost about what they save: against one thread, two took 0.96-1.24 times as
long at n = 2^17, 0.85-1.10 at 2^18 and 0.72-0.86 at 2^19 (medians of
150-200 interleaved calls, four runs on a 2-core host). Everything below
it runs on the calling thread.

The transforms run in a per-thread workspace of three float64 buffers, two
for the halves' spectra and one for their row blocks, which stay at the
largest size the thread has served (about 18 MB once it has served
n = 2^21, 1 MB of it row blocks): each half-length runs in views of their
first elements, so moving between sizes allocates nothing. A helper thread
works in its caller's views and keeps nothing. The twiddle tables are
computed once per blocked shape and shared by all threads. Each spectrum
buffer holds one half's spectrum, through a complex view. The product is
formed in place in the even buffer. Blocked, the inverse's column ifft and
conjugate twiddles run in place there too (a strided transform along axis
0 works through small batches of columns, so no whole copy is made); for
either shape the final irfft writes the result into the odd buffer's
reals. A binary word therefore allocates nothing of size n/2 per call (a
repeat call at n = 2^21 traces a peak of about 1 MB). A word with three or
more present symbols also allocates three spectrum-size accumulators. The
tests compare every result with a quadratic split scan, kept in
tests/helpers.py.
"""

from __future__ import annotations

import functools
import math
import os
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
    (N1, N2), views of the three workspace buffers (each of the first two
    buffers' first 2 * N2 * (N1 // 2 + 1) reals as one half's spectrum of
    N2 x (N1 // 2 + 1) complex values, the odd buffer's first h reals again
    as the N2 x N1 result grid, and the third buffer as one row block per
    half, _block_rows(N1, N2) x N1 reals) and the twiddle tables, none for
    the (h, 1) shape, whose grid and spectrum are single rows."""

    h: int
    shape: tuple[int, int]
    real: np.ndarray
    spectra: tuple[np.ndarray, np.ndarray]
    blocks: tuple[np.ndarray, np.ndarray]
    twiddles: tuple[np.ndarray, ...]


# a forward transform writes its half's indicator into its own row block of
# about this many reals (512 KB; 64 grid rows at n = 2^21), which stays in
# cache until its rfft has read it
ROW_BLOCK = 2**16


def _block_rows(n1: int, n2: int) -> int:
    """Grid rows per row block: as many as fit in ROW_BLOCK reals, at least
    one and at most the grid's N2."""
    return max(1, min(n2, ROW_BLOCK // n1))


_workspace = threading.local()


def _plan(h: int) -> _Plan:
    """This thread's plan for half-length h, kept until another h is served.

    The plan's views are cut from the thread's three workspace buffers,
    which only ever grow: each stays at the largest size served so far, so
    moving between sizes allocates nothing once the largest has been seen
    (a thread that has served n = 2^21 keeps about 18 MB)."""
    plan = getattr(_workspace, "plan", None)
    if plan is not None and plan.h == h:
        return plan
    n1, n2 = _block_shape(h)
    cols = n1 // 2 + 1
    rows = _block_rows(n1, n2)
    size = 2 * n2 * cols
    kept = getattr(_workspace, "buffers", (np.empty(0),) * 3)
    buffers = _workspace.buffers = tuple(
        buf if buf.size >= need else np.empty(need)
        for buf, need in zip(kept, (size, size, 2 * rows * n1))
    )
    real = buffers[1][:h].reshape(n2, n1)
    spectra = tuple(
        buf[:size].view(np.complex128).reshape(n2, cols) for buf in buffers[:2]
    )
    blocks = tuple(buffers[2][: 2 * rows * n1].reshape(2, rows, n1))
    twiddles = _twiddles(n1, n2) if n2 > 1 else ()
    plan = _workspace.plan = _Plan(h, (n1, n2), real, spectra, blocks, twiddles)
    return plan


# half-lengths at or above this run on two threads when the host has more
# than one CPU (_run); below it the helper threads cost about what they
# save (see the module docstring)
THREAD_MIN = 2**18

_CPUS = os.cpu_count() or 1


def _run(func, calls, threaded: bool) -> list:
    """[func(*args) for args in calls]: in turn, or, when threaded and there
    are two calls, the second on a helper thread while this thread makes the
    first. The helper is joined before this returns or raises, so no thread
    outlives the call, and an exception it met is raised here."""
    if not threaded or len(calls) < 2:
        return [func(*args) for args in calls]
    first, second = calls
    outcome = {}

    def helper():
        try:
            outcome["result"] = func(*second)
        except BaseException as exc:  # raised again on the calling thread
            outcome["error"] = exc

    thread = threading.Thread(target=helper)
    thread.start()
    try:
        result = func(*first)
    finally:
        thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return [result, outcome["result"]]


def _halves(length: int, threaded: bool) -> tuple[slice, ...]:
    """range(length) as one slice, or, when threaded and length is at least
    2, as its two halves."""
    if not threaded or length < 2:
        return (slice(None),)
    return slice(0, length // 2), slice(length // 2, None)


def _twiddle(
    spec: np.ndarray,
    twiddles: tuple[np.ndarray, ...],
    inverse: bool = False,
    cols: slice = slice(None),
) -> None:
    """Multiply spec[j2, k1] by W_h^(j2 * k1), or by its conjugate, in place,
    for the columns k1 in cols. The conjugates are taken per call (15 us at
    n = 2^21) rather than kept: kept, they would double the tables' memory."""
    part = spec[:, cols]
    view = part.reshape(-1, twiddles[0].shape[1], part.shape[1])
    for table in twiddles:
        view *= table[..., cols].conj() if inverse else table[..., cols]


def _spectrum(
    half: np.ndarray,
    sym: int,
    spec: np.ndarray,
    block: np.ndarray,
    twiddles: tuple[np.ndarray, ...],
    total: np.ndarray | None,
) -> int:
    """Write the forward transform of the grid half == sym into spec, add it
    into total unless that is None, and return the grid's count of sym.

    The indicator is written block.shape[0] grid rows at a time into block,
    and a length-N1 rfft along each of those rows goes straight into the
    same rows of spec; blocked, the twiddles and a length-N2 fft down each
    column follow. Position [k2, k1] of the result holds frequency
    k1 + N1 * k2; index 0, position [0, 0], is the grid's sum, the count,
    rounded because a Bluestein length sums inexactly. Only spec, block and
    total are written, so both halves can run at once."""
    step = block.shape[0]
    for start in range(0, half.shape[0], step):
        rows = half[start : start + step]
        ind = block[: rows.shape[0]]
        np.equal(rows, sym, out=ind)
        np.fft.rfft(ind, axis=1, out=spec[start : start + step])
    if twiddles:
        _twiddle(spec, twiddles)
        np.fft.fft(spec, axis=0, out=spec)
    if total is not None:
        total += spec
    return round(spec.item(0).real)


def _inverse_columns(
    power: np.ndarray, twiddles: tuple[np.ndarray, ...], cols: slice
) -> None:
    """The blocked inverse's first steps on the columns cols of power, in
    place: a length-N2 ifft down each column, then the conjugate twiddles."""
    part = power[:, cols]
    np.fft.ifft(part, axis=0, out=part)
    _twiddle(power, twiddles, inverse=True, cols=cols)


def _inverse_rows(power: np.ndarray, plan: _Plan, rows: slice) -> None:
    """The inverse's last step on the rows rows of power: a length-N1 irfft
    along each, written into the same rows of the odd buffer's grid."""
    np.fft.irfft(power[rows], plan.shape[0], axis=1, out=plan.real[rows])


def _inverse(power: np.ndarray, plan: _Plan, threaded: bool) -> np.ndarray:
    """The real length-h sequence whose spectrum, in _spectrum's order, is
    power, as an N2 x N1 grid whose cell [j2, j1] holds index N2 * j1 + j2,
    written into the odd buffer's reals. Blocked, the column ifft and the
    conjugate twiddles run in place in power, which is overwritten, and
    only the row irfft writes elsewhere. When threaded, each step's columns
    or rows are split in two halves between two threads."""
    if plan.twiddles:
        cols = _halves(power.shape[1], threaded)
        _run(_inverse_columns, [(power, plan.twiddles, c) for c in cols], threaded)
    rows = _halves(power.shape[0], threaded)
    _run(_inverse_rows, [(power, plan, r) for r in rows], threaded)
    return plan.real


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
    threaded = h >= THREAD_MIN and _CPUS > 1
    # each half as the N2 x N1 grid whose cell [j2, j1] is its position
    # N2 * j1 + j2, that is, symbol 2 * (N2 * j1 + j2) + parity
    halves = arr.reshape(*plan.shape, 2).T
    spec_even, spec_odd = plan.spectra

    def forward(sym: int, totals=(None, None)) -> list[int]:
        # both halves' transforms, on two threads when threaded
        calls = [
            (half, sym, spec, block, plan.twiddles, total)
            for half, spec, block, total in zip(
                halves, plan.spectra, plan.blocks, totals
            )
        ]
        return _run(_spectrum, calls, threaded)

    # split a pairs even index 2*alpha with odd index 2*beta + 1 exactly when
    # alpha + beta = a - 1 (mod h): a length-h cyclic convolution per symbol.
    # Each half's indicators sum to all ones, whose spectrum is 0 away from
    # index 0, so the last present symbol hi is not transformed: its spectra
    # are minus the sum of the others' there. Index 0 of the product is the
    # number of equal pairs in any split, from the counts. Spectra stay in
    # the blocked transform's permuted order, which a pointwise product
    # does not see, and index 0 is still position [0, 0].
    if hi - lo == 1:
        count_even, count_odd = forward(lo)
        power = spec_even
        power *= spec_odd
        power *= 2
        pairs = count_even * count_odd + (h - count_even) * (h - count_odd)
    else:
        power = np.zeros_like(spec_even)
        sum_even, sum_odd = sums = np.zeros_like(power), np.zeros_like(power)
        pairs = total_even = total_odd = 0
        for sym in range(lo, hi):
            if sym not in x.symbols:  # a byte search, no indicator
                continue
            count_even, count_odd = forward(sym, sums)
            spec_even *= spec_odd
            power += spec_even
            pairs += count_even * count_odd
            total_even += count_even
            total_odd += count_odd
        sum_even *= sum_odd
        power += sum_even
        pairs += (h - total_even) * (h - total_odd)
    power.flat[0] = pairs
    # each split has h mirror pairs; residue a - 1 counts its equal ones
    grid = _inverse(power, plan, threaded)
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
