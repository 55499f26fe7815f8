"""Meet-in-the-middle property tester for the two-palindrome language.

Every member x = u + reverse(u) + v + reverse(v) has its symbols mirrored
about an axis determined by s = 2|u| - 1: positions i and j agree whenever
i + j = s (mod n), and shifting both indices in opposite directions preserves
the identity. Writing s = alpha*step + beta with step = floor(n^(1/3)) splits
the unknown axis across two small grids: beta lands in [0, step) and
alpha*step among the multiples of step below n. The tester samples m random
shifts, maps the left-shifted fingerprint of every grid row to the first row
that has it, and searches the column grid for a matching right-shifted
fingerprint - by simulated Grover search in the sublinear tester, by linear
scan in the classical baseline (which uses sqrt-sized grids instead).

Both testers run one collision kernel, `_grid_hits`, once, handing it
their step function (icbrt or ceil_sqrt): it draws or checks the shifts,
charges the rows' step * m reads, fingerprints every column on the first
PREFIX_SHIFTS shifts only, and builds full fingerprints for the columns
whose prefix some row shares. Every fingerprint, `_fingerprints`, is a
read of one view, `_rotations`: over the doubled word x + x, its row s is x
rotated left by s, so x[(s + p) mod n] sits at row s, column p mod n, and
no read takes a modulo or builds an index per symbol. A run's shifts are
one int64 array from the draw to the kernel, reduced mod n once there:
-shifts % n for the rows, shifts % n for the columns (sliced for the
prefixes). The rows are the view's first step rows and the columns every
step-th row, each read as one block; the few prefix candidates are read one
rotation at a time. The column reads are the simulation's own; they are
counted as uncharged reads and never charged. Every charge of both testers
is booked in this module: the Grover simulator only counts its
evaluations, and quantum_test prices each at m.

For a member some grid pair matches on every shift, for any shift sample.
For a word epsilon-far from the language, a fixed pair whose axis i + j is
odd and not n - 1 matches all m random shifts with probability at most
(1 - epsilon)^m <= n^-2, so with m = ceil((2/epsilon) * log2(n)) shifts no
such pair survives with probability near 1. The bound says nothing about
pairs on an even axis or on axis n - 1, which certify no split: a word
symmetric about such an axis matches on every shift however far it is, so
(01)^(n/2) is accepted at every n (README "Known soundness gap"). Both
testers still search those pairs; filtering them out is ROADMAP item 1.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .generators import _randbelow
from .grover import RoundTrace, search_solutions
from .ledger import QueryLedger
from .words import Word, check_even_length


def icbrt(n: int) -> int:
    """floor(n^(1/3)) in exact integer arithmetic (floats only seed the
    guess, so perfect cubes never come out off by one)."""
    if n < 0:
        raise ValueError("cube root of negative size")
    c = round(n ** (1 / 3))
    while c > 0 and c * c * c > n:
        c -= 1
    while (c + 1) ** 3 <= n:
        c += 1
    return c


def ceil_sqrt(n: int) -> int:
    """ceil(sqrt(n)) in exact integer arithmetic."""
    if n < 0:
        raise ValueError("square root of negative size")
    r = math.isqrt(n)
    return r if r * r == n else r + 1


# _randbelow first asks getrandbits for 32 bits per shift, and getrandbits
# takes its bit count as a C int
MAX_SHIFTS = (2**31 - 1) // 32


def offset_count(n: int, epsilon: float) -> int:
    """Fingerprint length m = ceil((2/epsilon) * log2(n)); ValueError when
    m exceeds MAX_SHIFTS, more than one sample can draw, or when n is no
    member length or epsilon lies outside (0, 1)."""
    check_even_length(n)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    m = (2.0 / epsilon) * math.log2(n)
    if m > MAX_SHIFTS:
        raise ValueError(
            f"epsilon={epsilon} needs m={m:.3g} shifts at n={n}, "
            f"more than the {MAX_SHIFTS} one sample can draw"
        )
    return math.ceil(m)


def sample_offsets(n: int, epsilon: float, rng: random.Random) -> np.ndarray:
    """Draw m shifts uniformly with replacement from [0, n), as a read-only
    int64 array.

    The shifts, and the state rng is left in, are exactly those of m calls
    rng.randrange(n) for n < 2^32 (see generators._randbelow).
    """
    m = offset_count(n, epsilon)
    shifts = _randbelow(rng, n, m).astype(np.int64)
    shifts.flags.writeable = False
    return shifts


def _rotations(x: Word) -> np.ndarray:
    """The read-only (n, n) uint8 view whose row s is x rotated left by s:
    row s, column t holds x[(s + t) mod n]. Its rows overlap in one doubled
    copy of x, so it costs 2n bytes, not n^2."""
    return np.ndarray((x.n, x.n), np.uint8, x.symbols * 2, 0, (1, 1))


# a run reads keys of two widths, m and the prefix; the bound only keeps a
# long process that sweeps many (n, epsilon) cells from growing the cache
@functools.lru_cache(maxsize=64)
def _row_dtype(width: int) -> np.dtype:
    """One void item of width bytes, which tolist() returns as bytes."""
    return np.dtype((np.void, width))


def _fingerprints(
    rotations: np.ndarray, starts: slice | list[int], shifts: np.ndarray
) -> list[bytes]:
    """Row k is (x[(s + p) mod n] for each p in shifts), s the k-th start:
    rotation s of x read at the shifts, where rotations = _rotations(x) and
    every start and shift lies in [0, n). A slice of starts is read as one
    block. A list is read one rotation at a time: a few scattered starts
    stay cheap, and many need no index array. Charges no ledger; callers
    charge the reads they stand for."""
    if not isinstance(starts, slice):
        return [rotations[s][shifts].tobytes() for s in starts]
    # a read along axis 1 alone comes out column-major: copy it row-major,
    # so each row is one void item
    block = np.ascontiguousarray(rotations[starts][:, shifts])
    return block.view(_row_dtype(block.shape[1])).ravel().tolist()


@dataclass(frozen=True)
class Verdict:
    accept: bool
    ledger: QueryLedger
    found_pair: Optional[tuple[int, int]] = None
    rounds: list[RoundTrace] = field(default_factory=list)


# columns are screened on this many shifts before any full fingerprint
PREFIX_SHIFTS = 48


def _grid_hits(
    x: Word,
    epsilon: float,
    rng: random.Random,
    shifts: Optional[Sequence[int] | np.ndarray],
    step_of: Callable[[int], int],
) -> tuple[np.ndarray, int, QueryLedger, dict[int, int]]:
    """The collision kernel both testers run once: the shifts, the grid
    step, a ledger holding the rows' charge, and the hit columns.

    The shifts are the caller's, as an int64 array checked to hold
    offset_count(n, epsilon) of them, or a fresh draw from rng. The step is
    step_of(n); row i runs over [0, step) and column k is k * step, below
    n. The ledger is charged step * m classical reads for the row
    fingerprints. The hits map each column k whose right fingerprint some
    row's left fingerprint equals to the first such row, in ascending k.
    Every column's fingerprint on the first PREFIX_SHIFTS shifts is looked
    up among the rows' prefixes first; only the columns that pass get a
    full fingerprint, and when none passes nothing more is read and no row
    table is built: the table mapping each row fingerprint to its first row
    is built only after some column passes. Those column reads find the
    search's solutions and go to ledger.uncharged_reads, never to a
    charged count.
    """
    m = offset_count(x.n, epsilon)
    if shifts is None:
        shifts = sample_offsets(x.n, epsilon, rng)
    shifts = np.asarray(shifts, np.int64)
    if len(shifts) != m:
        raise ValueError(
            f"got {len(shifts)} shifts, but n={x.n}, epsilon={epsilon} needs {m}"
        )
    step = step_of(x.n)
    ledger = QueryLedger()
    ledger.read_classical(step * m)
    rotations = _rotations(x)
    left = _fingerprints(rotations, slice(step), -shifts % x.n)

    ahead = shifts % x.n
    column_count = len(range(0, x.n, step))
    width = min(PREFIX_SHIFTS, m)
    prefixes = {key[:width] for key in left}
    heads = _fingerprints(rotations, slice(None, None, step), ahead[:width])
    ledger.read_uncharged(column_count * width)
    if prefixes.isdisjoint(heads):
        return shifts, step, ledger, {}
    candidates = [k for k, head in enumerate(heads) if head in prefixes]
    # built backwards, so the first row with a fingerprint is the last write
    rows = dict(zip(reversed(left), reversed(range(step))))
    if width < m:
        ledger.read_uncharged(len(candidates) * m)
        starts = [k * step for k in candidates]
        full = _fingerprints(rotations, starts, ahead)
    else:
        full = [heads[k] for k in candidates]
    hits = {k: rows[s] for k, s in zip(candidates, full) if s in rows}
    return shifts, step, ledger, hits


def quantum_test(
    x: Word,
    epsilon: float,
    rng: random.Random,
    shifts: Optional[Sequence[int] | np.ndarray] = None,
) -> Verdict:
    """Sublinear tester: cube-root step, a table of row fingerprints,
    simulated Grover search over the column grid.

    Accepts members with the search's success probability (error <= 0.1);
    rejects far words unless some grid pair collides on all m shifts. Total
    charged queries are O((1/epsilon) * n^(1/3) * log n): step * m classical
    reads to fill the row table, then m per charged search evaluation.

    shifts, when given, stands for the draw sample_offsets(x.n, epsilon, rng)
    already made from rng, so the run is the one it would be without it; it
    must hold offset_count(x.n, epsilon) ints (ValueError otherwise).
    """
    shifts, step, ledger, hits = _grid_hits(x, epsilon, rng, shifts, icbrt)
    outcome = search_solutions(len(range(0, x.n, step)), list(hits), rng)
    ledger.charge_predicate(outcome.evaluations)
    ledger.charge_quantum(outcome.evaluations * len(shifts))
    found_pair = None
    if outcome.found is not None:
        found_pair = (hits[outcome.found], outcome.found * step)
    return Verdict(outcome.found is not None, ledger, found_pair, outcome.rounds)


def classical_test(
    x: Word,
    epsilon: float,
    rng: random.Random,
    shifts: Optional[Sequence[int] | np.ndarray] = None,
) -> Verdict:
    """Baseline tester with a sqrt-sized step and a column scan that stops
    at the first hit.

    The scan has no search error, so members are always accepted; charged
    queries are about 2 * sqrt(n) * m, all classical. A hit at column k is
    charged (k + 1) * m reads, what the scan read to reach it. shifts are as
    for quantum_test: a draw already made from rng, of the checked length.
    """
    shifts, step, ledger, hits = _grid_hits(x, epsilon, rng, shifts, ceil_sqrt)
    if hits:
        k = min(hits)
        ledger.read_classical((k + 1) * len(shifts))
        return Verdict(True, ledger, (hits[k], k * step))
    ledger.read_classical(len(range(0, x.n, step)) * len(shifts))
    return Verdict(False, ledger, None)
