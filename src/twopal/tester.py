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

Both testers learn which columns match from one kernel, `_column_hits`: it
fingerprints every column on the first PREFIX_SHIFTS shifts only, and builds
full fingerprints for the columns whose prefix some row shares. Every
fingerprint comes from a numpy gather, `_fingerprints`. A run's shifts are
one read-only int64 array, OffsetSample.shifts, from the draw to every
gather (negated for the rows, sliced for the prefixes). The kernel's reads
are the simulation's own; they are counted as uncharged reads and never
charged.

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

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

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


@dataclass(frozen=True, eq=False)
class OffsetSample:
    """The random shifts p_1..p_m shared by all fingerprints of one run.

    shifts is a read-only int64 array, copied from whatever sequence of
    ints the sample is built from (a tuple, or _randbelow's draws), and every
    gather reads it directly. An array does not compare by value, so samples
    compare by identity.
    """

    shifts: np.ndarray

    def __post_init__(self) -> None:
        shifts = np.array(self.shifts, dtype=np.int64)
        shifts.flags.writeable = False
        object.__setattr__(self, "shifts", shifts)

    @property
    def m(self) -> int:
        return len(self.shifts)


@dataclass(frozen=True)
class IndexGrids:
    """Row grid [0, step), column grid of multiples of step below n."""

    i_set: range
    j_set: range
    step: int


# _randbelow first asks getrandbits for 32 bits per shift, and getrandbits
# takes its bit count as a C int
MAX_SHIFTS = (2**31 - 1) // 32


def offset_count(n: int, epsilon: float) -> int:
    """Fingerprint length m = ceil((2/epsilon) * log2(n)); ValueError when
    m exceeds MAX_SHIFTS, more than one sample can draw."""
    _check_domain(n, epsilon)
    m = (2.0 / epsilon) * math.log2(n)
    if m > MAX_SHIFTS:
        raise ValueError(
            f"epsilon={epsilon} needs m={m:.3g} shifts at n={n}, "
            f"more than the {MAX_SHIFTS} one sample can draw"
        )
    return math.ceil(m)


def sample_offsets(n: int, epsilon: float, rng: random.Random) -> OffsetSample:
    """Draw m shifts uniformly with replacement from [0, n).

    The shifts, and the state rng is left in, are exactly those of m calls
    rng.randrange(n) for n < 2^32 (see generators._randbelow).
    """
    m = offset_count(n, epsilon)
    return OffsetSample(_randbelow(rng, n, m))


def cube_grids(n: int) -> IndexGrids:
    step = icbrt(n)
    return IndexGrids(range(step), range(0, n, step), step)


def sqrt_grids(n: int) -> IndexGrids:
    step = ceil_sqrt(n)
    return IndexGrids(range(step), range(0, n, step), step)


def _fingerprints(
    x: Word, starts: Sequence[int] | np.ndarray, shifts: Sequence[int] | np.ndarray
) -> list[bytes]:
    """Row k is (x[(starts[k] + p) mod n] for each p in shifts). Charges no
    ledger; callers charge the reads they stand for."""
    if isinstance(starts, range):
        # np.asarray walks a range item by item; np.arange does not
        starts = np.arange(starts.start, starts.stop, starts.step, dtype=np.int64)
    idx = np.add.outer(np.asarray(starts, dtype=np.int64), shifts)
    block = np.take(np.frombuffer(x.symbols, np.uint8), idx, mode="wrap")
    # one void item per row, which tolist() returns as bytes
    return block.view(np.dtype((np.void, block.shape[1]))).ravel().tolist()


@dataclass(frozen=True)
class Verdict:
    accept: bool
    ledger: QueryLedger
    found_pair: Optional[tuple[int, int]] = None
    rounds: list[RoundTrace] = field(default_factory=list)


def _check_domain(n: int, epsilon: float) -> None:
    check_even_length(n)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")


def _build_left_table(
    x: Word, grids: IndexGrids, sample: OffsetSample, ledger: QueryLedger
) -> dict[bytes, int]:
    """Map each row's left fingerprint to the first row that has it."""
    ledger.read_classical(len(grids.i_set) * sample.m)
    rows: dict[bytes, int] = {}
    left = _fingerprints(x, grids.i_set, -sample.shifts)
    for i, s in zip(grids.i_set, left):
        rows.setdefault(s, i)
    return rows


# columns are screened on this many shifts before any full fingerprint
PREFIX_SHIFTS = 48


def _column_hits(
    x: Word,
    j_set: range,
    sample: OffsetSample,
    rows: dict[bytes, int],
    ledger: QueryLedger,
) -> dict[int, int]:
    """Map each column k whose right fingerprint is a row key to the first
    row that has it, in ascending k.

    Every column's fingerprint on the first PREFIX_SHIFTS shifts is looked up
    among the rows' prefixes first; only the columns that pass get a full
    fingerprint. The symbols read here find the search's solutions and go
    to ledger.uncharged_reads, never to a charged count.
    """
    width = min(PREFIX_SHIFTS, sample.m)
    prefixes = {key[:width] for key in rows}
    heads = _fingerprints(x, j_set, sample.shifts[:width])
    candidates = [k for k, head in enumerate(heads) if head in prefixes]
    ledger.read_uncharged(len(j_set) * width)
    if width < sample.m:
        ledger.read_uncharged(len(candidates) * sample.m)
        columns = _fingerprints(x, [j_set[k] for k in candidates], sample.shifts)
    else:
        columns = [heads[k] for k in candidates]
    return {k: rows[s] for k, s in zip(candidates, columns) if s in rows}


def _shift_sample(
    x: Word, epsilon: float, rng: random.Random, sample: Optional[OffsetSample]
) -> OffsetSample:
    """The caller's sample, checked to hold offset_count(n, epsilon) shifts,
    or a fresh draw from rng."""
    _check_domain(x.n, epsilon)
    if sample is None:
        return sample_offsets(x.n, epsilon, rng)
    m = offset_count(x.n, epsilon)
    if sample.m != m:
        raise ValueError(
            f"sample holds {sample.m} shifts, but n={x.n}, epsilon={epsilon} "
            f"needs {m}"
        )
    return sample


def quantum_test(
    x: Word,
    epsilon: float,
    rng: random.Random,
    sample: Optional[OffsetSample] = None,
) -> Verdict:
    """Sublinear tester: cube-root grids, a table of row fingerprints,
    simulated Grover search over the column grid.

    Accepts members with the search's success probability (error <= 0.1);
    rejects far words unless some grid pair collides on all m shifts. Total
    charged queries are O((1/epsilon) * n^(1/3) * log n): step * m classical
    reads to fill the row table, then m per charged search evaluation.

    sample, when given, stands for the draw sample_offsets(x.n, epsilon, rng)
    already made from rng, so the run is the one it would be without it; it
    must hold offset_count(x.n, epsilon) shifts (ValueError otherwise).
    """
    sample = _shift_sample(x, epsilon, rng, sample)
    ledger = QueryLedger()
    grids = cube_grids(x.n)
    rows = _build_left_table(x, grids, sample, ledger)
    hits = _column_hits(x, grids.j_set, sample, rows, ledger)
    outcome = search_solutions(
        len(grids.j_set), list(hits), rng, cost_per_call=sample.m, ledger=ledger
    )
    found_pair = None
    if outcome.found is not None:
        found_pair = (hits[outcome.found], grids.j_set[outcome.found])
    return Verdict(outcome.found is not None, ledger, found_pair, outcome.rounds)


def classical_test(
    x: Word,
    epsilon: float,
    rng: random.Random,
    sample: Optional[OffsetSample] = None,
) -> Verdict:
    """Baseline tester with sqrt-sized grids and a column scan that stops at
    the first hit.

    The scan has no search error, so members are always accepted; charged
    queries are about 2 * sqrt(n) * m, all classical. A hit at column k is
    charged (k + 1) * m reads, what the scan read to reach it. sample is as
    for quantum_test: a draw already made from rng, of the checked length.
    """
    sample = _shift_sample(x, epsilon, rng, sample)
    ledger = QueryLedger()
    grids = sqrt_grids(x.n)
    rows = _build_left_table(x, grids, sample, ledger)
    hits = _column_hits(x, grids.j_set, sample, rows, ledger)
    if hits:
        k = min(hits)
        ledger.read_classical((k + 1) * sample.m)
        return Verdict(True, ledger, (hits[k], grids.j_set[k]))
    ledger.read_classical(len(grids.j_set) * sample.m)
    return Verdict(False, ledger, None)
