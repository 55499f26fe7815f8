"""Enumeration and reference helpers shared across the suite."""

import itertools

from twopal import Word


def all_words(n, alphabet_size=2):
    for tup in itertools.product(range(alphabet_size), repeat=n):
        yield Word(bytes(tup), alphabet_size)


def member_constructions(n, alphabet_size=2):
    """Every (word, half_u) built directly from the language definition."""
    for a in range(1, n // 2):
        h = n // 2 - a
        for u in itertools.product(range(alphabet_size), repeat=a):
            ub = bytes(u)
            prefix = ub + ub[::-1]
            for v in itertools.product(range(alphabet_size), repeat=h):
                vb = bytes(v)
                yield Word(prefix + vb + vb[::-1], alphabet_size), a


def member_words(n, alphabet_size=2):
    """Distinct member words of length n."""
    seen = set()
    for word, _ in member_constructions(n, alphabet_size):
        if word.symbols not in seen:
            seen.add(word.symbols)
            yield word


def left(x, i, sample):
    """Row i's fingerprint (x[(i - p) mod n] for each shift p), read one
    symbol at a time: the reference for the tester's gathered rows."""
    s, n = x.symbols, x.n
    return bytes([s[(i - p) % n] for p in sample.shifts.tolist()])


def right(x, j, sample):
    """Column j's fingerprint (x[(j + p) mod n] for each shift p), read one
    symbol at a time: the reference for the tester's gathered columns."""
    s, n = x.symbols, x.n
    return bytes([s[(j + p) % n] for p in sample.shifts.tolist()])


def mirrored_pairs_agree(x, d):
    """True iff x[i] == x[(2|u| - 1 - i) mod n] for every index i, checked
    one index at a time: the reference for check_symmetric_characterization."""
    s, n = x.symbols, x.n
    target = (2 * d.half_u - 1) % n
    return all(s[i] == s[(target - i) % n] for i in range(n))
