"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's own algorithms: set
membership by brute-force decomposition, norms by naive fixed-point
iteration over explicitly enumerated admissible partitions.
"""

import itertools
from fractions import Fraction

from hypothesis import settings

settings.register_profile("ci", deadline=None, derandomize=True,
                          max_examples=60)
settings.load_profile("ci")


def brute_s1(F):
    return len(F) == 0 or len(F) <= F[0]


def brute_s2(F):
    """S_2 membership by exhaustive decomposition into successive
    nonempty S_1 blocks, at most min F of them."""
    F = tuple(sorted(F))
    if not F:
        return True

    def split(rest, blocks_left):
        if not rest:
            return True
        if blocks_left == 0:
            return False
        for cut in range(1, len(rest) + 1):
            head, tail = rest[:cut], rest[cut:]
            if brute_s1(head) and split(tail, blocks_left - 1):
                return True
        return False

    return split(F, F[0])


def successive_partitions(elems):
    """All ways to drop some elements and split the kept ones (in order)
    into successive nonempty pieces: (pieces, minima) pairs."""
    elems = tuple(sorted(elems))
    n = len(elems)
    for keep in itertools.product((0, 1), repeat=n):
        kept = [e for e, k in zip(elems, keep) if k]
        if not kept:
            continue
        for cuts in itertools.product((0, 1), repeat=len(kept) - 1):
            pieces = [[kept[0]]]
            for e, c in zip(kept[1:], cuts):
                if c:
                    pieces.append([e])
                else:
                    pieces[-1].append(e)
            yield [tuple(p) for p in pieces]


def interval_partitions(lo, hi):
    """All gap-free partitions of the positions lo..hi into successive
    intervals, as lists of (first, last) pairs."""
    inner = range(lo + 1, hi + 1)
    for cuts in itertools.product((0, 1), repeat=len(inner)):
        starts = [lo] + [m for m, c in zip(inner, cuts) if c]
        yield list(zip(starts, [m - 1 for m in starts[1:]] + [hi]))


def tsirelson_table_01(universe, levels=((brute_s1, Fraction(1, 2)),)):
    """Least-fixed-point table S -> ||indicator(S)|| over all nonempty
    subsets of {1..universe} in the mixed Tsirelson space with the given
    (membership, theta) levels; one level (brute_s1, 1/2) is T(S_1, 1/2).
    Independent of the DP."""
    subsets = [tuple(c) for r in range(1, universe + 1)
               for c in itertools.combinations(range(1, universe + 1), r)]
    val = {S: Fraction(1) for S in subsets}
    # precompute (theta, admissible partitions) per level and subset
    parts = {}
    for S in subsets:
        ps = [(theta, []) for _, theta in levels]
        for pieces in successive_partitions(S):
            if len(pieces) < 2:
                continue
            minima = tuple(p[0] for p in pieces)
            for (member, _), (_, admissible) in zip(levels, ps):
                if member(minima):
                    admissible.append(pieces)
        parts[S] = ps
    for _ in range(64):
        changed = False
        for S in subsets:
            best = val[S]
            for theta, admissible in parts[S]:
                for pieces in admissible:
                    v = theta * sum(val[tuple(p)] for p in pieces)
                    if v > best:
                        best = v
            if best != val[S]:
                val[S] = best
                changed = True
        if not changed:
            return val
    raise AssertionError("fixed point iteration did not converge")
