"""Regular families of finite subsets of N.

Generalized Schreier families S_a are built by the usual recursion:
S_0 is the singletons (plus the empty set); for a = b+1 a member is a
union of m successive S_b-blocks with m <= its first element; for limit
a membership defers to S_{a_n} for some n <= min F, with a_n taken from
the fundamental-sequence convention fixed in :mod:`schreierlab.ordinal`.
The bracket M[N] holds the unions of successive N-runs F_1 < ... < F_k
with a witness (m_i) in M, max F_{i-1} < m_i <= min F_i; POW(M,1) is M
and POW(M,k) is M[POW(M,k-1)].  M and N must be regular (not explicit).

A family is its expression: each kind, Schreier, Bracket, Power and
Explicit, is a frozen dataclass subclass of :class:`Family` whose
operands are families.  A regular kind computes its cursor key once, when
it is built, and keeps it as `_key`; only this module reads it.  Family
holds the cursor queries, and Explicit answers them from its listed sets.

Membership, enumeration, derivatives, subset-mass maximization and the
admissible-partition DPs of :mod:`schreierlab.spaces` all run one
nondeterministic left-to-right "cursor" automaton over the sorted
elements.  Its S_a states record the remaining block budget at each
level; a bracket state pairs the outer cursor's states after the run
minima with the inner cursor's states in the current run, which the
next element extends whenever it can.  Every step is told how many
elements can still follow (`remaining`) and returns canonical states
for that count: a level whose fresh blocks can take all of them makes
the accept-all state FREE, and a level with no blocks left is replaced
by its inner state.  Both keep what a state accepts from the next
`remaining` elements and keep the state sets of limit ordinals small.
The states are interned as ints; no other module sees their format.
Derivatives ride on membership through probes above the universe.
Members are read from one transition table over the cursor, built
lazily by `_row`: (state ids, next position) maps to the pairs it can
step to, and a row stops at the first position its states cannot
read, since the families are spreading.  It has three readers.
The lexicographic listing, `_walk`, gives the members as point tuples
to enumeration, the block systems of an asymptoticity measurement and
the minima sets of the allowable associated norm.  One memoised fold
over the table's pairs, `_fold`, gives the largest mass of a member,
the member count and the longest member without listing any:
the SCC mass check, the order of a family's tree and the c0
asymptoticity constant read it.  One walk over pairs of cursors,
`_escape`, finds the largest minimum of a member outside a second
family: tail domination and the lower estimate of T and MT read it.
One filter, `_maximal`, keeps the maximal members of a listing: the
minima sets the allowable norm tries and the branches of the tree search.

Descriptors, of families here and of spaces in :mod:`schreierlab.spaces`,
are read by one reader, :func:`read_descriptor`: it splits a text into
its head and the argument texts at its top-level commas, checking that
the brackets nest, and each grammar dispatches on the head and the
argument count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce

from .ordinal import Ordinal, fundamental_sequence, symbolic_omega_pow
from .ordinal import parse as parse_ordinal

__all__ = [
    "FamilyError",
    "ResourceBoundError",
    "Schreier",
    "Bracket",
    "Power",
    "Explicit",
    "Family",
    "schreier",
    "explicit_family",
    "bracket",
    "power",
    "index_symbolic",
    "tail_domination",
    "read_descriptor",
    "parse_family",
    "hereditary_closure",
    "RegularityReport",
]

ENUMERATION_BOUND = 24
MEMBER_BOUND = 2 ** 20  # members one enumeration may list; about 175 MiB at the bound
DERIVATIVE_BOUND = 64
POWER_BOUND = 100  # POW levels one cursor may nest in all, each a few stack frames deep
LONGEST_WORK_BOUND = 10 ** 5  # normal-form terms one run sizing may look up
DESCENT_BOUND = 350  # nested ordinal descents of one cursor start, two interpreter frames each
NESTING_BOUND = 100  # brackets one descriptor may nest, a few stack frames each in its parse and its queries
FOLD_CELL_BOUND = 2 ** 18  # walk-table cells (the positions its rows span) one fold may read; S(1) within 100 spans 122,699 in 0.24 s


class FamilyError(ValueError):
    pass


class ResourceBoundError(FamilyError):
    """`amount` of `what` counted past `limit`, the value of constant `bound`."""

    def __init__(self, what, amount, bound, limit):
        super().__init__("%s: %d exceeds %s = %d" % (what, amount, bound, limit))
        self.what, self.amount, self.bound, self.limit = what, amount, bound, limit


def _finset(elements):
    t = tuple(elements)
    if list(t) != sorted(set(t)) or any(e < 1 for e in t):
        raise FamilyError("not a strictly increasing tuple of positive naturals: %r" % (t,))
    return t


def _int_weights(F, weights):
    """(D, {m: weights[m] * D}) for D the lcm of the denominators of the
    rational weights on F: masses add up as ints over one denominator."""
    D = math.lcm(*(weights[m].denominator for m in F))
    return D, {m: weights[m].numerator * (D // weights[m].denominator)
               for m in F}


# ---------------------------------------------------------------------------
# Schreier cursor: nondeterministic automaton over increasing elements.
#
# A cursor is keyed by the ordinal alpha for S_alpha, by ("br", M, N) for
# M[N] and by ("pow", M, k) for POW(M,k), k >= 2; M and N are keys again.
# States (hashable tuples):
#   FREE                      -- accepts every continuation
#   ("one",)                  -- S_0 after consuming its single element
#   ("blk", alpha_b, left, s) -- inside S_{b+1}: current S_b block in state
#                                s, `left` further blocks may be opened;
#                                for b = 0, s is ("one",) and the level is
#                                a counter of the points it may still
#                                read, stepped in closed form (_counter)
#   ("br", M, N, outer, inner) -- inside M[N]: ids of the M cursor after
#                                the run minima and of the N cursor inside
#                                the current run
# The fresh state is represented implicitly by _start(alpha, n, remaining).
# States are canonical for the `remaining` elements that may still come
# after the element n just read:
#   - a level whose `left` fresh blocks, opened after n, can take any
#     `remaining` elements makes the whole state FREE;
#   - a level with left == 0 is replaced by its inner state s;
#   - a level around a FREE inner state, or a bracket with a FREE side,
#     is FREE, and a state set that contains FREE is (FREE,).
# Both sides of a bracket get `remaining` as an upper bound, which is sound.
#
# A bracket splits greedily: n extends the current run when the inner
# cursor can read it, else opens a run whose minimum the outer cursor
# reads.  This is exact for N hereditary and M hereditary and spreading:
# against any split F_1 < ... < F_k with witness (m_i) in M, the i-th greedy
# run ends no earlier than F_i (induction, by heredity of N), so there are
# j <= k greedy runs with i-th minimum >= min F_i >= m_i, and (m_1..m_j)
# in M spreads to the greedy minima.
#
# Callers outside the tuple-level functions step through _cursor_step,
# which works on sets of interned state ids; None is the fresh cursor.
# Other modules read members through _walk, _fold and _escape, and the
# DPs of spaces read _cursor_start and _cursor_advance state by state.
# ---------------------------------------------------------------------------

FREE = ("free",)
_ONE = Ordinal.from_int(1)


# memo of _longest, keyed (beta, m, cap)
_LONGEST = {}


def _longest(beta, m, cap):
    """A lower bound, capped at cap, on the length of the longest run
    m, m+1, ... in S_beta for beta >= 1: exact for successors, through the
    m-th term of the fundamental sequence for limits.  The S_1 and S_2
    runs from m, of m and m(2^m - 1) points, lie in S_beta for beta >= 1
    and beta >= 2."""
    return _run(beta, 1, m, cap)


def _run(beta, blocks, m, cap):
    """A lower bound, capped at cap, on the longest run m, m+1, ... that
    splits into at most `blocks` successive S_beta sets (greedy blocks are
    longest, since S_beta is hereditary).

    One loop with an explicit stack: each frame sums the greedy blocks of
    one run, and a block's length _longest(b, n, cap) follows limits down
    their fundamental sequences to a successor, whose blocks one level
    down are the next frame.  Every _longest value is kept in _LONGEST.
    Each (ordinal, point) looked up costs the terms of the ordinal's normal
    form, which its hash, comparison and fundamental sequence each read;
    more than LONGEST_WORK_BOUND in one call raise ResourceBoundError.
    Its callers size blocks of S_beta for beta >= 1: an S_0 level is a
    counter (_counter)."""
    # frames: [beta, blocks left, first point, total, keys the run answers]
    stack = [[beta, blocks, m, 0, ()]]
    work = 0
    while True:
        b, left, first, total, _ = stack[-1]
        if left and total < cap:
            # the next block's length, _longest(b, first + total, cap)
            n, keys = first + total, []
            while True:
                work += len(b.terms)
                if work > LONGEST_WORK_BOUND:
                    raise ResourceBoundError(
                        "ordinal terms sizing a run of S_%s from %d" % (beta, m),
                        work, "LONGEST_WORK_BOUND", LONGEST_WORK_BOUND)
                key = (b, n, cap)
                value = _LONGEST.get(key)
                if value is not None:
                    break
                keys.append(key)
                if n >= cap or (b > _ONE and n * (2 ** n - 1) >= cap):
                    value = cap
                    break
                if b.is_successor():
                    b = b.predecessor()
                    if b.is_zero():
                        value = min(n, cap)
                    break
                b = fundamental_sequence(b, n)
            if value is None:
                stack.append([b, n, n, 0, keys])
                continue
        else:
            value, keys = min(total, cap), stack.pop()[4]
            if not stack:
                return value
        for key in keys:
            _LONGEST[key] = value
        stack[-1][1] -= 1
        stack[-1][3] += value


def _absorbs(beta, blocks, n, remaining):
    """True when `blocks` fresh S_beta blocks, beta >= 1, opened after n
    can take any `remaining` further elements.  The run n+1, n+2, ... is
    the hardest such input, since S_beta is spreading."""
    return _run(beta, blocks, n + 1, remaining) >= remaining


def _counter(beta, left, remaining):
    """Canonical states of an S_1 level (beta = 0) whose current one-point
    block is read, with `left` further blocks: a counter of the points it
    may still read, FREE when they cover the `remaining` ones."""
    if left >= remaining:
        return (FREE,)
    return (("one",),) if left == 0 else (("blk", beta, left, ("one",)),)


def _blocks(beta, left, inner, n, remaining):
    """Canonical states of an S_{beta+1} level with `left` further blocks
    around the canonical inner states, after reading n."""
    if not inner:
        return ()
    if FREE in inner or _absorbs(beta, left, n, remaining):
        return (FREE,)
    if left == 0:
        return inner
    return tuple(("blk", beta, left, s) for s in inner)


def _bracket(outer_key, inner_key, outer, inner):
    """Canonical states of M[N] from the outer and inner id sets."""
    if not outer or not inner:
        return ()
    if outer == (_FREE_ID,) or inner == (_FREE_ID,):
        return (FREE,)
    return (("br", outer_key, inner_key, tuple(sorted(outer)),
             tuple(sorted(inner))),)


def _power_levels(key, remaining):
    """The power levels a cursor of this key nests when at most
    `remaining` elements follow: the effective levels min(k, remaining + 1)
    of nested powers add up, and a bracket nests as deep as its deeper
    side."""
    if isinstance(key, Ordinal):
        return 0
    kind, outer, inner = key
    if kind == "pow":
        return min(inner, remaining + 1) + _power_levels(outer, remaining)
    return max(_power_levels(outer, remaining), _power_levels(inner, remaining))


# the ordinals whose _start is being computed, outermost first: each one
# recurses once into its predecessor or a fundamental-sequence term
_DESCENT = []


@lru_cache(maxsize=None)
def _start(alpha, n, remaining):
    """States after feeding first element n to a fresh cursor of key
    alpha, with at most `remaining` elements to follow."""
    if not isinstance(alpha, Ordinal):
        kind, outer, inner = alpha
        if kind == "pow":
            # POW(M,k) and POW(M,L), L <= k, agree on sets of <= L points
            k = min(inner, remaining + 1)
            levels = _power_levels(alpha, remaining)
            if levels > POWER_BOUND:
                raise ResourceBoundError("power levels", levels,
                                         "POWER_BOUND", POWER_BOUND)
            if k == 1:
                return _start(outer, n, remaining)
            inner = outer if k == 2 else ("pow", outer, k - 1)
        return _bracket(outer, inner, _cursor_step(outer, None, n, remaining),
                        _cursor_step(inner, None, n, remaining))
    if alpha.is_zero():
        return (("one",),)
    if len(_DESCENT) >= DESCENT_BOUND:
        raise ResourceBoundError(
            "ordinals the cursor of S_%s descends through" % _DESCENT[0],
            len(_DESCENT) + 1, "DESCENT_BOUND", DESCENT_BOUND)
    _DESCENT.append(alpha)
    try:
        if alpha.is_successor():
            beta = alpha.predecessor()
            if beta.is_zero():
                return _counter(beta, n - 1, remaining)
            if _absorbs(beta, n - 1, n, remaining):
                return (FREE,)
            return _blocks(beta, n - 1, _start(beta, n, remaining), n,
                           remaining)
        out = []
        for k in range(1, n + 1):
            states = _start(fundamental_sequence(alpha, k), n, remaining)
            if states == (FREE,):
                return states
            out.extend(states)
        return tuple(dict.fromkeys(out))
    finally:
        _DESCENT.pop()


@lru_cache(maxsize=None)
def _advance(state, n, remaining):
    """Successor states after feeding element n (n above all fed so far),
    with at most `remaining` elements to follow."""
    if state == FREE:
        return (FREE,)
    if state[0] == "one":
        return ()
    if state[0] == "br":
        _, M, N, outer, inner = state
        run = _cursor_step(N, inner, n, remaining)
        if run:
            return _bracket(M, N, outer, run)
        return _bracket(M, N, _cursor_step(M, outer, n, remaining),
                        _cursor_step(N, None, n, remaining))
    _, beta, left, inner = state
    if beta.is_zero():
        # n opens the next one-point block
        return _counter(beta, left - 1, remaining)
    # opening a fresh block at n leaves left - 1 fresh blocks after it
    if _absorbs(beta, left - 1, n, remaining):
        return (FREE,)
    out = _blocks(beta, left, _advance(inner, n, remaining), n, remaining)
    if out != (FREE,):
        out += _blocks(beta, left - 1, _start(beta, n, remaining), n,
                       remaining)
        if FREE in out:
            return (FREE,)
    return tuple(dict.fromkeys(out))


# canonical cursor states as small ints, so the dynamic programs' memo keys
# are int triples
_FREE_ID = 0
_STATES = [FREE]
_IDS = {FREE: _FREE_ID}


def _intern(states):
    out = []
    for s in states:
        sid = _IDS.get(s)
        if sid is None:
            sid = _IDS[s] = len(_STATES)
            _STATES.append(s)
        out.append(sid)
    return tuple(out)


@lru_cache(maxsize=None)
def _cursor_start(alpha, n, remaining):
    """Ids of the cursor states after a fresh cursor of key alpha reads n,
    with at most `remaining` elements to follow."""
    return _intern(_start(alpha, n, remaining))


@lru_cache(maxsize=None)
def _cursor_advance(state, n, remaining):
    """Ids of the successors of state id `state` on reading n.  Bypasses
    _advance's cache, which would only repeat this one."""
    return _intern(_advance.__wrapped__(_STATES[state], n, remaining))


def _cursor_step(alpha, states, n, remaining):
    """Ids of the states after reading n, with at most `remaining` elements
    to follow: from a fresh cursor of key alpha when states is None, else from
    any of the ids in states.  Empty when n cannot be read; a set that
    contains FREE is (FREE,)."""
    if states is None:
        return _cursor_start(alpha, n, remaining)
    out = set()
    for s in states:
        out.update(_cursor_advance(s, n, remaining))
    return (_FREE_ID,) if _FREE_ID in out else tuple(out)


@lru_cache(maxsize=None)
def schreier_member(alpha, F):
    """Decide F in the family of cursor key alpha (S_alpha for an ordinal)
    by feeding F to the cursor, told at each element how many elements
    are left."""
    states = None
    for i, n in enumerate(F):
        states = _cursor_step(alpha, states, n, len(F) - 1 - i)
        if not states:
            return False
        if states == (_FREE_ID,):
            return True
    return True


def _row(key, points, states, i):
    """One row of the walk table of the family of cursor key `key` inside
    the increasing `points`: for the state ids `states` (None for the
    fresh cursor) and next position i, a pair (the ids after reading
    points[j] with len(points) - 1 - j points left to follow, j + 1) for
    each position j >= i that those states can read, latest first.  The
    families are spreading, so these positions are a suffix of i..: the
    row reads down from the last and stops at the first it cannot read.
    Each reader keeps its own table, a dict from (states, i) to rows
    built on first use.  The families are hereditary, so the members
    after a pair depend only on the pair, and the table is a DAG, since
    positions only rise."""
    last, row = len(points) - 1, []
    for j in range(last, i - 1, -1):
        nxt = _cursor_step(key, states, points[j], last - j)
        if not nxt:
            break
        row.append((nxt, j + 1))
    return row


def _walk(key, points):
    """Every nonempty member of the family of cursor key `key` inside the
    increasing `points`, in lexicographic order, as a tuple of points.

    A depth-first walk over the table of _row on an explicit stack of
    (state ids, next position, member so far); popping an entry reads off
    its member, and a row's latest position is pushed first, so that the
    earliest is popped first."""
    table, singles = {}, [(p,) for p in points]
    stack = [(None, 0, ())]
    while stack:
        states, i, G = stack.pop()
        if states is not None:
            yield G
        row = table.get((states, i))
        if row is None:
            row = table[states, i] = _row(key, points, states, i)
        for nxt, j in row:
            stack.append((nxt, j, G + singles[j - 1]))


def _escape(family, other, points):
    """The largest minimum of a nonempty member of the regular `family`
    inside the increasing `points` not in the regular `other`, else 0: one
    depth-first walk on an explicit stack over triples (family's ids,
    other's ids, next position), Rabin–Scott's product construction (IBM
    J. Res. Dev. 3, 1959).  Family steps by its rows (_row), other on the
    same point with the same count left.  From each start, the last first,
    it returns at the first triple whose other side is empty: its prefix
    lies in family, and every member outside other has such a prefix with
    its minimum, both being hereditary.  A FREE other side holds every
    continuation and is dropped; each triple is visited once in all."""
    fkey, okey, n, seen = family._key, other._key, len(points), set()
    for start in _row(fkey, points, None, 0):
        stack = [(None, start)]  # (other's ids before the point, a pair)
        while stack:
            o, (f, i) = stack.pop()
            o = _cursor_step(okey, o, points[i - 1], n - i)
            if not o:
                return points[start[1] - 1]
            if o != (_FREE_ID,) and (f, o, i) not in seen:
                seen.add((f, o, i))
                stack.extend((o, pair) for pair in _row(fkey, points, f, i))
    return 0


def _fold(family, points, values):
    """The members of a regular family inside the increasing `points`,
    folded without listing any: (the largest sum of values[j] over the
    positions j of a nonempty member, None when there is none; the number
    of nonempty members; the size of the longest member, 0 when there is
    none).  One memoised pass over the table of _row that _walk lists, so
    each is the maximum, count or longest over the very paths the listing
    takes: the single-source DAG pass in the max-plus and counting
    semirings (Mohri, J. Autom. Lang. Comb. 7, 2002).

    Post-order on an explicit stack: a pair is expanded (its row built,
    its successors pushed), and once they are done it is folded into the
    (best, number, longest) of the extensions of its prefix, the empty
    extension included, since every prefix but the root's is a member;
    a step to (states, j) adds values[j - 1].  Every row is sized before
    it is built by the len(points) - i cells it spans: past
    FOLD_CELL_BOUND, the fold raises ResourceBoundError with the cells
    it would have reached."""
    key, table, done, stack, cells = family._key, {}, {}, [(None, 0)], 0
    while True:
        node = stack[-1]
        if node in done:
            stack.pop()
        elif node not in table:
            cells += len(points) - node[1]
            if cells > FOLD_CELL_BOUND:
                raise ResourceBoundError(
                    "walk-table cells folding %s over %d points"
                    % (family, len(points)),
                    cells, "FOLD_CELL_BOUND", FOLD_CELL_BOUND)
            table[node] = row = _row(key, points, *node)
            stack.extend(row)
        else:
            stack.pop()
            states = node[0]
            # the root's prefix is empty, no member; any other pair's
            # prefix is one, with the empty extension: mass 0, no points
            best, count, longest = (None, 0, 0) if states is None else (0, 1, 0)
            for nxt, j in table[node]:
                b, c, l = done[nxt, j]
                value = values[j - 1] + b
                if best is None or value > best:
                    best = value
                count += c
                longest = max(longest, l + 1)
            if states is None:
                return best, count, longest
            done[node] = best, count, longest


def _maximal(members):
    """The nonempty listed members that no other listed member contains,
    in the order given: on a hereditary listing, those to which no point
    can be added.  Bit i of holds[p] means members[i] holds p, so F is
    maximal iff the AND over its points is F's own bit."""
    holds = {}
    for i, F in enumerate(members):
        for p in F:
            holds[p] = holds.get(p, 0) | 1 << i
    return [F for i, F in enumerate(members)
            if F and reduce(int.__and__, map(holds.get, F)) == 1 << i]


# ---------------------------------------------------------------------------
# Families: each kind is its own expression
# ---------------------------------------------------------------------------


def _universe(universe_max):
    """The points 1..universe_max of a universe; a negative one is refused."""
    if universe_max < 0:
        raise FamilyError("universe must be >= 0, got %d" % universe_max)
    return range(1, universe_max + 1)


def _check_universe(universe_max):
    """The points of a universe whose members are listed, which
    ENUMERATION_BOUND caps."""
    points = _universe(universe_max)
    if universe_max > ENUMERATION_BOUND:
        raise ResourceBoundError("universe", universe_max,
                                 "ENUMERATION_BOUND", ENUMERATION_BOUND)
    return points


def hereditary_closure(sets):
    """The listed sets with all their subsets, the empty set among them.
    Sized first, as the sum of 2**len(S) over the listed sets S: past
    MEMBER_BOUND it raises ResourceBoundError before building any."""
    sets = [_finset(s) for s in sets]
    size = sum(2 ** len(s) for s in sets)
    if size > MEMBER_BOUND:
        raise ResourceBoundError("subsets of the listed sets", size,
                                 "MEMBER_BOUND", MEMBER_BOUND)
    return frozenset(itertools.chain(
        [()], *(itertools.combinations(s, r) for s in sets
                for r in range(1, len(s) + 1))))


class Family:
    """A family of finite subsets of N with a decidable membership oracle.

    A family is its expression: the frozen dataclasses Schreier, Bracket,
    Power and Explicit below derive from this class, so equality, hashing
    and repr come from their fields.  Queries read the cursor of a regular
    kind's key `_key`, and Explicit overrides those that do.  All are pure.
    """

    # -- membership -----------------------------------------------------

    def member(self, F):
        F = _finset(F)
        return not F or schreier_member(self._key, F)

    __contains__ = member

    # -- enumeration ----------------------------------------------------

    def enumerate(self, universe_max):
        """All members contained in {1..universe_max}, lexicographic."""
        return list(self.members(universe_max))

    def members(self, universe_max):
        """The members contained in {1..universe_max} one at a time, in
        lexicographic order, the empty set first, so a caller can stop at
        the member it looks for.  A cursor family is read by _walk over
        1..universe_max; past MEMBER_BOUND nonempty members it raises
        ResourceBoundError."""
        points = _check_universe(universe_max)
        yield ()
        for count, G in enumerate(_walk(self._key, points), 1):
            if count > MEMBER_BOUND:
                raise ResourceBoundError(
                    "members of %s within universe %d" % (self, universe_max),
                    count, "MEMBER_BOUND", MEMBER_BOUND)
            yield G

    def tree_order(self, universe_max):
        """(order, nodes) of the tree of members within {1..universe_max}:
        the size of its longest member and the number of its nonempty
        members.  A cursor family reads both from _fold, which lists no
        member; the masses it also folds, here the points, go unread."""
        points = _universe(universe_max)
        _, nodes, order = _fold(self, points, points)
        return order, nodes

    # -- maximality and derivatives ------------------------------------

    def _extends(self, F, k, universe_max):
        """True when a member extends F by k elements on the right, exact
        through k probes far above the universe: the family is spreading,
        and heredity collapses a k-step chain to one k-element extension.
        No probe set recurs, so they skip schreier_member's cache."""
        probe = (F[-1] if F else 0) + max(universe_max, 64) + 1
        return schreier_member.__wrapped__(
            self._key, F + tuple(range(probe, probe + k)))

    def is_maximal(self, F, universe_max):
        F = _finset(F)
        if not self.member(F):
            raise FamilyError("%r is not a member of %s" % (F, self))
        for n in _universe(universe_max):
            if n in F:
                continue
            G = tuple(sorted(F + (n,)))
            if self.member(G):
                return False
        return not self._extends(F, 1, universe_max)

    def derivative(self, universe_max):
        """Combinatorial Cantor-Bendixson derivative on the truncation:
        members admitting a right extension inside the family."""
        return self.iterated_derivative(1, universe_max)

    def iterated_derivative(self, k, universe_max):
        if k < 0:
            raise FamilyError("derivative order must be >= 0, got %d" % k)
        if k > DERIVATIVE_BOUND:
            raise ResourceBoundError("derivative depth", k,
                                     "DERIVATIVE_BOUND", DERIVATIVE_BOUND)
        kept = [F for F in self.enumerate(universe_max)
                if self._extends(F, k, universe_max)]
        return explicit_family(kept, close=False)

    # -- maximum coefficient mass over members (used by SCC checks) -----

    def max_mass(self, F, weights):
        """Exact max of sum(weights[m] for m in G) over members G <= F, as a
        Fraction, on the int weights of _int_weights.  A cursor family is
        folded left to right over F, keeping the best mass of a member read
        so far in each cursor state: skipping a point keeps every state,
        reading it starts the fresh cursor (_cursor_start) and steps each
        state (_cursor_advance)."""
        F = _finset(F)
        D, w = _int_weights(F, weights)
        front = {}  # state id -> best mass of a member read so far
        for i, n in enumerate(F):
            rest, wn = len(F) - 1 - i, w[n]
            nxt = dict(front)
            for s in _cursor_start(self._key, n, rest):
                if s not in nxt or wn > nxt[s]:
                    nxt[s] = wn
            for state, mass in front.items():
                mass += wn
                for s in _cursor_advance(state, n, rest):
                    if s not in nxt or mass > nxt[s]:
                        nxt[s] = mass
            front = nxt
        return Fraction(max([0, *front.values()]), D)

    # -- regularity report ---------------------------------------------

    def check_regular(self, universe_max):
        members = set(self.enumerate(universe_max))
        hereditary = True
        spreading = True
        counterexamples = {"hereditary": [], "spreading": []}
        for F in sorted(members):
            for i in range(len(F)):
                sub = F[:i] + F[i + 1:]
                if sub not in members:
                    hereditary = False
                    counterexamples["hereditary"].append((F, sub))
            for i in range(len(F)):
                hi = F[i + 1] - 1 if i + 1 < len(F) else universe_max
                for v in range(F[i] + 1, hi + 1):
                    G = F[:i] + (v,) + F[i + 1:]
                    if G not in members:
                        spreading = False
                        counterexamples["spreading"].append((F, G))
        return RegularityReport(
            hereditary=hereditary,
            spreading=spreading,
            counterexamples=counterexamples,
            compactness="not evaluated",
            universe_max=universe_max,
        )


@dataclass(frozen=True)
class Schreier(Family):
    alpha: Ordinal

    def __post_init__(self):
        object.__setattr__(self, "_key", self.alpha)

    def __str__(self):
        return "S(%s)" % self.alpha


@dataclass(frozen=True)
class Bracket(Family):
    outer: Family
    inner: Family

    def __post_init__(self):
        object.__setattr__(self, "_key",
                           ("br", self.outer._key, self.inner._key))

    def __str__(self):
        return "BR(%s,%s)" % (self.outer, self.inner)


@dataclass(frozen=True)
class Power(Family):
    base: Family
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise FamilyError("power must be >= 1")
        key = self.base._key
        object.__setattr__(self, "_key",
                           key if self.n == 1 else ("pow", key, self.n))

    def __str__(self):
        return "POW(%s,%d)" % (self.base, self.n)


@dataclass(frozen=True)
class Explicit(Family):
    """Listed sets, not necessarily hereditary, that answer every query."""

    sets: frozenset  # of element tuples

    @property
    def _key(self):
        raise FamilyError("brackets and powers need regular (non-explicit) families")

    @cached_property
    def _children(self):
        """The listed sets by their prefix G[:-1], the empty set by none."""
        children = {}
        for G in filter(None, self.sets):
            children.setdefault(G[:-1], []).append(G)
        return children

    def member(self, F):
        return _finset(F) in self.sets

    __contains__ = member

    def members(self, universe_max):
        _check_universe(universe_max)
        yield from sorted(F for F in self.sets if not F or F[-1] <= universe_max)

    def tree_order(self, universe_max):
        sizes = [len(F) for F in self.members(universe_max) if F]
        return max(sizes, default=0), len(sizes)

    def _extends(self, F, k, universe_max):
        """True when listed sets F = G_0, ..., G_k each add one point on the
        right to the one before, all but G_k inside {1..universe_max}."""
        return F in self.sets if k == 0 else any(
            (k == 1 or G[-1] <= universe_max) and self._extends(G, k - 1, universe_max)
            for G in self._children.get(F, ()))

    def max_mass(self, F, weights):
        D, w = _int_weights(_finset(F), weights)
        return Fraction(max((sum(w[g] for g in G) for G in self.sets
                             if w.keys() >= set(G)), default=0), D)

    def __str__(self):
        body = ",".join("{%s}" % ",".join(map(str, s)) for s in sorted(self.sets) if s)
        return "EXPL[%s]" % body


@dataclass
class RegularityReport:
    hereditary: bool
    spreading: bool
    counterexamples: dict
    compactness: str
    universe_max: int


# ---------------------------------------------------------------------------
# Constructors and index computation
# ---------------------------------------------------------------------------


def schreier(alpha):
    return Schreier(Ordinal.of(alpha))


def explicit_family(sets, close=True):
    """Explicit family from listed sets, closed hereditarily unless
    close=False, which stores the sets as they are (useful for exhibiting
    regularity violations)."""
    return Explicit(hereditary_closure(sets) if close
                    else frozenset(map(_finset, sets)))


bracket = Bracket
power = Power


def index_symbolic(family):
    """Symbolic index iota of a constructor-built family.

    Uses iota(S_a) = w^a and iota of the n-fold bracket power = w^(a*n).
    A general Bracket node is folded with the product rule
    iota(N)*iota(M), which is an oracle assumption beyond the power
    identity.
    """
    if isinstance(family, Schreier):
        return symbolic_omega_pow(family.alpha)
    if isinstance(family, Power):
        return index_symbolic(family.base).pow_natural(family.n)
    if isinstance(family, Bracket):
        return index_symbolic(family.inner) * index_symbolic(family.outer)
    raise FamilyError("symbolic index undefined for %s; use brute force" % (family,))


def tail_domination(A, B, universe_max):
    """Least n0 <= universe_max with every member of B in the universe
    from n0 on lying in A, else None: one past the largest minimum of a
    member of B outside A: by _escape, or by B's listing for listed sets."""
    points = _check_universe(universe_max)
    if isinstance(A, Explicit) or isinstance(B, Explicit):
        n0 = 1 + max((F[0] for F in B.enumerate(universe_max)
                      if F and not A.member(F)), default=0)
    else:
        n0 = 1 + _escape(B, A, points)
    return n0 if n0 <= universe_max else None


# ---------------------------------------------------------------------------
# Descriptors: S(<ordinal>), BR(f,g), POW(f,n), EXPL[{1,2},{3}]
# ---------------------------------------------------------------------------


_CLOSING = {"(": ")", "[": "]", "{": "}"}


def read_descriptor(text, error):
    """(head, argument texts) of a descriptor read whole, whitespace
    ignored.  The head runs through the first opening bracket, whose
    closing bracket must end the text; the arguments are the texts between
    the commas at that bracket's level, none for empty brackets.  A text
    without brackets is an atom: (text, []).  Brackets that do not nest
    raise `error`, and nesting deeper than NESTING_BOUND raises
    ResourceBoundError."""
    text, cuts, stack = "".join(text.split()), [], []
    for i, c in enumerate(text):
        if c in _CLOSING:
            stack.append(_CLOSING[c])
            if len(stack) > NESTING_BOUND:
                raise ResourceBoundError("brackets nested in a descriptor",
                                         len(stack), "NESTING_BOUND",
                                         NESTING_BOUND)
        elif c in ")]}":
            if not stack or stack.pop() != c:
                raise error("unmatched %r in descriptor %r" % (c, text))
            if not stack and i + 1 < len(text):
                raise error("trailing input %r in descriptor %r"
                            % (text[i + 1:], text))
        if c in "([{," and len(stack) == 1 or c in ")]}" and not stack:
            cuts.append(i)
    if stack:
        raise error("unclosed bracket in descriptor %r" % text)
    args = [text[a + 1:b] for a, b in zip(cuts, cuts[1:])]
    head = text[:cuts[0] + 1] if cuts else text
    return head, [] if args == [""] else args


def parse_family(text):
    """The family a descriptor names; an EXPL is closed under subsets."""
    head, args = read_descriptor(text, FamilyError)
    try:
        match head, args:
            case "S(", [alpha]:
                return schreier(parse_ordinal(alpha))
            case "BR(", [outer, inner]:
                return bracket(parse_family(outer), parse_family(inner))
            case "POW(", [base, n]:
                return power(parse_family(base), int(n))
            case "EXPL[", sets:
                return explicit_family(map(_listed_set, sets))
    except FamilyError:
        raise
    except ValueError as exc:
        raise FamilyError("malformed family descriptor %r: %s" % (text, exc))
    raise FamilyError("cannot parse family descriptor %r" % text)


def _listed_set(text):
    head, elements = read_descriptor(text, FamilyError)
    if head != "{":
        raise FamilyError("expected a {...} set of naturals, got %r" % text)
    return sorted(map(int, elements))
