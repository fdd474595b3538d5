"""Regular families of finite subsets of N.

Generalized Schreier families S_a are built by the usual recursion:
S_0 is the singletons (plus the empty set); for a = b+1 a member is a
union of m successive S_b-blocks with m <= its first element; for limit
a membership defers to S_{a_n} for some n <= min F, with a_n taken from
the fundamental-sequence convention fixed in :mod:`schreierlab.ordinal`.

Membership, enumeration and every admissibility check run one
nondeterministic left-to-right "cursor" automaton over the sorted
elements.  Its states record the remaining block budget at each
recursion level; it also drives the admissible-partition dynamic
programs in :mod:`schreierlab.spaces`, the interval corpus of the
asymptoticity measurement and the subset-mass maximization used by the
convex-combination checks.  Every cursor step is told how many elements
can still follow (`remaining`) and returns canonical states for that
count: a state with a level whose fresh blocks can take all of them is
the accept-all state FREE, and a level with no blocks left is replaced
by its inner state.  Both rewrites keep what a state accepts from the
next `remaining` elements, and they keep the state sets of limit
ordinals small, where the raw automaton's start sets explode.  The
states are interned as ints; no other module sees their format.
Derivatives ride on membership through probe elements above the
universe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .ordinal import Ordinal, fundamental_sequence, symbolic_omega_pow

__all__ = [
    "FamilyError",
    "ResourceBoundError",
    "FamilyExpr",
    "Schreier",
    "Bracket",
    "Power",
    "Explicit",
    "Family",
    "schreier",
    "explicit_family",
    "bracket",
    "power",
    "bracket_member",
    "index_symbolic",
    "tail_domination",
    "parse_family",
    "hereditary_closure",
    "spreading_closure",
    "RegularityReport",
]

ENUMERATION_BOUND = 24


class FamilyError(ValueError):
    pass


class ResourceBoundError(FamilyError):
    pass


def _finset(elements):
    t = tuple(elements)
    if list(t) != sorted(set(t)) or any(e < 1 for e in t):
        raise FamilyError("not a strictly increasing tuple of positive naturals: %r" % (t,))
    return t


# ---------------------------------------------------------------------------
# Schreier cursor: nondeterministic automaton over increasing elements.
#
# States (hashable tuples):
#   FREE                      -- accepts every continuation
#   ("one",)                  -- S_0 after consuming its single element
#   ("blk", alpha_b, left, s) -- inside S_{b+1}: current S_b block in state
#                                s, `left` further blocks may be opened
# The fresh state is represented implicitly by _start(alpha, n, remaining).
# States are canonical for the `remaining` elements that may still come
# after the element n just read:
#   - a level whose `left` fresh blocks, opened after n, can take any
#     `remaining` elements makes the whole state FREE;
#   - a level with left == 0 is replaced by its inner state s;
#   - a level around a FREE inner state is FREE, and a state set that
#     contains FREE is (FREE,).
# So every "blk" level has 1 <= left < remaining, and only ("one",) rejects.
# Callers outside the tuple-level functions step through _cursor_step,
# which works on sets of interned state ids; None is the fresh cursor.
# ---------------------------------------------------------------------------

FREE = ("free",)
_ONE = Ordinal.from_int(1)


@lru_cache(maxsize=None)
def _longest(beta, m, cap):
    """A lower bound, capped at cap, on the length of the longest run
    m, m+1, ... in S_beta for beta >= 1: exact for successors, through the
    m-th term of the fundamental sequence for limits.  The S_1 and S_2
    runs from m, of m and m(2^m - 1) points, lie in S_beta for beta >= 1
    and beta >= 2."""
    if m >= cap or (beta > _ONE and m * (2 ** m - 1) >= cap):
        return cap
    if beta.is_successor():
        return _run(beta.predecessor(), m, m, cap)
    return _longest(fundamental_sequence(beta, m), m, cap)


def _run(beta, blocks, m, cap):
    """A lower bound, capped at cap, on the longest run m, m+1, ... that
    splits into at most `blocks` successive S_beta sets (greedy blocks are
    longest, since S_beta is hereditary)."""
    if beta.is_zero():
        return min(blocks, cap)
    total = 0
    for _ in range(blocks):
        if total >= cap:
            break
        total += _longest(beta, m + total, cap)
    return min(total, cap)


def _absorbs(beta, blocks, n, remaining):
    """True when `blocks` fresh S_beta blocks opened after n can take any
    `remaining` further elements.  The run n+1, n+2, ... is the hardest
    such input, since S_beta is spreading."""
    return _run(beta, blocks, n + 1, remaining) >= remaining


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


@lru_cache(maxsize=None)
def _start(alpha, n, remaining):
    """States after feeding first element n to a fresh S_alpha cursor,
    with at most `remaining` elements to follow."""
    if alpha.is_zero():
        return (("one",),)
    if alpha.is_successor():
        beta = alpha.predecessor()
        if _absorbs(beta, n - 1, n, remaining):
            return (FREE,)
        return _blocks(beta, n - 1, _start(beta, n, remaining), n, remaining)
    out = []
    for k in range(1, n + 1):
        states = _start(fundamental_sequence(alpha, k), n, remaining)
        if states == (FREE,):
            return states
        out.extend(states)
    return tuple(dict.fromkeys(out))


@lru_cache(maxsize=None)
def _advance(state, n, remaining):
    """Successor states after feeding element n (n above all fed so far),
    with at most `remaining` elements to follow."""
    if state == FREE:
        return (FREE,)
    if state[0] == "one":
        return ()
    _, beta, left, inner = state
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
    """Ids of the cursor states after a fresh S_alpha reads n, with at most
    `remaining` elements to follow."""
    return _intern(_start(alpha, n, remaining))


@lru_cache(maxsize=None)
def _cursor_advance(state, n, remaining):
    """Ids of the successors of state id `state` on reading n."""
    return _intern(_advance(_STATES[state], n, remaining))


def _cursor_step(alpha, states, n, remaining):
    """Ids of the states after reading n, with at most `remaining` elements
    to follow: from a fresh S_alpha cursor when states is None, else from
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
    """Decide F in S_alpha by feeding F to the cursor, told at each element
    how many elements are left."""
    states = None
    for i, n in enumerate(F):
        states = _cursor_step(alpha, states, n, len(F) - 1 - i)
        if not states:
            return False
        if states == (_FREE_ID,):
            return True
    return True


# ---------------------------------------------------------------------------
# Family expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyExpr:
    pass


@dataclass(frozen=True)
class Schreier(FamilyExpr):
    alpha: Ordinal

    def __str__(self):
        return "S(%s)" % self.alpha


@dataclass(frozen=True)
class Bracket(FamilyExpr):
    outer: FamilyExpr
    inner: FamilyExpr

    def __str__(self):
        return "BR(%s,%s)" % (self.outer, self.inner)


@dataclass(frozen=True)
class Power(FamilyExpr):
    base: FamilyExpr
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise FamilyError("power must be >= 1")

    def __str__(self):
        return "POW(%s,%d)" % (self.base, self.n)


@dataclass(frozen=True)
class Explicit(FamilyExpr):
    sets: frozenset  # of element tuples

    def __str__(self):
        body = ",".join("{%s}" % ",".join(map(str, s)) for s in sorted(self.sets) if s)
        return "EXPL[%s]" % body


def hereditary_closure(sets):
    out = set()
    stack = [_finset(s) for s in sets]
    out.add(())
    while stack:
        s = stack.pop()
        if s in out:
            continue
        out.add(s)
        for i in range(len(s)):
            sub = s[:i] + s[i + 1:]
            if sub not in out:
                stack.append(sub)
    return frozenset(out)


def spreading_closure(sets, universe_max):
    """Close under right shifts within {1..universe_max}."""
    out = set(_finset(s) for s in sets)
    out.add(())
    frontier = list(out)
    while frontier:
        s = frontier.pop()
        for i in range(len(s)):
            hi = s[i + 1] - 1 if i + 1 < len(s) else universe_max
            for v in range(s[i] + 1, hi + 1):
                t = s[:i] + (v,) + s[i + 1:]
                if t not in out:
                    out.add(t)
                    frontier.append(t)
    return frozenset(out)


class Family:
    """A family of finite subsets of N with a decidable membership oracle.

    Immutable after construction; all queries are pure.
    """

    def __init__(self, expr):
        self.expr = expr

    def __str__(self):
        return str(self.expr)

    def __repr__(self):
        return "Family(%s)" % self

    def __eq__(self, other):
        return isinstance(other, Family) and self.expr == other.expr

    def __hash__(self):
        return hash(self.expr)

    # -- membership -----------------------------------------------------

    def member(self, F):
        F = _finset(F)
        return self._member(self.expr, F)

    __contains__ = member

    def _member(self, expr, F):
        if isinstance(expr, Explicit):
            return F in expr.sets
        if not F:
            return True
        if isinstance(expr, Schreier):
            return schreier_member(expr.alpha, F)
        if isinstance(expr, Power):
            if expr.n == 1:
                return self._member(expr.base, F)
            return self._bracket_member(expr.base, Power(expr.base, expr.n - 1), F)
        if isinstance(expr, Bracket):
            return self._bracket_member(expr.outer, expr.inner, F)
        raise FamilyError("unknown family expression %r" % (expr,))

    def _bracket_member(self, outer_expr, inner_expr, F):
        """F in M[N]: split F into successive runs F_1 < ... < F_k, each in
        the inner family, with a witness (m_1,...,m_k) in the outer family
        satisfying max F_{i-1} < m_i <= min F_i.  Since the outer family is
        hereditary and spreading, (min F_i)_i is a witness whenever any
        witness exists, so only run boundaries are searched."""
        if not F:
            return True
        outer = Family(outer_expr)
        inner = Family(inner_expr)

        def rec(start, minima):
            if start == len(F):
                return outer.member(minima)
            # heredity of the outer family makes prefixes of witnesses
            # witnesses, so prune on the minima chosen so far
            for end in range(start + 1, len(F) + 1):
                run = F[start:end]
                if not inner.member(run):
                    # inner family hereditary: longer runs contain this one
                    break
                if outer.member(minima + (run[0],)) and rec(end, minima + (run[0],)):
                    return True
            return False

        return rec(0, ())

    # -- enumeration ----------------------------------------------------

    def enumerate(self, universe_max, bound=ENUMERATION_BOUND):
        """All members contained in {1..universe_max}, lexicographic."""
        if universe_max > bound:
            raise ResourceBoundError("universe %d exceeds bound %d" % (universe_max, bound))
        if isinstance(self.expr, Explicit):
            # explicit families need not be hereditary; list directly
            return sorted(F for F in self.expr.sets
                          if all(e <= universe_max for e in F))
        # a Schreier family carries its cursor states down the search
        alpha = self.expr.alpha if isinstance(self.expr, Schreier) else None
        out = [()]

        # depth first with increasing elements: lexicographic order
        def extend(F, states):
            for n in range((F[-1] if F else 0) + 1, universe_max + 1):
                G = F + (n,)
                if alpha is None:
                    nxt = self.member(G)
                else:
                    nxt = _cursor_step(alpha, states, n, universe_max - n)
                if nxt:
                    out.append(G)
                    extend(G, nxt)

        extend((), None)
        return out

    # -- maximality and derivatives ------------------------------------

    def _has_right_extension(self, F, universe_max, probe_bound=None):
        if isinstance(self.expr, Schreier):
            return self._has_k_right_extensions(F, 1, universe_max)
        last = F[-1] if F else 0
        hi = last + (probe_bound if probe_bound is not None else universe_max)
        # spreading families: membership of right extensions is monotone
        # in the added element, but stay conservative and scan the range
        return any(self.member(F + (n,)) for n in range(last + 1, hi + 1))

    def is_maximal(self, F, universe_max):
        F = _finset(F)
        if not self.member(F):
            raise FamilyError("%r is not a member of %s" % (F, self))
        for n in range(1, universe_max + 1):
            if n in F:
                continue
            G = tuple(sorted(F + (n,)))
            if self.member(G):
                return False
        return not self._has_right_extension(F, universe_max)

    def derivative(self, universe_max, bound=ENUMERATION_BOUND):
        """Combinatorial Cantor-Bendixson derivative on the truncation:
        members admitting a right extension inside the family."""
        members = self.enumerate(universe_max, bound)
        kept = [F for F in members if self._has_right_extension(F, universe_max)]
        return explicit_family(kept, close=False)

    def _has_k_right_extensions(self, F, k, universe_max):
        """True when F extends to a member by k further elements beyond
        the universe; exact for cursor-backed families since block
        budgets are set from the (arbitrarily large) probe values."""
        if not isinstance(self.expr, Schreier):
            raise FamilyError("chained extension probe needs a Schreier family")
        # heredity collapses the k-step chain to one k-element extension,
        # and any strictly increasing probes above max F are exact
        probe = (F[-1] if F else 0) + max(universe_max, 64) + 1
        return schreier_member(self.expr.alpha,
                               F + tuple(range(probe, probe + k)))

    def iterated_derivative(self, k, universe_max, bound=ENUMERATION_BOUND, k_bound=64):
        if k > k_bound:
            raise ResourceBoundError("derivative depth %d exceeds bound %d" % (k, k_bound))
        if k == 0:
            return explicit_family(self.enumerate(universe_max, bound), close=False)
        if isinstance(self.expr, Schreier):
            # compute on the original family: iterating on truncated
            # snapshots loses extensions beyond the universe edge
            kept = [F for F in self.enumerate(universe_max, bound)
                    if self._has_k_right_extensions(F, k, universe_max)]
            return explicit_family(kept, close=False)
        fam = self
        for _ in range(k):
            fam = fam.derivative(universe_max, bound)
        return fam

    # -- maximum coefficient mass over members (used by SCC checks) -----

    def max_mass(self, F, weights):
        """Exact max of sum(weights[m] for m in G) over members G <= F.

        Equivalent to exhausting all members (mass is monotone under
        adding elements) but runs as a DP over cursor states; only
        Schreier/bracket-free families supported via cursor, explicit
        families by enumeration of their sets.
        """
        F = _finset(F)
        if isinstance(self.expr, Schreier):
            alpha = self.expr.alpha

            @lru_cache(maxsize=None)
            def best(i, state):
                if i == len(F):
                    return 0
                r = best(i + 1, state)  # skip F[i]
                rest = len(F) - 1 - i
                nexts = (_start(alpha, F[i], rest) if state is None
                         else _advance(state, F[i], rest))
                for s in nexts:
                    v = weights[F[i]] + best(i + 1, s)
                    if v > r:
                        r = v
                return r

            # state None = fresh; encode as a sentinel usable in lru_cache
            return best(0, None)
        # generic fallback: exhaustive over members within max F
        total = 0
        for G in self.enumerate(F[-1] if F else 0):
            if all(g in F for g in G):
                total = max(total, sum(weights[g] for g in G))
        return total

    # -- regularity report ---------------------------------------------

    def check_regular(self, universe_max, bound=ENUMERATION_BOUND):
        members = set(self.enumerate(universe_max, bound))
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


@dataclass
class RegularityReport:
    hereditary: bool
    spreading: bool
    counterexamples: dict
    compactness: str
    universe_max: int
    notes: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Constructors and index computation
# ---------------------------------------------------------------------------


def schreier(alpha):
    if isinstance(alpha, int):
        alpha = Ordinal.from_int(alpha)
    return Family(Schreier(alpha))


def explicit_family(sets, close=True, universe_max=None):
    """Explicit family from listed sets.  With close=True (default) the
    hereditary closure is applied; spreading closure additionally when a
    universe is given.  close=False stores the sets as-is (useful for
    exhibiting regularity violations)."""
    tuples = [_finset(s) for s in sets]
    if close:
        closed = hereditary_closure(tuples)
        if universe_max is not None:
            closed = spreading_closure(closed, universe_max)
            closed = hereditary_closure(closed)
        return Family(Explicit(frozenset(closed)))
    return Family(Explicit(frozenset(tuples)))


def bracket(outer, inner):
    return Family(Bracket(outer.expr, inner.expr))


def power(base, n):
    return Family(Power(base.expr, n))


def bracket_member(M, N, F):
    """Decide F in M[N] directly (module-level convenience)."""
    return Family(Bracket(M.expr, N.expr)).member(F)


def index_symbolic(expr, notes=None):
    """Symbolic index iota of a constructor-built family expression.

    Uses iota(S_a) = w^a and iota of the n-fold bracket power = w^(a*n).
    A general Bracket node is folded with the product rule, which is an
    oracle assumption beyond the power identity; a note is recorded.
    """
    if isinstance(expr, Family):
        expr = expr.expr
    if isinstance(expr, Schreier):
        return symbolic_omega_pow(expr.alpha)
    if isinstance(expr, Power):
        base = index_symbolic(expr.base, notes)
        return base.pow_natural(expr.n)
    if isinstance(expr, Bracket):
        if notes is not None:
            notes.append("bracket index uses the product rule iota(N)*iota(M); "
                         "only the power identity is certified")
        return index_symbolic(expr.inner, notes) * index_symbolic(expr.outer, notes)
    raise FamilyError("symbolic index undefined for %r; use brute force" % (expr,))


def tail_domination(A, B, universe_max, bound=ENUMERATION_BOUND):
    """Least n0 <= universe_max with every member of B starting at or
    after n0 (within the universe) lying in A; None if there is none."""
    members = [F for F in B.enumerate(universe_max, bound) if F]
    for n0 in range(1, universe_max + 1):
        if all(A.member(F) for F in members if F[0] >= n0):
            return n0
    return None


# ---------------------------------------------------------------------------
# Descriptor grammar: S(<ordinal>), BR(f,g), POW(f,n), EXPL[{1,2},{3}]
# ---------------------------------------------------------------------------


def parse_family(text):
    from .ordinal import parse as parse_ordinal

    text = text.strip().replace(" ", "")

    def parse_expr(s, i):
        if s.startswith("S(", i):
            j = s.index(")", i)
            return Schreier(parse_ordinal(s[i + 2:j])), j + 1
        if s.startswith("BR(", i):
            a, i2 = parse_expr(s, i + 3)
            if s[i2] != ",":
                raise FamilyError("expected ',' in BR at %d" % i2)
            b, i3 = parse_expr(s, i2 + 1)
            if s[i3] != ")":
                raise FamilyError("expected ')' in BR at %d" % i3)
            return Bracket(a, b), i3 + 1
        if s.startswith("POW(", i):
            a, i2 = parse_expr(s, i + 4)
            if s[i2] != ",":
                raise FamilyError("expected ',' in POW at %d" % i2)
            j = s.index(")", i2)
            return Power(a, int(s[i2 + 1:j])), j + 1
        if s.startswith("EXPL[", i):
            j = s.index("]", i)
            body = s[i + 5:j]
            sets = []
            for part in filter(None, body.replace("},{", "}|{").split("|")):
                part = part.strip("{}")
                sets.append(tuple(sorted(int(x) for x in part.split(",") if x)))
            closed = hereditary_closure(sets)
            return Explicit(frozenset(closed)), j + 1
        raise FamilyError("cannot parse family descriptor at %r" % s[i:])

    try:
        expr, end = parse_expr(text, 0)
    except FamilyError:
        raise
    except (ValueError, IndexError) as exc:
        raise FamilyError("malformed family descriptor %r: %s" % (text, exc))
    if end != len(text):
        raise FamilyError("trailing input in family descriptor: %r" % text[end:])
    return Family(expr)
