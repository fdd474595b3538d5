"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's own algorithms: set
membership by brute-force decomposition, norms by naive fixed-point
iteration over explicitly enumerated admissible partitions.  The
listing oracles at the end are the member listings that the walk over
pairs of cursors replaced, kept to check it.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from hypothesis import settings

from schreierlab.families import Bracket, Power, Schreier, schreier_member
from schreierlab.ordinal import fundamental_sequence
from schreierlab.spaces import _sign_patterns, norm
from schreierlab.trees import TreeError

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


@lru_cache(maxsize=None)
def brute_schreier(alpha, F):
    """S_alpha membership of the sorted tuple F straight from the
    definition: S_0 holds the sets of size <= 1, a member of S_{b+1} is a
    union of at most min F successive nonempty S_b blocks (every split is
    tried), and a member of S_lambda lies in S_{lambda_n} for some
    n <= min F.  Uses no shortcut of the library's membership test."""
    if not F:
        return True
    if alpha.is_zero():
        return len(F) <= 1
    if alpha.is_limit():
        return any(brute_schreier(fundamental_sequence(alpha, n), F)
                   for n in range(1, F[0] + 1))
    beta = alpha.predecessor()

    def split(i, blocks_left):
        if i == len(F):
            return True
        return blocks_left > 0 and any(
            brute_schreier(beta, F[i:j]) and split(j, blocks_left - 1)
            for j in range(i + 1, len(F) + 1))

    return split(0, F[0])


@lru_cache(maxsize=None)
def brute_bracket(expr, F):
    """Membership of the sorted tuple F in a family expression built from
    S(a), BR(M,N) and POW(M,k), straight from the definition: F lies in
    M[N] when some split of F into successive nonempty runs
    F_1 < ... < F_k, each in N, has a witness (m_1, ..., m_k) in M with
    max F_{i-1} < m_i <= min F_i.  Every split and every witness is
    tried; POW(M,1) is M and POW(M,k) is M[POW(M,k-1)].  Uses neither the
    library's cursor nor Family.member."""
    if isinstance(expr, Schreier):
        return brute_schreier(expr.alpha, F)
    if isinstance(expr, Power):
        if expr.n == 1:
            return brute_bracket(expr.base, F)
        outer, inner = expr.base, Power(expr.base, expr.n - 1)
    else:
        assert isinstance(expr, Bracket), expr
        outer, inner = expr.outer, expr.inner
    if not F:
        return True
    for cuts in itertools.product((0, 1), repeat=len(F) - 1):
        runs = [[F[0]]]
        for e, c in zip(F[1:], cuts):
            if c:
                runs.append([e])
            else:
                runs[-1].append(e)
        runs = [tuple(r) for r in runs]
        if not all(brute_bracket(inner, r) for r in runs):
            continue
        gaps = [range((runs[i - 1][-1] if i else 0) + 1, runs[i][0] + 1)
                for i in range(len(runs))]
        if any(brute_bracket(outer, w) for w in itertools.product(*gaps)):
            return True
    return False


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


def implicit_norm_oracle(pairs, levels):
    """Norm of the vector with the given (index, value) pairs in the mixed
    Tsirelson space with (membership, theta) levels, by recursion over the
    restrictions to subsets of the support, smallest subsets first:
    ||x|A|| is the larger of max |x_i| over A and theta times the sum of
    ||x|E_k|| over successive E_1 < ... < E_m inside A with admissible
    minima.  The one family {A} is left out, since theta * ||x|A|| is
    never the larger value.  Independent of the DP and of the cursor."""
    mag = {i: abs(v) for i, v in pairs}
    val = {}
    for r in range(1, len(mag) + 1):
        for A in itertools.combinations(sorted(mag), r):
            best = max(mag[i] for i in A)
            for pieces in successive_partitions(A):
                if pieces == [A]:
                    continue
                minima = tuple(p[0] for p in pieces)
                total = sum(val[p] for p in pieces)
                for member, theta in levels:
                    if theta * total > best and member(minima):
                        best = theta * total
            val[A] = best
    return val[tuple(sorted(mag))]


def disjoint_families(elems):
    """Every family of pairwise disjoint nonempty subsets of the sorted
    elems, the empty family included, as lists of sorted tuples: the first
    element is left out, put alone or put in front of a piece of a family
    of the rest."""
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for family in disjoint_families(rest):
        yield family
        yield [(first,)] + family
        for k in range(len(family)):
            yield family[:k] + [(first,) + family[k]] + family[k + 1:]


def allowable_oracle(pairs, alpha, oracle):
    """sup of the sums of the piece norms over the families of pairwise
    disjoint nonempty subsets of the support of the vector with the given
    (index, value) pairs whose sorted minima pass brute_schreier; `oracle`
    norms a plain list of pairs.  Uses neither the cursor nor the DP."""
    x = dict(pairs)
    piece_norm = lru_cache(maxsize=None)(
        lambda piece: oracle([(i, x[i]) for i in piece]))
    return max(sum(piece_norm(p) for p in family)
               for family in disjoint_families(tuple(sorted(x)))
               if family and brute_schreier(alpha, tuple(sorted(p[0] for p in family))))


# Finite trees of sequences, the oracle for the branch lists of block trees
# and for the member fold of `tree order`.  A tree is stored as its set of
# nonempty nodes (finite sequences closed under initial segments); the
# empty sequence is always implicitly present as the root and is not
# counted by the order.


@dataclass(frozen=True)
class FiniteTree:
    """Prefix-closed set of nonempty finite sequences."""

    nodes: frozenset = frozenset()

    def __post_init__(self):
        for t in self.nodes:
            if not isinstance(t, tuple) or len(t) == 0:
                raise TreeError("nodes must be nonempty tuples, got %r" % (t,))
            if len(t) > 1 and t[:-1] not in self.nodes:
                raise TreeError("not prefix-closed at %r" % (t,))

    @classmethod
    def from_sequences(cls, seqs):
        """Tree generated by the given sequences (prefix closure taken)."""
        seqs = [tuple(s) for s in seqs]
        return cls(frozenset(s[:k] for s in seqs for k in range(1, len(s) + 1)))

    @classmethod
    def chain(cls, labels):
        return cls.from_sequences([tuple(labels)])

    def is_empty(self):
        return not self.nodes

    def branches(self):
        """Maximal nodes, sorted for determinism."""
        parents = {u[:-1] for u in self.nodes}
        out = [t for t in self.nodes if t not in parents]
        try:
            return sorted(out)
        except TypeError:
            return sorted(out, key=repr)

    def __len__(self):
        return len(self.nodes)

    def __contains__(self, t):
        return tuple(t) in self.nodes


def derivative(tree):
    """Remove the maximal nodes: D(T) = {t : t extends to a longer node}."""
    kept = frozenset(t[:-1] for t in tree.nodes if len(t) >= 2)
    return FiniteTree(kept)


def order(tree):
    """Least k with D^k(T) = {t[:-k] : |t| > k} empty: the longest node's length."""
    return max(map(len, tree.nodes), default=0)


def family_as_tree(fam, universe_max):
    """Members of the family within {1..universe_max}, each viewed as its
    increasing enumeration; the empty set maps to the (uncounted) root."""
    seqs = [tuple(sorted(F)) for F in fam.enumerate(universe_max) if F]
    return FiniteTree.from_sequences(seqs)


@lru_cache(maxsize=2)
def _listing(family, universe_max):
    """A family's members within a universe, kept while a test compares
    many `other` families against it."""
    return family.enumerate(universe_max)


def escape_by_listing(family, other, universe_max):
    """The largest minimum of a nonempty member of the regular `family`
    within {1..universe_max} that the regular `other` does not hold, 0
    when there is none, by listing family's members and feeding each to
    other's cursor past schreier_member's cache.  The listing is
    lexicographic, so read backwards the minima never rise and the first
    member outside `other` has the largest."""
    members = _listing(family, universe_max)
    return next((F[0] for F in reversed(members)
                 if F and not schreier_member.__wrapped__(other._key, F)), 0)


def tail_by_listing(A, B, universe_max):
    """tail_domination(A, B, universe_max) for two regular families by
    listing B's members."""
    n0 = 1 + escape_by_listing(B, A, universe_max)
    return n0 if n0 <= universe_max else None


def least_power_by_listing(alpha, a, cap, universe_max):
    """The least n <= cap with every nonempty member of S_alpha within
    {1..universe_max} in POW(S_a, n), POW(S_a, 1) being S_a, by listing
    S_alpha's members; None where there is none."""
    family = Schreier(alpha)
    return next((n for n in range(1, cap + 1)
                 if not escape_by_listing(family, Power(Schreier(a), n),
                                          universe_max)), None)


def dual_lower_by_patterns(space, phi):
    """The lower end of the dual bounds of a nonzero phi with each
    sign-pattern witness xw normed on its own: the best phi(xw) / ||xw||
    over spaces._sign_patterns(phi).  In c0 and l1 it is the exact dual
    norm (the sum and the max of the |phi_i|)."""
    return max(phi.pair(xw) / norm(space, xw) for xw in _sign_patterns(phi))
