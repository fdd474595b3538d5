"""Exact evaluation of computable norms on finitely supported vectors.

Base norms (l1, c0), Tsirelson-type implicit norms T(S_a, theta), mixed
Tsirelson and Schlumprecht norms, the derived interval-count norms and
associated admissible/allowable norms, and two-sided dual-norm bounds.

Everything runs in exact rational arithmetic except the Schlumprecht
norm, whose 1/log2(k+1) weights force floats.

The partition suprema (the implicit norms, the derived norms and the
dual bounds) all run on one max-plus dynamic program over cut points,
:class:`_Partitions`.  For bimonotone 1-unconditional norms the
supremum over admissible successive sets is attained on gap-free
partitions of the interval support whose piece minima are support
points (enlarging a piece to the right never decreases its norm and
never changes its minimum; an initial segment of the support may be
dropped).  Admissibility of the chosen minima is tracked with the
Schreier cursor from :mod:`schreierlab.families`, whose states are
canonical for the number of support points still to come, so no state is
built whose budget already covers them all.  The cursor's state ids come
from :mod:`schreierlab.families`, which interns the states as ints, so
the memo keys are int triples.  "At most n pieces" is itself such a
cursor: S_1 after reading n, which allows n - 1 further blocks of
singletons.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .families import (_ONE, ResourceBoundError, _cursor_advance,
                       _cursor_start, _cursor_step)
from .ordinal import Ordinal

__all__ = [
    "SpaceError",
    "FsVector",
    "C0",
    "L1",
    "Tsirelson",
    "MixedTsirelson",
    "Schlumprecht",
    "Derived",
    "parse_space",
    "norm",
    "norm_n",
    "assoc_norm",
    "dual_norm",
    "dual_assoc_norm",
    "primal_from_dual",
    "Bounds",
]

SUPPORT_BOUND = 256
ALLOWABLE_SUPPORT_BOUND = 20
PATTERN_BOUND = 12  # largest support whose sign patterns the dual bounds try


class SpaceError(ValueError):
    pass


class SupportBoundError(ResourceBoundError, SpaceError):
    """A support-size bound was exceeded: a resource bound (exit 65 on the
    command line) that is also a SpaceError."""


# ---------------------------------------------------------------------------
# Vectors
# ---------------------------------------------------------------------------


def _coerce(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, str)):
        return Fraction(v)
    if isinstance(v, float):
        return v
    raise SpaceError("unsupported coefficient %r" % (v,))


@dataclass(frozen=True)
class FsVector:
    """Finitely supported vector: sorted (index, value) pairs, no zeros.

    :meth:`from_pairs` coerces each value once (int and str to Fraction;
    Fraction and float are kept).  ``+`` merges the entries without
    coercing them again and drops zeros.  Every result is validated."""

    entries: tuple = ()

    def __post_init__(self):
        if not self.entries:
            return
        idx, vals = zip(*self.entries)
        if idx[0] < 1 or not all(map(operator.lt, idx, idx[1:])):
            raise SpaceError("indices must be strictly increasing positive naturals")
        if not all(vals):
            raise SpaceError("zero coefficients must not be stored")

    @classmethod
    def from_pairs(cls, pairs):
        coerced = ((i, _coerce(v)) for i, v in pairs)
        return cls(tuple(sorted(p for p in coerced if p[1])))

    @classmethod
    def basis(cls, i):
        return cls(((i, Fraction(1)),))

    @classmethod
    def indicator(cls, indices, value=Fraction(1)):
        value = _coerce(value)
        return cls.from_pairs((i, value) for i in indices)

    @classmethod
    def average(cls, indices):
        indices = sorted(indices)
        if not indices:
            raise SpaceError("the average of an empty index set is undefined")
        return cls.indicator(indices, Fraction(1, len(indices)))

    # -- views ----------------------------------------------------------

    @property
    def support(self):
        return tuple(i for i, _ in self.entries)

    @property
    def values(self):
        return tuple(v for _, v in self.entries)

    def is_zero(self):
        return not self.entries

    def min_support(self):
        return self.entries[0][0]

    def max_support(self):
        return self.entries[-1][0]

    def interval_support(self):
        if self.is_zero():
            raise SpaceError("zero vector has no interval support")
        return (self.min_support(), self.max_support())

    def __getitem__(self, i):
        for j, v in self.entries:
            if j == i:
                return v
        return Fraction(0)

    # -- algebra --------------------------------------------------------

    def scale(self, c):
        c = _coerce(c)
        if c == 0:
            return FsVector()
        return FsVector(tuple((i, v * c) for i, v in self.entries))

    def __add__(self, other):
        acc = dict(self.entries)
        for i, v in other.entries:
            acc[i] = acc.get(i, 0) + v
        return FsVector(tuple(sorted(p for p in acc.items() if p[1])))

    def __sub__(self, other):
        return self + other.scale(-1)

    def restrict(self, indices):
        """Restriction to a set of indices (iterable) or an (lo, hi) pair."""
        if isinstance(indices, tuple) and len(indices) == 2 and all(
                isinstance(t, int) for t in indices):
            lo, hi = indices
            keep = lambda i: lo <= i <= hi
        else:
            s = set(indices)
            keep = lambda i: i in s
        return FsVector(tuple((i, v) for i, v in self.entries if keep(i)))

    def pair(self, other):
        """Duality pairing sum_i self_i * other_i."""
        d = dict(other.entries)
        return sum((v * d[i] for i, v in self.entries if i in d), Fraction(0))

    def to_json(self):
        return [[i, str(v) if isinstance(v, Fraction) else v] for i, v in self.entries]

    def __str__(self):
        return " + ".join("%s*e%d" % (v, i) for i, v in self.entries) or "0"


# ---------------------------------------------------------------------------
# Space descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class C0:
    def __str__(self):
        return "C0"


@dataclass(frozen=True)
class L1:
    def __str__(self):
        return "L1"


@dataclass(frozen=True)
class Tsirelson:
    alpha: Ordinal
    theta: Fraction

    def __post_init__(self):
        if not (0 < self.theta < 1):
            raise SpaceError("theta must lie in (0,1)")

    def __str__(self):
        return "T(S(%s),%s)" % (self.alpha, self.theta)


@dataclass(frozen=True)
class MixedTsirelson:
    levels: tuple  # of (alpha, theta)

    def __str__(self):
        return "MT[%s]" % ",".join("(S(%s),%s)" % (a, t) for a, t in self.levels)


@dataclass(frozen=True)
class Schlumprecht:
    def __str__(self):
        return "SCHL"


@dataclass(frozen=True)
class Derived:
    base: object
    kind: tuple  # ("nn", n) | ("assoc", alpha, "admissible"|"allowable")

    def __str__(self):
        if self.kind[0] == "nn":
            return "NN(%s,%d)" % (self.base, self.kind[1])
        variant = "adm" if self.kind[2] == "admissible" else "allow"
        return "ASSOC(%s,S(%s),%s)" % (self.base, self.kind[1], variant)


def space_mode(space):
    if isinstance(space, Schlumprecht):
        return "float"
    if isinstance(space, Derived):
        return space_mode(space.base)
    return "exact"


def parse_space(text):
    from .ordinal import parse as parse_ordinal

    text = text.strip().replace(" ", "")

    def expr(s, i):
        if s.startswith("C0", i):
            return C0(), i + 2
        if s.startswith("L1", i):
            return L1(), i + 2
        if s.startswith("SCHL", i):
            return Schlumprecht(), i + 4
        if s.startswith("T(S(", i):
            j = s.index(")", i + 4)
            alpha = parse_ordinal(s[i + 4:j])
            k = s.index(")", j + 1)
            theta = Fraction(s[j + 2:k])
            return Tsirelson(alpha, theta), k + 1
        if s.startswith("MT[", i):
            j = s.index("]", i)
            body = s[i + 3:j]
            levels = []
            for part in body.replace("),(", ")|(").split("|"):
                part = part.strip("()")
                fam_part, theta_part = part.rsplit(",", 1)
                alpha = parse_ordinal(fam_part[2:-1])
                levels.append((alpha, Fraction(theta_part)))
            return MixedTsirelson(tuple(levels)), j + 1
        if s.startswith("NN(", i):
            base, i2 = expr(s, i + 3)
            j = s.index(")", i2)
            return Derived(base, ("nn", int(s[i2 + 1:j]))), j + 1
        if s.startswith("ASSOC(", i):
            base, i2 = expr(s, i + 6)
            if not s.startswith(",S(", i2):
                raise SpaceError("expected ,S(<ordinal>) in ASSOC")
            j = s.index(")", i2 + 3)
            alpha = parse_ordinal(s[i2 + 3:j])
            tail = s[j + 1:]
            if tail.startswith(",adm)"):
                variant, end = "admissible", j + 6
            elif tail.startswith(",allow)"):
                variant, end = "allowable", j + 8
            else:
                raise SpaceError("expected ,adm) or ,allow) in ASSOC")
            return Derived(base, ("assoc", alpha, variant)), end
        raise SpaceError("cannot parse space descriptor at %r" % s[i:])

    try:
        sp, end = expr(text, 0)
    except SpaceError:
        raise
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        raise SpaceError("malformed space descriptor %r: %s" % (text, exc))
    if end != len(text):
        raise SpaceError("trailing input in space descriptor %r" % text[end:])
    return sp


# ---------------------------------------------------------------------------
# Norm evaluation
# ---------------------------------------------------------------------------


class _Partitions:
    """The one max-plus dynamic program behind every partition supremum.

    Positions index the support points sp; piece(i, j) is the value of
    the piece over positions [i..j].  A chain is a gap-free partition of
    [l..j] into successive pieces whose minima are fed to a Schreier
    cursor, the first piece starting at l with the cursor in `state`
    after reading sp[l].  Each caller keeps its own start rule: any start
    position for admissible sums, position 0 for at most n pieces, at
    least two pieces for the implicit norms.  The rules are not
    interchangeable, since dual lower bounds are not monotone under
    interval inclusion once a piece exceeds PATTERN_BOUND."""

    def __init__(self, sp, piece):
        self.sp = sp
        self.piece = piece
        self._chain = {}

    def chain(self, l, state, j):
        """Best piece-sum over chains of [l..j] (one piece or more)."""
        key = (l, state, j)
        if key in self._chain:
            return self._chain[key]
        best = self.cut(l, state, j, self.piece(l, j))
        self._chain[key] = best
        return best

    def cut(self, l, state, j, best):
        """max(best, best piece-sum over chains of [l..j] with at least
        two pieces)."""
        sp, piece = self.sp, self.piece
        for m in range(l + 1, j + 1):
            for s2 in _cursor_advance(state, sp[m], j - m):
                v = piece(l, m - 1) + self.chain(m, s2, j)
                if v > best:
                    best = v
        return best

    def admissible(self, alpha):
        """sup over alpha-admissible chains of a tail [l..end] of the
        support (an initial segment may be dropped)."""
        last = len(self.sp) - 1
        out = None
        for l in range(last + 1):
            for s in _cursor_start(alpha, self.sp[l], last - l):
                v = self.chain(l, s, last)
                if out is None or v > out:
                    out = v
        return out

    def at_most(self, n):
        """sup over chains of the whole support with at most n pieces: an
        S_1 cursor that has read n allows n - 1 further cuts."""
        last = len(self.sp) - 1
        (budget,) = _cursor_start(_ONE, n, last)
        return self.chain(0, budget, last)


class _Evaluator(_Partitions):
    """Per-vector memoized evaluator for one implicit-norm space; its
    pieces are its own segment norms."""

    def __init__(self, space, x):
        if len(x.entries) > SUPPORT_BOUND:
            raise SupportBoundError("support %d exceeds bound %d"
                                    % (len(x.entries), SUPPORT_BOUND))
        self.space = space
        self.sp = x.support
        self.vals = x.values
        self.float_mode = space_mode(space) == "float"
        self._seg = {}
        self._chain = {}
        self._count = {}

    # segment [i..j] in support-point positions, inclusive
    def seg_norm(self, i, j):
        key = (i, j)
        if key in self._seg:
            return self._seg[key]
        peak = max(abs(self.vals[t]) for t in range(i, j + 1))
        best = peak
        space = self.space
        if isinstance(space, Tsirelson):
            v = space.theta * self.split_admissible(i, j, space.alpha)
            if v > best:
                best = v
        elif isinstance(space, MixedTsirelson):
            for alpha, theta in space.levels:
                v = theta * self.split_admissible(i, j, alpha)
                if v > best:
                    best = v
        elif isinstance(space, Schlumprecht):
            best = float(best)
            for k in range(2, j - i + 2):
                v = self.split_exact_count(i, j, k) / math.log2(k + 1)
                if v > best:
                    best = v
        else:
            raise SpaceError("seg_norm only for implicit-norm spaces")
        self._seg[key] = best
        return best

    # a class attribute, not an instance one: no reference cycle keeps
    # the memos alive after the evaluator's last use
    piece = seg_norm

    # best sum over >= 2 admissible pieces inside [i..j]; first piece may
    # start after i (dropped prefix), pieces are gap-free afterwards
    def split_admissible(self, i, j, alpha):
        best = Fraction(0) if not self.float_mode else 0.0
        for l in range(i, j):  # second cut must exist, so l < j
            for s in _cursor_start(alpha, self.sp[l], j - l):
                best = self.cut(l, s, j, best)
        return best

    # best sum over exactly k successive pieces covering [i..j]
    def split_exact_count(self, i, j, k):
        key = (i, j, k)
        if key in self._count:
            return self._count[key]
        if k == 1:
            r = self.seg_norm(i, j)
        elif k > j - i + 1:
            r = -math.inf if self.float_mode else None
        else:
            r = None
            for m in range(i + 1, j + 1):
                tail = self.split_exact_count(m, j, k - 1)
                if tail is None:
                    continue
                v = self.seg_norm(i, m - 1) + tail
                if r is None or v > r:
                    r = v
            if r is None and self.float_mode:
                r = -math.inf
        self._count[key] = r
        return r


def norm(space, x):
    """Norm of x in the given space (exact Fraction unless float mode)."""
    if isinstance(space, Derived):
        kind = space.kind
        if kind[0] == "nn":
            return norm_n(space.base, kind[1], x)
        return assoc_norm(space.base, kind[1], x, kind[2])
    if x.is_zero():
        return Fraction(0) if space_mode(space) == "exact" else 0.0
    if isinstance(space, C0):
        vals = x.values
        return max(max(vals), -min(vals))
    if isinstance(space, L1):
        return sum(abs(v) for v in x.values)
    ev = _Evaluator(space, x)
    return ev.seg_norm(0, len(x.entries) - 1)


# ---------------------------------------------------------------------------
# Derived norms
# ---------------------------------------------------------------------------


def _partitions(space, x):
    """Partition engine over x's support points whose pieces are base
    norms of restrictions of x to intervals.

    For implicit-norm spaces the evaluator itself is used: the norm of a
    restriction to an interval equals its segment norm, and its chains
    are the same quantities, so the memos are shared."""
    if isinstance(space, (Tsirelson, MixedTsirelson, Schlumprecht)):
        return _Evaluator(space, x)
    sp = x.support
    memo = {}

    def piece(i, j):
        key = (i, j)
        if key not in memo:
            memo[key] = norm(space, x.restrict((sp[i], sp[j])))
        return memo[key]

    return _Partitions(sp, piece)


def norm_n(space, n, y):
    """sup of sums of piece norms over at most n successive intervals."""
    if n < 1:
        raise SpaceError("interval count must be >= 1")
    if y.is_zero():
        return norm(space, y)
    # dropping never helps for bimonotone norms, so pieces tile the support
    return _partitions(space, y).at_most(n)


def assoc_norm(space, alpha, x, variant="admissible"):
    """Associated norm: sup of piece-norm sums over alpha-admissible
    successive intervals (or alpha-allowable disjoint sets)."""
    if isinstance(alpha, int):
        alpha = Ordinal.from_int(alpha)
    if x.is_zero():
        return norm(space, x)
    if variant == "allowable":
        return _assoc_allowable(space, alpha, x)
    if variant != "admissible":
        raise SpaceError("variant must be admissible or allowable")
    return _partitions(space, x).admissible(alpha)


def _assoc_allowable(space, alpha, x):
    """Exhaustive search over families of pairwise disjoint pieces whose
    minima form an S_alpha set.  Exponential; guarded by support size."""
    sp = x.support
    P = len(sp)
    if P > ALLOWABLE_SUPPORT_BOUND:
        raise SupportBoundError("allowable variant limited to support <= %d"
                                % ALLOWABLE_SUPPORT_BOUND)
    best = [norm(space, x.restrict(((sp[0]), sp[-1])))]  # single piece floor

    def value(pieces):
        return sum((norm(space, x.restrict(p)) for p in pieces),
                   Fraction(0) if space_mode(space) == "exact" else 0.0)

    def rec(pos, pieces, states):
        if pos == P:
            if pieces:
                v = value(pieces)
                if v > best[0]:
                    best[0] = v
            return
        e = sp[pos]
        rec(pos + 1, pieces, states)  # drop this support point
        for k in range(len(pieces)):  # join an existing piece
            pieces[k].append(e)
            rec(pos + 1, pieces, states)
            pieces[k].pop()
        # open a new piece with minimum e
        nxt = _cursor_step(alpha, states, e, P - 1 - pos)
        if nxt:
            pieces.append([e])
            rec(pos + 1, pieces, nxt)
            pieces.pop()

    rec(0, [], None)
    return best[0]


# ---------------------------------------------------------------------------
# Dual norms: certified two-sided bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bounds:
    lower: object
    upper: object

    @property
    def exact(self):
        return self.lower == self.upper

    def __add__(self, other):
        return Bounds(self.lower + other.lower, self.upper + other.upper)

    def scale(self, c):
        return Bounds(self.lower * c, self.upper * c)

    def to_json(self):
        fmt = lambda v: str(v) if isinstance(v, Fraction) else v
        return {"lower": fmt(self.lower), "upper": fmt(self.upper), "exact": self.exact}


def _section_of(phi, section):
    if section is not None:
        return section
    if phi.is_zero():
        return (1, 1)
    return phi.interval_support()


def dual_norm(space, phi, section=None):
    """Bounds on the dual norm of phi over a finite section.

    Exact for c0 (dual l1) and l1 (dual linf).  Otherwise: certified
    lower bound from witness vectors (sign patterns over subsets of the
    support, basis vectors), upper bound sum|phi_i| (valid since the
    basis is bimonotone and normalized).
    """
    if phi.is_zero():
        z = Fraction(0)
        return Bounds(z, z)
    if isinstance(space, C0):
        v = sum(abs(c) for c in phi.values)
        return Bounds(v, v)
    if isinstance(space, L1):
        v = max(abs(c) for c in phi.values)
        return Bounds(v, v)
    lo, hi = _section_of(phi, section)
    sub = phi.restrict((lo, hi))
    if sub.is_zero():
        z = Fraction(0)
        return Bounds(z, z)
    upper = sum(abs(c) for c in sub.values)
    lower = Fraction(0)
    supp = sub.support
    if len(supp) <= PATTERN_BOUND:
        import itertools
        for r in range(1, len(supp) + 1):
            for S in itertools.combinations(supp, r):
                xw = FsVector.from_pairs(
                    (i, 1 if sub[i] >= 0 else -1) for i in S)
                ratio = sub.pair(xw) / norm(space, xw)
                if ratio > lower:
                    lower = ratio
    else:
        for i in supp:
            v = abs(sub[i])
            if v > lower:
                lower = v
    return Bounds(lower, upper)


def dual_assoc_norm(space, phi, n=None, alpha=None, variant="admissible",
                    section=None):
    """Bounds on the derived dual norm: outer sup over interval partitions
    (count-limited for the n-variant, admissible for the alpha-variant)
    of sums of per-piece dual norms."""
    if (n is None) == (alpha is None):
        raise SpaceError("give exactly one of n and alpha")
    if isinstance(alpha, int):
        alpha = Ordinal.from_int(alpha)
    if phi.is_zero():
        z = Fraction(0)
        return Bounds(z, z)
    lo, hi = _section_of(phi, section)
    sub = phi.restrict((lo, hi))
    if sub.is_zero():
        z = Fraction(0)
        return Bounds(z, z)
    sp = sub.support
    piece_bounds = {}

    def piece(i, j):
        if (i, j) not in piece_bounds:
            piece_bounds[(i, j)] = dual_norm(space, sub.restrict((sp[i], sp[j])))
        return piece_bounds[(i, j)]

    def run(side):
        dp = _Partitions(sp, lambda i, j: getattr(piece(i, j), side))
        return dp.at_most(n) if n is not None else dp.admissible(alpha)

    if variant == "allowable":
        raise SpaceError("allowable dual bounds are not implemented")
    return Bounds(run("lower"), run("upper"))


def minimax_admissible_cover(space, x, alpha):
    """min over alpha-admissible gap-free covers of supp x of the largest
    piece norm; the first piece must start at min supp.  This min-max
    fold is the one partition program not run on :class:`_Partitions`."""
    if isinstance(alpha, int):
        alpha = Ordinal.from_int(alpha)
    sp = x.support
    P = len(sp)
    piece = _partitions(space, x).piece
    memo = {}

    def cover(l, state):
        key = (l, state)
        if key in memo:
            return memo[key]
        best = piece(l, P - 1)
        for m in range(l + 1, P):
            for s2 in _cursor_advance(state, sp[m], P - 1 - m):
                v = max(piece(l, m - 1), cover(m, s2))
                if v < best:
                    best = v
        memo[key] = best
        return best

    out = None
    for s in _cursor_start(alpha, sp[0], P - 1):
        v = cover(0, s)
        if out is None or v < out:
            out = v
    return out


def primal_from_dual(space, x, n=None, alpha=None, variant="admissible",
                     candidates=None, section=None):
    """Bounds on the dual-derived primal norm sup{phi(x): derived dual
    norm of phi <= 1}.

    Lower bound: phi(x)/upper(|phi|*) over candidate functionals (sign
    patterns on the support plus any caller-supplied functionals).
    Upper bound: the base norm of x, refined for the alpha-variant by the
    min-max admissible-cover bound.
    """
    if x.is_zero():
        z = Fraction(0)
        return Bounds(z, z)
    cands = []
    supp = x.support
    if len(supp) <= PATTERN_BOUND:
        import itertools
        for r in range(1, len(supp) + 1):
            for S in itertools.combinations(supp, r):
                cands.append(FsVector.from_pairs(
                    (i, 1 if x[i] >= 0 else -1) for i in S))
    else:
        cands.extend(FsVector.basis(i) for i in supp)
    if candidates:
        cands.extend(candidates)
    lower = Fraction(0)
    for phi in cands:
        v = phi.pair(x)
        if v <= 0:
            continue
        db = dual_assoc_norm(space, phi, n=n, alpha=alpha, variant=variant,
                             section=section)
        if db.upper > 0:
            r = v / db.upper
            if r > lower:
                lower = r
    upper = norm(space, x)
    if alpha is not None:
        cover = minimax_admissible_cover(space, x, alpha)
        if cover < upper:
            upper = cover
    return Bounds(lower, upper)
