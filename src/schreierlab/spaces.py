"""Exact evaluation of computable norms on finitely supported vectors.

Base norms (l1, c0), mixed Tsirelson and Schlumprecht norms, the derived
interval-count norms and associated admissible/allowable norms, and
two-sided dual-norm bounds.  The Tsirelson-type space T(S_a, theta) is
the mixed Tsirelson space with the one level (a, theta): a
:class:`Tsirelson` is a :class:`MixedTsirelson` that prints as T(...).

Every answer is exact (a Fraction) except in float mode: the
Schlumprecht norm, whose 1/log2(k+1) weights force floats, and vectors
with a float coefficient.  Inside, the implicit norms run on Python ints
over one common denominator per vector, Q = D * L**(k-1), where D is the
lcm of the denominators of the vector's k values and L that of the
space's theta denominators.  A theta step p/q is ``p * v // q``, exact
because every piece of a split is strictly shorter than the segment it
splits: a segment of m points nests at most m - 1 theta steps, so its
scaled value stays a multiple of L**(k-m).  One Fraction(v, Q) is built
where a value leaves the evaluator (``unscale``).  A scan that norms many
sums of disjoint blocks (:class:`_BlockSums`) uses one Q per scan
instead, so that its sums can share segment values.

The partition programs (the implicit norms, the derived norms, the
dual bounds and the min-max cover) all run on one dynamic program over
cut points, :class:`_Partitions`; the cover only folds its cuts by
min-max instead of max-plus (:class:`_Cover`); a derived norm is a
program over its base's one engine on the vector.  Each end of a dual
bound is one rule, and each end of a derived dual bound one program
over that rule's piece values (:func:`_partitions`), so a caller that
reads one end computes only that end; outside l1 the upper end of exact
values is sum |phi_i| with no program, since its pieces add up.  The
sign-pattern witnesses of one dual call are normed once each, through
one block-sum scan.  For bimonotone 1-unconditional
norms the supremum over admissible successive sets is attained on
gap-free partitions of the interval support whose piece minima are
support points (enlarging a piece to the right never decreases its norm
and never changes its minimum; an initial segment of the support may be
dropped).  Admissibility of the chosen minima is tracked with the
Schreier cursor from :mod:`schreierlab.families`, whose states are
canonical for the number of support points still to come, so no state is
built whose budget already covers them all.  The cursor's state ids come
from :mod:`schreierlab.families`, which interns the states as ints, so
the memo keys are int triples.  "At most n pieces" is itself such a
cursor: S_1 after reading n, which allows n - 1 further blocks of
singletons.  Every admissible sum, the implicit norms' splits of their
segments included, reads one split: a suffix maximum over the starts of
the first piece, stored per start, so each (start, cursor state, end) is
cut once: O(k**3) cut steps per k-point vector, not O(k**4).

In exact mode a segment's norm is at most the sum of its magnitudes
(by induction: its peak is, each piece of a split is at most its own
sum, and ``p * v // q <= v`` since every theta lies in (0, 1)), and a
one-point segment's norm is its magnitude.  From the cursor's accept-all
state FREE every partition of the rest of a segment is admissible, so the
best chain there is all singletons: a suffix sum of the magnitudes, read
from their prefix sums without cutting.

Space descriptors are read by the reader of family descriptors,
:func:`schreierlab.families.read_descriptor`, and :func:`parse_space`
dispatches on the head and argument count it returns.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .families import (_FREE_ID, _ONE, ResourceBoundError, _cursor_advance,
                       _cursor_start, _maximal, _walk, read_descriptor)
from .ordinal import Ordinal
from .ordinal import parse as parse_ordinal

__all__ = [
    "SpaceError",
    "FsVector",
    "C0",
    "L1",
    "Tsirelson",
    "MixedTsirelson",
    "Schlumprecht",
    "Derived",
    "parse_rational",
    "parse_space",
    "norm",
    "norm_n",
    "assoc_norm",
    "dual_norm",
    "dual_assoc_norm",
    "primal_from_dual",
    "Bounds",
]

SUPPORT_BOUND = 72  # every built-in space answers within about 10 s (CHANGES.md)
SEGMENT_MEMO_BOUND = 2 ** 15  # a scan's segment values are cleared when full
ALLOWABLE_SUPPORT_BOUND = 10  # worst of 300 measured 10-point cases 0.76 s; 11 take up to 4 s
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
        """Restriction to a set of indices (any iterable of them)."""
        s = set(indices)
        return FsVector(tuple((i, v) for i, v in self.entries if i in s))

    def pair(self, other):
        """Duality pairing sum_i self_i * other_i."""
        d = dict(other.entries)
        return sum((v * d[i] for i, v in self.entries if i in d), Fraction(0))

    def to_json(self):
        return [[i, report_value(v)] for i, v in self.entries]

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
class MixedTsirelson:
    levels: tuple  # of (alpha, theta)

    def __post_init__(self):
        """Each alpha is read by Ordinal.of and each theta as a Fraction;
        no levels, an alpha that is neither an Ordinal nor an int, and a
        theta that is neither an int nor a Fraction, are refused."""
        levels = []
        for alpha, theta in self.levels:
            if not isinstance(alpha, (Ordinal, int)):
                raise SpaceError("alpha must be an Ordinal or an int, got %r"
                                 % (alpha,))
            if not isinstance(theta, (int, Fraction)):
                raise SpaceError("theta must be an int or a Fraction, got %r"
                                 % (theta,))
            levels.append((Ordinal.of(alpha), Fraction(theta)))
        if not levels:
            raise SpaceError("MT needs at least one level")
        if not all(0 < theta < 1 for _, theta in levels):
            raise SpaceError("theta must lie in (0,1)")
        object.__setattr__(self, "levels", tuple(levels))

    def __str__(self):
        return "MT[%s]" % ",".join("(S(%s),%s)" % (a, t) for a, t in self.levels)


class Tsirelson(MixedTsirelson):
    """T(S_alpha, theta), the mixed Tsirelson space with the one level
    (alpha, theta).  Equality compares classes, so it is not equal to the
    MT[...] descriptor of that level, and each prints as it is written."""

    def __init__(self, alpha, theta):
        super().__init__(((alpha, theta),))

    def __str__(self):
        return "T(S(%s),%s)" % self.levels[0]


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


def report_value(v):
    """A value as a report holds it: an exact Fraction as its "p/q"
    string, an int or a float as it is."""
    return str(v) if isinstance(v, Fraction) else v


def parse_rational(text):
    """The exact rational a text ("3", "-2/7", "0.25") or a JSON number
    denotes.  Exponent notation is refused: Fraction would expand
    "1e-99999999999" into a power of ten digit by digit."""
    text = str(text)
    if "e" in text.lower():
        raise SpaceError("%r: exponent notation is not accepted" % text)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SpaceError("bad rational %r" % text) from None


_ATOMS = {"C0": C0, "L1": L1, "SCHL": Schlumprecht}
_VARIANTS = {"adm": "admissible", "allow": "allowable"}


def parse_space(text):
    """The space a descriptor names, read by families.read_descriptor."""
    head, args = read_descriptor(text, SpaceError)
    try:
        match head, args:
            case name, [] if name in _ATOMS:
                return _ATOMS[name]()
            case "T(", [family, theta]:
                return Tsirelson(_alpha(family), parse_rational(theta))
            case "MT[", [_, *_]:
                return MixedTsirelson(tuple(map(_level, args)))
            case "NN(", [base, n]:
                return Derived(parse_space(base), ("nn", int(n)))
            case "ASSOC(", [base, family, variant] if variant in _VARIANTS:
                return Derived(parse_space(base), (
                    "assoc", _alpha(family), _VARIANTS[variant]))
    except (SpaceError, ResourceBoundError):
        raise
    except ValueError as exc:
        raise SpaceError("malformed space descriptor %r: %s" % (text, exc))
    raise SpaceError("cannot parse space descriptor %r" % text)


def _alpha(text):
    """The ordinal a of an S(a) argument."""
    head, args = read_descriptor(text, SpaceError)
    if head != "S(" or len(args) != 1:
        raise SpaceError("expected S(<ordinal>), got %r" % text)
    return parse_ordinal(args[0])


def _level(text):
    """The (alpha, theta) of an MT level (S(alpha),theta)."""
    head, args = read_descriptor(text, SpaceError)
    if head != "(" or len(args) != 2:
        raise SpaceError("expected (S(<ordinal>),theta), got %r" % text)
    return _alpha(args[0]), parse_rational(args[1])


# ---------------------------------------------------------------------------
# Norm evaluation
# ---------------------------------------------------------------------------


class _Partitions:
    """The one dynamic program behind every partition program, max-plus
    here and min-max in :class:`_Cover`.

    Positions index the support points sp; piece(i, j) >= 0 is the value
    of the piece over positions [i..j].  A chain is a gap-free partition of
    [l..j] into successive pieces whose minima are fed to a Schreier
    cursor, the first piece starting at l with the cursor in `state`
    after reading sp[l].  Two start rules cover every caller: position 0
    with an S_1 budget for at most n pieces (:meth:`at_most`), and any
    start for admissible sums (:meth:`admissible`), whose chains of two
    pieces or more are one suffix maximum over starts
    (:meth:`split_admissible`) that the implicit norms split their
    segments with too.  Each start is cut once per end, O(k**3) for a
    k-point vector, and no rule assumes anything of the piece values
    beyond their sign, with one exception: the exact evaluator, whose
    pieces are at most the sums of their magnitudes, sets the prefix
    sums `_pre` of those, and its chains from FREE are read from them."""

    _pre = None  # set by the exact evaluator only

    def __init__(self, sp, piece):
        self.sp = sp
        self.piece = piece
        self._chain = {}
        self._split = {}

    def unscale(self, v):
        """The value of a result of the program (identity for generic
        pieces; a derived space's engine unscales as its base's)."""
        return v

    def chain(self, l, state, j):
        """Best piece-sum over chains of [l..j] (one piece or more); with
        prefix sums, from FREE their suffix sum, neither cut nor stored."""
        key = (l, state, j)
        if key in self._chain:
            return self._chain[key]
        pre = self._pre
        if pre is not None and state == _FREE_ID:
            return pre[j + 1] - pre[l]
        best = self.cut(l, state, j, self.piece(l, j))
        self._chain[key] = best
        return best

    def cut(self, l, state, j, best):
        """max(best, best piece-sum over chains of [l..j] with at least
        two pieces)."""
        sp, piece, memo, pre = self.sp, self.piece, self._chain, self._pre
        # from FREE every partition is admissible, and the best is the
        # all-singletons one (module docstring); no id matches free = None
        free = None if pre is None else _FREE_ID
        if state == free:
            return max(best, pre[j + 1] - pre[l]) if j > l else best
        for m in range(l + 1, j + 1):
            for s2 in _cursor_advance(state, sp[m], j - m):
                if s2 == free:
                    c = pre[j + 1] - pre[m]
                else:
                    c = memo.get((m, s2, j))  # a hit skips the method call
                    if c is None:
                        c = self.chain(m, s2, j)
                v = piece(l, m - 1) + c
                if v > best:
                    best = v
        return best

    # best sum over >= 2 admissible pieces inside [i..j]; first piece may
    # start after i (dropped prefix), pieces are gap-free afterwards.  A
    # chain that starts at l does not depend on i, so the answer is a
    # suffix maximum over starts: split(i) = max(split(i + 1), chains from
    # i), stored for every start.  Walk up to the nearest stored start
    # (none at l = j, where no second cut exists), then fill back down.
    def split_admissible(self, i, j, alpha):
        memo = self._split
        l = i
        while l < j and (l, j, alpha) not in memo:
            l += 1
        best = memo.get((l, j, alpha), 0)
        while l > i:
            l -= 1
            for s in _cursor_start(alpha, self.sp[l], j - l):
                best = self.cut(l, s, j, best)
            memo[l, j, alpha] = best
        return best

    def admissible(self, alpha, i, j):
        """sup over alpha-admissible chains of a tail [l..j] of [i..j] (an
        initial segment may be dropped): the best single piece of a tail
        or the best split of [i..j]."""
        return max(max(self.piece(l, j) for l in range(i, j + 1)),
                   self.split_admissible(i, j, alpha))

    def at_most(self, n, i, j):
        """sup over chains of [i..j] with at most n pieces: an S_1 cursor
        that has read n allows n - 1 further cuts."""
        (budget,) = _cursor_start(_ONE, n, j - i)
        return self.chain(i, budget, j)


class _Cover(_Partitions):
    """The min-max fold on the same chains: chain(l, state, j) is the
    least largest piece over the chains of [l..j]."""

    def cut(self, l, state, j, best):
        """min(best, least largest piece over chains of [l..j] with at
        least two pieces)."""
        sp, piece = self.sp, self.piece
        for m in range(l + 1, j + 1):
            for s2 in _cursor_advance(state, sp[m], j - m):
                v = max(piece(l, m - 1), self.chain(m, s2, j))
                if v < best:
                    best = v
        return best


def _levels(space):
    """The (alpha, theta) levels of an implicit-norm space, () for any
    other space."""
    return space.levels if isinstance(space, MixedTsirelson) else ()


class _Evaluator(_Partitions):
    """Per-vector memoized evaluator for one implicit-norm space; its
    pieces are its own segment norms.

    In exact mode every value is an int, the true value times
    Q = D * L**(k-1) (module docstring).  The theta step ``p * v // q``
    is exact: by induction on m, the value of a segment of m points is
    a multiple of L**(k-m), since its peak |x_t| * Q is a multiple of
    L**(k-1), a split sums segments of at most m - 1 points (multiples
    of L**(k-m+1)) and q divides L; and m <= k.  Given a
    :class:`_BlockSums` scan, Q is the scan's and a segment missing from
    the evaluator's own memo is looked up in the scan's segment values
    before it is computed.  Float mode (the Schlumprecht space or a float
    coefficient) keeps scale 1 and multiplies by theta."""

    def __init__(self, space, x, scan=None):
        k = len(x.entries)
        if k > SUPPORT_BOUND:
            raise SupportBoundError("support", k, "SUPPORT_BOUND", SUPPORT_BOUND)
        self.space = space
        self.sp = x.support
        vals = x.values
        levels = _levels(space)
        self.float_mode = (space_mode(space) == "float"
                           or any(isinstance(v, float) for v in vals))
        if self.float_mode:
            self.mags = [abs(v) for v in vals]
            # (alpha, p, q) with theta = p / q; q is None when p is theta
            self.levels = [(alpha, theta, None) for alpha, theta in levels]
        else:
            if scan is None:
                L = math.lcm(*(theta.denominator for _, theta in levels))
                Q = math.lcm(*(v.denominator for v in vals)) * L ** (k - 1)
            else:
                Q = scan.Q
            self.Q = Q
            self.mags = tuple(abs(v.numerator) * (Q // v.denominator)
                              for v in vals)
            self.levels = [(alpha, theta.numerator, theta.denominator)
                           for alpha, theta in levels]
            self._pre = list(itertools.accumulate(self.mags, initial=0))
        self._shared = None if scan is None else scan.segments
        self._seg = {}
        self._chain = {}
        self._split = {}
        self._count = {}

    def unscale(self, v):
        return v if self.float_mode else Fraction(v, self.Q)

    # segment [i..j] in support-point positions, inclusive
    def seg_norm(self, i, j):
        key = (i, j)
        if key in self._seg:
            return self._seg[key]
        shared = self._shared
        if shared is not None:
            skey = self.sp[i:j + 1] + self.mags[i:j + 1]
            best = shared.get(skey)
            if best is not None:
                self._seg[key] = best
                return best
        best = max(self.mags[i:j + 1])
        if isinstance(self.space, Schlumprecht):
            best = float(best)
            for k in range(2, j - i + 2):
                v = self.split_exact_count(i, j, k) / math.log2(k + 1)
                if v > best:
                    best = v
        for alpha, p, q in self.levels:
            v = self.split_admissible(i, j, alpha)
            v = p * v if q is None else p * v // q
            if v > best:
                best = v
        self._seg[key] = best
        if shared is not None:
            if len(shared) >= SEGMENT_MEMO_BOUND:
                shared.clear()
            shared[skey] = best
        return best

    # a class attribute, not an instance one: no reference cycle keeps
    # the memos alive after the evaluator's last use
    piece = seg_norm

    # best sum over exactly k <= j - i + 1 successive pieces covering [i..j]
    def split_exact_count(self, i, j, k):
        key = (i, j, k)
        if key in self._count:
            return self._count[key]
        if k == 1:
            r = self.seg_norm(i, j)
        else:  # the first piece leaves k - 1 points or more to the rest
            r = max(self.seg_norm(i, m - 1) + self.split_exact_count(m, j, k - 1)
                    for m in range(i + 1, j + 3 - k))
        self._count[key] = r
        return r


def norm(space, x):
    """Norm of x in the given space (exact Fraction unless float mode)."""
    if not isinstance(space, (C0, L1, MixedTsirelson, Schlumprecht, Derived)):
        raise SpaceError("not a space: %r" % (space,))
    if isinstance(space, Derived):
        arg = _derived_arg(space)
        if x.is_zero():
            return norm(space.base, x)
        if space.kind[2:] == ("allowable",):
            return _assoc_allowable(space.base, arg, x)
    elif x.is_zero():
        return Fraction(0) if space_mode(space) == "exact" else 0.0
    if isinstance(space, C0):
        vals = x.values
        return max(max(vals), -min(vals))
    if isinstance(space, L1):
        return sum(abs(v) for v in x.values)
    dp = _partitions(space, x)
    return dp.unscale(dp.piece(0, len(x.entries) - 1))


class _BlockSums:
    """Norms of sums of disjoint successive blocks, for the scans that
    norm many of them: spreading checks, asymptoticity constants, block
    tree certificates, and the sign-pattern witnesses of one dual call
    (:func:`_dual_lower`), whose blocks are phi's signed coordinate
    vectors.

    `blocks` maps keys to nonzero blocks.  :meth:`norms` gives the norm
    of each sum times Q, :meth:`sum_norm` that of one sum a caller has
    built, and :meth:`value` the number that stands for.  No sum has more
    than k points.

    - C0 and L1, exact values: the blocks are disjoint, so the norm of a
      sum is the max (c0) or the sum (l1) of the block norms.  Each block
      is normed once, as an int over Q = D, the lcm of the blocks' value
      denominators, and a sum costs one max or sum of ints.
    - T and MT, exact values: each sum is normed by an :class:`_Evaluator`
      over Q = D * L**(k-1), a multiple of every sum's own Q, so scaled
      values stay exact; past SUPPORT_BOUND points no sum is normed.  The
      evaluators share one dict of segment values, keyed by a segment's
      points followed by its scaled magnitudes.  A segment's norm depends
      on nothing else: ``seg_norm(i, j)`` reads positions i..j, and each
      cursor's remaining count stays inside.  The dict is cleared at
      SEGMENT_MEMO_BOUND entries and dies with the scan.
    - Anything else (float values, the Schlumprecht space, `Derived`):
      the sum, the concatenation of its blocks' entries, is normed by
      :func:`norm`; Q = 1."""

    def __init__(self, space, blocks, k):
        self.space = space
        self.blocks = blocks
        self.Q, self.scaled, self.segments = 1, None, None
        levels = _levels(space)
        self.ints = (bool(levels) or isinstance(space, (C0, L1))) and not any(
            isinstance(v, float) for b in blocks.values() for v in b.values)
        if not self.ints:
            return
        D = math.lcm(*{v.denominator for b in blocks.values() for v in b.values})
        if levels:
            L = math.lcm(*(theta.denominator for _, theta in levels))
            self.Q = D * L ** (max(min(k, SUPPORT_BOUND), 1) - 1)
            self.segments = {}
        else:
            self.Q = D
            self.fold = max if isinstance(space, C0) else sum
            self.scaled = {key: self.fold(abs(v.numerator) * (D // v.denominator)
                                          for v in b.values)
                           for key, b in blocks.items()}

    def norms(self, key_tuples):
        """(keys, the norm of the sum of their blocks times Q) for each
        nonempty tuple of keys, given in increasing block order."""
        if self.scaled is not None:
            fold, get = self.fold, self.scaled.__getitem__
            for keys in key_tuples:
                if keys:
                    yield keys, fold(map(get, keys))
            return
        for keys in key_tuples:
            if keys:
                yield keys, self.sum_norm(FsVector(tuple(
                    itertools.chain.from_iterable(
                        self.blocks[key].entries for key in keys))))

    def sum_norm(self, x):
        """The norm times Q of x, a nonzero sum of blocks, in a scan that
        is not C0 or L1 on exact values (those read their block norms in
        :meth:`norms`)."""
        if self.segments is None:
            return norm(self.space, x)
        return _Evaluator(self.space, x, self).seg_norm(0, len(x.entries) - 1)

    def value(self, v):
        """The norm a result of the scan stands for."""
        return Fraction(v, self.Q) if self.ints else v


# ---------------------------------------------------------------------------
# Derived norms
# ---------------------------------------------------------------------------


def _partitions(space, x, rule=None):
    """Partition engine over x's support points whose piece (i, j) is
    rule(space, x on i..j), one end of the derived dual bounds, or with no
    rule the norm of x on positions i..j once unscaled: an implicit norm's
    evaluator, and for NN(base, n) or ASSOC(base, S_alpha, adm) a program
    over the base's one engine, reading its at_most or admissible on i..j."""
    base = None
    if rule is None:
        if isinstance(space, (MixedTsirelson, Schlumprecht)):
            return _Evaluator(space, x)
        if isinstance(space, Derived) and space.kind[2:] != ("allowable",):
            arg, base = _derived_arg(space), _partitions(space.base, x)
            read = base.at_most if space.kind[0] == "nn" else base.admissible
        rule = norm
    entries, memo = x.entries, {}

    def piece(i, j):  # a dict, not functools.cache: norm reads one piece
        if (i, j) not in memo:
            memo[i, j] = (rule(space, FsVector(entries[i:j + 1]))
                          if base is None else read(arg, i, j))
        return memo[i, j]

    dp = _Partitions(x.support, piece)
    if base is not None:
        dp.unscale = base.unscale
    return dp


def _derived_arg(space):
    """NN's n, at least 1, or ASSOC's alpha as an Ordinal, variant checked."""
    kind, arg = space.kind[:2]
    if kind == "nn":
        _count_or_alpha(arg, None)
        return arg
    if space.kind[2] not in ("admissible", "allowable"):
        raise SpaceError("variant must be admissible or allowable")
    return Ordinal.of(arg)


def norm_n(space, n, y):
    """sup of sums of piece norms over at most n successive intervals."""
    return norm(Derived(space, ("nn", n)), y)


def assoc_norm(space, alpha, x, variant="admissible"):
    """Associated norm: sup of piece-norm sums over alpha-admissible
    successive intervals (or alpha-allowable disjoint sets)."""
    return norm(Derived(space, ("assoc", Ordinal.of(alpha), variant)), x)


def _assoc_allowable(space, alpha, x):
    """Search over families of pairwise disjoint pieces whose minima form
    an S_alpha set G.  Every built-in norm is 1-unconditional (C0, L1, T,
    MT, SCHL, and the NN and ASSOC spaces, whose piece norms are), and two
    facts of such norms cut the search without lowering its supremum:

    - No point above min G need be left out: ||E x|| <= ||F x|| for E a
      subset of F, so a left-out point e > min G may join the piece of
      min G.
    - Only maximal G need be tried.  If G + {e} is an S_alpha set for a
      point e outside G, give e a piece {e} of its own, taking it out of
      the piece P that held it, if any.  The sum does not fall, since
      ||P x|| <= ||(P - {e}) x|| + ||e x||, and P - {e} keeps its minimum,
      which is below e.  Repeating this reaches a maximal G.

    So G runs over the maximal S_alpha sets inside the support, read by
    families._walk and families._maximal (G is never empty: every singleton
    is a member); every point e > min G outside G joins one of the pieces
    whose minimum is below e; the points below min G stay out.  Exponential;
    guarded by support size."""
    sp = x.support
    if len(sp) > ALLOWABLE_SUPPORT_BOUND:
        raise SupportBoundError("support of the allowable variant", len(sp),
                                "ALLOWABLE_SUPPORT_BOUND", ALLOWABLE_SUPPORT_BOUND)
    # one norm per piece
    piece_norm = functools.lru_cache(None)(lambda p: norm(space, x.restrict(p)))

    def sums(G):
        rest = [e for e in sp if e > G[0] and e not in G]
        for picks in itertools.product(*([m for m in G if m < e] for e in rest)):
            pieces = {m: (m,) for m in G}
            for e, m in zip(rest, picks):
                pieces[m] += (e,)
            yield sum(map(piece_norm, pieces.values()))

    return max(v for G in _maximal(list(_walk(alpha, sp)))
               for v in sums(G))


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

    def to_json(self):
        return {"lower": report_value(self.lower),
                "upper": report_value(self.upper), "exact": self.exact}


def _sign(v):
    """The sign a witness gives the coordinate of value v: 1 or -1."""
    return Fraction(1 if v >= 0 else -1)


def _sign_patterns(x):
    """The vectors sum of sign(x_i) e_i over i in S for the nonempty
    subsets S of supp x, smaller sets first, each size in combinations
    order; past PATTERN_BOUND points only the singletons."""
    sign = {i: _sign(v) for i, v in x.entries}
    sizes = range(1, len(sign) + 1) if len(sign) <= PATTERN_BOUND else (1,)
    for r in sizes:
        for S in itertools.combinations(sign, r):
            yield FsVector(tuple((i, sign[i]) for i in S))


def _dual_upper(space, phi):
    """Upper end of the dual bounds: max|phi_i| in l1 (exact), else
    sum|phi_i| (exact in c0, an upper bound wherever the basis is
    normalized and bimonotone)."""
    mags = [abs(v) for v in phi.values] or [Fraction(0)]
    return (max if isinstance(space, L1) else sum)(mags)


def _dual_lower(space, phi):
    """The lower-end rule of one dual call on phi: a rule, as
    :func:`_dual_upper` is one, for phi and its restrictions psi to
    intervals.  In c0 and l1, and for phi = 0, it is the exact upper end.
    Elsewhere it is the best phi(xw)/||xw|| over the sign-pattern
    witnesses xw of psi, which agree with phi in sign.

    The witnesses of every psi are sums of phi's signed coordinate
    vectors, so they are normed through one :class:`_BlockSums` scan over
    those: the segment values of one pattern, themselves patterns, serve
    all others.  One memo maps a witness's support to its ratio, so each
    pattern is normed at most once per call however many pieces of a
    derived dual bound contain it.  The numerator phi(xw) is the sum of
    the |phi_i| over the support S of xw, kept per S and summed in the
    order and from the Fraction(0) that FsVector.pair sums in (that of
    S[:-1] plus |phi_i| at max S), so a float keeps its bits."""
    if phi.is_zero() or isinstance(space, (C0, L1)):
        return _dual_upper
    scan = _BlockSums(space, {i: FsVector(((i, _sign(v)),))
                              for i, v in phi.entries}, len(phi.entries))
    mags = {i: abs(v) for i, v in phi.entries}  # phi_i * _sign(phi_i)
    masses, ratios = {(): Fraction(0)}, {}

    def ratio(xw):
        S = xw.support
        if S not in ratios:
            # S[:-1] came first: _sign_patterns lists smaller sets first
            masses[S] = masses[S[:-1]] + mags[S[-1]]
            ratios[S] = masses[S] / scan.value(scan.sum_norm(xw))
        return ratios[S]

    return lambda _, psi: max(map(ratio, _sign_patterns(psi)))


def dual_norm(space, phi):
    """Bounds on the dual norm of phi, one rule per end: exact in c0
    (dual l1) and l1 (dual l_inf); elsewhere sign-pattern witnesses from
    below, each normed once through one block-sum scan (only the
    coordinates past PATTERN_BOUND points), and sum|phi_i| from above."""
    return Bounds(_dual_lower(space, phi)(space, phi), _dual_upper(space, phi))


def _count_or_alpha(n, alpha):
    """alpha as an Ordinal, once exactly one of n and alpha is given and a
    piece count n is at least 1."""
    if (n is None) == (alpha is None):
        raise SpaceError("give exactly one of n and alpha")
    if n is not None and n < 1:
        raise SpaceError("interval count must be >= 1")
    return alpha if alpha is None else Ordinal.of(alpha)


def _dual_assoc_end(space, phi, rule, n, alpha):
    """One end of the derived dual bounds of a nonzero phi: the partition
    program (at most n pieces, or alpha-admissible) over the pieces'
    values under `rule`.

    The rule _dual_upper (the upper end, and in c0 the lower end too)
    needs no program on exact values outside l1.  There a piece's value
    is the sum of its |phi_i|, so a chain is worth the sum of |phi_i|
    over the points its pieces cover, at most the sum over the whole
    support; and the whole support is itself a chain of both kinds (one
    piece, n >= 1; an admissible chain may be one piece of any tail).
    So the program's answer is the whole sum, _dual_upper(space, phi).
    In l1 a piece's value is its max |phi_i|, which does not add up over
    pieces, and with a float value the sum over a split may round above
    the whole sum: both run the program."""
    if rule is _dual_upper and not isinstance(space, L1) and not any(
            isinstance(v, float) for v in phi.values):
        return _dual_upper(space, phi)
    dp, last = _partitions(space, phi, rule), len(phi.entries) - 1
    return dp.at_most(n, 0, last) if n else dp.admissible(alpha, 0, last)


def dual_assoc_norm(space, phi, n=None, alpha=None):
    """Bounds on the derived dual norm: outer sup over interval partitions
    (count-limited for the n-variant, admissible for the alpha-variant)
    of sums of per-piece dual norms, each end on its own.  Every piece of
    the lower end reads the one witness memo of the call (each sign
    pattern normed at most once; past PATTERN_BOUND points a piece tries
    only its coordinates); outside l1 the upper end is sum|phi_i|, with
    no program (:func:`_dual_assoc_end`)."""
    alpha = _count_or_alpha(n, alpha)
    if phi.is_zero():
        z = Fraction(0)
        return Bounds(z, z)
    return Bounds(*(_dual_assoc_end(space, phi, rule, n, alpha)
                    for rule in (_dual_lower(space, phi), _dual_upper)))


def minimax_admissible_cover(space, x, alpha):
    """min over alpha-admissible gap-free covers of supp x of the largest
    piece norm; the first piece must start at min supp.  The min-max fold
    of :class:`_Cover` over the pieces of the base norm's engine."""
    alpha = Ordinal.of(alpha)
    if x.is_zero():
        return norm(space, x)
    dp = _partitions(space, x)
    cover = _Cover(dp.sp, dp.piece)
    last = len(dp.sp) - 1
    return dp.unscale(min(cover.chain(0, s, last)
                          for s in _cursor_start(alpha, dp.sp[0], last)))


def primal_from_dual(space, x, n=None, alpha=None, candidates=None):
    """Bounds on the dual-derived primal norm sup{phi(x): derived dual
    norm of phi <= 1}.

    Lower bound: the best phi(x) over the upper end of phi's derived dual
    bound, the only end computed, for the candidate functionals phi (sign
    patterns of x plus any caller-supplied functionals).  Outside l1 that
    end of an exact phi is sum|phi_i|, read with no partition program
    (:func:`_dual_assoc_end`).
    Upper bound: the base norm of x, refined for the alpha-variant by the
    min-max admissible-cover bound.
    """
    alpha = _count_or_alpha(n, alpha)
    if x.is_zero():
        z = Fraction(0)
        return Bounds(z, z)
    lower = Fraction(0)
    for phi in itertools.chain(_sign_patterns(x), candidates or ()):
        v = phi.pair(x)
        if v > 0:  # then phi is nonzero and its upper end positive
            lower = max(lower, v / _dual_assoc_end(space, phi, _dual_upper,
                                                   n, alpha))
    upper = norm(space, x)
    if alpha is not None:
        upper = min(upper, minimax_admissible_cover(space, x, alpha))
    return Bounds(lower, upper)
