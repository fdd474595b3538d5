"""Gluing constructions and measurement experiments.

Special convex combinations by the repeated-averages recursion, the four
gluing pipelines that reproduce the sandwich inequalities on finite
instances, the spreading-model checker, the asymptoticity constant
measurement, and the two-norm distortion scanner.

Empirical constants reported here are section measurements at a stated
finite universe, never claims about infinite-dimensional objects.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .families import (POWER_BOUND, ResourceBoundError, _check_universe,
                       _escape, _fold, _int_weights, _longest, _universe,
                       _walk, power, schreier)
from .ordinal import Ordinal, fundamental_sequence
from .spaces import (C0, L1, FsVector, _BlockSums, _count_or_alpha,
                     _dual_upper, _levels, _partitions, norm, primal_from_dual,
                     report_value, space_mode)
from .trees import BlockTree, certify_block_tree

__all__ = [
    "ConstructionError",
    "SCCInfeasibleError",
    "SCC",
    "GluingReport",
    "SpreadingReport",
    "DistortionReport",
    "build_scc",
    "gluing_lemma1",
    "gluing_lemma2",
    "gluing_lemma3",
    "gluing_lemma4",
    "check_spreading_model",
    "measure_asymptoticity",
    "distortion_scan",
]

START_SEARCH_BOUND = 64
EXHAUSTIVE_SCC_BOUND = 24
SCC_SIZE_BOUND = 1024  # points of F; the mass fold takes about 2 s at 889
ASYMPTOTICITY_SYSTEM_BOUND = 2 ** 14  # block systems one measurement norms


class ConstructionError(ValueError):
    pass


class SCCInfeasibleError(ConstructionError):
    """The threshold cannot be met at the requested start index."""

    def __init__(self, msg, minimal_start=None):
        super().__init__(msg)
        self.minimal_start = minimal_start


# ---------------------------------------------------------------------------
# Special convex combinations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SCC:
    """Convex coefficients on a maximal repeated-averages set whose mass
    on every smaller-index subset stays below a threshold."""

    F: tuple
    coefficients: dict
    xi: Ordinal
    eta: Ordinal
    epsilon: Fraction
    start: int
    max_eta_mass: Fraction
    exhaustive: bool  # literal subset enumeration performed (|F| small)

    def vector(self):
        return FsVector.from_pairs(self.coefficients.items())

    def to_json(self):
        return {
            "F": list(self.F),
            "coefficients": {str(m): str(a) for m, a in sorted(self.coefficients.items())},
            "xi": str(self.xi),
            "eta": str(self.eta),
            "epsilon": str(self.epsilon),
            "start": self.start,
            "max_eta_mass": str(self.max_eta_mass),
            "exhaustive": self.exhaustive,
        }


def _repeated_average(xi, s):
    """Coefficients on the maximal repeated-averages S_xi set starting at
    s: a point mass at level 0; for a successor, s successive maximal
    blocks one level down with outer weights 1/s; at a limit, descend to
    the s-th member of the fundamental sequence.  One loop: `levels` holds
    [level, blocks still to open, weight] for each successor level the
    current point lies in."""
    out, levels = [], []
    beta, n, w = xi, s, Fraction(1)
    while True:
        while not beta.is_zero():
            if beta.is_successor():
                beta, w = beta.predecessor(), w / n
                levels.append([beta, n - 1, w])
            else:
                beta = fundamental_sequence(beta, n)
        out.append((n, w))
        while levels and levels[-1][1] == 0:
            levels.pop()
        if not levels:
            return out
        levels[-1][1] -= 1
        beta, _, w = levels[-1]
        n = out[-1][0] + 1


@lru_cache(maxsize=8)
def _literal_max(eta, elems, values):
    """The largest int mass of a member of S_eta inside the increasing
    points `elems`, each point carrying its int in `values`: families._fold
    over the walk table of every member.  The memo keeps the last 8
    distinct inputs, each at most EXHAUSTIVE_SCC_BOUND points and their
    ints."""
    return _fold(schreier(eta), elems, values)[0] or 0


def _eta_masses(eta, F, coeffs):
    """(DP maximum, literal maximum or None) of subset mass over members
    of S_eta contained in F.

    The DP is the left-to-right fold of Family.max_mass.  For |F| up to
    EXHAUSTIVE_SCC_BOUND the literal maximum is read from families._fold,
    with the int masses of _int_weights added along each path of the walk
    table whose listing visits every member of S_eta inside F.  The
    table's nodes are (state set, position), so its maximum is the
    listing's maximum by construction, and it shares nothing with
    max_mass, which keeps one best mass per single cursor state: a wrong
    DP is refused.  The literal maximum is memoized by _literal_max on
    eta, the points and their exact scaled ints, so callers with the same
    set and weights compute it once; the DP and its comparison with the
    literal run on every call."""
    weights = dict(coeffs)
    dp = schreier(eta).max_mass(F, weights)
    literal = None
    if len(F) <= EXHAUSTIVE_SCC_BOUND:
        D, scaled = _int_weights(F, weights)
        elems = tuple(sorted(F))
        literal = Fraction(_literal_max(eta, elems,
                                        tuple(scaled[m] for m in elems)), D)
        if literal != dp:
            raise ConstructionError(
                "mass DP disagrees with literal enumeration: %s vs %s"
                % (dp, literal))
    return dp, literal


def build_scc(xi, eta, epsilon, start_index):
    """Special convex combination: F in S_xi starting at start_index with
    repeated-averages coefficients; every G in S_eta with G a subset of F
    must carry mass strictly below epsilon.

    Raises SCCInfeasibleError (reporting the minimal feasible start) when
    the threshold fails at the requested start.
    """
    xi, eta = Ordinal.of(xi), Ordinal.of(eta)
    epsilon = Fraction(epsilon)
    if not eta < xi:
        raise ConstructionError("need eta < xi, got %s >= %s" % (eta, xi))
    if not 0 < epsilon <= 1:
        raise ConstructionError("epsilon must lie in (0,1]")
    if start_index < 1:
        raise ConstructionError("start index must be >= 1")

    def attempt(s):
        # sized before it is built: _longest follows the same block recursion
        if (size := _longest(xi, s, SCC_SIZE_BOUND + 1)) > SCC_SIZE_BOUND:
            raise ResourceBoundError("points of the SCC set at start %d" % s,
                                     size, "SCC_SIZE_BOUND", SCC_SIZE_BOUND)
        pairs = _repeated_average(xi, s)
        F = tuple(m for m, _ in pairs)
        coeffs = {m: w for m, w in pairs}
        dp, literal = _eta_masses(eta, F, coeffs)
        return F, coeffs, dp, literal

    F, coeffs, dp, literal = attempt(start_index)
    if dp >= epsilon:
        minimal = None
        for s in range(start_index + 1, START_SEARCH_BOUND + 1):
            _, _, dp2, _ = attempt(s)
            if dp2 < epsilon:
                minimal = s
                break
        raise SCCInfeasibleError(
            "epsilon %s not met at start %d (max S_%s mass %s); minimal "
            "feasible start is %s" % (epsilon, start_index, eta, dp, minimal),
            minimal_start=minimal)
    assert sum(coeffs.values()) == 1
    return SCC(F, coeffs, xi, eta, epsilon, start_index, dp,
               exhaustive=literal is not None)


# ---------------------------------------------------------------------------
# Gluing reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GluingReport:
    lemma: int
    status: str  # verified | refuted | inconclusive | precondition-failed
    vector: FsVector
    values: dict
    parameters: dict
    notes: tuple = ()

    @property
    def ok(self):
        return self.status == "verified"

    def to_json(self):
        return {
            "lemma": self.lemma,
            "status": self.status,
            "vector": self.vector.to_json(),
            "values": {k: report_value(v) for k, v in sorted(self.values.items())},
            "parameters": {k: report_value(v) if isinstance(v, (Fraction, float))
                           else str(v) for k, v in sorted(self.parameters.items())},
            "notes": list(self.notes),
        }


def _is_block_sequence(blocks):
    """Nonzero blocks with strictly increasing supports."""
    return not any(b.is_zero() for b in blocks) and all(
        a.max_support() < b.min_support() for a, b in zip(blocks, blocks[1:]))


def _check_n2_blocks(n, blocks):
    """Lemmas 1 and 3 take n >= 1 and n^2 nonzero successive blocks."""
    if len(blocks) != n * n:
        raise ConstructionError("need n^2 = %d blocks, got %d" % (n * n, len(blocks)))
    if n < 1:
        raise ConstructionError("n must be >= 1, got %d" % n)
    if not _is_block_sequence(blocks):
        raise ConstructionError("blocks must be nonzero, with strictly increasing supports")


def _certify(lemma, tree, space, parameters, notes=()):
    """The precondition-failed report when the block tree does not
    certify in the space, else None."""
    cert = certify_block_tree(tree, space)
    if cert.ok:
        return None
    return GluingReport(lemma, "precondition-failed", FsVector(),
                        {"reason": cert.reason}, parameters, notes)


def gluing_lemma1(space, n, blocks):
    """Average of n^2 certified l1-blocks: x = (1/n^2) sum x_i must satisfy
    1/2 <= ||x|| <= ||x||_n <= 2."""
    _check_n2_blocks(n, blocks)
    failed = _certify(1, BlockTree.from_branches([tuple(blocks)], "l1", Fraction(2)),
                      space, {"n": n}, ("blocks are not 2-equivalent to l1",))
    if failed:
        return failed
    x = sum(blocks, FsVector()).scale(Fraction(1, n * n))
    # ||x|| and ||x||_n from one engine: the whole support is one piece
    dp, last = _partitions(space, x), len(x.entries) - 1
    nx = dp.unscale(dp.piece(0, last))
    _count_or_alpha(n, None)  # at most n < 1 pieces is refused, as by norm_n
    nxn = dp.unscale(dp.at_most(n, 0, last))
    ok = Fraction(1, 2) <= nx <= nxn <= 2
    return GluingReport(1, "verified" if ok else "refuted", x,
                        {"norm": nx, "norm_n": nxn}, {"n": n})


def _fit_scc(xi, eta, epsilon, branch, start):
    """SCC whose set is covered by the branch: |F| <= branch length and
    m_i >= max supp x_i pointwise."""
    caps = [x.max_support() for x in branch]
    last_err = None
    s = start
    while s is not None and s <= START_SEARCH_BOUND:
        try:
            scc = build_scc(xi, eta, epsilon, s)
        except SCCInfeasibleError as exc:
            # build_scc has searched the starts up to its minimal one
            last_err, s = exc, exc.minimal_start
            continue
        if len(scc.F) > len(branch):
            raise ConstructionError(
                "no qualifying branch: SCC needs %d blocks, branch has %d"
                % (len(scc.F), len(branch)))
        if all(m >= c for m, c in zip(scc.F, caps)):
            return scc
        s += 1
    raise ConstructionError("SCC infeasible at available indices: %s" % last_err)


def _weighted_branch(lemma, mode, space, eta, tree, C1, C2, xi, start):
    """Shared front of lemmas 2 and 4: certify the l1-K or c0-K tree and
    fit an S_xi special convex combination (S_eta mass below 1/C2) under
    its longest branch.  Returns the precondition-failed report, or the
    report parameters, the SCC and the branch."""
    eta, xi = Ordinal.of(eta), Ordinal.of(xi)
    params = {"eta": eta, "xi": xi, "K": tree.K, "C1": Fraction(C1),
              "C2": Fraction(C2)}
    if tree.mode != mode:
        raise ConstructionError("lemma %d needs a %s-mode tree" % (lemma, mode))
    failed = _certify(lemma, tree, space, params)
    if failed:
        return failed
    if not tree.branches:
        raise ConstructionError("tree has no branches")
    branch = max(tree.branches, key=len)
    scc = _fit_scc(xi, eta, Fraction(1) / params["C2"], branch, start)
    params["scc_start"] = scc.start
    return params, scc, branch


def gluing_lemma2(space, eta, tree, C1, C2, xi, start=1):
    """l1-side gluing: weight a certified l1-K branch by a special convex
    combination; check 1/K <= ||x|| <= |x|_eta <= 2*C1."""
    front = _weighted_branch(2, "l1", space, eta, tree, C1, C2, xi, start)
    if isinstance(front, GluingReport):
        return front
    params, scc, branch = front
    x = sum((b.scale(scc.coefficients[m]) for m, b in zip(scc.F, branch)),
            FsVector())
    # ||x|| and |x|_eta from one engine: the whole support is one piece
    dp, last = _partitions(space, x), len(x.entries) - 1
    nx = dp.unscale(dp.piece(0, last))
    ax = dp.unscale(dp.admissible(scc.eta, 0, last))
    ok = Fraction(1) / tree.K <= nx <= ax <= 2 * params["C1"]
    return GluingReport(2, "verified" if ok else "refuted", x,
                        {"norm": nx, "assoc_norm": ax}, params,
                        ("scc start %d, |F|=%d, max S_%s mass %s"
                         % (scc.start, len(scc.F), scc.eta, scc.max_eta_mass),))


def _check_biorthogonal(space, blocks, functionals):
    if len(functionals) != len(blocks):
        raise ConstructionError("need one functional per block")
    for i, phi in enumerate(functionals):
        supp = set(phi.support)
        if not supp <= set(blocks[i].support):
            raise ConstructionError(
                "functional %d supported outside its block" % i)
        for j, b in enumerate(blocks):
            v = phi.pair(b)
            if v != (1 if i == j else 0):
                raise ConstructionError(
                    "biorthogonality fails: phi_%d(x_%d) = %s" % (i, j, v))
        if _dual_upper(space, phi) > 1:
            raise ConstructionError(
                "functional %d: normalization not certified" % i)


def _dual_status(space, bounds, nx, lower_min, upper_max):
    """Status and notes of a c0-side lemma whose claim is
    lower_min <= derived norm <= ||x|| <= upper_max, from two-sided
    bounds on the derived norm; float mode never verifies."""
    if space_mode(space) == "float":
        return "inconclusive", ("float mode: verified status withheld",)
    if bounds.lower >= lower_min and bounds.upper <= nx <= upper_max:
        return "verified", ()
    if bounds.exact and (bounds.lower < lower_min or nx > upper_max):
        return "refuted", ()
    return "inconclusive", ("dual bounds too loose to decide",)


def gluing_lemma3(space, n, blocks, functionals):
    """c0-side gluing: x = sum of n^2 certified c0-blocks, normed from
    below by the averaged biorthogonal functional; check
    1/2 <= ||x||_n <= ||x|| <= 2 via dual bounds."""
    _check_n2_blocks(n, blocks)
    _check_biorthogonal(space, blocks, functionals)
    failed = _certify(3, BlockTree.from_branches([tuple(blocks)], "c0", Fraction(2)),
                      space, {"n": n}, ("blocks are not 2-equivalent to c0",))
    if failed:
        return failed
    x = sum(blocks, FsVector())
    phi = sum(functionals, FsVector()).scale(Fraction(1, n * n))
    bounds = primal_from_dual(space, x, n=n, candidates=[phi])
    nx = norm(space, x)
    status, notes = _dual_status(space, bounds, nx, Fraction(1, 2), 2)
    return GluingReport(3, status, x,
                        {"norm": nx, "norm_n_lower": bounds.lower,
                         "norm_n_upper": bounds.upper}, {"n": n}, notes)


def gluing_lemma4(space, eta, tree, C1, C2, xi, functionals=None, start=1):
    """c0-side analog of the weighted gluing: x = sum of certified
    c0-K-blocks along a branch, normed from below by the SCC-weighted
    biorthogonal functional; check 1/(2*C1) <= |x|_eta <= ||x|| <= K."""
    front = _weighted_branch(4, "c0", space, eta, tree, C1, C2, xi, start)
    if isinstance(front, GluingReport):
        return front
    params, scc, branch = front
    blocks = list(branch[:len(scc.F)])
    if functionals is None:
        # basis labels carry canonical biorthogonals; anything else must
        # be supplied by the caller
        if not all(len(b.entries) == 1 and b.entries[0][1] == 1 for b in blocks):
            raise ConstructionError(
                "non-basis blocks need explicit biorthogonal functionals")
        functionals = [FsVector.basis(b.min_support()) for b in blocks]
    else:
        functionals = list(functionals[:len(blocks)])
    _check_biorthogonal(space, blocks, functionals)
    x = sum(blocks, FsVector())
    phi = sum((f.scale(scc.coefficients[m]) for m, f in zip(scc.F, functionals)),
              FsVector())
    bounds = primal_from_dual(space, x, alpha=scc.eta, candidates=[phi])
    nx = norm(space, x)
    status, notes = _dual_status(space, bounds, nx,
                                 Fraction(1, 2 * params["C1"]), tree.K)
    return GluingReport(4, status, x,
                        {"norm": nx, "assoc_lower": bounds.lower,
                         "assoc_upper": bounds.upper}, params,
                        ("scc start %d, |F|=%d" % (scc.start, len(scc.F)),) + notes)


# ---------------------------------------------------------------------------
# Spreading models and asymptoticity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpreadingReport:
    passed: bool
    alpha: Ordinal
    C: Fraction
    universe_max: int
    witness: tuple = ()  # (F, coefficients, value) on failure

    def to_json(self):
        out = {"passed": self.passed, "alpha": str(self.alpha),
               "C": report_value(self.C), "universe_max": self.universe_max}
        if not self.passed:
            F, coeffs, value = self.witness
            out["witness"] = {"F": list(F), "coefficients": list(coeffs),
                              "value": report_value(value)}
        return out


def _lower_estimate(space, alpha, points, floor):
    """The largest c = theta**n >= floor, over the levels (a, theta) of a
    T or MT space and 1 <= n <= min(POWER_BOUND, len(points)), such that
    no nonempty member of S_alpha inside `points` escapes POW(S_a, n)
    (families._escape; S_a itself for n = 1); None if there is none, in
    any other space, and when a walk meets a resource bound.  POW(S_a, n)
    grows with n, and on sets of at most L points it agrees with
    POW(S_a, L), so each level takes the least n and no n past L is tried.

    Such a c certifies ||y_1 + ... + y_k|| >= c * (||y_1|| + ... + ||y_k||)
    for successive nonzero blocks whose minima spread a member F,
    min supp y_j >= F_j.  For n = 1 this is the defining lower estimate,
    ||x|| >= theta * sum ||E_j x|| over S_a-admissible E_1 < ... < E_k:
    the minima of the y_j spread F, and S_a is spreading.  For n > 1,
    F in POW(S_a, n) = S_a[POW(S_a, n-1)] splits into runs in
    POW(S_a, n-1) whose minima spread a set of S_a; the run sums are again
    such blocks, so the estimate for n - 1 inside the runs and one theta
    across them give theta**n.  Every level of MT has its own estimate."""
    family, best = schreier(alpha), None
    try:
        for a, theta in _levels(space):
            for n in range(1, min(POWER_BOUND, len(points)) + 1):
                if theta ** n < floor:
                    break
                if not _escape(family, power(schreier(a), n), points):
                    best = max(best or 0, theta ** n)
                    break
    except ResourceBoundError:
        return None
    return best


def _block_norm_pass(space, alpha, lhs, rhs, scaled):
    """Whether the spreading check in c0 or l1 passes, from the scaled
    block norms of an int _BlockSums scan, C * ||x_i|| = lhs * scaled[i] /
    rhs (check_spreading_model); None when the c0 fold meets a resource
    bound."""
    if isinstance(space, L1):
        return all(lhs * v >= rhs for v in scaled.values())
    family = schreier(alpha)
    try:
        for t in sorted(set(scaled.values())):
            A = [i for i in scaled if scaled[i] <= t]
            if rhs * family.max_mass(A, dict.fromkeys(A, 1)) > lhs * t:
                return False
    except ResourceBoundError:
        return None
    return True


def check_spreading_model(space, blocks, alpha, C, universe_max):
    """For every F in S_alpha within {1..universe_max}: the subsequence
    (x_i)_{i in F} must satisfy the l1 lower estimate with constant C.

    Only the all-ones combination is evaluated: every built-in norm is
    1-unconditional and the blocks have disjoint supports, so every sign
    pattern gives the same value.

    In c0 and l1, exact C and exact values, the check is decided from the
    block norms n_i = ||x_i|| (_block_norm_pass) before any member is
    listed; only a failing check is scanned, for its witness.
    - l1: it passes iff C * min_i n_i >= 1.  If so, ||x_F|| = sum_{i in F}
      n_i >= |F| * min_i n_i >= |F| / C.  Conversely the singleton of the
      least n_i is a member of S_alpha, and it needs C * n_i >= 1.
    - c0: it passes iff, for each value t of the n_i, the longest member
      of S_alpha inside A_t = {i : n_i <= t} has at most C * t points.  A
      failing F with t = max_{i in F} n_i = ||x_F|| lies in A_t and has
      |F| > C * t; conversely a member F of A_t with |F| > C * t has
      C * ||x_F|| <= C * t < |F| when C >= 0, and every member fails when
      C < 0.  The longest member is read by Family.max_mass with unit
      weights.

    In T and MT, exact C > 0 and exact values, the space's lower estimate
    may pass every F at once (_lower_estimate).  The blocks are successive,
    nonzero and positive, so min supp x_i >= i, and their minima spread F.
    If every member of S_alpha within the universe lies in POW(S_a, n) for
    a level (a, theta), the induction over POW(S_a, n) = S_a[POW(S_a, n-1)]
    gives ||x_F|| >= theta**n * sum_{i in F} ||x_i|| >= theta**n * |F| * m,
    m = min_i ||x_i||; so when C * theta**n * m >= 1 the check passes and
    no x_F is normed, nor any member listed.  When C * m >= 1 every
    singleton passes, so the scan norms only members of two or more points.

    Otherwise, and whenever a decision meets a resource bound, the
    members are scanned: read lazily from Family.members in lexicographic
    order, the first failing one is the witness, so the scan stops there:
    a witness found before the MEMBER_BOUND-th member is reported, and
    only a scan that reads past it raises ResourceBoundError.  The sums
    x_F are normed by one spaces._BlockSums scan; where its results are
    ints and C is exact, each F is decided by one int comparison."""
    alpha = Ordinal.of(alpha)
    C = Fraction(C) if not isinstance(C, float) else C
    if len(blocks) < universe_max:
        raise ConstructionError("need a block for every index up to %d" % universe_max)
    if not _is_block_sequence(blocks):
        raise ConstructionError("blocks must be nonzero, with strictly increasing supports")
    points = _check_universe(universe_max)
    head = blocks[:universe_max]
    floor = None
    if (_levels(space) and head and isinstance(C, Fraction) and C > 0
            and not any(isinstance(v, float) for b in head for v in b.values)):
        try:
            floor = 1 / (C * min(norm(space, b) for b in head))
        except ResourceBoundError:
            pass
        if floor and _lower_estimate(space, alpha, points, floor):
            return SpreadingReport(True, alpha, C, universe_max)
    sums = _BlockSums(space, dict(enumerate(head, 1)),
                      sum(len(b.entries) for b in head))
    # a float C, or a float norm, is decided as C * ||x_F|| < |F|
    ints = sums.ints and isinstance(C, Fraction)
    if ints:
        lhs, rhs = C.numerator, C.denominator * sums.Q
        if sums.scaled is not None and _block_norm_pass(space, alpha, lhs, rhs,
                                                        sums.scaled):
            return SpreadingReport(True, alpha, C, universe_max)
    members = schreier(alpha).members(universe_max)
    if floor and floor <= 1:
        # C * ||x_i|| >= C * min_j ||x_j|| >= 1: every singleton passes
        members = (F for F in members if len(F) > 1)
    for F, v in sums.norms(members):
        if (lhs * v < len(F) * rhs) if ints else (C * sums.value(v) < len(F)):
            return SpreadingReport(False, alpha, C, universe_max,
                                   witness=(F, (1,) * len(F), sums.value(v)))
    return SpreadingReport(True, alpha, C, universe_max)


def measure_asymptoticity(space, alpha, universe_max):
    """Smallest constant C with ||x_1 + ... + x_k|| >= k/C over the
    exhaustive corpus of admissible systems of normalized uniform
    interval blocks within {1..universe_max}.

    The corpus blocks are intervals, for which disjoint and successive
    coincide, so the constant is also the allowable (disjoint-block) one.
    A system is the minima F of a nonempty member of S_alpha, read by
    families._walk over 1..universe_max, with one end b_i per block,
    F[i] <= b_i < F[i+1] (b_k <= universe_max).  The systems are counted
    before any is normed; past ASYMPTOTICITY_SYSTEM_BOUND of them the
    measurement raises ResourceBoundError.  In c0 every system of
    normalized blocks has norm 1 and in l1 norm k, so the constant is 1 in
    l1 and in c0 the size of the longest member of S_alpha within the
    universe (1 when there is none), read from families._fold: neither
    lists or norms a system.  Elsewhere the unit on [a..b] is normed as
    the piece over positions a - 1..b - 1 of one spaces._partitions
    engine on the indicator of 1..universe_max, the widest first (past a
    support bound it is refused before any other is normed), and one
    spaces._BlockSums scan over the units norms the systems as listed.

    In T and MT the lower estimate caps the constant.  Block i of a
    system starts at F[i], so if every member of S_alpha in the universe
    lies in POW(S_a, n) for a level (a, theta), the induction over
    POW(S_a, n) = S_a[POW(S_a, n-1)] (_lower_estimate, from the points)
    gives ||x_1 + ... + x_k|| >= theta**n * k, and no ratio exceeds
    1/theta**n.  The scan stops at the first system whose ratio reaches
    that cap, which is then the maximum.  No ratio exceeds its system's
    length either (the norm is bimonotone), so a factor below
    1/(longest F) is not sought.  Without such a level, or below the cap,
    every system is normed.
    """
    alpha = Ordinal.of(alpha)
    N = universe_max
    points = _universe(N)
    if isinstance(space, L1) or not N:  # no system in an empty universe
        return Fraction(1)
    if isinstance(space, C0):
        # the masses the fold also reads, here the points, go unused
        return Fraction(max(_fold(schreier(alpha), points, points)[2], 1))
    # S_alpha holds every singleton, so there are N(N+1)/2 one-block
    # systems or more: past the bound, refuse before the walk builds its
    # first row of N cursor steps
    count, members = N * (N + 1) // 2, []
    if count <= ASYMPTOTICITY_SYSTEM_BOUND:
        count = 0
        for F in _walk(alpha, points):
            # the ends each block of F may take
            ends = [range(a, b) for a, b in zip(F, F[1:] + (N + 1,))]
            members.append((F, ends))
            count += math.prod(map(len, ends))
            if count > ASYMPTOTICITY_SYSTEM_BOUND:
                break
    if count > ASYMPTOTICITY_SYSTEM_BOUND:
        raise ResourceBoundError(
            "S_%s block systems within universe %d" % (alpha, N), count,
            "ASYMPTOTICITY_SYSTEM_BOUND", ASYMPTOTICITY_SYSTEM_BOUND)
    dp = _partitions(space, FsVector.indicator(points))
    dp.piece(0, N - 1)  # the widest unit, refused first past a bound
    units = {(a, b): FsVector.indicator(
                 range(a, b + 1), 1 / dp.unscale(dp.piece(a - 1, b - 1)))
             for a in points for b in range(a, N + 1)}
    sums = _BlockSums(space, units, N)
    systems = (tuple(zip(F, b)) for F, ends in members
               for b in itertools.product(*ends))
    longest = max((len(F) for F, _ in members), default=1)
    c = _lower_estimate(space, alpha, points, Fraction(1, longest))
    cap = c and 1 / c
    best = Fraction(1)
    for system, v in sums.norms(systems):
        ratio = len(system) / sums.value(v)
        if ratio > best:
            best = ratio
            if best == cap:
                break
    return best


# ---------------------------------------------------------------------------
# Distortion scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistortionReport:
    space: str
    derived: str
    ratio_min: object
    ratio_max: object
    witness_min: FsVector
    witness_max: FsVector
    empirical_lambda: object
    corpus_size: int

    def to_json(self):
        return {
            "space": self.space,
            "derived": self.derived,
            "ratio_min": report_value(self.ratio_min),
            "ratio_max": report_value(self.ratio_max),
            "witness_min": self.witness_min.to_json(),
            "witness_max": self.witness_max.to_json(),
            "empirical_lambda": report_value(self.empirical_lambda),
            "corpus_size": self.corpus_size,
            "note": "section measurement, not a distortion proof",
        }


def distortion_scan(space, derived, corpus):
    """Normalize each corpus vector in the base norm, evaluate the
    derived norm, and report the ratio extremes with lexicographically
    least witnesses."""
    corpus = list(corpus)
    if not corpus:
        raise ConstructionError("empty corpus")
    corpus = sorted(set(corpus), key=lambda v: v.entries)
    lo = hi = None
    wlo = whi = None
    count = 0
    for v in corpus:
        b = norm(space, v)
        if b == 0:
            continue
        xhat = v.scale(Fraction(1) / b)  # a float b gives the float 1 / b
        r = norm(derived, xhat)
        count += 1
        if lo is None or r < lo:
            lo, wlo = r, xhat
        if hi is None or r > hi:
            hi, whi = r, xhat
    if lo is None:
        raise ConstructionError("corpus contains only zero vectors")
    lam = hi / lo
    return DistortionReport(str(space), str(derived), lo, hi, wlo, whi, lam,
                            count)
