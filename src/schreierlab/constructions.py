"""Gluing constructions and measurement experiments.

Special convex combinations by the repeated-averages recursion, the four
gluing pipelines that reproduce the sandwich inequalities on finite
instances, the spreading-model checker, the asymptoticity constant
measurement, and the two-norm distortion scanner.

Empirical constants reported here are section measurements at a stated
finite universe, never claims about infinite-dimensional objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from .families import _cursor_step, schreier
from .ordinal import Ordinal, fundamental_sequence
from .spaces import (FsVector, norm, norm_n, assoc_norm, primal_from_dual,
                     dual_norm, space_mode)
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


class ConstructionError(ValueError):
    pass


class SCCInfeasibleError(ConstructionError):
    """The threshold cannot be met at the requested start index."""

    def __init__(self, msg, minimal_start=None):
        super().__init__(msg)
        self.minimal_start = minimal_start


def _as_ordinal(a):
    return a if isinstance(a, Ordinal) else Ordinal.from_int(a)


def _fmt(v):
    return str(v) if isinstance(v, Fraction) else v


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
    the s-th member of the fundamental sequence."""
    if xi.is_zero():
        return [(s, Fraction(1))]
    if xi.is_successor():
        beta = xi.predecessor()
        out = []
        cur = s
        for _ in range(s):
            sub = _repeated_average(beta, cur)
            out.extend((m, w / s) for m, w in sub)
            cur = out[-1][0] + 1
        return out
    return _repeated_average(fundamental_sequence(xi, s), s)


def _eta_masses(eta, F, coeffs):
    """(DP maximum, literal maximum or None) of subset mass over members
    of S_eta contained in F."""
    weights = dict(coeffs)
    dp = schreier(eta).max_mass(F, weights)
    literal = None
    if len(F) <= EXHAUSTIVE_SCC_BOUND:
        best = Fraction(0)
        elems = sorted(F)

        def rec(states, mass, i):
            nonlocal best
            if mass > best:
                best = mass
            for j in range(i, len(elems)):
                # Schreier families are hereditary, so dead prefixes
                # cannot revive
                nxt = _cursor_step(eta, states, elems[j], len(elems) - 1 - j)
                if nxt:
                    rec(nxt, mass + weights[elems[j]], j + 1)

        rec(None, Fraction(0), 0)
        literal = best
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
    xi, eta = _as_ordinal(xi), _as_ordinal(eta)
    epsilon = Fraction(epsilon)
    if not eta < xi:
        raise ConstructionError("need eta < xi, got %s >= %s" % (eta, xi))
    if not 0 < epsilon <= 1:
        raise ConstructionError("epsilon must lie in (0,1]")
    if start_index < 1:
        raise ConstructionError("start index must be >= 1")

    def attempt(s):
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
            "values": {k: _fmt(v) for k, v in sorted(self.values.items())},
            "parameters": {k: _fmt(v) if isinstance(v, (Fraction, float))
                           else str(v) for k, v in sorted(self.parameters.items())},
            "notes": list(self.notes),
        }


def _is_block_sequence(blocks):
    return all(blocks[i].max_support() < blocks[i + 1].min_support()
               for i in range(len(blocks) - 1))


def gluing_lemma1(space, n, blocks, skip_certification=False):
    """Average of n^2 certified l1-blocks: x = (1/n^2) sum x_i must satisfy
    1/2 <= ||x|| <= ||x||_n <= 2."""
    if len(blocks) != n * n:
        raise ConstructionError("need n^2 = %d blocks, got %d" % (n * n, len(blocks)))
    if not _is_block_sequence(blocks):
        raise ConstructionError("blocks must have strictly increasing supports")
    notes = []
    if skip_certification:
        notes.append("2-equivalence certification skipped on request")
    else:
        bt = BlockTree.from_branches([tuple(blocks)], "l1", Fraction(2))
        cert = certify_block_tree(bt, space)
        if not cert.ok:
            return GluingReport(1, "precondition-failed", FsVector(),
                                {"reason": cert.reason},
                                {"n": n}, ("blocks are not 2-equivalent to l1",))
    x = blocks[0]
    for b in blocks[1:]:
        x = x + b
    x = x.scale(Fraction(1, n * n))
    nx = norm(space, x)
    nxn = norm_n(space, n, x)
    ok = Fraction(1, 2) <= nx <= nxn <= 2
    return GluingReport(1, "verified" if ok else "refuted", x,
                        {"norm": nx, "norm_n": nxn},
                        {"n": n}, tuple(notes))


def _longest_branch(tree):
    brs = tree.tree.branches()
    if not brs:
        raise ConstructionError("tree has no branches")
    return max(brs, key=len)


def _fit_scc(xi, eta, epsilon, branch, start):
    """SCC whose set is covered by the branch: |F| <= branch length and
    m_i >= max supp x_i pointwise."""
    caps = [x.max_support() for x in branch]
    last_err = None
    for s in range(start, START_SEARCH_BOUND + 1):
        try:
            scc = build_scc(xi, eta, epsilon, s)
        except SCCInfeasibleError as exc:
            last_err = exc
            continue
        if len(scc.F) > len(branch):
            raise ConstructionError(
                "no qualifying branch: SCC needs %d blocks, branch has %d"
                % (len(scc.F), len(branch)))
        if all(m >= c for m, c in zip(scc.F, caps)):
            return scc
    raise ConstructionError("SCC infeasible at available indices: %s" % last_err)


def gluing_lemma2(space, eta, tree, C1, C2, xi, start=1,
                  skip_certification=False):
    """l1-side gluing: weight a certified l1-K branch by a special convex
    combination; check 1/K <= ||x|| <= |x|_eta <= 2*C1."""
    eta, xi = _as_ordinal(eta), _as_ordinal(xi)
    C1, C2 = Fraction(C1), Fraction(C2)
    K = tree.K
    notes = []
    if skip_certification:
        notes.append("l1-K certification skipped on request")
    else:
        if tree.mode != "l1":
            raise ConstructionError("lemma 2 needs an l1-mode tree")
        cert = certify_block_tree(tree, space)
        if not cert.ok:
            return GluingReport(2, "precondition-failed", FsVector(),
                                {"reason": cert.reason},
                                {"eta": eta, "xi": xi, "K": K,
                                 "C1": C1, "C2": C2}, ())
    branch = _longest_branch(tree)
    scc = _fit_scc(xi, eta, Fraction(1) / C2, branch, start)
    x = FsVector()
    for m, xi_blk in zip(scc.F, branch):
        x = x + xi_blk.scale(scc.coefficients[m])
    nx = norm(space, x)
    ax = assoc_norm(space, eta, x)
    ok = Fraction(1) / K <= nx <= ax <= 2 * C1
    notes.append("scc start %d, |F|=%d, max S_%s mass %s"
                 % (scc.start, len(scc.F), eta, scc.max_eta_mass))
    return GluingReport(2, "verified" if ok else "refuted", x,
                        {"norm": nx, "assoc_norm": ax},
                        {"eta": eta, "xi": xi, "K": K, "C1": C1, "C2": C2,
                         "scc_start": scc.start}, tuple(notes))


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
        if dual_norm(space, phi).upper > 1:
            raise ConstructionError("functional %d is not normalized" % i)


def gluing_lemma3(space, n, blocks, functionals, skip_certification=False):
    """c0-side gluing: x = sum of n^2 certified c0-blocks, normed from
    below by the averaged biorthogonal functional; check
    1/2 <= ||x||_n <= ||x|| <= 2 via dual bounds."""
    if len(blocks) != n * n:
        raise ConstructionError("need n^2 = %d blocks, got %d" % (n * n, len(blocks)))
    if not _is_block_sequence(blocks):
        raise ConstructionError("blocks must have strictly increasing supports")
    _check_biorthogonal(space, blocks, functionals)
    notes = []
    if skip_certification:
        notes.append("c0 2-equivalence certification skipped on request")
    else:
        bt = BlockTree.from_branches([tuple(blocks)], "c0", Fraction(2))
        cert = certify_block_tree(bt, space)
        if not cert.ok:
            return GluingReport(3, "precondition-failed", FsVector(),
                                {"reason": cert.reason}, {"n": n},
                                ("blocks are not 2-equivalent to c0",))
    x = blocks[0]
    for b in blocks[1:]:
        x = x + b
    phi = functionals[0]
    for f in functionals[1:]:
        phi = phi + f
    phi = phi.scale(Fraction(1, n * n))
    bounds = primal_from_dual(space, x, n=n, candidates=[phi])
    nx = norm(space, x)
    values = {"norm": nx, "norm_n_lower": bounds.lower,
              "norm_n_upper": bounds.upper}
    if space_mode(space) == "float":
        status = "inconclusive"
        notes.append("float mode: verified status withheld")
    elif bounds.lower >= Fraction(1, 2) and bounds.upper <= nx and nx <= 2:
        status = "verified"
    elif bounds.exact and (bounds.lower < Fraction(1, 2) or nx > 2):
        status = "refuted"
    else:
        status = "inconclusive"
        notes.append("dual bounds too loose to decide")
    return GluingReport(3, status, x, values, {"n": n}, tuple(notes))


def gluing_lemma4(space, eta, tree, C1, C2, xi, functionals=None, start=1,
                  skip_certification=False):
    """c0-side analog of the weighted gluing: x = sum of certified
    c0-K-blocks along a branch, normed from below by the SCC-weighted
    biorthogonal functional; check 1/(2*C1) <= |x|_eta <= ||x|| <= K."""
    eta, xi = _as_ordinal(eta), _as_ordinal(xi)
    C1, C2 = Fraction(C1), Fraction(C2)
    K = tree.K
    notes = []
    if skip_certification:
        notes.append("c0-K certification skipped on request")
    else:
        if tree.mode != "c0":
            raise ConstructionError("lemma 4 needs a c0-mode tree")
        cert = certify_block_tree(tree, space)
        if not cert.ok:
            return GluingReport(4, "precondition-failed", FsVector(),
                                {"reason": cert.reason},
                                {"eta": eta, "xi": xi, "K": K,
                                 "C1": C1, "C2": C2}, ())
    branch = _longest_branch(tree)
    scc = _fit_scc(xi, eta, Fraction(1) / C2, branch, start)
    blocks = list(branch[:len(scc.F)])
    if functionals is None:
        # basis labels carry canonical biorthogonals; anything else must
        # be supplied by the caller
        functionals = []
        for b in blocks:
            if len(b.entries) == 1 and b.entries[0][1] == 1:
                functionals.append(FsVector.basis(b.entries[0][0]))
            else:
                raise ConstructionError(
                    "non-basis blocks need explicit biorthogonal functionals")
    else:
        functionals = list(functionals[:len(blocks)])
    _check_biorthogonal(space, blocks, functionals)
    x = blocks[0]
    for b in blocks[1:]:
        x = x + b
    phi = FsVector()
    for m, f in zip(scc.F, functionals):
        phi = phi + f.scale(scc.coefficients[m])
    bounds = primal_from_dual(space, x, alpha=eta, candidates=[phi])
    nx = norm(space, x)
    values = {"norm": nx, "assoc_lower": bounds.lower,
              "assoc_upper": bounds.upper}
    notes.append("scc start %d, |F|=%d" % (scc.start, len(scc.F)))
    if space_mode(space) == "float":
        status = "inconclusive"
        notes.append("float mode: verified status withheld")
    elif bounds.lower >= Fraction(1, 2 * C1) and bounds.upper <= nx and nx <= K:
        status = "verified"
    elif bounds.exact and (bounds.lower < Fraction(1, 2 * C1) or nx > K):
        status = "refuted"
    else:
        status = "inconclusive"
        notes.append("dual bounds too loose to decide")
    return GluingReport(4, status, x, values,
                        {"eta": eta, "xi": xi, "K": K, "C1": C1, "C2": C2,
                         "scc_start": scc.start}, tuple(notes))


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
               "C": _fmt(self.C), "universe_max": self.universe_max}
        if not self.passed:
            F, coeffs, value = self.witness
            out["witness"] = {"F": list(F), "coefficients": list(coeffs),
                              "value": _fmt(value)}
        return out


def check_spreading_model(space, blocks, alpha, C, universe_max):
    """For every F in S_alpha within {1..universe_max}: the subsequence
    (x_i)_{i in F} must satisfy the l1 lower estimate with constant C.

    Only the all-ones combination is evaluated: every built-in norm is
    1-unconditional and the blocks have disjoint supports, so every sign
    pattern gives the same value.  Members are visited in lexicographic
    order and the first failing one is the witness.  Since the blocks
    are successive, x_F is built once per F by concatenating the blocks'
    entries."""
    alpha = _as_ordinal(alpha)
    C = Fraction(C) if not isinstance(C, float) else C
    if len(blocks) < universe_max:
        raise ConstructionError("need a block for every index up to %d" % universe_max)
    if not _is_block_sequence(blocks):
        raise ConstructionError("blocks must have strictly increasing supports")
    for F in schreier(alpha).enumerate(universe_max):
        if not F:
            continue
        v = norm(space, FsVector(tuple(chain.from_iterable(
            blocks[i - 1].entries for i in F))))
        if C * v < len(F):
            return SpreadingReport(False, alpha, C, universe_max,
                                   witness=(F, (1,) * len(F), v))
    return SpreadingReport(True, alpha, C, universe_max)


def measure_asymptoticity(space, alpha, universe_max):
    """Smallest constant C with ||x_1 + ... + x_k|| >= k/C over the
    exhaustive corpus of admissible systems of normalized uniform
    interval blocks within {1..universe_max}.

    The corpus blocks are intervals, for which disjoint and successive
    coincide, so the constant is also the allowable (disjoint-block) one.
    """
    alpha = _as_ordinal(alpha)
    N = universe_max
    cache = {}

    def unit(a, b):
        if (a, b) not in cache:
            x = FsVector.indicator(range(a, b + 1))
            nv = norm(space, x)
            cache[(a, b)] = x.scale(Fraction(1) / nv) if nv != 1 else x
        return cache[(a, b)]

    best = Fraction(1)

    def visit(acc, k):
        nonlocal best
        v = norm(space, acc)
        ratio = Fraction(k) / v if isinstance(v, Fraction) else k / v
        if ratio > best:
            best = ratio

    def rec(lo, states, acc, k):
        for a in range(lo, N + 1):
            nxt = _cursor_step(alpha, states, a, N - a)
            if not nxt:
                continue
            for b in range(a, N + 1):
                acc2 = acc + unit(a, b)
                visit(acc2, k + 1)
                rec(b + 1, nxt, acc2, k + 1)

    rec(1, None, FsVector(), 0)
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
    universe_note: str = ""

    def to_json(self):
        return {
            "space": self.space,
            "derived": self.derived,
            "ratio_min": _fmt(self.ratio_min),
            "ratio_max": _fmt(self.ratio_max),
            "witness_min": self.witness_min.to_json(),
            "witness_max": self.witness_max.to_json(),
            "empirical_lambda": _fmt(self.empirical_lambda),
            "corpus_size": self.corpus_size,
            "note": self.universe_note or "section measurement, not a distortion proof",
        }

    def csv_rows(self):
        return [("witness_min", _fmt(self.ratio_min)),
                ("witness_max", _fmt(self.ratio_max))]


def distortion_scan(space, derived, corpus, block_basis=None):
    """Normalize each corpus vector in the base norm, evaluate the
    derived norm, and report the ratio extremes with lexicographically
    least witnesses.  With block_basis given, corpus entries are
    coefficient vectors in its span."""
    corpus = list(corpus)
    if not corpus:
        raise ConstructionError("empty corpus")
    if block_basis is not None:
        real = []
        for c in corpus:
            y = FsVector()
            for i, v in c.entries:
                y = y + block_basis[i - 1].scale(v)
            real.append(y)
        corpus = real
    corpus = sorted(set(corpus), key=lambda v: v.entries)
    lo = hi = None
    wlo = whi = None
    rows = []
    for v in corpus:
        b = norm(space, v)
        if b == 0:
            continue
        xhat = v.scale(Fraction(1) / b) if not isinstance(b, float) else v.scale(1 / b)
        r = norm(derived, xhat)
        rows.append((v, b, r))
        if lo is None or r < lo:
            lo, wlo = r, xhat
        if hi is None or r > hi:
            hi, whi = r, xhat
    if lo is None:
        raise ConstructionError("corpus contains only zero vectors")
    lam = hi / lo
    return DistortionReport(str(space), str(derived), lo, hi, wlo, whi, lam,
                            len(rows))
