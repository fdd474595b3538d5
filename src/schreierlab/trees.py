"""Finite well-founded trees, block trees with equivalence certificates,
and the bridge from certified trees to combinatorial families.

A tree is stored as its set of nonempty nodes (finite sequences closed
under initial segments); the empty sequence is always implicitly present
as the root and is not counted by the order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

from .families import ResourceBoundError, explicit_family
from .spaces import FsVector, SpaceError, norm, report_value, space_mode

__all__ = [
    "TreeError",
    "FiniteTree",
    "BlockTree",
    "TreeCertificate",
    "TreeViolation",
    "SearchFailure",
    "derivative",
    "order",
    "family_as_tree",
    "certify_block_tree",
    "tree_to_family",
    "index_lower_bound_search",
]

FLOAT_TOL = 1e-9  # normalization and estimate slack for float-mode norms


class TreeError(ValueError):
    pass


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


# ---------------------------------------------------------------------------
# Block trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockTree:
    """Tree whose labels are finitely supported blocks, carrying the mode
    of equivalence to certify (l1 or c0) and the constant K >= 1."""

    tree: FiniteTree
    mode: str = "l1"
    K: Fraction = Fraction(1)

    def __post_init__(self):
        if self.mode not in ("l1", "c0"):
            raise TreeError("mode must be 'l1' or 'c0'")
        if self.K < 1:
            raise TreeError("equivalence constant must be >= 1")

    @classmethod
    def from_branches(cls, branches, mode="l1", K=Fraction(1)):
        return cls(FiniteTree.from_sequences(branches), mode, Fraction(K))


@dataclass(frozen=True)
class TreeCertificate:
    mode: str
    K: Fraction
    branch_values: tuple  # ((branch, extremal value), ...)

    @property
    def ok(self):
        return True

    def to_json(self):
        return {
            "ok": True,
            "mode": self.mode,
            "K": str(self.K),
            "branches": [
                {"labels": [x.to_json() for x in br],
                 "extremal": report_value(v)}
                for br, v in self.branch_values
            ],
        }


@dataclass(frozen=True)
class TreeViolation:
    reason: str
    branch: tuple
    coefficients: tuple = ()
    value: object = None

    @property
    def ok(self):
        return False


def certify_block_tree(block_tree, space):
    """Verify a block tree's invariants by exact norm evaluation.

    Each label must be normalized and supports must strictly increase
    along branches.  On each maximal branch of length k the extremal
    equivalence check evaluates the all-ones combination: for l1 mode
    its norm must be >= k/K (the minimum of the norm on the l1-sphere is
    attained at sign-pattern vertices); for c0 mode it must be <= K (the
    lower c0 estimate ||sum a_i x_i|| >= max|a_i| is automatic for a
    bimonotone basis).  Every sign pattern gives the same norm, since all
    built-in norms are 1-unconditional and branch labels have disjoint
    supports, so one evaluation is exact.
    """
    tree, mode, K = block_tree.tree, block_tree.mode, block_tree.K
    tol = FLOAT_TOL if space_mode(space) == "float" else 0
    for t in sorted(tree.nodes, key=lambda u: (len(u), repr(u))):
        x = t[-1]
        if x.is_zero():
            return TreeViolation("zero label", t)
        nx = norm(space, x)
        if abs(nx - 1) > tol:
            return TreeViolation("label not normalized", t, value=nx)
        if len(t) >= 2 and t[-2].max_support() >= x.min_support():
            return TreeViolation("supports not strictly increasing", t)
    branch_values = []
    for br in tree.branches():
        k = len(br)
        v = norm(space, sum(br, FsVector()))
        if mode == "l1" and K * v < k - tol * k:
            return TreeViolation("l1 lower estimate fails", br,
                                 coefficients=(1,) * k, value=v)
        if mode != "l1" and v > K + tol:
            return TreeViolation("c0 upper estimate fails", br,
                                 coefficients=(1,) * k, value=v)
        branch_values.append((br, v))
    return TreeCertificate(mode, K, tuple(branch_values))


def tree_to_family(block_tree, universe_max):
    """Family of all (m_1 < ... < m_l) with m_i >= max supp x_i for some
    node (x_1, ..., x_l), within {1..universe_max}.  It is hereditary and
    spreading as grown: a subset (m_{i_1}, ..., m_{i_k}) has
    m_{i_t} >= m_t >= max supp x_t, so it grows from the node's prefix of
    length k, and a right shift only raises entries."""
    caps = set()
    for t in block_tree.tree.nodes:
        caps.add(tuple(x.max_support() for x in t))
    sets = set()

    def grow(cap, prefix, lo):
        i = len(prefix)
        if i == len(cap):
            sets.add(tuple(prefix))
            return
        for m in range(max(cap[i], lo), universe_max + 1):
            prefix.append(m)
            grow(cap, prefix, m + 1)
            prefix.pop()

    for cap in sorted(caps):
        grow(cap, [], 1)
    return explicit_family(sets | {()}, close=False)


# ---------------------------------------------------------------------------
# Index lower bound search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchFailure:
    stats: dict = field(default_factory=dict)

    @property
    def ok(self):
        return False


def _basis_branch(member, space):
    return tuple(FsVector.basis(m) for m in member)


def _average_branch(member, space):
    """Normalized averages over maximal S_1 sets, one per member element,
    placed at successive disjoint supports determined by the prefix."""
    out = []
    start = member[0]
    for _ in member:
        x = FsVector.average(range(start, 2 * start))
        n = norm(space, x)
        out.append(x.scale(Fraction(1) / n) if n != 1 else x)
        start = 2 * start
    return tuple(out)


def index_lower_bound_search(space, fam, K, universe_max, mode="l1"):
    """Try to build a K-certified block tree with one branch per maximal
    member of the family's truncation.

    Candidate strategies, in order: basis vectors at the member elements,
    then normalized averages over maximal min-bounded sets.  Returns the
    first (BlockTree, TreeCertificate) pair that certifies, else a
    SearchFailure with statistics; failure is not a proof of absence.
    """
    K = Fraction(K) if not isinstance(K, float) else K
    members = [tuple(sorted(F)) for F in fam.enumerate(universe_max)]
    # bit i of holds[p]: members[i] holds p; F is maximal iff its points share
    # only F's own bit
    holds = {}
    for i, F in enumerate(members):
        for p in F:
            holds[p] = holds.get(p, 0) | 1 << i
    maximal = [F for i, F in enumerate(members)
               if F and reduce(int.__and__, map(holds.get, F)) == 1 << i]
    if not maximal:
        bt = BlockTree(FiniteTree(), mode, K)
        return bt, TreeCertificate(mode, K, ())
    strategies = [("basis", _basis_branch), ("averages", _average_branch)]
    tried = []
    for name, strat in strategies:
        try:
            branches = [strat(F, space) for F in sorted(maximal)]
        except (SpaceError, ResourceBoundError) as exc:  # a refusal, not a bug
            tried.append({"strategy": name, "error": str(exc)})
            continue
        bt = BlockTree.from_branches(branches, mode, K)
        res = certify_block_tree(bt, space)
        if res.ok:
            return bt, res
        tried.append({"strategy": name, "violation": res.reason})
    return SearchFailure({"strategies": tried, "branches": len(maximal),
                          "universe_max": universe_max})
