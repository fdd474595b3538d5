"""Block trees with equivalence certificates, and the bridge from
certified trees to combinatorial families.

A block tree is stored as its branches, the maximal sequences of labels;
its nodes are their prefixes, and the empty sequence is the uncounted root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .families import ResourceBoundError, _maximal, explicit_family
from .spaces import (FsVector, SpaceError, _BlockSums, norm, report_value,
                     space_mode)

__all__ = [
    "TreeError",
    "BlockTree",
    "TreeCertificate",
    "TreeViolation",
    "SearchFailure",
    "certify_block_tree",
    "tree_to_family",
    "index_lower_bound_search",
]

FLOAT_TOL = 1e-9  # normalization and estimate slack for float-mode norms


class TreeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Block trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockTree:
    """Tree of finitely supported blocks, given by its branches, carrying
    the mode of equivalence to certify (l1 or c0) and the constant K >= 1."""

    branches: tuple = ()
    mode: str = "l1"
    K: Fraction = Fraction(1)

    def __post_init__(self):
        if self.mode not in ("l1", "c0"):
            raise TreeError("mode must be 'l1' or 'c0'")
        if self.K < 1:
            raise TreeError("equivalence constant must be >= 1")

    @classmethod
    def from_branches(cls, branches, mode="l1", K=Fraction(1)):
        """The sequences that are neither repeated nor a proper prefix of
        another, in repr order: that of their first differing labels, since
        a label's repr is balanced in its parentheses.  One object per label."""
        ids = {}
        seqs = {tuple(ids.setdefault(x, len(ids)) for x in br)
                for br in branches if br}
        labels = sorted(ids, key=repr)
        rank = {ids[x]: r for r, x in enumerate(labels)}
        inner = {key[:k] for key in seqs for k in range(1, len(key))}
        keys = sorted(tuple(map(rank.get, key)) for key in seqs - inner)
        return cls(tuple(tuple(labels[r] for r in key) for key in keys),
                   mode, Fraction(K))


@dataclass(frozen=True)
class TreeCertificate:
    mode: str
    K: Fraction
    branch_values: tuple  # ((branch, extremal value), ...)
    ok = True

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
    ok = False


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

    Nodes are checked by depth, then repr; the branch sums by one scan.
    """
    branches, mode, K = block_tree.branches, block_tree.mode, block_tree.K
    tol = FLOAT_TOL if space_mode(space) == "float" else 0
    normed = {}  # the labels that passed
    for t in (br[:d] for d in range(1, max(map(len, branches), default=0) + 1)
              for br in branches if len(br) >= d):
        x = t[-1]
        if x not in normed:
            if x.is_zero():
                return TreeViolation("zero label", t)
            nx = normed[x] = norm(space, x)
            if abs(nx - 1) > tol:
                return TreeViolation("label not normalized", t, value=nx)
        if len(t) >= 2 and t[-2].max_support() >= x.min_support():
            return TreeViolation("supports not strictly increasing", t)
    sums = _BlockSums(space, {x: x for x in normed}, max(
        (sum(len(x.entries) for x in br) for br in branches), default=0))
    branch_values = []
    for br, v in sums.norms(branches):
        k, v = len(br), sums.value(v)
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
    caps = {tuple(x.max_support() for x in br[:k])
            for br in block_tree.branches for k in range(1, len(br) + 1)}
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
    ok = False


def _basis_branch(member, labels):
    """The basis vectors at the member's points, read from `labels`."""
    return tuple(map(labels.__getitem__, member))


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
    maximal = _maximal(fam.enumerate(universe_max))  # in lexicographic order
    # one label per point, so that equal labels are one object
    labels = {m: FsVector.basis(m) for m in range(1, universe_max + 1)}
    strategies = [("basis", lambda F: _basis_branch(F, labels)),
                  ("averages", lambda F: _average_branch(F, space))]
    tried = []
    for name, strat in strategies:
        try:
            branches = list(map(strat, maximal))
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
