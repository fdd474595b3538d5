import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FiniteTree, derivative, family_as_tree, order
from schreierlab import trees
from schreierlab.families import explicit_family, schreier
from schreierlab.ordinal import Ordinal
from schreierlab.spaces import C0, L1, FsVector, Tsirelson
from schreierlab.trees import (BlockTree, SearchFailure, TreeError,
                               certify_block_tree, index_lower_bound_search,
                               tree_to_family)

T12 = Tsirelson(Ordinal.from_int(1), Fraction(1, 2))
e = FsVector.basis

# a non-hereditary family: (2,) lies in (2, 4, 6), (1, 3) in (1, 2, 3) and
# (4, 5) in no other member
LISTED = explicit_family([(1,), (1, 3), (1, 2, 3), (2,), (2, 4, 6), (4, 5)],
                         close=False)
listed_sets = st.lists(st.sets(st.integers(1, 9), min_size=1, max_size=4)
                       .map(lambda s: tuple(sorted(s))), max_size=12)

# labels shared across branches; the zero and the unnormalized labels
# matter to certification only
LABELS = [FsVector.basis(1), FsVector.basis(2), FsVector.indicator([1, 2]),
          FsVector.average([3, 4]), FsVector.basis(3).scale(2), FsVector(),
          FsVector.from_pairs([(2, -1), (5, "1/3")])]
label_seqs = st.lists(st.lists(st.sampled_from(LABELS), min_size=1,
                               max_size=4).map(tuple), max_size=8)


def pairwise_maximal(fam, universe_max):
    """The nonempty members of the truncation that no other member
    strictly contains, by the pairwise subset scan."""
    members = fam.enumerate(universe_max)
    return sorted(F for F in members
                  if F and not any(set(F) < set(G) for G in members))


def assert_search_branches_are_maximal(fam, universe_max):
    """In l1 the basis branches certify at K = 1, one per maximal member;
    in c0 they fail, and the failure counts the maximal members, also
    those that are a prefix of another listed set."""
    maximal = pairwise_maximal(fam, universe_max)
    bt, _ = index_lower_bound_search(L1(), fam, 1, universe_max)
    assert sorted(tuple(x.support[0] for x in br)
                  for br in bt.branches) == maximal
    res = index_lower_bound_search(C0(), fam, 1, universe_max)
    if isinstance(res, SearchFailure):
        assert res.stats["branches"] == len(maximal)


def iterated_order(tree):
    """The number of derivatives that empty the tree, one at a time."""
    k = 0
    while not tree.is_empty():
        tree, k = derivative(tree), k + 1
    return k


def pairwise_branches(tree):
    """The nodes that no node extends by one label, by a pairwise scan."""
    return {t for t in tree.nodes
            if not any(len(u) == len(t) + 1 and u[:-1] == t
                       for u in tree.nodes)}


class TestFiniteTree:
    def test_prefix_closure_enforced(self):
        with pytest.raises(TreeError):
            FiniteTree(frozenset({(1, 2)}))
        FiniteTree(frozenset({(1,), (1, 2)}))

    def test_chain_derivative_order(self):
        c = FiniteTree.chain([1, 2, 3])
        assert order(c) == 3
        assert order(derivative(c)) == 2
        assert order(FiniteTree()) == 0
        c5 = FiniteTree.chain("abcde")
        assert order(c5) == 5

    def test_full_binary_depth_two(self):
        t = FiniteTree.from_sequences([(a, b) for a in (0, 1) for b in (0, 1)])
        d = derivative(t)
        assert d.nodes == frozenset({(0,), (1,)})
        assert order(t) == 2

    @given(listed_sets)
    def test_order_and_branches_against_pairwise_scans(self, sets):
        t = family_as_tree(explicit_family(sets, close=False), 9)
        assert order(t) == iterated_order(t)
        assert set(t.branches()) == pairwise_branches(t)

    def test_order_drops_by_one(self):
        t = family_as_tree(schreier(2), 7)
        while not t.is_empty():
            assert order(derivative(t)) == order(t) - 1
            t = derivative(t)


class TestFamilyAsTree:
    def test_s0(self):
        t = family_as_tree(schreier(0), 4)
        assert t.nodes == frozenset({(1,), (2,), (3,), (4,)})
        assert order(t) == 1

    def test_s1_small_universe(self):
        t = family_as_tree(schreier(1), 2)
        assert t.nodes == frozenset({(1,), (2,)})
        assert order(t) == 1

    def test_empty_family(self):
        fam = explicit_family([()], close=False)
        assert family_as_tree(fam, 4).is_empty()

    def test_order_monotone(self):
        o1 = order(family_as_tree(schreier(1), 8))
        o2 = order(family_as_tree(schreier(2), 8))
        assert o1 < o2
        assert order(family_as_tree(schreier(1), 6)) <= o1


class TestBranchList:
    @given(label_seqs, st.lists(st.integers(0, 7), max_size=4),
           st.lists(st.integers(0, 7), max_size=3))
    def test_branches_match_the_prefix_closure(self, seqs, cut, repeat):
        # proper prefixes and repeats of the drawn sequences, added in front
        # and behind, are dropped as the prefix closure drops them
        extra = [seqs[i][:len(seqs[i]) - 1] for i in cut if i < len(seqs)]
        extra += [seqs[i] for i in repeat if i < len(seqs)]
        bs = extra + seqs + extra[::-1]
        got = BlockTree.from_branches(bs).branches
        assert list(got) == FiniteTree.from_sequences(bs).branches()

    def test_single_labels_prefixes_and_repeats(self):
        bs = [(e(3),), (e(1), e(2)), (e(1),), (e(3),), (e(1), e(2), e(4)),
              (e(2), e(3)), ()]
        assert BlockTree.from_branches(bs).branches == (
            (e(1), e(2), e(4)), (e(2), e(3)), (e(3),))
        assert BlockTree.from_branches([(), ()]).branches == ()


class TestCertification:
    def test_basis_branches_in_tsirelson(self):
        branches = [tuple(FsVector.basis(m) for m in F)
                    for F in [(2, 3), (3, 4, 5)]]
        bt = BlockTree.from_branches(branches, "l1", Fraction(2))
        cert = certify_block_tree(bt, T12)
        assert cert.ok
        assert dict((tuple(x.support[0] for x in br), v)
                    for br, v in cert.branch_values) == {
                        (2, 3): Fraction(1), (3, 4, 5): Fraction(3, 2)}

    def test_single_node_always_one_equivalent(self):
        bt = BlockTree.from_branches([(FsVector.basis(5),)], "l1", Fraction(1))
        assert certify_block_tree(bt, L1()).ok

    def test_c0_obstructs_l1(self):
        bt = BlockTree.from_branches(
            [(FsVector.basis(1), FsVector.basis(2))], "l1", Fraction(3, 2))
        v = certify_block_tree(bt, C0())
        assert not v.ok
        assert v.reason == "l1 lower estimate fails"
        assert v.coefficients == (1, 1) and v.value == 1

    def test_l1_obstructs_c0(self):
        bt = BlockTree.from_branches(
            [tuple(FsVector.basis(m) for m in (4, 5, 6, 7))],
            "c0", Fraction(3, 2))
        v = certify_block_tree(bt, T12)
        assert not v.ok and v.reason == "c0 upper estimate fails"
        assert v.value == 2

    def test_not_normalized(self):
        bt = BlockTree.from_branches([(FsVector.basis(1).scale(2),)],
                                     "l1", Fraction(1))
        assert certify_block_tree(bt, C0()).reason == "label not normalized"

    def test_supports_must_increase(self):
        bt = BlockTree.from_branches(
            [(FsVector.basis(3), FsVector.basis(2))], "l1", Fraction(2))
        v = certify_block_tree(bt, L1())
        assert v.reason == "supports not strictly increasing"

    # the first fault in (depth, repr) node order is reported, as the
    # prefix-closed node set orders its nodes
    @pytest.mark.parametrize("branches,reason,node,value", [
        # a zero label at depth 2, an unnormalized one at depth 1
        ([(e(1), FsVector()), (e(3).scale(2), e(4))],
         "label not normalized", (e(3).scale(2),), 2),
        # two faulty labels at depth 2: the scaled one's repr comes first
        ([(e(1), e(2).scale(3)), (e(1), FsVector()),
          (e(3), FsVector.indicator([4, 5]))],
         "label not normalized", (e(1), e(2).scale(3)), 3),
        # a decreasing support and a zero label at depth 2
        ([(e(5), e(2)), (e(6), e(9)), (e(4), FsVector())],
         "zero label", (e(4), FsVector()), None),
    ], ids=["depth-1-first", "repr-order", "zero-first"])
    @pytest.mark.parametrize("space", [L1(), C0(), T12], ids=["L1", "C0", "T"])
    def test_first_fault_of_several(self, branches, reason, node, value, space):
        v = certify_block_tree(BlockTree.from_branches(branches, "l1", 2), space)
        assert (v.reason, v.branch, v.value) == (reason, node, value)

    @pytest.mark.parametrize("space", [L1(), C0(), T12], ids=["L1", "C0", "T"])
    def test_labels_normed_once_and_sums_by_the_scan(self, monkeypatch, space):
        normed = []
        norm = trees.norm
        monkeypatch.setattr(trees, "norm",
                            lambda sp, x: normed.append(x) or norm(sp, x))
        # every label sits on several branches, e(3) at two depths
        branches = [tuple(e(m) for m in F) for F in
                    [(2, 3), (2, 4), (3, 4, 5), (3, 5), (2, 5), (4, 5, 6)]]
        cert = certify_block_tree(
            BlockTree.from_branches(branches, "l1", 3), space)
        assert cert.ok and len(cert.branch_values) == 6
        assert Counter(normed) == Counter({e(m): 1 for m in range(2, 7)})
        for br, v in cert.branch_values:
            assert v == norm(space, sum(br, FsVector()))


class TestTreeToFamily:
    def test_single_cap(self):
        bt = BlockTree.from_branches([(FsVector.basis(3),)], "l1", Fraction(1))
        fam = tree_to_family(bt, 5)
        assert sorted(fam.enumerate(5)) == [(), (3,), (4,), (5,)]

    def test_empty_tree(self):
        bt = BlockTree.from_branches((), "l1", Fraction(1))
        fam = tree_to_family(bt, 4)
        assert sorted(fam.enumerate(4)) == [()]

    def test_two_level_caps_by_brute_force(self):
        x1 = FsVector.basis(2)
        x2 = FsVector.indicator([3, 4])
        bt = BlockTree.from_branches([(x1, x2)], "l1", Fraction(2))
        fam = tree_to_family(bt, 6)
        got = set(fam.enumerate(6))
        assert (2, 4) in got and (3, 5) in got
        # brute-force tuple scan, then hereditary + spreading closure
        direct = set()
        for m1 in range(2, 7):
            direct.add((m1,))
            for m2 in range(max(4, m1 + 1), 7):
                direct.add((m1, m2))
        want = {(), }
        for F in direct:
            for r in range(len(F) + 1):
                want.update(itertools.combinations(F, r))
        assert got == want

    def test_seeded_trees_against_a_brute_force_closure(self):
        # the grown sets need no closing, even where the supports along a
        # branch do not increase
        rng = random.Random(20)
        for _ in range(60):
            N = rng.randint(3, 8)
            branches = [tuple(FsVector.indicator(
                sorted(rng.sample(range(1, N + 1), rng.randint(1, 3))))
                for _ in range(rng.randint(1, 4)))
                for _ in range(rng.randint(0, 3))]
            bt = BlockTree.from_branches(branches, "l1", Fraction(1))
            assert set(tree_to_family(bt, N).enumerate(N)) == \
                brute_closure(bt, N)

    def test_output_regular_within_universe(self):
        bt = BlockTree.from_branches(
            [(FsVector.basis(2), FsVector.basis(4))], "l1", Fraction(2))
        rep = tree_to_family(bt, 6).check_regular(6)
        assert rep.hereditary and rep.spreading


def brute_closure(bt, N):
    """Every increasing tuple within {1..N} whose i-th entry is at least
    max supp x_i for a node (x_1, ..., x_l), closed under removing an
    entry and under raising one within {1..N}, until nothing changes."""
    out = {()}
    for t in {br[:k] for br in bt.branches for k in range(1, len(br) + 1)}:
        caps = [x.max_support() for x in t]
        out.update(F for F in itertools.combinations(range(1, N + 1), len(t))
                   if all(m >= c for m, c in zip(F, caps)))
    while True:
        more = {G for F in out for i in range(len(F))
                for G in [F[:i] + F[i + 1:]] + [
                    F[:i] + (v,) + F[i + 1:] for v in range(
                        F[i] + 1, F[i + 1] if i + 1 < len(F) else N + 1)]}
        if more <= out:
            return out
        out |= more


class TestSearch:
    def test_basis_vectors_succeed(self):
        res = index_lower_bound_search(T12, schreier(1), 2, 6)
        assert not isinstance(res, SearchFailure)
        bt, cert = res
        assert cert.ok and bt.mode == "l1"
        assert max(map(len, bt.branches)) == 3  # longest maximal member within 6

    @pytest.mark.parametrize("fam,universe", [
        (schreier(1), 9), (schreier(2), 8), (LISTED, 6), (LISTED, 4)],
        ids=["S1", "S2", "listed-6", "listed-4"])
    def test_branches_are_the_maximal_members(self, fam, universe):
        assert_search_branches_are_maximal(fam, universe)

    @given(listed_sets)
    def test_maximal_members_of_listed_families(self, sets):
        # members of a non-hereditary family may skip sizes, and points
        # past the universe drop their sets
        assert_search_branches_are_maximal(explicit_family(sets, close=False), 7)

    def test_equal_points_share_one_label(self, monkeypatch):
        # the basis strategy hands the tree one label object per point
        seen = []

        class Spy(BlockTree):
            @classmethod
            def from_branches(cls, branches, *args):
                seen.extend(branches)
                return BlockTree.from_branches(branches, *args)

        monkeypatch.setattr(trees, "BlockTree", Spy)
        index_lower_bound_search(L1(), schreier(1), 1, 9)
        labels = {}
        for x in itertools.chain.from_iterable(seen):
            assert labels.setdefault(x.support, x) is x
        assert sorted(labels) == [(m,) for m in range(1, 10)]

    def test_c0_failure_with_stats(self):
        res = index_lower_bound_search(C0(), schreier(1), Fraction(3, 2), 5)
        assert isinstance(res, SearchFailure)
        assert res.stats["strategies"]
        assert res.stats["branches"] > 0

    def test_refused_strategy_is_recorded(self):
        # at universe 9 the averages of S_1's member (5, ..., 9) reach 80
        # points, past the Tsirelson norm's support bound
        res = index_lower_bound_search(T12, schreier(1), 1, 9)
        assert isinstance(res, SearchFailure)
        assert res.stats["strategies"][1] == {
            "strategy": "averages",
            "error": "support: 80 exceeds SUPPORT_BOUND = 72"}

    def test_strategy_bug_propagates(self, monkeypatch):
        # only a refusal means that a strategy does not apply
        def broken(member, space):
            raise TypeError("broken strategy")

        monkeypatch.setattr(trees, "_average_branch", broken)
        with pytest.raises(TypeError, match="broken strategy"):
            index_lower_bound_search(C0(), schreier(1), Fraction(3, 2), 5)

    def test_empty_family_trivial_success(self):
        fam = explicit_family([()], close=False)
        bt, cert = index_lower_bound_search(T12, fam, 2, 5)
        assert cert.ok and bt.branches == () and cert.K == 2

    @pytest.mark.parametrize("sets", [[()], [(1, 2), (3,)]],
                             ids=["empty", "listed"])
    def test_constant_is_one_fraction(self, sets):
        # an empty family's tree gets the same exact constant as any other
        bt, cert = index_lower_bound_search(L1(), explicit_family(sets), 1.5, 5)
        assert bt.K == cert.K == Fraction(3, 2)
        assert type(bt.K) is type(cert.K) is Fraction
