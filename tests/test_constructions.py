import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import (brute_s1, brute_s2, brute_schreier, implicit_norm_oracle,
                      least_power_by_listing, successive_partitions)

from schreierlab.constructions import (ConstructionError, SCCInfeasibleError,
                                       build_scc, check_spreading_model,
                                       distortion_scan, gluing_lemma1,
                                       gluing_lemma2, gluing_lemma3,
                                       gluing_lemma4, measure_asymptoticity)
from schreierlab import constructions, families, spaces
from schreierlab.families import Family, ResourceBoundError, schreier_member
from schreierlab.ordinal import Ordinal, parse as parse_ordinal
from schreierlab.spaces import (C0, L1, Derived, FsVector, MixedTsirelson,
                                Schlumprecht, Tsirelson, norm)
from schreierlab.trees import BlockTree

T12 = Tsirelson(Ordinal.from_int(1), Fraction(1, 2))
T13 = Tsirelson(Ordinal.from_int(1), Fraction(1, 3))
MT = MixedTsirelson(((Ordinal.from_int(1), Fraction(1, 2)),
                     (Ordinal.from_int(2), Fraction(1, 4))))


class TestSCC:
    def test_uniform_level_one(self):
        s = build_scc(1, 0, Fraction(1, 4), 5)
        assert s.F == (5, 6, 7, 8, 9)
        assert set(s.coefficients.values()) == {Fraction(1, 5)}
        assert s.max_eta_mass == Fraction(1, 5)
        assert s.exhaustive

    def test_point_mass_needs_larger_start(self):
        with pytest.raises(SCCInfeasibleError) as exc:
            build_scc(1, 0, Fraction(1), 1)
        assert exc.value.minimal_start == 2
        s = build_scc(1, 0, Fraction(1), 2)
        assert s.F == (2, 3) and s.max_eta_mass == Fraction(1, 2)

    def test_level_two(self):
        s = build_scc(2, 1, Fraction(1, 4), 5)
        assert len(s.F) == 155
        assert s.max_eta_mass == Fraction(1, 5)
        assert sum(s.coefficients.values()) == 1
        assert schreier_member(Ordinal.from_int(2), s.F)

    def test_level_two_minimal_start(self):
        with pytest.raises(SCCInfeasibleError) as exc:
            build_scc(2, 1, Fraction(1, 4), 2)
        assert exc.value.minimal_start == 5

    def test_small_instance_literal_check(self):
        s = build_scc(2, 1, Fraction(1, 2), 3)
        assert len(s.F) == 21 and s.exhaustive
        assert s.max_eta_mass == Fraction(1, 3)

    def test_literal_check_catches_a_wrong_dp(self, monkeypatch):
        # the literal enumeration is independent of Family.max_mass: a DP
        # off by the smallest step is refused, not reported
        dp = Family.max_mass
        monkeypatch.setattr(Family, "max_mass", lambda fam, F, weights:
                            dp(fam, F, weights) + Fraction(1, 10 ** 9))
        with pytest.raises(ConstructionError,
                           match="mass DP disagrees with literal enumeration: "
                                 "1000000003/3000000000 vs 1/3"):
            build_scc(2, 1, Fraction(1, 2), 3)

    def test_literal_check_catches_a_wrong_dp_with_a_warm_memo(self, monkeypatch):
        # the literal maximum comes from the memo, but the fold still runs
        # and is compared with it
        build_scc(2, 1, Fraction(1, 2), 3)
        dp = Family.max_mass
        monkeypatch.setattr(Family, "max_mass", lambda fam, F, weights:
                            dp(fam, F, weights) + Fraction(1, 10 ** 9))
        with pytest.raises(ConstructionError,
                           match="mass DP disagrees with literal enumeration: "
                                 "1000000003/3000000000 vs 1/3"):
            build_scc(2, 1, Fraction(1, 2), 3)

    def test_same_set_and_weights_walk_once(self, monkeypatch):
        first = build_scc(2, 1, Fraction(1, 2), 3)

        def refuse(*args):
            raise AssertionError("S_eta's walk table folded again")

        monkeypatch.setattr(constructions, "_fold", refuse)
        again = build_scc(2, 1, Fraction(1, 2), 3)
        assert again == first and again.exhaustive

    def test_other_weights_on_the_same_set_miss_the_memo(self):
        # on one F, the memo is keyed by the weights as well: each
        # weighting gets its own brute-force maximum
        alpha, F = Ordinal.from_int(1), (2, 3, 5, 6, 8)
        for coeffs in ({2: Fraction(1, 2), 3: Fraction(1, 8), 5: Fraction(1, 8),
                        6: Fraction(1, 8), 8: Fraction(1, 8)},
                       {2: Fraction(1, 8), 3: Fraction(1, 8), 5: Fraction(1, 4),
                        6: Fraction(1, 4), 8: Fraction(1, 4)}):
            want = max(sum(coeffs[m] for m in G)
                       for r in range(len(F) + 1)
                       for G in itertools.combinations(F, r)
                       if brute_schreier(alpha, G))
            assert constructions._eta_masses(alpha, F, coeffs) == (want, want)

    def test_literal_memo_is_bounded(self):
        maxsize = constructions._literal_max.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0

    @pytest.mark.parametrize("eta", ["0", "1", "2", "w"])
    def test_eta_masses_against_brute_force(self, eta):
        # the literal walk against every subset of F that
        # conftest.brute_schreier accepts, which shares nothing with the cursor
        alpha = parse_ordinal(eta)
        rng = random.Random(eta)
        for _ in range(6):
            F = tuple(sorted(rng.sample(range(1, 15), rng.randint(1, 12))))
            coeffs = {m: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                      for m in F}
            want = max(sum(coeffs[m] for m in G)
                       for r in range(len(F) + 1)
                       for G in itertools.combinations(F, r)
                       if brute_schreier(alpha, G))
            assert constructions._eta_masses(alpha, F, coeffs) == (want, want), F

    def test_set_size_checked_before_it_is_built(self):
        # |F| = 2046 at start 2; its S_2 prefix {2,...,7} already has mass 1/2
        with pytest.raises(ResourceBoundError,
                           match="^points of the SCC set at start 2: 1025 "
                           "exceeds SCC_SIZE_BOUND = 1024$"):
            build_scc(3, 2, Fraction(1, 2), 2)

    def test_minimal_start_search_stops_at_the_size_bound(self):
        # the S_1 mass at start s is 1/s, and |F| = 2040 at start 8
        with pytest.raises(ResourceBoundError,
                           match="^points of the SCC set at start 8: 1025 "
                           "exceeds SCC_SIZE_BOUND = 1024$"):
            build_scc(2, 1, Fraction(1, 8), 1)

    def test_preconditions(self):
        with pytest.raises(ConstructionError):
            build_scc(1, 1, Fraction(1, 2), 2)
        with pytest.raises(ConstructionError):
            build_scc(1, 0, Fraction(2), 2)


class TestLemma1:
    def test_tsirelson_n2(self):
        rep = gluing_lemma1(T12, 2, [FsVector.basis(i) for i in (4, 5, 6, 7)])
        assert rep.status == "verified"
        assert rep.values["norm"] == Fraction(1, 2)
        assert rep.values["norm_n"] == Fraction(5, 8)

    def test_tsirelson_n3(self):
        rep = gluing_lemma1(T12, 3, [FsVector.basis(i) for i in range(9, 18)])
        assert rep.status == "verified"

    def test_l1_collapses(self):
        rep = gluing_lemma1(L1(), 2, [FsVector.basis(i) for i in (1, 2, 3, 4)])
        assert rep.status == "verified"
        assert rep.values["norm"] == rep.values["norm_n"] == 1

    def test_block_count_enforced(self):
        with pytest.raises(ConstructionError):
            gluing_lemma1(T12, 2, [FsVector.basis(1)])

    def test_zero_n_is_refused(self):
        # zero blocks for n = 0 would average with weight 1/0
        with pytest.raises(ConstructionError, match="^n must be >= 1, got 0$"):
            gluing_lemma1(T12, 0, [])

    def test_uncertifiable_blocks_reported(self):
        rep = gluing_lemma1(C0(), 2, [FsVector.basis(i) for i in (1, 2, 3, 4)])
        assert rep.status == "precondition-failed"


class TestLemma2:
    def _tree(self, K):
        scc = build_scc(2, 1, Fraction(1, 2), 3)
        return BlockTree.from_branches(
            [tuple(FsVector.basis(m) for m in scc.F)], "l1", Fraction(K))

    def test_k2_certification_honestly_fails(self):
        # basis vectors on an S_2 set are not 2-equivalent to l1 here
        rep = gluing_lemma2(T12, 1, self._tree(2), 2, 2, 2, start=3)
        assert rep.status == "precondition-failed"

    def test_k4_pipeline_verifies(self):
        rep = gluing_lemma2(T12, 1, self._tree(4), 2, 2, 2, start=3)
        assert rep.status == "verified"
        assert rep.values["norm"] == Fraction(5, 18)
        assert rep.values["assoc_norm"] == Fraction(5, 9)

    def test_one_start_search(self, monkeypatch):
        # start 1 is infeasible and its search finds 3 (starts 1, 2, 3);
        # the fit jumps there and checks it once more
        tree = self._tree(4)
        calls = []
        masses = constructions._eta_masses
        monkeypatch.setattr(constructions, "_eta_masses",
                            lambda *a: calls.append(a[1]) or masses(*a))
        rep = gluing_lemma2(T12, 1, tree, 2, 2, 2, start=1)
        assert rep.status == "verified" and rep.parameters["scc_start"] == 3
        assert [F[0] for F in calls] == [1, 2, 3, 3]

    def test_l1_base_trivial(self):
        scc = build_scc(1, 0, Fraction(1, 2), 3)
        tree = BlockTree.from_branches(
            [tuple(FsVector.basis(m) for m in scc.F)], "l1", Fraction(1))
        rep = gluing_lemma2(L1(), 0, tree, 1, 2, 1, start=3)
        assert rep.status == "verified"
        assert rep.values["norm"] == 1 and rep.values["assoc_norm"] == 1

    def test_empty_tree_has_no_branch_to_weight(self):
        # the empty tree certifies, and then no branch carries the SCC
        tree = BlockTree.from_branches((), "l1", Fraction(2))
        with pytest.raises(ConstructionError, match="tree has no branches"):
            gluing_lemma2(T12, 1, tree, 2, 2, 2, start=3)


class TestLemma3:
    def test_c0_exact(self):
        blocks = [FsVector.basis(i) for i in (1, 2, 3, 4)]
        rep = gluing_lemma3(C0(), 2, blocks, blocks)
        assert rep.status == "verified"
        assert rep.values["norm"] == 1
        assert rep.values["norm_n_lower"] == rep.values["norm_n_upper"] == 1

    def test_l1_blocks_fail_c0_certification(self):
        # each block is normalized but the sum has norm 5/2 > 2
        blocks = [FsVector.indicator([2 * i, 2 * i + 1]) for i in (1, 2, 3, 4)]
        funcs = [FsVector.basis(2 * i) for i in (1, 2, 3, 4)]
        rep = gluing_lemma3(T12, 2, blocks, funcs)
        assert rep.status == "precondition-failed"

    def test_zero_n_is_refused(self):
        with pytest.raises(ConstructionError, match="^n must be >= 1, got 0$"):
            gluing_lemma3(T12, 0, [], [])

    def test_malformed_biorthogonals(self):
        blocks = [FsVector.basis(i) for i in (1, 2, 3, 4)]
        funcs = [FsVector.basis(i) for i in (1, 2, 3, 5)]
        with pytest.raises(ConstructionError):
            gluing_lemma3(C0(), 2, blocks, funcs)

    def test_norming_functionals_are_not_yet_certified(self):
        # phi = 1_[a,a+3]/2 is theta times an S_1-admissible sum of
        # coordinate functionals, so its dual norm is 1; the dual bounds
        # give only the upper end sum |phi_i| = 2, and the lemma refuses.
        # Pinned until exact dual norms decide it.
        blocks = [FsVector.indicator(range(a, a + 4), Fraction(1, 2))
                  for a in (4, 8, 12, 16)]
        assert spaces.dual_norm(T12, blocks[0]).upper == 2
        with pytest.raises(ConstructionError,
                           match="^functional 0: normalization not certified$"):
            gluing_lemma3(T12, 2, blocks, blocks)


class TestLemma4:
    def test_c0_eta1(self):
        scc = build_scc(2, 1, Fraction(1, 2), 3)
        tree = BlockTree.from_branches(
            [tuple(FsVector.basis(m) for m in scc.F)], "c0", Fraction(1))
        rep = gluing_lemma4(C0(), 1, tree, 2, 2, 2, start=3)
        assert rep.status == "verified"
        assert rep.values["norm"] == 1
        assert rep.values["assoc_lower"] == rep.values["assoc_upper"] == 1

    def test_c0_eta0_degenerate(self):
        tree = BlockTree.from_branches(
            [tuple(FsVector.basis(m) for m in (3, 4, 5))], "c0", Fraction(1))
        rep = gluing_lemma4(C0(), 0, tree, 1, 2, 1, start=3)
        assert rep.status == "verified"


def _basis_tree(points, mode, K):
    return BlockTree.from_branches(
        [tuple(FsVector.basis(m) for m in points)], mode, Fraction(K))


S2_SCC = tuple(range(3, 24))  # the set of build_scc(2, 1, 1/2, 3)
T2_PARAMS = {"C1": "2", "C2": "2", "eta": "1", "xi": "2"}


def _json_vector(*runs):
    return [[m, v] for points, v in runs for m in points]


# The full reports of the lemma tests above, pinned: status, vector,
# values, parameters and notes, in order.
PINNED_REPORTS = {
    "lemma1 T n=2": (
        lambda: gluing_lemma1(T12, 2, [FsVector.basis(i) for i in (4, 5, 6, 7)]),
        {"lemma": 1, "status": "verified",
         "vector": _json_vector(((4, 5, 6, 7), "1/4")),
         "values": {"norm": "1/2", "norm_n": "5/8"},
         "parameters": {"n": "2"}, "notes": []}),
    "lemma1 T n=3": (
        lambda: gluing_lemma1(T12, 3, [FsVector.basis(i) for i in range(9, 18)]),
        {"lemma": 1, "status": "verified",
         "vector": _json_vector((range(9, 18), "1/9")),
         "values": {"norm": "1/2", "norm_n": "11/18"},
         "parameters": {"n": "3"}, "notes": []}),
    "lemma1 L1": (
        lambda: gluing_lemma1(L1(), 2, [FsVector.basis(i) for i in (1, 2, 3, 4)]),
        {"lemma": 1, "status": "verified",
         "vector": _json_vector(((1, 2, 3, 4), "1/4")),
         "values": {"norm": "1", "norm_n": "1"},
         "parameters": {"n": "2"}, "notes": []}),
    "lemma1 C0 uncertifiable": (
        lambda: gluing_lemma1(C0(), 2, [FsVector.basis(i) for i in (1, 2, 3, 4)]),
        {"lemma": 1, "status": "precondition-failed", "vector": [],
         "values": {"reason": "l1 lower estimate fails"},
         "parameters": {"n": "2"},
         "notes": ["blocks are not 2-equivalent to l1"]}),
    "lemma2 T K=2": (
        lambda: gluing_lemma2(T12, 1, _basis_tree(S2_SCC, "l1", 2), 2, 2, 2,
                              start=3),
        {"lemma": 2, "status": "precondition-failed", "vector": [],
         "values": {"reason": "l1 lower estimate fails"},
         "parameters": dict(T2_PARAMS, K="2"), "notes": []}),
    "lemma2 T K=4": (
        lambda: gluing_lemma2(T12, 1, _basis_tree(S2_SCC, "l1", 4), 2, 2, 2,
                              start=3),
        {"lemma": 2, "status": "verified",
         "vector": _json_vector(((3, 4, 5), "1/9"), (range(6, 12), "1/18"),
                                (range(12, 24), "1/36")),
         "values": {"assoc_norm": "5/9", "norm": "5/18"},
         "parameters": dict(T2_PARAMS, K="4", scc_start="3"),
         "notes": ["scc start 3, |F|=21, max S_1 mass 1/3"]}),
    "lemma2 L1": (
        lambda: gluing_lemma2(L1(), 0, _basis_tree((3, 4, 5), "l1", 1), 1, 2, 1,
                              start=3),
        {"lemma": 2, "status": "verified",
         "vector": _json_vector(((3, 4, 5), "1/3")),
         "values": {"assoc_norm": "1", "norm": "1"},
         "parameters": {"C1": "1", "C2": "2", "K": "1", "eta": "0",
                        "scc_start": "3", "xi": "1"},
         "notes": ["scc start 3, |F|=3, max S_0 mass 1/3"]}),
    "lemma3 C0": (
        lambda: gluing_lemma3(C0(), 2, [FsVector.basis(i) for i in (1, 2, 3, 4)],
                              [FsVector.basis(i) for i in (1, 2, 3, 4)]),
        {"lemma": 3, "status": "verified",
         "vector": _json_vector(((1, 2, 3, 4), "1")),
         "values": {"norm": "1", "norm_n_lower": "1", "norm_n_upper": "1"},
         "parameters": {"n": "2"}, "notes": []}),
    "lemma3 T uncertifiable": (
        lambda: gluing_lemma3(
            T12, 2, [FsVector.indicator([2 * i, 2 * i + 1]) for i in (1, 2, 3, 4)],
            [FsVector.basis(2 * i) for i in (1, 2, 3, 4)]),
        {"lemma": 3, "status": "precondition-failed", "vector": [],
         "values": {"reason": "c0 upper estimate fails"},
         "parameters": {"n": "2"},
         "notes": ["blocks are not 2-equivalent to c0"]}),
    "lemma4 C0 eta=1": (
        lambda: gluing_lemma4(C0(), 1, _basis_tree(S2_SCC, "c0", 1), 2, 2, 2,
                              start=3),
        {"lemma": 4, "status": "verified",
         "vector": _json_vector((range(3, 24), "1")),
         "values": {"assoc_lower": "1", "assoc_upper": "1", "norm": "1"},
         "parameters": dict(T2_PARAMS, K="1", scc_start="3"),
         "notes": ["scc start 3, |F|=21"]}),
    "lemma4 C0 eta=0": (
        lambda: gluing_lemma4(C0(), 0, _basis_tree((3, 4, 5), "c0", 1), 1, 2, 1,
                              start=3),
        {"lemma": 4, "status": "verified",
         "vector": _json_vector(((3, 4, 5), "1")),
         "values": {"assoc_lower": "1", "assoc_upper": "1", "norm": "1"},
         "parameters": {"C1": "1", "C2": "2", "K": "1", "eta": "0",
                        "scc_start": "3", "xi": "1"},
         "notes": ["scc start 3, |F|=3"]}),
}


class TestGluingReports:
    @pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
    def test_full_report(self, name):
        call, want = PINNED_REPORTS[name]
        assert call().to_json() == want

    def test_lemma2_refuses_c0_tree(self):
        with pytest.raises(ConstructionError, match="l1-mode"):
            gluing_lemma2(T12, 1, _basis_tree(S2_SCC, "c0", 4), 2, 2, 2, start=3)

    def test_lemma4_refuses_l1_tree(self):
        with pytest.raises(ConstructionError, match="c0-mode"):
            gluing_lemma4(C0(), 0, _basis_tree((3, 4, 5), "l1", 1), 1, 2, 1,
                          start=3)

    def test_lemma3_float_mode_inconclusive(self):
        blocks = [FsVector.basis(i) for i in (1, 2, 3, 4)]
        rep = gluing_lemma3(Schlumprecht(), 2, blocks, blocks)
        assert rep.status == "inconclusive"
        assert rep.notes == ("float mode: verified status withheld",)
        assert rep.values["norm_n_lower"] == 1
        assert isinstance(rep.values["norm"], float)

    def test_lemma4_non_basis_blocks_need_functionals(self):
        # certifies, and the SCC on (3, 4, 5) fits under the caps (2, 3, 4)
        branch = (FsVector.indicator([1, 2]),) + tuple(
            FsVector.basis(m) for m in (3, 4, 5))
        tree = BlockTree.from_branches([branch], "c0", Fraction(1))
        with pytest.raises(ConstructionError, match="non-basis"):
            gluing_lemma4(C0(), 0, tree, 1, 2, 1, start=3)


class TestSpreadingModel:
    def test_tsirelson_passes(self):
        basis = [FsVector.basis(i) for i in range(1, 13)]
        rep = check_spreading_model(T12, basis, 1, Fraction(2), 12)
        assert rep.passed

    def test_c0_fails_with_witness(self):
        basis = [FsVector.basis(i) for i in range(1, 25)]
        rep = check_spreading_model(C0(), basis, 1, Fraction(10), 24)
        assert not rep.passed
        F, coeffs, value = rep.witness
        assert len(F) == 11 and F[0] == 11
        assert value == 1

    @pytest.mark.parametrize("space", [C0(), T12], ids=["c0", "T"])
    def test_scan_stops_at_its_witness(self, space):
        # S(w+1) has about 8.4M members within {1..24}, past MEMBER_BOUND;
        # the members are read lazily, so the first witness answers
        basis = [FsVector.basis(i) for i in range(1, 25)]
        rep = check_spreading_model(space, basis, parse_ordinal("w+1"),
                                    Fraction(1), 24)
        assert not rep.passed and rep.witness == ((2, 3), (1, 1), 1)

    def test_alpha_zero_trivial(self):
        basis = [FsVector.basis(i) for i in range(1, 11)]
        rep = check_spreading_model(C0(), basis, 0, Fraction(1), 10)
        assert rep.passed

    def test_monotone_in_C(self):
        basis = [FsVector.basis(i) for i in range(1, 9)]
        fail = check_spreading_model(C0(), basis, 1, Fraction(2), 8)
        ok = check_spreading_model(C0(), basis, 1, Fraction(4), 8)
        assert not fail.passed and ok.passed

    def test_zero_block_is_refused(self):
        with pytest.raises(ConstructionError):
            check_spreading_model(C0(), [FsVector.basis(1), FsVector()], 1, 2, 2)
        with pytest.raises(ConstructionError):
            check_spreading_model(C0(), [FsVector(), FsVector.basis(2)], 1, 2, 2)


@pytest.mark.parametrize("query", [
    lambda: measure_asymptoticity(T12, 1, -1),
    lambda: measure_asymptoticity(C0(), 1, -1),
    lambda: measure_asymptoticity(L1(), 1, -1),
    lambda: check_spreading_model(T12, [FsVector.basis(3)], 1, 2, -1),
    lambda: families.tail_domination(families.schreier(1),
                                     families.schreier(2), -1),
    lambda: families.schreier(1).tree_order(-1),
    lambda: families.explicit_family([(1,)]).tree_order(-1),
    lambda: families.schreier(1).enumerate(-1),
    lambda: families.schreier(1).is_maximal((1,), -1),
], ids=["asymptoticity-T", "asymptoticity-C0", "asymptoticity-L1",
        "spreading-model", "tail-domination", "tree-order",
        "tree-order-explicit", "enumerate", "is-maximal"])
def test_negative_universe_is_refused(query):
    # one check, before any bound or shortcut that would answer
    with pytest.raises(families.FamilyError,
                       match="^universe must be >= 0, got -1$"):
        query()


def _oracle_blocks(kind, universe):
    """Successive basis blocks, two-point averages, or ("mixed") basis
    blocks for the first half and two-point averages after it, where a
    failure comes later in lexicographic order than a smaller one."""
    widths = {"basis": [1] * universe, "avg": [2] * universe,
              "mixed": [1] * (universe // 2) + [2] * (universe - universe // 2)}
    blocks, start = [], 1
    for w in widths[kind]:
        blocks.append(FsVector.average(range(start, start + w)))
        start += w
    return blocks


@st.composite
def signed_blocks(draw, count):
    """`count` successive blocks of width 1-3 with nonzero signed values of
    mixed denominators, so a block's largest |value| may be negative."""
    blocks, start = [], 1
    for _ in range(count):
        values = draw(st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool),
            min_size=1, max_size=3))
        blocks.append(FsVector.from_pairs(zip(itertools.count(start), values)))
        start += len(values) + draw(st.integers(0, 1))
    return blocks


ORACLE_NORMS = {
    "c0": (C0(), lambda pairs: max(abs(v) for _, v in pairs)),
    "l1": (L1(), lambda pairs: sum(abs(v) for _, v in pairs)),
    "T": (T12, lambda pairs: implicit_norm_oracle(
        pairs, [(brute_s1, Fraction(1, 2))])),
    "T13": (T13, lambda pairs: implicit_norm_oracle(
        pairs, [(brute_s1, Fraction(1, 3))])),
    "MT": (MT, lambda pairs: implicit_norm_oracle(
        pairs, [(brute_s1, Fraction(1, 2)), (brute_s2, Fraction(1, 4))])),
}


ORACLE_ALPHAS = st.sampled_from(["0", "1", "2", "w", "w+1"]).map(parse_ordinal)


def spreading_oracle(name, alpha, blocks, C, universe):
    """(passed, witness) by brute force: the members of S_alpha (an
    Ordinal or a natural) among all subsets of {1..universe} in
    lexicographic order, each block sum built as a plain list of pairs
    and normed by the oracle."""
    oracle = ORACLE_NORMS[name][1]
    members = sorted(
        F for r in range(1, universe + 1)
        for F in itertools.combinations(range(1, universe + 1), r)
        if brute_schreier(Ordinal.of(alpha), F))
    for F in members:
        value = oracle([p for i in F for p in blocks[i - 1].entries])
        if C * value < len(F):
            return False, (F, (1,) * len(F), value)
    return True, ()


class TestSpreadingOracle:
    @pytest.mark.parametrize("name,alpha,kind,universe,C,passes", [
        ("c0", "1", "basis", 10, 5, True),
        ("c0", "1", "basis", 10, 4, False),
        ("c0", "1", "mixed", 10, 10, True),
        ("c0", "1", "mixed", 10, 4, False),
        ("c0", "2", "avg", 10, 16, True),
        ("c0", "2", "avg", 10, 15, False),
        ("l1", "1", "avg", 10, 1, True),
        ("l1", "2", "basis", 10, 1, True),
        ("l1", "2", "basis", 10, Fraction(9, 10), False),
        ("T", "1", "basis", 10, 2, True),
        ("T", "1", "avg", 6, Fraction(8, 3), True),
        ("T", "1", "avg", 6, Fraction(5, 2), False),
        ("T", "2", "basis", 8, Fraction(10, 3), True),
        ("T", "2", "basis", 8, 3, False),
        ("c0", "w", "basis", 10, 8, True),
        ("c0", "w", "basis", 10, 7, False),
        ("c0", "w+1", "mixed", 10, 10, True),
        ("c0", "w+1", "mixed", 10, 9, False),
        ("l1", "w", "avg", 10, 1, True),
        ("l1", "w+1", "mixed", 10, Fraction(9, 10), False),
    ])
    def test_against_brute_force(self, name, alpha, kind, universe, C, passes):
        alpha = parse_ordinal(alpha)
        blocks = _oracle_blocks(kind, universe)
        rep = check_spreading_model(ORACLE_NORMS[name][0], blocks, alpha,
                                    Fraction(C), universe)
        want = spreading_oracle(name, alpha, blocks, Fraction(C), universe)
        assert want[0] is passes
        assert (rep.passed, rep.witness) == want

    @given(st.sampled_from(["c0", "l1"]), ORACLE_ALPHAS, st.integers(1, 9),
           st.data())
    def test_block_norms_against_brute_force(self, name, alpha, universe, data):
        # c0 and l1 with exact values take the int block-norm path
        blocks = data.draw(signed_blocks(universe))
        C = data.draw(st.fractions(min_value=-1, max_value=4,
                                   max_denominator=7))
        rep = check_spreading_model(ORACLE_NORMS[name][0], blocks, alpha, C,
                                    universe)
        want = spreading_oracle(name, alpha, blocks, C, universe)
        assert (rep.passed, rep.witness) == want
        if not rep.passed:
            assert type(rep.witness[2]) is Fraction

    @given(st.sampled_from(["T", "T13", "MT"]), st.integers(0, 2),
           st.integers(1, 4), st.data())
    def test_shared_segment_memo_against_brute_force(self, name, alpha,
                                                     universe, data):
        # the x_F of one scan share a segment memo over one Q; the blocks
        # have mixed denominators and sizes, so x_F's own Q differs from
        # the scan's (S_2 within {1..4} would give 9-point x_F, too many
        # for the oracle)
        universe = min(universe, 3) if alpha == 2 else universe
        blocks = data.draw(signed_blocks(universe))
        C = data.draw(st.fractions(min_value=-1, max_value=4,
                                   max_denominator=7))
        rep = check_spreading_model(ORACLE_NORMS[name][0], blocks, alpha, C,
                                    universe)
        want = spreading_oracle(name, alpha, blocks, C, universe)
        assert (rep.passed, rep.witness) == want

    @pytest.mark.parametrize("space,C,passes", [
        (T12, 3, False), (T13, 6, True), (MT, 4, True)], ids=["T", "T13", "MT"])
    def test_segment_memo_bound_keeps_the_report(self, monkeypatch, space, C,
                                                 passes):
        # two-point averages over the 250 members of S_2 within {1..9}; a
        # memo of 4 entries is cleared many times in one scan
        blocks = _oracle_blocks("avg", 9)
        want = check_spreading_model(space, blocks, 2, Fraction(C), 9)
        assert want.passed is passes
        monkeypatch.setattr(spaces, "SEGMENT_MEMO_BOUND", 4)
        assert check_spreading_model(space, blocks, 2, Fraction(C), 9) == want

    @pytest.mark.parametrize("space,value", [(C0(), 5), (L1(), 7)],
                             ids=["c0", "l1"])
    def test_raw_int_entries_give_a_fraction_witness(self, space, value):
        blocks = [FsVector(((1, 2), (3, -5))), FsVector(((4, 1),))]
        assert check_spreading_model(space, blocks, 1, 1, 2).passed
        rep = check_spreading_model(space, blocks, 1, Fraction(1, 10), 2)
        assert rep.witness == ((1,), (1,), value)
        assert type(rep.witness[2]) is Fraction
        assert rep.to_json()["witness"]["value"] == str(value)

    @pytest.mark.parametrize("space,C,want", [
        (C0(), Fraction(2), ((2,), (1,), 0.25)),
        (C0(), 5.0, ((2, 3), (1, 1), Fraction(1, 3))),
        (L1(), 2.0, ((2,), (1,), 0.25)),
        (L1(), Fraction(5), ()),
    ])
    def test_float_values_or_C_keep_the_norm_path(self, space, C, want):
        # the reports of the vector-and-norm scan, value types included
        blocks = [FsVector.from_pairs([(1, 0.5), (2, Fraction(-3, 4))]),
                  FsVector.from_pairs([(3, 0.25)]),
                  FsVector.from_pairs([(4, Fraction(1, 3))])]
        rep = check_spreading_model(space, blocks, 1, C, 3)
        assert rep.passed is (want == ()) and rep.witness == want
        assert [type(v) for v in rep.witness[2:]] == [type(v) for v in want[2:]]

    @pytest.mark.parametrize("space,C,want", [
        (C0(), 1.6666666666666665, ((1,), (1,), Fraction(3, 5))),
        (T12, 1.6666666666666665, ((1,), (1,), Fraction(3, 5))),
        (L1(), 0.9, ((1,), (1,), Fraction(11, 10))),
        (T12, 3.0, ((2,), (1,), Fraction(1, 4))),
        (C0(), 10.0, ()),
    ], ids=["c0", "T", "l1", "T-later", "c0-passes"])
    def test_exact_blocks_with_a_float_C(self, space, C, want):
        # a float C is decided as C * ||x_F|| < |F| in floats, as when
        # each x_F is normed by `norm` (C * 3/5 is 0.99...9 < 1 here, while
        # C * 3 < 5 is false), and the witness value stays exact
        blocks = [FsVector.from_pairs([(1, Fraction(3, 5)), (2, Fraction(-1, 2))]),
                  FsVector.from_pairs([(3, Fraction(1, 4))]),
                  FsVector.from_pairs([(4, Fraction(3, 4))])]
        rep = check_spreading_model(space, blocks, 1, C, 3)
        assert rep.passed is (want == ()) and rep.witness == want
        assert [type(v) for v in rep.witness[2:]] == [type(v) for v in want[2:]]

    @pytest.mark.parametrize("space,alpha,C,universe,certified", [
        (C0(), 1, 10, 24, False), (L1(), 1, 1, 24, False),
        (T12, 2, Fraction(10, 3), 8, False), (T12, 1, 2, 8, True)],
        ids=["c0", "l1", "T", "T-certified"])
    def test_norm_calls(self, monkeypatch, space, alpha, C, universe,
                        certified):
        # c0 and l1 norm each block at most once.  In T the certificate's
        # floor norms each block once; with C * min ||x_i|| >= 1 a scan
        # then norms each x_F of two or more points, through spaces.norm
        # or one evaluator each, and a certified check none
        seen = []
        init = spaces._Evaluator.__init__

        def counted_norm(sp, x, **kw):
            seen.append(x)
            return norm(sp, x, **kw)

        def counted_init(ev, sp, x, *args):
            seen.append(x)
            init(ev, sp, x, *args)

        monkeypatch.setattr(spaces, "norm", counted_norm)
        monkeypatch.setattr(spaces._Evaluator, "__init__", counted_init)
        basis = [FsVector.basis(i) for i in range(1, 25)]
        rep = check_spreading_model(space, basis, alpha, Fraction(C), universe)
        if space == T12:
            assert rep.passed
            assert seen[:universe] == basis[:universe]
            # S_2 has 127 nonempty members within {1..8}, 8 of them singletons
            assert len(seen) == (8 if certified else 8 + 119)
        else:
            assert len(seen) <= universe


class TestBlockNormDecision:
    @given(st.sampled_from(["c0", "l1"]), ORACLE_ALPHAS, st.integers(1, 9),
           st.data())
    def test_decision_against_forced_scan(self, name, alpha, universe, data):
        # the decision's verdict and the report against the scan of every
        # member; C is drawn at, just below and just above the thresholds
        # k / ||x_i||, k = 0 giving C <= 0
        space = ORACLE_NORMS[name][0]
        blocks = data.draw(signed_blocks(universe))
        norms = {norm(space, b) for b in blocks}
        assume(universe == 1 or len(norms) > 1)
        thresholds = sorted({k / t for t in norms for k in range(universe + 1)})
        eps = Fraction(1, 10 ** 6)
        real = constructions._block_norm_pass
        for _ in range(3):
            C = (data.draw(st.sampled_from(thresholds))
                 + data.draw(st.sampled_from([-eps, 0, eps])))
            verdicts = []
            with pytest.MonkeyPatch.context() as m:
                m.setattr(constructions, "_block_norm_pass",
                          lambda *args: verdicts.append(real(*args)) or verdicts[-1])
                got = check_spreading_model(space, blocks, alpha, C, universe)
                m.setattr(constructions, "_block_norm_pass", lambda *args: None)
                want = check_spreading_model(space, blocks, alpha, C, universe)
            assert got == want
            assert verdicts == [want.passed]

    @pytest.mark.parametrize("space,alpha,kind,C", [
        (C0(), "w+1", "basis", 23), (C0(), "w+1", "mixed", 24),
        (C0(), "2", "avg", 42), (L1(), "3", "basis", 1),
        (L1(), "w+1", "avg", 1)], ids=["c0", "c0-mixed", "c0-avg", "l1", "l1-avg"])
    def test_a_passing_check_reads_no_member(self, monkeypatch, space, alpha,
                                             kind, C):
        # the longest members within {1..24} have 23 points in S_{w+1} and
        # 21 in S_2, and the avg blocks have c0 norm 1/2 and l1 norm 1;
        # each check was refused at MEMBER_BOUND while a pass listed the
        # members
        def refuse(*args):
            raise AssertionError("a member was read")

        monkeypatch.setattr(Family, "members", refuse)
        monkeypatch.setattr(families, "_walk", refuse)
        rep = check_spreading_model(space, _oracle_blocks(kind, 24),
                                    parse_ordinal(alpha), Fraction(C), 24)
        assert rep.passed

    def test_c0_at_w_plus_1_passes_at_universe_24_in_time(self):
        # the longest member of S_{w+1} within {1..24} has 23 points
        basis = [FsVector.basis(i) for i in range(1, 25)]
        t0 = time.perf_counter()
        assert check_spreading_model(C0(), basis, parse_ordinal("w+1"), 23,
                                     24).passed
        assert time.perf_counter() - t0 < 0.5

    def test_past_the_universe_bound_is_refused_first(self):
        basis = [FsVector.basis(i) for i in range(1, 26)]
        for space in (C0(), L1()):
            with pytest.raises(ResourceBoundError, match="ENUMERATION_BOUND"):
                check_spreading_model(space, basis, 1, 100, 25)

    def test_a_resource_bound_in_the_fold_falls_back_to_the_scan(self,
                                                                 monkeypatch):
        def bounded(*args):
            raise ResourceBoundError("mass fold", 2, "SOME_BOUND", 1)

        basis = [FsVector.basis(i) for i in range(1, 9)]
        want = [check_spreading_model(C0(), basis, 1, C, 8) for C in (3, 4)]
        monkeypatch.setattr(Family, "max_mass", bounded)
        assert constructions._block_norm_pass(C0(), 1, 5, 1, {1: 1}) is None
        assert [check_spreading_model(C0(), basis, 1, C, 8)
                for C in (3, 4)] == want
        assert [r.passed for r in want] == [False, True]


def _forced_scan(monkeypatch):
    """The scan path: the lower estimate certifies nothing."""
    monkeypatch.setattr(constructions, "_lower_estimate", lambda *args: None)


def _refuse_block_sums(monkeypatch):
    def refuse(*args):
        raise AssertionError("a block sum was normed")

    monkeypatch.setattr(constructions, "_BlockSums", refuse)


# MT with a second level that certifies where the first does not: at
# theta 1/2 the first level needs POW(S_1, 2) = S_2 for a factor 1/4
MT_SECOND = MixedTsirelson(((Ordinal.from_int(1), Fraction(1, 2)),
                            (Ordinal.from_int(2), Fraction(1, 3))))


class TestLowerEstimate:
    @pytest.mark.parametrize("name", ["T", "T13", "MT"])
    @pytest.mark.parametrize("alpha", ["0", "1", "2", "w", "w+1"])
    def test_spreading_certificate_against_forced_scan(self, monkeypatch,
                                                       name, alpha):
        space, alpha = ORACLE_NORMS[name][0], parse_ordinal(alpha)
        cases = list(itertools.product(["basis", "avg", "mixed"], [5, 8],
                                       [2, 3, 4, 9, 30]))
        got = {}
        calls = []
        real = constructions._lower_estimate
        monkeypatch.setattr(constructions, "_lower_estimate",
                            lambda *args: calls.append(real(*args)) or calls[-1])
        for kind, universe, C in cases:
            rep = check_spreading_model(space, _oracle_blocks(kind, universe),
                                        alpha, Fraction(C), universe)
            got[kind, universe, C] = (rep.passed, rep.witness)
        _forced_scan(monkeypatch)
        for kind, universe, C in cases:
            rep = check_spreading_model(space, _oracle_blocks(kind, universe),
                                        alpha, Fraction(C), universe)
            assert got[kind, universe, C] == (rep.passed, rep.witness)
        # the certificate answers some of the checks and declines others
        assert any(calls) and not all(calls)

    @pytest.mark.parametrize("name", ["T", "T13", "MT"])
    @pytest.mark.parametrize("alpha", ["0", "1", "2", "w", "w+1"])
    def test_asymptoticity_cap_against_forced_scan(self, monkeypatch, name,
                                                   alpha):
        space, alpha = ORACLE_NORMS[name][0], parse_ordinal(alpha)
        universes = [1, 4, 7, 10] if alpha < parse_ordinal("2") else [1, 4, 7, 9]
        got = [measure_asymptoticity(space, alpha, N) for N in universes]
        _forced_scan(monkeypatch)
        assert got == [measure_asymptoticity(space, alpha, N) for N in universes]

    def test_theta_suffices_but_inclusion_fails(self):
        # C * theta * m = 1, but S_2 does not lie in S_1 and a factor 1/4
        # from POW(S_1, 2) is below the floor 1/2: the scan reports its witness
        basis = _oracle_blocks("basis", 8)
        assert constructions._lower_estimate(
            T12, 2, range(1, 9), Fraction(1, 2)) is None
        rep = check_spreading_model(T12, basis, 2, Fraction(2), 8)
        assert not rep.passed
        assert (rep.passed, rep.witness) == spreading_oracle(
            "T", 2, basis, Fraction(2), 8)

    def test_certified_by_the_second_power(self, monkeypatch):
        basis = _oracle_blocks("basis", 8)
        assert constructions._lower_estimate(
            T12, 2, range(1, 9), Fraction(1, 4)) == Fraction(1, 4)
        want = spreading_oracle("T", 2, basis, Fraction(4), 8)
        _refuse_block_sums(monkeypatch)
        rep = check_spreading_model(T12, basis, 2, Fraction(4), 8)
        assert want == (True, ()) == (rep.passed, rep.witness)

    def test_mixed_space_certified_by_its_second_level_only(self,
                                                            monkeypatch):
        basis, points = _oracle_blocks("basis", 8), range(1, 9)
        assert constructions._lower_estimate(
            MT_SECOND, 2, points, Fraction(1, 3)) == Fraction(1, 3)
        assert constructions._lower_estimate(
            Tsirelson(*MT_SECOND.levels[0]), 2, points, Fraction(1, 3)) is None
        with monkeypatch.context() as m:
            _forced_scan(m)
            want = check_spreading_model(MT_SECOND, basis, 2, Fraction(3), 8)
        _refuse_block_sums(monkeypatch)
        assert check_spreading_model(MT_SECOND, basis, 2, Fraction(3), 8) == want
        assert want.passed

    def test_a_power_past_the_bound_is_skipped(self, monkeypatch):
        basis = _oracle_blocks("basis", 8)
        # a floor of 2**-150 admits powers up to 150; those past
        # POWER_BOUND are not tried, and nothing is refused
        huge = Fraction(2 ** 150)
        assert constructions._lower_estimate(
            T12, parse_ordinal("w"), range(1, 9), 1 / huge) is not None
        with monkeypatch.context() as m:
            _refuse_block_sums(m)
            assert check_spreading_model(T12, basis, parse_ordinal("w"), huge,
                                         8).passed
        # with the bound at 1, the power 2 that certifies alpha 2 at C = 4
        # is skipped, and the scan answers
        want = check_spreading_model(T12, basis, 2, Fraction(4), 8)
        monkeypatch.setattr(constructions, "POWER_BOUND", 1)
        assert constructions._lower_estimate(
            T12, 2, range(1, 9), Fraction(1, 4)) is None
        assert check_spreading_model(T12, basis, 2, Fraction(4), 8) == want

    def test_a_resource_bound_in_the_pass_falls_back_to_the_scan(
            self, monkeypatch):
        # a walk that meets a bound certifies nothing, and the scan answers
        basis = _oracle_blocks("basis", 8)
        want = spreading_oracle("T", 1, basis, Fraction(2), 8)

        def bounded(*args):
            raise ResourceBoundError("pair walk", 2, "SOME_BOUND", 1)

        monkeypatch.setattr(constructions, "_escape", bounded)
        assert constructions._lower_estimate(
            T12, 1, range(1, 9), Fraction(1, 2)) is None
        rep = check_spreading_model(T12, basis, 1, Fraction(2), 8)
        assert want == (True, ()) == (rep.passed, rep.witness)
        # past ENUMERATION_BOUND the check is refused before any walk
        basis = [FsVector.basis(i) for i in range(1, 26)]
        with pytest.raises(ResourceBoundError, match="ENUMERATION_BOUND"):
            check_spreading_model(T12, basis, 1, Fraction(2), 25)

    @pytest.mark.parametrize("alpha", ["0", "1", "2", "w", "w+1"])
    def test_least_powers_against_the_listing(self, alpha):
        # the least n, up to the cap 6 that the floor 2**-6 sets, with
        # every member of S_alpha in POW(S_a, n), by the walk and by
        # listing S_alpha
        alpha = parse_ordinal(alpha)
        for a in ("0", "1", "2", "w"):
            space = Tsirelson(parse_ordinal(a), Fraction(1, 2))
            for universe in (1, 4, 8, 12):
                n = least_power_by_listing(alpha, parse_ordinal(a), 6,
                                           universe)
                assert constructions._lower_estimate(
                    space, alpha, range(1, universe + 1),
                    Fraction(1, 2 ** 6)) == (n and Fraction(1, 2 ** n)), (
                        a, universe)

    def test_certified_basis_check_at_universe_24(self, monkeypatch):
        # S_1 has about 121k members within 24: none is listed, normed or
        # kept in schreier_member's cache
        basis = [FsVector.basis(i) for i in range(1, 25)]
        _refuse_block_sums(monkeypatch)
        before = schreier_member.cache_info().currsize
        t0 = time.perf_counter()
        assert check_spreading_model(T12, basis, 1, 2, 24).passed
        assert time.perf_counter() - t0 < 1
        assert schreier_member.cache_info().currsize == before

    def test_capped_scan_norms_the_systems_up_to_the_cap(self, monkeypatch):
        # the first listed system whose ratio is 2 = 1/theta is the 16th,
        # 24th and 28th at N = 8, 12 and 14; the units are segments of one
        # evaluator over 1..N, and each normed system has its own
        scanned, built = [], []
        real = spaces._BlockSums.norms

        def counted(sums, key_tuples):
            scanned.append(0)
            for item in real(sums, key_tuples):
                scanned[-1] += 1
                yield item

        class Evaluator(spaces._Evaluator):
            def __init__(self, *args):
                built.append(args[1].support)
                super().__init__(*args)

        monkeypatch.setattr(spaces._BlockSums, "norms", counted)
        monkeypatch.setattr(spaces, "_Evaluator", Evaluator)
        for N, systems in [(8, 16), (12, 24), (14, 28)]:
            scanned.clear()
            built.clear()
            assert measure_asymptoticity(T12, 1, N) == 2
            assert scanned == [systems]
            assert built[0] == tuple(range(1, N + 1))
            assert len(built) == systems + 1

    def test_universe_14_answers_fast_and_15_is_refused(self):
        t0 = time.perf_counter()
        assert measure_asymptoticity(T12, 1, 14) == 2
        assert time.perf_counter() - t0 < 0.3
        with pytest.raises(ResourceBoundError) as refused:
            measure_asymptoticity(T12, 1, 15)
        assert str(refused.value) == (
            "S_1 block systems within universe 15: 16391 exceeds "
            "ASYMPTOTICITY_SYSTEM_BOUND = 16384")


def interval_systems(lo, N):
    """Every nonempty system of successive intervals
    [a_1, b_1] < ... < [a_k, b_k] in {lo..N}, as tuples of (a, b) pairs."""
    for a in range(lo, N + 1):
        for b in range(a, N + 1):
            yield ((a, b),)
            for rest in interval_systems(b + 1, N):
                yield ((a, b),) + rest


def asymptoticity_oracle(oracle, alpha, N):
    """max(1, k / ||x_1 + ... + x_k||) by brute force over every system of
    successive intervals [a_1, b_1] < ... < [a_k, b_k] in {1..N} whose
    minima pass brute_schreier, each x_i the indicator of its interval
    divided by its norm; `oracle` norms a plain list of pairs, as in
    ORACLE_NORMS."""
    alpha = Ordinal.of(alpha)
    unit = {}
    best = Fraction(1)
    for system in interval_systems(1, N):
        if not brute_schreier(alpha, tuple(a for a, _ in system)):
            continue
        pairs = []
        for a, b in system:
            if (a, b) not in unit:
                unit[a, b] = 1 / oracle(
                    [(i, Fraction(1)) for i in range(a, b + 1)])
            pairs += [(i, unit[a, b]) for i in range(a, b + 1)]
        best = max(best, len(system) / oracle(pairs))
    return best


class TestAsymptoticity:
    def test_tsirelson_constant_two(self):
        for N in (6, 8, 10):
            assert measure_asymptoticity(T12, 1, N) == 2

    @pytest.mark.parametrize("desc,levels,alpha,N", [
        ("T(S(1),1/2)", [(brute_s1, Fraction(1, 2))], 1, 7),
        ("T(S(1),1/2)", [(brute_s1, Fraction(1, 2))], 2, 6),
        ("T(S(2),1/2)", [(brute_s2, Fraction(1, 2))], 1, 6),
        ("T(S(2),1/2)", [(brute_s2, Fraction(1, 2))], 2, 6),
        ("T(S(1),1/3)", [(brute_s1, Fraction(1, 3))], 1, 7),
        ("T(S(1),1/3)", [(brute_s1, Fraction(1, 3))], 2, 5),
        ("T(S(1),1/2)", [(brute_s1, Fraction(1, 2))], "w", 6),
        ("T(S(1),1/2)", [(brute_s1, Fraction(1, 2))], "w+1", 6),
        ("T(S(1),1/3)", [(brute_s1, Fraction(1, 3))], "w", 6),
        ("T(S(1),1/3)", [(brute_s1, Fraction(1, 3))], "w+1", 6),
    ])
    def test_against_brute_force(self, desc, levels, alpha, N):
        alpha = parse_ordinal(str(alpha))
        got = measure_asymptoticity(spaces.parse_space(desc), alpha, N)
        assert got == asymptoticity_oracle(
            lambda pairs: implicit_norm_oracle(pairs, levels), alpha, N)
        assert type(got) is Fraction

    @pytest.mark.parametrize("alpha,N", [(1, 6), (2, 5), ("w", 5)])
    def test_derived_space_against_brute_force(self, alpha, N):
        # an interval's norm in ASSOC(T(S(1),1/2),S(1),adm) depends on
        # where the interval starts, so a unit normed on another interval
        # of its length would show here
        t_norm = ORACLE_NORMS["T"][1]

        def assoc_oracle(pairs):
            # sum of T norms over successive pieces with S_1 minima
            value = dict(pairs)
            return max(sum(t_norm([(i, value[i]) for i in piece])
                           for piece in pieces)
                       for pieces in successive_partitions(value)
                       if brute_s1(tuple(piece[0] for piece in pieces)))

        alpha = parse_ordinal(str(alpha))
        space = spaces.parse_space("ASSOC(T(S(1),1/2),S(1),adm)")
        assert measure_asymptoticity(space, alpha, N) == asymptoticity_oracle(
            assoc_oracle, alpha, N)

    @pytest.mark.parametrize("name", ["c0", "l1"])
    @pytest.mark.parametrize("alpha", ["0", "1", "2", "w", "w+1"])
    @pytest.mark.parametrize("N", [0, 1, 6, 7, 8])
    def test_block_norms_against_brute_force(self, name, alpha, N):
        # c0 and l1 answer in closed form from the listed systems
        space, oracle = ORACLE_NORMS[name]
        alpha = parse_ordinal(alpha)
        got = measure_asymptoticity(space, alpha, N)
        assert got == asymptoticity_oracle(oracle, alpha, N)
        assert type(got) is Fraction

    @pytest.mark.parametrize("space,want", [(C0(), 1), (L1(), 1)],
                             ids=["c0", "l1"])
    def test_block_norms_build_no_units(self, monkeypatch, space, want):
        # 16,290 one-block systems within {1..180}, none of them normed
        _refuse_block_sums(monkeypatch)
        t0 = time.perf_counter()
        assert measure_asymptoticity(space, 0, 180) == want
        assert time.perf_counter() - t0 < 0.2

    def test_corpus_past_the_bound_is_refused(self, monkeypatch):
        # the bound is exact: S_1 has 2**N - 1 systems within {1..N}, 63 at
        # N = 6; S_2 has 616 at N = 8 and S_{w+1} 617
        for alpha, N in itertools.product(
                map(parse_ordinal, ["0", "1", "2", "w", "w+1"]), [1, 3, 6, 8]):
            count = sum(1 for system in interval_systems(1, N)
                        if brute_schreier(alpha, tuple(a for a, _ in system)))
            want = measure_asymptoticity(T12, alpha, N)
            monkeypatch.setattr(constructions, "ASYMPTOTICITY_SYSTEM_BOUND",
                                count)
            assert measure_asymptoticity(T12, alpha, N) == want
            monkeypatch.setattr(constructions, "ASYMPTOTICITY_SYSTEM_BOUND",
                                count - 1)
            # the refusal names the count it reached, `count` itself: in
            # closed form at alpha 0, else where the walk stops
            with pytest.raises(ResourceBoundError) as refused:
                measure_asymptoticity(T12, alpha, N)
            assert str(refused.value) == (
                "S_%s block systems within universe %d: %d exceeds "
                "ASYMPTOTICITY_SYSTEM_BOUND = %d" % (alpha, N, count, count - 1))
            monkeypatch.undo()

    def test_l1_one(self):
        assert measure_asymptoticity(L1(), 1, 8) == 1

    def test_c0_grows(self):
        assert measure_asymptoticity(C0(), 1, 10) == 5


class TestDistortionScan:
    def test_tsirelson_assoc_lambda_two(self):
        corpus = [FsVector.basis(8)] + [FsVector.average(range(n, 2 * n))
                                        for n in (2, 4, 8)]
        der = Derived(T12, ("assoc", Ordinal.from_int(1), "admissible"))
        rep = distortion_scan(T12, der, corpus)
        assert rep.empirical_lambda == 2
        assert rep.ratio_min == 1 and rep.ratio_max == 2
        # witnesses reproduce on re-evaluation
        assert norm(der, rep.witness_max) == rep.ratio_max
        assert norm(der, rep.witness_min) == rep.ratio_min
        assert norm(T12, rep.witness_max) == 1

    def test_l1_is_rigid(self):
        corpus = [FsVector.basis(3), FsVector.average([2, 3, 4])]
        der = Derived(L1(), ("assoc", Ordinal.from_int(1), "admissible"))
        rep = distortion_scan(L1(), der, corpus)
        assert rep.empirical_lambda == 1

    def test_schlumprecht_schedule_nondecreasing(self):
        S = Schlumprecht()
        corpus = [FsVector.indicator(range(1, 9)),
                  FsVector.average(range(4, 12))]
        lams = [distortion_scan(S, Derived(S, ("nn", n)), corpus).empirical_lambda
                for n in (2, 4, 8)]
        assert lams == sorted(lams)

    def test_empty_corpus(self):
        with pytest.raises(ConstructionError):
            distortion_scan(T12, T12, [])
