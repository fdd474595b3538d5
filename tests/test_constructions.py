import itertools
from fractions import Fraction

import pytest

from conftest import brute_s1, brute_schreier, implicit_norm_oracle

from schreierlab.constructions import (ConstructionError, SCCInfeasibleError,
                                       build_scc, check_spreading_model,
                                       distortion_scan, gluing_lemma1,
                                       gluing_lemma2, gluing_lemma3,
                                       gluing_lemma4, measure_asymptoticity)
from schreierlab.families import schreier, schreier_member
from schreierlab.ordinal import Ordinal
from schreierlab.spaces import (C0, L1, Derived, FsVector, Schlumprecht,
                                Tsirelson, norm)
from schreierlab.trees import BlockTree

T12 = Tsirelson(Ordinal.from_int(1), Fraction(1, 2))


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

    def test_l1_base_trivial(self):
        scc = build_scc(1, 0, Fraction(1, 2), 3)
        tree = BlockTree.from_branches(
            [tuple(FsVector.basis(m) for m in scc.F)], "l1", Fraction(1))
        rep = gluing_lemma2(L1(), 0, tree, 1, 2, 1, start=3)
        assert rep.status == "verified"
        assert rep.values["norm"] == 1 and rep.values["assoc_norm"] == 1


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

    def test_malformed_biorthogonals(self):
        blocks = [FsVector.basis(i) for i in (1, 2, 3, 4)]
        funcs = [FsVector.basis(i) for i in (1, 2, 3, 5)]
        with pytest.raises(ConstructionError):
            gluing_lemma3(C0(), 2, blocks, funcs)


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

    def test_alpha_zero_trivial(self):
        basis = [FsVector.basis(i) for i in range(1, 11)]
        rep = check_spreading_model(C0(), basis, 0, Fraction(1), 10)
        assert rep.passed

    def test_monotone_in_C(self):
        basis = [FsVector.basis(i) for i in range(1, 9)]
        fail = check_spreading_model(C0(), basis, 1, Fraction(2), 8)
        ok = check_spreading_model(C0(), basis, 1, Fraction(4), 8)
        assert not fail.passed and ok.passed


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


ORACLE_NORMS = {
    "c0": (C0(), lambda pairs: max(abs(v) for _, v in pairs)),
    "l1": (L1(), lambda pairs: sum(abs(v) for _, v in pairs)),
    "T": (T12, lambda pairs: implicit_norm_oracle(
        pairs, [(brute_s1, Fraction(1, 2))])),
}


def spreading_oracle(name, alpha, blocks, C, universe):
    """(passed, witness) by brute force: the members of S_alpha among all
    subsets of {1..universe} in lexicographic order, each block sum built
    as a plain list of pairs and normed by the oracle."""
    oracle = ORACLE_NORMS[name][1]
    members = sorted(
        F for r in range(1, universe + 1)
        for F in itertools.combinations(range(1, universe + 1), r)
        if brute_schreier(Ordinal.from_int(alpha), F))
    for F in members:
        value = oracle([p for i in F for p in blocks[i - 1].entries])
        if C * value < len(F):
            return False, (F, (1,) * len(F), value)
    return True, ()


class TestSpreadingOracle:
    @pytest.mark.parametrize("name,alpha,kind,universe,C,passes", [
        ("c0", 1, "basis", 10, 5, True),
        ("c0", 1, "basis", 10, 4, False),
        ("c0", 1, "mixed", 10, 10, True),
        ("c0", 1, "mixed", 10, 4, False),
        ("c0", 2, "avg", 10, 16, True),
        ("c0", 2, "avg", 10, 15, False),
        ("l1", 1, "avg", 10, 1, True),
        ("l1", 2, "basis", 10, 1, True),
        ("l1", 2, "basis", 10, Fraction(9, 10), False),
        ("T", 1, "basis", 10, 2, True),
        ("T", 1, "avg", 6, Fraction(8, 3), True),
        ("T", 1, "avg", 6, Fraction(5, 2), False),
        ("T", 2, "basis", 8, Fraction(10, 3), True),
        ("T", 2, "basis", 8, 3, False),
    ])
    def test_against_brute_force(self, name, alpha, kind, universe, C, passes):
        blocks = _oracle_blocks(kind, universe)
        rep = check_spreading_model(ORACLE_NORMS[name][0], blocks, alpha,
                                    Fraction(C), universe)
        want = spreading_oracle(name, alpha, blocks, Fraction(C), universe)
        assert want[0] is passes
        assert (rep.passed, rep.witness) == want


class TestAsymptoticity:
    def test_tsirelson_constant_two(self):
        for N in (6, 8, 10):
            assert measure_asymptoticity(T12, 1, N) == 2

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
