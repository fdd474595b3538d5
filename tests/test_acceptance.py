"""End-to-end acceptance checks.

Each test covers one headline capability, prints a single PASS/FAIL line
and enforces a wall-clock budget.  One check (criterion 08) fails by
design: the l1-equivalence constant it demands is not attained by the
basis tree it prescribes; see the README note on known-failing checks.
"""

import itertools
import json
import time
from fractions import Fraction

import pytest

from conftest import brute_s1, brute_s2, tsirelson_table_01
from schreierlab.constructions import (build_scc, check_spreading_model,
                                       distortion_scan, gluing_lemma1,
                                       gluing_lemma2, gluing_lemma3,
                                       gluing_lemma4, measure_asymptoticity)
from schreierlab.families import index_symbolic, power, schreier
from schreierlab.ordinal import Ordinal, parse as parse_ordinal
from schreierlab.spaces import (C0, Derived, FsVector, Schlumprecht,
                                Tsirelson, assoc_norm, norm)
from schreierlab.trees import BlockTree

T12 = Tsirelson(Ordinal.from_int(1), Fraction(1, 2))


class _Budget:
    def __init__(self, label, seconds):
        self.label, self.seconds = label, seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        ok = exc_type is None and elapsed <= self.seconds
        print("%s: %s (%.1fs, budget %ds)"
              % (self.label, "PASS" if ok else "FAIL", elapsed, self.seconds))
        if exc_type is None and elapsed > self.seconds:
            raise AssertionError("%s exceeded %ds budget (%.1fs)"
                                 % (self.label, self.seconds, elapsed))
        return False


def subsets(universe, max_size):
    rng = range(1, universe + 1)
    return itertools.chain.from_iterable(
        itertools.combinations(rng, r) for r in range(0, max_size + 1))


def test_criterion_01_membership_oracle_equivalence():
    with _Budget("criterion-01 membership oracles", 5):
        s1, s2 = schreier(1), schreier(2)
        for F in subsets(12, 6):
            assert s1.member(F) == brute_s1(F), F
            assert s2.member(F) == brute_s2(F), F


def test_criterion_02_regularity_sweep():
    with _Budget("criterion-02 regularity sweep", 30):
        for a in ("1", "2", "3", "w", "w+1", "w^2"):
            rep = schreier(parse_ordinal(a)).check_regular(10)
            assert rep.hereditary and rep.spreading, a


def test_criterion_03_derivative_closed_form():
    with _Budget("criterion-03 derivatives", 60):
        s1 = schreier(1)
        for k in range(1, 6):
            got = set(s1.iterated_derivative(k, 20).enumerate(20))
            want = {F for F in s1.enumerate(20)
                    if not F or len(F) + k <= F[0]}
            assert got == want, k
        s0 = schreier(0)
        d1 = s0.derivative(8)
        assert set(d1.enumerate(8)) == {()}
        assert set(d1.derivative(8).enumerate(8)) == set()


def test_criterion_04_symbolic_indices():
    with _Budget("criterion-04 symbolic indices", 5):
        for a in ("1", "2", "w", "w+1", "w^2"):
            idx = index_symbolic(schreier(parse_ordinal(a)))
            assert str(idx) == "w^(%s)" % a, a
        for a in ("1", "2", "w", "w^2"):
            for n in (1, 2, 3):
                idx = index_symbolic(power(schreier(parse_ordinal(a)), n))
                want = parse_ordinal(a).times_natural(n)
                assert str(idx) == "w^(%s)" % want, (a, n)


def test_criterion_05_norm_against_fixed_point_table():
    with _Budget("criterion-05 norm vs fixed-point table", 60):
        table = tsirelson_table_01(8)
        assert len(table) == 255
        for S, want in table.items():
            assert norm(T12, FsVector.indicator(S)) == want, S


def test_criterion_06_asymptoticity_and_sandwich():
    with _Budget("criterion-06 asymptoticity", 60):
        assert measure_asymptoticity(T12, 1, 10) == 2
        corpus = [FsVector.basis(5), FsVector.average([4, 5, 6, 7]),
                  FsVector.indicator([2, 3, 4]),
                  FsVector.from_pairs([(3, "1/2"), (6, "-1"), (9, "1/4")])]
        for x in corpus:
            base = norm(T12, x)
            a = assoc_norm(T12, 1, x)
            assert base <= a <= 2 * base, x


def test_criterion_07_two_sided_gluing():
    with _Budget("criterion-07 averaged gluing", 10):
        rep = gluing_lemma1(T12, 2, [FsVector.basis(i) for i in (4, 5, 6, 7)])
        assert rep.ok
        assert rep.values["norm"] == Fraction(1, 2)
        assert rep.values["norm_n"] == Fraction(5, 8)
        rep = gluing_lemma1(T12, 3, [FsVector.basis(i) for i in range(9, 18)])
        assert rep.ok
        assert rep.values["norm"] == Fraction(1, 2)


def _weighted_branch_tree(K):
    scc = build_scc(2, 1, Fraction(1, 2), 3)
    return BlockTree.from_branches(
        [tuple(FsVector.basis(m) for m in scc.F)], "l1", Fraction(K))


def test_criterion_08_weighted_gluing_at_stated_constant():
    # Fails by design: the all-ones witness on the 21-element branch has
    # norm 6 < 21/2, forcing K >= 7/2, so K=2 certification cannot succeed.
    with _Budget("criterion-08 weighted gluing K=2", 120):
        rep = gluing_lemma2(T12, 1, _weighted_branch_tree(2), 2, 2, 2, start=3)
        assert rep.ok, rep.values.get("reason", rep.status)


def test_criterion_08b_weighted_gluing_attainable_constant():
    with _Budget("criterion-08b weighted gluing K=4", 120):
        rep = gluing_lemma2(T12, 1, _weighted_branch_tree(4), 2, 2, 2, start=3)
        assert rep.ok
        assert rep.values["norm"] == Fraction(5, 18)
        assert rep.values["assoc_norm"] == Fraction(5, 9)


def test_criterion_09_scc_construction():
    with _Budget("criterion-09 convex combination build", 10):
        scc = build_scc(2, 1, Fraction(1, 4), 5)
        assert len(scc.F) == 155
        assert scc.max_eta_mass == Fraction(1, 5) < Fraction(1, 4)
        assert sum(scc.coefficients.values()) == 1


def test_criterion_10_c0_side_gluing():
    with _Budget("criterion-10 c0-side gluing", 30):
        blocks = [FsVector.basis(i) for i in (1, 2, 3, 4)]
        rep3 = gluing_lemma3(C0(), 2, blocks, blocks)
        assert rep3.status == "verified"
        scc = build_scc(2, 1, Fraction(1, 2), 3)
        tree = BlockTree.from_branches(
            [tuple(FsVector.basis(m) for m in scc.F)], "c0", Fraction(1))
        rep4 = gluing_lemma4(C0(), 1, tree, 2, 2, 2, start=3)
        assert rep4.status == "verified"


def test_criterion_11_distortion_scan():
    with _Budget("criterion-11 distortion scan", 120):
        corpus = [FsVector.basis(8)] + [FsVector.average(range(n, 2 * n))
                                        for n in (2, 4, 8)]
        der = Derived(T12, ("assoc", Ordinal.from_int(1), "admissible"))
        rep = distortion_scan(T12, der, corpus)
        assert rep.empirical_lambda == 2
        assert norm(der, rep.witness_max) == 2 * norm(T12, rep.witness_max)
        S = Schlumprecht()
        scorpus = [FsVector.indicator(range(1, 9)),
                   FsVector.average(range(4, 12))]
        lams = [distortion_scan(S, Derived(S, ("nn", n)),
                                scorpus).empirical_lambda
                for n in (2, 4, 8)]
        assert lams == sorted(lams)


def test_criterion_12_spreading_model_checks():
    with _Budget("criterion-12 spreading models", 120):
        basis12 = [FsVector.basis(i) for i in range(1, 13)]
        assert check_spreading_model(T12, basis12, 1, Fraction(2), 12).passed
        basis24 = [FsVector.basis(i) for i in range(1, 25)]
        rep = check_spreading_model(C0(), basis24, 1, Fraction(10), 24)
        assert not rep.passed
        F, _, value = rep.witness
        assert F == tuple(range(11, 22)) and value == 1


def test_criterion_13_deterministic_reports(tmp_path, capsys):
    with _Budget("criterion-13 deterministic reports", 30):
        from schreierlab.cli import main
        argv = ["scc", "--xi", "2", "--eta", "1", "--epsilon", "1/2",
                "--start", "3"]
        p1, p2 = tmp_path / "r.json", tmp_path / "r2.json"
        assert main(argv + ["--out", str(p1)]) == 0
        assert main(argv + ["--out", str(p2)]) == 0
        capsys.readouterr()
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1.replace(b"r.json", b"r2.json") == b2
        rep = json.loads(b1)
        assert rep["version"] and rep["fundamental_sequence_convention"]
        assert "timestamp" not in b1.decode().lower()
