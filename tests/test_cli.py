import argparse
import itertools
import json
import time

import pytest

from conftest import brute_schreier, family_as_tree, order
from schreierlab import cli, constructions
from schreierlab.cli import CONVENTION, main
from schreierlab.families import parse_family
from schreierlab.ordinal import parse as parse_ordinal


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_fam_member_true(self, capsys):
        code, out, _ = run(capsys, "fam", "member", "--family", "S(1)",
                           "--set", "3,4,5")
        assert code == 0 and out.strip() == "true"

    def test_fam_member_deep_limit(self, capsys):
        # S(w^3) at min 9 descends through long successor chains
        code, out, _ = run(capsys, "fam", "member", "--family", "S(w^3)",
                           "--set", ",".join(map(str, range(9, 19))))
        assert code == 0 and out.strip() == "true"

    def test_fam_member_false(self, capsys):
        code, out, _ = run(capsys, "fam", "member", "--family", "S(1)",
                           "--set", "1,2")
        assert code == 1 and out.strip() == "false"

    @pytest.mark.parametrize("family", ["POW(S(1),3)", "BR(S(1),S(2))"])
    def test_fam_member_bracket_long_set(self, capsys, family):
        # 1,495 points: the bracket cursor reads them in one pass
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "fam", "member", "--family", family,
                           "--set", ",".join(map(str, range(5, 1500))))
        assert code == 0 and out.strip() == "true"
        assert time.perf_counter() - t0 < 2

    @pytest.mark.parametrize("family", ["BR(EXPL[{2,3}],S(1))",
                                        "BR(S(1),EXPL[{2}])",
                                        "POW(EXPL[{1}],2)"])
    def test_explicit_inside_bracket_is_usage_error(self, capsys, family):
        code, _, err = run(capsys, "fam", "member", "--family", family,
                           "--set", "2,3,5")
        assert code == 64 and "regular" in err

    def test_bad_set_is_usage_error(self, capsys):
        code, _, err = run(capsys, "fam", "member", "--family", "S(1)",
                           "--set", "1,x")
        assert code == 64 and "bad set" in err

    def test_norm_eval(self, capsys):
        code, out, _ = run(capsys, "norm", "eval", "--space", "T(S(1),1/2)",
                           "--vec", "[[2,\"1\"],[3,\"1\"]]")
        assert code == 0 and out.strip() == "1"

    def test_lemma1_verified(self, capsys):
        code, out, _ = run(capsys, "lemma1", "--space", "T(S(1),1/2)",
                           "--n", "2", "--blocks", "e4,e5,e6,e7")
        assert code == 0 and out.strip() == "verified"

    def test_infeasible_scc(self, capsys):
        code, _, _ = run(capsys, "scc", "--xi", "2", "--eta", "1",
                         "--epsilon", "1/4", "--start", "2")
        assert code == 1

    def test_bad_descriptor(self, capsys):
        code, _, err = run(capsys, "norm", "eval", "--space", "FOO",
                           "--vec", "[[1,\"1\"]]")
        assert code == 64 and "error" in err

    def test_misread_space_descriptor_is_usage_error(self, capsys):
        # a level's family must be S(a); Q(1) was once read as S(1)
        code, out, err = run(capsys, "norm", "eval", "--space",
                             "MT[(Q(1),1/2)]", "--vec",
                             '[[4,"1/4"],[5,"1/4"],[6,"1/4"],[7,"1/4"]]')
        assert code == 64 and out == "" and err.startswith("error:")

    def test_deep_space_nesting_is_a_resource_bound(self, capsys):
        # 200 NN levels once ended in a RecursionError inside spaces.norm
        code, out, err = run(capsys, "norm", "eval", "--space",
                             "NN(" * 200 + "C0" + ",2)" * 200,
                             "--vec", '[[4,"1/4"]]')
        assert code == 65 and out == ""
        assert err == ("resource bound: brackets nested in a descriptor: 101 "
                       "exceeds NESTING_BOUND = 100\n")

    def test_listed_family_closure_is_sized_first(self, capsys):
        # 2**21 subsets are refused before any is built; 2**18 are built
        t0 = time.perf_counter()
        code, out, err = run(capsys, "fam", "member", "--family",
                             "EXPL[{%s}]" % ",".join(map(str, range(1, 22))),
                             "--set", "1,2")
        assert time.perf_counter() - t0 < 1
        assert code == 65 and out == ""
        assert err == ("resource bound: subsets of the listed sets: 2097152 "
                       "exceeds MEMBER_BOUND = 1048576\n")
        code, out, _ = run(capsys, "fam", "member", "--family",
                           "EXPL[{%s}]" % ",".join(map(str, range(1, 19))),
                           "--set", "1,2")
        assert code == 0 and out.strip() == "true"

    def test_bad_vector_json(self, capsys):
        code, _, _ = run(capsys, "norm", "eval", "--space", "C0",
                         "--vec", "not json")
        assert code == 64

    @pytest.mark.parametrize("vec", ['[[1,"1/0"]]', '[[1.7,"1"]]',
                                     '[["1e99999999999",1]]',
                                     '[[1,"1e-99999999999"]]'])
    def test_bad_vector_values_are_usage_errors(self, capsys, vec):
        code, _, err = run(capsys, "norm", "eval", "--space", "T(S(1),1/2)",
                           "--vec", vec)
        assert code == 64 and "bad vector" in err

    @pytest.mark.parametrize("blocks", ["avg5-3", "avg3"])
    def test_bad_average_blocks_are_usage_errors(self, capsys, blocks):
        code, _, err = run(capsys, "lemma1", "--space", "T(S(1),1/2)",
                           "--n", "2", "--blocks", blocks)
        assert code == 64 and err.startswith("error:")

    def test_resource_bound(self, capsys):
        code, _, err = run(capsys, "fam", "enumerate", "--family", "S(1)",
                           "--universe", "99")
        assert code == 65 and err == ("resource bound: universe: 99 exceeds "
                                      "ENUMERATION_BOUND = 24\n")

    def test_power_levels_past_bound(self, capsys):
        code, out, err = run(capsys, "fam", "member", "--family",
                             "POW(S(1),100000)", "--set",
                             ",".join(map(str, range(5, 210))))
        assert code == 65 and out == ""
        assert err == "resource bound: power levels: 205 exceeds POWER_BOUND = 100\n"

    def test_nested_power_levels_past_bound(self, capsys):
        code, out, err = run(capsys, "fam", "member", "--family",
                             "POW(POW(POW(S(1),100),100),100)", "--set",
                             ",".join(map(str, range(1, 200))))
        assert code == 65 and out == ""
        assert err == "resource bound: power levels: 300 exceeds POWER_BOUND = 100\n"

    @pytest.mark.parametrize("space,size,want", [
        ("ASSOC(T(S(1),1/2),S(1),allow)", 11, "support of the allowable "
         "variant: 11 exceeds ALLOWABLE_SUPPORT_BOUND = 10"),
        ("T(S(1),1/2)", 257, "support: 257 exceeds SUPPORT_BOUND = 72")],
        ids=["allowable", "support"])
    def test_support_bounds_are_resource_bounds(self, space, size, want,
                                                capsys):
        vec = json.dumps([[i, "1"] for i in range(1, size + 1)])
        code, _, err = run(capsys, "norm", "eval", "--space", space,
                           "--vec", vec)
        assert code == 65 and err == "resource bound: %s\n" % want

    @pytest.mark.parametrize("argv", [
        ("scc", "--xi", "2", "--eta", "1", "--epsilon", "abc"),
        ("scc", "--xi", "2", "--eta", "1", "--epsilon", "1/0"),
        ("scc", "--xi", "2", "--eta", "1", "--epsilon", "1e-99999999999"),
        ("spreading", "--space", "C0", "--alpha", "1", "--C", "x"),
        ("spreading", "--space", "C0", "--alpha", "1", "--C", "1e99999999999"),
        ("lemma2", "--space", "C0", "--eta", "1", "--xi", "2", "--C2", "x"),
        ("lemma4", "--space", "C0", "--eta", "1", "--xi", "2", "--C2", "0"),
        ("tree", "search", "--family", "S(1)", "--K", "x"),
        ("norm", "eval", "--space", "T(S(1),1e-99999999999)", "--vec",
         '[[1,"1"]]'),
        ("ord", "parse", "--expr", "9" * 5000),
        ("ord", "fundseq", "--expr", "w^" + "9" * 5000),
    ], ids=lambda argv: " ".join(argv)[:40])
    def test_bad_numbers_are_usage_errors(self, capsys, argv):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == "" and err.startswith("error:")
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize("xi,eta,epsilon,start,code,want", [
        ("2", "1", "1/6", "1", 1, "infeasible (minimal start 7)\n"),
        ("2", "1", "1/8", "1", 65, "start 8"),
        ("3", "2", "1/2", "2", 65, "start 2"),
        ("w*3", "1", "1/2", "2", 65, "start 2"),
    ], ids=["minimal-start-7", "search-past-bound", "xi-3", "xi-w*3"])
    def test_scc_search_is_bounded(self, capsys, xi, eta, epsilon, start,
                                   code, want):
        t0 = time.perf_counter()
        got, out, err = run(capsys, "scc", "--xi", xi, "--eta", eta,
                            "--epsilon", epsilon, "--start", start)
        assert got == code
        if code == 1:
            assert out == want
        else:
            assert out == "" and err == (
                "resource bound: points of the SCC set at %s: 1025 exceeds "
                "SCC_SIZE_BOUND = 1024\n" % want)
        if xi == "w*3":  # sized in closed form, never built
            assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize("xi,start", [
        ("w^3", "7"), ("w^4", "7"), ("w^6", "3"), ("w^7*2", "2"), ("w^8", "2"),
        ("w^400", "2")])
    def test_scc_sizing_of_deep_ordinals_is_bounded(self, capsys, xi, start):
        # the descent through w^k runs on an explicit stack
        t0 = time.perf_counter()
        code, out, err = run(capsys, "scc", "--xi", xi, "--eta", "1",
                             "--epsilon", "1/2", "--start", start)
        want = ("ordinal terms sizing a run of S_w^400 from 2: 100087 exceeds "
                "LONGEST_WORK_BOUND = 100000" if xi == "w^400" else
                "points of the SCC set at start %s: 1025 exceeds SCC_SIZE_BOUND "
                "= 1024" % start)
        assert code == 65 and out == "" and err == "resource bound: %s\n" % want
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize("argv,want,seconds", [
        (("fam", "tail", "--family", "S(w)", "--other", "S(w+1)"),
         (0, "3\n", ""), 0.5),
        (("fam", "enumerate", "--family", "S(w+1)"),
         (65, "", "resource bound: members of S(w+1) within universe 24: "
          "1048577 exceeds MEMBER_BOUND = 1048576\n"), 10)],
        ids=["tail", "enumerate"])
    def test_enumeration_past_member_bound(self, capsys, argv, want, seconds):
        # S(w+1) has about 8.4M members within {1..24}: a listing is
        # refused, while tail domination walks pairs of cursor states and
        # lists none
        t0 = time.perf_counter()
        assert run(capsys, *argv, "--universe", "24") == want
        assert time.perf_counter() - t0 < seconds

    @pytest.mark.parametrize("argv,at_zero", [
        (("fam", "tail", "--family", "S(1)", "--other", "S(2)"), 1),
        (("fam", "regular", "--family", "S(1)"), 0),
        (("asymp", "--space", "C0", "--alpha", "1"), 0)],
        ids=["tail", "regular", "asymp"])
    def test_negative_universe_is_usage_error(self, capsys, argv, at_zero):
        code, out, err = run(capsys, *argv, "--universe", "-3")
        assert code == 64 and out == ""
        assert err == "error: --universe must be >= 0, got -3\n"
        # universe 0 stays an answer
        assert run(capsys, *argv, "--universe", "0")[0] == at_zero

    def test_asymptoticity_corpus_past_its_bound(self, capsys):
        # S_1 has 2**24 - 1 block systems within {1..24}, of which the walk
        # counts 16614; every S_alpha has the N(N+1)/2 one-block systems,
        # counted in closed form and refused before any is listed.  C0
        # norms no system: it folds the walk table for the longest member,
        # and its first row of 10**9 cursor steps is refused unbuilt
        system = ("S_%s block systems within universe %s: %d exceeds "
                  "ASYMPTOTICITY_SYSTEM_BOUND = 16384")
        for space, alpha, universe, want in [
                ("T(S(1),1/2)", "1", "24", system % ("1", "24", 16614)),
                ("T(S(1),1/2)", "1", "15", system % ("1", "15", 16391)),
                ("C0", "0", "1000000000", "walk-table cells folding S(0) over "
                 "1000000000 points: 1000000000 exceeds FOLD_CELL_BOUND = "
                 "262144"),
                ("T(S(1),1/2)", "w^5", "20000",
                 system % ("w^5", "20000", 200010000))]:
            t0 = time.perf_counter()
            code, out, err = run(capsys, "asymp", "--space", space,
                                 "--alpha", alpha, "--universe", universe)
            assert code == 65 and out == ""
            assert err == "resource bound: %s\n" % want
            assert time.perf_counter() - t0 < 2

    def test_asymptoticity_units_past_the_support_bound(self, capsys):
        # the units are pieces of one evaluator over the whole universe,
        # so 100 points are refused before any unit is normed
        t0 = time.perf_counter()
        code, out, err = run(capsys, "asymp", "--space", "T(S(1),1/2)",
                             "--alpha", "0", "--universe", "100")
        assert code == 65 and out == ""
        assert err == ("resource bound: support: 100 exceeds SUPPORT_BOUND "
                       "= 72\n")
        assert time.perf_counter() - t0 < 0.5

    def test_derived_asymptoticity_units_past_the_support_bound(self,
                                                               capsys):
        # a derived space's units are pieces of one engine of its base over
        # the whole universe, so 100 points are refused before any unit is
        # normed
        t0 = time.perf_counter()
        code, out, err = run(capsys, "asymp", "--space", "NN(T(S(1),1/2),2)",
                             "--alpha", "0", "--universe", "100")
        assert code == 65 and out == ""
        assert err == ("resource bound: support: 100 exceeds SUPPORT_BOUND "
                       "= 72\n")
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("alpha,universe,want", [
        ("1", "100", "50"), ("0", "181", "1"), ("w+1", "60", "59")])
    def test_c0_asymptoticity_reads_the_longest_member(self, capsys, alpha,
                                                       universe, want):
        # past the system bound: C0 folds for its longest member
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "asymp", "--space", "C0", "--alpha", alpha,
                           "--universe", universe)
        assert code == 0 and out.strip() == want
        assert time.perf_counter() - t0 < 1

    def test_l1_asymptoticity_is_one_at_any_universe(self, capsys):
        code, out, _ = run(capsys, "asymp", "--space", "L1", "--alpha", "2",
                           "--universe", "1000000000")
        assert code == 0 and out.strip() == "1"

    @pytest.mark.parametrize("argv,alpha", [
        (("fam", "member", "--family", "S(w^500)", "--set", "2,3"), "w^500"),
        (("norm", "eval", "--space", "T(S(w^2000),1/2)",
          "--vec", '[[2,"1"],[3,"1"]]'), "w^2000"),
        (("fam", "member", "--family", "S(500)", "--set", "1,2"), "500")],
        ids=["member", "norm", "successors"])
    def test_deep_cursor_descent_is_a_resource_bound(self, capsys, argv, alpha):
        # each ordinal the cursor start descends through nests it once more
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 65 and out == ""
        assert err == ("resource bound: ordinals the cursor of S_%s descends "
                       "through: 351 exceeds DESCENT_BOUND = 350\n" % alpha)
        assert time.perf_counter() - t0 < 1

    def test_deep_cursor_descent_below_the_bound_answers(self, capsys):
        code, out, _ = run(capsys, "fam", "member", "--family", "S(w^300)",
                           "--set", "2,3")
        assert code == 0 and out.strip() == "true"

    @pytest.mark.parametrize("space,size,want", [
        ("ASSOC(T(S(1),1/2),S(1),allow)", 11, "support of the allowable "
         "variant: 11 exceeds ALLOWABLE_SUPPORT_BOUND = 10"),
        ("MT[(S(1),1/2),(S(2),1/4)]", 73, "support: 73 exceeds SUPPORT_BOUND "
         "= 72")],
        ids=["allowable", "support"])
    def test_one_point_past_the_support_bounds(self, space, size, want,
                                               capsys):
        vec = json.dumps([[i, "1"] for i in range(1, size + 1)])
        t0 = time.perf_counter()
        code, out, err = run(capsys, "norm", "eval", "--space", space,
                             "--vec", vec)
        assert code == 65 and out == "" and err == "resource bound: %s\n" % want
        assert time.perf_counter() - t0 < 1

    def test_nested_derived_norm_reads_one_base_engine(self, capsys):
        # each piece of the ASSOC program is read from the one NN engine
        # over 1..40, and each NN piece from the one T engine: no level
        # builds an engine per piece
        vec = json.dumps([[i, "1"] for i in range(1, 41)])
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "norm", "eval", "--space",
                           "ASSOC(NN(T(S(1),1/2),3),S(1),adm)", "--vec", vec)
        assert code == 0 and out.strip() == "30"
        assert time.perf_counter() - t0 < 0.5

    def test_allowable_answers_at_its_support_bound(self, capsys):
        # the bound itself answers; in l1 every point joins a piece
        vec = json.dumps([[i, "1"] for i in range(1, 11)])
        code, out, _ = run(capsys, "norm", "eval", "--space",
                           "ASSOC(L1,S(1),allow)", "--vec", vec)
        assert code == 0 and out.strip() == "10"

    @pytest.mark.parametrize("argv,want", [
        (("scc", "--xi", "w^400", "--eta", "1", "--epsilon", "1/2", "--start",
          "2"), "ordinal terms sizing a run of S_w^400 from 2: 100087 exceeds "
         "LONGEST_WORK_BOUND = 100000"),
        (("fam", "member", "--family", "POW(S(1),101)", "--set",
          ",".join(map(str, range(5, 107)))),
         "power levels: 101 exceeds POWER_BOUND = 100"),
        (("fam", "member", "--family", "S(1000)", "--set", "1,2"),
         "ordinals the cursor of S_1000 descends through: 351 exceeds "
         "DESCENT_BOUND = 350"),
        (("fam", "enumerate", "--family", "S(1)", "--universe", "25"),
         "universe: 25 exceeds ENUMERATION_BOUND = 24"),
        (("fam", "enumerate", "--family", "EXPL[{1,2}]", "--universe", "25"),
         "universe: 25 exceeds ENUMERATION_BOUND = 24"),
        (("fam", "enumerate", "--family", "S(w+1)", "--universe", "24"),
         "members of S(w+1) within universe 24: 1048577 exceeds MEMBER_BOUND "
         "= 1048576"),
        (("fam", "derivative", "--family", "S(1)", "--steps", "65"),
         "derivative depth: 65 exceeds DERIVATIVE_BOUND = 64"),
        (("fam", "derivative", "--family", "EXPL[{1}]", "--steps", "65"),
         "derivative depth: 65 exceeds DERIVATIVE_BOUND = 64"),
        (("norm", "eval", "--space", "T(S(1),1/2)", "--vec",
          json.dumps([[i, "1"] for i in range(1, 74)])),
         "support: 73 exceeds SUPPORT_BOUND = 72"),
        (("norm", "eval", "--space", "ASSOC(T(S(1),1/2),S(1),allow)", "--vec",
          json.dumps([[i, "1"] for i in range(1, 12)])),
         "support of the allowable variant: 11 exceeds ALLOWABLE_SUPPORT_BOUND "
         "= 10"),
        (("scc", "--xi", "3", "--eta", "2", "--epsilon", "1/2", "--start",
          "2"), "points of the SCC set at start 2: 1025 exceeds SCC_SIZE_BOUND "
         "= 1024"),
        (("asymp", "--space", "T(S(1),1/2)", "--alpha", "1", "--universe",
          "15"), "S_1 block systems within universe 15: 16391 exceeds "
         "ASYMPTOTICITY_SYSTEM_BOUND = 16384"),
        (("ord", "fundseq", "--expr", "w", "--n", "10001"),
         "sequence length: 10001 exceeds FUNDSEQ_BOUND = 10000"),
        (("fam", "member", "--family", "BR(" * 200 + "S(1)" + ",S(1))" * 200,
          "--set", "1,2"),
         "brackets nested in a descriptor: 101 exceeds NESTING_BOUND = 100"),
        (("tree", "order", "--family", "S(0)", "--universe", "724"),
         "walk-table cells folding S(0) over 724 points: 262150 exceeds "
         "FOLD_CELL_BOUND = 262144"),
    ], ids=["LONGEST_WORK_BOUND", "POWER_BOUND", "DESCENT_BOUND",
            "ENUMERATION_BOUND", "ENUMERATION_BOUND-explicit", "MEMBER_BOUND",
            "DERIVATIVE_BOUND", "DERIVATIVE_BOUND-explicit", "SUPPORT_BOUND",
            "ALLOWABLE_SUPPORT_BOUND", "SCC_SIZE_BOUND",
            "ASYMPTOTICITY_SYSTEM_BOUND", "FUNDSEQ_BOUND", "NESTING_BOUND",
            "FOLD_CELL_BOUND"])
    def test_each_bound_refuses_in_one_format(self, capsys, argv, want):
        # what was counted, then the bound's name and limit
        code, out, err = run(capsys, *argv)
        assert code == 65 and out == "" and err == "resource bound: %s\n" % want

    @pytest.mark.parametrize("family", ["S(1)", "EXPL[{1,2}]"])
    def test_negative_derivative_order_is_usage_error(self, capsys, family):
        # -1 steps once answered 8 members of S(1) and none of EXPL[{1,2}]
        code, out, err = run(capsys, "fam", "derivative", "--family", family,
                             "--steps", "-1", "--universe", "4")
        assert code == 64 and out == ""
        assert err == "error: derivative order must be >= 0, got -1\n"

    def test_index_refusal_names_the_family(self, capsys):
        code, out, err = run(capsys, "fam", "index", "--family", "EXPL[{1}]")
        assert code == 64 and out == ""
        assert err == ("error: symbolic index undefined for EXPL[{1}]; use "
                       "brute force\n")

    @pytest.mark.parametrize("argv,want", [
        (("ord", "fundseq", "--expr", "w^w", "--n", "20000"),
         "error: exponent 'w' is not a natural"),
        (("tree", "search", "--family", "Q", "--space", "FOO"),
         "error: cannot parse space descriptor 'FOO'"),
        (("lemma2", "--space", "C0", "--eta", "x", "--xi", "q"),
         "error: bad ordinal term 'q'")],
        ids=["fundseq", "tree-search", "lemma2"])
    def test_first_bad_flag_listed_is_reported(self, capsys, argv, want):
        # flags are read in the action's flag order before the command
        # runs: --n is checked after --expr, --space read before --family
        # and --xi before --eta
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == "" and err.startswith(want)

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "suite", "nope")
        assert code == 64

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "norm", "eval", "--vec", "[[1,\"1\"]]")
        assert code == 64

    def test_bad_ordinal(self, capsys):
        code, _, _ = run(capsys, "ord", "parse", "--expr", "q")
        assert code == 64


class TestSubcommands:
    def test_norm_eval_w_squared(self, capsys):
        # six points from 7 on, where the uncollapsed cursor start sets of
        # S_{w^2} have millions of states
        code, out, _ = run(capsys, "norm", "eval", "--space", "T(S(w^2),1/2)",
                           "--vec", json.dumps([[i, "1"] for i in range(7, 13)]))
        assert code == 0 and out.strip() == "3"

    def test_ord_fundseq(self, capsys):
        code, out, _ = run(capsys, "ord", "fundseq", "--expr", "w^2", "--n", "3")
        assert code == 0 and out.strip() == "w, w*2, w*3"

    def test_ord_fundseq_negative_length_is_usage_error(self, capsys):
        code, out, err = run(capsys, "ord", "fundseq", "--expr", "w^2", "--n", "-1")
        assert code == 64 and out == ""
        assert err == "error: --n must be >= 0, got -1\n"
        # length 0 stays an answer
        assert run(capsys, "ord", "fundseq", "--expr", "w^2", "--n", "0")[0] == 0

    def test_ord_fundseq_past_its_bound(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "ord", "fundseq", "--expr", "w^2",
                             "--n", "100000000")
        assert time.perf_counter() - t0 < 1
        assert code == 65 and out == ""
        assert err == ("resource bound: sequence length: 100000000 exceeds "
                       "FUNDSEQ_BOUND = 10000\n")
        code, out, _ = run(capsys, "ord", "fundseq", "--expr", "w",
                           "--n", str(cli.FUNDSEQ_BOUND))
        assert code == 0 and out.count(",") == cli.FUNDSEQ_BOUND - 1

    def test_ord_compare(self, capsys):
        code, out, _ = run(capsys, "ord", "compare", "--a", "w", "--b", "w+1")
        assert code == 0 and out.strip() == "less"

    def test_tree_search_at_universe_20(self, capsys):
        # 17,711 members of S_1: the maximality and branch scans are linear
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "tree", "search", "--family", "S(1)",
                           "--universe", "20", "--space", "L1", "--K", "1")
        assert code == 0 and out == "certified depth 10\n"
        assert time.perf_counter() - t0 < 10

    def test_fam_index(self, capsys):
        code, out, _ = run(capsys, "fam", "index", "--family", "POW(S(2),3)")
        assert code == 0 and out.strip() == "w^(6)"

    @pytest.mark.parametrize("alpha", ["1", "2", "w"])
    @pytest.mark.parametrize("universe", [4, 6, 8])
    @pytest.mark.parametrize("steps", [0, 1, 2])
    def test_fam_enumerate_and_derivative(self, capsys, alpha, universe, steps):
        # oracle: the subsets F of {1..universe} that conftest.brute_schreier
        # accepts with `steps` points far above F added (a spreading family
        # extends F by k points exactly when it does so far away)
        a = parse_ordinal(alpha)
        far = tuple(range(100, 100 + steps))
        want = sorted(list(F) for r in range(universe + 1)
                      for F in itertools.combinations(range(1, universe + 1), r)
                      if brute_schreier(a, F + far))
        action = ["derivative", "--steps", str(steps)] if steps else ["enumerate"]
        code, out, _ = run(capsys, "fam", *action, "--family", "S(%s)" % alpha,
                           "--universe", str(universe), "--json")
        got = json.loads(out)["result"]
        assert code == 0 and got["count"] == len(want)
        assert sorted(got["members"]) == want

    def test_explicit_derivative_at_universe_14(self, capsys):
        # 16,384 listed sets: a derivative finds each set's one-point right
        # extensions under its prefix, so its work is linear in the sets
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "fam", "derivative", "--family",
                           "EXPL[{%s}]" % ",".join(map(str, range(1, 15))),
                           "--universe", "14", "--steps", "1")
        assert code == 0 and out == "8192 members after 1 steps\n"
        assert time.perf_counter() - t0 < 2

    def test_fam_tail(self, capsys):
        code, out, _ = run(capsys, "fam", "tail", "--family", "S(1)",
                           "--other", "S(2)", "--universe", "12")
        assert code == 0 and out.strip() == "7"

    def test_tree_order(self, capsys):
        code, out, _ = run(capsys, "tree", "order", "--family", "S(1)",
                           "--universe", "6")
        # longest member within {1..6} has 3 elements
        assert code == 0 and out.strip() == "3"

    @pytest.mark.parametrize("family,universe", [
        ("S(0)", 16), ("S(1)", 16), ("S(2)", 14), ("S(w)", 14),
        ("S(w+1)", 16), ("BR(S(1),S(2))", 12), ("POW(S(1),3)", 14),
        ("EXPL[{1,2,3},{2,5},{4,6,7,8}]", 16)])
    def test_tree_order_against_the_prefix_closure(self, capsys, family,
                                                   universe):
        # the fold over the members against the tree of their enumerations
        t = family_as_tree(parse_family(family), universe)
        code, out, _ = run(capsys, "tree", "order", "--family", family,
                           "--universe", str(universe), "--json")
        assert code == 0
        assert json.loads(out)["result"] == {"order": order(t), "nodes": len(t)}

    def test_tree_order_pinned(self, capsys):
        code, out, _ = run(capsys, "tree", "order", "--family", "S(w+1)",
                           "--universe", "16", "--json")
        assert code == 0
        assert json.loads(out)["result"] == {"order": 15, "nodes": 32768}

    @pytest.mark.parametrize("universe", [24, 60])
    def test_tree_order_past_the_member_bound(self, capsys, universe):
        # the fold over the walk table lists none of the 2**(N-1) members
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "tree", "order", "--family", "S(w+1)",
                           "--universe", str(universe), "--json")
        assert code == 0
        assert json.loads(out)["result"] == {"order": universe - 1,
                                             "nodes": 2 ** (universe - 1)}
        assert time.perf_counter() - t0 < 0.5

    def test_tree_search_pass_and_fail(self, capsys):
        code, out, _ = run(capsys, "tree", "search", "--family", "S(1)",
                           "--space", "T(S(1),1/2)", "--K", "2",
                           "--universe", "6")
        assert code == 0 and out.startswith("certified depth")
        code, _, _ = run(capsys, "tree", "search", "--family", "S(1)",
                         "--space", "C0", "--K", "3/2", "--universe", "5")
        assert code == 1

    def test_norm_dual(self, capsys):
        code, out, _ = run(capsys, "norm", "dual", "--space", "L1",
                           "--vec", "[[2,\"1\"],[3,\"-1/2\"]]")
        assert code == 0 and out.strip() == "[1, 1]"

    def test_scc_ok(self, capsys):
        code, out, _ = run(capsys, "scc", "--xi", "2", "--eta", "1",
                           "--epsilon", "1/2", "--start", "3")
        assert code == 0 and "|F|=21" in out and "1/3" in out

    def test_lemma2_verified(self, capsys):
        code, out, _ = run(capsys, "lemma2", "--space", "T(S(1),1/2)",
                           "--eta", "1", "--xi", "2", "--K", "4",
                           "--C1", "2", "--C2", "2", "--start", "3")
        assert code == 0 and out.strip() == "verified"

    def test_lemma2_walks_s_eta_once(self, capsys, monkeypatch):
        # the CLI builds the SCC for the basis tree and the lemma fits the
        # same one: the literal mass check folds S_eta's walk table once
        # between them
        walks = []
        fold = constructions._fold
        monkeypatch.setattr(constructions, "_fold",
                            lambda *a: walks.append(a[1]) or fold(*a))
        constructions._literal_max.cache_clear()
        code, out, _ = run(capsys, "lemma2", "--space", "T(S(1),1/2)",
                           "--eta", "1", "--xi", "2", "--K", "4",
                           "--start", "3", "--C1", "2", "--C2", "2")
        assert code == 0 and out.strip() == "verified"
        assert len(walks) == 1 and len(walks[0]) == 21

    def test_lemma2_infeasible_start(self, capsys):
        code, out, err = run(capsys, "lemma2", "--space", "T(S(1),1/2)",
                             "--eta", "1", "--xi", "2", "--start", "1")
        assert code == 1 and out == ""
        assert err == ("infeasible: epsilon 1/2 not met at start 1 (max S_1 "
                       "mass 1); minimal feasible start is 3\n")

    def test_lemma3_verified(self, capsys):
        code, out, _ = run(capsys, "lemma3", "--space", "C0", "--n", "2",
                           "--blocks", "e1,e2,e3,e4")
        assert code == 0 and out.strip() == "verified"

    def test_lemma4_verified(self, capsys):
        code, out, _ = run(capsys, "lemma4", "--space", "C0",
                           "--eta", "1", "--xi", "2", "--K", "1",
                           "--C1", "2", "--C2", "2", "--start", "3")
        assert code == 0 and out.strip() == "verified"

    def test_spreading_pass_fail(self, capsys):
        code, out, _ = run(capsys, "spreading", "--space", "T(S(1),1/2)",
                           "--alpha", "1", "--C", "2", "--universe", "12")
        assert code == 0 and out.strip() == "pass"
        code, out, _ = run(capsys, "spreading", "--space", "C0",
                           "--alpha", "1", "--C", "2", "--universe", "8")
        assert code == 1 and out.strip() == "fail"

    @pytest.mark.parametrize("space,alpha,C,code,witness", [
        ("C0", "1", "4", 1, ([5, 6, 7, 8, 9], "1")),
        ("L1", "1", "4", 0, None),
        ("L1", "2", "9/10", 1, ([1], "1")),
    ])
    def test_spreading_json(self, capsys, space, alpha, C, code, witness):
        got, out, _ = run(capsys, "spreading", "--space", space, "--alpha",
                          alpha, "--C", C, "--universe", "10", "--json")
        result = {"C": C, "alpha": alpha, "passed": witness is None,
                  "universe_max": 10}
        if witness:
            F, value = witness
            result["witness"] = {"F": F, "coefficients": [1] * len(F),
                                 "value": value}
        report = {"config": {"C": C, "alpha": alpha, "command": "spreading",
                             "json": True, "space": space, "universe": 10},
                  "fundamental_sequence_convention": CONVENTION,
                  "mode": "exact", "result": result, "version": "0.1.0"}
        assert got == code
        assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("space,alpha,C", [("L1", "3", "1"),
                                               ("C0", "w+1", "23")])
    def test_passing_c0_l1_spreading_past_member_bound(self, capsys, space,
                                                       alpha, C):
        # decided from the block norms; listing the members, both exited 65
        # at MEMBER_BOUND
        t0 = time.perf_counter()
        code, out, err = run(capsys, "spreading", "--space", space, "--alpha",
                             alpha, "--C", C, "--universe", "24")
        assert (code, out, err) == (0, "pass\n", "")
        assert time.perf_counter() - t0 < 1

    def test_certified_t_spreading_past_member_bound(self, capsys):
        # the lower estimate certifies it, each power decided by a walk
        # over pairs of cursor states; listing the members of S_{w+1},
        # it exited 65 at MEMBER_BOUND after minutes
        t0 = time.perf_counter()
        code, out, err = run(capsys, "spreading", "--space", "T(S(1),1/2)",
                             "--alpha", "w+1", "--C", "8", "--universe", "24")
        assert (code, out, err) == (0, "pass\n", "")
        assert time.perf_counter() - t0 < 1

    def test_failing_c0_spreading_keeps_its_witness(self, capsys):
        code, out, _ = run(capsys, "spreading", "--space", "C0", "--alpha",
                           "w+1", "--C", "22", "--universe", "24", "--json")
        assert code == 1
        assert json.loads(out)["result"]["witness"] == {
            "F": list(range(2, 25)), "coefficients": [1] * 23, "value": "1"}

    def test_asymp(self, capsys):
        code, out, _ = run(capsys, "asymp", "--space", "T(S(1),1/2)",
                           "--alpha", "1", "--universe", "8")
        assert code == 0 and out.strip() == "2"

    def test_distort(self, capsys):
        code, out, _ = run(capsys, "distort", "--space", "T(S(1),1/2)",
                           "--derived", "ASSOC(T(S(1),1/2),S(1),adm)",
                           "--corpus", "e8,avg2-3,avg4-7")
        assert code == 0 and out.strip() == "lambda = 2"

    def test_suites_pass(self, capsys):
        for name in ("schreier-core", "norms-exact"):
            code, out, _ = run(capsys, "suite", name)
            assert code == 0 and out.strip().endswith("4/4 passed"), name


class TestReports:
    ARGS = ("norm", "eval", "--space", "T(S(1),1/2)",
            "--vec", "[[4,\"1/4\"],[5,\"1/4\"],[6,\"1/4\"],[7,\"1/4\"]]")

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["result"]["norm"] == "1/2"
        assert rep["version"] == "0.1.0"
        assert rep["mode"] == "exact"
        assert rep["fundamental_sequence_convention"] == CONVENTION
        assert rep["config"]["space"] == "T(S(1),1/2)"

    @pytest.mark.parametrize("flag", [("--mode", "float"), ("--seed", "1")])
    def test_removed_flags_are_usage_errors(self, flag, capsys):
        code, _, err = run(capsys, *self.ARGS, *flag)
        assert code == 64 and "unrecognized arguments" in err

    def test_removed_asymp_variant_is_usage_error(self, capsys):
        code, _, err = run(capsys, "asymp", "--space", "T(S(1),1/2)",
                           "--alpha", "1", "--universe", "6",
                           "--variant", "allowable")
        assert code == 64 and "unrecognized arguments" in err

    def test_mode_reported_from_space(self, capsys):
        code, out, _ = run(capsys, "tree", "search", "--family", "S(1)",
                           "--space", "SCHL", "--universe", "6", "--json")
        rep = json.loads(out)
        assert code == 0 and rep["mode"] == "float"
        assert "mode" not in rep["config"] and "seed" not in rep["config"]

    @pytest.mark.parametrize("space,derived", [
        ("SCHL", "T(S(1),1/2)"), ("T(S(1),1/2)", "NN(SCHL,2)")])
    def test_distortion_mode_reported_from_either_space(self, capsys, space,
                                                        derived):
        # a float base norm makes every ratio a float
        code, out, _ = run(capsys, "distort", "--space", space, "--derived",
                           derived, "--corpus", "e8,avg2-3,avg4-7", "--json")
        rep = json.loads(out)
        assert code == 0 and rep["mode"] == "float"
        assert isinstance(rep["result"]["empirical_lambda"], float)

    def test_out_file_deterministic(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, *self.ARGS, "--out", str(p1))[0] == 0
        assert run(capsys, *self.ARGS, "--out", str(p2))[0] == 0
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 and b1.replace(b"a.json", b"b.json") == b2
        assert b"timestamp" not in b1.lower()
        assert not list(tmp_path.glob("*.tmp"))

    def test_out_keys_sorted(self, tmp_path, capsys):
        p = tmp_path / "r.json"
        run(capsys, "ord", "parse", "--expr", "w^2+3", "--out", str(p))
        rep = json.loads(p.read_text())
        keys = list(rep)
        assert keys == sorted(keys)


# A runnable value for each flag that each command, or each (command,
# action), reads, written off its handler.  Every parser also takes --out
# and --json; `suite` reads its positional suite name.
READS = {
    ("ord", "parse"): {"--expr": "w"},
    ("ord", "compare"): {"--a": "w", "--b": "1"},
    ("ord", "fundseq"): {"--expr": "w", "--n": "2"},
    ("fam", "member"): {"--family": "S(1)", "--set": "3,4"},
    ("fam", "enumerate"): {"--family": "S(1)", "--universe": "4"},
    ("fam", "derivative"): {"--family": "S(1)", "--steps": "1",
                            "--universe": "4"},
    ("fam", "index"): {"--family": "S(1)"},
    ("fam", "regular"): {"--family": "S(1)", "--universe": "4"},
    ("fam", "tail"): {"--family": "S(1)", "--other": "S(2)",
                      "--universe": "8"},
    ("tree", "order"): {"--family": "S(1)", "--universe": "4"},
    ("tree", "search"): {"--family": "S(1)", "--space": "L1", "--K": "1",
                         "--tree-mode": "l1", "--universe": "4"},
    ("norm", "eval"): {"--space": "L1", "--vec": '[[1,"1"]]'},
    ("norm", "dual"): {"--space": "L1", "--vec": '[[1,"1"]]'},
    ("scc",): {"--xi": "1", "--eta": "0", "--epsilon": "1/4", "--start": "5"},
    ("lemma1",): {"--space": "T(S(1),1/2)", "--n": "2",
                  "--blocks": "e4,e5,e6,e7"},
    ("lemma2",): {"--space": "T(S(1),1/2)", "--eta": "1", "--xi": "2",
                  "--K": "4", "--C1": "2", "--C2": "2", "--start": "3"},
    ("lemma3",): {"--space": "C0", "--n": "2", "--blocks": "e1,e2,e3,e4"},
    ("lemma4",): {"--space": "C0", "--eta": "1", "--xi": "2", "--K": "1",
                  "--C1": "2", "--C2": "2", "--start": "3"},
    ("spreading",): {"--space": "L1", "--alpha": "1", "--C": "1",
                     "--universe": "4"},
    ("asymp",): {"--space": "L1", "--alpha": "1", "--universe": "4"},
    ("distort",): {"--space": "L1", "--derived": "C0",
                   "--corpus": "e1,avg2-3"},
    ("suite",): {},
}
ALL_FLAGS = sorted(set().union(*READS.values()))


def argv_of(path, **values):
    """A runnable command line for a (command, action) path, every flag
    it reads given; `values` replaces some flags' values."""
    name = ["schreier-core"] if path == ("suite",) else []
    reads = dict(READS[path], **values)
    return [*path, *name, *itertools.chain(*reads.items())]


def accepted_flags(parser, path=()):
    """(command, action) path -> the flags its parser accepts; a parser
    that only dispatches to subparsers must accept none."""
    own = {s for a in parser._actions for s in a.option_strings} - {
        "-h", "--help"}
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {path: own}
    assert not own, path
    return {k: v for name, sp in subs[0].choices.items()
            for k, v in accepted_flags(sp, path + (name,)).items()}


class TestFlagTable:
    def test_each_action_accepts_the_flags_it_reads(self):
        assert accepted_flags(cli.build_parser()) == {
            path: set(reads) | {"--out", "--json"}
            for path, reads in READS.items()}

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("path", sorted(READS), ids=" ".join)
    def test_every_unread_flag_is_a_usage_error(self, capsys, path):
        for flag in sorted(set(ALL_FLAGS) - set(READS[path])):
            code, out, err = run(capsys, *argv_of(path), flag, "1")
            assert code == 64 and out == "", flag
            assert "unrecognized arguments: %s 1" % flag in err, flag

    @pytest.mark.parametrize("flag", ALL_FLAGS + ["--out", "--json"])
    def test_flag_before_the_subcommand_is_a_usage_error(self, capsys, flag):
        value = [] if flag == "--json" else ["1"]
        for path in (("fam", "enumerate"), ("asymp",)):
            code, out, err = run(capsys, flag, *value, *argv_of(path))
            assert code == 64 and out == ""
            assert "unrecognized arguments: %s" % flag in err
        # nor between a command and its action
        code, out, _ = run(capsys, "fam", flag, *value, "enumerate",
                           "--family", "S(1)")
        assert code == 64 and out == ""

    @pytest.mark.parametrize("path", sorted(READS), ids=" ".join)
    def test_report_config_holds_the_flags_read(self, capsys, path):
        code, out, _ = run(capsys, *argv_of(path), "--json")
        config = json.loads(out)["config"]
        want = {"command", "json", *(["action"] if len(path) == 2 else []),
                *(["name"] if path == ("suite",) else [])}
        want |= {flag[2:].replace("-", "_") for flag in READS[path]}
        assert code in (0, 1) and set(config) == want

    @pytest.mark.parametrize("path", sorted(READS), ids=" ".join)
    def test_report_mode_follows_the_spaces_read(self, capsys, path):
        # "float" exactly when --space or --derived is SCHL or built on it
        cases = [({}, "exact")]
        for flag, schl in (("--space", "SCHL"), ("--derived", "NN(SCHL,2)")):
            if flag in READS[path]:
                cases += [({flag: schl}, "float"),
                          ({flag: "T(S(1),1/2)"}, "exact")]
        for values, mode in cases:
            code, out, _ = run(capsys, *argv_of(path, **values), "--json")
            assert code in (0, 1, 2) and json.loads(out)["mode"] == mode, values

    def test_the_lemmas_share_one_handler(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert {sub.choices["lemma%d" % k].get_default("func")
                for k in (1, 2, 3, 4)} == {cli._cmd_gluing}

    @pytest.mark.parametrize("argv,flag", [
        (("--universe", "3", "fam", "enumerate", "--family", "S(1)"),
         "--universe"),
        (("--json", "fam", "member", "--family", "S(1)", "--set", "1"),
         "--json"),
        (("fam", "member", "--family", "S(1)", "--set", "5,6", "--universe",
          "3"), "--universe 3")], ids=["universe-first", "json-first",
                                       "member-universe"])
    def test_dropped_flags_are_refused(self, capsys, argv, flag):
        # each once answered as if the flag were absent
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == ""
        assert err.startswith("error: unrecognized arguments: %s" % flag)

    def test_abbreviated_flag_is_a_usage_error(self, capsys):
        # `--a` once read as --alpha wherever no --a was defined
        code, out, err = run(capsys, "fam", "enumerate", "--family", "S(1)",
                             "--uni", "3")
        assert code == 64 and out == ""
        assert "unrecognized arguments: --uni 3" in err
        code, out, err = run(capsys, "asymp", "--space", "L1", "--a", "1",
                             "--universe", "4")
        assert code == 64 and "--alpha" in err
