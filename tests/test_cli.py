import json

import pytest

from schreierlab.cli import CONVENTION, main


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
        assert code == 65 and "resource bound" in err

    @pytest.mark.parametrize("space,size", [
        ("ASSOC(T(S(1),1/2),S(1),allow)", 21), ("T(S(1),1/2)", 257)],
        ids=["allowable", "support"])
    def test_support_bounds_are_resource_bounds(self, space, size, capsys):
        vec = json.dumps([[i, "1"] for i in range(1, size + 1)])
        code, _, err = run(capsys, "norm", "eval", "--space", space,
                           "--vec", vec)
        assert code == 65 and "resource bound" in err

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

    def test_ord_compare(self, capsys):
        code, out, _ = run(capsys, "ord", "compare", "--a", "w", "--b", "w+1")
        assert code == 0 and out.strip() == "less"

    def test_fam_index(self, capsys):
        code, out, _ = run(capsys, "fam", "index", "--family", "POW(S(2),3)")
        assert code == 0 and out.strip() == "w^(6)"

    def test_fam_tail(self, capsys):
        code, out, _ = run(capsys, "fam", "tail", "--family", "S(1)",
                           "--other", "S(2)", "--universe", "12")
        assert code == 0 and out.strip() == "7"

    def test_tree_order(self, capsys):
        code, out, _ = run(capsys, "tree", "order", "--family", "S(1)",
                           "--universe", "6")
        # longest member within {1..6} has 3 elements
        assert code == 0 and out.strip() == "3"

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
