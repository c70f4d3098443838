"""CLI exit codes, report content, and output determinism."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from sephyp import harness
from sephyp.cli import main

FX = "fixtures"
SRC = str(Path(__file__).resolve().parent.parent / "src")
GF2_TRUE = '{"type":"gf2","rows":2,"cols":3,"bits":[[true,0,1],[0,true,1]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecide:
    def test_separable_fixture(self, capsys):
        code, out, _ = run(capsys, "decide", f"{FX}/separable_six.json")
        assert code == 0 and out == "separable\n"

    def test_counterexample_nine_equatable(self, capsys):
        code, out, _ = run(capsys, "decide", f"{FX}/counterexample_nine.json")
        assert code == 0 and out == "equatable\n"

    def test_certificate_out_verifies(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        code, _, _ = run(capsys, "decide", f"{FX}/equatable_six.json", "--certificate-out", str(cert))
        assert code == 0
        code, out, _ = run(capsys, "verify", f"{FX}/equatable_six.json", str(cert))
        assert code == 0 and out == "valid\n"

    def test_method_fm_agrees(self, capsys):
        code_lp, out_lp, _ = run(capsys, "decide", f"{FX}/path_four.json", "--method", "lp")
        code_fm, out_fm, _ = run(capsys, "decide", f"{FX}/path_four.json", "--method", "fm")
        assert code_lp == code_fm == 0 and out_lp == out_fm == "equatable\n"

    def test_materializes_graph_instance(self, capsys):
        code, out, _ = run(capsys, "decide", f"{FX}/k4_graph.json")
        assert code == 0 and out == "equatable\n"

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("nope")
        code, _, err = run(capsys, "decide", str(bad))
        assert code == 64 and "parse error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "decide", "no/such/file.json")
        assert code == 64

    def test_deeply_nested_json(self, capsys, tmp_path):
        bad = tmp_path / "nested.json"
        bad.write_text("[" * 100_000)
        code, _, err = run(capsys, "decide", str(bad))
        assert code == 64 and "parse error" in err

    def test_non_utf8_file(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"type": "hypergraph", "n": 3, "k": 1, "edges": [], "x": "\xe9"}')
        code, _, err = run(capsys, "decide", str(bad))
        assert code == 64 and "parse error" in err

    def test_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SEPHYP_BUDGET", "3")
        code, _, err = run(capsys, "decide", f"{FX}/separable_six.json")
        assert code == 65 and "budget" in err

    def test_json_output_deterministic(self, capsys):
        _, out1, _ = run(capsys, "decide", f"{FX}/equatable_six.json", "--output", "json")
        _, out2, _ = run(capsys, "decide", f"{FX}/equatable_six.json", "--output", "json")
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["kind"] == "equatable" and payload["certificate"]["y"]


class TestVerify:
    def test_shipped_certificates(self, capsys):
        for inst, cert in [
            ("separable_six", "separable_six_x"),
            ("equatable_six", "equatable_six_y"),
            ("paving_five", "paving_five_y"),
            ("counterexample_nine", "counterexample_nine_y"),
        ]:
            code, out, _ = run(capsys, "verify", f"{FX}/{inst}.json", f"{FX}/{cert}.json")
            assert code == 0 and out == "valid\n"

    def test_zero_labeling_invalid(self, capsys, tmp_path):
        cert = tmp_path / "zero.json"
        cert.write_text('{"kind":"separable","x":["0","0","0","0","0","0"]}\n')
        code, out, _ = run(capsys, "verify", f"{FX}/separable_six.json", str(cert))
        assert code == 2 and "123" in out  # first violated set reported

    def test_wrong_length_invalid(self, capsys, tmp_path):
        cert = tmp_path / "short.json"
        cert.write_text('{"kind":"separable","x":["1"]}\n')
        code, out, _ = run(capsys, "verify", f"{FX}/separable_six.json", str(cert))
        assert code == 2

    def test_parse_error(self, capsys, tmp_path):
        cert = tmp_path / "bad.json"
        cert.write_text("{")
        code, _, err = run(capsys, "verify", f"{FX}/separable_six.json", str(cert))
        assert code == 64


    def test_repeated_set_refused(self, capsys, tmp_path):
        # the entries after the repeat form a valid certificate, so only the repeat can fail it
        y = json.loads((Path(FX) / "paving_five_y.json").read_text())["y"]
        cert = tmp_path / "repeat.json"
        cert.write_text(json.dumps({"kind": "equatable", "y": [dict(y[0], val="100")] + y}))
        code, _, err = run(capsys, "verify", f"{FX}/paving_five.json", str(cert))
        assert code == 64 and "y[1].set [1, 2, 5] repeats an earlier set" in err


class TestIntegerLists:
    """Hypergraph edges, graph edges, gf2 rows, certificate sets and partition
    parts are lists of JSON integers, and certificate values are integers or
    strings; a boolean is neither vertex 1, bit 1 nor the rational 1."""

    @pytest.mark.parametrize("text,argv", [
        ('{"type":"hypergraph","n":3,"k":2,"edges":[[true,2]]}', ["decide"]),
        ('{"type":"graph","vertices":3,"edges":[[true,2],[2,3],[1,3]]}', ["decide"]),
        ('{"kind":"equatable","y":[{"set":[true,2,5],"val":"1"},{"set":[1,3,5],"val":"1"},'
         '{"set":[2,4,5],"val":"1"},{"set":[3,4,5],"val":"1"}]}', ["verify", f"{FX}/paving_five.json"]),
        ('{"parts":[[1,"a"],[3,4],[5,6]]}', ["analyze", f"{FX}/equatable_six.json", "--multipartite"]),
        ('{"parts":[[1,[2]],[3,4],[5,6]]}', ["analyze", f"{FX}/equatable_six.json", "--multipartite"]),
        ('{"parts":[[true,2],[3,4],[5,6]]}', ["analyze", f"{FX}/equatable_six.json", "--multipartite"]),
        (GF2_TRUE, ["matroid", "lines"]),
        (GF2_TRUE, ["oracle-decide"]),
    ], ids=["hypergraph-edge-true", "graph-edge-true", "certificate-set-true",
            "part-string", "part-list", "part-true", "gf2-bit-true-lines", "gf2-bit-true-oracle"])
    def test_non_integer_refused(self, capsys, tmp_path, text, argv):
        path = tmp_path / "input.json"
        path.write_text(text)
        code, _, err = run(capsys, *argv, str(path))
        assert code == 64 and err.startswith("parse error:") and "must be a list of integers" in err

    @pytest.mark.parametrize("text,instance", [
        ('{"kind":"equatable","y":[{"set":[1,2,5],"val":true},{"set":[1,3,5],"val":true},'
         '{"set":[2,4,5],"val":true},{"set":[3,4,5],"val":true}]}', "paving_five.json"),
        ('{"kind":"separable","x":["-1","-1","-1","3","-2",true]}', "separable_six.json"),
    ], ids=["certificate-val-true", "certificate-x-true"])
    def test_boolean_rational_refused(self, capsys, tmp_path, text, instance):
        path = tmp_path / "cert.json"
        path.write_text(text)
        code, _, err = run(capsys, "verify", f"{FX}/{instance}", str(path))
        assert code == 64 and err.startswith("parse error: rational must be")


class TestAnalyze:
    def test_counterexample_nine_flags(self, capsys):
        code, out, _ = run(capsys, "analyze", f"{FX}/counterexample_nine.json", "--exchangeable", "--monotone", "2")
        assert code == 0
        assert "exchangeable: no" in out and "2-monotone: yes" in out

    def test_witness_printed(self, capsys):
        code, out, _ = run(capsys, "analyze", f"{FX}/equatable_six.json", "--exchangeable", "--summable")
        assert code == 0 and "exchangeable: yes" in out and "summable quadruple: yes" in out

    def test_orderable(self, capsys):
        code, out, _ = run(capsys, "analyze", f"{FX}/path_four.json", "--orderable")
        assert code == 0 and "orderable: no" in out

    def test_orderable_inapplicable(self, capsys):
        code, _, err = run(capsys, "analyze", f"{FX}/counterexample_nine.json", "--orderable")
        assert code == 66 and "inapplicable" in err

    def test_multipartite(self, capsys):
        code, out, _ = run(
            capsys, "analyze", f"{FX}/equatable_six.json",
            "--multipartite", f"{FX}/partition_pairs.json",
        )
        assert code == 0 and "multipartite: yes" in out


class TestMatroid:
    def test_verify_reports_exchange_violation(self, capsys):
        code, out, _ = run(capsys, "matroid", "verify", f"{FX}/counterexample_nine.json")
        assert code == 0
        assert "matroid: no" in out and "(1, 4, 9)" in out and "(2, 5, 7)" in out

    def test_verify_matroid(self, capsys):
        code, out, _ = run(capsys, "matroid", "verify", f"{FX}/paving_five.json")
        assert code == 0 and out == "matroid: yes\n"
        code, out, _ = run(capsys, "matroid", "verify", f"{FX}/paving_five.json", "--output", "json")
        assert code == 0 and out == '{"matroid":true}\n'

    def test_verify_empty_edge_set(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"type":"hypergraph","n":3,"k":2,"edges":[]}')
        code, out, _ = run(capsys, "matroid", "verify", str(path), "--output", "json")
        assert code == 0 and out == '{"matroid":false,"violation":"empty"}\n'

    def test_circuits(self, capsys):
        code, out, _ = run(capsys, "matroid", "circuits", f"{FX}/paving_five.json")
        assert code == 0 and out == "circuits: [1, 2, 5] [3, 4, 5] [1, 2, 3, 4]\n"

    def test_paving(self, capsys):
        code, out, _ = run(capsys, "matroid", "paving", f"{FX}/paving_five.json")
        assert code == 0 and out.strip() == "paving: yes"

    def test_binary_u24(self, capsys):
        code, out, _ = run(capsys, "matroid", "binary", f"{FX}/uniform_two_four.json")
        assert code == 0 and out.strip() == "binary: no"

    def test_non_matroid_exit(self, capsys):
        code, _, err = run(capsys, "matroid", "paving", f"{FX}/counterexample_nine.json")
        assert code == 67

    def test_lines_of_gf2(self, capsys):
        code, out, _ = run(capsys, "matroid", "lines", f"{FX}/gf2_parallel_pair.json")
        assert code == 0 and "nontrivial: 1" in out

    def test_loops(self, capsys):
        code, out, _ = run(capsys, "matroid", "loops", f"{FX}/paving_five.json")
        assert code == 0 and out.strip() == "loops: []"


class TestOracleDecide:
    def test_two_lines(self, capsys):
        code, out, _ = run(capsys, "oracle-decide", f"{FX}/gf2_two_lines.json")
        assert code == 0 and "verdict: equatable" in out and "agrees" in out

    def test_line_of_three(self, capsys):
        code, out, _ = run(capsys, "oracle-decide", f"{FX}/gf2_line_of_three.json")
        assert code == 0 and "verdict: separable" in out

    def test_graph_instance(self, capsys):
        code, out, _ = run(capsys, "oracle-decide", f"{FX}/k4_graph.json")
        assert code == 0 and "verdict: equatable" in out

    def test_hypergraph_inapplicable(self, capsys):
        code, _, err = run(capsys, "oracle-decide", f"{FX}/counterexample_nine.json")
        assert code == 66 and err.startswith("inapplicable:")

    def test_max_queries(self, capsys):
        code, _, err = run(capsys, "oracle-decide", f"{FX}/k4_graph.json", "--max-queries", "3")
        assert code == 65 and err.startswith("budget exceeded: query budget 3 exhausted")


class TestAdversary:
    @pytest.mark.parametrize("k", ["1", "-3"])
    def test_k_below_two_inapplicable(self, capsys, k):
        code, _, err = run(capsys, "adversary", "--k", k)
        assert code == 66 and err.startswith("inapplicable:")

    def test_k3_report(self, capsys):
        code, out, _ = run(capsys, "adversary", "--k", "3")
        assert code == 0
        assert "2^k-1 = 7" in out and "C(2k,k)/2 = 10" in out
        assert "unqueried pair" in out

    def test_query_budget_zero(self, capsys):
        code, out, _ = run(capsys, "adversary", "--k", "2", "--query-budget", "0", "--output", "json")
        report = json.loads(out)["strategies"]["binary-algorithm"]
        assert code == 0 and report["queries"] == 0 and report["budget_exhausted"]

    def test_json_report_schema(self, capsys):
        code, out, _ = run(capsys, "adversary", "--k", "2", "--output", "json")
        assert code == 0
        payload = json.loads(out)
        for name in ("no-queries", "binary-algorithm"):
            report = payload["strategies"][name]
            assert {"verdict", "queries", "trace", "unqueried_pair"} <= set(report)


class TestEnumerate:
    def test_small_corpus_with_checks(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--k", "2", "--check", "theorems")
        assert code == 0 and "total=64" in out and "violations: none" in out

    def test_violation_exits_internal(self, capsys, monkeypatch):
        monkeypatch.setattr(harness, "is_r_monotone", lambda h, r: False)
        code, out, err = run(capsys, "enumerate", "--n", "4", "--k", "2", "--check", "theorems")
        assert code == 70 and "VIOLATION [monotone]" in out
        assert err == "theorem violation found; this is a bug in the build\n"

    def test_class_graphs_requires_k2(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "5", "--k", "3", "--class", "graphs")
        assert code == 66 and err.startswith("inapplicable:")

    @pytest.mark.parametrize("argv", [
        ["--n", "-1", "--k", "2"], ["--n", "3", "--k", "0", "--class", "paving"],
        ["--n", "3", "--k", "0", "--class", "multipartite"], ["--n", "3", "--k", "5"],
        ["--n", "3", "--k", "3", "--class", "binary"], ["--n", "4", "--k", "0"],
    ], ids=" ".join)
    def test_shape_inapplicable(self, capsys, argv):
        code, _, err = run(capsys, "enumerate", *argv)
        assert code == 66 and err.startswith("inapplicable:")

    def test_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("SEPHYP_BUDGET", "3")
        code, _, err = run(capsys, "enumerate", "--n", "5", "--k", "2")
        assert code == 65

    def test_multipartite_class(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--k", "3", "--class", "multipartite", "--check", "theorems")
        assert code == 0 and "total=4" in out


class TestSearchCert:
    def test_counterexample_nine_finds_support_six(self, capsys):
        code, out, _ = run(capsys, "search-cert", f"{FX}/counterexample_nine.json", "--max-support", "6")
        assert code == 0 and "found 0/1 certificate with 6 ones" in out

    def test_absence_is_not_disproof(self, capsys):
        code, out, _ = run(capsys, "search-cert", f"{FX}/uniform_two_four.json")
        assert code == 0 and "not a disproof" in out

    @pytest.mark.parametrize("support", ["0", "-2"])
    def test_support_below_one_inapplicable(self, capsys, support):
        code, _, err = run(capsys, "search-cert", f"{FX}/counterexample_nine.json", "--max-support", support)
        assert code == 66 and err.startswith("inapplicable:")


class TestLargeInstance:
    """A 40-vertex 20-uniform instance, C(40,20) ~ 1.4e11 k-sets, and larger
    ones up to n = 10^7: each command must either stay off the k-set universe
    or refuse, with exit 65, the work it would do. They run in a child with a
    time and memory limit, so a regression fails instead of hanging the suite
    or exhausting memory."""

    N, K = 40, 20
    E1, E2 = list(range(1, 21)), list(range(21, 41))

    @pytest.fixture()
    def files(self, tmp_path):
        inst = tmp_path / "big.json"
        inst.write_text(json.dumps({"type": "hypergraph", "n": self.N, "k": self.K, "edges": [self.E1, self.E2]}))
        cert = tmp_path / "big_y.json"
        y = [self.E1, self.E2, list(range(1, 20)) + [21], [20] + list(range(22, 41))]
        cert.write_text(json.dumps({"kind": "equatable", "y": [{"set": g, "val": "1"} for g in y]}))
        return str(inst), str(cert)

    @staticmethod
    def cli(*argv, budget: str = "") -> subprocess.CompletedProcess:
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        env.pop("SEPHYP_BUDGET", None)
        if budget:
            env["SEPHYP_BUDGET"] = budget
        done = subprocess.run([sys.executable, "-m", "sephyp.cli", *argv], env=env, capture_output=True,
                              timeout=30, preexec_fn=limit_memory)
        assert b"Traceback" not in done.stderr, done.stderr.decode()
        return done

    def test_verify_equatable_certificate(self, files):
        assert self.cli("verify", *files).returncode == 0

    def test_verify_equatable_certificate_of_a_billion_vertices(self, tmp_path):
        # the masses are kept for the four vertices y names, not for all n
        inst, cert = tmp_path / "billion.json", tmp_path / "billion_y.json"
        inst.write_text(json.dumps({"type": "hypergraph", "n": 10 ** 9, "k": 2, "edges": [[1, 2], [3, 4]]}))
        cert.write_text(json.dumps({"kind": "equatable",
                                    "y": [{"set": g, "val": "1"} for g in ([1, 2], [3, 4], [1, 3], [2, 4])]}))
        done = self.cli("verify", str(inst), str(cert))
        assert (done.returncode, done.stdout) == (0, b"valid\n")

    @pytest.mark.parametrize("argv", [
        ["decide"], ["analyze", "--summable"], ["search-cert"], ["analyze", "--monotone", "2"],
    ], ids=" ".join)
    def test_universe_refused(self, files, argv):
        assert self.cli(argv[0], files[0], *argv[1:]).returncode == 65

    def test_adversary_refused(self):
        assert self.cli("adversary", "--k", "11").returncode == 65

    @pytest.mark.parametrize("argv", [["analyze", "--exchangeable"], ["matroid", "verify"]], ids=" ".join)
    def test_edge_only_commands(self, files, argv):
        assert self.cli(*argv, files[0]).returncode == 0

    def test_paving_of_one_basis(self, tmp_path):
        # paving is read off the bases' (k-1)-subsets, not the C(40,19) universe
        inst = tmp_path / "one.json"
        inst.write_text(json.dumps({"type": "hypergraph", "n": self.N, "k": self.K, "edges": [self.E1]}))
        done = self.cli("matroid", "paving", str(inst), "--output", "json")
        assert (done.returncode, done.stdout) == (0, b'{"paving":false}\n')

    @pytest.mark.parametrize("n, argv", [
        # C(15000,7500) has 4500 digits; C(10^7, 5*10^6) takes minutes to compute
        (15_000, ["decide"]), (15_000, ["analyze", "--summable"]), (15_000, ["search-cert"]),
        (10 ** 7, ["decide"]), (10 ** 7, ["analyze", "--monotone", "2"]),
    ], ids=lambda v: str(v) if isinstance(v, int) else " ".join(v))
    def test_huge_universe_refused(self, tmp_path, n, argv):
        inst = tmp_path / "huge.json"
        inst.write_text(json.dumps({"type": "hypergraph", "n": n, "k": n // 2, "edges": []}))
        assert self.cli(argv[0], str(inst), *argv[1:]).returncode == 65

    @pytest.mark.parametrize("budget, argv", [
        ("", ["adversary", "--k", "7500"]),
        ("", ["enumerate", "--n", "15000", "--k", "7500"]),
        # 2^C(8,4) = 2^70 instances, not C(8,4) = 70 of anything
        ("200000", ["enumerate", "--n", "8", "--k", "4"]),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else f"budget={v or 'unset'}")
    def test_huge_count_refused(self, budget, argv):
        assert self.cli(*argv, budget=budget).returncode == 65

    def test_budget_past_ten_to_the_hundred_refused(self, tmp_path):
        # the k-set refusal would print the capped count 10^4300, past the
        # int-to-string limit; the budget is refused when it is parsed
        inst = tmp_path / "huge.json"
        inst.write_text(json.dumps({"type": "hypergraph", "n": 15_000, "k": 7_500, "edges": []}))
        done = self.cli("decide", str(inst), budget="9" * 4300)
        assert done.returncode == 64 and done.stderr.startswith(b"parse error: SEPHYP_BUDGET must be")

    def test_pair_scans_of_twenty_vertices(self, tmp_path):
        # C(20,10) = 184756 k-sets pass the k-set gate, but the summable scan
        # pairs up 184755 non-edges, and two edges admit support 4, where
        # C(184754, 2) non-edge pairs exceed the certificate search budget
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        one.write_text(json.dumps({"type": "hypergraph", "n": 20, "k": 10, "edges": [list(range(1, 11))]}))
        two.write_text(json.dumps({"type": "hypergraph", "n": 20, "k": 10,
                                   "edges": [list(range(1, 11)), list(range(11, 21))]}))
        assert self.cli("analyze", str(one), "--summable").returncode == 65
        assert self.cli("search-cert", str(two), "--max-support", "400000").returncode == 65

    def test_orderable_of_two_hundred_thousand_vertices(self, tmp_path):
        # each pick pops a degree heap instead of re-sorting the remaining
        # vertices; two disjoint edges leave 2K2, which is stuck
        inst = tmp_path / "two.json"
        inst.write_text(json.dumps({"type": "hypergraph", "n": 200_000, "k": 2, "edges": [[1, 2], [3, 4]]}))
        done = self.cli("analyze", str(inst), "--orderable")
        assert (done.returncode, done.stdout) == (0, b"orderable: no\n")

    def test_certificate_search_bounded_by_its_input(self, tmp_path):
        # one edge admits support 2 only, so asking for more costs nothing more
        one = tmp_path / "one.json"
        one.write_text(json.dumps({"type": "hypergraph", "n": 20, "k": 10, "edges": [list(range(1, 11))]}))
        done = self.cli("search-cert", str(one), "--max-support", "400000")
        assert (done.returncode, done.stdout) == (
            0, b"no 0/1 certificate with support <= 400000 found (not a disproof of existence)\n")
