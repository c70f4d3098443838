"""CLI exit codes, report content, and output determinism."""

import json
import os
import resource
import subprocess
import sys
import time
from itertools import combinations, product
from pathlib import Path

import pytest

from sephyp import cli, harness, matroid
from sephyp.cli import main
from sephyp.hypercore import ExchangeWitness, GraphOrdering, SummableQuadruple

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

    @pytest.mark.parametrize("target", ["missing/cert.json", "."], ids=["missing directory", "directory"])
    def test_unwritable_certificate_out(self, capsys, tmp_path, target):
        path = str(tmp_path / target)
        code, out, err = run(capsys, "decide", f"{FX}/equatable_six.json", "--certificate-out", path)
        assert code == 64 and out == ""
        assert err.startswith(f"parse error: cannot write {path}: ")

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

    @pytest.mark.parametrize("budget, code, out", [("19", 65, ""), ("20", 0, "valid\n")])
    def test_separable_walk_gated_as_decide_is(self, capsys, monkeypatch, budget, code, out):
        # the walk visits up to C(6,3) = 20 k-sets, the count and cap of decide's universe
        monkeypatch.setenv("SEPHYP_BUDGET", budget)
        got = run(capsys, "verify", f"{FX}/separable_six.json", f"{FX}/separable_six_x.json")
        assert got[:2] == (code, out)
        assert got[2] == ("budget exceeded: verifying over C(6,3) >= 20 k-sets exceeds budget 19\n" if code else "")


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

    @pytest.mark.parametrize("flag, finder, edit, fixture", [
        ("--exchangeable", "is_exchangeable", lambda w: ExchangeWitness(w.e1, w.e2, w.v2, w.v1), "equatable_six"),
        ("--summable", "find_summable_quadruple", lambda q: SummableQuadruple(q.e1, q.e2, q.f1, q.e2),
         "equatable_six"),
        ("--orderable", "graph_orderable", lambda o: GraphOrdering(o.order, o.tags[::-1]), "star_three"),
    ], ids=("exchangeable", "summable", "orderable"))
    def test_edited_witness_is_an_internal_failure(self, capsys, monkeypatch, flag, finder, edit, fixture):
        found = getattr(cli, finder)
        monkeypatch.setattr(cli, finder, lambda h, budget: edit(found(h, budget)))
        code, out, err = run(capsys, "analyze", f"{FX}/{fixture}.json", flag)
        assert (code, out) == (70, "") and err.startswith("internal verification failure: ")


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

    @pytest.mark.parametrize("sub", ["verify", "paving", "binary", "lines", "circuits", "loops"])
    @pytest.mark.parametrize("path", [f"{FX}/gf2_two_lines.json", f"{FX}/k4_graph.json"])
    def test_one_exchange_scan_per_command(self, capsys, monkeypatch, path, sub):
        # the matroid a gf2 or graph file loads as is the one the command reads
        calls = []
        scan = matroid._mask_exchange_violation
        monkeypatch.setattr(matroid, "_mask_exchange_violation", lambda sets: calls.append(sets) or scan(sets))
        assert run(capsys, "matroid", sub, path)[0] == 0
        assert len(calls) == 1


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
        monkeypatch.setattr(harness, "is_r_monotone", lambda h, r, *run: False)
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


class TestHelp:
    def test_top_level_help_keeps_the_docstring_tables(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # narrower than the table rows, which argparse must not rewrap
        with pytest.raises(SystemExit):
            main(["--help"])
        lines = capsys.readouterr().out.splitlines()
        assert "    enumerate                               instances, 2^C(n,k)   2^24" in lines
        assert "    search-cert                             support combinations  5000000" in lines
        assert "    matroid circuits, matroid binary        lookups, |B|*k*(n-k)  4000000" in lines


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


class TestImports:
    """A CLI process imports only the modules its subcommand runs."""

    CORE = ["sephyp", "sephyp.cli", "sephyp.errors", "sephyp.hypercore"]
    CHILD = ("import json, sys\n"
             "from sephyp.cli import main\n"
             "if sys.argv[1:]:\n"
             "    try:\n"
             "        main(sys.argv[1:])\n"
             "    except SystemExit:\n"
             "        pass\n"
             "sys.stderr.write(json.dumps(sorted(sys.modules)))\n")

    def modules(self, *argv) -> set:
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run([sys.executable, "-c", self.CHILD, *argv], env=env, capture_output=True,
                              text=True, timeout=60)
        return set(json.loads(done.stderr.splitlines()[-1]))

    def loaded(self, *argv) -> set:
        return {m for m in self.modules(*argv) if m.split(".")[0] == "sephyp"}

    @pytest.mark.parametrize("argv", [[], ["--version"]], ids=["import", "version"])
    def test_core_only(self, argv):
        assert self.loaded(*argv) == set(self.CORE)

    @pytest.mark.parametrize("argv", [
        ["decide", f"{FX}/counterexample_nine.json"],
        ["decide", f"{FX}/equatable_six.json", "--method", "fm", "--output", "json"],
        ["verify", f"{FX}/separable_six.json", f"{FX}/separable_six_x.json"],
        ["verify", f"{FX}/counterexample_nine.json", f"{FX}/counterexample_nine_y.json", "--output", "json"],
        ["search-cert", f"{FX}/counterexample_nine.json"],
    ], ids=" ".join)
    def test_hypergraph_commands_skip_the_matroid_layers(self, argv):
        loaded = self.loaded(*argv)
        assert loaded == set(self.CORE) | {"sephyp.feasibility", "sephyp.jsonio"}

    @pytest.mark.parametrize("argv, modules", [
        (["analyze", f"{FX}/paving_five.json", "--exchangeable"], {"sephyp.jsonio"}),
        (["matroid", "binary", f"{FX}/uniform_two_four.json"], {"sephyp.jsonio", "sephyp.matroid"}),
    ], ids=["analyze", "matroid"])
    def test_commands_without_the_lp_skip_feasibility(self, argv, modules):
        assert self.loaded(*argv) == set(self.CORE) | modules

    @pytest.mark.parametrize("argv", [
        [],
        ["decide", f"{FX}/separable_six.json"],
        ["matroid", "binary", f"{FX}/uniform_two_four.json"],
        ["adversary", "--k", "3"],
        ["enumerate", "--n", "4", "--k", "2", "--check", "theorems"],
    ], ids=lambda argv: " ".join(argv) or "import")
    def test_value_classes_need_neither_dataclasses_nor_inspect(self, argv):
        assert not {"dataclasses", "inspect"} & self.modules(*argv)


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

    def test_verify_separable_certificate_refused(self, tmp_path):
        # every k-set is a correct non-edge, so the walk would take C(60,30) ~ 1.2e17 steps
        inst, cert = tmp_path / "empty.json", tmp_path / "empty_x.json"
        inst.write_text(json.dumps({"type": "hypergraph", "n": 60, "k": 30, "edges": []}))
        cert.write_text(json.dumps({"kind": "separable", "x": ["-1"] * 60}))
        done = self.cli("verify", str(inst), str(cert))
        assert done.returncode == 65 and done.stderr.startswith(b"budget exceeded: verifying over C(60,30) >= ")

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

    # k = 1; a vertex mask is as wide as its largest vertex, whatever n or |E|
    SPARSE = {"one_edge_at_1e11": (10 ** 11, [[10 ** 11]]),
              "edges_998001_to_1e6": (10 ** 6, [[v] for v in range(998_001, 10 ** 6 + 1)]),
              "edges_1_to_2000": (10 ** 6, [[v] for v in range(1, 2001)])}
    EDGE_SCANS = [["analyze", "FILE", "--exchangeable"],
                  *(["matroid", sub, "FILE"] for sub in ("verify", "paving", "binary", "lines", "circuits", "loops"))]

    @pytest.mark.parametrize("name, argv, code", [
        *((name, argv, 65) for name, argv in product(("one_edge_at_1e11", "edges_998001_to_1e6"), EDGE_SCANS)),
        # 2000^2 edge pairs pass the exchange gate at its bound, and the masks take 33k words
        ("edges_1_to_2000", ["analyze", "FILE", "--exchangeable"], 0),
        # the partition is checked against n without listing 1..n
        ("one_edge_at_1e11", ["analyze", "FILE", "--multipartite", "PARTITION"], 66),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_masks_of_high_vertices(self, tmp_path, name, argv, code):
        paths = {"FILE": tmp_path / "sparse.json", "PARTITION": tmp_path / "partition.json"}
        n, edges = self.SPARSE[name]
        paths["FILE"].write_text(json.dumps({"type": "hypergraph", "n": n, "k": 1, "edges": edges}))
        paths["PARTITION"].write_text(json.dumps({"parts": [[1]]}))
        done = self.cli(*(str(paths.get(a, a)) for a in argv))
        assert done.returncode == code, done.stderr.decode()
        if code == 65:
            assert done.stderr.startswith(b"budget exceeded: vertex masks of ")

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

    @pytest.mark.parametrize("n, k, budget", [
        # C(n,k) = n passes the k-set gate, by default or at any budget, but
        # decide's packed tableau holds about n^3 log(k+1) / 128 words
        (100_000, 1, ""), (3000, 1, ""), (3000, 2999, ""), (3000, 1, str(10 ** 100)),
    ], ids=["n=100000-k=1", "n=3000-k=1", "n=3000-k=2999", "n=3000-k=1-budget=10^100"])
    def test_packed_state_refused(self, tmp_path, n, k, budget):
        inst = tmp_path / "wide.json"
        edges = [[1], [5]] if k == 1 else [list(range(1, n)), list(range(2, n + 1))]
        inst.write_text(json.dumps({"type": "hypergraph", "n": n, "k": k, "edges": edges}))
        begun = time.perf_counter()
        done = self.cli("decide", str(inst), budget=budget)
        assert done.returncode == 65 and done.stderr.startswith(b"budget exceeded: packed simplex state of "), \
            done.stderr.decode()
        assert time.perf_counter() - begun < 10

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

    def test_exchange_scan_of_the_complete_hypergraph_refused(self, tmp_path):
        # 4060 edges: 4060^2 ordered pairs times 3^2 swaps exceed the pair
        # scan budget, refused before the scan starts
        inst = tmp_path / "complete.json"
        inst.write_text(json.dumps({"type": "hypergraph", "n": 30, "k": 3,
                                    "edges": [list(g) for g in combinations(range(1, 31), 3)]}))
        done = self.cli("analyze", str(inst), "--exchangeable")
        assert done.returncode == 65 and done.stderr.startswith(b"budget exceeded: exchange scan of 4060 edges")

    @pytest.mark.parametrize("argv", [["matroid", "verify"], ["matroid", "paving"]], ids=" ".join)
    def test_basis_exchange_check_of_the_complete_hypergraph_refused(self, tmp_path, argv):
        # 4060^2 ordered basis pairs exceed the pair scan budget, refused
        # before the basis-exchange check starts
        inst = tmp_path / "complete.json"
        inst.write_text(json.dumps({"type": "hypergraph", "n": 30, "k": 3,
                                    "edges": [list(g) for g in combinations(range(1, 31), 3)]}))
        done = self.cli(*argv, str(inst))
        assert done.returncode == 65 and done.stderr.startswith(b"budget exceeded: basis exchange scan of 4060 bases")

    def test_adversary_past_its_basis_exchange_check_refused(self):
        # C(14,7) = 3432 bases: 3432^2 ordered pairs exceed the pair scan budget
        done = self.cli("adversary", "--k", "7")
        assert done.returncode == 65 and done.stderr.startswith(b"budget exceeded: basis exchange scan of 3432 bases")

    def test_lines_of_a_thousand_parallel_elements_refused(self, tmp_path):
        # bases {1,j}, j = 2..1001, so 2..1001 form one line: C(1001,2)
        # dependence tests, each a scan of 1000 bases, where the exchange
        # check's 10^6 basis pairs pass
        inst = tmp_path / "star.json"
        inst.write_text(json.dumps({"type": "hypergraph", "n": 1001, "k": 2,
                                    "edges": [[1, j] for j in range(2, 1002)]}))
        done = self.cli("matroid", "lines", str(inst))
        assert done.returncode == 65 and done.stderr.startswith(b"budget exceeded: line scan of 1001 elements")

    @pytest.mark.parametrize("subcommand", ["circuits", "binary"])
    def test_circuits_of_twenty_two_elements(self, tmp_path, subcommand):
        # coloops 1-5, U(6,12) on 6-17 and loops 18-22: C(12,6) = 924 bases of
        # rank 11; 924^2 basis pairs and 924*11*11 basis lookups pass both gates
        inst = tmp_path / "wide.json"
        bases = [list(range(1, 6)) + list(s) for s in combinations(range(6, 18), 6)]
        inst.write_text(json.dumps({"type": "hypergraph", "n": 22, "k": 11, "edges": bases}))
        assert self.cli("matroid", subcommand, str(inst)).returncode == 0

    def test_circuits_of_forty_parallel_elements(self, tmp_path):
        # U(1,40): every pair is a circuit, read off 40*39 basis lookups, and
        # their GF(2) span has dimension n - k = 39, so the matroid is binary
        inst = tmp_path / "u140.json"
        inst.write_text(json.dumps({"type": "hypergraph", "n": 40, "k": 1, "edges": [[v] for v in range(1, 41)]}))
        done = self.cli("matroid", "circuits", str(inst), "--output", "json")
        assert done.returncode == 0
        assert json.loads(done.stdout) == {"circuits": [list(c) for c in combinations(range(1, 41), 2)]}
        binary = self.cli("matroid", "binary", str(inst))
        assert (binary.returncode, binary.stdout) == (0, b"binary: yes\n")

    @pytest.mark.parametrize("argv, code", [
        (["matroid", "circuits"], 0),  # 780 circuits on one line
        (["matroid", "circuits", "--output", "json"], 0),
        (["matroid", "binary"], 0),  # one short line, written at the flush
        (["verify"], 2),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else f"exit={v}")
    def test_closed_stdout_ends_quietly(self, tmp_path, argv, code):
        # the reader closes the pipe before the child writes: the report is
        # lost, but the command still ends with its own exit code
        inst, cert = tmp_path / "u140.json", tmp_path / "negative.json"
        inst.write_text(json.dumps({"type": "hypergraph", "n": 40, "k": 1, "edges": [[v] for v in range(1, 41)]}))
        cert.write_text(json.dumps({"kind": "separable", "x": ["-1"] * 40}))  # every edge sums below 0
        argv = [*argv, str(inst)] + ([str(cert)] if argv == ["verify"] else [])
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        child = subprocess.Popen([sys.executable, "-m", "sephyp.cli", *argv], env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE)
        child.stdout.close()
        _, err = child.communicate(timeout=30)
        assert b"Traceback" not in err and child.returncode in (0, 2, 64, 65, 66, 67, 70), err.decode()
        assert (child.returncode, err) == (code, b"")

    def test_binary_fano_with_three_parallel_copies(self, tmp_path):
        # each column of the Fano matrix (the 7 nonzero vectors of GF(2)^3)
        # three times over: 21 elements, 756 bases
        inst = tmp_path / "fano3.json"
        bits = [[c >> r & 1 for c in range(1, 8) for _ in range(3)] for r in range(3)]
        inst.write_text(json.dumps({"type": "gf2", "rows": 3, "cols": 21, "bits": bits}))
        done = self.cli("matroid", "binary", str(inst))
        assert (done.returncode, done.stdout) == (0, b"binary: yes\n")

    def test_binary_u24_with_five_parallel_copies(self, tmp_path):
        # U(2,4) with each point five times over (n = 20): still not binary
        inst = tmp_path / "u24x5.json"
        bases = [[a, b] for a, b in combinations(range(1, 21), 2) if (a - 1) // 5 != (b - 1) // 5]
        inst.write_text(json.dumps({"type": "hypergraph", "n": 20, "k": 2, "edges": bases}))
        done = self.cli("matroid", "binary", str(inst))
        assert (done.returncode, done.stdout) == (0, b"binary: no\n")

    def test_orderable_of_two_hundred_thousand_vertices(self, tmp_path):
        # each pick pops a degree heap instead of re-sorting the remaining
        # vertices; two disjoint edges leave 2K2, which is stuck
        inst = tmp_path / "two.json"
        inst.write_text(json.dumps({"type": "hypergraph", "n": 200_000, "k": 2, "edges": [[1, 2], [3, 4]]}))
        done = self.cli("analyze", str(inst), "--orderable")
        assert (done.returncode, done.stdout) == (0, b"orderable: no\n")

    @pytest.mark.parametrize("argv", [["matroid", "loops"], ["analyze", "--orderable"]], ids=" ".join)
    def test_vertex_list_of_a_billion_vertices_refused(self, tmp_path, argv):
        # every unnamed vertex is a loop, and an ordering names every vertex,
        # so each answer would list about n vertices
        inst = tmp_path / "billion.json"
        inst.write_text(json.dumps({"type": "hypergraph", "n": 10 ** 9, "k": 2, "edges": [[1, 2]]}))
        done = self.cli(*argv, str(inst))
        assert done.returncode == 65 and done.stderr.startswith(b"budget exceeded: ")

    def test_one_monotone_of_a_billion_vertices(self, tmp_path):
        # distinct singletons have a two-vertex union, so 1-monotone compares
        # nothing and must not list the vertices
        inst = tmp_path / "billion.json"
        inst.write_text(json.dumps({"type": "hypergraph", "n": 10 ** 9, "k": 2, "edges": [[1, 2]]}))
        done = self.cli("analyze", str(inst), "--monotone", "1")
        assert (done.returncode, done.stdout) == (0, b"1-monotone: yes\n")

    def test_certificate_search_bounded_by_its_input(self, tmp_path):
        # one edge admits support 2 only, so asking for more costs nothing more
        one = tmp_path / "one.json"
        one.write_text(json.dumps({"type": "hypergraph", "n": 20, "k": 10, "edges": [list(range(1, 11))]}))
        done = self.cli("search-cert", str(one), "--max-support", "400000")
        assert (done.returncode, done.stdout) == (
            0, b"no 0/1 certificate with support <= 400000 found (not a disproof of existence)\n")
