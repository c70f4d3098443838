"""Golden digest of the CLI surface: the exit code, stdout and stderr of
cli.main in both output modes over every fixture through every subcommand
that reads one, every verify pairing of a fixture with a shipped
certificate, and the adversary for k = 1..5, plus each subcommand's --help.
A refactor of the rendering must keep every byte."""

import hashlib
import sys
from pathlib import Path

import pytest

from sephyp.cli import main

FX = "fixtures"
FIXTURES = sorted(f"{FX}/{p.name}" for p in Path(FX).glob("*.json"))
CERTIFICATES = [f"{FX}/{name}.json" for name in
                ("separable_six_x", "equatable_six_y", "paving_five_y", "counterexample_nine_y")]
PER_FIXTURE = [
    ["decide"], ["decide", "--method", "fm"],
    ["analyze", "--exchangeable", "--summable", "--monotone", "2"], ["analyze", "--monotone", "3"],
    ["analyze", "--orderable"], ["analyze", "--multipartite", f"{FX}/partition_pairs.json"],
    *(["matroid", sub] for sub in ("verify", "paving", "binary", "lines", "circuits", "loops")),
    ["oracle-decide"], ["oracle-decide", "--max-queries", "3"], ["search-cert"],
]
SUBCOMMANDS = ["decide", "verify", "analyze", "matroid", "oracle-decide", "adversary", "enumerate", "search-cert"]


def _matrix():
    for path in FIXTURES:
        for argv in PER_FIXTURE:
            # the matroid subcommand name comes before the path
            yield argv[:2] + [path] + argv[2:] if argv[0] == "matroid" else argv[:1] + [path] + argv[1:]
        for cert in CERTIFICATES:
            yield ["verify", path, cert]
    for k in range(1, 6):
        yield ["adversary", "--k", str(k)]
        yield ["adversary", "--k", str(k), "--query-budget", "3"]


def _digest(capsys, runs) -> str:
    digest = hashlib.sha256()
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
        out, err = capsys.readouterr()
        digest.update(f"{argv}\0{code}\0{out}\0{err}\0".encode())
    return digest.hexdigest()


@pytest.fixture(autouse=True)
def _plain_env(monkeypatch):
    monkeypatch.delenv("SEPHYP_BUDGET", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width


def test_golden_cli_outputs(capsys):
    runs = [argv + ["--output", mode] for argv in _matrix() for mode in ("text", "json")]
    assert _digest(capsys, runs) == "58665858133b6a09a9f1a23abd2ab16310a59cf1021b1bad3681abb40e248d6a"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse help layout differs between Python versions")
def test_golden_subcommand_help(capsys):
    assert _digest(capsys, [[name, "--help"] for name in SUBCOMMANDS]) == (
        "6f3890e15baf3af9c51b21eea61f299c0d1db43e9e07aabd7e1dfb4d237e35e1")
