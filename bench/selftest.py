#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gates.

    python3 bench/selftest.py

Feeds each gate tampered output and checks that the workload pass counts it
as failed, which is what raises the error rate: a certificate the public
verifier rejects, a threshold instance classed equatable, a wrong
enumerate-matroids count, a report with a violation, and a cli-mix exit code
or stdout that differs from the recorded one. The same passes on untampered
output must count no failure. Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402


def decide_random_tally(pkg, blocks, tamper) -> bench.Tally:
    original = pkg.feasibility.decide
    pkg.feasibility.decide = lambda h, budget=None: tamper(original(h, budget))
    try:
        tally = bench.Tally()
        bench.decide_random_pass(pkg, blocks, 0, len(blocks), tally)
    finally:
        pkg.feasibility.decide = original
    return tally


def tamper_certificate(pkg):
    def tamper(cert):
        if cert.kind == "separable":
            return pkg.feasibility.SeparableCertificate((cert.x[0] + 10**6,) + cert.x[1:])
        return pkg.feasibility.EquatableCertificate(cert.y[1:])
    return tamper


def enumeration_tally(pkg, counts, violations) -> bench.Tally:
    original = pkg.harness.run_enumeration
    report = pkg.harness.EnumerationReport(*bench.ENUM_ARGS, counts, violations)
    pkg.harness.run_enumeration = lambda *args, **kwargs: report
    try:
        tally = bench.Tally()
        bench.enumerate_once(pkg, tally)
    finally:
        pkg.harness.run_enumeration = original
    return tally


def cli_tally(pkg, golden, argv) -> bench.Tally:
    """One child invocation and one in-process call of argv, both checked."""
    tally = bench.Tally()
    _, code, out = bench.run_cli_child(argv)
    tally.record(bench.check_cli(golden, argv, code, out), f"child {bench.cli_key(argv)}")
    bench.cli_in_process(pkg, golden, [[argv]], tally, {})
    return tally


def main() -> int:
    pkg = bench.import_package()
    problems = []

    def expect(label: str, tally: bench.Tally, should_fail: bool) -> None:
        failed = tally.failed > 0
        verdict = "ok" if failed == should_fail else "WRONG"
        print(f"{verdict}: {label}: {tally.failed}/{tally.attempted} failed")
        if failed != should_fail:
            problems.append(label)

    blocks = bench.decide_random_setup(pkg, seed=7)[:1]
    expect("decide-random, untampered", decide_random_tally(pkg, blocks, lambda c: c), False)
    expect("decide-random, tampered certificates", decide_random_tally(pkg, blocks, tamper_certificate(pkg)), True)

    flipped = [(h, threshold) for h, threshold in blocks[0] if not threshold]
    equatable = [(h, pkg.feasibility.decide(h)) for h, _ in flipped]
    equatable = [(h, cert) for h, cert in equatable if cert.kind == "equatable"]
    if not equatable:
        problems.append("no equatable instance in the first block")
    else:
        h, cert = equatable[0]
        tally = bench.Tally()
        tally.record(bench.check_certificate(pkg, h, cert, threshold=False), "flipped instance")
        expect("threshold gate, equatable instance not marked threshold", tally, False)
        tally = bench.Tally()
        tally.record(bench.check_certificate(pkg, h, cert, threshold=True), "threshold instance classed equatable")
        expect("threshold gate, equatable instance marked threshold", tally, True)

    expected = dict(bench.ENUM_EXPECTED)
    expect("enumerate-matroids, expected counts", enumeration_tally(pkg, expected, []), False)
    for key in expected:
        wrong = dict(expected, **{key: expected[key] + 1})
        expect(f"enumerate-matroids, {key} off by one", enumeration_tally(pkg, wrong, []), True)
    violation = [{"check": "lines", "n": 6, "k": 3, "edges": [], "detail": "tampered"}]
    expect("enumerate-matroids, one violation", enumeration_tally(pkg, expected, violation), True)

    golden = bench.load_golden()
    argv = bench.CLI_MIX[0]
    key = bench.cli_key(argv)
    expect("cli-mix, recorded outputs", cli_tally(pkg, golden, argv), False)
    changed = copy.deepcopy(golden)
    changed[key]["stdout"] = changed[key]["stdout"].replace('"1"', '"2"', 1)
    expect("cli-mix, changed stdout", cli_tally(pkg, changed, argv), True)
    changed = copy.deepcopy(golden)
    changed[key]["exit"] = 70
    expect("cli-mix, changed exit code", cli_tally(pkg, changed, argv), True)

    print("all gates trip on tampered output" if not problems else f"gate problems: {problems}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
