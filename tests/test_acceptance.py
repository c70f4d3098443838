"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact rational arithmetic; tolerance is zero throughout.
Run with `pytest tests/test_acceptance.py -v -s` to watch the lines live.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from sephyp.errors import FormatError, RankCollapse, RankZero
from sephyp.feasibility import decide, decide_fm, find_binary_certificate, verify_equatable, verify_separating
from sephyp.harness import enumerate_hypergraphs, run_enumeration
from sephyp.hypercore import (
    Hypergraph,
    complement,
    dual,
    is_exchangeable,
    is_r_monotone,
)
from sephyp.matroid import (
    BasisMatroid,
    Gf2Matrix,
    Graph,
    exchange_violation,
    from_gf2_matrix,
    from_graph,
    oracle_from_matroid,
)
from sephyp.oracle_algorithms import (
    build_adversary,
    decide_binary_via_oracle,
    replay_identical,
    run_indistinguishability_check,
    strategy_binary_algorithm,
    strategy_no_queries,
)
from tests.conftest import counterexample_nine_hypergraph

GF2_SEED = 20260809
RANDOM_HYPERGRAPH_SEED = 987654321


def _stamp(number: int, name: str, started: float, problems: list) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"[{status}] criterion {number}: {name} ({time.perf_counter() - started:.1f}s)", flush=True)
    assert not problems, problems[:5]


@pytest.fixture(scope="module")
def c2_corpus():
    """Both exhaustive n=5 corpora with LP and Fourier-Motzkin kinds,
    plus the seconds spent building them."""
    begun = time.perf_counter()
    data = {}
    for n, k in ((5, 3), (5, 2)):
        rows = []
        for h in enumerate_hypergraphs(n, k):
            rows.append((h, decide(h).kind, decide_fm(h).kind))
        data[(n, k)] = rows
    return data, time.perf_counter() - begun


@pytest.fixture(scope="module")
def c3_reports():
    """Harness runs for the exhaustively enumerated theorem corpora,
    plus the seconds spent running them."""
    begun = time.perf_counter()
    checks = {"dichotomy", "quadruple", "theorems", "monotone", "loops", "lines", "circuit_elimination"}
    reports = {}
    for n in (3, 4, 5, 6):
        reports[f"graphs n={n}"] = run_enumeration(n, 2, "graphs", checks)
    for n in (4, 5, 6):
        reports[f"3-matroids n={n}"] = run_enumeration(n, 3, "matroids", checks)
    for n in (4, 5, 6):
        reports[f"paving k=3 n={n}"] = run_enumeration(n, 3, "paving", {"theorems", "monotone"})
    for n in (3, 4, 5, 6):
        reports[f"paving k=2 n={n}"] = run_enumeration(n, 2, "paving", {"theorems", "monotone"})
    for n in (4, 5, 6):
        reports[f"3-partite n={n}"] = run_enumeration(
            n, 3, "multipartite", checks
        )
    return reports, time.perf_counter() - begun


def _random_gf2_instances(minimum: int):
    rng = random.Random(GF2_SEED)
    instances = []
    while len(instances) < minimum:
        r = rng.randint(1, 4)
        n = rng.randint(2, 7)
        bits = tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(r))
        try:
            m, oracle = from_gf2_matrix(Gf2Matrix(r, n, bits))
        except RankZero:
            continue
        if m is None:
            continue  # free matroid, no 1 <= k < n carrier
        instances.append((m, oracle))
    return instances


def _graphic_instances(max_vertices: int):
    instances = []
    for verts in range(2, max_vertices + 1):
        slots = list(combinations(range(1, verts + 1), 2))
        for mask in range(1 << len(slots)):
            edges = tuple(slots[i] for i in range(len(slots)) if mask >> i & 1)
            try:
                instances.append(from_graph(Graph(verts, edges)))
            except (RankCollapse, FormatError):
                continue
    return instances


@pytest.fixture(scope="module")
def binary_corpus():
    """Random GF(2) matroids plus all graphic matroids of graphs on <= 5
    vertices, with their LP kinds, plus the seconds spent building them."""
    begun = time.perf_counter()
    gf2 = _random_gf2_instances(500)
    graphic = _graphic_instances(5)
    rows = []
    for m, _ in gf2:
        rows.append(("gf2", m, decide(m.carrier).kind))
    for m in graphic:
        rows.append(("graphic", m, decide(m.carrier).kind))
    return rows, time.perf_counter() - begun


def test_criterion_1_reference_fixture_regression(sep_six, sep_six_x, eq_six, eq_six_y,
                                              paving_five, paving_five_y, counterexample_nine, counterexample_nine_y):
    started = time.perf_counter()
    problems = []
    if not verify_separating(sep_six, sep_six_x):
        problems.append("known separating labeling rejected")
    for name, h, y in (("eq6", eq_six, eq_six_y), ("pav5", paving_five, paving_five_y), ("counterexample_nine", counterexample_nine, counterexample_nine_y)):
        if not verify_equatable(h, y):
            problems.append(f"known equatable labeling rejected on {name}")
    for name, h, expected in (
        ("sep6", sep_six, "separable"), ("eq6", eq_six, "equatable"),
        ("pav5", paving_five, "equatable"), ("counterexample_nine", counterexample_nine, "equatable"),
    ):
        kind = decide(h).kind
        if kind != expected:
            problems.append(f"decide({name}) = {kind}, expected {expected}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _stamp(1, "reference-fixture regression", started, problems)


def test_criterion_2_dichotomy_exhaustive(c2_corpus):
    started = time.perf_counter()
    corpus, build_seconds = c2_corpus
    problems = []
    for (n, k), rows in corpus.items():
        if len(rows) != 1024:
            problems.append(f"(n={n},k={k}) corpus has {len(rows)} instances")
        for h, lp_kind, fm_kind in rows:
            if lp_kind not in ("separable", "equatable"):
                problems.append(f"bad kind {lp_kind}")
            if lp_kind != fm_kind:
                problems.append(f"LP {lp_kind} vs FM {fm_kind} on {h.sorted_edges()}")
    elapsed = build_seconds + time.perf_counter() - started
    if elapsed >= 300:
        problems.append(f"runtime {elapsed:.0f}s exceeds 5min")
    _stamp(2, f"dichotomy on 2x1024 instances, FM agreement ({elapsed:.0f}s incl. corpus)", started, problems)


def test_criterion_3_theorem_suite(c3_reports, binary_corpus):
    started = time.perf_counter()
    reports, harness_seconds = c3_reports
    corpus, corpus_seconds = binary_corpus
    problems = []
    for name, report in reports.items():
        structural = [v for v in report.violations if v["check"] != "monotone"]
        if structural:
            problems.append(f"{name}: {structural[0]}")
        if report.counts["separable"] + report.counts["equatable"] != report.counts["total"]:
            problems.append(f"{name}: dichotomy count mismatch")
        if report.counts["equatable"] != report.counts["exchangeable"]:
            # every corpus here is inside a proved class
            problems.append(f"{name}: equatable {report.counts['equatable']} != exchangeable {report.counts['exchangeable']}")
    if sum(1 for kind, _, _ in corpus if kind == "gf2") < 500:
        problems.append("fewer than 500 GF(2) instances")
    for origin, m, lp_kind in corpus:
        exchangeable = is_exchangeable(m.carrier) is not None
        if (lp_kind == "equatable") != exchangeable:
            problems.append(f"{origin} instance {m.carrier.sorted_edges()}: {lp_kind} but exchangeable={exchangeable}")
    elapsed = harness_seconds + corpus_seconds + time.perf_counter() - started
    if elapsed >= 1800:
        problems.append(f"runtime {elapsed:.0f}s exceeds 30min")
    _stamp(3, f"equatable iff exchangeable on all proved classes ({elapsed:.0f}s incl. corpora)", started, problems)


def test_criterion_4_monotone_equivalence(c2_corpus, c3_reports, binary_corpus):
    started = time.perf_counter()
    problems = []
    for rows in c2_corpus[0].values():
        for h, _, _ in rows:
            if is_r_monotone(h, 2) != (is_exchangeable(h) is None):
                problems.append(f"criterion-2 corpus: {h.sorted_edges()}")
    for name, report in c3_reports[0].items():
        monotone_violations = [v for v in report.violations if v["check"] == "monotone"]
        if monotone_violations:
            problems.append(f"{name}: {monotone_violations[0]}")
    for origin, m, _ in binary_corpus[0]:
        if is_r_monotone(m.carrier, 2) != (is_exchangeable(m.carrier) is None):
            problems.append(f"{origin} instance {m.carrier.sorted_edges()}")
    _stamp(4, "2-monotone iff not exchangeable on criteria 2-3 corpora", started, problems)


def test_criterion_5_complement_dual_invariance():
    started = time.perf_counter()
    problems = []
    for n, k in ((5, 3), (5, 2)):
        report = run_enumeration(n, k, "all", {"transforms"})
        if report.violations:
            problems.append(f"(n={n},k={k}): {report.violations[0]}")
        if report.counts["total"] != 1024:
            problems.append(f"(n={n},k={k}): total {report.counts['total']}")
    _stamp(5, "kind invariant under complement/dual; dual labeling transports", started, problems)


def test_criterion_6_nine_vertex_counterexample():
    started = time.perf_counter()
    problems = []
    counterexample_nine = counterexample_nine_hypergraph()
    if decide(counterexample_nine).kind != "equatable":
        problems.append("the nine-vertex counterexample not equatable")
    if is_exchangeable(counterexample_nine) is not None:
        problems.append("the nine-vertex counterexample claims an exchange witness")
    if not is_r_monotone(counterexample_nine, 2):
        problems.append("the nine-vertex counterexample not 2-monotone")
    violation = exchange_violation(counterexample_nine)
    if violation != ((1, 4, 9), (2, 5, 7), 9):
        problems.append(f"matroid violation {violation}")
    e1, e2 = {1, 4, 9}, {2, 5, 7}
    if any(tuple(sorted((e1 - {9}) | {v2})) in counterexample_nine.edges for v2 in e2 - e1):
        problems.append("149/257 pair admits an exchange after all")
    labeling = find_binary_certificate(counterexample_nine, 6)
    if labeling is None or not verify_equatable(counterexample_nine, labeling):
        problems.append("no valid 0/1 certificate with support <= 6")
    elapsed = time.perf_counter() - started
    if elapsed >= 60:
        problems.append(f"runtime {elapsed:.0f}s exceeds 1min")
    _stamp(6, "the nine-vertex counterexample: equatable, unexchangeable, 2-monotone, non-matroid, 0/1 cert", started, problems)


def test_criterion_7_oracle_upper_bound(binary_corpus):
    started = time.perf_counter()
    problems = []
    runs = 0
    for origin, m, lp_kind in binary_corpus[0]:
        if m.n > 7:
            continue
        oracle = oracle_from_matroid(m)
        decision = decide_binary_via_oracle(m.n, m.k, oracle)
        if decision.verdict != lp_kind:
            problems.append(f"{origin} {m.carrier.sorted_edges()}: oracle {decision.verdict} vs LP {lp_kind}")
        if decision.queries_used > m.n + comb(m.n, 2):
            problems.append(f"{origin} {m.carrier.sorted_edges()}: {decision.queries_used} queries")
        runs += 1
    if runs < 100:
        problems.append(f"only {runs} binary-matroid oracle runs")
    _stamp(7, f"oracle decision agrees with LP on {runs} binary matroids within query bound", started, problems)


def test_criterion_8_oracle_lower_bound():
    started = time.perf_counter()
    problems = []
    for k in (2, 3):
        inst = build_adversary(k)  # validates paving/matroid/kinds internally
        if decide(inst.h1).kind != "separable" or decide(inst.h2).kind != "equatable":
            problems.append(f"k={k}: instance kinds wrong")
        for strategy in (strategy_no_queries, strategy_binary_algorithm):
            report = run_indistinguishability_check(inst, strategy, 10_000)
            queries = tuple(q for q, _ in report.trace)
            if inst.f1 not in queries and inst.f2 not in queries:
                if not replay_identical(inst, queries):
                    problems.append(f"k={k}: trace avoiding the pair is distinguishable")
                if not report.consistent_with_h2:
                    problems.append(f"k={k}: consistency flag wrong")
    inst3 = build_adversary(3)
    report = run_indistinguishability_check(inst3, strategy_binary_algorithm, 10_000)
    if report.kset_queries:
        problems.append("binary algorithm queried a k-set at k=3")
    if report.unqueried_pair is None:
        problems.append("no unqueried complementary pair exhibited at k=3")
    if report.alternative_kind != "equatable":
        problems.append("alternative instance not equatable")
    _stamp(8, "adversary instances validated; unqueried-pair replay certified", started, problems)


def test_criterion_9_certificate_soundness():
    started = time.perf_counter()
    problems = []
    rng = random.Random(RANDOM_HYPERGRAPH_SEED)
    for trial in range(1000):
        n = rng.randint(3, 7)
        k = rng.randint(1, min(3, n - 1))
        pool = list(combinations(range(1, n + 1), k))
        edges = [g for g in pool if rng.random() < rng.random()]
        h = Hypergraph(n, k, frozenset(edges))
        cert = decide(h)
        if cert.kind == "separable":
            if not verify_separating(h, cert.x):
                problems.append(f"trial {trial}: separable certificate fails")
            if find_binary_certificate(h, 2 * k) is not None:
                problems.append(f"trial {trial}: 0/1 equatable labeling on a separable instance")
        else:
            if not verify_equatable(h, cert.as_dict()):
                problems.append(f"trial {trial}: equatable certificate fails")
        if h.n <= 6 and decide_fm(h).kind != cert.kind:
            problems.append(f"trial {trial}: FM contradicts LP")
    _stamp(9, "1000 random instances: certificates verify, opposite kind never", started, problems)
