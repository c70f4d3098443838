"""Enumeration harness: class filters, counts, and the law-check machinery."""

import gc
import hashlib
import random
import re
from itertools import combinations, groupby
from math import comb
from types import SimpleNamespace

import pytest

from sephyp import feasibility, harness, hypercore, matroid
from sephyp.errors import BudgetExceeded, InternalVerificationError, RankZero
from sephyp.harness import ALL_CHECKS, CLASSES, MaskTables, canonical_partition, enumerate_hypergraphs, run_enumeration
from sephyp.hypercore import Hypergraph
from sephyp.jsonio import dumps
from sephyp.matroid import Gf2Matrix, LineDecomposition, exchange_violation, from_gf2_matrix, is_paving, BasisMatroid

EXHAUSTIVE_SHAPES = ((4, 2), (5, 2), (5, 3))
RANDOM_CORPUS_SEED = 4


def reference_exchange_violation(h):
    """Basis exchange read off the definition, on vertex sets: the first
    (E1, E2, v1) in lexicographic order such that no v2 in E2 - E1 makes
    E1 - v1 + v2 an edge."""
    for e1 in sorted(h.edges):
        for e2 in sorted(h.edges):
            for v1 in sorted(set(e1) - set(e2)):
                if not any(tuple(sorted(set(e1) - {v1} | {v2})) in h.edges for v2 in set(e2) - set(e1)):
                    return e1, e2, v1
    return None


def reference_is_paving(h):
    """Every (k-1)-subset of the ground set lies in some basis."""
    return all(any(set(s) <= set(e) for e in h.edges) for s in combinations(range(1, h.n + 1), h.k - 1))


def check_exchange(tables, mask):
    """exchange_violation and is_matroid_mask, which share one
    basis-exchange core, against the reference scan; returns whether the
    instance is a matroid."""
    h = tables.hypergraph(mask)
    expected = reference_exchange_violation(h)
    assert exchange_violation(h) == expected, (h, expected)
    matroid = bool(h.edges) and expected is None
    assert tables.is_matroid_mask(mask) == matroid, h
    return matroid


def check_paving(tables, mask, matroid):
    """is_paving_mask, and is_paving on a matroid, against the reference
    scan; returns whether the instance is paving."""
    h = tables.hypergraph(mask)
    paving = reference_is_paving(h)
    assert tables.is_paving_mask(mask) == paving, h
    if matroid:
        assert is_paving(BasisMatroid(h)) == paving, h
    return paving


def random_corpus():
    """Seeded (tables, mask) pairs with n from 6 to 9: random edge sets of
    several densities, complete edge sets less a few k-sets, and the bases
    of random GF(2) matrices, so matroids of both paving kinds turn up."""
    rng = random.Random(RANDOM_CORPUS_SEED)
    for _ in range(60):
        n = rng.randint(6, 9)
        k = rng.randint(2, n - 2)
        tables = MaskTables(n, k, 2 ** comb(n, k))
        full = (1 << tables.m) - 1
        density = rng.choice((0.1, 0.5, 0.9))
        yield tables, sum(1 << i for i in range(tables.m) if rng.random() < density)
        yield tables, full & ~sum(1 << rng.randrange(tables.m) for _ in range(rng.randint(1, 3)))
        bits = tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(k))
        try:
            m, _ = from_gf2_matrix(Gf2Matrix(k, n, bits))
        except RankZero:
            continue
        if m is not None:
            tables = MaskTables(m.n, m.k, 2 ** comb(m.n, m.k))
            yield tables, sum(1 << i for i, g in enumerate(tables.ksets) if g in m.carrier.edges)


class TestMaskTables:
    def test_matroid_mask_matches_public_op(self):
        for n, k in EXHAUSTIVE_SHAPES:
            tables = MaskTables(n, k)
            for mask in range(1 << tables.m):
                check_exchange(tables, mask)

    def test_paving_mask_matches_public_op(self):
        for n, k in EXHAUSTIVE_SHAPES:
            tables = MaskTables(n, k)
            outcomes = set()
            for mask in range(1 << tables.m):
                matroid = tables.is_matroid_mask(mask)
                outcomes.add((matroid, check_paving(tables, mask, matroid)))
            assert outcomes == {(False, False), (False, True), (True, False), (True, True)}, (n, k)

    def test_random_corpus_matches_reference(self):
        outcomes = set()
        for tables, mask in random_corpus():
            matroid = check_exchange(tables, mask)
            outcomes.add((matroid, check_paving(tables, mask, matroid)))
        assert outcomes == {(False, False), (False, True), (True, False), (True, True)}

    def test_generated_matroid_totals(self):
        # OEIS A058673, matroids on n labelled points, summed over ranks 0..n
        totals = [sum(sum(1 for _ in harness._matroid_masks(n, k)) for k in range(n + 1)) for n in range(7)]
        assert totals == [1, 2, 5, 16, 68, 406, 3807]

    def test_generated_matroids_leave_no_cyclic_garbage(self):
        # each extension walk is freed by reference counting, not left for the cyclic collector
        gc.collect()
        gc.disable()
        try:
            assert sum(1 for _ in harness._matroid_masks(6, 3)) == 2053
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("n, k", [(5, 2), (5, 3), (6, 2), (6, 4)])
    def test_generated_matroids_match_filter(self, n, k):
        tables = MaskTables(n, k)
        assert list(harness._matroid_masks(n, k)) == [m for m in range(1 << tables.m) if tables.is_matroid_mask(m)]

    def test_hypergraph_matches_enumeration_order(self):
        tables = MaskTables(4, 2)
        for mask, h in enumerate(enumerate_hypergraphs(4, 2)):
            assert tables.hypergraph(mask) == h


class TestCanonicalPartition:
    def test_even_split(self):
        assert canonical_partition(6, 3) == [(1, 2), (3, 4), (5, 6)]

    def test_uneven_split(self):
        assert canonical_partition(5, 3) == [(1, 2), (3, 4), (5,)]
        assert canonical_partition(4, 3) == [(1, 2), (3,), (4,)]


class TestRunEnumeration:
    def test_threshold_graph_counts(self):
        # labeled threshold graphs on n vertices: 8, 46, 332 for n = 3, 4, 5;
        # separable graphs must match this independently known sequence
        from math import comb

        expected = {3: 8, 4: 46, 5: 332}
        for n, count in expected.items():
            report = run_enumeration(n, 2, "graphs")
            assert report.counts["separable"] == count
            assert report.counts["total"] == 2 ** comb(n, 2)

    def test_dichotomy_counts_add_up(self):
        report = run_enumeration(5, 3, "all", {"dichotomy"})
        assert report.counts["separable"] + report.counts["equatable"] == 1024
        assert not report.violations

    def test_matroid_class_filter(self):
        report = run_enumeration(5, 3, "matroids")
        assert report.counts["total"] == report.counts["matroids"] == 171
        assert report.counts["paving"] == 31

    def test_paving_class_is_subset_of_matroids(self):
        full = run_enumeration(5, 3, "matroids")
        paving = run_enumeration(5, 3, "paving")
        assert paving.counts["total"] == full.counts["paving"]

    def test_binary_class_filter(self):
        report = run_enumeration(4, 2, "binary", {"theorems"})
        assert report.counts["total"] == report.counts["binary"] > 0
        assert not report.violations

    def test_multipartite_corpus_sizes(self):
        # transversal k-sets of the canonical partition: 2 for (4,3), 4 for
        # (5,3), 8 for (6,3); the corpus is every subset of them
        for n, size in ((4, 2 ** 2), (5, 2 ** 4), (6, 2 ** 8)):
            report = run_enumeration(n, 3, "multipartite")
            assert report.counts["total"] == size

    def test_theorem_checks_clean_on_small_corpora(self):
        report = run_enumeration(
            4, 2, "all",
            {"dichotomy", "quadruple", "monotone", "transforms", "theorems", "loops", "lines", "circuit_elimination"},
        )
        assert not report.violations

    def test_rejects_unknown_class_and_checks(self):
        with pytest.raises(ValueError):
            run_enumeration(4, 2, "widgets")
        with pytest.raises(ValueError):
            run_enumeration(4, 2, "all", {"nonsense"})
        with pytest.raises(ValueError):
            run_enumeration(5, 3, "graphs")

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            run_enumeration(10, 5, "all")

    def test_golden_reports(self):
        # every class with every check on every valid (n, k) with n <= 5:
        # 53 reports, recorded before the mask filter computed each property once
        digest = hashlib.sha256()
        for n in range(2, 6):
            for k in range(1, n):
                for klass in CLASSES:
                    if klass != "graphs" or k == 2:
                        digest.update(dumps(run_enumeration(n, k, klass, ALL_CHECKS).as_obj()).encode())
        assert digest.hexdigest() == "0ddbac199e1c4555a6c57fa16da7ddf2e44f92d675fa310faab3efc45d487843"

    def test_golden_reports_six(self):
        # the generated classes on n = 6, recorded while they were still
        # filtered out of all 2^C(6,k) masks
        digest = hashlib.sha256()
        for klass in ("matroids", "paving", "binary"):
            for k in (2, 3, 4):
                digest.update(dumps(run_enumeration(6, k, klass).as_obj()).encode())
        assert digest.hexdigest() == "965812646b156b65e7f4e18649b519b2c65544e336b064f8ec419d691d7dadbd"

    @pytest.mark.parametrize("n, k, klass", [
        *((n, k, klass) for n, k in EXHAUSTIVE_SHAPES for klass in CLASSES if klass != "graphs" or k == 2),
        (6, 3, "matroids"),
    ])
    def test_trivial_group_gives_the_same_reports(self, monkeypatch, n, k, klass):
        # a cap of 0 refuses every orbit table, so each instance is decided on its own
        calls = []
        right = harness.decide
        monkeypatch.setattr(harness, "decide", lambda h: calls.append(h) or right(h))
        default = run_enumeration(n, k, klass, ALL_CHECKS).as_obj()
        orbit_calls = len(calls)
        monkeypatch.setattr(harness, "ORBIT_TABLE_BUDGET", 0)
        assert run_enumeration(n, k, klass, ALL_CHECKS).as_obj() == default
        assert orbit_calls < len(calls) - orbit_calls

    @pytest.mark.parametrize("n, k, klass, classes", [(5, 2, "graphs", 34), (6, 3, "matroids", 38)])
    def test_decides_once_per_isomorphism_class(self, monkeypatch, n, k, klass, classes):
        # 34 graphs on 5 vertices and 38 rank-3 matroids on 6 elements, up to isomorphism
        calls = []
        right = harness.decide
        monkeypatch.setattr(harness, "decide", lambda h: calls.append(h) or right(h))
        run_enumeration(n, k, klass)
        assert len(calls) == classes

    def test_moved_certificates_are_verified(self, monkeypatch):
        # decide checks its own certificates with the feasibility module's
        # verifiers, so rejecting the harness's fails only the moved ones
        monkeypatch.setattr(harness, "verify_separating", lambda h, x: False)
        monkeypatch.setattr(harness, "verify_equatable", lambda h, y: False)
        with pytest.raises(InternalVerificationError, match=r"^moved (separable|equatable) certificate fails on "):
            run_enumeration(4, 2, "all")

    def test_golden_violation_order_six(self, monkeypatch):
        # a wrong 2-monotone answer flags every one of the 2053 3-matroids on
        # six elements, so the digest pins the order they are visited in
        right = harness.is_r_monotone
        monkeypatch.setattr(harness, "is_r_monotone", lambda h, r, *run: not right(h, r))
        report = run_enumeration(6, 3, "matroids", {"monotone"})
        assert len(report.violations) == 2053
        digest = hashlib.sha256(dumps(report.as_obj()).encode()).hexdigest()
        assert digest == "2beec4afa6a6be16d63d1e63734b6cb98a2a543a0e2164e353962e86241afa46"

    def test_law_checks_run_in_order_and_alone(self, monkeypatch):
        # each per-instance check is made to fire on some 2-uniform instance
        # on four vertices: an instance's violations come in this order, and a
        # run of one check reports just the full run's violations of it
        # (loops needs a loop and lines none, so those two never meet)
        order = ("quadruple", "monotone", "transforms", "theorems", "loops", "lines", "circuit_elimination")
        equatable = Hypergraph.from_edges(4, 2, [(1, 2), (3, 4)])  # 12 + 34 = 13 + 24
        right = harness.is_r_monotone
        # each stand-in takes and ignores the run's budget and scan table
        monkeypatch.setattr(harness, "find_summable_quadruple", lambda h, *run: None)
        monkeypatch.setattr(harness, "is_r_monotone", lambda h, r, *run: not right(h, r))
        monkeypatch.setattr(harness, "complement", lambda h, *run: Hypergraph(h.n, h.k, frozenset()))
        monkeypatch.setattr(harness, "graph_orderable", lambda h, *run: None)
        monkeypatch.setattr(harness, "delete", lambda m, v, *run: (SimpleNamespace(carrier=equatable), {}))
        monkeypatch.setattr(harness, "lines", lambda m, *run: LineDecomposition((), 2))
        monkeypatch.setattr(harness, "_circuit_masks", lambda m, *run: (0b0110, 0b1100))
        full = run_enumeration(4, 2, "all", ALL_CHECKS).as_obj()
        assert {v["check"] for v in full["violations"]} == set(order)
        for _, group in groupby(full["violations"], key=lambda v: v["edges"]):
            ranks = [order.index(v["check"]) for v in group]
            assert ranks == sorted(ranks)
        for check in ALL_CHECKS:
            alone = [v for v in full["violations"] if v["check"] == check]
            assert run_enumeration(4, 2, "all", {check}).as_obj() == {**full, "violations": alone}, check


# the checks of the enumerate-matroids benchmark
BENCH_CHECKS = ("dichotomy", "quadruple", "theorems", "monotone", "loops", "lines", "circuit_elimination")


class TestLawBudgets:
    """The law checks' gates are checked once per run against bounds from the
    run's (n, k), and per instance only where such a bound fails."""

    def test_gates_do_not_grow_with_the_instances(self, monkeypatch):
        # every per-instance gate of the law checks passes at (6,3); what is
        # left is each run's generator and orbit tables and each decide's own
        # gates, once per orbit. 25582 calls before the gates were hoisted.
        gates = []
        real = hypercore.check_budget

        def counted(budget, default, work, what, *args):
            if budget is not hypercore.PROVEN:
                gates.append(what.format(*args, count="{count}"))
            real(budget, default, work, what, *args)

        for module in (hypercore, matroid, feasibility, harness):
            for name, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, name, counted)
        report = run_enumeration(6, 3, "matroids", BENCH_CHECKS)
        assert report.counts["total"] == 2053 and not report.violations
        assert len(gates) < 200
        per_run = re.compile(r"^(C\(\d+,\d+\) >= \{count\} k-sets|2\^C\(6,3\) instances|orbit tables of .*"
                             r"|packed simplex state of .*)$")
        assert [what for what in gates if not per_run.match(what)] == []

    @pytest.mark.parametrize("klass, n, k, caps, message", [
        # each refusal as the per-instance gates gave it before any was hoisted
        ("matroids", 6, 3, {"hypercore.PAIR_SCAN_BUDGET": 3599}, "exchange scan of 20 edges exceeds budget 3599"),
        ("matroids", 6, 3, {"hypercore.PAIR_SCAN_BUDGET": 189}, "2-monotone scan on n=6, k=3 exceeds budget 189"),
        ("matroids", 6, 3, {"hypercore.PAIR_SCAN_BUDGET": 100, "matroid.PAIR_SCAN_BUDGET": 100},
         "summable-quadruple scan of 1 edges and 19 non-edges exceeds budget 100"),
        ("matroids", 6, 3, {"matroid.PAIR_SCAN_BUDGET": 399}, "basis exchange scan of 20 bases exceeds budget 399"),
        ("matroids", 6, 3, {"hypercore.MASK_WORD_BUDGET": 19},
         "vertex masks of 20 edges in >= 20 64-bit words exceeds budget 19"),
        # an instance's masks are gated where they are first built, after the
        # basis-exchange gate, or, in a run that decides each instance on its
        # own, after the exchange scan's
        ("matroids", 6, 3, {"hypercore.MASK_WORD_BUDGET": 19, "matroid.PAIR_SCAN_BUDGET": 399},
         "basis exchange scan of 20 bases exceeds budget 399"),
        ("all", 5, 2, {"hypercore.MASK_WORD_BUDGET": 9, "hypercore.PAIR_SCAN_BUDGET": 399,
                       "harness.ORBIT_TABLE_BUDGET": 0}, "exchange scan of 10 edges exceeds budget 399"),
        ("matroids", 6, 3, {"hypercore.KSET_BUDGET": 19}, r"C\(6,3\) >= 20 k-sets exceeds budget 19"),
        ("matroids", 6, 3, {"matroid.VERTEX_LIST_BUDGET": 5}, "loops among 6 vertices exceeds budget 5"),
        ("all", 5, 2, {"hypercore.PAIR_SCAN_BUDGET": 30},
         "summable-quadruple scan of 0 edges and 10 non-edges exceeds budget 30"),
        ("graphs", 4, 2, {"hypercore.VERTEX_LIST_BUDGET": 3}, "ordering 4 vertices exceeds budget 3"),
    ])
    def test_a_failed_bound_refuses_as_each_instance_did(self, monkeypatch, klass, n, k, caps, message):
        checks = BENCH_CHECKS if klass == "matroids" else ALL_CHECKS
        for where, cap in caps.items():
            monkeypatch.setattr(f"sephyp.{where}", cap)
        with pytest.raises(BudgetExceeded, match=f"^{message}$"):
            run_enumeration(n, k, klass, checks)

    def test_one_verdict_covers_every_shape_the_default_cap_admits(self):
        # 2^C(n,k) <= ENUMERATION_BUDGET = 2^24 admits the 53 shapes with
        # C(n,k) <= 24, and every law bound passes on each of them
        admitted = [(n, k) for n in range(2, 25) for k in range(1, n) if comb(n, k) <= 24]
        assert len(admitted) == 53
        for n, k in admitted:
            assert MaskTables(n, k).law_budget is hypercore.PROVEN, (n, k)
        assert MaskTables(16, 2, 2 ** 120).law_budget is hypercore.PROVEN
        # C(17,2) = 136 k-sets: the exchange bound 136^2 * 15^2 = 4161600
        # exceeds PAIR_SCAN_BUDGET, on the duals of the graphs and on the
        # (17,15) instances themselves
        assert 136 ** 2 * 15 ** 2 > hypercore.PAIR_SCAN_BUDGET
        assert MaskTables(17, 2, 2 ** 136).law_budget is None
        assert MaskTables(17, 15, 2 ** 136).law_budget is None

    def test_a_failed_bound_that_no_instance_reaches(self, monkeypatch):
        # the exchange bound C(6,3)^2 * 3^2 = 3600 fails at 3599, but no binary
        # 3-matroid on six elements has the 20 bases that reach it
        expected = run_enumeration(6, 3, "binary", ALL_CHECKS)
        monkeypatch.setattr(hypercore, "PAIR_SCAN_BUDGET", 3599)
        assert MaskTables(6, 3).law_budget is None
        assert run_enumeration(6, 3, "binary", ALL_CHECKS) == expected
