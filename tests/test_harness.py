"""Enumeration harness: class filters, counts, and the law-check machinery."""

import pytest

from sephyp.errors import BudgetExceeded
from sephyp.harness import MaskTables, canonical_partition, run_enumeration
from sephyp.hypercore import enumerate_hypergraphs
from sephyp.matroid import is_matroid, is_paving, BasisMatroid


class TestMaskTables:
    def test_matroid_mask_matches_public_op(self):
        # is_matroid_mask is a second, mask-level basis-exchange check; it must
        # agree with the public one on every instance of each shape
        for n, k in ((4, 2), (5, 2), (5, 3)):
            tables = MaskTables(n, k)
            for mask in range(1 << tables.m):
                h = tables.hypergraph(mask)
                assert tables.is_matroid_mask(mask) == is_matroid(h), (n, k, mask)

    def test_paving_mask_matches_public_op(self):
        tables = MaskTables(5, 3)
        for mask in range(1, 1 << tables.m):
            if tables.is_matroid_mask(mask):
                m = BasisMatroid(tables.hypergraph(mask))
                assert tables.is_paving_mask(mask) == is_paving(m)

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
