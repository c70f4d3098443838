"""Exact LP decision, verifiers, Fourier-Motzkin route, and 0/1 search."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from sephyp.errors import BudgetExceeded
from sephyp.feasibility import (
    EquatableCertificate,
    SeparableCertificate,
    build_system,
    decide,
    decide_fm,
    equatable_violation,
    find_binary_certificate,
    separating_violation,
    verify_equatable,
    verify_separating,
)
from sephyp.harness import enumerate_hypergraphs
from sephyp.hypercore import Hypergraph
from sephyp.jsonio import certificate_obj, dumps

ZERO6 = tuple(Fraction(0) for _ in range(6))


class TestBuildSystem:
    def test_smallest_legal_instance(self):
        h = Hypergraph.from_edges(3, 1, [(1,)])
        system = build_system(h)
        assert system.rows == ((1,), (2,), (3,))
        assert system.matrix == ((-1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert system.rhs == (0, -1, -1)

    def test_separable_example_shape(self, sep_six):
        system = build_system(sep_six)
        assert len(system.rows) == 20 and len(system.matrix[0]) == 6
        i = system.rows.index((1, 2, 4))
        assert system.matrix[i] == (-1, -1, 0, -1, 0, 0)
        assert system.rhs[i] == 0

    def test_complete_all_zero_rhs(self, complete_two_four):
        system = build_system(complete_two_four)
        assert all(b == 0 for b in system.rhs)
        for row, g in zip(system.matrix, system.rows):
            assert all(row[v - 1] == -1 for v in g)
            assert sum(map(abs, row)) == 2

    def test_budget(self, sep_six):
        with pytest.raises(BudgetExceeded):
            build_system(sep_six, budget=5)


class TestVerifiers:
    def test_known_separating_labeling(self, sep_six, sep_six_x):
        assert verify_separating(sep_six, sep_six_x)

    def test_zero_labeling_fails_on_first_non_edge(self, sep_six):
        assert separating_violation(sep_six, ZERO6) == (1, 2, 3)

    def test_zero_labeling_on_complete(self, complete_two_four):
        assert verify_separating(complete_two_four, (Fraction(0),) * 4)

    def test_known_equatable_labelings(self, eq_six, eq_six_y, paving_five, paving_five_y, counterexample_nine, counterexample_nine_y):
        assert verify_equatable(eq_six, eq_six_y)
        assert verify_equatable(paving_five, paving_five_y)
        assert verify_equatable(counterexample_nine, counterexample_nine_y)

    def test_zero_labeling_rejected(self, eq_six):
        assert equatable_violation(eq_six, {}) == "labeling is identically zero"
        assert not verify_equatable(eq_six, {(1, 3, 5): Fraction(0)})

    def test_negative_value_rejected(self, eq_six, eq_six_y):
        bad = dict(eq_six_y)
        bad[(1, 3, 4)] = Fraction(-1)
        assert not verify_equatable(eq_six, bad)

    def test_imbalance_names_vertex(self, eq_six):
        problem = equatable_violation(eq_six, {(1, 3, 4): Fraction(1)})
        assert problem is not None and "vertex" in problem

    def test_balance_aggregate(self, eq_six, eq_six_y, paving_five, paving_five_y, counterexample_nine, counterexample_nine_y):
        # summing the balance equations over vertices forces equal total mass
        for h, y in [(eq_six, eq_six_y), (paving_five, paving_five_y), (counterexample_nine, counterexample_nine_y)]:
            edge_mass = sum(v for g, v in y.items() if g in h.edges)
            non_mass = sum(v for g, v in y.items() if g not in h.edges)
            assert edge_mass == non_mass


class TestDecide:
    def test_reference_fixture_kinds(self, sep_six, eq_six, paving_five, counterexample_nine):
        assert decide(sep_six).kind == "separable"
        assert decide(eq_six).kind == "equatable"
        assert decide(paving_five).kind == "equatable"
        assert decide(counterexample_nine).kind == "equatable"

    def test_certificates_verify(self, sep_six, eq_six):
        sep = decide(sep_six)
        assert isinstance(sep, SeparableCertificate)
        assert verify_separating(sep_six, sep.x)
        eq = decide(eq_six)
        assert isinstance(eq, EquatableCertificate)
        assert verify_equatable(eq_six, eq.as_dict())

    def test_complete_separable(self, complete_two_four):
        cert = decide(complete_two_four)
        assert cert.kind == "separable"
        assert verify_separating(complete_two_four, cert.x)

    def test_empty_separable(self):
        h = Hypergraph.from_edges(5, 2, [])
        cert = decide(h)
        assert cert.kind == "separable"
        assert all(sum(cert.x[v - 1] for v in g) < 0 for g in combinations(range(1, 6), 2))

    def test_certificates_are_coprime_integers(self, sep_six, eq_six):
        sep = decide(sep_six)
        assert all(v.denominator == 1 for v in sep.x)
        eq = decide(eq_six)
        assert all(v.denominator == 1 and v > 0 for _, v in eq.y)

    def test_deterministic(self, eq_six, sep_six):
        assert decide(eq_six) == decide(eq_six)
        assert decide(sep_six) == decide(sep_six)

    def test_budget(self, counterexample_nine):
        with pytest.raises(BudgetExceeded):
            decide(counterexample_nine, budget=10)

    def test_no_dense_system(self, monkeypatch, sep_six, eq_six, paving_five, counterexample_nine):
        # decide prices its columns from the k-sets; the dense matrix of
        # build_system is left to decide_fm
        fixtures = (sep_six, eq_six, paving_five, counterexample_nine)
        expected = [decide(h) for h in fixtures]

        def dense(*args, **kwargs):
            raise AssertionError("decide built the dense system")

        monkeypatch.setattr("sephyp.feasibility.build_system", dense)
        assert [decide(h) for h in fixtures] == expected

    @pytest.mark.parametrize("n,k", [(11, 4), (13, 5), (16, 6)])
    def test_large_threshold_and_flipped(self, n, k):
        # long pivot sequences and a growing shared denominator, far beyond
        # the shapes the property tests reach
        rng = random.Random(n * 100 + k)
        ksets = list(combinations(range(1, n + 1), k))
        edges = _threshold_edges(rng, ksets, n)
        flips = set(rng.sample(ksets, 3))
        for edge_set, threshold in ((edges, True), (edges ^ flips, False)):
            h = Hypergraph(n, k, frozenset(edge_set))
            cert = decide(h)
            if cert.kind == "separable":
                assert verify_separating(h, cert.x)
            else:
                assert not threshold
                assert verify_equatable(h, cert.as_dict())


class TestDecideFm:
    def test_agrees_with_lp_on_fixtures(self, sep_six, eq_six, paving_five, complete_two_four):
        for h in (sep_six, eq_six, paving_five, complete_two_four):
            assert decide_fm(h).kind == decide(h).kind

    def test_path_four_equatable(self, path_four):
        cert = decide_fm(path_four)
        assert cert.kind == "equatable"
        assert verify_equatable(path_four, cert.as_dict())

    def test_certificates_verify(self, sep_six, eq_six):
        sep = decide_fm(sep_six)
        assert verify_separating(sep_six, sep.x)
        eq = decide_fm(eq_six)
        assert verify_equatable(eq_six, eq.as_dict())

    def test_vertex_guard(self, counterexample_nine):
        with pytest.raises(BudgetExceeded):
            decide_fm(counterexample_nine)

    def test_exhaustive_agreement_n4(self):
        from sephyp.harness import enumerate_hypergraphs

        for h in enumerate_hypergraphs(4, 2):
            assert decide(h).kind == decide_fm(h).kind


class TestBinaryCertificateSearch:
    def test_counterexample_nine_within_two_k(self, counterexample_nine):
        y = find_binary_certificate(counterexample_nine, 6)
        assert y is not None and len(y) <= 6
        assert all(v == 1 for v in y.values())
        assert verify_equatable(counterexample_nine, y)

    def test_equatable_example_four_ones(self, eq_six):
        y = find_binary_certificate(eq_six, 4)
        assert y is not None and len(y) == 4
        assert verify_equatable(eq_six, y)

    def test_complete_has_none(self, complete_two_four):
        assert find_binary_certificate(complete_two_four, 6) is None

    def test_separable_never_yields(self, sep_six):
        assert find_binary_certificate(sep_six, 6) is None

    def test_budget(self, counterexample_nine):
        with pytest.raises(BudgetExceeded):
            find_binary_certificate(counterexample_nine, 12, budget=100)

    def test_smallest_support_first(self, eq_six):
        # the quadruple construction guarantees support 4 exists, so a larger
        # bound must still return a 4-support labeling
        y = find_binary_certificate(eq_six, 8)
        assert y is not None and len(y) == 4


class TestDichotomy:
    def test_never_both_kinds(self, sep_six, eq_six, paving_five, counterexample_nine, complete_two_four, path_four):
        for h in (sep_six, eq_six, paving_five, counterexample_nine, complete_two_four, path_four):
            kind = decide(h).kind
            if kind == "separable":
                assert find_binary_certificate(h, 2 * h.k) is None
            if h.n <= 6:
                assert decide_fm(h).kind == kind


def _threshold_edges(rng, ksets, n):
    """k-sets of nonnegative sum under a random integer labeling, shifted by
    the median k-set sum so about half the k-sets are edges."""
    x = [rng.randint(-9, 9) for _ in range(n)]
    sums = sorted(sum(x[v - 1] for v in g) for g in ksets)
    median = sums[len(sums) // 2]
    k = len(ksets[0])
    return {g for g in ksets if sum(k * x[v - 1] - median for v in g) >= 0}


def _golden_random_corpus():
    """Fixed seeded corpus with n <= 10, k in {3, 4}: per (n, k), a threshold
    instance, the same with three k-sets flipped, and a uniformly random one,
    twice over."""
    rng = random.Random(20220615)
    corpus = []
    for n, k, _ in product(range(7, 11), (3, 4), range(2)):
        ksets = list(combinations(range(1, n + 1), k))
        edges = _threshold_edges(rng, ksets, n)
        flips = {ksets[rng.randrange(len(ksets))] for _ in range(3)}
        corpus.append(Hypergraph(n, k, frozenset(edges)))
        corpus.append(Hypergraph(n, k, frozenset(edges ^ flips)))
        corpus.append(Hypergraph(n, k, frozenset(g for g in ksets if rng.random() < 0.5)))
    return corpus


def _fm_random_corpus():
    """Fixed seeded corpus of 150 instances with n = 6 and k in {2, 3, 4}:
    per k, 50 instances whose k-sets are edges with a probability drawn
    uniformly per instance, so both outcomes occur."""
    rng = random.Random(20220616)
    corpus = []
    for k in (2, 3, 4):
        ksets = list(combinations(range(1, 7), k))
        for _ in range(50):
            p = rng.random()
            corpus.append(Hypergraph(6, k, frozenset(g for g in ksets if rng.random() < p)))
    return corpus


def _certificate_digest(instances, decider=decide) -> str:
    digest = hashlib.sha256()
    for h in instances:
        digest.update(dumps(certificate_obj(decider(h))).encode())
    return digest.hexdigest()


class TestGoldenCertificates:
    """decide() must keep returning byte-identical certificates; the digests
    were recorded from the Fraction-tableau simplex."""

    @pytest.mark.parametrize(
        "n,k,expected",
        [
            (5, 2, "6714bfc34f8f7ff8217c443a26cd5dc63a309f8c6294853bfe3a0d684157ae74"),
            (5, 3, "4a6aa670a559d4c5e77a088d331618aea7f3facf76cc94ff617e3e34059c306d"),
        ],
    )
    def test_exhaustive(self, n, k, expected):
        assert _certificate_digest(enumerate_hypergraphs(n, k)) == expected

    def test_seeded_random(self):
        assert _certificate_digest(_golden_random_corpus()) == (
            "97696354384f8ba17c16e3d2d61ca26325c2642096e62923d1d993aeebe3d13a"
        )

    def test_fm_exhaustive(self):
        # decide_fm on every hypergraph with 2 <= n <= 5, recorded before
        # its row scaling was shared with decide
        instances = (h for n in range(2, 6) for k in range(1, n) for h in enumerate_hypergraphs(n, k))
        assert _certificate_digest(instances, decide_fm) == (
            "7083ca4934337d4b8a1b0545fc8d681fc64d524f3b9fb89763cd330f546ac536"
        )

    def test_fm_seeded_random(self):
        # recorded from the Fraction-row elimination
        assert _certificate_digest(_fm_random_corpus(), decide_fm) == (
            "0d4a7550487cf4c851806b9d65cd8b9514e6063a6dfab22e0c5d2f6102021a7d"
        )
