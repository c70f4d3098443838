"""Query-complexity layer: the binary-matroid algorithm and the adversary."""

from itertools import combinations
from math import comb

import pytest

from sephyp.errors import OracleInconsistent
from sephyp.feasibility import decide
from sephyp.hypercore import is_exchangeable
from sephyp.matroid import (
    Gf2Matrix,
    Graph,
    IndependenceOracle,
    exchange_violation,
    from_gf2_matrix,
    from_graph,
    is_independent,
    is_paving,
    BasisMatroid,
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


class TestBinaryOracleDecision:
    def test_free_matroid_separable(self):
        _, oracle = from_gf2_matrix(Gf2Matrix(3, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
        decision = decide_binary_via_oracle(3, 3, oracle)
        assert decision.verdict == "separable"
        assert decision.queries_used == 3  # all pairs

    def test_rank_one_separable_without_queries(self):
        _, oracle = from_gf2_matrix(Gf2Matrix(1, 3, ((1, 1, 0),)))
        decision = decide_binary_via_oracle(3, 1, oracle)
        assert decision.verdict == "separable" and decision.queries_used == 0

    def test_two_nontrivial_lines_equatable(self):
        m, oracle = from_gf2_matrix(Gf2Matrix(2, 4, ((1, 1, 0, 0), (0, 0, 1, 1))))
        decision = decide_binary_via_oracle(4, 2, oracle)
        assert decision.verdict == "equatable" == decide(m.carrier).kind

    def test_single_line_boundary_separable(self):
        m, oracle = from_gf2_matrix(Gf2Matrix(2, 4, ((1, 1, 1, 0), (0, 0, 0, 1))))
        decision = decide_binary_via_oracle(4, 2, oracle)
        assert decision.verdict == "separable" == decide(m.carrier).kind

    def test_loops_are_deleted_virtually(self):
        m, oracle = from_gf2_matrix(Gf2Matrix(2, 5, ((1, 1, 0, 0, 0), (0, 0, 1, 1, 0))))
        decision = decide_binary_via_oracle(5, 2, oracle)
        assert decision.verdict == decide(m.carrier).kind

    def test_query_bound_and_trace(self):
        k4 = Graph(4, tuple((u, v) for u in range(1, 5) for v in range(u + 1, 5)))
        m = from_graph(k4)
        oracle = oracle_from_matroid(m)
        decision = decide_binary_via_oracle(m.n, m.k, oracle)
        assert decision.queries_used <= m.n + comb(m.n, 2)
        assert decision.queries_used == len(decision.trace)
        assert decision.verdict == decide(m.carrier).kind

    def test_inconsistent_pairs_detected(self):
        # answers claim 1~2 and 2~3 dependent but 1~3 independent
        def fake(subset):
            if len(subset) == 1:
                return True
            return set(subset) not in ({1, 2}, {2, 3})

        with pytest.raises(OracleInconsistent):
            decide_binary_via_oracle(4, 2, IndependenceOracle(fake))

    def test_line_boundary_not_determined_by_pairs(self):
        # Two binary 3-matroids with identical loops and lines (one
        # nontrivial line {1,2}, n = l+k) but different kinds; the verdict
        # hinges on whether the trivial elements {3,4,5} are dependent.
        equatable_side = Gf2Matrix(3, 5, ((1, 1, 0, 0, 0), (0, 0, 1, 0, 1), (0, 0, 0, 1, 1)))
        separable_side = Gf2Matrix(3, 5, ((1, 1, 0, 0, 1), (0, 0, 1, 0, 1), (0, 0, 0, 1, 1)))
        for mat in (equatable_side, separable_side):
            m, oracle = from_gf2_matrix(mat)
            decision = decide_binary_via_oracle(m.n, m.k, oracle)
            assert decision.verdict == decide(m.carrier).kind
            assert decision.queries_used <= m.n + comb(m.n, 2)
            assert any(len(q) == 3 for q, _ in decision.trace)  # the tie-break query

    def test_parallel_extension_boundary_at_rank_two(self):
        # triangle with one doubled edge: one nontrivial line, n = l+k,
        # separable; at k=2 the tie-break set is a cached pair, no new query
        m, oracle = from_gf2_matrix(Gf2Matrix(2, 4, ((1, 1, 0, 1), (0, 0, 1, 1))))
        decision = decide_binary_via_oracle(4, 2, oracle)
        assert decision.verdict == "separable" == decide(m.carrier).kind
        assert decision.queries_used <= 4 + comb(4, 2)

    def test_agreement_exhaustive_small_binary_matroids(self):
        # every binary matroid among all 2^10 graphs and 3-hypergraphs on
        # five vertices: oracle verdict must match the LP kind
        from sephyp.harness import enumerate_hypergraphs
        from sephyp.matroid import is_binary

        checked = 0
        for k in (2, 3):
            for h in enumerate_hypergraphs(5, k):
                if not h.edges or exchange_violation(h) is not None:
                    continue
                m = BasisMatroid(h)
                if not is_binary(m):
                    continue
                decision = decide_binary_via_oracle(h.n, h.k, oracle_from_matroid(m))
                assert decision.verdict == decide(h).kind
                assert decision.queries_used <= h.n + comb(h.n, 2)
                checked += 1
        assert checked > 200


class TestAdversaryConstruction:
    @pytest.mark.parametrize("k", [2, 3])
    def test_instances_validate(self, k):
        inst = build_adversary(k)
        n = 2 * k
        assert inst.f1 == tuple(range(1, k + 1))
        assert inst.f2 == tuple(range(k + 1, n + 1))
        assert len(inst.h1.edges) == comb(n, k)
        assert inst.h1.edges - inst.h2.edges == {inst.f1, inst.f2}
        for h in (inst.h1, inst.h2):
            assert exchange_violation(h) is None
            assert is_paving(BasisMatroid(h))
        assert decide(inst.h1).kind == "separable"
        assert decide(inst.h2).kind == "equatable"

    def test_k2_shape(self):
        inst = build_adversary(2)
        assert inst.h2.sorted_edges() == [(1, 3), (1, 4), (2, 3), (2, 4)]

    def test_instances_differ_only_on_removed_pair(self):
        inst = build_adversary(2)
        m1, m2 = BasisMatroid(inst.h1), BasisMatroid(inst.h2)
        for size in range(1, 5):
            for s in combinations(range(1, 5), size):
                same = is_independent(m1, s) == is_independent(m2, s)
                assert same == (s not in (inst.f1, inst.f2))

    def test_requires_k_at_least_two(self):
        with pytest.raises(ValueError):
            build_adversary(1)


class TestIndistinguishability:
    def test_silent_strategy_is_refuted(self):
        report = run_indistinguishability_check(build_adversary(2), strategy_no_queries, 100)
        assert report.verdict == "separable" and report.queries == 0
        assert report.unqueried_pair == ((1, 2), (3, 4))
        assert report.alternative_kind == "equatable"
        assert report.consistent_with_h2

    def test_full_information_leaves_no_pair(self):
        def query_everything(oracle, n, k):
            for g in combinations(range(1, n + 1), k):
                oracle.query(g)
            return "separable"

        report = run_indistinguishability_check(build_adversary(2), query_everything, 100)
        assert report.unqueried_pair is None
        assert report.pairs_touched == report.pairs_total == 3
        assert not report.consistent_with_h2

    def test_binary_algorithm_at_k3_touches_no_ksets(self):
        inst = build_adversary(3)
        report = run_indistinguishability_check(inst, strategy_binary_algorithm, 1000)
        assert report.queries <= 6 + comb(6, 2)
        assert report.kset_queries == ()
        assert report.consistent_with_h2
        assert report.unqueried_pair == (inst.f1, inst.f2)
        assert report.alternative_kind == "equatable"
        assert report.threshold_queries == 7
        assert report.threshold_pairs == 10

    def test_replay_identical_when_pair_avoided(self):
        inst = build_adversary(3)
        report = run_indistinguishability_check(inst, strategy_binary_algorithm, 1000)
        assert replay_identical(inst, tuple(q for q, _ in report.trace))

    def test_replay_breaks_when_pair_queried(self):
        inst = build_adversary(2)
        assert not replay_identical(inst, (inst.f1,))
        assert not replay_identical(inst, (inst.f2,))
        assert replay_identical(inst, ((1, 3), (1,), (1, 2, 3)))

    def test_replay_runs_no_exchange_scan(self, monkeypatch):
        # build_adversary has checked both matroids; the replay only reads
        # their edge masks, with the answers is_independent gives
        import sephyp.matroid as matroid

        inst = build_adversary(3)
        m1, m2 = BasisMatroid(inst.h1), BasisMatroid(inst.h2)
        queries = tuple(q for r in range(5) for q in combinations(range(0, 8), r))
        calls = []
        scan = matroid._mask_exchange_violation
        monkeypatch.setattr(matroid, "_mask_exchange_violation", lambda sets: calls.append(1) or scan(sets))
        for q in queries:
            assert replay_identical(inst, (q,)) == (is_independent(m1, q) == is_independent(m2, q)), q
        assert not replay_identical(inst, queries)
        assert calls == []

    def test_query_budget_is_report_outcome(self):
        def greedy(oracle, n, k):
            for g in combinations(range(1, n + 1), k):
                oracle.query(g)
            return "separable"

        report = run_indistinguishability_check(build_adversary(2), greedy, 2)
        assert report.budget_exhausted and report.verdict is None
        assert report.queries == 2
