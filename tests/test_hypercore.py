"""Combinatorial predicates against hand-verified and brute-force oracles."""

import random
import re
from itertools import combinations, permutations

import pytest

from sephyp.errors import BudgetExceeded, FormatError, InvalidPartition, NotAGraph
from sephyp.harness import enumerate_hypergraphs
from sephyp.hypercore import (
    DOMINATING,
    ISOLATED,
    ExchangeWitness,
    GraphOrdering,
    Hypergraph,
    Partition,
    complement,
    dual,
    find_summable_quadruple,
    graph_orderable,
    is_exchangeable,
    is_multipartite,
    is_r_monotone,
    is_valid_exchange_witness,
    is_valid_graph_ordering,
    is_valid_summable_quadruple,
)


class TestHypergraphConstruction:
    def test_rejects_degenerate_uniformity(self):
        with pytest.raises(FormatError):
            Hypergraph.from_edges(3, 0, [])
        with pytest.raises(FormatError):
            Hypergraph.from_edges(3, 3, [(1, 2, 3)])
        with pytest.raises(FormatError):
            Hypergraph.from_edges(3, 4, [])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(FormatError, match="duplicate"):
            Hypergraph.from_edges(4, 2, [(1, 2), (2, 1)])

    def test_rejects_out_of_range_vertices(self):
        with pytest.raises(FormatError):
            Hypergraph.from_edges(4, 2, [(0, 1)])
        with pytest.raises(FormatError):
            Hypergraph.from_edges(4, 2, [(3, 5)])
        with pytest.raises(FormatError):
            Hypergraph.from_edges(4, 2, [(2, 2)])

    def test_edges_canonicalized(self):
        h = Hypergraph.from_edges(4, 2, [(2, 1), (4, 3)])
        assert h.sorted_edges() == [(1, 2), (3, 4)]

    @pytest.mark.parametrize("k, edge, message", [
        (1, (1.5,), "edge (1.5,) is not a tuple of integers"),
        (2, "ab", "edge 'ab' is not a tuple of integers"),
        (1, 5, "edge 5 is not a tuple of integers"),
        (2, (2, 1), "edge (2, 1) is not a sorted 2-tuple"),
        (2, (2, 2), "edge (2, 2) has repeated vertices"),
        (3, (1, 2), "edge (1, 2) has 2 elements, expected 3"),
        (2, (3, 5), "edge (3, 5) has vertices outside 1..4"),
    ], ids=["float vertex", "string edge", "non-iterable edge", "unsorted", "repeated", "wrong length",
            "out of range"])
    def test_validator_names_the_bad_edge(self, k, edge, message):
        good = tuple(range(1, k + 1))
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            Hypergraph(4, k, frozenset({good, edge}))

    def test_validator_names_the_lexicographically_first_bad_edge(self):
        # (9, 10) comes first although "(10, 11)" sorts first as text
        with pytest.raises(FormatError, match=r"^edge \(9, 10\) has vertices outside 1..8$"):
            Hypergraph(8, 2, frozenset({(1, 2), (10, 11), (9, 10)}))

    def test_from_edges_refuses_an_edge_that_does_not_sort(self):
        with pytest.raises(FormatError, match=r"^edges must be iterables of integers: 'int' object is not iterable$"):
            Hypergraph.from_edges(3, 1, [5])
        with pytest.raises(FormatError, match=r"^edges must be iterables of integers: '<' not supported"):
            Hypergraph.from_edges(3, 2, [(1, "a")])

    def test_edge_masks_gated_at_their_first_build_only(self):
        h = Hypergraph.from_edges(200, 2, [(1, 2), (64, 199)])  # 1 + 4 64-bit words
        masks = h.edge_masks()
        assert h.edge_masks(0) is masks


class TestComplementDual:
    def test_complement_of_empty_is_complete(self):
        h = Hypergraph.from_edges(4, 2, [])
        assert complement(h).sorted_edges() == list(combinations(range(1, 5), 2))

    def test_complement_of_complete_is_empty(self):
        h = Hypergraph.from_edges(4, 2, combinations(range(1, 5), 2))
        assert complement(h).edges == frozenset()

    def test_equatable_example_complement(self, eq_six):
        comp = complement(eq_six)
        assert len(comp.edges) == 12
        assert (1, 3, 4) in comp.edges and (2, 5, 6) in comp.edges

    def test_dual_singleton(self):
        h = Hypergraph.from_edges(3, 1, [(1,)])
        assert dual(h).sorted_edges() == [(2, 3)] and dual(h).k == 2

    def test_dual_by_direct_complementation(self, sep_six):
        expected = sorted(
            tuple(sorted(set(range(1, 7)) - set(e))) for e in sep_six.edges
        )
        d = dual(sep_six)
        assert d.k == 3 and d.sorted_edges() == expected
        assert (3, 5, 6) in d.edges  # image of edge 124

    def test_involutions(self, sep_six, eq_six, paving_five):
        for h in (sep_six, eq_six, paving_five):
            assert complement(complement(h)) == h
            assert dual(dual(h)) == h


class TestExchangeability:
    def test_counterexample_nine_not_exchangeable(self, counterexample_nine):
        assert is_exchangeable(counterexample_nine) is None

    def test_complete_not_exchangeable(self, complete_two_four):
        assert is_exchangeable(complete_two_four) is None

    def test_equatable_example_witness(self, eq_six):
        w = is_exchangeable(eq_six)
        assert w == ExchangeWitness((1, 3, 5), (1, 4, 6), 3, 6)
        assert is_valid_exchange_witness(eq_six, w)
        f1, f2 = w.swapped()
        assert f1 == (1, 5, 6) and f2 == (1, 3, 4)

    def test_witness_search_exhaustive_cross_check(self, eq_six, sep_six):
        def brute(h):
            for e1 in h.sorted_edges():
                for e2 in h.sorted_edges():
                    if e1 == e2:
                        continue
                    for v1 in set(e1) - set(e2):
                        for v2 in set(e2) - set(e1):
                            f1 = tuple(sorted((set(e1) - {v1}) | {v2}))
                            f2 = tuple(sorted((set(e2) - {v2}) | {v1}))
                            if f1 not in h.edges and f2 not in h.edges:
                                return True
            return False

        assert brute(eq_six) == (is_exchangeable(eq_six) is not None)
        assert brute(sep_six) == (is_exchangeable(sep_six) is not None)


class TestSummableQuadruple:
    def test_complete_has_none(self, complete_two_four):
        assert find_summable_quadruple(complete_two_four) is None

    def test_equatable_example(self, eq_six):
        q = find_summable_quadruple(eq_six)
        assert (q.e1, q.e2, q.f1, q.f2) == ((1, 3, 5), (1, 4, 6), (1, 3, 4), (1, 5, 6))
        assert is_valid_summable_quadruple(eq_six, q)

    def test_witness_always_converts(self, eq_six):
        w = is_exchangeable(eq_six)
        assert w is not None
        assert find_summable_quadruple(eq_six) is not None

    def test_adversary_instance_pairs_are_complementary(self):
        full = set(combinations(range(1, 7), 3))
        h2 = Hypergraph.from_edges(6, 3, full - {(1, 2, 3), (4, 5, 6)})
        q = find_summable_quadruple(h2)
        assert q is not None and is_valid_summable_quadruple(h2, q)
        assert set(q.e1) & set(q.e2) == set() == set(q.f1) & set(q.f2)
        assert set(q.e1) | set(q.e2) == set(range(1, 7)) == set(q.f1) | set(q.f2)
        assert (q.e1, q.e2, q.f1, q.f2) == ((1, 2, 4), (3, 5, 6), (1, 2, 3), (4, 5, 6))


class TestMonotonicity:
    def test_r_equals_one_always_true(self, eq_six, sep_six, counterexample_nine):
        for h in (eq_six, sep_six, counterexample_nine):
            assert is_r_monotone(h, 1)

    def test_counterexample_nine_two_monotone(self, counterexample_nine):
        assert is_r_monotone(counterexample_nine, 2)

    def test_equatable_example_not_two_monotone(self, eq_six):
        assert not is_r_monotone(eq_six, 2)

    def test_separable_example_monotone_at_all_r(self, sep_six):
        # separable implies r-monotone for every r
        for r in range(1, 5):
            assert is_r_monotone(sep_six, r)

    def test_budget_guard(self, counterexample_nine):
        with pytest.raises(BudgetExceeded):
            is_r_monotone(counterexample_nine, 2, budget=10)

    def test_r_out_of_range(self, eq_six):
        with pytest.raises(FormatError):
            is_r_monotone(eq_six, 0)


class TestMultipartite:
    def test_equatable_example_is_tripartite(self, eq_six):
        p = Partition.from_parts([(1, 2), (3, 4), (5, 6)])
        assert is_multipartite(eq_six, p)

    def test_separable_example_is_not(self, sep_six):
        p = Partition.from_parts([(1, 2), (3, 4), (5, 6)])
        assert not is_multipartite(sep_six, p)  # edge 134 meets {3,4} twice

    def test_empty_edges_vacuous(self):
        h = Hypergraph.from_edges(6, 3, [])
        p = Partition.from_parts([(1, 2), (3, 4), (5, 6)])
        assert is_multipartite(h, p)

    def test_invalid_partitions(self, eq_six):
        with pytest.raises(InvalidPartition):
            is_multipartite(eq_six, Partition.from_parts([(1, 2), (2, 3), (5, 6)]))
        with pytest.raises(InvalidPartition):
            is_multipartite(eq_six, Partition.from_parts([(1, 2), (3, 4)]))
        with pytest.raises(InvalidPartition):
            is_multipartite(eq_six, Partition.from_parts([(1, 2, 3), (4, 5, 6)]))


class TestGraphOrderable:
    def test_star_is_orderable(self, star_three):
        o = graph_orderable(star_three)
        assert o is not None and is_valid_graph_ordering(star_three, o)
        assert o.order == (4, 3, 2, 1)
        assert o.tags == (ISOLATED, ISOLATED, ISOLATED, DOMINATING)

    def test_path_four_not_orderable(self, path_four):
        assert graph_orderable(path_four) is None
        # exhaustive cross-check: no permutation works
        for perm in permutations(range(1, 5)):
            ok = True
            for j, v in enumerate(perm):
                hits = [tuple(sorted((u, v))) in path_four.edges for u in perm[:j]]
                if hits and not (all(hits) or not any(hits)):
                    ok = False
                    break
            assert not ok

    def test_empty_graph_all_isolated(self):
        h = Hypergraph.from_edges(4, 2, [])
        o = graph_orderable(h)
        assert o is not None and set(o.tags) == {ISOLATED}
        assert is_valid_graph_ordering(h, o)

    def test_requires_k_two(self, eq_six):
        with pytest.raises(NotAGraph):
            graph_orderable(eq_six)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_ordering_check_matches_quadratic(self, n, eq_six):
        # on every graph, its greedy ordering or else a random one, and edits
        # of it: a tag flipped or unknown, two places swapped, the order
        # reversed, a vertex repeated, a tag missing
        rng = random.Random(n)
        outcomes = set()
        for h in enumerate_hypergraphs(n, 2):
            o = graph_orderable(h) or GraphOrdering(tuple(rng.sample(range(1, n + 1), n)),
                                                    tuple(rng.choices((ISOLATED, DOMINATING), k=n)))
            order, tags, j, i = list(o.order), list(o.tags), rng.randrange(n), rng.randrange(n)
            swapped = order[:]
            swapped[i], swapped[j] = order[j], order[i]
            flipped = tags[:j] + [DOMINATING if tags[j] == ISOLATED else ISOLATED] + tags[j + 1:]
            for edit in ((order, tags), (order, flipped), (order, tags[:j] + ["other"] + tags[j + 1:]),
                         (swapped, tags), (order[::-1], tags), (order[:j] + [order[i]] + order[j + 1:], tags),
                         (order, tags[:-1])):
                e = GraphOrdering(*map(tuple, edit))
                valid = is_valid_graph_ordering(h, e)
                assert valid == _quadratic_is_valid_graph_ordering(h, e), (h, e)
                outcomes.add(valid)
        assert outcomes == {False, True}
        e = GraphOrdering((1, 2, 3, 4, 5, 6), (ISOLATED,) * 6)
        assert not is_valid_graph_ordering(eq_six, e) and not _quadratic_is_valid_graph_ordering(eq_six, e)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_quadratic_greedy(self, n):
        # the heap version must make the same picks as the plain greedy scan
        for h in enumerate_hypergraphs(n, 2):
            assert graph_orderable(h) == _quadratic_greedy(h), sorted(h.edges)


def _quadratic_is_valid_graph_ordering(h, o):
    """The ordering check as an edge lookup per earlier vertex, O(n^2)."""
    if h.k != 2:
        return False
    if sorted(o.order) != list(range(1, h.n + 1)) or len(o.tags) != h.n:
        return False
    for j, v in enumerate(o.order):
        prior = o.order[:j]
        hits = [tuple(sorted((u, v))) in h.edges for u in prior]
        if o.tags[j] == ISOLATED and any(hits):
            return False
        if o.tags[j] == DOMINATING and not all(hits):
            return False
        if o.tags[j] not in (ISOLATED, DOMINATING):
            return False
    return True


def _quadratic_greedy(h):
    """The greedy rule as a sorted scan of the remaining vertices per pick."""
    adj = {v: set() for v in range(1, h.n + 1)}
    for a, b in h.edges:
        adj[a].add(b)
        adj[b].add(a)
    remaining = set(adj)
    picks = []
    while remaining:
        pick = next(((v, ISOLATED) for v in sorted(remaining) if not adj[v] & remaining), None)
        pick = pick or next(((v, DOMINATING) for v in sorted(remaining) if adj[v] >= remaining - {v}), None)
        if pick is None:
            return None
        remaining.discard(pick[0])
        picks.append(pick)
    picks.reverse()
    return GraphOrdering(tuple(v for v, _ in picks), tuple(t for _, t in picks))


class TestEnumeration:
    @pytest.mark.parametrize("n,k,count", [(3, 2, 8), (4, 2, 64), (5, 3, 1024)])
    def test_counts(self, n, k, count):
        seen = list(enumerate_hypergraphs(n, k))
        assert len(seen) == count
        assert len({h.edges for h in seen}) == count  # each exactly once

    def test_stream_order_fixed(self):
        first = [h.edges for h in enumerate_hypergraphs(3, 2)]
        second = [h.edges for h in enumerate_hypergraphs(3, 2)]
        assert first == second and first[0] == frozenset()

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            next(enumerate_hypergraphs(10, 5))
