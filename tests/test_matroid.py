"""Matroid layer: axiom, minors, circuits, lines, constructors, oracle."""

import os
import resource
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from sephyp.errors import (
    BudgetExceeded,
    HasLoops,
    NotAMatroid,
    RankCollapse,
    RankZero,
)
from sephyp.hypercore import Hypergraph, _mask_kset, _vertex_mask
from sephyp.matroid import (
    BasisMatroid,
    Gf2Matrix,
    Graph,
    IndependenceOracle,
    _fundamental_mask,
    circuits,
    coloops,
    contract,
    delete,
    exchange_violation,
    from_gf2_matrix,
    from_graph,
    gf2_rank,
    is_binary,
    is_independent,
    is_paving,
    lines,
    loops,
    oracle_from_matroid,
)
from tests.conftest import counterexample_nine_hypergraph


def uniform(k, n):
    return BasisMatroid(Hypergraph.from_edges(n, k, combinations(range(1, n + 1), k)))


def fundamental(m, basis, e):
    return _mask_kset(_fundamental_mask(set(m.carrier.edge_masks()), _vertex_mask(basis), 1 << e))


@pytest.fixture(scope="module")
def pav51():
    return BasisMatroid(
        Hypergraph.from_edges(
            5, 3,
            [(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 3, 5),
             (1, 4, 5), (2, 3, 4), (2, 3, 5), (2, 4, 5)],
        )
    )


@pytest.fixture(scope="module")
def single_basis():
    return BasisMatroid(Hypergraph.from_edges(3, 2, [(1, 2)]))


class TestAxiom:
    def test_uniform_is_matroid(self):
        assert exchange_violation(uniform(3, 4).carrier) is None

    def test_counterexample_nine_exchange_violation(self):
        assert exchange_violation(counterexample_nine_hypergraph()) == ((1, 4, 9), (2, 5, 7), 9)

    def test_empty_not_matroid(self):
        # the empty set passes the exchange scan vacuously; the constructor refuses it
        assert exchange_violation(Hypergraph.from_edges(4, 2, [])) is None
        with pytest.raises(NotAMatroid, match="nonempty basis set"):
            BasisMatroid(Hypergraph.from_edges(4, 2, []))

    def test_constructor_rejects_non_matroid(self):
        with pytest.raises(NotAMatroid):
            BasisMatroid(Hypergraph.from_edges(4, 2, [(1, 2), (3, 4)]))

    def test_tripled_fano_plane_is_scanned_per_basis(self):
        # each Fano column three times over: 756 bases on 21 elements. The scan
        # makes at most 2·|B|·k·(n-k) = 81648 lookups where the pair loop it
        # replaced made |B|^2 = 571536 pair visits, 0.5-0.9 s on a 2-vCPU Xeon
        columns = [c for c in range(1, 8) for _ in range(3)]
        bases = [s for s in combinations(range(1, 22), 3) if gf2_rank(columns[v - 1] for v in s) == 3]
        h = Hypergraph.from_edges(21, 3, bases)
        assert len(h.edges) == 756
        started = time.perf_counter()
        assert exchange_violation(h) is None
        assert time.perf_counter() - started < 0.25


class TestIndependence:
    def test_basis_members_independent(self, pav51):
        for b in pav51.carrier.sorted_edges():
            assert is_independent(pav51, b)

    def test_oversized_sets_dependent(self, pav51):
        assert not is_independent(pav51, (1, 2, 3, 4))

    def test_non_basis_kset_dependent(self, pav51):
        assert not is_independent(pav51, (1, 2, 5))

    def test_empty_set_independent(self, pav51):
        assert is_independent(pav51, ())


class TestLoopsColoops:
    def test_uniform_has_neither(self):
        m = uniform(3, 5)
        assert loops(m) == frozenset() and coloops(m) == frozenset()

    def test_single_basis(self, single_basis):
        assert loops(single_basis) == frozenset({3})
        assert coloops(single_basis) == frozenset({1, 2})

    def test_zero_gf2_column_is_loop(self):
        m, _ = from_gf2_matrix(Gf2Matrix(2, 3, ((1, 0, 0), (0, 1, 0))))
        assert loops(m) == frozenset({3})


class TestMinors:
    def test_contract_uniform(self):
        minor, mapping = contract(uniform(3, 5), 3)
        assert minor.carrier.sorted_edges() == list(combinations(range(1, 5), 2))
        assert mapping == {1: 1, 2: 2, 4: 3, 5: 4}

    def test_delete_coloop(self, single_basis):
        minor, mapping = delete(single_basis, 1)
        assert (minor.n, minor.k) == (2, 1)
        assert minor.carrier.sorted_edges() == [(1,)]
        assert mapping == {2: 1, 3: 2}

    def test_contract_paving_example(self, pav51):
        minor, mapping = contract(pav51, 5)
        assert minor.carrier.sorted_edges() == [(1, 3), (1, 4), (2, 3), (2, 4)]
        assert mapping == {1: 1, 2: 2, 3: 3, 4: 4}

    def test_delete_loop_keeps_edges(self):
        m, _ = from_gf2_matrix(Gf2Matrix(2, 4, ((1, 0, 0, 0), (0, 1, 0, 0))))
        assert loops(m) == frozenset({3, 4})
        minor, mapping = delete(m, 3)
        assert minor.k == m.k
        assert len(minor.carrier.edges) == len(m.carrier.edges)

    def test_contract_loop_keeps_rank(self):
        m, _ = from_gf2_matrix(Gf2Matrix(2, 4, ((1, 0, 0, 0), (0, 1, 0, 0))))
        minor, _ = contract(m, 4)
        assert minor.k == m.k

    def test_rank_collapse(self):
        with pytest.raises(RankCollapse):
            contract(uniform(1, 3), 1)  # rank would hit zero
        with pytest.raises(RankCollapse):
            delete(uniform(2, 3), 1)  # rank 2 on 2 remaining vertices

    def test_wide_ground_set_is_never_listed(self):
        # n = 10^11 with two one-element bases: a vertex above every basis is
        # not independent, and a deletion's vertex mapping is refused by its
        # gate, both without building an n-wide mask or mapping. Run in a
        # child under a 1.5 GB address-space limit, so that a regression ends
        # there with a MemoryError instead of allocating here.
        code = ("from sephyp.errors import BudgetExceeded\n"
                "from sephyp.hypercore import Hypergraph\n"
                "from sephyp.matroid import BasisMatroid, delete, is_independent\n"
                "m = BasisMatroid(Hypergraph(10 ** 11, 1, frozenset({(1,), (2,)})))\n"
                "print(is_independent(m, [10 ** 11]), is_independent(m, [3]), is_independent(m, [2]))\n"
                "try:\n"
                "    delete(m, 1)\n"
                "except BudgetExceeded as exc:\n"
                "    print(exc)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        env.pop("SEPHYP_BUDGET", None)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29)))
        assert (done.returncode, done.stdout) == (0, "False False True\ndeletion mapping of 100000000000 vertices "
                                                     "exceeds budget 1000000\n"), done.stderr

    def test_minors_stay_matroids(self, pav51):
        for v in range(1, 6):
            for minor, _ in (contract(pav51, v), delete(pav51, v)):
                assert minor.carrier.edges and exchange_violation(minor.carrier) is None


class TestCircuits:
    def test_uniform_circuits_are_k_plus_one_sets(self):
        m = uniform(2, 4)
        assert circuits(m) == tuple(combinations(range(1, 5), 3))

    def test_loop_is_singleton_circuit(self):
        m, _ = from_gf2_matrix(Gf2Matrix(2, 3, ((1, 0, 0), (0, 1, 0))))
        assert (3,) in circuits(m)

    def test_paving_example_circuits(self, pav51):
        circ = circuits(pav51)
        assert (1, 2, 5) in circ and (3, 4, 5) in circ

    # the circuit C(e, B) inside basis B + e, from which BasisMatroid._circuits reads every circuit
    def test_fundamental_circuit_uniform(self):
        m = uniform(2, 3)
        assert fundamental(m, (1, 2), 3) == (1, 2, 3)

    def test_fundamental_circuit_parallel_pair(self):
        m, _ = from_gf2_matrix(Gf2Matrix(2, 3, ((1, 1, 0), (0, 0, 1))))
        assert fundamental(m, (1, 3), 2) == (1, 2)

    def test_fundamental_circuit_triangle(self):
        m = from_graph(Graph(3, ((1, 2), (2, 3), (1, 3))))
        assert fundamental(m, (1, 2), 3) == (1, 2, 3)

    def test_circuit_elimination_axiom(self, pav51):
        circ = [frozenset(c) for c in circuits(pav51)]
        for c1 in circ:
            for c2 in circ:
                if c1 == c2:
                    continue
                for v in c1 & c2:
                    for u in c1 - c2:
                        pool = (c1 | c2) - {v}
                        assert any(u in c and c <= pool for c in circ)


class TestPavingBinary:
    def test_paving_examples(self, pav51, single_basis):
        assert is_paving(pav51)
        assert not is_paving(single_basis)  # {3} is not independent
        full = set(combinations(range(1, 7), 3))
        h2 = BasisMatroid(Hypergraph.from_edges(6, 3, full - {(1, 2, 3), (4, 5, 6)}))
        assert is_paving(h2)

    def test_graphic_matroids_binary(self):
        k4 = Graph(4, tuple((u, v) for u in range(1, 5) for v in range(u + 1, 5)))
        assert is_binary(from_graph(k4))

    def test_gf2_matroids_binary(self):
        m, _ = from_gf2_matrix(Gf2Matrix(3, 5, ((1, 0, 0, 1, 1), (0, 1, 0, 1, 0), (0, 0, 1, 0, 1))))
        assert is_binary(m)

    def test_uniform_two_four_not_binary(self):
        assert not is_binary(uniform(2, 4))


class TestLines:
    def test_uniform_all_trivial(self):
        decomposition = lines(uniform(3, 5))
        assert decomposition.lines == ((1,), (2,), (3,), (4,), (5,))
        assert decomposition.nontrivial_count == 0

    def test_parallel_columns(self):
        m, _ = from_gf2_matrix(Gf2Matrix(2, 3, ((1, 1, 0), (0, 0, 1))))
        decomposition = lines(m)
        assert decomposition.lines == ((1, 2), (3,))
        assert decomposition.nontrivial_count == 1

    def test_doubled_edge_multigraph(self):
        m = from_graph(Graph(3, ((1, 2), (1, 2), (2, 3))))
        decomposition = lines(m)
        assert (1, 2) in decomposition.lines
        assert decomposition.nontrivial_count == 1

    def test_requires_loopless(self, single_basis):
        with pytest.raises(HasLoops):
            lines(single_basis)


class TestGf2Constructor:
    def test_rank(self):
        assert gf2_rank([0b01, 0b10, 0b11]) == 2
        assert gf2_rank([0b01, 0b01]) == 1
        assert gf2_rank([]) == 0

    def test_identity_returns_no_carrier(self):
        m, oracle = from_gf2_matrix(Gf2Matrix(3, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
        assert m is None
        assert oracle.query((1, 2, 3)) and oracle.query((2,))

    def test_parallel_columns_bases(self):
        m, _ = from_gf2_matrix(Gf2Matrix(2, 3, ((1, 1, 0), (0, 0, 1))))
        assert m.carrier.sorted_edges() == [(1, 3), (2, 3)]

    def test_rank_zero(self):
        with pytest.raises(RankZero):
            from_gf2_matrix(Gf2Matrix(2, 2, ((0, 0), (0, 0))))

    def test_k4_incidence_matches_graphic(self):
        k4_edges = tuple((u, v) for u in range(1, 5) for v in range(u + 1, 5))
        graphic = from_graph(Graph(4, k4_edges))
        # vertex-edge incidence over GF(2), last vertex row dropped (rank 3)
        bits = tuple(
            tuple(1 if vertex in edge else 0 for edge in k4_edges) for vertex in (1, 2, 3)
        )
        represented, _ = from_gf2_matrix(Gf2Matrix(3, 6, bits))
        assert represented.carrier.edges == graphic.carrier.edges

    def test_oracle_matches_materialized(self):
        mat = Gf2Matrix(2, 4, ((1, 1, 0, 0), (0, 0, 1, 1)))
        m, oracle = from_gf2_matrix(mat)
        for size in range(0, 4):
            for s in combinations(range(1, 5), size):
                assert oracle.query(s) == is_independent(m, s)


class TestGraphConstructor:
    def test_triangle(self):
        m = from_graph(Graph(3, ((1, 2), (2, 3), (1, 3))))
        assert m.carrier.sorted_edges() == [(1, 2), (1, 3), (2, 3)]

    def test_k4_has_sixteen_spanning_trees(self):
        k4 = Graph(4, tuple((u, v) for u in range(1, 5) for v in range(u + 1, 5)))
        assert len(from_graph(k4).carrier.edges) == 16

    def test_self_loop_is_matroid_loop(self):
        m = from_graph(Graph(3, ((1, 1), (1, 2), (2, 3))))
        assert loops(m) == frozenset({1})

    def test_forest_collapses(self):
        with pytest.raises(RankCollapse):
            from_graph(Graph(3, ((1, 2), (2, 3))))  # every edge needed: k = n

    def test_all_self_loops_collapse(self):
        with pytest.raises(RankCollapse):
            from_graph(Graph(2, ((1, 1), (2, 2))))


class TestOracleWrapper:
    def test_cache_and_trace(self):
        m = uniform(2, 4)
        oracle = oracle_from_matroid(m)
        assert oracle.query((1, 2)) and oracle.query((2, 1)) and oracle.query((1, 2))
        assert oracle.queries_used == 1
        assert oracle.trace == [((1, 2), True)]
        assert not oracle.query((1, 2, 3))
        assert oracle.queries_used == 2

    def test_max_queries_counts_distinct_subsets(self):
        oracle = IndependenceOracle(lambda s: len(s) <= 2, max_queries=2)
        assert oracle.query((1, 2)) and oracle.query((2, 1)) and not oracle.query((1, 2, 3))
        assert oracle.query((1, 2)) and oracle.queries_used == 2
        with pytest.raises(BudgetExceeded, match="^query budget 2 exhausted$"):
            oracle.query((1, 3))
        assert oracle.queries_used == 2
