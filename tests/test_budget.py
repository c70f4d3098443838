"""Budget gates at their boundary. The single C(n,k) gate: every operation
that builds the k-set universe refuses one k-set below C(n,k) and runs at
exactly C(n,k). The r-monotone gate refuses one step below the work its scan
does and runs at exactly that work."""

from itertools import combinations, product
from math import comb

import pytest

from sephyp.errors import BudgetExceeded
from sephyp.feasibility import build_system
from sephyp.harness import run_enumeration
from sephyp.hypercore import Hypergraph, enumerate_hypergraphs, is_r_monotone
from sephyp.matroid import Gf2Matrix, Graph, from_gf2_matrix, from_graph
from sephyp.oracle_algorithms import build_adversary

K4 = Graph(4, tuple((u, v) for u in range(1, 5) for v in range(u + 1, 5)))

GATED = {
    # name: (operation taking a budget, the C(n,k) it builds)
    "build_system": (lambda b: build_system(Hypergraph.from_edges(5, 2, [(1, 2)]), b), comb(5, 2)),
    "enumerate_hypergraphs": (lambda b: list(enumerate_hypergraphs(4, 2, b)), comb(4, 2)),
    "run_enumeration": (lambda b: run_enumeration(4, 2, "all", (), b), comb(4, 2)),
    "from_gf2_matrix": (lambda b: from_gf2_matrix(Gf2Matrix(2, 4, ((1, 0, 1, 1), (0, 1, 1, 0))), b), comb(4, 2)),
    "from_graph": (lambda b: from_graph(K4, b), comb(6, 3)),
    "build_adversary": (lambda b: build_adversary(2, b), comb(4, 2)),
}


@pytest.mark.parametrize("name", sorted(GATED))
def test_gate_boundary(name):
    operation, ksets = GATED[name]
    with pytest.raises(BudgetExceeded, match=rf"= {ksets} k-sets exceeds budget {ksets - 1}$"):
        operation(ksets - 1)
    operation(ksets)


def test_cover_masks_use_the_default_gate():
    # C(8,7) = 8 k-sets fit the enumeration cap of 24; the paving filter,
    # which covers C(8,6) = 28 (k-1)-sets, must not be held to it
    assert run_enumeration(8, 7, "paving").counts["total"] == 9


def test_monotone_gate_boundary():
    # the work is every ordered pair of s-sets, s = 1..r, plus each k-set
    # candidate _comparable walks for a distinct pair whose union has at most
    # r vertices; r = 3 > k = 2 also covers the pairs that walk nothing
    n, k, r = 6, 2, 3
    h = Hypergraph.from_edges(n, k, [(1, 2), (1, 3), (4, 5)])
    work = 0
    for s in range(1, r + 1):
        for r1, r2 in product(combinations(range(1, n + 1), s), repeat=2):
            work += 1
            rest = set(range(1, n + 1)) - set(r1) - set(r2)
            if r1 != r2 and n - len(rest) <= r and s <= k:
                work += sum(1 for _ in combinations(sorted(rest), k - s))
    with pytest.raises(BudgetExceeded, match=rf"^3-monotone scan on n=6, k=2 exceeds budget {work - 1}$"):
        is_r_monotone(h, r, work - 1)
    is_r_monotone(h, r, work)
