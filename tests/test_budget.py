"""Budget gates at their boundary. Each gated operation refuses one unit
below the work it counts and runs at exactly that work: the k-sets the C(n,k)
universe holds, the 2^C(n,k) instances an enumeration walks, the |B|·k·(n-k)
basis lookups behind circuits and is_binary, the pairs the summable-quadruple
scan walks, the edge pairs times swaps of the exchange scan, the ordered basis
pairs of the basis-exchange check, the element pairs times bases lines scans,
the combinations the certificate search walks, the n vertices loops,
graph_orderable and a minor's vertex mapping list, the r-monotone scan's
pairs and lookups, the permutations times k-sets of the harness's orbit
tables, the 64-bit words of decide's packed tableau and price rows, and
decide_fm's vertices and rows per elimination stage. The capped binomial
behind them is checked against math.comb, and the gate's message is shown to
be formatted only on a refusal."""

import ast
import tokenize
from itertools import combinations, product
from math import comb, factorial
from pathlib import Path
from string import Formatter

import pytest

import sephyp
from sephyp import feasibility
from sephyp.errors import BudgetExceeded
from sephyp.feasibility import _field_width, build_system, decide, decide_fm, find_binary_certificate
from sephyp.harness import _orbit_tables, enumerate_hypergraphs, run_enumeration
from sephyp.hypercore import (
    PROVEN,
    Hypergraph,
    capped_comb,
    check_budget,
    find_summable_quadruple,
    graph_orderable,
    is_exchangeable,
    is_r_monotone,
)
from sephyp.matroid import (BasisMatroid, Gf2Matrix, Graph, circuits, delete, exchange_violation, from_gf2_matrix,
                            from_graph, is_binary, lines, loops)
from sephyp.oracle_algorithms import build_adversary

# few bases, so that the constructors' basis-exchange gate, which counts
# |B|^2 basis pairs at the same budget, admits what their k-set gate does:
# columns 1 and 2 parallel, 4 a loop, bases {1,3} and {2,3}
GF2_TWO_BASES = Gf2Matrix(2, 4, ((1, 1, 0, 0), (0, 0, 1, 0)))
# a path of three edges with the first doubled, spanning trees {1,3,4} and {2,3,4}
DOUBLED_PATH = Graph(4, ((1, 2), (1, 2), (2, 3), (3, 4)))
# 3 edges and 7 non-edges
SMALL = Hypergraph.from_edges(5, 2, [(1, 2), (1, 3), (3, 4)])
U24 = BasisMatroid(Hypergraph.from_edges(4, 2, combinations(range(1, 5), 2)))
TWO_POINTS = BasisMatroid(Hypergraph.from_edges(4, 1, [(1,), (2,)]))


GATED = {
    # name: (operation taking a budget, the work it counts, the refusal message before "exceeds budget")
    "build_system": (lambda b: build_system(SMALL, b), comb(5, 2), f"= {comb(5, 2)} k-sets"),
    "enumerate_hypergraphs": (lambda b: list(enumerate_hypergraphs(4, 2, b)), 2 ** comb(4, 2),
                              r"^2\^C\(4,2\) instances"),
    "run_enumeration": (lambda b: run_enumeration(4, 2, "all", (), b), 2 ** comb(4, 2), r"^2\^C\(4,2\) instances"),
    # one k-set table per vertex permutation
    "orbit_tables": (lambda b: _orbit_tables(4, 2, b), factorial(4) * comb(4, 2),
                     r"^orbit tables of 4! permutations of C\(4,2\) k-sets"),
    "from_gf2_matrix": (lambda b: from_gf2_matrix(GF2_TWO_BASES, b), comb(4, 2), f"= {comb(4, 2)} k-sets"),
    "from_graph": (lambda b: from_graph(DOUBLED_PATH, b), comb(4, 3), f"= {comb(4, 3)} k-sets"),
    # the complete h1 has C(4,2) bases, so its exchange check binds before
    # its k-set gate can admit anything; test_adversary_kset_gate covers that
    "build_adversary": (lambda b: build_adversary(2, b), comb(4, 2) ** 2,
                        rf"^basis exchange scan of {comb(4, 2)} bases"),
    # ordered basis pairs, the equal ones included
    "exchange_violation": (lambda b: exchange_violation(SMALL, b), 3 ** 2, r"^basis exchange scan of 3 bases"),
    # C(4,2) element pairs, each tested against the 6 bases
    "lines": (lambda b: lines(U24, b), comb(4, 2) * 6, r"^line scan of 4 elements and 6 bases"),
    # each of the 6 bases looked up with each of its 2 elements swapped for each of the 2 outside it
    "circuits": (lambda b: circuits(U24, b), 6 * 2 * 2, r"^circuit scan of 6 bases on 4 elements"),
    "is_binary": (lambda b: is_binary(U24, b), 6 * 2 * 2, r"^circuit scan of 6 bases on 4 elements"),
    "loops": (lambda b: loops(U24, b), 4, r"^loops among 4 vertices"),
    # bases {1} and {2} on 4 elements: deleting 1 lists a mapping of all 4
    "delete": (lambda b: delete(TWO_POINTS, 1, b), 4, r"^deletion mapping of 4 vertices"),
    "graph_orderable": (lambda b: graph_orderable(SMALL, b), 5, r"^ordering 5 vertices"),
    "find_summable_quadruple": (lambda b: find_summable_quadruple(SMALL, b), comb(7, 2) + comb(3, 2),
                                r"^summable-quadruple scan of 3 edges and 7 non-edges"),
    # ordered edge pairs, the equal ones included, times k^2 swaps
    "is_exchangeable": (lambda b: is_exchangeable(SMALL, b), 3 ** 2 * 2 ** 2, r"^exchange scan of 3 edges"),
    # one 64-bit word for the mask of (1, 2) and four for that of (64, 199), as 199 >> 6 = 3
    "edge_masks": (lambda b: Hypergraph.from_edges(200, 2, [(1, 2), (64, 199)]).edge_masks(b), 1 + 4,
                   r"^vertex masks of 2 edges in >= 5 64-bit words"),
    # support sizes 2t for t <= min(6, 3 edges, 7 non-edges) only
    "find_binary_certificate": (lambda b: find_binary_certificate(SMALL, 12, b),
                                sum(comb(3, t) + comb(7, t) for t in range(1, 4)),
                                r"^certificate search of 3 edges and 7 non-edges up to support 12"),
}


@pytest.mark.parametrize("name", sorted(GATED))
def test_gate_boundary(name):
    operation, work, message = GATED[name]
    with pytest.raises(BudgetExceeded, match=rf"{message} exceeds budget {work - 1}$"):
        operation(work - 1)
    operation(work)


def test_adversary_kset_gate():
    # the k-set universe is refused before any basis pair is counted
    with pytest.raises(BudgetExceeded, match=r"^C\(4,2\) >= 6 k-sets exceeds budget 5$"):
        build_adversary(2, 5)


@pytest.mark.parametrize("operation", [
    lambda h, b: h.non_edges(b),
    lambda h, b: find_summable_quadruple(h, b),
    lambda h, b: find_binary_certificate(h, 4, b),
], ids=["non_edges", "find_summable_quadruple", "find_binary_certificate"])
def test_non_edges_gated_at_the_callers_budget(operation):
    # C(21,9) = 293930 k-sets: past 250000, the budget the caller passes,
    # which the k-set gate behind the non-edges must be held to
    h = Hypergraph(21, 9, frozenset())
    with pytest.raises(BudgetExceeded, match=r"^C\(21,9\) >= 250001 k-sets exceeds budget 250000$"):
        operation(h, 250_000)


def test_packed_state_gate_boundary(monkeypatch):
    # SMALL has n = 5 and C(5,2) = 10 columns: 6 price rows of 10 one-byte
    # fields, 2 words each, and 7 tableau columns (d B^-1 and the rhs) of 6
    # fields of _field_width(5, 2) bits. The caller's budget caps only the
    # k-sets, so even an unlimited one leaves this gate at its own cap.
    work = 6 * 2 + 7 * -(-6 * _field_width(5, 2) // 64)
    monkeypatch.setattr(feasibility, "_column_index", {})
    monkeypatch.setattr(feasibility, "PACKED_WORD_BUDGET", work - 1)
    with pytest.raises(BudgetExceeded,
                       match=rf"^packed simplex state of C\(5,2\) columns in >= {work} 64-bit words exceeds budget "
                             rf"{work - 1}$"):
        decide(SMALL, 10 ** 100)
    assert not feasibility._column_index
    monkeypatch.setattr(feasibility, "PACKED_WORD_BUDGET", work)
    assert decide(SMALL).kind == "equatable"


def test_proven_skips_the_gate():
    # PROVEN is a caller's proof that the count is within the cap: the gate
    # neither counts the work nor refuses, even at a cap of 0
    def work(cap):
        raise AssertionError("work counted under PROVEN")

    assert check_budget(PROVEN, 0, work, "unreachable {count}") is None


def test_message_formatted_only_on_refusal():
    # what is a template filled in with args and {count} just before the
    # refusal is raised: under PROVEN, or within the cap, it is never formatted
    def work(cap):
        raise AssertionError("work counted under PROVEN")

    assert check_budget(PROVEN, 0, work, "{missing} {5}", "arg") is None
    assert check_budget(None, 4, lambda cap: [2, 2], "{missing} {5}", "arg") is None
    with pytest.raises(BudgetExceeded, match=r"^scan of 2 sets in >= 5 steps exceeds budget 4$"):
        check_budget(4, 0, lambda cap: [2, 3, 9], "scan of {} sets in >= {count} steps", 2)


def test_no_gate_formats_its_message_before_the_check():
    # an f-string passed as what would be built on every call, refused or not;
    # a literal template fills its args in order, with {} fields and {count}
    calls = 0
    for path in sorted(Path(sephyp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_budget":
                calls += 1
                what = node.args[3]
                assert not any(isinstance(n, ast.JoinedStr) for n in ast.walk(what)), (path.name, node.lineno)
                if isinstance(what, ast.Constant):
                    fields = {field for _, field, _, _ in Formatter().parse(what.value) if field is not None}
                    assert fields <= {"", "count"}, (path.name, node.lineno)
    assert calls >= 18


def test_fm_vertex_gate_boundary():
    # decide_fm admits FM_VERTEX_BUDGET = 6 vertices; it takes no budget, so no caller moves the cap
    assert decide_fm(Hypergraph.from_edges(6, 2, [(1, 2)])).kind == "separable"
    with pytest.raises(BudgetExceeded, match=r"^Fourier-Motzkin elimination on 7 vertices exceeds budget 6$"):
        decide_fm(Hypergraph.from_edges(7, 2, [(1, 2)]))


def test_fm_row_gate_boundary(monkeypatch, sep_six):
    # separable_six's elimination stages hold 20, 26, 37, 70, 43, 2 and 0 rows
    monkeypatch.setattr(feasibility, "FM_ROW_BUDGET", 69)
    with pytest.raises(BudgetExceeded, match=r"^Fourier-Motzkin stage of 70 rows exceeds budget 69$"):
        decide_fm(sep_six)
    monkeypatch.setattr(feasibility, "FM_ROW_BUDGET", 70)
    assert decide_fm(sep_six).kind == "separable"


def test_only_the_gate_and_the_harness_name_proven():
    # the one budget gate reads PROVEN and the harness, whose law checks it
    # proves, passes it; every other gated operation just passes its budget on
    named = set()
    for path in sorted(Path(sephyp.__file__).parent.glob("*.py")):
        with tokenize.open(path) as source:
            tokens = tokenize.generate_tokens(source.readline)
            if any(tok.type == tokenize.NAME and tok.string == "PROVEN" for tok in tokens):
                named.add(path.name)
    assert named == {"hypercore.py", "harness.py"}


def test_capped_comb_matches_comb():
    for n in range(41):
        for k in range(n + 2):
            for cap in (0, 1, 5, 19, 200_000, 4_000_000):
                assert capped_comb(n, k, cap) == min(comb(n, k), cap + 1), (n, k, cap)
    for n, k in ((-1, 2), (3, -1)):
        with pytest.raises(ValueError):
            capped_comb(n, k, 10)


def test_cover_masks_use_the_default_gate():
    # 2^C(8,7) = 256 instances fit the enumeration cap of 2^24; the paving
    # filter, which covers C(8,6) = 28 (k-1)-sets, must not be held to it
    assert run_enumeration(8, 7, "paving").counts["total"] == 9


def test_monotone_gate_boundary():
    # the work is every ordered pair of s-sets, s = 1..r-1, plus each k-set
    # candidate _comparable walks for a distinct pair whose union has at most
    # r vertices; r = 3 > k = 2 also covers the pairs that walk nothing
    n, k, r = 6, 2, 3
    h = Hypergraph.from_edges(n, k, [(1, 2), (1, 3), (4, 5)])
    work = 0
    for s in range(1, r):
        for r1, r2 in product(combinations(range(1, n + 1), s), repeat=2):
            work += 1
            rest = set(range(1, n + 1)) - set(r1) - set(r2)
            if r1 != r2 and n - len(rest) <= r and s <= k:
                work += sum(1 for _ in combinations(sorted(rest), k - s))
    with pytest.raises(BudgetExceeded, match=rf"^3-monotone scan on n=6, k=2 exceeds budget {work - 1}$"):
        is_r_monotone(h, r, work - 1)
    is_r_monotone(h, r, work)
