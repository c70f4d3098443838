"""Property tests for the structural laws, over random small instances."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from sephyp.feasibility import decide, decide_fm, verify_equatable, verify_separating
from sephyp.hypercore import (
    Hypergraph,
    all_ksets,
    complement,
    dual,
    find_summable_quadruple,
    graph_orderable,
    is_exchangeable,
    is_r_monotone,
    is_valid_exchange_witness,
    is_valid_graph_ordering,
    is_valid_summable_quadruple,
)
from sephyp.matroid import (
    Gf2Matrix,
    Graph,
    exchange_violation,
    from_gf2_matrix,
    from_graph,
    is_binary,
    oracle_from_matroid,
)
from sephyp.oracle_algorithms import decide_binary_via_oracle
from tests.test_feasibility import _list_tableau_decide

settings.register_profile("suite", deadline=None, max_examples=60, derandomize=True)
settings.load_profile("suite")


@st.composite
def hypergraphs(draw, min_n=3, max_n=7, min_k=1, max_k=3):
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(min_k, min(max_k, n - min_k)))
    pool = all_ksets(n, k)
    edges = draw(st.sets(st.sampled_from(pool)))
    return Hypergraph(n, k, frozenset(edges))


@st.composite
def graphs2(draw, max_n=6):
    n = draw(st.integers(3, max_n))
    pool = all_ksets(n, 2)
    edges = draw(st.sets(st.sampled_from(pool)))
    return Hypergraph(n, 2, frozenset(edges))


@st.composite
def gf2_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(2, 7))
    bits = tuple(
        tuple(draw(st.integers(0, 1)) for _ in range(cols)) for _ in range(rows)
    )
    return Gf2Matrix(rows, cols, bits)


@st.composite
def multigraphs(draw):
    vertices = draw(st.integers(2, 4))
    count = draw(st.integers(1, 6))
    edges = tuple(
        (draw(st.integers(1, vertices)), draw(st.integers(1, vertices)))
        for _ in range(count)
    )
    return Graph(vertices, edges)


@given(hypergraphs())
def test_complement_and_dual_are_involutions(h):
    assert complement(complement(h)) == h
    assert dual(dual(h)) == h


@given(hypergraphs())
def test_exchangeability_invariant_under_complement_and_dual(h):
    base = is_exchangeable(h) is not None
    assert (is_exchangeable(complement(h)) is not None) == base
    assert (is_exchangeable(dual(h)) is not None) == base


@given(hypergraphs())
def test_witnesses_satisfy_their_invariants(h):
    w = is_exchangeable(h)
    if w is not None:
        assert is_valid_exchange_witness(h, w)
    q = find_summable_quadruple(h)
    if q is not None:
        assert is_valid_summable_quadruple(h, q)


@given(hypergraphs())
def test_exchange_witness_induces_quadruple_and_equatability(h):
    w = is_exchangeable(h)
    if w is None:
        return
    q = find_summable_quadruple(h)
    assert q is not None
    explicit = {g: Fraction(1) for g in (q.e1, q.e2, q.f1, q.f2)}
    assert verify_equatable(h, explicit)
    assert decide(h).kind == "equatable"


@given(hypergraphs(max_n=6))
def test_two_monotone_iff_not_exchangeable(h):
    assert is_r_monotone(h, 2) == (is_exchangeable(h) is None)


@given(hypergraphs())
def test_decision_certificate_passes_its_verifier(h):
    cert = decide(h)
    if cert.kind == "separable":
        assert verify_separating(h, cert.x)
    else:
        assert verify_equatable(h, cert.as_dict())


@given(hypergraphs(min_n=4, max_n=8, min_k=2, max_k=6))
def test_block_pricing_agrees_with_list_tableau(h):
    assert decide(h) == _list_tableau_decide(h)[0]


@given(hypergraphs(max_n=5))
def test_fourier_motzkin_agrees_with_simplex(h):
    assert decide_fm(h).kind == decide(h).kind


@given(hypergraphs(max_n=6))
def test_dual_certificate_transport(h):
    cert = decide(h)
    if cert.kind != "equatable":
        return
    universe = set(range(1, h.n + 1))
    transported = {tuple(sorted(universe - set(g))): v for g, v in cert.y}
    assert verify_equatable(dual(h), transported)


@given(hypergraphs())
def test_equatable_mass_balances_in_aggregate(h):
    cert = decide(h)
    if cert.kind != "equatable":
        return
    y = cert.as_dict()
    edge_mass = sum((v for g, v in y.items() if g in h.edges), Fraction(0))
    non_mass = sum((v for g, v in y.items() if g not in h.edges), Fraction(0))
    assert edge_mass == non_mass > 0


@given(graphs2())
def test_graphs_orderable_iff_separable(h):
    ordering = graph_orderable(h)
    separable = decide(h).kind == "separable"
    assert (ordering is not None) == separable
    if ordering is not None:
        assert is_valid_graph_ordering(h, ordering)


@given(gf2_matrices())
def test_gf2_construction_yields_binary_matroids(mat):
    try:
        m, oracle = from_gf2_matrix(mat)
    except Exception:
        return  # rank zero
    if m is None:
        return
    assert m.carrier.edges and exchange_violation(m.carrier) is None
    assert is_binary(m)
    decision = decide_binary_via_oracle(m.n, m.k, oracle)
    assert decision.verdict == decide(m.carrier).kind


@given(multigraphs())
def test_graphic_construction_yields_binary_matroids(graph):
    try:
        m = from_graph(graph)
    except Exception:
        return  # rank collapse
    assert m.carrier.edges and exchange_violation(m.carrier) is None
    assert is_binary(m)
    decision = decide_binary_via_oracle(m.n, m.k, oracle_from_matroid(m))
    assert decision.verdict == decide(m.carrier).kind
