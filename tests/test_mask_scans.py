"""The law checks and matroid queries that scan vertex masks, each against a
set-based reference: the function as it was written on Python sets and
sorted tuples before it moved to masks. Results must be equal, witnesses,
quadruples, circuit order and violation text included, on every instance
of (4,2), (5,2), (5,3) and (6,2) and on a seeded n = 7..9 corpus. The
minors, loops and coloops, read off the same basis masks, are checked
beside them."""

import random
from itertools import combinations
from math import comb
from types import SimpleNamespace

import pytest

from sephyp import harness
from sephyp.errors import HasLoops, PreconditionViolated, RankCollapse, RankZero
from sephyp.harness import MaskTables
from sephyp.hypercore import (
    PROVEN,
    ExchangeWitness,
    Hypergraph,
    SummableQuadruple,
    find_summable_quadruple,
    is_exchangeable,
    is_r_monotone,
)
from sephyp.matroid import (
    BasisMatroid,
    Gf2Matrix,
    Graph,
    LineDecomposition,
    _lines_from_dependence,
    circuits,
    coloops,
    contract,
    delete,
    from_gf2_matrix,
    from_graph,
    fundamental_circuit,
    is_binary,
    is_independent,
    lines,
    loops,
)

EXHAUSTIVE_SHAPES = ((4, 2), (5, 2), (5, 3), (6, 2))
CORPUS_SEED = 11
# the run tables of a law check called outside a run: its circuit scan is gated on the instance
GATED_PER_INSTANCE = SimpleNamespace(law_budgets={"circuits": None})


# ---------------------------------------------------------------------------
# set-based references
# ---------------------------------------------------------------------------


def reference_is_exchangeable(h):
    edges = h.sorted_edges()
    for e1 in edges:
        s1 = set(e1)
        for e2 in edges:
            if e1 == e2:
                continue
            s2 = set(e2)
            only1 = sorted(s1 - s2)
            only2 = sorted(s2 - s1)
            for v1 in only1:
                base1 = s1 - {v1}
                for v2 in only2:
                    if tuple(sorted(base1 | {v2})) in h.edges:
                        continue
                    if tuple(sorted((s2 - {v2}) | {v1})) in h.edges:
                        continue
                    return ExchangeWitness(e1, e2, v1, v2)
    return None


def reference_find_summable_quadruple(h):
    edges = h.sorted_edges()
    non = h.non_edges()
    first_pair = {}
    for f1, f2 in combinations(non, 2):
        sig = (tuple(sorted(set(f1) & set(f2))), tuple(sorted(set(f1) | set(f2))))
        if sig not in first_pair:
            first_pair[sig] = (f1, f2)
    for e1, e2 in combinations(edges, 2):
        sig = (tuple(sorted(set(e1) & set(e2))), tuple(sorted(set(e1) | set(e2))))
        hit = first_pair.get(sig)
        if hit is not None:
            return SummableQuadruple(e1, e2, hit[0], hit[1])
    return None


def reference_comparable(h, r1, r2):
    rest = sorted(set(range(1, h.n + 1)) - set(r1) - set(r2))
    ssize = h.k - len(r1)
    if ssize < 0 or ssize > len(rest):
        return True
    le12 = le21 = True
    set1, set2 = set(r1), set(r2)
    for s in combinations(rest, ssize):
        in1 = tuple(sorted(set(s) | set1)) in h.edges
        in2 = tuple(sorted(set(s) | set2)) in h.edges
        if in1 and not in2:
            le12 = False
        if in2 and not in1:
            le21 = False
        if not le12 and not le21:
            return False
    return True


def reference_is_r_monotone(h, r):
    verts = range(1, h.n + 1)
    for size in range(1, r + 1):
        for r1 in combinations(verts, size):
            for r2 in combinations(verts, size):
                if r1 == r2 or len(set(r1) | set(r2)) > r:
                    continue
                if not reference_comparable(h, r1, r2):
                    return False
    return True


def reference_is_independent(m, s):
    sub = frozenset(s)
    if len(sub) > m.k:
        return False
    return any(sub <= frozenset(b) for b in m.carrier.edges)


def reference_loops(m):
    covered = set()
    for b in m.carrier.edges:
        covered |= set(b)
    return frozenset(range(1, m.n + 1)) - covered


def reference_coloops(m):
    return frozenset(set.intersection(*(set(b) for b in m.carrier.edges)))


def reference_minor(m, v, new_k, kept):
    """The minor on the bases kept, renumbered densely, as (n, k, edges), or
    the error it raises."""
    if not 1 <= v <= m.n:
        return PreconditionViolated
    if new_k < 1 or new_k >= m.n - 1:
        return RankCollapse
    mapping = {w: (w if w < v else w - 1) for w in range(1, m.n + 1) if w != v}
    return m.n - 1, new_k, frozenset(tuple(sorted(mapping[w] for w in e)) for e in kept)


def reference_delete(m, v):
    bases = [frozenset(b) for b in m.carrier.edges]
    if v in reference_coloops(m):
        return reference_minor(m, v, m.k - 1, [b - {v} for b in bases])
    return reference_minor(m, v, m.k, [b for b in bases if v not in b])


def reference_contract(m, v):
    bases = [frozenset(b) for b in m.carrier.edges]
    if v in reference_loops(m):
        return reference_minor(m, v, m.k, bases)
    return reference_minor(m, v, m.k - 1, [b - {v} for b in bases if v in b])


def reference_circuits_within(m, ground):
    pool = sorted(ground)
    found = []
    found_sets = []
    for size in range(1, min(len(pool), m.k + 1) + 1):
        for cand in combinations(pool, size):
            cset = frozenset(cand)
            if any(c <= cset for c in found_sets):
                continue
            if not reference_is_independent(m, cset):
                found.append(cand)
                found_sets.append(cset)
    return found


def reference_circuits(m):
    return tuple(reference_circuits_within(m, range(1, m.n + 1)))


def reference_fundamental_circuit(m, e, v):
    return reference_circuits_within(m, set(e) | {v})


def reference_peel_into_circuits(remainder, circuit_sets):
    if not remainder:
        return True
    anchor = min(remainder)
    for c in circuit_sets:
        if anchor in c and c <= remainder:
            if reference_peel_into_circuits(remainder - c, circuit_sets):
                return True
    return False


def reference_is_binary(m):
    circ_sets = [frozenset(c) for c in reference_circuits(m)]
    for c1, c2 in combinations(circ_sets, 2):
        if not reference_peel_into_circuits(c1 ^ c2, circ_sets):
            return False
    return True


def reference_lines(m):
    dep = lambda u, v: not reference_is_independent(m, (u, v))
    parts = _lines_from_dependence(list(range(1, m.n + 1)), dep)
    return LineDecomposition(tuple(parts), sum(1 for p in parts if len(p) >= 2))


def reference_check_circuit_elimination(circ):
    """The check on circuits given as frozensets. It walks c1 & c2 and
    c1 - c2 in set order, which is ascending for vertices below 8."""
    for c1 in circ:
        for c2 in circ:
            if c1 == c2:
                continue
            for v in c1 & c2:
                for u in c1 - c2:
                    pool = (c1 | c2) - {v}
                    if not any(u in c and c <= pool for c in circ):
                        return f"no circuit with {u} inside {sorted(pool)}"
    return None


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------


def exhaustive_hypergraphs():
    for n, k in EXHAUSTIVE_SHAPES:
        tables = MaskTables(n, k)
        for mask in range(1 << tables.m):
            yield tables.hypergraph(mask)


def exhaustive_matroids():
    for n, k in EXHAUSTIVE_SHAPES:
        tables = MaskTables(n, k)
        for mask in harness._matroid_masks(n, k):
            yield BasisMatroid(tables.hypergraph(mask))


def random_hypergraphs():
    """Seeded random edge sets on 7 to 9 vertices, of several densities."""
    rng = random.Random(CORPUS_SEED)
    for _ in range(40):
        n = rng.randint(7, 9)
        k = rng.randint(2, min(4, n - 2))
        density = rng.choice((0.1, 0.3, 0.6, 0.9))
        yield Hypergraph.from_edges(n, k, [g for g in combinations(range(1, n + 1), k) if rng.random() < density])


def random_matroids():
    """Seeded GF(2) and graphic matroids on 7 to 9 elements."""
    rng = random.Random(CORPUS_SEED)
    while True:
        n = rng.randint(7, 9)
        bits = tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(rng.randint(2, 4)))
        try:
            m, _ = from_gf2_matrix(Gf2Matrix(len(bits), n, bits))
        except RankZero:
            continue
        if m is not None:
            yield m
        vertices = rng.randint(3, 5)
        edges = tuple((rng.randint(1, vertices), rng.randint(1, vertices)) for _ in range(n))
        try:
            yield from_graph(Graph(vertices, edges))
        except RankCollapse:
            continue  # rank 0 or k = n


def corpus_matroids():
    yield from exhaustive_matroids()
    for _, m in zip(range(40), random_matroids()):
        yield m


# ---------------------------------------------------------------------------
# law checks on hypergraphs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("corpus", [exhaustive_hypergraphs, random_hypergraphs], ids=["exhaustive", "random"])
def test_hypergraph_scans_match_reference(corpus):
    # the quadruple and 2-monotone scans run twice: on tables built from the
    # instance, and on the tables a run builds once from every k-set, with
    # the budget its bounds prove
    runs = {}
    seen = set()
    for h in corpus():
        if (h.n, h.k) not in runs:
            runs[h.n, h.k] = MaskTables(h.n, h.k, 2 ** comb(h.n, h.k))
            assert runs[h.n, h.k].law_budgets["quadruple"] is runs[h.n, h.k].law_budgets["monotone"] is PROVEN
        run = runs[h.n, h.k]
        witness = is_exchangeable(h)
        assert witness == reference_is_exchangeable(h), h
        quad = find_summable_quadruple(h)
        assert quad == reference_find_summable_quadruple(h), h
        assert find_summable_quadruple(h, PROVEN, run.quadruple_table) == quad, h
        monotone = is_r_monotone(h, 2)
        assert monotone == reference_is_r_monotone(h, 2), h
        assert is_r_monotone(h, 2, PROVEN, run.monotone_table) == monotone, h
        seen.add((witness is None, quad is None, monotone))
    # both answers of each scan turn up: exchangeable with a quadruple and
    # not 2-monotone, and neither exchangeable nor summable but 2-monotone
    assert {(False, False, False), (True, True, True)} <= seen


@pytest.mark.parametrize("n, k", [(4, 2), (5, 3)])
def test_r_monotone_matches_reference_for_every_r(n, k):
    tables = MaskTables(n, k)
    outcomes = {r: set() for r in range(1, n + 1)}
    for mask in range(1 << tables.m):
        h = tables.hypergraph(mask)
        for r in range(1, n + 1):
            result = is_r_monotone(h, r)
            assert result == reference_is_r_monotone(h, r), (h, r)
            outcomes[r].add(result)
    assert all(outcomes[r] == {False, True} for r in range(2, n + 1))


# ---------------------------------------------------------------------------
# matroid queries
# ---------------------------------------------------------------------------


def test_matroid_queries_match_reference():
    binary = set()
    for m in corpus_matroids():
        for size in range(m.n + 1):
            for s in combinations(range(1, m.n + 1), size):
                assert is_independent(m, s) == reference_is_independent(m, s), (m, s)
        assert circuits(m) == reference_circuits(m), m
        binary.add(is_binary(m))
        assert is_binary(m) == reference_is_binary(m), m
        for e in m.carrier.sorted_edges():
            for v in sorted(set(range(1, m.n + 1)) - set(e)):
                assert [fundamental_circuit(m, e, v).elements] == reference_fundamental_circuit(m, e, v), (m, e, v)
        if loops(m):
            with pytest.raises(HasLoops):
                lines(m)
        else:
            assert lines(m) == reference_lines(m), m
        instance = SimpleNamespace(matroid=m, tables=GATED_PER_INSTANCE)
        assert not list(harness.LAW_CHECKS["circuit_elimination"](instance))
        assert (loops(m), coloops(m)) == (reference_loops(m), reference_coloops(m)), m
        for v in range(0, m.n + 2):
            for minor, reference in ((delete, reference_delete), (contract, reference_contract)):
                try:
                    got, _ = minor(m, v)
                    got = (got.n, got.k, got.carrier.edges)
                except (PreconditionViolated, RankCollapse) as exc:
                    got = type(exc)
                assert got == reference(m, v), (m, v, minor)
    assert binary == {False, True}


def test_independence_outside_the_ground_set():
    # recorded on the set-based version: a vertex outside 1..n is in no basis
    m = BasisMatroid(Hypergraph.from_edges(4, 2, combinations(range(1, 5), 2)))
    for s in ((0,), (-1,), (5,), (1, 0), (2, -1), (3, 5), (0, 5), ()):
        assert is_independent(m, s) == (s == ()), s


@pytest.mark.parametrize("v", [0, -1, 5])
def test_fundamental_circuit_outside_the_ground_set(v):
    m = BasisMatroid(Hypergraph.from_edges(4, 2, combinations(range(1, 5), 2)))
    with pytest.raises(PreconditionViolated, match=f"vertex {v} outside 1..4"):
        fundamental_circuit(m, (1, 2), v)


def test_circuit_elimination_text_matches_reference(monkeypatch):
    # real matroids never fail the law, so random families of sets on seven
    # vertices stand in for their circuits; the first violation and its
    # text must be the reference's
    rng = random.Random(CORPUS_SEED)
    m = BasisMatroid(Hypergraph.from_edges(7, 2, combinations(range(1, 8), 2)))
    instance = SimpleNamespace(matroid=m, tables=GATED_PER_INSTANCE)
    outcomes = set()
    for _ in range(300):
        family = sorted({frozenset(rng.sample(range(1, 8), rng.randint(1, 4))) for _ in range(rng.randint(1, 8))},
                        key=lambda c: (len(c), sorted(c)))
        masks = [sum(1 << v for v in c) for c in family]
        monkeypatch.setattr(harness, "_circuit_masks", lambda _, budget, masks=masks: masks)
        problem = next(harness.LAW_CHECKS["circuit_elimination"](instance), None)
        assert problem == reference_check_circuit_elimination(family), family
        outcomes.add(problem is None)
    assert outcomes == {False, True}


# ---------------------------------------------------------------------------
# circuits as fundamental circuits of the bases
# ---------------------------------------------------------------------------


def reference_circuit_scan(m):
    """Circuits by the subset scan they were found with before they were read
    off single basis exchanges: every subset of at most k+1 elements, by size
    then lex, kept when dependent and free of a smaller circuit."""
    found = []
    for size in range(1, min(m.n, m.k + 1) + 1):
        for cand in combinations([1 << v for v in range(1, m.n + 1)], size):
            c = sum(cand)
            if any(f & c == f for f in found):
                continue
            if not (size <= m.k and any(c & b == c for b in m.carrier.edge_masks())):
                found.append(c)
    return tuple(tuple(v for v in range(1, m.n + 1) if c >> v & 1) for c in found)


def reference_peel_masks(remainder, circuit_masks):
    """The peel is_binary ran before the GF(2) rank test: a backtracking
    partition of the vertex mask remainder into disjoint circuits."""
    if not remainder:
        return True
    anchor = remainder & -remainder
    return any(c & anchor and c & remainder == c and reference_peel_masks(remainder ^ c, circuit_masks)
               for c in circuit_masks)


@pytest.mark.parametrize("n, k, count", [(6, 3, 2053), (6, 4, 813)])
def test_circuits_match_the_subset_scan(n, k, count):
    # is_binary, a GF(2) rank, is checked against the peel on the same circuits:
    # binary iff every symmetric difference of two circuits splits into circuits
    tables = MaskTables(n, k)
    seen, binary = 0, set()
    for mask in harness._matroid_masks(n, k):
        m = BasisMatroid(tables.hypergraph(mask))
        circ = circuits(m)
        assert circ == reference_circuit_scan(m), m
        masks = [sum(1 << v for v in c) for c in circ]
        peeled = all(reference_peel_masks(c1 ^ c2, masks) for c1, c2 in combinations(masks, 2))
        assert is_binary(m) == peeled, m
        binary.add(peeled)
        seen += 1
    assert seen == count
    assert binary == {False, True}


def test_circuits_are_the_minimal_dependent_sets():
    # the definition, checked with no scan of the old code: each circuit is
    # dependent, each circuit less one element is independent, and every
    # dependent set of at most k+1 elements holds a circuit
    for _, m in zip(range(40), random_matroids()):
        circ = circuits(m)
        for c in circ:
            assert not is_independent(m, c), (m, c)
            assert all(is_independent(m, c[:i] + c[i + 1:]) for i in range(len(c))), (m, c)
        for size in range(1, m.k + 2):
            for s in combinations(range(1, m.n + 1), size):
                if not is_independent(m, s):
                    assert any(set(c) <= set(s) for c in circ), (m, s)
