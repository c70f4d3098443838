"""Matroid layer: basis-exchange checking, minors, circuits, lines, and
constructors from GF(2) matrices and multigraphs.

A matroid is carried as a Hypergraph whose edges are the bases. Everything
is computed from first principles at small scale (an exact basis-exchange
scan over per-element basis bitsets, circuits read off single basis
exchanges); independence oracles wrap a query function with a deterministic
cache and an ordered trace.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import combinations
from operator import and_, or_
from typing import Callable, Iterable, Optional

from .errors import (
    BudgetExceeded,
    FormatError,
    HasLoops,
    NotAMatroid,
    PreconditionViolated,
    RankCollapse,
    RankZero,
)
from .hypercore import (PAIR_SCAN_BUDGET, VERTEX_LIST_BUDGET, Gf2Matrix, Graph, Hypergraph, KSet, _mask_kset,
                        _vertex_mask, all_ksets, capped_comb, check_budget, record)


def _mask_exchange_violation(sets: list[int]) -> Optional[tuple[int, int, int]]:
    """First (s1, s2, v1), in list order and then ascending v1, such that no
    v2 in s2 - s1 makes s1 - v1 + v2 one of the sets; or None.

    The sets are distinct vertex masks (see _vertex_mask). This is the one
    basis-exchange loop: exchange_violation and the harness mask filter call it.

    Each set s1 is scanned element by element, and the scan returns what
    the pair loop over (s1, s2), then v1, would. has[v] is the bitset of the
    list positions of the sets holding v. Fix s1 and v1 in s1, and let N be
    the v2 outside s1 with s1 - v1 + v2 a set; a v2 in no set makes no set,
    so only the union of the sets is looked up. s2 fails at v1 iff v1 is not
    in s2 and no v2 in s2 - s1 is in N; as N misses s1, iff s2 meets neither
    v1 nor N, iff its position is outside reach, the OR of has[v] over v1
    and N. s1 itself never fails, as it holds v1. The pair loop returns the
    first s1 with a failing s2, the first such s2, and the least v1 failing
    there: so, the first s1 with a position outside some reach, the lowest
    such position, and the least v1 whose reach misses it. Once some v1
    fails at a position, a later v1 can only win below it, so a later v1
    whose has[v1] already holds every position below makes no lookup.

    Work, for |B| sets of k of the n vertices in their union: |B|·k updates
    build has, then each set and element makes at most n - k lookups and as
    many ORs of |B|-bit ints. At most |B|·k·(n-k) lookups in all.
    """
    present = set(sets)
    has = [0] * max(sets, default=0).bit_length()
    bit = 1
    for s in sets:
        for v in _mask_kset(s):
            has[v] |= bit
        bit <<= 1
    union = [(1 << v, positions) for v, positions in enumerate(has) if positions]
    for s1 in sets:
        outside = [(b, positions) for b, positions in union if not s1 & b]
        need, first = bit - 1, None  # the positions a v1 can still win at: all, then those below the first failure
        for v1 in _mask_kset(s1):
            reach = has[v1]
            if reach & need != need:
                base = s1 ^ 1 << v1
                for b, positions in outside:
                    if base | b in present:
                        reach |= positions
                miss = need & ~reach
                if miss:
                    need, first = (miss & -miss) - 1, v1
        if first is not None:
            return s1, sets[need.bit_length()], first
    return None


def _mask_is_paving(sets: Iterable[int], n: int, k: int) -> bool:
    """Whether the (k-1)-subsets of the k-sets in sets (vertex masks) are all
    C(n, k-1) of them. Takes O(len(sets) * k) set operations.
    """
    covered = {s ^ 1 << v for s in sets for v in _mask_kset(s)}
    return len(covered) == capped_comb(n, k - 1, len(covered))


def exchange_violation(h: Hypergraph, budget: Optional[int] = None) -> Optional[tuple[KSet, KSet, int]]:
    """Lexicographically first (E1, E2, v1) with no valid exchange, or None.
    The |B|^2 ordered basis pairs are gated first (PAIR_SCAN_BUDGET when None):
    the unit of the pair loop over every basis that _mask_exchange_violation
    replaced, kept so every refusal stays the same, although it makes at most
    |B|·k·(n-k) lookups."""
    check_budget(budget, PAIR_SCAN_BUDGET, lambda cap: [len(h.edges) ** 2],
                 "basis exchange scan of {} bases", len(h.edges))
    bad = _mask_exchange_violation(h.edge_masks(budget))
    return None if bad is None else (_mask_kset(bad[0]), _mask_kset(bad[1]), bad[2])


@record
class BasisMatroid:
    """A hypergraph whose edges are the bases of a rank-k matroid; the
    exchange check is gated at budget (see exchange_violation)."""

    carrier: Hypergraph

    def __init__(self, carrier: Hypergraph, budget: Optional[int] = None) -> None:
        object.__setattr__(self, "carrier", carrier)
        self.__post_init__(budget)

    def __post_init__(self, budget: Optional[int]) -> None:
        if not self.carrier.edges:
            raise NotAMatroid("matroid requires a nonempty basis set")
        bad = exchange_violation(self.carrier, budget)
        if bad is not None:
            raise NotAMatroid(f"basis exchange fails at (E1={bad[0]}, E2={bad[1]}, v1={bad[2]})")

    @property
    def n(self) -> int:
        return self.carrier.n

    @property
    def k(self) -> int:
        return self.carrier.k

    @cached_property
    def _covered(self) -> int:  # the union of the basis masks: the vertices in some basis
        return reduce(or_, self.carrier.edge_masks())

    @cached_property
    def _circuits(self) -> tuple[int, ...]:
        """Every circuit as a vertex mask, ascending by size then lex: each C(e, B) for a basis B and e outside it.
        x is in C(e, B) iff B - x + e is independent: it breaks the one circuit in B + e iff x is on it.
        Every circuit C is C(e, B) for e in C and any basis B containing C - e: B avoids e as C is dependent."""
        present, ground = set(self.carrier.edge_masks()), (1 << self.n + 1) - 2
        found = {_fundamental_mask(present, b, 1 << e) for b in present for e in _mask_kset(ground & ~b)}
        return tuple(sorted(found, key=lambda c: (c.bit_count(), _mask_kset(c))))


def _fundamental_mask(present: set[int], b: int, e: int) -> int:
    """C(e, b): bit e and each bit x of the basis mask b with b - x + e in present."""
    c, rest = e, b
    while rest:
        x = rest & -rest
        if (b ^ x | e) in present:
            c |= x
        rest ^= x
    return c


@record
class LineDecomposition:
    """Partition of the ground set into lines (maximal pairwise-dependent
    classes of a loopless matroid)."""

    lines: tuple[KSet, ...]
    nontrivial_count: int


class IndependenceOracle:
    """Black-box independence interface with a deterministic cache.

    Repeated queries are answered from the cache and do not grow the trace;
    the query count is the number of distinct subsets asked about. With
    max_queries set, a new subset asked once that many are used raises
    BudgetExceeded.
    """

    def __init__(self, fn: Callable[[KSet], bool], max_queries: Optional[int] = None):
        self._fn = fn
        self._cache: dict[KSet, bool] = {}
        self.trace: list[tuple[KSet, bool]] = []
        self.max_queries = max_queries

    def query(self, subset: Iterable[int]) -> bool:
        key = tuple(sorted(subset))
        if key in self._cache:
            return self._cache[key]
        if self.max_queries is not None and len(self.trace) >= self.max_queries:
            raise BudgetExceeded(f"query budget {self.max_queries} exhausted")
        answer = bool(self._fn(key))
        self._cache[key] = answer
        self.trace.append((key, answer))
        return answer

    @property
    def queries_used(self) -> int:
        return len(self.trace)


def is_independent(m: BasisMatroid, s: Iterable[int]) -> bool:
    """Whether s lies in some basis of m."""
    return _in_some_edge(m.carrier, m._covered, s)


def _in_some_edge(h: Hypergraph, covered: int, s: Iterable[int]) -> bool:
    """Whether s lies in some edge of h. Each vertex is first looked up in covered, the union of the edge masks,
    so s's mask, built after, is never wider than an edge mask. Reads no BasisMatroid, so needs none checked."""
    vertices = tuple(s)
    if not all(0 < v and covered >> v & 1 for v in vertices):
        return False
    mask = _vertex_mask(vertices)
    return mask.bit_count() <= h.k and any(mask & b == mask for b in h.edge_masks())


def oracle_from_matroid(m: BasisMatroid) -> IndependenceOracle:
    return IndependenceOracle(lambda s: is_independent(m, s))


def loops(m: BasisMatroid, budget: Optional[int] = None) -> frozenset[int]:
    """Vertices contained in no basis; the n vertices it sifts are gated first
    (VERTEX_LIST_BUDGET when None)."""
    check_budget(budget, VERTEX_LIST_BUDGET, lambda cap: [m.n], "loops among {} vertices", m.n)
    return frozenset(v for v in range(1, m.n + 1) if not m._covered >> v & 1)


def coloops(m: BasisMatroid) -> frozenset[int]:
    """Vertices contained in every basis."""
    return frozenset(_mask_kset(reduce(and_, m.carrier.edge_masks())))


def _minor(m: BasisMatroid, v: int, through: bool, what: str,
           budget: Optional[int] = None) -> tuple[BasisMatroid, dict[int, int]]:
    """The minor of rank k - through on the bases that contain v (through) or
    avoid it, less v, its ground set renumbered densely (indices above v
    shift down), and the old-to-new vertex mapping of n entries, gated first
    (VERTEX_LIST_BUDGET when budget is None); the minor's basis-exchange check
    is gated at budget too."""
    if not 1 <= v <= m.n:
        raise PreconditionViolated(f"vertex {v} outside 1..{m.n}")
    new_k = m.k - through
    if new_k < 1 or new_k >= m.n - 1:
        raise RankCollapse(f"{what} leaves k={new_k} on {m.n - 1} vertices")
    check_budget(budget, VERTEX_LIST_BUDGET, lambda cap: [m.n], "{} mapping of {} vertices", what, m.n)
    low = (1 << v) - 1
    kept = (b for b in m.carrier.edge_masks() if (b >> v & 1) == through)
    renamed = frozenset(_mask_kset((b & low) | (b >> 1 & ~low)) for b in kept)
    mapping = {w: (w if w < v else w - 1) for w in range(1, m.n + 1) if w != v}
    return BasisMatroid(Hypergraph(m.n - 1, new_k, renamed), budget), mapping


def delete(m: BasisMatroid, v: int, budget: Optional[int] = None) -> tuple[BasisMatroid, dict[int, int]]:
    """Deletion minor and the old-to-new vertex mapping; drops rank by one
    exactly when v is a coloop, whose deletion equals its contraction. The
    ground set is renumbered densely: indices above v shift down."""
    return _minor(m, v, v in coloops(m), "deletion", budget)


def contract(m: BasisMatroid, v: int) -> tuple[BasisMatroid, dict[int, int]]:
    """Contraction minor and its vertex mapping, renumbered as in delete;
    keeps rank exactly when v is a loop, whose contraction equals its
    deletion."""
    return _minor(m, v, v not in loops(m), "contraction")


def _circuit_masks(m: BasisMatroid, budget: Optional[int] = None) -> tuple[int, ...]:
    """All circuits as vertex masks, in the order of circuits. The |B|·k·(n-k)
    basis lookups are gated first (PAIR_SCAN_BUDGET when None)."""
    check_budget(budget, PAIR_SCAN_BUDGET, lambda cap: [len(m.carrier.edges) * m.k * (m.n - m.k)],
                 "circuit scan of {} bases on {} elements", len(m.carrier.edges), m.n)
    return m._circuits


def circuits(m: BasisMatroid, budget: Optional[int] = None) -> tuple[KSet, ...]:
    """All circuits, ascending by size then lex (none exceeds k+1 elements),
    gated as in _circuit_masks."""
    return tuple(map(_mask_kset, _circuit_masks(m, budget)))


def is_paving(m: BasisMatroid) -> bool:
    """Whether every (k-1)-subset of the ground set is independent."""
    return _mask_is_paving(m.carrier.edge_masks(), m.n, m.k)


def is_binary(m: BasisMatroid, budget: Optional[int] = None) -> bool:
    """Whether m is binary: whether its circuits span n - k dimensions over GF(2), gated as in _circuit_masks.
    By Tutte's parity theorem (Trans. AMS 88, 1958; Oxley, Matroid Theory, 2nd ed., Thm 9.1.2), M is binary iff
    every circuit meets every cocircuit evenly. Fix a basis B. The circuits C(e, B), e not in B, and cocircuits
    C*(x, B), x in B, are independent vectors, each holding its own e or x. C(e, B) meets C*(x, B) in {x, e}
    or nothing, as each holds both iff B - x + e is a basis, so their spans are orthogonal complements, of
    dimensions n - k and k: the circuits span at least n - k. If M is binary, every circuit is orthogonal to
    every C*(x, B), so lies in the span of the C(e, B). Conversely, a span of n - k dimensions is that of the
    C(e, B) for every B, so every circuit meets every C*(x, B) of every B evenly. These are all the cocircuits
    (BasisMatroid._circuits applied to the dual), so M is binary by the theorem.
    """
    return gf2_rank(_circuit_masks(m, budget)) == m.n - m.k


def _lines_from_dependence(elements: list[int], dependent: Callable[[int, int], bool]) -> list[KSet]:
    """Group elements into pairwise-dependent classes; raises NotAMatroid if
    the dependence relation is not transitive on this instance."""
    lines: list[list[int]] = []
    for v in elements:
        for line in lines:
            if dependent(line[0], v):
                line.append(v)
                break
        else:
            lines.append([v])
    for line in lines:
        for u, v in combinations(line, 2):
            if not dependent(u, v):
                raise NotAMatroid(f"pairwise dependence not transitive at ({u},{v})")
    for a, b in combinations(range(len(lines)), 2):
        for u in lines[a]:
            for v in lines[b]:
                if dependent(u, v):
                    raise NotAMatroid(f"dependence links distinct lines at ({u},{v})")
    return [tuple(line) for line in lines]


def lines(m: BasisMatroid, budget: Optional[int] = None) -> LineDecomposition:
    """Line partition of a loopless matroid, from one set of the |B|·C(k,2) pairs
    the bases cover. The gate still counts C(n,2)·|B| (PAIR_SCAN_BUDGET when
    None), now an upper bound."""
    lp = loops(m, budget)
    if lp:
        raise HasLoops(f"matroid has loops {sorted(lp)}")
    check_budget(budget, PAIR_SCAN_BUDGET, lambda cap: [capped_comb(m.n, 2, cap) * len(m.carrier.edges)],
                 "line scan of {} elements and {} bases", m.n, len(m.carrier.edges))
    covered = {x | y for b in m.carrier.edge_masks() for x, y in combinations([1 << v for v in _mask_kset(b)], 2)}
    dep = lambda u, v: (1 << u | 1 << v) not in covered
    parts = _lines_from_dependence(list(range(1, m.n + 1)), dep)
    return LineDecomposition(tuple(parts), sum(1 for p in parts if len(p) >= 2))


def gf2_rank(masks: Iterable[int]) -> int:
    """Rank of a set of GF(2) vectors given as bitmasks."""
    basis: dict[int, int] = {}
    rank = 0
    for vec in masks:
        cur = vec
        while cur:
            top = cur.bit_length() - 1
            if top in basis:
                cur ^= basis[top]
            else:
                basis[top] = cur
                rank += 1
                break
    return rank


def from_gf2_matrix(
    mat: Gf2Matrix, budget: Optional[int] = None
) -> tuple[Optional[BasisMatroid], IndependenceOracle]:
    """Matroid of GF(2) column independence, plus its oracle.

    The oracle always works. The materialized matroid is None when the rank
    equals the column count (free matroid): 1 <= k < n cannot hold, so no
    Hypergraph carrier exists; oracle-driven algorithms handle that case.
    """
    masks = mat.column_masks()
    n = mat.cols
    k = gf2_rank(masks)
    if k == 0:
        raise RankZero("matrix has GF(2) rank 0")
    oracle = IndependenceOracle(lambda s: gf2_rank(masks[v - 1] for v in s) == len(s))
    if k == n:
        return None, oracle
    bases = [s for s in all_ksets(n, k, budget) if gf2_rank(masks[v - 1] for v in s) == k]
    return BasisMatroid(Hypergraph(n, k, frozenset(bases)), budget), oracle


def _graphic_rank(graph: Graph, edge_indices: Iterable[int]) -> int:
    """Rank of a set of edges (indexed 1..): the successful union-find unions.
    Only the endpoints met get a parent, so the declared vertex count costs nothing;
    a root has none. Each find halves the path it walks, so a star's chain of
    unions stays short."""
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        while a in parent:
            b = parent[a]
            parent[a] = parent.get(b, b)
            a = parent[a]
        return a

    rank = 0
    for i in edge_indices:
        u, v = graph.edges[i - 1]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            rank += 1
    return rank


def from_graph(graph: Graph, budget: Optional[int] = None) -> BasisMatroid:
    """Graphic matroid: ground set is the edge list (indexed 1..n in input
    order), bases are the maximal spanning forests."""
    n = len(graph.edges)
    if n == 0:
        raise FormatError("graph has no edges")
    k = _graphic_rank(graph, range(1, n + 1))
    if k < 1 or k >= n:
        raise RankCollapse(f"graphic matroid has k={k} on {n} edges")
    bases = [s for s in all_ksets(n, k, budget) if _graphic_rank(graph, s) == k]
    return BasisMatroid(Hypergraph(n, k, frozenset(bases)), budget)

