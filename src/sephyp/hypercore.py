"""Canonical k-hypergraph representation and purely combinatorial predicates.

Vertices are the integers 1..n. An edge (KSet) is a strictly increasing
k-tuple of vertices. All operations are pure functions over immutable
values, and every search runs in lexicographic order so that returned
witnesses are stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate, combinations
from typing import Callable, Iterable, Iterator, Optional

from .errors import BudgetExceeded, FormatError, InvalidPartition, NotAGraph

KSet = tuple[int, ...]

# Default caps, each in the unit its operation counts (see check_budget).
KSET_BUDGET = 200_000  # k-sets built by all_ksets
ENUMERATION_BUDGET = 2 ** 24  # instances, 2^C(n,k), of harness.MaskTables
PAIR_SCAN_BUDGET = 4_000_000  # pairs and lookups of is_r_monotone and find_summable_quadruple
CIRCUIT_GROUND_BUDGET = 2 ** 22  # ground subsets, 2^n, behind matroid.circuits
CERT_SEARCH_BUDGET = 5_000_000  # support combinations of find_binary_certificate
FM_VERTEX_BUDGET = 6  # vertices admitted by decide_fm
FM_ROW_BUDGET = 200_000  # rows of one decide_fm elimination stage

ISOLATED = "isolated"
DOMINATING = "dominating"


def capped_comb(n: int, k: int, cap: int) -> int:
    """min(C(n, k), cap + 1). The partial products C(n-k+i, i) only grow, so
    the loop stops once one passes cap; negative n or k raise ValueError."""
    if n < 0 or k < 0:
        raise ValueError(f"C({n},{k}) needs non-negative arguments")
    k = min(k, n - k)
    c = 1 if k >= 0 else 0
    for i in range(1, k + 1):
        if c > cap:
            break
        c = c * (n - k + i) // i
    return min(c, cap + 1)


def check_budget(budget: Optional[int], default: int, work: Callable[[int], Iterable[int]], what: str) -> None:
    """The one budget gate, run before an operation starts its loop. The cap is
    budget, or the operation's default when None. work(cap) yields the work as
    terms, kept small with capped_comb; the first running total past the cap
    stops the sum and raises BudgetExceeded, naming what with {count} filled in."""
    cap = default if budget is None else budget
    count = next((total for total in accumulate(work(cap), initial=0) if total > cap), None)
    if count is not None:
        raise BudgetExceeded(f"{what.format(count=count)} exceeds budget {cap}")


def canonical_kset(elements: Iterable[int], n: int, k: int) -> KSet:
    """Sort and validate a k-subset of [1, n]; raises FormatError if unusable."""
    t = tuple(sorted(elements))
    if len(t) != k:
        raise FormatError(f"edge {t} has {len(t)} elements, expected {k}")
    if len(set(t)) != k:
        raise FormatError(f"edge {t} has repeated vertices")
    if t and (t[0] < 1 or t[-1] > n):
        raise FormatError(f"edge {t} has vertices outside 1..{n}")
    return t


def all_ksets(n: int, k: int, budget: Optional[int] = None) -> tuple[KSet, ...]:
    """All k-subsets of [1, n] in lexicographic order.

    This is the one place the C(n,k) universe is built and the one place its
    size is checked: BudgetExceeded is raised, before anything is built, when
    C(n,k) exceeds the budget (KSET_BUDGET when None).
    """
    check_budget(budget, KSET_BUDGET, lambda cap: [capped_comb(n, k, cap)], f"C({n},{k}) >= {{count}} k-sets")
    return tuple(combinations(range(1, n + 1), k))


@dataclass(frozen=True)
class Hypergraph:
    """A k-uniform hypergraph on vertex set {1, ..., n}.

    Standing assumption 1 <= k < n is enforced at construction; degenerate
    uniformities are rejected rather than special-cased downstream.
    """

    n: int
    k: int
    edges: frozenset[KSet]

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and isinstance(self.k, int)):
            raise FormatError("n and k must be integers")
        if not 1 <= self.k < self.n:
            raise FormatError(f"need 1 <= k < n, got k={self.k}, n={self.n}")
        if not isinstance(self.edges, frozenset):
            raise FormatError("edges must be a frozenset of sorted tuples")
        for e in self.edges:
            if e != canonical_kset(e, self.n, self.k):
                raise FormatError(f"edge {e} is not a sorted {self.k}-tuple")

    @classmethod
    def from_edges(cls, n: int, k: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        """Build from any iterable of edges; duplicates are a format error."""
        canon = [canonical_kset(e, n, k) for e in edges]
        dedup = frozenset(canon)
        if len(dedup) != len(canon):
            seen: set[KSet] = set()
            for e in canon:
                if e in seen:
                    raise FormatError(f"duplicate edge {e}")
                seen.add(e)
        return cls(n, k, dedup)

    def sorted_edges(self) -> list[KSet]:
        return sorted(self.edges)

    def non_edges(self) -> list[KSet]:
        """All k-subsets of [1, n] not in the edge set, lexicographic."""
        return [g for g in all_ksets(self.n, self.k) if g not in self.edges]


@dataclass(frozen=True)
class Partition:
    """An ordered partition of {1, ..., n} into nonempty parts."""

    parts: tuple[KSet, ...]

    @classmethod
    def from_parts(cls, parts: Iterable[Iterable[int]]) -> "Partition":
        return cls(tuple(tuple(sorted(p)) for p in parts))

    def validate_for(self, n: int) -> None:
        seen: set[int] = set()
        for p in self.parts:
            if not p:
                raise InvalidPartition("empty part")
            if seen & set(p):
                raise InvalidPartition(f"part {p} overlaps an earlier part")
            seen.update(p)
        if seen != set(range(1, n + 1)):
            raise InvalidPartition(f"parts do not cover 1..{n} exactly")


@dataclass(frozen=True)
class ExchangeWitness:
    """Edges e1, e2 and a cross swap v1/v2 whose two swapped sets are non-edges."""

    e1: KSet
    e2: KSet
    v1: int
    v2: int

    def swapped(self) -> tuple[KSet, KSet]:
        f1 = tuple(sorted((set(self.e1) - {self.v1}) | {self.v2}))
        f2 = tuple(sorted((set(self.e2) - {self.v2}) | {self.v1}))
        return f1, f2


@dataclass(frozen=True)
class SummableQuadruple:
    """Edges e1, e2 and non-edges f1, f2 with equal intersections and unions."""

    e1: KSet
    e2: KSet
    f1: KSet
    f2: KSet


@dataclass(frozen=True)
class GraphOrdering:
    """Vertex order in which each vertex is isolated or dominating among its
    predecessors."""

    order: tuple[int, ...]
    tags: tuple[str, ...]


def is_valid_exchange_witness(h: Hypergraph, w: ExchangeWitness) -> bool:
    if w.e1 not in h.edges or w.e2 not in h.edges:
        return False
    if w.v1 not in w.e1 or w.v1 in w.e2:
        return False
    if w.v2 not in w.e2 or w.v2 in w.e1:
        return False
    f1, f2 = w.swapped()
    return f1 not in h.edges and f2 not in h.edges


def is_valid_summable_quadruple(h: Hypergraph, q: SummableQuadruple) -> bool:
    if q.e1 not in h.edges or q.e2 not in h.edges:
        return False
    if q.f1 in h.edges or q.f2 in h.edges:
        return False
    if {q.e1, q.e2} == {q.f1, q.f2}:
        return False
    e1, e2, f1, f2 = map(set, (q.e1, q.e2, q.f1, q.f2))
    return e1 & e2 == f1 & f2 and e1 | e2 == f1 | f2


def is_valid_graph_ordering(h: Hypergraph, o: GraphOrdering) -> bool:
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


def complement(h: Hypergraph) -> Hypergraph:
    """All k-subsets of [1, n] not in h."""
    return Hypergraph(h.n, h.k, frozenset(all_ksets(h.n, h.k)) - h.edges)


def dual(h: Hypergraph) -> Hypergraph:
    """The (n-k)-hypergraph whose edges are the vertex complements of h's edges."""
    v = set(range(1, h.n + 1))
    return Hypergraph(h.n, h.n - h.k, frozenset(tuple(sorted(v - set(e))) for e in h.edges))


def is_exchangeable(h: Hypergraph) -> Optional[ExchangeWitness]:
    """First exchange witness in lexicographic (e1, e2, v1, v2) order, or None."""
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


def find_summable_quadruple(h: Hypergraph, budget: Optional[int] = None) -> Optional[SummableQuadruple]:
    """First (edge pair, non-edge pair) with equal intersection and union.

    Search order is lexicographic over edge pairs, then non-edge pairs; the
    non-edge pairs are pre-indexed by their (intersection, union) signature,
    which returns the same first match as the naive nested scan. The pairs
    walked are gated first (PAIR_SCAN_BUDGET when budget is None).
    """
    edges = h.sorted_edges()
    non = h.non_edges()
    check_budget(budget, PAIR_SCAN_BUDGET,
                 lambda cap: [capped_comb(len(non), 2, cap), capped_comb(len(edges), 2, cap)],
                 f"summable-quadruple scan of {len(edges)} edges and {len(non)} non-edges")
    first_pair: dict[tuple[KSet, KSet], tuple[KSet, KSet]] = {}
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


def _comparable(h: Hypergraph, r1: KSet, r2: KSet) -> bool:
    """R1 <= R2 or R2 <= R1 in the edge-implication order, by full enumeration."""
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


def is_r_monotone(h: Hypergraph, r: int, budget: Optional[int] = None) -> bool:
    """Whether all equal-size vertex subsets with union of size <= r are
    comparable in the edge-implication order."""
    if not 1 <= r <= h.n:
        raise FormatError(f"need 1 <= r <= n, got r={r}")
    n, k = h.n, h.k

    def work(cap: int) -> Iterator[int]:
        # C(n,s)^2 ordered pairs of s-sets; each pair with union size u <= r
        # costs C(n-u, k-s) k-set lookups in _comparable (none when s > k).
        # A product with a capped factor passes cap unless another factor is 0.
        for s in range(1, r + 1):
            yield capped_comb(n, s, cap) ** 2
            for u in range(s + 1, min(r, 2 * s) + 1) if s <= k else ():
                yield (capped_comb(n, u, cap) * capped_comb(u, s, cap)
                       * capped_comb(s, 2 * s - u, cap) * capped_comb(n - u, k - s, cap))

    check_budget(budget, PAIR_SCAN_BUDGET, work, f"{r}-monotone scan on n={n}, k={k}")
    verts = range(1, h.n + 1)
    for size in range(1, r + 1):
        for r1 in combinations(verts, size):
            for r2 in combinations(verts, size):
                if r1 == r2 or len(set(r1) | set(r2)) > r:
                    continue
                if not _comparable(h, r1, r2):
                    return False
    return True


def is_multipartite(h: Hypergraph, p: Partition) -> bool:
    """Whether every edge meets every part of p exactly once."""
    p.validate_for(h.n)
    if len(p.parts) != h.k:
        raise InvalidPartition(f"expected {h.k} parts, got {len(p.parts)}")
    part_sets = [set(q) for q in p.parts]
    return all(all(len(set(e) & q) == 1 for q in part_sets) for e in h.edges)


def graph_orderable(h: Hypergraph) -> Optional[GraphOrdering]:
    """Greedy threshold-style ordering of a graph, or None when stuck.

    Repeatedly removes a currently isolated vertex (smallest index first) or,
    failing that, a currently dominating one, filling the order from the end.
    Completeness of the greedy rule is enforced by the exhaustive cross-check
    against the LP decision in the test suite, not assumed here.

    Runs in O((n + |E|) log n): deg[v] counts v's remaining neighbours, and
    by_deg[t] is a min-heap holding every remaining vertex of degree t, plus
    stale entries (removed vertices or lower degrees) skipped when popped.
    """
    if h.k != 2:
        raise NotAGraph(f"orderability is defined for k=2, got k={h.k}")
    adj: dict[int, set[int]] = {v: set() for v in range(1, h.n + 1)}
    for a, b in h.edges:
        adj[a].add(b)
        adj[b].add(a)
    deg = {v: len(nbrs) for v, nbrs in adj.items()}
    by_deg: dict[int, list[int]] = {}
    for v in adj:  # ascending, so each list is already a heap
        by_deg.setdefault(deg[v], []).append(v)
    order: list[int] = []
    tags: list[str] = []
    for size in range(h.n, 0, -1):
        for t, tag in ((0, ISOLATED), (size - 1, DOMINATING)):
            heap = by_deg.get(t, [])
            while heap and deg[heap[0]] != t:
                heappop(heap)
            if heap:
                break
        else:
            return None
        pick = heappop(heap)
        deg[pick] = -1  # removed: every entry left for it is stale
        for w in adj[pick]:
            if deg[w] > 0:
                deg[w] -= 1
                heappush(by_deg.setdefault(deg[w], []), w)
        order.append(pick)
        tags.append(tag)
    order.reverse()
    tags.reverse()
    return GraphOrdering(tuple(order), tuple(tags))
