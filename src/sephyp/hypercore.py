"""Canonical k-hypergraph representation, the other input-instance types
(Partition, Gf2Matrix, Graph), and purely combinatorial predicates.

Vertices are the integers 1..n. An edge (KSet) is a strictly increasing
k-tuple of vertices, validated in one place only, Hypergraph.__post_init__.
All operations are pure functions over immutable values, and every search
runs in lexicographic order so that returned witnesses are stable across runs.

Scans run on vertex masks, ints with bit v set for each vertex v
(_vertex_mask); KSet tuples appear only at the API boundary, in arguments
and return values. Masks are walked in ascending bit, that is vertex, order.
A hypergraph's edges become masks in one place only, its gated view
Hypergraph.edge_masks, which every scan and matroid operation reads.

Every value class of the package (hypergraphs, certificates, witnesses,
reports) is made by the record decorator below, not by dataclasses: a CLI
process then neither imports dataclasses (and with it inspect) nor runs the
exec that @dataclass spends on each class, together 12-22 ms of a child.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import accumulate, chain, combinations
from math import comb
from operator import attrgetter, lt
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

from .errors import BudgetExceeded, FormatError, InvalidPartition, NotAGraph

KSet = tuple[int, ...]

# Default caps, each in the unit its operation counts (see check_budget).
KSET_BUDGET = 200_000  # k-sets built by all_ksets
ENUMERATION_BUDGET = 2 ** 24  # instances, 2^C(n,k), of harness.MaskTables
PAIR_SCAN_BUDGET = 4_000_000  # pairs and lookups of the law checks, basis exchange, matroid.lines and matroid.circuits
MASK_WORD_BUDGET = 4_000_000  # 64-bit words of Hypergraph.edge_masks, one per 64 vertices up to each edge's last
CERT_SEARCH_BUDGET = 5_000_000  # support combinations of find_binary_certificate
FM_VERTEX_BUDGET = 6  # vertices admitted by decide_fm
FM_ROW_BUDGET = 200_000  # rows of one decide_fm elimination stage
VERTEX_LIST_BUDGET = 1_000_000  # vertices, n, listed by matroid.loops, graph_orderable and a minor's mapping
ORBIT_TABLE_BUDGET = 200_000  # permutation-table entries, n!·C(n,k), of a harness orbit decider; SEPHYP_BUDGET leaves it
PACKED_WORD_BUDGET = 4_000_000  # 64-bit words of the packed tableau and price rows of decide; SEPHYP_BUDGET leaves it

# The instance classes harness.run_enumeration walks.
CLASSES = ("all", "graphs", "matroids", "paving", "binary", "multipartite")

ISOLATED = "isolated"
DOMINATING = "dominating"


def record(cls: type) -> type:
    """A frozen value class over cls's annotated fields, in order, as
    @dataclass(frozen=True) makes one: __init__ takes the fields by position
    or keyword and then calls self.__post_init__(); ==, hash and repr read
    the field tuple; assigning or deleting an attribute raises AttributeError.
    Methods cls defines itself are kept. functools.cached_property still works,
    as it writes to the instance __dict__."""
    names = tuple(cls.__annotations__)
    get = attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs) -> None:
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if len(args) != len(names) or kwargs:
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}, each once")
        object.__setattr__(self, "__dict__", dict(zip(names, args)))  # a fresh dict keeps attribute reads fast
        self.__post_init__()

    def __setattr__(self, name: str, value: object = None) -> None:  # __delattr__ too
        raise AttributeError(f"{cls.__name__} is frozen: cannot set or delete {name!r}")

    def __eq__(self, other: object) -> bool:
        return fields(self) == fields(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(names, fields(self)))})"

    methods = {"__init__": __init__, "__post_init__": lambda self: None, "__setattr__": __setattr__,
               "__delattr__": __setattr__, "__eq__": __eq__, "__hash__": lambda self: hash(fields(self)),
               "__repr__": __repr__}
    for name, method in methods.items():
        if name not in vars(cls):
            setattr(cls, name, method)
    return cls


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


class _Proven:
    __slots__ = ()

    def __repr__(self) -> str:
        return "PROVEN"


# The budget of a call whose caller has already put an upper bound on every count the call's gates take through
# check_budget, at those gates' default caps: check_budget returns at once on it, so the call runs as with None.
# harness.run_enumeration passes it to the law checks, whose counts its run's (n, k) bound.
PROVEN = _Proven()


def check_budget(budget: Optional[int], default: int, work: Callable[[int], Iterable[int]], what: str,
                 *args: object) -> None:
    """The one budget gate, run before an operation starts its loop, and the one
    reader of PROVEN, on which it returns without calling work. The cap is
    budget, or the operation's default when None. work(cap) yields the work as
    terms, kept small with capped_comb; the first running total past the cap
    stops the sum and raises BudgetExceeded, naming the work by the str.format
    template what, filled in with args and the total as {count} only then."""
    if budget is PROVEN:
        return
    cap = default if budget is None else budget
    count = next((total for total in accumulate(work(cap), initial=0) if total > cap), None)
    if count is not None:
        raise BudgetExceeded(f"{what.format(*args, count=count)} exceeds budget {cap}")


def _vertex_mask(kset: Iterable[int]) -> int:
    """A vertex set as an int with bit v set for each vertex v."""
    mask = 0
    for v in kset:
        mask |= 1 << v
    return mask


def _mask_kset(mask: int) -> KSet:
    """The positions of the set bits of mask, ascending: the vertices of a
    vertex mask. The one walk over the bits of a mask; a mask below 256
    reads its tuple from _BYTE_KSETS."""
    if mask < 256:
        return _BYTE_KSETS[mask]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


_BYTE_KSETS: list[KSet] = [()]  # each byte's set bits: those of mask + 2^v, mask < 2^v, are mask's and then v
for _bit in range(8):
    _BYTE_KSETS += [bits + (_bit,) for bits in _BYTE_KSETS]


def _edge_fault(e: object, n: int, k: int) -> Optional[tuple[tuple, str]]:
    """None when e is a strictly increasing k-tuple of ints in 1..n, else (order, why): order sorts a non-int
    edge first, by repr, and then int tuples lexicographically, so min() names the first bad edge."""
    if type(e) is not tuple or not {int}.issuperset(map(type, e)):
        return (0, repr(e)), f"edge {e!r} is not a tuple of integers"
    t = tuple(sorted(e))
    why = (f"edge {t} has {len(t)} elements, expected {k}" if len(t) != k else
           f"edge {t} has repeated vertices" if len(set(t)) != k else
           f"edge {t} has vertices outside 1..{n}" if t and (t[0] < 1 or t[-1] > n) else
           f"edge {e} is not a sorted {k}-tuple" if t != e else None)
    return why and ((1, e), why)


def _ksets_valid(sets: Collection, n: int, k: int) -> bool:
    """One pass: every set is a strictly increasing k-tuple of ints in 1..n, so _edge_fault finds nothing in
    sets. False sends the caller to _edge_fault to name the fault. sets is read twice: pass a collection."""
    try:
        return {int}.issuperset(map(type, chain.from_iterable(sets))) and all(
            type(e) is tuple and len(e) == k and 0 < e[0] and e[-1] <= n and all(map(lt, e, e[1:])) for e in sets)
    except (TypeError, IndexError):  # a set that is not iterable, or () at k = 0
        return False


def check_ksets(n: int, k: int, budget: Optional[int] = None) -> None:
    """The gate of the C(n,k) k-set universe: BudgetExceeded when C(n,k)
    exceeds the budget (KSET_BUDGET when None). all_ksets runs it before
    building anything, and feasibility.decide on every call before it reads
    its kept copy of the universe."""
    check_budget(budget, KSET_BUDGET, lambda cap: [capped_comb(n, k, cap)], "C({},{}) >= {count} k-sets", n, k)


def all_ksets(n: int, k: int, budget: Optional[int] = None) -> tuple[KSet, ...]:
    """All k-subsets of [1, n] in lexicographic order, once check_ksets has
    passed them: the one place the C(n,k) universe is built."""
    check_ksets(n, k, budget)
    return tuple(combinations(range(1, n + 1), k))


@record
class Hypergraph:
    """A k-uniform hypergraph on vertex set {1, ..., n}.

    Standing assumption 1 <= k < n is enforced at construction; degenerate
    uniformities are rejected rather than special-cased downstream.
    """

    __slots__ = ("__dict__", "_masks")  # the edge-mask view stays out of vars(), ==, hash and repr

    n: int
    k: int
    edges: frozenset[KSet]

    def __post_init__(self) -> None:
        """The one edge validator: one pass over the edges, then _edge_fault only if it fails; as ever, a bad
        edge is named before a bad k."""
        n, k, edges = self.n, self.k, self.edges
        if not (isinstance(n, int) and isinstance(k, int)):
            raise FormatError("n and k must be integers")
        if not isinstance(edges, frozenset):
            raise FormatError("edges must be a frozenset of sorted tuples")
        fine = _ksets_valid(edges, n, k)
        fault = None if fine else min(filter(None, (_edge_fault(e, n, k) for e in edges)), default=None)
        if fault:
            raise FormatError(fault[1])
        if not 1 <= k < n:
            raise FormatError(f"need 1 <= k < n, got k={k}, n={n}")

    @classmethod
    def from_edges(cls, n: int, k: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        """Build from any iterable of edges, each sorted here; a duplicate is a format error."""
        try:
            canon = [tuple(sorted(e)) for e in edges]
        except TypeError as exc:  # an edge that is not iterable, or whose vertices do not compare
            raise FormatError(f"edges must be iterables of integers: {exc}")
        h = cls(n, k, frozenset(canon))
        if len(h.edges) != len(canon):
            seen: set[KSet] = set()
            raise FormatError(f"duplicate edge {next(e for e in canon if e in seen or seen.add(e))}")
        return h

    def sorted_edges(self) -> list[KSet]:
        return sorted(self.edges)

    def edge_masks(self, budget: Optional[int] = None) -> list[int]:
        """The edges as vertex masks, in sorted_edges() order: the one place a hypergraph's edges become masks.
        Kept on the instance once built and shared by every caller, which only reads it. Only that first build is
        gated, on the 64-bit words of the masks, as a mask's size follows its largest vertex, not n or |E|
        (MASK_WORD_BUDGET when budget is None). A list, as CPython keeps freed tuples of each short length
        for reuse, which held about 1 MB more at peak over a (6,3) matroid corpus."""
        if not hasattr(self, "_masks"):
            edges = self.sorted_edges()
            check_budget(budget, MASK_WORD_BUDGET, lambda cap: ((e[-1] >> 6) + 1 for e in edges),
                         "vertex masks of {} edges in >= {count} 64-bit words", len(edges))
            object.__setattr__(self, "_masks", list(map(_vertex_mask, edges)))
        return self._masks

    def non_edges(self, budget: Optional[int] = None) -> list[KSet]:
        """All k-subsets of [1, n] not in the edge set, lexicographic, gated by all_ksets."""
        return [g for g in all_ksets(self.n, self.k, budget) if g not in self.edges]


@record
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
        if len(seen) != n or min(seen, default=1) < 1 or max(seen, default=n) > n:  # so seen is 1..n
            raise InvalidPartition(f"parts do not cover 1..{n} exactly")


@record
class Gf2Matrix:
    """Dense 0/1 matrix over GF(2); columns index matroid elements."""

    rows: int
    cols: int
    bits: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.bits) != self.rows:
            raise FormatError(f"expected {self.rows} rows, got {len(self.bits)}")
        for row in self.bits:
            if len(row) != self.cols:
                raise FormatError(f"row {row} has wrong width, expected {self.cols}")
            if any(b not in (0, 1) for b in row):
                raise FormatError(f"row {row} has entries outside {{0,1}}")

    def column_masks(self) -> list[int]:
        """Each column as an integer with bit r set when bits[r][col] is 1."""
        return [sum(1 << r for r in range(self.rows) if self.bits[r][c]) for c in range(self.cols)]


@record
class Graph:
    """Multigraph on vertices 1..vertices; parallel edges and self-loops allowed."""

    vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.vertices < 1:
            raise FormatError("graph needs at least one vertex")
        for u, v in self.edges:
            if not (1 <= u <= self.vertices and 1 <= v <= self.vertices):
                raise FormatError(f"edge ({u},{v}) outside 1..{self.vertices}")


@record
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


@record
class SummableQuadruple:
    """Edges e1, e2 and non-edges f1, f2 with equal intersections and unions."""

    e1: KSet
    e2: KSet
    f1: KSet
    f2: KSet


@record
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
    """Whether o tags each vertex of the graph h isolated from, or dominating,
    the vertices before it. One pass over the edges counts each vertex's
    neighbours placed before it: O(n log n + |E|)."""
    if h.k != 2 or sorted(o.order) != list(range(1, h.n + 1)) or len(o.tags) != h.n:
        return False
    place = {v: j for j, v in enumerate(o.order)}
    earlier = [0] * h.n  # by place, the neighbours placed before
    for a, b in h.edges:
        earlier[max(place[a], place[b])] += 1
    return all(tag == ISOLATED and hits == 0 or tag == DOMINATING and hits == j
               for j, (tag, hits) in enumerate(zip(o.tags, earlier)))


def complement(h: Hypergraph, budget: Optional[int] = None) -> Hypergraph:
    """All k-subsets of [1, n] not in h, gated by all_ksets."""
    return Hypergraph(h.n, h.k, frozenset(all_ksets(h.n, h.k, budget)) - h.edges)


def dual(h: Hypergraph) -> Hypergraph:
    """The (n-k)-hypergraph whose edges are the vertex complements of h's edges."""
    v = set(range(1, h.n + 1))
    return Hypergraph(h.n, h.n - h.k, frozenset(tuple(sorted(v - set(e))) for e in h.edges))


def is_exchangeable(h: Hypergraph, budget: Optional[int] = None) -> Optional[ExchangeWitness]:
    """First exchange witness in lexicographic (e1, e2, v1, v2) order, or None.
    The |E|^2 ordered edge pairs times k^2 swaps are gated first
    (PAIR_SCAN_BUDGET when budget is None)."""
    check_budget(budget, PAIR_SCAN_BUDGET, lambda cap: [len(h.edges) ** 2 * h.k ** 2],
                 "exchange scan of {} edges", len(h.edges))
    masks = h.edge_masks(budget)
    present = set(masks)
    for s1 in masks:
        for s2 in masks:
            only1 = s1 & ~s2
            while only1:
                b1, only1 = only1 & -only1, only1 & (only1 - 1)
                only2 = s2 & ~s1
                while only2:
                    b2, only2 = only2 & -only2, only2 & (only2 - 1)
                    if (s1 ^ b1 | b2) not in present and (s2 ^ b2 | b1) not in present:
                        return ExchangeWitness(_mask_kset(s1), _mask_kset(s2), b1.bit_length() - 1, b2.bit_length() - 1)
    return None


def find_summable_quadruple(h: Hypergraph, budget: Optional[int] = None,
                            table: Optional[dict[tuple[int, int], Sequence[tuple[int, int]]]] = None
                            ) -> Optional[SummableQuadruple]:
    """First (edge pair, non-edge pair) with equal intersection and union.

    Search order is lexicographic over edge pairs, then non-edge pairs. table
    maps an (intersection, union) signature to k-set mask pairs in
    combinations order; the first pair under an edge pair's signature with
    both sets absent is the first match of the naive nested scan. Without a
    table, one is built from the non-edges, each signature's first pair only;
    harness.MaskTables.quadruple_table is one built from every k-set, once
    per run. The k-set universe behind the non-edges, then the pairs of
    non-edges and of edges, are gated first, table or not (KSET_BUDGET and
    PAIR_SCAN_BUDGET when budget is None).
    """
    n, k, edges = h.n, h.k, h.edges
    check_ksets(n, k, budget)
    non = comb(n, k) - len(edges)  # small, as C(n,k) passed
    check_budget(budget, PAIR_SCAN_BUDGET, lambda cap: [capped_comb(non, 2, cap), capped_comb(len(edges), 2, cap)],
                 "summable-quadruple scan of {} edges and {} non-edges", len(edges), non)
    masks = h.edge_masks(budget)
    if table is None:
        table = {}
        for pair in combinations(map(_vertex_mask, h.non_edges(PROVEN)), 2):  # a pair tuple is kept only when stored
            signature = (pair[0] & pair[1], pair[0] | pair[1])
            if signature not in table:
                table[signature] = (pair,)
    present = set(masks)
    for s1, s2 in combinations(masks, 2):
        for f1, f2 in table.get((s1 & s2, s1 | s2), ()):
            if f1 not in present and f2 not in present:
                return SummableQuadruple(*map(_mask_kset, (s1, s2, f1, f2)))
    return None


def _monotone_work(n: int, k: int, r: int) -> Callable[[int], Iterator[int]]:
    """The work the r-monotone gate counts, which depends on n, k and r alone: C(n,s)^2 ordered pairs of s-sets,
    s < r, and for each pair with union size u <= r, C(n-u, k-s) k-set lookups (none when s > k). A product with a
    capped factor passes cap unless another factor is 0."""
    def work(cap: int) -> Iterator[int]:
        for s in range(1, r):
            yield capped_comb(n, s, cap) ** 2
            for u in range(s + 1, min(r, 2 * s) + 1) if s <= k else ():
                yield (capped_comb(n, u, cap) * capped_comb(u, s, cap)
                       * capped_comb(s, 2 * s - u, cap) * capped_comb(n - u, k - s, cap))
    return work


def monotone_pairs(n: int, k: int, r: int) -> Iterator[list[tuple[int, int]]]:
    """For each unordered pair r1, r2 of distinct s-sets (vertex masks), s < r, with a union of at most r vertices
    and some k-set through either, the lookups (S + r1, S + r2) for every (k-s)-set S of the vertices outside both;
    by ascending s, then in combinations order. A pair with no such k-set compares equal and is left out."""
    vertices = [1 << v for v in range(1, n + 1)]
    for size in range(1, r):
        for r1, r2 in combinations([sum(c) for c in combinations(vertices, size)], 2):
            union = r1 | r2
            if union.bit_count() <= r and 0 <= k - size <= n - union.bit_count():
                rest = [b for b in vertices if not b & union]
                yield [(s | r1, s | r2) for s in map(sum, combinations(rest, k - size))]


def is_r_monotone(h: Hypergraph, r: int, budget: Optional[int] = None,
                  table: Optional[Iterable[list[tuple[int, int]]]] = None) -> bool:
    """Whether all equal-size vertex subsets with union of size <= r are
    comparable in the edge-implication order. Two distinct r-sets have a
    larger union, so the subsets compared have at most r - 1 vertices.

    r1 and r2 compare when the edges through one, less it, are among those
    through the other: when the lookups of their entry of table, made by
    monotone_pairs(n, k, r) here or once per run by the harness
    (MaskTables.monotone_table, r = 2), never find one set present and the
    other absent in both directions. Each unordered pair is compared once.
    The gate (PAIR_SCAN_BUDGET when budget is None) still counts the
    C(n,s)^2 ordered pairs of s-sets and the lookups of ordered pairs, so its
    count is an upper bound on the work done, about twice it."""
    if not 1 <= r <= h.n:
        raise FormatError(f"need 1 <= r <= n, got r={r}")
    if r == 1:
        return True  # no pair of distinct singletons has a 1-vertex union; skip listing n vertices
    n, k = h.n, h.k
    check_budget(budget, PAIR_SCAN_BUDGET, _monotone_work(n, k, r), "{}-monotone scan on n={}, k={}", r, n, k)
    present = set(h.edge_masks(budget))
    for lookups in monotone_pairs(n, k, r) if table is None else table:
        seen = {(a in present) - (b in present) for a, b in lookups}
        if 1 in seen and -1 in seen:
            return False
    return True


def is_multipartite(h: Hypergraph, p: Partition) -> bool:
    """Whether every edge meets every part of p exactly once."""
    p.validate_for(h.n)
    if len(p.parts) != h.k:
        raise InvalidPartition(f"expected {h.k} parts, got {len(p.parts)}")
    part_sets = [set(q) for q in p.parts]
    return all(all(len(set(e) & q) == 1 for q in part_sets) for e in h.edges)


def graph_orderable(h: Hypergraph, budget: Optional[int] = None) -> Optional[GraphOrdering]:
    """Greedy threshold-style ordering of a graph, or None when stuck.

    Repeatedly removes a currently isolated vertex (smallest index first) or,
    failing that, a currently dominating one, filling the order from the end.
    Completeness of the greedy rule is enforced by the exhaustive cross-check
    against the LP decision in the test suite, not assumed here.

    Runs in O((n + |E|) log n): deg[v] counts v's remaining neighbours, and
    by_deg[t] is a min-heap holding every remaining vertex of degree t, plus
    stale entries (removed vertices or lower degrees) skipped when popped.
    The n vertices it orders are gated first (VERTEX_LIST_BUDGET when None).
    """
    if h.k != 2:
        raise NotAGraph(f"orderability is defined for k=2, got k={h.k}")
    check_budget(budget, VERTEX_LIST_BUDGET, lambda cap: [h.n], "ordering {} vertices", h.n)
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
