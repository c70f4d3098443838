"""Enumeration and verification harness.

Enumerates hypergraph corpora (optionally filtered to a structural class),
classifies every instance, and checks the laws the library is built around:
the dichotomy once per run, and on each instance the selected entries of
LAW_CHECKS in table order, the order of its violations. A new law is one
more check_ method of _Instance, named in the table where its violations
should come. Entries call the library through this module's globals, so a
name patched here is seen. Any violation is a build-failing bug, not data.

Instances are edge-subset bitmasks. The matroid, paving and binary classes
walk the matroids generated by coloop and single-element extension of the
matroids on n-1 elements (H. Crapo, "Single-element extensions of
matroids", J. Res. NBS 69B, 1965), so the 2053 3-matroids on six elements
cost no scan of the million 3-hypergraphs. The other classes scan every
mask, unpacked straight into vertex masks for the basis-exchange check; the
paving check runs on the same vertex masks, and both share their core with
the matroid module's public operations. Every instance kept is
re-materialized and checked with the ordinary public operations,
BasisMatroid included.

Separability and equatability are invariant under relabeling the vertices,
so certificates are decided once per isomorphism orbit and then moved and
verified per instance, in the manner of orbit-wise isomorph-free generation
(B. D. McKay, "Isomorph-free exhaustive generation", J. Algorithms 26,
1998). Each run keeps one _OrbitDecider per (n, k) it meets: the first
instance of an orbit is decided, and every other one gets that
certificate moved by the vertex permutation between them and checked on
itself with the public verifier, so no instance is classified unchecked.
The law checks stay per instance. Their budget gates do not: each gate's
count is bounded by the run's (n, k), and where that bound passes the
gate's default cap, checked once per run (MaskTables.law_budgets), every
instance would pass the gate, so the call is made with the budget PROVEN
and skips it. The scans' tables that depend on (n, k) alone are built once
per run, on MaskTables.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations, permutations
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import hypercore, matroid
from .errors import BudgetExceeded, Inapplicable, InternalVerificationError, RankCollapse
from .feasibility import Certificate, EquatableCertificate, SeparableCertificate, decide, verify_equatable, verify_separating
from .hypercore import (
    CLASSES,
    ENUMERATION_BUDGET,
    ORBIT_TABLE_BUDGET,
    PROVEN,
    ExchangeWitness,
    Hypergraph,
    _mask_kset,
    _monotone_work,
    _vertex_mask,
    all_ksets,
    capped_comb,
    check_budget,
    complement,
    dual,
    find_summable_quadruple,
    graph_orderable,
    is_exchangeable,
    is_r_monotone,
    monotone_pairs,
    record,
)
from .matroid import (
    BasisMatroid,
    _circuit_masks,
    _mask_exchange_violation,
    _mask_is_paving,
    delete,
    is_binary,
    lines,
    loops,
)


@record
class EnumerationReport:
    n: int
    k: int
    klass: str
    counts: dict[str, int]
    violations: list[dict]

    def as_obj(self) -> dict:
        return {"n": self.n, "k": self.k, "class": self.klass, "counts": self.counts, "violations": self.violations}


class MaskTables:
    """Precomputed structures for bitmask-level scans of all (n, k) instances,
    mask bit i standing for the i-th k-subset in lexicographic order. The
    2^C(n,k) instances are gated at ENUMERATION_BUDGET unless a budget is
    given; that count exceeds cap exactly when C(n,k) >= cap.bit_length()."""

    def __init__(self, n: int, k: int, budget: Optional[int] = None):
        self.n = n
        self.k = k
        check_budget(budget, ENUMERATION_BUDGET, lambda cap: [1 << capped_comb(n, k, cap.bit_length())],
                     f"2^C({n},{k}) instances")
        self.ksets = all_ksets(n, k)
        self.m = len(self.ksets)
        self.vertex_masks = [_vertex_mask(g) for g in self.ksets]

    def hypergraph(self, mask: int) -> Hypergraph:
        return Hypergraph(self.n, self.k, frozenset(_at_bits(self.ksets, mask)))

    def is_matroid_mask(self, mask: int) -> bool:
        return mask != 0 and _mask_exchange_violation(_at_bits(self.vertex_masks, mask)) is None

    def is_paving_mask(self, mask: int) -> bool:
        return _mask_is_paving(_at_bits(self.vertex_masks, mask), self.n, self.k)

    @cached_property
    def law_budgets(self) -> dict[str, object]:
        """The budget each gated call of run_enumeration passes, by name: PROVEN
        when an upper bound, from the run's n, k and m = C(n,k) alone, on every
        count the call's gates take is within those gates' default caps, read
        where the gates read them, so that every instance of the run passes
        them; else None, and the gates run per instance with their messages.

        The bounds. An instance, its complement and its dual (C(n, n-k) = m
        sets) have at most m edges, and a minor, on n - 1 elements at rank k or
        k - 1, at most C(n-1, k) or C(n-1, k-1), each at most m by Pascal's
        rule. So, with |E| or |B| edges or bases:
        - masks: each edge's mask takes (v >> 6) + 1 words, v <= n its last
          vertex, counted where a hypergraph's masks are first built: in the
          orbit decider, or after the gates of the basis-exchange check, the
          exchange scan or a minor's mapping, so those budgets count it too;
        - bases: a matroid's basis-exchange check counts |B|^2 <= m^2;
        - circuits: |B|·k·(n-k) <= m·k·(n-k) basis lookups;
        - exchange: |E|^2·k^2 <= m^2·k^2, on an instance and its complement, and
          dual_exchange: m^2·(n-k)^2 on the dual, whose k is n - k;
        - ksets: the C(n,k) universe is m k-sets;
        - quadruple: m k-sets, and as |non-edges| + |E| = m, C(|non-edges|,2) +
          C(|E|,2) <= C(m,2), the pairs of quadruple_table too;
        - monotone: its count is n's, k's and r's alone;
        - ordering, loops: n vertices listed; delete: n mapped, and the minor's
          basis exchange and masks as above; lines: n, and C(n,2)·|B| <= C(n,2)·m.
        """
        n, k, m = self.n, self.k, self.m
        pairs, basis_pairs, vertices = hypercore.PAIR_SCAN_BUDGET, matroid.PAIR_SCAN_BUDGET, matroid.VERTEX_LIST_BUDGET
        words = (hypercore.MASK_WORD_BUDGET, m * ((n >> 6) + 1))
        bounds = {
            "masks": [words],
            "bases": [(basis_pairs, m * m), words],
            "circuits": [(basis_pairs, m * k * (n - k))],
            "exchange": [(pairs, m * m * k * k), words],
            "dual_exchange": [(pairs, m * m * (n - k) ** 2), words],
            "ksets": [(hypercore.KSET_BUDGET, m)],
            "quadruple": [(hypercore.KSET_BUDGET, m), (pairs, m * (m - 1) // 2)],
            # each term capped at pairs + 1, so the sum passes pairs exactly when the count does
            "monotone": [(pairs, sum(_monotone_work(n, k, 2)(pairs)))],
            "ordering": [(hypercore.VERTEX_LIST_BUDGET, n)],
            "loops": [(vertices, n)],
            "delete": [(vertices, n), (basis_pairs, m * m), words],
            "lines": [(vertices, n), (basis_pairs, n * (n - 1) // 2 * m)],
        }
        return {name: PROVEN if all(count <= cap for cap, count in bound) else None for name, bound in bounds.items()}

    @cached_property
    def quadruple_table(self) -> Optional[dict[tuple[int, int], list[tuple[int, int]]]]:
        """find_summable_quadruple's table of every k-set: each (intersection, union) signature of two k-set pairs
        or more, and those pairs in combinations order; an edge pair alone under its signature meets no non-edge
        pair. None unless the quadruple bound is proven, as it counts these C(m, 2) pairs too."""
        if self.law_budgets["quadruple"] is None:
            return None
        table: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for pair in combinations(self.vertex_masks, 2):
            table.setdefault((pair[0] & pair[1], pair[0] | pair[1]), []).append(pair)
        return {signature: pairs for signature, pairs in table.items() if len(pairs) > 1}

    @cached_property
    def monotone_table(self) -> Optional[list[list[tuple[int, int]]]]:
        """is_r_monotone's lookups at r = 2; None unless the monotone bound, which counts them, is proven."""
        return None if self.law_budgets["monotone"] is None else list(monotone_pairs(self.n, self.k, 2))


def _matroid_masks(n: int, k: int) -> Iterator[int]:
    """Every rank-k matroid on [1, n] as an ascending mask over the lexicographic
    k-subsets, with one int per matroid held at a time.

    The k-sets through element 1 take the low C(n-1, k-1) bits, one per
    (k-1)-subset of the rest, and the other k-sets the high bits. Either 1 is
    a coloop (high bits 0, low bits a rank-(k-1) matroid on the rest), or the
    high bits are a rank-k matroid M' = M minus 1 and the bases through 1 are
    I+1 for the independent (k-1)-sets I of M' whose closure is a hyperplane
    outside a linear subclass of M''s hyperplanes; these single-element
    extensions are in bijection with the linear subclasses (H. Crapo,
    "Single-element extensions of matroids", J. Res. NBS 69B, 1965).
    """
    if k == 0:
        yield 1  # the empty set is the one basis
    if not 0 < k <= n:
        return
    yield from _matroid_masks(n - 1, k - 1)
    uppers = [_vertex_mask(g) for g in all_ksets(n - 1, k)]
    index = {g: i for i, g in enumerate(uppers)}
    lower = [_vertex_mask(g) for g in all_ksets(n - 1, k - 1)]
    ups = [[(1 << v, index[g | 1 << v]) for v in range(1, n) if not g >> v & 1] for g in lower]
    for rest in _matroid_masks(n - 1, k):
        spans: dict[int, int] = {}  # hyperplane -> bits of the (k-1)-sets it is the closure of
        for j, g in enumerate(lower):
            outside = [bit for bit, i in ups[j] if not rest >> i & 1]
            if len(outside) < len(ups[j]):
                closure = g | sum(outside)
                spans[closure] = spans.get(closure, 0) | 1 << j
        for low in _linear_subclasses(spans, _at_bits(uppers, rest), k):
            yield rest << len(lower) | low


def _linear_subclasses(spans: dict[int, int], bases: list[int], k: int) -> Iterator[int]:
    """For each linear subclass L of the hyperplanes keyed in spans, the union of
    the spans of the hyperplanes outside L, ascending. L is closed under: two
    members through a coline (a rank k-2 flat) put every hyperplane through
    it in L. Hyperplanes are decided in descending order of their disjoint
    spans, each first in L, so the unions come out ascending. The walk keeps a
    stack: a closure calling itself would leave a reference cycle per call."""
    hyps = sorted(spans, key=spans.__getitem__, reverse=True)
    pencils: dict[int, int] = {}  # coline -> bits of the hyperplanes through it
    for a, b in combinations(hyps, 2):
        x = a & b
        if x not in pencils and max((s & x).bit_count() for s in bases) == k - 2:
            pencils[x] = sum(1 << i for i, h in enumerate(hyps) if h & x == x)
    through = [[p for p in pencils.values() if p >> i & 1] for i in range(len(hyps))]
    stack = [(0, 0, 0)]  # hyperplanes decided, those put in L, union of the spans of those outside it
    while stack:
        i, inside, low = stack.pop()
        if i == len(hyps):
            yield low
            continue
        for now_in, now_low in ((inside, low | spans[hyps[i]]), (inside | 1 << i, low)):  # in L pushed last
            out = ((2 << i) - 1) & ~now_in  # decided and outside L
            if all((now_in & p).bit_count() < 2 or not out & p for p in through[i]):
                stack.append((i + 1, now_in, now_low))


def enumerate_hypergraphs(n: int, k: int, budget: Optional[int] = None) -> Iterator[Hypergraph]:
    """All 2**C(n,k) hypergraphs on [1, n], one per MaskTables mask; masks
    ascend from 0, so the stream order is fixed."""
    tables = MaskTables(n, k, budget)
    return map(tables.hypergraph, range(1 << tables.m))


def _at_bits(items: Sequence, mask: int) -> list:
    """The items at the set bits of mask, in ascending bit order."""
    return [items[i] for i in _mask_kset(mask)]


def canonical_partition(n: int, k: int) -> list[tuple[int, ...]]:
    """Split 1..n into k consecutive parts, sizes as even as possible."""
    base, extra = divmod(n, k)
    ends = [0, *accumulate(base + (i < extra) for i in range(k))]
    return [tuple(range(a + 1, b + 1)) for a, b in zip(ends, ends[1:])]


def _multipartite_masks(tables: MaskTables) -> Iterator[int]:
    """Masks whose edges are transversal to the canonical partition."""
    parts = canonical_partition(tables.n, tables.k)
    transversal = [i for i, g in enumerate(tables.ksets) if all(len(set(g) & set(p)) == 1 for p in parts)]
    for sub in range(1 << len(transversal)):
        yield sum(1 << i for j, i in enumerate(transversal) if sub >> j & 1)


def _orbit_tables(n: int, k: int, budget: Optional[int] = None
                  ) -> tuple[dict[int, int], list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The instance-mask bit of each k-set, keyed by its vertex mask; every
    permutation p of 1..n, identity first, as a tuple with p[v] the image of
    v (p[0] = 0); and its k-set table: entry i is the mask bit of the image of
    the i-th lexicographic k-set. The n!·C(n,k) table entries are gated first
    (ORBIT_TABLE_BUDGET when budget is None)."""
    ksets = all_ksets(n, k)

    def work(cap: int) -> Iterator[int]:
        count = len(ksets)
        for i in range(2, n + 1):
            if count > cap:
                break
            count *= i
        yield count

    check_budget(budget, ORBIT_TABLE_BUDGET, work, f"orbit tables of {n}! permutations of C({n},{k}) k-sets")
    bit = {_vertex_mask(g): 1 << i for i, g in enumerate(ksets)}
    perms = [(0, *images) for images in permutations(range(1, n + 1))]
    tables = [tuple(bit[sum(1 << p[v] for v in g)] for g in ksets) for p in perms]
    return bit, perms, tables


class _OrbitDecider:
    """decide for the instances of one (n, k), run once per isomorphism orbit.

    seen maps each instance mask met so far to its orbit's first-seen
    representative and the permutation p taking the representative to it,
    packed as the representative's index in certs times n! plus p's index
    in perms. Every other instance of the orbit gets the representative's
    certificate moved by p, x[p(v)] = x[v] or y[p(G)] = y[G], and checked on
    itself with the public verifier. Past ORBIT_TABLE_BUDGET the group is
    trivial: no table is built and no entry kept, so each instance is
    decided on its own.
    """

    def __init__(self, n: int, k: int):
        try:
            self.bit, self.perms, self.tables = _orbit_tables(n, k)
        except BudgetExceeded:
            self.bit, self.perms, self.tables = {}, [], []
        self.seen: dict[int, int] = {}
        self.certs: list[Certificate] = []

    def decide(self, h: Hypergraph, budget: Optional[int] = None) -> Certificate:
        """h's certificate; budget gates the first build of h's edge masks."""
        if not self.tables:
            return decide(h)
        mask = sum(map(self.bit.__getitem__, h.edge_masks(budget)))
        code = self.seen.get(mask)
        if code is not None:
            rep, j = divmod(code, len(self.perms))
            return _moved(h, self.certs[rep], self.perms[j])
        cert = decide(h)
        code = len(self.certs) * len(self.perms)
        self.certs.append(cert)
        bits = _mask_kset(mask)
        for j, table in enumerate(self.tables):
            self.seen.setdefault(sum(map(table.__getitem__, bits)), code + j)
        return cert


def _moved(h: Hypergraph, cert: Certificate, p: tuple[int, ...]) -> Certificate:
    """cert, decided for the instance that p carries to h, moved to h by the
    vertex permutation p; raises InternalVerificationError unless the public
    verifier accepts it on h."""
    if cert.kind == "separable":
        x = list(cert.x)
        for v, val in enumerate(cert.x, 1):
            x[p[v] - 1] = val
        moved: Certificate = SeparableCertificate(tuple(x))
        valid = verify_separating(h, moved.x)
    else:
        moved = EquatableCertificate(tuple(sorted((tuple(sorted(p[v] for v in g)), val) for g, val in cert.y)))
        valid = verify_equatable(h, moved.as_dict())
    if not valid:
        raise InternalVerificationError(f"moved {cert.kind} certificate fails on {h.sorted_edges()}")
    return moved


@record
class _Instance:
    """One instance as the law checks read it, each check a generator method."""

    h: Hypergraph
    cert: Certificate
    witness: Optional[ExchangeWitness]
    matroid: Optional[BasisMatroid]  # None unless the instance is a matroid
    proved: bool  # in a class where equatable iff exchangeable is proved
    decide: Callable[[Hypergraph], Certificate]  # the run's, once per orbit
    tables: MaskTables  # the run's: its law budgets and scan tables

    def check_quadruple(self) -> Iterator[str]:
        quad = find_summable_quadruple(self.h, self.tables.law_budgets["quadruple"], self.tables.quadruple_table)
        if self.witness is not None and quad is None:
            yield "exchange witness exists but no summable quadruple"
        if quad is not None:
            if self.cert.kind != "equatable":
                yield f"summable quadruple {quad} on a separable instance"
            if not verify_equatable(self.h, dict.fromkeys((quad.e1, quad.e2, quad.f1, quad.f2), Fraction(1))):
                yield f"explicit quadruple labeling fails for {quad}"

    def check_monotone(self) -> Iterator[str]:
        if is_r_monotone(self.h, 2, self.tables.law_budgets["monotone"], self.tables.monotone_table) != (
                self.witness is None):
            yield "2-monotone disagrees with not-exchangeable"

    def check_transforms(self) -> Iterator[str]:
        budgets = self.tables.law_budgets
        comp, dual_h, kind = complement(self.h, budgets["ksets"]), dual(self.h), self.cert.kind
        comp_kind, dual_kind = self.decide(comp).kind, self.decide(dual_h).kind
        if comp_kind != kind or dual_kind != kind:
            yield f"kinds differ: {kind}/{comp_kind}/{dual_kind}"
        if kind == "equatable":
            universe = _vertex_mask(range(1, self.h.n + 1))
            if not verify_equatable(dual_h, {_mask_kset(universe ^ _vertex_mask(g)): val for g, val in self.cert.y}):
                yield "transported dual labeling fails verification"
        if not ((self.witness is None) == (is_exchangeable(comp, budgets["exchange"]) is None)
                == (is_exchangeable(dual_h, budgets["dual_exchange"]) is None)):
            yield "exchangeability not preserved by complement/dual"

    def check_theorems(self) -> Iterator[str]:
        kind = self.cert.kind
        if self.proved and (kind == "equatable") != (self.witness is not None):
            yield f"{kind} but exchangeable = {self.witness is not None}"
        if self.h.k == 2:
            ordering = graph_orderable(self.h, self.tables.law_budgets["ordering"])
            if (ordering is not None) != (kind == "separable"):
                yield f"orderable = {ordering is not None} but {kind}"

    def check_loops(self) -> Iterator[str]:
        budgets = self.tables.law_budgets
        loop_set = loops(self.matroid, budgets["loops"]) if self.matroid is not None else None
        if loop_set:
            try:
                minor, _ = delete(self.matroid, min(loop_set), budgets["delete"])
            except RankCollapse:
                return  # k = n-1 minor not representable under 1 <= k < n
            if self.decide(minor.carrier).kind != self.cert.kind:
                yield f"kind changes when deleting loop {min(loop_set)}"

    def check_lines(self) -> Iterator[str]:
        budgets = self.tables.law_budgets
        if self.matroid is not None and not loops(self.matroid, budgets["loops"]):
            if lines(self.matroid, budgets["lines"]).nontrivial_count >= 2 and self.witness is None:
                yield "two nontrivial lines but no exchange witness"

    def check_circuit_elimination(self) -> Iterator[str]:
        """The first circuit pair, shared v and u in the first only (ascending)
        with no circuit through u inside the union less v."""
        circ = _circuit_masks(self.matroid, self.tables.law_budgets["circuits"]) if self.matroid is not None else ()
        for c1 in circ:
            for c2 in circ:
                shared = c1 & c2 if c1 != c2 else 0
                while shared:
                    v, shared = shared & -shared, shared & (shared - 1)
                    pool = (c1 | c2) ^ v
                    covered = 0
                    for c in circ:
                        if c & pool == c:
                            covered |= c
                    missing = c1 & ~c2 & ~covered
                    if missing:
                        u = (missing & -missing).bit_length() - 1
                        yield f"no circuit with {u} inside {list(_mask_kset(pool))}"
                        return


LAW_CHECKS: dict[str, Callable[[_Instance], Iterator[str]]] = {
    name: getattr(_Instance, "check_" + name)
    for name in ("quadruple", "monotone", "transforms", "theorems", "loops", "lines", "circuit_elimination")
}
ALL_CHECKS = frozenset({"dichotomy", *LAW_CHECKS})


def run_enumeration(n: int, k: int, klass: str = "all", checks: Iterable[str] = (),
                    budget: Optional[int] = None) -> EnumerationReport:
    """Enumerate, filter, classify, and law-check one (n, k) corpus."""
    if klass not in CLASSES:
        raise Inapplicable(f"unknown class {klass!r}")
    if klass == "graphs" and k != 2:
        raise Inapplicable("class 'graphs' requires k = 2")
    check_set = frozenset(checks)
    unknown = check_set - ALL_CHECKS
    if unknown:
        raise Inapplicable(f"unknown checks {sorted(unknown)}")
    if not 1 <= k < n:
        raise Inapplicable(f"enumeration needs 1 <= k < n, got n={n} k={k}")

    tables = MaskTables(n, k, budget)
    budgets = tables.law_budgets
    orbits: dict[tuple[int, int], _OrbitDecider] = {}

    def decide_once(g: Hypergraph) -> Certificate:
        """decide through the orbit decider of g's (n, k), made on first use."""
        if (g.n, g.k) not in orbits:
            orbits[g.n, g.k] = _OrbitDecider(g.n, g.k)
        return orbits[g.n, g.k].decide(g, budgets["masks"])

    counts = dict.fromkeys(("total", "separable", "equatable", "exchangeable", "matroids", "paving", "binary"), 0)
    violations: list[dict] = []
    selected = [(name, check) for name, check in LAW_CHECKS.items() if name in check_set]

    generated = klass in ("matroids", "paving", "binary")
    if klass == "multipartite":
        masks: Iterable[int] = _multipartite_masks(tables)
    else:
        masks = _matroid_masks(n, k) if generated else range(1 << tables.m)

    for mask in masks:
        matroid_mask = generated or tables.is_matroid_mask(mask)
        paving = matroid_mask and tables.is_paving_mask(mask)
        if klass == "paving" and not paving:
            continue
        h = tables.hypergraph(mask)
        basis_matroid = BasisMatroid(h, budgets["bases"]) if matroid_mask else None
        binary = matroid_mask and is_binary(basis_matroid, budgets["circuits"])
        if klass == "binary" and not binary:
            continue

        counts["total"] += 1
        counts["matroids"] += matroid_mask
        counts["paving"] += paving
        counts["binary"] += binary

        cert = decide_once(h)
        counts[cert.kind] += 1
        witness = is_exchangeable(h, budgets["exchange"])
        if witness is not None:
            counts["exchangeable"] += 1
        proved = k <= 2 or klass == "multipartite" or (matroid_mask and (k == 3 or paving or binary))
        x = _Instance(h, cert, witness, basis_matroid, proved, decide_once, tables)
        for name, check in selected:
            for detail in check(x):
                violations.append({"check": name, "n": n, "k": k, "edges": [list(e) for e in h.sorted_edges()],
                                   "detail": detail})

    if "dichotomy" in check_set and counts["separable"] + counts["equatable"] != counts["total"]:
        detail = f"separable {counts['separable']} + equatable {counts['equatable']} != total {counts['total']}"
        violations.append({"check": "dichotomy", "n": n, "k": k, "edges": None, "detail": detail})
    return EnumerationReport(n, k, klass, counts, violations)
