"""Enumeration and verification harness.

Enumerates hypergraph corpora (optionally filtered to a structural class),
classifies every instance, and checks the combinatorial laws the library is
built around: the separable/equatable dichotomy, the swap-witness sufficient
condition, the 2-monotone equivalence, complement/dual invariance, the
loop-deletion and line laws, and the equatable-iff-exchangeable equivalence on the
proved classes. Any violation is a build-failing bug, not data.

The class filters run on edge-subset bitmasks, unpacked straight into vertex
masks for the basis-exchange and paving checks that the matroid module
shares with its public operations; this keeps exhaustive scans (for example
the million 3-hypergraphs on six vertices) in the seconds range. Instances
surviving a filter are re-materialized and checked with the ordinary public
operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .errors import Inapplicable, RankCollapse
from .feasibility import decide, verify_equatable
from .hypercore import (
    ENUMERATION_BUDGET,
    Hypergraph,
    all_ksets,
    capped_comb,
    check_budget,
    complement,
    dual,
    find_summable_quadruple,
    graph_orderable,
    is_exchangeable,
    is_r_monotone,
)
from .matroid import (
    BasisMatroid,
    _mask_exchange_violation,
    _mask_is_paving,
    _vertex_mask,
    circuits,
    delete,
    is_binary,
    lines,
    loops,
)

CLASSES = ("all", "graphs", "matroids", "paving", "binary", "multipartite")
ALL_CHECKS = frozenset(
    {"dichotomy", "quadruple", "monotone", "transforms", "theorems", "loops", "lines", "circuit_elimination"}
)


@dataclass
class EnumerationReport:
    n: int
    k: int
    klass: str
    counts: dict[str, int]
    violations: list[dict]

    def as_obj(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "class": self.klass,
            "counts": self.counts,
            "violations": self.violations,
        }


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


def enumerate_hypergraphs(n: int, k: int, budget: Optional[int] = None) -> Iterator[Hypergraph]:
    """All 2**C(n,k) hypergraphs on [1, n], one per MaskTables mask; masks
    ascend from 0, so the stream order is fixed."""
    tables = MaskTables(n, k, budget)
    return map(tables.hypergraph, range(1 << tables.m))


def _at_bits(items: Sequence, mask: int) -> list:
    """The items at the set bits of mask, in ascending bit order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(items[low.bit_length() - 1])
        mask ^= low
    return out


def canonical_partition(n: int, k: int) -> list[tuple[int, ...]]:
    """Split 1..n into k consecutive parts, sizes as even as possible."""
    base, extra = divmod(n, k)
    parts = []
    start = 1
    for i in range(k):
        size = base + (1 if i < extra else 0)
        parts.append(tuple(range(start, start + size)))
        start += size
    return parts


def _multipartite_masks(tables: MaskTables) -> Iterator[int]:
    """Masks whose edges are transversal to the canonical partition."""
    parts = canonical_partition(tables.n, tables.k)
    transversal = [
        i
        for i, g in enumerate(tables.ksets)
        if all(len(set(g) & set(p)) == 1 for p in parts)
    ]
    for sub in range(1 << len(transversal)):
        mask = 0
        for j, i in enumerate(transversal):
            if sub >> j & 1:
                mask |= 1 << i
        yield mask


def _check_circuit_elimination(m: BasisMatroid) -> Optional[str]:
    circ = [frozenset(c) for c in circuits(m)]
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


def run_enumeration(
    n: int,
    k: int,
    klass: str = "all",
    checks: Iterable[str] = (),
    budget: Optional[int] = None,
) -> EnumerationReport:
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
    counts = {
        "total": 0,
        "separable": 0,
        "equatable": 0,
        "exchangeable": 0,
        "matroids": 0,
        "paving": 0,
        "binary": 0,
    }
    violations: list[dict] = []

    if klass == "multipartite":
        masks: Iterable[int] = _multipartite_masks(tables)
    else:
        masks = range(1 << tables.m)

    for mask in masks:
        matroid_mask = tables.is_matroid_mask(mask)
        if klass in ("matroids", "paving", "binary") and not matroid_mask:
            continue
        paving = matroid_mask and tables.is_paving_mask(mask)
        if klass == "paving" and not paving:
            continue
        h = tables.hypergraph(mask)
        basis_matroid = BasisMatroid(h) if matroid_mask else None
        binary = matroid_mask and is_binary(basis_matroid)
        if klass == "binary" and not binary:
            continue

        counts["total"] += 1
        counts["matroids"] += matroid_mask
        counts["paving"] += paving
        counts["binary"] += binary

        cert = decide(h)
        counts[cert.kind] += 1
        witness = is_exchangeable(h)
        if witness is not None:
            counts["exchangeable"] += 1

        def violate(check: str, detail: str) -> None:
            violations.append(
                {"check": check, "n": n, "k": k, "edges": [list(e) for e in h.sorted_edges()], "detail": detail}
            )

        if "quadruple" in check_set:
            quad = find_summable_quadruple(h)
            if witness is not None and quad is None:
                violate("quadruple", "exchange witness exists but no summable quadruple")
            if quad is not None:
                if cert.kind != "equatable":
                    violate("quadruple", f"summable quadruple {quad} on a separable instance")
                explicit = {g: Fraction(1) for g in (quad.e1, quad.e2, quad.f1, quad.f2)}
                if not verify_equatable(h, explicit):
                    violate("quadruple", f"explicit quadruple labeling fails for {quad}")

        if "monotone" in check_set:
            if is_r_monotone(h, 2) != (witness is None):
                violate("monotone", "2-monotone disagrees with not-exchangeable")

        if "transforms" in check_set:
            comp = complement(h)
            comp_kind = decide(comp).kind
            dual_h = dual(h)
            dual_cert = decide(dual_h)
            if comp_kind != cert.kind or dual_cert.kind != cert.kind:
                violate("transforms", f"kinds differ: {cert.kind}/{comp_kind}/{dual_cert.kind}")
            if cert.kind == "equatable":
                universe = set(range(1, n + 1))
                transported = {
                    tuple(sorted(universe - set(g))): val for g, val in cert.y
                }
                if not verify_equatable(dual_h, transported):
                    violate("transforms", "transported dual labeling fails verification")
            if not (witness is None) == (is_exchangeable(comp) is None) == (is_exchangeable(dual_h) is None):
                violate("transforms", "exchangeability not preserved by complement/dual")

        if "theorems" in check_set:
            in_proved_class = (
                k <= 2
                or klass == "multipartite"
                or (matroid_mask and (k == 3 or paving or binary))
            )
            if in_proved_class and (cert.kind == "equatable") != (witness is not None):
                violate("theorems", f"{cert.kind} but exchangeable = {witness is not None}")
            if k == 2:
                ordering = graph_orderable(h)
                if (ordering is not None) != (cert.kind == "separable"):
                    violate("theorems", f"orderable = {ordering is not None} but {cert.kind}")

        if "loops" in check_set and basis_matroid is not None:
            loop_set = loops(basis_matroid)
            if loop_set:
                try:
                    minor, _ = delete(basis_matroid, min(loop_set))
                    if decide(minor.carrier).kind != cert.kind:
                        violate("loops", f"kind changes when deleting loop {min(loop_set)}")
                except RankCollapse:
                    pass  # k = n-1 minor not representable under 1 <= k < n

        if "lines" in check_set and basis_matroid is not None and not loops(basis_matroid):
            if lines(basis_matroid).nontrivial_count >= 2 and witness is None:
                violate("lines", "two nontrivial lines but no exchange witness")

        if "circuit_elimination" in check_set and basis_matroid is not None:
            problem = _check_circuit_elimination(basis_matroid)
            if problem is not None:
                violate("circuit_elimination", problem)

    if "dichotomy" in check_set and counts["separable"] + counts["equatable"] != counts["total"]:
        violations.append(
            {
                "check": "dichotomy",
                "n": n,
                "k": k,
                "edges": None,
                "detail": f"separable {counts['separable']} + equatable {counts['equatable']} != total {counts['total']}",
            }
        )
    return EnumerationReport(n, k, klass, counts, violations)
