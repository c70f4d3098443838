"""Query-complexity layer: the polynomial-query separability decision for
binary matroids, and the adversarial paving construction showing that no
sublinear-in-C(2k,k) strategy can decide separability in general.

The binary-matroid algorithm talks only to an IndependenceOracle: pair
queries reveal the loops and the line partition, and the verdict is read off
the line structure, with one extra query on the trivial-line elements in the
single boundary case the lines do not determine. The adversary machinery
runs an arbitrary strategy against an oracle answering as the complete
k-hypergraph on 2k vertices and then exhibits, whenever possible, a
complementary k-set pair the strategy never asked about, so its transcript
is equally consistent with an equatable paving matroid.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import or_
from typing import Callable, Optional, Union

from .errors import BudgetExceeded, Inapplicable, InternalVerificationError, NotAMatroid, OracleInconsistent
from .feasibility import decide
from .hypercore import Hypergraph, KSet, all_ksets, record
from .matroid import BasisMatroid, IndependenceOracle, _in_some_edge, _lines_from_dependence, is_paving

SEPARABLE = "separable"
EQUATABLE = "equatable"

Strategy = Callable[[IndependenceOracle, int, int], Union[str, "OracleDecision"]]


@record
class OracleDecision:
    """Verdict of an oracle-driven decision, with the full query transcript."""

    verdict: str
    queries_used: int
    trace: tuple[tuple[KSet, bool], ...]


@record
class AdversaryInstance:
    """Complete k-hypergraph h1 on [2k] and its paving relaxation h2 missing
    one complementary basis pair f1, f2."""

    k: int
    h1: Hypergraph
    h2: Hypergraph
    f1: KSet
    f2: KSet


@record
class IndistinguishabilityReport:
    """Outcome of running a strategy against the adversary oracle."""

    verdict: Optional[str]
    queries: int
    trace: tuple[tuple[KSet, bool], ...]
    kset_queries: tuple[KSet, ...]
    consistent_with_h2: bool
    pairs_total: int
    pairs_touched: int
    threshold_queries: int  # 2^k - 1
    threshold_pairs: int  # C(2k,k)/2
    unqueried_pair: Optional[tuple[KSet, KSet]]
    alternative_kind: Optional[str]
    budget_exhausted: bool


def decide_binary_via_oracle(n: int, k: int, oracle: IndependenceOracle) -> OracleDecision:
    """Separability of a binary k-matroid using only independence queries.

    Rank-1 matroids are separable outright. Otherwise all pairs are queried;
    since a non-loop lies in a basis of size k >= 2, the loops are exactly
    the elements whose every pair is dependent, so no singleton queries are
    needed. With n' non-loops: n' <= k+1 is separable; two nontrivial lines
    force equatable; with at most one nontrivial line of size l, n' = l+k-1
    is separable and n' >= l+k+1 is equatable.

    The remaining case n' = l+k is not determined by pair answers at all
    (two binary matroids can agree on every singleton and pair yet differ
    in kind), so one further query resolves it: the set T of all
    trivial-line elements, of size k. The matroid is then equatable exactly
    when T is dependent. Total queries never exceed C(n,2) + 1 <= n + C(n,2).
    """
    if not 1 <= k <= n:
        raise OracleInconsistent(f"rank {k} impossible on {n} elements")
    # every 1-matroid is separable: label basis singletons 0, loops -1
    verdict = SEPARABLE if k == 1 else _pair_verdict(n, k, oracle)
    return OracleDecision(verdict, oracle.queries_used, tuple(oracle.trace))


def _pair_verdict(n: int, k: int, oracle: IndependenceOracle) -> str:
    """The verdict of decide_binary_via_oracle for k >= 2."""
    for pair in combinations(range(1, n + 1), 2):
        oracle.query(pair)
    # every pair is cached now, and a cache hit adds no query or trace entry
    dep = lambda a, b: not oracle.query((a, b))
    nonloops = [v for v in range(1, n + 1) if any(not dep(v, u) for u in range(1, n + 1) if u != v)]
    n2 = len(nonloops)
    if n2 < k:
        raise OracleInconsistent(f"only {n2} non-loops for promised rank {k}")
    if n2 <= k + 1:
        return SEPARABLE

    try:
        parts = _lines_from_dependence(nonloops, dep)
    except NotAMatroid as exc:
        raise OracleInconsistent(str(exc)) from exc

    nontrivial = [p for p in parts if len(p) >= 2]
    if len(nontrivial) >= 2:
        return EQUATABLE
    largest = max(len(p) for p in parts)
    if n2 == largest + k - 1:
        return SEPARABLE
    if n2 > largest + k:
        return EQUATABLE
    if n2 == largest + k:
        trivials = tuple(v for p in parts if len(p) == 1 for v in p)
        return EQUATABLE if not oracle.query(trivials) else SEPARABLE
    raise OracleInconsistent(
        f"{n2} non-loops with largest line {largest} impossible at rank {k}"
    )


def build_adversary(k: int, budget: Optional[int] = None) -> AdversaryInstance:
    """The two paving k-matroids on 2k vertices that agree on every subset
    query except the removed complementary pair."""
    if k < 2:
        raise Inapplicable("adversary construction needs k >= 2")
    n = 2 * k
    full = frozenset(all_ksets(n, k, budget))
    f1 = tuple(range(1, k + 1))
    f2 = tuple(range(k + 1, n + 1))
    h1 = Hypergraph(n, k, full)
    h2 = Hypergraph(n, k, full - {f1, f2})
    for h in (h1, h2):
        m = BasisMatroid(h, budget)  # raises NotAMatroid if exchange fails
        if not is_paving(m):
            raise InternalVerificationError("adversary instance is not paving")
    if decide(h1, budget).kind != SEPARABLE:
        raise InternalVerificationError("complete hypergraph not separable")
    if decide(h2, budget).kind != EQUATABLE:
        raise InternalVerificationError("punctured hypergraph not equatable")
    return AdversaryInstance(k, h1, h2, f1, f2)


def replay_identical(inst: AdversaryInstance, queries: tuple[KSet, ...]) -> bool:
    """Whether h1 and h2 answer identically on every query in the transcript.

    They can differ only on the k-set queries f1 and f2, which is exactly
    what makes any strategy avoiding both unable to tell the instances apart.
    """
    c1, c2 = (reduce(or_, h.edge_masks()) for h in (inst.h1, inst.h2))
    return all(_in_some_edge(inst.h1, c1, q) == _in_some_edge(inst.h2, c2, q) for q in queries)


def run_indistinguishability_check(
    inst: AdversaryInstance, strategy: Strategy, query_budget: int
) -> IndistinguishabilityReport:
    """Run a strategy against an oracle answering as h1 and audit its trace.

    The certification criterion is pair-based: each queried k-set touches
    exactly one complementary pair, so fewer touched pairs than C(2k,k)/2
    leaves a pair (F1', F2') no query can distinguish, and the instance h1
    minus that pair is an equatable paving matroid consistent with the whole
    transcript. The classical 2^k - 1 query threshold for this argument is
    reported alongside.
    """
    k, n = inst.k, 2 * inst.k
    # complete k-hypergraph: every small set is independent
    oracle = IndependenceOracle(lambda subset: len(subset) <= k, max_queries=query_budget)
    verdict: Optional[str] = None
    budget_exhausted = False
    try:
        outcome = strategy(oracle, n, k)
        verdict = outcome.verdict if isinstance(outcome, OracleDecision) else str(outcome)
    except BudgetExceeded:
        budget_exhausted = True

    trace = tuple(oracle.trace)
    kset_queries = tuple(q for q, _ in trace if len(q) == k)
    queried = set(kset_queries)
    consistent = inst.f1 not in queried and inst.f2 not in queried

    def pair(q: KSet) -> tuple[KSet, KSet]:
        """q and its complement in [2k], in sorted order."""
        partner = tuple(v for v in range(1, n + 1) if v not in q)
        return min(q, partner), max(q, partner)

    universe = inst.h1.sorted_edges()  # h1 is the complete k-hypergraph
    pairs_total = len(universe) // 2
    touched = set(map(pair, queried))
    unqueried_pair = next((p for p in map(pair, universe) if p not in touched), None)

    alternative_kind = None
    if unqueried_pair is not None:
        alt = Hypergraph(n, k, inst.h1.edges - set(unqueried_pair))
        alternative_kind = decide(alt).kind

    return IndistinguishabilityReport(
        verdict=verdict,
        queries=len(trace),
        trace=trace,
        kset_queries=kset_queries,
        consistent_with_h2=consistent,
        pairs_total=pairs_total,
        pairs_touched=len(touched),
        threshold_queries=2 ** k - 1,
        threshold_pairs=pairs_total,
        unqueried_pair=unqueried_pair,
        alternative_kind=alternative_kind,
        budget_exhausted=budget_exhausted,
    )


def strategy_no_queries(oracle: IndependenceOracle, n: int, k: int) -> str:
    """Baseline strategy: answer separable without asking anything."""
    return SEPARABLE


def strategy_binary_algorithm(oracle: IndependenceOracle, n: int, k: int) -> OracleDecision:
    """The binary-matroid algorithm used as an adversary strategy; it only
    ever queries singletons and pairs."""
    return decide_binary_via_oracle(n, k, oracle)
