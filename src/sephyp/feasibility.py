"""Exact rational separability decision with independently verifiable certificates.

All arithmetic is exact: certificates and verifiers use fractions.Fraction.
The revised simplex in decide() keeps d B^-1, the rhs column and the
artificial part of the objective row as ints over one shared positive
denominator d, pricing each k-set column from the k-set itself when it is
needed. decide_fm() keeps every Fourier-Motzkin row as coprime ints, so
Fractions appear there only in multipliers, bounds and certificates. There
is no floating point and no tolerance. A hypergraph is either separable (a
vertex labeling x realizes the edge set as the k-sets of nonnegative sum) or
equatable (a nonnegative, nonzero k-set labeling balances edge mass against
non-edge mass at every vertex), never both; decide() returns whichever
certificate exists and always self-checks it before returning.

Two independent deciders are provided: decide() runs an exact phase-I simplex
(Bland's rule, lexicographic column order), and decide_fm() runs
Fourier-Motzkin elimination with multiplier tracking. They share only the
verifiers and the _package_* certificate checks with their _coprime_factor
scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Optional, Union

from .errors import BudgetExceeded, Inapplicable, InternalVerificationError
from .hypercore import CERT_SEARCH_BUDGET, FM_ROW_BUDGET, FM_VERTEX_BUDGET, Hypergraph, KSet, all_ksets, capped_comb, check_budget

SetLabeling = dict[KSet, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class SeparableCertificate:
    """Vertex labeling whose nonnegative-sum k-sets are exactly the edges."""

    x: tuple[Fraction, ...]

    kind = "separable"


@dataclass(frozen=True)
class EquatableCertificate:
    """Nonnegative nonzero k-set labeling balancing edges against non-edges
    at every vertex; stored sparsely as sorted (k-set, value) entries."""

    y: tuple[tuple[KSet, Fraction], ...]

    kind = "equatable"

    def as_dict(self) -> SetLabeling:
        return dict(self.y)


Certificate = Union[SeparableCertificate, EquatableCertificate]


@dataclass(frozen=True)
class FarkasSystem:
    """The inequality system Ax <= b whose feasibility is separability.

    Rows are indexed by all k-subsets G in lexicographic order. An edge row
    reads -x(G) <= 0 and a non-edge row reads x(G) <= -1, so a solution x
    satisfies x(E) >= 0 exactly on edges and x(F) < 0 strictly on non-edges.
    decide_fm() and the tests use this dense form; decide() reads the same
    rows straight from the k-sets.
    """

    rows: tuple[KSet, ...]
    matrix: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]


def build_system(h: Hypergraph, budget: Optional[int] = None) -> FarkasSystem:
    rows = all_ksets(h.n, h.k, budget)
    matrix = []
    rhs = []
    for g in rows:
        is_edge = g in h.edges
        sign = -1 if is_edge else 1
        row = [0] * h.n
        for v in g:
            row[v - 1] = sign
        matrix.append(tuple(row))
        rhs.append(0 if is_edge else -1)
    return FarkasSystem(rows, tuple(matrix), tuple(rhs))


def _coprime_factor(values: list[Fraction]) -> Fraction:
    """The positive rational scaling values to coprime integers (1 if all are 0)."""
    nonzero = [v for v in values if v]
    if not nonzero:
        return ONE
    denom_lcm = lcm(*(v.denominator for v in nonzero))
    return Fraction(denom_lcm, gcd(*(v.numerator * (denom_lcm // v.denominator) for v in nonzero)))


def _package_separable(h: Hypergraph, x: list[Fraction]) -> SeparableCertificate:
    scale = _coprime_factor(x)
    cert = SeparableCertificate(tuple(v * scale for v in x))
    violation = separating_violation(h, cert.x)
    if violation is not None:
        raise InternalVerificationError(f"separable certificate fails at {violation}")
    return cert


def _package_equatable(h: Hypergraph, labeling: SetLabeling) -> EquatableCertificate:
    keys = sorted(g for g, v in labeling.items() if v)
    scale = _coprime_factor([labeling[g] for g in keys])
    cert = EquatableCertificate(tuple((g, labeling[g] * scale) for g in keys))
    violation = equatable_violation(h, cert.as_dict())
    if violation is not None:
        raise InternalVerificationError(f"equatable certificate fails: {violation}")
    return cert


def separating_violation(h: Hypergraph, x) -> Optional[KSet]:
    """First k-set (lexicographic) violating the separability equation, or None."""
    vals = [Fraction(v) for v in x]
    if len(vals) != h.n:
        raise ValueError(f"labeling has length {len(vals)}, expected {h.n}")
    # Scaling by the positive lcm of the denominators keeps every sign, so
    # the k-set sums can be taken over ints (w is indexed by vertex).
    scale = lcm(*(v.denominator for v in vals))
    w = [0] + [v.numerator * (scale // v.denominator) for v in vals]
    for g in combinations(range(1, h.n + 1), h.k):
        if (g in h.edges) != (sum(map(w.__getitem__, g)) >= 0):
            return g
    return None


def verify_separating(h: Hypergraph, x) -> bool:
    return separating_violation(h, x) is None


def equatable_violation(h: Hypergraph, y: SetLabeling) -> Optional[str]:
    """Human-readable description of the first defect in y, or None if valid."""
    for g in sorted(y):
        # A k-subset of 1..n is exactly a strictly increasing k-tuple within 1..n.
        if not (len(g) == h.k and 1 <= g[0] and g[-1] <= h.n and all(a < b for a, b in zip(g, g[1:]))):
            return f"set {g} is not a {h.k}-subset of 1..{h.n}"
        if y[g] < 0:
            return f"set {g} has negative value {y[g]}"
    if not any(y.values()):
        return "labeling is identically zero"
    # Int masses scaled as in separating_violation, kept only for the vertices
    # y names: every other vertex has mass 0 on both sides.
    scale = lcm(*(val.denominator for val in y.values()))
    edge_mass: dict[int, int] = {}
    non_mass: dict[int, int] = {}
    for g, val in y.items():
        mass = edge_mass if g in h.edges else non_mass
        w = val.numerator * (scale // val.denominator)
        for v in g:
            mass[v] = mass.get(v, 0) + w
    for v in sorted(edge_mass.keys() | non_mass.keys()):
        e, f = edge_mass.get(v, 0), non_mass.get(v, 0)
        if e != f:
            return f"vertex {v} imbalanced: edge mass {Fraction(e, scale)}, non-edge mass {Fraction(f, scale)}"
    return None


def verify_equatable(h: Hypergraph, y: SetLabeling) -> bool:
    return equatable_violation(h, y) is None


def decide(h: Hypergraph, budget: Optional[int] = None) -> Certificate:
    """Classify h, returning a certificate that has passed its verifier.

    Runs an exact phase-I simplex on the alternative (equatability) system
    y A = 0, y >= 0, y b = -1 in equality form: feasibility yields y directly,
    and on infeasibility the final dual values scale to a separating x. Bland's
    rule plus the fixed lexicographic column order make the result
    deterministic within a build.

    The simplex is revised and fraction-free (Bareiss). The full int tableau
    is d times the true one, d being the last pivot (1 at the start); of it
    only the artificial block, which is d B^-1, the rhs column and the
    artificial part of the objective row with its rhs cell are stored, all
    ints. Column j of the full tableau is that block times column j of the
    equality rows A', and its reduced cost is sum_i (z[i] - d) A'_ij, so
    both are computed from the k-set's at most k+1 nonzeros when needed.
    The Bareiss update works column by column, so every stored int equals
    the one the full tableau would hold; the scan (y-columns, then
    artificial columns), ratio test and tie-breaks read the same values, so
    the pivot sequence and the answer are those of the full tableau. Pivots
    are positive, so d stays positive and signs and ratios are the true
    ones. Fractions appear only in the answer.
    """
    rows = all_ksets(h.n, h.k, budget)
    m = len(rows)
    n = h.n
    # Column j of A' (vertex-balance rows, then the normalization row -b . y
    # = 1) is sign on the rows v - 1 of the vertices v of k-set j: -1 for an
    # edge; +1 for a non-edge, which also has +1 in row n.
    columns = [(-1, idx) if g in h.edges else (1, idx + (n,))
               for g, idx in zip(rows, combinations(range(n), h.k))]
    # tableau[i] = row i of d B^-1 followed by the rhs cell; the basis starts
    # as the artificial columns m..m+n, and the rhs is 1 only in row n.
    tableau = [[int(i == c) for c in range(n + 1)] + [int(i == n)] for i in range(n + 1)]
    basis = [m + i for i in range(n + 1)]
    # Phase-I objective row on the artificial columns plus its rhs cell (minus
    # the objective value). d times the dual price of row i is d - z[i], so
    # the reduced cost of y-column j is sum_i (z[i] - d) A'_ij.
    z = [0] * (n + 1) + [-1]
    d = 1

    while True:
        price = [c - d for c in z].__getitem__
        for pivot_col, (sign, idx) in enumerate(columns):
            cost = sign * sum(map(price, idx))
            if cost < 0:
                col = [sign * sum(map(row.__getitem__, idx)) for row in tableau]
                break
        else:
            # No y-column prices out: Bland's order goes on to the artificials.
            i = next((i for i in range(n + 1) if z[i] < 0), -1)
            if i < 0:
                break
            pivot_col, cost = m + i, z[i]
            col = [row[i] for row in tableau]
        # Ratio test rhs_i / coeff_i by cross-multiplication (coefficients
        # are positive); ties go to the smaller basic column.
        pivot_row = -1
        for i, coeff in enumerate(col):
            if coeff > 0:
                if pivot_row < 0:
                    pivot_row = i
                    continue
                lhs = tableau[i][-1] * col[pivot_row]
                rhs = tableau[pivot_row][-1] * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[pivot_row]):
                    pivot_row = i
        if pivot_row < 0:
            raise InternalVerificationError("phase-I simplex unbounded")
        # Integer-preserving update: the pivot row stays as it is, every
        # other row becomes (p * row - row[c] * prow) / d, exactly by
        # Sylvester's identity; then d = p.
        prow = tableau[pivot_row]
        p = col[pivot_row]
        for target, f in zip(tableau + [z], col + [cost]):
            if target is prow:
                continue
            if f:
                target[:] = [(p * a - f * b) // d for a, b in zip(target, prow)]
            elif p != d:
                target[:] = [p * a // d for a in target]
        d = p
        basis[pivot_row] = pivot_col

    if z[-1] == 0:  # phase-I optimum 0: the alternative system is feasible
        labeling: SetLabeling = {}
        for i, j in enumerate(basis):
            if j < m and tableau[i][-1]:
                labeling[rows[j]] = Fraction(tableau[i][-1], d)
        return _package_equatable(h, labeling)

    # Infeasible: dual values u_i = 1 - reduced cost of artificial i, that is
    # (d - z[i]) / d, satisfy A (u[:n]) <= u[n] b with u[n] = objective > 0,
    # so x = u[:n] / u[n] and the d cancels.
    lam = d - z[n]
    if lam <= 0:
        raise InternalVerificationError("Farkas scaling factor not positive")
    return _package_separable(h, [Fraction(d - z[i], lam) for i in range(n)])


# ---------------------------------------------------------------------------
# Fourier-Motzkin route
# ---------------------------------------------------------------------------

def decide_fm(h: Hypergraph) -> Certificate:
    """Same contract as decide(), via Fourier-Motzkin elimination on Ax <= b.

    Each row is one int list, the n coefficients then the rhs, with no common
    factor: eliminating var combines a row p positive on it with a row q
    negative on it as (-q[var]) p + p[var] q over their gcd, and of rows with
    equal coefficients keeps the first of smallest rhs. Each row carries the
    nonnegative multiplier vector that derives it from the original rows,
    combined from the same two factors over the same gcd, so an all-zero row
    with negative rhs hands us the equatability labeling directly. Fractions
    appear only in multipliers, back-substituted bounds and the certificate.
    """
    if h.n > FM_VERTEX_BUDGET:
        raise BudgetExceeded(f"Fourier-Motzkin guard: n = {h.n} > {FM_VERTEX_BUDGET}")
    system = build_system(h)
    m = len(system.rows)
    n = h.n
    kept: dict[tuple[int, ...], tuple[list[int], list]] = {}

    def keep(row: list[int], mult: list) -> None:
        # An all-zero row is trivially true unless it is a contradiction.
        key = tuple(row[:n])
        if any(key) or row[n] < 0:
            old = kept.get(key)
            if old is None or row[n] < old[0][n]:
                kept[key] = (row, mult)

    for i, (coeffs, rhs) in enumerate(zip(system.matrix, system.rhs)):
        keep([*coeffs, rhs], [int(i == j) for j in range(m)])
    stages: list[list[tuple[list[int], list]]] = []
    for var in range(n + 1):
        rows = list(kept.values())
        if len(rows) > FM_ROW_BUDGET:
            raise BudgetExceeded("Fourier-Motzkin row blowup")
        bad = kept.get((0,) * n)
        if bad is not None:
            return _package_equatable(h, {g: c for g, c in zip(system.rows, bad[1]) if c})
        if var == n:
            break
        stages.append(rows)
        kept = {}
        for row, mult in rows:
            if not row[var]:
                keep(row, mult)
        pos = [r for r in rows if r[0][var] > 0]
        neg = [r for r in rows if r[0][var] < 0]
        for p, pm in pos:
            for q, qm in neg:
                a, b = -q[var], p[var]
                row = [a * s + b * t for s, t in zip(p, q)]
                mult = [a * s + b * t for s, t in zip(pm, qm)]
                g = gcd(*row)
                if g > 1:
                    row = [c // g for c in row]
                    mult = [Fraction(c, g) for c in mult]
                keep(row, mult)

    # Feasible: back-substitute, tightest lower bound first, else upper, else 0.
    x: list[Fraction] = [ZERO] * n
    for var in range(n - 1, -1, -1):
        lower: list[Fraction] = []
        upper: list[Fraction] = []
        for row, _ in stages[var]:
            if row[var]:
                bound = Fraction(row[n] - sum(row[w] * x[w] for w in range(var + 1, n)), row[var])
                (upper if row[var] > 0 else lower).append(bound)
        x[var] = max(lower) if lower else min(upper, default=ZERO)
    return _package_separable(h, x)


# ---------------------------------------------------------------------------
# 0/1 certificate search
# ---------------------------------------------------------------------------


def find_binary_certificate(
    h: Hypergraph, max_support: int, budget: Optional[int] = None
) -> Optional[SetLabeling]:
    """Smallest-support 0/1 labeling satisfying the balance equations, if any.

    Returns the lexicographically first support of the smallest feasible
    size, exactly as a naive (size, then lexicographic) scan would. Summing
    the balance equations over all vertices forces the support to contain
    equally many edges and non-edges, so odd sizes are skipped and each even
    size 2t is searched by matching vertex-count vectors of t-subsets of
    edges against t-subsets of non-edges, for t up to the smaller count. The
    combinations walked are gated first (CERT_SEARCH_BUDGET when budget is None).
    """
    if max_support < 1:
        raise Inapplicable(f"max_support must be positive, got {max_support}")
    edges = h.sorted_edges()
    non = h.non_edges()
    sizes = range(1, min(max_support // 2, len(edges), len(non)) + 1)
    check_budget(budget, CERT_SEARCH_BUDGET,
                 lambda cap: (capped_comb(len(edges), t, cap) + capped_comb(len(non), t, cap) for t in sizes),
                 f"certificate search of {len(edges)} edges and {len(non)} non-edges up to support {max_support}")

    def count_vector(sets: tuple[KSet, ...]) -> tuple[int, ...]:
        counts = [0] * h.n
        for g in sets:
            for v in g:
                counts[v - 1] += 1
        return tuple(counts)

    for t in sizes:
        by_vector: dict[tuple[int, ...], list[tuple[KSet, ...]]] = {}
        for ec in combinations(edges, t):
            by_vector.setdefault(count_vector(ec), []).append(ec)
        best: Optional[tuple[KSet, ...]] = None
        for fc in combinations(non, t):
            for ec in by_vector.get(count_vector(fc), ()):
                support = tuple(sorted(ec + fc))
                if best is None or support < best:
                    best = support
        if best is not None:
            return {g: ONE for g in best}
    return None
