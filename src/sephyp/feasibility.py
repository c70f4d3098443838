"""Exact rational separability decision with independently verifiable certificates.

All arithmetic is exact: certificates and verifiers use fractions.Fraction.
The revised simplex in decide() keeps d B^-1, the rhs column and the
artificial part of the objective row as ints over one shared positive
denominator d, pricing each k-set column from the k-set itself when it is
needed; each column of d B^-1 is one int of fixed-width fields, one per
row, wide enough by Hadamard's bound for any value the fraction-free pivots
store. decide_fm() keeps every Fourier-Motzkin row as coprime ints, so
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

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Optional, Union

from .errors import BudgetExceeded, Inapplicable, InternalVerificationError
from .hypercore import (CERT_SEARCH_BUDGET, FM_ROW_BUDGET, FM_VERTEX_BUDGET, Hypergraph, KSet, all_ksets, capped_comb,
                        _edge_fault, check_budget, record)

SetLabeling = dict[KSet, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


@record
class SeparableCertificate:
    """Vertex labeling whose nonnegative-sum k-sets are exactly the edges."""

    x: tuple[Fraction, ...]

    kind = "separable"


@record
class EquatableCertificate:
    """Nonnegative nonzero k-set labeling balancing edges against non-edges
    at every vertex; stored sparsely as sorted (k-set, value) entries."""

    y: tuple[tuple[KSet, Fraction], ...]

    kind = "equatable"

    def as_dict(self) -> SetLabeling:
        return dict(self.y)


Certificate = Union[SeparableCertificate, EquatableCertificate]


@record
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
        if _edge_fault(g, h.n, h.k):  # a k-subset of 1..n is exactly a valid edge
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


def _field_width(n: int, k: int) -> int:
    """Bits per field of decide()'s packed columns: 2^(w-1) > (k+1)^((n+1)/2)."""
    return ((k + 1) ** (n + 1)).bit_length() // 2 + 2


def decide(h: Hypergraph, budget: Optional[int] = None) -> Certificate:
    """Classify h, returning a certificate that has passed its verifier.

    Runs an exact phase-I simplex on the alternative (equatability) system
    y A = 0, y >= 0, y b = -1 in equality form: feasibility yields y directly,
    and on infeasibility the final dual values scale to a separating x. Bland's
    rule plus the fixed lexicographic column order make the result
    deterministic within a build.

    The simplex is revised and fraction-free (Edmonds 1967, Bareiss 1968).
    The full int tableau is d times the true one, d being the last pivot (1
    at the start); of it only d B^-1, the rhs column and the artificial part
    of the objective row with its rhs cell are stored. Column j of the full
    tableau is d B^-1 times column j of the equality rows A', and its
    reduced cost is sum_i (z[i] - d) A'_ij, both computed from the k-set's
    at most k+1 nonzeros when needed. Every stored int equals the one the
    full tableau would hold, so the pivot sequence and the answer are the
    full tableau's; pivots are positive, so d > 0 and signs and ratios are
    true. Each column of d B^-1, and the rhs, is one int, row i's entry in
    field i of w = _field_width(n, k) bits, signed: by Cramer's rule each
    stored int, d and entering entry is +- an (n+1)-minor of [A' I b], whose
    columns have norm <= sqrt(k+1), so Hadamard's inequality bounds it by
    (k+1)^((n+1)/2) < 2^(w-1). Packing is linear, and each field of a
    column's update numerator is a Bareiss numerator, a multiple of d, so
    one exact // updates the whole column. Fractions appear only in the answer.
    """
    rows = all_ksets(h.n, h.k, budget)
    m = len(rows)
    n = h.n
    # Column j of A' (vertex-balance rows, then the normalization row -b . y
    # = 1) is sign on the rows v - 1 of the vertices v of k-set j: -1 for an
    # edge; +1 for a non-edge, which also has +1 in row n.
    columns = [(-1, idx) if g in h.edges else (1, idx + (n,))
               for g, idx in zip(rows, combinations(range(n), h.k))]
    # cols[c] = column c of d B^-1, then the rhs (e_n), packed. With half added
    # to every field none borrows, so field i of x is ((x + bias) >> w*i & mask) - half.
    w = _field_width(n, h.k)
    half, mask, shifts = 1 << w - 1, (1 << w) - 1, range(0, w * (n + 1), w)
    bias = half * (ones := sum(1 << s for s in shifts))
    cols = [1 << s for s in shifts] + [1 << w * n]
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
                entering = sign * sum(map(cols.__getitem__, idx))
                break
        else:
            # No y-column prices out: Bland's order goes on to the artificials.
            i = next((i for i in range(n + 1) if z[i] < 0), -1)
            if i < 0:
                break
            pivot_col, cost, entering = m + i, z[i], cols[i]
        # Ratio test rhs_i / coeff_i by cross-multiplication over the positive
        # coefficients, the fields with their top bit set once 1 is taken off;
        # ties go to the smaller basic column.
        positive, pivot_row = (entering - ones + bias) & bias, -1
        eb, rb = entering + bias, cols[-1] + bias
        while positive:
            top = positive & -positive
            positive ^= top
            i = top.bit_length() // w - 1
            coeff, b = (eb >> w * i & mask) - half, (rb >> w * i & mask) - half
            if pivot_row < 0 or b * p < pb * coeff or (b * p == pb * coeff and basis[i] < basis[pivot_row]):
                pivot_row, p, pb = i, coeff, b
        if pivot_row < 0:
            raise InternalVerificationError("phase-I simplex unbounded")
        # Integer-preserving update (Sylvester's identity), then d = p: each
        # row i but the pivot row becomes (p * row_i - col[i] * prow) / d, so
        # column c, x, becomes (p * x - prow[c] * low) / d, low being the
        # entering column with d taken off its pivot field.
        shift = w * pivot_row
        prow = [((x + bias) >> shift & mask) - half for x in cols]
        low = entering - (d << shift)
        cols = [(p * x - f * low) // d if f else x if p == d else p * x // d for x, f in zip(cols, prow)]
        z = [(p * a - cost * b) // d for a, b in zip(z, prow)]
        d = p
        basis[pivot_row] = pivot_col

    if z[-1] == 0:  # phase-I optimum 0: the alternative system is feasible
        labeling: SetLabeling = {}
        rhs = [((cols[-1] + bias) >> s & mask) - half for s in shifts]
        for i, j in enumerate(basis):
            if j < m and rhs[i]:
                labeling[rows[j]] = Fraction(rhs[i], d)
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
    edges against t-subsets of non-edges, for t up to the smaller count. A
    vector is packed into one int, a field per vertex wide enough for the
    largest t, so it is the sum of its k-sets' packed vectors. The
    k-set universe behind the non-edges, then the combinations walked, are
    gated first (KSET_BUDGET and CERT_SEARCH_BUDGET when budget is None).
    """
    if max_support < 1:
        raise Inapplicable(f"max_support must be positive, got {max_support}")
    edges = h.sorted_edges()
    non = h.non_edges(budget)
    sizes = range(1, min(max_support // 2, len(edges), len(non)) + 1)
    check_budget(budget, CERT_SEARCH_BUDGET,
                 lambda cap: (capped_comb(len(edges), t, cap) + capped_comb(len(non), t, cap) for t in sizes),
                 f"certificate search of {len(edges)} edges and {len(non)} non-edges up to support {max_support}")

    width = max(sizes, default=0).bit_length()  # a count is at most t, so no field carries
    edge_keys, non_keys = ([sum(1 << width * v for v in g) for g in sets] for sets in (edges, non))

    for t in sizes:
        by_vector: dict[int, list[tuple[KSet, ...]]] = {}
        for ec, key in zip(combinations(edges, t), map(sum, combinations(edge_keys, t))):
            by_vector.setdefault(key, []).append(ec)
        best: Optional[tuple[KSet, ...]] = None
        for fc, key in zip(combinations(non, t), map(sum, combinations(non_keys, t))):
            for ec in by_vector.get(key, ()):
                support = tuple(sorted(ec + fc))
                if best is None or support < best:
                    best = support
        if best is not None:
            return {g: ONE for g in best}
    return None
