"""Exact rational separability decision with independently verifiable certificates.

All arithmetic is exact: certificates and verifiers use fractions.Fraction.
The revised simplex in decide() keeps d B^-1, the rhs column and the
artificial part of the objective row as ints over one shared positive
denominator d; each column of d B^-1 is one int of fixed-width fields, one
per row, wide enough by Hadamard's bound for any value the fraction-free
pivots store. Bland's scan prices a block of k-set columns with one sum of
packed ints, their fields as wide as the costs they hold. What those columns
are depends on (n, k) alone, so decide() keeps the k-set universe and the
blocks' 0/1 vertex rows for the last few shapes it met that are not too
large to keep (_Columns), behind
the C(n,k) gate at the caller's budget and a gate on the words of packed
state, and builds only each instance's edge flags and signs. decide_fm() keeps
every Fourier-Motzkin row as coprime ints, so Fractions appear there only in
multipliers, bounds and certificates. There is no floating point and no
tolerance. A hypergraph is either separable (a vertex labeling x realizes
the edge set as the k-sets of nonnegative sum) or equatable (a nonnegative,
nonzero k-set labeling balances edge mass against non-edge mass at every
vertex), never both; decide() returns whichever certificate exists and
always self-checks it before returning.

Two independent deciders are provided: decide() runs an exact phase-I simplex
(Bland's rule, lexicographic column order) to objective zero or to Bland's
optimum, whichever comes first, and decide_fm() runs
Fourier-Motzkin elimination with multiplier tracking. They share only the
verifiers and the _package_* certificate checks with their _coprime_factor
scaling.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, compress, islice, repeat
from math import comb, gcd, lcm
from operator import attrgetter, mul, ne
from typing import Iterator, Optional, Union

from .errors import Inapplicable, InternalVerificationError
from .hypercore import (CERT_SEARCH_BUDGET, FM_ROW_BUDGET, FM_VERTEX_BUDGET, PACKED_WORD_BUDGET, Hypergraph, KSet,
                        all_ksets, capped_comb, _edge_fault, _ksets_valid, check_budget, check_ksets, record)

SetLabeling = dict[KSet, Fraction]
Rational = Union[int, Fraction]

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


def _coprime_factor(values: list[Rational]) -> Fraction:
    """The positive rational scaling values, ints or Fractions, to coprime integers (1 if all
    are 0). The scaled values are the same for any positive multiple of values."""
    nonzero = [v for v in values if v]
    if not nonzero:
        return ONE
    denom_lcm = lcm(*(v.denominator for v in nonzero))
    return Fraction(denom_lcm, gcd(*(v.numerator * (denom_lcm // v.denominator) for v in nonzero)))


def _package_separable(h: Hypergraph, x: list[Rational]) -> SeparableCertificate:
    scale = _coprime_factor(x)
    cert = SeparableCertificate(tuple(v * scale for v in x))
    violation = separating_violation(h, cert.x)
    if violation is not None:
        raise InternalVerificationError(f"separable certificate fails at {violation}")
    return cert


def _package_equatable(h: Hypergraph, labeling: dict[KSet, Rational]) -> EquatableCertificate:
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
    # the k-set sums can be taken over ints. combinations(w, k) yields the
    # weights of the k-sets in the order combinations(vertices, k) yields them.
    scale = lcm(*(v.denominator for v in vals))
    w = [v.numerator * (scale // v.denominator) for v in vals]
    vertices = range(1, h.n + 1)
    wrong = map(ne, map(h.edges.__contains__, combinations(vertices, h.k)),
                map((0).__le__, map(sum, combinations(w, h.k))))
    return next(compress(combinations(vertices, h.k), wrong), None)


def verify_separating(h: Hypergraph, x) -> bool:
    return separating_violation(h, x) is None


def equatable_violation(h: Hypergraph, y: SetLabeling) -> Optional[str]:
    """Human-readable description of the first defect in y, or None if valid."""
    # One pass over the sets and one over the numerators finds no defect in a
    # valid y; the loop below runs only to name the first defect.
    if not (_ksets_valid(y, h.n, h.k) and {Fraction}.issuperset(map(type, y.values()))
            and min(map(attrgetter("numerator"), y.values()), default=0) >= 0):
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
            return f"vertex {v} imbalanced: edge mass {_mass_text(e, scale)}, non-edge mass {_mass_text(f, scale)}"
    return None


def _mass_text(mass: int, scale: int) -> str:
    """str(Fraction(mass, scale)), or the bit lengths of its terms where str refuses an int of too many digits."""
    value = Fraction(mass, scale)
    try:
        return str(value)
    except ValueError:
        return f"a {value.numerator.bit_length()}-bit integer over a {value.denominator.bit_length()}-bit integer"


def verify_equatable(h: Hypergraph, y: SetLabeling) -> bool:
    return equatable_violation(h, y) is None


def _field_width(n: int, k: int) -> int:
    """Bits per field of decide()'s packed columns: 2^(w-1) > (k+1)^((n+1)/2)."""
    return ((k + 1) ** (n + 1)).bit_length() // 2 + 2


def _price_bytes(need: int) -> int:
    """Bytes per field of decide()'s packed reduced costs: the fewest that hold need bits."""
    return -(-need // 8)


class _Columns:
    """The parts of decide()'s k-set columns that depend on (n, k) alone:
    the k-set universe rows (the columns, in order), the spans of the
    pricing blocks, and each block built so far, keyed by block and field
    width q. Made only once the shape's packed state passes its gate, which
    counts one byte per field; a block is kept once per width asked for,
    one or two bytes on every instance measured. words is the price rows'
    part of that count."""

    __slots__ = ("n", "k", "rows", "spans", "units", "blocks", "words")

    def __init__(self, n: int, k: int, budget: Optional[int]) -> None:
        m = comb(n, k)
        self.words = (n + 1) * -(-m // 8)  # price rows: at most n + 1 per block, one byte per column

        def words(cap: int) -> Iterator[int]:
            yield self.words
            # n + 2 columns of d B^-1 and the rhs, n + 1 fields each. As (k+1)^(n+1) >= 2^(n+1), the field
            # width is at least (n + 2) // 2 + 2, and a tableau already past the cap at that width is refused
            # before the width, a power of about n log(k+1) bits, is worked out.
            tableau = (n + 2) * -(-(n + 1) * ((n + 2) // 2 + 2) // 64)
            yield tableau if tableau > cap else (n + 2) * -(-(n + 1) * _field_width(n, k) // 64)

        check_budget(None, PACKED_WORD_BUDGET, words,
                     "packed simplex state of C({},{}) columns in >= {count} 64-bit words", n, k)
        self.n, self.k, self.rows = n, k, all_ksets(n, k, budget)
        # Block b prices columns 16 (2^b - 1) up to the next block's start.
        self.spans = [(start, min(2 * start + 16, m)) for start in (16 * ((1 << b) - 1) for b in range(m.bit_length()))
                      if start < m]
        self.units = [1 << 8 * i for i in range(n)]
        self.blocks: dict[tuple[int, int], tuple[list[int], list[int], int]] = {}

    def block(self, b: int, q: int) -> tuple[list[int], list[int], int]:
        """The vertex rows that the columns of block b meet, one int per such
        row whose field j of q bytes is 1 where the row meets column j, and the
        int with the top bit of every field set.

        Byte i of a column's record is 1 where vertex row i meets it. Written
        out in q n bytes each, zero past byte n - 1, every n-th byte from byte
        i is row i's entry in one column after another, q bytes apart: one
        slice of the bytes is the 0/1 pattern of a row."""
        if (b, q) not in self.blocks:
            n, (start, stop) = self.n, self.spans[b]
            records = map(sum, islice(combinations(self.units, self.k), start, stop))
            data = b"".join(map(int.to_bytes, records, repeat(q * n), repeat("little")))
            rows = [int.from_bytes(data[i::n], "little") for i in range(n)]
            touched = [i for i, x in enumerate(rows) if x]
            tops = int.from_bytes(b"\x80".rjust(q, b"\0") * (stop - start), "little")
            self.blocks[b, q] = touched, [rows[i] for i in touched], tops
        return self.blocks[b, q]


# decide()'s _Columns of the last COLUMN_INDEX_ENTRIES (n, k) shapes it met and kept, oldest first.
COLUMN_INDEX_ENTRIES = 8
_column_index: dict[tuple[int, int], _Columns] = {}


def _columns(n: int, k: int, budget: Optional[int]) -> _Columns:
    """The kept _Columns of (n, k), built on the first decide of the shape. A
    shape whose price rows take more than a COLUMN_INDEX_ENTRIES-th of
    PACKED_WORD_BUDGET words is built for each decide and not kept, so the
    index holds at most PACKED_WORD_BUDGET of them (G(250, 1/2) is past its
    share, G(150, 1/2) within it)."""
    columns = _column_index.get((n, k))
    if columns is None:
        columns = _Columns(n, k, budget)
        if columns.words <= PACKED_WORD_BUDGET // COLUMN_INDEX_ENTRIES:
            if len(_column_index) == COLUMN_INDEX_ENTRIES:
                del _column_index[next(iter(_column_index))]
            _column_index[n, k] = columns
    return columns


def _price_block(columns: _Columns, b: int, q: int, edge: bytes) -> tuple[list[int], list[int], int]:
    """Block b of columns at fields of q bytes, signed for one instance: the
    rows its columns meet, one int per row whose field j is the row's entry in
    column j, and the int with the top bit of every field set. edge holds one
    byte per k-set, 1 on an edge: row i's entry is -1 on an edge and +1 on a
    non-edge, and row n, the normalization row, is 1 on each non-edge."""
    touched, rows, tops = columns.block(b, q)
    start, stop = columns.spans[b]
    flags = bytearray(q * (stop - start))
    flags[::q] = edge[start:stop]
    edges = int.from_bytes(flags, "little")
    non_edges = (tops >> 8 * q - 1) - edges
    packed = [x - 2 * (x & edges) for x in rows]
    if non_edges:
        return touched + [columns.n], packed + [non_edges], tops
    return touched, packed, tops


def decide(h: Hypergraph, budget: Optional[int] = None) -> Certificate:
    """Classify h, returning a certificate that has passed its verifier.

    Runs an exact phase-I simplex on the alternative (equatability) system
    y A = 0, y >= 0, y b = -1 in equality form: feasibility yields y directly,
    and on infeasibility the final dual values scale to a separating x. Bland's
    rule plus the fixed lexicographic column order make the result
    deterministic within a build.

    The pivots stop once the objective is zero, and the labeling read there
    is the one Bland's rule would end with. The objective is nonnegative, so
    every pivot Bland's rule would take after that point has step 0: the
    pivot row's rhs is 0. So a Bareiss pivot turns each row's rhs_i into
    p rhs_i / d and d into p, which keeps every rhs_i / d, and the variable
    that leaves and the one that enters both have value 0. The labeling,
    rows[j]: rhs_i / d over the nonzero rhs_i of the k-set columns, is
    therefore the same dict. A separable h never reaches zero and runs to
    Bland's optimum.

    The simplex is revised and fraction-free (Edmonds 1967, Bareiss 1968).
    The full int tableau is d times the true one, d being the last pivot (1
    at the start); of it only d B^-1, the rhs column and the artificial part
    of the objective row with its rhs cell are stored. Column j of the full
    tableau is d B^-1 times column j of the equality rows A', computed from
    the k-set's at most k+1 nonzeros when it enters. Every stored int equals
    the one the full tableau would hold, so the pivot sequence and the answer
    are the full tableau's; pivots are positive, so d > 0 and signs and ratios
    are true. Each column of d B^-1, and the rhs, is one int, row i's entry in
    field i of w = _field_width(n, k) bits, signed: by Cramer's rule each
    stored int, d and entering entry is +- an (n+1)-minor of [A' I b], whose
    columns have norm <= sqrt(k+1), so Hadamard's inequality bounds it by
    (k+1)^((n+1)/2) < 2^(w-1). Packing is linear, and each field of a
    column's update numerator is a Bareiss numerator, a multiple of d, so
    one exact // updates the whole column. Fractions appear only in the answer.

    Pricing is packed too. The reduced cost of y-column j is
    c_j = sum_i p_i A'_ij with p_i = z[i] - d. The k-set columns are cut, in
    order, into blocks of 16, 32, 64, ... columns; a block keeps, for each
    row i its columns meet, one int R_i whose field j of f bits is A'_ij,
    0 or +-1, so sum_i p_i R_i is the int whose field j is c_j. Column j
    has at most k+1 nonzeros, so |c_j| <= (k+1) max_i |p_i| < 2^(need-1),
    need being read off the prices before each scan, and f >= need. Adding
    the top bit 2^(f-1) of every field therefore puts c_j + 2^(f-1) in
    [0, 2^f) in field j: no field borrows from or carries into the next,
    and field j's top bit is clear exactly when c_j < 0. The lowest clear
    top bit of the first block that has one is Bland's entering column, the
    one a column-by-column scan returns, so pivots and certificates do not
    change. f is a whole number of bytes (_price_bytes). A block's rows
    come from the shape's _Columns, which builds the 0/1 vertex rows of
    each (block, width) once, from one byte per row and column, and keeps
    them for every later decide of (n, k); a decide signs them the first
    time its scan reaches the block, as x - 2 (x & e) with e the block's
    edge flags, and adds row n, the non-edge flags. All are dropped, to be
    signed again at the new width, only when need outgrows f. The blocks
    double so that a scan stopping in column j has priced at most 2j + 16
    columns, one block sum each of a logarithmic number of blocks. On
    average a scan reads 38 of 172 columns on the decide-random bench's
    instances, 73 of 11175 on a G(150, 1/2) graph.

    Two gates run before anything is built. The C(n,k) gate runs on every
    call, at budget (KSET_BUDGET when None). A decide that builds its
    shape's _Columns (the first, or each of a shape too large to keep) also
    gates the 64-bit words of its packed state, n + 2 columns of n + 1
    fields of w bits and n + 1 price rows of one byte per column, at
    PACKED_WORD_BUDGET, which budget does not change; a kept _Columns
    stands for a shape that passed it.
    """
    n = h.n
    check_ksets(n, h.k, budget)
    columns = _columns(n, h.k, budget)
    rows, spans = columns.rows, columns.spans
    m = len(rows)
    # Column j of A' (vertex-balance rows, then the normalization row -b . y
    # = 1) is sign on the rows v - 1 of the vertices v of k-set j: -1 for an
    # edge; +1 for a non-edge, which also has +1 in row n. Byte j of edge is
    # 1 where k-set j is an edge.
    edge = bytes(map(h.edges.__contains__, rows))
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

    blocks: list[tuple[list[int], list[int], int]] = []
    f = 0  # bits per field of the blocks

    while z[-1]:
        price = [c - d for c in z[:-1]]
        need = ((h.k + 1) * max(max(price), -min(price))).bit_length() + 1
        if need > f:
            q = _price_bytes(need)
            f, blocks = 8 * q, []
        for b, (start, stop) in enumerate(spans):
            if b == len(blocks):
                blocks.append(_price_block(columns, b, q, edge))
            touched, packed, tops = blocks[b]
            costs = tops + sum(map(mul, map(price.__getitem__, touched), packed))
            if negative := tops & ~costs:
                j = (negative & -negative).bit_length() // f - 1
                pivot_col, cost = start + j, (costs >> f * j & (1 << f) - 1) - (1 << f - 1)
                entering = sum([cols[v - 1] for v in rows[pivot_col]])
                entering = -entering if edge[pivot_col] else entering + cols[n]
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

    if z[-1] == 0:  # objective 0: the alternative system is feasible, y = rhs / d, d scaled away in packaging
        rhs = [((cols[-1] + bias) >> s & mask) - half for s in shifts]
        return _package_equatable(h, {rows[j]: rhs[i] for i, j in enumerate(basis) if j < m and rhs[i]})

    # Infeasible: dual values u_i = 1 - reduced cost of artificial i, that is
    # (d - z[i]) / d, satisfy A (u[:n]) <= u[n] b with u[n] = objective > 0,
    # so x = u[:n] / u[n] = (d - z[:n]) / lam, and packaging scales away the lam.
    lam = d - z[n]
    if lam <= 0:
        raise InternalVerificationError("Farkas scaling factor not positive")
    return _package_separable(h, [d - z[i] for i in range(n)])


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
    check_budget(None, FM_VERTEX_BUDGET, lambda cap: [h.n], "Fourier-Motzkin elimination on {count} vertices")
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
        check_budget(None, FM_ROW_BUDGET, lambda cap: [len(rows)], "Fourier-Motzkin stage of {count} rows")
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
                 "certificate search of {} edges and {} non-edges up to support {}", len(edges), len(non), max_support)

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
