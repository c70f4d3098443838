"""Exact LP decision, verifiers, Fourier-Motzkin route, and 0/1 search."""

import gc
import hashlib
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest

from sephyp import feasibility
from sephyp.errors import BudgetExceeded
from sephyp.feasibility import (
    EquatableCertificate,
    SeparableCertificate,
    _field_width,
    _package_equatable,
    _package_separable,
    build_system,
    decide,
    decide_fm,
    equatable_violation,
    find_binary_certificate,
    separating_violation,
    verify_equatable,
    verify_separating,
)
from sephyp.harness import enumerate_hypergraphs
from sephyp.hypercore import Hypergraph
from sephyp.jsonio import certificate_obj, dumps

ZERO6 = tuple(Fraction(0) for _ in range(6))


class TestBuildSystem:
    def test_smallest_legal_instance(self):
        h = Hypergraph.from_edges(3, 1, [(1,)])
        system = build_system(h)
        assert system.rows == ((1,), (2,), (3,))
        assert system.matrix == ((-1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert system.rhs == (0, -1, -1)

    def test_separable_example_shape(self, sep_six):
        system = build_system(sep_six)
        assert len(system.rows) == 20 and len(system.matrix[0]) == 6
        i = system.rows.index((1, 2, 4))
        assert system.matrix[i] == (-1, -1, 0, -1, 0, 0)
        assert system.rhs[i] == 0

    def test_complete_all_zero_rhs(self, complete_two_four):
        system = build_system(complete_two_four)
        assert all(b == 0 for b in system.rhs)
        for row, g in zip(system.matrix, system.rows):
            assert all(row[v - 1] == -1 for v in g)
            assert sum(map(abs, row)) == 2

    def test_budget(self, sep_six):
        with pytest.raises(BudgetExceeded):
            build_system(sep_six, budget=5)


def _per_kset_separating_violation(h, x):
    """separating_violation() as a loop over the k-sets, one int sum each:
    the reference for the streamed version."""
    vals = [Fraction(v) for v in x]
    scale = lcm(*(v.denominator for v in vals))
    w = [0] + [v.numerator * (scale // v.denominator) for v in vals]
    for g in combinations(range(1, h.n + 1), h.k):
        if (g in h.edges) != (sum(map(w.__getitem__, g)) >= 0):
            return g
    return None


class TestVerifiers:
    def test_known_separating_labeling(self, sep_six, sep_six_x):
        assert verify_separating(sep_six, sep_six_x)

    def test_zero_labeling_fails_on_first_non_edge(self, sep_six):
        assert separating_violation(sep_six, ZERO6) == (1, 2, 3)

    def test_zero_labeling_on_complete(self, complete_two_four):
        assert verify_separating(complete_two_four, (Fraction(0),) * 4)

    def test_known_equatable_labelings(self, eq_six, eq_six_y, paving_five, paving_five_y, counterexample_nine, counterexample_nine_y):
        assert verify_equatable(eq_six, eq_six_y)
        assert verify_equatable(paving_five, paving_five_y)
        assert verify_equatable(counterexample_nine, counterexample_nine_y)

    def test_zero_labeling_rejected(self, eq_six):
        assert equatable_violation(eq_six, {}) == "labeling is identically zero"
        assert not verify_equatable(eq_six, {(1, 3, 5): Fraction(0)})

    def test_negative_value_rejected(self, eq_six, eq_six_y):
        bad = dict(eq_six_y)
        bad[(1, 3, 4)] = Fraction(-1)
        assert not verify_equatable(eq_six, bad)

    def test_imbalance_names_vertex(self, eq_six):
        problem = equatable_violation(eq_six, {(1, 3, 4): Fraction(1)})
        assert problem is not None and "vertex" in problem

    def test_first_defect_named_among_bad_sets_and_negative_values(self, eq_six):
        # the first defect in sorted order, named as the per-set loop names it
        assert equatable_violation(eq_six, {(1, 2, 3): Fraction(-1), (0, 1, 2): Fraction(1)}) == (
            "set (0, 1, 2) is not a 3-subset of 1..6")
        assert equatable_violation(eq_six, {(1, 2, 3): Fraction(-1, 2), (4, 5, 7): Fraction(1)}) == (
            "set (1, 2, 3) has negative value -1/2")
        assert equatable_violation(eq_six, {(4, 5, 6): Fraction(1), (2, 1, 3): Fraction(-3)}) == (
            "set (2, 1, 3) is not a 3-subset of 1..6")
        assert equatable_violation(eq_six, {(1, 2, 3): Fraction(1), (1, 2, 4): -1}) == (
            "set (1, 2, 4) has negative value -1")

    def test_separating_violation_matches_per_kset_loop(self):
        rng = random.Random(2206)
        checked = violated = 0
        for h in _decide_random_sample():
            cert = decide(h)
            labelings = [list(cert.x)] if cert.kind == "separable" else []
            labelings.append([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(h.n)])
            for x in labelings:
                bumped = list(x)
                bumped[rng.randrange(h.n)] += Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), 7)
                for labeling in (x, bumped):
                    expected = _per_kset_separating_violation(h, labeling)
                    assert separating_violation(h, labeling) == expected, (h, labeling)
                    checked += 1
                    violated += expected is not None
        assert 0 < violated < checked

    def test_balance_aggregate(self, eq_six, eq_six_y, paving_five, paving_five_y, counterexample_nine, counterexample_nine_y):
        # summing the balance equations over vertices forces equal total mass
        for h, y in [(eq_six, eq_six_y), (paving_five, paving_five_y), (counterexample_nine, counterexample_nine_y)]:
            edge_mass = sum(v for g, v in y.items() if g in h.edges)
            non_mass = sum(v for g, v in y.items() if g not in h.edges)
            assert edge_mass == non_mass


class TestDecide:
    def test_reference_fixture_kinds(self, sep_six, eq_six, paving_five, counterexample_nine):
        assert decide(sep_six).kind == "separable"
        assert decide(eq_six).kind == "equatable"
        assert decide(paving_five).kind == "equatable"
        assert decide(counterexample_nine).kind == "equatable"

    def test_certificates_verify(self, sep_six, eq_six):
        sep = decide(sep_six)
        assert isinstance(sep, SeparableCertificate)
        assert verify_separating(sep_six, sep.x)
        eq = decide(eq_six)
        assert isinstance(eq, EquatableCertificate)
        assert verify_equatable(eq_six, eq.as_dict())

    def test_complete_separable(self, complete_two_four):
        cert = decide(complete_two_four)
        assert cert.kind == "separable"
        assert verify_separating(complete_two_four, cert.x)

    def test_empty_separable(self):
        h = Hypergraph.from_edges(5, 2, [])
        cert = decide(h)
        assert cert.kind == "separable"
        assert all(sum(cert.x[v - 1] for v in g) < 0 for g in combinations(range(1, 6), 2))

    def test_certificates_are_coprime_integers(self, sep_six, eq_six):
        sep = decide(sep_six)
        assert all(v.denominator == 1 for v in sep.x)
        eq = decide(eq_six)
        assert all(v.denominator == 1 and v > 0 for _, v in eq.y)

    def test_deterministic(self, eq_six, sep_six):
        assert decide(eq_six) == decide(eq_six)
        assert decide(sep_six) == decide(sep_six)

    def test_budget(self, counterexample_nine):
        with pytest.raises(BudgetExceeded):
            decide(counterexample_nine, budget=10)

    def test_no_dense_system(self, monkeypatch, sep_six, eq_six, paving_five, counterexample_nine):
        # decide prices its columns from the k-sets; the dense matrix of
        # build_system is left to decide_fm
        fixtures = (sep_six, eq_six, paving_five, counterexample_nine)
        expected = [decide(h) for h in fixtures]

        def dense(*args, **kwargs):
            raise AssertionError("decide built the dense system")

        monkeypatch.setattr("sephyp.feasibility.build_system", dense)
        assert [decide(h) for h in fixtures] == expected

    @pytest.mark.parametrize("n,k", [(11, 4), (13, 5), (16, 6)])
    def test_large_threshold_and_flipped(self, n, k):
        # long pivot sequences and a growing shared denominator, far beyond
        # the shapes the property tests reach
        rng = random.Random(n * 100 + k)
        ksets = list(combinations(range(1, n + 1), k))
        edges = _threshold_edges(rng, ksets, n)
        flips = set(rng.sample(ksets, 3))
        for edge_set, threshold in ((edges, True), (edges ^ flips, False)):
            h = Hypergraph(n, k, frozenset(edge_set))
            cert = decide(h)
            if cert.kind == "separable":
                assert verify_separating(h, cert.x)
            else:
                assert not threshold
                assert verify_equatable(h, cert.as_dict())


class TestDecideFm:
    def test_agrees_with_lp_on_fixtures(self, sep_six, eq_six, paving_five, complete_two_four):
        for h in (sep_six, eq_six, paving_five, complete_two_four):
            assert decide_fm(h).kind == decide(h).kind

    def test_path_four_equatable(self, path_four):
        cert = decide_fm(path_four)
        assert cert.kind == "equatable"
        assert verify_equatable(path_four, cert.as_dict())

    def test_certificates_verify(self, sep_six, eq_six):
        sep = decide_fm(sep_six)
        assert verify_separating(sep_six, sep.x)
        eq = decide_fm(eq_six)
        assert verify_equatable(eq_six, eq.as_dict())

    def test_vertex_guard(self, counterexample_nine):
        with pytest.raises(BudgetExceeded):
            decide_fm(counterexample_nine)

    def test_exhaustive_agreement_n4(self):
        from sephyp.harness import enumerate_hypergraphs

        for h in enumerate_hypergraphs(4, 2):
            assert decide(h).kind == decide_fm(h).kind


class TestBinaryCertificateSearch:
    def test_counterexample_nine_within_two_k(self, counterexample_nine):
        y = find_binary_certificate(counterexample_nine, 6)
        assert y is not None and len(y) <= 6
        assert all(v == 1 for v in y.values())
        assert verify_equatable(counterexample_nine, y)

    def test_equatable_example_four_ones(self, eq_six):
        y = find_binary_certificate(eq_six, 4)
        assert y is not None and len(y) == 4
        assert verify_equatable(eq_six, y)

    def test_complete_has_none(self, complete_two_four):
        assert find_binary_certificate(complete_two_four, 6) is None

    def test_separable_never_yields(self, sep_six):
        assert find_binary_certificate(sep_six, 6) is None

    def test_budget(self, counterexample_nine):
        with pytest.raises(BudgetExceeded):
            find_binary_certificate(counterexample_nine, 12, budget=100)

    def test_smallest_support_first(self, eq_six):
        # the quadruple construction guarantees support 4 exists, so a larger
        # bound must still return a 4-support labeling
        y = find_binary_certificate(eq_six, 8)
        assert y is not None and len(y) == 4

    @staticmethod
    def _tuple_search(h, max_support):
        """The search keyed by count-vector tuples, one built per combination."""
        edges, non = h.sorted_edges(), h.non_edges()

        def count_vector(sets):
            counts = [0] * h.n
            for g in sets:
                for v in g:
                    counts[v - 1] += 1
            return tuple(counts)

        for t in range(1, min(max_support // 2, len(edges), len(non)) + 1):
            by_vector = {}
            for ec in combinations(edges, t):
                by_vector.setdefault(count_vector(ec), []).append(ec)
            supports = [tuple(sorted(ec + fc)) for fc in combinations(non, t)
                        for ec in by_vector.get(count_vector(fc), ())]
            if supports:
                return {g: Fraction(1) for g in min(supports)}
        return None

    def test_packed_keys_match_tuple_keys(self, counterexample_nine):
        # its smallest support is 6, which no random instance below reaches first
        assert find_binary_certificate(counterexample_nine, 6) == self._tuple_search(counterexample_nine, 6)
        rng = random.Random(20261019)
        found = 0
        for n, k in product(range(6, 9), (2, 3)):
            ksets = list(combinations(range(1, n + 1), k))
            for _ in range(4):
                p = rng.choice((0.2, 0.5, 0.8))
                h = Hypergraph(n, k, frozenset(g for g in ksets if rng.random() < p))
                for support in (2, 4, 6):
                    y = find_binary_certificate(h, support)
                    assert y == self._tuple_search(h, support), (n, k, sorted(h.edges), support)
                    found += y is not None
        assert found >= 20  # the comparison covers found supports, not only absences


class TestDichotomy:
    def test_never_both_kinds(self, sep_six, eq_six, paving_five, counterexample_nine, complete_two_four, path_four):
        for h in (sep_six, eq_six, paving_five, counterexample_nine, complete_two_four, path_four):
            kind = decide(h).kind
            if kind == "separable":
                assert find_binary_certificate(h, 2 * h.k) is None
            if h.n <= 6:
                assert decide_fm(h).kind == kind


def _threshold_edges(rng, ksets, n):
    """k-sets of nonnegative sum under a random integer labeling, shifted by
    the median k-set sum so about half the k-sets are edges."""
    x = [rng.randint(-9, 9) for _ in range(n)]
    sums = sorted(sum(x[v - 1] for v in g) for g in ksets)
    median = sums[len(sums) // 2]
    k = len(ksets[0])
    return {g for g in ksets if sum(k * x[v - 1] - median for v in g) >= 0}


def _golden_random_corpus():
    """Fixed seeded corpus with n <= 10, k in {3, 4}: per (n, k), a threshold
    instance, the same with three k-sets flipped, and a uniformly random one,
    twice over."""
    rng = random.Random(20220615)
    corpus = []
    for n, k, _ in product(range(7, 11), (3, 4), range(2)):
        ksets = list(combinations(range(1, n + 1), k))
        edges = _threshold_edges(rng, ksets, n)
        flips = {ksets[rng.randrange(len(ksets))] for _ in range(3)}
        corpus.append(Hypergraph(n, k, frozenset(edges)))
        corpus.append(Hypergraph(n, k, frozenset(edges ^ flips)))
        corpus.append(Hypergraph(n, k, frozenset(g for g in ksets if rng.random() < 0.5)))
    return corpus


def _fm_random_corpus():
    """Fixed seeded corpus of 150 instances with n = 6 and k in {2, 3, 4}:
    per k, 50 instances whose k-sets are edges with a probability drawn
    uniformly per instance, so both outcomes occur."""
    rng = random.Random(20220616)
    corpus = []
    for k in (2, 3, 4):
        ksets = list(combinations(range(1, 7), k))
        for _ in range(50):
            p = rng.random()
            corpus.append(Hypergraph(6, k, frozenset(g for g in ksets if rng.random() < p)))
    return corpus


def _certificate_digest(instances, decider=decide) -> str:
    digest = hashlib.sha256()
    for h in instances:
        digest.update(dumps(certificate_obj(decider(h))).encode())
    return digest.hexdigest()


class TestGoldenCertificates:
    """decide() must keep returning byte-identical certificates; the digests
    were recorded from the Fraction-tableau simplex."""

    @pytest.mark.parametrize(
        "n,k,expected",
        [
            (5, 2, "6714bfc34f8f7ff8217c443a26cd5dc63a309f8c6294853bfe3a0d684157ae74"),
            (5, 3, "4a6aa670a559d4c5e77a088d331618aea7f3facf76cc94ff617e3e34059c306d"),
        ],
    )
    def test_exhaustive(self, n, k, expected):
        assert _certificate_digest(enumerate_hypergraphs(n, k)) == expected

    def test_seeded_random(self):
        assert _certificate_digest(_golden_random_corpus()) == (
            "97696354384f8ba17c16e3d2d61ca26325c2642096e62923d1d993aeebe3d13a"
        )

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_bench_sized_sample(self, monkeypatch, warm):
        # decide-random-sized instances, recorded before decide kept its k-set
        # columns across calls: each decide on an empty index, or every one on
        # an index already holding its shape
        monkeypatch.setattr(feasibility, "_column_index", {})
        sample = _decide_random_sample()
        if warm:
            for h in sample:
                decide(h)

        def decider(h):
            if not warm:
                feasibility._column_index.clear()
            return decide(h)

        assert _certificate_digest(sample, decider) == (
            "cb87f97e62fe197256b4bec677d46466e0c0835ec4313b8cfe58ce5cfde2a471"
        )

    def test_fm_exhaustive(self):
        # decide_fm on every hypergraph with 2 <= n <= 5, recorded before
        # its row scaling was shared with decide
        instances = (h for n in range(2, 6) for k in range(1, n) for h in enumerate_hypergraphs(n, k))
        assert _certificate_digest(instances, decide_fm) == (
            "7083ca4934337d4b8a1b0545fc8d681fc64d524f3b9fb89763cd330f546ac536"
        )

    def test_fm_seeded_random(self):
        # recorded from the Fraction-row elimination
        assert _certificate_digest(_fm_random_corpus(), decide_fm) == (
            "0d4a7550487cf4c851806b9d65cd8b9514e6063a6dfab22e0c5d2f6102021a7d"
        )


def _list_tableau_decide(h):
    """decide() with d B^-1 and the rhs kept as a list of int rows, each
    updated cell by cell, and Bland's scan pricing one column at a time: the
    simplex before its columns and its pricing were packed, kept here only as
    the reference the packed version must reproduce."""
    rows = list(combinations(range(1, h.n + 1), h.k))
    m, n = len(rows), h.n
    columns = [(-1, idx) if g in h.edges else (1, idx + (n,))
               for g, idx in zip(rows, combinations(range(n), h.k))]
    tableau = [[int(i == c) for c in range(n + 1)] + [int(i == n)] for i in range(n + 1)]
    basis = [m + i for i in range(n + 1)]
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
            i = next((i for i in range(n + 1) if z[i] < 0), -1)
            if i < 0:
                break
            pivot_col, cost = m + i, z[i]
            col = [row[i] for row in tableau]
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
    if z[-1] == 0:
        return _package_equatable(h, {rows[j]: Fraction(tableau[i][-1], d)
                                      for i, j in enumerate(basis) if j < m and tableau[i][-1]})
    return _package_separable(h, [Fraction(d - z[i], d - z[n]) for i in range(n)])


def _random_graph(n, seed):
    rng = random.Random(seed)
    return Hypergraph(n, 2, frozenset(g for g in combinations(range(1, n + 1), 2) if rng.random() < 0.5))


def _decide_random_sample():
    """Two threshold instances per decide-random stratum (9 <= n <= 11,
    k in {3, 4}), each also with three k-sets flipped."""
    rng = random.Random(20261020)
    sample = []
    for n, k, _ in product((9, 10, 11), (3, 4), range(2)):
        ksets = list(combinations(range(1, n + 1), k))
        edges = _threshold_edges(rng, ksets, n)
        sample.append(Hypergraph(n, k, frozenset(edges)))
        sample.append(Hypergraph(n, k, frozenset(edges ^ set(rng.sample(ksets, 3)))))
    return sample


def _bareiss_det(matrix):
    a = [list(r) for r in matrix]
    sign, prev = 1, 1
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot], sign = a[pivot], a[c], -sign
        for r in range(c + 1, len(a)):
            for j in range(c + 1, len(a)):
                a[r][j] = (a[r][j] * a[c][c] - a[r][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign * a[-1][-1]


class TestPackedTableau:
    """decide() keeps each column of d B^-1 as one int of fixed-width fields,
    and prices blocks of k-set columns as packed ints."""

    def test_agrees_with_list_tableau(self, monkeypatch):
        rng = random.Random(1606)
        instances = [*enumerate_hypergraphs(5, 3), *_decide_random_sample(), _random_graph(40, 40), _random_graph(90, 90)]
        for n, k, step in ((16, 6, 997), (30, 3, 1301)):
            ksets = list(combinations(range(1, n + 1), k))
            edges = _threshold_edges(rng, ksets, n)
            instances += [Hypergraph(n, k, frozenset(edges)), Hypergraph(n, k, frozenset(edges ^ set(ksets[::step])))]
        instances.append(Hypergraph(30, 3, frozenset(combinations(range(1, 31), 3))))  # no pivot: every block is built
        expected = [_list_tableau_decide(h) for h in instances]
        assert {cert.kind for cert in expected} == {"separable", "equatable"}
        monkeypatch.setattr(feasibility, "_column_index", {})

        def agree(cold):
            # cold: the index holds nothing when each decide starts; warm: it
            # holds what the earlier instances of the shape built
            for h, cert in zip(instances, expected):
                if cold:
                    feasibility._column_index.clear()
                assert decide(h) == cert, (cold, h.n, h.k, sorted(h.edges))

        # Fields start at the narrowest whole byte and widen as the costs grow:
        # count the instances whose blocks are dropped and rebuilt wider.
        fewest = feasibility._price_bytes
        widths = []
        monkeypatch.setattr(feasibility, "_price_bytes", lambda need: widths.append(need) or fewest(need))
        rebuilt = 0
        for h, cert in zip(instances, expected):
            feasibility._column_index.clear()
            start = len(widths)
            assert decide(h) == cert, (h.n, h.k, sorted(h.edges))
            assert fewest(widths[start]) == 1
            rebuilt += len(widths) > start + 1
        assert rebuilt >= 5
        agree(cold=False)
        # Again with a spare byte in every field: the index builds rows of two
        # bytes or more per field, and never reads the one-byte rows.
        monkeypatch.setattr(feasibility, "_price_bytes", lambda need: fewest(need) + 1)
        for cold in (True, False):
            feasibility._column_index.clear()
            agree(cold)
            built = [q for columns in feasibility._column_index.values() for _, q in columns.blocks]
            assert built and min(built) >= 2

    def test_warm_shape_still_gated(self, monkeypatch, counterexample_nine):
        # the C(n,k) gate runs at the caller's budget on every call, before
        # the index is read
        monkeypatch.setattr(feasibility, "_column_index", {})
        message = r"^C\(9,3\) >= 84 k-sets exceeds budget 83$"
        with pytest.raises(BudgetExceeded, match=message):
            decide(counterexample_nine, budget=83)
        assert not feasibility._column_index
        expected = decide(counterexample_nine, budget=84)
        assert list(feasibility._column_index) == [(9, 3)]
        with pytest.raises(BudgetExceeded, match=message):
            decide(counterexample_nine, budget=83)
        assert decide(counterexample_nine) == expected

    def test_index_keeps_at_most_its_entries(self, monkeypatch):
        monkeypatch.setattr(feasibility, "_column_index", {})
        shapes = [(n, k) for n in range(3, 8) for k in range(1, n)]
        entries = feasibility.COLUMN_INDEX_ENTRIES
        assert len(shapes) > 2 * entries
        for n, k in shapes:
            h = Hypergraph(n, k, frozenset(combinations(range(1, n + 1), k)))
            assert decide(h).kind == "separable"
            assert len(feasibility._column_index) <= entries
        # the oldest shape leaves first
        assert list(feasibility._column_index) == shapes[-entries:]

    def test_index_keeps_no_shape_too_large(self, monkeypatch):
        # K250's price rows take 251 * ceil(C(250,2) / 8) words, past a
        # COLUMN_INDEX_ENTRIES-th of PACKED_WORD_BUDGET: after its decide and
        # those of the six decide-random shapes, which are all kept, its
        # universe and rows are freed (the kept entry held about 7.5 MB)
        monkeypatch.setattr(feasibility, "_column_index", {})
        large = Hypergraph(250, 2, frozenset(combinations(range(1, 251), 2)))
        shapes = list(product((9, 10, 11), (3, 4)))
        small = [Hypergraph(n, k, frozenset(combinations(range(1, n + 1), k))) for n, k in shapes]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert decide(large).kind == "separable"
            assert {decide(h).kind for h in small} == {"separable"}
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert list(feasibility._column_index) == shapes
        assert held < 1_000_000

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_width_holds_every_minor(self, n):
        # columns of [A' I b] up to sign (which no |det| sees): each k-set as
        # an edge (its vertex rows) and as a non-edge (also row n), the unit
        # columns, and b = e_n
        units = {tuple(int(i == j) for i in range(n + 1)) for j in range(n + 1)}
        for k in range(1, n):
            ksets = {tuple(int(i in g) for i in range(n)) for g in combinations(range(n), k)}
            columns = sorted(units | {g + (0,) for g in ksets} | {g + (1,) for g in ksets})
            largest = max(abs(_bareiss_det(c)) for c in combinations(columns, n + 1))
            assert 0 < largest < 1 << _field_width(n, k) - 1, (n, k, largest)

    def test_width_above_hadamard_bound(self):
        # (k+1)^((n+1)/2) < 2^(w-1), squared so it stays in ints
        for n in range(2, 200):
            for k in range(1, n):
                assert (k + 1) ** (n + 1) < 1 << 2 * (_field_width(n, k) - 1), (n, k)
