"""Strict parsing and deterministic serialization."""

from fractions import Fraction

import pytest

from sephyp.errors import FormatError
from sephyp.feasibility import EquatableCertificate, SeparableCertificate
from sephyp.jsonio import (
    certificate_obj,
    dumps,
    parse_certificate,
    parse_instance,
    parse_partition,
    parse_rational,
)


class TestRationals:
    @pytest.mark.parametrize("text,expected", [
        ("3", Fraction(3)),
        ("-2", Fraction(-2)),
        ("1/2", Fraction(1, 2)),
        ("-7/3", Fraction(-7, 3)),
        ("0", Fraction(0)),
    ])
    def test_accepts(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["1.5", "2/0", "x", "", "1e3", "+2", "1/-2", "1/02"])
    def test_rejects(self, text):
        with pytest.raises(FormatError):
            parse_rational(text)

    def test_round_trip(self):
        for f in (Fraction(3), Fraction(-5, 7), Fraction(0)):
            assert parse_rational(str(f)) == f  # certificate_obj writes str(f)


class TestInstanceParsing:
    def test_hypergraph_round_trip(self, fixtures_dir):
        text = (fixtures_dir / "separable_six.json").read_text()
        kind, h = parse_instance(text)
        assert kind == "hypergraph" and h.n == 6 and h.k == 3 and len(h.edges) == 9
        assert dumps({"type": "hypergraph", "n": h.n, "k": h.k, "edges": [list(e) for e in h.sorted_edges()]}) == text

    def test_rejects_unsorted_edge(self):
        with pytest.raises(FormatError, match="strictly increasing"):
            parse_instance('{"type":"hypergraph","n":4,"k":2,"edges":[[2,1]]}')

    def test_rejects_unsorted_edge_list(self):
        with pytest.raises(FormatError, match="lexicographic"):
            parse_instance('{"type":"hypergraph","n":4,"k":2,"edges":[[2,3],[1,2]]}')

    def test_rejects_duplicate_edges(self):
        with pytest.raises(FormatError, match="lexicographic"):
            parse_instance('{"type":"hypergraph","n":4,"k":2,"edges":[[1,2],[1,2]]}')

    def test_rejects_unknown_type(self):
        with pytest.raises(FormatError, match="unknown type"):
            parse_instance('{"type":"widget"}')

    def test_rejects_missing_field(self):
        with pytest.raises(FormatError, match="missing field"):
            parse_instance('{"type":"hypergraph","n":4,"edges":[]}')

    def test_bad_json_reports_position(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_instance("nonsense")

    def test_gf2(self, fixtures_dir):
        kind, m = parse_instance((fixtures_dir / "gf2_two_lines.json").read_text())
        assert kind == "gf2" and m.rows == 2 and m.cols == 4

    def test_gf2_rejects_non_bits(self):
        with pytest.raises(FormatError):
            parse_instance('{"type":"gf2","rows":1,"cols":2,"bits":[[1,2]]}')

    def test_graph(self, fixtures_dir):
        kind, g = parse_instance((fixtures_dir / "k4_graph.json").read_text())
        assert kind == "graph" and g.vertices == 4 and len(g.edges) == 6


class TestPartitionParsing:
    def test_round_trip(self, fixtures_dir):
        p = parse_partition((fixtures_dir / "partition_pairs.json").read_text())
        assert p.parts == ((1, 2), (3, 4), (5, 6))

    def test_rejects_shape(self):
        with pytest.raises(FormatError):
            parse_partition('{"parts": [1, 2]}')


class TestCertificateParsing:
    def test_separable_round_trip(self, fixtures_dir):
        cert = parse_certificate((fixtures_dir / "separable_six_x.json").read_text())
        assert isinstance(cert, SeparableCertificate)
        assert cert.x == tuple(Fraction(v) for v in (-1, -1, -1, 3, -2, -2))
        assert parse_certificate(dumps(certificate_obj(cert))) == cert

    def test_equatable_round_trip(self, fixtures_dir):
        cert = parse_certificate((fixtures_dir / "equatable_six_y.json").read_text())
        assert isinstance(cert, EquatableCertificate)
        assert cert.as_dict() == {
            (1, 3, 4): Fraction(1), (1, 3, 5): Fraction(1),
            (2, 4, 6): Fraction(1), (2, 5, 6): Fraction(1),
        }
        assert parse_certificate(dumps(certificate_obj(cert))) == cert

    def test_fractional_values_exact(self):
        cert = parse_certificate('{"kind":"equatable","y":[{"set":[1,2],"val":"1/3"}]}')
        assert cert.as_dict() == {(1, 2): Fraction(1, 3)}

    def test_rejects_float_rationals(self):
        with pytest.raises(FormatError):
            parse_certificate('{"kind":"separable","x":["1.5"]}')

    def test_rejects_unknown_kind(self):
        with pytest.raises(FormatError):
            parse_certificate('{"kind":"other"}')


class TestDeterminism:
    def test_dumps_stable(self):
        obj = {"b": [3, 1], "a": {"z": 1, "y": 2}}
        assert dumps(obj) == dumps(obj)
        assert dumps(obj) == '{"a":{"y":2,"z":1},"b":[3,1]}\n'
