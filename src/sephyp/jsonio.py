"""Strict JSON parsing and serialization for instances and certificates.

Rationals travel as strings ("3", "-2/5"); floats are rejected so parsing is
exact. Hypergraph edge lists must arrive sorted within each edge and
lexicographically across edges, which also rules out duplicates; the parser
rejects violations instead of repairing them so corpus mistakes surface.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Union

from .errors import FormatError
from .feasibility import Certificate, EquatableCertificate, SeparableCertificate
from .hypercore import Hypergraph, KSet, Partition
from .matroid import Gf2Matrix, Graph

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")

Instance = Union[Hypergraph, Gf2Matrix, Graph]


def parse_rational(text: Any) -> Fraction:
    if type(text) is int:  # a JSON boolean is not the rational 1
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise FormatError(f"rational must be a decimal-integer or p/q string, got {text!r}")
    return Fraction(text)


def rational_str(value: Fraction) -> str:
    return str(value)


def _require(obj: dict, key: str, context: str) -> Any:
    if key not in obj:
        raise FormatError(f"{context}: missing field {key!r}")
    return obj[key]


def _int_field(obj: dict, key: str, context: str) -> int:
    value = _require(obj, key, context)
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"{context}: field {key!r} must be an integer, got {value!r}")
    return value


def _int_tuple(value: Any, what: str) -> tuple[int, ...]:
    """A JSON list of integers as a tuple; JSON booleans are not integers here."""
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise FormatError(f"{what} must be a list of integers")
    return tuple(value)


def parse_hypergraph(obj: dict) -> Hypergraph:
    n = _int_field(obj, "n", "hypergraph")
    k = _int_field(obj, "k", "hypergraph")
    raw = _require(obj, "edges", "hypergraph")
    if not isinstance(raw, list):
        raise FormatError("hypergraph: edges must be a list")
    edges: list[KSet] = []
    for idx, e in enumerate(raw):
        t = _int_tuple(e, f"hypergraph: edges[{idx}]")
        if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
            raise FormatError(f"hypergraph: edges[{idx}] = {e} is not strictly increasing")
        if edges and t <= edges[-1]:
            raise FormatError(
                f"hypergraph: edges[{idx}] = {e} breaks lexicographic order (duplicate or unsorted)"
            )
        edges.append(t)
    return Hypergraph.from_edges(n, k, edges)


def hypergraph_obj(h: Hypergraph) -> dict:
    return {"n": h.n, "k": h.k, "edges": [list(e) for e in h.sorted_edges()]}


def parse_gf2(obj: dict) -> Gf2Matrix:
    rows = _int_field(obj, "rows", "gf2")
    cols = _int_field(obj, "cols", "gf2")
    bits = _require(obj, "bits", "gf2")
    if not isinstance(bits, list):
        raise FormatError("gf2: bits must be a list of rows")
    return Gf2Matrix(rows, cols, tuple(_int_tuple(r, f"gf2: bits[{idx}]") for idx, r in enumerate(bits)))


def parse_graph(obj: dict) -> Graph:
    vertices = _int_field(obj, "vertices", "graph")
    raw = _require(obj, "edges", "graph")
    if not isinstance(raw, list):
        raise FormatError("graph: edges must be a list")
    edges = []
    for idx, e in enumerate(raw):
        pair = _int_tuple(e, f"graph: edges[{idx}]")
        if len(pair) != 2:
            raise FormatError(f"graph: edges[{idx}] must be a pair of integers")
        edges.append(pair)
    return Graph(vertices, tuple(edges))


def _loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply")


def parse_instance(text: str) -> tuple[str, Instance]:
    """Parse an instance file, discriminated by its "type" field."""
    obj = _loads(text)
    if not isinstance(obj, dict):
        raise FormatError("instance file must be a JSON object")
    kind = _require(obj, "type", "instance")
    if kind == "hypergraph":
        return kind, parse_hypergraph(obj)
    if kind == "gf2":
        return kind, parse_gf2(obj)
    if kind == "graph":
        return kind, parse_graph(obj)
    raise FormatError(f"instance: unknown type {kind!r}")


def parse_partition(text: str) -> Partition:
    obj = _loads(text)
    if not isinstance(obj, dict):
        raise FormatError("partition file must be a JSON object")
    parts = _require(obj, "parts", "partition")
    if not isinstance(parts, list):
        raise FormatError("partition: parts must be a list of lists")
    return Partition.from_parts(_int_tuple(p, f"partition: parts[{idx}]") for idx, p in enumerate(parts))


def parse_certificate(text: str) -> Certificate:
    obj = _loads(text)
    if not isinstance(obj, dict):
        raise FormatError("certificate file must be a JSON object")
    kind = _require(obj, "kind", "certificate")
    if kind == "separable":
        raw = _require(obj, "x", "certificate")
        if not isinstance(raw, list):
            raise FormatError("certificate: x must be a list")
        return SeparableCertificate(tuple(parse_rational(v) for v in raw))
    if kind == "equatable":
        raw = _require(obj, "y", "certificate")
        if not isinstance(raw, list):
            raise FormatError("certificate: y must be a list")
        y: dict[KSet, Fraction] = {}
        for idx, item in enumerate(raw):
            if not isinstance(item, dict):
                raise FormatError(f"certificate: y[{idx}] must be an object")
            kset = _int_tuple(_require(item, "set", f"certificate y[{idx}]"), f"certificate: y[{idx}].set")
            if kset in y:
                raise FormatError(f"certificate: y[{idx}].set {list(kset)} repeats an earlier set")
            y[kset] = parse_rational(_require(item, "val", f"certificate y[{idx}]"))
        return EquatableCertificate(tuple(y.items()))
    raise FormatError(f"certificate: unknown kind {kind!r}")


def certificate_obj(cert: Certificate) -> dict:
    if isinstance(cert, SeparableCertificate):
        return {"kind": "separable", "x": [rational_str(v) for v in cert.x]}
    return {
        "kind": "equatable",
        "y": [{"set": list(g), "val": rational_str(v)} for g, v in cert.y],
    }


def dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
