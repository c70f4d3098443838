"""The value classes made by hypercore.record behave like frozen dataclasses.

Each class is compared with a dataclasses.make_dataclass(..., frozen=True)
twin over the same field names, on two sample values: equality within and
across classes, hash, repr, keyword construction, refused assignment, and
for the classes the CLI renders, vars() against the twin's asdict.
"""

import dataclasses
import importlib
from fractions import Fraction

import pytest

from sephyp.feasibility import EquatableCertificate, FarkasSystem, SeparableCertificate, decide
from sephyp.harness import EnumerationReport, _Instance
from sephyp.hypercore import (ExchangeWitness, Gf2Matrix, Graph, GraphOrdering, Hypergraph, Partition,
                              SummableQuadruple, record)
from sephyp.matroid import BasisMatroid, LineDecomposition
from sephyp.oracle_algorithms import AdversaryInstance, IndistinguishabilityReport, OracleDecision

K4 = Hypergraph(4, 2, frozenset({(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}))
K4_LESS = Hypergraph(4, 2, frozenset({(1, 2), (1, 4), (2, 3), (3, 4)}))


def report(**changes) -> dict:
    base = dict(verdict="separable", queries=3, trace=(((1,), True), ((1, 2), False)), kset_queries=((1, 2),),
                consistent_with_h2=True, pairs_total=3, pairs_touched=1, threshold_queries=3, threshold_pairs=3,
                unqueried_pair=((1, 3), (2, 4)), alternative_kind="equatable", budget_exhausted=False)
    return {**base, **changes}


# Two samples per class, each the fields in declared order.
SAMPLES = {
    Hypergraph: (dict(n=4, k=2, edges=frozenset({(1, 2), (3, 4)})), dict(n=4, k=2, edges=frozenset({(1, 2)}))),
    Partition: (dict(parts=((1, 2), (3,))), dict(parts=((1,), (2, 3)))),
    Gf2Matrix: (dict(rows=2, cols=3, bits=((1, 0, 1), (0, 1, 1))), dict(rows=2, cols=3, bits=((1, 1, 1), (0, 1, 1)))),
    Graph: (dict(vertices=3, edges=((1, 2), (2, 3))), dict(vertices=3, edges=((1, 1),))),
    ExchangeWitness: (dict(e1=(1, 2), e2=(3, 4), v1=1, v2=3), dict(e1=(1, 2), e2=(3, 4), v1=2, v2=3)),
    SummableQuadruple: (dict(e1=(1, 2), e2=(3, 4), f1=(1, 3), f2=(2, 4)),
                        dict(e1=(1, 2), e2=(3, 4), f1=(1, 4), f2=(2, 3))),
    GraphOrdering: (dict(order=(1, 2, 3), tags=("isolated", "dominating", "isolated")),
                    dict(order=(1, 2, 3), tags=("isolated", "isolated", "isolated"))),
    SeparableCertificate: (dict(x=(Fraction(1), Fraction(-1, 2))), dict(x=(Fraction(0),))),
    EquatableCertificate: (dict(y=(((1, 2), Fraction(1)),)), dict(y=(((1, 2), Fraction(2)),))),
    FarkasSystem: (dict(rows=((1, 2), (1, 3)), matrix=((-1, -1, 0), (1, 0, 1)), rhs=(0, -1)),
                   dict(rows=((1, 2), (1, 3)), matrix=((-1, -1, 0), (1, 0, 1)), rhs=(0, 0))),
    EnumerationReport: (dict(n=4, k=2, klass="all", counts={"total": 64}, violations=[]),
                        dict(n=4, k=2, klass="all", counts={"total": 64}, violations=[{"check": "dichotomy"}])),
    BasisMatroid: (dict(carrier=K4), dict(carrier=K4_LESS)),
    _Instance: (dict(h=K4, cert=SeparableCertificate((Fraction(1),) * 4), witness=None, matroid=None, proved=True,
                     decide=decide, tables=None),
                dict(h=K4, cert=SeparableCertificate((Fraction(1),) * 4), witness=None, matroid=None, proved=False,
                     decide=decide, tables=None)),
    LineDecomposition: (dict(lines=((1, 2), (3,)), nontrivial_count=1),
                        dict(lines=((1,), (2,), (3,)), nontrivial_count=0)),
    OracleDecision: (dict(verdict="separable", queries_used=3, trace=(((1,), True),)),
                     dict(verdict="equatable", queries_used=3, trace=(((1,), True),))),
    AdversaryInstance: (dict(k=2, h1=K4, h2=K4_LESS, f1=(1, 3), f2=(2, 4)),
                        dict(k=2, h1=K4, h2=K4_LESS, f1=(2, 4), f2=(1, 3))),
    IndistinguishabilityReport: (report(), report(unqueried_pair=None, alternative_kind=None)),
}

# The classes whose fields the CLI renders as JSON objects with vars().
RENDERED = (ExchangeWitness, SummableQuadruple, GraphOrdering, LineDecomposition, IndistinguishabilityReport)

MODULES = ("hypercore", "feasibility", "harness", "matroid", "oracle_algorithms", "jsonio", "errors", "cli")


def twin(cls: type) -> type:
    return dataclasses.make_dataclass(cls.__name__, list(SAMPLES[cls][0]), frozen=True)


def hash_or_error(obj: object):
    """hash(obj), or TypeError when a field is unhashable."""
    try:
        return hash(obj)
    except TypeError:
        return TypeError


def pairs(cls: type) -> list[tuple[object, object]]:
    """(record, twin) instances built positionally: two of the first sample, one of the second."""
    t = twin(cls)
    return [(cls(*s.values()), t(*s.values())) for s in (SAMPLES[cls][0], SAMPLES[cls][0], SAMPLES[cls][1])]


def test_every_value_class_has_samples():
    found = set()
    for name in MODULES:
        module = importlib.import_module(f"sephyp.{name}")
        found |= {c for c in vars(module).values()
                  if isinstance(c, type) and c.__module__ == module.__name__ and vars(c).get("__annotations__")}
    assert found == set(SAMPLES)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda c: c.__name__)
class TestLikeFrozenDataclass:
    def test_equality_within_the_class(self, cls):
        (a, ta), (b, tb), (c, tc) = pairs(cls)
        expected = (True, False, False, True)
        assert (a == b, a != b, a == c, a != c) == (ta == tb, ta != tb, ta == tc, ta != tc) == expected

    def test_equality_across_classes(self, cls):
        (a, ta), _, _ = pairs(cls)
        assert (a == ta, a != ta, ta == a) == (False, True, False)
        other = record(type("Other", (), {"__annotations__": dict(vars(cls)["__annotations__"])}))
        values = SAMPLES[cls][0].values()
        assert (cls(*values) == other(*values), cls(*values) != other(*values)) == (False, True)

    def test_hash(self, cls):
        for ours, theirs in pairs(cls):
            assert hash_or_error(ours) == hash_or_error(theirs)

    def test_repr(self, cls):
        for ours, theirs in pairs(cls):
            assert repr(ours) == repr(theirs)

    def test_keyword_construction(self, cls):
        fields = SAMPLES[cls][0]
        shuffled = dict(reversed(fields.items()))
        assert cls(**shuffled) == cls(*fields.values())
        assert repr(cls(**shuffled)) == repr(twin(cls)(**shuffled))
        first, *rest = fields
        assert cls(fields[first], **{name: fields[name] for name in rest}) == cls(*fields.values())
        assert list(vars(cls(**shuffled))) == list(fields)

    def test_bad_arguments_raise_type_error(self, cls):
        fields = SAMPLES[cls][0]
        first = next(iter(fields))
        extra = (None, None) if cls is BasisMatroid else (None,)  # BasisMatroid also takes a budget
        for t in (cls, twin(cls)):
            with pytest.raises(TypeError):
                t()
            with pytest.raises(TypeError):
                t(*fields.values(), *extra)
            with pytest.raises(TypeError):
                t(*fields.values(), **{first: fields[first]})
            with pytest.raises(TypeError):
                t(**fields, unknown=1)

    def test_assignment_raises_attribute_error(self, cls):
        fields = SAMPLES[cls][0]
        for obj in pairs(cls)[0]:
            for name in (*fields, "unknown"):
                with pytest.raises(AttributeError):
                    setattr(obj, name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, next(iter(fields)))
            assert vars(obj) == fields


@pytest.mark.parametrize("cls", RENDERED, ids=lambda c: c.__name__)
def test_vars_is_the_twins_asdict(cls):
    for ours, theirs in pairs(cls):
        assert vars(ours) == dataclasses.asdict(theirs)


def test_cached_properties_leave_equality_and_hash_alone():
    cached, fresh = BasisMatroid(K4), BasisMatroid(K4)
    assert cached._covered == 0b11110 and cached._circuits
    assert (cached == fresh, hash(cached) == hash(fresh), repr(cached) == repr(fresh)) == (True, True, True)
    assert BasisMatroid(carrier=K4_LESS, budget=16) == BasisMatroid(K4_LESS)
    # a hypergraph keeps its edge-mask view outside its fields and its __dict__
    viewed, plain = Hypergraph(4, 2, K4.edges), Hypergraph(4, 2, K4.edges)
    assert viewed.edge_masks() == [0b110, 0b1010, 0b10010, 0b1100, 0b10100, 0b11000]
    assert viewed.edge_masks() is viewed.edge_masks()
    assert (viewed == plain, hash(viewed) == hash(plain), repr(viewed) == repr(plain)) == (True, True, True)
    assert vars(viewed) == vars(plain) == {"n": 4, "k": 2, "edges": K4.edges}


def test_post_init_runs_through_attribute_lookup(monkeypatch):
    seen = []
    monkeypatch.setattr(Hypergraph, "__post_init__", lambda self: seen.append(self.n))
    monkeypatch.setattr(BasisMatroid, "__post_init__", lambda self, budget: seen.append(budget))
    Hypergraph(5, 9, frozenset())  # invalid, but the replaced check accepts it
    BasisMatroid(K4, 7)
    assert seen == [5, 7]
