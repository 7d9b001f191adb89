"""The engines' value classes behave as the dataclasses they replace did:
the same constructor, TypeError included, field-wise equality, repr text
and hashing.  The repr strings and the hash below were printed by the
dataclass versions."""

from __future__ import annotations

import pickle

import pytest

from dpdp.catalog import path
from dpdp.domination import DpPair
from dpdp.goodsub import GoodSubgraphCertificate, find_good_subgraph
from dpdp.graph import Multigraph
from dpdp.minimality import MinimalityReport, XcheckResult
from dpdp.subdivision import S2Labeling, build_s2

# (class, field values in order, repr of the instance they build)
CASES = [
    (
        DpPair,
        (frozenset({0, 2}), frozenset({1, 3}), (1,)),
        "DpPair(d=frozenset({0, 2}), p=frozenset({1, 3}), matching=(1,))",
    ),
    (
        S2Labeling,
        (Multigraph(2, [(0, 1)]), {0: 1, 1: 1}, (("copy", 0, 1), ("copy", 1, 1)),
         {}, {}, {}, {}, {}),
        "S2Labeling(base=Multigraph(n=2, m=1), alpha={0: 1, 1: 1}, "
        "provenance=(('copy', 0, 1), ('copy', 1, 1)), old_vertex={}, "
        "copy_vertices={}, new_vertex={}, middle_edge={}, attach_edges={})",
    ),
    (
        GoodSubgraphCertificate,
        (frozenset({2, 3}), frozenset({2}), frozenset({1, 3}),
         {1: (2, 1), 3: (3, 4)}, {2: (1,), 3: (3,)}),
        "GoodSubgraphCertificate(q_vertices=frozenset({2, 3}), q_edges=frozenset({2}), "
        "e_set=frozenset({1, 3}), arcs={1: (2, 1), 3: (3, 4)}, paths={2: (1,), 3: (3,)})",
    ),
    (
        MinimalityReport,
        (True, False, None, None, 2, False),
        "MinimalityReport(is_dpdp=True, minimal_by_deletion=False, inversion=None, "
        "good_subgraph=None, dp_pair_count_capped=2, verdicts_consistent=False)",
    ),
    (
        XcheckResult,
        (2, 1, True, True, True),
        "XcheckResult(base_n=2, base_m=1, minimal_by_deletion=True, "
        "no_good_subgraph=True, unique_pair_or_small_cycle=True)",
    ),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_construction_equality_and_repr(cls, values, text):
    positional = cls(*values)
    keyword = cls(**dict(zip(cls.__match_args__, values)))
    assert positional == keyword and not positional != keyword
    assert repr(positional) == repr(keyword) == text
    assert tuple(getattr(positional, f) for f in cls.__match_args__) == values
    # one field changed, or the same values in another class or a tuple
    changed = cls(*values[:-1], "other")
    assert positional != changed and not positional == changed
    others = [c(*v) for c, v, _ in CASES if c is not cls]
    assert all(positional != other for other in others)
    assert positional != values
    # a field missing, unknown, repeated or surplus
    first = cls.__match_args__[0]
    for args, kwargs in [(values[:2], {}), (values[:-1], {"other": 1}), (values, {"other": 1}),
                         (values, {first: values[0]}), (values + (None,), {})]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls, values, text", CASES[1:], ids=IDS[1:])
def test_mutable_values_are_unhashable(cls, values, text):
    with pytest.raises(TypeError, match=f"unhashable type: '{cls.__name__}'"):
        hash(cls(*values))


def test_dp_pair_is_a_frozen_hashable_value():
    pair = DpPair(*CASES[0][1])
    assert hash(pair) == -2357034106303070038 == hash((pair.d, pair.p, pair.matching))
    assert len({pair, DpPair(*CASES[0][1])}) == 1
    with pytest.raises(AttributeError):
        pair.d = frozenset()
    with pytest.raises(AttributeError):
        del pair.matching
    with pytest.raises(AttributeError):
        pair.extra = 1
    assert pair.d == frozenset({0, 2})


def test_values_survive_pickle():
    pair = DpPair(*CASES[0][1])
    _, lab = build_s2(path(3))
    cert = find_good_subgraph(path(6))
    assert cert is not None
    for value in (pair, lab, cert):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and copy is not value and repr(copy) == repr(value)
    assert hash(pickle.loads(pickle.dumps(pair))) == hash(pair)
    assert repr(lab) == (
        "S2Labeling(base=Multigraph(n=3, m=2), alpha={0: 1, 2: 1}, "
        "provenance=(('old', 1), ('copy', 0, 1), ('copy', 2, 1), ('new', 0, 1), "
        "('new', 0, 2), ('new', 1, 1), ('new', 1, 2)), old_vertex={1: 0}, "
        "copy_vertices={0: (1,), 2: (2,)}, new_vertex={(0, 1): 3, (0, 2): 4, "
        "(1, 1): 5, (1, 2): 6}, middle_edge={0: 0, 1: 3}, "
        "attach_edges={(0, 1): (1,), (0, 2): (2,), (1, 1): (4,), (1, 2): (5,)})"
    )
