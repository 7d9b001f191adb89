from __future__ import annotations

import pytest
from hypothesis import given, settings

from dpdp._canon import is_isomorphic
from dpdp.catalog import cycle, double_star, path, complete
from dpdp.domination import is_dp_pair
from dpdp.graph import Multigraph, is_cycle_graph, is_path_graph
from dpdp.subdivision import (
    build_s2,
    canonical_dp_pair,
    invert_s2,
    is_2_subdivision,
)

from helpers import based_alphas


def test_build_p2_gives_p4():
    g, lab = build_s2(path(2))
    assert g.n == 4 and is_path_graph(g)
    assert lab.alpha == {0: 1, 1: 1}


def test_build_p2_with_alpha_gives_double_star():
    g, _ = build_s2(path(2), {0: 2, 1: 3})
    assert is_isomorphic(g, double_star(2, 3))


def test_build_small_cycles():
    for m, want in ((1, 3), (2, 6), (3, 9)):
        g, _ = build_s2(cycle(m))
        assert is_cycle_graph(g) and g.n == want


def test_build_errors():
    with pytest.raises(ValueError):
        build_s2(Multigraph(2, [(0, 0)]))  # isolated vertex 1
    with pytest.raises(ValueError):
        build_s2(path(2), {0: 0})
    with pytest.raises(ValueError):
        build_s2(path(3), {1: 2})  # vertex 1 is not a leaf


def test_vertex_count_formula(multigraphs_le5):
    for h in multigraphs_le5:
        leaves = h.leaves()
        for alpha in ({}, {min(leaves): 2} if leaves else {}):
            g, lab = build_s2(h, alpha)
            expect = (h.n - len(leaves)) + sum(lab.alpha.values()) + 2 * h.m
            assert g.n == expect


def test_new_vertex_degree_rule(multigraphs_le5):
    # a new vertex has degree 2 unless its endpoint is a leaf: then 1 + alpha
    for h in multigraphs_le5[:60]:
        leaves = h.leaves()
        alpha = {v: 1 + (v % 2) for v in leaves}
        g, lab = build_s2(h, alpha)
        for e in h.edges:
            for side, endpoint in ((1, e.u), (2, e.v)):
                nv = lab.new_vertex[(e.id, side)]
                if endpoint in leaves:
                    assert g.degree(nv) == 1 + lab.alpha[endpoint]
                else:
                    assert g.degree(nv) == 2


def test_canonical_pair_examples():
    g, lab = build_s2(path(2))
    pair = canonical_dp_pair(lab)
    assert pair.d == g.leaves()  # the two outer copies
    assert is_dp_pair(g, pair)

    g, lab = build_s2(cycle(1))
    pair = canonical_dp_pair(lab)
    assert len(pair.d) == 1 and len(pair.p) == 2
    assert is_dp_pair(g, pair)

    g, lab = build_s2(complete(3))
    pair = canonical_dp_pair(lab)
    assert (len(pair.d), len(pair.p), len(pair.matching)) == (3, 6, 3)
    assert is_dp_pair(g, pair)


def test_canonical_pair_property_sweep(multigraphs_le5):
    for h in multigraphs_le5:
        g, lab = build_s2(h)
        assert is_dp_pair(g, canonical_dp_pair(lab))


def test_invert_examples():
    base, alpha, _ = invert_s2(path(10))
    assert is_path_graph(base) and base.n == 4
    assert all(a == 1 for a in alpha.values())

    base, alpha, _ = invert_s2(cycle(9))
    assert is_cycle_graph(base) and base.n == 3

    assert invert_s2(path(5)) is None


def test_invert_rejects_non_subdivisions():
    assert invert_s2(Multigraph(1, [])) is None  # isolated vertex
    assert invert_s2(cycle(1)) is None  # loop: never simple
    assert invert_s2(cycle(2)) is None
    assert invert_s2(path(2)) is None
    assert invert_s2(complete(4)) is None


def test_is_2_subdivision_table():
    assert is_2_subdivision(path(4))
    assert not is_2_subdivision(path(5))
    assert is_2_subdivision(cycle(6))
    # consistent with the minimal path/cycle tables: S2-images are 3k-ish
    assert [n for n in range(2, 14) if is_2_subdivision(path(n))] == [4, 7, 10, 13]
    assert [m for m in range(3, 13) if is_2_subdivision(cycle(m))] == [3, 6, 9, 12]


def test_invert_recovers_alpha_from_leaf_counts():
    g, _ = build_s2(path(2), {0: 2, 1: 3})
    base, alpha, lab = invert_s2(g)
    assert sorted(alpha.values()) == [2, 3]
    assert base.n == 2 and base.m == 1


def _assert_roundtrip(h: Multigraph, alpha: dict[int, int] | None) -> None:
    # rebuild from the inversion output and compare edge-for-edge through tags
    g, _ = build_s2(h, alpha)
    inv = invert_s2(g)
    assert inv is not None, (h.n, h.edge_multiset(), alpha)
    base, got_alpha, lab = inv
    rebuilt, lab2 = build_s2(base, got_alpha)
    mapping = [lab2.vertex_of(t) for t in lab.provenance]
    assert sorted(mapping) == list(range(g.n))
    remapped = sorted(
        (min(mapping[e.u], mapping[e.v]), max(mapping[e.u], mapping[e.v]))
        for e in g.edges
    )
    assert tuple(remapped) == rebuilt.edge_multiset()


def test_roundtrip_sweep(multigraphs_le5):
    for h in multigraphs_le5:
        leaves = sorted(h.leaves())
        for alpha in [None] + ([{leaves[0]: 2}] if leaves else []):
            _assert_roundtrip(h, alpha)


@settings(max_examples=200, deadline=None)
@given(based_alphas())
def test_roundtrip_random_alpha(h_alpha):
    _assert_roundtrip(*h_alpha)


def test_invert_deterministic_on_rotations():
    # C9 admits three valid taggings; the lexicographically least wins
    base1, _, lab1 = invert_s2(cycle(9))
    base2, _, lab2 = invert_s2(cycle(9))
    assert lab1.provenance == lab2.provenance
    assert lab1.provenance[0][0] == "old"


def test_invert_empty_graph():
    base, alpha, _ = invert_s2(Multigraph(0, []))
    assert base.n == 0 and alpha == {}
