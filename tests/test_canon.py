"""Canonical forms against independent oracles.

networkx decides isomorphism with its own VF2 matcher, which counts
parallel edges and loops on a MultiGraph; hypothesis checks that the form
does not depend on vertex labels or edge order.
"""

from __future__ import annotations

import random

import pytest

nx = pytest.importorskip("networkx")
from hypothesis import given, settings, strategies as st

from dpdp._canon import _form, canonical_form, classes_by_isomorphism, is_isomorphic
from dpdp.catalog import complete, complete_bipartite, cycle, enumerate_connected_cubic
from dpdp.graph import Multigraph

from helpers import multigraphs


def petersen() -> Multigraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Multigraph(10, outer + spokes + inner)


def pentagonal_prism() -> Multigraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    return Multigraph(10, outer + spokes + inner)


def rook_4x4() -> Multigraph:
    """K4 x K4: strongly regular (16, 6, 2, 2), like the Shrikhande graph."""
    cells = [(r, c) for r in range(4) for c in range(4)]
    return Multigraph(16, [
        (i, j) for i in range(16) for j in range(i + 1, 16)
        if cells[i][0] == cells[j][0] or cells[i][1] == cells[j][1]
    ])


def shrikhande() -> Multigraph:
    steps = [(0, 1), (1, 0), (1, 1)]
    edges = set()
    for r in range(4):
        for c in range(4):
            for dr, dc in steps:
                a, b = 4 * r + c, 4 * ((r + dr) % 4) + (c + dc) % 4
                edges.add((min(a, b), max(a, b)))
    return Multigraph(16, sorted(edges))


def disjoint(*parts: Multigraph) -> Multigraph:
    edges, base = [], 0
    for g in parts:
        edges += [(e.u + base, e.v + base) for e in g.edges]
        base += g.n
    return Multigraph(base, edges)


SYMMETRIC = {
    "K8": complete(8),
    "K4,4": complete_bipartite(4, 4),
    "C9": cycle(9),
    "Petersen": petersen(),
    "pentagonal prism": pentagonal_prism(),
    "K4 x K4": rook_4x4(),
    "Shrikhande": shrikhande(),
    "3 C2 + 2 C1": disjoint(cycle(2), cycle(2), cycle(2), cycle(1), cycle(1)),
    "C4 + C4 + K4": disjoint(cycle(4), cycle(4), complete(4)),
    "empty 6": Multigraph(6, []),
}


def relabel(g: Multigraph, rng: random.Random) -> Multigraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[e.u], perm[e.v]) for e in g.edges]
    rng.shuffle(edges)
    return Multigraph(g.n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges])


def random_multigraph(rng: random.Random) -> Multigraph:
    n = rng.randint(1, 8)
    m = rng.randint(0, 12)
    return Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])


def to_nx(g: Multigraph):
    out = nx.MultiGraph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(e.endpoints() for e in g.edges)
    return out


def test_is_isomorphic_agrees_with_networkx():
    rng = random.Random(2014)
    verdicts = []
    for _ in range(400):
        a = random_multigraph(rng)
        b = relabel(a, rng)
        if a.m and rng.random() < 0.6:
            # move one edge: same n, m and often the same degrees
            edges = [e.endpoints() for e in b.edges]
            edges[rng.randrange(len(edges))] = (rng.randrange(a.n), rng.randrange(a.n))
            b = Multigraph(a.n, edges)
        want = nx.is_isomorphic(to_nx(a), to_nx(b))
        assert is_isomorphic(a, b) == want, (a.n, a.edge_multiset(), b.edge_multiset())
        verdicts.append(want)
    assert 100 < sum(verdicts) < 300


def test_symmetric_graphs_against_networkx():
    names = list(SYMMETRIC)
    for x in names:
        for y in names:
            a, b = SYMMETRIC[x], SYMMETRIC[y]
            if a.n != b.n or a.m != b.m:
                continue
            want = nx.is_isomorphic(to_nx(a), to_nx(b))
            assert is_isomorphic(a, b) == want, (x, y)
    assert not is_isomorphic(rook_4x4(), shrikhande())
    assert not is_isomorphic(petersen(), pentagonal_prism())


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_symmetric_forms_survive_relabelling(name):
    g = SYMMETRIC[name]
    form = canonical_form(g)
    assert len(form) == g.m
    rng = random.Random(name)
    for _ in range(5):
        assert canonical_form(relabel(g, rng)) == form


@st.composite
def relabelled_pairs(draw):
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=14))
    perm = draw(st.permutations(range(n)))
    moved = draw(st.permutations([(perm[u], perm[v]) for u, v in edges]))
    return Multigraph(n, edges), Multigraph(n, moved)


@settings(max_examples=300, deadline=None)
@given(relabelled_pairs())
def test_form_ignores_labels_and_edge_order(pair):
    a, b = pair
    assert canonical_form(a) == canonical_form(b)


def _preserves_edges(g: Multigraph, a: list[int]) -> bool:
    image = sorted(tuple(sorted((a[e.u], a[e.v]))) for e in g.edges)
    return sorted(a) == list(range(g.n)) and tuple(image) == g.edge_multiset()


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=8, max_m=14))
def test_found_automorphisms_preserve_the_edge_multiset(g):
    form, autos = _form(g.n, [e.endpoints() for e in g.edges])
    assert form == canonical_form(g)
    assert all(_preserves_edges(g, a) for a in autos)


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_symmetric_graphs_yield_automorphisms(name):
    g = SYMMETRIC[name]
    autos = _form(g.n, [e.endpoints() for e in g.edges])[1]
    assert autos and all(_preserves_edges(g, a) for a in autos)


def test_cubic_classes_pairwise_distinct_by_networkx():
    for n in (6, 8):
        reps = enumerate_connected_cubic(n)
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                assert not nx.is_isomorphic(to_nx(a), to_nx(b))


def test_classes_keep_first_seen_representative():
    rng = random.Random(7)
    p = Multigraph(4, [(0, 1), (1, 2), (2, 3)])
    copies = [relabel(p, rng) for _ in range(6)]
    star = Multigraph(4, [(0, 1), (0, 2), (0, 3)])
    reps = classes_by_isomorphism(copies + [star] + copies)
    assert len(reps) == 2
    assert any(r is copies[0] for r in reps) and any(r is star for r in reps)
