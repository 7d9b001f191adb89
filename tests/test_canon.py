"""The first-leaf search and the isomorphism dedup against independent
oracles.

networkx decides isomorphism with its own VF2 matcher, which counts
parallel edges and loops on a MultiGraph; hypothesis checks that the
dedup does not depend on vertex labels or edge order and that every
automorphism found preserves the edge multiset.  The dedup, which refines
a candidate only when its start key collides with a representative's and
searches only when its root key does too, is checked against a reference
that keeps the first candidate of each class by VF2.
"""

from __future__ import annotations

import random

import pytest

nx = pytest.importorskip("networkx")
from hypothesis import given, settings, strategies as st

import dpdp._canon
import dpdp.catalog
from dpdp._canon import (
    _automorphisms,
    _class_order,
    _classes,
    _goal,
    _match,
    _refined,
    _Seen,
    _start,
    classes_by_isomorphism,
    is_isomorphic,
)
from dpdp.catalog import complete, complete_bipartite, cycle, enumerate_connected_cubic
from dpdp.graph import Multigraph

from helpers import cubic_backtrack, multigraphs, start_colours_by_definition


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
        edges += [(u + base, v + base) for u, v in zip(g.us, g.vs)]
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
    edges = [(perm[u], perm[v]) for u, v in zip(g.us, g.vs)]
    rng.shuffle(edges)
    return Multigraph(g.n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges])


def random_multigraph(rng: random.Random) -> Multigraph:
    n = rng.randint(1, 8)
    m = rng.randint(0, 12)
    return Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])


def ends(g: Multigraph) -> list[tuple[int, int]]:
    return list(zip(g.us, g.vs))


def to_nx(g: Multigraph):
    out = nx.MultiGraph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(ends(g))
    return out


def test_is_isomorphic_agrees_with_networkx():
    rng = random.Random(2014)
    verdicts = []
    for _ in range(400):
        a = random_multigraph(rng)
        b = relabel(a, rng)
        if a.m and rng.random() < 0.6:
            # move one edge: same n, m and often the same degrees
            edges = ends(b)
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
    rng = random.Random(name)
    for _ in range(5):
        copy = relabel(g, rng)
        assert is_isomorphic(g, copy)
        assert len(_classes([(g.n, ends(g)), (copy.n, ends(copy))])) == 1


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
    assert is_isomorphic(a, b)
    assert len(_classes([(a.n, ends(a)), (b.n, ends(b))])) == 1


def _preserves_edges(g: Multigraph, a: list[int]) -> bool:
    image = sorted(tuple(sorted((a[u], a[v]))) for u, v in zip(g.us, g.vs))
    return sorted(a) == list(range(g.n)) and tuple(image) == g.edge_multiset()


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=8, max_m=14))
def test_found_automorphisms_preserve_the_edge_multiset(g):
    autos = _automorphisms(g.n, ends(g))
    assert all(_preserves_edges(g, a) for a in autos)


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_symmetric_graphs_yield_automorphisms(name):
    g = SYMMETRIC[name]
    autos = _automorphisms(g.n, ends(g))
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


def test_dedup_past_byte_sized_vertex_ids():
    # the dedup keeps a recorded graph's edges as bytes only while every
    # vertex id fits in one; a collision on a 300-vertex graph still
    # matches its relabelled copy and tells it from another tree
    rng = random.Random(300)
    tree = dpdp.catalog.random_tree(300, rng)
    copy = relabel(tree, rng)
    path = dpdp.catalog.path(300)
    reps = classes_by_isomorphism([tree, copy, path, relabel(path, rng)])
    assert len(reps) == 2
    assert any(r is tree for r in reps) and any(r is path for r in reps)


# -- the dedup: label only on collision ---------------------------------------


def _listed(graphs) -> list[tuple]:
    return [(g.n, g.us, g.vs) for g in graphs]


def _reference_classes(candidates) -> list[tuple]:
    """The first candidate seen of each class, told apart by networkx's
    VF2, sorted by _class_order."""
    firsts = []  # (graph, its networkx copy)
    for n, edges in candidates:
        g = Multigraph(n, edges)
        h = to_nx(g)
        if not any(f.n == n and f.m == g.m and nx.is_isomorphic(h, k) for f, k in firsts):
            firsts.append((g, h))
    return _listed(sorted((g for g, _ in firsts), key=_class_order))


def _one_bucket(mp: pytest.MonkeyPatch) -> None:
    """Give every graph the start key 0 and the root key 0, so that every
    candidate collides with every class at both levels of the dedup."""
    start, ranked, refined = dpdp._canon._start, dpdp._canon._ranked, dpdp._canon._refined
    mp.setattr(dpdp._canon, "_start", lambda n, ends: (start(n, ends)[0], 0))
    mp.setattr(dpdp._canon, "_ranked", lambda n, ends, colours: (ranked(n, ends, colours)[0], 0))
    mp.setattr(dpdp._canon, "_refined", lambda state: (refined(state)[0], 0))


def _root(n, ends) -> tuple:
    return _refined(_start(n, ends)[0])[0]


@st.composite
def candidate_lists(draw):
    """Random multigraphs, each listed as drawn and as relabelled copies,
    in a drawn order."""
    out = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 6))
        vertex = st.integers(0, n - 1)
        edges = draw(st.lists(st.tuples(vertex, vertex), max_size=9))
        out.append((n, edges))
        for _ in range(draw(st.integers(0, 3))):
            perm = draw(st.permutations(range(n)))
            moved = [(perm[v], perm[u]) if draw(st.booleans()) else (perm[u], perm[v])
                     for u, v in edges]
            out.append((n, draw(st.permutations(moved))))
    return draw(st.permutations(out))


@settings(max_examples=300, deadline=None)
@given(candidate_lists())
def test_dedup_keeps_the_first_of_each_class(candidates):
    want = _reference_classes(candidates)
    assert _listed(_classes(candidates)) == want
    with pytest.MonkeyPatch.context() as mp:
        _one_bucket(mp)
        assert _listed(_classes(candidates)) == want


@settings(max_examples=300, deadline=None)
@given(candidate_lists())
def test_brought_colours_give_the_counted_answers(candidates):
    # a _Seen fed each candidate with its start colours answers as one
    # that counts them, with loops and parallel edges too; with one bucket
    # for all, every recorded graph is refined from the colouring its
    # record kept
    def answers(brought: bool) -> list[bool]:
        seen = _Seen()
        return [
            seen.add(n, edges, start_colours_by_definition(n, edges)) if brought
            else seen.add(n, edges)
            for n, edges in candidates
        ]

    want = answers(False)
    assert answers(True) == want
    with pytest.MonkeyPatch.context() as mp:
        _one_bucket(mp)
        assert answers(False) == answers(True) == want


def test_bucket_key_decides_only_the_work(monkeypatch):
    # every orbit-minimum growth of the 6-vertex classes (many copies of
    # each 7-vertex class) and every labelled cubic 8-vertex graph the
    # unpruned backtracking finds, deduplicated with one bucket for all
    grown = []
    for g in dpdp.catalog.enumerate_connected_simple(6):
        base = ends(g)
        for mask in dpdp.catalog._orbit_minima(range(1, 64), _automorphisms(6, base)):
            grown.append((7, base + [(v, 6) for v in range(6) if mask >> v & 1]))
    cubic = cubic_backtrack(8)
    assert len(grown) == 3771 and len(cubic) == 236
    want = [_listed(dpdp.catalog.enumerate_connected_simple(7)),
            _listed(dpdp.catalog.enumerate_connected_cubic(8))]
    _one_bucket(monkeypatch)
    assert [_listed(_classes(grown)), _listed(_classes(cubic))] == want


def test_shared_start_key_with_another_root_key(monkeypatch):
    # two trees with degrees 3, 2, 2, 1, 1, 1 and no triangles share their
    # start key, but refinement splits the broom's two degree-2 vertices
    # and not the spider's: they share a bucket, neither gets a goal, and a
    # copy of the spider is matched against the spider alone
    broom = [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5)]
    spider = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)]
    perm = [5, 3, 1, 2, 4, 0]
    copy = [(perm[v], perm[u]) for u, v in reversed(spider)]
    (broom_state, broom_key), (spider_state, spider_key) = _start(6, broom), _start(6, spider)
    assert broom_key == spider_key == _start(6, copy)[1]
    assert _refined(broom_state)[1] != _refined(spider_state)[1]
    goal, goals = dpdp._canon._goal, []
    monkeypatch.setattr(
        dpdp._canon, "_goal", lambda ends, root: goals.append(list(ends)) or goal(ends, root)
    )
    seen = _Seen()
    assert seen.add(6, broom) and seen.add(6, spider)
    assert goals == [] and len(seen.buckets) == 1
    assert not seen.add(6, copy)
    assert goals == [spider]


def _triangle_free_cubic_10() -> list[Multigraph]:
    def has_triangle(g):
        adj = [set() for _ in range(g.n)]
        for u, v in zip(g.us, g.vs):
            adj[u].add(v)
            adj[v].add(u)
        return any(adj[u] & adj[v] for u, v in zip(g.us, g.vs))

    return [g for g in enumerate_connected_cubic(10) if not has_triangle(g)]


@pytest.mark.parametrize("group", ["srg16", "petersen", "cubic10"])
def test_match_separates_classes_that_share_a_root_key(group):
    classes = {
        "srg16": lambda: [rook_4x4(), shrikhande()],
        "petersen": lambda: [petersen(), pentagonal_prism()],
        "cubic10": _triangle_free_cubic_10,
    }[group]()
    assert len(classes) == (6 if group == "cubic10" else 2)
    goals = [_goal(ends(g), _root(g.n, ends(g))) for g in classes]
    rng = random.Random(group)
    keys = set()
    moved = 0  # copies whose own first leaf has another form than their class's
    for i, g in enumerate(classes):
        for copy in [g] + [relabel(g, rng) for _ in range(3)]:
            edges = ends(copy)
            state, start_key = _start(copy.n, edges)
            root, key = _refined(state)
            keys.add((start_key, key))
            assert _match(copy.n, edges, root, goals) == i
            others = goals[:i] + goals[i + 1:]
            assert _match(copy.n, edges, root, others) is None
            assert _match(copy.n, edges, root, [goals[i]]) == 0
            moved += _goal(edges, root)[1] != goals[i][1]
    assert len(keys) == 1  # the root colouring alone cannot tell them apart
    if group == "cubic10":
        # some copy's own first leaf differs from its class's, so the match
        # has to reach another leaf of its tree, as point (c) of the proof
        # says it does (the other groups' first leaves have one form each)
        assert moved
