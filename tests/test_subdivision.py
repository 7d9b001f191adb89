from __future__ import annotations

import hashlib
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpdp.subdivision
from dpdp._canon import is_isomorphic
from dpdp.catalog import complete, cycle, double_star, path
from dpdp.domination import is_dp_pair
from dpdp.graph import (
    MAX_EDGE_LIST_VERTICES,
    Multigraph,
    is_cycle_graph,
    is_path_graph,
    read_graph6_file,
)
from dpdp.subdivision import (
    _s2_order,
    build_s2,
    canonical_dp_pair,
    invert_s2,
    is_2_subdivision,
)

from helpers import based_alphas, oracle_is_s2

# SHA-256 over every field of invert_s2's result, dict order included, on
# the inputs of test_invert_outputs_pinned
INVERT_OUTPUTS_SHA256 = (
    "fa7e48afb2539791fba89b4bd280e3038f0c3edbcaecaf47f7b77af4e66be353"
)


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


def test_s2_order_is_bounded_by_the_edge_list_limit():
    # K2's S2 has alpha(0) + alpha(1) + 2 vertices; the limit itself is
    # allowed, one more is refused before anything is built
    k2 = path(2)
    limit = MAX_EDGE_LIST_VERTICES
    assert _s2_order(k2, {0: limit - 3, 1: 1}) == limit
    with pytest.raises(ValueError, match=f"limit of {limit}"):
        _s2_order(k2, {0: limit - 2, 1: 1})
    with pytest.raises(ValueError, match=f"limit of {limit}"):
        build_s2(k2, {0: limit - 2})
    # the non-leaves and two new vertices per edge count too
    h = double_star(1, 2)
    assert _s2_order(h, {2: 5, 3: 1, 4: 1}) == 2 + 7 + 2 * 4 == build_s2(h, {2: 5})[0].n


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
        for eid, ends in enumerate(zip(h.us, h.vs)):
            for side, endpoint in zip((1, 2), ends):
                nv = lab.new_vertex[(eid, side)]
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
    # the local check passes here (old 1, 3, 5, 6; new pairs 0-2 and 4-7),
    # and only the degree check refuses new vertices 0 and 4, each beside
    # a leaf and a non-leaf
    mixed = Multigraph(8, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (4, 6), (1, 7), (4, 7)])
    assert invert_s2(mixed) is None and not oracle_is_s2(mixed)


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


def _relabelled(g: Multigraph, rng: random.Random) -> Multigraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in zip(g.us, g.vs)]
    rng.shuffle(edges)
    return Multigraph(g.n, edges)


def _assert_tag_roundtrip(g: Multigraph, inv) -> Multigraph:
    """build_s2(base, alpha) equals g edge-for-edge through the tags, and
    every labeling table names vertices and edges of g; returns the
    rebuild."""
    base, alpha, lab = inv
    rebuilt, lab2 = build_s2(base, alpha)
    mapping = [lab2.vertex_of(t) for t in lab.provenance]
    assert sorted(mapping) == list(range(g.n))
    remapped = sorted(
        (min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) for u, v in zip(g.us, g.vs)
    )
    assert tuple(remapped) == rebuilt.edge_multiset()
    assert [lab.vertex_of(t) for t in lab.provenance] == list(range(g.n))
    keys = [tuple(sorted(ends)) for ends in zip(g.us, g.vs)]
    for eid, (u, v) in enumerate(zip(base.us, base.vs)):
        n1, n2 = lab.new_vertex[(eid, 1)], lab.new_vertex[(eid, 2)]
        assert keys[lab.middle_edge[eid]] == (min(n1, n2), max(n1, n2))
        for side, nv, end in ((1, n1, u), (2, n2, v)):
            reps = lab.copy_vertices.get(end) or (lab.old_vertex[end],)
            ends = [keys[a] for a in lab.attach_edges[(eid, side)]]
            assert ends == [(min(r, nv), max(r, nv)) for r in reps]
    return rebuilt


def _assert_roundtrip(h: Multigraph, alpha: dict[int, int] | None) -> None:
    g, _ = build_s2(h, alpha)
    inv = invert_s2(g)
    assert inv is not None, (h.n, h.edge_multiset(), alpha)
    _assert_tag_roundtrip(g, inv)


def test_roundtrip_sweep(multigraphs_le5):
    for h in multigraphs_le5:
        leaves = sorted(h.leaves())
        for alpha in [None] + ([{leaves[0]: 2}] if leaves else []):
            _assert_roundtrip(h, alpha)


@settings(max_examples=200, deadline=None)
@given(based_alphas())
def test_roundtrip_random_alpha(h_alpha):
    _assert_roundtrip(*h_alpha)


@settings(max_examples=200, deadline=None)
@given(based_alphas(), st.randoms(use_true_random=False))
def test_relabelled_and_perturbed_s2(h_alpha, rng):
    nx = pytest.importorskip("networkx")
    g = _relabelled(build_s2(*h_alpha)[0], rng)
    inv = invert_s2(g)
    assert inv is not None
    rebuilt = _assert_tag_roundtrip(g, inv)
    assert nx.is_isomorphic(
        nx.Graph(list(zip(g.us, g.vs))),
        nx.Graph(list(zip(rebuilt.us, rebuilt.vs))),
    )
    # one edge less or more, or a pendant: whatever is still recognised
    # round-trips, and the brute-force oracle agrees on each, and on g
    assert oracle_is_s2(g)
    edges = list(zip(g.us, g.vs))
    u, v = rng.sample(range(g.n), 2)  # an S2 graph has at least 3 vertices
    for near in (
        g.delete_edge(rng.randrange(g.m))[0],
        Multigraph(g.n, edges + [(u, v)]),
        Multigraph(g.n + 1, edges + [(rng.randrange(g.n), g.n)]),
    ):
        inv = invert_s2(near)
        assert (inv is not None) == oracle_is_s2(near)
        if inv is not None:
            _assert_tag_roundtrip(near, inv)


# Bases whose 2-subdivisions a colouring by distance gets wrong if it
# starts anywhere but at the leaves and the vertices of degree >= 3 with no
# leaf neighbour, or skips the local check
NAMED_BASES = {
    # no vertex of degree >= 3 without a leaf neighbour: only the leaves
    # seed, and the two copies of leaf 0 are 2 apart
    "K2, alpha 2 and 1": (path(2), {0: 2, 1: 1}),
    # the old centre has degree 2, so it is reached, not seeded
    "P3": (path(3), {}),
    # the loop's triangle is a dead end 1 step past vertex 0
    "a looped vertex with a pendant": (Multigraph(2, [(0, 0), (0, 1)]), {}),
    # two routes of equal length from old 1 to old 0
    "parallel edges": (Multigraph(3, [(0, 1), (0, 1), (1, 2)]), {2: 2}),
    # a C9 with no seed, numbered before and after a seeded component
    "a triangle beside P3": (Multigraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]), {3: 2}),
    "P3 beside a triangle": (Multigraph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]), {2: 3}),
}


@pytest.mark.parametrize("name", NAMED_BASES)
def test_invert_named_cases(name):
    h, alpha = NAMED_BASES[name]
    built, want = build_s2(h, alpha)
    rng = random.Random(5)
    for g in [built] + [_relabelled(built, rng) for _ in range(8)]:
        inv = invert_s2(g)
        assert inv is not None
        _assert_tag_roundtrip(g, inv)
        base, got_alpha, lab = inv
        assert is_isomorphic(base, h)
        assert sorted(got_alpha.values()) == sorted(want.alpha.values())
        # every component without a seed, a cycle, has its lowest vertex old
        for c in g.connected_components():
            if all(g.degree(v) == 2 for v in c):
                assert lab.provenance[min(c)][0] == "old"
        assert oracle_is_s2(g)
        # and with one edge less, invert_s2 agrees with the oracle
        for eid in range(g.m):
            near = g.delete_edge(eid)[0]
            assert (invert_s2(near) is not None) == oracle_is_s2(near)


def test_invert_agrees_with_the_oracle_on_small_graphs(simple_connected):
    # every connected simple graph on 1-7 vertices; the brute-force
    # colouring of tests/helpers.py never calls dpdp.subdivision
    counts = []
    for n in range(1, 8):
        got = [invert_s2(g) is not None for g in simple_connected[n]]
        assert got == [oracle_is_s2(g) for g in simple_connected[n]]
        counts.append(sum(got))
    assert counts == [0, 0, 1, 1, 2, 4, 5]


def invert_digest(graphs) -> str:
    """SHA-256 over every field of invert_s2's result, dict order included,
    on each graph in turn."""
    digest = hashlib.sha256()
    for g in graphs:
        inv = invert_s2(g)
        fields = None
        if inv is not None:
            base, alpha, lab = inv
            fields = (
                base.n, list(zip(base.us, base.vs)), list(alpha.items()),
                list(lab.alpha.items()), lab.provenance,
                list(lab.old_vertex.items()), list(lab.copy_vertices.items()),
                list(lab.new_vertex.items()), list(lab.middle_edge.items()),
                list(lab.attach_edges.items()),
            )
        digest.update(repr(fields).encode() + b"\n")
    return digest.hexdigest()


def test_invert_outputs_pinned(multigraphs_le5):
    fixture = pathlib.Path(__file__).parent / "fixtures" / "simple_n7.g6"
    graphs = read_graph6_file(fixture.read_text())
    rng = random.Random(7)
    for h in multigraphs_le5:
        for alpha in (None, {v: 1 + v % 3 for v in h.leaves()}):
            g, _ = build_s2(h, alpha)
            graphs += [g, _relabelled(g, rng)]
    assert invert_digest(graphs) == INVERT_OUTPUTS_SHA256


def test_invert_builds_only_the_base(monkeypatch):
    # the labeling is read off g itself, so no second graph is built to
    # compare with
    g = build_s2(path(6), {0: 2})[0]
    built = []

    def counting(*args):
        built.append(Multigraph(*args))
        return built[-1]

    monkeypatch.setattr(dpdp.subdivision, "Multigraph", counting)
    base, _, _ = invert_s2(g)
    assert len(built) == 1 and built[0] is base


def test_invert_deterministic_on_rotations():
    # C9 admits three valid taggings; the lexicographically least wins
    base1, _, lab1 = invert_s2(cycle(9))
    base2, _, lab2 = invert_s2(cycle(9))
    assert lab1.provenance == lab2.provenance
    assert lab1.provenance[0][0] == "old"

    # under relabelling too, and next to a component with leaves: the
    # lowest vertex of every pure-cycle component is old
    rng = random.Random(3)
    with_leaves = build_s2(path(3), {0: 2, 2: 3})[0]
    c9, leafy = _relabelled(cycle(9), rng), _relabelled(with_leaves, rng)
    union = Multigraph(
        9 + with_leaves.n,
        [*zip(c9.us, c9.vs)] + [(u + 9, v + 9) for u, v in zip(leafy.us, leafy.vs)],
    )
    for g in (
        _relabelled(cycle(9), rng),
        _relabelled(cycle(12), rng),
        union,
        _relabelled(union, rng),
    ):
        inv = invert_s2(g)
        assert inv is not None
        _assert_tag_roundtrip(g, inv)
        (c,) = [
            c for c in g.connected_components() if all(g.degree(v) == 2 for v in c)
        ]
        assert inv[2].provenance[min(c)][0] == "old"


def test_invert_empty_graph():
    base, alpha, _ = invert_s2(Multigraph(0, []))
    assert base.n == 0 and alpha == {}
