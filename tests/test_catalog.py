from __future__ import annotations

import pathlib
import random
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpdp._canon
import dpdp.catalog
from dpdp._canon import _automorphisms, _class_order, classes_by_isomorphism, is_isomorphic
from dpdp.catalog import (
    CONNECTED_CUBIC_COUNTS,
    CONNECTED_SIMPLE_COUNTS,
    complete,
    complete_bipartite,
    corona,
    cycle,
    double_star,
    enumerate_connected_cubic,
    enumerate_connected_multigraphs,
    enumerate_connected_simple,
    enumerate_trees,
    path,
    random_tree,
    star,
)
from dpdp.graph import (
    Multigraph,
    is_cycle_graph,
    is_path_graph,
    read_edge_list,
    read_graph6,
    read_graph6_file,
    write_dot,
    write_edge_list,
    write_graph6,
)

from helpers import (
    cubic_backtrack,
    edge_order_digest,
    multigraphs,
    oracle_connected_multigraphs,
    random_looped_multigraphs,
    start_colours_by_definition,
)


def test_family_examples():
    c1 = cycle(1)
    assert c1.n == 1 and c1.m == 1 and c1.us[0] == c1.vs[0]
    c2 = cycle(2)
    assert c2.n == 2 and c2.m == 2 and all(u != v for u, v in zip(c2.us, c2.vs))
    ds = double_star(2, 3)
    assert ds.n == 7 and ds.m == 6
    non_leaves = [v for v in range(ds.n) if ds.degree(v) > 1]
    assert len(non_leaves) == 2 and non_leaves[1] in ds.plain_neighbors(non_leaves[0])
    cp3 = corona(path(3))
    assert cp3.n == 6
    assert all(v in cp3.leaves() or v in cp3.supports() for v in range(cp3.n))


def test_generalized_corona():
    g = corona(path(2), [2, 3])
    assert g.n == 7 and g.m == 6
    assert len(g.leaves()) == 5
    with pytest.raises(ValueError):
        corona(path(2), [1, 0])
    with pytest.raises(ValueError):
        corona(path(2), [1])


def test_family_parameter_validation():
    for bad in (lambda: path(0), lambda: cycle(0), lambda: star(0),
                lambda: double_star(0, 1), lambda: complete_bipartite(0, 2)):
        with pytest.raises(ValueError):
            bad()


def test_enumerate_connected_simple_counts():
    for n in range(1, 8):
        got = enumerate_connected_simple(n)
        assert len(got) == CONNECTED_SIMPLE_COUNTS[n - 1]
        for g in got:
            assert g.n == n and g.is_connected() and g.is_simple()
    n3 = enumerate_connected_simple(3)
    assert any(is_isomorphic(g, path(3)) for g in n3)
    assert any(is_isomorphic(g, complete(3)) for g in n3)


def test_enumerate_connected_simple_no_duplicates():
    for n in range(1, 7):
        graphs = enumerate_connected_simple(n)
        assert len(classes_by_isomorphism(list(graphs))) == len(graphs)


def test_enumerate_range_checks():
    with pytest.raises(ValueError):
        enumerate_connected_simple(9)
    for bad in (0, 7):
        with pytest.raises(ValueError):
            enumerate_connected_multigraphs(bad)


def test_enumerate_multigraphs_small():
    m1 = enumerate_connected_multigraphs(1)
    assert len(m1) == 2
    assert any(g.m == 1 and g.us[0] == g.vs[0] for g in m1)  # C1
    assert any(is_isomorphic(g, path(2)) for g in m1)  # P2

    m2 = enumerate_connected_multigraphs(2)
    assert any(is_isomorphic(g, cycle(2)) for g in m2)
    assert any(is_isomorphic(g, path(3)) for g in m2)
    assert any(is_isomorphic(g, Multigraph(2, [(0, 1), (1, 1)])) for g in m2)
    assert any(is_isomorphic(g, Multigraph(1, [(0, 0), (0, 0)])) for g in m2)


def test_enumerate_multigraphs_properties(multigraphs_le5):
    seen = set()
    for g in multigraphs_le5:
        assert g.is_connected()
        assert all(g.degree(v) > 0 for v in range(g.n))
        assert 1 <= g.m <= 5
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m
        key = (g.n, g.edge_multiset())
        assert key not in seen
        seen.add(key)


#: edge_order_digest of the 470 classes of oracle_connected_multigraphs(6)
#: in the documented order (the oracle takes ~10 s)
MULTIGRAPHS_LE6_SHA256 = "c1dbe1f33537a22af4b205ee66a4309199dea668f0629d66f6d5e1b0d6cb719b"


def _documented_order(g: Multigraph) -> tuple:
    return (g.m, g.n, tuple(sorted(g.degree(v) for v in range(g.n))), g.edge_multiset())


def test_enumerate_multigraphs_match_oracle():
    oracle = oracle_connected_multigraphs(5)
    for k in range(1, 6):
        got = enumerate_connected_multigraphs(k)
        listed = [(g.n, tuple(zip(g.us, g.vs))) for g in got]
        assert len(set(listed)) == len(listed)
        assert set(listed) == {(n, edges) for n, edges in oracle if len(edges) <= k}
        keys = [_documented_order(g) for g in got]
        assert keys == sorted(keys)


def test_enumerate_multigraphs_six_edges_pinned():
    got = enumerate_connected_multigraphs(6)
    assert [sum(g.m == m for g in got) for m in range(1, 7)] == [2, 4, 11, 30, 95, 328]
    assert edge_order_digest(got) == MULTIGRAPHS_LE6_SHA256


def test_enumerate_trees_counts():
    # classical free-tree counts (OEIS A000055)
    want = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}
    for n, k in want.items():
        assert len(enumerate_trees(n)) == k


def test_random_tree_is_tree():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 14)
        t = random_tree(n, rng)
        assert t.n == n and t.m == n - 1 and t.is_connected() and t.is_simple()


def test_cubic_enumeration_counts_small():
    for n in (4, 6, 8):
        got = enumerate_connected_cubic(n)
        assert len(got) == CONNECTED_CUBIC_COUNTS[n]
        for g in got:
            assert all(g.degree(v) == 3 for v in range(g.n)) and g.is_connected()
    assert any(is_isomorphic(g, complete(4)) for g in enumerate_connected_cubic(4))
    six = enumerate_connected_cubic(6)
    assert any(is_isomorphic(g, complete_bipartite(3, 3)) for g in six)
    prism = Multigraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                           (0, 3), (1, 4), (2, 5)])
    assert any(is_isomorphic(g, prism) for g in six)


def test_graph6_k3_bytes():
    assert write_graph6(complete(3)) == "Bw"
    assert read_graph6("Bw") == complete(3)


def test_graph6_roundtrip_exhaustive_n5():
    for g in enumerate_connected_simple(5):
        assert read_graph6(write_graph6(g)) == g


def test_graph6_roundtrip_random_n_le_20():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 20)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.3]
        g = Multigraph(n, edges)
        assert read_graph6(write_graph6(g)) == g


def test_graph6_rejects():
    with pytest.raises(ValueError):
        write_graph6(cycle(1))  # loop
    with pytest.raises(ValueError):
        write_graph6(cycle(2))  # parallel edges
    with pytest.raises(ValueError):
        write_graph6(Multigraph(63, []))
    with pytest.raises(ValueError):
        read_graph6("")
    with pytest.raises(ValueError):
        read_graph6("Bwx")  # trailing bytes
    with pytest.raises(ValueError):
        read_graph6("~??")  # long-form size not supported


def test_graph6_header_tolerated():
    assert read_graph6(">>graph6<<Bw") == complete(3)


def test_edge_list_roundtrip():
    g = Multigraph(4, [(0, 1), (0, 1), (2, 2), (2, 3)])
    assert read_edge_list(write_edge_list(g)) == g


@st.composite
def simple_graphs(draw, max_n: int):
    """Random simple graphs, n = 0 included."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return Multigraph(n, [])
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    return Multigraph(n, sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]}))


@settings(max_examples=300, deadline=None)
@given(simple_graphs(max_n=62))
def test_graph6_roundtrip_property(g):
    back = read_graph6(write_graph6(g))
    assert back.n == g.n and back.edge_multiset() == g.edge_multiset()


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=12, max_m=30))
def test_edge_list_roundtrip_property(g):
    # loops and parallel edges survive, and so do the edge ids
    back = read_edge_list(write_edge_list(g))
    assert back.n == g.n
    assert (back.us, back.vs) == (g.us, g.vs)


def test_edge_list_examples():
    g = read_edge_list("2 2\n0 1\n0 1\n")
    assert is_isomorphic(g, cycle(2))
    g = read_edge_list("# a comment\n3 1\n\n0 2\n")
    assert g.n == 3 and g.m == 1


def test_edge_list_errors():
    for text in ("", "2\n", "2 2\n0 1\n", "1 1\n0 1 2\n", "x y\n", "10000000 0\n"):
        with pytest.raises(ValueError):
            read_edge_list(text)


def test_cubic_fixture_file():
    import pathlib

    fixture = pathlib.Path(__file__).parent / "fixtures" / "cubic_le10.g6"
    graphs = read_graph6_file(fixture.read_text())
    upto10 = {n: k for n, k in CONNECTED_CUBIC_COUNTS.items() if n <= 10}
    assert len(graphs) == sum(upto10.values())  # 27
    by_n: dict[int, list[Multigraph]] = {}
    for g in graphs:
        assert g.is_connected() and all(g.degree(v) == 3 for v in range(g.n))
        by_n.setdefault(g.n, []).append(g)
    assert {n: len(v) for n, v in by_n.items()} == upto10
    # pairwise non-isomorphic
    for n, batch in by_n.items():
        assert len(classes_by_isomorphism(batch)) == len(batch)
    # every size regenerates to the same classes (n = 10: 19, OEIS A002851),
    # told apart by networkx's VF2
    nx = pytest.importorskip("networkx")
    for n, batch in by_n.items():
        regen = enumerate_connected_cubic(n)
        assert len(regen) == len(batch)
        fixed = [nx.Graph(list(zip(g.us, g.vs))) for g in batch]
        for g in regen:
            h = nx.Graph(list(zip(g.us, g.vs)))
            assert sum(nx.is_isomorphic(h, k) for k in fixed) == 1


def test_cubic_fixture_is_the_enumerators_output_in_order():
    # the representatives, not only their classes, line for line
    fixture = pathlib.Path(__file__).parent / "fixtures" / "cubic_le10.g6"
    got = [write_graph6(g) for n in (4, 6, 8, 10) for g in enumerate_connected_cubic(n)]
    assert got == fixture.read_text().splitlines()


def _listed(graphs) -> list[tuple]:
    return [(g.n, g.us, g.vs) for g in graphs]


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_cubic_pruning_keeps_the_unpruned_output(n):
    # the partial-graph pruning against the backtracking without it, both
    # through the same dedup: representatives, edge order and output order
    assert _listed(enumerate_connected_cubic(n)) == _listed(
        dpdp.catalog._classes(cubic_backtrack(n))
    )


#: edge_order_digest of enumerate_connected_cubic(12): the representatives,
#: their edge order and the output order
CUBIC_12_EDGE_ORDER_SHA256 = "91b047c1abd1d6d4db2e6638a74758404027ae607d0380cf0c2437245bc10240"


def test_cubic_12_classes():
    # OEIS A002851; told apart pairwise by networkx, used as an oracle: two
    # graphs with different sorted distance profiles are not isomorphic,
    # and VF2 decides the pairs that share one
    got = enumerate_connected_cubic(12)
    assert len(got) == CONNECTED_CUBIC_COUNTS[12] == 85
    assert edge_order_digest(got) == CUBIC_12_EDGE_ORDER_SHA256
    nx = pytest.importorskip("networkx")
    groups: dict[tuple, list] = {}
    for g in got:
        assert g.n == 12 and g.is_simple() and g.is_connected()
        assert all(g.degree(v) == 3 for v in range(g.n))
        h = nx.Graph(list(zip(g.us, g.vs)))
        profile = tuple(sorted(
            tuple(sorted(lengths.values())) for _, lengths in nx.all_pairs_shortest_path_length(h)
        ))
        groups.setdefault(profile, []).append(h)
    for group in groups.values():
        for i, h in enumerate(group):
            assert not any(nx.is_isomorphic(h, k) for k in group[i + 1:])


def test_cubic_range():
    assert enumerate_connected_cubic(2) == enumerate_connected_cubic(13) == ()
    with pytest.raises(ValueError):
        enumerate_connected_cubic(16)


def test_simple_n7_fixture_file():
    fixture = pathlib.Path(__file__).parent / "fixtures" / "simple_n7.g6"
    graphs = read_graph6_file(fixture.read_text())
    assert len(graphs) == CONNECTED_SIMPLE_COUNTS[6]  # 853, OEIS A001349
    for g in graphs:
        assert g.n == 7 and g.is_simple() and g.is_connected()
    # the enumerator's output, representative for representative, in order
    assert [write_graph6(g) for g in enumerate_connected_simple(7)] == (
        fixture.read_text().splitlines()
    )


def test_simple_n8_fixture_file():
    # written from enumerate_connected_simple(8), which takes too long to
    # call here: every line a distinct class of a connected simple graph
    fixture = pathlib.Path(__file__).parent / "fixtures" / "simple_n8.g6"
    graphs = read_graph6_file(fixture.read_text())
    assert len(graphs) == CONNECTED_SIMPLE_COUNTS[7]  # 11117, OEIS A001349
    for g in graphs:
        assert g.n == 8 and g.is_simple() and g.is_connected()
    assert len(classes_by_isomorphism(graphs)) == len(graphs)


def _mask_image(mask: int, a) -> int:
    return sum(1 << a[v] for v in range(len(a)) if mask >> v & 1)


def test_found_automorphisms_give_the_full_orbits_on_six_vertices():
    # the neighbour sets the augmentation to 7 vertices tries, against the
    # orbits of Aut(g) found by trying all 720 relabellings of each base
    kept = 0
    for g in enumerate_connected_simple(6):
        ends = list(zip(g.us, g.vs))
        edges = g.edge_multiset()
        group = [
            p for p in permutations(range(6))
            if tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in ends)) == edges
        ]
        least = [
            mask for mask in range(1, 64)
            if all(_mask_image(mask, p) >= mask for p in group)
        ]
        assert list(dpdp.catalog._orbit_minima(range(1, 64), _automorphisms(6, ends))) == least
        kept += len(least)
    assert kept == 3771


@st.composite
def connected_simple_bases(draw):
    """Connected simple graphs on 1-7 vertices: a random spanning tree
    plus random chords."""
    n = draw(st.integers(1, 7))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 2:
        pairs = [(u, v) for v in range(n) for u in range(v)]
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=12)))
    return Multigraph(n, sorted(edges))


def _connected_without(g: Multigraph, w: int) -> bool:
    left = [v for v in range(g.n) if v != w]
    seen = set(left[:1])
    todo = list(seen)
    while todo:
        x = todo.pop()
        for u, v in zip(g.us, g.vs):
            for a, b in ((u, v), (v, u)):
                if a == x and b != w and b not in seen:
                    seen.add(b)
                    todo.append(b)
    return len(seen) == len(left)


def _has_earlier_parent_by_definition(g: Multigraph, mask: int) -> bool:
    """Does g grown by a new vertex joined to mask have a vertex w of g
    with C - w connected and (m, sorted degrees) of C - w below g's?"""
    n = g.n
    c = Multigraph(n + 1, list(zip(g.us, g.vs)) + [(v, n) for v in range(n) if mask >> v & 1])
    base = (g.m, sorted(g.degree(v) for v in range(n)))
    for w in range(n):
        kept = [(u, v) for u, v in zip(c.us, c.vs) if w not in (u, v)]
        degree = [sum((u, v).count(x) for u, v in kept) for x in range(n + 1) if x != w]
        if (len(kept), sorted(degree)) < base and _connected_without(c, w):
            return True
    return False


@settings(max_examples=150, deadline=None)
@given(connected_simple_bases())
def test_degree_bound_drops_only_what_the_earliest_parent_test_rejects(g):
    # the earliest-parent test against its definition, on every mask; the
    # bound drops a mask M of two or more vertices when a vertex w whose
    # deletion leaves the base connected has deg(w) + [w in M] > |M|, and
    # every mask it drops is one the test rejects, so _grow hands on
    # exactly the candidates of the orbit skip and that test alone, for
    # every mask and for the trees' single-vertex masks, which need no
    # bound at all
    catalog = dpdp.catalog
    rows = catalog._rows(g)
    degrees = tuple(sorted(g.degree(v) for v in range(g.n)))
    non_cut = [w for w in range(g.n) if _connected_without(g, w)]
    top = max(g.degree(w) for w in non_cut)
    at = sum(1 << w for w in non_cut if g.degree(w) == top)
    assert catalog._non_cut_top(rows) == (top, at)
    every = range(1, 1 << g.n)
    for mask in every:
        rejected = _has_earlier_parent_by_definition(g, mask)
        assert catalog._has_earlier_parent(rows, degrees, mask) == rejected, mask
        k = mask.bit_count()
        if k > 1 and any(g.degree(w) + (mask >> w & 1) > k for w in non_cut):
            assert rejected, mask
    base = list(zip(g.us, g.vs))
    autos = _automorphisms(g.n, base)
    for masks in (every, [1 << v for v in range(g.n)]):
        want = [
            (g.n + 1, base + [(v, g.n) for v in range(g.n) if mask >> v & 1])
            for mask in catalog._orbit_minima(masks, autos)
            if not catalog._has_earlier_parent(rows, degrees, mask)
        ]
        with pytest.MonkeyPatch.context() as mp:
            if masks is not every:
                mp.setattr(catalog, "_non_cut_top", None)  # never called
            assert [(n, ends) for n, ends, _ in catalog._grow([g], masks)] == want


def _orbit(mask: int, perms) -> set[int]:
    """The orbit of mask under the group the permutations perms generate,
    each image taken bit by bit."""
    orbit = {mask}
    todo = [mask]
    while todo:
        x = todo.pop()
        for p in perms:
            y = _mask_image(x, p)
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit


@st.composite
def permutation_lists(draw):
    """(n, perms): up to three permutations of 0..n-1, n <= 16, that move
    only the points of one drawn set of at most seven, anywhere in 0..n-1,
    so that the orbits stay small."""
    n = draw(st.integers(1, 16))
    moved = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=7))
    perms = []
    for _ in range(draw(st.integers(0, 3))):
        p = list(range(n))
        for v, w in zip(moved, draw(st.permutations(moved))):
            p[v] = w
        perms.append(p)
    return n, perms


@settings(max_examples=200, deadline=None)
@given(permutation_lists(), st.data())
def test_orbit_minima_by_table_against_the_definition(n_perms, data):
    # on more than 8 points a mask's image takes one table lookup per
    # byte; the masks are the orbits of random seeds, in increasing order,
    # as _orbit_minima asks, and it gives the least member of each orbit
    n, perms = n_perms
    seeds = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))
    orbits = {frozenset(_orbit(mask, perms)) for mask in seeds}
    masks = sorted(set().union(*orbits))
    assert list(dpdp.catalog._orbit_minima(masks, perms)) == sorted(map(min, orbits))


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=7, max_m=16))
def test_start_key_counts_the_defined_colours(g):
    # with loops and parallel edges too, _start colours each vertex by its
    # (degree, loop count, triangles) and keys the graph by n, m and their
    # sorted list
    ends = list(zip(g.us, g.vs))
    colours = start_colours_by_definition(g.n, ends)
    start = dpdp._canon._start(g.n, ends)
    assert start[1] == (g.n, g.m, tuple(sorted(colours)))
    assert start == dpdp._canon._ranked(g.n, ends, colours)


@pytest.mark.parametrize(
    "enumerate_, masks, sizes, candidates",
    [
        (enumerate_connected_simple, lambda k: range(1, 1 << k), range(2, 8), 1033),
        (enumerate_trees, lambda k: [1 << v for v in range(k)], range(2, 11), 257),
    ],
    ids=["simple", "trees"],
)
def test_grown_start_colours_are_the_counted_ones(enumerate_, masks, sizes, candidates):
    # on every candidate _grow hands on, the start colours it derives from
    # the base are those counted from the candidate's edges, and give
    # _start's colouring and key
    grown = 0
    for n in sizes:
        for k, ends, colours in dpdp.catalog._grow(enumerate_(n - 1), masks(n - 1)):
            assert colours == start_colours_by_definition(k, ends), ends
            assert dpdp._canon._ranked(k, ends, colours) == dpdp._canon._start(k, ends)
            grown += 1
    assert grown == candidates


@pytest.mark.parametrize(
    "enumerate_, size, brought, kept",
    [
        (enumerate_connected_cubic, 10, 255, 127),
        (enumerate_connected_simple, 7, 1033, 995),
        (enumerate_connected_multigraphs, 6, 0, 468),
    ],
    ids=["cubic", "simple", "multigraphs"],
)
def test_brought_and_kept_start_colours_are_the_counted_ones(
    monkeypatch, enumerate_, size, brought, kept
):
    # the start colours a candidate brings to the add-or-match step (a
    # partial graph or leaf from the cubic backtracker's running counts, a
    # grown graph from its base's) are those counted from its edges, and every
    # record keeps _start's colouring, in the bucket of _start's key, for
    # a later collision to refine from
    add, start_of, kept_of = dpdp._canon._Seen.add, dpdp._canon._start, dpdp._canon._kept
    counts = [0, 0]

    def checking_add(self, n, ends, *colours):
        start, key = start_of(n, ends)
        if colours:
            assert colours[0] == start_colours_by_definition(n, ends), ends
            assert dpdp._canon._ranked(n, ends, *colours) == (start, key)
            counts[0] += 1
        new = add(self, n, ends, *colours)
        if new:
            entry = self.buckets[hash(key)][-1]
            assert entry[0] == n and kept_of(n, entry[1]) == (list(ends), *start[1:]), ends
            counts[1] += 1
        return new

    enumerate_.cache_clear()
    monkeypatch.setattr(dpdp._canon._Seen, "add", checking_add)
    try:
        enumerate_(size)
    finally:
        enumerate_.cache_clear()
    assert counts == [brought, kept]


@pytest.mark.parametrize(
    "n, adds, leaves", [(8, 52, 12), (10, 255, 69), (12, 1567, 468)], ids=["8", "10", "12"]
)
def test_cubic_hands_each_labelled_graph_over_once(monkeypatch, n, adds, leaves):
    # v is joined in increasing order only, so each labelled partial graph
    # is reached along one path: no labelled edge set reaches the
    # add-or-match step twice (partial graphs and the final dedup's
    # candidates together), and no leaf reaches the final dedup twice.
    # (85, 411 and 2,469 adds, 23, 131 and 837 of them leaves, when v was
    # joined in every order)
    added, handed = [], []
    add, dedup = dpdp._canon._Seen.add, dpdp.catalog._classes

    def recording_add(self, k, ends, *colours):
        added.append((k, tuple(sorted(ends))))
        return add(self, k, ends, *colours)

    def recording(candidates):
        candidates = list(candidates)
        handed.extend((k, tuple(ends)) for k, ends, _ in candidates)
        return dedup(candidates)

    enumerate_connected_cubic.cache_clear()
    monkeypatch.setattr(dpdp._canon._Seen, "add", recording_add)
    monkeypatch.setattr(dpdp.catalog, "_classes", recording)
    try:
        classes = len(enumerate_connected_cubic(n))
    finally:
        enumerate_connected_cubic.cache_clear()
    assert classes == CONNECTED_CUBIC_COUNTS[n]
    assert len(set(added)) == len(added) == adds
    assert len(set(handed)) == len(handed) == leaves


def test_cubic_counts_no_start_colours(monkeypatch):
    # every partial graph and every leaf brings the start colours the
    # backtracker keeps as it joins, so the dedup counts none from edges
    # (12, 69 and 468 counts for the leaves of n = 8, 10 and 12 when they
    # came as bare edge lists); __wrapped__ bypasses the cache
    colours = dpdp._canon._colours
    calls = []

    def counted(n, ends):
        calls.append(n)
        return colours(n, ends)

    monkeypatch.setattr(dpdp._canon, "_colours", counted)
    assert len(enumerate_connected_cubic.__wrapped__(12)) == CONNECTED_CUBIC_COUNTS[12]
    assert calls == []


def test_enumeration_work_pinned(monkeypatch):
    # the degree bound, the orbit skip and the earliest-parent test hand
    # 1,033 candidates to the dedup for n = 2..7 (4,159 with the orbit skip
    # alone, 7,815 with neither), and only the first of each class becomes
    # a Multigraph; the bound leaves the earliest-parent test 2,032 masks
    # (2,717 when it covered only vertices w outside the mask, 4,159
    # without it)
    handed = []
    dedup = dpdp.catalog._classes
    tested = []
    has_earlier_parent = dpdp.catalog._has_earlier_parent

    def counting_test(*args):
        tested.append(1)
        return has_earlier_parent(*args)

    def counting(candidates):
        candidates = list(candidates)
        handed.append(len(candidates))
        return dedup(candidates)

    built = []
    init = Multigraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    enumerate_connected_simple.cache_clear()
    monkeypatch.setattr(dpdp.catalog, "_classes", counting)
    monkeypatch.setattr(dpdp.catalog, "_has_earlier_parent", counting_test)
    monkeypatch.setattr(Multigraph, "__init__", counting_init)
    try:
        classes = sum(len(enumerate_connected_simple(n)) for n in range(1, 8))
    finally:
        enumerate_connected_simple.cache_clear()
    assert handed == [1, 2, 6, 21, 113, 890]
    assert len(tested) == 2032
    assert len(built) == classes == 996


def test_cubic_work_pinned(monkeypatch):
    # the partial-graph pruning, with v joined in increasing order only,
    # hands 12 labelled graphs to the dedup at n = 8 and 69 at n = 10,
    # against 236 and 4,384 unpruned (23 and 131 when v was joined in every
    # order, so that one labelled graph was reached along several paths)
    handed = []
    dedup = dpdp.catalog._classes

    def counting(candidates):
        candidates = list(candidates)
        handed.append(len(candidates))
        return dedup(candidates)

    enumerate_connected_cubic.cache_clear()
    monkeypatch.setattr(dpdp.catalog, "_classes", counting)
    try:
        classes = [len(enumerate_connected_cubic(n)) for n in (8, 10)]
    finally:
        enumerate_connected_cubic.cache_clear()
    assert classes == [5, 19] and handed == [12, 69]


@pytest.mark.parametrize(
    "enumerate_, sizes, refines",
    [(enumerate_connected_simple, range(1, 8), 1144), (enumerate_connected_cubic, [10], 753)],
    ids=["simple", "cubic"],
)
def test_dedup_work_pinned(monkeypatch, enumerate_, sizes, refines):
    # the add-or-match step refines no graph whose start key is new and
    # searches none whose root key is new, matches one that collides at
    # both levels against the first leaves of the recorded graphs' trees,
    # and takes each recorded graph's first leaf at most once, by its first
    # descent alone (one refinement per depth below the root, no tree
    # search); the recorded graphs are the classes and, for cubic, the
    # partial graphs the pruning records.  (1,367 cubic refinements when
    # the backtracker joined v in every order and handed the repeats over;
    # 1,979 and 1,448 when every candidate's root colouring was refined;
    # 2,022 and 14,952 before the one-descent goals and, for cubic, the
    # pruning; 6,112 and 30,760 when every candidate was labelled)
    refine, goal, add = dpdp._canon._refine, dpdp._canon._goal, dpdp._canon._Seen.add
    refines_made = 0
    goals = []
    recorded = []

    def counting_refine(*args):
        nonlocal refines_made
        refines_made += 1
        return refine(*args)

    def recording_goal(ends, root):
        before = refines_made
        trace, form = goal(ends, root)
        assert refines_made - before == len(trace) - 1
        goals.append((len(root[0]), tuple(ends)))
        return trace, form

    def recording_add(self, n, ends, *colours):
        new = add(self, n, ends, *colours)
        recorded.append(new)
        return new

    enumerate_.cache_clear()
    monkeypatch.setattr(dpdp._canon, "_refine", counting_refine)
    monkeypatch.setattr(dpdp._canon, "_goal", recording_goal)
    monkeypatch.setattr(dpdp._canon._Seen, "add", recording_add)
    try:
        for n in sizes:
            enumerate_(n)
    finally:
        enumerate_.cache_clear()
    assert refines_made == refines
    assert len(set(goals)) == len(goals) <= sum(recorded)


def test_enumeration_memory_pinned():
    # the classes keep no adjacency index until one is asked for, the sort
    # keys hold int edge codes, and the dedup state is freed before the
    # sort: the traced peak of the simple classes up to 7 vertices is
    # 0.34 MiB, 0.69 MiB as the first enumeration in the process (2.97 and
    # 3.88 MiB when every class kept its index and its sort key held (u, v)
    # tuples)
    enumerate_connected_simple.cache_clear()
    tracemalloc.start()
    try:
        enumerate_connected_simple(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        enumerate_connected_simple.cache_clear()
    assert peak < 1.5 * (1 << 20)


def _edge_multiset_order(g: Multigraph) -> tuple:
    """The sort key of the classes written with edge pairs: _class_order
    must order graphs as this does, ties included."""
    return (g.n, g.m, tuple(sorted(g.degree(v) for v in range(g.n))), g.edge_multiset())


def test_class_order_sorts_as_the_edge_pair_key():
    graphs = [
        *(g for n in range(1, 8) for g in enumerate_connected_simple(n)),
        *enumerate_connected_multigraphs(6),
        *(t for n in range(1, 11) for t in enumerate_trees(n)),
        *(g for n in (4, 6, 8, 10) for g in enumerate_connected_cubic(n)),
        *random_looped_multigraphs(300, 29),
    ]
    random.Random(29).shuffle(graphs)
    # the lists overlap (trees and cubic graphs are simple classes too),
    # so the stable sorts meet ties and must keep them in the same order
    by_codes = sorted(graphs, key=_class_order)
    by_pairs = sorted(graphs, key=_edge_multiset_order)
    assert [id(g) for g in by_codes] == [id(g) for g in by_pairs]
    # equal code keys exactly when equal pair keys
    both = {(_class_order(g), _edge_multiset_order(g)) for g in graphs}
    assert len(both) == len({codes for codes, _ in both}) == len({pairs for _, pairs in both})
    assert len(both) < len(graphs)


def test_write_dot():
    text = write_dot(path(2))
    assert "graph" in text and "0 -- 1" in text


# -- the earliest-parent test against growing every orbit minimum -------------

def _every_set(k: int):
    return range(1, 1 << k)  # the neighbour sets a simple graph is grown by


def _one_vertex(k: int):
    return (1 << v for v in range(k))  # those a tree is grown by


def _orbit_minimum_candidates(bases, masks) -> list[tuple[int, tuple]]:
    """(base index, candidate) for every base grown by a new vertex joined
    to every orbit-minimum neighbour set, with no earliest-parent skip."""
    out = []
    for i, g in enumerate(bases):
        ends = list(zip(g.us, g.vs))
        for mask in dpdp.catalog._orbit_minima(masks(g.n), _automorphisms(g.n, ends)):
            out.append((i, (g.n + 1, ends + [(v, g.n) for v in range(g.n) if mask >> v & 1])))
    return out


@pytest.mark.parametrize(
    "enumerate_, masks, sizes",
    [
        (enumerate_connected_simple, _every_set, range(2, 8)),
        (enumerate_trees, _one_vertex, range(2, 12)),
    ],
    ids=["simple", "trees"],
)
def test_earliest_parent_skip_keeps_every_representative(enumerate_, masks, sizes):
    # the unskipped candidates through the same dedup give the same
    # representatives, edge order and output order included
    for n in sizes:
        every = [c for _, c in _orbit_minimum_candidates(enumerate_(n - 1), masks)]
        assert _listed(dpdp.catalog._classes(every)) == _listed(enumerate_(n))


@pytest.mark.parametrize(
    "enumerate_, masks, top",
    [(enumerate_connected_simple, _every_set, 6), (enumerate_trees, _one_vertex, 9)],
    ids=["simple", "trees"],
)
def test_dropped_candidates_have_an_earlier_copy(monkeypatch, enumerate_, masks, top):
    # every orbit-minimum candidate the enumerator does not hand to the
    # dedup is isomorphic (networkx) to one it hands over from an earlier base
    nx = pytest.importorskip("networkx")
    handed: dict[int, list] = {}
    dedup = dpdp.catalog._classes

    def recording(candidates):
        candidates = list(candidates)
        handed[candidates[0][0]] = [(n, list(ends)) for n, ends, _ in candidates]
        return dedup(candidates)

    enumerate_.cache_clear()
    monkeypatch.setattr(dpdp.catalog, "_classes", recording)
    try:
        enumerate_(top)
    finally:
        enumerate_.cache_clear()
    dropped_total = 0
    for n in range(2, top + 1):
        kept: list[tuple[int, object]] = []  # (base index, networkx graph)
        rest = iter(handed[n])
        following = next(rest, None)
        for i, candidate in _orbit_minimum_candidates(enumerate_(n - 1), masks):
            h = nx.MultiGraph()
            h.add_nodes_from(range(n))
            h.add_edges_from(candidate[1])
            if candidate == following:
                kept.append((i, h))
                following = next(rest, None)
                continue
            dropped_total += 1
            assert any(j < i and nx.is_isomorphic(h, k) for j, k in kept), (n, candidate)
        assert following is None  # the handed candidates are a subsequence
    assert dropped_total > 0
