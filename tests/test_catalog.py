from __future__ import annotations

import random

import pytest

from dpdp._canon import canonical_form, classes_by_isomorphism, is_isomorphic
from dpdp.catalog import (
    CONNECTED_CUBIC_COUNTS,
    CONNECTED_SIMPLE_COUNTS,
    GraphFamily,
    complete,
    complete_bipartite,
    corona,
    cycle,
    double_star,
    enumerate_connected_cubic,
    enumerate_connected_multigraphs,
    enumerate_connected_simple,
    enumerate_trees,
    make,
    path,
    random_tree,
    read_edge_list,
    read_graph6,
    read_graph6_file,
    star,
    write_dot,
    write_edge_list,
    write_graph6,
)
from dpdp.graph import Multigraph, is_cycle_graph, is_path_graph


def test_family_examples():
    c1 = cycle(1)
    assert c1.n == 1 and c1.m == 1 and c1.edges[0].is_loop()
    c2 = cycle(2)
    assert c2.n == 2 and c2.m == 2 and not any(e.is_loop() for e in c2.edges)
    ds = double_star(2, 3)
    assert ds.n == 7 and ds.m == 6
    non_leaves = [v for v in range(ds.n) if ds.degree(v) > 1]
    assert len(non_leaves) == 2 and ds.edge_between(*non_leaves) is not None
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


def test_make_dispatch():
    assert make(GraphFamily("path", (4,))) == path(4)
    assert make(GraphFamily("cycle", (5,))) == cycle(5)
    assert make(GraphFamily("double_star", (2, 3))) == double_star(2, 3)
    with pytest.raises(ValueError):
        make(GraphFamily("nope", ()))


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
        enumerate_connected_simple(8)
    with pytest.raises(ValueError):
        enumerate_connected_multigraphs(6)


def test_enumerate_multigraphs_small():
    m1 = enumerate_connected_multigraphs(1)
    assert len(m1) == 2
    assert any(g.m == 1 and g.edges[0].is_loop() for g in m1)  # C1
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


def test_enumerate_trees_counts():
    # classical free-tree counts
    want = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
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


def test_edge_list_examples():
    g = read_edge_list("2 2\n0 1\n0 1\n")
    assert is_isomorphic(g, cycle(2))
    g = read_edge_list("# a comment\n3 1\n\n0 2\n")
    assert g.n == 3 and g.m == 1


def test_edge_list_errors():
    for text in ("", "2\n", "2 2\n0 1\n", "1 1\n0 1 2\n", "x y\n"):
        with pytest.raises(ValueError):
            read_edge_list(text)


def test_cubic_fixture_file():
    import pathlib

    fixture = pathlib.Path(__file__).parent / "fixtures" / "cubic_le10.g6"
    graphs = read_graph6_file(fixture.read_text())
    assert len(graphs) == sum(CONNECTED_CUBIC_COUNTS.values())  # 27
    by_n: dict[int, list[Multigraph]] = {}
    for g in graphs:
        assert g.is_connected() and all(g.degree(v) == 3 for v in range(g.n))
        by_n.setdefault(g.n, []).append(g)
    assert {n: len(v) for n, v in by_n.items()} == CONNECTED_CUBIC_COUNTS
    # pairwise non-isomorphic
    for n, batch in by_n.items():
        assert len(classes_by_isomorphism(batch)) == len(batch)
    # every size regenerates to the same classes (n = 10: 19, OEIS A002851)
    for n, batch in by_n.items():
        regen = enumerate_connected_cubic(n)
        assert sorted(canonical_form(g) for g in regen) == sorted(
            canonical_form(g) for g in batch
        )


def test_write_dot():
    text = write_dot(path(2))
    assert "graph" in text and "0 -- 1" in text
