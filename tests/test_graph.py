from __future__ import annotations

import random

import pytest

from dpdp.catalog import complete, cycle, path, star
from dpdp.graph import Multigraph, is_cycle_graph, is_path_graph


def test_degree_loop_counts_twice():
    c1 = cycle(1)
    assert c1.degree(0) == 2


def test_degree_path_end():
    assert path(4).degree(0) == 1


def test_degree_parallel_edges():
    assert cycle(2).degree(0) == 2


def test_handshake_on_families():
    for g in (path(7), cycle(1), cycle(2), cycle(9), complete(5), star(4),
              Multigraph(3, [(0, 0), (0, 1), (1, 2), (1, 2)])):
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


def test_handshake_random_multigraphs():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 9)
        m = rng.randint(0, 14)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        g = Multigraph(n, edges)
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


def test_neighborhood_loop_self_membership():
    assert cycle(1).neighborhood(0) == {0}
    g = Multigraph(2, [(0, 1)])
    assert g.neighborhood(0) == {1}


def test_leaves_supports_star():
    g = star(3)
    assert g.leaves() == {1, 2, 3}
    assert g.supports() == {0}


def test_leaves_supports_cycle_empty():
    g = cycle(6)
    assert not g.leaves() and not g.supports()


def test_supports_literal_definition():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 9)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 12))]
        g = Multigraph(n, edges)
        assert g.supports() == frozenset(
            v for v in range(g.n) if g.neighborhood(v) & g.leaves()
        )


def test_p2_both_vertices_leaf_and_support():
    g = path(2)
    assert g.leaves() == {0, 1}
    assert g.supports() == {0, 1}


def test_delete_edge_middle_of_path():
    g, id_map = path(4).delete_edge(1)
    assert g.n == 4
    assert sorted(len(c) for c in g.connected_components()) == [2, 2]
    assert id_map == {0: 0, 2: 1}


def test_delete_edge_cases():
    c3, _ = cycle(3).delete_edge(0)
    assert is_path_graph(c3)
    c2, _ = cycle(2).delete_edge(1)
    assert c2.m == 1 and not c2.edges[0].is_loop()
    with pytest.raises(ValueError):
        path(3).delete_edge(5)


def test_delete_edge_preserves_vertex_ids():
    g = Multigraph(5, [(0, 1), (1, 2), (3, 4), (2, 3)])
    smaller, _ = g.delete_edge(2)
    assert smaller.n == g.n
    assert smaller.degree(4) == 0


def test_connectivity():
    p10 = path(10)
    assert p10.is_connected()
    two = Multigraph(4, [(0, 1), (2, 3)])
    assert len(two.connected_components()) == 2
    assert not two.is_connected()


def test_loops_and_parallels_do_not_affect_connectivity():
    g = Multigraph(3, [(0, 0), (0, 1), (0, 1), (1, 2)])
    assert g.is_connected()


def test_empty_graph_is_legal():
    g = Multigraph(0, [])
    assert g.n == 0 and g.m == 0
    assert g.connected_components() == []
    assert g.leaves() == frozenset()


def test_structure_predicates():
    assert is_path_graph(path(1))
    assert is_path_graph(path(6))
    assert not is_path_graph(cycle(4))
    assert is_cycle_graph(cycle(1))
    assert is_cycle_graph(cycle(2))
    assert is_cycle_graph(cycle(8))
    assert not is_cycle_graph(path(3))


def test_immutability():
    g = path(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_edge_endpoint_validation():
    with pytest.raises(ValueError):
        Multigraph(2, [(0, 2)])


def test_equality_and_hash_ignore_edge_order():
    g = Multigraph(4, [(0, 1), (1, 2), (2, 2), (1, 2)])
    same = Multigraph(4, [(2, 1), (2, 2), (2, 1), (1, 0)])
    assert g == same and hash(g) == hash(same)
    assert len({g, same}) == 1
    assert g != Multigraph(4, [(0, 1), (1, 2), (2, 2)])  # multiplicity counts
    assert g != Multigraph(5, [(0, 1), (1, 2), (2, 2), (1, 2)])
    assert g.__eq__(5) is NotImplemented and (g == 5) is False
