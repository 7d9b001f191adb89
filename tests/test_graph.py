from __future__ import annotations

import gc
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import dpdp.graph
from dpdp._canon import classes_by_isomorphism
from dpdp.catalog import complete, corona, cycle, path, star
from dpdp.cli import _graph_json, _labeling_json, _pair_json
from dpdp.domination import enumerate_dp_pairs
from dpdp.goodsub import find_good_subgraph, reduce_via_good_subgraph
from dpdp.graph import (
    EdgeRecord,
    Multigraph,
    is_cycle_graph,
    is_path_graph,
    read_edge_list,
    write_dot,
    write_edge_list,
)
from dpdp.minimality import xcheck
from dpdp.subdivision import build_s2, invert_s2


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
    assert c2.m == 1 and c2.us[0] != c2.vs[0]
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
    # _adj is the one adjacency slot; once the index is built, it stays
    # read-only like every other slot
    assert Multigraph.__slots__ == ("n", "us", "vs", "_degree", "_adj")
    g = Multigraph(3, [(0, 1), (1, 1)])
    g.plain_neighbors(0)
    assert g._adj is not None
    for name in (*Multigraph.__slots__, "edges", "m", "fresh_name"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
    assert isinstance(g.us, tuple) and isinstance(g.vs, tuple)


def test_assignment_after_construction_raises():
    # __init__ sets the slots past the guard; afterwards every assignment
    # raises and changes nothing
    g = Multigraph(3, [(0, 1), (1, 1)])
    for name in (*Multigraph.__slots__, "edges", "m", "fresh_name"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(g, name, None)
    assert (g.n, g.us, g.vs, g.m) == (3, (0, 1), (1, 1), 2)


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


# -- the flat storage against values recomputed from the raw edge list ---------


@st.composite
def raw_multigraphs(draw, max_n: int = 8, max_m: int = 14):
    """(n, edges): a raw edge list with loops and parallel edges."""
    n = draw(st.integers(0, max_n))
    if n == 0:
        return 0, []
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=max_m))


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


#: the accessors that read the adjacency index, any of which may be the
#: first to touch it
INDEXED = ("plain_neighbors", "neighborhood", "incident_edges", "is_simple", "connected_components")


def _raw_answers(n: int, edges: list[tuple[int, int]]) -> dict[str, object]:
    """What each accessor of INDEXED must answer, from the raw edge list."""
    plain = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            plain[u].add(v)
            plain[v].add(u)
    looped = {u for u, v in edges if u == v}
    keys = [_key(u, v) for u, v in edges]
    comps, seen = [], set()
    for x in range(n):
        if x not in seen:
            comp, todo = {x}, [x]
            while todo:
                for w in plain[todo.pop()] - comp:
                    comp.add(w)
                    todo.append(w)
            seen |= comp
            comps.append(comp)
    return {
        # ascending ids, a loop listed once
        "incident_edges": [tuple(i for i, e in enumerate(edges) if x in e) for x in range(n)],
        "plain_neighbors": plain,
        "neighborhood": [plain[x] | {x} if x in looped else plain[x] for x in range(n)],
        "is_simple": not looped and len(set(keys)) == len(keys),
        "connected_components": comps,
    }


def _answers(g: Multigraph, name: str):
    """The accessor's answers: per vertex, or one value for the graph."""
    if name in ("is_simple", "connected_components"):
        return getattr(g, name)()
    return [getattr(g, name)(x) for x in range(g.n)]


@settings(max_examples=300, deadline=None)
@given(raw_multigraphs())
def test_queries_match_the_raw_edge_list(n_edges):
    n, edges = n_edges
    g = Multigraph(n, edges)
    assert (g.n, g.m) == (n, len(edges))
    assert list(zip(g.us, g.vs)) == edges
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    assert [g.degree(x) for x in range(n)] == degree
    want = _raw_answers(n, edges)
    # each indexed accessor in turn is the first to touch a fresh graph;
    # the one that builds the index and those that read it all answer right
    for first in INDEXED:
        fresh = Multigraph(n, edges)
        assert fresh._adj is None
        assert _answers(fresh, first) == want[first], first
        # a per-vertex accessor on a graph with no vertex is never called
        assert (fresh._adj is not None) == (n > 0 or first in ("is_simple", "connected_components"))
        for name in INDEXED:
            assert _answers(fresh, name) == want[name], (first, name)
    leaves = {x for x in range(n) if degree[x] == 1}
    assert g.leaves() == leaves
    assert g.supports() == {
        x for x in range(n)
        if any((u == x and v in leaves) or (v == x and u in leaves) for u, v in edges)
    }
    keys = [_key(u, v) for u, v in edges]
    assert g.edge_multiset() == tuple(sorted(keys))


@settings(max_examples=300, deadline=None)
@given(raw_multigraphs(max_n=10, max_m=16))
def test_supports_one_pass_against_the_definition(n_edges):
    # the far ends of the leaves' edges, found in one pass over the edges
    # and with no adjacency index, are the vertices whose neighbourhood
    # meets the leaves
    g = Multigraph(*n_edges)
    got = g.supports()
    assert g._adj is None
    assert got == frozenset(v for v in range(g.n) if g.neighborhood(v) & g.leaves())


@settings(max_examples=200, deadline=None)
@given(raw_multigraphs(), st.data())
def test_delete_edges_matches_the_raw_edge_list(n_edges, data):
    n, edges = n_edges
    g = Multigraph(n, edges)
    drop = data.draw(st.sets(st.integers(0, len(edges) - 1)) if edges else st.just(set()))
    smaller, id_map = g.delete_edges(drop)
    kept = [i for i in range(len(edges)) if i not in drop]
    assert smaller.n == n
    assert list(zip(smaller.us, smaller.vs)) == [edges[i] for i in kept]
    assert id_map == {old: new for new, old in enumerate(kept)}


@settings(max_examples=100, deadline=None)
@given(raw_multigraphs())
def test_pickle_keeps_equality_and_edge_ids(n_edges):
    g = Multigraph(*n_edges)
    back = pickle.loads(pickle.dumps(g))
    assert back == g and hash(back) == hash(g)
    assert (back.us, back.vs) == (g.us, g.vs)
    # __reduce__ rebuilds from the edge list, so the copy of an indexed
    # graph starts without an index and builds an equal one
    for name in INDEXED:
        _answers(g, name)
    back = pickle.loads(pickle.dumps(g))
    assert back._adj is None
    assert [_answers(back, name) for name in INDEXED] == [_answers(g, name) for name in INDEXED]
    assert [back.degree(x) for x in range(back.n)] == [g.degree(x) for x in range(g.n)]


def test_threads_building_the_index_at_once_agree():
    # four threads touch one fresh graph at once, switching often;
    # whichever builds the index, every reader sees a complete one
    rng = random.Random(4)
    n = 400
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)]
    want = _raw_answers(n, edges)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for first in INDEXED:
            g = Multigraph(n, edges)
            start = threading.Barrier(4, timeout=60)
            got = []

            def touch():
                start.wait()
                got.append([_answers(g, name) for name in (first, *INDEXED)])

            threads = [threading.Thread(target=touch) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert len(got) == 4
            for answers in got:
                assert answers == [want[first]] + [want[name] for name in INDEXED], first
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=100, deadline=None)
@given(raw_multigraphs())
def test_edge_records_view(n_edges):
    n, edges = n_edges
    g = Multigraph(n, edges)
    records = g.edges
    # equal views on each access, and the graph keeps no records
    assert records == g.edges
    assert not any(
        isinstance(x, tuple) and x and isinstance(x[0], EdgeRecord) for x in gc.get_referents(g)
    )
    for i, (u, v) in enumerate(edges):
        e = records[i]
        assert e == EdgeRecord(i, u, v) and (e.id, e.u, e.v) == (i, u, v)
    with pytest.raises(AttributeError):
        EdgeRecord(0, 0, 1).u = 2
    # a bare (id, u, v) value: every method comes from the record base
    assert not [name for name, value in vars(EdgeRecord).items() if callable(value)]


def test_engines_build_no_edge_records(monkeypatch):
    # construction, edits and every engine read the flat tuples; only a
    # caller that asks for g.edges builds records
    def forbidden(*args):
        raise AssertionError("an EdgeRecord was built")

    monkeypatch.setattr(dpdp.graph, "EdgeRecord", forbidden)
    for h in (complete(4), Multigraph(3, [(0, 1), (1, 2), (1, 2), (2, 2)]), path(5)):
        g, lab = build_s2(h)
        g = read_edge_list(write_edge_list(g))
        write_dot(corona(h))
        assert len(classes_by_isomorphism([g, g])) == 1
        assert invert_s2(g) is not None
        _labeling_json(lab)
        for pair in enumerate_dp_pairs(g, 10):
            _pair_json(g, pair)
        _graph_json(g.delete_edges([0, 1])[0])
        assert xcheck(h).consistent
        cert = find_good_subgraph(h)
        if cert is not None:
            reduce_via_good_subgraph(h, None, cert)
