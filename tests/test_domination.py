from __future__ import annotations

import hashlib
import pathlib
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import dpdp.domination
from dpdp._canon import _classes
from dpdp.catalog import (
    complete,
    cycle,
    enumerate_connected_multigraphs,
    enumerate_connected_simple,
    enumerate_trees,
    path,
    random_tree,
)
from dpdp.domination import (
    DpPair,
    _dp_search,
    _matching,
    dp_pair_problem,
    enumerate_dp_pairs,
    find_dp_pair,
    has_perfect_matching_on,
    is_dominating,
    is_dp_pair,
    is_dpdp,
    is_paired_dominating,
)
from dpdp.graph import Multigraph, read_graph6, read_graph6_file, write_graph6
from dpdp.minimality import _pairs_and_witness, deletion_witness
from dpdp.subdivision import build_s2

from helpers import (
    based_alphas,
    is_two_hub_theta,
    multigraphs,
    oracle_dominating,
    oracle_dp_ilp,
    oracle_dp_partitions,
    oracle_pairing_exists,
)


def test_is_dominating_examples():
    k3 = complete(3)
    assert all(is_dominating(k3, {v}) for v in range(3))
    assert not is_dominating(path(4), {0})
    for g in (path(5), cycle(4)):
        assert is_dominating(g, set(range(g.n)))


def test_matching_examples():
    p4 = path(4)
    assert has_perfect_matching_on(p4, {1, 2}) == (1,)
    assert has_perfect_matching_on(p4, {0, 1, 2}) is None
    # frozen from the exhaustive pairing oracle: C6 pairs completely
    assert oracle_pairing_exists(cycle(6), set(range(6)))
    assert has_perfect_matching_on(cycle(6), frozenset(range(6))) is not None


def test_matching_refuses_ids_that_are_not_vertices():
    # -1 used to wrap round to vertex 3: {-1, 0, 1, 2} was "matched" by
    # (0, 2), which covers 3 and leaves -1 uncovered; and {1, 2} dominates
    # P4, so is_dominating used to pass an extra id unseen
    p4 = path(4)
    cases = (({-1, 0, 1, 2}, -1), ({0, 1, 5, 4}, 4), ({-3, 9}, -3), ({1, 2, 7}, 7), ({-1, 1, 2}, -1))
    for s, bad in cases:
        for predicate in (has_perfect_matching_on, is_dominating, is_paired_dominating):
            with pytest.raises(ValueError, match=f"^malformed vertex id {bad}$"):
                predicate(p4, s)
    assert has_perfect_matching_on(Multigraph(0), set()) == ()


def test_matching_never_uses_loops():
    g = Multigraph(2, [(0, 0), (1, 1), (0, 1)])
    m = has_perfect_matching_on(g, {0, 1})
    assert m == (2,)
    lonely = Multigraph(1, [(0, 0)])
    assert has_perfect_matching_on(lonely, {0}) is None


def test_matching_agrees_with_pairing_oracle():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(2, 12)
        m = rng.randint(1, 2 * n)
        g = Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])
        s = {v for v in range(n) if rng.random() < 0.6}
        got = has_perfect_matching_on(g, s)
        assert (got is not None) == oracle_pairing_exists(g, s)
        if got is not None:
            covered = set()
            for eid in got:
                u, v = g.us[eid], g.vs[eid]
                assert u != v and u in s and v in s
                assert u not in covered and v not in covered
                covered |= {u, v}
            assert covered == s


def test_dp_pair_examples():
    p4 = path(4)
    pair = DpPair(frozenset({0, 3}), frozenset({1, 2}), (1,))
    assert is_dp_pair(p4, pair)
    k3 = complete(3)
    assert is_dp_pair(k3, DpPair(frozenset({0}), frozenset({1, 2}), (2,)))
    # C5 admits no valid pair at all
    assert enumerate_dp_pairs(cycle(5), cap=50) == []


def test_is_dp_pair_rejects_bad_certificates():
    p4 = path(4)
    assert not is_dp_pair(p4, DpPair(frozenset({0, 1}), frozenset({1, 2}), (1,)))
    assert not is_dp_pair(p4, DpPair(frozenset({0, 3}), frozenset({1, 2}), ()))
    assert not is_dp_pair(p4, DpPair(frozenset({1, 2}), frozenset({0, 3}), (0,)))


@pytest.mark.parametrize(
    "g, pair, problem",
    [
        (path(4), DpPair(frozenset({0, 1}), frozenset({1, 2}), (1,)),
         "D and P overlap at vertex 1"),
        (path(4), DpPair(frozenset({0}), frozenset({1, 2}), (1,)),
         "D and P do not partition the vertex set"),
        (complete(3), DpPair(frozenset(), frozenset({0, 1, 2}), (0,)),
         "P has odd size 3"),
        (path(4), DpPair(frozenset({0, 1}), frozenset({2, 3}), (2,)),
         "D is not dominating: vertex 3 has no neighbour in it"),
        (path(6), DpPair(frozenset({0, 1, 2, 5}), frozenset({3, 4}), (3,)),
         "P is not dominating: vertex 0 has no neighbour in it"),
        (path(4), DpPair(frozenset({0, 3}), frozenset({1, 2}), (3,)),
         "matching edge id 3 is not an edge of the graph"),
        (Multigraph(4, [(0, 1), (1, 1), (1, 2), (2, 3)]),
         DpPair(frozenset({0, 3}), frozenset({1, 2}), (1,)),
         "matching edge 1 is a loop"),
        (path(4), DpPair(frozenset({0, 3}), frozenset({1, 2}), (0,)),
         "matching edge 0 leaves P"),
        (Multigraph(4, [(0, 1), (1, 2), (1, 2), (2, 3)]),
         DpPair(frozenset({0, 3}), frozenset({1, 2}), (1, 2)),
         "vertex 1 is covered twice by the matching"),
        (path(4), DpPair(frozenset({0, 3}), frozenset({1, 2}), ()),
         "the matching leaves P-vertex 1 uncovered"),
    ],
    ids=["overlap", "partition", "odd", "d-dominating", "p-dominating",
         "edge-id", "loop", "outside", "twice", "uncovered"],
)
def test_dp_pair_problem_names_the_broken_clause(g, pair, problem):
    assert dp_pair_problem(g, pair) == problem
    assert not is_dp_pair(g, pair)


def test_is_paired_dominating():
    assert is_paired_dominating(cycle(6), frozenset(range(6)))
    assert not is_paired_dominating(path(4), frozenset({1}))


def test_path_table():
    for n in range(1, 21):
        assert is_dpdp(path(n)) == (n not in (1, 2, 3, 5, 6, 9)), n


def test_cycle_table():
    for n in range(3, 21):
        assert is_dpdp(cycle(n)) == (n != 5), n
    assert not is_dpdp(cycle(1)) and not is_dpdp(cycle(2))


def test_k4_is_dpdp():
    assert is_dpdp(complete(4))


def test_enumerate_p4_unique_pair():
    pairs = enumerate_dp_pairs(path(4), cap=10)
    assert len(pairs) == 1
    assert pairs[0].partition() == (frozenset({0, 3}), frozenset({1, 2}))


def test_enumerate_k3_three_pairs():
    pairs = enumerate_dp_pairs(complete(3), cap=10)
    assert len(pairs) == 3
    assert len({p.d for p in pairs}) == 3


def test_enumerate_cap_and_determinism():
    c6 = cycle(6)
    all_pairs = enumerate_dp_pairs(c6, cap=100)
    assert [p.d for p in enumerate_dp_pairs(c6, cap=2)] == [p.d for p in all_pairs[:2]]
    assert enumerate_dp_pairs(c6, cap=100) == all_pairs
    with pytest.raises(ValueError):
        enumerate_dp_pairs(c6, cap=0)


def test_every_result_respects_leaf_support_forcing():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(1, 9)
        m = rng.randint(0, 12)
        g = Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])
        for pair in enumerate_dp_pairs(g, cap=4):
            assert g.leaves() <= pair.d
            assert g.supports() <= pair.p
            assert is_dp_pair(g, pair)


def test_isolated_vertex_never_dpdp():
    g = Multigraph(3, [(0, 1)])
    assert not is_dpdp(g)


def test_empty_graph_vacuous():
    g = Multigraph(0, [])
    pairs = enumerate_dp_pairs(g, cap=3)
    assert pairs == [DpPair(frozenset(), frozenset(), ())]
    assert is_dp_pair(g, pairs[0])


def test_supergraph_monotonicity_fuzz():
    # adding any edge to a DPDP-graph keeps it DPDP
    rng = random.Random(23)
    checked = 0
    while checked < 60:
        n = rng.randint(3, 8)
        m = rng.randint(2, 12)
        g = Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])
        if not is_dpdp(g):
            continue
        u, v = rng.randrange(n), rng.randrange(n)
        bigger = Multigraph(n, [*zip(g.us, g.vs), (u, v)])
        assert is_dpdp(bigger), (g.edge_multiset(), (u, v))
        checked += 1


@st.composite
def planted_dpdp(draw, max_n: int = 8, max_extra: int = 6):
    """A multigraph with a planted DP-pair (D, P): P joined in pairs, each
    vertex joined to one of the other part, plus extra edges that may be
    loops or parallel; vertices and edge order are then shuffled."""
    half = draw(st.integers(1, (max_n - 1) // 2))  # |P| = 2 * half
    d = draw(st.integers(1, max_n - 2 * half))  # |D|
    n = d + 2 * half
    edges = [(d + 2 * i, d + 2 * i + 1) for i in range(half)]
    edges += [(x, draw(st.integers(d, n - 1))) for x in range(d)]
    edges += [(x, draw(st.integers(0, d - 1))) for x in range(d, n)]
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=max_extra))
    perm = draw(st.permutations(range(n)))
    return Multigraph(n, [(perm[u], perm[v]) for u, v in draw(st.permutations(edges))])


@settings(max_examples=200, deadline=None)
@given(planted_dpdp())
def test_adding_any_edge_keeps_a_dpdp_graph_dpdp(g):
    # every loop, parallel copy and new edge on g's vertices in turn
    assert is_dpdp(g)
    edges = list(zip(g.us, g.vs))
    for u in range(g.n):
        for v in range(u, g.n):
            assert is_dpdp(Multigraph(g.n, [*edges, (u, v)])), (g.edge_multiset(), (u, v))


def test_search_agrees_with_exhaustive_partitions_small():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 7)
        m = rng.randint(0, 10)
        g = Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])
        want = oracle_dp_partitions(g)
        got = sorted((p.d for p in enumerate_dp_pairs(g, cap=200)), key=sorted)
        assert got == want, g.edge_multiset()


# -- properties of the pruned search --------------------------------------


@st.composite
def s2_graphs(draw):
    """build_s2 of a random base with 1-4 edges and no isolated vertex."""
    ends = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                         min_size=1, max_size=4))
    used = sorted({v for e in ends for v in e})
    index = {v: i for i, v in enumerate(used)}
    h = Multigraph(len(used), [(index[u], index[v]) for u, v in ends])
    return build_s2(h)[0]


def _d_sets(g: Multigraph) -> list[frozenset[int]]:
    pairs = enumerate_dp_pairs(g, cap=10**6)
    # the witness assembled from per-component matchings is the one a
    # single matching call on the whole of P returns
    for pair in pairs:
        assert pair.matching == has_perfect_matching_on(g, pair.p)
    return sorted((p.d for p in pairs), key=sorted)


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=9, max_m=14))
def test_search_equals_exhaustive_partitions(g):
    assert _d_sets(g) == oracle_dp_partitions(g)


@settings(max_examples=60, deadline=None)
@given(s2_graphs())
def test_search_equals_exhaustive_partitions_on_s2_graphs(g):
    assert _d_sets(g) == oracle_dp_partitions(g)


@settings(max_examples=200, deadline=None)
@given(multigraphs(max_n=10, max_m=16), st.integers(1, 6))
def test_capped_search_is_a_prefix(g, k):
    assert enumerate_dp_pairs(g, cap=k) == enumerate_dp_pairs(g, cap=10**6)[:k]


# the masked edge is the loop at 0: the masked set-up closes the core
# component {1, 2} again, next to 0 but holding neither end
CLOSED_AGAIN = Multigraph(4, [(0, 0), (0, 1), (1, 2), (2, 3)])


@settings(max_examples=200, deadline=None)
@given(multigraphs(max_n=9, max_m=14))
@example(CLOSED_AGAIN)
def test_masked_search_equals_search_on_deleted_graph(g):
    search = _dp_search(g)
    for eid in range(g.m):
        smaller, id_map = g.delete_edge(eid)
        want = enumerate_dp_pairs(smaller, 10)
        # pairs, order and matchings (in G - eid's edge ids) all agree
        assert search(10, eid) == want
        for pair in want:
            masked = _matching(g, pair.p, eid)
            assert tuple(id_map[e] for e in masked) == pair.matching


def test_masked_search_matches_a_core_component_closed_again_once():
    # with the loop masked, emit takes {1, 2}'s matching from the masked
    # set-up's record alone, not from the core's record too
    pair = DpPair(frozenset({0, 3}), frozenset({1, 2}), (1,))
    assert _dp_search(CLOSED_AGAIN)(10, 0) == [pair]
    assert enumerate_dp_pairs(CLOSED_AGAIN.delete_edge(0)[0], 10) == [pair]


def test_masked_search_checks_the_component_the_deletion_closes():
    # in g's core {1, 2, 4} is a P-component left open only by 1's
    # unassigned neighbour 6; deleting edge 5 = (1, 6) closes it, odd, so
    # G - 5 has no pair although the 4-cycle on 6..9 still completes
    g = Multigraph(10, [(0, 1), (1, 2), (3, 2), (2, 4), (5, 4), (1, 6),
                        (6, 7), (7, 8), (8, 9), (9, 6)])
    search = _dp_search(g)
    for eid in range(g.m):
        assert search(10, eid) == enumerate_dp_pairs(g.delete_edge(eid)[0], 10) == []


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        multigraphs(max_n=9, max_m=14),
        # S2 hosts: many leaves and supports, so a large forced core
        based_alphas().map(lambda h_alpha: build_s2(*h_alpha)[0]),
    ),
    st.data(),
)
def test_one_engine_answers_every_deletion_in_any_order(g, data):
    # every search returns the engine to g's core: the edges in a drawn
    # order, again in id order, then g itself, all from one engine
    search = _dp_search(g)
    want = [enumerate_dp_pairs(g.delete_edge(eid)[0], 10) for eid in range(g.m)]
    for eid in data.draw(st.permutations(range(g.m))) + list(range(g.m)):
        # pairs, order and matchings (in G - eid's edge ids) all agree
        assert search(10, eid) == want[eid]
    assert search(10) == enumerate_dp_pairs(g, 10)


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=16, max_m=30), st.data())
def test_matching_agrees_with_networkx(g, data):
    nx = pytest.importorskip("networkx")
    s = data.draw(st.sets(st.integers(0, g.n - 1)))
    h = nx.Graph()
    h.add_nodes_from(s)
    h.add_edges_from((u, v) for u, v in zip(g.us, g.vs) if u != v and {u, v} <= s)
    nx_covers = 2 * len(nx.max_weight_matching(h, maxcardinality=True)) == len(s)
    got = has_perfect_matching_on(g, s)
    assert (got is not None) == nx_covers
    if got is not None:
        covered = []
        for eid in got:
            u, v = g.us[eid], g.vs[eid]
            assert u != v and {u, v} <= s
            covered += [u, v]
        assert sorted(covered) == sorted(s)


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=5, max_m=12), st.data())
def test_two_vertex_matching_is_the_lowest_joining_edge(g, data):
    # a pair is matched by its lowest joining edge other than skip, with
    # skip each edge of g in turn (the joining ones included) or None
    nx = pytest.importorskip("networkx")
    if g.n < 2:
        return
    a, b = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
    joining = [eid for eid, ends in enumerate(zip(g.us, g.vs)) if set(ends) == {a, b}]
    for skip in (None, *range(g.m)):
        want = min((eid for eid in joining if eid != skip), default=None)
        got = _matching(g, frozenset({a, b}), skip)
        assert got == (None if want is None else (want,))
        h = nx.Graph()
        h.add_nodes_from((a, b))
        h.add_edges_from((a, b) for eid in joining if eid != skip)
        assert (got is not None) == (len(nx.max_weight_matching(h, maxcardinality=True)) == 1)


# -- the engine's bytes and work -------------------------------------------

# dp_search_digest over dp_search_hosts(); the engine's pairs, their order,
# matchings and deletion witnesses may not change
DP_SEARCH_SHA256 = "49318f428cf9a15ee60cb6937e7e22d07409959e48d14ea4dc11474a7416e7b0"


def dp_search_digest(hosts) -> str:
    """SHA-256 over, for each host in turn, its first ten DP-pairs (D, P
    and matching) and its deletion witness."""
    digest = hashlib.sha256()
    for g in hosts:
        pairs = [(sorted(p.d), sorted(p.p), p.matching) for p in enumerate_dp_pairs(g, 10)]
        digest.update(repr((pairs, deletion_witness(g))).encode() + b"\n")
    return digest.hexdigest()


def dp_search_hosts():
    """1,517 hosts: the connected multigraphs with up to 6 edges and the S2
    of each, the S2 of every tree on 2-11 vertices with every leaf doubled,
    and the S2 of every connected simple graph on 2-6 vertices."""
    for h in enumerate_connected_multigraphs(6):
        yield h
        yield build_s2(h)[0]
    for n in range(2, 12):
        for t in enumerate_trees(n):
            yield build_s2(t, {v: 2 for v in t.leaves()})[0]
    for n in range(2, 7):
        for h in enumerate_connected_simple(n):
            yield build_s2(h)[0]


def test_dp_search_bytes_pinned():
    assert dp_search_digest(dp_search_hosts()) == DP_SEARCH_SHA256


def test_dp_search_work_pinned(monkeypatch):
    # the unmasked component matchings, those made on g itself; a forcing
    # rule that prunes more, or a found pair that decides a deletion without
    # a masked search, may lower the count, never raise it
    calls = 0
    real = _matching

    def counted(g, s, skip):
        nonlocal calls
        calls += skip is None
        return real(g, s, skip)

    monkeypatch.setattr(dpdp.domination, "_matching", counted)
    for n in range(2, 7):
        for h in enumerate_connected_simple(n):
            _pairs_and_witness(build_s2(h)[0], 2)
    assert calls == 1651


def test_found_pairs_keep_the_deletion_witness():
    # the scan of _pairs_and_witness lets a found pair that survives a
    # deletion decide it; the witness must be the one the masked searches
    # alone give, with one pair handed over and with two
    fixture = pathlib.Path(__file__).parent / "fixtures" / "simple_n7.g6"
    s2_n7 = (build_s2(h)[0] for h in read_graph6_file(fixture.read_text()))
    checked = 0
    for g in (*dp_search_hosts(), *s2_n7):
        witness = deletion_witness(g)
        for cap in (1, 2):
            assert _pairs_and_witness(g, cap)[1] == witness, (cap, g.edge_multiset())
        checked += 1
    assert checked == 1517 + 853


def _sparse_gnp_hosts() -> list[Multigraph]:
    """The first 5 connected G(n, 3/(n - 1)) draws for each n in 30, 40,
    50, 60, in that order, from one random.Random(2026); a disconnected
    draw is dropped."""
    rng = random.Random(2026)
    hosts: list[Multigraph] = []
    for n in (30, 40, 50, 60):
        row: list[Multigraph] = []
        while len(row) < 5:
            g = Multigraph(n, [e for e in combinations(range(n), 2) if rng.random() < 3 / (n - 1)])
            if g.is_connected():
                row.append(g)
        hosts += row
    return hosts


def test_dp_search_agrees_with_the_ilp_oracle():
    # an independent 0/1 program against the DP search, on 100 classes of
    # 7-vertex graphs, on sparse random graphs of 30-60 vertices (all
    # DPDP) and on 40 random trees of 30-60 vertices (38 not DPDP)
    fixture = pathlib.Path(__file__).parent / "fixtures" / "simple_n7.g6"
    rng = random.Random(2026)
    trees = [random_tree(n, rng) for n in (30, 40, 50, 60) for _ in range(10)]
    hosts = [
        *random.Random(1).sample(read_graph6_file(fixture.read_text()), 100),
        *_sparse_gnp_hosts(),
        *trees,
    ]
    found = 0
    for g in hosts:
        pair = find_dp_pair(g)  # is_dpdp(g) == (pair is not None)
        assert (pair is not None) == oracle_dp_ilp(g), g.edge_multiset()
        if pair is not None:
            assert oracle_dominating(g, pair.d) and oracle_dominating(g, pair.p)
            found += 1
    assert found == 96 + 20 + 2


@pytest.mark.parametrize(
    "n, total, refuted, exception", [(5, 21, 3, "DqK"), (6, 112, 12, "EsOw"), (7, 853, 34, "Fs`@w")]
)
def test_census_of_non_dpdp_graphs(n, total, refuted, exception):
    # the connected simple graphs on n vertices that are not DPDP, and the
    # one of them with minimum degree >= 2: two hubs joined by n - 4 paths
    # of 2 edges and one of 3, the family Southey and Henning's results
    # are set against (Cent. Eur. J. Math. 8 (2010); J. Comb. Optim. 22
    # (2011)); CI checks n = 8, 112 of 11,117 and GsaA@{
    graphs = enumerate_connected_simple(n)
    refuted_graphs = [g for g in graphs if not is_dpdp(g)]
    assert (len(graphs), len(refuted_graphs)) == (total, refuted)
    assert [write_graph6(g) for g in refuted_graphs if min(map(g.degree, range(n))) >= 2] == [exception]
    assert is_two_hub_theta(exception)


# The edge-maximal non-DPDP connected simple graphs on 7 and 8 vertices:
# adding any non-edge makes each of them DPDP.  Adding an edge keeps every
# DP-pair, so every non-DPDP connected graph is a connected spanning
# subgraph of one of them, and every such subgraph is non-DPDP
MAXIMAL_NON_DPDP = {
    7: ["FsaC?", "FsOc_", "FqJE?", "FsOMG", "FqoMO", "FqHf?", "Fs`@w"],
    8: ["GsaCC?", "Gs`?MC", "Gs`E@_", "Gs`A@o", "Gs`D?o", "GsO_f_", "GqJEE?", "Gs`?Lg",
        "GsOcf?", "GsOccc", "GsOLDC", "GsaB?s", "GqHbF?", "GsaA@{", "GqoMUO"],
}


def census_from_maximal(n: int) -> tuple[list[str], int, int, int, int, int]:
    """The census of non-DPDP graphs in tests/fixtures/simple_n{n}.g6
    rebuilt from MAXIMAL_NON_DPDP[n]: (the census's edge-maximal members in
    graph6, in file order; the number of connected spanning subgraphs of
    the pinned ones; how many of those are DPDP; their isomorphism
    classes; their classes with the census added; the census's size)."""
    fixture = pathlib.Path(__file__).parent / "fixtures" / f"simple_n{n}.g6"
    census = [g for g in read_graph6_file(fixture.read_text()) if not is_dpdp(g)]
    maximal = []
    for g in census:
        edges = list(zip(g.us, g.vs))
        more = [e for e in combinations(range(n), 2) if e not in edges]
        if all(is_dpdp(Multigraph(n, [*edges, e])) for e in more):
            maximal.append(write_graph6(g))
    spanning = []
    for line in MAXIMAL_NON_DPDP[n]:
        g = read_graph6(line)
        edges = list(zip(g.us, g.vs))
        for k in range(n - 1, g.m + 1):
            spanning += [
                h for h in (Multigraph(n, list(sub)) for sub in combinations(edges, k))
                if h.is_connected()
            ]
    candidates = [(h.n, list(zip(h.us, h.vs))) for h in spanning]
    with_census = candidates + [(g.n, list(zip(g.us, g.vs))) for g in census]
    return (
        maximal,
        len(spanning),
        sum(map(is_dpdp, spanning)),
        len(_classes(candidates)),
        len(_classes(with_census)),
        len(census),
    )


def test_census_rebuilt_from_its_edge_maximal_members():
    # CI checks n = 8: 1,218 subgraphs of 15 maximal graphs give all 112
    assert census_from_maximal(7) == (MAXIMAL_NON_DPDP[7], 211, 0, 34, 34, 34)


def test_ilp_oracle_refutes_the_hard_60_vertex_graph():
    # hard_dp60.g6: a connected G(60, 0.05) draw with 96 edges, 11 leaves
    # and 10 supports, on which find_dp_pair had not returned after 25
    # minutes of wall time (2-core VM, Python 3.11.7); the core leaves 38
    # vertices unassigned in one block.  The LP relaxation is feasible, so
    # the 0/1 program's "no" is not a counting argument.  This test does
    # not run the DP search
    fixture = pathlib.Path(__file__).parent / "fixtures" / "hard_dp60.g6"
    (g,) = read_graph6_file(fixture.read_text())
    assert (g.n, g.m, len(g.leaves()), len(g.supports())) == (60, 96, 11, 10)
    assert g.is_connected()
    assert oracle_dp_ilp(g) is False


def test_ilp_oracle_finds_the_stalling_60_vertex_graphs_dpdp():
    # stall_dp60.g6: draws 5 and 18 (counting from 0) of the c = 5, n = 60
    # row of connected G(n, c/(n - 1)) graphs from one random.Random(2026),
    # after the 80 connected draws of the c = 3 rows at n = 30, 40, 50 and
    # 60 (20 each); each draw takes the vertex pairs of
    # combinations(range(n), 2) with probability c/(n - 1), and a
    # disconnected draw is dropped.  find_dp_pair ran past a 3 s cap on
    # both, so this test does not run the DP search
    fixture = pathlib.Path(__file__).parent / "fixtures" / "stall_dp60.g6"
    graphs = read_graph6_file(fixture.read_text())
    assert [(g.n, g.m) for g in graphs] == [(60, 136), (60, 158)]
    for g in graphs:
        assert g.is_connected()
        assert oracle_dp_ilp(g) is True
