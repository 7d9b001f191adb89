from __future__ import annotations

import hashlib
import pathlib
import random
import sys
import time
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpdp.goodsub
from dpdp.catalog import (
    complete,
    complete_bipartite,
    corona,
    cycle,
    enumerate_connected_multigraphs,
    enumerate_connected_simple,
    enumerate_trees,
    path,
    random_tree,
    star,
)
from dpdp.domination import DpPair, is_dp_pair, is_dpdp
from dpdp.goodsub import (
    GoodSubgraphCertificate,
    apply_reduction,
    edge_boundary,
    find_good_subgraph,
    reduce_via_good_subgraph,
    verify_good_certificate,
)
from dpdp.graph import Multigraph, read_graph6, read_graph6_file, write_graph6
from dpdp.minimality import is_minimal_by_deletion
from dpdp.subdivision import build_s2

from helpers import (
    based_alphas,
    forest_good_decomposition_check,
    gnp9_sample,
    multigraphs,
    oracle_dominating,
    oracle_good_q,
    oracle_pairing_exists,
    random_looped_multigraphs,
    theta,
    tree_find_good_subtree,
)


CUBIC_CERTIFICATES_SHA256 = (
    "0017ad9b2321da75114ae1c35fec43bd2ec9b7601861df288ca33f3b05e923f8"
)
# the same over the 470 connected multigraphs with up to 6 edges
MULTIGRAPHS_LE6_CERTIFICATES_SHA256 = (
    "babe04ad025e01cd6e282713d258a11c5c6e3ed2cce99228395f9be452c56b15"
)

# the same over random_looped_multigraphs(3000, seed=1)
LOOPED_CERTIFICATES_SHA256 = (
    "e8a9bf075d772738bd8ad5c1b0bd5eccf327063b78b1bd0ec9ae9c5238097a7e"
)

# the same over helpers.gnp9_sample(), 60 connected G(9, p) graphs
GNP9_CERTIFICATES_SHA256 = (
    "8942d156e8132dacf797be1b55a83e4660e9934a2a0197081f1d37cefb35802b"
)

# SHA-256 over (removed edges, D', P', matching) of each reduction plan of
# test_reduction_plans_pinned, 1,850 plans
REDUCTION_PLANS_SHA256 = (
    "fa20b5dc5abd3dbcc4dd71777f0d42b183e35689ca4e8fbe8a64c9d10e78e652"
)

# (q_edges, arcs in dict order) of the first good subgraph of K7 and K8:
# Q is the clique on vertices 0..n-2 minus the edge joining its last two,
# and every other edge is oriented
K7_CERTIFICATE = (
    [0, 1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 15, 16],
    [(5, (0, 6)), (10, (1, 6)), (14, (2, 6)), (17, (3, 6)), (18, (4, 5)),
     (20, (5, 6)), (19, (6, 4))],
)
K8_CERTIFICATE = (
    [0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 13, 14, 15, 16, 18, 19, 20, 22, 23],
    [(6, (0, 7)), (12, (1, 7)), (17, (2, 7)), (21, (3, 7)), (24, (4, 7)),
     (25, (5, 6)), (27, (6, 7)), (26, (7, 5))],
)


def replace(cert: GoodSubgraphCertificate, **changes) -> GoodSubgraphCertificate:
    """cert with the named fields changed, rebuilt field by field."""
    fields = {f: getattr(cert, f) for f in ("q_vertices", "q_edges", "e_set", "arcs", "paths")}
    return GoodSubgraphCertificate(**{**fields, **changes})


def p6_certificate() -> GoodSubgraphCertificate:
    # P6 = 0-1-2-3-4-5, Q = the middle edge, both boundary edges oriented
    # outward, one single-arc path per Q-vertex
    return GoodSubgraphCertificate(
        q_vertices=frozenset({2, 3}),
        q_edges=frozenset({2}),
        e_set=frozenset({1, 3}),
        arcs={1: (2, 1), 3: (3, 4)},
        paths={2: (1,), 3: (3,)},
    )


def test_edge_boundary_examples():
    p6 = path(6)
    assert edge_boundary(p6, {2}) == {1, 3}
    assert edge_boundary(p6, set(range(5))) == frozenset()
    k3 = complete(3)
    assert edge_boundary(k3, {0}) == {1, 2}


def test_verify_p6_certificate():
    ok, why = verify_good_certificate(path(6), p6_certificate())
    assert ok, why


def test_verify_rejects_wrong_orientation():
    cert = p6_certificate()
    cert.arcs = {1: (2, 1), 3: (3, 2)}
    ok, why = verify_good_certificate(path(6), cert)
    assert not ok and "arc 3" in why  # 3-2 is not an orientation of edge 3-4


def test_verify_rejects_misdirected_path():
    # the second path's arc points back at Q, so it cannot start at vertex 3
    cert = GoodSubgraphCertificate(
        q_vertices=frozenset({2, 3}),
        q_edges=frozenset({2}),
        e_set=frozenset({1, 3}),
        arcs={1: (2, 1), 3: (4, 3)},
        paths={2: (1,), 3: (3,)},
    )
    ok, why = verify_good_certificate(path(6), cert)
    assert not ok and "chain" in why


def test_verify_rejects_leaf_end():
    # Q = middle edge of P4: the paths would have to end at leaves
    cert = GoodSubgraphCertificate(
        q_vertices=frozenset({1, 2}),
        q_edges=frozenset({1}),
        e_set=frozenset({0, 2}),
        arcs={0: (1, 0), 2: (2, 3)},
        paths={1: (0,), 2: (2,)},
    )
    ok, why = verify_good_certificate(path(4), cert)
    assert not ok and "condition (3)" in why


def test_verify_malformed_ids_raise():
    cert = p6_certificate()
    cert.q_vertices = frozenset({2, 99})
    with pytest.raises(ValueError):
        verify_good_certificate(path(6), cert)
    cert = replace(p6_certificate(), q_edges=frozenset({2, 99}))
    with pytest.raises(ValueError, match="^malformed edge id 99$"):
        verify_good_certificate(path(6), cert)


# P6 plus a parallel edge 0-1 (5), a loop at 1 (6) and chords 1-4 (7) and
# 1-5 (8): none touches Q = {2, 3}, so p6_certificate() still verifies
P6_PLUS = Multigraph(6, [*zip(path(6).us, path(6).vs), (0, 1), (1, 1), (1, 4), (1, 5)])


def _rerouted(arcs, paths) -> GoodSubgraphCertificate:
    """p6_certificate() with E, its orientation and the paths replaced."""
    return replace(p6_certificate(), e_set=frozenset(arcs), arcs=arcs, paths=paths)


# The out-degree clauses of conditions (1) and (2) and the in-degree clause
# of condition (1) cannot fail once no vertex has out-degree above 1: every
# Q-vertex and inner vertex has an arc out along its path, and at a
# Q-vertex every edge-end outside Q is on an arc of E
@pytest.mark.parametrize("cert, reason", [
    (replace(p6_certificate(), q_vertices=frozenset()), "Q is empty"),
    (replace(p6_certificate(), q_vertices=frozenset({2, 3, 4})),
     "Q has an isolated vertex"),
    (replace(p6_certificate(), e_set=frozenset({1, 2, 3})),
     "E intersects the Q edges"),
    (replace(p6_certificate(), e_set=frozenset({1})),
     "E misses part of the Q boundary"),
    (replace(p6_certificate(), e_set=frozenset({0, 1, 3})), "arcs and E disagree"),
    (replace(p6_certificate(), paths={2: (1,)}),
     "paths are not indexed by the Q vertices"),
    (replace(p6_certificate(), paths={2: (), 3: (3,)}), "path at 2 is empty"),
    (replace(p6_certificate(), paths={2: (0,), 3: (3,)}),
     "path at 2 uses edge 0 without an orientation"),
    (_rerouted({0: (1, 0), 1: (2, 1), 3: (3, 4), 6: (1, 1)},
               {2: (1, 6, 0), 3: (3,)}),
     "path at 2: loop arc 6 is not the final arc"),
    (_rerouted({0: (1, 0), 1: (2, 1), 3: (3, 4), 5: (0, 1)},
               {2: (1, 0, 5), 3: (3,)}),
     "path at 2 repeats vertex 1"),
    (_rerouted({0: (1, 0), 1: (2, 1), 3: (3, 4), 7: (4, 1)},
               {2: (1, 0), 3: (3, 7, 0)}),
     "paths are not arc-disjoint"),
    (_rerouted({0: (1, 0), 1: (2, 1), 3: (3, 4)}, {2: (1,), 3: (3,)}),
     "paths do not cover the arcs exactly"),
    (_rerouted({0: (1, 0), 1: (2, 1), 3: (3, 4), 7: (4, 1), 8: (1, 5)},
               {2: (1, 0), 3: (3, 7, 8)}),
     "vertex 1 has out-degree above 1"),
    (_rerouted({1: (2, 1), 3: (3, 4), 7: (4, 1)}, {2: (1,), 3: (3, 7)}),
     "condition (2): in-degree at inner vertex 4"),
])
def test_verify_names_the_violated_clause(cert, reason):
    assert verify_good_certificate(P6_PLUS, p6_certificate()) == (True, None)
    assert verify_good_certificate(P6_PLUS, cert) == (False, reason)


def test_find_examples():
    assert find_good_subgraph(path(4)) is None
    cert = find_good_subgraph(path(6))
    assert cert is not None
    assert cert.q_vertices == {2, 3} and cert.q_edges == {2}
    ok, why = verify_good_certificate(path(6), cert)
    assert ok, why
    # coronas: every vertex is a leaf or a support
    for base in (path(3), cycle(3), complete(4)):
        assert find_good_subgraph(corona(base)) is None
    # Q sets of one size: connected first.  The good {1-4, 2-5, 1-6} has
    # the lower edge ids but two components; {1-4, 1-6, 2-6} has one
    h = Multigraph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (1, 6),
                       (2, 6), (4, 6), (5, 6)])
    cert = find_good_subgraph(h)
    assert cert.q_edges == {3, 5, 6}
    assert cert.arcs == {0: (1, 0), 1: (2, 0), 7: (4, 6), 8: (6, 5), 4: (5, 2)}


def test_one_verification_per_question(monkeypatch):
    # the search decides goodness itself and re-verifies only its hit
    real = dpdp.goodsub.verify_good_certificate
    verdicts = []

    def counted(h, cert):
        verdicts.append(real(h, cert))
        return verdicts[-1]

    monkeypatch.setattr(dpdp.goodsub, "verify_good_certificate", counted)
    for h, calls in ((complete(4), 1), (complete_bipartite(3, 3), 1), (path(4), 0)):
        verdicts.clear()
        cert = find_good_subgraph(h)
        assert (cert is not None) == bool(calls)
        assert verdicts == [(True, None)] * calls


def _count_search_work(monkeypatch, hosts) -> Counter:
    """The Q sets _q_sets hands out, the path searches (by |Q|) and the
    vertices they extend a path from (one incident_edges call each) while
    find_good_subgraph runs on every host."""
    counts: Counter = Counter()
    real_q_sets = dpdp.goodsub._q_sets
    real_search = dpdp.goodsub._search_paths
    real_incident = Multigraph.incident_edges

    def q_sets(h, eligible):
        for combo in real_q_sets(h, eligible):
            counts["q_sets"] += 1
            yield combo

    def search_paths(h, q_edges):
        counts["search"] += 1
        counts[f"search |Q|={len(q_edges)}"] += 1
        return real_search(h, q_edges)

    def incident_edges(self, v):
        counts["extend"] += sys._getframe(1).f_code is real_search.__code__
        return real_incident(self, v)

    monkeypatch.setattr(dpdp.goodsub, "_q_sets", q_sets)
    monkeypatch.setattr(dpdp.goodsub, "_search_paths", search_paths)
    monkeypatch.setattr(Multigraph, "incident_edges", incident_edges)
    for h in hosts:
        find_good_subgraph(h)
    return counts


def test_dead_q_prefixes_and_path_families_are_cut(monkeypatch):
    # the 142 connected simple graphs on 2..6 vertices, labelled as in
    # graph6; without the final-arc bound the searches extend paths from
    # 6,877 vertices, and with a boundary cut (edges touching S at most
    # n + |Q|) in place of the core excess cut the walk hands out 2,444 Q
    # sets and the searches extend from 7,764
    bases = [
        read_graph6(write_graph6(g))
        for n in range(2, 7)
        for g in enumerate_connected_simple(n)
    ]
    counts = _count_search_work(monkeypatch, bases)
    # the walk hands out a Q set only when it is next to be searched; the
    # search's first check, the final-arc bound, ends 4 of them at once
    assert counts["q_sets"] == counts["search"] == 296
    assert counts["extend"] == 1_629


def _excesses(h: Multigraph, s: set[int]):
    """i(Y) - |Y| for every vertex set Y outside s, where i(Y) counts the
    edges, loops included, with both ends in Y."""
    rest = [x for x in range(h.n) if x not in s]
    for r in range(len(rest) + 1):
        for y in map(set, combinations(rest, r)):
            yield sum(u in y and v in y for u, v in zip(h.us, h.vs)) - len(y)


def _two_core(h: Multigraph, s: set[int]) -> int:
    """The 2-core of h - s as a vertex bitmask: the union of every vertex
    set Y outside s in which each vertex has degree >= 2 inside Y (a loop
    counts 2)."""
    rest = [x for x in range(h.n) if x not in s]
    core = 0
    for r in range(len(rest) + 1):
        for y in map(set, combinations(rest, r)):
            degree = Counter(x for u, v in zip(h.us, h.vs) if u in y and v in y for x in (u, v))
            if all(degree[x] >= 2 for x in y):
                core |= sum(1 << x for x in y)
    return core


def _reference_q_sets(h: Multigraph, eligible: list[int], size: int) -> list:
    """The size-subsets of eligible that pass the Q-set cuts, from their
    definitions, stable-sorted by a component count of their own."""
    us, vs = h.us, h.vs

    def passes(combo) -> bool:
        outside = [h.degree(x) for x in range(h.n)]  # edge-ends outside Q
        s = set()
        for eid in combo:
            u, v = us[eid], vs[eid]
            outside[u] -= 1
            outside[v] -= 1
            s.update((u, v))
        # (a) each Q-vertex keeps an edge-end outside Q
        if any(outside[x] < 1 for x in s):
            return False
        # (b) some Y outside S has i(Y) - |Y| >= m - |Q| - n
        return any(x >= h.m - len(combo) - h.n for x in _excesses(h, s))

    def components(combo) -> int:
        adj: dict[int, set[int]] = {}
        for eid in combo:
            u, v = us[eid], vs[eid]
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        seen: set[int] = set()
        count = 0
        for start in adj:
            if start in seen:
                continue
            count += 1
            seen.add(start)
            queue = [start]
            while queue:
                x = queue.pop(0)
                for y in adj[x] - seen:
                    seen.add(y)
                    queue.append(y)
        return count

    survivors = [c for c in combinations(eligible, size) if passes(set(c))]
    return sorted(survivors, key=components)


def _check_q_sets(h: Multigraph) -> int:
    """Assert that the walk hands out exactly the reference list, every
    size in turn, on the eligible edges find_good_subgraph would pass and
    on all edges; return the number of Q sets compared."""
    allowed = set(range(h.n)) - h.leaves() - h.supports()
    eligible = [i for i, ends in enumerate(zip(h.us, h.vs)) if allowed.issuperset(ends)]
    checked = 0
    for edges in (eligible, list(range(h.m))):
        want = [combo for size in range(1, len(edges) + 1) for combo in _reference_q_sets(h, edges, size)]
        got = list(dpdp.goodsub._q_sets(h, edges))
        assert got == want, (h.edge_multiset(), edges)
        checked += len(want)
    return checked


def test_q_sets_match_reference_order(multigraphs_le5):
    checked = sum(_check_q_sets(h) for h in [*multigraphs_le5, complete(5), complete(6)])
    assert checked > 10_000


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=6, max_m=9))
def test_q_sets_match_reference_on_random_multigraphs(h):
    # loops and parallel edges: a loop sets one bit of its vertex's mask
    # and takes two of its edge-ends
    _check_q_sets(h)


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=7, max_m=14), st.integers(0, (1 << 7) - 1))
def test_core_excess_is_the_best_vertex_set(h, s):
    # the 2-core peeling of _core_excess against every Y outside S
    s &= (1 << h.n) - 1
    outside = {x for x in range(h.n) if s >> x & 1}
    excess, core = dpdp.goodsub._core_excess(h, (1 << h.n) - 1 & ~s)
    assert excess == max(_excesses(h, outside))
    assert core == _two_core(h, outside)


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=7, max_m=14), st.integers(0, (1 << 7) - 1), st.integers(0, (1 << 7) - 1))
def test_core_peels_from_the_core_of_a_smaller_set(h, s, more):
    # for S inside S', peeling the 2-core of h - S minus S' gives the
    # excess and core of a peel of h - S' from scratch
    everything = (1 << h.n) - 1
    s &= everything
    s_prime = s | more & everything
    core_excess = dpdp.goodsub._core_excess
    _, core = core_excess(h, everything & ~s)
    assert core_excess(h, core & ~s_prime) == core_excess(h, everything & ~s_prime)


def test_every_good_q_set_passes_the_core_excess_cut():
    # every subset of the eligible edges that keeps an edge-end outside Q
    # at each Q-vertex, cut (a), whether _q_sets would hand it out or not;
    # each good one passes the cut and the walk hands it out
    bases = [read_graph6(write_graph6(g)) for n in range(2, 7) for g in enumerate_connected_simple(n)]
    q_sets = good = 0
    for h in [*enumerate_connected_multigraphs(6), *bases, *random_looped_multigraphs(1000, seed=1)]:
        allowed = set(range(h.n)) - h.leaves() - h.supports()
        eligible = [i for i, ends in enumerate(zip(h.us, h.vs)) if allowed.issuperset(ends)]
        walked = set(dpdp.goodsub._q_sets(h, eligible))
        for size in range(1, len(eligible) + 1):
            for combo in combinations(eligible, size):
                left = [h.degree(x) for x in range(h.n)]
                for eid in combo:
                    left[h.us[eid]] -= 1
                    left[h.vs[eid]] -= 1
                q_vertices = frozenset(h.us[eid] for eid in combo) | frozenset(h.vs[eid] for eid in combo)
                if any(left[x] < 1 for x in q_vertices):
                    continue
                q_sets += 1
                if dpdp.goodsub._search_paths(h, frozenset(combo)) is None:
                    continue
                good += 1
                rest = sum(1 << x for x in range(h.n) if x not in q_vertices)
                assert dpdp.goodsub._core_excess(h, rest)[0] >= h.m - size - h.n, (h.edge_multiset(), combo)
                assert combo in walked, (h.edge_multiset(), combo)
    assert (q_sets, good) == (219_957, 45_024)


def test_search_paths_decides_every_q_set_as_the_definition():
    # every nonempty Q set of every connected multigraph with up to 6
    # edges, Q sets through leaves and supports and Q sets that cut (a)
    # rejects included: _search_paths finds a family exactly when the
    # brute-force definition does; the empty Q set is not good
    q_sets = good = 0
    for h in enumerate_connected_multigraphs(6):
        assert dpdp.goodsub._search_paths(h, frozenset()) is None and not oracle_good_q(h, ())
        for size in range(1, h.m + 1):
            for combo in combinations(range(h.m), size):
                found = dpdp.goodsub._search_paths(h, frozenset(combo)) is not None
                assert found == oracle_good_q(h, combo), (h.edge_multiset(), combo)
                q_sets += 1
                good += found
    assert (q_sets, good) == (24_150, 2_111)


def test_k7_builds_few_q_sets(monkeypatch):
    # K7's first good Q has 14 of its 21 edges; every smaller Q set has a
    # vertex set whose boundary cannot fit in 7 arcs, and the first
    # connected Q set of size 14 is good (73,755 survivors of that size)
    counts = _count_search_work(monkeypatch, [complete(7)])
    assert counts["q_sets"] == 1
    assert counts["search"] == counts["search |Q|=14"] == 1


def test_k8_one_search_in_bounded_memory(monkeypatch):
    # as on K7, every smaller Q set is cut and the first connected Q set
    # of size 20 is good: one walk to it, one path search, nothing held
    h = complete(8)
    t0 = time.perf_counter()
    counts = _count_search_work(monkeypatch, [h])
    assert time.perf_counter() - t0 < 1.0
    assert counts["q_sets"] == counts["search"] == counts["search |Q|=20"] == 1
    monkeypatch.undo()
    tracemalloc.start()
    try:
        cert = find_good_subgraph(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    ok, why = verify_good_certificate(h, cert)
    assert ok, why


def test_complete_graph_certificates_pinned():
    for h, pinned in ((complete(7), K7_CERTIFICATE), (complete(8), K8_CERTIFICATE)):
        c = find_good_subgraph(h)
        assert (sorted(c.q_edges), list(c.arcs.items())) == pinned


def certificate_fields(c: GoodSubgraphCertificate | None):
    """Every field of a certificate, dict order included, or None."""
    return None if c is None else (
        sorted(c.q_vertices), sorted(c.q_edges), sorted(c.e_set),
        list(c.arcs.items()), list(c.paths.items()),
    )


def certificates_digest(hosts) -> str:
    """SHA-256 over every certificate field, dict order included, of
    find_good_subgraph on each host in turn."""
    digest = hashlib.sha256()
    for h in hosts:
        digest.update(repr(certificate_fields(find_good_subgraph(h))).encode() + b"\n")
    return digest.hexdigest()


def test_cubic_fixture_certificates_pinned():
    # the 27 connected cubic graphs on at most 10 vertices
    fixture = pathlib.Path(__file__).parent / "fixtures" / "cubic_le10.g6"
    hosts = read_graph6_file(fixture.read_text())
    assert certificates_digest(hosts) == CUBIC_CERTIFICATES_SHA256


def test_multigraph_certificates_pinned():
    hosts = enumerate_connected_multigraphs(6)
    assert len(hosts) == 470
    assert certificates_digest(hosts) == MULTIGRAPHS_LE6_CERTIFICATES_SHA256


def test_looped_multigraph_certificates_pinned():
    # loops and parallel edges on up to 6 vertices, where a loop arc's
    # two edge-ends at one vertex enter the path search's running sums
    hosts = random_looped_multigraphs(3000, seed=1)
    assert certificates_digest(hosts) == LOOPED_CERTIFICATES_SHA256


def test_gnp9_certificates_pinned():
    # labelled 9-vertex hosts, denser and less symmetric than the
    # fixtures, where the core excess cut removes most Q sets
    assert certificates_digest(gnp9_sample()) == GNP9_CERTIFICATES_SHA256


def test_first_q_set_needs_little_memory():
    # P22 has 17 eligible edges; its first Q set, the edge 2-3, is good
    for search in (
        lambda h: find_good_subgraph(h).q_vertices,
        tree_find_good_subtree,
    ):
        tracemalloc.start()
        try:
            found = search(path(22))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == {2, 3}
        assert peak < 1 << 20


def test_long_paths_get_a_certificate():
    # the theta graph with paths of 601 edges: Q is the edge from hub 0 to
    # vertex 2, and the path from 2 runs through hub 1 back to hub 0 in
    # 1,201 arcs, past Python's default limit of 1,000 frames, which a
    # search recursing once per arc hit
    h = theta(601)
    cert = find_good_subgraph(h)
    assert (cert.q_vertices, cert.q_edges) == ({0, 2}, {0})
    assert sorted(map(len, cert.paths.values())) == [601, 1201]
    assert verify_good_certificate(h, cert) == (True, None)
    assert dpdp.goodsub._normalize_certificate(h, cert) is cert  # no end loops
    # the reduction asserts that its pair is a DP-pair of the reduced graph
    assert len(reduce_via_good_subgraph(h, None, cert).removed_edges) == 3


def test_find_requires_no_isolated_vertex():
    with pytest.raises(ValueError):
        find_good_subgraph(Multigraph(2, [(0, 0)]))


def test_found_certificates_always_verify(multigraphs_le5):
    for h in multigraphs_le5:
        cert = find_good_subgraph(h)
        if cert is not None:
            ok, why = verify_good_certificate(h, cert)
            assert ok, (h.edge_multiset(), why)
            touched = cert.q_vertices
            assert not touched & (h.leaves() | h.supports())


def test_every_swept_certificate_reduces(sweep_le5):
    # constructive soundness: each certificate found over the sweep turns
    # into a proper spanning subgraph with a verifying DP-pair
    reduced_count = 0
    for row in sweep_le5:
        if row["cert"] is None:
            continue
        h, g = row["h"], row["g"]
        plan = reduce_via_good_subgraph(h, None, row["cert"])
        assert plan.removed_edges
        reduced = apply_reduction(g, plan)
        assert reduced.n == g.n and reduced.m == g.m - len(plan.removed_edges)
        assert is_dp_pair(reduced, DpPair(plan.d_prime, plan.p_prime, plan.matching))
        reduced_count += 1
    assert reduced_count > 0


def test_reduction_plans_pinned():
    # every certificate found on the multigraphs with up to 6 edges and on
    # looped multigraphs, reduced with no leaf copies and with every leaf
    # doubled.  The certificates hold 314 loop arcs, each the last arc of
    # its path, which leave their gadget by side 1 and enter it by side 2
    digest = hashlib.sha256()
    count = 0
    for h in [*enumerate_connected_multigraphs(6), *random_looped_multigraphs(800, seed=5)]:
        cert = find_good_subgraph(h)
        if cert is None:
            continue
        for alpha in (None, {v: 2 for v in h.leaves()}):
            plan = reduce_via_good_subgraph(h, alpha, cert)
            fields = (
                sorted(plan.removed_edges), sorted(plan.d_prime), sorted(plan.p_prime),
                plan.matching,
            )
            digest.update(repr(fields).encode() + b"\n")
            count += 1
    assert count == 1850
    assert digest.hexdigest() == REDUCTION_PLANS_SHA256


def _with_end_loops(h: Multigraph, cert: GoodSubgraphCertificate):
    """The certificate with one loop appended to one path, for every path
    ending at a non-Q vertex with no arc out and every loop there outside
    E, where the result still verifies."""
    tails = {t for t, _ in cert.arcs.values()}
    for v, arcs in cert.paths.items():
        x = cert.arcs[arcs[-1]][1]
        if x in cert.q_vertices or x in tails:
            continue
        for eid in h.incident_edges(x):
            if h.us[eid] == h.vs[eid] and eid not in cert.e_set:
                longer = replace(
                    cert,
                    e_set=cert.e_set | {eid},
                    arcs={**cert.arcs, eid: (x, x)},
                    paths={**cert.paths, v: arcs + (eid,)},
                )
                if verify_good_certificate(h, longer)[0]:
                    yield longer


def test_reduction_drops_end_loops_outside_q(multigraphs_le5):
    # the reduction first drops a final loop arc at a non-Q vertex, which
    # gives back the certificate found and so the same plan
    count = 0
    for h in multigraphs_le5:
        cert = find_good_subgraph(h)
        if cert is None:
            continue
        g, _ = build_s2(h)
        for longer in _with_end_loops(h, cert):
            plan = reduce_via_good_subgraph(h, None, longer)
            pair = DpPair(plan.d_prime, plan.p_prime, plan.matching)
            assert is_dp_pair(apply_reduction(g, plan), pair)
            assert plan == reduce_via_good_subgraph(h, None, cert)
            count += 1
    assert count == 28


@settings(max_examples=400, deadline=None)
@given(based_alphas())
def test_good_subgraph_iff_s2_not_minimal(h_alpha):
    # the paper's second test of minimality, against the deletion scan;
    # a found certificate's reduction re-checked by the brute-force oracles
    h, alpha = h_alpha
    cert = find_good_subgraph(h)
    assert (cert is None) == is_minimal_by_deletion(build_s2(h)[0])
    if cert is not None:
        plan = reduce_via_good_subgraph(h, alpha, cert)
        assert plan.removed_edges
        reduced = apply_reduction(build_s2(h, alpha)[0], plan)
        assert oracle_dominating(reduced, set(plan.d_prime))
        assert oracle_dominating(reduced, set(plan.p_prime))
        assert oracle_pairing_exists(reduced, set(plan.p_prime))


def test_closed_walk_certificate_around_parallel_edges():
    # two parallel pairs sharing a hub: the only good subgraph needs a path
    # that returns to its starting vertex
    h = Multigraph(3, [(0, 1), (0, 1), (0, 2), (0, 2)])
    cert = find_good_subgraph(h)
    assert cert is not None
    ok, why = verify_good_certificate(h, cert)
    assert ok, why
    plan = reduce_via_good_subgraph(h, None, cert)
    g, _ = build_s2(h)
    reduced = apply_reduction(g, plan)
    assert is_dp_pair(reduced, DpPair(plan.d_prime, plan.p_prime, plan.matching))


def test_reduce_p6():
    h = path(6)
    plan = reduce_via_good_subgraph(h, None, p6_certificate())
    g, _ = build_s2(h)
    assert g.n == 16
    assert plan.removed_edges and len(plan.removed_edges) == 3
    reduced = apply_reduction(g, plan)
    assert reduced.m == g.m - 3
    pair = DpPair(plan.d_prime, plan.p_prime, plan.matching)
    assert is_dp_pair(reduced, pair)
    # the reduction splits S2(P6) = P16 into four 4-paths
    assert sorted(len(c) for c in reduced.connected_components()) == [4, 4, 4, 4]


def test_reduce_c4():
    h = cycle(4)
    cert = find_good_subgraph(h)
    assert cert is not None
    plan = reduce_via_good_subgraph(h, None, cert)
    g, _ = build_s2(h)
    reduced = apply_reduction(g, plan)
    assert reduced.m < g.m
    assert is_dp_pair(reduced, DpPair(plan.d_prime, plan.p_prime, plan.matching))
    assert is_dpdp(reduced)


def test_reduce_with_empty_h0():
    # K4 with Q = two opposite edges and the remaining 4-cycle oriented
    # around: every vertex heads a path, so the out-degree-0 part is empty
    h = complete(4)  # edges: 0:01 1:02 2:03 3:12 4:13 5:23
    cert = GoodSubgraphCertificate(
        q_vertices=frozenset({0, 1, 2, 3}),
        q_edges=frozenset({0, 5}),
        e_set=frozenset({1, 2, 3, 4}),
        arcs={1: (0, 2), 4: (1, 3), 3: (2, 1), 2: (3, 0)},
        paths={0: (1,), 1: (4,), 2: (3,), 3: (2,)},
    )
    ok, why = verify_good_certificate(h, cert)
    assert ok, why
    plan = reduce_via_good_subgraph(h, None, cert)
    g, _ = build_s2(h)
    reduced = apply_reduction(g, plan)
    pair = DpPair(plan.d_prime, plan.p_prime, plan.matching)
    assert is_dp_pair(reduced, pair)
    # empty H0 part: P' consists solely of arc gadget vertices (old tails
    # plus tail-side news), two per arc
    assert len(plan.p_prime) == 2 * len(cert.e_set)


def test_reduce_rejects_invalid_certificate():
    cert = p6_certificate()
    cert.paths = {2: (1,), 3: (1,)}
    with pytest.raises(ValueError):
        reduce_via_good_subgraph(path(6), None, cert)


def test_reduce_respects_alpha():
    h = path(6)
    plan = reduce_via_good_subgraph(h, {0: 3}, p6_certificate())
    g, _ = build_s2(h, {0: 3})
    reduced = apply_reduction(g, plan)
    assert is_dp_pair(reduced, DpPair(plan.d_prime, plan.p_prime, plan.matching))


def test_tree_find_examples():
    assert tree_find_good_subtree(star(3)) is None
    assert tree_find_good_subtree(path(6)) == {2, 3}
    assert tree_find_good_subtree(path(7)) == {2, 3}
    with pytest.raises(ValueError):
        tree_find_good_subtree(cycle(4))


def test_tree_agreement_exhaustive_small():
    for n in range(2, 13):
        for t in enumerate_trees(n):
            fast = tree_find_good_subtree(t)
            full = find_good_subgraph(t)
            assert (fast is None) == (full is None), (n, t.edge_multiset())
            if fast is not None:
                assert len(fast) >= 2


def test_tree_agreement_random():
    rng = random.Random(2024)
    for _ in range(120):
        t = random_tree(rng.randint(2, 14), rng)
        fast = tree_find_good_subtree(t)
        full = find_good_subgraph(t)
        assert (fast is None) == (full is None), t.edge_multiset()


def test_forest_decomposition_connected_q():
    cert = find_good_subgraph(path(6))
    assert forest_good_decomposition_check(path(6), cert) == 0


def test_forest_decomposition_two_components():
    # P12 hosts a disconnected good forest: two far-apart middle edges,
    # each with its own pair of outward single-arc paths
    h = path(12)
    cert = GoodSubgraphCertificate(
        q_vertices=frozenset({2, 3, 8, 9}),
        q_edges=frozenset({2, 8}),
        e_set=frozenset({1, 3, 7, 9}),
        arcs={1: (2, 1), 3: (3, 4), 7: (8, 7), 9: (9, 10)},
        paths={2: (1,), 3: (3,), 8: (7,), 9: (9,)},
    )
    ok, why = verify_good_certificate(h, cert)
    assert ok, why
    idx = forest_good_decomposition_check(h, cert)
    assert idx in (0, 1)


def test_forest_decomposition_rejects_bad_q():
    cert = p6_certificate()
    cert.q_edges = frozenset({1})
    with pytest.raises(ValueError):
        forest_good_decomposition_check(path(6), cert)
