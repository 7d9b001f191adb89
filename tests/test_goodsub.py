from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings

import dpdp.goodsub
from dpdp.catalog import (
    complete,
    complete_bipartite,
    corona,
    cycle,
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
    forest_good_decomposition_check,
    reduce_via_good_subgraph,
    tree_find_good_subtree,
    verify_good_certificate,
)
from dpdp.graph import Multigraph
from dpdp.minimality import is_minimal_by_deletion
from dpdp.subdivision import build_s2

from helpers import based_alphas, oracle_dominating, oracle_pairing_exists


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
    for n in range(2, 11):
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
