from __future__ import annotations

import json
import pathlib
import random
import time
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import dpdp.cli
import dpdp.domination
import dpdp.minimality
from dpdp.catalog import (
    complete,
    corona,
    cycle,
    enumerate_connected_cubic,
    enumerate_connected_multigraphs,
    enumerate_connected_simple,
    enumerate_trees,
    path,
    random_tree,
)
from dpdp.domination import DpPair, _dp_search, enumerate_dp_pairs, is_dpdp
from dpdp.goodsub import find_good_subgraph, verify_good_certificate
from dpdp.graph import Multigraph, read_graph6_file
from dpdp.minimality import (
    _first_deletion,
    check_reducible_pattern,
    classify,
    deletion_witness,
    is_minimal_by_deletion,
    is_small_cycle_369,
    minimal_pair_properties,
    minimal_spanning_dpdp_subgraph,
    xcheck,
)
from dpdp.subdivision import _read_certificate, build_s2, invert_s2

from helpers import based_alphas, edge_list_text, multigraphs, oracle_dp_partitions, theta


def test_minimal_path_table():
    for n in range(1, 16):
        assert is_minimal_by_deletion(path(n)) == (n in (4, 7, 10, 13)), n


def test_minimal_cycle_table():
    for m in range(1, 13):
        assert is_minimal_by_deletion(cycle(m)) == (m in (3, 6, 9)), m


def test_complete_graphs():
    assert is_minimal_by_deletion(complete(3))
    assert not is_minimal_by_deletion(complete(4))
    assert deletion_witness(complete(4)) is not None


def test_deletion_witness():
    assert deletion_witness(path(4)) is None  # minimal
    assert deletion_witness(path(5)) is None  # not DPDP at all
    w = deletion_witness(path(8))
    assert w is not None
    smaller, _ = path(8).delete_edge(w)
    assert is_dpdp(smaller)


def _oracle_witness(g: Multigraph) -> int | None:
    for eid in range(g.m):
        if oracle_dp_partitions(g.delete_edge(eid)[0]):
            return eid
    return None


@settings(max_examples=150, deadline=None)
@given(multigraphs(max_n=8, max_m=10))
def test_deletion_scan_agrees_with_exhaustive_partitions(g):
    # the masked deletion scan against the oracle on every real G - e
    witness = _oracle_witness(g)
    assert deletion_witness(g) == witness
    dpdp_graph = bool(oracle_dp_partitions(g))
    assert is_minimal_by_deletion(g) == (dpdp_graph and witness is None)
    r = minimal_spanning_dpdp_subgraph(g)
    assert (r is not None) == dpdp_graph
    if r is not None:
        assert r.n == g.n
        assert Counter(r.edge_multiset()) <= Counter(g.edge_multiset())
        assert oracle_dp_partitions(r) and _oracle_witness(r) is None


def test_deletion_scan_agrees_with_exhaustive_partitions_on_core_heavy_hosts():
    # S2 graphs of every tree on 2-4 vertices, alpha in {1, 2} on each leaf:
    # leaves and supports force most of each graph, so every masked search
    # starts from a large core.  P5 and P4 plus an isolated vertex have a
    # contradictory core; C5 has none and no DP-pair either.
    hosts = [path(5), Multigraph(5, path(4).edge_multiset()), cycle(5)]
    for n in (2, 3, 4):
        for t in enumerate_connected_simple(n):
            if t.m == n - 1:
                leaves = sorted(t.leaves())
                for alpha in product((1, 2), repeat=len(leaves)):
                    hosts.append(build_s2(t, dict(zip(leaves, alpha)))[0])
    assert len(hosts) == 3 + 20
    for g in hosts:
        witness = _oracle_witness(g)
        assert deletion_witness(g) == witness
        dpdp_graph = bool(oracle_dp_partitions(g))
        assert is_minimal_by_deletion(g) == (dpdp_graph and witness is None)
    assert [deletion_witness(g) for g in hosts[:3]] == [None] * 3


@pytest.fixture()
def dp_searches(monkeypatch):
    """Caps of the searches asked of the engines that _dp_search sets up,
    under every name the package binds it to, each set-up logged as
    "setup"; every DP search is a call to such an engine, the masked
    searches of the deletion scan included."""
    real = dpdp.domination._dp_search
    caps = []

    def counted_engine(g):
        caps.append("setup")
        search = real(g)

        def counted(cap, skip=None):
            caps.append(cap)
            return search(cap, skip)

        return counted

    for module in (dpdp.domination, dpdp.minimality):
        monkeypatch.setattr(module, "_dp_search", counted_engine)
    return caps


def test_one_dp_search_per_question(dp_searches, tmp_path, capsys):
    # S2(P6) is P16, whose lowest deletable edge is 4: one set-up and one
    # masked search per edge 0..4, with no capped enumeration and no
    # repeated is_dpdp; the witness pair of edge 4 is not the canonical
    # one, so it is P16's second DP-pair
    xcheck(path(6))
    assert dp_searches == ["setup", 1, 1, 1, 1, 1]
    dp_searches.clear()
    classify(build_s2(path(6))[0])
    assert dp_searches == ["setup", 1, 1, 1, 1, 1]
    dp_searches.clear()
    # dpdp minimal on K4: the pair, which survives deleting edge 0, so K4
    # minus edge 0 is DPDP without a masked search
    f = tmp_path / "k4.el"
    f.write_text(edge_list_text(complete(4)))
    assert dpdp.cli.main(["minimal", str(f)]) == 0
    capsys.readouterr()
    assert dp_searches == ["setup", 1]
    dp_searches.clear()
    assert is_minimal_by_deletion(build_s2(path(6))[0]) is False
    assert dp_searches == ["setup", 1, 1, 1, 1, 1]
    dp_searches.clear()
    # greedy extraction from K4: one engine answers whether K4 is DPDP and
    # its first deletion (edge 0, decided by K4's pair), then one engine
    # per smaller graph, whose scan starts from the pair that showed the
    # deletion before it: that pair decides K4 - 0's first deletion with
    # no masked search, and the next graph's after two
    minimal_spanning_dpdp_subgraph(complete(4))
    assert dp_searches == ["setup", 1, "setup", "setup", 1, 1, "setup", 1, 1, 1]
    dp_searches.clear()
    # P4 is minimal: one engine, one enumeration, a failed deletion per
    # edge, since no deletion keeps P4's pair
    minimal_spanning_dpdp_subgraph(path(4))
    assert dp_searches == ["setup", 1, 1, 1, 1]


def test_greedy_extraction_hands_each_scan_the_pair_before_it(monkeypatch):
    # the scan of each smaller graph starts from the pair that showed the
    # deletion before it; the output is the plain deletion_witness loop's
    # and the masked searches fall from 951 (that loop) to 915
    rng = random.Random(77)
    trees = []
    while len(trees) < 40:
        t = random_tree(rng.randint(8, 20), rng)
        if is_dpdp(t):
            trees.append(t)
    sample = [*trees, complete(5), complete(6), cycle(12), cycle(15)]

    def by_deletion_witness(g):
        eid = deletion_witness(g)
        while eid is not None:
            g, _ = g.delete_edge(eid)
            eid = deletion_witness(g)
        return g

    want = [by_deletion_witness(g) for g in sample]
    real = dpdp.minimality._dp_search
    masked = 0

    def counted_engine(g):
        search = real(g)

        def counted(cap, skip=None):
            nonlocal masked
            masked += skip is not None
            return search(cap, skip)

        return counted

    monkeypatch.setattr(dpdp.minimality, "_dp_search", counted_engine)
    assert [minimal_spanning_dpdp_subgraph(g) for g in sample] == want
    assert masked == 915


def test_reducible_pattern_examples():
    assert check_reducible_pattern(path(6)) == (2, 3, 1, 4)
    assert check_reducible_pattern(path(4)) is None
    assert check_reducible_pattern(cycle(4)) is not None
    assert check_reducible_pattern(cycle(3)) is None
    with pytest.raises(ValueError):
        check_reducible_pattern(Multigraph(2, [(0, 0)]))


def test_reducible_pattern_implies_nonminimal_s2(multigraphs_le5):
    for h in multigraphs_le5:
        if check_reducible_pattern(h) is not None:
            g, _ = build_s2(h)
            assert not is_minimal_by_deletion(g), h.edge_multiset()


def test_minimal_spanning_subgraph():
    assert minimal_spanning_dpdp_subgraph(path(4)) == path(4)
    assert minimal_spanning_dpdp_subgraph(cycle(5)) is None
    r = minimal_spanning_dpdp_subgraph(cycle(12))
    assert r is not None and r.n == 12
    assert is_minimal_by_deletion(r)
    # component sizes are forced: minimal DPDP paths summing to 12
    assert sorted(len(c) for c in r.connected_components()) == [4, 4, 4]


def test_minimal_spanning_subgraph_is_deterministic():
    a = minimal_spanning_dpdp_subgraph(complete(4))
    b = minimal_spanning_dpdp_subgraph(complete(4))
    assert a == b and is_minimal_by_deletion(a)


def test_small_cycle_detection():
    assert is_small_cycle_369(cycle(3))
    assert is_small_cycle_369(cycle(6))
    assert is_small_cycle_369(cycle(9))
    assert not is_small_cycle_369(cycle(12))
    assert not is_small_cycle_369(path(6))
    assert not is_small_cycle_369(Multigraph(3, [(0, 1), (0, 1), (1, 2)]))


def test_classify_p3_all_minimal():
    g, _ = build_s2(path(3))  # P7
    report = classify(g)
    assert report.is_dpdp and report.minimal_by_deletion
    assert report.inversion is not None
    assert report.good_subgraph is None
    assert report.dp_pair_count_capped == 1
    assert report.verdicts_consistent


def test_classify_p6_all_nonminimal():
    g, _ = build_s2(path(6))  # P16
    report = classify(g)
    assert report.is_dpdp and not report.minimal_by_deletion
    assert report.inversion is not None
    assert report.good_subgraph is not None
    assert report.dp_pair_count_capped == 2
    assert report.verdicts_consistent


def test_classify_c3_cycle_clause():
    g, _ = build_s2(cycle(1))  # C3
    report = classify(g)
    assert report.minimal_by_deletion
    assert len(enumerate_dp_pairs(g, cap=10)) == 3  # uniqueness clause unusable
    assert report.verdicts_consistent


def test_classify_non_subdivision():
    report = classify(path(5))
    assert not report.is_dpdp
    assert report.inversion is None
    assert report.verdicts_consistent


def test_xcheck_examples():
    assert xcheck(path(3)).consistent
    assert xcheck(path(6)).consistent
    r = xcheck(cycle(1))
    assert r.consistent and r.minimal_by_deletion
    with pytest.raises(ValueError):
        xcheck(Multigraph(4, [(0, 1), (2, 3)]))


def test_xcheck_simple_connected_6_vertices():
    # Theorem three-way agreement over every simple connected base, n <= 6
    for n in range(2, 7):
        for h in enumerate_connected_simple(n):
            assert xcheck(h).consistent, (n, h.edge_multiset())


FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_witness_pair_reads_a_certificate_on_every_nonminimal_base():
    # xcheck reads "has a good subgraph" off the witness pair of the
    # deletion scan and falls back to find_good_subgraph when the read
    # fails, so a read that starts failing would show only as a slower
    # xcheck.  Here the read must give a certificate that verifies on
    # every non-minimal base of four families
    families = {
        "simple_n7": read_graph6_file((FIXTURES / "simple_n7.g6").read_text()),
        "multigraphs_le6": enumerate_connected_multigraphs(6),
        "cubic12": enumerate_connected_cubic(12),
        "trees_le12": [t for n in range(2, 13) for t in enumerate_trees(n)],
    }
    nonminimal = Counter()
    for name, bases in families.items():
        for h in bases:
            g, lab = build_s2(h)
            eid, kept = _first_deletion(g, _dp_search(g), [])
            if eid is None:
                continue
            nonminimal[name] += 1
            cert = _read_certificate(lab, kept.d)
            assert cert is not None, (name, h.edge_multiset())
            assert verify_good_certificate(h, cert) == (True, None)
    assert nonminimal == {
        "simple_n7": 793, "multigraphs_le6": 310, "cubic12": 85, "trees_le12": 365,
    }


def test_exhaustive_engines_agree_with_each_other_and_with_xcheck():
    # xcheck no longer runs find_good_subgraph or the capped enumeration
    # on a non-minimal base; here each engine runs alone on every base of
    # simple_n7.g6 and on the connected multigraphs with up to 6 edges,
    # loops included
    bases = [
        *read_graph6_file((FIXTURES / "simple_n7.g6").read_text()),
        *enumerate_connected_multigraphs(6),
    ]
    assert len(bases) == 853 + 470
    for h in bases:
        g, _ = build_s2(h)
        minimal = deletion_witness(g) is None
        assert (find_good_subgraph(h) is None) == minimal, h.edge_multiset()
        unique = len(enumerate_dp_pairs(g, 2)) == 1 or is_small_cycle_369(g)
        assert unique == minimal, h.edge_multiset()
        r = xcheck(h)
        verdicts = (r.minimal_by_deletion, r.no_good_subgraph, r.unique_pair_or_small_cycle)
        assert verdicts == (minimal,) * 3, h.edge_multiset()


def test_hard_14_vertex_bases_are_crosschecked_in_under_a_second(capsys):
    # hard_goodsub14.g6: draws 8 (26 edges) and 7 (27 edges) of the
    # connected G(14, 0.2) row of one random.Random(11), after 10 + 10 + 10
    # connected draws at (10, 0.3), (11, 0.3) and (12, 0.25); each draw
    # takes the vertex pairs of combinations(range(n), 2) with probability
    # p, and a disconnected draw is dropped.  find_good_subgraph took
    # 18.5 s and 152.6 s on them (2-core VM, Python 3.11.7), and xcheck as
    # long; both have a deletion witness, whose pair gives the certificate
    fixture = FIXTURES / "hard_goodsub14.g6"
    bases = read_graph6_file(fixture.read_text())
    assert [(h.n, h.m) for h in bases] == [(14, 26), (14, 27)]
    for h in bases:
        t0 = time.process_time()
        r = xcheck(h)
        elapsed = time.process_time() - t0
        assert (r.minimal_by_deletion, r.no_good_subgraph, r.unique_pair_or_small_cycle) == (
            False, False, False,
        )
        assert elapsed < 1.0, f"xcheck took {elapsed:.2f} s of CPU time"
    assert dpdp.cli.main(["xcheck", str(fixture)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["consistent"] is True and result["graphs_checked"] == 2


def test_long_paths_are_crosschecked():
    # the theta graph with paths of 301 edges: the certificate read off the
    # deletion witness has a path of 601 arcs, which a path search
    # recursing once per arc could not build
    r = xcheck(theta(301))
    assert (r.minimal_by_deletion, r.no_good_subgraph, r.unique_pair_or_small_cycle) == (
        False, False, False,
    )


def test_minimal_pair_properties_on_examples():
    p4 = path(4)
    for pair in enumerate_dp_pairs(p4, cap=10):
        assert minimal_pair_properties(p4, pair) == (True, True, True)
    # a DP-pair of a non-minimal graph may break them: K4 has adjacent D
    k4 = complete(4)
    broken = [
        minimal_pair_properties(k4, pair) for pair in enumerate_dp_pairs(k4, cap=100)
    ]
    assert any(not all(props) for props in broken)


def test_minimal_pair_properties_refuses_ids_that_are_not_vertices():
    # P's ids went unchecked, and D's only when D was independent: P4 with
    # P = {-1, 1, 2, 7} used to give (True, False, False), and D = {0, 1, 9}
    # (False, ...); D is checked before P
    p4 = path(4)
    cases = (
        ({0, 3}, {-1, 1, 2, 7}, -1),
        ({0, 3}, {1, 2, 7}, 7),
        ({0, 1, 9}, {2, 3}, 9),
        ({-2, 0, 3}, {-1, 1, 2}, -2),
    )
    for d, p, bad in cases:
        pair = DpPair(frozenset(d), frozenset(p), (1,))
        with pytest.raises(ValueError, match=f"^malformed vertex id {bad}$"):
            minimal_pair_properties(p4, pair)


def test_corona_minimal_spot():
    h = corona(complete(3))
    g, _ = build_s2(h)
    assert is_minimal_by_deletion(g)
    assert find_good_subgraph(h) is None


def test_spanning_minimal_subgraph_of_dpdp_tree():
    # the extracted spanning minimal subgraph of a DPDP tree is always the
    # 2-subdivision of a forest without isolated vertices or good subgraphs
    rng = random.Random(77)
    checked = 0
    while checked < 25:
        t = random_tree(rng.randint(2, 12), rng)
        if not is_dpdp(t):
            continue
        r = minimal_spanning_dpdp_subgraph(t)
        assert is_minimal_by_deletion(r)
        inv = invert_s2(r)
        assert inv is not None, r.edge_multiset()
        base, _, _ = inv
        assert all(base.degree(v) > 0 for v in range(base.n))
        assert find_good_subgraph(base) is None
        checked += 1


def _verdicts(g: Multigraph) -> tuple:
    """Every yes/no (and the capped pair count) the engines give on g;
    find_good_subgraph only on a host with no isolated vertex."""
    report = classify(g)
    hosts = all(g.degree(v) for v in range(g.n))
    return (
        is_dpdp(g),
        is_minimal_by_deletion(g),
        hosts and find_good_subgraph(g) is not None,
        invert_s2(g) is not None,
        report.is_dpdp,
        report.minimal_by_deletion,
        report.dp_pair_count_capped,
        report.verdicts_consistent,
    )


@pytest.mark.parametrize(
    "graphs",
    [multigraphs(7, 10), based_alphas().map(lambda h_alpha: build_s2(*h_alpha)[0])],
    ids=["multigraphs", "s2"],
)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_relabelling_keeps_every_verdict(graphs, data):
    # the verdicts are properties of the isomorphism class: renaming the
    # vertices and reordering the edges changes none of them
    g = data.draw(graphs)
    perm = data.draw(st.permutations(range(g.n)))
    order = data.draw(st.permutations(range(g.m)))
    relabelled = Multigraph(g.n, [(perm[g.us[i]], perm[g.vs[i]]) for i in order])
    assert _verdicts(relabelled) == _verdicts(g)
