"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are exact combinatorial reproductions; the
stated wall-clock budgets are asserted where the criterion names one.
"""

from __future__ import annotations

import pathlib
import random
import time
from itertools import combinations, product

import pytest

from dpdp.catalog import (
    enumerate_connected_simple,
    enumerate_trees,
    corona,
    cycle,
    path,
    random_tree,
)
from dpdp.domination import (
    enumerate_dp_pairs,
    find_dp_pair,
    has_perfect_matching_on,
    is_dpdp,
)
from dpdp.goodsub import find_good_subgraph
from dpdp.graph import Multigraph, is_cycle_graph, is_path_graph, read_graph6_file
from dpdp.minimality import is_minimal_by_deletion, minimal_pair_properties
from dpdp.subdivision import build_s2

from helpers import (
    adjacency,
    forest_good_decomposition_check,
    oracle_pairing_exists,
    tree_find_good_subtree,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def report(criterion: int, name: str, t0: float, budget: float | None) -> None:
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {criterion:2d} PASS  {name}  ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {criterion} exceeded {budget}s"


def test_criterion_01_path_table():
    t0 = time.perf_counter()
    for n in range(1, 21):
        assert is_dpdp(path(n)) == (n not in (1, 2, 3, 5, 6, 9)), n
    report(1, "path DPDP table n=1..20", t0, 5.0)


def test_criterion_02_cycle_table():
    t0 = time.perf_counter()
    for n in range(3, 21):
        assert is_dpdp(cycle(n)) == (n != 5), n
    report(2, "cycle DPDP table n=3..20", t0, 5.0)


def test_criterion_03_minimal_paths_and_cycles():
    t0 = time.perf_counter()
    for n in range(1, 16):
        assert is_minimal_by_deletion(path(n)) == (n in (4, 7, 10, 13)), n
    for m in range(1, 13):
        assert is_minimal_by_deletion(cycle(m)) == (m in (3, 6, 9)), m
    report(3, "minimal paths n<=15 and cycles m<=12", t0, 30.0)


def test_criterion_04_corollary_4_7():
    t0 = time.perf_counter()
    for n in range(2, 9):
        for alpha in (None, {0: 3}):
            g, _ = build_s2(path(n), alpha)
            assert is_dpdp(g), (n, alpha)
            assert is_minimal_by_deletion(g) == (n in (2, 3, 4, 5)), (n, alpha)
    for m in range(1, 7):
        g, _ = build_s2(cycle(m))
        assert is_dpdp(g), m
        assert is_minimal_by_deletion(g) == (m in (1, 2, 3)), m
    report(4, "S2(P_n) minimal iff n in 2..5 (both alphas); S2(C_m) iff m in 1..3", t0, 120.0)


def test_criterion_05_cubic_fixture():
    t0 = time.perf_counter()
    graphs = read_graph6_file((FIXTURES / "cubic_le10.g6").read_text())
    assert len(graphs) == 27  # 1 + 2 + 5 + 19 connected cubic graphs, n <= 10
    for g in graphs:
        assert g.is_connected() and all(g.degree(v) == 3 for v in range(g.n))
        assert is_dpdp(g), g.edge_multiset()
    report(5, "all 27 connected cubic graphs on <=10 vertices are DPDP", t0, 60.0)


def test_criterion_06_theorem_3_1_cross_validation(sweep_le5):
    t0 = time.perf_counter() - sweep_le5.build_seconds  # charge fixture work here
    for row in sweep_le5:
        minimal = row["minimal"]
        no_goodsub = row["cert"] is None
        g, lab = row["g"], row["lab"]
        small_cycle = (
            g.n in (3, 6, 9)
            and g.m == g.n
            and all(g.degree(v) == 2 for v in range(g.n))
        )
        unique_canonical = len(row["pairs2"]) == 1 and row["pairs2"][0].partition() == (
            lab.old_part(),
            lab.new_part(),
        )
        by_pairs = small_cycle or unique_canonical
        assert minimal == no_goodsub == by_pairs, row["h"].edge_multiset()
    report(6, f"Theorem 3.1 agreement on {len(sweep_le5)} multigraphs (<=5 edges)", t0, 600.0)


def test_criterion_07_theorem_6_1_uniqueness(sweep_le5):
    t0 = time.perf_counter()
    checked = 0
    for row in sweep_le5:
        h = row["h"]
        if max(h.degree(v) for v in range(h.n)) < 3 or not row["minimal"]:
            continue
        lab = row["lab"]
        assert len(row["pairs2"]) == 1, h.edge_multiset()
        assert row["pairs2"][0].partition() == (lab.old_part(), lab.new_part())
        checked += 1
    assert checked > 0
    report(7, f"unique canonical DP-pair on {checked} minimal S2(H) with max degree >= 3", t0, None)


def test_criterion_08_corollary_6_3_coronas():
    t0 = time.perf_counter()
    bases = [g for n in range(1, 5) for g in enumerate_connected_simple(n)]
    assert len(bases) == 10
    checked = 0
    for f in bases:
        for counts in product((1, 2), repeat=f.n):
            h = corona(f, list(counts))
            g, _ = build_s2(h)
            assert find_good_subgraph(h) is None, (f.edge_multiset(), counts)
            assert is_minimal_by_deletion(g), (f.edge_multiset(), counts)
            checked += 1
    report(8, f"S2(corona) minimal for {checked} coronas over bases with <=4 vertices", t0, 300.0)


def test_criterion_09_corollary_6_4(multigraphs_le5):
    t0 = time.perf_counter()
    g1, _ = build_s2(path(2))
    g2, _ = build_s2(g1)
    assert g2.n == 10 and is_path_graph(g2)
    assert is_minimal_by_deletion(g2)
    g1, _ = build_s2(cycle(1))
    g2, _ = build_s2(g1)
    assert g2.n == 9 and is_cycle_graph(g2)
    assert is_minimal_by_deletion(g2)
    for h in multigraphs_le5:
        if not (2 <= h.m <= 3):
            continue
        s2, _ = build_s2(h)
        s2s2, _ = build_s2(s2)
        assert not is_minimal_by_deletion(s2s2), h.edge_multiset()
    report(9, "S2(S2(P2))=P10 and S2(S2(C1))=C9 minimal; 2-3 edge bases never", t0, None)


def _minimal_graphs_found(sweep_le5) -> list[Multigraph]:
    found = [path(n) for n in (4, 7, 10, 13)]
    found += [cycle(m) for m in (3, 6, 9)]
    for n in range(2, 6):
        for alpha in (None, {0: 3}):
            found.append(build_s2(path(n), alpha)[0])
    for m in range(1, 4):
        found.append(build_s2(cycle(m))[0])
    found.extend(row["g"] for row in sweep_le5 if row["minimal"])
    for f_n in range(1, 5):
        for f in enumerate_connected_simple(f_n):
            found.append(build_s2(corona(f))[0])
    found.append(build_s2(build_s2(path(2))[0])[0])
    found.append(build_s2(build_s2(cycle(1))[0])[0])
    return found


def test_criterion_10_theorem_4_5_posteriors(sweep_le5):
    t0 = time.perf_counter()
    graphs = _minimal_graphs_found(sweep_le5)
    checked_pairs = 0
    for g in graphs:
        pairs = enumerate_dp_pairs(g, cap=16)
        assert 1 <= len(pairs) < 16, g
        for pair in pairs:
            props = minimal_pair_properties(g, pair)
            assert props == (True, True, True), (g, sorted(pair.d))
            checked_pairs += 1
    report(10, f"Theorem 4.5 posteriors on {checked_pairs} pairs of {len(graphs)} minimal graphs", t0, None)


def test_criterion_11_tree_suite():
    t0 = time.perf_counter()
    trees = [t for n in range(2, 11) for t in enumerate_trees(n)]
    assert len(trees) == 200
    good_certs = 0
    for t in trees:
        fast = tree_find_good_subtree(t)
        cert = find_good_subgraph(t)
        assert (fast is None) == (cert is None), t.edge_multiset()
        if cert is not None:
            idx = forest_good_decomposition_check(t, cert)
            assert idx >= 0
            good_certs += 1
    rng = random.Random(20260810)
    for _ in range(500):
        t = random_tree(rng.randint(2, 14), rng)
        fast = tree_find_good_subtree(t)
        cert = find_good_subgraph(t)
        assert (fast is None) == (cert is None), t.edge_multiset()
        if cert is not None:
            assert forest_good_decomposition_check(t, cert) >= 0
    report(11, f"tree agreement, exhaustive <=10 plus 500 random <=14 ({good_certs} certified)", t0, 600.0)


def _oracle_has_dp_pair(g: Multigraph) -> bool:
    adj = adjacency(g)
    vs = list(range(g.n))

    def dominating(s: set[int]) -> bool:
        return all(v in s or adj[v] & s for v in vs)

    for r in range(g.n + 1):
        for combo in combinations(vs, r):
            d = set(combo)
            p = set(vs) - d
            if len(p) % 2:
                continue
            if dominating(d) and dominating(p) and oracle_pairing_exists(g, p):
                return True
    return False


def test_criterion_12_oracle_equivalences(simple_connected):
    t0 = time.perf_counter()
    for n in range(1, 8):
        for g in simple_connected[n]:
            assert (find_dp_pair(g) is not None) == _oracle_has_dp_pair(g), g.edge_multiset()
    rng = random.Random(424242)
    for _ in range(200):
        n = rng.randint(2, 12)
        g = Multigraph(n, [(rng.randrange(n), rng.randrange(n))
                           for _ in range(rng.randint(1, 2 * n))])
        s = {v for v in range(n) if rng.random() < 0.6}
        assert (has_perfect_matching_on(g, s) is not None) == oracle_pairing_exists(g, s)
    report(12, "search vs 2^n enumeration (n<=7); matching vs pairing oracle (|S|<=12)", t0, None)
