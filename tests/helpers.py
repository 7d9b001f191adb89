"""Independent brute-force oracles for the test suite.

Everything here recomputes from raw edge data with its own naive
algorithms; none of it calls the library's search or matching code, so
engine results can be checked against a genuinely independent path.
The forest check splits a found certificate and re-verifies each part
with the library's certificate checker, which is not a search.  The ILP
oracle hands its 0/1 program to scipy and checks the answer itself.
The seeded samplers and hypothesis strategies at the end draw the inputs
they are compared on.
"""

from __future__ import annotations

import hashlib
import pathlib
import random
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest
from hypothesis import strategies as st

from dpdp.catalog import read_graph6_file
from dpdp.goodsub import GoodSubgraphCertificate, verify_good_certificate
from dpdp.graph import Multigraph


def adjacency(g: Multigraph) -> list[set[int]]:
    """Neighbour sets from the raw edge list (loops ignored: they never
    matter for domination or matching)."""
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in zip(g.us, g.vs):
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def oracle_dominating(g: Multigraph, s: set[int]) -> bool:
    adj = adjacency(g)
    return all(v in s or adj[v] & s for v in range(g.n))


def oracle_pairing_exists(g: Multigraph, s: set[int]) -> bool:
    """Exhaustive pairing: match the lowest unmatched vertex against every
    neighbour in turn."""
    if len(s) % 2:
        return False
    adj = adjacency(g)

    def rec(rem: frozenset[int]) -> bool:
        if not rem:
            return True
        u = min(rem)
        rest = rem - {u}
        return any(rec(rest - {w}) for w in adj[u] if w in rest)

    return rec(frozenset(s))


def oracle_dp_partitions(g: Multigraph) -> list[frozenset[int]]:
    """All D-sets of valid DP-pairs by full 2^n enumeration (P is the
    complement).  Returns sorted tuples of D for deterministic compare."""
    vs = list(range(g.n))
    hits = []
    for r in range(g.n + 1):
        for combo in combinations(vs, r):
            d = set(combo)
            p = set(vs) - d
            if len(p) % 2:
                continue
            if not oracle_dominating(g, d) or not oracle_dominating(g, p):
                continue
            if oracle_pairing_exists(g, p):
                hits.append(frozenset(d))
    return sorted(hits, key=sorted)


def oracle_dp_ilp(g: Multigraph) -> bool:
    """Whether g is a DPDP-graph, by a 0/1 program that scipy's milp
    (HiGHS) decides; skips the calling test when scipy is missing.

    x_v = 1 iff v is in P, and one y per adjacent pair of distinct
    vertices, on its lowest edge id, says whether that edge is in the
    matching.  Each v gives three rows: x_v + sum of x over N(v) >= 1
    (P dominates), x_v <= sum of 1 - x over N(v) (D dominates P; D
    dominates itself), and the y at v sum to x_v (a perfect matching of
    G[P]).  A feasible answer is re-checked here before it counts."""
    pytest.importorskip("scipy")
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    adj = adjacency(g)
    pairs: dict[tuple[int, int], int] = {}  # (u, v), u < v -> lowest edge id
    for eid, (u, v) in enumerate(zip(g.us, g.vs)):
        if u != v:
            pairs.setdefault((min(u, v), max(u, v)), eid)
    n, width = g.n, g.n + len(pairs)
    rows = np.zeros((3 * n, width))
    lower, upper = np.zeros(3 * n), np.zeros(3 * n)
    for v in range(n):
        rows[v, v] = rows[n + v, v] = 1
        rows[v, list(adj[v])] = rows[n + v, list(adj[v])] = 1
        lower[v], upper[v] = 1, np.inf
        lower[n + v], upper[n + v] = -np.inf, len(adj[v])
        rows[2 * n + v, v] = -1
    for k, (u, v) in enumerate(pairs):
        rows[2 * n + u, n + k] = rows[2 * n + v, n + k] = 1
    res = milp(
        np.zeros(width),
        constraints=LinearConstraint(rows, lower, upper),
        integrality=np.ones(width),
        bounds=Bounds(0, 1),
    )
    assert res.status in (0, 2), res.message  # 0 solved, 2 infeasible
    if res.status == 2:
        return False
    p = {v for v in range(n) if res.x[v] > 0.5}
    matched = [x for k, pair in enumerate(pairs) if res.x[n + k] > 0.5 for x in pair]
    assert sorted(matched) == sorted(p), "the matching does not pair up P"
    assert oracle_dominating(g, p) and oracle_dominating(g, set(range(n)) - p)
    return True


def is_two_hub_theta(line: str) -> bool:
    """Whether the graph6 line is two hubs joined by n - 4 paths of 2
    edges and one of 3 edges, n its vertex count: the non-DPDP graphs of
    minimum degree >= 2 in the census.  networkx's isomorphism test
    decides; skips the calling test when networkx is missing."""
    nx = pytest.importorskip("networkx")
    g = nx.from_graph6_bytes(line.encode())
    family = nx.Graph()
    for k in range(g.number_of_nodes() - 4):
        nx.add_path(family, ["hub", k, "other hub"])
    nx.add_path(family, ["hub", "a", "b", "other hub"])
    return nx.is_isomorphic(g, family)


def oracle_is_s2(g: Multigraph) -> bool:
    """Whether g is a 2-subdivision S2(H, alpha), by a search over its
    old/new colourings; never calls dpdp.subdivision.

    A g with a loop, a parallel edge or an isolated vertex is none.
    Otherwise g is one iff some colouring has each new vertex with exactly
    one new neighbour, old vertices (old-or-copy, in the library's terms)
    with new neighbours only, and each new vertex's other neighbours
    exactly one non-leaf or one or more leaves, never a mix.  The new pairs are then H's edges, a non-leaf old vertex
    is a vertex of H, and the leaves beside one new vertex are the copies
    of a leaf of H.  The search colours vertices in breadth-first order,
    one component after another, and drops a partial colouring once an
    edge joins two old vertices or a new vertex has two new neighbours."""
    keys = [(min(u, v), max(u, v)) for u, v in zip(g.us, g.vs)]
    if any(u == v for u, v in keys) or len(set(keys)) < len(keys):
        return False
    adj = adjacency(g)
    if not all(adj):
        return False
    leaf = [len(a) == 1 for a in adj]
    order: list[int] = []
    seen: set[int] = set()
    for s in range(g.n):
        if s not in seen:
            queue = [s]
            seen.add(s)
            for x in queue:  # the list grows as it is read
                fresh = sorted(adj[x] - seen)
                seen.update(fresh)
                queue += fresh
            order += queue
    new: list[bool | None] = [None] * g.n

    def valid(x: int) -> bool:
        mates = {u for u in adj[x] if new[u]}
        others = adj[x] - mates
        if not new[x]:
            return not others
        return len(mates) == 1 and (
            len(others) == 1 and not leaf[min(others)]
            or bool(others) and all(leaf[u] for u in others)
        )

    def clash(v: int) -> bool:
        if not new[v]:
            return any(new[u] is False for u in adj[v])
        return any(sum(new[w] is True for w in adj[u]) > 1 for u in adj[v] | {v} if new[u])

    def search(i: int) -> bool:
        if i == len(order):
            return all(map(valid, range(g.n)))
        for colour in (False, True):
            new[order[i]] = colour
            if not clash(order[i]) and search(i + 1):
                return True
        new[order[i]] = None
        return False

    return search(0)


def oracle_connected_multigraphs(max_edges: int) -> set[tuple[int, tuple]]:
    """Every connected multigraph with 1..max_edges edges and no isolated
    vertex, one per isomorphism class, as (n, sorted edge tuple): the
    lexicographically least labelling of each class.  Walks every labelled
    edge multiset on n <= m + 1 vertices, checks connectivity by a BFS on
    the raw edges, and tries every vertex permutation on the survivors."""
    found = set()
    for m in range(1, max_edges + 1):
        for n in range(1, m + 2):
            slots = [(u, v) for u in range(n) for v in range(u, n)]
            perms = list(permutations(range(n)))
            for combo in combinations_with_replacement(slots, m):
                seen, todo = {0}, [0]
                while todo:
                    x = todo.pop()
                    for u, v in combo:
                        for a, b in ((u, v), (v, u)):
                            if a == x and b not in seen:
                                seen.add(b)
                                todo.append(b)
                if len(seen) < n:
                    continue
                if all(
                    tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in combo)) >= combo
                    for p in perms
                ):
                    found.add((n, combo))
    return found


def cubic_backtrack(n: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Every labelled connected cubic graph on n vertices that the cubic
    enumerator's backtracking reaches without any isomorph pruning, as
    (n, edge list) in the order found: the lowest vertex of degree below 3
    is joined to each later vertex it may still take, an untouched one only
    if it is the first untouched one.  Copies of a class abound (236 graphs
    for the 5 classes of n = 8, 4,384 for the 19 of n = 10)."""
    found: list[tuple[int, list[tuple[int, int]]]] = []
    adj: list[set[int]] = [set() for _ in range(n)]
    deg = [0] * n

    def candidates_for(v: int) -> list[int]:
        out = []
        fresh_seen = False
        for u in range(v + 1, n):
            if deg[u] == 0:
                if fresh_seen:
                    break
                fresh_seen = True
                out.append(u)
            elif deg[u] < 3 and u not in adj[v]:
                out.append(u)
        return out

    def extend() -> None:
        v = next((x for x in range(n) if deg[x] < 3), None)
        if v is None:
            reached = {0}
            todo = [0]
            while todo:
                for w in adj[todo.pop()] - reached:
                    reached.add(w)
                    todo.append(w)
            if len(reached) == n:
                found.append((n, [(u, w) for u in range(n) for w in sorted(adj[u]) if u < w]))
            return
        for u in candidates_for(v):
            adj[v].add(u)
            adj[u].add(v)
            deg[v] += 1
            deg[u] += 1
            extend()
            adj[v].remove(u)
            adj[u].remove(v)
            deg[v] -= 1
            deg[u] -= 1

    extend()
    return found


# -- good subgraphs -------------------------------------------------------------


def oracle_good_q(h: Multigraph, q_edges) -> bool:
    """Whether the edges q_edges of h form a good subgraph Q, from the
    definition in the dpdp.goodsub docstring and nothing of that module:
    every arc set E with the Q boundary inside E inside E_H - E_Q, every
    orientation of E with out-degree at most 1, and for each Q-vertex
    every nonempty prefix of its chain of out-arcs that is a path (no
    vertex repeats, but a loop may be the final arc and the final head may
    be the start).  A family is good when its paths cover E arc-disjointly
    and meet conditions (1)-(3); a path's end is not one of its inner
    vertices.  Degrees count arcs, a loop arc 1 out and 1 in."""
    us, vs = h.us, h.vs
    q = set(q_edges)
    if not q:
        return False
    q_vertices = sorted({us[e] for e in q} | {vs[e] for e in q})
    degree = [0] * h.n
    d_q = [0] * h.n
    for e in range(h.m):
        for x in (us[e], vs[e]):
            degree[x] += 1
            d_q[x] += e in q
    outside = [e for e in range(h.m) if e not in q]
    boundary = [e for e in outside if us[e] in q_vertices or vs[e] in q_vertices]
    free = [e for e in outside if e not in boundary]
    for r in range(len(free) + 1):
        for extra in combinations(free, r):
            e_set = boundary + list(extra)
            # a loop has one orientation
            for heads in product(*[{vs[e], us[e]} for e in e_set]):
                arcs = {e: (us[e] + vs[e] - x, x) for e, x in zip(e_set, heads)}
                out = {t: e for e, (t, _) in arcs.items()}
                if len(out) == len(arcs) and any(
                    _good_family(degree, d_q, q_vertices, arcs, family)
                    for family in product(*[_chain_prefixes(v, out, arcs) for v in q_vertices])
                ):
                    return True
    return False


def _chain_prefixes(v: int, out: dict[int, int], arcs: dict[int, tuple[int, int]]):
    """(arcs, inner vertices, end) of each nonempty prefix of the out-arc
    chain from v that is a path."""
    path, inner, x = [], [], v
    while x in out:
        path.append(out[x])
        head = arcs[out[x]][1]
        if head == x or head == v:
            yield tuple(path), [y for y in inner if y != head], head
            return
        if head in inner:
            return
        yield tuple(path), list(inner), head
        inner.append(head)
        x = head


def _good_family(degree, d_q, q_vertices, arcs, family) -> bool:
    """Whether the paths of family, one (arcs, inner vertices, end) per
    Q-vertex, cover the arcs exactly once and meet conditions (1)-(3)."""
    used = [e for path, _, _ in family for e in path]
    if sorted(used) != sorted(arcs):
        return False
    d_out = [0] * len(degree)
    d_in = [0] * len(degree)
    for t, head in arcs.values():
        d_out[t] += 1
        d_in[head] += 1
    inner = {x for _, xs, _ in family for x in xs}
    return (
        all(d_out[v] == 1 and d_in[v] == degree[v] - d_q[v] - 1 for v in q_vertices)
        and all(d_out[x] == 1 and d_in[x] == degree[x] - 1 for x in inner)
        and all(d_in[end] < degree[end] for _, _, end in family)
    )


# -- trees and forests ---------------------------------------------------------


def _is_forest(h: Multigraph) -> bool:
    return h.is_simple() and h.m == h.n - len(h.connected_components())


def tree_find_good_subtree(h: Multigraph) -> frozenset[int] | None:
    """On a tree: a connected vertex set S, |S| >= 2, where every member
    has exactly one neighbour outside S and that neighbour has degree at
    least 2.  Equivalent to hosting a good subgraph (the induced subtree);
    an oracle for find_good_subgraph on trees: it tries vertex subsets
    against the paper's tree criterion, not Q sets and path families.
    """
    if not (_is_forest(h) and h.is_connected() and h.n >= 1):
        raise ValueError("input is not a tree")
    allowed = sorted(frozenset(range(h.n)) - h.leaves() - h.supports())
    for size in range(2, len(allowed) + 1):
        for combo in combinations(allowed, size):
            s = frozenset(combo)
            if not _connected_in(h, s):
                continue
            good = True
            for x in s:
                outside = h.plain_neighbors(x) - s
                if len(outside) != 1 or h.degree(next(iter(outside))) < 2:
                    good = False
                    break
            if good:
                return s
    return None


def _connected_in(h: Multigraph, s: frozenset[int]) -> bool:
    start = min(s)
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for u in h.plain_neighbors(x):
            if u in s and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == s


def forest_good_decomposition_check(
    h: Multigraph, cert: GoodSubgraphCertificate
) -> int:
    """Index (components of Q ordered by smallest vertex) of a component
    of Q that is a good subgraph of h on its own.  Existence is
    guaranteed for forests; absence is an internal error."""
    if not _is_forest(h):
        raise ValueError("host is not a forest")
    ok, why = verify_good_certificate(h, cert)
    if not ok:
        raise ValueError(f"Q is not a good subgraph: {why}")

    us, vs = h.us, h.vs
    q = Multigraph(h.n, [(us[eid], vs[eid]) for eid in sorted(cert.q_edges)])
    comps = [c for c in q.connected_components() if c & cert.q_vertices]
    for idx, comp in enumerate(comps):
        sub_edges = frozenset(
            eid
            for eid in cert.q_edges
            if us[eid] in comp and vs[eid] in comp
        )
        sub_paths = {v: cert.paths[v] for v in sorted(comp)}
        sub_arc_ids = frozenset(a for arcs in sub_paths.values() for a in arcs)
        sub = GoodSubgraphCertificate(
            q_vertices=comp,
            q_edges=sub_edges,
            e_set=sub_arc_ids,
            arcs={a: cert.arcs[a] for a in sub_arc_ids},
            paths=sub_paths,
        )
        ok, _ = verify_good_certificate(h, sub)
        if ok:
            return idx
    raise AssertionError("no component of a good forest re-verified alone")


def edge_list_text(g: Multigraph) -> str:
    lines = [f"{g.n} {g.m}"] + [f"{e.u} {e.v}" for e in g.edges]
    return "\n".join(lines) + "\n"


def edge_order_digest(graphs) -> str:
    """SHA-256 over one "n:u-v u-v ..." line per graph, its edges in the
    order stored.  Unlike graph6 text, it pins the edge order."""
    text = "".join(
        f"{g.n}:" + " ".join(f"{u}-{v}" for u, v in zip(g.us, g.vs)) + "\n" for g in graphs
    )
    return hashlib.sha256(text.encode()).hexdigest()


def theta(length: int) -> Multigraph:
    """Two hubs, 0 and 1, joined by three paths of length edges each; the
    inner vertices are numbered from 2 along each path from hub 0, one
    path after the other."""
    edges, x = [], 2
    for _ in range(3):
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, x))
            prev, x = x, x + 1
        edges.append((prev, 1))
    return Multigraph(x, edges)


def random_looped_multigraphs(count: int, seed: int) -> list[Multigraph]:
    """count random labelled multigraphs on 1-6 vertices with no isolated
    vertex, from random.Random(seed).  Each has n to 2n + 1 edges; an edge
    is a loop with probability 1/4, and otherwise joins two vertices drawn
    independently (so also a loop when they coincide), which makes
    parallel edges common.  Drafts with an isolated vertex are redrawn."""
    rng = random.Random(seed)
    hosts: list[Multigraph] = []
    while len(hosts) < count:
        n = rng.randint(1, 6)
        edges = []
        for _ in range(rng.randint(n, 2 * n + 1)):
            u = rng.randrange(n)
            edges.append((u, u if rng.random() < 0.25 else rng.randrange(n)))
        if {x for e in edges for x in e} == set(range(n)):
            hosts.append(Multigraph(n, edges))
    return hosts


def simple_n8_sample(k: int = 150) -> list[Multigraph]:
    """k graphs of tests/fixtures/simple_n8.g6 chosen by
    random.Random(3).sample, in the order drawn.  The fixture holds one
    representative per class, so every class is equally likely, but a
    fixed seed picks one particular k of the 11,117: the sample is not
    spread evenly over edge counts or any other class property, and it
    says nothing about random labelled graphs."""
    fixture = pathlib.Path(__file__).parent / "fixtures" / "simple_n8.g6"
    graphs = read_graph6_file(fixture.read_text())
    return random.Random(3).sample(graphs, k)


def gnp9_sample(k: int = 60) -> list[Multigraph]:
    """k connected labelled G(9, p) graphs from random.Random(9): each
    draft draws p uniformly from [0.25, 0.75] and then each of the 36
    vertex pairs independently with probability p, and a disconnected
    draft is redrawn, p included.  The sample is not uniform over classes:
    a class with many labellings, and one whose edge count suits the
    drawn p, comes up more often, classes recur, and sparse and very dense
    graphs are rare."""
    rng = random.Random(9)
    everything = frozenset(range(9))
    hosts: list[Multigraph] = []
    while len(hosts) < k:
        p = rng.uniform(0.25, 0.75)
        g = Multigraph(9, [e for e in combinations(range(9), 2) if rng.random() < p])
        if _connected_in(g, everything):
            hosts.append(g)
    return hosts


def start_colours_by_definition(n: int, ends) -> list[tuple]:
    """(degree, loop count, triangles) per vertex of a multigraph, as the
    _canon docstring defines them: a loop counts 2 toward its vertex's
    degree, and the triangles at v are the adjacent pairs among v's
    distinct non-loop neighbours, counted over every pair."""
    nbrs = [set() for _ in range(n)]
    for u, v in ends:
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    return [
        (
            sum((u == v) + (w == v) for u, w in ends),
            sum(u == w == v for u, w in ends),
            sum(1 for a, b in combinations(sorted(nbrs[v]), 2) if b in nbrs[a]),
        )
        for v in range(n)
    ]


@st.composite
def multigraphs(draw, max_n: int, max_m: int):
    """Random multigraphs with loops and parallel edges."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=max_m))
    return Multigraph(n, edges)


@st.composite
def based_alphas(draw):
    """A random connected multigraph on 1-5 vertices (a random spanning
    tree plus up to three edges that may be loops or parallel, in random
    edge order) and a random multiplicity in {1, 2, 3} for each leaf."""
    n = draw(st.integers(1, 5))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex),
                           min_size=1 if n == 1 else 0, max_size=3))
    h = Multigraph(n, draw(st.permutations(edges)))
    alpha = {v: draw(st.integers(1, 3)) for v in sorted(h.leaves())}
    return h, alpha
