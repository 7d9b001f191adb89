"""Input generation and output checks that do not use the dpdp engines.

Everything here is written against the documented file formats and the
definitions, so a defect in the package cannot also hide in its check.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random


def digest(text: str) -> str:
    """Short content digest used for the recorded expectations."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- inputs ----------------------------------------------------------------------


def _draw(rng: random.Random, k: int) -> int:
    """Uniform in range(k) from rng.random() alone, stable across versions."""
    return min(k - 1, int(rng.random() * k))


def random_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a uniform random labelled tree on n >= 2 vertices (Pruefer)."""
    if n == 2:
        return [(0, 1)]
    seq = [_draw(rng, n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def s2_graph(
    n: int, edges: list[tuple[int, int]], alpha: dict[int, int]
) -> tuple[int, list[tuple[int, int]]]:
    """The 2-subdivision of a loopless base with leaf multiplicities alpha.

    Each leaf is replaced by alpha[leaf] copies and each base edge uv by the
    path u - u_e - v_e - v.  Vertex order: non-leaves, leaf copies, then the
    two subdivision vertices of each edge; edge order per base edge: the
    middle edge, then the attachments at its first and second endpoint.
    """
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    reps: dict[int, list[int]] = {}
    nxt = 0
    for v in range(n):
        if degree[v] != 1:
            reps[v] = [nxt]
            nxt += 1
    for v in range(n):
        if degree[v] == 1:
            reps[v] = list(range(nxt, nxt + alpha[v]))
            nxt += alpha[v]
    out: list[tuple[int, int]] = []
    for u, v in edges:
        a, b = nxt, nxt + 1
        nxt += 2
        out.append((a, b))
        out.extend((r, a) for r in reps[u])
        out.extend((r, b) for r in reps[v])
    return nxt, out


def s2_tree_inputs(tree_seed: int, count: int = 40) -> list[tuple[int, list]]:
    """count S2 graphs of random trees on 20-34 vertices, leaf
    multiplicities drawn from {1, 2, 3}; the same seed gives the same list."""
    rng = random.Random(tree_seed)
    graphs = []
    for _ in range(count):
        n = 20 + _draw(rng, 15)
        edges = random_tree(n, rng)
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        alpha = {v: 1 + _draw(rng, 3) for v in range(n) if degree[v] == 1}
        graphs.append(s2_graph(n, edges, alpha))
    return graphs


def edge_list_text(n: int, edges: list[tuple[int, int]]) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


# -- checks ----------------------------------------------------------------------


def _neighbours(n: int, edges) -> list[set[int]]:
    nb: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            nb[u].add(v)
            nb[v].add(u)
    return nb


def _dominates(nb: list[set[int]], s: set[int]) -> bool:
    return all(v in s or nb[v] & s for v in range(len(nb)))


def dp_pair_problem(n: int, edges, pair: dict) -> str | None:
    """Why the emitted pair {"d", "p", "matching"} is not a DP-pair of the
    graph, or None if it is one."""
    d, p = set(pair["d"]), set(pair["p"])
    if d & p or d | p != set(range(n)):
        return "d and p do not partition the vertex set"
    nb = _neighbours(n, edges)
    if not _dominates(nb, d):
        return "d is not dominating"
    if not _dominates(nb, p):
        return "p is not dominating"
    covered: set[int] = set()
    for u, v, eid in pair["matching"]:
        if not 0 <= eid < len(edges) or sorted(edges[eid]) != sorted((u, v)):
            return f"matching edge {[u, v, eid]} is not an edge of the input"
        if u == v or u not in p or v not in p or u in covered or v in covered:
            return f"matching edge {[u, v, eid]} is not part of a matching of p"
        covered.update((u, v))
    if covered != p:
        return "matching does not cover p"
    return None


def s2_size(base_n: int, base_edges, alpha: dict[int, int]) -> tuple[int, int]:
    """Vertex and edge counts of the 2-subdivision of (base, alpha)."""
    degree = [0] * base_n
    for u, v in base_edges:
        degree[u] += 1
        degree[v] += 1
    reps = [alpha.get(v, 1) if degree[v] == 1 else 1 for v in range(base_n)]
    n = sum(reps) + 2 * len(base_edges)
    m = sum(1 + reps[u] + reps[v] for u, v in base_edges)
    return n, m


def connected(n: int, edges) -> bool:
    if n == 0:
        return True
    nb = _neighbours(n, edges)
    seen, stack = {0}, [0]
    while stack:
        for w in nb[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def shape_problem(kind: str, n: int, edges) -> str | None:
    """Why a returned class does not have the shape its enumerator claims."""
    if not connected(n, edges):
        return "not connected"
    keys = [tuple(sorted(e)) for e in edges]
    simple = all(u != v for u, v in keys) and len(set(keys)) == len(keys)
    if kind == "simple":
        return None if simple else "not simple"
    if kind == "cubic":
        degree = [0] * n
        for u, v in keys:
            degree[u] += 1
            degree[v] += 1
        if not simple or any(x != 3 for x in degree):
            return "not a simple 3-regular graph"
        return None
    # multigraphs: 1..5 edges, no isolated vertex (implied by connected, n >= 2)
    if not 1 <= len(edges) <= 5:
        return "edge count outside 1..5"
    touched = {x for e in keys for x in e}
    return None if touched == set(range(n)) else "isolated vertex"
