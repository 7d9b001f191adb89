"""Graph generators, exhaustive small-graph enumeration, and file codecs.

Families: paths, cycles (cycle(1) is a loop vertex, cycle(2) a parallel
pair), complete and complete bipartite graphs, stars, double stars, and
corona graphs with per-vertex pendant counts.

Enumerations return exactly one representative per isomorphism class and
are cached: the cross-validation sweeps call them repeatedly.

Codecs: graph6 (simple graphs, single-byte size, n <= 62) and the plain
edge-list text format, the only lossless multigraph interchange here.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

from .graph import Multigraph
from ._canon import classes_by_isomorphism

#: connected simple graphs on n=1..7 vertices, up to isomorphism
CONNECTED_SIMPLE_COUNTS = (1, 1, 2, 6, 21, 112, 853)

#: connected cubic graphs on 4, 6, 8, 10 vertices, up to isomorphism
CONNECTED_CUBIC_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19}


# -- named families ---------------------------------------------------------


def path(n: int) -> Multigraph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Multigraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(m: int) -> Multigraph:
    """Cycle with m edges: cycle(1) is one looped vertex, cycle(2) two
    vertices joined by parallel edges."""
    if m < 1:
        raise ValueError("cycle needs m >= 1")
    if m == 1:
        return Multigraph(1, [(0, 0)])
    if m == 2:
        return Multigraph(2, [(0, 1), (0, 1)])
    return Multigraph(m, [(i, (i + 1) % m) for i in range(m)])


def complete(n: int) -> Multigraph:
    if n < 1:
        raise ValueError("complete needs n >= 1")
    return Multigraph(n, list(combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Multigraph:
    if a < 1 or b < 1:
        raise ValueError("complete_bipartite needs a, b >= 1")
    return Multigraph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star(k: int) -> Multigraph:
    """K_{1,k}: center is vertex 0."""
    if k < 1:
        raise ValueError("star needs k >= 1")
    return Multigraph(k + 1, [(0, i) for i in range(1, k + 1)])


def double_star(r: int, s: int) -> Multigraph:
    """S(r, s): centers 0 and 1, r leaves on 0 and s leaves on 1."""
    if r < 1 or s < 1:
        raise ValueError("double_star needs r, s >= 1")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(r)]
    edges += [(1, 2 + r + j) for j in range(s)]
    return Multigraph(2 + r + s, edges)


def corona(f: Multigraph, pendants: int | list[int] = 1) -> Multigraph:
    """Corona graph over f: attach pendants[v] >= 1 pendant edges to each
    vertex of f.  With pendants == 1 this is the corona f o K1."""
    if isinstance(pendants, int):
        counts = [pendants] * f.n
    else:
        counts = list(pendants)
        if len(counts) != f.n:
            raise ValueError("one pendant count per vertex required")
    if f.n < 1 or any(c < 1 for c in counts):
        raise ValueError("corona needs a nonempty base and pendant counts >= 1")
    edges = [e.endpoints() for e in f.edges]
    nxt = f.n
    for v in range(f.n):
        for _ in range(counts[v]):
            edges.append((v, nxt))
            nxt += 1
    return Multigraph(nxt, edges)


@dataclass(frozen=True)
class GraphFamily:
    """A named family tag plus its parameters."""

    kind: str
    params: tuple[int, ...]


_MAKERS = {
    "path": path,
    "cycle": cycle,
    "complete": complete,
    "complete_bipartite": complete_bipartite,
    "star": star,
    "double_star": double_star,
}


def make(family: GraphFamily) -> Multigraph:
    if family.kind == "corona":
        raise ValueError("corona families need an explicit base graph; call corona()")
    if family.kind not in _MAKERS:
        raise ValueError(f"unknown family {family.kind!r}")
    return _MAKERS[family.kind](*family.params)


def random_tree(n: int, rng: random.Random) -> Multigraph:
    """Uniform random labeled tree via a Pruefer sequence."""
    if n < 1:
        raise ValueError("tree needs n >= 1")
    if n == 1:
        return Multigraph(1, [])
    if n == 2:
        return Multigraph(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return Multigraph(n, edges)


# -- exhaustive enumeration up to isomorphism --------------------------------


@lru_cache(maxsize=None)
def enumerate_connected_simple(n: int) -> tuple[Multigraph, ...]:
    """All connected simple graphs on n vertices, one per isomorphism class.

    Built by augmenting the (n-1)-vertex classes with one new vertex joined
    to every nonempty neighbour subset, then deduplicating.  Class counts
    match the classical sequence 1, 1, 2, 6, 21, 112, 853 for n <= 7.
    """
    if not (1 <= n <= 7):
        raise ValueError("enumerate_connected_simple supports 1 <= n <= 7")
    if n == 1:
        return (Multigraph(1, []),)
    candidates = []
    for g in enumerate_connected_simple(n - 1):
        base = [e.endpoints() for e in g.edges]
        for mask in range(1, 1 << (n - 1)):
            extra = [(v, n - 1) for v in range(n - 1) if mask >> v & 1]
            candidates.append(Multigraph(n, base + extra))
    return tuple(classes_by_isomorphism(candidates))


@lru_cache(maxsize=None)
def enumerate_connected_multigraphs(max_edges: int) -> tuple[Multigraph, ...]:
    """All connected multigraphs with 1..max_edges edges and no isolated
    vertex, one per isomorphism class (loops and parallel edges included)."""
    if not (1 <= max_edges <= 5):
        raise ValueError("enumerate_connected_multigraphs supports max_edges <= 5")
    reps: list[Multigraph] = []
    for m in range(1, max_edges + 1):
        for n in range(1, m + 2):
            slots = [(u, v) for u in range(n) for v in range(u, n)]
            batch = []
            for combo in combinations_with_replacement(slots, m):
                touched = set()
                for u, v in combo:
                    touched.add(u)
                    touched.add(v)
                if len(touched) != n:
                    continue
                g = Multigraph(n, list(combo))
                if g.is_connected():
                    batch.append(g)
            reps.extend(classes_by_isomorphism(batch))
    return tuple(reps)


@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple[Multigraph, ...]:
    """All trees on n vertices up to isomorphism (leaf augmentation)."""
    if n < 1:
        raise ValueError("enumerate_trees needs n >= 1")
    if n == 1:
        return (Multigraph(1, []),)
    candidates = []
    for t in enumerate_trees(n - 1):
        base = [e.endpoints() for e in t.edges]
        for v in range(n - 1):
            candidates.append(Multigraph(n, base + [(v, n - 1)]))
    return tuple(classes_by_isomorphism(candidates))


@lru_cache(maxsize=None)
def enumerate_connected_cubic(n: int) -> tuple[Multigraph, ...]:
    """All connected cubic (3-regular) simple graphs on n vertices, one per
    isomorphism class.  Backtracking over neighbour choices with new
    vertices used smallest-first; duplicates removed by isomorphism."""
    if n < 4 or n % 2:
        return ()
    if n > 10:
        raise ValueError("enumerate_connected_cubic supports n <= 10")
    found: list[Multigraph] = []
    adj = [set() for _ in range(n)]
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
            g = Multigraph(
                n, sorted((min(u, w), max(u, w)) for u in range(n) for w in adj[u] if u < w)
            )
            if g.is_connected():
                found.append(g)
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
    return tuple(classes_by_isomorphism(found))


# -- graph6 codec -------------------------------------------------------------


def write_graph6(g: Multigraph) -> str:
    """Encode a simple graph: size byte n+63, then the upper triangle in
    column order packed big-endian into 6-bit groups, each offset by 63."""
    if not g.is_simple():
        raise ValueError("graph6 encodes simple graphs only")
    if g.n > 62:
        raise ValueError("graph6 writer supports n <= 62")
    adj = [[False] * g.n for _ in range(g.n)]
    for e in g.edges:
        adj[e.u][e.v] = adj[e.v][e.u] = True
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if adj[i][j] else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


def read_graph6(text: str) -> Multigraph:
    """Decode one graph6 line (optional '>>graph6<<' header tolerated)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :].strip()
    if not s:
        raise ValueError("empty graph6 string")
    n = ord(s[0]) - 63
    if n < 0:
        raise ValueError("malformed graph6 size byte")
    if n >= 63:
        raise ValueError("graph6 reader supports n <= 62 (single-byte size)")
    need = (n * (n - 1) // 2 + 5) // 6
    body = s[1:]
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {need}")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not (0 <= val < 64):
            raise ValueError("graph6 byte out of range")
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Multigraph(n, edges)


def read_graph6_file(text: str) -> list[Multigraph]:
    """One graph per non-empty line."""
    return [read_graph6(line) for line in text.splitlines() if line.strip()]


# -- edge-list codec ----------------------------------------------------------


def read_edge_list(text: str) -> Multigraph:
    """Parse the canonical multigraph format: header ``n m`` then m lines
    ``u v`` (0-indexed; ``u u`` is a loop, repeats are parallel edges).
    Lines starting with ``#`` are comments."""
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line)
    if not rows:
        raise ValueError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header line {rows[0]!r}, expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"bad header line {rows[0]!r}") from None
    if len(rows) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"bad edge line {line!r}") from None
        edges.append((u, v))
    return Multigraph(n, edges)


def write_edge_list(g: Multigraph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{e.u} {e.v}" for e in g.edges]
    return "\n".join(lines) + "\n"


def write_dot(g: Multigraph, name: str = "g") -> str:
    """Plain structural DOT dump (undirected)."""
    lines = [f"graph {name} {{"]
    lines += [f"  {v};" for v in range(g.n)]
    lines += [f"  {e.u} -- {e.v};" for e in g.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
