"""Immutable finite multigraph with loops and parallel edges.

Vertices are dense integer ids 0..n-1.  Edges carry stable ids 0..m-1 in
construction order, so certificates can reference them.  The degree of a
vertex counts edge-ends: a loop contributes 2.  The neighbourhood N(v) is a
set and contains v itself exactly when a loop is present at v.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class EdgeRecord:
    """One edge: unordered endpoints u, v; u == v encodes a loop."""

    id: int
    u: int
    v: int

    def is_loop(self) -> bool:
        return self.u == self.v

    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v)

    def key(self) -> tuple[int, int]:
        """Endpoint pair normalised as (min, max)."""
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)

    def other(self, w: int) -> int:
        """The endpoint opposite w (w itself for a loop)."""
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise ValueError(f"vertex {w} is not an endpoint of edge {self.id}")


class Multigraph:
    """Finite multigraph, immutable after construction.

    All query methods are pure; instances are safe to share between threads.
    """

    __slots__ = ("n", "edges", "_degree", "_plain", "_incident", "_loops")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        recs = []
        for i, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {i} endpoint out of range: ({u}, {v})")
            recs.append(EdgeRecord(i, u, v))
        self.n = n
        self.edges: tuple[EdgeRecord, ...] = tuple(recs)
        degree = [0] * n
        plain: list[set[int]] = [set() for _ in range(n)]
        incident: list[list[int]] = [[] for _ in range(n)]
        loops: list[list[int]] = [[] for _ in range(n)]
        for e in self.edges:
            if e.is_loop():
                degree[e.u] += 2
                incident[e.u].append(e.id)
                loops[e.u].append(e.id)
            else:
                degree[e.u] += 1
                degree[e.v] += 1
                plain[e.u].add(e.v)
                plain[e.v].add(e.u)
                incident[e.u].append(e.id)
                incident[e.v].append(e.id)
        self._degree = tuple(degree)
        self._plain = tuple(frozenset(s) for s in plain)
        self._incident = tuple(tuple(ids) for ids in incident)
        self._loops = tuple(tuple(ids) for ids in loops)

    # -- basic queries ----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        """Edge-end count at v; a loop counts twice."""
        return self._degree[v]

    def plain_neighbors(self, v: int) -> frozenset[int]:
        """Neighbours of v via non-loop edges (v itself never included)."""
        return self._plain[v]

    def neighborhood(self, v: int) -> frozenset[int]:
        """N(v); contains v itself iff a loop is present at v."""
        if self._loops[v]:
            return self._plain[v] | {v}
        return self._plain[v]

    def closed_neighborhood(self, xs: Iterable[int]) -> frozenset[int]:
        """N[X] = N(X) union X."""
        out = set(xs)
        for v in tuple(out):
            out |= self.neighborhood(v)
        return frozenset(out)

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """Ids of edges incident with v (loops included once)."""
        return self._incident[v]

    def loops_at(self, v: int) -> tuple[int, ...]:
        return self._loops[v]

    def edge_between(self, u: int, v: int) -> int | None:
        """Lowest edge id joining u and v (u != v), or None."""
        for eid in self._incident[u]:
            e = self.edges[eid]
            if not e.is_loop() and e.other(u) == v:
                return eid
        return None

    def is_simple(self) -> bool:
        """No loops and no parallel edges."""
        seen = set()
        for e in self.edges:
            if e.is_loop() or e.key() in seen:
                return False
            seen.add(e.key())
        return True

    # -- leaf / support vocabulary ----------------------------------------

    def leaves(self) -> frozenset[int]:
        return frozenset(v for v in range(self.n) if self._degree[v] == 1)

    def supports(self) -> frozenset[int]:
        lv = self.leaves()
        return frozenset(v for v in range(self.n) if self.neighborhood(v) & lv)

    def strong_supports(self) -> frozenset[int]:
        lv = self.leaves()
        return frozenset(
            v for v in range(self.n) if len(self.neighborhood(v) & lv) >= 2
        )

    def weak_supports(self) -> frozenset[int]:
        lv = self.leaves()
        return frozenset(
            v for v in range(self.n) if len(self.neighborhood(v) & lv) == 1
        )

    # -- edits (return new graphs; vertex ids are stable) ------------------

    def delete_edge(self, eid: int) -> tuple["Multigraph", dict[int, int]]:
        """Graph without edge eid, plus the old-id -> new-id map."""
        return self.delete_edges([eid])

    def delete_edges(self, eids: Iterable[int]) -> tuple["Multigraph", dict[int, int]]:
        """Graph without the given edges; remaining ids are compacted in order."""
        drop = set(eids)
        for eid in drop:
            if not (0 <= eid < self.m):
                raise ValueError(f"unknown edge id {eid}")
        kept = []
        id_map: dict[int, int] = {}
        for e in self.edges:
            if e.id in drop:
                continue
            id_map[e.id] = len(kept)
            kept.append((e.u, e.v))
        return Multigraph(self.n, kept), id_map

    def add_edges(self, pairs: Iterable[tuple[int, int]]) -> "Multigraph":
        """Graph with extra edges appended after the existing ones."""
        return Multigraph(self.n, [e.endpoints() for e in self.edges] + list(pairs))

    # -- connectivity ------------------------------------------------------

    def connected_components(self) -> list[frozenset[int]]:
        """Vertex sets of components, each sorted by smallest member."""
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            comp = {start}
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for w in self._plain[v]:
                    if not seen[w]:
                        seen[w] = True
                        comp.add(w)
                        queue.append(w)
            comps.append(frozenset(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    def distance(self, u: int, v: int) -> int | None:
        """BFS distance, or None if unreachable."""
        if u == v:
            return 0
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for w in self._plain[x]:
                if w not in dist:
                    dist[w] = dist[x] + 1
                    if w == v:
                        return dist[w]
                    queue.append(w)
        return None

    def bfs_order(self, start: int = 0) -> tuple[int, ...]:
        """All vertices in BFS order from start, then from the next unvisited id."""
        order = []
        seen = [False] * self.n
        for s in ([start] if self.n else []) + list(range(self.n)):
            if seen[s]:
                continue
            seen[s] = True
            queue = deque([s])
            while queue:
                v = queue.popleft()
                order.append(v)
                for w in sorted(self._plain[v]):
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
        return tuple(order)

    # -- equality: labeled graphs, edge ids ignored ------------------------

    def edge_multiset(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(e.key() for e in self.edges))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.n == other.n and self.edge_multiset() == other.edge_multiset()

    def __hash__(self) -> int:
        return hash((self.n, self.edge_multiset()))

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n}, m={self.m})"

    def __reduce__(self):
        return (Multigraph, (self.n, tuple(e.endpoints() for e in self.edges)))

    def __setattr__(self, name, value):
        if name in self.__slots__ and hasattr(self, "_loops"):
            raise AttributeError("Multigraph is immutable")
        object.__setattr__(self, name, value)


def is_path_graph(g: Multigraph) -> bool:
    """Connected, simple, degree sequence of a path (P1 allowed)."""
    if g.n == 0 or not g.is_simple() or not g.is_connected():
        return False
    if g.n == 1:
        return g.m == 0
    degs = sorted(g.degree(v) for v in range(g.n))
    return g.m == g.n - 1 and degs[0] == degs[1] == 1 and degs[-1] <= 2


def is_cycle_graph(g: Multigraph) -> bool:
    """Connected multigraph where every vertex has degree 2 (C1, C2 included)."""
    if g.n == 0 or not g.is_connected():
        return False
    return g.m == g.n and all(g.degree(v) == 2 for v in range(g.n))
