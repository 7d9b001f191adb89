"""Immutable finite multigraph with loops and parallel edges, and its file codecs.

Vertices are dense integer ids 0..n-1.  Edges carry stable ids 0..m-1 in
construction order, so certificates can reference them.  The degree of a
vertex counts edge-ends: a loop contributes 2.  The neighbourhood N(v) is a
set and contains v itself exactly when a loop is present at v.

Storage is flat: edge i joins us[i] and vs[i], two int tuples, beside
the degree tuple; no object is built per edge or per vertex.  The
adjacency index (each vertex's plain neighbours and incident edge ids,
and the looped vertices) is built on first use, so a graph that is only
stored, compared or written, as most enumerated classes are, never pays
for it.  Every reader in the package reads us and vs.  edges, one
EdgeRecord per edge, is a view built on each access and never kept; its
one reader is the benchmark's output gate (perfbench/worker.py), and the
class and the view go once that gate reads us and vs.

Codecs: graph6 (simple graphs, single-byte size, n <= 62) and the plain
edge-list text format, the only lossless multigraph interchange here,
plus a DOT writer.  They live here, with the graph they build, so a
command that only reads and writes graphs loads no enumerator.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

#: the most vertices a graph built from outside input may have: the largest
#: count an edge-list header may declare, and the largest 2-subdivision
#: build_s2 makes; building a Multigraph takes 16 bytes per vertex plus 32
#: per edge, and its adjacency index, which every engine builds, lifts the
#: tracemalloc peak to about 530 bytes per vertex with no edges and 660 on
#: a path, so one input stays under 0.7 GB
MAX_EDGE_LIST_VERTICES = 1_000_000


class _Record:
    """Base of the package's value classes, which are written out by hand
    so that no module imports the dataclasses machinery.  A subclass lists
    its fields, in order, as __slots__, and gets from here a dataclass's
    constructor (each field once, by position or keyword, else TypeError),
    field-wise equality and repr; it is unhashable, as a mutable dataclass
    is, unless it defines __hash__."""

    __slots__ = ()
    __hash__ = None

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:  # the fields after the positional ones, in order
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if kwargs or len(args) != len(names):  # a field unknown, repeated, missing or surplus
            fields = ", ".join(names)
            raise TypeError(f"{self.__class__.__name__}() takes the fields {fields}, each once")
        for name, value in zip(names, args):  # past a frozen subclass's __setattr__
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class _FrozenRecord(_Record):
    """A _Record that is immutable like a frozen dataclass: hashable by its
    fields, and pickled through its constructor."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return (self.__class__, self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable")


class EdgeRecord(_FrozenRecord):
    """One edge as a frozen (id, u, v) value; u == v encodes a loop.

    Only Multigraph.edges builds it, for the benchmark's output gate
    (perfbench/worker.py), its one reader; both go once that gate reads
    us and vs."""

    __slots__ = ("id", "u", "v")
    __match_args__ = __slots__
    id: int
    u: int
    v: int


class Multigraph:
    """Finite multigraph, immutable after construction.

    us[i] and vs[i] are the endpoints of edge i, in the order given.  All
    query methods are pure.  plain_neighbors, neighborhood, incident_edges,
    is_simple and connected_components read the adjacency index, which the
    first of them to run builds and publishes in one assignment; so
    instances are safe to share between threads.
    """

    __slots__ = ("n", "us", "vs", "_degree", "_adj")
    n: int
    us: tuple[int, ...]
    vs: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        us: list[int] = []
        vs: list[int] = []
        degree = [0] * n
        for i, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {i} endpoint out of range: ({u}, {v})")
            us.append(u)
            vs.append(v)
            degree[u] += 1
            degree[v] += 1
        # __setattr__ refuses every assignment, so the slots are set past it
        put = object.__setattr__
        put(self, "n", n)
        put(self, "us", tuple(us))
        put(self, "vs", tuple(vs))
        put(self, "_degree", tuple(degree))
        put(self, "_adj", None)

    def _index(self) -> tuple:
        """The adjacency index (plain, incident, looped): per vertex its
        non-loop neighbours as a frozenset and its incident edge ids as a
        tuple, and the looped vertices as a frozenset.  Built on first use
        and published in one assignment, so a concurrent reader sees either
        no index or a complete one; two threads may both build it, and
        they build equal ones."""
        n = self.n
        plain: list[set[int]] = [set() for _ in range(n)]
        incident: list[list[int]] = [[] for _ in range(n)]
        looped: set[int] = set()
        for i, (u, v) in enumerate(zip(self.us, self.vs)):
            incident[u].append(i)
            if u == v:
                looped.add(u)
            else:
                plain[u].add(v)
                plain[v].add(u)
                incident[v].append(i)
        adj = (tuple(map(frozenset, plain)), tuple(map(tuple, incident)), frozenset(looped))
        object.__setattr__(self, "_adj", adj)
        return adj

    # -- basic queries ----------------------------------------------------

    @property
    def edges(self) -> tuple[EdgeRecord, ...]:
        """One EdgeRecord per edge, in id order: a view of us and vs,
        built afresh on each access and not kept.  The benchmark's output
        gate (perfbench/worker.py) is its one reader; it goes with
        EdgeRecord once that gate reads us and vs."""
        return tuple(map(EdgeRecord, range(self.m), self.us, self.vs))

    @property
    def m(self) -> int:
        return len(self.us)

    def degree(self, v: int) -> int:
        """Edge-end count at v; a loop counts twice."""
        return self._degree[v]

    def plain_neighbors(self, v: int) -> frozenset[int]:
        """Neighbours of v via non-loop edges (v itself never included)."""
        return (self._adj or self._index())[0][v]

    def neighborhood(self, v: int) -> frozenset[int]:
        """N(v); contains v itself iff a loop is present at v."""
        plain, _, looped = self._adj or self._index()
        if v in looped:
            return plain[v] | {v}
        return plain[v]

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """Ids of edges incident with v (loops included once)."""
        return (self._adj or self._index())[1][v]

    def is_simple(self) -> bool:
        """No loops and no parallel edges: every non-loop edge adds a
        neighbour at each end."""
        plain, _, looped = self._adj or self._index()
        return not looped and sum(map(len, plain)) == 2 * self.m

    # -- leaf / support vocabulary ----------------------------------------

    def leaves(self) -> frozenset[int]:
        return frozenset(v for v in range(self.n) if self._degree[v] == 1)

    def supports(self) -> frozenset[int]:
        """The vertices adjacent to a leaf: the far end of each leaf's one
        edge (a loop adds 2 to the degree, so that edge is never a loop),
        in one pass over the edges."""
        degree = self._degree
        out = set()
        for u, v in zip(self.us, self.vs):
            if degree[u] == 1:
                out.add(v)
            if degree[v] == 1:
                out.add(u)
        return frozenset(out)

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
        kept = [eid for eid in range(self.m) if eid not in drop]
        us, vs = self.us, self.vs
        rest = Multigraph(self.n, [(us[eid], vs[eid]) for eid in kept])
        return rest, {eid: i for i, eid in enumerate(kept)}

    # -- connectivity ------------------------------------------------------

    def connected_components(self) -> list[frozenset[int]]:
        """Vertex sets of components, each sorted by smallest member."""
        plain = (self._adj or self._index())[0]
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
                for w in plain[v]:
                    if not seen[w]:
                        seen[w] = True
                        comp.add(w)
                        queue.append(w)
            comps.append(frozenset(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    # -- equality: labeled graphs, edge ids ignored ------------------------

    def edge_multiset(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(
            (u, v) if u <= v else (v, u) for u, v in zip(self.us, self.vs)
        ))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.n == other.n and self.edge_multiset() == other.edge_multiset()

    def __hash__(self) -> int:
        return hash((self.n, self.edge_multiset()))

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n}, m={self.m})"

    def __reduce__(self):
        return (Multigraph, (self.n, tuple(zip(self.us, self.vs))))

    def __setattr__(self, name, value):
        raise AttributeError("Multigraph is immutable")


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


# -- graph6 codec -------------------------------------------------------------


def write_graph6(g: Multigraph) -> str:
    """Encode a simple graph: size byte n+63, then the upper triangle in
    column order packed big-endian into 6-bit groups, each offset by 63."""
    if not g.is_simple():
        raise ValueError("graph6 encodes simple graphs only")
    if g.n > 62:
        raise ValueError("graph6 writer supports n <= 62")
    adj = [[False] * g.n for _ in range(g.n)]
    for u, v in zip(g.us, g.vs):
        adj[u][v] = adj[v][u] = True
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
    rows = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    if not rows:
        raise ValueError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header line {rows[0]!r}, expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"bad header line {rows[0]!r}") from None
    if n > MAX_EDGE_LIST_VERTICES:
        raise ValueError(f"{n} vertices exceed the limit of {MAX_EDGE_LIST_VERTICES}")
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
    lines += [f"{u} {v}" for u, v in zip(g.us, g.vs)]
    return "\n".join(lines) + "\n"


def write_dot(g: Multigraph) -> str:
    """Plain structural DOT dump (undirected) of a graph named g."""
    lines = ["graph g {"]
    lines += [f"  {v};" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in zip(g.us, g.vs)]
    lines.append("}")
    return "\n".join(lines) + "\n"
