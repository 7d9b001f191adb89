"""Automorphisms and exact isomorphism dedup for small multigraphs
(individualization-refinement).

``_automorphisms(n, ends)`` finds automorphisms of the multigraph on
vertices 0..n-1 with edge list ends, from start colours the caller has
counted if it brings them, so the enumerations can skip augmentations
that an automorphism of the base maps onto earlier ones.
``_classes`` keeps one graph per isomorphism class, loops and edge
multiplicities included, and ``is_isomorphic`` compares two graphs.  Both
walk one search tree, built and searched as in nauty with first-path
pruning (McKay, *Practical Graph Isomorphism*, 1981; McKay & Piperno,
*Practical Graph Isomorphism II*, 2014):

- A vertex colouring is refined until it is equitable.  The start colours
  are (degree, loop count, triangles), where the triangles at v are the
  adjacent pairs among v's distinct non-loop neighbours.  Refinement
  cannot split a regular graph; this cell invariant splits one whose
  vertices lie on different numbers of triangles.  A refinement round
  gives each vertex its colour plus the multiset of colours at the far
  ends of its non-loop edges (a neighbour joined by k parallel edges
  counts k times).  New colours are the ranks of the sorted signatures,
  so the colouring never depends on vertex labels and each colour class
  stays an interval of the old order.
- While the colouring is not discrete, each vertex of the first smallest
  non-singleton cell is individualized (put first in its cell) in turn and
  the colouring is refined again.  This builds a search tree whose leaves
  are discrete colourings, that is, relabellings of the graph.
- A node's invariant is the hash of the quotient of its equitable
  colouring (each cell's colour with the colours around it).  The first
  leaf, reached by individualizing the first vertex of each target cell,
  fixes the reference: its trace (the invariants from the root down) and
  its form, the relabelled edge multiset (each edge becomes ``(min, max)``
  of its end colours, a loop becomes ``(c, c)`` and parallel edges
  repeat).  A child whose invariant differs from the first path's at its
  depth is cut: no automorphism maps the first path onto a path through
  it.
- A later leaf with the first leaf's form gives an automorphism.  It maps
  the first leaf's path onto the later one's, so the later subtree from
  where the paths split is skipped.  Children of a node that lie in one
  orbit of the automorphisms fixing the node's path are searched once.

The first leaf's form depends on the vertex labels, so it is not a
canonical form; the dedup uses it only as a goal that an isomorphic
graph's tree is known to reach.

The dedup is one add-or-match step, ``_Seen.add``: ``_classes``, the one
entry of the enumerators (``(n, ends)`` or ``(n, ends, start colours)``
candidates), runs it on each candidate, ``is_isomorphic`` on its two
graphs, and the cubic enumerator also on partial graphs.  It labels only
what collides, with a key of two levels.  Recorded graphs sit in buckets keyed
by the hash of the label-free start key: n, m and the sorted start
colours.  ``_colours`` counts them and ``_ranked`` turns them into the
colouring and the key; ``_start`` is the two in turn.  A graph grown
from a smaller class by one vertex (``catalog._grow``) brings its start
colours, derived from those ``_colours`` counts for its base rather
than recounted from its edges, and so does each partial graph and each
leaf of the cubic backtracker, from the triangle counts it keeps as it
joins; they are the colours ``_colours`` would count, so the key and
everything below are those of a recount.  A record keeps the graph's
ranked start colouring, n ranks, and then its edges flat, in one bytes
object (``_kept`` reads them back), so no graph's start colours are
counted twice.  A graph whose bucket is empty is recorded
with no refinement and no search.  Otherwise its start colouring is
refined, from the state that gave its start key, and its root key is
taken: the root invariant and the cell sizes.  Each recorded graph in
the bucket gets its root key once, when its bucket first holds a
collision, refined from the colouring its record kept (a graph recorded
into an occupied bucket keeps the root key it was just given), and only
those whose root key equals the new graph's
take part: each gets its goal, the trace and form of its first leaf,
once, by the first descent of its own tree alone, and ``_match`` walks
the new graph's tree without any pruning, following a child only while
some goal's trace has the child's invariant at its depth; a leaf whose
relabelled edge multiset is that goal's form is a match.  This is exact:

- (a) Isomorphic graphs have equal start keys and equal root keys,
  because the start colours and the refinement never read a vertex
  label.  So a recorded graph isomorphic to the new one is in its bucket
  and takes part.
- (b) A match is an explicit isomorphism: the leaf and the recorded
  graph's first leaf are discrete colourings of n vertices under which
  both edge multisets relabel to the same form.  So a shared invariant,
  or a hash collision between start keys, root keys or trace entries,
  costs time, never correctness.
- (c) If the new graph is isomorphic to a recorded graph R, by some phi,
  then phi maps R's tree onto the new graph's unpruned tree: the target
  cell and the refinements are label-free, so the image of R's first leaf
  path has R's invariant at every depth, ends at the same depth, and its
  leaf relabels the new graph to R's form.  So the walk reaches it.

Hence every class keeps its first candidate, whichever leaf a goal uses,
and the representatives, their edge order and the output order do not
depend on the search.  A Multigraph is built only for a representative.
Exact and dependency-free; fine at desk scale (n <= 14).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain

from .graph import Multigraph

Form = tuple[tuple[int, int], ...]


def _refine(
    color: list[int], cells: int, around: list[list[int]]
) -> tuple[list[int], int, int]:
    """Equitable refinement of a colouring given as cell ranks.

    Returns the refined colouring, its cell count and the hash of its
    quotient (the sorted distinct vertex signatures, each a colour followed
    by the sorted colours around it), which is a label-free invariant.
    """
    while True:
        at = color.__getitem__
        sig = [(c, *sorted(map(at, ends))) for c, ends in zip(color, around)]
        quotient = sorted(set(sig))
        if len(quotient) == cells:
            return color, cells, hash(tuple(quotient))
        rank = {s: i for i, s in enumerate(quotient)}
        color = list(map(rank.__getitem__, sig))
        cells = len(quotient)


def _individualize(color: list[int], v: int) -> list[int]:
    """Split v off as the first cell of its colour class."""
    cv = color[v]
    return [c + 1 if c > cv or (c == cv and w != v) else c for w, c in enumerate(color)]


def _target_cell(color: list[int]) -> list[int]:
    """Vertices of the first smallest cell with two or more members."""
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(color):
        cells.setdefault(c, []).append(v)
    return min(
        (cell for cell in cells.values() if len(cell) > 1),
        key=lambda cell: (len(cell), color[cell[0]]),
    )


def _relabel(ends: list[tuple[int, int]], color: list[int]) -> Form:
    out = []
    for u, v in ends:
        a, b = color[u], color[v]
        out.append((a, b) if a <= b else (b, a))
    out.sort()
    return tuple(out)


def _automorphism(src: list[int], dst: list[int]) -> list[int]:
    """The permutation taking each vertex coloured c in src to the vertex
    coloured c in dst (both colourings discrete)."""
    at = [0] * len(dst)
    for w, c in enumerate(dst):
        at[c] = w
    return [at[c] for c in src]


def _same_orbit(v: int, seen: list[int], autos: list[list[int]], path: tuple) -> bool:
    """Is v in the orbit of a vertex in seen under the automorphisms that
    fix every vertex of path?"""
    gens = [a for a in autos if all(a[p] == p for p in path)]
    orbit = {v}
    todo = [v]
    while todo:
        x = todo.pop()
        for a in gens:
            y = a[x]
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return any(u in orbit for u in seen)


class _Node:
    """A search-tree node and how far its children have been searched."""

    __slots__ = ("path", "color", "cells", "target", "next", "seen")

    def __init__(self, path: tuple, color: list[int], cells: int):
        self.path = path  # individualized vertices, root first
        self.color = color
        self.cells = cells
        self.target = _target_cell(color)
        self.next = 0  # index into target of the next child
        self.seen: list[int] = []  # children searched so far


def _common_prefix(a: tuple, b: tuple) -> int:
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return k


def _start(n: int, ends: Sequence[tuple[int, int]]) -> tuple[tuple, tuple]:
    """The start colouring of the multigraph on vertices 0..n-1 with edges
    ends, as (ends, colouring, cell count), and its label-free key: n, m
    and the sorted start colours."""
    return _ranked(n, ends, _colours(n, ends))


def _colours(n: int, ends: Sequence[tuple[int, int]]) -> list[tuple]:
    """The start colours of the multigraph on vertices 0..n-1 with edges
    ends: (degree, loop count, triangles) per vertex."""
    degree = [0] * n
    loops = [0] * n
    rows = [0] * n  # distinct non-loop neighbours as bitmasks
    for u, v in ends:
        degree[u] += 1
        degree[v] += 1
        if u == v:
            loops[u] += 1
        else:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    twice = [0] * n  # each triangle at v is seen from both of its edges at v
    for v, row in enumerate(rows):
        rest = row >> v + 1 << v + 1  # each distinct edge once, from its lower end
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            common = (rows[w] & row).bit_count()
            twice[v] += common
            twice[w] += common
            rest ^= low
    return [(d, c, t >> 1) for d, c, t in zip(degree, loops, twice)]


def _ranked(n: int, ends: Sequence[tuple[int, int]], start: list[tuple]) -> tuple[tuple, tuple]:
    """_start's result from the start colours start, one (degree, loop
    count, triangles) per vertex: the colouring ranks them, and the key
    is n, m and their sorted list."""
    rank = {s: i for i, s in enumerate(sorted(set(start)))}
    key = (n, len(ends), tuple(sorted(start)))
    return (ends, [rank[s] for s in start], len(rank)), key


def _refined(start: tuple) -> tuple[tuple, tuple]:
    """The refinement of a start colouring (_start's state) as the root
    state (around, colouring, cell count, invariant), where around[v]
    lists the far ends of v's non-loop edges, and its label-free key: the
    root invariant and the cell sizes in colour order."""
    ends, color, cells = start
    around: list[list[int]] = [[] for _ in color]
    for u, v in ends:
        if u != v:
            around[u].append(v)
            around[v].append(u)
    color, cells, inv = _refine(color, cells, around)
    sizes = [0] * cells
    for c in color:
        sizes[c] += 1
    return (around, color, cells, inv), (inv, tuple(sizes))


def _automorphisms(
    n: int, ends: Sequence[tuple[int, int]], colours: list[tuple] | None = None
) -> list[list[int]]:
    """Automorphisms of the multigraph on vertices 0..n-1 with edges ends
    that the first-path search finds (each a list a with a[v] the image of
    v).  They generate a subgroup of Aut, possibly all of it; none are
    found when the refined root colouring is discrete, as Aut is then
    trivial.  colours, if given, are the graph's start colours, as _colours
    would count them."""
    start = _start(n, ends) if colours is None else _ranked(n, ends, colours)
    around, color, cells, inv = _refined(start[0])[0]
    trace = [inv]  # trace[k] is the invariant of the first path's node at depth k
    if cells == n:
        return []

    first: tuple | None = None  # (form, path, colouring) of the first leaf
    autos: list[list[int]] = []
    stack = [_Node((), color, cells)]  # stack[k] is at depth k
    while stack:
        node = stack[-1]
        if node.next == len(node.target):
            stack.pop()
            continue
        v = node.target[node.next]
        node.next += 1
        if node.seen and _same_orbit(v, node.seen, autos, node.path):
            continue
        node.seen.append(v)
        child, child_cells, inv = _refine(
            _individualize(node.color, v), node.cells + 1, around
        )
        child_path = node.path + (v,)
        depth = len(child_path)
        if first is None:
            trace.append(inv)
        elif depth == len(trace) or inv != trace[depth]:
            continue  # (depth == len(trace) only after a hash collision)
        if child_cells < n:
            stack.append(_Node(child_path, child, child_cells))
            continue
        form = _relabel(ends, child)
        if first is None:
            first = (form, child_path, child)
        elif form == first[0]:
            autos.append(_automorphism(first[2], child))
            del stack[_common_prefix(first[1], child_path) + 1:]
    return autos


def _match(
    n: int, ends: Sequence[tuple[int, int]], root: tuple, goals: Sequence[tuple[list, Form]]
) -> int | None:
    """Index of a goal (trace, form) that a leaf of this graph's search tree
    reproduces, or None.  The tree is searched depth first with no pruning
    by automorphisms, and a child is followed only while some goal's trace
    has the child's invariant at the child's depth.  root is the root state
    of (n, ends), as _refined gives it."""
    around, color, cells, inv = root
    live = [i for i, (trace, _) in enumerate(goals) if trace[0] == inv]
    if not live:
        return None
    if cells == n:
        form = _relabel(ends, color)
        return next((i for i in live if len(goals[i][0]) == 1 and goals[i][1] == form), None)
    stack = [(color, cells, live, iter(_target_cell(color)))]  # stack[k] is at depth k
    while stack:
        color, cells, live, todo = stack[-1]
        v = next(todo, None)
        if v is None:
            stack.pop()
            continue
        depth = len(stack)
        child, child_cells, inv = _refine(_individualize(color, v), cells + 1, around)
        follow = [
            i for i in live if len(goals[i][0]) > depth and goals[i][0][depth] == inv
        ]
        if not follow:
            continue
        if child_cells < n:
            stack.append((child, child_cells, follow, iter(_target_cell(child))))
            continue
        form = _relabel(ends, child)
        for i in follow:
            if len(goals[i][0]) == depth + 1 and goals[i][1] == form:
                return i
    return None


def is_isomorphic(a: Multigraph, b: Multigraph) -> bool:
    """Exact multigraph isomorphism (loops and multiplicities respected):
    b is isomorphic to a exactly when the dedup, having recorded a, finds
    b a match."""
    seen = _Seen()
    seen.add(a.n, list(zip(a.us, a.vs)))
    return not seen.add(b.n, list(zip(b.us, b.vs)))


def _class_order(g: Multigraph) -> tuple:
    """Sort key of the classes: (n, m, sorted degrees, sorted edge codes),
    where the edge {u, v} with u <= v has the code u*n + v.

    It orders graphs exactly as (n, m, sorted degrees, edge_multiset())
    does, ties included.  The codes are compared only between graphs with
    equal n and m.  For a fixed n, (u, v) -> u*n + v is strictly increasing
    in the lexicographic order of the pairs with 0 <= u <= v < n, because
    v < n; so it maps the sorted pairs onto the sorted codes, and two
    equally long lists of codes compare as their pair lists do.  A code
    is one int, at most 255 for n <= 16 and so a cached small int, where
    a pair is a tuple: the keys of a sorted level take a fraction of the
    memory."""
    n = g.n
    return (
        n,
        g.m,
        tuple(sorted(map(g.degree, range(n)))),
        tuple(sorted(u * n + v if u <= v else v * n + u for u, v in zip(g.us, g.vs))),
    )


def _goal(ends: Sequence[tuple[int, int]], root: tuple) -> tuple[list, Form]:
    """The trace and form of the first leaf of the search tree of a graph
    with edges ends and root state root (as _refined gives it): the first
    descent alone, which individualizes the first vertex of each target
    cell, as the search's first path does."""
    around, color, cells, inv = root
    n = len(around)
    trace = [inv]
    while cells < n:
        color, cells, inv = _refine(
            _individualize(color, _target_cell(color)[0]), cells + 1, around
        )
        trace.append(inv)
    return trace, _relabel(ends, color)


def _kept(n: int, record: bytes | tuple) -> tuple:
    """The start state (ends, colouring, cell count) that a record of
    _Seen keeps: n colour ranks, then the edges flat, u0 v0 u1 v1 ...."""
    color = list(record[:n])
    flat = record[n:]
    return list(zip(flat[::2], flat[1::2])), color, len(set(color))


class _Seen:
    """Multigraphs recorded up to isomorphism: the add-or-match step of the
    dedup in the module docstring, kept open so that a generator can also
    ask it about partial objects as it meets them."""

    __slots__ = ("buckets",)

    def __init__(self) -> None:
        # hash of the start key -> [[n, start colouring and flat ends (as
        # _kept reads them), hash of the root key or None, goal or None], ...]
        self.buckets: dict[int, list[list]] = {}

    def add(
        self, n: int, ends: Sequence[tuple[int, int]], colours: list[tuple] | None = None
    ) -> bool:
        """Record (n, ends) and answer True, unless it is isomorphic to a
        graph recorded before: then answer False.  colours, if given, are
        the graph's start colours, as _colours would count them.  A record
        keeps the ranked start colouring and the edges flat, u0 v0 u1 v1
        ..., as one bytes object when every vertex id is below 256, and
        _kept reads them back only if a collision asks for the graph's
        root key or goal, so its start colours are never counted twice."""
        start, key = _start(n, ends) if colours is None else _ranked(n, ends, colours)
        bucket = self.buckets.setdefault(hash(key), [])
        root_key = None
        if bucket:
            root, key = _refined(start)
            root_key = hash(key)
            goals = []
            for entry in bucket:
                if entry[3] is None and entry[2] in (None, root_key):
                    # its root key is not known yet, or it takes part and
                    # has no goal yet
                    kept = _kept(entry[0], entry[1])
                    own, key = _refined(kept)
                    entry[2] = hash(key)
                    if entry[2] == root_key:
                        entry[3] = _goal(kept[0], own)
                if entry[2] == root_key:
                    goals.append(entry[3])
            if goals and _match(n, ends, root, goals) is not None:
                return False
        record = chain(start[1], chain.from_iterable(ends))
        bucket.append([n, bytes(record) if n <= 256 else tuple(record), root_key, None])
        return True


def _classes(candidates: Iterable[tuple]) -> list[Multigraph]:
    """One representative per isomorphism class, the first candidate seen
    of each, in a deterministic order sorted by (n, m, degree sequence,
    representative edge multiset).  Candidates are given as (n, edge list)
    or (n, edge list, start colours), the colours counted by the caller
    (``catalog._grow`` derives a grown graph's from its base's, the cubic
    backtracker a leaf's from its running counts): a Multigraph is built
    only for the first candidate seen of each class, with the edges in the
    order given."""
    seen = _Seen()
    reps = [Multigraph(n, ends) for n, ends, *colours in candidates if seen.add(n, ends, *colours)]
    del seen  # freed before the sort keys are built, so the two never peak together
    reps.sort(key=_class_order)
    return reps
