"""Canonical forms for small multigraphs (individualization-refinement).

``canonical_form(g)`` is a tuple that two multigraphs with the same vertex
count share exactly when they are isomorphic, loops and edge
multiplicities included.  It follows McKay & Piperno, *Practical Graph
Isomorphism II* (2014):

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
- A node's invariant is the quotient of its equitable colouring (each
  cell's colour with the colours around it).  The form is taken from the
  leaf with the least sequence of invariants along its path, ties broken
  by the least relabelled edge multiset: each edge becomes
  ``(min, max)`` of its end colours, a loop becomes ``(c, c)`` and
  parallel edges repeat.  A subtree whose invariant sequence is already
  larger than the best leaf's is cut.
- Two leaves with the same edge multiset give an automorphism.  It maps
  the earlier leaf's path onto the later one's, so the later subtree from
  where the paths split is skipped.  Children of a node that lie in one
  orbit of the automorphisms fixing the node's path are searched once.

``_form(n, ends)`` works on a plain edge list and returns the automorphisms
found along with the form, so the enumerations can skip augmentations
that an automorphism of the base maps onto earlier ones.  It is ``_root``
(start colours and the refined root colouring) followed by ``_search``
(the tree search above), which also returns the trace of the best leaf:
its invariants from the root down.

The dedup (``_classes`` for plain ``(n, ends)`` candidates, and
``classes_by_isomorphism``) labels a candidate only when it collides with
a representative.  Representatives sit in buckets keyed by the hash of the
label-free root key: n, m, the sorted start colours, the root quotient
and the cell sizes.  A candidate whose bucket is empty becomes a
representative without any search.  Otherwise each representative in the
bucket gets its (trace, form), once, by a search from its own edges, and
``_match`` walks the candidate's tree without any pruning, following a
child only while some representative's trace has the child's invariant at
its depth; a leaf whose relabelled edge multiset is that representative's
form is a match.  This is exact:

- (a) Isomorphic candidates have equal root keys, because the start colours
  and the refinement never read a vertex label.
- (b) A match is an explicit isomorphism: the leaf and the representative's
  best leaf are discrete colourings of n vertices (a trace that ends at the
  leaf's depth has n cells there) under which both edge multisets
  relabel to the same form.  So a hash collision or a shared invariant
  costs time, never correctness.
- (c) If the candidate is isomorphic to a representative R, by some phi,
  then phi maps R's tree onto the candidate's unpruned tree: the target
  cell and the refinements are label-free, so the image of R's best leaf
  path has R's invariant at every depth and its leaf relabels the
  candidate to R's form.  Equal quotients have equal cell counts, so R's
  trace never runs out before that path ends, and the walk reaches it.

Hence every class keeps its first candidate, and the representatives,
their edge order and the output order are those of keying each candidate
by its canonical form.  A Multigraph is built only for a representative.
Exact and dependency-free; fine at desk scale (n <= 10).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graph import Multigraph

Form = tuple[tuple[int, int], ...]


def _refine(
    color: list[int], cells: int, around: list[list[int]]
) -> tuple[list[int], int, tuple]:
    """Equitable refinement of a colouring given as cell ranks.

    Returns the refined colouring, its cell count and its quotient (the
    sorted distinct vertex signatures, each a colour followed by the sorted
    colours around it), which is a label-free invariant.
    """
    while True:
        at = color.__getitem__
        sig = [(c, *sorted(map(at, ends))) for c, ends in zip(color, around)]
        quotient = sorted(set(sig))
        if len(quotient) == cells:
            return color, cells, tuple(quotient)
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
    if not gens:
        return False
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

    __slots__ = ("path", "color", "cells", "target", "next", "seen", "below")

    def __init__(self, path: tuple, color: list[int], cells: int, below: bool):
        self.path = path  # individualized vertices, root first
        self.color = color
        self.cells = cells
        self.target = _target_cell(color)
        self.next = 0  # index into target of the next child
        self.seen: list[int] = []  # children searched so far
        self.below = below  # invariants down to here are less than the best leaf's


def _common_prefix(a: tuple, b: tuple) -> int:
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return k


def _root(n: int, ends: Sequence[tuple[int, int]]) -> tuple[tuple, tuple]:
    """The refined root colouring of the multigraph on vertices 0..n-1 with
    edges ends, as (around, colouring, cell count, quotient), and its
    label-free key: n, m, the sorted start colours, the root quotient and
    the cell sizes in colour order."""
    around: list[list[int]] = [[] for _ in range(n)]
    loops = [0] * n
    rows = [0] * n  # distinct non-loop neighbours as bitmasks
    for u, v in ends:
        if u == v:
            loops[u] += 1
        else:
            around[u].append(v)
            around[v].append(u)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    start = []
    for v, row in enumerate(rows):
        twice = 0  # each triangle at v is seen from both of its other ends
        rest = row
        while rest:
            low = rest & -rest
            twice += (rows[low.bit_length() - 1] & row).bit_count()
            rest ^= low
        start.append((len(around[v]) + 2 * loops[v], loops[v], twice >> 1))
    rank = {s: i for i, s in enumerate(sorted(set(start)))}
    color, cells, inv = _refine([rank[s] for s in start], len(rank), around)
    sizes = [0] * cells
    for c in color:
        sizes[c] += 1
    key = (n, len(ends), tuple(sorted(start)), inv, tuple(sizes))
    return (around, color, cells, inv), key


def _search(
    n: int, ends: Sequence[tuple[int, int]], root: tuple
) -> tuple[Form, list[list[int]], list[tuple]]:
    """The canonical form, the automorphisms found on the way and the trace
    (the invariants from the root down) of the best leaf, searched from the
    root state that _root returned for the same (n, ends)."""
    around, color, cells, inv = root
    if cells == n:
        return _relabel(ends, color), [], [inv]

    first: tuple | None = None  # (form, path, colouring) of the first leaf
    best: tuple | None = None  # the same for the best leaf so far
    best_trace: list = []
    autos: list[list[int]] = []
    stack = [_Node((), color, cells, False)]  # stack[k] is at depth k
    trace = [inv]  # trace[k] is the invariant of stack[k]
    while stack:
        node = stack[-1]
        if node.next == len(node.target):
            stack.pop()
            trace.pop()
            continue
        v = node.target[node.next]
        node.next += 1
        if node.seen and _same_orbit(v, node.seen, autos, node.path):
            continue
        node.seen.append(v)
        child, child_cells, inv = _refine(
            _individualize(node.color, v), node.cells + 1, around
        )
        depth = len(node.path) + 1
        below = node.below
        if best is not None and not below:
            if inv > best_trace[depth]:
                continue
            below = inv < best_trace[depth]
        child_path = node.path + (v,)
        if child_cells < n:
            stack.append(_Node(child_path, child, child_cells, below))
            trace.append(inv)
            continue
        form = _relabel(ends, child)
        if first is None:
            first = best = (form, child_path, child)
            best_trace = trace + [inv]
            continue
        if form == first[0]:
            match = first
        elif below or form < best[0]:
            best = (form, child_path, child)
            best_trace = trace + [inv]
            for ancestor in stack:
                ancestor.below = False
            continue
        elif form == best[0]:
            match = best
        else:
            continue
        autos.append(_automorphism(match[2], child))
        keep = _common_prefix(match[1], child_path) + 1
        del stack[keep:]
        del trace[keep:]
    return best[0], autos, best_trace


def _form(n: int, ends: Sequence[tuple[int, int]]) -> tuple[Form, list[list[int]]]:
    """Canonical form of the multigraph on vertices 0..n-1 with edges ends,
    and the automorphisms the search found on the way (each a list a with
    a[v] the image of v).  They generate a subgroup of Aut, possibly all of
    it; none are found when the refined root colouring is discrete, as Aut
    is then trivial."""
    form, autos, _ = _search(n, ends, _root(n, ends)[0])
    return form, autos


def _match(
    n: int, ends: Sequence[tuple[int, int]], root: tuple, goals: Sequence[tuple[list, Form]]
) -> int | None:
    """Index of a goal (trace, form) that a leaf of this graph's search tree
    reproduces, or None.  The tree is searched depth first with no pruning
    by automorphisms, and a child is followed only while some goal's trace
    has the child's invariant at the child's depth.  root is _root's state
    for (n, ends)."""
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


def canonical_form(g: Multigraph) -> Form:
    """Relabelled edge multiset shared by exactly the graphs isomorphic to g
    (among graphs with g.n vertices)."""
    return _form(g.n, list(zip(g.us, g.vs)))[0]


def is_isomorphic(a: Multigraph, b: Multigraph) -> bool:
    """Exact multigraph isomorphism (loops and multiplicities respected)."""
    a_ends, b_ends = list(zip(a.us, a.vs)), list(zip(b.us, b.vs))
    a_root, a_key = _root(a.n, a_ends)
    b_root, b_key = _root(b.n, b_ends)
    if a_key != b_key:
        return False
    form, _, trace = _search(a.n, a_ends, a_root)
    return _match(b.n, b_ends, b_root, [(trace, form)]) == 0


def _class_order(g: Multigraph) -> tuple:
    return (
        g.n,
        g.m,
        tuple(sorted(g.degree(v) for v in range(g.n))),
        g.edge_multiset(),
    )


def _goal(g: Multigraph) -> tuple[list, Form]:
    """The trace and canonical form of a representative's best leaf."""
    ends = list(zip(g.us, g.vs))
    form, _, trace = _search(g.n, ends, _root(g.n, ends)[0])
    return trace, form


def _dedup(
    candidates: Iterable[tuple[int, Sequence[tuple[int, int]], Multigraph | None]]
) -> list[Multigraph]:
    """The first candidate seen of each class, sorted by _class_order; a
    candidate (n, ends, g) is kept as g, or as Multigraph(n, ends) when g
    is None.  See the module docstring for why this is exact."""
    buckets: dict[int, list[list]] = {}  # hash of the root key -> [[rep, goal], ...]
    reps = []
    for n, ends, g in candidates:
        root, key = _root(n, ends)
        bucket = buckets.setdefault(hash(key), [])
        if bucket:
            for entry in bucket:
                if entry[1] is None:
                    entry[1] = _goal(entry[0])
            if _match(n, ends, root, [goal for _, goal in bucket]) is not None:
                continue
        g = Multigraph(n, ends) if g is None else g
        bucket.append([g, None])
        reps.append(g)
    reps.sort(key=_class_order)
    return reps


def classes_by_isomorphism(candidates: list[Multigraph]) -> list[Multigraph]:
    """One representative per isomorphism class, the first candidate seen
    of each, in a deterministic order sorted by (n, m, degree sequence,
    representative edge multiset)."""
    return _dedup((g.n, list(zip(g.us, g.vs)), g) for g in candidates)


def _classes(candidates: Iterable[tuple[int, Sequence[tuple[int, int]]]]) -> list[Multigraph]:
    """classes_by_isomorphism for candidates given as (n, edge list) pairs:
    a Multigraph is built only for the first candidate seen of each class,
    with the edges in the order given."""
    return _dedup((n, ends, None) for n, ends in candidates)
