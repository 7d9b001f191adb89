"""Canonical forms for small multigraphs (individualization-refinement).

``canonical_form(g)`` is a tuple that two multigraphs with the same vertex
count share exactly when they are isomorphic, loops and edge
multiplicities included.  It follows McKay & Piperno, *Practical Graph
Isomorphism II* (2014):

- A vertex colouring is refined until it is equitable.  The start colours
  are (degree, loop count); a refinement round gives each vertex its colour
  plus the multiset of colours at the far ends of its non-loop edges (a
  neighbour joined by k parallel edges counts k times).  New colours are
  the ranks of the sorted signatures, so the colouring never depends on
  vertex labels and each colour class stays an interval of the old order.
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

Dedup of the enumerations keys candidates by ``(n, m, form)``.  Exact and
dependency-free; fine at desk scale (n <= 10).
"""

from __future__ import annotations

from .graph import Multigraph

Form = tuple[tuple[int, int], ...]


def _refine(
    color: list[int], cells: int, around: list[list[int]]
) -> tuple[list[int], int, tuple]:
    """Equitable refinement of a colouring given as cell ranks.

    Returns the refined colouring, its cell count and its quotient (the
    sorted distinct vertex signatures), which is a label-free invariant.
    """
    while True:
        sig = [
            (c, tuple(sorted([color[u] for u in ends])))
            for c, ends in zip(color, around)
        ]
        quotient = sorted(set(sig))
        if len(quotient) == cells:
            return color, cells, tuple(quotient)
        rank = {s: i for i, s in enumerate(quotient)}
        color = [rank[s] for s in sig]
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


def canonical_form(g: Multigraph) -> Form:
    """Relabelled edge multiset shared by exactly the graphs isomorphic to g
    (among graphs with g.n vertices)."""
    n = g.n
    ends = [(e.u, e.v) for e in g.edges]
    around: list[list[int]] = [[] for _ in range(n)]
    loops = [0] * n
    for u, v in ends:
        if u == v:
            loops[u] += 1
        else:
            around[u].append(v)
            around[v].append(u)
    start = [(g.degree(v), loops[v]) for v in range(n)]
    rank = {s: i for i, s in enumerate(sorted(set(start)))}
    color, cells, inv = _refine([rank[s] for s in start], len(rank), around)
    if cells == n:
        return _relabel(ends, color)

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
    return best[0]


def is_isomorphic(a: Multigraph, b: Multigraph) -> bool:
    """Exact multigraph isomorphism (loops and multiplicities respected)."""
    return a.n == b.n and a.m == b.m and canonical_form(a) == canonical_form(b)


def classes_by_isomorphism(candidates: list[Multigraph]) -> list[Multigraph]:
    """One representative per isomorphism class, the first candidate seen
    of each, in a deterministic order sorted by (n, m, degree sequence,
    representative edge multiset)."""
    reps: dict[tuple, Multigraph] = {}
    for g in candidates:
        reps.setdefault((g.n, g.m, canonical_form(g)), g)
    out = list(reps.values())
    out.sort(
        key=lambda g: (
            g.n,
            g.m,
            tuple(sorted(g.degree(v) for v in range(g.n))),
            g.edge_multiset(),
        )
    )
    return out
