"""2-subdivision graphs: construction with provenance labels, and inversion.

Every vertex of the product graph carries a tag telling where it came
from: ("old", h_vertex) for a non-leaf of the base, ("copy", h_leaf, i)
for the i-th copy of a base leaf (i in 1..alpha), or ("new", h_edge, side)
for a subdivision vertex.  Each base edge uv becomes the path u, u_e,
v_e, v; each loop at v becomes the triangle v, v_e1, v_e2.  The tags make
inversion checkable by looking up every gadget edge through them, never by
isomorphism testing.

Useful facts the inversion relies on (all consequences of the edge rules):
the product is always simple, its leaves are exactly the copy vertices,
old and copy vertices form an independent set, and the new vertices
induce a perfect matching (one pair per base edge).  So a shortest path
from a set of old-or-copy vertices that holds every leaf crosses whole
gadgets (old, new, new, old): a vertex is old-or-copy iff its distance
from such a set is a multiple of 3.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import chain

from .domination import DpPair
from .graph import MAX_EDGE_LIST_VERTICES, Multigraph, _Record

Tag = tuple  # ("old", v) | ("copy", leaf, i) | ("new", edge, side)


class S2Labeling(_Record):
    """Provenance of every product vertex over (base, alpha).

    Treat as immutable.  The lookup tables map base vertices and edges to
    vertex and edge ids of the graph labelled, build_s2's product or
    invert_s2's input; one builder fills them for both, in build_s2's
    layout.  Its constructor, _Record's, takes every field; none has a default.
    """

    __slots__ = (
        "base", "alpha", "provenance",
        "old_vertex", "copy_vertices", "new_vertex", "middle_edge", "attach_edges",
    )
    __match_args__ = __slots__
    base: Multigraph
    alpha: dict[int, int]
    provenance: tuple[Tag, ...]
    old_vertex: dict[int, int]
    copy_vertices: dict[int, tuple[int, ...]]
    new_vertex: dict[tuple[int, int], int]
    middle_edge: dict[int, int]
    attach_edges: dict[tuple[int, int], tuple[int, ...]]

    def old_part(self) -> frozenset[int]:
        """V^o: old vertices plus all leaf copies."""
        return frozenset(
            i for i, t in enumerate(self.provenance) if t[0] in ("old", "copy")
        )

    def new_part(self) -> frozenset[int]:
        """V^n: the subdivision vertices."""
        return frozenset(i for i, t in enumerate(self.provenance) if t[0] == "new")

    def vertex_of(self, tag: Tag) -> int:
        if tag[0] == "old":
            return self.old_vertex[tag[1]]
        if tag[0] == "copy":
            return self.copy_vertices[tag[1]][tag[2] - 1]
        if tag[0] == "new":
            return self.new_vertex[(tag[1], tag[2])]
        raise ValueError(f"unknown tag {tag!r}")


def _complete_alpha(h: Multigraph, alpha: dict[int, int] | None) -> dict[int, int]:
    leaves = h.leaves()
    full = {v: 1 for v in sorted(leaves)}
    if alpha:
        for v, a in alpha.items():
            if v not in leaves:
                raise ValueError(f"alpha key {v} is not a leaf of the base graph")
            if a < 1:
                raise ValueError(f"alpha value for leaf {v} must be >= 1")
            full[v] = a
    return full


def _s2_order(h: Multigraph, alpha: dict[int, int]) -> int:
    """The vertex count of S2(h, alpha) for a complete alpha: the
    non-leaves, every leaf's copies and two new vertices per edge.  Above
    MAX_EDGE_LIST_VERTICES, the most an edge-list input may declare, it
    raises ValueError, so nothing that large is built."""
    order = h.n - len(alpha) + sum(alpha.values()) + 2 * h.m
    if order > MAX_EDGE_LIST_VERTICES:
        raise ValueError(
            f"the 2-subdivision would have {order} vertices, over the limit "
            f"of {MAX_EDGE_LIST_VERTICES}"
        )
    return order


def _labeling(
    h: Multigraph,
    alpha: dict[int, int],
    tags: list[Tag],
    edge_id: Callable[[int, int], int | None],
) -> S2Labeling:
    """The labeling of S2(h, alpha) whose vertex i carries tags[i].

    alpha is complete, so its keys are the leaves of h.  edge_id(a, b) is
    called once per gadget edge, in build_s2's edge order, and names the
    edge between vertices a and b.
    """
    index = {t: i for i, t in enumerate(tags)}
    old_vertex = {v: index[("old", v)] for v in range(h.n) if v not in alpha}
    copy_vertices = {
        v: tuple(index[("copy", v, i)] for i in range(1, a + 1))
        for v, a in alpha.items()
    }
    new_vertex = {(eid, s): index[("new", eid, s)] for eid in range(h.m) for s in (1, 2)}
    reps = [copy_vertices.get(v) or (old_vertex[v],) for v in range(h.n)]
    middle_edge: dict[int, int] = {}
    attach_edges: dict[tuple[int, int], tuple[int, ...]] = {}
    for eid, (u, v) in enumerate(zip(h.us, h.vs)):
        n1, n2 = new_vertex[(eid, 1)], new_vertex[(eid, 2)]
        middle_edge[eid] = edge_id(n1, n2)
        attach_edges[(eid, 1)] = tuple([edge_id(r, n1) for r in reps[u]])
        attach_edges[(eid, 2)] = tuple([edge_id(r, n2) for r in reps[v]])
    return S2Labeling(
        base=h,
        alpha=alpha,
        provenance=tuple(tags),
        old_vertex=old_vertex,
        copy_vertices=copy_vertices,
        new_vertex=new_vertex,
        middle_edge=middle_edge,
        attach_edges=attach_edges,
    )


def build_s2(
    h: Multigraph, alpha: dict[int, int] | None = None
) -> tuple[Multigraph, S2Labeling]:
    """The 2-subdivision graph of h with leaf multiplicities alpha.

    Vertex layout: non-leaves of h ascending, then copies of each leaf
    ascending, then the two new vertices of each edge in id order.  Edge
    layout per base edge: the middle edge, then side-1 attachments, then
    side-2 attachments (side 1 belongs to the stored first endpoint).
    """
    if any(h.degree(v) == 0 for v in range(h.n)):
        raise ValueError("base graph must have no isolated vertex")
    alpha_full = _complete_alpha(h, alpha)
    _s2_order(h, alpha_full)

    tags: list[Tag] = [("old", v) for v in range(h.n) if v not in alpha_full]
    for v, a in alpha_full.items():
        tags.extend(("copy", v, i) for i in range(1, a + 1))
    for eid in range(h.m):
        tags.append(("new", eid, 1))
        tags.append(("new", eid, 2))

    edges: list[tuple[int, int]] = []

    def append_edge(a: int, b: int) -> int:
        edges.append((a, b))
        return len(edges) - 1

    lab = _labeling(h, alpha_full, tags, append_edge)
    return Multigraph(len(tags), edges), lab


def canonical_dp_pair(lab: S2Labeling) -> DpPair:
    """(V^o, V^n) with the per-edge middle matching; a DP-pair by
    construction on any base without isolated vertices."""
    matching = tuple(lab.middle_edge[eid] for eid in range(lab.base.m))
    return DpPair(lab.old_part(), lab.new_part(), matching)


# -- inversion ----------------------------------------------------------------


def invert_s2(
    g: Multigraph,
) -> tuple[Multigraph, dict[int, int], S2Labeling] | None:
    """Recover (base, alpha, labeling) with build_s2(base, alpha) equal to g
    vertex-for-vertex under the labeling, or None if g is no 2-subdivision.

    Colouring by distance, no search.  In S2(base, alpha) a new vertex has
    exactly one new neighbour, its mate, and its other neighbours are one
    old vertex or the copies of one leaf; an old or copy vertex has new
    neighbours only.  The lemma: given sources that are old-or-copy and
    include every leaf, a vertex is old-or-copy iff its distance from the
    sources is a multiple of 3.  Along a shortest path from a source the
    colours run old, new, new, old, ...: an old-or-copy vertex is followed
    by a new one; a new vertex entered from old-or-copy is followed by its
    mate, since its other old-or-copy neighbours are copies of the same
    leaf, sources at distance 0; a new vertex entered from its mate is
    followed by old-or-copy.  So a new vertex is 1 or 2 steps past the last
    old-or-copy one.  Every leaf must be a source: two copies of one leaf
    are 2 apart through their new vertex.  A loop gadget, the triangle v,
    v_e1, v_e2, cannot break the count: both new vertices are 1 step past v,
    and a shortest path that enters the triangle ends there, since it never
    returns to v.  Parallel base edges close cycles u, u_e, v_e, v, v_f, u_f
    in g, but a shortest path from the sources still crosses whole gadgets
    (old, new, new, old), whichever of them it takes.

    The sources are every leaf and every vertex of degree >= 3 with no leaf
    neighbour (a new vertex has degree 2, or 1 plus its leaf group), all at
    distance 0 in one breadth-first search.  A component it leaves
    unreached has no source, so it is 2-regular, a cycle C_{3k}; each gets
    its own search from its lowest vertex, which is made old, so rotations
    of C_{3k} resolve to the lexicographically least tagging.  One local
    check follows: a new vertex has exactly one new neighbour, an
    old-or-copy vertex no old-or-copy one.  The colouring gives base and
    alpha directly; after a degree check (a new vertex has degree 2, or 1
    plus the size of its leaf group) it is accepted iff every gadget edge
    of build_s2(base, alpha), named through the tags, is an edge of g and
    g has no other.  The labeling returned is built by the same builder as
    build_s2's, from g's own vertex and edge ids.
    """
    n = g.n
    nbrs = [tuple(g.plain_neighbors(v)) for v in range(n)]
    if not g.is_simple() or not all(nbrs):  # g simple: an isolated vertex has none
        return None

    leaves = g.leaves()
    seeds = [
        v for v in range(n)
        if v in leaves or (len(nbrs[v]) >= 3 and leaves.isdisjoint(nbrs[v]))
    ]
    dist = [-1] * n
    # the seeds first, then the lowest vertex still unreached, one at a time:
    # the generator is read only once the previous search has ended
    for queue in chain([seeds], ([v] for v in range(n) if dist[v] < 0)):
        for v in queue:
            dist[v] = 0
        for x in queue:  # breadth-first: the list grows as it is read
            for u in nbrs[x]:
                if dist[u] < 0:
                    dist[u] = dist[x] + 1
                    queue.append(u)
    old = [d % 3 == 0 for d in dist]
    # the local check: a new vertex has one new neighbour, its mate, and an
    # old-or-copy vertex has no old-or-copy neighbour
    mates = [[u for u in nbrs[v] if old[u] == old[v]] for v in range(n)]
    if any(len(mates[v]) != (not old[v]) for v in range(n)):
        return None

    # The leaves are the copies, grouped by their new neighbour; the other
    # old-or-copy vertices are old.
    tags: list[Tag] = [()] * n
    h_of: dict[int, int] = {}  # old vertex or a group's new vertex -> base vertex
    groups: dict[int, list[int]] = {}
    for v in range(n):
        if old[v] and g.degree(v) > 1:
            h_of[v] = len(h_of)
            tags[v] = ("old", h_of[v])
        elif old[v]:
            groups.setdefault(nbrs[v][0], []).append(v)
    for s in sorted(groups):
        h_of[s] = len(h_of)
        for i, v in enumerate(groups[s], start=1):
            tags[v] = ("copy", h_of[s], i)

    pairs: list[tuple[int, int]] = []  # (side-1, side-2) new vertices per base edge
    end: dict[int, int] = {}  # new vertex -> base endpoint of its side
    for x in range(n):
        if old[x]:
            continue
        (mate,) = mates[x]
        if x < mate:
            tags[x], tags[mate] = ("new", len(pairs), 1), ("new", len(pairs), 2)
            pairs.append((x, mate))
        group = groups.get(x)
        # the cheap degree check: 2, or 1 + the size of x's leaf group
        if g.degree(x) != (1 + len(group) if group else 2):
            return None
        end[x] = h_of[x if group else next(u for u in nbrs[x] if u != mate)]

    base = Multigraph(len(h_of), [(end[x], end[y]) for x, y in pairs])
    alpha = _complete_alpha(base, {h_of[s]: len(c) for s, c in groups.items()})

    # the acceptance test: every gadget edge of S2(base, alpha) is an edge
    # of g through the tags, and g has no other edge (g is simple, so an
    # endpoint pair names its edge).  The local and degree checks already
    # imply it; it re-verifies the result, as every positive verdict here
    # is re-verified.
    unused = {
        (a, b) if a < b else (b, a): eid for eid, (a, b) in enumerate(zip(g.us, g.vs))
    }
    missed: list[tuple[int, int]] = []

    def edge_id(a: int, b: int) -> int | None:
        eid = unused.pop((a, b) if a < b else (b, a), None)
        if eid is None:
            missed.append((a, b))
        return eid

    lab = _labeling(base, alpha, tags, edge_id)
    return None if missed or unused else (base, alpha, lab)


def is_2_subdivision(g: Multigraph) -> bool:
    """True iff g is the 2-subdivision graph of some base graph."""
    return invert_s2(g) is not None
