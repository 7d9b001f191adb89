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

The two bridges between a base's good subgraphs and DP-pairs of its
2-subdivision live here too, since both read the gadget layout:
reduce_via_good_subgraph turns a certificate into a proper spanning
subgraph with a verifying DP-pair, whose P it builds and whose D is the
rest, and _read_certificate reads a certificate off the D of a DP-pair.
So this module loads goodsub, and goodsub loads no other engine.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import chain

from .domination import DpPair, dp_pair_problem, has_perfect_matching_on, is_dp_pair
from .goodsub import GoodSubgraphCertificate, _search_paths, verify_good_certificate
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
        """The vertex that carries tag; ValueError for a tag no vertex carries."""
        try:
            return self.provenance.index(tag)
        except ValueError:
            raise ValueError(f"unknown tag {tag!r}") from None


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


# -- good subgraphs in the 2-subdivision ---------------------------------------


def reduce_via_good_subgraph(
    h: Multigraph, alpha: dict[int, int] | None, cert: GoodSubgraphCertificate
) -> tuple[frozenset[int], DpPair]:
    """Materialise the certificate as a reduction of the 2-subdivision:
    remove the middle edge of every Q-edge gadget and the third edge of
    every last-arc gadget.  Returns the removed edges, as edge ids of
    build_s2(h, alpha), and a DP-pair of the reduced graph, the first
    graph build_s2(h, alpha)[0].delete_edges(removed) returns, in its edge
    ids.  Raises if the certificate is invalid.  An arc (t, head) on edge
    e leaves e's gadget by side 1, the side at e's stored first end us[e],
    exactly when t is that end, and enters it by the other side; so a loop
    arc leaves by side 1 and enters by side 2.

    A final loop arc at a vertex x outside Q is skipped, as no arc: its
    one end is outside Q, so it lies outside the Q boundary, and its path
    ends on its last arc still kept (a path starts at its Q-vertex, so it
    never consists of that loop alone).  Every loop arc is final, so by the
    out-degree cap a skipped loop was x's one out-arc.  A tail of a kept
    arc is therefore a Q-vertex, whose non-Q edges form the Q boundary, or
    an inner vertex of a path, whose in-degree d - 1 and one out-arc take
    all its edges: every non-Q edge at a tail is a kept arc.

    P' holds every tail's old vertex (a tail is no leaf: a leaf is neither
    a Q-vertex nor an inner vertex), the tail-side new vertex of every arc,
    and both new vertices of every H0 edge (an edge neither an arc nor in
    Q, with no tail at either end; a skipped loop is one).  D' is the rest.
    The lemma: D' holds exactly the head-side new vertex of every arc, both
    new vertices of every Q-edge, and every vertex of the H0 part (the base
    vertices with no out-arc, as old vertices or all their leaf copies),
    because by the paragraph above every edge neither an arc nor in Q is
    an H0 edge.  The matching is has_perfect_matching_on(reduced, P'), and
    it is the only perfect matching of the subgraph P' induces:
    - a tail's only P' neighbour is the tail-side new vertex of its one
      out-arc (every non-Q edge at a tail is an arc, and each of its other
      arcs enters it);
    - that new vertex's other neighbour is the head-side new vertex, which
      is in D';
    - the two new vertices of an H0 edge have only each other in P',
      because their old ends have no out-arc and are in D'.
    So the subgraph P' induces is itself a perfect matching, and S2 is
    simple, so the matcher returns exactly those edges.
    """
    ok, why = verify_good_certificate(h, cert)
    if not ok:
        raise ValueError(f"certificate fails verification: {why}")
    g, lab = build_s2(h, alpha)
    us, vs = h.us, h.vs
    # arc -> tail, without the final loop arcs outside Q
    arcs = {e: t for e, (t, head) in cert.arcs.items() if t != head or t in cert.q_vertices}
    last_arcs = {p[-1] if p[-1] in arcs else p[-2] for p in cert.paths.values()}
    tails = set(arcs.values())

    removed = {lab.middle_edge[eid] for eid in cert.q_edges}
    p_prime: set[int] = set()
    for eid, t in arcs.items():
        tail_side = 1 if t == us[eid] else 2
        p_prime.add(lab.old_vertex[t])
        p_prime.add(lab.new_vertex[(eid, tail_side)])
        if eid in last_arcs:
            removed.add(lab.attach_edges[(eid, 3 - tail_side)][0])
    for eid in range(h.m):
        if eid not in arcs and eid not in cert.q_edges and tails.isdisjoint((us[eid], vs[eid])):
            p_prime.add(lab.new_vertex[(eid, 1)])
            p_prime.add(lab.new_vertex[(eid, 2)])

    reduced = g.delete_edges(removed)[0]
    p = frozenset(p_prime)
    pair = DpPair(frozenset(range(g.n)) - p, p, has_perfect_matching_on(reduced, p))
    assert is_dp_pair(reduced, pair), dp_pair_problem(reduced, pair)
    return frozenset(removed), pair


def _read_certificate(lab: S2Labeling, d: frozenset[int]) -> GoodSubgraphCertificate | None:
    """A verified good-subgraph certificate of lab.base read off the D of a
    DP-pair of a spanning subgraph of the 2-subdivision lab labels, or None.

    Q is the set of base edges whose two new vertices both lie in D, as
    every Q-edge's do in the pair reduce_via_good_subgraph builds, and
    goodsub._search_paths decides that one Q.  A None says nothing about
    the base; the caller falls back to find_good_subgraph.

    That the read Q is good is observed, not proved.  With D from the
    witness pair of deletion_witness's scan (minimality._first_deletion),
    the read never missed on a non-minimal base: the 10,639 of
    simple_n8.g6, the 793 of simple_n7.g6, the 310 connected multigraphs
    with up to 6 edges (loops included), the 85 connected cubic graphs on
    12 vertices, the 365 trees with up to 12 vertices, both bases of
    hard_goodsub14.g6, 425 of 480 connected G(n, p) draws with 9 to 14
    vertices and p from 0.15 to 0.45, and the S2 graphs of 69 random trees
    with some alpha above 1.  The tests pin the 793, 310, 85 and 365.
    """
    h = lab.base
    new = lab.new_vertex
    q_edges = frozenset(eid for eid in range(h.m) if new[(eid, 1)] in d and new[(eid, 2)] in d)
    return _search_paths(h, q_edges)
