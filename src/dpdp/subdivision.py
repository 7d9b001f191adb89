"""2-subdivision graphs: construction with provenance labels, and inversion.

Every vertex of the product graph carries a tag telling where it came
from: ("old", h_vertex) for a non-leaf of the base, ("copy", h_leaf, i)
for the i-th copy of a base leaf (i in 1..alpha), or ("new", h_edge, side)
for a subdivision vertex.  Each base edge uv becomes the path u, u_e,
v_e, v; each loop at v becomes the triangle v, v_e1, v_e2.  The tags make
inversion checkable by rebuilding and comparing edges vertex-for-vertex,
never by isomorphism testing.

Useful facts the inversion relies on (all consequences of the edge rules):
the product is always simple, its leaves are exactly the copy vertices,
old and copy vertices form an independent set, and the new vertices
induce a perfect matching (one pair per base edge).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .domination import DpPair
from .graph import Multigraph

Tag = tuple  # ("old", v) | ("copy", leaf, i) | ("new", edge, side)


@dataclass
class S2Labeling:
    """Provenance of every product vertex over (base, alpha).

    Treat as immutable; the lookup tables are derived from provenance.
    """

    base: Multigraph
    alpha: dict[int, int]
    provenance: tuple[Tag, ...]
    old_vertex: dict[int, int] = field(default_factory=dict)
    copy_vertices: dict[int, tuple[int, ...]] = field(default_factory=dict)
    new_vertex: dict[tuple[int, int], int] = field(default_factory=dict)
    middle_edge: dict[int, int] = field(default_factory=dict)
    attach_edges: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)

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
    leaves = h.leaves()

    tags: list[Tag] = []
    for v in range(h.n):
        if v not in leaves:
            tags.append(("old", v))
    for v in sorted(leaves):
        for i in range(1, alpha_full[v] + 1):
            tags.append(("copy", v, i))
    for e in h.edges:
        tags.append(("new", e.id, 1))
        tags.append(("new", e.id, 2))

    index = {t: i for i, t in enumerate(tags)}
    old_vertex = {v: index[("old", v)] for v in range(h.n) if v not in leaves}
    copy_vertices = {
        v: tuple(index[("copy", v, i)] for i in range(1, alpha_full[v] + 1))
        for v in sorted(leaves)
    }
    new_vertex = {(e.id, s): index[("new", e.id, s)] for e in h.edges for s in (1, 2)}

    def reps(v: int) -> tuple[int, ...]:
        return copy_vertices[v] if v in leaves else (old_vertex[v],)

    edges: list[tuple[int, int]] = []
    middle_edge: dict[int, int] = {}
    attach_edges: dict[tuple[int, int], tuple[int, ...]] = {}
    for e in h.edges:
        n1, n2 = new_vertex[(e.id, 1)], new_vertex[(e.id, 2)]
        middle_edge[e.id] = len(edges)
        edges.append((n1, n2))
        for side, (nv, endpoint) in enumerate(((n1, e.u), (n2, e.v)), start=1):
            ids = []
            for r in reps(endpoint):
                ids.append(len(edges))
                edges.append((r, nv))
            attach_edges[(e.id, side)] = tuple(ids)

    g = Multigraph(len(tags), edges)
    lab = S2Labeling(
        base=h,
        alpha=alpha_full,
        provenance=tuple(tags),
        old_vertex=old_vertex,
        copy_vertices=copy_vertices,
        new_vertex=new_vertex,
        middle_edge=middle_edge,
        attach_edges=attach_edges,
    )
    return g, lab


def canonical_dp_pair(lab: S2Labeling) -> DpPair:
    """(V^o, V^n) with the per-edge middle matching; a DP-pair by
    construction on any base without isolated vertices."""
    matching = tuple(lab.middle_edge[e.id] for e in lab.base.edges)
    return DpPair(lab.old_part(), lab.new_part(), matching)


# -- inversion ----------------------------------------------------------------

_O, _N = 1, 2


def invert_s2(
    g: Multigraph,
) -> tuple[Multigraph, dict[int, int], S2Labeling] | None:
    """Recover (base, alpha, labeling) with build_s2(base, alpha) equal to g
    vertex-for-vertex under the labeling, or None if g is no 2-subdivision.

    Exhaustive labeled search: 2-colour the vertices into old-or-copy vs
    new with unit propagation (leaves are copies, their neighbours are
    new, old/copy vertices are pairwise nonadjacent, every new vertex has
    exactly one new neighbour), branch lowest-id-first trying old-or-copy
    before new, and validate each complete colouring by reconstruction.
    The first valid colouring in this order is returned, so ambiguous
    inputs (rotations of C_{3k}) resolve to the lexicographically least
    tagging.
    """
    if g.n == 0:
        base = Multigraph(0, [])
        _, lab = build_s2(base, {})
        return base, {}, lab
    if not g.is_simple():
        return None
    if any(g.degree(v) == 0 for v in range(g.n)):
        return None

    n = g.n
    nbrs = [sorted(g.plain_neighbors(v)) for v in range(n)]
    color = [0] * n
    trail: list[int] = []

    def assign(v: int, c: int) -> bool:
        queue = [(v, c)]
        while queue:
            x, cx = queue.pop()
            if color[x]:
                if color[x] != cx:
                    return False
                continue
            color[x] = cx
            trail.append(x)
            if cx == _O:
                queue.extend((u, _N) for u in nbrs[x])
            else:
                n_nbrs = [u for u in nbrs[x] if color[u] == _N]
                open_nbrs = [u for u in nbrs[x] if not color[u]]
                if len(n_nbrs) > 1:
                    return False
                if len(n_nbrs) == 1:
                    queue.extend((u, _O) for u in open_nbrs)
                elif not open_nbrs:
                    return False
                elif len(open_nbrs) == 1:
                    queue.append((open_nbrs[0], _N))
            # a newly coloured neighbour may force decisions at adjacent new vertices
            for u in nbrs[x]:
                if color[u] == _N:
                    u_n = [w for w in nbrs[u] if color[w] == _N]
                    u_open = [w for w in nbrs[u] if not color[w]]
                    if len(u_n) > 1:
                        return False
                    if len(u_n) == 1:
                        queue.extend((w, _O) for w in u_open)
                    elif not u_open:
                        return False
                    elif len(u_open) == 1:
                        queue.append((u_open[0], _N))
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            color[trail.pop()] = 0

    def reconstruct() -> tuple[Multigraph, dict[int, int], S2Labeling] | None:
        new_set = [v for v in range(n) if color[v] == _N]
        pairs = []
        seen = set()
        for x in new_set:
            if x in seen:
                continue
            mates = [u for u in nbrs[x] if color[u] == _N]
            if len(mates) != 1:
                return None
            y = mates[0]
            if [w for w in nbrs[y] if color[w] == _N] != [x]:
                return None
            seen.add(x)
            seen.add(y)
            pairs.append((x, y) if x < y else (y, x))
        pairs.sort()

        def rep_of(x: int) -> tuple[str, int] | None:
            """("old", old-vertex) or ("group", support-new-vertex)."""
            os = [u for u in nbrs[x] if color[u] == _O]
            if not os:
                return None
            if len(os) == 1 and g.degree(os[0]) >= 2:
                return ("old", os[0])
            if all(g.degree(u) == 1 for u in os):
                return ("group", x)
            return None

        olds = sorted(v for v in range(n) if color[v] == _O and g.degree(v) >= 2)
        for v in olds:
            if any(color[u] != _N for u in nbrs[v]):
                return None
        groups: dict[int, list[int]] = {}
        for v in range(n):
            if color[v] == _O and g.degree(v) == 1:
                s = nbrs[v][0]
                if color[s] != _N:
                    return None
                groups.setdefault(s, []).append(v)

        h_id: dict[tuple[str, int], int] = {}
        for v in olds:
            h_id[("old", v)] = len(h_id)
        for s in sorted(groups):
            h_id[("group", s)] = len(h_id)

        h_edges = []
        sides: list[tuple[int, int]] = []  # (side1 g-vertex, side2 g-vertex) per h-edge
        for x, y in pairs:
            rx, ry = rep_of(x), rep_of(y)
            if rx is None or ry is None:
                return None
            h_edges.append((h_id[rx], h_id[ry]))
            sides.append((x, y))

        base = Multigraph(len(h_id), h_edges)
        alpha = {
            h_id[("group", s)]: len(groups[s]) for s in sorted(groups)
        }
        # base leaves must be exactly the groups (a "group" attached new vertex
        # whose compressed leaf ends up with base degree > 1 is impossible, but
        # alpha keys are validated by build_s2 anyway)
        try:
            rebuilt, lab2 = build_s2(base, alpha)
        except ValueError:
            return None
        if rebuilt.n != n or rebuilt.m != g.m:
            return None

        # provenance for g's own vertex ids
        prov: list[Tag | None] = [None] * n
        for v in olds:
            prov[v] = ("old", h_id[("old", v)])
        for s in sorted(groups):
            for i, v in enumerate(sorted(groups[s]), start=1):
                prov[v] = ("copy", h_id[("group", s)], i)
        for eid, (x, y) in enumerate(sides):
            prov[x] = ("new", eid, 1)
            prov[y] = ("new", eid, 2)
        if any(t is None for t in prov):
            return None

        # rebuild comparison, vertex-for-vertex through the tags
        mapping = [lab2.vertex_of(t) for t in prov]
        if sorted(mapping) != list(range(n)):
            return None
        mapped = tuple(
            sorted(
                (min(mapping[e.u], mapping[e.v]), max(mapping[e.u], mapping[e.v]))
                for e in g.edges
            )
        )
        if mapped != rebuilt.edge_multiset():
            return None

        copy_vs = {
            h_id[("group", s)]: tuple(sorted(groups[s])) for s in sorted(groups)
        }
        attach: dict[tuple[int, int], tuple[int, ...]] = {}
        for eid, (x, y) in enumerate(sides):
            for side, nv in ((1, x), (2, y)):
                reps = sorted(u for u in nbrs[nv] if color[u] == _O)
                attach[(eid, side)] = tuple(g.edge_between(nv, r) for r in reps)
        lab = S2Labeling(
            base=base,
            alpha=alpha if alpha else {},
            provenance=tuple(prov),
            old_vertex={h_id[k]: k[1] for k in h_id if k[0] == "old"},
            copy_vertices=copy_vs,
            new_vertex={
                (eid, side): xy[side - 1]
                for eid, xy in enumerate(sides)
                for side in (1, 2)
            },
            middle_edge={
                eid: g.edge_between(x, y) for eid, (x, y) in enumerate(sides)
            },
            attach_edges=attach,
        )
        alpha_full = _complete_alpha(base, alpha)
        return base, alpha_full, lab

    # Depth-first over vertices in id order, old-or-copy before new; a
    # frame is [vertex, trail mark before it, colour tried last].
    stack: list[list[int]] = []

    def descend(v: int) -> tuple[Multigraph, dict[int, int], S2Labeling] | None:
        """Reconstruct a complete colouring, else open a frame at the next
        uncoloured vertex from v on."""
        while v < n and color[v]:
            v += 1
        if v == n:
            return reconstruct()
        stack.append([v, len(trail), 0])
        return None

    found = None
    if all(assign(leaf, _O) for leaf in sorted(g.leaves())):
        found = descend(0)
    while found is None and stack:
        frame = stack[-1]
        v, frame_mark, c = frame
        undo(frame_mark)
        if c == _N:
            stack.pop()
            continue
        c = frame[2] = _O if c == 0 else _N
        if assign(v, c):
            found = descend(v + 1)
    return found


def is_2_subdivision(g: Multigraph) -> bool:
    """True iff g is the 2-subdivision graph of some base graph."""
    return invert_s2(g) is not None
