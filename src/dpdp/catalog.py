"""Graph generators and exhaustive small-graph enumeration.

Families: paths, cycles (cycle(1) is a loop vertex, cycle(2) a parallel
pair), complete and complete bipartite graphs, stars, double stars, and
corona graphs with per-vertex pendant counts.

Enumerations keep one representative per isomorphism class and are cached
for the repeated sweeps; all but cubic add a vertex or edge to smaller ones,
and cubic prunes a backtracker with the dedup's own isomorphism test.
Candidates are plain edge lists, and only the first of each class becomes
a Multigraph; one grown by a vertex also carries its start colours, which
``_grow`` derives from its base's (``_canon._colours`` counts those), and
so does each partial graph and each leaf of the cubic backtracker, from
the counts it keeps as it joins.  Every enumerator ends in the one dedup
entry, ``_canon._classes``, which takes both kinds of candidate.  It
buckets candidates by a label-free key of their start colouring, refines
a candidate only when it lands in an occupied bucket, and searches only
when a representative there also shares its refined root key, matching
it against the first leaves of those representatives' search trees;
``_canon`` proves that this keeps the first candidate of each class.
Growing by a vertex skips two kinds of candidate that are provably not
the first of their class, before any reaches the dedup:

- a neighbour set that the base's automorphisms (those the search in
  ``_canon`` finds) map onto a smaller one: the smaller one gives a copy;
- a candidate C grown from base B_i that has a vertex w other than the new
  one with C - w connected and (m, sorted degrees) of C - w less than
  B_i's (the earliest-parent test).  The bases are every class of the size
  below, sorted by ``_canon._class_order``, whose key starts with (n, m,
  sorted degrees), so C - w is isomorphic, by some phi, to a base B_j with
  j < i.  N(w) is a set B_j's growth tries (nonempty, as C is connected; a
  single vertex when C is a tree, as w is then a leaf), so B_j is grown by
  the orbit minimum of phi(N(w)) under whatever subgroup of Aut(B_j) was
  found, and that candidate is a copy of C handed over before it.

Induction over the candidate order then shows that the first candidate of
each class is never skipped, so the classes, their representatives (edge
order included) and the output order are those of growing every base by
every neighbour set.

A degree bound spares the earliest-parent test most of the neighbour sets
it would reject.  Call a vertex w of the base B non-cut when B - w is
connected (a leaf of a spanning tree is one).  Lemma: the test rejects
every neighbour set M with |M| >= 2 for which some non-cut w has
deg_B(w) + [w in M] > |M|.  Proof: the new vertex x is joined to M, so in
C = B + x the vertex w has degree deg_B(w) + [w in M], and C - w has
m + |M| - deg_B(w) - [w in M] < m edges; so (m, sorted degrees) of C - w
is less than B's.  C - w is B - w, which is connected, plus x joined to
M - {w}, which is nonempty, as |M| >= 2; so C - w is connected, and w is
the vertex the test looks for.  With top the largest degree of a non-cut
vertex, the condition reads |M| < top, or |M| = top and M holds a
non-cut vertex of degree top (``_non_cut_top`` gives top and those
vertices); the vertices w outside M alone give |M| < top.  Hence
``_grow`` drops those masks before the orbit skip.  An automorphism maps
a mask onto one with as many vertices, and non-cut vertices onto non-cut
vertices of the same degree, so the condition holds for all of an orbit
or none: the masks ``_grow`` keeps are still in increasing order and
closed under the base's automorphisms, as ``_orbit_minima`` asks, every
orbit is kept or dropped whole, and the orbit minima kept are those of
all masks less the ones the test rejects anyway: the candidates are
unchanged.  A single-vertex mask is never dropped, so growing trees
computes no bound.

Cubic graphs come from a backtracker that prunes its search tree by
isomorph rejection of partial graphs (McKay, *Isomorph-free exhaustive
generation*, 1998).  A node is a partial graph P on all n vertices; its
children join P's lowest vertex v of degree below 3 to each vertex that v
may still take, above the last one joined to v since v became the lowest,
so each labelled partial graph is reached along one path (v's joins in
increasing order; ``enumerate_connected_cubic`` proves that this changes
only the work).  Every vertex below v has degree 3, and the untouched
vertices are an isolated suffix, since a join takes only the first
untouched vertex above v.  Each time v moves up, P is handed, with its
start colours, to the add-or-match step of the dedup (``_canon._Seen``),
and the subtree of P is pruned when P is isomorphic to a partial graph
recorded before.  This is exact:

- The leaves below P, connected or not, are every cubic simple completion
  of P, each up to a relabelling of P's untouched suffix: whatever edges a
  completion adds at v, the backtracker tries them in increasing order,
  after renaming an untouched end to the first untouched vertex, which
  fixes P.
- So isomorphic partial graphs have the same completion classes: an
  isomorphism phi from P to P' maps each completion of P to one of P'.
- A recorded P' was met before P and has P's edge count, so P is not
  below P', and in the depth-first order of the unpruned tree every leaf
  below P' comes before every leaf below P.  The leaves below P' hold a
  copy of every class below P, so a pruned subtree never holds the first
  candidate of a class in the unpruned order.

Hence the classes, representatives, edge order and output order are those
of the unpruned backtracker.  Only v <= n - 4 is tested: at v > n - 4, at
most three vertices still lack edges, they can only be joined to each
other, and a simple graph on at most three vertices is fixed by its
degrees, so every leaf of the subtree is one labelled graph, and the final
dedup drops its copies as cheaply.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import combinations

from .graph import Multigraph
from ._canon import _Seen, _automorphisms, _classes, _colours

#: connected simple graphs on n=1..8 vertices, up to isomorphism
CONNECTED_SIMPLE_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)

#: connected cubic graphs on 4, 6, ..., 14 vertices, up to isomorphism
CONNECTED_CUBIC_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509}


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
    edges = list(zip(f.us, f.vs))
    nxt = f.n
    for v in range(f.n):
        for _ in range(counts[v]):
            edges.append((v, nxt))
            nxt += 1
    return Multigraph(nxt, edges)


def random_tree(n: int, rng: random.Random) -> Multigraph:
    """Uniform random labeled tree via a Pruefer sequence."""
    if n < 1:
        raise ValueError("tree needs n >= 1")
    if n == 1:
        return Multigraph(1, [])
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


def _image_tables(a: list[int]) -> list[list[int]]:
    """Tables that map a vertex set (a bitmask) through the permutation a,
    one per byte of the mask: table i gives, for each value x of bits
    8i .. 8i+7, the image of x << 8i.  A table is built by doubling: the
    entries whose highest bit is j are the ones below 2^j, each joined to
    the image of vertex 8i + j."""
    tables = []
    for low in range(0, len(a), 8):
        table = [0]
        for w in a[low:low + 8]:
            bit = 1 << w
            table += [y | bit for y in table]
        tables.append(table)
    return tables


def _orbit_minima(masks: Iterable[int], autos: list[list[int]]) -> Iterator[int]:
    """The masks (vertex sets as bitmasks, given in increasing order, closed
    under the automorphisms autos) that the group autos generates maps onto
    no smaller one: the least member of each orbit.

    An automorphism maps a mask by one lookup per byte of the mask, in
    its _image_tables, built once per call (once per base): one table of
    2^n entries when n <= 8, and one of at most 256 entries per byte
    beyond.  One 2^n table for every n would cost more to build than it
    saves on the n single-vertex masks of a tree."""
    tables = [_image_tables(a) for a in autos]
    seen: set[int] = set()
    for mask in masks:
        if mask in seen:
            continue
        yield mask
        todo = [mask]
        while todo:
            x = todo.pop()
            for t in tables:
                if len(t) == 1:
                    y = t[0][x]
                else:
                    y = shift = 0
                    for table in t:
                        y |= table[x >> shift & 255]
                        shift += 8
                if y not in seen:
                    seen.add(y)
                    todo.append(y)


def _rows(g: Multigraph) -> list[int]:
    """Adjacency rows of a simple graph as bitmasks."""
    rows = [0] * g.n
    for u, v in zip(g.us, g.vs):
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def _reach(adj: list[int], seed: int, within: int) -> int:
    """The vertices (as a bitmask) that paths inside the vertex set within
    reach from the vertex set seed, a subset of within, in the graph with
    bitmask rows adj."""
    seen = frontier = seed
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & within & ~seen
        seen |= frontier
    return seen


def _has_earlier_parent(rows: list[int], degrees: tuple[int, ...], mask: int) -> bool:
    """The earliest-parent test of the module docstring: does the base with
    bitmask rows `rows` and sorted degrees `degrees`, grown by a new vertex
    joined to mask, have a vertex w other than the new one whose deletion
    leaves a connected graph with (m, sorted degrees) less than the base's?

    C - w has m - deg(w) + |mask| edges, so a w of degree below |mask|
    never qualifies and one of degree above it always has fewer edges.
    C - w has n vertices, so it is connected only if it keeps at least
    n - 1 edges, and a w of larger degree needs no walk.  Deleting w lowers only
    its neighbours' degrees, so C's degree list is built once and each w
    of degree |mask| changes just those entries."""
    n = len(rows)  # the new vertex
    new = 1 << n
    adj = [r | new if mask >> v & 1 else r for v, r in enumerate(rows)]
    adj.append(mask)
    k = mask.bit_count()
    deg = [r.bit_count() for r in adj]
    most = (sum(deg) >> 1) - n + 1  # the largest degree whose deletion can leave C connected
    every = (new << 1) - 1
    for w in range(n):
        d = deg[w]
        if d < k or d > most:
            continue
        if d == k:
            left = deg.copy()
            row = adj[w]
            while row:
                low = row & -row
                left[low.bit_length() - 1] -= 1
                row ^= low
            del left[w]
            left.sort()
            if tuple(left) >= degrees:
                continue
        rest = every ^ 1 << w
        if _reach(adj, new, rest) == rest:
            return True
    return False


def _non_cut_top(rows: list[int]) -> tuple[int, int]:
    """(top, at) for the simple graph with bitmask rows `rows`: the largest
    degree top of a vertex w for which the graph minus w is connected (a
    non-cut vertex), and the non-cut vertices of degree top, as a bitmask.
    The degree bound of the module docstring needs no more: a non-cut
    vertex of degree above |M| drops M wherever it lies, which |M| < top
    tells, and one of degree |M| drops M from inside it, which adds to
    that only at |M| = top.  The vertices are tried in decreasing degree,
    so the walks stop below top."""
    every = (1 << len(rows)) - 1
    top = at = 0
    for w in sorted(range(len(rows)), key=lambda v: -rows[v].bit_count()):
        d = rows[w].bit_count()
        if d < top:
            break
        rest = every ^ 1 << w
        if _reach(rows, rest & -rest, rest) == rest:
            top = d
            at |= 1 << w
    return top, at


def _grow(
    bases: Iterable[Multigraph], masks: Sequence[int]
) -> Iterator[tuple[int, list, list[tuple]]]:
    """The (n, edge list, start colours) candidates of the module
    docstring: each base grown by a new vertex joined to each neighbour set
    in masks (bitmasks in increasing order, closed under the base's
    automorphisms) that the degree bound keeps, that is the least of its
    orbit under the automorphisms _canon finds and that the
    earliest-parent test keeps.  The bound never drops a single-vertex
    mask, so when masks holds no other (as when growing trees) no bound
    is computed.

    The start colours, (degree, loop count, triangles) per vertex, come
    from the base's, which ``_canon._colours`` counts: joining x to mask
    gives each v in mask one more edge and one triangle per neighbour of v
    in mask, and x has degree |mask| and one triangle per base edge inside
    mask."""
    several = any(mask & mask - 1 for mask in masks)
    for g in bases:
        n = g.n
        base = list(zip(g.us, g.vs))
        rows = _rows(g)
        start = _colours(n, base)
        degrees = tuple(sorted(d for d, _, _ in start))
        tried = masks
        if several:  # the degree bound of the module docstring
            top, at = _non_cut_top(rows)
            tried = [
                mask for mask in masks
                if (k := mask.bit_count()) < 2 or k > top or k == top and not mask & at
            ]
        for mask in _orbit_minima(tried, _automorphisms(n, base, start)):
            if _has_earlier_parent(rows, degrees, mask):
                continue
            ends = base.copy()
            colours = start.copy()
            inside = 0  # twice the base edges inside mask
            rest = mask
            while rest:  # the vertices of mask, in increasing order
                low = rest & -rest
                v = low.bit_length() - 1
                ends.append((v, n))
                common = (rows[v] & mask).bit_count()
                d, _, t = start[v]
                colours[v] = (d + 1, 0, t + common)
                inside += common
                rest ^= low
            colours.append((mask.bit_count(), 0, inside >> 1))
            yield n + 1, ends, colours


@lru_cache(maxsize=None)
def enumerate_connected_simple(n: int) -> tuple[Multigraph, ...]:
    """All connected simple graphs on n vertices, one per isomorphism class.

    Built by augmenting the (n-1)-vertex classes with one new vertex joined
    to every nonempty neighbour subset, then deduplicating.  Two kinds of
    subset are skipped, as the module docstring proves: one that an
    automorphism of the base maps onto a smaller one, and one whose graph
    loses a vertex to a connected graph that sorts before the base, so
    that a copy was grown from an earlier base.  Neither is ever the first
    of its class, so the representatives and their order are those of the
    unskipped augmentation.  For n <= 7 the skips leave 1,033 of the 7,815
    candidates (890 for the 853 classes of n = 7).  Class counts match the
    classical sequence 1, 1, 2, 6, 21, 112, 853, 11117 for n <= 8.
    """
    if not (1 <= n <= 8):
        raise ValueError("enumerate_connected_simple supports 1 <= n <= 8")
    if n == 1:
        return (Multigraph(1, []),)
    bases = enumerate_connected_simple(n - 1)
    return tuple(_classes(_grow(bases, range(1, 1 << (n - 1)))))


@lru_cache(maxsize=None)
def enumerate_connected_multigraphs(max_edges: int) -> tuple[Multigraph, ...]:
    """All connected multigraphs with 1..max_edges edges and no isolated
    vertex, one per isomorphism class (loops and parallel edges included),
    in (m, n, sorted degrees, edge list) order.

    Each m-edge class is an (m-1)-edge class B on n vertices plus one edge
    x = (u, v), 0 <= u < n, u <= v <= n: G minus an edge on a cycle (a loop
    or a parallel pair counts) is connected, and a tree minus a leaf is a
    tree.  Deduplicated in sorted edge-list order, a class keeps its least
    one.  An x that an automorphism of B (one _canon finds, with the new
    vertex n fixed) maps onto a smaller pair x' is skipped: B + x' is a copy
    of B + x, and sorted(B + x') < sorted(B + x), since x' < x.  So the
    least candidate of each class is never skipped."""
    if not (1 <= max_edges <= 6):
        raise ValueError("enumerate_connected_multigraphs supports 1 <= max_edges <= 6")
    if max_edges == 1:
        return (Multigraph(1, [(0, 0)]), Multigraph(2, [(0, 1)]))
    smaller = enumerate_connected_multigraphs(max_edges - 1)
    candidates = []
    for g in smaller:
        if g.m < max_edges - 1:
            continue
        base = g.edge_multiset()
        autos = [a + [g.n] for a in _automorphisms(g.n, base)]
        for u in range(g.n):
            for v in range(u, g.n + 1):
                if not any(sorted((a[u], a[v])) < [u, v] for a in autos):
                    candidates.append((max(g.n, v + 1), tuple(sorted(base + ((u, v),)))))
    candidates.sort(key=lambda c: c[1])
    return smaller + tuple(_classes(candidates))


@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple[Multigraph, ...]:
    """All trees on n vertices up to isomorphism: a leaf added to each
    vertex of each (n-1)-vertex tree, one vertex per orbit of its
    automorphisms, skipping a tree with another leaf whose deletion sorts
    before the base (the earliest-parent test of the module docstring)."""
    if n < 1:
        raise ValueError("enumerate_trees needs n >= 1")
    if n == 1:
        return (Multigraph(1, []),)
    return tuple(_classes(_grow(enumerate_trees(n - 1), [1 << v for v in range(n - 1)])))


@lru_cache(maxsize=None)
def enumerate_connected_cubic(n: int) -> tuple[Multigraph, ...]:
    """All connected cubic (3-regular) simple graphs on n <= 14 vertices,
    one per isomorphism class.

    A backtracker joins the lowest vertex v of degree below 3 to each
    later vertex it may still take (an untouched vertex only if it is the
    first untouched one).  Each time v moves up to a v <= n - 4, the
    partial graph goes through the add-or-match step of the dedup, with
    the start colours (degree, 0, triangles) that the backtracker keeps
    per vertex as it joins and unjoins (a join (v, u) gives v and u a
    triangle per common neighbour and each common neighbour one), and its
    subtree is pruned when it is isomorphic to a partial graph recorded
    before; the module docstring proves that this keeps the first
    candidate of every class.  Each connected cubic graph it completes is
    kept, with its start colours from the same counts, for the final
    dedup.

    While v stays the lowest, it is joined only to vertices above the last
    one joined to it, so each labelled partial graph is reached along one
    path, and no labelled graph reaches the dedup twice.  This changes
    nothing but the work.  The backtracker that joins v in every order
    tries each edge set's increasing order first, as it tries the
    vertices in increasing order, and so reaches every node of the
    increasing backtracker, in the same order, before any later order of
    the same joins.  Take a path of it that first leaves increasing order
    at some join, and the first node below that join where v moves up to a
    v <= n - 4.  The nodes above the join are the increasing backtracker's,
    and no node between the join and that one is handed over, so the
    increasing path to the same labelled edge set met it before and handed
    it over: it was recorded, or isomorphic to a graph recorded before, and
    either way the repeat is pruned.  With no such node on the way, the
    path ends in a labelled copy of a leaf kept before, which the final
    dedup drops.  So the skipped orders record nothing and hand over no
    first candidate: the recorded partial graphs, the classes, the
    representatives, their edge order and the output order stay those of
    joining v in every order.

    At n = 10 the backtracker hands 69 graphs to the dedup (131 when v was
    joined in every order, 4,384 without the pruning).  Class counts match
    OEIS A002851: 1, 2, 5, 19, 85, 509 for n = 4..14.  The representatives
    and order for n <= 10 are those of the unpruned backtracker; 12 and 14
    had no enumerator before, so theirs are new.
    """
    if n < 4 or n % 2:
        return ()
    if n > 14:
        raise ValueError("enumerate_connected_cubic supports n <= 14")
    found: list[tuple[int, list[tuple[int, int]], list[tuple]]] = []
    rows = [0] * n  # the partial graph as bitmask rows
    deg = [0] * n
    tri = [0] * n  # triangles at each vertex
    edges: list[tuple[int, int]] = []  # the partial graph, in the order added
    every = (1 << n) - 1
    partial = _Seen()

    def join(v: int, u: int, step: int) -> None:
        # step 1 adds the edge (v, u), step -1 removes it; the triangles
        # through it are those at its two ends' common neighbours
        common = rows[v] & rows[u]
        tri[v] += step * common.bit_count()
        tri[u] += step * common.bit_count()
        while common:
            low = common & -common
            tri[low.bit_length() - 1] += step
            common ^= low
        rows[v] ^= 1 << u
        rows[u] ^= 1 << v
        deg[v] += step
        deg[u] += step

    def extend(last: int, first: int) -> None:
        # last is the lowest vertex of degree below 3 at the parent node,
        # and first the lowest vertex it may still be joined to
        v = next((x for x in range(last, n) if deg[x] < 3), None)
        if v is None:
            if _reach(rows, 1, every) == every:
                found.append((n, sorted(edges), [(d, 0, t) for d, t in zip(deg, tri)]))
            return
        if last < v:
            first = v + 1
            if v <= n - 4 and not partial.add(
                n, tuple(edges), [(d, 0, t) for d, t in zip(deg, tri)]
            ):
                return
        for u in range(first, n):
            d = deg[u]
            if d == 3:
                continue  # v has no edge to u: its joins so far all lie below first
            join(v, u, 1)
            edges.append((v, u))
            extend(v, u + 1)
            edges.pop()
            join(v, u, -1)
            if not d:
                break  # the untouched vertices are a suffix: the first stands for all

    extend(0, 1)
    return tuple(_classes(found))
