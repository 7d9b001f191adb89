"""Good subgraphs: certificates, their verifier and the exhaustive search.

A good subgraph of a host H is a subgraph Q (no isolated vertex) together
with an edge set E between the boundary of Q and all of E_H - E_Q, an
orientation of E, and a family of arc-disjoint oriented paths, one
starting at each vertex of Q, that jointly cover every arc exactly once
and satisfy three degree conditions:

  (1) each Q-vertex v has out-degree 1 and in-degree d_H(v) - d_Q(v) - 1,
  (2) each inner path vertex x has out-degree 1 and in-degree d_H(x) - 1,
  (3) each path end x has in-degree strictly below d_H(x).

Degrees here count arcs only; an oriented loop may appear solely as the
final arc of a path and adds 1 to both the out- and in-degree of its
vertex.  Out-degree is capped at 1 globally.  The existence of a good
subgraph certifies that the 2-subdivision graph of H is not minimal;
subdivision.reduce_via_good_subgraph turns a certificate into an explicit
proper spanning subgraph with a verifying DP-pair.  This module imports
only graph, so its verdict stays independent of the DP-pair search that
the other two minimality tests run.

find_good_subgraph walks the candidate Q sets in a fixed order and runs
one path search per set, except on sets that break a counting bound and
so cannot succeed.  The sharpest bound counts edges against arcs: the
vertices with an out-arc number as many as the arcs, so the part of H
that no arc touches, which avoids Q's vertex set S, needs m - |Q| - n
more edges than vertices, and the 2-core of H - S says at once whether
any part of it has that many.  The walk cuts a prefix of Q as soon as
its S fails this, so most Q sets are never built.  The first good set,
and so the certificate, is the one a search of every set would give.
One function, _search_paths, decides a single Q set from the host and
the Q edges alone, for the walk and for subdivision._read_certificate
alike.

The path search is one loop over an explicit stack of frames, one per
vertex a path stands on, so a path may be as long as memory allows, not
only as deep as Python's recursion limit.
"""

from __future__ import annotations

from collections.abc import Iterable

from .graph import Multigraph, _Record


class GoodSubgraphCertificate(_Record):
    """Witness of non-minimality of the 2-subdivision of the host."""

    __slots__ = ("q_vertices", "q_edges", "e_set", "arcs", "paths")
    __match_args__ = __slots__
    q_vertices: frozenset[int]
    q_edges: frozenset[int]
    e_set: frozenset[int]
    arcs: dict[int, tuple[int, int]]  # edge id -> (tail, head)
    paths: dict[int, tuple[int, ...]]  # Q-vertex -> arc ids in order


def edge_boundary(h: Multigraph, q_edges: Iterable[int]) -> frozenset[int]:
    """E_Q^-: edges outside Q incident with at least one vertex of Q."""
    qe = frozenset(q_edges)
    us, vs = h.us, h.vs
    qv = {us[eid] for eid in qe} | {vs[eid] for eid in qe}
    return frozenset(
        eid for eid in range(h.m) if eid not in qe and (us[eid] in qv or vs[eid] in qv)
    )


def _path_vertex_seq(
    h: Multigraph, cert: GoodSubgraphCertificate, v: int
) -> tuple[list[int], int, str | None]:
    """(inner-candidate sequence, end vertex) of P_v, or a violation.

    No vertex may repeat, with two exceptions at the final arc: a loop
    ends the path where it stands, and the head may close the walk back
    onto the start vertex v (this happens around parallel edges; the
    start then counts as the end, not as an inner vertex).
    """
    arcs = cert.paths[v]
    if not arcs:
        return [], v, f"path at {v} is empty"
    visited = [v]
    end = None
    for k, eid in enumerate(arcs):
        if eid not in cert.arcs:
            return [], v, f"path at {v} uses edge {eid} without an orientation"
        t, head = cert.arcs[eid]
        if t != visited[-1]:
            return [], v, f"path at {v}: arc {eid} does not chain head-to-tail"
        last = k == len(arcs) - 1
        if t == head:
            if not last:
                return [], v, f"path at {v}: loop arc {eid} is not the final arc"
            end = t
        elif head == v and last:
            end = v
        else:
            if head in visited:
                return [], v, f"path at {v} repeats vertex {head}"
            visited.append(head)
            if last:
                end = head
    return visited, end, None


def verify_good_certificate(
    h: Multigraph, cert: GoodSubgraphCertificate
) -> tuple[bool, str | None]:
    """Check every certificate invariant; name the first violated clause.

    Condition (1) and the out-degree half of condition (2) have no clause
    of their own, because the clauses before them already decide them.
    Every Q-vertex and every inner vertex is the tail of the next arc on
    its path (the chain check), so its out-degree is at least 1, and the
    cap makes it exactly 1.  At a Q-vertex v every edge-end outside Q lies
    on an arc of E (E contains the Q boundary, and a Q-loop is no arc), so
    out-degree plus in-degree is d_H(v) - d_Q(v) and the in-degree is
    d_H(v) - d_Q(v) - 1.
    """
    for v in cert.q_vertices:
        if not (0 <= v < h.n):
            raise ValueError(f"malformed vertex id {v}")
    for eid in cert.q_edges | cert.e_set:
        if not (0 <= eid < h.m):
            raise ValueError(f"malformed edge id {eid}")

    if not cert.q_vertices:
        return False, "Q is empty"
    endpoints = set()
    for eid in cert.q_edges:
        u, v = h.us[eid], h.vs[eid]
        endpoints.add(u)
        endpoints.add(v)
        if u not in cert.q_vertices or v not in cert.q_vertices:
            return False, f"Q-edge {eid} leaves the Q vertex set"
    if endpoints != set(cert.q_vertices):
        return False, "Q has an isolated vertex"

    if cert.q_edges & cert.e_set:
        return False, "E intersects the Q edges"
    if not edge_boundary(h, cert.q_edges) <= cert.e_set:
        return False, "E misses part of the Q boundary"
    if set(cert.arcs) != set(cert.e_set):
        return False, "arcs and E disagree"
    for eid, (t, head) in cert.arcs.items():
        if sorted((t, head)) != sorted((h.us[eid], h.vs[eid])):
            return False, f"arc {eid} does not orient its own edge"

    if set(cert.paths) != set(cert.q_vertices):
        return False, "paths are not indexed by the Q vertices"

    ends: list[int] = []
    inners: set[int] = set()
    used: list[int] = []
    for v in sorted(cert.q_vertices):
        visited, end, err = _path_vertex_seq(h, cert, v)
        if err:
            return False, err
        used.extend(cert.paths[v])
        ends.append(end)
        inners.update(x for x in visited[1:] if x != end)
    if len(used) != len(set(used)):
        return False, "paths are not arc-disjoint"
    if set(used) != set(cert.e_set):
        return False, "paths do not cover the arcs exactly"

    d_out = [0] * h.n
    d_in = [0] * h.n
    for t, head in cert.arcs.values():
        d_out[t] += 1
        d_in[head] += 1

    for x in range(h.n):
        if d_out[x] > 1:
            return False, f"vertex {x} has out-degree above 1"
    for x in sorted(inners):
        if d_in[x] != h.degree(x) - 1:
            return False, f"condition (2): in-degree at inner vertex {x}"
    for x in ends:
        if not d_in[x] < h.degree(x):
            return False, f"condition (3): in-degree at end vertex {x}"
    return True, None


def find_good_subgraph(h: Multigraph) -> GoodSubgraphCertificate | None:
    """Exhaustive search for a good subgraph; returns a certificate or None.

    Q candidates avoid leaves and supports (they never belong to a good
    subgraph) and are tried smallest first, then by component count
    (connected first), then by edge ids; the Q sets of one size are
    generated only when every smaller size has failed.  Paths grow
    depth-first with arcs in edge-id order, termination offered before
    extension.  Each Q set is decided by _search_paths alone, from
    edge-end counters of its own; verify_good_certificate runs once, as an
    assertion on the hit.  Output is deterministic.

    The Q sets come from _q_sets in exactly that order, with only sets
    missing that could never succeed, and _search_paths ends a set that
    breaks cut (a) or its final-arc bound before the first path leaves:
    the first hit, and so the certificate, is the one the unpruned order
    would give.
    """
    if any(h.degree(v) == 0 for v in range(h.n)):
        raise ValueError("host graph must have no isolated vertex")
    allowed = frozenset(range(h.n)) - h.leaves() - h.supports()
    us, vs = h.us, h.vs
    eligible = [eid for eid in range(h.m) if us[eid] in allowed and vs[eid] in allowed]
    for combo in _q_sets(h, eligible):
        cert = _search_paths(h, frozenset(combo))
        if cert is not None:
            return cert
    return None


def _q_sets(h: Multigraph, eligible: list[int]):
    """The subsets Q of eligible that pass two necessary conditions, as
    tuples of edge ids, by size, then component count, then
    lexicographically, from one depth-first walk per size on an index
    stack.  The walk counts in its own list left[x] the edge-ends at x
    outside its prefix (a Q-loop takes two), for cut (a).

    (a) Every Q-vertex keeps an edge-end outside Q for its outgoing arc.
    (b) With S the vertex set of Q, i(Y) the number of edges (loops
        included) with both ends in Y, and m and n those of h: some
        Y inside V - S has i(Y) - |Y| >= m - |Q| - n.
    Proof of (b):
    - Necessity.  Take any certificate for Q, and let X be the set of
      vertices that have an out-arc.  Condition (1) puts S inside X, and
      every vertex of X - S is an inner vertex of some path.  Conditions
      (1) and (2) use up every non-Q edge-end at a vertex of X, so every
      non-Q edge that touches X is an arc.  Out-degree is at most 1, so
      there are exactly |X| arcs.  Every edge inside Y = V - X is a non-Q
      edge, so (m - |Q|) - i(Y) = n - |Y|, and Y lies inside V - S.
    - 2-core lemma.  The maximum of i(Y) - |Y| over Y inside V - S is
      i(C) - |C| for the 2-core C of h - S (0 when C is empty).
      Deleting a vertex of degree <= 1 never lowers i - |Y| (a loop
      counts 2 towards degree), so peeling Y to its own 2-core, which
      lies in C, never lowers it.  If a set R inside C is removed, at
      least |R| edges go with it, because every vertex of R has degree
      >= 2 in C; so no subset of C beats C.
    - Monotone.  As the prefix grows, S grows, V - S shrinks and the core
      excess can only fall.  The walk runs one size at a time, so the
      threshold m - size - n is fixed while it runs.
    - Same certificates.  The cut removes only Q sets that cannot be
      good.  The first good set, and with it the certificate, stays the
      same.
    (b) also says that the Q boundary, the edges touching S minus Q, fits
    in n arcs: i(V - S) >= i(C) >= m - |Q| - n.  (a) only gets worse as
    the prefix grows too, so a prefix that breaks either, measured
    against the full size, is cut with every set that extends it.  (a)
    is two decrements of left per edge.  For (b) each depth of the index
    stack holds the vertex bitmask of its prefix's S, and the core excess
    and the 2-core of h - S are computed once per S for the host and kept;
    a prefix extended to S' peels its core from the core of its own S
    minus S' (_core_excess).  The excess is never negative (take Y empty),
    so it is looked at only when the threshold is positive, and trees,
    cycles and theta graphs never pay for it.

    The walk meets the survivors in lexicographic order.  Components order
    survivors but never cut a prefix, so they are counted once per
    full-size survivor, from its own edges.  A connected survivor is
    yielded the moment the walk meets it; the disconnected ones wait in
    one list per component count, each list in lexicographic order, and
    follow after the walk, fewest components first.  Only those are ever
    held, so a consumer that stops at a connected hit holds at most the
    disconnected sets met before it.
    """
    us, vs = h.us, h.vs
    left = [h.degree(x) for x in range(h.n)]
    # S bitmask -> (core excess, 2-core bitmask) of h - S; the empty S
    # only starts the first peels from all of h, its excess is never read
    cores = {0: (0, (1 << h.n) - 1)}
    k = len(eligible)
    for size in range(1, k + 1):
        need = h.m - size - h.n
        disconnected: dict[int, list[tuple[int, ...]]] = {}
        picked: list[int] = []  # indices into eligible, ascending
        spans = [0]  # spans[d]: vertex mask of the first d picked
        i = 0
        while True:
            if len(picked) + k - i >= size:
                eid = eligible[i]
                u, v = us[eid], vs[eid]
                left[u] -= 1
                left[v] -= 1
                s = spans[-1] | 1 << u | 1 << v
                fits = left[u] >= 1 and left[v] >= 1
                if fits and need > 0:
                    if s not in cores:
                        # the prefix passed (b) at this size: its core is kept
                        cores[s] = _core_excess(h, cores[spans[-1]][1] & ~s)
                    fits = cores[s][0] >= need
                if fits:
                    if len(picked) + 1 == size:
                        q = (*(eligible[j] for j in picked), eid)
                        count = _component_count(h, q)
                        if count == 1:
                            yield q
                        else:
                            disconnected.setdefault(count, []).append(q)
                    else:
                        picked.append(i)
                        spans.append(s)
                        i += 1
                        continue
                left[u] += 1
                left[v] += 1
                i += 1
            elif picked:
                i = picked.pop()
                spans.pop()
                left[us[eligible[i]]] += 1
                left[vs[eligible[i]]] += 1
                i += 1
            else:
                break
        for count in sorted(disconnected):
            yield from disconnected.pop(count)


def _core_excess(h: Multigraph, rest: int) -> tuple[int, int]:
    """(i(C) - |C|, C) for the 2-core C of the subgraph of h induced by
    the vertex bitmask rest, C as a bitmask, where i counts the edges,
    loops included, with both ends in C.  With rest = V - S this is the
    most that i(Y) - |Y| reaches over vertex sets Y that avoid S (proof in
    _q_sets).  Counts the degrees inside rest once (a loop counts 2),
    then peels one vertex of degree <= 1 at a time from a stack, pushing
    each neighbour whose degree falls to 1.  A vertex of degree <= 1 has
    no loop, so its removal takes only the edge to a neighbour still in
    rest, if there is one.

    For S inside S', the 2-core of h - S' is that of the subgraph induced
    by C - S', C the 2-core of h - S, so _q_sets peels there instead of
    from all of h.  Proof: the 2-core is the largest subgraph of minimum
    degree >= 2, the union of all such subgraphs.  The core K' of h - S'
    lies in h - S, so in C, and avoids S', so it lies in C - S'; having
    minimum degree >= 2 there, it lies in the core of C - S'.  That core
    in turn lies in h - S' with minimum degree >= 2, so in K'.  The two
    are equal, excess included, so cut (b) is unchanged."""
    us, vs = h.us, h.vs
    degree = [0] * h.n
    edges = 0
    for u, v in zip(us, vs):
        if rest >> u & 1 and rest >> v & 1:
            degree[u] += 1
            degree[v] += 1
            edges += 1
    low = [x for x in range(h.n) if degree[x] <= 1 and rest >> x & 1]
    while low:
        x = low.pop()
        rest &= ~(1 << x)
        for eid in h.incident_edges(x):
            y = vs[eid] if us[eid] == x else us[eid]
            if rest >> y & 1:
                edges -= 1
                degree[y] -= 1
                if degree[y] == 1:
                    low.append(y)
    return edges - rest.bit_count(), rest


def _component_count(h: Multigraph, q_edges: tuple[int, ...]) -> int:
    """Connected components of the subgraph formed by q_edges: each edge's
    endpoint bitmask is merged with every part it meets, so the parts stay
    the components' vertex sets."""
    us, vs = h.us, h.vs
    parts: list[int] = []
    for eid in q_edges:
        part = 1 << us[eid] | 1 << vs[eid]
        apart = []
        for other in parts:
            if other & part:
                part |= other
            else:
                apart.append(other)
        apart.append(part)
        parts = apart
    return len(parts)


def _search_paths(h: Multigraph, q_edges: frozenset[int]) -> GoodSubgraphCertificate | None:
    """The first good subgraph on the Q set q_edges in the search order, or
    None; a hit is verified with verify_good_certificate.  This is the one
    decision of a single Q set: it takes any set of edges of h, and an
    empty one is not good.

    One oriented path grows per Q-vertex, in ascending order, over non-Q
    edges: depth first, arcs in incident_edges order, and at each vertex
    reached the path stops before it extends.  left[x] counts the
    edge-ends at x outside Q (a Q-loop takes two) that no placed arc uses
    (an arc uses one at each end, a loop arc two), and no arc takes it
    below 0.  A Q-vertex with no edge-end outside Q has no outgoing arc
    (cut (a) of _q_sets): such a Q set ends the search before it starts.
    The growth rules already make arcs disjoint, paths chain without
    repeating a vertex, and out-degree at most 1, exactly 1 at
    Q-vertices.  The vertices with an out-arc are then the Q-vertices and
    the inner vertices, so conditions (1) and (2) and coverage of the Q
    boundary say left == 0 there, and (3) says left > 0 at every other
    path end (other vertices have no arc and degree >= 1).

    That gives a bound that cuts dead families early.  When path i is
    about to leave pos, call a vertex marked if it is pos, has its out-arc,
    or is a Q-vertex whose path has not started: each must end with
    left == 0.  A marked vertex still takes at most one tail, and only pos
    and the unstarted Q-vertices, len(qvs) - i of them, still need one.
    Every other arc into a marked vertex is a path's final arc (a Q-vertex
    or a vertex with its out-arc ends the path), each path has one, and
    len(qvs) - i paths are open.  So the sum of left over marked vertices
    is at most 2 * (len(qvs) - i), or no completion exists.  Before the
    first path leaves, the marked vertices are Q, so a Q set whose
    edge-ends already break the bound costs the search one check.

    The two sums of the bound are running totals, out_left over the
    vertices with an out-arc and pending over the unstarted Q-vertices;
    they change where left, out_of or the current path do, and a loop arc
    takes 2 off out_left (both its edge-ends are at pos).

    The search is one loop over a stack of frames [i, pos, edges, arc]:
    path i stands on pos, reached by arc (-1 where the path starts), and
    edges is None until the path extends from pos, then an iterator over
    the incident edges of pos still to try.  The stack's invariant: bottom
    to top, its arcs are the arcs placed, path after path; out_of[x] is
    the path that leaves x exactly while the frame at x extends, -1
    otherwise; and left, out_left and pending count just those arcs.  A
    frame extends on its first turn on top, unless pos has its out-arc, is
    a Q-vertex the path has reached, or fails the bound.  Placing an arc
    pushes its head's frame and then the stop there, before any
    extension: the last path's stop checks left, another path's pushes the
    next path's start.  A frame pops when its edges run out and undoes one
    thing: the arc that led to it, or the stop that started its path.  An
    arc back to the path's own start v is an arc into a Q-vertex, so the
    path stops there; and path i's vertices other than v are those it
    leaves, so out_of[nxt] == i is the repeat test.
    """
    us, vs = h.us, h.vs
    q_vertices = frozenset(us[eid] for eid in q_edges) | frozenset(vs[eid] for eid in q_edges)
    qvs = sorted(q_vertices)
    left = [h.degree(x) for x in range(h.n)]
    for eid in q_edges:
        left[us[eid]] -= 1
        left[vs[eid]] -= 1
    if not qvs or not all(left[v] for v in qvs):
        return None
    out_of = [-1] * h.n  # the path x's out-arc is on, or -1
    oriented: dict[int, tuple[int, int]] = {}
    out_left = 0
    pending = sum(left[u] for u in qvs[1:])
    stack = [[0, qvs[0], None, -1]]
    while stack:
        frame = stack[-1]
        i, pos, edges, arc = frame
        v = qvs[i]
        # a Q-vertex the path reaches is v or an earlier path's start, which
        # have their out-arcs, or a later path's start, pos > v
        if edges is None and out_of[pos] < 0 and not (pos > v and pos in q_vertices) \
                and left[pos] + pending + out_left <= 2 * (len(qvs) - i):
            out_of[pos] = i
            out_left += left[pos]
            frame[2] = edges = iter(h.incident_edges(pos))
        if edges is not None:
            for eid in edges:
                if eid in oriented or eid in q_edges:
                    continue
                nxt = vs[eid] if us[eid] == pos else us[eid]
                # nxt repeats a vertex of path i, or an end has no edge-end
                # left.  A loop at pos repeats pos unless pos is v: it lies
                # outside the Q boundary, so leaving it out keeps a
                # certificate valid
                if (nxt != v and out_of[nxt] == i) or left[pos] < 1 or left[nxt] < 1 + (nxt == pos):
                    continue
                left[pos] -= 1
                left[nxt] -= 1
                out_left -= 1 + (out_of[nxt] >= 0)
                pending -= nxt > v and nxt in q_vertices
                oriented[eid] = (pos, nxt)
                stack.append([i, nxt, None, eid])
                if i + 1 < len(qvs):
                    pending -= left[qvs[i + 1]]
                    stack.append([i + 1, qvs[i + 1], None, -1])
                elif all((left[x] == 0) == (out_of[x] >= 0) for x in range(h.n)):
                    cert = GoodSubgraphCertificate(
                        q_vertices=q_vertices,
                        q_edges=q_edges,
                        e_set=frozenset(oriented),
                        arcs=oriented,
                        paths={
                            u: tuple(a for j, _, _, a in stack if j == k and a >= 0)
                            for k, u in enumerate(qvs)
                        },
                    )
                    ok, why = verify_good_certificate(h, cert)
                    assert ok, why
                    return cert
                break
            else:
                out_of[pos] = -1
                out_left -= left[pos]
                edges = None
        if edges is None:
            stack.pop()
            if arc < 0:
                pending += left[pos]
            else:
                left[oriented.pop(arc)[0]] += 1
                left[pos] += 1
                out_left += 1 + (out_of[pos] >= 0)
                pending += pos > v and pos in q_vertices
    return None
