"""Dominating sets, paired-dominating sets, DP-pairs, DPDP recognition.

A DP-pair is a partition (D, P) of the vertex set where D is dominating
and P is paired-dominating (dominating plus a perfect matching inside P).
The search assigns vertices to D or P depth-first in BFS order from
vertex 0, with unit propagation of two sound rules (loops count for
neither domination nor matching):

  (1) A vertex, assigned or not, with no P-neighbour and exactly one
      unassigned neighbour w forces w into P.  Proof: a D-vertex needs a
      P-neighbour to be dominated by P, a P-vertex needs a P partner, and
      an unassigned vertex becomes one of the two.
  (2) A P-vertex v with exactly one P- or unassigned neighbour c must be
      matched to c, so the branch fails if another P-neighbour z of c has
      c as its only candidate too: c cannot be the partner of both.

Forcing leaves into D and supports into P (Obs 4.2) follows: a leaf's
one neighbour goes to P by (1), and the leaf, whose only neighbour is
then in P and so cannot dominate it from D, can only join D.  Every rule,
and every way a vertex can fail, needs the vertex to have at most one
unassigned neighbour, so a vertex is settled only when it has.

A connected component of G[P] whose vertices have no unassigned
neighbour is final: it is checked for a perfect matching as soon as it
closes, and the branch is pruned if it has none.  The check walks a
component only up to its first vertex with an unassigned neighbour.  A
component that closes is pushed, with its matching, onto a record stack,
tagged with the length of the assignment trail; undoing the trail to a
mark drops the records tagged past it.  A final component stays final
and is never walked again on its branch, since every vertex assigned
later is no neighbour of it.  So a complete assignment has one record per
component of G[P], and its matching is the union of theirs; P itself is
read from the assignment, and the pair is re-verified.

The search is set up once per graph g.  Set-up settles every vertex from
the empty assignment and propagates: the core, which every DP-pair of g
agrees with.  Every DP-pair of G - e is a DP-pair of g (supergraph
monotonicity), so the same engine decides each G - e from g's core
without building G - e: with edge e masked, only its endpoints' neighbour
rows and counters change, and settling the two endpoints, propagation
and the final-component check start there (a vertex the deletion
isolates fails at once, and a new leaf and its support are forced by the
same rules).  That check walks again every core component at or next to
an end of e, whether it holds one or not, and pushes a new record for
it; the pair's matching skips the core's record of such a component and
takes the new one, which is the one that holds in G - e (losing e can
split a component in two, each with its own record).  A masked search
drops its own records on exit.  Only a core that survives is searched,
in G - e's BFS order.  The lists are those of a search on the real G -
e, in the same order: the depth-first search in a fixed vertex order, D
before P, emits pairs in lexicographic order, and sound extra forcing
only prunes.  A component holding both ends of e is matched without e;
every other component's induced subgraph is g's own and shares one
memo.  Only a hit builds the real G - e, once, to re-verify the pair
there in G - e's edge ids.

Two pairs are the same iff their (D, P) partitions agree; matchings are
witnesses, not identity.  Every positive verdict carries a pair that
re-verifies under is_dp_pair on the graph it describes.
"""

from __future__ import annotations

from collections.abc import Callable

from .graph import Multigraph, _FrozenRecord

_UNSET, _D, _P = 0, 1, 2


class DpPair(_FrozenRecord):
    """Certificate of DPDP-ness: the partition plus a matching on P.

    A frozen value, equal and hashable by (d, p, matching)."""

    __slots__ = ("d", "p", "matching")
    __match_args__ = __slots__
    d: frozenset[int]
    p: frozenset[int]
    matching: tuple[int, ...]

    def partition(self) -> tuple[frozenset[int], frozenset[int]]:
        return (self.d, self.p)


def is_dominating(g: Multigraph, s: frozenset[int] | set[int]) -> bool:
    """True iff every vertex outside s has a neighbor in s."""
    ss = frozenset(s)
    return all(
        v in ss or not g.neighborhood(v).isdisjoint(ss) for v in range(g.n)
    )


def has_perfect_matching_on(
    g: Multigraph, s: frozenset[int] | set[int]
) -> tuple[int, ...] | None:
    """A perfect matching of the subgraph induced by s, as edge ids, or None.

    Loops never belong to a matching; a pair joined by parallel edges is
    matched by its lowest edge id.  Exact backtracking on an explicit
    stack: the lowest unmatched vertex is paired with each remaining
    neighbour in ascending order, and vertex sets that cannot be paired
    are memoised.  Agrees with exhaustive pairing and with networkx
    (oracle-tested).  Raises ValueError naming the least id in s that is
    not a vertex of g.
    """
    ss = frozenset(s)
    if ss and (min(ss) < 0 or max(ss) >= g.n):
        bad = min(v for v in ss if not 0 <= v < g.n)
        raise ValueError(f"malformed vertex id {bad}")
    return _matching(g, ss, None)


def _matching(
    g: Multigraph, ss: frozenset[int], skip: int | None
) -> tuple[int, ...] | None:
    """has_perfect_matching_on(g, ss) on g without the edge id skip (None
    masks nothing); the matching is in g's edge ids."""
    if len(ss) % 2:
        return None
    if not ss:
        return ()
    us, vs = g.us, g.vs
    if len(ss) == 2:
        # the backtracker's answer without its set-up: the lowest edge
        # joining the two vertices
        a, b = ss
        for eid in g.incident_edges(a):
            if eid != skip and (us[eid] == b or vs[eid] == b):
                return (eid,)
        return None
    # lowest edge id of every adjacent ordered pair in s; incident ids ascend
    eid_of: dict[tuple[int, int], int] = {}
    for u in ss:
        for eid in g.incident_edges(u):
            if eid == skip:
                continue
            w = vs[eid] if us[eid] == u else us[eid]
            if w != u and w in ss:
                eid_of.setdefault((u, w), eid)
    partners: dict[int, list[int]] = {u: [] for u in ss}
    for u, w in eid_of:
        partners[u].append(w)
    for ws in partners.values():
        ws.sort()
    dead: set[frozenset[int]] = set()
    # frames [remaining, u, remaining - {u}, index of u's current partner]
    stack: list[list] = []
    remaining = ss
    while True:
        if not remaining:
            return tuple(sorted(eid_of[u, partners[u][i]] for _, u, _, i in stack))
        if remaining not in dead:
            u = min(remaining)
            stack.append([remaining, u, remaining - {u}, -1])
        # move the top frame to its next partner; a frame with none left is dead
        while stack:
            frame = stack[-1]
            _, u, rest, i = frame
            ws = partners[u]
            i += 1
            while i < len(ws) and ws[i] not in rest:
                i += 1
            if i < len(ws):
                frame[3] = i
                remaining = rest - {ws[i]}
                break
            dead.add(frame[0])
            stack.pop()
        else:
            return None


def is_paired_dominating(g: Multigraph, s: frozenset[int] | set[int]) -> bool:
    # the matching first, so that its check of the ids runs on every s
    return has_perfect_matching_on(g, s) is not None and is_dominating(g, s)


def dp_pair_problem(g: Multigraph, pair: DpPair) -> str | None:
    """The first DP-pair invariant that pair breaks on g, or None."""
    d, p = pair.d, pair.p
    if d & p:
        return f"D and P overlap at vertex {min(d & p)}"
    if (d | p) != frozenset(range(g.n)):
        return "D and P do not partition the vertex set"
    if len(p) % 2:
        return f"P has odd size {len(p)}"
    # D and P partition the vertices, so only the other set's vertices need
    # a neighbour in s; a loop never gives a vertex outside s one in s
    plain = g.plain_neighbors
    for name, s, outside in (("D", d, p), ("P", p, d)):
        bad = [v for v in outside if plain(v).isdisjoint(s)]
        if bad:
            return f"{name} is not dominating: vertex {min(bad)} has no neighbour in it"
    covered: set[int] = set()
    for eid in pair.matching:
        if not (0 <= eid < g.m):
            return f"matching edge id {eid} is not an edge of the graph"
        a, b = g.us[eid], g.vs[eid]
        if a == b:
            return f"matching edge {eid} is a loop"
        if a not in p or b not in p:
            return f"matching edge {eid} leaves P"
        for x in (a, b):
            if x in covered:
                return f"vertex {x} is covered twice by the matching"
            covered.add(x)
    if covered != p:
        return f"the matching leaves P-vertex {min(p - covered)} uncovered"
    return None


def is_dp_pair(g: Multigraph, pair: DpPair) -> bool:
    """Literal check of every DP-pair invariant against g."""
    return dp_pair_problem(g, pair) is None


def enumerate_dp_pairs(g: Multigraph, cap: int) -> list[DpPair]:
    """All distinct DP-pair partitions, up to cap, in deterministic order.

    Order: depth-first over vertices in BFS order from vertex 0, trying D
    before P at every branch.
    """
    return _dp_search(g)(cap)


def _dp_search(g: Multigraph) -> Callable[..., list[DpPair]]:
    """Set up the DP-pair search on g once and return search(cap, skip=None):
    enumerate_dp_pairs(g, cap), or with skip an edge id, the same list for
    G - skip, matchings in G - skip's edge ids, searched on g's adjacency
    with that edge masked.

    Set-up settles every vertex of g from the empty assignment, propagates
    to the fixpoint of the two rules (so g's leaves are in D and its
    supports in P), and checks the P-components this closes: the core.  A
    contradictory core answers [] for g and every G - skip.  Each search
    starts from the core and returns the engine to it, so one engine
    answers any sequence of questions.

    Every vertex keeps its neighbour counts per state.  Assigning a vertex
    is one pass over its row: each neighbour's counts move and settle(),
    which applies the DP rules at one vertex, checks it and pushes the
    moves it forces at once; then the vertex itself is settled.  The
    masked set-up settles the edge's two endpoints the same way.  Every
    emitted pair is re-verified on its host, g or G - skip built at the
    first hit, with is_dp_pair and the Obs 4.2 containments; a host's
    leaves and supports are computed once, when the host is.
    """
    n = g.n
    nbrs = [sorted(g.plain_neighbors(v)) for v in range(n)]
    state = [_UNSET] * n
    # cnt[v][s] = neighbours of v in state s (unassigned, D, P)
    cnt = [[len(row), 0, 0] for row in nbrs]
    trail: list[int] = []
    # (trail length, vertices, matching) of every final P-component closed
    # on the current branch, the core's first
    closed: list[tuple[int, list[int], tuple[int, ...]]] = []
    # perfect matching (or None) of every final P-component met so far; a
    # component holding both ends of the masked edge is the only one whose
    # induced subgraph the mask changes, and it goes to that search's memo
    shared: dict[frozenset[int], tuple[int, ...] | None] = {}
    masked: tuple[int, int, int, dict] | None = None  # (skip, a, b, memo)

    def settle(v: int, queue: list[tuple[int, int]]) -> bool:
        """The DP rules at v on its current counters: False if v can no
        longer be satisfied, else push the moves they force onto queue.

        Every vertex needs a P-neighbour (rule 1 in the module docstring),
        so v fails with no P- or unassigned neighbour, and with no
        P-neighbour and one unassigned neighbour w left it forces w to P.
        An unassigned vertex with no D- or unassigned neighbour can only
        join D; a P-vertex with none is not dominated by D, and with one
        unassigned neighbour w left and no D-neighbour it forces w to D
        (both forces at once is a conflict propagate() reports).  A
        P-vertex with one candidate partner c left fails if another
        P-neighbour of c has c as its only candidate too (rule 2).

        Each of these needs v to have at most one unassigned neighbour:
        with two or more, v has a P- or unassigned neighbour and a D- or
        unassigned one, no lone unassigned neighbour to force, and two
        candidate partners.  So settle(v) does nothing then, and
        propagate() and the set-up call it only while cnt[v][0] < 2.
        """
        ucnt, dcnt, pcnt = cnt[v]
        if pcnt + ucnt < 1:
            return False
        side = state[v]
        if side == _UNSET:
            if dcnt + ucnt < 1:
                queue.append((v, _D))
        elif side == _P and dcnt + ucnt < 1:
            return False
        if ucnt == 1 and (pcnt == 0 or side == _P and dcnt == 0):
            for w in nbrs[v]:
                if state[w] == _UNSET:
                    break
            if side == _P and dcnt == 0:
                queue.append((w, _D))
            if pcnt == 0:
                queue.append((w, _P))
        if side == _P and pcnt + ucnt == 1:
            for c in nbrs[v]:
                if state[c] != _D:
                    break
            for z in nbrs[c]:
                if z != v and state[z] == _P and cnt[z][0] + cnt[z][2] == 1:
                    return False
        return True

    def propagate(queue: list[tuple[int, int]]) -> bool:
        """Make the queued assignments with unit propagation; False on
        contradiction.  Assigning x is one pass over x's row that moves
        each neighbour's counters and settles it at once, then x itself
        (x's own counters do not depend on its side)."""
        while queue:
            x, s = queue.pop()
            if state[x] != _UNSET:
                if state[x] != s:
                    return False
                continue
            state[x] = s
            trail.append(x)
            row = nbrs[x]
            for y in row:
                c = cnt[y]
                c[0] -= 1
                c[s] += 1
                if c[0] < 2 and not settle(y, queue):
                    # finish x's counter moves, so that undo() can take x back
                    for z in row[row.index(y) + 1 :]:
                        c = cnt[z]
                        c[0] -= 1
                        c[s] += 1
                    return False
            if cnt[x][0] < 2 and not settle(x, queue):
                return False
        return True

    def undo(mark: int) -> None:
        while closed and closed[-1][0] > mark:
            closed.pop()
        while len(trail) > mark:
            x = trail.pop()
            s = state[x]
            state[x] = _UNSET
            for u in nbrs[x]:
                cnt[u][0] += 1
                cnt[u][s] -= 1

    def component_matching(key: frozenset[int]) -> tuple[int, ...] | None:
        memo, skip = shared, None
        if masked is not None and masked[1] in key and masked[2] in key:
            skip, _, _, memo = masked
        if key not in memo:
            # an unmasked matching keeps the public entry, so that a
            # wrapper around it sees every matching made on g itself
            memo[key] = (
                has_perfect_matching_on(g, key)
                if skip is None
                else _matching(g, key, skip)
            )
        return memo[key]

    def final_components_match(starts: list[int]) -> bool:
        """False if a P-component at or next to a vertex of starts is final
        (none of its vertices has an unassigned neighbour) and has no
        perfect matching; every other final one is pushed onto closed."""
        done: set[int] = set()
        for x in starts:
            for z in (x, *nbrs[x]):
                if state[z] != _P or cnt[z][0] or z in done:
                    continue
                # walk z's component in G[P] up to its first vertex with an
                # unassigned neighbour
                comp = [z]
                seen = {z}
                for y in comp:
                    if cnt[y][0]:
                        break
                    for w in nbrs[y]:
                        if state[w] == _P and w not in seen:
                            seen.add(w)
                            comp.append(w)
                else:
                    matching = None if len(comp) % 2 else component_matching(frozenset(comp))
                    if matching is None:
                        return False
                    closed.append((len(trail), comp, matching))
                done |= seen
        return True

    def walk(cap: int) -> list[DpPair]:
        """Up to cap complete assignments extending the current one, in
        depth-first order over the BFS order of the current rows, D before
        P; each is re-verified on the graph it describes."""
        # the graph every hit is re-verified on, with its leaves, supports
        # and the map from g's edge ids to its own: g's, or G - skip's,
        # built at the first hit
        host = g_host if masked is None else None
        # closed[:top] is the core's records, then the masked set-up's
        top = len(closed)
        results: list[DpPair] = []

        def emit() -> None:
            nonlocal host
            p = frozenset(v for v in range(n) if state[v] == _P)
            d = frozenset(range(n)) - p
            if host is None:
                h, id_map = g.delete_edge(masked[0])
                # the masked set-up closed again every core component at or
                # next to an end of the edge; its records replace those
                fresh = closed[ncore:top]
                again = {v for _, comp, _ in fresh for v in comp}
                base = [eid for _, comp, m in closed[:ncore] if comp[0] not in again for eid in m]
                base += [eid for _, _, m in fresh for eid in m]
                host = (h, h.leaves(), h.supports(), id_map, base)
            h, leaves, supports, id_map, base = host
            # every component of G[P] is final here and has one record, made
            # when it closed
            matching = base + [eid for _, _, m in closed[top:] for eid in m]
            if id_map is not None:
                matching = [id_map[eid] for eid in matching]
            pair = DpPair(d, p, tuple(sorted(matching)))
            # Obs 4.2 containments and the full invariant, re-checked on
            # every hit
            assert leaves <= d and supports <= p
            assert is_dp_pair(h, pair), dp_pair_problem(h, pair)
            results.append(pair)

        # BFS order from vertex 0, then from the next unvisited id
        order: list[int] = []
        seen = [False] * n
        for root in range(n):
            if seen[root]:
                continue
            seen[root] = True
            head = len(order)
            order.append(root)
            while head < len(order):
                for w in nbrs[order[head]]:
                    if not seen[w]:
                        seen[w] = True
                        order.append(w)
                head += 1

        # Depth-first over positions in order, D before P; a frame is
        # [position, trail mark before its vertex, side tried last].
        stack: list[list[int]] = []

        def descend(pos: int) -> None:
            """Emit a complete assignment, else open a frame at the next
            unassigned position from pos on."""
            while pos < n and state[order[pos]] != _UNSET:
                pos += 1
            if pos == n:
                emit()
            else:
                stack.append([pos, len(trail), _UNSET])

        descend(0)
        while stack and len(results) < cap:
            frame = stack[-1]
            pos, frame_mark, side = frame
            undo(frame_mark)
            if side == _P:
                stack.pop()
                continue
            side = frame[2] = _D if side == _UNSET else _P
            if propagate([(order[pos], side)]) and final_components_match(
                trail[frame_mark:]
            ):
                descend(pos + 1)
        return results

    def search(cap: int, skip: int | None = None) -> list[DpPair]:
        nonlocal masked
        if cap < 1:
            raise ValueError("cap must be >= 1")
        if not alive:
            return []
        if skip is None:
            results = walk(cap)
            undo(core)
            return results
        a, b = g.us[skip], g.vs[skip]
        # a and b stop being plain neighbours unless a parallel edge remains;
        # only their rows and counters change
        cut = a != b and not any(
            eid != skip and (g.us[eid] == b or g.vs[eid] == b)
            for eid in g.incident_edges(a)
        )
        if cut:
            rows = nbrs[a], nbrs[b]
            nbrs[a] = [w for w in rows[0] if w != b]
            nbrs[b] = [w for w in rows[1] if w != a]
            cnt[a][state[b]] -= 1
            cnt[b][state[a]] -= 1
        masked = (skip, a, b, {})
        # no other vertex's counters changed, so only a and b need settling
        queue: list[tuple[int, int]] = []
        ok = (
            settle(a, queue)
            and settle(b, queue)
            and propagate(queue)
            and final_components_match(trail[core:] + [a, b])
        )
        results = walk(cap) if ok else []
        undo(core)
        del closed[ncore:]
        if cut:
            nbrs[a], nbrs[b] = rows
            cnt[a][state[b]] += 1
            cnt[b][state[a]] += 1
        masked = None
        return results

    # the core: every vertex settled from the empty assignment, propagated
    queue = []
    alive = (
        all(settle(v, queue) for v in range(n) if cnt[v][0] < 2)
        and propagate(queue)
        and final_components_match(trail)
    )
    core, ncore = len(trail), len(closed)
    g_host = (g, g.leaves(), g.supports(), None, [eid for _, _, m in closed for eid in m])
    return search


def find_dp_pair(g: Multigraph) -> DpPair | None:
    """A verified DP-pair if one exists, else None."""
    pairs = enumerate_dp_pairs(g, cap=1)
    return pairs[0] if pairs else None


def is_dpdp(g: Multigraph) -> bool:
    return find_dp_pair(g) is not None
