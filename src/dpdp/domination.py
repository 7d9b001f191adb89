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
component that closes writes each of its matching edges at both ends,
as the mate of each end.  At a complete assignment the pair's matching
is the set of mates of the P-vertices, since each P-vertex's last write
came from its current component's closing on the current branch: a
final component stays final and is never walked again on its branch,
since every vertex assigned later is no neighbour of it, and every
component closed after it is disjoint from it; any earlier write came
from a branch since undone, or from the core, and that closing
overwrote it.  P itself is read from the assignment, and the pair is
re-verified.

The search is set up once per graph g.  Set-up settles every vertex from
the empty assignment and propagates: the core, which every DP-pair of g
agrees with.  Every DP-pair of G - e is a DP-pair of g (supergraph
monotonicity), so the same engine decides each G - e from g's core
without building G - e: with edge e masked, only its endpoints' neighbour
rows and counters change, and settling the two endpoints, propagation
and the final-component check start there (a vertex the deletion
isolates fails at once, and a new leaf and its support are forced by the
same rules).  That check walks again every core component at or next to
an end of e, whether it holds one or not, and rewrites its mates with
the matching that holds in G - e (losing e can split a component in
two, each matched alone).  Every other core component holds neither end
of e, so its core mates hold in G - e too.  A masked search ends by
restoring the core's mates, which undoes the set-up's rewrites for the
next question.  Only a core that survives is searched,
in G - e's BFS order.  The lists are those of a search on the real G -
e, in the same order: the depth-first search in a fixed vertex order, D
before P, emits pairs in lexicographic order, and sound extra forcing
only prunes.  A component holding both ends of e is matched without e;
every other component's induced subgraph is g's own.  One memo serves
every search, keyed by the component and the edge it is matched
without, if any.  Only a hit builds the real G - e, once, to re-verify
the pair there in G - e's edge ids.

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


def _vertex_set(g: Multigraph, s: frozenset[int] | set[int]) -> frozenset[int]:
    """s as a frozenset; raises ValueError naming the least id in s that is
    not a vertex of g."""
    ss = frozenset(s)
    if ss and (min(ss) < 0 or max(ss) >= g.n):
        bad = min(v for v in ss if not 0 <= v < g.n)
        raise ValueError(f"malformed vertex id {bad}")
    return ss


def is_dominating(g: Multigraph, s: frozenset[int] | set[int]) -> bool:
    """True iff every vertex outside s has a neighbor in s.  Raises
    ValueError naming the least id in s that is not a vertex of g."""
    ss = _vertex_set(g, s)
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
    return _matching(g, _vertex_set(g, s), None)


def _matching(
    g: Multigraph, ss: frozenset[int], skip: int | None
) -> tuple[int, ...] | None:
    """has_perfect_matching_on(g, ss) on g without the edge id skip (None
    masks nothing); the matching is in g's edge ids."""
    if len(ss) % 2:
        return None
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
    takes two passes over its row: the first moves every neighbour's
    counts, the second runs settle(), which applies the DP rules at one
    vertex, checks it and pushes the moves it forces, on each neighbour
    with fewer than two unassigned neighbours; then the vertex itself is
    settled.  The masked set-up settles the edge's two endpoints the same
    way.  Every emitted pair is re-verified with is_dp_pair on its host,
    g or G - skip built at a search's first hit.
    """
    n = g.n
    nbrs = [sorted(g.plain_neighbors(v)) for v in range(n)]
    state = [_UNSET] * n
    # cnt[v][s] = neighbours of v in state s (unassigned, D, P)
    cnt = [[len(row), 0, 0] for row in nbrs]
    trail: list[int] = []
    # mate[v] = the matching edge at v, written when v's final P-component
    # closes
    mate = [-1] * n
    # perfect matching (or None) of every final P-component met so far,
    # keyed by (component, the masked edge if the component holds both its
    # ends, else None): only such a component's induced subgraph the mask
    # changes
    memo: dict[tuple[frozenset[int], int | None], tuple[int, ...] | None] = {}
    masked: int | None = None  # the edge id a search masks

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
        contradiction.  Assigning x moves every neighbour's counters in one
        pass over x's row, so undo() can take x back whichever settle
        fails, then settles each neighbour left with fewer than two
        unassigned neighbours, then x itself (x's own counters do not
        depend on its side)."""
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
            for y in (*row, x):
                if cnt[y][0] < 2 and not settle(y, queue):
                    return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            x = trail.pop()
            s = state[x]
            state[x] = _UNSET
            for u in nbrs[x]:
                cnt[u][0] += 1
                cnt[u][s] -= 1

    def component_matching(comp: frozenset[int]) -> tuple[int, ...] | None:
        skip = masked if masked is not None and {g.us[masked], g.vs[masked]} <= comp else None
        if (comp, skip) not in memo:
            memo[comp, skip] = _matching(g, comp, skip)
        return memo[comp, skip]

    def final_components_match(starts: list[int]) -> bool:
        """False if a P-component at or next to a vertex of starts is final
        (none of its vertices has an unassigned neighbour) and has no
        perfect matching; every other final one writes its matching into
        mate."""
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
                    for eid in matching:
                        mate[g.us[eid]] = mate[g.vs[eid]] = eid
                done |= seen
        return True

    def walk(cap: int) -> list[DpPair]:
        """Up to cap complete assignments extending the current one, in
        depth-first order over the BFS order of the current rows, D before
        P; each is re-verified on the graph it describes."""
        # the graph every hit is re-verified on, with the map from g's edge
        # ids to its own (None for g): g, or G - skip, built at the first hit
        host = None
        results: list[DpPair] = []

        def emit() -> None:
            """Append the complete assignment's pair, re-verified on host.

            is_dp_pair implies Obs 4.2 (leaves in D, supports in P), so
            that is not checked apart.  A leaf x has degree 1, so no loop
            and one edge, to some s != x.  Were x in P, its matching edge
            would be xs, so s would be in P and x would have no neighbour
            in D.  So x is in D, and P's domination clause gives it a
            neighbour in P, which can only be s."""
            nonlocal host
            p = frozenset(v for v in range(n) if state[v] == _P)
            d = frozenset(range(n)) - p
            if host is None:
                host = (g, None) if masked is None else g.delete_edge(masked)
            h, id_map = host
            # every component of G[P] is final here, and its closing on this
            # branch wrote each P-vertex's mate last
            matching = {mate[v] for v in p}
            if id_map is not None:
                matching = [id_map[eid] for eid in matching]
            pair = DpPair(d, p, tuple(sorted(matching)))
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
        cut = a != b and _matching(g, frozenset((a, b)), skip) is None
        if cut:
            rows = nbrs[a], nbrs[b]
            nbrs[a] = [w for w in rows[0] if w != b]
            nbrs[b] = [w for w in rows[1] if w != a]
            cnt[a][state[b]] -= 1
            cnt[b][state[a]] -= 1
        masked = skip
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
        # the set-up closed core components again without the edge
        mate[:] = core_mate
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
    core, core_mate = len(trail), mate.copy()
    return search


def find_dp_pair(g: Multigraph) -> DpPair | None:
    """A verified DP-pair if one exists, else None."""
    pairs = enumerate_dp_pairs(g, cap=1)
    return pairs[0] if pairs else None


def is_dpdp(g: Multigraph) -> bool:
    return find_dp_pair(g) is not None
