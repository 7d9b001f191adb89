"""Minimal-DPDP decisions, three independent ways, plus cross-validation.

A DPDP-graph is minimal when no proper spanning subgraph is a DPDP-graph;
by supergraph monotonicity it suffices to test single-edge deletions.
The two other characterizations run through the 2-subdivision inversion:
either the canonical (old, new) partition is the unique DP-pair (or the
graph is a cycle of length 3, 6 or 9), or the recovered base graph has no
good subgraph.  xcheck asserts the three verdicts agree; any disagreement
is a hard failure of the whole artifact.  _first_deletion is the one
scan over edge deletions; a question that also needs g's own DP-pairs
asks both of one DP search (_pairs_and_witness), whose pairs then decide
the deletions they survive, and classify and xcheck share one evaluator.

On a 2-subdivision the evaluator answers each "yes" from the deletion
witness and each "no" from an exhaustive search.  The witness pair of
S2(H) - e yields a verified good-subgraph certificate of H and, its
partition not being the canonical one, a second DP-pair of S2(H), so
find_good_subgraph runs only on a minimal S2(H) or where the read
fails, and the capped DP-pair enumeration only on a minimal S2(H).  xcheck still catches a minimal
base on which either exhaustive engine finds what the deletion scan
says cannot exist, and a non-minimal one on which a read fails and the
engine it falls back to finds nothing.  That the exhaustive engines find
a certificate and a second pair on every non-minimal base is checked by
the tests instead (simple_n7.g6 engine by engine, and the certificate
digests), not by each xcheck.
"""

from __future__ import annotations

from .domination import DpPair, _dp_search, dp_pair_problem, is_dominating, is_dp_pair
from .goodsub import GoodSubgraphCertificate, find_good_subgraph
from .graph import Multigraph, _Record, is_cycle_graph
from .subdivision import S2Labeling, _read_certificate, build_s2, canonical_dp_pair, invert_s2


class MinimalityReport(_Record):
    """All engine outputs for one graph.

    good_subgraph is a verified certificate for the recovered base, but
    not necessarily find_good_subgraph's first: on a non-minimal
    2-subdivision it is read off the deletion witness's DP-pair.  dpdp
    goodsub keeps the walk's first certificate."""

    __slots__ = (
        "is_dpdp", "minimal_by_deletion", "inversion", "good_subgraph",
        "dp_pair_count_capped", "verdicts_consistent",
    )
    __match_args__ = __slots__
    is_dpdp: bool
    minimal_by_deletion: bool
    inversion: tuple[Multigraph, dict[int, int]] | None
    good_subgraph: GoodSubgraphCertificate | None
    dp_pair_count_capped: int
    verdicts_consistent: bool


class XcheckResult(_Record):
    """Three-way verdict for the 2-subdivision of a given base graph."""

    __slots__ = (
        "base_n", "base_m", "minimal_by_deletion", "no_good_subgraph",
        "unique_pair_or_small_cycle",
    )
    __match_args__ = __slots__
    base_n: int
    base_m: int
    minimal_by_deletion: bool
    no_good_subgraph: bool
    unique_pair_or_small_cycle: bool

    @property
    def consistent(self) -> bool:
        return (
            self.minimal_by_deletion
            == self.no_good_subgraph
            == self.unique_pair_or_small_cycle
        )


def is_minimal_by_deletion(g: Multigraph) -> bool:
    """DPDP, and no single edge can be deleted without losing DPDP-ness."""
    pairs, witness = _pairs_and_witness(g, 1)
    return bool(pairs) and witness is None


def deletion_witness(g: Multigraph) -> int | None:
    """Lowest edge id whose removal keeps g DPDP, or None.  g itself is not
    searched: by supergraph monotonicity a g that is not DPDP also yields
    None.  The DP search is set up on g once, and each edge is a masked
    search that starts from g's forced core and changes only the edge's
    two endpoints, so no G - e is built unless it is DPDP (the search then
    re-verifies its pair there).  A deletion that isolates a vertex, and
    every deletion from a g whose core is contradictory, is decided
    without a search."""
    return _first_deletion(g, _dp_search(g), [])[0]


def _pairs_and_witness(g: Multigraph, cap: int) -> tuple[list[DpPair], int | None]:
    """enumerate_dp_pairs(g, cap) and, if it finds a pair,
    deletion_witness(g), both from one DP search set up once; the pairs
    found decide the deletions they survive."""
    search = _dp_search(g)
    pairs = search(cap)
    return pairs, _first_deletion(g, search, pairs)[0] if pairs else None


def _first_deletion(
    g: Multigraph, search, pairs: list[DpPair]
) -> tuple[int, DpPair] | tuple[None, None]:
    """The deletion scan of deletion_witness on the search _dp_search set
    up on g, given DP-pairs of g already found: the witness e and a DP-pair
    of G - e, in G - e's edge ids, that shows it, or (None, None).

    A pair of g that is still a DP-pair of G - e decides e without a
    search, and _kept_by finds the lowest such e of each pair.  The masked
    searches run on every lower edge, in order, so the witness is the one
    the searches alone would give, and a None (g minimal) still needs
    every masked search to fail.  A pair that decides the witness is
    re-verified on the real G - e, in its edge ids, with is_dp_pair and
    the Obs 4.2 containments, as a hit of the search is."""
    known, pair = g.m, None
    for p in pairs:
        eid = _kept_by(g, p)
        if eid < known:
            known, pair = eid, p
    for eid in range(known):
        hits = search(1, eid)
        if hits:
            return eid, hits[0]
    if pair is None:
        return None, None
    h, id_map = g.delete_edge(known)
    kept = DpPair(pair.d, pair.p, tuple(id_map[eid] for eid in pair.matching))
    assert h.leaves() <= kept.d and h.supports() <= kept.p
    assert is_dp_pair(h, kept), dp_pair_problem(h, kept)
    return known, kept


def _kept_by(g: Multigraph, pair: DpPair) -> int:
    """The lowest edge id e such that pair, a DP-pair of g, is a DP-pair of
    G - e, or g.m if there is none.  Loops count for neither domination
    nor matching, and an edge inside D or P dominates nothing, so pair
    survives deleting a loop or a same-side edge outside its matching.  A
    D-P edge is the only thing that lets its D-end be dominated by P and
    its P-end by D, so pair survives deleting it iff both ends keep
    another D-P edge."""
    d = pair.d
    cross = [0] * g.n  # D-P edges at each vertex, parallel ones counted
    for u, v in zip(g.us, g.vs):
        if (u in d) != (v in d):
            cross[u] += 1
            cross[v] += 1
    matched = set(pair.matching)
    for eid, (u, v) in enumerate(zip(g.us, g.vs)):
        if (u in d) == (v in d):
            if eid not in matched:
                return eid
        elif cross[u] > 1 and cross[v] > 1:
            return eid
    return g.m


def check_reducible_pattern(h: Multigraph) -> tuple[int, int, int, int] | None:
    """Witness (x, y, x', y') of two adjacent degree-2 vertices whose outer
    neighbours both still see something else; its presence forces the
    2-subdivision of h to be non-minimal."""
    if any(h.degree(v) == 0 for v in range(h.n)):
        raise ValueError("graph must have no isolated vertex")
    for u, v in zip(h.us, h.vs):
        if u == v:
            continue
        for x, y in ((u, v), (v, u)):
            if h.degree(x) != 2 or h.degree(y) != 2:
                continue
            xs = h.neighborhood(x) - {y}
            ys = h.neighborhood(y) - {x}
            if len(xs) != 1 or len(ys) != 1:
                continue
            x1 = next(iter(xs))
            y1 = next(iter(ys))
            if (h.neighborhood(x1) - {x, y}) and (h.neighborhood(y1) - {x, y}):
                return (x, y, x1, y1)
    return None


def minimal_spanning_dpdp_subgraph(g: Multigraph) -> Multigraph | None:
    """Greedy extraction: repeatedly delete the lowest-id edge whose removal
    keeps the graph DPDP.  None iff g is not DPDP.  Whether g is DPDP and
    its first deletion come from one DP search; the pair that shows a
    deletion keeps the graph DPDP is a DP-pair of the smaller graph, and
    that graph's scan starts from it."""
    search = _dp_search(g)
    pairs = search(1)
    if not pairs:
        return None
    eid, pair = _first_deletion(g, search, pairs)
    while eid is not None:
        g, _ = g.delete_edge(eid)
        eid, pair = _first_deletion(g, _dp_search(g), [pair])
    return g


def is_small_cycle_369(g: Multigraph) -> bool:
    """Structurally a cycle of length 3, 6 or 9 (no isomorphism test)."""
    return g.n in (3, 6, 9) and is_cycle_graph(g)


def _evaluate(
    g: Multigraph, lab: S2Labeling | None
) -> tuple[int, bool, GoodSubgraphCertificate | None, bool, bool]:
    """Every question once on g, whose 2-subdivision labeling is lab (None
    if g is none): g's DP-pair count capped at 2, the deletion verdict, a
    good-subgraph certificate of the base, and the good-subgraph and
    uniqueness verdicts.  Those two speak for minimality only on a
    connected non-empty base (the Theorem), and only there are they read:
    xcheck refuses any other base, and classify reads them only when g
    is connected with n >= 3, so that its base is too.

    On an S2 graph each "yes" is certified from the deletion witness and
    each "no" comes from an exhaustive search.  The canonical pair is
    re-verified but decides no deletion (_kept_by: each of its D-P edges
    has an end with no other), so the scan is deletion_witness's, a
    masked search on every edge up to the witness, all of which fail
    before g is called minimal.  A witness e comes with a DP-pair of
    S2(H) - e, and so of g.  Its D gives a good-subgraph certificate of H
    (_read_certificate, verified).  Its partition is a second DP-pair of
    g, since the canonical partition is that of no DP-pair of S2(H) - e:
    a middle edge is the only P-neighbour of both its ends, and an
    attachment is the only D-P edge at its new vertex (the old end a
    non-leaf) or at its leaf copy.  find_good_subgraph runs only on a
    minimal g, to prove the "no", or where the read missed, and search(2)
    only on a minimal g.
    """
    if lab is None:
        pairs, witness = _pairs_and_witness(g, 2)
        return len(pairs), bool(pairs) and witness is None, None, False, False
    search = _dp_search(g)
    canonical = canonical_dp_pair(lab)
    assert is_dp_pair(g, canonical), dp_pair_problem(g, canonical)
    witness, kept = _first_deletion(g, search, [])
    cert = _read_certificate(lab, kept.d) if witness is not None else None
    if cert is None:
        cert = find_good_subgraph(lab.base)
    if witness is None:
        pairs = search(2)
        count = len(pairs)
        # a unique pair is necessarily the canonical one; assert it anyway
        assert pairs and (count == 2 or pairs[0].partition() == canonical.partition())
    else:
        assert kept.partition() != canonical.partition()
        count = 2
    return count, witness is None, cert, cert is None, is_small_cycle_369(g) or count == 1


def classify(g: Multigraph) -> MinimalityReport:
    """Run every engine on g.

    Verdict consistency is the Theorem about connected graphs of order at
    least three; outside those hypotheses it is reported vacuously true.
    """
    inv = invert_s2(g)
    lab = inv[2] if inv is not None else None
    count, minimal, cert, by_goodsub, by_unique = _evaluate(g, lab)
    if g.n >= 3 and g.is_connected():
        consistent = minimal == by_unique == by_goodsub
    else:
        consistent = True
    return MinimalityReport(
        is_dpdp=count > 0,
        minimal_by_deletion=minimal,
        inversion=inv[:2] if inv is not None else None,
        good_subgraph=cert,
        dp_pair_count_capped=count,
        verdicts_consistent=consistent,
    )


def xcheck(h: Multigraph) -> XcheckResult:
    """Cross-validate the three characterizations on the 2-subdivision of h
    (alpha identically 1).  Requires h connected with no isolated vertex."""
    if h.n == 0 or not h.is_connected():
        raise ValueError("xcheck needs a connected base graph")
    if any(h.degree(v) == 0 for v in range(h.n)):
        raise ValueError("xcheck base graph must have no isolated vertex")
    g, lab = build_s2(h)
    _, minimal, _, by_goodsub, by_unique = _evaluate(g, lab)
    return XcheckResult(
        base_n=h.n,
        base_m=h.m,
        minimal_by_deletion=minimal,
        no_good_subgraph=by_goodsub,
        unique_pair_or_small_cycle=by_unique,
    )


# -- structural properties of DP-pairs in minimal graphs -----------------------


def minimal_pair_properties(g: Multigraph, pair: DpPair) -> tuple[bool, bool, bool]:
    """The three structural facts every DP-pair of a minimal DPDP-graph
    satisfies: D is a maximal independent set, the subgraph induced by P
    is 1-regular, and each P-vertex has exactly one neighbour outside P
    unless all its outside neighbours are leaves (and there is one)."""
    d, p = pair.d, pair.p
    independent = all(not (u in d and v in d) for u, v in zip(g.us, g.vs))
    maximal_independent = independent and is_dominating(g, d)

    induced_ends = {v: 0 for v in p}
    for u, v in zip(g.us, g.vs):
        if u in p and v in p:
            induced_ends[u] += 1
            induced_ends[v] += 1  # a loop lands both ends on one vertex
    one_regular = all(d == 1 for d in induced_ends.values())

    leaves = g.leaves()
    neighborhood_ok = True
    for x in p:
        outside = g.neighborhood(x) - p
        if len(outside) == 1:
            continue
        if outside and outside <= leaves:
            continue
        neighborhood_ok = False
        break
    return maximal_independent, one_regular, neighborhood_ok
