"""Command-line front end: ingest graphs, run engines, emit certificates.

Verdicts are JSON objects with the fixed key set {"command",
"engine_version", "input", "result"}; vertex sets are ascending integer
arrays and edges are [u, v, id] triples, so any certificate can be
re-checked by a short external script.  Output is byte-deterministic for
a fixed input and flag set.  Exit codes: 0 = computed (whatever the
verdict), 1 = input error, 2 = cross-validation disagreement.

Survey and xcheck fan out over a process pool sized by the DPDP_WORKERS
environment variable (default: available parallelism); results are
emitted in input order regardless.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import __version__
from .catalog import (
    enumerate_connected_multigraphs,
    read_edge_list,
    read_graph6,
    read_graph6_file,
    write_dot,
    write_edge_list,
)
from .domination import DpPair, enumerate_dp_pairs, find_dp_pair, is_dp_pair
from .goodsub import find_good_subgraph, verify_good_certificate
from .graph import Multigraph
from .minimality import deletion_witness, is_minimal_by_deletion, xcheck
from .subdivision import S2Labeling, build_s2, invert_s2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors: exit 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_graph(path: str, fmt: str) -> Multigraph:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    if fmt == "g6":
        return read_graph6(text)
    return read_edge_list(text)


def _edge_triples(g: Multigraph, eids) -> list[list[int]]:
    out = []
    for eid in sorted(eids):
        e = g.edges[eid]
        out.append([e.u, e.v, e.id])
    return out


def _graph_json(g: Multigraph) -> dict:
    return {"n": g.n, "m": g.m, "edges": _edge_triples(g, range(g.m))}


def _pair_json(g: Multigraph, pair: DpPair) -> dict:
    return {
        "d": sorted(pair.d),
        "p": sorted(pair.p),
        "matching": _edge_triples(g, pair.matching),
    }


def _cert_json(h: Multigraph, cert) -> dict:
    return {
        "q_vertices": sorted(cert.q_vertices),
        "q_edges": _edge_triples(h, cert.q_edges),
        "e_set": _edge_triples(h, cert.e_set),
        "arcs": [[eid, t, head] for eid, (t, head) in sorted(cert.arcs.items())],
        "paths": {str(v): list(arcs) for v, arcs in sorted(cert.paths.items())},
    }


def _labeling_json(lab: S2Labeling) -> dict:
    return {
        "base": _graph_json(lab.base),
        "alpha": {str(v): a for v, a in sorted(lab.alpha.items())},
        "provenance": [list(tag) for tag in lab.provenance],
    }


def _emit(command: str, input_id: str, result: dict) -> None:
    payload = {
        "command": command,
        "engine_version": __version__,
        "input": input_id,
        "result": result,
    }
    print(json.dumps(payload, sort_keys=True, indent=2))


def _parse_alpha(spec: str | None) -> dict[int, int]:
    if not spec:
        return {}
    alpha: dict[int, int] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            leaf, count = item.split(":")
            alpha[int(leaf)] = int(count)
        except ValueError:
            raise ValueError(f"bad --alpha entry {item!r}, expected leafId:count")
    return alpha


def _workers() -> int:
    env = os.environ.get("DPDP_WORKERS")
    if env:
        try:
            k = int(env)
        except ValueError:
            raise ValueError(f"DPDP_WORKERS must be an integer, got {env!r}")
        return max(1, k)
    return os.cpu_count() or 1


def _pool_map(fn, items):
    workers = _workers()
    items = list(items)
    if workers == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# -- subcommands ----------------------------------------------------------------


def cmd_check(args) -> int:
    g = _load_graph(args.file, args.format)
    pair = find_dp_pair(g)
    if pair is not None:
        assert is_dp_pair(g, pair)
    _emit(
        "check",
        args.file,
        {"dpdp": pair is not None, "n": g.n, "m": g.m,
         "pair": _pair_json(g, pair) if pair else None},
    )
    return 0


def cmd_pairs(args) -> int:
    g = _load_graph(args.file, args.format)
    pairs = enumerate_dp_pairs(g, cap=args.cap)
    for p in pairs:
        assert is_dp_pair(g, p)
    _emit(
        "pairs",
        args.file,
        {"cap": args.cap, "count": len(pairs),
         "pairs": [_pair_json(g, p) for p in pairs]},
    )
    return 0


def cmd_minimal(args) -> int:
    g = _load_graph(args.file, args.format)
    pair = find_dp_pair(g)
    witness = deletion_witness(g)
    minimal = pair is not None and witness is None
    result = {
        "dpdp": pair is not None,
        "minimal": minimal,
        "witness_edge": _edge_triples(g, [witness])[0] if witness is not None else None,
        "pair": _pair_json(g, pair) if pair else None,
    }
    _emit("minimal", args.file, result)
    return 0


def cmd_s2(args) -> int:
    h = _load_graph(args.file, args.format)
    alpha = _parse_alpha(args.alpha)
    g, lab = build_s2(h, alpha)
    text = write_edge_list(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    if args.labeling:
        with open(args.labeling, "w", encoding="utf-8") as f:
            json.dump(_labeling_json(lab), f, sort_keys=True, indent=2)
            f.write("\n")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as f:
            f.write(write_dot(g))
    return 0


def cmd_invert(args) -> int:
    g = _load_graph(args.file, args.format)
    inv = invert_s2(g)
    if inv is None:
        _emit("invert", args.file,
              {"is_2_subdivision": False, "base": None, "alpha": None,
               "provenance": None})
        return 0
    base, alpha, lab = inv
    rebuilt, _ = build_s2(base, alpha)
    assert rebuilt.n == g.n and rebuilt.m == g.m
    _emit(
        "invert",
        args.file,
        {
            "is_2_subdivision": True,
            "base": _graph_json(base),
            "alpha": {str(v): a for v, a in sorted(alpha.items())},
            "provenance": [list(t) for t in lab.provenance],
        },
    )
    return 0


def cmd_goodsub(args) -> int:
    h = _load_graph(args.file, args.format)
    cert = find_good_subgraph(h)
    if cert is not None:
        ok, why = verify_good_certificate(h, cert)
        assert ok, why
    _emit(
        "goodsub",
        args.file,
        {"found": cert is not None,
         "certificate": _cert_json(h, cert) if cert else None},
    )
    return 0


def _survey_row(item: tuple[int, str]) -> list[str]:
    idx, line = item
    g = read_graph6(line)
    dpdp = find_dp_pair(g) is not None
    minimal = dpdp and deletion_witness(g) is None
    is_s2 = invert_s2(g) is not None
    if any(g.degree(v) == 0 for v in range(g.n)):
        goodsub = "n/a"  # the good-subgraph search needs an isolate-free host
    else:
        goodsub = str(find_good_subgraph(g) is not None).lower()
    return [
        line,
        str(g.n),
        str(g.m),
        str(dpdp).lower(),
        str(minimal).lower(),
        str(is_s2).lower(),
        goodsub,
    ]


def cmd_survey(args) -> int:
    with open(args.g6file, "r", encoding="utf-8") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    rows = _pool_map(_survey_row, list(enumerate(lines)))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["input", "n", "m", "dpdp", "minimal", "is_2_subdivision",
         "good_subgraph_found"]
    )
    writer.writerows(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return 0


def _xcheck_one(h: Multigraph) -> tuple[bool, dict]:
    r = xcheck(h)
    detail = {
        "n": r.base_n,
        "m": r.base_m,
        "minimal_by_deletion": r.minimal_by_deletion,
        "no_good_subgraph": r.no_good_subgraph,
        "unique_pair_or_small_cycle": r.unique_pair_or_small_cycle,
    }
    return r.consistent, detail


def cmd_xcheck(args) -> int:
    if (args.max_edges is None) == (args.g6file is None):
        raise ValueError("xcheck needs exactly one of --max-edges or a g6 file")
    if args.max_edges is not None:
        graphs = list(enumerate_connected_multigraphs(args.max_edges))
        input_id = f"--max-edges {args.max_edges}"
    else:
        with open(args.g6file, "r", encoding="utf-8") as f:
            graphs = read_graph6_file(f.read())
        input_id = args.g6file
    outcomes = _pool_map(_xcheck_one, graphs)
    disagreements = [
        dict(detail, index=i) for i, (okay, detail) in enumerate(outcomes) if not okay
    ]
    _emit(
        "xcheck",
        input_id,
        {
            "graphs_checked": len(graphs),
            "consistent": not disagreements,
            "disagreements": disagreements,
        },
    )
    return 2 if disagreements else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="dpdp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("file", help="input graph file")
        p.add_argument(
            "--format", choices=("el", "g6"), default="el",
            help="input format: edge list (default) or graph6",
        )

    p = sub.add_parser("check", help="DPDP recognition with certificate")
    add_input(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("pairs", help="enumerate DP-pairs")
    add_input(p)
    p.add_argument("--cap", type=int, default=10, help="max pairs to list")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("minimal", help="minimality by edge deletion")
    add_input(p)
    p.set_defaults(func=cmd_minimal)

    p = sub.add_parser("s2", help="build the 2-subdivision graph")
    add_input(p)
    p.add_argument("--alpha", help="leaf multiplicities, e.g. 0:2,3:1")
    p.add_argument("--out", help="write the product edge list here")
    p.add_argument("--labeling", help="write the labeling sidecar JSON here")
    p.add_argument("--dot", help="write a DOT dump of the product here")
    p.set_defaults(func=cmd_s2)

    p = sub.add_parser("invert", help="recognize and invert a 2-subdivision")
    add_input(p)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("goodsub", help="search for a good subgraph")
    add_input(p)
    p.set_defaults(func=cmd_goodsub)

    p = sub.add_parser("survey", help="per-graph CSV over a graph6 file")
    p.add_argument("g6file", help="graph6 input, one graph per line")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("xcheck", help="three-way minimality cross-validation")
    p.add_argument("g6file", nargs="?", help="graph6 file of base graphs")
    p.add_argument(
        "--max-edges", type=int,
        help="sweep all connected multigraphs with up to this many edges",
    )
    p.set_defaults(func=cmd_xcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"dpdp: error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print(
            "dpdp: error: input too deep for the recursive search "
            f"(Python recursion limit {sys.getrecursionlimit()})",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
