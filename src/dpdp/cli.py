"""Command-line front end: ingest graphs, run engines, emit certificates.

Verdicts are JSON objects with the fixed key set {"command",
"engine_version", "input", "result"}; vertex sets are ascending integer
arrays and edges are [u, v, id] triples, so any certificate can be
re-checked by a short external script.  Output is byte-deterministic for
a fixed input and flag set.  Exit codes: 0 = computed (whatever the
verdict), 1 = input error or internal error (one stderr line, no
traceback; for a bad line of a graph6 file it names the line number),
2 = cross-validation disagreement.

Check, pairs, minimal, invert and goodsub each map one graph to its
JSON result; one runner loads the graph of the input file (edge list, or
a graph6 file of exactly one non-blank line), calls the command's result
function and emits the verdict.  One table registers these commands and
s2, the commands that read one graph file, in the order --help lists
them.  One writer puts every output of s2 and survey into the file its
flag names, or the main output onto stdout.

Survey and xcheck are sweeps: one driver runs a check on each graph of a
source, the enumerated multigraphs of xcheck --max-edges or the lines of
a graph6 file.  One reader reads every line of the file before any check
runs, so a malformed line is named first.  The driver fans the checks
out over a process pool of DPDP_WORKERS processes (an environment
variable; default: the CPUs this process may run on, or the CPU count
where the platform cannot tell), but never more processes than graphs,
and runs in-process when that is one; results come in input order
regardless.

Start-up is most of a small command's time.  The codecs come from graph,
so the enumerator (catalog and _canon) is imported only inside xcheck
--max-edges, the one command that enumerates.  The engines stay imported
at the top: deferring them would only move their compile time into the
first command that runs them.  Survey writes its CSV by joining fields
with commas: every field is a number, a lower-case word, "n/a" or a
stripped graph6 line, none of which a CSV writer would quote.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _escape

from . import __version__

# engines in the order they load (subdivision loads goodsub): peak RSS
# moves with import order
from .graph import Multigraph, read_edge_list, read_graph6, write_dot, write_edge_list
from .domination import DpPair, enumerate_dp_pairs, find_dp_pair
from .goodsub import find_good_subgraph
from .subdivision import S2Labeling, build_s2, invert_s2
from .minimality import _pairs_and_witness, xcheck


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors: exit 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_line(k: int | None, fn, *args):
    """fn(*args), a ValueError from it prefixed with the input line k it
    concerns, if there is one."""
    try:
        return fn(*args)
    except ValueError as exc:
        if k is None:
            raise
        raise ValueError(f"line {k}: {exc}") from None


def _g6_graphs(path: str) -> list[tuple[int, str, Multigraph]]:
    """(line number, line, graph) for each non-blank line of a graph6
    file, stripped, numbered from 1; all of them are parsed before a sweep
    checks any."""
    with open(path, "r", encoding="utf-8") as f:
        lines = [(k, line.strip()) for k, line in enumerate(f, 1) if line.strip()]
    return [(k, line, _at_line(k, read_graph6, line)) for k, line in lines]


def _load_graph(path: str, fmt: str) -> Multigraph:
    """The one graph of an edge-list file, or of a graph6 file of one
    non-blank line."""
    if fmt == "g6":
        graphs = _g6_graphs(path)
        if len(graphs) != 1:
            raise ValueError(f"graph6 file has {len(graphs)} non-blank lines, expected 1")
        return graphs[0][2]
    with open(path, "r", encoding="utf-8") as f:
        return read_edge_list(f.read())


def _edge_triples(g: Multigraph, eids) -> list[list[int]]:
    us, vs = g.us, g.vs
    return [[us[eid], vs[eid], eid] for eid in sorted(eids)]


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


def _json_text(obj, newline: str = "\n") -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, for the
    payload types: dicts with str keys, lists, ints, bools, None and str;
    newline is "\n" plus the indentation of obj's own line.  With indent
    set the standard library encodes in pure Python, one generator step
    per token; this writer joins whole containers instead.  A list of
    non-empty rows of ints and strings, such as edge triples and
    provenance tags, takes one %-format call: a template with one "%s"
    per scalar, laid out row by row, over the flattened scalars, strings
    already escaped (the template holds no other "%", and formatting does
    not read what it inserts).  It recurses once per nesting level, and
    payloads nest at most five deep."""
    kind = type(obj)
    if kind is list:
        if not obj:
            return "[]"
        inner = newline + "  "
        kinds = set(map(type, obj))
        if kinds == {int}:  # a bool is an int but prints as true/false
            return "[" + inner + ("," + inner).join(map(str, obj)) + newline + "]"
        if kinds == {list} and all(obj):
            scalars = list(chain.from_iterable(obj))
            scalar_kinds = set(map(type, scalars))
            if scalar_kinds <= {int, str}:
                if str in scalar_kinds:
                    scalars = [_escape(x) if type(x) is str else x for x in scalars]
                deeper = inner + "  "
                rows = {
                    k: "[" + deeper + ("," + deeper).join(["%s"] * k) + inner + "]"
                    for k in set(map(len, obj))
                }
                template = ("," + inner).join([rows[len(x)] for x in obj])
                return "[" + inner + template % tuple(scalars) + newline + "]"
        items = [_json_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        if not obj:
            return "{}"
        inner = newline + "  "
        items = [_escape(k) + ": " + _json_text(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is str:
        return _escape(obj)
    if kind is int:
        return str(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(command: str, input_id: str, result: dict) -> None:
    payload = {
        "command": command,
        "engine_version": __version__,
        "input": input_id,
        "result": result,
    }
    print(_json_text(payload))


def _parse_alpha(spec: str | None) -> dict[int, int]:
    if not spec:
        return {}
    alpha: dict[int, int] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            leaf, count = map(int, item.split(":"))
        except ValueError:
            raise ValueError(f"bad --alpha entry {item!r}, expected leafId:count")
        if leaf in alpha:
            raise ValueError(f"--alpha names leaf {leaf} twice")
        alpha[leaf] = count
    return alpha


def _workers() -> int:
    env = os.environ.get("DPDP_WORKERS")
    if env:
        try:
            k = int(env)
        except ValueError:
            raise ValueError(f"DPDP_WORKERS must be an integer, got {env!r}")
        return max(1, k)
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_at(check, item):
    k, line, g = item
    return _at_line(k, check, g, line)


def _sweep(check, items: list[tuple[int | None, str | None, Multigraph]]):
    """check(graph, line) for each (line number, line, graph) of items, in
    input order, on min(_workers(), len(items)) processes; a ValueError
    names its line.  In process, each item is set to None as its check
    starts, so no checked graph, nor the adjacency index its check built,
    outlives the check.  A pool takes the items in chunks of about a
    quarter of a worker's share, as multiprocessing.Pool.map sizes them,
    so a check of under a millisecond is not one round trip per graph."""
    workers = min(_workers(), len(items))
    run = functools.partial(_check_at, check)
    if workers <= 1:
        for i, item in enumerate(items):
            items[i] = None
            yield run(item)
        return
    from concurrent.futures import ProcessPoolExecutor  # only a pool pays for the import

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(run, items, chunksize=-(-len(items) // (4 * workers)))


# -- subcommands ----------------------------------------------------------------


def _check(g: Multigraph, args) -> dict:
    pair = find_dp_pair(g)
    return {"dpdp": pair is not None, "n": g.n, "m": g.m,
            "pair": _pair_json(g, pair) if pair else None}


def _pairs(g: Multigraph, args) -> dict:
    pairs = enumerate_dp_pairs(g, cap=args.cap)
    return {"cap": args.cap, "count": len(pairs), "pairs": [_pair_json(g, p) for p in pairs]}


def _minimal(g: Multigraph, args) -> dict:
    pairs, witness = _pairs_and_witness(g, 1)
    pair = pairs[0] if pairs else None
    return {
        "dpdp": pair is not None,
        "minimal": pair is not None and witness is None,
        "witness_edge": _edge_triples(g, [witness])[0] if witness is not None else None,
        "pair": _pair_json(g, pair) if pair else None,
    }


def _invert(g: Multigraph, args) -> dict:
    inv = invert_s2(g)
    labeling = _labeling_json(inv[2]) if inv else dict.fromkeys(("base", "alpha", "provenance"))
    return {"is_2_subdivision": inv is not None, **labeling}


def _goodsub(h: Multigraph, args) -> dict:
    cert = find_good_subgraph(h)
    return {"found": cert is not None, "certificate": _cert_json(h, cert) if cert else None}


def _run(result, args) -> int:
    """A single-graph command: result(graph, args) on the graph of
    args.file, emitted as the verdict of args.command."""
    _emit(args.command, args.file, result(_load_graph(args.file, args.format), args))
    return 0


def _write(path: str | None, text: str) -> None:
    """text into the file path, or onto stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def cmd_s2(args) -> int:
    g, lab = build_s2(_load_graph(args.file, args.format), _parse_alpha(args.alpha))
    _write(args.out, write_edge_list(g))
    if args.labeling:
        _write(args.labeling, _json_text(_labeling_json(lab)) + "\n")
    if args.dot:
        _write(args.dot, write_dot(g))
    return 0


def _survey_row(g: Multigraph, line: str) -> list[str]:
    pairs, witness = _pairs_and_witness(g, 1)
    dpdp = bool(pairs)
    minimal = dpdp and witness is None
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
    header = ["input", "n", "m", "dpdp", "minimal", "is_2_subdivision", "good_subgraph_found"]
    rows = [header, *_sweep(_survey_row, _g6_graphs(args.g6file))]
    _write(args.out, "".join(",".join(row) + "\n" for row in rows))
    return 0


def _xcheck_one(h: Multigraph, line: str | None) -> tuple[bool, dict]:
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
        from .catalog import enumerate_connected_multigraphs  # the one enumerating command

        graphs = [(None, None, h) for h in enumerate_connected_multigraphs(args.max_edges)]
        input_id = f"--max-edges {args.max_edges}"
    else:
        # xcheck reports no line: not holding them keeps the pool's peak RSS down
        graphs = [(k, None, g) for k, _, g in _g6_graphs(args.g6file)]
        input_id = args.g6file
    disagreements = [
        dict(detail, index=i)
        for i, (okay, detail) in enumerate(_sweep(_xcheck_one, graphs)) if not okay
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


# The commands that read one graph file, in the order dpdp --help lists
# them: (name, help line, the function main runs on the parsed arguments)
_ONE_GRAPH = (
    ("check", "DPDP recognition with certificate", functools.partial(_run, _check)),
    ("pairs", "enumerate DP-pairs", functools.partial(_run, _pairs)),
    ("minimal", "minimality by edge deletion", functools.partial(_run, _minimal)),
    ("s2", "build the 2-subdivision graph", cmd_s2),
    ("invert", "recognize and invert a 2-subdivision", functools.partial(_run, _invert)),
    ("goodsub", "search for a good subgraph", functools.partial(_run, _goodsub)),
)


@functools.cache
def build_parser() -> _Parser:
    """The dpdp argument parser, built once per process: parse_args keeps
    no state between calls."""
    parser = _Parser(prog="dpdp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    one_graph = {}
    for name, summary, func in _ONE_GRAPH:
        p = one_graph[name] = sub.add_parser(name, help=summary)
        p.add_argument("file", help="input graph file")
        p.add_argument(
            "--format", choices=("el", "g6"), default="el",
            help="input format: edge list (default) or graph6",
        )
        p.set_defaults(func=func)
    one_graph["pairs"].add_argument("--cap", type=int, default=10, help="max pairs to list")
    p = one_graph["s2"]
    p.add_argument("--alpha", help="leaf multiplicities, e.g. 0:2,3:1")
    p.add_argument("--out", help="write the product edge list here")
    p.add_argument("--labeling", help="write the labeling sidecar JSON here")
    p.add_argument("--dot", help="write a DOT dump of the product here")

    p = sub.add_parser("survey", help="per-graph CSV over a graph6 file")
    p.add_argument("g6file", help="graph6 input, one graph per line")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("xcheck", help="three-way minimality cross-validation")
    p.add_argument("g6file", nargs="?", help="graph6 file of base graphs")
    p.add_argument(
        "--max-edges", type=int,
        help="sweep all connected multigraphs with up to this many edges (1-6)",
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
    except Exception as exc:  # a bug, still reported in one line, never a traceback
        print(f"dpdp: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
