"""One fresh process of the dpdp benchmark: set up a workload, then
optionally run one pass over its items and check every output.

    python3 perfbench/worker.py --workload NAME --mode setup|pass \
        --out RESULT.json [--trace 0|1] [--seed N] [--tree-seed N] [--pass-index K]

``run.py`` starts it with PYTHONPATH pointing at the checkout's ``src``
and DPDP_WORKERS=1.  The result file holds the time at which the inputs
were ready (``time.monotonic``, comparable with the parent's clock) and
the machine-speed factor measured right after (speed.py), the raw and
scaled latency and the verdict of every item, the peak resident memory,
and with ``--trace 1`` the span counters of the pass.
"""

from __future__ import annotations

import argparse
import gc
import contextlib
import csv
import io
import json
import os
import random
import resource
import sys
import time
import traceback

import oracle
from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")

#: what each workload runs per pass; `nominal_pass_s` (measured on a 2-core
#: Xeon under Python 3.11) only sets how many passes fit in --seconds.
WORKLOADS = {
    "xcheck_simple6": {"items": 142, "nominal_pass_s": 12.5},
    "survey_cubic8": {"items": 8, "nominal_pass_s": 5.5},
    "enumerate_classes": {"items": 1000, "nominal_pass_s": 14.0},
    "recognize_s2trees": {"items": 40, "nominal_pass_s": 5.0},
}

#: (enumerator, argument, shape, classes): OEIS A001349, A002851
ENUMERATIONS = [
    ("enumerate_connected_simple", 7, "simple", 853),
    ("enumerate_connected_multigraphs", 5, "multi", 142),
    ("enumerate_connected_cubic", 8, "cubic", 5),
]
SMALL_SIMPLE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
SURVEY_HEADER = ["input", "n", "m", "dpdp", "minimal", "is_2_subdivision",
                 "good_subgraph_found"]


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        return json.load(f)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """dpdp.cli.main in this process, with stdout and stderr captured."""
    cli = sys.modules["dpdp.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def _write_items(subdir: str, texts: list[str], suffix: str) -> list[str]:
    """Write one input file per item; paths are relative to the checkout
    root, which is the working directory, so outputs naming them are
    byte-stable."""
    path = os.path.join(WORK, subdir)
    os.makedirs(path, exist_ok=True)
    rel = []
    for i, text in enumerate(texts):
        name = os.path.join(path, f"{i:03d}{suffix}")
        with open(name, "w", encoding="utf-8") as f:
            f.write(text)
        rel.append(os.path.relpath(name, ROOT))
    return rel


def _g6_lines(name: str) -> list[str]:
    with open(os.path.join(DATA, name), encoding="utf-8") as f:
        return [ln.strip() for ln in f if ln.strip()]


# -- workloads ----------------------------------------------------------------
#
# setup() imports the package and makes the inputs; it returns a list of
# (item id, count, run, check).  run() is timed; check(output) is not and
# returns (problem or None, digest of the checked output).


def setup_xcheck(args, expected):
    import dpdp.cli  # noqa: F401

    lines = _g6_lines("simple_n2to6.g6")
    paths = _write_items("xcheck_simple6", [ln + "\n" for ln in lines], ".g6")
    want = expected["xcheck_simple6"]["item_digests"]

    def item(i):
        def run():
            return run_cli(["xcheck", paths[i]])

        def check(out):
            rc, stdout, stderr = out
            if rc != 0:
                return f"exit {rc}: {stderr.strip()[:200]}", None
            r = json.loads(stdout)
            res = r["result"]
            if r["command"] != "xcheck" or res["graphs_checked"] != 1:
                return "xcheck did not check exactly one graph", None
            if res["consistent"] is not True or res["disagreements"]:
                return "three-way disagreement", None
            d = oracle.digest(stdout)
            return (None if d == want[i] else "stdout differs from the recorded one"), d

        return (i, 1, run, check)

    return [item(i) for i in range(len(lines))]


def setup_survey(args, expected):
    import dpdp.cli  # noqa: F401

    lines = _g6_lines("cubic_le8.g6")
    paths = _write_items("survey_cubic8", [ln + "\n" for ln in lines], ".g6")
    want = expected["survey_cubic8"]["item_digests"]

    def item(i):
        def run():
            return run_cli(["survey", paths[i]])

        def check(out):
            rc, stdout, stderr = out
            if rc != 0:
                return f"exit {rc}: {stderr.strip()[:200]}", None
            rows = list(csv.reader(io.StringIO(stdout)))
            if len(rows) != 2 or rows[0] != SURVEY_HEADER:
                return "survey CSV is not a header plus one row", None
            row = rows[1]
            n = ord(lines[i][0]) - 63
            if row[0] != lines[i] or row[1:3] != [str(n), str(3 * n // 2)]:
                return "survey row does not describe its input", None
            if row[3] != "true":
                return "cubic graph reported as not DPDP", None
            d = oracle.digest(stdout)
            return (None if d == want[i] else "CSV differs from the recorded one"), d

        return (i, 1, run, check)

    return [item(i) for i in range(len(lines))]


def setup_enumerate(args, expected):
    import dpdp.catalog  # noqa: F401

    def item(i):
        fname, arg, shape, classes = ENUMERATIONS[i]

        def run():
            return getattr(sys.modules["dpdp.catalog"], fname)(arg)

        def check(out):
            if len(out) != classes:
                return f"{fname}({arg}) returned {len(out)} classes, not {classes}", None
            keys = []
            for g in out:
                edges = [(e.u, e.v) for e in g.edges]
                why = oracle.shape_problem(shape, g.n, edges)
                if why is None and shape != "multi" and g.n != arg:
                    why = f"{g.n} vertices, not {arg}"
                if why is not None:
                    return f"{fname}({arg}): a class is {why}", None
                keys.append([g.n, sorted(sorted(e) for e in edges)])
            return None, oracle.digest(oracle.canonical(keys))

        return (i, classes, run, check)

    return [item(i) for i in range(len(ENUMERATIONS))]


def check_enumerate_small() -> str | None:
    """Class counts for n < 7, checked after the timed calls so that the
    enumerators' caches cannot shorten the timed work."""
    catalog = sys.modules["dpdp.catalog"]
    for n, want in SMALL_SIMPLE_COUNTS.items():
        got = len(catalog.enumerate_connected_simple(n))
        if got != want:
            return f"enumerate_connected_simple({n}) returned {got} classes, not {want}"
    return None


def _recognize_summary(n, edges, outs) -> tuple[str | None, dict]:
    """Check the four verdicts of one S2 graph with the benchmark's own
    checkers and reduce them to what must not change: verdicts and D/P
    partitions (matchings may change)."""
    res = {}
    for cmd, (rc, stdout, stderr) in outs.items():
        if rc != 0:
            return f"{cmd}: exit {rc}: {stderr.strip()[:200]}", {}
        res[cmd] = json.loads(stdout)["result"]

    def verified(pair):
        why = oracle.dp_pair_problem(n, edges, pair)
        if why is not None:
            raise ValueError(why)
        return [pair["d"], pair["p"]]

    try:
        # every input is the S2 graph of a tree: DPDP (its old/new partition
        # is a DP-pair) and a 2-subdivision of a tree
        chk = res["check"]
        if chk["dpdp"] is not True:
            raise ValueError("check: an S2 graph reported as not DPDP")
        summary = {"check": [True, verified(chk["pair"])]}
        inv = res["invert"]
        if inv["is_2_subdivision"] is not True:
            raise ValueError("invert: an S2 graph was not recognised")
        base = inv["base"]
        bedges = [(u, v) for u, v, _ in base["edges"]]
        if len(bedges) != base["n"] - 1 or not oracle.connected(base["n"], bedges):
            raise ValueError("invert: the base is not a tree")
        alpha = {int(k): a for k, a in inv["alpha"].items()}
        leaves = {v for v in range(base["n"])
                  if sum((u == v) + (w == v) for u, w in bedges) == 1}
        if set(alpha) != leaves:
            raise ValueError("invert: alpha keys are not the leaves of the base")
        if oracle.s2_size(base["n"], bedges, alpha) != (n, len(edges)):
            raise ValueError("invert: base and alpha do not rebuild to the input size")
        summary["invert"] = [True, base["n"], base["m"], sorted(alpha.values())]
        prs = res["pairs"]
        parts = [verified(p) for p in prs["pairs"]]
        if prs["count"] != len(parts) or len(parts) > 10:
            raise ValueError("pairs: count does not match the listed pairs")
        if len({oracle.canonical(p) for p in parts}) != len(parts):
            raise ValueError("pairs: a partition is listed twice")
        summary["pairs"] = parts
        mn = res["minimal"]
        w = mn["witness_edge"]
        if w is not None and (not 0 <= w[2] < len(edges)
                              or sorted(edges[w[2]]) != sorted(w[:2])):
            raise ValueError("minimal: witness is not an edge of the input")
        if mn["minimal"] != (mn["dpdp"] and w is None):
            raise ValueError("minimal: verdict contradicts its witness")
        if mn["dpdp"] is not True:
            raise ValueError("minimal: an S2 graph reported as not DPDP")
        summary["minimal"] = [True, mn["minimal"], verified(mn["pair"])]
    except (KeyError, TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}", {}
    return None, summary


def setup_recognize(args, expected):
    import dpdp.cli  # noqa: F401

    graphs = oracle.s2_tree_inputs(args.tree_seed)
    paths = _write_items(f"recognize_s2trees/t{args.tree_seed}",
                         [oracle.edge_list_text(n, e) for n, e in graphs], ".el")
    want = expected["recognize_s2trees"]["tree_seeds"].get(str(args.tree_seed))

    def item(i):
        def run():
            return {
                "check": run_cli(["check", paths[i]]),
                "invert": run_cli(["invert", paths[i]]),
                "pairs": run_cli(["pairs", paths[i], "--cap", "10"]),
                "minimal": run_cli(["minimal", paths[i]]),
            }

        def check(outs):
            n, edges = graphs[i]
            why, summary = _recognize_summary(n, edges, outs)
            if why is not None:
                return why, None
            d = oracle.digest(oracle.canonical(summary))
            if want is not None and d != want[i]:
                return "verdicts or partitions differ from the recorded ones", d
            return None, d

        return (i, 1, run, check)

    return [item(i) for i in range(len(graphs))]


SETUPS = {
    "xcheck_simple6": setup_xcheck,
    "survey_cubic8": setup_survey,
    "enumerate_classes": setup_enumerate,
    "recognize_s2trees": setup_recognize,
}


# -- one pass ---------------------------------------------------------------------


def run_pass(items, tracer, probe=None) -> list[dict]:
    """Time every item, then check its output; an exception fails the item
    and the pass goes on to the next.  A full collection before each item
    keeps its time from depending on what ran before it.  With a speed
    probe, an item's ``seconds`` leave out the probe's samples taken inside
    it, and ``scaled`` is that time at the probe's reference speed."""
    records = []
    perf = time.perf_counter
    windows = []
    for item_id, count, run, check in items:
        if tracer is not None:
            tracer.item = item_id
        rec = {"id": item_id, "count": count, "seconds": None, "problem": None,
               "digest": None}
        out = None
        gc.collect()  # untimed: every item starts from the same collector state
        paused = probe.paused if probe else 0.0
        t0 = perf()
        try:
            out = run()
        except Exception as exc:  # any failure is the item's, the pass goes on
            rec["problem"] = _describe(exc)
        t1 = perf()
        rec["seconds"] = t1 - t0 - ((probe.paused if probe else 0.0) - paused)
        if rec["problem"] is None:
            try:
                rec["problem"], rec["digest"] = check(out)
            except Exception as exc:
                rec["problem"] = _describe(exc)
        records.append(rec)
        windows.append((t0, t1))
    if probe is not None:
        probe.stop()
        for rec, (t0, t1) in zip(records, windows):
            rec["scaled"] = rec["seconds"] * probe.scale(t0, t1)
    return records


def _describe(exc: Exception) -> str:
    return "".join(traceback.format_exception_only(exc)).strip()[:300]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--mode", required=True, choices=("setup", "pass"))
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--tree-seed", type=int, default=1)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--spans", help="write the pass's spans to this path stem")
    args = ap.parse_args(argv)

    items = SETUPS[args.workload](args, load_expected())
    result = {"ready_at": time.monotonic()}
    probe = SpeedProbe()
    result["setup_scale"] = probe.spot_scale()
    if args.mode == "pass":
        # A fresh order per pass spreads each item's samples, and the items
        # of similar cost, over the run, so a slow spell of the machine
        # does not land on all of them at once.
        random.Random(f"{args.seed}/{args.pass_index}").shuffle(items)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            probe = None  # its samples would count as unattributed traced time
        else:
            probe.start()
        records = run_pass(items, tracer, probe)
        result["records"] = records
        if tracer is not None:
            result["trace"] = tracer.summary()
            if args.spans:
                tracer.save(args.spans)
        if args.workload == "enumerate_classes":
            why = check_enumerate_small()
            if why is not None:
                simple = next(r for r in records if r["id"] == 0)
                simple["problem"] = simple["problem"] or why
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
