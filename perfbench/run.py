"""Benchmark of the dpdp toolkit: end-to-end metrics per workload, output
gates, and per-layer counters from a separate traced run.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1] [--tree-seed N]

Run it from the checkout root.  Every pass over a workload's items runs in
a fresh process (perfbench/worker.py) with DPDP_WORKERS=1 and the
package imported from ./src.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it runs a traced, an untraced and a traced pass, checks
that all three give the same outputs and the two traced ones the same
counters, and prints the per-layer metrics.  End-to-end times are scaled
to a reference machine speed measured alongside the work (speed.py); the
raw wall-clock figures go to the results file.  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; a results
file with the environment goes to .bench_work/results/.

--seed shuffles the item order of every pass; --tree-seed (default 1)
draws the random trees of recognize_s2trees, the only workload with
random inputs.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import worker
from spans import DELETION_ROUTINES, TARGETS

BUDGET_S = 170  # per workload, so that a run ends within 180 s
MIN_PASSES = 3  # each item's latency is a median of at least three
MIN_SETUPS = 7
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


class SetupFailed(RuntimeError):
    pass


class Runner:
    """Starts worker processes for one workload within a time budget."""

    def __init__(self, workload: str, args) -> None:
        self.workload = workload
        self.args = args
        self.deadline = time.monotonic() + BUDGET_S
        self.spawned = 0
        self.out_dir = os.path.join(worker.WORK, "out")
        os.makedirs(self.out_dir, exist_ok=True)

    def spawn(self, mode: str, trace: int = 0, spans: str | None = None,
              pass_index: int = 0) -> dict:
        self.spawned += 1
        out = os.path.join(self.out_dir, f"{self.workload}-{self.spawned}.json")
        if os.path.exists(out):
            os.remove(out)
        cmd = [sys.executable, os.path.join(worker.HERE, "worker.py"),
               "--workload", self.workload, "--mode", mode, "--out", out,
               "--trace", str(trace), "--seed", str(self.args.seed),
               "--tree-seed", str(self.args.tree_seed), "--pass-index", str(pass_index)]
        if spans:
            cmd += ["--spans", spans]
        src = os.path.join(worker.ROOT, "src")
        old = os.environ.get("PYTHONPATH")
        env = dict(os.environ, DPDP_WORKERS="1",
                   PYTHONPATH=src + (os.pathsep + old if old else ""))
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=worker.ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                text=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return {"error": "worker ran past the time budget"}
        finally:
            if proc.poll() is None:  # timed out or interrupted: end it, then reap
                proc.kill()
                proc.communicate()
        if proc.returncode != 0 or not os.path.exists(out):
            return {"error": f"worker exit {proc.returncode}: {err.strip()[-800:]}"}
        with open(out, encoding="utf-8") as f:
            res = json.load(f)
        res["setup_wall_s"] = res["ready_at"] - t0
        res["setup_s"] = res["setup_wall_s"] * res["setup_scale"]
        return res

    def setup_sample(self) -> tuple[float, float]:
        res = self.spawn("setup")
        if "error" in res:
            raise SetupFailed(res["error"])
        return res["setup_s"], res["setup_wall_s"]


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics, each weighted by the Beta(q(n+1), (1-q)(n+1)) mass of its
    1/n slice of [0, 1].  A single order statistic jumps when two items
    with a gap between them swap ranks from one run to the next; this
    weighted mean moves by a fraction of the gap."""
    vals = sorted(values)
    n = len(vals)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(x: float) -> float:
        if not 0 < x < 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 16  # Simpson's rule on each slice
    h = 1 / (n * steps)
    total = weighted = 0.0
    for i, v in enumerate(vals):
        x0 = i / n
        mass = pdf(x0) + pdf(x0 + steps * h) + sum(
            (4 if j % 2 else 2) * pdf(x0 + j * h) for j in range(1, steps))
        total += mass
        weighted += mass * v
    return weighted / total


def tail(values: list[float]) -> tuple[int, float]:
    """Latency at the highest percentile that leaves at least ten items
    beyond it; the maximum when there are too few items."""
    for p in TAIL_PERCENTILES:
        if len(values) - math.ceil(p * len(values) / 100) >= 10:
            return p, quantile(values, p / 100)
    return 100, max(values)


class Tally:
    """Items attempted and failed over the passes of a run."""

    def __init__(self, items: int) -> None:
        self.items = items
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, count: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + count)
        self.problems.append(problem)

    def add(self, res: dict, label: str) -> list[dict]:
        if "error" in res:
            self.attempted += self.items
            self.failed += self.items
            self.problems.append(f"{label}: {res['error']}")
            return []
        for rec in res["records"]:
            self.attempted += rec["count"]
            if rec["problem"]:
                self.failed += rec["count"]
                self.problems.append(f"{label} item {rec['id']}: {rec['problem']}")
        return res["records"]


def latency_metrics(per_item: dict[int, list[float]], counts: dict[int, int]):
    """items_per_s, item_p50_ms, item_tail_ms and the tail percentile, with
    every item's latency taken as its median over the passes."""
    latencies = []
    for item_id, samples in per_item.items():
        latencies += [statistics.median(samples)] * counts[item_id]
    pct, tail_s = tail(latencies)
    return (len(latencies) / sum(latencies), quantile(latencies, 0.5) * 1e3,
            tail_s * 1e3, pct)


def end_to_end(runner: Runner, tally: Tally) -> tuple[dict, dict]:
    """Median-based metrics: every item's latency is its median over the
    passes, so one pass slowed by a noisy neighbour does not move them.
    Latencies are at the reference speed of speed.py; the raw wall-clock
    figures go to the results file."""
    meta = worker.WORKLOADS[runner.workload]
    passes = max(MIN_PASSES, round(runner.args.seconds / meta["nominal_pass_s"]))
    setups, setup_walls, rss, walls = [], [], [], []
    scaled: dict[int, list[float]] = {}
    raw: dict[int, list[float]] = {}
    counts: dict[int, int] = {}
    for k in range(passes):
        res = runner.spawn("pass", pass_index=k)
        records = tally.add(res, f"pass {k}")
        if not records:
            continue
        setups.append(res["setup_s"])
        setup_walls.append(res["setup_wall_s"])
        rss.append(res["rss_mb"])
        walls.append(sum(r["seconds"] for r in records))
        for r in records:
            scaled.setdefault(r["id"], []).append(r["scaled"] / r["count"])
            raw.setdefault(r["id"], []).append(r["seconds"] / r["count"])
            counts[r["id"]] = r["count"]
    if not scaled:
        raise SetupFailed("no pass completed")
    while len(setups) < MIN_SETUPS:
        setup, setup_wall = runner.setup_sample()
        setups.append(setup)
        setup_walls.append(setup_wall)
    per_s, p50_ms, tail_ms, pct = latency_metrics(scaled, counts)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (per_s, "1/s"),
        "item_p50_ms": (p50_ms, "ms"),
        "item_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    raw_per_s, raw_p50_ms, raw_tail_ms, _ = latency_metrics(raw, counts)
    detail = {"passes": passes, "setup_samples": setups, "pass_rss_mb": rss,
              "pass_seconds": walls, "tail_percentile": pct, "items": sum(counts.values()),
              "wall_clock": {"setup_s": statistics.median(setup_walls),
                             "items_per_s": raw_per_s, "item_p50_ms": raw_p50_ms,
                             "item_tail_ms": raw_tail_ms}}
    return metrics, detail


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(runner: Runner, tally: Tally) -> tuple[dict, dict]:
    spans_dir = os.path.join(worker.WORK, "trace")
    os.makedirs(spans_dir, exist_ok=True)
    stem = os.path.join(spans_dir, runner.workload)
    # untraced between the traced passes, so a drift in machine speed
    # cancels out of trace.overhead_s
    first = runner.spawn("pass", trace=1, spans=stem)
    plain = runner.spawn("pass")
    traced = [first, runner.spawn("pass", trace=1)]
    runs = [plain] + traced
    recs = [tally.add(res, label) for res, label in zip(runs, ("untraced", "traced 1", "traced 2"))]
    if not all(recs):
        raise SetupFailed("a pass of the traced run did not complete")

    plain_digest = {r["id"]: r["digest"] for r in recs[0]}
    for records in recs[1:]:
        for r in records:
            if r["digest"] != plain_digest[r["id"]]:
                tally.fail(r["count"], f"item {r['id']}: traced output differs from untraced")
    counts = [{k: v for k, v in res["trace"].items() if k != "self_s"} for res in traced]
    if counts[0] != counts[1]:
        tally.fail(tally.items, "two traced passes gave different counters")

    calls = counts[0]["calls"]
    positive = counts[0]["positive"]
    extra = counts[0]["counters"]
    self_s = {name: statistics.fmean(res["trace"]["self_s"][name] for res in traced)
              for name, _, _ in TARGETS}
    wall = [sum(r["seconds"] for r in records) for records in recs]
    m: dict[str, tuple[float, str]] = {}
    for layer in ("domination", "goodsub", "minimality", "subdivision", "catalog",
                  "canon", "graph", "cli"):
        m[f"{layer}.self_s"] = (sum(v for k, v in self_s.items()
                                    if k.startswith(layer + ".")), "s")
    for name in ("domination.has_perfect_matching_on", "domination.enumerate_dp_pairs",
                 "goodsub.find_good_subgraph", "goodsub.verify_good_certificate",
                 "minimality.is_minimal_by_deletion", "minimality.deletion_witness",
                 "minimality.xcheck", "subdivision.build_s2", "subdivision.invert_s2",
                 "canon.is_isomorphic", "canon.refined_colors"):
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (self_s[name], "s")
    for name in ("domination.find_dp_pair", "domination.is_dp_pair",
                 "graph.edge_between", "graph.Multigraph", "graph.delete_edge"):
        m[f"{name}.calls"] = (calls[name], "count")
    for name, ratio in (("domination.has_perfect_matching_on", "hit_ratio"),
                        ("goodsub.find_good_subgraph", "found_ratio"),
                        ("goodsub.verify_good_certificate", "ok_ratio"),
                        ("subdivision.invert_s2", "success_ratio"),
                        ("canon.is_isomorphic", "true_ratio")):
        m[f"{name}.{ratio}"] = (_ratio(positive[name], calls[name]), "ratio")
    decisions = sum(calls[n] for n in DELETION_ROUTINES)
    m["minimality.dp_searches_per_decision"] = (
        _ratio(extra["minimality.dp_searches_under_deletion"], decisions), "ratio")
    m["cli.dp_searches_per_command"] = (_ratio(extra["cli.dp_searches"], calls["cli.main"]),
                                        "ratio")
    m["catalog.candidates_in"] = (extra["catalog.candidates_in"], "count")
    m["catalog.classes_out"] = (extra["catalog.classes_out"], "count")
    m["catalog.dedup_ratio"] = (_ratio(extra["catalog.classes_out"],
                                       extra["catalog.candidates_in"]), "ratio")
    traced_wall = statistics.fmean(wall[1:])
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - wall[0], "s")
    m["trace.unattributed_s"] = (traced_wall - sum(self_s.values()), "s")
    detail = {"pass_wall_s": wall, "spans": counts[0]["spans"],
              "span_file": os.path.relpath(stem, worker.ROOT),
              "missing_targets": counts[0]["missing"], "calls": calls,
              "positive": positive, "counters": extra}
    return m, detail


def git_commit() -> str:
    git = os.path.join(worker.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, workload: str) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "tree_seed": args.tree_seed,
        "DPDP_WORKERS": "1",
        "items_per_pass": worker.WORKLOADS[workload]["items"],
    }


def run_workload(workload: str, args) -> dict:
    runner = Runner(workload, args)
    tally = Tally(worker.WORKLOADS[workload]["items"])
    measure = per_layer if args.trace else end_to_end
    metrics, detail = measure(runner, tally)
    summary = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = dict(summary, workload=workload, trace=args.trace,
                   seconds=args.seconds, failed_frac=_ratio(tally.failed, tally.attempted),
                   problems=tally.problems[:50], detail=detail,
                   environment=environment(args, workload))
    out_dir = os.path.join(worker.WORK, "results")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{workload}-seed{args.seed}-tree{args.tree_seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
        json.dump(results, f, indent=1)
    for problem in tally.problems[:20]:
        print(f"{workload}: FAILED {problem}", file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"{workload}  {k:<45} {v:>14.6g} {u}")
    print(f"{workload}  {'failed_frac':<45} {results['failed_frac']:>14.6g} "
          f"({tally.failed}/{tally.attempted} items)")
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(worker.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1,
                    help="shuffles the item order of every pass (default 1)")
    ap.add_argument("--seconds", type=float, default=15,
                    help="measured time per run; sets the pass count (default 15)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tree-seed", type=int, default=1,
                    help="draws the random trees of recognize_s2trees (default 1)")
    args = ap.parse_args(argv)
    if not os.path.exists(os.path.join(worker.ROOT, "src", "dpdp", "__init__.py")):
        print("perfbench: no src/dpdp package next to perfbench/", file=sys.stderr)
        return 2
    names = sorted(worker.WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {}
    try:
        for name in names:
            summaries[name] = run_workload(name, args)
    except SetupFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(summaries[names[0]]))
    else:
        print(json.dumps({
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{w}.{k}": v for w, s in summaries.items()
                        for k, v in s["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
