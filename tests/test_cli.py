from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dpdp
from dpdp.catalog import complete, cycle, enumerate_trees, path, random_tree
from dpdp.cli import _json_text, main
from dpdp.domination import DpPair, is_dp_pair
from dpdp.graph import MAX_EDGE_LIST_VERTICES, Multigraph, read_graph6, write_graph6
from dpdp.subdivision import build_s2

from helpers import edge_list_text, theta

# SHA-256 of the concatenated stdout of test_minimal_outputs_pinned
MINIMAL_S2_TREES_SHA256 = (
    "3d86027794e30e1d5876247452a3dff206103c8d0c69e0cdc68013a08d5d83b6"
)
# the same for dpdp check, dpdp pairs --cap 10 and dpdp invert on the
# same 16 graphs
CHECK_S2_TREES_SHA256 = (
    "be78a2b17403f08fdc810c79e3e287c192d3d25760541634b5abde66511da7d5"
)
PAIRS_S2_TREES_SHA256 = (
    "80232f8a120d8be1ea25bb39a6d19a994f7f72327b81d7fc8e77d8ccd43e99cf"
)
INVERT_S2_TREES_SHA256 = (
    "33dac6370659562e215f4d45df08277251485870de0b9cc8ceb44c763bf91f20"
)
# SHA-256 of the concatenated stdout of dpdp goodsub on the 106 trees on
# 10 vertices (test_goodsub_outputs_pinned)
GOODSUB_TREES10_SHA256 = (
    "dd622dbe5f05fdc061744e11ed07b5b0805f22c895a2a4bfd20eb86aff3cc2cc"
)
# SHA-256 of the --out, --labeling and --dot files of dpdp s2 --alpha on 6
# random trees (test_s2_files_pinned)
S2_FILES_SHA256 = (
    "53a67185d8c1dedd37dc5d1855449d8cada485476b51be00baaf33ec49f7e772"
)


@pytest.fixture()
def p6_file(tmp_path):
    f = tmp_path / "p6.el"
    f.write_text(edge_list_text(path(6)))
    return str(f)


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_p9_not_dpdp(tmp_path, capsys):
    f = tmp_path / "p9.el"
    f.write_text(edge_list_text(path(9)))
    code, out = run_cli(capsys, "check", str(f))
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == ["command", "engine_version", "input", "result"]
    assert payload["result"]["dpdp"] is False
    assert payload["result"]["pair"] is None


def test_check_emits_reverifiable_pair(tmp_path, capsys):
    f = tmp_path / "p4.el"
    f.write_text(edge_list_text(path(4)))
    code, out = run_cli(capsys, "check", str(f))
    payload = json.loads(out)
    res = payload["result"]
    assert res["dpdp"] is True
    pair = DpPair(
        frozenset(res["pair"]["d"]),
        frozenset(res["pair"]["p"]),
        tuple(t[2] for t in res["pair"]["matching"]),
    )
    assert is_dp_pair(path(4), pair)


def test_minimal_c6(tmp_path, capsys):
    f = tmp_path / "c6.el"
    f.write_text(edge_list_text(cycle(6)))
    code, out = run_cli(capsys, "minimal", str(f))
    assert code == 0
    res = json.loads(out)["result"]
    assert res["minimal"] is True and res["witness_edge"] is None


def test_minimal_witness_on_k4(tmp_path, capsys):
    f = tmp_path / "k4.el"
    f.write_text(edge_list_text(complete(4)))
    _, out = run_cli(capsys, "minimal", str(f))
    res = json.loads(out)["result"]
    assert res["dpdp"] is True and res["minimal"] is False
    assert res["witness_edge"] is not None


def cli_digest(graphs, *argv) -> str:
    """SHA-256 of the concatenated stdout of dpdp argv[0] FILE argv[1:] on
    each graph in turn, FILE being t<i>.el written to the current
    directory; dpdp.cli.main runs in process and must exit 0."""
    digest = hashlib.sha256()
    for i, g in enumerate(graphs):
        name = f"t{i}.el"
        Path(name).write_text(edge_list_text(g))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([argv[0], name, *argv[1:]])
        assert code == 0
        digest.update(out.getvalue().encode())
    return digest.hexdigest()


def s2_tree_digest(tmp_path, monkeypatch, *argv) -> str:
    """cli_digest on the S2 graphs of 16 random trees on 20-30 vertices,
    alpha in {1, 2, 3}."""
    monkeypatch.chdir(tmp_path)  # the input path is part of the output
    rng = random.Random(2026)
    graphs = []
    for _ in range(16):
        t = random_tree(rng.randint(20, 30), rng)
        graphs.append(build_s2(t, {v: rng.randint(1, 3) for v in sorted(t.leaves())})[0])
    return cli_digest(graphs, *argv)


def test_minimal_outputs_pinned(tmp_path, monkeypatch):
    # 14 witness edges and 2 minimal graphs, so a change of witness edge,
    # pair or matching shows here
    digest = s2_tree_digest(tmp_path, monkeypatch, "minimal")
    assert digest == MINIMAL_S2_TREES_SHA256


def test_check_and_pairs_outputs_pinned(tmp_path, monkeypatch):
    # the first pair and the first ten pairs of the DFS, with their
    # matchings: a change of search order or matching shows here
    digest = s2_tree_digest(tmp_path, monkeypatch, "check")
    assert digest == CHECK_S2_TREES_SHA256
    digest = s2_tree_digest(tmp_path, monkeypatch, "pairs", "--cap", "10")
    assert digest == PAIRS_S2_TREES_SHA256


def test_invert_outputs_pinned(tmp_path, monkeypatch):
    # base, alpha and provenance of all 16 inversions
    digest = s2_tree_digest(tmp_path, monkeypatch, "invert")
    assert digest == INVERT_S2_TREES_SHA256


def test_goodsub_outputs_pinned(tmp_path, monkeypatch):
    # 34 of the 106 trees have a certificate, so a change of Q, E, arcs or
    # paths shows here
    monkeypatch.chdir(tmp_path)
    assert cli_digest(enumerate_trees(10), "goodsub") == GOODSUB_TREES10_SHA256


def test_s2_files_pinned(tmp_path, monkeypatch):
    # trees on 8-15 vertices, every leaf given 1-3 copies; s2 prints
    # nothing when --out is given
    monkeypatch.chdir(tmp_path)
    rng = random.Random(7)
    digest = hashlib.sha256()
    for _ in range(6):
        t = random_tree(rng.randint(8, 15), rng)
        alpha = ",".join(f"{v}:{rng.randint(1, 3)}" for v in sorted(t.leaves()))
        Path("t.el").write_text(edge_list_text(t))
        argv = ["s2", "t.el", "--alpha", alpha, "--out", "s2.el", "--labeling", "lab.json",
                "--dot", "s2.dot"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue() == ""
        for name in ("s2.el", "lab.json", "s2.dot"):
            digest.update(Path(name).read_bytes())
    assert digest.hexdigest() == S2_FILES_SHA256


def test_pairs_cap(tmp_path, capsys):
    f = tmp_path / "k3.el"
    f.write_text(edge_list_text(complete(3)))
    _, out = run_cli(capsys, "pairs", str(f), "--cap", "2")
    res = json.loads(out)["result"]
    assert res["count"] == 2 and len(res["pairs"]) == 2


def test_s2_and_invert_roundtrip(tmp_path, capsys, p6_file):
    out_el = tmp_path / "s2.el"
    sidecar = tmp_path / "lab.json"
    code, _ = run_cli(capsys, "s2", p6_file, "--out", str(out_el),
                      "--labeling", str(sidecar))
    assert code == 0
    lab = json.loads(sidecar.read_text())
    assert lab["base"]["n"] == 6 and len(lab["provenance"]) == 16
    code, out = run_cli(capsys, "invert", str(out_el))
    assert code == 0
    res = json.loads(out)["result"]
    assert res["is_2_subdivision"] is True
    assert res["base"]["n"] == 6 and res["base"]["m"] == 5


def test_s2_alpha_flag(tmp_path, capsys):
    f = tmp_path / "p2.el"
    f.write_text(edge_list_text(path(2)))
    code, out = run_cli(capsys, "s2", str(f), "--alpha", "0:2,1:3")
    assert code == 0
    assert out.splitlines()[0] == "7 6"


def test_s2_alpha_names_each_leaf_once(tmp_path, capsys):
    # a leaf named twice is an input error, not "the last count wins"
    f = tmp_path / "p7.el"
    f.write_text(edge_list_text(path(7)))
    assert main(["s2", str(f), "--alpha", "0:2,0:3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dpdp: error: --alpha names leaf 0 twice\n"


def test_s2_dot_export(tmp_path, capsys, p6_file):
    dot = tmp_path / "g.dot"
    run_cli(capsys, "s2", p6_file, "--out", str(tmp_path / "x.el"),
            "--dot", str(dot))
    assert dot.read_text().startswith("graph")


def test_invert_negative(tmp_path, capsys):
    f = tmp_path / "p5.el"
    f.write_text(edge_list_text(path(5)))
    _, out = run_cli(capsys, "invert", str(f))
    res = json.loads(out)["result"]
    assert res["is_2_subdivision"] is False and res["base"] is None


def test_goodsub_positive_and_negative(tmp_path, capsys, p6_file):
    code, out = run_cli(capsys, "goodsub", p6_file)
    res = json.loads(out)["result"]
    assert res["found"] is True
    assert res["certificate"]["q_vertices"] == [2, 3]

    f = tmp_path / "p4.el"
    f.write_text(edge_list_text(path(4)))
    _, out = run_cli(capsys, "goodsub", str(f))
    assert json.loads(out)["result"]["certificate"] is None


def test_survey_csv(tmp_path, capsys):
    g6 = tmp_path / "graphs.g6"
    g6.write_text("\n".join(write_graph6(g) for g in (complete(3), path(4), path(5))) + "\n")
    out_csv = tmp_path / "survey.csv"
    code, _ = run_cli(capsys, "survey", str(g6), "--out", str(out_csv))
    assert code == 0
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "input,n,m,dpdp,minimal,is_2_subdivision,good_subgraph_found"
    assert rows[1].endswith("3,3,true,true,true,false")  # K3
    assert rows[2].endswith("4,3,true,true,true,false")  # P4
    assert rows[3].endswith("5,4,false,false,false,false")  # P5


def test_survey_isolated_vertex_goodsub_na(tmp_path, capsys):
    g6 = tmp_path / "iso.g6"
    g6.write_text(write_graph6(Multigraph(3, [(0, 1)])) + "\n")
    _, out = run_cli(capsys, "survey", str(g6))
    assert out.splitlines()[1].endswith("3,1,false,false,false,n/a")


def test_survey_parallel_matches_serial(tmp_path, capsys, monkeypatch):
    # xcheck FILE goes through the same driver
    g6 = tmp_path / "graphs.g6"
    g6.write_text("\n".join(write_graph6(g) for g in (path(4), path(7), complete(4))) + "\n")
    for command in ("survey", "xcheck"):
        monkeypatch.setenv("DPDP_WORKERS", "1")
        _, serial = run_cli(capsys, command, str(g6))
        monkeypatch.setenv("DPDP_WORKERS", "2")
        _, parallel = run_cli(capsys, command, str(g6))
        assert serial == parallel


def test_pool_is_sized_by_the_input(tmp_path, capsys, monkeypatch):
    # each source has 6 graphs: DPDP_WORKERS=500 asks for 6 workers, not
    # 500, and with DPDP_WORKERS unset a process allowed on one CPU gets
    # no pool.  The stand-in pool records its size and chunk size and maps
    # serially, so no process is started
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            self.workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            sizes.append((self.workers, chunksize))
            return map(fn, items)

    # the driver imports the pool class when it runs, so it is patched at its source
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    g6 = tmp_path / "graphs.g6"
    g6.write_text("".join(write_graph6(path(n)) + "\n" for n in range(2, 8)))
    for argv in (["xcheck", "--max-edges", "2"], ["xcheck", str(g6)], ["survey", str(g6)]):
        sizes.clear()
        monkeypatch.setenv("DPDP_WORKERS", "1")
        _, serial = run_cli(capsys, *argv)
        assert sizes == []
        monkeypatch.setenv("DPDP_WORKERS", "500")
        _, pooled = run_cli(capsys, *argv)
        assert sizes == [(6, 1)]
        assert pooled == serial
        with monkeypatch.context() as m:
            m.delenv("DPDP_WORKERS")
            m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            _, default = run_cli(capsys, *argv)
        assert sizes == [(6, 1)]
        assert default == serial
        if argv[0] == "xcheck":
            assert json.loads(serial)["result"]["graphs_checked"] == 6
        else:
            assert len(serial.splitlines()) == 7
    # 17 graphs on 2 workers go in chunks of ceil(17 / (4 * 2)) = 3, the
    # size multiprocessing.Pool.map would pick
    g6.write_text("".join(write_graph6(path(n)) + "\n" for n in range(2, 19)))
    monkeypatch.setenv("DPDP_WORKERS", "1")
    _, serial = run_cli(capsys, "survey", str(g6))
    sizes.clear()
    monkeypatch.setenv("DPDP_WORKERS", "2")
    _, pooled = run_cli(capsys, "survey", str(g6))
    assert sizes == [(2, 3)]
    assert pooled == serial and len(serial.splitlines()) == 18


def test_non_integer_workers_is_a_one_line_error(capsys, monkeypatch):
    monkeypatch.setenv("DPDP_WORKERS", "abc")
    assert main(["xcheck", "--max-edges", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "dpdp: error: DPDP_WORKERS must be an integer, got 'abc'"
    ]


def test_xcheck_sweep(capsys):
    code, out = run_cli(capsys, "xcheck", "--max-edges", "3")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["consistent"] is True
    assert res["graphs_checked"] == 17  # catalog count for <= 3 edges
    assert res["disagreements"] == []


def test_xcheck_g6_file(tmp_path, capsys):
    g6 = tmp_path / "bases.g6"
    g6.write_text(write_graph6(path(3)) + "\n" + write_graph6(complete(4)) + "\n")
    code, out = run_cli(capsys, "xcheck", str(g6))
    assert code == 0
    assert json.loads(out)["result"]["graphs_checked"] == 2


def test_xcheck_disagreement_exit_code(capsys, monkeypatch):
    import dpdp.cli as cli_mod

    class FakeResult:
        base_n = 1
        base_m = 1
        minimal_by_deletion = True
        no_good_subgraph = False
        unique_pair_or_small_cycle = True

        @property
        def consistent(self):
            return False

    monkeypatch.setattr(cli_mod, "xcheck", lambda h: FakeResult())
    code, out = run_cli(capsys, "xcheck", "--max-edges", "1")
    assert code == 2
    res = json.loads(out)["result"]
    assert res["consistent"] is False and len(res["disagreements"]) == 2


def test_exit_code_1_on_input_errors(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.el")]) == 1
    bad = tmp_path / "bad.el"
    bad.write_text("not a graph\n")
    assert main(["check", str(bad)]) == 1
    f = tmp_path / "p2.el"
    f.write_text(edge_list_text(path(2)))
    assert main(["s2", str(f), "--alpha", "zero:x"]) == 1
    assert main(["xcheck"]) == 1  # neither --max-edges nor file
    capsys.readouterr()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_graph6_errors_name_the_line(tmp_path, capsys, monkeypatch, workers):
    # line numbers count blank lines; xcheck reads every line before it
    # checks any, so a malformed line is reported before a disconnected one.
    # A single-graph command given --format g6 reads a file of one graph:
    # any other count of non-blank lines is the error, not a body length
    monkeypatch.setenv("DPDP_WORKERS", workers)
    good = write_graph6(path(3))
    disconnected = write_graph6(Multigraph(3, [(0, 1)]))
    cut = write_graph6(path(4))[:1]  # the size byte alone
    check_g6, s2_g6 = ["check", "--format", "g6"], ["s2", "--format", "g6"]
    cases = [
        (["xcheck"], [good, good, "", disconnected], "line 4: xcheck needs a connected base graph"),
        (["xcheck"], [good, "", good, disconnected, cut],
         "line 5: graph6 body has 0 bytes, expected 1"),
        (["survey"], [good, "", cut, good], "line 3: graph6 body has 0 bytes, expected 1"),
        (check_g6, ["", cut], "line 2: graph6 body has 0 bytes, expected 1"),
        (check_g6, [good, good], "graph6 file has 2 non-blank lines, expected 1"),
        (check_g6, [""], "graph6 file has 0 non-blank lines, expected 1"),
        (s2_g6, [good, "", good, cut], "line 4: graph6 body has 0 bytes, expected 1"),
        (s2_g6, [good, "", good, good], "graph6 file has 3 non-blank lines, expected 1"),
    ]
    g6 = tmp_path / "bad.g6"
    for argv, lines, message in cases:
        g6.write_text("\n".join(lines) + "\n")
        assert main([*argv, str(g6)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"dpdp: error: {message}\n")


def test_s2_over_the_vertex_limit_is_a_one_line_error(tmp_path):
    # alpha would give K2's S2 100,000,003 vertices; the child's address
    # space is capped, so a build that starts anyway fails here instead of
    # exhausting the machine
    resource = pytest.importorskip("resource")
    f = tmp_path / "k2.el"
    f.write_text(edge_list_text(path(2)))
    src = str(Path(dpdp.__file__).resolve().parents[1])
    path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cap = 1 << 30

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "dpdp.cli", "s2", str(f), "--alpha", "0:100000000"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path_var),
        preexec_fn=limit_memory, timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("dpdp: error: ")
    assert f"limit of {MAX_EDGE_LIST_VERTICES}" in lines[0]


def test_huge_vertex_count_is_a_one_line_error(tmp_path, capsys):
    f = tmp_path / "huge.el"
    f.write_text("10000000000 0\n")
    assert main(["check", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("dpdp: error: ")


def test_too_deep_input_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    # no search recurses (test_long_inputs_run_at_recursion_limit_100), so
    # a RecursionError would be a bug, reported as any other
    def too_deep(g):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("dpdp.cli.find_dp_pair", too_deep)
    f = tmp_path / "p4.el"
    f.write_text(edge_list_text(path(4)))
    assert main(["check", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "dpdp: internal error: RecursionError: maximum recursion depth exceeded"
    ]


def test_internal_error_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    def broken(g):
        raise AssertionError("pair lost its matching")

    monkeypatch.setattr("dpdp.cli.find_dp_pair", broken)
    f = tmp_path / "p4.el"
    f.write_text(edge_list_text(path(4)))
    assert main(["check", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "dpdp: internal error: AssertionError: pair lost its matching"
    ]


def test_long_path_is_decided(tmp_path, capsys):
    n = 5000
    f = tmp_path / "p5000.el"
    f.write_text(edge_list_text(path(n)))
    code, out = run_cli(capsys, "check", str(f))
    assert code == 0
    res = json.loads(out)["result"]
    assert res["dpdp"] is True
    # re-check the pair from raw edges: D and P dominate, the matching
    # covers P exactly once with edges of the path
    d, p = set(res["pair"]["d"]), set(res["pair"]["p"])
    assert d | p == set(range(n)) and not d & p
    nbrs = {v: {w for w in (v - 1, v + 1) if 0 <= w < n} for v in range(n)}
    for s in (d, p):
        assert all(v in s or nbrs[v] & s for v in range(n))
    covered = []
    for u, v, eid in res["pair"]["matching"]:
        assert (u, v) == (eid, eid + 1)
        covered += [u, v]
    assert sorted(covered) == sorted(p)


def test_long_good_subgraph_paths_are_found(tmp_path, capsys):
    # the theta graph with paths of 601 edges: one path of its certificate
    # has 1,201 arcs
    f = tmp_path / "theta601.el"
    f.write_text(edge_list_text(theta(601)))
    code, out = run_cli(capsys, "goodsub", str(f))
    assert code == 0
    assert json.loads(out)["result"]["found"] is True


def test_long_inputs_run_at_recursion_limit_100(tmp_path, capsys, monkeypatch):
    # no command recurses once per vertex, edge or arc: with Python's
    # recursion limit at 100, set once dpdp.cli is imported, each exits 0
    # and prints what it prints at the default limit of 1,000
    p5000, theta601 = tmp_path / "p5000.el", tmp_path / "theta601.el"
    p5000.write_text(edge_list_text(path(5000)))
    theta601.write_text(edge_list_text(theta(601)))
    cubic = str(Path(__file__).parent / "fixtures" / "cubic_le10.g6")
    argvs = [
        ["check", str(p5000)], ["pairs", str(p5000)], ["minimal", str(p5000)],
        ["goodsub", str(theta601)], ["xcheck", "--max-edges", "5"], ["survey", cubic],
    ]
    code = (
        "import contextlib, io, json, sys, dpdp.cli\n"
        "sys.setrecursionlimit(100)\n"
        "runs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        runs.append([dpdp.cli.main(argv), out.getvalue()])\n"
        "print(json.dumps(runs))\n"
    )
    src = str(Path(dpdp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, DPDP_WORKERS="1")
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    monkeypatch.setenv("DPDP_WORKERS", "1")
    assert sys.getrecursionlimit() >= 1000
    want = [[*run_cli(capsys, *argv)] for argv in argvs]
    assert all(run[0] == 0 for run in want)
    assert json.loads(proc.stdout) == want, proc.stderr


def test_many_components_are_inverted(tmp_path, capsys):
    # S2 of 1,500 looped vertices is 1,500 disjoint triangles; the inversion
    # makes the lowest vertex of each triangle old
    n = 1500
    g, _ = build_s2(Multigraph(n, [(v, v) for v in range(n)]))
    f = tmp_path / "triangles.el"
    f.write_text(edge_list_text(g))
    code, out = run_cli(capsys, "invert", str(f))
    assert code == 0
    res = json.loads(out)["result"]
    assert res["is_2_subdivision"] is True
    base = res["base"]
    assert base["n"] == n and base["m"] == n
    assert all(u == v for u, v, _ in base["edges"])


def test_many_components_rejected_fast(tmp_path, capsys):
    # 16 disjoint copies of C9 plus the chord (1, 6): no 2-subdivision; a
    # search that backtracks across components takes seconds here and
    # doubles with every copy
    copies = 16
    edges = []
    for c in range(copies):
        o = 9 * c
        edges += [(o + i, o + (i + 1) % 9) for i in range(9)] + [(o + 1, o + 6)]
    f = tmp_path / "c9_chords.el"
    f.write_text(edge_list_text(Multigraph(9 * copies, edges)))
    start = time.perf_counter()
    code, out = run_cli(capsys, "invert", str(f))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["result"]["is_2_subdivision"] is False


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 1


def test_parser_keeps_no_state_between_calls(tmp_path, capsys):
    f = tmp_path / "k3.el"
    f.write_text(edge_list_text(complete(3)))
    _, out = run_cli(capsys, "pairs", str(f), "--cap", "3")
    assert json.loads(out)["result"]["cap"] == 3
    _, out = run_cli(capsys, "pairs", str(f))
    assert json.loads(out)["result"]["cap"] == 10
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 1


def test_byte_determinism(tmp_path, capsys, p6_file):
    runs = [run_cli(capsys, "goodsub", p6_file)[1] for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [run_cli(capsys, "check", p6_file)[1] for _ in range(2)]
    assert runs[0] == runs[1]


def test_console_script_installed(tmp_path):
    f = tmp_path / "k3.el"
    f.write_text(edge_list_text(complete(3)))
    # the child imports the same package as this process, installed or not
    src = str(Path(dpdp.__file__).resolve().parents[1])
    path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dpdp.cli", "check", str(f)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path_var),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["dpdp"] is True


def test_standard_library_only():
    # -S leaves site-packages, where networkx and hypothesis are installed,
    # off the path: the package must import and run without them
    src = str(Path(dpdp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, DPDP_WORKERS="1")
    import_all = (
        "import importlib, importlib.util, pkgutil, dpdp\n"
        "assert importlib.util.find_spec('hypothesis') is None\n"
        "for m in pkgutil.iter_modules(dpdp.__path__):\n"
        "    importlib.import_module('dpdp.' + m.name)\n"
    )
    for args in (["-c", import_all], ["-m", "dpdp.cli", "xcheck", "--max-edges", "3"]):
        proc = subprocess.run(
            [sys.executable, "-S", *args], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr


def test_one_worker_imports_no_process_pool():
    # the pool machinery, multiprocessing included, is imported only when a
    # pool of two or more workers runs, so one-worker commands start lighter
    src = str(Path(dpdp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, DPDP_WORKERS="1")
    code = (
        "import sys, dpdp.cli\n"
        "assert dpdp.cli.main(['xcheck', '--max-edges', '2']) == 0\n"
        "assert 'concurrent.futures.process' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_graph6_input_format(tmp_path, capsys):
    f = tmp_path / "k3.g6"
    f.write_text(write_graph6(complete(3)) + "\n")
    code, out = run_cli(capsys, "check", str(f), "--format", "g6")
    assert code == 0
    assert json.loads(out)["result"]["dpdp"] is True
    # every single-graph command gives the same result on a graph6 line as
    # on the edge list of the graph the graph6 reader builds from it (its
    # edge ids)
    el = tmp_path / "g.el"
    for h in (path(6), build_s2(path(4))[0]):
        line = write_graph6(h)
        f.write_text(line + "\n")
        el.write_text(edge_list_text(read_graph6(line)))
        for command in ("check", "pairs", "minimal", "invert", "goodsub"):
            results = []
            for source, fmt in ((f, "g6"), (el, "el")):
                code, out = run_cli(capsys, command, str(source), "--format", fmt)
                assert code == 0
                results.append(json.loads(out)["result"])
            assert results[0] == results[1], command


PAYLOAD_STRINGS = st.one_of(
    st.text(max_size=8),
    # quotes, backslashes, control characters, non-ASCII, a lone surrogate,
    # and the %-format markers that the row template must not read
    st.sampled_from(
        ['"', "\\", '\\"', "\n\t\x00\x1f\x7f", "\u00e9", "\u2603", "\U0001f600", "\ud800",
         "%", "%s", "%d", "%%", "a%sb%%c"]
    ),
)
PAYLOAD_SCALARS = (
    st.none() | st.booleans() | st.integers(-(10**20), 10**20) | PAYLOAD_STRINGS
)
PAYLOADS = st.recursive(
    PAYLOAD_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    # bools mixed into int lists, which must not print as 0 and 1
    | st.lists(st.integers(-5, 5) | st.booleans(), max_size=5)
    # lists of int lists such as edge triples, empty ones and bools included
    | st.lists(st.lists(st.integers(-5, 5) | st.booleans(), max_size=4), max_size=5)
    # rows of unequal length mixing strings and ints, such as provenance
    # tags, which the writer formats in one call; then bools and None too
    | st.lists(st.lists(st.integers(-5, 5) | PAYLOAD_STRINGS, min_size=1, max_size=4), max_size=5)
    | st.lists(st.lists(PAYLOAD_SCALARS, max_size=4), max_size=5)
    | st.dictionaries(PAYLOAD_STRINGS, inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(PAYLOADS)
def test_json_writer_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_json_writer_edge_cases():
    for obj in ({}, [], {"a": {}, "b": []}, [[], {}], [-1, 0, True, False, None],
                {'k"\\\n\u00e9': ["\x01", "\u2603"]}, [[]], [[], []], [[0, 1, 2], [3, 4, 5]],
                [[1, True], [False], []], [[1, 2], [3, [4]]], [[1], "x"], [[1], None],
                {"e": [[0, 1, 0]], "m": [[2, 3, 1], []]},
                [["old", 0], ["copy", 1, 2], ["new", 3, 1]], [["%s", 1]], [["%", "%%"]]):
        assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _json_text({"x": 1.5})
