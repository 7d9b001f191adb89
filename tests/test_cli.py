from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpdp
from dpdp.catalog import complete, cycle, path, write_graph6
from dpdp.cli import main
from dpdp.domination import DpPair, is_dp_pair
from dpdp.graph import Multigraph

from helpers import edge_list_text


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
    g6 = tmp_path / "graphs.g6"
    g6.write_text("\n".join(write_graph6(g) for g in (path(4), path(7), complete(4))) + "\n")
    monkeypatch.setenv("DPDP_WORKERS", "1")
    _, serial = run_cli(capsys, "survey", str(g6))
    monkeypatch.setenv("DPDP_WORKERS", "2")
    _, parallel = run_cli(capsys, "survey", str(g6))
    assert serial == parallel


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


def test_too_deep_input_is_a_one_line_error(tmp_path, capsys):
    f = tmp_path / "p5000.el"
    f.write_text(edge_list_text(path(5000)))
    assert main(["check", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("dpdp: error: input too deep")


def test_usage_error_exits_1():
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


def test_graph6_input_format(tmp_path, capsys):
    f = tmp_path / "k3.g6"
    f.write_text(write_graph6(complete(3)) + "\n")
    code, out = run_cli(capsys, "check", str(f), "--format", "g6")
    assert code == 0
    assert json.loads(out)["result"]["dpdp"] is True
