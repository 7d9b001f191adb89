"""The lazy package namespace and what each entry point imports, checked
in fresh interpreters: the pytest process has every engine imported
already (conftest.py), so only a new process sees what `import dpdp`, its
submodules and the CLI's commands load by themselves."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dpdp

SRC = str(Path(dpdp.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"

# every dpdp module each import loads, and any of the standard-library
# modules that only decorators and annotations need: an enumeration loads
# none of the four engines or the CLI, and goodsub no other engine, so the
# good-subgraph verdict that xcheck compares stays independent of the
# DP-pair search
LOADED_BY = {
    "dpdp.catalog": "dpdp dpdp._canon dpdp.catalog dpdp.graph",
    "dpdp.graph": "dpdp dpdp.graph",
    "dpdp.goodsub": "dpdp dpdp.goodsub dpdp.graph",
}


def run_fresh(code: str, *flags: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC, DPDP_WORKERS="1")
    return subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize("module", LOADED_BY)
def test_enumeration_path_loads_no_engine(module):
    # -S keeps site's own imports (typing among them) out of the picture
    code = (
        "import sys\n"
        f"import {module}\n"
        "print(*sorted(m for m in sys.modules\n"
        "              if m.partition('.')[0] in ('dpdp', 'dataclasses', 'typing')))\n"
    )
    proc = run_fresh(code, "-S")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == LOADED_BY[module].split()


# what no command but xcheck --max-edges loads: the enumerator, and the
# standard-library modules that only dataclasses and typing would bring;
# no command loads the test oracles' scipy and numpy
NOT_ON_COMMAND_PATH = (
    "dataclasses", "inspect", "typing", "dpdp.catalog", "dpdp._canon", "scipy", "numpy",
)

XCHECK_LE2 = """{
  "command": "xcheck",
  "engine_version": "0.1.0",
  "input": "--max-edges 2",
  "result": {
    "consistent": true,
    "disagreements": [],
    "graphs_checked": 6
  }
}
"""


def test_commands_load_no_enumerator(tmp_path):
    el, g6 = tmp_path / "p4.el", tmp_path / "two.g6"
    el.write_text("4 3\n0 1\n1 2\n2 3\n")
    g6.write_text("Bw\nCr\n")  # K3 and C4
    commands = [
        ["check", str(el)], ["pairs", str(el)], ["minimal", str(el)],
        ["invert", str(el)], ["goodsub", str(el)], ["s2", str(el)],
        ["survey", str(g6)], ["xcheck", str(g6)],
    ]
    loaded = f"[m for m in {NOT_ON_COMMAND_PATH!r} if m in sys.modules]"
    code = (
        "import contextlib, io, sys\n"
        "import dpdp.cli\n"
        f"assert {loaded} == [], {loaded}\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert dpdp.cli.main(argv) == 0, argv\n"
        f"    assert {loaded} == [], (argv, {loaded})\n"
        "dpdp.cli.main(['xcheck', '--max-edges', '2'])\n"
    )
    proc = run_fresh(code, "-S")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == XCHECK_LE2


CODECS = (
    "read_graph6", "write_graph6", "read_graph6_file",
    "read_edge_list", "write_edge_list", "write_dot",
)


def test_codecs_live_only_in_graph():
    # one home per name: catalog imports Multigraph from graph and binds
    # none of the file codecs
    import dpdp.catalog
    import dpdp.graph

    for name in CODECS:
        assert not hasattr(dpdp.catalog, name) and callable(getattr(dpdp.graph, name)), name


def test_readme_example_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    proc = run_fresh(block.group(1))
    assert proc.returncode == 0, proc.stderr


def test_every_public_name_is_its_submodules_object():
    code = (
        "import importlib, dpdp\n"
        "assert set(dpdp.__all__) <= set(dir(dpdp))\n"
        "for name in dpdp.__all__:\n"
        "    if name == '__version__':\n"
        "        continue\n"
        "    module = importlib.import_module('dpdp.' + dpdp._SOURCE[name])\n"
        "    value = getattr(dpdp, name)\n"
        "    if name == 'catalog':\n"
        "        assert value is module, name\n"
        "    else:\n"
        "        assert value is getattr(module, name) and value.__module__ == module.__name__, name\n"
        "    assert name in vars(dpdp), name  # cached after the first lookup\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    # the 33 public names (the tree and forest helpers moved to
    # tests/helpers.py, EdgeRecord is no longer public, and ReductionPlan
    # and apply_reduction are gone), plus __version__
    assert len(set(dpdp.__all__)) == 34 and dpdp.__all__[-1] == "__version__"


def test_star_import_binds_every_public_name():
    code = (
        "from dpdp import *\n"
        "import dpdp\n"
        "missing = [n for n in dpdp.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
        "assert catalog.path(3).m == 2 and find_dp_pair(catalog.path(4)) is not None\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr


def test_unknown_attribute_raises():
    code = (
        "import sys, dpdp\n"
        "try:\n"
        "    dpdp.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
        "assert not hasattr(dpdp, 'domination_')\n"
        "assert [m for m in sys.modules if m.startswith('dpdp.')] == []\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr
