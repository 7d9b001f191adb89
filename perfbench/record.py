"""Record the expected outputs the benchmark gates on: the stdout digest of
every xcheck and survey item, and the verdict/partition digest of every
S2 graph for the given tree seeds.

    PYTHONPATH=src DPDP_WORKERS=1 python3 perfbench/record.py [TREE_SEED ...]

Run it only when a change is meant to alter
those outputs; say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import worker


def digests(name: str, tree_seed: int = 1) -> list[str]:
    stub = {
        "xcheck_simple6": {"item_digests": [""] * 142},
        "survey_cubic8": {"item_digests": [""] * 8},
        "recognize_s2trees": {"tree_seeds": {}},
    }
    args = argparse.Namespace(seed=1, tree_seed=tree_seed)
    records = worker.run_pass(worker.SETUPS[name](args, stub), None)
    for rec in records:
        if rec["digest"] is None:
            sys.exit(f"{name} item {rec['id']}: {rec['problem']}")
    return [rec["digest"] for rec in sorted(records, key=lambda r: r["id"])]


def main() -> None:
    os.chdir(worker.ROOT)  # item paths in the outputs are relative to it
    tree_seeds = [int(s) for s in sys.argv[1:]] or [1, 2]
    expected = {
        "xcheck_simple6": {"item_digests": digests("xcheck_simple6")},
        "survey_cubic8": {"item_digests": digests("survey_cubic8")},
        "recognize_s2trees": {
            "tree_seeds": {str(t): digests("recognize_s2trees", t) for t in tree_seeds}
        },
    }
    with open(os.path.join(worker.HERE, "expected.json"), "w", encoding="utf-8") as f:
        json.dump(expected, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
