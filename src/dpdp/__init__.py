"""Exact toolkit for DPDP-graphs.

Recognition of graphs whose vertex set splits into a dominating set and a
paired-dominating set, 2-subdivision construction and inversion,
good-subgraph certificates, and minimality decided three independent ways
with a built-in cross-validation harness.

The package namespace is lazy (PEP 562): `import dpdp` loads no submodule,
and a public name imports the submodule that defines it on first use.  So
`import dpdp.catalog` loads only graph, _canon and catalog, and an
enumeration never compiles the engines it does not run.  `import
dpdp.cli` loads graph and the four engines but not catalog or _canon,
which only `xcheck --max-edges` imports; no submodule imports
`dataclasses` or `typing`.  Each name has one home: the file codecs are
names of `dpdp.graph` alone, and graph's EdgeRecord, kept for the
benchmark's view `Multigraph.edges`, is not a package-level name.
"""

from importlib import import_module

__version__ = "0.1.0"

#: every public name, by the submodule that defines it; catalog names the
#: submodule itself
_EXPORTS = {
    "graph": ("Multigraph", "is_path_graph", "is_cycle_graph"),
    "domination": (
        "DpPair",
        "is_dominating",
        "has_perfect_matching_on",
        "is_paired_dominating",
        "is_dp_pair",
        "dp_pair_problem",
        "find_dp_pair",
        "is_dpdp",
        "enumerate_dp_pairs",
    ),
    "subdivision": ("S2Labeling", "build_s2", "canonical_dp_pair", "invert_s2", "is_2_subdivision"),
    "goodsub": (
        "GoodSubgraphCertificate",
        "ReductionPlan",
        "edge_boundary",
        "verify_good_certificate",
        "find_good_subgraph",
        "reduce_via_good_subgraph",
        "apply_reduction",
    ),
    "minimality": (
        "MinimalityReport",
        "XcheckResult",
        "is_minimal_by_deletion",
        "deletion_witness",
        "check_reducible_pattern",
        "minimal_spanning_dpdp_subgraph",
        "is_small_cycle_369",
        "minimal_pair_properties",
        "classify",
        "xcheck",
    ),
    "catalog": ("catalog",),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
