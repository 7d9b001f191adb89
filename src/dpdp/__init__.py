"""Exact toolkit for DPDP-graphs.

Recognition of graphs whose vertex set splits into a dominating set and a
paired-dominating set, 2-subdivision construction and inversion,
good-subgraph certificates, and minimality decided three independent ways
with a built-in cross-validation harness.
"""

from .graph import EdgeRecord, Multigraph, is_cycle_graph, is_path_graph
from .domination import (
    DpPair,
    dp_pair_problem,
    enumerate_dp_pairs,
    find_dp_pair,
    has_perfect_matching_on,
    is_dominating,
    is_dp_pair,
    is_dpdp,
    is_paired_dominating,
)
from .subdivision import (
    S2Labeling,
    build_s2,
    canonical_dp_pair,
    invert_s2,
    is_2_subdivision,
)
from .goodsub import (
    GoodSubgraphCertificate,
    ReductionPlan,
    apply_reduction,
    edge_boundary,
    find_good_subgraph,
    forest_good_decomposition_check,
    reduce_via_good_subgraph,
    tree_find_good_subtree,
    verify_good_certificate,
)
from .minimality import (
    MinimalityReport,
    XcheckResult,
    check_reducible_pattern,
    classify,
    deletion_witness,
    is_minimal_by_deletion,
    is_small_cycle_369,
    minimal_pair_properties,
    minimal_spanning_dpdp_subgraph,
    xcheck,
)
from . import catalog

__version__ = "0.1.0"

__all__ = [
    "EdgeRecord",
    "Multigraph",
    "is_path_graph",
    "is_cycle_graph",
    "DpPair",
    "is_dominating",
    "has_perfect_matching_on",
    "is_paired_dominating",
    "is_dp_pair",
    "dp_pair_problem",
    "find_dp_pair",
    "is_dpdp",
    "enumerate_dp_pairs",
    "S2Labeling",
    "build_s2",
    "canonical_dp_pair",
    "invert_s2",
    "is_2_subdivision",
    "GoodSubgraphCertificate",
    "ReductionPlan",
    "edge_boundary",
    "verify_good_certificate",
    "find_good_subgraph",
    "reduce_via_good_subgraph",
    "apply_reduction",
    "tree_find_good_subtree",
    "forest_good_decomposition_check",
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
    "catalog",
    "__version__",
]
