"""knncheck: decide whether a directed geometric graph is a k-nearest-neighborhood
graph or far from one, with sublinear oracle queries and one-sided error.

The package bundles the exact ground-truth oracle, the sublinear tester,
adversarial instance generators, a query-budget lower-bound simulator and a
desk-scale experiment harness, plus a CLI (`knncheck`).
"""

__version__ = "0.1.0"

from .core import EdgeBudget, GeometricGraph, OracleSession, QueryTally, dist2
from .graphio import KnngFormatError, read_knng, write_knng
from .exact import (
    DistanceReport,
    NeighborhoodProfile,
    WitnessSet,
    build_exact_knn_graph,
    epsilon_distance,
    k_nearest_set,
    max_shared_knn,
    witnesses_of,
)
from .tester import (
    Evidence,
    TesterConfig,
    Verdict,
    kissing_number,
    run_tester,
    sample_sizes,
)
from .generators import (
    corrupt_edges,
    dimension_lb_instances,
    line_gadget,
    sample_d1,
    sample_d2,
    tight_witness_construction,
)
from .adversary import KnowledgeState, estimate_collision_probability, simulate_queries
from .harness import (
    DatasetSpec,
    SweepConfig,
    SweepReport,
    SweepRow,
    export_report,
    query_budget_ratio,
    run_sweep,
)

__all__ = [
    "__version__",
    "GeometricGraph",
    "OracleSession",
    "EdgeBudget",
    "QueryTally",
    "dist2",
    "KnngFormatError",
    "read_knng",
    "write_knng",
    "DistanceReport",
    "NeighborhoodProfile",
    "WitnessSet",
    "k_nearest_set",
    "witnesses_of",
    "build_exact_knn_graph",
    "epsilon_distance",
    "max_shared_knn",
    "TesterConfig",
    "Verdict",
    "Evidence",
    "kissing_number",
    "sample_sizes",
    "run_tester",
    "line_gadget",
    "sample_d1",
    "sample_d2",
    "tight_witness_construction",
    "corrupt_edges",
    "dimension_lb_instances",
    "KnowledgeState",
    "simulate_queries",
    "estimate_collision_probability",
    "DatasetSpec",
    "SweepConfig",
    "SweepRow",
    "SweepReport",
    "run_sweep",
    "query_budget_ratio",
    "export_report",
]
