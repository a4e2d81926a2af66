"""Orientable distance magic labelings of graphs over the cyclic group Z_n.

A labeling assigns the residues 0..n-1 bijectively to the vertices; an
orientation turns each edge into an arc.  The weight of a vertex is the sum of
the labels on its in-neighbors minus the sum on its out-neighbors, and the
pair is magic when every weight is the same residue.  This package constructs
such labelings for complete graphs and blown-up cliques, proves nonexistence
through regularity and parity obstructions, and settles small graphs by
exhaustive search.
"""

from .constructors import (
    FamilyDecision,
    STATUS_MAGIC,
    STATUS_NOT_MAGIC,
    case2_expected_mu,
    construct_case1,
    construct_case2,
    construct_complete,
    construct_empty,
    decide_kmokn,
    kmokn_graph,
)
from .graphs import (
    FormatError,
    Orientation,
    UndirectedGraph,
    cartesian,
    complete,
    complete_multipartite,
    cycle,
    empty_graph,
    graph_to_text,
    lexicographic,
    parse_graph,
    path,
    prism,
    regularity,
)
from .obstructions import (
    NonexistenceCertificate,
    parity_feasibility,
    parity_solutions,
    prism_nonexistence,
    theorem1_check,
)
from .search import (
    SearchConfig,
    SearchOutcome,
    SearchStats,
    VERDICT_EXHAUSTED,
    VERDICT_INCONCLUSIVE,
    VERDICT_WITNESS,
    decide_existence,
)
from .verifier import (
    Labeling,
    MagicCertificate,
    NotALabelingError,
    Violation,
    all_weights,
    bind_certificate,
    certificate_to_text,
    parse_certificate,
    read_certificate,
    verify,
)
from .zero_sum import (
    Case1SetSystem,
    ZeroSumPartition,
    case1_sets,
    symmetric_set,
    validate_partition,
    zero_sum_partition,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "UndirectedGraph", "Orientation", "FormatError",
    "complete", "empty_graph", "path", "cycle", "complete_multipartite",
    "lexicographic", "cartesian", "prism", "regularity",
    "graph_to_text", "parse_graph",
    "ZeroSumPartition", "Case1SetSystem", "zero_sum_partition", "case1_sets",
    "validate_partition", "symmetric_set",
    "Labeling", "MagicCertificate", "Violation", "NotALabelingError",
    "verify", "all_weights",
    "certificate_to_text", "parse_certificate", "bind_certificate", "read_certificate",
    "FamilyDecision", "STATUS_MAGIC", "STATUS_NOT_MAGIC",
    "construct_complete", "construct_empty", "construct_case1", "construct_case2",
    "case2_expected_mu", "decide_kmokn", "kmokn_graph",
    "NonexistenceCertificate",
    "theorem1_check", "parity_feasibility", "parity_solutions", "prism_nonexistence",
    "SearchConfig", "SearchStats", "SearchOutcome",
    "VERDICT_WITNESS", "VERDICT_EXHAUSTED", "VERDICT_INCONCLUSIVE",
    "decide_existence",
]
