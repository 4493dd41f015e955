"""Exact invariants of spatial graph embeddings.

Builds straight-line and polyline embeddings of complete and tripartite
graphs over the rationals, computes linking numbers and second Conway
coefficients of the knots and links their cycles trace, and verifies the
integer identities those invariants satisfy, all in exact arithmetic.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .errors import (
    GenericityExhausted,
    GenericityFailure,
    IdentityViolation,
    InvariantContractError,
    KnotCensusError,
    SamplingExhausted,
    ScaleLimitExceeded,
)
from .graphs import (
    SimpleGraph,
    canonical_cycle,
    complete_graph,
    enumerate_cycles,
    enumerate_disjoint_pairs,
    k331_graph,
    k331_h_subgraph,
)
from .geometry import (
    SpatialEmbedding,
    embedding_from_json,
    embedding_to_json,
    moment_curve_embedding,
    random_k331_embedding,
    random_polyline_embedding,
    random_rectilinear_embedding,
    read_embedding,
    validate_embedding,
    write_embedding,
)
from .projection import (
    LinkDiagram,
    ProjectionFrame,
    frame_from_direction,
    frame_sequence,
)
from .invariants import (
    InvariantRecord,
    classify_triangle_triangle,
    stick_bound_a2,
)
from .theorems import (
    CATALOG,
    CensusReport,
    ClassSummary,
    EmbeddingAnalysis,
    IdentityReport,
    applicable_identities,
    census,
    expected_residue,
    lower_bound_value,
    r_n,
    upper_bound_value,
    verify_embedding,
    verify_identity,
)

# Importing a submodule binds it in this namespace; it is not an export.
__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
