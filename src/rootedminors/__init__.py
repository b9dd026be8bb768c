"""Rooted graph-minor search and machine verification toolkit.

Labeled multigraphs with stable edge ids, exhaustive rooted minor search
with verifiable certificates, 2-roundedness checking for the K3,3
extension families, GF(2) binary matroids including R12 and R10, and the
exhaustive verification runs tying them together.
"""
from .catalog import CatalogEntry, build, list_names
from .io import from_graph6, from_json, load_graph, to_graph6, to_json
from .isomorphism import are_isomorphic, is_isomorphism
from .matroids import (
    BinaryMatroid,
    MatroidError,
    cycle_matroid,
    matroid_has_minor,
    matroid_isomorphic,
    r10,
    r12,
    verify_r12_claims,
)
from .minors import (
    DEFAULT_NODE_CAP,
    FAMILY_A,
    FAMILY_B,
    MinorModel,
    SearchBudgetExceeded,
    apply_model,
    find_family_minor,
    find_minor,
    is_planar,
    k5_iff_k331,
    obstruction,
    preserve_triangle_k331,
    preserve_triangle_k5,
    verify_model,
)
from .multigraph import (
    GraphError,
    LabeledMultigraph,
    VertexSplit,
    complete_graph,
    is_three_connected,
)
from .rounded import (
    Candidate,
    RoundednessReport,
    enumerate_coextensions,
    enumerate_extensions,
    verify_two_rounded,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatroid",
    "Candidate",
    "CatalogEntry",
    "DEFAULT_NODE_CAP",
    "FAMILY_A",
    "FAMILY_B",
    "GraphError",
    "LabeledMultigraph",
    "MatroidError",
    "MinorModel",
    "RoundednessReport",
    "SearchBudgetExceeded",
    "VertexSplit",
    "apply_model",
    "are_isomorphic",
    "build",
    "complete_graph",
    "cycle_matroid",
    "enumerate_coextensions",
    "enumerate_extensions",
    "find_family_minor",
    "find_minor",
    "from_graph6",
    "from_json",
    "is_isomorphism",
    "is_planar",
    "is_three_connected",
    "k5_iff_k331",
    "list_names",
    "load_graph",
    "matroid_has_minor",
    "matroid_isomorphic",
    "obstruction",
    "preserve_triangle_k331",
    "preserve_triangle_k5",
    "r10",
    "r12",
    "to_graph6",
    "to_json",
    "verify_model",
    "verify_r12_claims",
    "verify_two_rounded",
]
