"""Exact Cox ring computations for du Val (ADE) surface singularity resolutions.

The package builds resolution dual graphs, computes their multigraded
invariant rings by exact Hilbert-basis methods, assembles candidate Cox ring
presentations, and audits the divisor-reduction equivalences step by step
with exact cokernel dimensions.
"""

__version__ = "0.1.0"

from .cox import presentation_from_graph, verify_presentation
from .errors import (
    CoxforgeError,
    HypothesisViolationError,
    ParameterError,
    UnsupportedGraphError,
)
from .graphs import ResolutionGraph, build_custom_tree, build_singularity
from .invariants import verify_invariant_table
from .reduction import (
    audit_add_curve,
    full_equivalence_audit,
    reduce_nef_to_basic,
    reduce_to_nef,
)
from .rings import solve_degree_system

__all__ = [
    "CoxforgeError",
    "HypothesisViolationError",
    "ParameterError",
    "ResolutionGraph",
    "UnsupportedGraphError",
    "__version__",
    "audit_add_curve",
    "build_custom_tree",
    "build_singularity",
    "full_equivalence_audit",
    "presentation_from_graph",
    "reduce_nef_to_basic",
    "reduce_to_nef",
    "solve_degree_system",
    "verify_invariant_table",
    "verify_presentation",
]
