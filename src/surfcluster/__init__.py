"""Exact Laurent expansions of cluster variables from triangulated surfaces,
with a seed-mutation oracle for cross-validation."""

from .poly import (
    ExponentOverflow,
    LaurentPoly,
    NonInvertibleSubstitution,
    NotDivisible,
    VarId,
)
from .surface import (
    CrossingPath,
    Crossing,
    Ordinary,
    SelfFolded,
    TaggedArcRef,
    Topology,
    Triangulation,
    signed_adjacency,
    validate_path,
    validate_surface,
)
from .snake import SnakeGraph, LoopGraph, build_snake, build_loop_graph, build_loop_path
from .matchings import (
    enumerate_matchings,
    gamma_symmetric_filter,
    compatible_pairs,
    height_exponents,
    minimal_maximal,
    phi_specialize,
)
from .expand import (
    Expansion,
    crossing_monomial,
    expand_arc,
    expand_double_notch,
    expand_notched_loop,
    expand_ordinary,
    expand_single_notch,
    f_polynomial,
    g_vector,
    retag_expansion,
)
from .mutation import (
    Seed,
    DivisionFailed,
    f_from_x,
    mutate_seed,
    principal_seed,
    run_sequence,
    specialize_geometric,
    tropical_coeffs,
)

__version__ = "0.1.0"
