"""Marked poset polytopes: exact geometry, 2-levelness criteria, Ehrhart polynomials."""

from .errors import (
    DimensionTooLarge,
    EmptyPolytope,
    ExtensionExplosion,
    MarkedPosetError,
    NonIntegralVertices,
    PointOutsidePolytope,
    PreconditionViolated,
    UnboundedPolytope,
    VerificationFailed,
)
from .geometry import (
    HRepresentation,
    LinearInequality,
    UnivariatePolynomial,
    VRepresentation,
    contains,
    count_lattice_points,
    enumerate_vertices,
    interpolate_polynomial,
    irredundant,
    polynomial,
)
from .posets import (
    ChainOrderPartition,
    ExtensionWord,
    MarkedPoset,
    MarkingReport,
    Poset,
    canonical_labeling,
    induced_subposet,
    linear_extensions,
    restrict_marked,
    validate_marked,
)
from .polytopes import (
    FacePartition,
    build_chain_hrep,
    build_chain_order_hrep,
    build_order_hrep,
    face_partition_of_point,
    is_face_partition,
    order_facets_combinatorial,
    order_vertices_combinatorial,
)
from .twolevel import (
    ChainTwoLevelResult,
    TwoLevelResult,
    chain_order_two_level_criterion,
    chain_two_level_criterion,
    is_two_level_direct,
    order_two_level_criterion,
)
from .ehrhart import (
    count_restricted_extensions,
    ehrhart_by_counting,
    ehrhart_formula_marked_order,
    pm_closed_form,
    pm_family,
    restricted_linear_extensions,
)

__version__ = "0.1.0"
