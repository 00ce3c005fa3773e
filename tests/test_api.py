"""The package's public names, pinned so that removing one is a deliberate change."""

import inspect

import markedposets

PUBLIC_NAMES = {
    "ChainOrderPartition", "ChainTwoLevelResult", "DimensionTooLarge", "EmptyPolytope",
    "ExtensionExplosion", "ExtensionWord", "FacePartition", "HRepresentation",
    "LinearInequality", "MarkedPoset", "MarkedPosetError",
    "MarkingReport", "NonIntegralVertices", "PointOutsidePolytope", "Poset",
    "PreconditionViolated", "TwoLevelResult", "UnboundedPolytope", "UnivariatePolynomial",
    "VRepresentation", "VerificationFailed", "affine_dimension",
    "augment_marked_order", "build_chain_hrep", "build_chain_order_hrep", "build_order_hrep",
    "canonical_labeling", "chain_order_two_level_criterion", "chain_two_level_criterion",
    "contains", "count_lattice_points", "count_restricted_extensions", "ehrhart_by_counting",
    "ehrhart_formula_marked_order", "enumerate_vertices",
    "face_partition_of_point", "induced_subposet",
    "interpolate_polynomial", "irredundant", "is_face_partition", "is_two_level_direct",
    "linear_extensions", "maximal_marked_chains", "order_facets_combinatorial",
    "order_two_level_criterion", "order_vertices_combinatorial", "pm_closed_form",
    "pm_family", "polynomial", "restrict_marked", "restricted_linear_extensions",
    "validate_marked",
}


def test_star_import_exports_the_pinned_names():
    namespace: dict = {}
    exec("from markedposets import *", namespace)
    exported = {name for name, value in namespace.items()
                if name != "__builtins__" and not inspect.ismodule(value)}
    assert exported == PUBLIC_NAMES
