"""The package's public names, pinned so that removing one is a deliberate change."""

import ast
import inspect
from collections import Counter
from pathlib import Path

import markedposets

PUBLIC_NAMES = {
    "ChainOrderPartition", "ChainTwoLevelResult", "DimensionTooLarge", "EmptyPolytope",
    "ExtensionExplosion", "ExtensionWord", "HRepresentation",
    "LinearInequality", "MarkedPoset", "MarkedPosetError",
    "MarkingReport", "NonIntegralVertices", "Poset",
    "PreconditionViolated", "TwoLevelResult", "UnboundedPolytope", "UnivariatePolynomial",
    "VRepresentation", "VerificationFailed",
    "build_chain_hrep", "build_chain_order_hrep", "build_order_hrep",
    "canonical_labeling", "chain_order_two_level_criterion", "chain_two_level_criterion",
    "count_lattice_points", "count_restricted_extensions", "ehrhart_by_counting",
    "ehrhart_formula_marked_order", "enumerate_vertices", "induced_subposet",
    "interpolate_polynomial", "irredundant", "is_two_level_direct",
    "linear_extensions", "order_facets_combinatorial",
    "order_two_level_criterion", "order_vertices_combinatorial", "pm_closed_form",
    "pm_family", "restrict_marked", "restricted_linear_extensions",
    "validate_marked",
}


# exported functions that no code in the package calls, each with the reason it stays public
UNCALLED_EXPORTS = {
    "order_facets_combinatorial": "the bench checks the CLI's order facets against it",
    "count_restricted_extensions": "acceptance criterion 3 reads the extension census",
    "order_vertices_combinatorial": "the paper's vertices as assignments with no free block; "
                                    "the tests hold the vertex route equal to it",
    "pm_closed_form": "the paper's closed form for the P_{m,c} family; the bench checks the formula route "
                      "against it",
}


def star_import() -> dict:
    namespace: dict = {}
    exec("from markedposets import *", namespace)
    return {name: value for name, value in namespace.items()
            if name != "__builtins__" and not inspect.ismodule(value)}


def test_star_import_exports_the_pinned_names():
    assert set(star_import()) == PUBLIC_NAMES


def test_every_exported_function_has_a_caller_in_the_package():
    # a Name or Attribute load in any module but __init__, outside the function's own def
    loaded: set[str] = set()
    for path in Path(markedposets.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            loaded |= names
    functions = {name for name, value in star_import().items() if inspect.isfunction(value)}
    assert functions - loaded == set(UNCALLED_EXPORTS)


def loaded_names(node: ast.AST) -> Counter:
    """How often each name is loaded, as a Name or an Attribute, in ``node``."""
    return Counter(inner.id if isinstance(inner, ast.Name) else inner.attr for inner in ast.walk(node)
                   if isinstance(inner, (ast.Name, ast.Attribute)) and isinstance(inner.ctx, ast.Load))


def test_every_private_helper_is_referenced_outside_its_own_def():
    # module-level private functions and private methods; a helper that a
    # refactor leaves unused, or that only calls itself, fails here
    trees = [ast.parse(path.read_text()) for path in Path(markedposets.__file__).parent.glob("*.py")]
    loads = sum(map(loaded_names, trees), Counter())
    statements = [stmt for tree in trees for stmt in tree.body]
    methods = [stmt for cls in statements if isinstance(cls, ast.ClassDef) for stmt in cls.body]
    defs = [node for node in statements + methods
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.endswith("__")]
    assert defs
    assert sorted(node.name for node in defs if loads[node.name] == loaded_names(node)[node.name]) == []
