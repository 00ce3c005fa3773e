"""Command-line surface: validate posets, build polytopes, run the pipelines.

Subcommands: validate | polytope | two-level | ehrhart | corpus.  Input is a
JSON document per marked poset (or a --builtin generator); every report is
deterministic given the input and flags.  Exit codes: 0 success/agreement,
1 domain failure or disagreement, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import gallery
from .corpus import corpus
from .ehrhart import (
    ehrhart_by_counting,
    ehrhart_formula_marked_order,
    pm_family,
)
from .errors import MarkedPosetError
from .geometry import HRepresentation, enumerate_vertices
from .polytopes import _facets, build_chain_hrep, build_chain_order_hrep, build_order_hrep
from .posets import ChainOrderPartition, MarkedPoset, Poset, validate_marked
from .twolevel import (
    chain_order_two_level_criterion,
    chain_two_level_criterion,
    is_two_level_direct,
    order_two_level_criterion,
)

DOCUMENT_KEYS = {"name", "elements", "covers", "marked", "partition"}
PARTITION_KEYS = {"chain", "order"}


class DocumentError(ValueError):
    pass


def parse_document(data: object, fallback_name: str = "poset"):
    """Deserialize one marked-poset document; unknown fields are rejected."""
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object")
    unknown = set(data) - DOCUMENT_KEYS
    if unknown:
        raise DocumentError(f"unknown fields: {sorted(unknown)}")
    for key in ("elements", "covers", "marked"):
        if key not in data:
            raise DocumentError(f"missing field: {key}")
    name = data.get("name", fallback_name)
    if not isinstance(name, str):
        raise DocumentError("name must be a string")
    elements = data["elements"]
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise DocumentError("elements must be a list of strings")
    covers = data["covers"]
    if not isinstance(covers, list) or not all(
            isinstance(c, list) and len(c) == 2 and isinstance(c[0], str) and isinstance(c[1], str)
            for c in covers):
        raise DocumentError("covers must be a list of [p, q] pairs")
    marked = data["marked"]
    if not isinstance(marked, dict) or not all(
            isinstance(k, str) and isinstance(v, int) and not isinstance(v, bool)
            for k, v in marked.items()):
        raise DocumentError("marked must map element ids to integers")
    # a ValueError of the poset, the marking or the partition leaves as a
    # DocumentError with the same message
    try:
        mp = MarkedPoset(Poset(elements, [tuple(c) for c in covers]), marked)
        partition = None
        if "partition" in data:
            raw = data["partition"]
            if not isinstance(raw, dict) or set(raw) - PARTITION_KEYS:
                raise DocumentError("partition must be an object with keys chain, order")
            chain = raw.get("chain", [])
            order = raw.get("order", [])
            if not all(isinstance(part, list) and all(isinstance(e, str) for e in part)
                       for part in (chain, order)):
                raise DocumentError("partition parts must list element ids")
            partition = ChainOrderPartition(frozenset(chain), frozenset(order))
            partition.validate(mp)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    return name, mp, partition


def _builtin(request: str):
    kind, _, args = request.partition(":")
    if kind == "figure1":
        if args:
            raise DocumentError(f"builtin {request!r} must have the form figure1 with no arguments")
        return "figure1", gallery.crossing_chains(), None
    if kind not in ("diamond", "pm"):
        raise DocumentError(f"unknown builtin {request!r}")
    try:
        first, second = map(int, args.split(",")) if args or kind == "pm" else (0, 2)
    except ValueError:
        form = "lo,hi" if kind == "diamond" else "m,c"
        raise DocumentError(f"builtin {request!r} must have the form {kind}:{form}"
                            " with two integers") from None
    build = gallery.diamond if kind == "diamond" else pm_family
    return f"{kind}:{first},{second}", build(first, second), None


def _load(args) -> tuple[str, MarkedPoset, ChainOrderPartition | None]:
    if args.builtin and args.file:
        raise DocumentError("give either a file or --builtin, not both")
    if args.builtin:
        return _builtin(args.builtin)
    if not args.file:
        raise DocumentError("either a file or --builtin is required")
    with open(args.file) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise DocumentError("document is nested too deeply to parse") from None
    return parse_document(data, fallback_name=os.path.basename(args.file))


def format_hrep(h: HRepresentation) -> str:
    lines = ["coords " + " ".join(h.coordinates)]
    for kind, relation, rows in (("ineq", "<=", h.inequalities), ("eq", "==", h.equalities)):
        # only the nonzero cells are rendered; the zeros share one string
        lines.extend(f"{kind} {' '.join(h._dense(row, '0', str))} {relation} {row.rhs}"
                     for row in rows)
    return "\n".join(lines)


def _hrep_payload(h: HRepresentation) -> dict:
    """The rows as JSON-ready objects; each row's ``coeffs`` dict is shared, not copied."""
    payload: dict = {"coordinates": list(h.coordinates)}
    for key, rows in (("inequalities", h.inequalities), ("equalities", h.equalities)):
        payload[key] = [{"coeffs": row.coeffs, "rhs": str(row.rhs)} for row in rows]
    return payload


def _family_hrep(mp, partition, family: str) -> HRepresentation:
    if family == "order":
        return build_order_hrep(mp)
    if family == "chain":
        return build_chain_hrep(mp)
    if partition is None:
        raise DocumentError("family chain-order requires a partition")
    return build_chain_order_hrep(mp, partition)


def _report(args, result, text, code: int = 0, **fields) -> int:
    """Print the report of one command and return its exit code ``code``.

    With ``--json`` the report is ``{"command": ..., **fields, "result": result}``;
    else it is ``text``, which, when callable, is rendered only then.
    """
    if args.json:
        print(json.dumps({"command": args.command, **fields, "result": result}, sort_keys=True))
    else:
        print(text() if callable(text) else text)
    return code


def _compare(args, lines: list, result: dict, key: str, same: bool, words) -> int:
    """Under ``--method both``, report whether the two routes agree; the exit code.

    ``words`` are the text verdicts for agreement and disagreement, ``key``
    the result field that holds it.
    """
    if args.method != "both":
        return 0
    lines.append(words[0] if same else words[1])
    result[key] = same
    return 0 if same else 1


def cmd_validate(args) -> int:
    name, mp, _ = _load(args)
    report = validate_marked(mp)
    violations = [list(map(str, violation)) for violation in report.violations]
    text = "\n".join([f"poset: {name}", f"strict: {str(report.strict).lower()}",
                      f"regular: {str(report.regular).lower()}",
                      *("violation: " + " ".join(parts) for parts in violations)])
    result = {"strict": report.strict, "regular": report.regular, "violations": violations}
    return _report(args, result, text, 0 if report.strict and report.regular else 1, input=name)


def cmd_polytope(args) -> int:
    name, mp, partition = _load(args)
    h = _family_hrep(mp, partition, args.family)
    if args.emit == "vertices":
        v = enumerate_vertices(h)
        text = lambda: "\n".join(" ".join(str(x) for x in vert) for vert in v.vertices)
        result = {
            "coordinates": list(v.coordinates),
            "vertices": [[str(x) for x in vert] for vert in v.vertices],
        }
    else:
        if args.emit == "facets":
            h = _facets(mp, h)
        text = lambda: format_hrep(h)
        result = _hrep_payload(h)
    return _report(args, result, text, input=name, family=args.family, emit=args.emit)


def cmd_two_level(args) -> int:
    name, mp, partition = _load(args)
    # checks the chain-order partition for every method; the chain criteria read the memoised H-rep
    h = _family_hrep(mp, partition, args.family)
    lines = []
    result: dict = {}
    direct = criterion = None
    if args.method in ("direct", "both"):
        outcome = is_two_level_direct(h)
        direct = outcome.two_level
        lines.append(f"direct: {str(direct).lower()}")
        result["direct"] = direct
        if outcome.witness is not None:
            values = ", ".join(str(v) for v in outcome.witness.values)
            lines.append(f"witness: {outcome.witness.facet!r} values {{{values}}}")
            result["witness"] = {
                "facet": dict(outcome.witness.facet.coeffs),
                "rhs": str(outcome.witness.facet.rhs),
                "values": [str(v) for v in outcome.witness.values],
            }
    if args.method in ("criterion", "both"):
        if args.family == "order":
            criterion = order_two_level_criterion(mp)
        elif args.family == "chain":
            chain_result = chain_two_level_criterion(mp)
            criterion = chain_result.two_level
            if chain_result.scaling is not None:
                scaling = " ".join(f"{c}={chain_result.scaling[c]}"
                                   for c in sorted(chain_result.scaling))
                lines.append(f"scaling: {scaling}")
                result["scaling"] = {c: str(v) for c, v in chain_result.scaling.items()}
        else:
            criterion = chain_order_two_level_criterion(mp, partition)
        lines.append(f"criterion: {str(criterion).lower()}")
        result["criterion"] = criterion
    code = _compare(args, lines, result, "agree", direct == criterion, ("AGREE", "DISAGREE"))
    return _report(args, result, "\n".join(lines), code,
                   input=name, family=args.family, method=args.method)


def cmd_ehrhart(args) -> int:
    name, mp, partition = _load(args)
    lines = []
    result: dict = {}
    formula_poly = count_poly = None
    # the count's polytope first: a missing partition fails before any formula work
    h = _family_hrep(mp, partition, args.family) if args.method != "formula" else None
    if args.method in ("formula", "both"):
        formula_poly = ehrhart_formula_marked_order(mp)
        if args.family != "order":
            lines.append("note: formula computed on the order member; "
                         "the families share one Ehrhart polynomial")
        lines.append(f"formula: {formula_poly}")
        result["formula"] = [str(c) for c in formula_poly.coefficients]
    if h is not None:
        count_poly = ehrhart_by_counting(h)
        lines.append(f"count: {count_poly}")
        result["count"] = [str(c) for c in count_poly.coefficients]
    code = _compare(args, lines, result, "match", formula_poly == count_poly, ("MATCH", "MISMATCH"))
    return _report(args, result, "\n".join(lines), code,
                   input=name, family=args.family, method=args.method)


def cmd_corpus(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be at least 0, got {args.trials}")
    if args.max_unmarked < 1:
        raise ValueError(f"--max-unmarked must be at least 1, got {args.max_unmarked}")
    lines = []
    trials = []
    for index, mp in enumerate(corpus(args.seed, args.trials, args.max_unmarked)):
        order_h = build_order_hrep(mp)
        chain_h = build_chain_hrep(mp)
        checks = {
            "order-two-level":
                is_two_level_direct(order_h).two_level == order_two_level_criterion(mp),
            "chain-two-level":
                is_two_level_direct(chain_h).two_level == chain_two_level_criterion(mp).two_level,
        }
        order_poly = ehrhart_by_counting(order_h)
        chain_poly = ehrhart_by_counting(chain_h)
        checks["formula-vs-count"] = ehrhart_formula_marked_order(mp) == order_poly
        checks["order-chain-ehrhart"] = order_poly == chain_poly
        failing = [check for check, ok in checks.items() if not ok]
        suffix = f"FAIL {' '.join(failing)}" if failing else "ok"
        lines.append(f"trial {index}: unmarked={len(mp.unmarked)} {suffix}")
        trials.append({"trial": index, "unmarked": len(mp.unmarked), "ok": not failing,
                       "failed_checks": failing})
    passed = sum(trial["ok"] for trial in trials)
    lines.append(f"{passed}/{args.trials} pass")
    return _report(args, {"passed": passed, "trials": trials}, "\n".join(lines),
                   0 if passed == args.trials else 1,
                   input={"seed": args.seed, "trials": args.trials,
                          "max_unmarked": args.max_unmarked})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpp",
        description="Marked poset polytopes: validation, geometry, 2-levelness, Ehrhart.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("file", nargs="?", help="marked poset JSON document")
        p.add_argument("--builtin", help="builtin poset: figure1 | diamond:lo,hi | pm:m,c")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p_validate = sub.add_parser("validate", help="report strictness and regularity")
    add_input(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_poly = sub.add_parser("polytope", help="emit the H-representation, facets or vertices")
    add_input(p_poly)
    p_poly.add_argument("--family", required=True, choices=["order", "chain", "chain-order"])
    p_poly.add_argument("--emit", required=True, choices=["hrep", "vertices", "facets"])
    p_poly.set_defaults(func=cmd_polytope)

    p_two = sub.add_parser("two-level", help="decide 2-levelness")
    add_input(p_two)
    p_two.add_argument("--family", required=True, choices=["order", "chain", "chain-order"])
    p_two.add_argument("--method", default="both", choices=["direct", "criterion", "both"])
    p_two.set_defaults(func=cmd_two_level)

    p_ehr = sub.add_parser("ehrhart", help="compute the Ehrhart polynomial")
    add_input(p_ehr)
    p_ehr.add_argument("--family", required=True, choices=["order", "chain", "chain-order"])
    p_ehr.add_argument("--method", default="both", choices=["formula", "count", "both"])
    p_ehr.set_defaults(func=cmd_ehrhart)

    p_corpus = sub.add_parser("corpus", help="randomized cross-validation harness")
    p_corpus.add_argument("--seed", type=int, default=0)
    p_corpus.add_argument("--trials", type=int, default=20)
    p_corpus.add_argument("--max-unmarked", type=int, default=5)
    p_corpus.add_argument("--json", action="store_true")
    p_corpus.set_defaults(func=cmd_corpus)
    return parser


# one parser per process, built on the first ``main`` call rather than at import:
# building it costs about as much as a small command
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (MarkedPosetError, RecursionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ValueError, OSError)) else 1


if __name__ == "__main__":
    sys.exit(main())
