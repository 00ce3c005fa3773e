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
import random
import sys

from . import gallery
from .corpus import random_marked_poset
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
    if (not isinstance(covers, list)
            or not all(isinstance(c, list) and len(c) == 2
                       and all(isinstance(e, str) for e in c) for c in covers)):
        raise DocumentError("covers must be a list of [p, q] pairs")
    marked = data["marked"]
    if not isinstance(marked, dict) or not all(
            isinstance(k, str) and isinstance(v, int) and not isinstance(v, bool)
            for k, v in marked.items()):
        raise DocumentError("marked must map element ids to integers")
    try:
        mp = MarkedPoset(Poset(elements, [tuple(c) for c in covers]), marked)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc

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
        try:
            partition.validate(mp)
        except ValueError as exc:
            raise DocumentError(str(exc)) from exc
    return name, mp, partition


def _builtin_pair(request: str, form: str) -> tuple[int, int]:
    """The two integers after the colon of ``request``, whose form is ``kind:form``."""
    kind, _, args = request.partition(":")
    try:
        first, second = (int(v) for v in args.split(","))
    except ValueError:
        raise DocumentError(f"builtin {request!r} must have the form {kind}:{form}"
                            " with two integers") from None
    return first, second


def _builtin(request: str):
    kind, _, args = request.partition(":")
    if kind == "figure1":
        return "figure1", gallery.crossing_chains(), None
    if kind == "diamond":
        lo, hi = _builtin_pair(request, "lo,hi") if args else (0, 2)
        return f"diamond:{lo},{hi}", gallery.diamond(lo, hi), None
    if kind == "pm":
        m, c = _builtin_pair(request, "m,c")
        return f"pm:{m},{c}", pm_family(m, c), None
    raise DocumentError(f"unknown builtin {request!r}")


def _load(args) -> tuple[str, MarkedPoset, ChainOrderPartition | None]:
    if args.builtin:
        return _builtin(args.builtin)
    if not args.file:
        raise DocumentError("either a file or --builtin is required")
    with open(args.file) as fh:
        data = json.load(fh)
    return parse_document(data, fallback_name=os.path.basename(args.file))


def format_hrep(h: HRepresentation) -> str:
    lines = ["coords " + " ".join(h.coordinates)]
    for ineq in h.inequalities:
        lines.append(f"ineq {' '.join(map(str, h._dense(ineq)))} <= {ineq.rhs}")
    for eq in h.equalities:
        lines.append(f"eq {' '.join(map(str, h._dense(eq)))} == {eq.rhs}")
    return "\n".join(lines)


def _hrep_payload(h: HRepresentation) -> dict:
    return {
        "coordinates": list(h.coordinates),
        "inequalities": [
            {"coeffs": {c: a for c, a in i.coeffs.items()}, "rhs": str(i.rhs)}
            for i in h.inequalities
        ],
        "equalities": [
            {"coeffs": {c: a for c, a in e.coeffs.items()}, "rhs": str(e.rhs)}
            for e in h.equalities
        ],
    }


def _family_hrep(mp, partition, family: str) -> HRepresentation:
    if family == "order":
        return build_order_hrep(mp)
    if family == "chain":
        return build_chain_hrep(mp)
    if partition is None:
        raise DocumentError("family chain-order requires a partition")
    return build_chain_order_hrep(mp, partition)


def _emit(args, payload: dict, text) -> None:
    """Print the JSON payload, or the text report; a callable ``text`` is rendered only then."""
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text() if callable(text) else text)


def cmd_validate(args) -> int:
    name, mp, _ = _load(args)
    report = validate_marked(mp)
    ok = report.strict and report.regular
    text_lines = [f"poset: {name}", f"strict: {str(report.strict).lower()}",
                  f"regular: {str(report.regular).lower()}"]
    for violation in report.violations:
        text_lines.append("violation: " + " ".join(str(part) for part in violation))
    payload = {
        "command": "validate",
        "input": name,
        "result": {
            "strict": report.strict,
            "regular": report.regular,
            "violations": [list(map(str, violation)) for violation in report.violations],
        },
    }
    _emit(args, payload, "\n".join(text_lines))
    return 0 if ok else 1


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
    payload = {"command": "polytope", "input": name,
               "family": args.family, "emit": args.emit, "result": result}
    _emit(args, payload, text)
    return 0


def cmd_two_level(args) -> int:
    name, mp, partition = _load(args)
    lines = []
    result: dict = {}
    direct = criterion = None
    if args.method in ("direct", "both"):
        h = _family_hrep(mp, partition, args.family)
        outcome = is_two_level_direct(h)
        direct = outcome.two_level
        lines.append(f"direct: {str(direct).lower()}")
        result["direct"] = direct
        if outcome.witness is not None:
            values = ", ".join(str(v) for v in outcome.witness.values)
            lines.append(f"witness: {outcome.witness.facet!r} values {{{values}}}")
            result["witness"] = {
                "facet": {c: a for c, a in outcome.witness.facet.coeffs.items()},
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
            if partition is None:
                raise DocumentError("family chain-order requires a partition")
            criterion = chain_order_two_level_criterion(mp, partition)
        lines.append(f"criterion: {str(criterion).lower()}")
        result["criterion"] = criterion
    code = 0
    if args.method == "both":
        agree = direct == criterion
        lines.append("AGREE" if agree else "DISAGREE")
        result["agree"] = agree
        code = 0 if agree else 1
    payload = {"command": "two-level", "input": name,
               "family": args.family, "method": args.method, "result": result}
    _emit(args, payload, "\n".join(lines))
    return code


def cmd_ehrhart(args) -> int:
    name, mp, partition = _load(args)
    lines = []
    result: dict = {}
    formula_poly = count_poly = None
    if args.method in ("formula", "both"):
        formula_poly = ehrhart_formula_marked_order(mp)
        if args.family != "order":
            lines.append("note: formula computed on the order member; "
                         "the families share one Ehrhart polynomial")
        lines.append(f"formula: {formula_poly}")
        result["formula"] = [str(c) for c in formula_poly.coefficients]
    if args.method in ("count", "both"):
        h = _family_hrep(mp, partition, args.family)
        count_poly = ehrhart_by_counting(h)
        lines.append(f"count: {count_poly}")
        result["count"] = [str(c) for c in count_poly.coefficients]
    code = 0
    if args.method == "both":
        match = formula_poly == count_poly
        lines.append("MATCH" if match else "MISMATCH")
        result["match"] = match
        code = 0 if match else 1
    payload = {"command": "ehrhart", "input": name,
               "family": args.family, "method": args.method, "result": result}
    _emit(args, payload, "\n".join(lines))
    return code


def cmd_corpus(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be at least 0, got {args.trials}")
    if args.max_unmarked < 1:
        raise ValueError(f"--max-unmarked must be at least 1, got {args.max_unmarked}")
    rng = random.Random(args.seed)
    lines = []
    trials = []
    failures = 0
    for index in range(args.trials):
        mp = random_marked_poset(rng, max_unmarked=args.max_unmarked)
        checks: list[tuple[str, bool]] = []
        order_h = build_order_hrep(mp)
        chain_h = build_chain_hrep(mp)
        checks.append((
            "order-two-level",
            is_two_level_direct(order_h).two_level == order_two_level_criterion(mp),
        ))
        checks.append((
            "chain-two-level",
            is_two_level_direct(chain_h).two_level == chain_two_level_criterion(mp).two_level,
        ))
        order_poly = ehrhart_by_counting(order_h)
        chain_poly = ehrhart_by_counting(chain_h)
        formula_poly = ehrhart_formula_marked_order(mp)
        checks.append(("formula-vs-count", formula_poly == order_poly))
        checks.append(("order-chain-ehrhart", order_poly == chain_poly))
        ok = all(flag for _, flag in checks)
        if not ok:
            failures += 1
        failing = " ".join(cname for cname, flag in checks if not flag)
        suffix = "ok" if ok else f"FAIL {failing}"
        lines.append(f"trial {index}: unmarked={len(mp.unmarked)} {suffix}")
        trials.append({"trial": index, "unmarked": len(mp.unmarked), "ok": ok,
                       "failed_checks": failing.split() if failing else []})
    passed = args.trials - failures
    lines.append(f"{passed}/{args.trials} pass")
    payload = {"command": "corpus", "input": {"seed": args.seed, "trials": args.trials,
                                              "max_unmarked": args.max_unmarked},
               "result": {"passed": passed, "trials": trials}}
    _emit(args, payload, "\n".join(lines))
    return 0 if failures == 0 else 1


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
    except (MarkedPosetError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
