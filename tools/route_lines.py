"""List the statements of the package that no benchmark command runs.

Usage (from the repository root):

    python3 tools/route_lines.py --seed 1

Builds the command lists of the four benchmark workloads at ``--seed`` with
``bench/run.py`` and ``bench/workloads.py`` (read only), as
``tools/output_digest.py`` does, then runs each command in this process
through ``markedposets.cli.main``, once in text mode and once with
``--json``, under a line tracer (``sys.settrace``).  Only the commands are
traced, not the building of their lists.  Prints, per module of
``src/markedposets/``, each statement in a function body that no command
ran: its line range and its first line.  A function whose body never ran is
one entry.  Statements in module and class bodies run at import and are not
listed.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402  (bench/run.py)
import workloads  # noqa: E402  (bench/workloads.py)


def trace_commands(main, argvs, package: Path, ran: dict[Path, set[int]]) -> None:
    """Run each argv through ``main``, adding the lines it runs in ``package``'s files to ``ran``.

    ``ran`` maps each file's resolved path to its line numbers; a ``defaultdict(set)``.
    """
    inside: dict[str, Path | None] = {}  # code file name -> its resolved path, None outside

    def lines(frame, event, arg):
        if event == "line":
            ran[inside[frame.f_code.co_filename]].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            path = Path(name).resolve()
            inside[name] = path if path.parent == package else None
        return lines if inside[name] else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    main(argv)
                except (SystemExit, Exception):  # a failing command still ran its lines
                    pass
    finally:
        sys.settrace(previous)


def _blocks(node: ast.stmt):
    """The statement lists nested in a compound statement."""
    for _, value in ast.iter_fields(node):
        if isinstance(value, list):
            for item in value:
                if isinstance(item, (ast.excepthandler, ast.match_case)):
                    yield item.body
            if value and isinstance(value[0], ast.stmt):
                yield value


def unrun_statements(source: str, ran: set[int]) -> list[tuple[int, int]]:
    """The (first, last) lines of each statement in a function body that ran no line.

    A statement ran when any line of its span ran.  Only the outermost
    statement that did not run is listed, and a function whose body did not
    run is listed whole, from its ``def``.
    """
    out: list[tuple[int, int]] = []

    def did_run(first: int, last: int) -> bool:
        return not ran.isdisjoint(range(first, last + 1))

    def visit(body: list[ast.stmt], in_function: bool) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = node.body[0]
                docstring = (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                             and isinstance(first.value.value, str))
                rest = node.body[1:] if docstring and len(node.body) > 1 else node.body
                if did_run(rest[0].lineno, node.end_lineno):
                    visit(rest, True)
                else:
                    out.append((node.lineno, node.end_lineno))
            elif in_function and not did_run(node.lineno, node.end_lineno):
                out.append((node.lineno, node.end_lineno))
            else:
                for block in _blocks(node):
                    visit(block, in_function)

    visit(ast.parse(source).body, False)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    ran: dict[Path, set[int]] = defaultdict(set)
    with tempfile.TemporaryDirectory() as docs:
        for workload in workloads.WORKLOADS:
            lib = run.fresh_import()
            package = Path(lib.__file__).resolve().parent
            commands = run.build_commands(lib, workload, args.seed, Path(docs) / workload, False)
            argvs = [command.argv + extra for command in commands for extra in ([], ["--json"])]
            trace_commands(lib.cli.main, argvs, package, ran)
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        unrun = unrun_statements(source, ran[path])
        print(f"{path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}: "
              f"{len(unrun)} statements never ran")
        for first, last in unrun:
            span = f"{first}-{last}" if last > first else f"{first}"
            print(f"  {span:>9}  {lines[first - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
