"""The tools in ``tools/``: the line counter on sources whose count is known, the output digest,
and the route-line tracer."""

import importlib.util
import inspect
import sys
import types
from pathlib import Path

import pytest

import markedposets
from markedposets import cli

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = load_tool("code_lines")
output_digest = load_tool("output_digest")
route_lines = load_tool("route_lines")

SOURCE = '''\
"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide its line

# a comment line


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring

        over three lines.
        """
        text = """first
second

third"""
        return text


async def run():
    """Coroutine docstring."""
    "a string statement after the first one is code"
'''

# import, class, def, the three non-blank lines of the assignment, return,
# async def, the second string statement
SOURCE_CODE_LINES = 9


def test_skips_blank_lines_comments_and_docstrings():
    assert code_lines.code_lines(SOURCE) == SOURCE_CODE_LINES


def test_docstring_only_module_has_no_code():
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_other_multi_line_strings_count_per_non_blank_line():
    assert code_lines.code_lines('x = """a\n\nb\nc"""\n') == 3
    assert code_lines.code_lines('def f():\n    return """a\n    b"""\n') == 3


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text(SOURCE)
    second.write_text("x = 1\n")
    assert code_lines.main([str(first), str(second)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{SOURCE_CODE_LINES:6d} {first}", f"{1:6d} {second}", f"{SOURCE_CODE_LINES + 1:6d} total"]


def fake_main(code=0, out="", err="", raises=None):
    """A stand-in for ``cli.main`` that writes ``out`` and ``err`` and returns ``code``."""
    def main(argv):
        print(out, end="")
        print(err, end="", file=sys.stderr)
        if raises is not None:
            raise raises
        return code
    return main


def test_digest_is_stable_for_one_command():
    argv = ["validate", "--builtin", "figure1", "--json"]
    assert output_digest.digest(cli.main, argv, "/docs") == output_digest.digest(cli.main, argv, "/docs")


@pytest.mark.parametrize("other", [
    fake_main(code=1, out="out", err="err"),
    fake_main(out="out!", err="err"),
    fake_main(out="out", err="err!"),
    fake_main(out="outerr"),  # the same bytes, split differently between the streams
    fake_main(out="out", err="err", raises=SystemExit(2)),
    fake_main(out="out", err="err", raises=ValueError("bad")),
])
def test_digest_changes_with_exit_code_stdout_or_stderr(other):
    base = output_digest.digest(fake_main(out="out", err="err"), [], "/docs")
    assert output_digest.digest(other, [], "/docs") != base


def test_document_paths_are_shortened_to_file_names(monkeypatch, capsys, tmp_path):
    # the document folder is a fresh temporary one per run: neither the
    # printed command nor its hash may depend on it
    def echo(argv):
        print(f"read {argv[1]}")
        return 0

    def build_commands(lib, workload, seed, docs, tiny):
        return [types.SimpleNamespace(argv=["validate", str(docs / "d.json")])]

    monkeypatch.setattr(output_digest.workloads, "WORKLOADS", ["crossval"])
    monkeypatch.setattr(output_digest.run, "fresh_import",
                        lambda: types.SimpleNamespace(cli=types.SimpleNamespace(main=echo)))
    monkeypatch.setattr(output_digest.run, "build_commands", build_commands)
    assert output_digest.main(["--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = [output_digest.digest(echo, ["validate", str(tmp_path / "crossval" / "d.json"), *extra],
                                     str(tmp_path)) for extra in ([], ["--json"])]
    assert lines == [f"crossval: validate d.json {expected[0]}",
                     f"crossval: validate d.json --json {expected[1]}"]


ROUTE_SOURCE = '''\
import os


def used(x):
    """Docstring."""
    if x:
        return 1
    else:
        y = 2
        return y


def unused():
    return 3


class Thing:
    def method(self):
        try:
            pass
        except ValueError:
            raise
'''


def test_unrun_statements_lists_outermost_statements_and_whole_functions():
    # lines 6 and 7 ran in ``used``, 19 and 20 in ``method``; module and class bodies are not listed
    assert route_lines.unrun_statements(ROUTE_SOURCE, {6, 7, 19, 20}) == [(9, 9), (10, 10), (13, 14), (22, 22)]
    assert route_lines.unrun_statements(ROUTE_SOURCE, set()) == [(4, 10), (13, 14), (18, 22)]


def test_route_lines_traces_only_the_commands(monkeypatch, capsys):
    def build_commands(lib, workload, seed, docs, tiny):
        return [types.SimpleNamespace(argv=["validate", "--builtin", "figure1"]),
                types.SimpleNamespace(argv=["polytope", "--builtin", "figure1",
                                            "--family", "order", "--emit", "vertices"])]

    monkeypatch.setattr(route_lines.workloads, "WORKLOADS", ["crossval"])
    monkeypatch.setattr(route_lines.run, "fresh_import", lambda: markedposets)
    monkeypatch.setattr(route_lines.run, "build_commands", build_commands)
    assert route_lines.main(["--seed", "1"]) == 0
    out = capsys.readouterr().out
    section = out.split("src/markedposets/cli.py: ")[1].split("\nsrc/")[0].splitlines()[1:]
    entries = {int(span.split("-")[0]): text for span, text in (line.split(None, 1) for line in section)}
    assert "def cmd_corpus(args) -> int:" in entries.values()
    assert 'if args.emit == "facets":' in entries.values()  # the vertices branch ran instead
    assert "v = enumerate_vertices(h)" not in entries.values()
    lines, first = inspect.getsourcelines(cli.cmd_validate)
    assert not any(first <= n < first + len(lines) for n in entries)
