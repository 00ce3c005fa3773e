"""The line counter in ``tools/code_lines.py``, on sources whose count is known."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

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
