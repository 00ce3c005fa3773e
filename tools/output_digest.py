"""Digest the output of every benchmark command, to compare two trees byte for byte.

Usage (from the repository root):

    python3 tools/output_digest.py --seed 1 > digest.txt

Builds the command lists of the four benchmark workloads at ``--seed`` with
``bench/run.py`` and ``bench/workloads.py`` (read only), then runs each
command in this process through ``markedposets.cli.main`` from ``src/``, once
in text mode and once with ``--json``.  Prints one line per run: the command
line, with document paths shortened to their file names, then the sha256 of
its exit code, stdout and stderr.  Run it in two checkouts and ``diff`` the
two files: every differing line is a command whose answer changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402  (bench/run.py)
import workloads  # noqa: E402  (bench/workloads.py)


def digest(main, argv: list[str], docs: str) -> str:
    """sha256 of the exit code, stdout and stderr of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # recorded, so that one failing command does not hide the rest
            code = f"{type(exc).__name__}: {exc}"
    record = "\0".join([str(code), out.getvalue(), err.getvalue()]).replace(docs, "<docs>")
    return hashlib.sha256(record.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as docs:
        for workload in workloads.WORKLOADS:
            lib = run.fresh_import()
            commands = run.build_commands(lib, workload, args.seed, Path(docs) / workload, False)
            for command in commands:
                for extra in ([], ["--json"]):
                    line = command.argv + extra
                    print(f"{workload}: {run.label(line)} {digest(lib.cli.main, line, docs)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
