"""Smoke tests of the benchmark itself, at a tiny size.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

import contextlib
import gzip
import io
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_workload_is_correct(workload):
    result, info = run.run_workload(workload, seed=1, seconds=0, trace=False,
                                    tiny=True, min_commands=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == info["commands_per_pass"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result, info = run.run_workload("crossval", seed=1, seconds=0, trace=True,
                                    tiny=True, min_commands=1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(PER_LAYER) | set(run.TRACE_OVERHEAD)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for layer in ("cli.self_s", "posets.build_s", "geometry.count_s", "ehrhart.formula_s",
                  "geometry.enumerate_vertices_s", "polytopes.build_hrep_s"):
        assert metrics[layer] > 0, layer
    assert 0 < metrics["geometry.probe_share"] < 1
    assert 0 < metrics["geometry.vertex_cache_hit_ratio"] < 1
    with gzip.open(run.ROOT / info["trace_file"], "rt") as fh:
        trace = json.load(fh)
    assert len(trace["spans"]) == info["spans"]
    names = {span[3] for span in trace["spans"]}
    assert {"cli.main", "posets.extension_stream", "geometry.count_lattice_points"} <= names


def test_same_seed_gives_same_documents(tmp_path):
    lib = run.fresh_import()

    def documents(seed, where):
        commands = run.build_commands(lib, "vertex-facet", seed, where, tiny=True)
        files = sorted(where.iterdir())
        return [run.label(c.argv) for c in commands], [f.read_text() for f in files]

    first = documents(3, tmp_path / "a")
    assert documents(3, tmp_path / "b") == first
    assert documents(4, tmp_path / "c") != first


def _corrupt_one(lib, monkeypatch, pick, corrupt):
    """Make the first command that ``pick`` accepts print a corrupted answer."""
    main = lib.cli.main
    target = []

    def wrapper(argv):
        if not pick(argv) or (target and target[0] != argv):
            return main(argv)
        target[:] = [argv]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        payload = json.loads(buf.getvalue())
        corrupt(payload["result"])
        print(json.dumps(payload))
        return code

    monkeypatch.setattr(lib.cli, "main", wrapper)
    return target


def _drop_row(result):
    result["inequalities"].pop()


def _bump_last(key):
    def corrupt(result):
        result[key][-1] = str(Fraction(result[key][-1]) + 1)
    return corrupt


WRONG_ANSWERS = [
    # only the group check sees a wrong chain count: nothing else compares it
    ("crossval", lambda a: "--family" in a and a[a.index("--family") + 1] == "chain"
     and a[a.index("--method") + 1] == "count", _bump_last("count")),
    ("formula-wide", lambda a: "--builtin" in a, _bump_last("formula")),
    ("vertex-facet", lambda a: "facets" in a and "order" in a, _drop_row),
    ("large-poset", lambda a: "hrep" in a, _drop_row),
]


@pytest.mark.parametrize("workload,pick,corrupt", WRONG_ANSWERS, ids=[w[0] for w in WRONG_ANSWERS])
def test_wrong_answer_is_a_failure(workload, pick, corrupt, monkeypatch, tmp_path):
    lib = run.fresh_import()
    commands = run.build_commands(lib, workload, 1, tmp_path, tiny=True)
    target = _corrupt_one(lib, monkeypatch, pick, corrupt)
    phase = run.measure(lib, commands, seconds=0, min_commands=1)
    assert target, "no command was corrupted"
    assert phase.failures == {"wrong": 1}
    assert list(phase.failed_commands) == [run.label(target[0][:-1])]
    assert phase.ok == len(commands) - 1


def test_deadline_is_a_failure(monkeypatch, tmp_path):
    lib = run.fresh_import()
    commands = run.build_commands(lib, "formula-wide", 1, tmp_path, tiny=True)
    monkeypatch.setattr(run, "DEADLINE_S", 0.002)
    phase = run.measure(lib, commands, seconds=0, min_commands=1)
    assert phase.failures.get("deadline", 0) >= 1
    assert phase.attempted == len(commands)


def test_slower_program_reads_slower(monkeypatch, tmp_path):
    """Scaling to the reference speed must not hide time the program itself spends."""
    lib = run.fresh_import()
    commands = run.build_commands(lib, "crossval", 1, tmp_path, tiny=True)
    fast = run.measure(lib, commands, seconds=0, min_commands=1)
    main = lib.cli.main

    def slower(argv):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.02:
            pass
        return main(argv)

    monkeypatch.setattr(lib.cli, "main", slower)
    slow = run.measure(lib, commands, seconds=0, min_commands=1)
    assert slow.ok == fast.ok == len(commands)
    assert slow.throughput < fast.throughput / 2


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "crossval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
