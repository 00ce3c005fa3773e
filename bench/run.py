"""markedposets benchmark: whole ``mpp`` commands, closed loop, one client.

Usage (from the repository root):

    python3 bench/run.py --workload crossval --seed 1 --seconds 20 --trace 0

The run imports the package from ``src/``, writes the workload's JSON
documents under ``.bench_out/``, then calls ``markedposets.cli.main`` in this
process and thread, one command at a time, pass after pass over the
workload's command list, for about ``--seconds`` and until at least
MIN_COMMANDS commands were issued.  Every answer is checked after its pass,
outside the timed commands.  Command times are scaled to a reference host
speed (see reference_seconds).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the seed, Python version, nproc and command counts.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes for ``--seconds``, reports the per-layer metrics
and the tracing overhead, and writes every span to ``.bench_out/``.  See
README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads
from tracing import PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
PACKAGE = "markedposets"

DEADLINE_S = 10.0  # per command; the slowest commands take about 2.5 s
MIN_COMMANDS = 100  # so that at least 10 latency samples lie beyond p90
SETUP_REPEATS = 5
# the reference work's time on the fast state of a 2-vCPU Xeon VM (Python 3.11)
REFERENCE_S = 2.1e-4
# when the host slows the reference work by a factor f, it slows mpp commands
# by about f ** 0.9: the exponent that made scaled pass times steadiest on
# crossval and vertex-facet (0.8 on large-poset)
SLOWDOWN_EXPONENT = 0.9

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
TRACE_OVERHEAD = {
    "trace.untraced_throughput_ops_s": "1/s",
    "trace.throughput_ops_s": "1/s",
    "trace.overhead_ops_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


class CommandDeadline(BaseException):
    """Raised in the main thread when a command outlives DEADLINE_S.

    A BaseException, so that the package's own ``except Exception`` handlers
    cannot swallow it.
    """


def _on_deadline(signum, frame):
    raise CommandDeadline()


def fresh_import():
    """Import the package from scratch, as a new ``mpp`` process would."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    lib = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if not Path(lib.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"{PACKAGE} was imported from {lib.__file__}, not from {ROOT / 'src'}")
    return lib


def build_commands(lib, workload: str, seed: int, docs: Path, tiny: bool):
    rng = random.Random(f"{workload}:{seed}")
    docs.mkdir(parents=True, exist_ok=True)

    def write(name: str, doc: dict) -> str:
        path = docs / f"{name}.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return str(path)

    return workloads.WORKLOADS[workload](lib, rng, write, tiny)


def run_command(main, argv):
    """One mpp command under the deadline: (seconds, exit code, stdout, failure kind)."""
    out = io.StringIO()
    code = kind = None
    t0 = perf_counter()
    try:
        # the alarm may fire anywhere up to its cancellation, so both sit
        # inside the try that catches it
        try:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CommandDeadline:
        kind = "deadline"
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:
        kind = "exception:" + type(exc).__name__
    return perf_counter() - t0, code, out.getvalue(), kind


def verdict(command, code, stdout, kind):
    """(failure kind or None, reason, group value) for one recorded answer."""
    if kind is not None:
        return kind, kind, None
    if code != command.expect_code and not stdout.strip():
        return "typed_error", f"exit {code} with no answer", None
    try:
        payload = json.loads(stdout)
        value = command.check(payload)
    except (ValueError, KeyError, TypeError, workloads.WrongAnswer) as exc:
        return "wrong", f"{type(exc).__name__}: {exc}", None
    if code != command.expect_code:
        return "wrong", f"exit {code}, expected {command.expect_code}", None
    return None, "", value


def verify(commands, records, cache):
    """Failure kind and reason per command of one pass; identical answers are checked once."""
    results = []
    for index, (command, (_, code, stdout, kind)) in enumerate(zip(commands, records)):
        key = (index, code, stdout, kind)
        if key not in cache:
            cache[key] = verdict(command, code, stdout, kind)
        results.append(list(cache[key]))
    # answers that must agree: the most common one stands, unless tied
    groups: dict[str, Counter] = {}
    for command, (failure, _, value) in zip(commands, results):
        if command.group is not None and failure is None and value is not None:
            groups.setdefault(command.group, Counter())[value] += 1
    for command, result in zip(commands, results):
        votes = groups.get(command.group)
        if result[0] is None and votes is not None and len(votes) > 1:
            (top, n), (_, runner_up) = votes.most_common(2)
            if n == runner_up or result[2] != top:
                result[0], result[1] = "wrong", f"group {command.group} answers differ"
    return results


def label(argv) -> str:
    """The command line with each document path shortened to its file name."""
    return " ".join(Path(a).name if a.endswith(".json") else a for a in argv)


def reference_work() -> int:
    """A fixed mix of the interpreter work mpp does: int and Fraction arithmetic,
    dict, set and tuple building, sorting.  It calls nothing in the package."""
    counts: dict[int, int] = {}
    for i in range(400):
        counts[i % 31] = counts.get(i % 31, 0) + i * 3 // 7
    total, rows = Fraction(0), set()
    for a, b in itertools.combinations(range(10), 2):
        total += Fraction(a + 1, b + 1)
        rows.add((a, b, tuple(sorted((b - a, a * b)))))
    pairs = sorted(((i * 7919) % 1009, str(i)) for i in range(150))
    return len(counts) + len(rows) + len(dict(pairs)) + total.denominator


def reference_seconds() -> float:
    """Seconds the reference work takes now: the host's current speed.

    A shared vCPU runs the same code at speeds up to about 2x apart, and
    switches between them within a second as well as in spells of seconds to
    minutes.  Every command's wall time is therefore scaled by the reference
    time measured around it (``at_reference_speed``): the result is the
    command's time on a vCPU that does the reference work in REFERENCE_S, and
    most of what other tenants do to the host drops out.  The fastest of
    three tries, so that a timer interrupt in one does not count.
    """
    fastest = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        reference_work()
        fastest = min(fastest, perf_counter() - t0)
    return fastest


def at_reference_speed(seconds: float, reference: float) -> float:
    """``seconds`` measured while the reference work took ``reference``, at REFERENCE_S."""
    return seconds * (REFERENCE_S / reference) ** SLOWDOWN_EXPONENT


class Phase:
    """Commands run, answers checked and times taken, over whole passes."""

    def __init__(self, commands):
        self.commands = commands
        self.argv = [c.argv + ["--json"] for c in commands]
        self.latencies: list[float] = []
        self.speeds: list[float] = []  # reference seconds around each command
        self.pass_seconds: list[float] = []
        self.failures: dict[str, int] = {}
        self.failed_commands: dict[str, str] = {}
        self.ok = 0
        self._checked: dict = {}

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled(self) -> list[float]:
        """Each command's wall time at the reference speed."""
        return [at_reference_speed(t, s) for t, s in zip(self.latencies, self.speeds)]

    @property
    def throughput(self) -> float:
        """Commands that passed their checks per second of scaled command time."""
        return self.ok / sum(self.scaled())

    def run_pass(self, main, tracer=None) -> None:
        """One closed-loop pass; the answers are verified after it, off the clock."""
        first = len(self.pass_seconds) * len(self.argv)
        records = []
        off_clock = 0.0
        before = reference_seconds()
        t0 = perf_counter()
        for i, argv in enumerate(self.argv):
            if tracer is not None:
                tracer.begin(first + i)
            records.append(run_command(main, argv))
            if tracer is not None:
                tracer.end()
            # free what the end of an mpp process would free: recursive
            # closures (maximal_marked_chains' walk, the counting rec) form
            # cycles that keep a command's poset alive until a collection,
            # which would otherwise land in a later command's time and peak
            t1 = perf_counter()
            gc.collect()
            after = reference_seconds()
            self.speeds.append((before + after) / 2)
            before = after
            off_clock += perf_counter() - t1
        self.pass_seconds.append(perf_counter() - t0 - off_clock)
        self.latencies += [record[0] for record in records]
        for command, (failure, reason, _) in zip(
                self.commands, verify(self.commands, records, self._checked)):
            if failure is None:
                self.ok += 1
            else:
                self.failures[failure] = self.failures.get(failure, 0) + 1
                self.failed_commands[label(command.argv)] = reason


@contextlib.contextmanager
def deadline_alarm():
    previous = signal.signal(signal.SIGALRM, _on_deadline)
    try:
        yield
    finally:
        signal.signal(signal.SIGALRM, previous)


def another_fits(start: float, rounds: int, seconds: float) -> bool:
    """Whether one more round, as long as the average so far, ends within ``seconds``."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / rounds <= seconds


def measure(lib, commands, seconds, min_commands) -> Phase:
    """Whole passes for about ``seconds``, and until ``min_commands`` commands."""
    phase = Phase(commands)
    start = perf_counter()
    with deadline_alarm():
        while (not phase.pass_seconds or phase.attempted < min_commands
               or another_fits(start, len(phase.pass_seconds), seconds)):
            phase.run_pass(lib.cli.main)
    return phase


def measure_traced(lib, commands, seconds, tracer) -> tuple[Phase, Phase]:
    """Untraced and traced passes in turn, so that both see the same machine.

    The tracer is installed only for its own passes; ``lib.cli.main`` is read
    per pass so that the traced pass calls the wrapper.
    """
    plain, traced = Phase(commands), Phase(commands)
    start = perf_counter()
    with deadline_alarm():
        while not traced.pass_seconds or another_fits(start, len(traced.pass_seconds), seconds):
            plain.run_pass(lib.cli.main)
            tracer.install(PACKAGE)
            try:
                traced.run_pass(lib.cli.main, tracer)
            finally:
                tracer.uninstall()
    return plain, traced


def end_to_end(phase: Phase, setups) -> dict[str, float]:
    """The end-to-end metrics; ``setups`` holds (seconds, reference seconds) per set-up."""
    ms = [t * 1000 for t in phase.scaled()]
    return {
        "throughput_ops_s": phase.throughput,
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0],
        "success_rate": phase.ok / phase.attempted,
        "setup_s": statistics.median(at_reference_speed(t, s) for t, s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(workload, seed, lib, commands, docs, seconds, tiny, info):
    """The per-layer metrics and the tracing overhead; writes the spans out."""
    tracer = Tracer()
    tracer.install(PACKAGE)
    try:
        tracer.begin("setup")
        build_commands(lib, workload, seed, docs, tiny)
        tracer.end()
    finally:
        tracer.uninstall()
    plain, traced = measure_traced(lib, commands, seconds, tracer)
    metrics = tracer.layer_metrics("setup", len(traced.pass_seconds))
    untraced_ops = plain.throughput
    traced_ops = traced.throughput
    metrics.update({
        "trace.untraced_throughput_ops_s": untraced_ops,
        "trace.throughput_ops_s": traced_ops,
        "trace.overhead_ops_s": traced_ops - untraced_ops,
        "trace.overhead_ratio": 1 - traced_ops / untraced_ops,
    })
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-{seed}.json.gz"
    n = len(commands)
    tracer.write(path, {cmd: label(commands[cmd % n].argv)
                        for cmd in range(len(traced.pass_seconds) * n)})
    info["trace_file"] = str(path.relative_to(ROOT))
    info["spans"] = sum(1 for s in tracer.spans if s is not None)
    return metrics, [plain, traced]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, min_commands: int = MIN_COMMANDS):
    """Set up, measure and verify one workload: (result line, info line)."""
    docs = OUT / f"docs-{os.getpid()}"
    info = {"workload": workload, "seed": seed, "python": platform.python_version(),
            "nproc": os.cpu_count(), "deadline_s": DEADLINE_S}
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            before = reference_seconds()
            t0 = perf_counter()
            lib = fresh_import()
            commands = build_commands(lib, workload, seed, docs, tiny)
            seconds_taken = perf_counter() - t0
            setups.append((seconds_taken, (before + reference_seconds()) / 2))
        info.update(commands_per_pass=len(commands), setup_s_samples=[t for t, _ in setups])
        gc.collect()
        gc.freeze()  # the per-command collections then skip everything set-up made
        if trace:
            metrics, phases = traced_metrics(workload, seed, lib, commands, docs, seconds,
                                             tiny, info)
            units = {**PER_LAYER, **TRACE_OVERHEAD}
        else:
            phases = [measure(lib, commands, seconds, min_commands)]
            metrics = end_to_end(phases[0], setups)
            units = END_TO_END
    finally:
        shutil.rmtree(docs, ignore_errors=True)
    speeds = [s for _, s in setups] + [s for p in phases for s in p.speeds]
    failures: dict[str, int] = {}
    for phase in phases:
        for kind, count in phase.failures.items():
            failures[kind] = failures.get(kind, 0) + count
    info.update({
        "passes": [len(p.pass_seconds) for p in phases],
        "pass_seconds": [p.pass_seconds for p in phases],
        "latency_samples": [p.attempted for p in phases],
        "reference_s": {"min": min(speeds), "median": statistics.median(speeds),
                        "samples": len(speeds)},
        "unscaled_throughput_ops_s": [p.ok / sum(p.latencies) for p in phases],
        "failures": failures,
        "failed_commands": {k: v for p in phases for k, v in p.failed_commands.items()},
    })
    attempted = sum(p.attempted for p in phases)
    result = {
        # a command that gave no answer (exception, deadline, error exit) is a
        # failure; ``correct`` turns false only on an answer the checks reject
        "correct": "wrong" not in failures,
        "attempted": attempted,
        "failed": attempted - sum(p.ok for p in phases),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.CROSSVAL_CORPUS_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
