"""Spans around the package's public functions, recorded from outside the package.

``Tracer.install`` wraps every public function of the traced modules, plus the
``Poset`` and ``MarkedPoset`` constructors and ``Poset.from_relations``, and
rebinds each wrapper in every ``markedposets`` module namespace that holds the
original (``from .geometry import enumerate_vertices`` copies the name, so
patching ``geometry`` alone would miss the callers in ``twolevel``).  The
package's source is not touched; ``uninstall`` restores every binding.

A span is one call: its command id, its parent span, its name, start and end.
The restricted-extension stream is one span per stream whose busy time is the
time spent inside its ``next``; children of a span subtract their busy time
from its duration to give the span's self time.  Spans stay in memory until
``write`` runs at the end of the benchmark run.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import sys
from fractions import Fraction
from time import perf_counter

TRACED_MODULES = ("cli", "posets", "polytopes", "geometry", "twolevel", "ehrhart", "corpus")

# span name -> layer whose self time the span adds to.  Functions not listed
# are helpers: their self time goes to the nearest ancestor's layer, so that
# e.g. affine_dimension inside classify_inequalities counts as classification.
LAYERS = {
    "posets.Poset": "posets.build",
    "posets.Poset.from_relations": "posets.build",
    "posets.MarkedPoset": "posets.build",
    "posets.induced_subposet": "posets.build",
    "posets.restrict_marked": "posets.build",
    "posets.augment_marked_order": "posets.build",
    "posets.validate_marked": "posets.validate",
    "posets.is_strict_regular": "posets.validate",
    "posets.require_strict_regular": "posets.validate",
    "posets.require_strict": "posets.validate",
    "posets.extension_stream": "posets.extension_stream",
    "polytopes.build_order_hrep": "polytopes.build_hrep",
    "polytopes.build_chain_hrep": "polytopes.build_hrep",
    "polytopes.build_chain_order_hrep": "polytopes.build_hrep",
    "geometry.enumerate_vertices": "geometry.enumerate_vertices",
    "geometry.classify_inequalities": "geometry.classify",
    "geometry.irredundant": "geometry.classify",
    "geometry.count_lattice_points": "geometry.count",
    "geometry.interpolate_polynomial": "geometry.interpolate",
    "twolevel.is_two_level_direct": "twolevel.direct",
    "twolevel.order_two_level_criterion": "twolevel.criterion",
    "twolevel.chain_two_level_criterion": "twolevel.criterion",
    "twolevel.chain_order_two_level_criterion": "twolevel.criterion",
    "ehrhart.ehrhart_by_counting": "ehrhart.counting",
    "ehrhart.ehrhart_formula_marked_order": "ehrhart.formula",
}
MODULE_LAYERS = {"cli": "cli", "corpus": "corpus.generate"}
# not wrapped: the formula route calls it once per segment factor of every
# extension word, and a span there costs about as much as the call itself.
# It has no layer of its own, so its time stays with its caller either way.
UNTRACED = {"geometry.polynomial"}

# per-layer metrics of one traced run: name -> unit.  Times and counts are per
# pass over the workload's command list; ratios have the base named in README.
PER_LAYER = {
    "cli.self_s": "s/pass",
    "posets.build_s": "s/pass",
    "posets.validate_s": "s/pass",
    "posets.extension_stream_s": "s/pass",
    "posets.extensions": "count/pass",
    "polytopes.build_hrep_s": "s/pass",
    "polytopes.hrep_rows": "count/pass",
    "geometry.enumerate_vertices_s": "s/pass",
    "geometry.enumerate_vertices.calls": "count/pass",
    "geometry.vertices": "count/pass",
    "geometry.vertex_cache_hit_ratio": "ratio",
    "geometry.subset_bound": "count/pass",
    "geometry.classify_s": "s/pass",
    "geometry.facet_ratio": "ratio",
    "geometry.count_s": "s/pass",
    "geometry.count.calls": "count/pass",
    "geometry.lattice_points": "count/pass",
    "geometry.probe_s": "s/pass",
    "geometry.probe_share": "ratio",
    "geometry.interpolate_s": "s/pass",
    "twolevel.direct_s": "s/pass",
    "twolevel.criterion_s": "s/pass",
    "ehrhart.counting_s": "s/pass",
    "ehrhart.formula_s": "s/pass",
    "ehrhart.signature_ratio": "ratio",
    "corpus.generate_s": "s",
}


def _equality_rank(h) -> int:
    rows = [[Fraction(e.coeffs.get(c, 0)) for c in h.coordinates] for e in h.equalities]
    rank = 0
    for col in range(len(h.coordinates)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _before_enumerate(args, kwargs):
    h = args[0]
    if getattr(h, "_vertex_cache", None) is not None:
        return {"cache_hit": 1}
    need = len(h.coordinates) - _equality_rank(h)
    return {"cache_hit": 0, "subset_bound": math.comb(len(h.inequalities), need)}


def _after_enumerate(attrs, args, kwargs, result):
    if not attrs["cache_hit"]:
        attrs["vertices"] = len(result.vertices)


def _after_classify(attrs, args, kwargs, result):
    attrs["facets"] = len(result[2])
    attrs["classified"] = len(args[0].inequalities)


def _before_count(args, kwargs):
    return {"dilation": args[1] if len(args) > 1 else kwargs["dilation"]}


def _after_count(attrs, args, kwargs, result):
    attrs["points"] = result


def _after_hrep(attrs, args, kwargs, result):
    attrs["rows"] = len(result.inequalities) + len(result.equalities)


HOOKS = {
    "geometry.enumerate_vertices": (_before_enumerate, _after_enumerate),
    "geometry.classify_inequalities": (None, _after_classify),
    "geometry.count_lattice_points": (_before_count, _after_count),
    "polytopes.build_order_hrep": (None, _after_hrep),
    "polytopes.build_chain_hrep": (None, _after_hrep),
    "polytopes.build_chain_order_hrep": (None, _after_hrep),
}


class _Stream:
    """The extension stream: times each ``next`` and reads each word's segment signature."""

    def __init__(self, tracer: "Tracer", words):
        self.tracer = tracer
        self.words = words
        self.sid = None
        self.parent = -1
        self.start = self.end = 0.0
        self.busy = 0.0
        self.overhead = 0.0
        self.count = 0
        self.marked = tracer.formula_marked
        self.signatures: set = set()

    def __iter__(self):
        return self

    def __next__(self):
        tr = self.tracer
        if self.sid is None:
            # parent is the consumer at the first next, not the function that made the stream
            self.parent = tr.stack[-1] if tr.stack else -1
            self.sid = len(tr.spans)
            tr.spans.append(None)
            tr.open_streams.append(self)
        tr.stack.append(self.sid)
        t0 = perf_counter()
        if not self.count:
            self.start = t0
        try:
            word = next(self.words)
        finally:
            t1 = perf_counter()
            tr.stack.pop()
            self.busy += t1 - t0
            self.end = t1
        self.count += 1
        if self.marked is not None:
            at = [i for i, e in enumerate(word.word) if e in self.marked]
            self.signatures.add(tuple((t - s - 1, word.segment_descents(s, t))
                                      for s, t in zip(at, at[1:])))
            self.overhead += perf_counter() - t1
        return word

    def record(self, cmd):
        attrs = {"words": self.count}
        if self.marked is not None:
            attrs["signatures"] = len(self.signatures)
            attrs["formula_words"] = self.count
        self.tracer.spans[self.sid] = (cmd, self.parent, "posets.extension_stream", self.start,
                                       self.end, self.busy, self.busy + self.overhead, attrs)


class Tracer:
    """Span recorder for one benchmark run; inactive outside ``begin``/``end``."""

    def __init__(self):
        self.spans: list = []  # (cmd, parent, name, start, end, own, covered, attrs)
        self.stack: list[int] = []
        self.cmd = None
        self.open_streams: list[_Stream] = []
        self.formula_marked = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, cmd) -> None:
        self.cmd = cmd
        self.stack.clear()

    def end(self) -> None:
        for stream in self.open_streams:
            stream.record(self.cmd)
        self.open_streams.clear()
        self.stack.clear()
        self.cmd = None

    def _wrap(self, name: str, fn):
        tracer = self
        before, after = HOOKS.get(name, (None, None))
        spans, stack = self.spans, self.stack
        formula = name == "ehrhart.ehrhart_formula_marked_order"
        stream = name == "posets.linear_extensions"

        def traced(*args, **kwargs):
            cmd = tracer.cmd
            if cmd is None:
                return fn(*args, **kwargs)
            attrs = before(args, kwargs) if before else {}
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            if formula:
                tracer.formula_marked = args[0].marked
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                stack.pop()
                attrs["error"] = sys.exc_info()[0].__name__
                spans[sid] = (cmd, parent, name, t0, t1, t1 - t0, t1 - t0, attrs)
                raise
            finally:
                if formula:
                    tracer.formula_marked = None
            t1 = perf_counter()
            stack.pop()
            if after:
                after(attrs, args, kwargs, result)
            spans[sid] = (cmd, parent, name, t0, t1, t1 - t0, t1 - t0, attrs)
            return _Stream(tracer, result) if stream else result

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def install(self, package: str = "markedposets") -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{package}.{short}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and f"{short}.{attr}" not in UNTRACED):
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._set(module, attr, wrappers[id(value)])
        posets = sys.modules[f"{package}.posets"]
        for cls in (posets.Poset, posets.MarkedPoset):
            self._set(cls, "__init__", self._wrap(f"posets.{cls.__name__}", cls.__init__))
        from_relations = posets.Poset.__dict__["from_relations"].__func__
        self._set(posets.Poset, "from_relations",
                  classmethod(self._wrap("posets.Poset.from_relations", from_relations)))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reading -----------------------------------------------------------

    def layer_metrics(self, setup, passes: int) -> dict[str, float]:
        """Every PER_LAYER metric, per pass over the command spans; corpus time from ``setup``."""
        spans = self.spans
        child_covered = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[1] >= 0:
                child_covered[span[1]] += span[6]
        layer_of: list = [None] * len(spans)
        self_s: dict[str, float] = {}
        totals: dict[str, float] = {}
        probe_of: dict[int, tuple[int, int]] = {}  # counting span -> (max dilation, count span)
        generate_s = 0.0
        for sid, span in enumerate(spans):
            if span is None:
                continue
            cmd, parent, name, start, end, own, covered, attrs = span
            module = name.split(".", 1)[0]
            layer = LAYERS.get(name) or MODULE_LAYERS.get(module)
            if layer is None:
                layer = layer_of[parent] if parent >= 0 else "unattributed"
            layer_of[sid] = layer
            if cmd == setup:
                if module == "corpus" and (parent < 0 or spans[parent][2].split(".")[0] != "corpus"):
                    generate_s += end - start
                continue
            self_s[layer] = self_s.get(layer, 0.0) + own - child_covered[sid]
            totals[name + ".calls"] = totals.get(name + ".calls", 0) + 1
            for key, value in attrs.items():
                if key != "error":
                    totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
            if name == "geometry.count_lattice_points" and parent >= 0 \
                    and spans[parent][2] == "ehrhart.ehrhart_by_counting":
                best = probe_of.get(parent)
                if best is None or attrs["dilation"] > best[0]:
                    probe_of[parent] = (attrs["dilation"], sid)
        probe_s = sum(spans[sid][5] - child_covered[sid] for _, sid in probe_of.values())

        def t(key):
            return totals.get(key, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        def s(layer):
            return self_s.get(layer, 0.0) / passes

        enum = "geometry.enumerate_vertices"
        count_s = self_s.get("geometry.count", 0.0)
        return {
            "cli.self_s": s("cli"),
            "posets.build_s": s("posets.build"),
            "posets.validate_s": s("posets.validate"),
            "posets.extension_stream_s": s("posets.extension_stream"),
            "posets.extensions": t("posets.extension_stream.words") / passes,
            "polytopes.build_hrep_s": s("polytopes.build_hrep"),
            "polytopes.hrep_rows": sum(t(f"polytopes.{b}.rows") for b in (
                "build_order_hrep", "build_chain_hrep", "build_chain_order_hrep")) / passes,
            "geometry.enumerate_vertices_s": s(enum),
            "geometry.enumerate_vertices.calls": t(enum + ".calls") / passes,
            "geometry.vertices": t(enum + ".vertices") / passes,
            "geometry.vertex_cache_hit_ratio": ratio(t(enum + ".cache_hit"), t(enum + ".calls")),
            "geometry.subset_bound": t(enum + ".subset_bound") / passes,
            "geometry.classify_s": s("geometry.classify"),
            "geometry.facet_ratio": ratio(t("geometry.classify_inequalities.facets"),
                                          t("geometry.classify_inequalities.classified")),
            "geometry.count_s": s("geometry.count"),
            "geometry.count.calls": t("geometry.count_lattice_points.calls") / passes,
            "geometry.lattice_points": t("geometry.count_lattice_points.points") / passes,
            "geometry.probe_s": probe_s / passes,
            "geometry.probe_share": ratio(probe_s, count_s),
            "geometry.interpolate_s": s("geometry.interpolate"),
            "twolevel.direct_s": s("twolevel.direct"),
            "twolevel.criterion_s": s("twolevel.criterion"),
            "ehrhart.counting_s": s("ehrhart.counting"),
            "ehrhart.formula_s": s("ehrhart.formula"),
            "ehrhart.signature_ratio": ratio(t("posets.extension_stream.signatures"),
                                             t("posets.extension_stream.formula_words")),
            "corpus.generate_s": generate_s,
        }

    def write(self, path, command_argv: dict) -> None:
        """Write every span, and the argv of every traced command, as gzipped JSON."""
        fields = ["span", "cmd", "parent", "name", "start", "end", "own", "covered", "attrs"]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": fields, "commands": command_argv,
                       "spans": [[sid, *s] for sid, s in enumerate(self.spans) if s is not None]}, fh)
