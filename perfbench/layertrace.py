"""Layer tracing from outside the engine.

The tracer replaces the public functions of each engine module with
wrappers, in every c5cone module namespace that holds a reference to them
(the modules import each other with ``from .x import y``). A wrapped call
records one span (name, start, end, parent) while tracing is on; spans stay
in memory and are written out once, at the end of a run.

CycloScalar methods run millions of times, so they get accumulated counters
and timers instead of spans. Time spent in a top-level scalar operation is
charged to the innermost open span as scalar time, so a layer's self time
is its span time minus its child spans minus the scalar arithmetic it
called directly.

The engine is single-threaded: no layer ever waits on another, so there are
no wait times to report.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# Engine modules whose public functions become spans, in layer order.
SPAN_LAYERS = (
    "series",
    "geometry",
    "auxiliary",
    "c5",
    "invariants",
    "projection",
    "oracle",
    "documents",
    "cli",
)

# Methods of geometry classes that carry counters as spans of their own.
_CLASS_SPANS = {
    "geometry": (("Plane", "__init__"), ("Plane", "key"), ("Direction", "key")),
}

# CycloScalar members timed as counters: metric stem -> attribute names.
_SCALAR_COUNTERS = {
    "mul": ("__mul__", "__rmul__"),
    "inverse": ("inverse",),
    "reduce": ("from_poly",),
    "embed": ("embed",),
    "add": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"),
    "text": ("text",),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "scalar_s")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.scalar_s = 0.0


def self_times(spans):
    """Self time of every span: its duration minus the union of the
    intervals its direct children cover, minus its own scalar time.

    spans is a list of objects with name, start, end, parent (an index into
    the list or None) and scalar_s.
    """
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(idx)
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children[idx], key=lambda c: spans[c].start):
            lo = max(spans[child].start, cursor, span.start)
            hi = min(spans[child].end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered - span.scalar_s)
    return out


class Tracer:
    """install(package) wraps the engine, uninstall() restores it; spans and
    counters are taken only while enabled is set."""

    def __init__(self):
        self.enabled = False
        self._patched = []  # (owner, attribute, original value)
        self._scalar_depth = 0
        self.reset()

    # -- bookkeeping ---------------------------------------------------------

    def reset(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.timers = {}
        self.max_phi = 0

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _span_wrapper(self, name, fn, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(name, time.perf_counter(), parent)
            tracer.spans.append(span)
            tracer.stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        return wrapper

    def _scalar_wrapper(self, stem, fn):
        tracer = self
        calls, seconds = f"scalar.{stem}.calls", f"scalar.{stem}.s"

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            outer = tracer._scalar_depth == 0
            tracer._scalar_depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._scalar_depth -= 1
            tracer.counts[calls] = tracer.counts.get(calls, 0) + 1
            tracer.timers[seconds] = tracer.timers.get(seconds, 0.0) + elapsed
            if outer:
                tracer.timers["scalar.s"] = tracer.timers.get("scalar.s", 0.0) + elapsed
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]].scalar_s += elapsed
            coeffs = getattr(result, "coeffs", None)
            if coeffs is not None and len(coeffs) > tracer.max_phi:
                tracer.max_phi = len(coeffs)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, package):
        """Wrap the engine whose package module is given (c5cone)."""
        prefix = package.__name__
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == prefix or name.startswith(prefix + ".")
        }
        replacements = {}
        for layer in SPAN_LAYERS:
            mod = modules[f"{prefix}.{layer}"]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    replacements[id(obj)] = self._span_wrapper(
                        f"{layer}.{name}", obj, _POST.get(f"{layer}.{name}")
                    )
            for cls_name, meth in _CLASS_SPANS.get(layer, ()):
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._span_wrapper(
                    f"{layer}.{cls_name}.{meth}", cls.__dict__[meth]
                ))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, name, wrapper)
        scalar_cls = modules[f"{prefix}.scalar"].CycloScalar
        for stem, attrs in _SCALAR_COUNTERS.items():
            wrapped = {}
            for attr in attrs:
                raw = scalar_cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(scalar_cls, attr, classmethod(
                        self._scalar_wrapper(stem, raw.__func__)
                    ))
                    continue
                if id(raw) not in wrapped:
                    wrapped[id(raw)] = self._scalar_wrapper(stem, raw)
                self._patch(scalar_cls, attr, wrapped[id(raw)])

    def _patch(self, owner, name, value):
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self):
        """Put back every attribute install() replaced."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- results -------------------------------------------------------------

    def call_counts(self):
        """Every count the trace holds: calls per span name and the
        counters read off results and scalar operations."""
        out = dict(self.counts)
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        out["scalar.max_phi"] = self.max_phi
        return out

    def layer_totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        selfs = self_times(self.spans)
        out = {}
        for span, own in zip(self.spans, selfs):
            calls, total, self_s = out.get(span.name, (0, 0.0, 0.0))
            out[span.name] = (calls + 1, total + span.end - span.start, self_s + own)
        return out

    def dump(self, path):
        """Write spans as JSON lines: [name, start, end, parent]."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps([span.name, span.start, span.end, span.parent]) + "\n"
                )


# ---------------------------------------------------------------------------
# Counters read off results, keyed by span name.


def _terms(tracer, args, kwargs, result):
    tracer.count("series.terms_built", sum(len(s.terms) for s in result.coords))


def _cone(tracer, args, kwargs, result):
    tracer.count("c5.cone.planes", len(result.components))


def _summands(tracer, args, kwargs, result):
    doc = args[0] if args else kwargs["doc"]
    tracer.count(
        "documents.summands",
        sum(
            len(t["coeff"])
            for branch in doc["branches"]
            for series in branch["coords"]
            for t in series
        ),
    )


def _samples(tracer, args, kwargs, result):
    c = args[0] if args else kwargs["c"]
    r = len(c.branches)
    sources = r + r * (r - 1) // 2
    tracer.count(
        "oracle.samples", result.samples_per_radius * len(result.radii) * sources
    )
    tracer.count("oracle.degenerate", result.degenerate_count)


def _witnesses(tracer, args, kwargs, result):
    tracer.count("oracle.witness.families", len(result))
    tracer.count("oracle.witness.skipped", sum(1 for w in result if w.skipped))


_POST = {
    "series.substitute_scale": _terms,
    "series.substitute_power": _terms,
    "series.subtract": _terms,
    "c5.c5_cone": _cone,
    "documents.from_document": _summands,
    "oracle.sample_secant_directions": _samples,
    "oracle.cone_witness_results": _witnesses,
}


def layer_metrics(tracer, curves: int) -> dict:
    """The per-layer metrics of one traced pass over curves curves."""
    totals = tracer.layer_totals()
    counts = dict(tracer.counts)
    timers = tracer.timers

    def calls(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def seconds(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(layer):
        return sum(v[2] for k, v in totals.items() if k.startswith(layer + "."))

    records = calls("auxiliary.characteristic_aux", "auxiliary.contact_aux")
    planes = counts.get("c5.cone.planes", 0)
    searches = calls("projection.find_generic_projection")
    m = {
        "scalar.mul.calls": counts.get("scalar.mul.calls", 0),
        "scalar.mul.s": timers.get("scalar.mul.s", 0.0),
        "scalar.inverse.calls": counts.get("scalar.inverse.calls", 0),
        "scalar.inverse.s": timers.get("scalar.inverse.s", 0.0),
        "scalar.reduce.calls": counts.get("scalar.reduce.calls", 0),
        "scalar.embed.calls": counts.get("scalar.embed.calls", 0),
        "scalar.add.calls": counts.get("scalar.add.calls", 0),
        "scalar.add.s": timers.get("scalar.add.s", 0.0),
        "scalar.text.calls": counts.get("scalar.text.calls", 0),
        "scalar.max_phi": tracer.max_phi,
        "scalar.s": timers.get("scalar.s", 0.0),
        "series.substitute.calls": calls(
            "series.substitute_scale", "series.substitute_power"
        ),
        "series.subtract.calls": calls("series.subtract"),
        "series.terms_built": counts.get("series.terms_built", 0),
        "series.self_s": self_s("series"),
        "auxiliary.char_records": calls("auxiliary.characteristic_aux"),
        "auxiliary.contact_records": calls("auxiliary.contact_aux"),
        "auxiliary.self_s": self_s("auxiliary"),
        "auxiliary.records_per_plane": records / planes if planes else 0.0,
        "geometry.rref.calls": calls("geometry.rref"),
        "geometry.rref.s": seconds("geometry.rref"),
        "geometry.plane.builds": calls("geometry.Plane.__init__"),
        "geometry.key.calls": calls("geometry.Plane.key", "geometry.Direction.key"),
        "geometry.classify.calls": calls("geometry.classify"),
        "geometry.self_s": self_s("geometry"),
        "c5.cone.calls_per_curve": calls("c5.c5_cone") / curves,
        "c5.cone.s": seconds("c5.c5_cone"),
        "c5.self_s": self_s("c5"),
        "invariants.profile.calls": calls("invariants.profile"),
        "invariants.profile.s": seconds("invariants.profile"),
        "invariants.equivalent.s": seconds("invariants.bilipschitz_equivalent"),
        "invariants.self_s": self_s("invariants"),
        "projection.searches": searches,
        "projection.generic_checks": calls("projection.is_c5_generic"),
        "projection.checks_per_search": (
            calls("projection.is_c5_generic") / searches if searches else 0.0
        ),
        "projection.search.s": seconds("projection.find_generic_projection"),
        "projection.invariance.s": seconds("projection.verify_projection_invariance"),
        "projection.self_s": self_s("projection"),
        "oracle.samples": counts.get("oracle.samples", 0),
        "oracle.degenerate": counts.get("oracle.degenerate", 0),
        "oracle.sample.s": seconds("oracle.sample_secant_directions"),
        "oracle.witness.families": counts.get("oracle.witness.families", 0),
        "oracle.witness.skipped": counts.get("oracle.witness.skipped", 0),
        "oracle.witness.s": seconds("oracle.cone_witness_results"),
        "oracle.self_s": self_s("oracle"),
        "documents.read.calls": calls("documents.read_curve"),
        "documents.read.s": seconds("documents.read_curve"),
        "documents.summands": counts.get("documents.summands", 0),
        "documents.self_s": self_s("documents"),
        "cli.self_s": self_s("cli"),
        "trace.spans": len(tracer.spans),
    }
    return m
