"""Spans around spherewave's layers, recorded from outside the package.

A probe wraps one public function (or classmethod) and patches the wrapper
into every spherewave module that holds the original under some name, so the
wrapper is found wherever a caller looks the name up (`harness` imports
`step as wave_step`, `cli` imports `run_path`, `synthesize` and the writers).
A probe whose target no longer exists is reported as missing; the metrics
that depend only on missing probes read None instead of breaking the run.

Spans are kept in memory with a parent and a thread id.  A span's self time
is its duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, field

# (span name, module, attribute).  The layer is the part of the span name
# before the first dot; several targets may feed one span name.
PROBES = (
    ("cli.main", "spherewave.cli", "main"),
    ("harness.experiment", "spherewave.harness", "strong_error_experiment"),
    ("harness.experiment", "spherewave.harness", "weak_error_experiment"),
    ("harness.experiment", "spherewave.harness", "pathwise_error_experiment"),
    # private, but the only place that sees one Monte Carlo sample at a time
    ("harness.map_samples", "spherewave.harness", "_map_samples"),
    ("noise.factor_build", "spherewave.noise", "ConvFactorTable.for_wave"),
    ("noise.factor_build", "spherewave.noise", "ConvFactorTable.for_schrodinger"),
    ("noise.sample", "spherewave.noise", "sample_wave_conv_increments"),
    ("noise.sample", "spherewave.noise", "sample_schrodinger_conv_increments"),
    ("wave.step", "spherewave.wave", "step"),
    ("wave.propagate", "spherewave.wave", "propagate"),
    ("wave.prop_build", "spherewave.wave", "Propagator.build"),
    ("wave.run_path", "spherewave.wave", "run_path"),
    ("schrodinger.step", "spherewave.schrodinger", "schrodinger_step"),
    ("schrodinger.run_path", "spherewave.schrodinger", "run_path_schrodinger"),
    ("modes.mode_degrees", "spherewave.modes", "mode_degrees"),
    ("modes.mode_labels", "spherewave.modes", "mode_labels"),
    ("harmonics.legendre_table", "spherewave.harmonics", "normalized_legendre_table"),
    ("harmonics.synthesize", "spherewave.harmonics", "synthesize"),
    ("io.write", "spherewave.io", "write_error_table_csv"),
    ("io.write", "spherewave.io", "write_error_table_json"),
    ("io.write", "spherewave.io", "write_grid_field_csv"),
    ("io.write", "spherewave.io", "write_coefficient_csv"),
    ("io.write", "spherewave.io", "write_wave_trajectory_csv"),
    ("io.write", "spherewave.io", "write_schrodinger_trajectory_csv"),
)

SAMPLE_SPAN = "harness.sample"


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


@dataclass
class Span:
    id: int
    parent: int | None
    thread: int
    name: str
    start: float
    end: float = math.nan
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one stack of open spans per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent: int | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        with self._lock:
            span = Span(next(self._ids), parent, threading.get_ident(), name,
                        time.perf_counter())
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, count=None):
        """fn recorded as a span; count(args, kwargs, result) adds to span.info."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if count is not None:
                try:
                    span.info.update(count(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    pass  # a changed signature loses the count, not the run
            return result
        return traced

    def wrap_map_samples(self, fn):
        """_map_samples(cfg, fn, n): one span per sample, parented across threads."""
        @functools.wraps(fn)
        def traced(cfg, sample_fn, *args, **kwargs):
            span = self.begin("harness.map_samples")
            span.info["threads"] = getattr(cfg, "threads", 1)

            def one(i):
                inner = self.begin(SAMPLE_SPAN, parent=span.id)
                try:
                    return sample_fn(i)
                finally:
                    self.end(inner)

            try:
                return fn(cfg, one, *args, **kwargs)
            finally:
                self.end(span)
        return traced


# --------------------------------------------------------------------------
# computed counts attached to spans
# --------------------------------------------------------------------------

def _count_noise(args, kwargs, result):
    # two standard normals per mode; the normals and both increment fields are
    # each written once, 8 bytes per value
    values = sum(f.data.size for f in result)
    return {"normals": values, "bytes": 8 * 2 * values}


def _count_table(args, kwargs, result):
    return {"table_bytes": result.nbytes}


def _trajectory_values(args):
    """Coefficients of every field of every stored state."""
    return sum(v.data.size for state in args[1] for v in vars(state).values()
               if hasattr(v, "data"))


# floats each writer formats into text, computed from its arguments
_FORMATTED = {
    "write_error_table_csv": lambda a: 2 * len(a[1].errors),
    "write_error_table_json": lambda a: 2 * len(a[1].errors) + 1,
    "write_grid_field_csv": lambda a: 3 * a[1].values.size,
    "write_coefficient_csv": lambda a: a[1].data.size,
    "write_wave_trajectory_csv": _trajectory_values,
    "write_schrodinger_trajectory_csv": _trajectory_values,
}


def _count_io(attr):
    def count(args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        return {"bytes": os.path.getsize(path), "values": _FORMATTED[attr](args)}
    return count


def _counter(span_name, attr):
    if span_name == "noise.sample":
        return _count_noise
    if span_name == "harmonics.legendre_table":
        return _count_table
    if span_name == "io.write":
        return _count_io(attr)
    return None


# --------------------------------------------------------------------------
# installing and removing probes
# --------------------------------------------------------------------------

class Probes:
    """Installs the wrappers of PROBES; uninstall() restores every original."""

    def __init__(self, tracer: Tracer, probes=PROBES, package: str = "spherewave"):
        self.tracer = tracer
        self.probes = probes
        self.package = package
        self.installed: set[str] = set()   # span names with at least one live probe
        self.missing: list[str] = []        # "module.attribute" targets not found
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def install(self):
        for span_name, module_name, attr in self.probes:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if "." in attr:
                ok = self._patch_classmethod(span_name, module, attr)
            else:
                ok = self._patch_function(span_name, module, attr)
            if ok:
                self.installed.add(span_name)
            else:
                self.missing.append(f"{module_name}.{attr}")
        return self

    def _patch_function(self, span_name, module, attr) -> bool:
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        if span_name == "harness.map_samples":
            wrapper = self.tracer.wrap_map_samples(original)
        else:
            wrapper = self.tracer.wrap(span_name, original, _counter(span_name, attr))
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapper)
        return True

    def _patch_classmethod(self, span_name, module, attr) -> bool:
        cls_name, meth = attr.split(".", 1)
        cls = getattr(module, cls_name, None)
        original = vars(cls).get(meth) if isinstance(cls, type) else None
        if not isinstance(original, classmethod):
            return False
        wrapper = self.tracer.wrap(span_name, original.__func__)
        self._undo.append((cls, meth, original))
        setattr(cls, meth, classmethod(wrapper))
        return True

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


# --------------------------------------------------------------------------
# arithmetic on spans
# --------------------------------------------------------------------------

def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo   # everything before `reach` is counted already
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered_length(children.get(s.id, ()), s.start, s.end)
            for s in spans}


TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sequence."""
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def _rank(p: float, n: int) -> int:
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def tail_percentile(values, beyond: int = 10):
    """Highest percentile with at least `beyond` samples above it, as (p, value).

    Percentiles use the nearest-rank rule on TAIL_PERCENTILES; None when even
    the median has fewer than `beyond` samples above it.
    """
    xs = sorted(values)
    n = len(xs)
    best = None
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= beyond:
            best = (p, percentile(xs, p))
    return best


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

def layer_metrics(spans, ops: int, installed: set[str]) -> dict[str, float | None]:
    """Per-layer metrics per operation from the spans of `ops` traced operations.

    A metric reads None when none of the span names it is built from had a
    live probe.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    installed = set(installed)
    if "harness.map_samples" in installed:
        installed.add(SAMPLE_SPAN)

    def live(*names):
        return any(n in installed for n in names)

    def self_s(*names):
        if not live(*names):
            return None
        return sum(selfs[s.id] for n in names for s in by_name.get(n, ())) / ops

    def calls(name):
        return len(by_name.get(name, ())) / ops if live(name) else None

    def total(name, key):
        """Per-operation sum of a count attached to the spans."""
        if not live(name):
            return None
        return sum(s.info.get(key, 0) for s in by_name.get(name, ())) / ops

    def p50_ms(name):
        if not live(name):
            return None
        ms = sorted(1e3 * s.duration for s in by_name.get(name, ()))
        return percentile(ms, 50) if ms else 0.0

    def layer_self(layer):
        names = {p for p in installed if layer_of(p) == layer}
        return self_s(*names) if names else None

    sampled = live(SAMPLE_SPAN)
    samples = by_name.get(SAMPLE_SPAN, [])
    tail = tail_percentile([1e3 * s.duration for s in samples]) or (0.0, 0.0)
    capacity = sum(m.info.get("threads", 1) * m.duration
                   for m in by_name.get("harness.map_samples", ()))
    busy = sum(s.duration for s in samples)
    tables = [s.info.get("table_bytes", 0) for s in by_name.get("harmonics.legendre_table", ())]

    return {
        "noise.sample_s": self_s("noise.sample"),
        "noise.normals": total("noise.sample", "normals"),
        "noise.bytes": total("noise.sample", "bytes"),
        "noise.factor_build_s": self_s("noise.factor_build"),
        "wave.step_s": self_s("wave.step"),
        "wave.propagate_s": self_s("wave.propagate"),
        "wave.prop_build_s": self_s("wave.prop_build"),
        "wave.steps": calls("wave.step"),
        "schrodinger.step_s": self_s("schrodinger.step"),
        "schrodinger.steps": calls("schrodinger.step"),
        "modes.mode_degrees_s": self_s("modes.mode_degrees"),
        "modes.mode_degrees_calls": calls("modes.mode_degrees"),
        "modes.mode_labels_s": self_s("modes.mode_labels"),
        "harness.self_s": layer_self("harness"),
        "harness.samples": calls(SAMPLE_SPAN),
        # the percentiles are taken over all traced samples, this many
        "harness.sample_ms_n": float(len(samples)) if sampled else None,
        "harness.sample_ms_p50": p50_ms(SAMPLE_SPAN),
        "harness.sample_ms_pmax": tail[1] if sampled else None,
        "harness.sample_pmax_pct": tail[0] if sampled else None,
        "harness.pool_efficiency": (busy / capacity if capacity > 0 else 0.0)
        if sampled else None,
        "harmonics.legendre_table_s": self_s("harmonics.legendre_table"),
        "harmonics.table_mb": max(tables, default=0) / 1e6
        if live("harmonics.legendre_table") else None,
        "harmonics.synthesize_s": self_s("harmonics.synthesize"),
        "harmonics.synthesize_calls": calls("harmonics.synthesize"),
        "harmonics.synth_ms_p50": p50_ms("harmonics.synthesize"),
        "io.write_s": self_s("io.write"),
        "io.bytes_written": total("io.write", "bytes"),
        "io.values_formatted": total("io.write", "values"),
        "cli.self_s": self_s("cli.main"),
    }


def layer_shares(spans) -> dict[str, float]:
    """Each layer's share of the summed self time of all spans."""
    selfs = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        layer = layer_of(s.name)
        totals[layer] = totals.get(layer, 0.0) + selfs[s.id]
    busy = sum(totals.values())
    return {k: v / busy for k, v in sorted(totals.items())} if busy > 0 else {}
