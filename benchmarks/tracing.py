"""Spans around calls into the library, and the per-layer summary.

The tracer wraps public functions and methods of the library from outside
(no code under ``src/`` knows about it).  Each span records its name, start,
end and parent; spans stay in memory and are written once, when the run
ends.  A span's layer is the part of its name before the first dot, which is
the library module whose function was called.

Table builds (the first ``dense_table``/``wide_table`` call for a key on a
system) are the only spans that also record a ``tracemalloc`` peak, so the
allocation tracking that costs time is confined to the spans that allocate.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
import weakref
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("bump", "construction", "numerics", "projection", "expansion",
          "metrics", "testfuncs", "cli")
TABLE_SPANS = ("construction.dense_table.", "construction.wide_table.")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.enabled = True
        self.last_system = None      # last WaveletSystem loaded from JSON
        self.last_coefficients = None  # last 1-D CoefficientSet analysed
        self._open: list[int] = []
        self._undo: list[tuple] = []
        self._level = 0

    @contextmanager
    def span(self, name: str, **counts):
        if not self.enabled:
            yield {}
            return
        rec = {"name": name, "start": perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None,
               "counts": counts}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    @contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def replace(self, package: str, original, replacement) -> None:
        """Put ``replacement`` wherever a module of ``package`` holds ``original``.

        Modules import each other's functions by name, so every reference
        must be replaced, not just the defining one.
        """
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def wrap_function(self, package: str, module_name: str, attr: str,
                      label, count_points: bool = False) -> None:
        """Span every call of ``module.attr``; ``label`` is a name or a
        callable taking the call's arguments and returning the name.  With
        ``count_points`` the span counts the samples of the returned function."""
        original = getattr(sys.modules[f"{package}.{module_name}"], attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name = label(*args, **kwargs) if callable(label) else label
            with self.span(name) as rec:
                out = original(*args, **kwargs)
                if rec and count_points:
                    rec["counts"]["points"] = int(out.values.size)
                return out

        self.replace(package, original, traced)

    def wrap_method(self, cls, attr: str, wrapper_factory) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(wrapper_factory(raw.__func__)))
        else:
            self._patch(cls, attr, wrapper_factory(raw))


def install(tracer: Tracer) -> None:
    """Wrap the library's public entry points; ``tracer.restore()`` undoes it."""
    # import every module first, so each reference to a function is wrapped
    from subexp_wavelets import (bump, construction, expansion, metrics,  # noqa: F401
                                 numerics, projection, testfuncs)

    pkg = "subexp_wavelets"
    fn = functools.partial(tracer.wrap_function, pkg)
    fn("bump", "build_bump", "bump.build_bump")
    fn("construction", "build_wavelet_system", "construction.build_wavelet_system")
    fn("construction", "run_certificate_suite", "construction.certificates")
    fn("numerics", "synthesize", "numerics.synthesize", count_points=True)
    fn("numerics", "synthesize_values", "numerics.synthesize_values")
    fn("testfuncs", "sample", "testfuncs.sample")
    fn("testfuncs", "sample_2d", "testfuncs.sample_2d")
    fn("projection", "build_kernel", "projection.build_kernel")
    fn("projection", "kernel_decay_certificate", "projection.kernel_decay")
    fn("projection", "polynomial_reproduction", "projection.polynomial")
    fn("projection", "mra_convergence_experiment", "projection.mra")
    fn("expansion", "parseval_check", "expansion.parseval")
    fn("expansion", "bessel_gap", "expansion.bessel")

    def project_label(pk, f, *args, **kwargs):
        if pk.dimension == 2:
            return "projection.project2d"
        tracer._level = pk.level  # the seminorm that follows is of this level
        return f"projection.project.L{pk.level}"

    fn("projection", "project", project_label)
    fn("metrics", "seminorm_estimate",
       lambda *a, **k: f"metrics.seminorm.L{tracer._level}")
    fn("expansion", "synthesize_partial",
       lambda ws, coeffs, grid: "expansion.synthesize_partial"
       if coeffs.window.d == 1 else "expansion.synthesize2d")

    analyze = expansion.analyze

    @functools.wraps(analyze)
    def traced_analyze(ws, f, window, cross_check=True, source_descriptor=""):
        if window.d != 1:
            name = "expansion.analyze2d"
        else:
            name = "expansion.analyze" if cross_check else "expansion.analyze_nocheck"
        with tracer.span(name, coefficients=len(window)):
            out = analyze(ws, f, window, cross_check, source_descriptor)
        if window.d == 1:
            tracer.last_coefficients = out
        return out

    tracer.replace(pkg, analyze, traced_analyze)

    built = weakref.WeakKeyDictionary()  # system -> table keys already built

    def table_wrapper(kind):
        def factory(method):
            @functools.wraps(method)
            def traced(self, which, *args, **kwargs):
                arg = args[0] if args else next(iter(kwargs.values()), None)
                if kind == "dense_table":
                    key = f"{which}{arg or 0}"
                else:
                    key = which if arg is None else f"{which}{arg:g}"
                seen = built.setdefault(self, set())
                if key in seen or not tracer.enabled:
                    seen.add(key)
                    return method(self, which, *args, **kwargs)
                seen.add(key)
                tracemalloc.start()
                try:
                    with tracer.span(f"construction.{kind}.{key}") as rec:
                        out = method(self, which, *args, **kwargs)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                rec["counts"].update(points=int(out[0].count),
                                     alloc_peak_mb=peak / 2 ** 20)
                return out
            return traced
        return factory

    tracer.wrap_method(construction.WaveletSystem, "dense_table",
                       table_wrapper("dense_table"))
    tracer.wrap_method(construction.WaveletSystem, "wide_table",
                       table_wrapper("wide_table"))

    def simple(name, keep=None):
        def factory(method):
            @functools.wraps(method)
            def traced(*args, **kwargs):
                with tracer.span(name):
                    out = method(*args, **kwargs)
                if keep:
                    setattr(tracer, keep, out)
                return out
            return traced
        return factory

    tracer.wrap_method(construction.WaveletSystem, "to_json_dict",
                       simple("construction.to_json"))
    tracer.wrap_method(construction.WaveletSystem, "from_json_dict",
                       simple("construction.from_json", keep="last_system"))


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------

def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Children of one span run one after another inside it, so the covered
    part is the sum of their durations.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_self_times(spans: list[dict]) -> dict:
    totals = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, self_times(spans)):
        layer = s["name"].split(".", 1)[0]
        if layer in totals:
            totals[layer] += t
    return totals


def net_durations(spans: list[dict]) -> list[float]:
    """Duration of each span minus the table builds anywhere beneath it.

    A CLI command rebuilds a table inside whichever operation first reads
    it; netting the build out keeps that time in ``construction`` alone.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["name"].startswith(TABLE_SPANS):
            parent = s["parent"]
            while parent is not None:
                out[parent] -= s["end"] - s["start"]
                parent = spans[parent]["parent"]
    return out


def _durations(spans, net, name) -> list[float]:
    return [t for s, t in zip(spans, net) if s["name"] == name]


def layer_metrics(spans: list[dict], levels=range(7)) -> dict:
    """Per-layer figures shared by every workload's traced run (name -> value).

    Times of operations outside ``construction`` are net of the table
    builds beneath them (see ``net_durations``).
    """
    net = net_durations(spans)

    raw = [s["end"] - s["start"] for s in spans]

    def total(name):
        return sum(_durations(spans, net, name))

    def raw_total(name):  # construction spans keep the tables they build
        return sum(_durations(spans, raw, name))

    def mean(name):
        d = _durations(spans, net, name)
        return sum(d) / len(d) if d else 0.0

    out = {}
    for which in ("psi0", "phi0", "phi1", "phi2"):
        out[f"construction.dense_table.{which}_s"] = total(
            f"construction.dense_table.{which}")
    out["construction.wide_table.psi_s"] = total("construction.wide_table.psi")
    tables = [s for s in spans if s["name"].startswith(TABLE_SPANS)]
    points = sum(s["counts"]["points"] for s in tables)
    table_time = sum(s["end"] - s["start"] for s in tables)
    out["construction.table_points"] = points
    out["construction.table_points_per_s"] = points / table_time
    out["construction.table_alloc_peak_mb"] = max(
        s["counts"]["alloc_peak_mb"] for s in tables)
    out["construction.build_wavelet_system_s"] = raw_total(
        "construction.build_wavelet_system")
    out["construction.certificates_s"] = raw_total("construction.certificates")
    out["construction.to_json_s"] = raw_total("construction.to_json")
    out["construction.from_json_s"] = raw_total("construction.from_json")

    synth = [i for i, s in enumerate(spans) if s["name"] == "numerics.synthesize"]
    out["numerics.synthesize_s"] = total("numerics.synthesize")
    out["numerics.synthesize_points"] = sum(
        spans[i]["counts"]["points"] for i in synth)
    out["numerics.synthesize_values_s"] = sum(
        t for s, t in zip(spans, net)
        if s["name"] == "numerics.synthesize_values" and s["parent"] not in synth)

    out["bump.build_bump_s"] = total("bump.build_bump")
    out["testfuncs.sample_s"] = (total("testfuncs.sample")
                                 + total("testfuncs.sample_2d"))
    for m in levels:
        out[f"projection.project.L{m}_s"] = total(f"projection.project.L{m}")
    out["projection.build_kernel_s"] = total("projection.build_kernel")
    out["projection.project2d_s"] = total("projection.project2d")
    out["projection.kernel_decay_s"] = total("projection.kernel_decay")
    for m in levels:
        out[f"metrics.seminorm.L{m}_s"] = total(f"metrics.seminorm.L{m}")

    checked = mean("expansion.analyze")
    unchecked = mean("expansion.analyze_nocheck")
    out["expansion.analyze_s"] = checked
    out["expansion.analyze_nocheck_s"] = unchecked
    out["expansion.crosscheck_s"] = checked - unchecked
    out["expansion.synthesize_partial_s"] = total("expansion.synthesize_partial")
    out["expansion.parseval_s"] = total("expansion.parseval")
    analyses = [(s, t) for s, t in zip(spans, net)
                if s["name"] in ("expansion.analyze", "expansion.analyze_nocheck")]
    coeffs = sum(s["counts"]["coefficients"] for s, _ in analyses)
    out["expansion.coefficients"] = coeffs
    out["expansion.coefficients_per_s"] = coeffs / sum(t for _, t in analyses)
    out["expansion.analyze2d_s"] = total("expansion.analyze2d")
    out["expansion.synthesize2d_s"] = total("expansion.synthesize2d")

    for layer, t in layer_self_times(spans).items():
        if layer != "cli":
            out[f"self.{layer}_s"] = t
    return out
