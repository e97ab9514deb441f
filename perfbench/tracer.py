"""Spans and work counts at the boundaries of specbound's public functions.

The package is not edited: ``install`` replaces each target function with a
timing wrapper in every ``specbound`` namespace that holds it (the defining
module, modules that imported it by name, and dispatch dicts such as
``cli.COMMANDS``).  Spans stay in memory and are written out at the end.

A span's self time is its duration minus the durations of its child spans.
Counts are computed from arguments and return values at the call boundary.
Per-element helpers (``zq_spectral.in_cb``, ``SparseSpectrum.coefficient``,
called 10^4-10^5 times a run) are deliberately not wrapped.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time


def _plain(_stat, fn, args, kwargs):
    return fn(*args, **kwargs)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _seen(stat, key):
    """Count a call on an input this process has already handled."""
    if key in stat["_seen"]:
        stat["repeats"] += 1
    else:
        stat["_seen"].add(key)


def _polytope_vertices(stat, fn, args, kwargs):
    columns = _arg(args, kwargs, 0, "polytope").basis.columns
    q, d = columns.shape
    stat["subsets"] += math.comb(q, d) if 0 < d <= q else 0
    _seen(stat, (q, d, columns.tobytes()))
    result = fn(*args, **kwargs)
    stat["vertices"] += len(result)
    return result


def _dimension_bound(stat, fn, args, kwargs):
    b = _arg(args, kwargs, 0, "b")
    _seen(stat, (b.q, tuple(sorted(b.members))))
    return fn(*args, **kwargs)


def _peyriere_dimension(stat, fn, args, kwargs):
    stat["grid_points"] += _arg(args, kwargs, 2, "m") * _arg(args, kwargs, 1, "depth")
    return fn(*args, **kwargs)


def _result_terms(stat, fn, args, kwargs):
    result = fn(*args, **kwargs)
    stat["terms"] += len(result)
    return result


def _self_terms(stat, fn, args, kwargs):
    stat["terms"] += len(args[0])
    return fn(*args, **kwargs)


def _martingale_levels(stat, fn, args, kwargs):
    stat["grid_points"] += _arg(args, kwargs, 1, "grid").size
    return fn(*args, **kwargs)


def _tanh_sinh_full(stat, fn, args, kwargs):
    integrand = args[0]

    def counted(x):
        stat["nodes"] += x.size
        return integrand(x)

    result = fn(counted, *args[1:], **kwargs)
    stat["levels"] += result.levels
    return result


# target -> (counting hook or None, the workload that must reach it)
TARGETS = {
    "kappa_bound.polytope_vertices": (_polytope_vertices, "bound-halfband"),
    "kappa_bound.kappa": (None, "verify-all"),
    "kappa_bound.kappa_prime_1": (None, "bound-halfband"),
    "kappa_bound.dimension_bound": (_dimension_bound, "bound-halfband"),
    "riesz_products.peyriere_dimension": (_peyriere_dimension, "sweep-riesz"),
    "riesz_products.riesz_spectrum": (_result_terms, "sweep-riesz"),
    "riesz_products.entropy_dimension_estimate": (None, "sweep-riesz"),
    "riesz_products.bound_table_row": (None, "sweep-riesz"),
    "riesz_products.factor_entropy": (None, "verify-all"),
    "riesz_products.log_integral": (None, "sweep-riesz"),
    "spectrum.uniform_interval_masses": (None, "sweep-riesz"),
    "spectrum.SparseSpectrum.is_conjugate_symmetric": (_self_terms, "sweep-riesz"),
    "spectrum.synthesize_on_grid": (None, "verify-all"),
    "quadrature.tanh_sinh_full": (_tanh_sinh_full, "verify-all"),
    "gv_martingale.martingale_levels": (_martingale_levels, "verify-all"),
    "gv_martingale.growth_check": (None, "verify-all"),
    "gv_martingale.set_average_check": (None, "verify-all"),
    "gv_martingale.wb_membership_check": (None, "verify-all"),
    "gv_martingale.spectral_projection_check": (None, "verify-all"),
    "gv_martingale.phi_kernel_mass_sandwich": (None, "verify-all"),
    "gv_martingale.sample_on_grid": (None, "verify-all"),
    "zq_spectral.wb_basis": (None, "bound-halfband"),
    "verify.kappa_suite": (None, "verify-all"),
    "verify.riesz_identity_suite": (None, "verify-all"),
    "verify.martingale_suite": (None, "verify-all"),
    "cli.cmd_bound": (None, "bound-halfband"),
    "cli.cmd_sweep": (None, "sweep-riesz"),
    "cli.cmd_verify": (None, "verify-all"),
    "cli.render": (None, "bound-halfband"),
}

# (metric name, unit, better); the per_layer list of BENCHMARK.json.
LAYER_METRICS = [
    ("kappa_bound.polytope_vertices.self_s", "s", "lower"),
    ("kappa_bound.polytope_vertices.calls", "count", "lower"),
    ("kappa_bound.polytope_vertices.subsets", "count", "lower"),
    ("kappa_bound.polytope_vertices.vertices", "count", "lower"),
    ("kappa_bound.polytope_vertices.yield", "ratio", "higher"),
    ("kappa_bound.polytope_vertices.repeat_frac", "ratio", "lower"),
    ("kappa_bound.kappa.self_s", "s", "lower"),
    ("kappa_bound.kappa.calls", "count", "lower"),
    ("kappa_bound.kappa_prime_1.self_s", "s", "lower"),
    ("kappa_bound.dimension_bound.calls", "count", "lower"),
    ("kappa_bound.dimension_bound.repeat_frac", "ratio", "lower"),
    ("riesz_products.peyriere_dimension.self_s", "s", "lower"),
    ("riesz_products.peyriere_dimension.calls", "count", "lower"),
    ("riesz_products.peyriere_dimension.grid_points", "count", "lower"),
    ("riesz_products.riesz_spectrum.self_s", "s", "lower"),
    ("riesz_products.riesz_spectrum.terms", "count", "lower"),
    ("riesz_products.entropy_dimension_estimate.self_s", "s", "lower"),
    ("riesz_products.bound_table_row.self_s", "s", "lower"),
    ("riesz_products.factor_entropy.self_s", "s", "lower"),
    ("riesz_products.factor_entropy.calls", "count", "lower"),
    ("riesz_products.log_integral.self_s", "s", "lower"),
    ("spectrum.uniform_interval_masses.self_s", "s", "lower"),
    ("spectrum.uniform_interval_masses.calls", "count", "lower"),
    ("spectrum.SparseSpectrum.is_conjugate_symmetric.self_s", "s", "lower"),
    ("spectrum.SparseSpectrum.is_conjugate_symmetric.calls", "count", "lower"),
    ("spectrum.SparseSpectrum.is_conjugate_symmetric.terms", "count", "lower"),
    ("spectrum.synthesize_on_grid.self_s", "s", "lower"),
    ("quadrature.tanh_sinh_full.self_s", "s", "lower"),
    ("quadrature.tanh_sinh_full.calls", "count", "lower"),
    ("quadrature.tanh_sinh_full.levels", "count", "lower"),
    ("quadrature.tanh_sinh_full.nodes", "count", "lower"),
    ("gv_martingale.martingale_levels.self_s", "s", "lower"),
    ("gv_martingale.martingale_levels.grid_points", "count", "lower"),
    ("gv_martingale.growth_check.self_s", "s", "lower"),
    ("gv_martingale.set_average_check.self_s", "s", "lower"),
    ("gv_martingale.set_average_check.calls", "count", "lower"),
    ("gv_martingale.wb_membership_check.self_s", "s", "lower"),
    ("gv_martingale.spectral_projection_check.self_s", "s", "lower"),
    ("gv_martingale.phi_kernel_mass_sandwich.self_s", "s", "lower"),
    ("gv_martingale.sample_on_grid.self_s", "s", "lower"),
    ("zq_spectral.wb_basis.self_s", "s", "lower"),
    ("zq_spectral.wb_basis.calls", "count", "lower"),
    ("verify.kappa_suite.self_s", "s", "lower"),
    ("verify.riesz_identity_suite.self_s", "s", "lower"),
    ("verify.martingale_suite.self_s", "s", "lower"),
    ("cli.cmd_bound.self_s", "s", "lower"),
    ("cli.cmd_sweep.self_s", "s", "lower"),
    ("cli.cmd_verify.self_s", "s", "lower"),
    ("cli.render.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent id, request id, name, start, end)
        self.stats: dict[str, dict] = {}
        self.request_id: int | None = None
        self._stack: list[list] = []   # [span id, start, child time]
        self._origin = time.perf_counter()

    def _stat(self, name: str) -> dict:
        return self.stats.setdefault(name, {
            "calls": 0, "self_s": 0.0, "repeats": 0, "_seen": set(), "subsets": 0,
            "vertices": 0, "grid_points": 0, "terms": 0, "levels": 0, "nodes": 0})

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self._call(name, self._stat(name), _plain, fn, args, kwargs)

    def wrap(self, name: str, fn, hook):
        stat = self._stat(name)
        hook = hook or _plain

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, stat, hook, fn, args, kwargs)

        return traced

    def _call(self, name, stat, hook, fn, args, kwargs):
        span_id = len(self.spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return hook(stat, fn, args, kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            stat["calls"] += 1
            stat["self_s"] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration
            self.spans.append((span_id, parent, self.request_id, name,
                               frame[1] - self._origin, end - self._origin))

    def layer_stats(self) -> dict:
        """Per-target counters without the bookkeeping sets."""
        return {name: {k: v for k, v in stat.items() if not k.startswith("_")}
                for name, stat in self.stats.items()}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, request, name, start, end in sorted(self.spans):
                handle.write(json.dumps({"id": span_id, "parent": parent, "request": request,
                                         "name": name, "start": start, "end": end}) + "\n")


def install(tracer: Tracer) -> dict[str, list[str]]:
    """Wrap every target; returns, per target, the namespaces that were patched."""
    modules = {name: module for name, module in sys.modules.items()
               if name == "specbound" or name.startswith("specbound.")}
    patched = {}
    for target, (hook, _workload) in TARGETS.items():
        module_name, qualname = target.split(".", 1)
        owner = modules["specbound." + module_name]
        *path, attr = qualname.split(".")
        holder = owner
        for part in path:
            holder = getattr(holder, part)
        original = getattr(holder, attr)
        wrapped = tracer.wrap(target, original, hook)
        setattr(holder, attr, wrapped)
        places = [f"{module_name}.{qualname}"]
        if holder is owner:
            for name, module in modules.items():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        places.append(f"{name[len('specbound.'):] or 'specbound'}.{key}")
                    elif isinstance(value, dict):
                        for dict_key, entry in list(value.items()):
                            if entry is original:
                                value[dict_key] = wrapped
                                places.append(f"{name[len('specbound.'):]}.{key}[{dict_key!r}]")
        patched[target] = sorted(set(places))
    return patched


def layer_metrics(stats: dict) -> dict[str, float]:
    """The LAYER_METRICS values (all but the tracing overhead) from ``layer_stats``."""
    out = {}
    for name, _unit, _better in LAYER_METRICS:
        target, _, stat_name = name.rpartition(".")
        if target == "trace":
            continue
        stat = stats.get(target, {})
        calls = stat.get("calls", 0)
        if stat_name == "yield":
            value = stat["vertices"] / stat["subsets"] if stat.get("subsets") else 0.0
        elif stat_name == "repeat_frac":
            value = stat["repeats"] / calls if calls else 0.0
        else:
            value = stat.get(stat_name, 0.0 if stat_name == "self_s" else 0)
        out[name] = value
    return out
