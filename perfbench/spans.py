"""In-memory span tracer for the sphclt benchmark.

The tracer replaces, from outside the package, each name a calling module
binds to a function of another layer (``sphclt.cli.gegenbauer_moment`` and
``sphclt.moments.gegenbauer_moment`` are separate bindings and are wrapped
separately), plus ``GegenbauerCtx.evaluate`` and ``evaluate_all`` on the
class.  Nothing under ``src/`` changes.

Span stacks are per thread: ``ordered_map`` runs replica chunks on worker
threads, and a worker's span must never be charged to the main thread's
open span.  Times are integer nanoseconds, so a span's self time (its
duration minus the durations of its children on the same thread) is exact
and never negative, and the self times of one thread sum to the duration of
its outermost spans.

Spans stay in memory until ``dump`` writes them at the end of a command.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager

import numpy as np

# name of each counted cache -> (module, attribute) of its lru_cache object
CACHES = {
    "moments_ctx": ("sphclt.moments", "_ctx"),
    "jacobi_rule": ("sphclt.quadrature", "gauss_jacobi_rule"),
    "expand_power": ("sphclt.contractions", "_expand_power_cached"),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        """Time the enclosed block; yields a dict the caller fills with counts."""
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        frame = [next(self._ids), 0]  # [span id, nanoseconds covered by children]
        counts = {}
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield counts
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][1] += dur
            record = {"id": frame[0], "parent": parent, "name": name,
                      "thread": threading.get_ident(), "start_ns": start,
                      "end_ns": end, "self_ns": dur - frame[1], **counts}
            with self._lock:
                self.spans.append(record)

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr by a function that records a span per call.

        ``count(args, kwargs, result)`` returns the span's counters; it runs
        inside the span, so its cost is charged to the wrapped layer.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as counts:
                result = original(*args, **kwargs)
                if count is not None:
                    counts.update(count(args, kwargs, result))
            return result

        self.replace(owner, attr, traced)

    def replace(self, owner, attr, fn):
        """Bind owner.attr to fn until ``uninstall``."""
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, fn)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path, extra):
        doc = dict(extra, spans=self.spans)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def cache_counts():
    """{cache name: [hits, misses]} of the counted lru caches."""
    out = {}
    for key, (module, attr) in CACHES.items():
        info = getattr(importlib.import_module(module), attr).cache_info()
        out[key] = [info.hits, info.misses]
    return out


def install(tracer: Tracer) -> None:
    """Wrap every cross-module call of sphclt that a per-layer metric reads."""
    import sphclt.cli as cli
    import sphclt.clt as clt
    import sphclt.contractions as contractions
    import sphclt.moments as moments
    import sphclt.simulate as simulate
    from sphclt.specfun import GegenbauerCtx

    def bind(fn):
        sig = inspect.signature(fn)

        def arguments(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments
        return arguments

    # specfun
    def recurrence(args, kwargs, result):
        ctx, t = args[0], args[1]
        return {"steps": max(ctx.ell - 1, 0) * np.size(t)}
    for method in ("evaluate", "evaluate_all"):
        tracer.wrap(GegenbauerCtx, method, "specfun.gegenbauer", recurrence)

    def hermite_values(args, kwargs, result):
        return {"values": args[0] * np.size(args[1])}
    for mod in (clt, simulate):
        tracer.wrap(mod, "hermite", "specfun.hermite", hermite_values)
    for attr in ("bessel_j", "bessel_j_zeros"):
        tracer.wrap(moments, attr, "specfun.bessel")

    # quadrature
    panel_args = bind(moments.panel_nodes)

    def panel_points(args, kwargs, result):
        a = panel_args(args, kwargs)
        return {"points": a["n_panels"] * a["nodes_per_panel"]}
    for mod in (moments, simulate):
        tracer.wrap(mod, "panel_nodes", "quadrature.panel", panel_points)
    for mod in (contractions, simulate):
        tracer.wrap(mod, "gauss_jacobi_rule", "quadrature.jacobi",
                    lambda args, kwargs, result: {"nodes": int(args[0])})

    # moments
    moment_args = bind(moments.gegenbauer_moment)
    seen_moments = set()

    def moment_counts(args, kwargs, result):
        a = moment_args(args, kwargs)
        key = (a["ell"], a["q"], a["d"], a["rng"])
        with tracer._lock:
            repeat = key in seen_moments
            seen_moments.add(key)
        return {"panels": result.panels, "repeat": int(repeat)}
    for mod in (cli, moments):
        tracer.wrap(mod, "gegenbauer_moment", "moments.moment", moment_counts)
    for mod in (cli, simulate, clt, contractions):
        tracer.wrap(mod, "variance_h", "moments.variance")
    for mod in (cli, moments):
        tracer.wrap(mod, "bessel_constant", "moments.bessel_constant",
                    lambda args, kwargs, result: {"zeros_used": result.zeros_used})
    tracer.wrap(cli, "log_divergence_check", "moments.log_divergence")

    # contractions
    original_expand = contractions.expand_power
    expand_cache = contractions._expand_power_cached

    def expand_power(ell, p, d):
        with tracer.span("contractions.expand") as counts:
            misses = expand_cache.cache_info().misses
            result = original_expand(ell, p, d)
            if expand_cache.cache_info().misses > misses:
                counts["degree"] = p * ell  # computed, not served from the cache
        return result
    tracer.replace(contractions, "expand_power", expand_power)
    for mod in (cli, contractions):
        tracer.wrap(mod, "contraction_table", "contractions.table")
    tracer.wrap(cli, "berry_esseen_bound", "contractions.bound")
    tracer.wrap(clt, "berry_esseen_bound", "contractions.bound")
    tracer.wrap(clt, "poly_bound", "contractions.bound")

    # simulate
    for mod in (cli, clt):
        tracer.wrap(mod, "build_grid", "simulate.grid",
                    lambda args, kwargs, result: {"nodes": result.n_nodes})
    first_keys = set()

    def first_call(grid, ell):
        """1 for the first sampling call to finish per (grid, ell), else 0."""
        key = (id(grid), ell)
        with tracer._lock:
            first = key not in first_keys
            first_keys.add(key)
        return int(first)
    tracer.wrap(clt, "_sample_batch", "simulate.sample",
                lambda args, kwargs, result: {"first": first_call(args[0], args[1]),
                                              "values": result.size})
    tracer.wrap(cli, "sample_field", "simulate.sample",
                lambda args, kwargs, result: {"first": first_call(args[2], args[1]),
                                              "values": result.values.size})

    for attr in ("functional_h", "functional_Z", "functional_excursion"):
        tracer.wrap(cli, attr, "simulate.functional")
    for mod in (cli, clt):
        tracer.wrap(mod, "excursion_variance", "simulate.excursion_variance")

    # clt and parallel: each chunk passed to ordered_map becomes a span on
    # the thread that runs it
    tracer.wrap(cli, "clt_sweep", "clt.sweep")
    tracer.wrap(cli, "rate_fit", "clt.rate_fit")
    for attr in ("kolmogorov_distance", "wasserstein_distance"):
        tracer.wrap(clt, attr, "clt.distance")
    original_map = clt.ordered_map

    def ordered_map(fn, items, threads=1):
        def chunk(item):
            with tracer.span("clt.chunk"):
                return fn(item)
        with tracer.span("parallel.map") as counts:
            cpu0 = time.process_time_ns()
            result = original_map(chunk, items, threads)
            counts["cpu_ns"] = time.process_time_ns() - cpu0
        return result
    tracer.replace(clt, "ordered_map", ordered_map)

    # cli output
    for attr in ("write_csv", "write_manifest", "_write_sweep_outputs"):
        tracer.wrap(cli, attr, "cli.write")


# ------------------------------------------------------------------
# per-layer metrics from the span dumps of one traced pass
# ------------------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(docs) -> dict:
    """{metric: (value, unit)} summed over the commands' span dumps.

    A ``*_s`` metric of a span name is its self time unless said otherwise,
    so the metrics of one thread add up to its wall time.
    """
    by_name = {}
    for doc in docs:
        for s in doc["spans"]:
            by_name.setdefault(s["name"], []).append(s)

    def self_s(*names):
        return sum(s["self_ns"] for n in names for s in by_name.get(n, ())) / 1e9

    def dur_s(spans):
        return sum(s["end_ns"] - s["start_ns"] for s in spans) / 1e9

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name.get(name, ()))

    def cache_ratio(key):
        hits = sum(doc["caches"][key][0] for doc in docs)
        return _ratio(hits, hits + sum(doc["caches"][key][1] for doc in docs))

    samples = by_name.get("simulate.sample", ())
    maps = by_name.get("parallel.map", ())
    chunks = by_name.get("clt.chunk", ())
    map_wall = dur_s(maps)
    return {
        "specfun.gegenbauer_s": (self_s("specfun.gegenbauer"), "s"),
        "specfun.recurrence_steps": (total("specfun.gegenbauer", "steps"), "count"),
        "specfun.hermite_s": (self_s("specfun.hermite"), "s"),
        "specfun.hermite_values": (total("specfun.hermite", "values"), "count"),
        "specfun.bessel_s": (self_s("specfun.bessel"), "s"),
        "quadrature.panel_s": (self_s("quadrature.panel"), "s"),
        "quadrature.panel_points": (total("quadrature.panel", "points"), "count"),
        "quadrature.jacobi_s": (self_s("quadrature.jacobi"), "s"),
        "quadrature.jacobi_nodes": (total("quadrature.jacobi", "nodes"), "count"),
        "quadrature.jacobi_hit_ratio": (cache_ratio("jacobi_rule"), "ratio"),
        "moments.moment_s": (self_s("moments.moment"), "s"),
        "moments.moment_calls": (len(by_name.get("moments.moment", ())), "count"),
        "moments.moment_panels": (total("moments.moment", "panels"), "count"),
        "moments.moment_repeat_ratio": (_ratio(total("moments.moment", "repeat"),
                                               len(by_name.get("moments.moment", ()))), "ratio"),
        "moments.variance_s": (self_s("moments.variance", "moments.log_divergence"), "s"),
        "moments.bessel_constant_s": (self_s("moments.bessel_constant"), "s"),
        "moments.zeros_used": (total("moments.bessel_constant", "zeros_used"), "count"),
        "moments.ctx_hit_ratio": (cache_ratio("moments_ctx"), "ratio"),
        "contractions.expand_s": (self_s("contractions.expand"), "s"),
        "contractions.expand_degree": (total("contractions.expand", "degree"), "count"),
        "contractions.expand_hit_ratio": (cache_ratio("expand_power"), "ratio"),
        "contractions.table_s": (self_s("contractions.table"), "s"),
        "contractions.bound_s": (self_s("contractions.bound"), "s"),
        "simulate.grid_s": (self_s("simulate.grid"), "s"),
        "simulate.grid_nodes": (total("simulate.grid", "nodes"), "count"),
        "simulate.sample_s": (self_s("simulate.sample"), "s"),
        "simulate.field_values": (total("simulate.sample", "values"), "count"),
        # inclusive: the first call per (grid, ell) builds the tables or the eigh factor
        "simulate.sample_first_s": (dur_s([s for s in samples if s.get("first")]), "s"),
        "simulate.functional_s": (self_s("simulate.functional"), "s"),
        "simulate.excursion_variance_s": (self_s("simulate.excursion_variance"), "s"),
        "clt.sweep_s": (self_s("clt.sweep"), "s"),
        "clt.reduce_s": (self_s("clt.chunk"), "s"),
        "clt.chunks": (len(chunks), "count"),
        "clt.distance_s": (self_s("clt.distance"), "s"),
        "parallel.map_wall_s": (map_wall, "s"),
        "parallel.chunk_busy_s": (dur_s(chunks), "s"),
        "parallel.concurrency": (_ratio(dur_s(chunks), map_wall), "ratio"),
        "parallel.cpu_per_wall": (_ratio(total("parallel.map", "cpu_ns") / 1e9, map_wall), "ratio"),
        "cli.main_s": (self_s("cli.main"), "s"),
        "cli.write_s": (self_s("cli.write"), "s"),
    }
