"""Per-layer view of despeckle: the functions the traced run wraps, and the
per-layer metrics computed from their spans.

Each target is rebound in the module whose code calls it, because every
despeckle module imports its collaborators by name (``from .gamma import
solve_looks``): rebinding ``despeckle.gamma.solve_looks`` alone would miss
the engine's calls.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np
from despeckle import cli, harness, metrics, nmfilter

from spans import CountingStream, covered_time


def _threads(args, kwargs, position):
    return int(kwargs.get("threads", args[position] if len(args) > position else 1))


def _image_call(span, fn, args, kwargs):
    span.attrs["px"] = args[0].height * args[0].width
    span.attrs["threads"] = _threads(args, kwargs, 2)
    return fn(*args, **kwargs)


def _solve_call(span, fn, args, kwargs):
    span.attrs["elems"] = int(np.size(args[0]))
    return fn(*args, **kwargs)


def _speckle_call(span, fn, args, kwargs):
    # harness.corrupt calls unit_speckle(looks, shape, stream) positionally
    looks, shape, stream = args
    counting = CountingStream(stream)
    out = fn(looks, shape, counting, **kwargs)
    span.attrs["variates"] = int(out.size)
    span.attrs["candidates"] = counting.candidates
    return out


def _report_call(span, fn, args, kwargs):
    report = fn(*args, **kwargs)
    span.attrs["na"] = sum(getattr(report, name) is None for name in harness.CSV_COLUMNS[5:])
    return report


def _protocol_call(span, fn, args, kwargs):
    span.attrs["threads"] = _threads(args, kwargs, 2)
    return fn(*args, **kwargs)


def _read_call(span, fn, args, kwargs):
    span.attrs["bytes"] = os.path.getsize(args[0])
    return fn(*args, **kwargs)


def _write_call(span, fn, args, kwargs):
    # write_raster(img, path, fmt) and write_csv(rows, path, comments)
    out = fn(*args, **kwargs)
    span.attrs["bytes"] = os.path.getsize(args[1])
    return out


def targets():
    """(module, attribute, span name, around) for every wrapped function."""
    return [
        (cli, "read_raster", "raster.read", _read_call),
        (cli, "write_raster", "raster.write", _write_call),
        (cli, "filter_image", "nmfilter.filter_image", _image_call),
        (cli, "lee_filter", "lee.lee_filter", _image_call),
        (cli, "run_protocol", "harness.run_protocol", _protocol_call),
        (cli, "write_csv", "harness.write_csv", _write_call),
        (harness, "render_phantom", "phantom.render_phantom", None),
        (harness, "corrupt", "harness.corrupt", None),
        (harness, "unit_speckle", "gamma.unit_speckle", _speckle_call),
        (harness, "filter_image", "nmfilter.filter_image", _image_call),
        (harness, "lee_filter", "lee.lee_filter", _image_call),
        (harness, "compute_report", "metrics.compute_report", _report_call),
        (nmfilter, "solve_looks", "gamma.solve_looks", _solve_call),
        (nmfilter, "hellinger_stat_array", "divergence.stat", None),
        (nmfilter, "kl_stat_array", "divergence.stat", None),
        (nmfilter, "renyi_stat_array", "divergence.stat", None),
        (metrics, "q_index", "metrics.q_index", None),
        (metrics, "laplacian_correlation", "metrics.laplacian_correlation", None),
        (metrics, "error_metrics", "metrics.error_metrics", None),
    ]


# name -> unit, in report order; BENCHMARK.json lists the same names and units
PER_LAYER = {
    "gamma.solve_looks.calls": "count",
    "gamma.solve_looks.elems": "count",
    "gamma.solve_looks.busy_s": "s",
    "gamma.solve_looks.share": "ratio",
    "nmfilter.filter_image.calls": "count",
    "nmfilter.filter_image.busy_s": "s",
    "nmfilter.self_s": "s",
    "nmfilter.px_per_s": "px/s",
    "nmfilter.parallel_eff": "ratio",
    "nmfilter.accept_rate": "ratio",
    "divergence.stat.calls": "count",
    "divergence.stat.busy_s": "s",
    "lee.lee_filter.calls": "count",
    "lee.lee_filter.busy_s": "s",
    "lee.px_per_s": "px/s",
    "metrics.compute_report.calls": "count",
    "metrics.compute_report.busy_s": "s",
    "metrics.compute_report.share": "ratio",
    "metrics.q_index.busy_s": "s",
    "metrics.laplacian_correlation.busy_s": "s",
    "metrics.error_metrics.busy_s": "s",
    "metrics.na_cells": "count",
    "gamma.unit_speckle.calls": "count",
    "gamma.unit_speckle.busy_s": "s",
    "gamma.variates": "count",
    "gamma.accept_ratio": "ratio",
    "harness.run_protocol.busy_s": "s",
    "harness.corrupt.busy_s": "s",
    "harness.write_csv.busy_s": "s",
    "harness.write_csv.bytes": "B",
    "harness.parallel_eff": "ratio",
    "raster.read_s": "s",
    "raster.write_s": "s",
    "raster.bytes": "B",
    "phantom.render_phantom.busy_s": "s",
    "setup.phantom.render_phantom.busy_s": "s",
    "setup.gamma.unit_speckle.busy_s": "s",
    "cli.main.busy_s": "s",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def per_layer(spans, traced_units, accept, overhead_s, overhead_pct):
    """Per-layer metrics: sums over the traced units divided by their count.

    The exceptions are ratios and rates, which divide two sums, and the
    ``setup.`` metrics, which cover the one traced set-up.
    """
    n = len(traced_units)
    units = set(traced_units)
    by_name = defaultdict(list)
    children = defaultdict(list)
    setup = defaultdict(list)
    for s in spans:
        if s.unit in units:
            by_name[s.name].append(s)
            children[s.parent].append(s)
        elif s.unit == "setup":
            setup[s.name].append(s)

    def calls(name):
        return len(by_name[name]) / n

    def busy(name, group=by_name, count=n):
        return sum(s.dur for s in group[name]) / count

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name]) / n

    def ratio(num, den):
        return num / den if den else 0.0

    def rate(name, key):
        return ratio(sum(s.attrs.get(key, 0) for s in by_name[name]), busy(name, count=1))

    def self_time(name):
        return sum(
            s.dur - covered_time(s.start, s.end, [(c.start, c.end) for c in children[s.id]])
            for s in by_name[name]
        ) / n

    def child_busy(owners, name=None):
        return sum(c.dur for s in owners for c in children[s.id] if name in (None, c.name))

    def parallel_eff(name):
        pooled = [s for s in by_name[name] if s.attrs["threads"] > 1]
        return ratio(child_busy(pooled), sum(s.dur * s.attrs["threads"] for s in pooled))

    serial_filters = [s for s in by_name["nmfilter.filter_image"] if s.attrs["threads"] == 1]
    protocols = by_name["harness.run_protocol"]

    values = {
        "gamma.solve_looks.calls": calls("gamma.solve_looks"),
        "gamma.solve_looks.elems": attr("gamma.solve_looks", "elems"),
        "gamma.solve_looks.busy_s": busy("gamma.solve_looks"),
        "gamma.solve_looks.share": ratio(child_busy(serial_filters, "gamma.solve_looks"),
                                         sum(s.dur for s in serial_filters)),
        "nmfilter.filter_image.calls": calls("nmfilter.filter_image"),
        "nmfilter.filter_image.busy_s": busy("nmfilter.filter_image"),
        "nmfilter.self_s": self_time("nmfilter.filter_image"),
        "nmfilter.px_per_s": rate("nmfilter.filter_image", "px"),
        "nmfilter.parallel_eff": parallel_eff("nmfilter.filter_image"),
        "nmfilter.accept_rate": ratio(*accept),
        "divergence.stat.calls": calls("divergence.stat"),
        "divergence.stat.busy_s": busy("divergence.stat"),
        "lee.lee_filter.calls": calls("lee.lee_filter"),
        "lee.lee_filter.busy_s": busy("lee.lee_filter"),
        "lee.px_per_s": rate("lee.lee_filter", "px"),
        "metrics.compute_report.calls": calls("metrics.compute_report"),
        "metrics.compute_report.busy_s": busy("metrics.compute_report"),
        "metrics.compute_report.share": ratio(child_busy(protocols, "metrics.compute_report"),
                                              child_busy(protocols)),
        "metrics.q_index.busy_s": busy("metrics.q_index"),
        "metrics.laplacian_correlation.busy_s": busy("metrics.laplacian_correlation"),
        "metrics.error_metrics.busy_s": busy("metrics.error_metrics"),
        "metrics.na_cells": attr("metrics.compute_report", "na"),
        "gamma.unit_speckle.calls": calls("gamma.unit_speckle"),
        "gamma.unit_speckle.busy_s": busy("gamma.unit_speckle"),
        "gamma.variates": attr("gamma.unit_speckle", "variates"),
        "gamma.accept_ratio": ratio(attr("gamma.unit_speckle", "variates"),
                                    attr("gamma.unit_speckle", "candidates")),
        "harness.run_protocol.busy_s": busy("harness.run_protocol"),
        "harness.corrupt.busy_s": busy("harness.corrupt"),
        "harness.write_csv.busy_s": busy("harness.write_csv"),
        "harness.write_csv.bytes": attr("harness.write_csv", "bytes"),
        "harness.parallel_eff": parallel_eff("harness.run_protocol"),
        "raster.read_s": busy("raster.read"),
        "raster.write_s": busy("raster.write"),
        "raster.bytes": attr("raster.read", "bytes") + attr("raster.write", "bytes"),
        "phantom.render_phantom.busy_s": busy("phantom.render_phantom"),
        "setup.phantom.render_phantom.busy_s": busy("phantom.render_phantom", setup, 1),
        "setup.gamma.unit_speckle.busy_s": busy("gamma.unit_speckle", setup, 1),
        "cli.main.busy_s": busy("cli.main"),
        "cli.self_s": self_time("cli.main"),
        "trace.spans": sum(len(v) for v in by_name.values()) / n,
        "trace.overhead_s": overhead_s,
        "trace.overhead_pct": overhead_pct,
    }
    assert list(values) == list(PER_LAYER)
    return values
