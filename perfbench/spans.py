"""Span tracing for the traced benchmark run.

The tracer replaces public functions of the package with timing wrappers at
the names their callers look them up by (a module attribute, or a name one
module imported from another). Each call records a span: name, start, end
and the span that was open when it began. Spans stay in memory and are
written out once, when the run ends. Nothing in the package changes; the
wrappers are removed again after the traced operation.

A wrap point that no longer exists raises ``WrapPointMissing``, so a renamed
function fails the traced run instead of reading as zero work.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable

import numpy as np

Counter = Callable[[tuple, object], dict]

# (span name, module, attribute, counter). Several wrap points may share a
# span name when they are reported as one layer figure.
WRAP_POINTS: tuple[tuple[str, str, str, Counter | None], ...] = (
    # privagg, at the names harness.simulate imported
    ("keys.keygen", "mobagg.harness.simulate", "keygen", None),
    ("groups.assign_groups", "mobagg.harness.simulate", "assign_groups", None),
    ("masking.blinding_factors", "mobagg.harness.simulate", "blinding_factors", None),
    ("masking.encrypt", "mobagg.harness.simulate", "encrypt", None),
    ("masking.aggregate", "mobagg.harness.simulate", "aggregate", None),
    ("masking.recovery_share", "mobagg.harness.simulate", "recovery_share", None),
    ("masking.recover_aggregate", "mobagg.harness.simulate", "recover_aggregate", None),
    ("wire.encode", "mobagg.harness.simulate", "encode_announcement",
     lambda a, r: {"frames": 1, "bytes": len(r), "announcements": 1}),
    ("wire.encode", "mobagg.harness.simulate", "encode_vector_message",
     lambda a, r: {"frames": 1, "bytes": len(r), "vector_bytes": len(r)}),
    ("wire.encode", "mobagg.harness.simulate", "encode_recovery_request",
     lambda a, r: {"frames": 1, "bytes": len(r)}),
    ("wire.decode", "mobagg.harness.simulate", "decode_vector_message", None),
    # privagg internals, at the names masking looks up
    ("keys.shared_point", "mobagg.privagg.masking", "shared_point", None),
    ("masking.mask_stream", "mobagg.privagg.masking", "mask_stream",
     lambda a, r: {"words": len(r)}),
    # sketch, looked up through the module by harness.simulate
    ("sketch.encode_vector", "mobagg.sketch", "encode_vector",
     lambda a, r: {"keys": int(np.count_nonzero(a[0]))}),
    ("sketch.estimate_vector", "mobagg.sketch", "estimate_vector", None),
    # harness: the benchmark calls simulate_round and collect through the
    # modules; collect reaches the simulator through the pipeline's names
    ("simulate.simulate_round", "mobagg.harness.simulate", "simulate_round", None),
    ("simulate.simulate_round", "mobagg.harness.pipeline", "simulate_round", None),
    ("simulate.setup_users", "mobagg.harness.pipeline", "setup_users", None),
    ("simulate.synthesize_users", "mobagg.harness.pipeline", "synthesize_users", None),
    ("pipeline.collect_aggregate_series", "mobagg.harness.pipeline",
     "collect_aggregate_series", None),
    ("pipeline.analyze_aggregates", "mobagg.harness.pipeline", "analyze_aggregates", None),
    # ingest, looked up through the module by the benchmark
    ("ingest.parse_trips", "mobagg.ingest", "parse_trips",
     lambda a, r: {"rows": len(r.records), "errors": len(r.errors)}),
    ("ingest.station_series", "mobagg.ingest", "station_series", None),
    # analytics, at the names harness.pipeline imported
    ("timeseries.profile", "mobagg.harness.pipeline", "seasonal_profile", None),
    ("timeseries.profile", "mobagg.harness.pipeline", "deseasonalize", None),
    ("timeseries.adf", "mobagg.harness.pipeline", "adf_stationary", None),
    ("arma.select_order", "mobagg.harness.pipeline", "select_order", None),
    ("rolling.rolling_scan", "mobagg.harness.pipeline", "rolling_scan",
     lambda a, r: {"slots": len(r.epoch_indices), "fallback_slots": len(r.fallback_epochs)}),
    ("anomaly.detect", "mobagg.harness.pipeline", "detect_anomalies",
     lambda a, r: {"events": len(r)}),
    ("anomaly.rank", "mobagg.harness.pipeline", "rank_anomalies", None),
    ("correlate.correlated_rois", "mobagg.harness.pipeline", "correlated_rois", None),
    ("enhanced.enhanced_forecast", "mobagg.harness.pipeline", "enhanced_forecast", None),
    ("reports.write", "mobagg.harness.pipeline", "write_forecast_report", None),
    ("reports.write", "mobagg.harness.pipeline", "write_anomaly_report", None),
    ("reports.write", "mobagg.harness.pipeline", "write_enhancement_report", None),
    # analytics internals: fit_arma is split by the module that calls it
    ("arma.fit_arma.select", "mobagg.forecast.arma", "fit_arma", None),
    ("arma.fit_arma.scan", "mobagg.forecast.rolling", "fit_arma", None),
    ("rolling.rolling_scan", "mobagg.forecast.rolling", "rolling_scan",
     lambda a, r: {"slots": len(r.epoch_indices), "fallback_slots": len(r.fallback_epochs)}),
    ("correlate.spearman", "mobagg.forecast.correlate", "spearman", None),
    ("var.fit_var", "mobagg.forecast.enhanced", "fit_var", None),
)

DELIVER_COUNTER: Counter = lambda a, r: {"bytes": len(r)}


class WrapPointMissing(RuntimeError):
    """A function the tracer must wrap is gone from the package."""


class Tracer:
    """Records spans in flat arrays; one tracer serves one traced operation."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.counters: dict[str, float] = defaultdict(float)
        self._open = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, counter: Counter | None) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter
        counters = self.counters
        open_spans = self._open

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(open_spans[-1])
            self.end.append(0.0)
            self.failed.append(0)
            open_spans.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end[idx] = clock()
                self.failed[idx] = 1
                open_spans.pop()
                raise
            self.end[idx] = clock()
            open_spans.pop()
            if counter is not None:
                for key, value in counter(args, result).items():
                    counters[f"{name}.{key}"] += value
            return result

        return traced

    def patch(self, target: object, attr: str, name: str, counter: Counter | None = None) -> None:
        fn = getattr(target, attr, None)
        if not callable(fn):
            where = getattr(target, "__name__", type(target).__name__)
            raise WrapPointMissing(f"wrap point {where}.{attr} for span {name!r} does not exist")
        self._undo.append((target, attr, target.__dict__.get(attr)))
        setattr(target, attr, self._wrap(name, fn, counter))

    def install(self, transport: object | None = None) -> None:
        """Wrap every point in WRAP_POINTS, plus ``transport.deliver`` if given."""
        for name, module, attr, counter in WRAP_POINTS:
            self.patch(importlib.import_module(module), attr, name, counter)
        if transport is not None:
            self.patch(transport, "deliver", "transport.deliver", DELIVER_COUNTER)

    def restore(self) -> None:
        for target, attr, original in reversed(self._undo):
            if original is None:
                delattr(target, attr)       # an instance method wrapped on the instance
            else:
                setattr(target, attr, original)
        self._undo.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds, self seconds, failed calls."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        failed = np.frombuffer(self.failed, dtype=np.int8)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        busy = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=self_time, minlength=k)
        fails = np.bincount(ids, weights=failed, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(busy[i]),
                   "self_s": float(own[i]), "failed": int(fails[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> Path:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            failed=np.frombuffer(self.failed, dtype=np.int8),
        )
        return path


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer figures of one traced operation, as (value, unit)."""
    totals = tracer.totals()
    c = tracer.counters
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0}

    def t(span: str, field: str) -> float:
        return totals.get(span, zero)[field]

    groups = c["wire.encode.announcements"]
    m: dict[str, tuple[float, str]] = {}
    for span, fields in (
        ("keys.keygen", ("calls", "s")),
        ("keys.shared_point", ("calls", "s")),
        ("groups.assign_groups", ("s",)),
        ("masking.mask_stream", ("calls", "s")),
        ("masking.blinding_factors", ("self_s",)),
        ("masking.encrypt", ("s",)),
        ("masking.aggregate", ("s",)),
        ("masking.recovery_share", ("calls", "self_s")),
        ("masking.recover_aggregate", ("s",)),
        ("wire.encode", ("s",)),
        ("wire.decode", ("s",)),
        ("transport.deliver", ("calls", "s")),
        ("sketch.encode_vector", ("calls", "s")),
        ("sketch.estimate_vector", ("s",)),
        ("simulate.simulate_round", ("self_s",)),
        ("simulate.synthesize_users", ("s",)),
        ("ingest.parse_trips", ("s",)),
        ("ingest.station_series", ("s",)),
        ("timeseries.profile", ("s",)),
        ("timeseries.adf", ("s",)),
        ("arma.select_order", ("calls", "s")),
        ("arma.fit_arma.select", ("calls", "s", "failed")),
        ("arma.fit_arma.scan", ("calls", "s", "failed")),
        ("rolling.rolling_scan", ("calls", "self_s")),
        ("anomaly.detect", ("s",)),
        ("anomaly.rank", ("s",)),
        ("correlate.correlated_rois", ("s",)),
        ("correlate.spearman", ("calls",)),
        ("enhanced.enhanced_forecast", ("self_s",)),
        ("var.fit_var", ("calls", "s")),
        ("reports.write", ("s",)),
        ("pipeline.analyze_aggregates", ("self_s",)),
    ):
        for field in fields:
            unit = "s" if field in ("s", "self_s") else "count"
            m[f"{span}.{field}"] = (float(t(span, field)), unit)
    for key, unit in (
        ("masking.mask_stream.words", "count"),
        ("wire.encode.frames", "count"),
        ("wire.encode.bytes", "B"),
        ("transport.deliver.bytes", "B"),
        ("sketch.encode_vector.keys", "count"),
        ("ingest.parse_trips.rows", "count"),
        ("ingest.parse_trips.errors", "count"),
        ("rolling.rolling_scan.slots", "count"),
        ("anomaly.detect.events", "count"),
    ):
        m[key] = (float(c[key]), unit)
    # metric names that leave out the span's function
    m["wire.frames"] = m.pop("wire.encode.frames")
    m["wire.bytes"] = m.pop("wire.encode.bytes")
    m["anomaly.events"] = m.pop("anomaly.detect.events")
    m["rolling.fallback_slots"] = (float(c["rolling.rolling_scan.fallback_slots"]), "count")
    m["masking.recovery_groups"] = (
        t("masking.recover_aggregate", "calls") / groups if groups else 0.0, "ratio")
    return m
