"""Metric definitions and their reduction from workload samples and spans.

:data:`END_TO_END` and :data:`PER_LAYER` are the benchmark's declared
metrics; ``BENCHMARK.json`` lists the same names, units and directions.
Every per-layer metric names the end-to-end metrics it should move and
the workloads it should move them on (``moves`` / ``on``); where a
workload never calls the layer, the traced run reports the metric as
missing with the reason, and the result line carries 0 for it.
"""

from __future__ import annotations

import bisect
import math
import resource
import statistics
from dataclasses import dataclass
from fractions import Fraction

from tracing import covered, wall

SESSIONS = ("raw64_pair_w2", "gated16_pair")
SERVE = ("serve_mixed",)
ALL = SESSIONS + SERVE

LATENCY = ("frame_or_request_ms_p50", "frame_or_request_ms_p90")
THROUGHPUT = ("frames_or_requests_per_s",)


@dataclass(frozen=True)
class Metric:
    """A declared metric; ``moves``/``on`` map a per-layer metric to the
    end-to-end metrics and workloads it should move."""

    name: str
    unit: str
    better: str
    moves: tuple[str, ...] = ()
    on: tuple[str, ...] = ()


END_TO_END = (
    Metric("frame_or_request_ms_p50", "ms", "lower"),
    Metric("frame_or_request_ms_p90", "ms", "lower"),
    Metric("frames_or_requests_per_s", "1/s", "higher"),
    Metric("recall", "fraction", "higher"),
    Metric("setup_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
)


def _layer(name, unit, better, moves, on):
    return Metric(name, unit, better, tuple(moves), tuple(on))


_TIME = LATENCY + THROUGHPUT
PER_LAYER = (
    _layer("detection.features.self_ms", "ms", "lower", _TIME, ALL),
    _layer("detection.rpn.self_ms", "ms", "lower", _TIME,
           ("gated16_pair", "serve_mixed")),
    _layer("detection.refine.self_ms", "ms", "lower", _TIME, ALL),
    _layer("detection.calibrate.self_ms", "ms", "lower", _TIME, ALL),
    _layer("detection.nms.self_ms", "ms", "lower", _TIME, ALL),
    _layer("detection.detect.self_ms", "ms", "lower", _TIME, ALL),
    _layer("detection.rpn.calls_per_frame", "count", "lower", _TIME,
           ("gated16_pair",)),
    _layer("detection.refine.yield", "fraction", "higher", _TIME,
           ("raw64_pair_w2",)),
    _layer("sensors.scan.self_ms", "ms", "lower", _TIME,
           ("raw64_pair_w2",)),
    _layer("sensors.scan.points", "count", "lower", _TIME, ("raw64_pair_w2",)),
    _layer("pointcloud.roi.self_ms", "ms", "lower", _TIME,
           ("raw64_pair_w2",)),
    _layer("pointcloud.codec.compress_ms", "ms", "lower", _TIME,
           ("raw64_pair_w2",)),
    _layer("pointcloud.codec.decompress_ms", "ms", "lower", _TIME,
           ("raw64_pair_w2",)),
    _layer("pointcloud.voxelize.self_ms", "ms", "lower", _TIME, ALL),
    _layer("fusion.package.serialize_ms", "ms", "lower", _TIME, SESSIONS),
    _layer("fusion.package.deserialize_ms", "ms", "lower", _TIME, SESSIONS),
    _layer("fusion.merge.self_ms", "ms", "lower", _TIME,
           ("raw64_pair_w2", "serve_mixed")),
    _layer("fusion.feature.build_ms", "ms", "lower", _TIME, ("gated16_pair",)),
    _layer("fusion.feature.fuse_ms", "ms", "lower", _TIME, ("gated16_pair",)),
    _layer("fusion.feature.request_ms", "ms", "lower", _TIME, ("gated16_pair",)),
    _layer("fusion.accept_ratio", "fraction", "higher", ("recall",), SESSIONS),
    _layer("network.transmit.self_ms", "ms", "lower", _TIME, SESSIONS),
    _layer("network.frames_per_message", "count", "lower", _TIME, SESSIONS),
    _layer("network.delivery_ratio", "fraction", "higher", ("recall",),
           SESSIONS),
    _layer("network.air_bytes", "bytes", "lower", _TIME, SESSIONS),
    _layer("runtime.map.wall_ms", "ms", "lower", _TIME, ("raw64_pair_w2",)),
    _layer("runtime.map.frame_share", "fraction", "lower", _TIME,
           ("raw64_pair_w2",)),
    _layer("runtime.map.result_kb", "KB", "lower", _TIME, ("raw64_pair_w2",)),
    _layer("serve.dispatch.detect_ms", "ms", "lower", _TIME, SERVE),
    _layer("serve.dispatch.detect_ms_p50", "ms", "lower", _TIME, SERVE),
    _layer("serve.dispatch.detect_ms_p90", "ms", "lower", _TIME, SERVE),
    _layer("serve.dispatch.roi_ms", "ms", "lower", THROUGHPUT, SERVE),
    _layer("serve.batch.occupancy", "fraction", "higher", _TIME, SERVE),
    _layer("serve.queue.max_depth", "count", "lower", THROUGHPUT, SERVE),
    _layer("serve.virtual.late_share", "fraction", "lower", THROUGHPUT, SERVE),
    _layer("serve.virtual.p99_ms", "ms", "lower", THROUGHPUT, SERVE),
    _layer("serve.virtual.model_over_wall", "ratio", "lower", LATENCY, SERVE),
    _layer("cache.rulebook_kb", "KB", "lower", ("peak_rss_mb", "setup_s"),
           SESSIONS),
    _layer("cache.scan_kb", "KB", "lower", ("peak_rss_mb", "setup_s"),
           SESSIONS),
    _layer("trace.overhead", "ratio", "lower", LATENCY, ALL),
    _layer("trace.coverage", "fraction", "higher", LATENCY, ALL),
)


class Missing(str):
    """A per-layer metric the run could not measure; the text says why."""


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (the serving reports' definition)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * Fraction(str(fraction))))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(kind: str, samples: dict, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics of one measured phase."""
    times = unit_times(kind, samples)
    if kind == "session":
        done = samples["frames"] - samples["failed"]
    else:
        done = samples["completed"]
    visible = samples["visible"]
    return {
        "frame_or_request_ms_p50": statistics.median(times),
        "frame_or_request_ms_p90": percentile(times, 0.9),
        "frames_or_requests_per_s": done / samples["wall_s"],
        "recall": samples["matched"] / visible if visible else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


# -- per-layer reduction -----------------------------------------------------
class _SpanStats:
    """Per-name call counts, self/total time and measure sums."""

    def __init__(self, spans: list[list]) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.measure: dict[str, float] = {}
        for name, start, end, _parent, measure, _pid, own in spans:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.total_s[name] = self.total_s.get(name, 0.0) + (end - start)
            self.measure[name] = self.measure.get(name, 0.0) + measure

    def mean_self_ms(self, name: str):
        calls = self.calls.get(name, 0)
        if not calls:
            return Missing(f"no {name} calls on this workload")
        return 1000.0 * self.self_s[name] / calls

    def mean_measure(self, name: str):
        calls = self.calls.get(name, 0)
        if not calls:
            return Missing(f"no {name} calls on this workload")
        return self.measure[name] / calls


_SELF_MS = {
    "detection.features.self_ms": "detection.features",
    "detection.rpn.self_ms": "detection.rpn",
    "detection.refine.self_ms": "detection.refine",
    "detection.calibrate.self_ms": "detection.calibrate",
    "detection.nms.self_ms": "detection.nms",
    "detection.detect.self_ms": "detection.detect",
    "sensors.scan.self_ms": "sensors.scan",
    "pointcloud.roi.self_ms": "pointcloud.roi",
    "pointcloud.codec.compress_ms": "pointcloud.codec.compress",
    "pointcloud.codec.decompress_ms": "pointcloud.codec.decompress",
    "pointcloud.voxelize.self_ms": "pointcloud.voxelize",
    "fusion.package.serialize_ms": "fusion.package.serialize",
    "fusion.package.deserialize_ms": "fusion.package.deserialize",
    "fusion.merge.self_ms": "fusion.merge",
    "fusion.feature.build_ms": "fusion.feature.build",
    "fusion.feature.fuse_ms": "fusion.feature.fuse",
    "fusion.feature.request_ms": "fusion.feature.request",
    "network.transmit.self_ms": "network.transmit",
}

_NOT_SERVE = Missing("serve_mixed has no session frames or radio channel")
_SERVE_ONLY = Missing("serving layer: serve_mixed only")


def lost_worker_layers(spans: list[list], parent_pid: int) -> list[str]:
    """Pool maps in the parent that no other span starts inside.

    A ``runtime.map`` call runs its tasks in workers (or, on an inline
    pool, in the parent), so some span must start inside it; a map
    without one means the workers' span files were lost.
    """
    starts = sorted(span[1] for span in spans)
    lost = []
    for span in spans:
        if span[0] == "runtime.map" and span[5] == parent_pid:
            after = bisect.bisect_right(starts, span[1])
            if after == len(starts) or starts[after] > span[2]:
                lost.append(f"runtime.map@{span[1]:.6f}")
    return lost


def coverage(spans: list[list], parent_pid: int, units: list[list]) -> float:
    """Share of unit wall time covered by top-level parent-side spans."""
    top = [(s[1], s[2]) for s in spans if s[3] == -1 and s[5] == parent_pid]
    hit = sum(covered(top, a, b) for unit in units for a, b in unit)
    return hit / sum(wall(unit) for unit in units)


def unit_times(kind: str, samples: dict) -> list[float]:
    """Wall ms of every frame, or of every served detect-class request."""
    return samples["frame_ms" if kind == "session" else "request_ms"]


def tracing_overhead(kind: str, untraced: dict, traced: dict) -> float:
    """Traced over untraced median unit time, on the same repetitions.

    The traced phase replays the untraced phase's repetitions (same
    inputs) first, so the ratio compares like with like.
    """
    reps = set(untraced["rep"])
    same = [
        t for t, rep in zip(unit_times(kind, traced), traced["rep"]) if rep in reps
    ]
    return statistics.median(same) / statistics.median(unit_times(kind, untraced))


def per_layer(
    kind: str,
    samples: dict,
    parent_pid: int,
    overhead: float,
    context: dict,
) -> dict[str, float | Missing]:
    """Every :data:`PER_LAYER` metric of one traced phase.

    ``context`` carries what the spans cannot: the cache sizes read
    after the run and, for serving, the engine's batch cap.
    """
    spans = samples["spans"]
    stats = _SpanStats(spans)
    out: dict[str, float | Missing] = {}
    for name, span in _SELF_MS.items():
        out[name] = stats.mean_self_ms(span)
    session = kind == "session"
    frames = samples["frames"] if session else 0

    if session:
        out["detection.rpn.calls_per_frame"] = (
            stats.calls.get("detection.rpn", 0) / frames
        )
    else:
        out["detection.rpn.calls_per_frame"] = Missing(
            "serve_mixed has no frames: one RPN call per detect dispatch"
        )
    refined = stats.measure.get("detection.refine", 0.0)
    out["detection.refine.yield"] = (
        stats.measure.get("detection.detect", 0.0) / refined
        if refined else Missing("no proposals were refined")
    )
    out["sensors.scan.points"] = stats.mean_measure("sensors.scan")

    if session:
        merged = stats.measure.get("fusion.merge", 0.0) + stats.measure.get(
            "fusion.feature.fuse", 0.0
        )
        received = samples["received_packages"]
        out["fusion.accept_ratio"] = (
            merged / received if received else Missing("nothing was delivered")
        )
        out["network.frames_per_message"] = stats.mean_measure("network.fragment")
        out["network.delivery_ratio"] = (
            samples["delivered_messages"] / samples["messages"]
        )
        out["network.air_bytes"] = samples["air_bytes"] / frames
    else:
        for name in ("fusion.accept_ratio", "network.frames_per_message",
                     "network.delivery_ratio", "network.air_bytes"):
            out[name] = _NOT_SERVE

    if stats.calls.get("runtime.map"):
        out["runtime.map.wall_ms"] = (
            1000.0 * stats.total_s["runtime.map"] / stats.calls["runtime.map"]
        )
        out["runtime.map.frame_share"] = stats.total_s["runtime.map"] / sum(
            wall(unit) for unit in samples["units"]
        )
        out["runtime.map.result_kb"] = stats.mean_measure("runtime.map")
    else:
        for name in ("runtime.map.wall_ms", "runtime.map.frame_share",
                     "runtime.map.result_kb"):
            out[name] = Missing("no worker pool: the workload runs in-process")

    if session:
        for metric in PER_LAYER:
            if metric.name.startswith("serve."):
                out[metric.name] = _SERVE_ONLY
    else:
        sizes = samples["batch_sizes"]
        dispatch = samples["dispatch_ms"]
        out["serve.dispatch.detect_ms"] = statistics.mean(dispatch)
        out["serve.dispatch.detect_ms_p50"] = statistics.median(dispatch)
        out["serve.dispatch.detect_ms_p90"] = percentile(dispatch, 0.9)
        out["serve.dispatch.roi_ms"] = (
            statistics.mean(samples["roi_ms"]) if samples["roi_ms"]
            else Missing("no ROI dispatches")
        )
        out["serve.batch.occupancy"] = statistics.mean(sizes) / context["max_batch"]
        out["serve.queue.max_depth"] = float(samples["max_depth"])
        out["serve.virtual.late_share"] = samples["late"] / samples["completed"]
        out["serve.virtual.p99_ms"] = percentile(
            samples["virtual_latency_ms"], 0.99
        )
        out["serve.virtual.model_over_wall"] = statistics.mean(
            samples["model_over_wall"]
        )

    out["cache.rulebook_kb"] = context["rulebook_kb"]
    out["cache.scan_kb"] = context["scan_kb"]
    out["trace.overhead"] = overhead
    out["trace.coverage"] = coverage(spans, parent_pid, samples["units"])
    return out
