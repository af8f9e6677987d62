"""Outside-in span tracing of the ``repro`` layers.

The benchmark never edits the program: it wraps public functions of the
``repro`` modules at the name their caller looks up (``spod`` binds
``rotated_nms`` locally, so the wrapper goes on ``repro.detection.spod``),
records one span per call and restores every original on exit.  The
program's own ``PROFILER`` stays disabled throughout.

A span is ``[name, start, end, parent, measure]``: times come from
``time.perf_counter`` (the system-wide monotonic clock on Linux, so
spans from forked workers line up with the parent's), ``parent`` is the
index of the enclosing span in the same process (-1 at top level) and
``measure`` is an optional per-call count (points scanned, proposals
refined, ...).  Workers forked while tracing is installed inherit the
wrappers; their spans are written to one file per worker pid when the
worker exits and merged back by :meth:`Tracer.collect_worker_spans`.

:class:`FrameClock` is the one hook the untraced run keeps: it timestamps
the first ``CommRecorder.note_frame`` call of every session step, the
parent-side call each execution path makes once per step.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import multiprocessing.util
import os
import pickle
import time
from pathlib import Path


def _result_len(args, result) -> float:
    return float(len(result))


def _packages(args, result) -> float:
    """Packages passed to ``merge_packages(cloud, packages, pose)``."""
    return float(len(args[1]))


def _scan_points(args, result) -> float:
    return float(len(result.cloud))


def _detections(args, result) -> float:
    """Detections an entry point returned (``detect_batch`` nests lists)."""
    if result and isinstance(result[0], list):
        return float(sum(len(r) for r in result))
    return float(len(result))


def _pickled_kb(args, result) -> float:
    return len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)) / 1000.0


#: (module, attribute path, span name, per-call measure) for every wrapped
#: public function.  The module is the one whose namespace the caller
#: looks the name up in; class attributes are wrapped on the class.
WRAPS = (
    ("repro.sensors.rig", "SensorRig.observe", "sensors.observe", None),
    ("repro.sensors.lidar", "LidarModel.scan", "sensors.scan",
     _scan_points),
    ("repro.fusion.agent", "CooperAgent.build_package",
     "fusion.package.build", None),
    ("repro.fusion.agent", "extract_roi", "pointcloud.roi", None),
    ("repro.fusion.package", "ExchangePackage.serialize",
     "fusion.package.serialize", None),
    ("repro.fusion.package", "ExchangePackage.deserialize",
     "fusion.package.deserialize", None),
    ("repro.fusion.feature", "FeaturePackage.serialize",
     "fusion.package.serialize", None),
    ("repro.fusion.feature", "FeaturePackage.deserialize",
     "fusion.package.deserialize", None),
    ("repro.fusion.feature", "ConfidenceRequest.serialize",
     "fusion.package.serialize", None),
    ("repro.fusion.feature", "ConfidenceRequest.deserialize",
     "fusion.package.deserialize", None),
    ("repro.fusion.package", "compress_cloud", "pointcloud.codec.compress",
     None),
    ("repro.fusion.package", "decompress_cloud",
     "pointcloud.codec.decompress", None),
    ("repro.network.dsrc", "DsrcChannel.transmit", "network.transmit", None),
    ("repro.network.messages", "MessageFramer.fragment", "network.fragment",
     _result_len),
    ("repro.network.messages", "MessageFramer.reassemble",
     "network.reassemble", None),
    ("repro.fusion.cooper", "Cooper.fuse", "fusion.fuse", None),
    ("repro.fusion.cooper", "merge_packages", "fusion.merge", _packages),
    ("repro.serve.engine", "merge_packages", "fusion.merge", _packages),
    ("repro.serve.engine", "answer_request", "network.demand.answer", None),
    ("repro.fusion.agent", "build_request", "fusion.feature.request", None),
    ("repro.fusion.agent", "build_feature_package", "fusion.feature.build",
     None),
    ("repro.fusion.agent", "fuse_feature_packages", "fusion.feature.fuse",
     lambda args, result: float(len(args[3]))),
    ("repro.fusion.agent", "feature_bev", "fusion.feature.bev", None),
    ("repro.fusion.agent", "decode_evidence", "fusion.feature.evidence",
     None),
    ("repro.fusion.agent", "rpn_confidence", "fusion.feature.confidence",
     None),
    ("repro.fusion.agent", "decode_fused", "detection.detect", _detections),
    ("repro.detection.spod", "SPOD.detect_batch", "detection.detect",
     _detections),
    ("repro.detection.spod", "SPOD.detect_all", "detection.detect",
     _detections),
    ("repro.detection.spod", "SPOD.forward_features", "detection.features",
     None),
    ("repro.detection.spod", "voxelize", "pointcloud.voxelize", None),
    ("repro.detection.spod", "SPOD.rpn_apply", "detection.rpn", None),
    ("repro.detection.refine", "BoxRefiner.refine_batch", "detection.refine",
     _result_len),
    ("repro.detection.calibrate", "ConfidenceCalibrator.evidence",
     "detection.calibrate", None),
    ("repro.detection.spod", "rotated_nms", "detection.nms", None),
    ("repro.fusion.feature", "rotated_nms", "detection.nms", None),
    ("repro.runtime.executor", "WorkerPool.map", "runtime.map", _pickled_kb),
)


def _resolve(module_name: str, path: str):
    """``(owner, attribute)`` of a dotted attribute path in a module."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(function)``, keeping descriptors."""
        raw = inspect.getattr_static(owner, attr)
        func = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapped = make(func)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


class FrameClock:
    """Timestamps of the first ``note_frame`` call of every session step."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, int]] = []
        self._patches = _Patches()

    def __enter__(self) -> "FrameClock":
        from repro.network.comm import CommRecorder

        marks = self.marks

        def make(original):
            @functools.wraps(original)
            def note_frame(recorder, step):
                if step >= recorder.frames:
                    marks.append((time.perf_counter(), step))
                return original(recorder, step)

            return note_frame

        self._patches.replace(CommRecorder, "note_frame", make)
        return self

    def __exit__(self, *exc_info) -> None:
        self._patches.restore()

    def frames(self, start: float, end: float, count: int) -> list[list[tuple]]:
        """The ``count`` frames of one ``run()`` entered at ``start``.

        Each frame is a list of ``(start, end)`` intervals.  Frame ``k``
        runs from the mark of step ``k`` to the mark of step ``k + 1``;
        the time before the first mark and after the last one (pool
        start-up and shutdown included) forms the last frame, so frames
        are whole steps and together tile ``run()``.  Raises
        ``ValueError`` when the marks do not match ``count``.
        """
        marks = [t for t, _step in self.marks]
        if len(marks) != count:
            raise ValueError(f"expected {count} frame marks, got {len(marks)}")
        frames = [[(a, b)] for a, b in zip(marks, marks[1:])]
        frames.append([(start, marks[0]), (marks[-1], end)])
        return frames


class Tracer:
    """Span recorder around the :data:`WRAPS` functions.

    Use as a context manager; spans recorded in this process are in
    :attr:`spans`, spans shipped by forked workers come from
    :meth:`collect_worker_spans`.
    """

    def __init__(self, span_dir: Path) -> None:
        self.span_dir = Path(span_dir)
        self.spans: list[list] = []
        self.batch_marks: list[tuple[float, int, float]] = []
        self._stack: list[int] = []
        self._patches = _Patches()
        self._installed = False

    # -- installation ------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self.span_dir.mkdir(parents=True, exist_ok=True)
        for module_name, path, name, measure in WRAPS:
            owner, attr = _resolve(module_name, path)
            self._patches.replace(
                owner, attr, functools.partial(self._wrap, name, measure)
            )
        from repro.serve.engine import BatchRecord

        self._patches.replace(BatchRecord, "__init__", self._mark_batch)
        # Runs in every multiprocessing child after its finalizer registry
        # is reset, so the exit flush registered there survives.
        multiprocessing.util.register_after_fork(self, Tracer._become_worker)
        self._installed = True
        return self

    def __exit__(self, *exc_info) -> None:
        self._installed = False
        self._patches.restore()

    def _wrap(self, name: str, measure, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if measure is not None:
                record[4] = measure(args, result)
            return result

        return traced

    def _mark_batch(self, init):
        """``BatchRecord.__init__`` wrapper: one mark per serving dispatch."""
        marks = self.batch_marks

        @functools.wraps(init)
        def marked(record, *args, **kwargs):
            init(record, *args, **kwargs)
            marks.append(
                (time.perf_counter(), record.batch_id, record.wall_seconds)
            )

        return marked

    # -- worker processes --------------------------------------------------
    def _become_worker(self) -> None:
        """Fork hook: start an empty span list and flush it at exit."""
        if not self._installed:
            return
        self.spans = []
        self._stack = []
        self.batch_marks = []
        multiprocessing.util.Finalize(None, self._flush, exitpriority=100)

    def _flush(self) -> None:
        path = self.span_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.spans))

    def collect_worker_spans(self) -> list[list]:
        """Read and delete every span file workers wrote so far."""
        spans: list[list] = []
        for path in sorted(self.span_dir.glob("spans-*.json")):
            pid = int(path.stem.split("-")[1])
            spans.extend(_finish(json.loads(path.read_text()), pid))
            path.unlink()
        return spans

    def take(self) -> list[list]:
        """This process's spans so far, finished (see :func:`_finish`)."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans = _finish(self.spans, os.getpid())
        self.spans = []
        return spans


def _finish(records: list[list], pid: int) -> list[list]:
    """Append pid and self time to one process's span records.

    Self time is a span's duration minus its children's.  Children run
    inside their parent on one thread, so their durations never overlap.
    The result records are ``[name, start, end, parent, measure, pid,
    self]``.
    """
    own = [record[2] - record[1] for record in records]
    for record in records:
        if record[3] >= 0:
            own[record[3]] -= record[2] - record[1]
    return [record + [pid, own[i]] for i, record in enumerate(records)]


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def wall(unit: list[tuple[float, float]]) -> float:
    """Wall time of a unit of work given as a list of intervals."""
    return sum(end - start for start, end in unit)
