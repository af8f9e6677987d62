"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload gated16_pair --seed 0 --seconds 38 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures untraced for 40% of ``--seconds``, then traced for
the rest, and reports the per-layer metrics with the tracing overhead and
span coverage.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name with its unit, the per-layer metrics the
run could not measure with the reason, and the host and config stamp.
A JSON report (and, traced, every span) is written under
``perfbench/out/``.  ``--pin`` re-records the pinned detection digests
of the default seed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

#: One BLAS thread per process: the 2-worker workload then keeps at most
#: as many busy threads as a 2-core host has cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PINS = HERE / "pins.json"

#: The default seed; its outputs are pinned in ``pins.json``.
PIN_SEED = 0

#: Share of a traced run's seconds measured untraced, for the overhead.
UNTRACED_SHARE = 0.4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record the default seed's digests in pins.json")
    return parser.parse_args(argv)


def stamp(args) -> dict:
    """Host and config stamp printed with every result."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_text = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
    }


def _nbytes(obj) -> int:
    """Bytes of every numpy array reachable through containers/attributes."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(item) for item in obj)
    if isinstance(obj, dict):
        return sum(_nbytes(item) for item in obj.values())
    if hasattr(obj, "__dict__"):
        return _nbytes(vars(obj))
    return 0


def cache_context(runner) -> dict:
    """Memory held by the program's caches, read after the run."""
    from metrics import Missing
    from repro.detection.nn.sparse import RULEBOOK_CACHE

    entries = getattr(RULEBOOK_CACHE, "_entries", None)
    context = {
        "rulebook_kb": (
            _nbytes(list(entries.values())) / 1000.0 if entries is not None
            else Missing("RULEBOOK_CACHE keeps no entry table")
        ),
    }
    if runner.workload.kind == "session":
        tables = {
            id(agent.rig.lidar.pattern): agent.rig.lidar.ray_directions().nbytes
            for agent in runner.session.agents
        }
        context["scan_kb"] = sum(tables.values()) / 1000.0
    else:
        context["scan_kb"] = Missing("serve_mixed scans only during set-up")
        context["max_batch"] = runner.engine.config.max_batch_size
    return context


def _assign(spans, units, marks) -> list[list]:
    """Tag spans with the unit (frame or serve call) and dispatch they start in."""
    starts = sorted(
        (a, b, index) for index, unit in enumerate(units) for a, b in unit
    )
    windows = sorted((t - took, t, batch) for t, batch, took in marks)

    def find(intervals, t):
        return next((tag for lo, hi, tag in intervals if lo <= t <= hi), None)

    return [span + [find(starts, span[1]), find(windows, span[1])] for span in spans]


def _mismatches(first: list, second: list) -> int:
    """Frames (or requests) whose digests differ between two passes.

    Repetitions that raised (``None``) were already counted as failed.
    """
    count = 0
    for a, b in zip(first, second):
        if a is None or b is None:
            continue
        if isinstance(a, dict):  # one serve() call
            if a["log"] != b["log"]:
                count += len(a["requests"])
                continue
            a, b = a["requests"], b["requests"]
        count += sum(x != y for x, y in zip(a, b))
    return count


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))


def measure(args, runner, tracing) -> tuple[dict, dict | None]:
    """Measured samples; traced, also the untraced phase before them."""
    with tracing.FrameClock() as clock:
        if not args.trace:
            return runner.measure(args.seconds, clock), None
        first = runner.measure(args.seconds * UNTRACED_SHARE, clock)
        runner.index = 0  # the traced phase replays the same inputs first
        span_dir = OUT / f"spans-{os.getpid()}"
        with tracing.Tracer(span_dir) as tracer:
            samples = runner.measure(
                args.seconds * (1 - UNTRACED_SHARE), clock, tracer
            )
        span_dir.rmdir()
        return samples, first


def print_summary(args, workload, metrics, result: dict) -> None:
    """The human-readable lines: every metric by name with its unit."""
    e2e, layer = result["end_to_end"], result.get("per_layer")
    unit = "frames" if workload.kind == "session" else "served detect-class requests"
    count = result["samples"]
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for metric in metrics.END_TO_END:
        print(f"  {metric.name:<28} {e2e[metric.name]:>12.4f} {metric.unit}")
    print(f"  samples: {count} {unit}; {count - math.ceil(0.9 * count)} "
          f"beyond p90")
    print(f"  failed_share: {result['failed']}/{result['attempted']}; pinned "
          f"digests checked: {result['digests_checked']}; recall floor "
          f"{workload.recall_floor}: {'met' if result['recall_ok'] else 'NOT met'}")
    if workload.kind == "serve":
        print("  serving: the trace is generated in advance and scheduled on "
              "the virtual clock, so generator lateness does not apply; "
              "serve.virtual.* figures are virtual-clock, not wall time")
    if layer is None:
        return
    print(f"  replayed items with differing detections: {result['replay_mismatches']}")
    print(f"  tracing overhead: {layer['trace.overhead']:.4f}x the untraced "
          f"frame_or_request_ms_p50 on the same inputs (untraced phase "
          f"{result['untraced']['frame_or_request_ms_p50']:.4f} ms, traced "
          f"phase {e2e['frame_or_request_ms_p50']:.4f} ms); layer spans cover "
          f"{100 * layer['trace.coverage']:.1f}% of unit wall time")
    for metric in metrics.PER_LAYER:
        value = layer[metric.name]
        if isinstance(value, metrics.Missing):
            print(f"  {metric.name:<34} missing: {value}")
        else:
            print(f"  {metric.name:<34} {value:>12.4f} {metric.unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import metrics
        import tracing
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.pin and args.seed != PIN_SEED:
        print(f"perfbench: --pin records seed {PIN_SEED} only", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    session = workload.kind == "session"
    all_pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    check_pins = args.seed == PIN_SEED and not args.pin
    pins = all_pins.get(workload.name, {}) if check_pins else {}
    host = stamp(args)

    runner = workloads.make_runner(workload.name, args.seed, pins)
    runner.warm_up()
    samples, first = measure(args, runner, tracing)
    phases = [samples] if first is None else [first, samples]
    e2e = metrics.end_to_end(workload.kind, samples, runner.setups.setup_s)
    result = {
        "stamp": host,
        "attempted": sum(p["frames" if session else "requests"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "digests_checked": sum(p["digest_checked"] for p in phases),
        "samples": len(metrics.unit_times(workload.kind, samples)),
        "end_to_end": e2e,
        "recall_ok": e2e["recall"] >= workload.recall_floor,
        "digests": samples["digests"],
    }
    lost = []
    if first is not None:
        # The traced phase replayed the untraced phase's inputs: the same
        # inputs must give the same detections, traced or not.
        result["replay_mismatches"] = _mismatches(
            first["digests"], samples["digests"]
        )
        result["failed"] += result["replay_mismatches"]
        result["untraced"] = metrics.end_to_end(
            workload.kind, first, runner.setups.setup_s
        )
        lost = metrics.lost_worker_layers(samples["spans"], os.getpid())
        result["per_layer"] = metrics.per_layer(
            workload.kind, samples, os.getpid(),
            metrics.tracing_overhead(workload.kind, first, samples),
            cache_context(runner),
        )
    result["correct"] = (
        result["failed"] == 0 and result["recall_ok"]
        and (not check_pins or result["digests_checked"] > 0)
    )

    print_summary(args, workload, metrics, result)
    print("stamp " + json.dumps(host, sort_keys=True))
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    write_json(OUT / f"{tag}.json", result)
    if first is not None:
        write_json(OUT / f"{tag}-spans.json", {
            "fields": ["name", "start", "end", "parent", "measure", "pid",
                       "self", "unit", "batch"],
            "spans": _assign(
                samples["spans"], samples["units"], samples.get("batch_marks", [])
            ),
        })
    if args.pin:
        if result["failed"]:
            print("perfbench: refusing to pin a run with failures", file=sys.stderr)
            return 4
        all_pins[workload.name] = {
            str(i): d for i, d in enumerate(samples["digests"])
        }
        PINS.write_text(json.dumps(all_pins, indent=0, sort_keys=True) + "\n")
        print(f"pinned {len(samples['digests'])} repetitions of {workload.name}")
    if lost:
        print(f"perfbench: worker spans lost for {len(lost)} pool maps "
              f"({', '.join(lost[:3])}); worker layers are missing, not zero",
              file=sys.stderr)
        return 3

    if first is None:
        declared, values = metrics.END_TO_END, e2e
    else:
        declared, values = metrics.PER_LAYER, {
            name: 0.0 if isinstance(value, metrics.Missing) else value
            for name, value in result["per_layer"].items()
        }
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
