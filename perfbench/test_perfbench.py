"""The benchmark's own tests: declarations, input purity and smoke runs.

Run from the repository root with::

    python3 -m pytest perfbench -q

The smoke runs drive ``run.py`` once per workload with ``--trace 1`` and
the shortest run length (one repetition per phase), about two minutes
in all on a 2-core host.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, env=env,
    )


def _printed(lines, metric) -> bool:
    """A line names ``metric`` and ends in its unit, or says it is missing."""
    for line in lines:
        words = line.split()
        if words and words[0] == metric.name:
            return words[-1] == metric.unit or words[1] == "missing:"
    return False


def test_benchmark_json_declares_the_code_metrics():
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]]
    assert declared == [(m.name, m.unit, m.better) for m in metrics.END_TO_END]
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == [(m.name, m.unit, m.better) for m in metrics.PER_LAYER]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in BENCHMARK["end_to_end"]}


def test_every_per_layer_metric_maps_to_end_to_end_metrics_and_workloads():
    end_to_end = {m.name for m in metrics.END_TO_END}
    for metric in metrics.PER_LAYER:
        assert metric.moves and set(metric.moves) <= end_to_end, metric.name
        assert metric.on and set(metric.on) <= set(workloads.WORKLOADS), metric.name


def test_inputs_are_a_pure_function_of_the_seed():
    for name in ("raw64_pair_w2", "gated16_pair"):
        seeds = [workloads.session_seed(name, 5, i) for i in range(4)]
        assert seeds == [workloads.session_seed(name, 5, i) for i in range(4)]
        assert len(set(seeds)) == 4
        assert seeds != [workloads.session_seed(name, 6, i) for i in range(4)]

    def projection(seed):
        pool = workloads.ScenarioPool.build(seed)
        return [
            (r.request_id, r.client, r.kind, r.arrival_ms, r.deadline_ms,
             r.priority, r.cloud.data.tobytes())
            for r in workloads.serve_trace(pool, seed, 1)
        ]

    assert projection(5) == projection(5)
    assert projection(5) != projection(6)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_and_replays_identically(name):
    done = _run(["--workload", name, "--seed", "11", "--seconds", "1",
                 "--trace", "1"])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {
        key: value["unit"] for key, value in result["metrics"].items()
    } == {m.name: m.unit for m in metrics.PER_LAYER}
    for metric in metrics.END_TO_END + metrics.PER_LAYER:
        assert _printed(lines, metric), metric.name
    # The traced phase replays the untraced phase's inputs; detections
    # must be bit-identical, so the run counts no replay mismatches.
    assert "replayed items with differing detections: 0" in done.stdout
    report = json.loads((HERE / "out" / f"{name}-seed11-trace1.json").read_text())
    assert report["replay_mismatches"] == 0


def test_untraced_run_reports_every_end_to_end_metric():
    done = _run(["--workload", "gated16_pair", "--seed", "11", "--seconds", "1"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert {
        key: value["unit"] for key, value in result["metrics"].items()
    } == {m.name: m.unit for m in metrics.END_TO_END}
    assert all(value["value"] > 0 for value in result["metrics"].values())


def test_default_seed_checks_pinned_digests():
    done = _run(["--workload", "gated16_pair", "--seconds", "1"])
    assert done.returncode == 0, done.stderr
    assert "pinned digests checked: 16;" in done.stdout
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(["--workload", "gated16_pair", "--seconds", "1"], cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
