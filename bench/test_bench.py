"""Tests of the benchmark itself, at a tiny problem size.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from stablevol import filters  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run_cli(capsys, workload, trace, seed=5):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, size="tiny") == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(capsys, workload, trace):
    result = _run_cli(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_declared_metrics_match_the_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(workloads.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(workloads.PER_LAYER)
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


COUNTS = [name for name, unit in workloads.PER_LAYER.items() if unit == "count"] + [
    "filters.ess_frac_p50",
    "filters.unique_ancestor_frac",
    "filters.resample_rate",
]


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_repeats_accuracy_and_counts(workload):
    a = workloads.measure(workload, 9, 0, trace=False, size="tiny")
    b = workloads.measure(workload, 9, 0, trace=False, size="tiny")
    assert a.accuracy == b.accuracy
    assert a.metrics["rmse_mean"] == b.metrics["rmse_mean"]
    if workload == "lg_small_cloud":
        assert a.accuracy["kalman_gap"] is not None
    # A longer window runs more passes; counts must not depend on it.
    c = workloads.measure(workload, 9, 0, trace=True, size="tiny")
    d = workloads.measure(workload, 9, 0.3, trace=True, size="tiny")
    assert {k: c.metrics[k] for k in COUNTS} == {k: d.metrics[k] for k in COUNTS}


def test_layers_that_lg_small_cloud_never_calls_read_zero():
    report = workloads.measure("lg_small_cloud", 2, 0, trace=True, size="tiny")
    for name in ("stable.variates", "proposals.evals", "filters.resolve_epsilon_s"):
        assert report.metrics[name][0] == 0
    assert report.metrics["kernels.evals"][0] > 0


def test_missing_binding_is_reported_absent(monkeypatch):
    monkeypatch.delattr(filters, "resolve_epsilon")
    report = workloads.measure("apf_shifted", 2, 0, trace=True, size="tiny")
    assert report.correct
    assert report.metrics["trace.absent_bindings"][0] == 1
    assert "absent binding stablevol.filters.resolve_epsilon" in report.info


def test_self_time_excludes_children_per_thread():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()

    outer = tracer.wrap("outer", body)
    threads = [threading.Thread(target=outer) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    stats = tracer.collect()
    assert stats["calls"] == {"outer": 3, "inner": 3}
    assert 0.03 <= stats["self_s"]["outer"] < 0.06
    assert stats["self_s"]["inner"] >= 0.06
    assert stats["total_s"]["outer"] >= stats["self_s"]["outer"] + stats["self_s"]["inner"]


def test_fails_without_a_printed_result_when_the_package_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
