"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import LAYER_METRICS, TARGETS, Span, Tracer, layer_metrics, self_times

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cm():
    return run.import_countmatch(run.ROOT)


def _modules(cm):
    return {name: getattr(cm, name) for name in run.MODULES}


def test_tracer_restores_original_functions(cm):
    originals = {(mod, attr): getattr(getattr(cm, mod), attr) for mod, attr, _, _ in TARGETS}
    with pytest.raises(RuntimeError, match="inside"):
        with Tracer(_modules(cm)):
            for (mod, attr), fn in originals.items():
                assert getattr(getattr(cm, mod), attr) is not fn
            raise RuntimeError("inside")
    for (mod, attr), fn in originals.items():
        assert getattr(getattr(cm, mod), attr) is fn


def test_traced_match_counts_and_self_time(cm):
    gt = workloads.scene(cm, "uniform", 40, 128, 128, 5)
    pred, _ = workloads.predictions(cm, gt, 128, 128, 1, 8)
    tracer = Tracer(_modules(cm))
    with tracer:
        cm.matching.match_points(pred, gt)
    spans = tracer.take()
    names = [s.name for s in spans]
    assert names == ["matching.match", "geometry.radii", "matching.weights", "assignment.solve"]
    assert all(s.parent == 0 for s in spans[1:])
    out = layer_metrics(spans, grid_threshold=256)
    assert out["matching.dense_cells"] == out["assignment.cells"] == len(pred) * len(gt)
    assert out["assignment.solves"] == 1
    assert out["geometry.radii_queries"] == len(pred)
    assert out["geometry.grid_share"] == 0.0
    assert 0 < out["matching.edge_ratio"] <= 1
    assert out["matching.assemble_s"] == pytest.approx(
        spans[0].duration - sum(s.duration for s in spans[1:]))


def test_self_time_subtracts_only_direct_children():
    spans = [Span("a", -1, 0.0, 10.0), Span("b", 0, 1.0, 6.0), Span("c", 1, 2.0, 3.0),
             Span("d", 0, 7.0, 8.0)]
    assert self_times(spans) == [4.0, 4.0, 1.0, 1.0]


def test_benchmark_json_lists_the_printed_metrics():
    assert [m["name"] for m in CONFIG["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in CONFIG["per_layer"]] == list(LAYER_METRICS)
    assert [w["name"] for w in CONFIG["workloads"]] == list(workloads.WORKLOADS)


FIGURES = {"cli_eval": {"f1", "count_mae"}, "label_assign": {"f1", "count_mae"},
           "density_decode": {"count_mae"}, "conv_forward": set()}


def _smoke(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.4", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, check=False, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2][len("info "):])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    result, info = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    assert info["failed_ratio"] == {"value": 0.0, "unit": "ratio"}
    assert set(info["figures"]) == FIGURES[workload]
    assert all(v["unit"] for v in info["figures"].values())
    assert set(info["machine"]) == {"nproc", "cpu_model", "python", "numpy"}
    if trace:
        assert all(isinstance(v, int) for v in info["computed_counts"].values())


@pytest.mark.parametrize("workload", ["label_assign", "density_decode"])
def test_computed_counts_and_digests_repeat_between_runs(workload):
    (_, first), (_, second) = _smoke(workload, 1, seed=5), _smoke(workload, 1, seed=5)
    assert first["computed_counts"] == second["computed_counts"]
    assert first["digest"] == second["digest"]
    assert first["figures"] == second["figures"]


def test_same_seed_gives_same_outputs(cm):
    wl = workloads.LabelAssign(cm, smoke=True)
    first, _ = wl.setup(11, None)
    second, _ = wl.setup(11, None)
    other, _ = wl.setup(12, None)
    digest = lambda cases: workloads.digest(wl.fingerprint(c, wl.run(c)) for c in cases)
    assert digest(first) == digest(second) != digest(other)


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "label_assign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, check=False, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
