"""Self-tests of the benchmark harness, run in a short smoke mode.

    python3 -m pytest perfbench -q

Each workload runs in-process for a fraction of a second (one op, or one
untraced plus one traced op), so the whole file takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]
SMOKE_SECONDS = 0.05

#: Entry points each workload must reach (the layer map in README.md).
REACHED = {
    "attack_grid": [
        "nn.Conv2D.forward", "nn.MaxPool2D.forward", "nn.Linear.forward", "nn.ReLU.forward",
        "attacks.corrupted_state_batch", "accelerator.accuracy_under_attacks",
        "thermal.GridThermalSolver.solve", "thermal.factorizations",
        "accelerator.stacked_forwards",
        *[f"attacks.sample_outcome.{kind}" for kind in workloads.GRID_KINDS],
    ],
    "mitigation_train": [
        "datasets.load_dataset", "mitigation.train_variant_grid_stacked",
        *[f"nn.{layer}.{method}" for layer in ("Conv2D", "MaxPool2D", "Linear", "ReLU", "GaussianNoise")
          for method in ("forward", "backward")],
    ],
    "sweep_cold": ["engine.campaign", "engine.experiment_run", "photonics.monte_carlo",
                   "engine.ResultCache.get", "engine.ResultCache.put"],
    "sweep_replay": ["engine.campaign", "engine.ResultCache.get"],
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """One untraced and one traced smoke run of every workload, seed 3."""
    out = tmp_path_factory.mktemp("perfbench")
    return {
        (name, trace): run.run_workload(name, 3, SMOKE_SECONDS, trace, out_dir=out)
        for name in NAMES
        for trace in (False, True)
    }


def test_workloads_match_benchmark_json():
    assert NAMES == list(workloads.WORKLOADS) == list(REACHED)


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(reports, name):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = reports[name, trace]["result"]
        assert result["correct"], reports[name, trace]["errors"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        emitted = {m: v["unit"] for m, v in result["metrics"].items()}
        assert emitted == expected
    for metric, value in reports[name, False]["result"]["metrics"].items():
        assert value["value"] > 0, metric


@pytest.mark.parametrize("name", NAMES)
def test_wrapped_entry_points_record_calls(reports, name):
    report = reports[name, True]
    for entry_point in REACHED[name]:
        calls = report["span_totals"].get(entry_point, {}).get("calls", 0)
        assert calls + report["counters"].get(entry_point, 0) >= 1, (name, entry_point)
    assert report["result"]["metrics"]["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_same_digest(reports, name):
    # Op 0 is untraced in both runs, so tracing must not change it either.
    assert reports[name, False]["digest"] == reports[name, True]["digest"]


@pytest.mark.parametrize("name", NAMES)
def test_times_are_scaled_by_the_workload_probe(reports, name):
    report = reports[name, False]
    expected = "interpreter" if name.startswith("sweep_") else "kernels"
    assert report["probe"]["name"] == expected
    assert all(op["scale"] > 0 for op in report["ops"])


def test_different_seed_gives_different_digest(reports, tmp_path):
    other = run.run_workload("sweep_cold", 4, SMOKE_SECONDS, False, out_dir=tmp_path)
    assert other["digest"] != reports["sweep_cold", False]["digest"]


def test_traced_op_matches_untraced_op(tmp_path):
    untraced = run.run_workload("sweep_cold", 5, 0.3, False, out_dir=tmp_path)
    traced = run.run_workload("sweep_cold", 5, 0.3, True, out_dir=tmp_path)
    assert untraced["ops"][1]["digest"] == traced["ops"][1]["digest"]


def test_tampered_cache_counts_as_failure(tmp_path, monkeypatch):
    class TamperedReplay(workloads.SweepReplay):
        def setup(self):
            super().setup()
            path = next(Path(self.cache.root).glob("signal_mc/*.json"))
            record = json.loads(path.read_text())
            record["payload"]["mean_abs_error"] += 1.0
            path.write_text(json.dumps(record))

    monkeypatch.setitem(workloads.WORKLOADS, "sweep_replay", TamperedReplay)
    report = run.run_workload("sweep_replay", 3, SMOKE_SECONDS, False, out_dir=tmp_path)
    assert not report["result"]["correct"]
    assert report["result"]["failed"] == report["result"]["attempted"]


def test_failed_run_counts_as_failure(tmp_path, monkeypatch):
    from repro.analysis import experiments

    descriptor = experiments.get_experiment("signal_mc")

    def broken(**params):
        if params["size"] == 16:
            raise RuntimeError("injected")
        return descriptor.runner(**params)

    monkeypatch.setattr(
        experiments, "get_experiment", lambda _: dataclasses.replace(descriptor, runner=broken)
    )
    report = run.run_workload("sweep_cold", 3, SMOKE_SECONDS, False, out_dir=tmp_path)
    assert not report["result"]["correct"]
    assert report["result"]["failed"] >= 1


def test_wrong_accuracy_counts_as_failure(tmp_path, monkeypatch):
    from repro.accelerator.inference import AttackedInferenceEngine

    reference = AttackedInferenceEngine.accuracy_under_attack
    monkeypatch.setattr(
        AttackedInferenceEngine, "accuracy_under_attack",
        lambda self, dataset, outcome: reference(self, dataset, outcome) + 1e-12,
    )
    report = run.run_workload("attack_grid", 3, SMOKE_SECONDS, False, out_dir=tmp_path)
    assert report["result"]["failed"] == report["result"]["attempted"] >= 1


def _cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def test_cli_prints_result_as_last_line():
    done = _cli(run.ROOT, "--workload", "sweep_replay", "--seed", "2", "--seconds", "0.2", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _cli(tmp_path, "--workload", "sweep_cold", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
