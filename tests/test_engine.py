"""Tests for the campaign engine (specs, cache, executors, campaign, CLI)."""

from __future__ import annotations

import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import (
    Campaign,
    ProcessPoolRunExecutor,
    ResultCache,
    RunRecord,
    RunSpec,
    SerialExecutor,
    SweepSpec,
    execute_run,
    make_executor,
    run_all,
    spec_fingerprint,
)
from repro.engine import cache as cache_module
from repro.engine.cli import main as cli_main
from repro.engine.cli import parse_axis, parse_value
from repro.utils.validation import ValidationError


class TestRunSpec:
    def test_fingerprint_is_order_independent(self):
        a = RunSpec("ablation_tuning", params={"x": 1, "y": 2})
        b = RunSpec("ablation_tuning", params={"y": 2, "x": 1})
        assert spec_fingerprint(a, "1.0") == spec_fingerprint(b, "1.0")

    def test_fingerprint_changes_with_version_params_and_seed(self):
        spec = RunSpec("ablation_tuning", params={"x": 1})
        base = spec_fingerprint(spec, "1.0")
        assert spec_fingerprint(spec, "2.0") != base
        assert spec_fingerprint(RunSpec("ablation_tuning", params={"x": 2}), "1.0") != base
        assert spec_fingerprint(RunSpec("ablation_tuning", {"x": 1}, seed=1), "1.0") != base

    def test_rejects_seed_in_params_and_unserializable_params(self):
        with pytest.raises(ValidationError):
            RunSpec("fig7_point", params={"seed": 3})
        with pytest.raises(ValidationError):
            RunSpec("fig7_point", params={"fn": object()})
        with pytest.raises(ValidationError):
            RunSpec(("fig7_point",))  # type: ignore[arg-type]


class TestSweepSpec:
    def test_cartesian_expansion_order_and_count(self):
        sweep = SweepSpec(
            experiment_id="fig7_point",
            grid={"kind": ["actuation", "hotspot"], "fraction": [0.01, 0.05]},
            seeds=(0, 1),
        )
        specs = sweep.expand()
        assert sweep.num_points == len(specs) == 8
        assert [s.seed for s in specs[:2]] == [0, 1]
        assert specs[0].params["kind"] == "actuation"
        assert specs[-1].params == specs[-2].params  # seeds replicate points
        # Expansion resolves defaults, so every point carries the full params.
        assert specs[0].params["block"] == "both"
        assert "seed" not in specs[0].params

    def test_zip_axes_advance_together(self):
        sweep = SweepSpec(
            experiment_id="fig8_variant",
            zipped={"variant": ["Original", "l2+n3"], "num_placements": [1, 2]},
        )
        specs = sweep.expand()
        assert len(specs) == 2
        assert specs[0].params["variant"] == "Original"
        assert specs[0].params["num_placements"] == 1
        assert specs[1].params["variant"] == "l2+n3"
        assert specs[1].params["num_placements"] == 2

    def test_validation_failures(self):
        with pytest.raises(ValidationError):
            SweepSpec("fig7_point", grid={"kind": []})
        with pytest.raises(ValidationError):
            SweepSpec("fig7_point", zipped={"a": [1, 2], "b": [1]})
        with pytest.raises(ValidationError):
            SweepSpec("fig7_point", base={"kind": "hotspot"}, grid={"kind": ["hotspot"]})
        with pytest.raises(ValidationError):
            SweepSpec("fig7_point", seeds=())
        with pytest.raises(KeyError):
            SweepSpec("fig7_point", grid={"not_a_param": [1]}).expand()
        with pytest.raises(KeyError):
            SweepSpec("no_such_experiment", grid={"x": [1]}).expand()
        with pytest.raises(ValidationError):
            SweepSpec("fig7_point", grid={"seed": [0, 1]}).expand()

    def test_expand_without_validation_keeps_raw_params(self):
        specs = SweepSpec("anything", grid={"x": [1]}).expand(validate=False)
        assert specs[0].params == {"x": 1}


class TestResultCache:
    def _record(self, spec: RunSpec, cache: ResultCache) -> RunRecord:
        return RunRecord(
            fingerprint=cache.fingerprint(spec),
            spec=spec,
            payload={"value": 42},
            duration_s=0.5,
            started_at="2026-07-29T00:00:00+00:00",
            provenance={"version": cache.version, "executor": "serial", "pid": 1},
        )

    def test_put_get_roundtrip_marks_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("ablation_tuning", params={"shifts_nm": [0.2]})
        assert cache.get(spec) is None
        cache.put(self._record(spec, cache))
        hit = cache.get(spec)
        assert hit is not None and hit.cached
        assert dict(hit.payload) == {"value": 42}
        assert hit.spec is spec  # an identical stored spec is not rebuilt
        assert "cached" not in hit.to_dict()
        assert "cached" not in json.loads(cache.path_for(spec).read_text())

    def test_differing_stored_spec_is_returned_as_stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("ablation_tuning", params={"shifts_nm": [0.2]}, seed=1)
        path = cache.put(self._record(spec, cache))
        document = json.loads(path.read_text())
        document["spec"]["params"] = {"shifts_nm": [0.5]}
        path.write_text(json.dumps(document))
        hit = cache.get(spec)
        assert hit is not None and hit.cached
        assert hit.spec == RunSpec("ablation_tuning", params={"shifts_nm": [0.5]}, seed=1)

    def test_directory_at_entry_path_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("ablation_tuning")
        cache.path_for(spec).mkdir(parents=True)
        assert cache.get(spec) is None
        assert cache.path_for(spec).is_dir()
        assert cache.quarantined_count() == 0

    def test_unreadable_entry_is_a_miss_left_in_place(self, tmp_path, monkeypatch):
        # Monkeypatched rather than chmod-ed: root reads through mode 000.
        cache = ResultCache(tmp_path)
        spec = RunSpec("ablation_tuning")
        path = cache.put(self._record(spec, cache))

        def denied(file, *args, **kwargs):
            if str(file) == str(path):
                raise PermissionError(13, "Permission denied", str(file))
            return builtins.open(file, *args, **kwargs)

        monkeypatch.setattr(cache_module, "open", denied, raising=False)
        assert cache.get(spec) is None
        assert path.is_file()
        assert cache.quarantined_count() == 0
        monkeypatch.undo()
        assert cache.get(spec) is not None

    def test_version_change_invalidates(self, tmp_path):
        spec = RunSpec("ablation_tuning")
        cache_v1 = ResultCache(tmp_path, version="1.0.0")
        cache_v1.put(self._record(spec, cache_v1))
        assert cache_v1.get(spec) is not None
        cache_v2 = ResultCache(tmp_path, version="2.0.0")
        assert cache_v2.get(spec) is None  # addressed under a new fingerprint

    def test_invalidate_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("ablation_tuning")
        cache.put(self._record(spec, cache))
        assert cache.invalidate(spec) is True
        assert cache.invalidate(spec) is False
        cache.put(self._record(spec, cache))
        assert cache.clear() == 1
        assert cache.get(spec) is None

    def test_corrupt_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("ablation_tuning")
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(spec) is None
        assert not path.exists()
        assert cache.quarantined_count() == 1
        assert cache.get(spec) is None
        assert cache.quarantined_count() == 1

    def test_refuses_to_cache_failures(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("ablation_tuning")
        record = RunRecord(
            fingerprint=cache.fingerprint(spec), spec=spec, status="error", error="boom"
        )
        with pytest.raises(ValueError):
            cache.put(record)


class TestExecutors:
    def test_execute_run_captures_failures(self):
        record = execute_run(RunSpec("no_such_experiment"))
        assert not record.ok
        assert "unknown experiment" in (record.error or "")
        assert record.payload == {}

    def test_make_executor_knob(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor("serial"), SerialExecutor)
        pool = make_executor(3)
        assert isinstance(pool, ProcessPoolRunExecutor)
        assert pool.max_workers == 3
        with pytest.raises(ValidationError):
            make_executor(-2)

    def test_run_all_preserves_spec_order(self):
        specs = [
            RunSpec("ablation_tuning", params={"shifts_nm": [shift]})
            for shift in (0.2, 0.5, 1.0)
        ]
        records = run_all(SerialExecutor(), specs)
        assert [r.spec for r in records] == specs
        assert all(r.ok for r in records)

    def test_serial_and_pool_records_are_byte_identical(self):
        """Guards the per-worker RNG plumbing: same seeds => same payloads."""
        sweep = SweepSpec(
            experiment_id="fig7_point",
            grid={"kind": ["actuation", "hotspot"], "placement": [0, 1]},
            base={"fraction": 0.10},
            seeds=(0,),
        )
        specs = sweep.expand()
        serial = run_all(SerialExecutor(), specs)
        pooled = run_all(ProcessPoolRunExecutor(max_workers=2), specs)
        assert [r.canonical_payload() for r in serial] == [
            r.canonical_payload() for r in pooled
        ]
        assert all(r.ok for r in serial)
        assert {r.provenance["executor"] for r in pooled} == {"process-pool"}


class TestCampaign:
    def test_registry_roundtrip_through_campaign(self, tmp_path):
        """Registry experiments run through Campaign and hit the cache on repeat."""
        specs = [
            RunSpec("table1"),
            RunSpec("ablation_tuning", params={"shifts_nm": [0.2, 2.0]}),
            RunSpec("fig6", params={"attacked_banks": [650, 1260]}),
        ]
        first = Campaign(specs, cache=tmp_path).run()
        assert first.executed == 3 and first.cache_hits == 0 and first.failures == 0
        assert first.records[0].payload["rows"]
        assert first.records[2].payload["peak_rise_k"] > 0

        second = Campaign(specs, cache=tmp_path).run()
        assert second.executed == 0 and second.cache_hits == 3
        assert [dict(r.payload) for r in second.records] == [
            dict(r.payload) for r in first.records
        ]

    def test_progress_events_and_failure_accounting(self, tmp_path):
        events = []
        specs = [RunSpec("table1"), RunSpec("no_such_experiment")]
        result = Campaign(
            specs, cache=tmp_path, progress=events.append
        ).run()
        assert result.failures == 1
        assert len(events) == 2
        assert events[-1].total == 2
        assert any("ERROR" in event.message for event in events)
        # Failed runs are not cached: re-running retries them.
        again = Campaign(specs, cache=tmp_path).run()
        assert again.cache_hits == 1 and again.executed == 1

    def test_campaign_without_cache(self):
        result = Campaign([RunSpec("table1")]).run()
        assert result.executed == 1 and result.cache_hits == 0


class TestCli:
    def test_parse_value_and_axis(self):
        assert parse_value("0.05") == 0.05
        assert parse_value("true") is True
        assert parse_value("hotspot") == "hotspot"
        assert parse_axis("kind=actuation,hotspot") == ("kind", ["actuation", "hotspot"])
        assert parse_axis("fraction=0.01,0.1") == ("fraction", [0.01, 0.1])
        assert parse_axis("model=cnn_mnist") == ("model", ["cnn_mnist"])

    def test_cli_list_smoke(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7_point" in out and "Table I" in out

    def test_cli_run_and_cache(self, tmp_path, capsys):
        argv = ["run", "ablation_tuning", "--json", "--cache-dir", str(tmp_path)]
        assert cli_main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "total_power_w" in payload
        assert cli_main(argv) == 0  # second run served from cache
        assert json.loads(capsys.readouterr().out) == payload

    def test_cli_run_unknown_experiment_fails(self, tmp_path, capsys):
        assert cli_main(["run", "fig42", "--cache-dir", str(tmp_path)]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_cli_sweep_and_report(self, tmp_path, capsys):
        argv = [
            "sweep", "ablation_tuning",
            "--grid", "shifts_nm=[0.2],[2.0]",
            "--serial", "--json", "--cache-dir", str(tmp_path),
        ]
        assert cli_main(argv) == 0
        output = json.loads(capsys.readouterr().out)
        assert output["summary"]["points"] == 2
        assert output["summary"]["executed"] == 2
        assert cli_main(argv) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["cache_hits"] == 2
        assert cli_main(["report", "--cache-dir", str(tmp_path)]) == 0
        report_out = capsys.readouterr().out
        assert "ablation_tuning" in report_out
        assert "min_s" in report_out and "mean_s" in report_out and "max_s" in report_out

    def test_cli_report_surfaces_run_timing(self, tmp_path, capsys):
        argv = [
            "sweep", "ablation_tuning",
            "--grid", "shifts_nm=[0.2],[1.0],[2.0]",
            "--serial", "--quiet", "--cache-dir", str(tmp_path),
        ]
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert cli_main(["report", "--json", "--cache-dir", str(tmp_path)]) == 0
        stats = json.loads(capsys.readouterr().out)["experiments"]["ablation_tuning"]
        assert stats["records"] == 3
        assert 0.0 <= stats["min_duration_s"] <= stats["mean_duration_s"]
        assert stats["mean_duration_s"] <= stats["max_duration_s"]
        assert stats["total_duration_s"] == pytest.approx(
            3 * stats["mean_duration_s"]
        )

    def test_cli_bench_smoke(self, tmp_path, capsys):
        """Tiny bench run: JSON record written with speedups and agreement."""
        output = tmp_path / "bench.json"
        argv = [
            "bench", "--matvec-size", "6", "--mc-size", "6", "--trials", "8",
            "--repeats", "1", "--output", str(output), "--json",
        ]
        assert cli_main(argv) == 0
        results = json.loads(capsys.readouterr().out)
        assert results["equivalent_within_tol"] is True
        assert results["matvec"]["speedup_array_vs_seed"] > 0
        assert results["monte_carlo"]["speedup_array_vs_seed"] > 0
        on_disk = json.loads(output.read_text())
        assert on_disk["benchmark"] == "signal_core"

    def test_python_dash_m_repro_entrypoint(self):
        """``python -m repro list`` works as a real subprocess."""
        repo_src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{repo_src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fig7_point" in proc.stdout

    def test_cli_run_unknown_param_prints_an_error_line(self, tmp_path):
        """``repro run --set <unknown>=...`` fails like ``repro sweep`` does."""
        repo_src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{repo_src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "ablation_tuning",
             "--set", "bogus_param=1", "--cache-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: unknown parameter(s) ['bogus_param']")
