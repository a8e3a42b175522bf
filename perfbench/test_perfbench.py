"""Tests of the benchmark itself, at small shot counts."""

import json
import shutil
import subprocess
import sys
import types

from photon_transistor import presets

from perfbench import bench

ROOT = bench.ROOT


def _rep(tmp_path, name, seed=3, workers=1, traced=False):
    preset = presets.get_preset("fig2")
    return bench.run_rep(preset, 20, seed, workers, tmp_path / name, traced=traced)


def _package_bindings():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name.startswith("photon_transistor") and isinstance(module, types.ModuleType)
            for attr, value in vars(module).items()}


def test_serial_and_parallel_digests_identical(tmp_path):
    assert _rep(tmp_path, "serial").digest == _rep(tmp_path, "parallel", workers=2).digest


def test_seed_changes_digest(tmp_path):
    assert _rep(tmp_path, "a", seed=3).digest != _rep(tmp_path, "b", seed=4).digest


def test_traced_run_restores_every_binding(tmp_path):
    before = _package_bindings()
    untraced = _rep(tmp_path, "untraced", workers=2)
    traced = _rep(tmp_path, "traced", workers=2, traced=True)
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert traced.digest == untraced.digest
    tracer = traced.tracer
    shots = 20 * len(presets.get_preset("fig2").points)
    # per-shot calls made in forked workers are merged back into the parent
    assert tracer.calls("engine.run_shot") == shots
    assert tracer.pools_created == len(presets.get_preset("fig2").points)
    assert not list((tmp_path / "traced" / "workers").iterdir())
    metrics = bench.layer_metrics(traced, shots)
    assert set(metrics) | {"trace.overhead_s"} == set(bench.PER_LAYER)


def _run_module(*args, cwd):
    return subprocess.run([sys.executable, "-m", "perfbench", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_unknown_workload_is_a_usage_error():
    done = _run_module("--workload", "nope", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=ROOT)
    assert done.returncode == 2
    assert "invalid choice" in done.stderr
    assert done.stdout == ""


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run_module("--workload", "gain-saturation", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in bench.PER_LAYER.items()}


def test_check_outputs_fails_non_finite_and_missing_observables(tmp_path):
    summary = {"extinction_factor": {"value": float("nan"), "err_low": 0.0, "err_high": 0.0}}
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    problems, _ = bench.check_outputs(tmp_path, "fig3")
    assert problems[0] == "non-finite extinction_factor.value"
    assert "missing from summary" in problems[1]
