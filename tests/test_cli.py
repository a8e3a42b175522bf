import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from photon_transistor import cli
from photon_transistor.config import default_config, load_config, write_config
from photon_transistor.presets import custom_preset, get_preset
from photon_transistor.runner import (SchemaError, compare_report, point_configs,
                                      reference_for, run_preset)


def read_bytes(path):
    return path.read_bytes()


class TestRunPresetArtifacts:
    def test_byte_identical_reruns(self, tmp_path):
        preset = get_preset("g2")
        a = run_preset(preset, n_shots=300, seed=4, out_dir=tmp_path / "a")
        b = run_preset(preset, n_shots=300, seed=4, out_dir=tmp_path / "b")
        for name in ("manifest.json", "sweep.csv", "summary.json"):
            assert read_bytes(tmp_path / "a" / name) == read_bytes(tmp_path / "b" / name)
        assert a.summary == b.summary

    def test_different_seed_changes_output(self, tmp_path):
        preset = get_preset("g2")
        run_preset(preset, n_shots=300, seed=4, out_dir=tmp_path / "a")
        run_preset(preset, n_shots=300, seed=5, out_dir=tmp_path / "c")
        assert (read_bytes(tmp_path / "a" / "sweep.csv")
                != read_bytes(tmp_path / "c" / "sweep.csv"))

    def test_parallel_identical_to_serial(self, tmp_path):
        preset = get_preset("g2")
        run_preset(preset, n_shots=400, seed=9, out_dir=tmp_path / "s", workers=1)
        run_preset(preset, n_shots=400, seed=9, out_dir=tmp_path / "p", workers=2)
        for name in ("manifest.json", "sweep.csv", "summary.json"):
            assert read_bytes(tmp_path / "s" / name) == read_bytes(tmp_path / "p" / name)

    def test_fig2_csv_schema(self, tmp_path):
        preset = get_preset("fig2")
        run_preset(preset, n_shots=60, seed=1, out_dir=tmp_path)
        header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
        assert header == "n_g_stored,detuning_mhz,mean_transmission,sem"

    def test_fig3_histogram_artifact(self, tmp_path):
        preset = get_preset("fig3")
        run_preset(preset, n_shots=800, seed=2, out_dir=tmp_path)
        lines = (tmp_path / "histogram.csv").read_text().splitlines()
        assert lines[0] == "detuning_mhz,detected_count,occurrence_rate"
        assert len(lines) > 10

    def test_manifest_contains_resolved_config(self, tmp_path):
        preset = get_preset("g2")
        run_preset(preset, n_shots=50, seed=3, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["preset"] == "g2"
        assert manifest["version"]
        point = manifest["points"][0]
        assert point["config"]["n_shots"] == 50
        assert point["config"]["detection"]["gate_dark_rate"] == 9300.0

    def test_summary_schema(self, tmp_path):
        preset = get_preset("g2")
        result = run_preset(preset, n_shots=200, seed=6, out_dir=tmp_path)
        summary = json.loads(result.summary_path.read_text())
        for entry in summary.values():
            assert set(entry) == {"value", "err_low", "err_high"}


class TestCompareReport:
    def test_pass_and_fail_lines(self):
        summary = {"m_s0_intracavity": {"value": 2.82, "err_low": 0, "err_high": 0},
                   "extinction_factor": {"value": 11.4, "err_low": 0, "err_high": 0}}
        report = compare_report(summary, {"m_s0_intracavity": (2.7, 2.9),
                                          "extinction_factor": (10.0, 12.0)})
        assert report.passed
        assert all(line.startswith("PASS") for line in report.lines)

    def test_out_of_band_fails_with_name(self):
        summary = {"g2_corrected": {"value": 0.9, "err_low": 0, "err_high": 0}}
        report = compare_report(summary, {"g2_corrected": (0.11, 0.25)})
        assert not report.passed
        assert report.lines[0].startswith("FAIL g2_corrected")

    def test_schema_mismatch(self):
        with pytest.raises(SchemaError, match="missing"):
            compare_report({}, {"g2_corrected": (0.1, 0.2)})

    def test_reference_tables_exist(self):
        for name in ("fig2", "fig3", "fig4ab", "fig4e", "g2"):
            assert reference_for(name)
        with pytest.raises(SchemaError):
            reference_for("fig9")


class TestCliEntrypoints:
    def test_run_with_config_file(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        write_config(default_config(), cfg_path)
        rc = cli.main(["run", "--config", str(cfg_path), "--shots", "50",
                       "--seed", "1", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("flags, shots, seed", [([], 7, 99),
                                                    (["--shots", "5", "--seed", "3"], 5, 3)])
    def test_run_with_config_file_takes_its_run_section(self, tmp_path, flags, shots, seed):
        # the file's n_shots and master_seed, unless --shots or --seed is given
        config = replace(default_config(), n_shots=7, master_seed=99)
        write_config(config, tmp_path / "run.cfg")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(tmp_path / "run.cfg"), *flags,
                         "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["n_shots_per_point"], manifest["seed"]) == (shots, seed)
        [expected] = point_configs(custom_preset(config), shots, seed)
        [point] = manifest["points"]
        assert point["master_seed"] == expected.master_seed != seed
        assert point["config"]["n_shots"] == shots

    def test_run_requires_exactly_one_source(self, tmp_path):
        assert cli.main(["run", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("flag,value", [("--shots", "0"), ("--seed", "-1"),
                                            ("--threads", "0")])
    def test_run_bad_input_creates_no_directory(self, tmp_path, flag, value):
        out = tmp_path / "out"
        assert cli.main(["run", "--preset", "g2", flag, value, "--out", str(out)]) == 2
        assert not out.exists()

    def test_failed_run_leaves_no_directory(self, tmp_path, capsys):
        # 3 shots per point leave some fig4e point without a single-excitation shot
        out = tmp_path / "new" / "out"
        assert cli.main(["run", "--preset", "fig4e", "--shots", "3",
                         "--out", str(out)]) == 2
        assert "no shot in its retrieval selection" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_failed_run_keeps_an_existing_directory(self, tmp_path):
        (tmp_path / "keep.txt").write_text("kept")
        assert cli.main(["run", "--preset", "fig4e", "--shots", "3",
                         "--out", str(tmp_path)]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]
        assert (tmp_path / "keep.txt").read_text() == "kept"

    def test_run_out_of_memory_exits_two(self, tmp_path):
        # under a 3 GB address-space limit the chunk block of 10^9 shots (51 GB
        # of rows) is refused before any of it is touched
        out = tmp_path / "out"
        child = ("import resource, sys\n"
                 "from photon_transistor import cli\n"
                 "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, hard))\n"
                 "sys.exit(cli.main(['run', '--preset', 'g2', '--shots', '1000000000',"
                 " '--out', sys.argv[1]]))\n")
        done = subprocess.run([sys.executable, "-c", child, str(out)], capture_output=True,
                              text=True, timeout=300,
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                                       OPENBLAS_NUM_THREADS="1"))
        assert done.returncode == 2, done.stderr[-4000:]
        assert done.stderr == ("error: not enough memory to run 1000000000 shots per "
                               "sweep point\n")
        assert not out.exists()

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli.main(["run", "--preset", "g2", "--shots", "10",
                         "--out", str(blocker / "out")]) == 2
        assert "error: output directory not writable" in capsys.readouterr().err

    def test_fig3_single_shot_exits_two(self, tmp_path, capsys):
        # one shot per detuning has no standard error of its mean count
        out = tmp_path / "out"
        assert cli.main(["run", "--preset", "fig3", "--shots", "1", "--out", str(out)]) == 2
        assert "need at least 2 shots per detuning" in capsys.readouterr().err
        assert not out.exists()

    def test_run_non_finite_config_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "inf.cfg"
        cfg_path.write_text("[atoms]\neta0 = inf\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "AtomParams.eta0" in err
        assert not out.exists()

    def test_run_overflowing_detuning_exits_two(self, tmp_path, capsys):
        # 1.5e301 MHz is about 9.4e307 rad/s: finite, but 2j * delta overflows
        cfg_path = tmp_path / "far.cfg"
        cfg_path.write_text("[source]\ndetuning_mhz = 1.5e301\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "SourceDrive.detuning" in err
        assert not out.exists()

    def test_run_missing_config_file(self, tmp_path):
        rc = cli.main(["run", "--config", str(tmp_path / "nope.cfg"),
                       "--out", str(tmp_path)])
        assert rc == 2

    def test_compare_pass_exit_zero(self, tmp_path):
        summary_path = tmp_path / "summary.json"
        summary_path.write_text(json.dumps(
            {"g2_raw": {"value": 0.29, "err_low": 0, "err_high": 0},
             "g2_corrected": {"value": 0.17, "err_low": 0, "err_high": 0}}))
        assert cli.main(["compare", "--summary", str(summary_path),
                         "--preset", "g2"]) == 0

    def test_compare_fail_exit_one(self, tmp_path):
        summary_path = tmp_path / "summary.json"
        summary_path.write_text(json.dumps(
            {"g2_raw": {"value": 0.29, "err_low": 0, "err_high": 0},
             "g2_corrected": {"value": 0.9, "err_low": 0, "err_high": 0}}))
        assert cli.main(["compare", "--summary", str(summary_path),
                         "--preset", "g2"]) == 1

    def test_compare_schema_error_exit_two(self, tmp_path):
        summary_path = tmp_path / "summary.json"
        summary_path.write_text(json.dumps({"unrelated": {"value": 1.0}}))
        assert cli.main(["compare", "--summary", str(summary_path),
                         "--preset", "g2"]) == 2

    def test_compare_with_reference_file(self, tmp_path):
        summary_path = tmp_path / "summary.json"
        summary_path.write_text(json.dumps(
            {"extinction_factor": {"value": 11.4, "err_low": 0, "err_high": 0}}))
        ref_path = tmp_path / "ref.json"
        ref_path.write_text(json.dumps({"extinction_factor": [10.0, 12.0]}))
        assert cli.main(["compare", "--summary", str(summary_path),
                         "--reference", str(ref_path)]) == 0

    @pytest.mark.parametrize("entry", [{"err_low": 0, "err_high": 0}, {"value": None},
                                       {"value": "0.29"}, {"value": True}])
    def test_compare_entry_without_numeric_value_exit_two(self, tmp_path, capsys, entry):
        summary_path = tmp_path / "summary.json"
        summary_path.write_text(json.dumps(
            {"g2_raw": entry, "g2_corrected": {"value": 0.17}}))
        assert cli.main(["compare", "--summary", str(summary_path),
                         "--preset", "g2"]) == 2
        assert "error: observable 'g2_raw' has no numeric value" in capsys.readouterr().err

    @pytest.mark.parametrize("band", [[1], [10.0, 12.0, 14.0], 11.0, [10.0, "12"]])
    def test_compare_malformed_band_exit_two(self, tmp_path, capsys, band):
        summary_path = tmp_path / "summary.json"
        summary_path.write_text(json.dumps({"extinction_factor": {"value": 11.4}}))
        ref_path = tmp_path / "ref.json"
        ref_path.write_text(json.dumps({"extinction_factor": band}))
        assert cli.main(["compare", "--summary", str(summary_path),
                         "--reference", str(ref_path)]) == 2
        err = capsys.readouterr().err
        assert "error: reference band of 'extinction_factor' is not a pair of numbers" in err

    def test_compare_summary_not_an_object_exit_two(self, tmp_path, capsys):
        summary_path = tmp_path / "summary.json"
        summary_path.write_text(json.dumps([{"g2_raw": {"value": 0.29}}]))
        assert cli.main(["compare", "--summary", str(summary_path),
                         "--preset", "g2"]) == 2
        assert "error: summary must be a JSON object" in capsys.readouterr().err

    def test_write_config_round_trips(self, tmp_path):
        out = tmp_path / "fig3.cfg"
        assert cli.main(["write-config", "--preset", "fig3", "--out", str(out)]) == 0
        cfg = load_config(out)
        assert abs(cfg.gate.stored_mean - 0.5) < 1e-12

    def test_write_config_runs_as_its_preset(self, tmp_path):
        # the written [run] section holds the shots and run seed of `run --preset`
        path = tmp_path / "g2.cfg"
        assert cli.main(["write-config", "--preset", "g2", "--out", str(path)]) == 0
        assert cli.main(["run", "--preset", "g2", "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        config = load_config(path)
        assert (config.n_shots, config.master_seed) == (manifest["n_shots_per_point"],
                                                        manifest["seed"])

    def test_write_config_bad_point(self, tmp_path):
        rc = cli.main(["write-config", "--preset", "g2", "--point", "5",
                       "--out", str(tmp_path / "x.cfg")])
        assert rc == 2

    def test_list_presets(self, capsys):
        assert cli.main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig3", "fig4ab", "fig4e", "g2"):
            assert name in out

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
