import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_transistor.config import (FIELDS, ConfigError, default_config,
                                      load_config, write_config)
from photon_transistor.presets import get_preset

README = Path(__file__).resolve().parent.parent / "README.md"

UNIT = st.floats(0.0, 1.0)
POSITIVE = st.floats(1e-3, 1e3)
# valid boundary-unit values by key; other numbers are drawn from [0, 1e3]
BOUNDARY = {
    "kappa_mhz": POSITIVE, "mirror_transmission": st.floats(1e-9, 1.0),
    "gamma_mhz": POSITIVE, "tau_spinwave_us": POSITIVE,
    "geometric_weight": st.floats(1e-3, 1.0),
    "storage_efficiency": UNIT, "retrieval_efficiency": UNIT,
    "hop_prob_per_scatter": UNIT, "eta_ratio_after_hop": UNIT,
    "gate_path_efficiency": UNIT, "source_path_efficiency": UNIT,
    "detuning_mhz": st.floats(-1e3, 1e3),
    "n_shots": st.integers(1, 10 ** 9), "master_seed": st.integers(0, 2 ** 64 - 1),
}


def _text(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(f"{eta!r}:{prob!r}" for eta, prob in value)
    return "" if value is None else repr(value)


@st.composite
def config_files(draw) -> str:
    """Text of a config file with a valid value drawn for every key."""
    values, lines = {}, []
    for section, key, _, _, _, default in FIELDS:
        if default is None:
            etas = draw(st.lists(st.floats(0.0, values["eta0"]), max_size=3))
            value = tuple((eta, 1.0 / len(etas)) for eta in etas) or None
        elif isinstance(default, bool):
            value = draw(st.booleans())
        else:
            value = draw(BOUNDARY.get(key, st.floats(0.0, 1e3)))
        if f"[{section}]" not in lines:
            lines.append(f"[{section}]")
        values[key] = value
        lines.append(f"{key} = {_text(value)}")
    return "\n".join(lines) + "\n"


class TestRoundTrip:
    def test_default_config_round_trips(self, tmp_path):
        cfg = default_config()
        path = tmp_path / "run.cfg"
        write_config(cfg, path)
        assert load_config(path) == cfg

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4ab", "fig4e", "g2"])
    def test_preset_points_round_trip(self, name, tmp_path):
        cfg = get_preset(name).points[0].config
        path = tmp_path / f"{name}.cfg"
        write_config(cfg, path)
        assert load_config(path) == cfg

    def test_minimal_file_equals_defaults(self, tmp_path):
        path = tmp_path / "minimal.cfg"
        path.write_text("[run]\nn_shots = 1000\n")
        assert load_config(path) == default_config()

    def test_readme_example_equals_defaults(self, tmp_path):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        assert load_config(path) == default_config()

    @settings(max_examples=60, deadline=None)
    @given(config_files())
    def test_any_valid_file_round_trips(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            drawn, written = Path(tmp) / "drawn.cfg", Path(tmp) / "written.cfg"
            drawn.write_text(text)
            cfg = load_config(drawn)
            write_config(cfg, written)
            assert load_config(written) == cfg

    def test_refuses_to_drop_cooperativity_eta0(self, tmp_path):
        cfg = default_config()
        cfg = replace(cfg, coop=replace(cfg.coop, eta0=5.0))
        path = tmp_path / "lossy.cfg"
        with pytest.raises(ConfigError, match=r"CooperativityModel\.eta0"):
            write_config(cfg, path)
        assert not path.exists()


class TestUnits:
    def test_frequencies_are_angular_internally(self, tmp_path):
        path = tmp_path / "u.cfg"
        path.write_text("[cavity]\nkappa_mhz = 2.0\n"
                        "[source]\ndetuning_mhz = 0.5\n")
        cfg = load_config(path)
        assert math.isclose(cfg.cavity.kappa, 2 * math.pi * 2e6)
        assert math.isclose(cfg.source.detuning, 2 * math.pi * 0.5e6)

    def test_durations_in_microseconds(self, tmp_path):
        path = tmp_path / "t.cfg"
        path.write_text("[timing]\nsource_window_us = 24.0\n"
                        "[atoms]\ntau_spinwave_us = 2.1\n")
        cfg = load_config(path)
        assert math.isclose(cfg.timing.source_window, 24e-6)
        assert math.isclose(cfg.atoms.tau_spinwave, 2.1e-6)


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_invariant_violation_names_field(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[cavity]\nkappa_mhz = -1\n")
        with pytest.raises(ConfigError, match="CavityParams.kappa"):
            load_config(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[cavity]\nfinesse = 100\n")
        with pytest.raises(ConfigError, match="unknown key 'finesse'"):
            load_config(path)

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[lasers]\npower = 1\n")
        with pytest.raises(ConfigError, match=r"unknown section \[lasers\]"):
            load_config(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[cavity]\nthis line has no equals sign\n")
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_unparsable_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[atoms]\neta0 = strong\n")
        with pytest.raises(ConfigError, match="cannot parse number"):
            load_config(path)

    def test_bad_bool(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\nretrieval_mode = maybe\n")
        with pytest.raises(ConfigError, match="boolean"):
            load_config(path)

    def test_bad_levels(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[cooperativity]\nlevels = 3.3;0.8\n")
        with pytest.raises(ConfigError, match="levels"):
            load_config(path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row", [row for row in FIELDS if type(row[5]) is float],
                             ids=lambda row: row[1])
    def test_non_finite_number_names_field(self, tmp_path, row, text):
        section, key, part, name = row[:4]
        path = tmp_path / "bad.cfg"
        path.write_text(f"[{section}]\n{key} = {text}\n")
        field = f"{type(getattr(default_config(), part)).__name__}.{name}"
        with pytest.raises(ConfigError, match=rf"{re.escape(field)} must be finite"):
            load_config(path)

    @pytest.mark.parametrize("levels", ["nan:1.0", "1.0:nan"])
    def test_non_finite_level_names_field(self, tmp_path, levels):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[cooperativity]\nlevels = {levels}\n")
        with pytest.raises(ConfigError, match=r"CooperativityModel\.levels"):
            load_config(path)


class TestLevels:
    def test_levels_parse_and_round_trip(self, tmp_path):
        path = tmp_path / "lv.cfg"
        path.write_text("[cooperativity]\nlevels = 3.3:0.8,0.3:0.2\n")
        cfg = load_config(path)
        assert cfg.coop.levels == ((3.3, 0.8), (0.3, 0.2))
        out = tmp_path / "lv2.cfg"
        write_config(cfg, out)
        assert load_config(out) == cfg


class TestPresetParameters:
    def test_fig3_stored_mean_and_window(self):
        cfg = get_preset("fig3").points[0].config
        assert abs(cfg.gate.stored_mean - 0.5) < 1e-12
        assert math.isclose(cfg.timing.source_window, 24e-6)

    def test_fig2_gate_grid(self):
        ngs = sorted({p.meta["n_g_stored"] for p in get_preset("fig2").points})
        assert ngs == [0.0, 0.4, 1.4, 2.9]
        windows = {p.config.timing.source_window for p in get_preset("fig2").points}
        assert windows == {24e-6}

    def test_fig4ab_stored_mean_and_window(self):
        cfg = get_preset("fig4ab").points[0].config
        assert abs(cfg.gate.stored_mean - 0.4) < 1e-12
        assert math.isclose(cfg.timing.source_window, 50e-6)

    def test_fig4e_chain_is_three_percent(self):
        cfg = get_preset("fig4e").points[0].config
        chain = (cfg.gate.storage_efficiency
                 * math.exp(-cfg.timing.total_storage_time / cfg.atoms.tau_spinwave)
                 * cfg.gate.retrieval_efficiency)
        assert abs(chain - 0.030) < 1e-9
        assert cfg.retrieval_mode

    def test_fig4e_includes_zero_source_reference(self):
        strengths = [p.config.source.mean_source_photons
                     for p in get_preset("fig4e").points]
        assert 0.0 in strengths

    def test_outcoupling_default(self):
        cfg = default_config()
        assert abs(cfg.cavity.outcoupling - 0.66) < 1e-12

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            get_preset("fig9")
