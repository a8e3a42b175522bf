"""Plain-text run configuration.

Files are sectioned key=value text (INI syntax).  All physical values
carry their unit in the key name: frequencies are entered as linear MHz
(kappa_mhz, gamma_mhz, detuning_mhz), durations as microseconds
(tau_spinwave_us, *_us) and dark rates as counts per second (*_cps).
Internally everything is angular frequency in rad/s and seconds.

Every key is optional and falls back to the documented default; unknown
sections or keys are errors, as are values violating a parameter
invariant (reported with the offending field name).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, is_dataclass
from itertools import groupby
from pathlib import Path
from typing import get_type_hints

from .engine import RunConfig

MHZ = 2.0 * math.pi * 1e6
US = 1e-6


class ConfigError(ValueError):
    pass


# One row per file key, in file order: (section, key, RunConfig part,
# field, unit scale, default).  Part None is a field of RunConfig itself;
# scale None means the file value is used as is.  The default's type sets
# how the value is parsed; levels (default None) is an "eta:prob,..." list.
FIELDS = (
    ("cavity", "kappa_mhz", "cavity", "kappa", MHZ, 1.0),
    ("cavity", "mirror_transmission", "cavity", "mirror_transmission", None, 6.6e-6),
    ("cavity", "mirror_loss", "cavity", "mirror_loss", None, 3.4e-6),
    ("atoms", "gamma_mhz", "atoms", "gamma", MHZ, 5.2),
    ("atoms", "eta0", "atoms", "eta0", None, 8.6),
    ("atoms", "tau_spinwave_us", "atoms", "tau_spinwave", US, 2.1),
    ("atoms", "optical_depth", "atoms", "optical_depth", None, 0.9),
    ("cooperativity", "standing_wave", "coop", "standing_wave", None, True),
    ("cooperativity", "geometric_weight", "coop", "geometric_weight", None, 2.8 / 4.3),
    ("cooperativity", "levels", "coop", "levels", None, None),
    ("timing", "storage_ramp_us", "timing", "storage_ramp", US, 1.0),
    ("timing", "hold_before_source_us", "timing", "hold_before_source", US, 0.0),
    ("timing", "source_window_us", "timing", "source_window", US, 24.0),
    ("timing", "hold_before_retrieval_us", "timing", "hold_before_retrieval", US, 0.0),
    ("gate", "mean_incident_photons", "gate", "mean_incident_photons", None, 1.0),
    ("gate", "storage_efficiency", "gate", "storage_efficiency", None, 0.15),
    # storage * spin-wave decay over 1 us * retrieval = 0.030 combined chain
    ("gate", "retrieval_efficiency", "gate", "retrieval_efficiency", None,
     0.030 / (0.15 * math.exp(-1.0 / 2.1))),
    ("source", "mean_photons", "source", "mean_source_photons", None, 60.0),
    ("source", "detuning_mhz", "source", "detuning", MHZ, 0.0),
    # optical pumping: certain hop per scattering event, mild coupling loss
    # per hop; sets the gain saturation scale near a thousand source photons
    ("pumping", "hop_prob_per_scatter", "pumping", "hop_prob_per_scatter", None, 1.0),
    ("pumping", "eta_ratio_after_hop", "pumping", "eta_ratio_after_hop", None, 0.992),
    ("detection", "gate_path_efficiency", "detection", "gate_path_efficiency", None, 0.9),
    ("detection", "source_path_efficiency", "detection", "source_path_efficiency", None, 0.43),
    ("detection", "gate_dark_cps", "detection", "gate_dark_rate", None, 0.0),
    ("detection", "source_dark_cps", "detection", "source_dark_rate", None, 0.0),
    ("run", "n_shots", None, "n_shots", None, 1000),
    ("run", "master_seed", None, "master_seed", None, 12345),
    ("run", "retrieval_mode", None, "retrieval_mode", None, False),
)

# RunConfig's parts (CavityParams, AtomParams, ...) in construction order
_PARTS = {name: cls for name, cls in get_type_hints(RunConfig).items() if is_dataclass(cls)}
_DEFAULTS = {(row[0], row[1]): row[5] for row in FIELDS}
_BOOLS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}


def _parse(raw: str, key: str, default):
    if isinstance(default, bool):
        if raw.strip().lower() not in _BOOLS:
            raise ConfigError(f"cannot parse boolean value {raw!r} for key {key}")
        return _BOOLS[raw.strip().lower()]
    if default is None:
        if not raw.strip():
            return None
        pairs = []
        for item in raw.split(","):
            try:
                eta_s, prob_s = item.split(":")
                pairs.append((float(eta_s), float(prob_s)))
            except ValueError as exc:
                raise ConfigError(f"cannot parse levels entry {item.strip()!r}; "
                                  "expected eta:probability") from exc
        return tuple(pairs)
    kind = "integer" if isinstance(default, int) else "number"
    try:
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {kind} {raw!r} for {key}") from exc


def format_value(value, levels: bool = False) -> str:
    """Text of one config-file or CSV value: true/false for a bool, a
    float's repr, str otherwise; with ``levels``, a level list's eta:prob pairs."""
    if levels:
        return ",".join(f"{eta!r}:{prob!r}" for eta, prob in value or ())
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _build(values: dict) -> RunConfig:
    """RunConfig from file values keyed by (section, key); missing keys
    take their defaults.  coop.eta0 is the [atoms] eta0 value."""
    parts: dict = {part: {} for part in (*_PARTS, None)}
    for section, key, part, name, scale, default in FIELDS:
        value = values.get((section, key), default)
        parts[part][name] = value * scale if scale else value
    parts["coop"]["eta0"] = parts["atoms"]["eta0"]
    try:
        return RunConfig(**{part: cls(**parts[part]) for part, cls in _PARTS.items()},
                         **parts[None])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> RunConfig:
    """Parse a config file into a validated RunConfig.  Missing keys use
    the documented defaults; unknown keys, unparsable values and
    invariant violations raise ConfigError."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {path}: {exc}") from exc
    values = {}
    for section in parser.sections():
        if section not in {sec for sec, _ in _DEFAULTS}:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in _DEFAULTS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[section, key] = _parse(raw, key, _DEFAULTS[section, key])
    return _build(values)


def default_config() -> RunConfig:
    return _build({})


def write_config(config: RunConfig, path: str | Path) -> None:
    """Serialize a RunConfig to the text format, floats at full repr
    precision.  For every config whose fields come from file values in
    boundary units (all presets and every loaded file),
    load_config(write_config(c)) reproduces c exactly.  The file holds
    one eta0, so a config whose coop.eta0 differs from atoms.eta0 is
    refused with ConfigError."""
    if config.coop.eta0 != config.atoms.eta0:
        raise ConfigError(
            f"CooperativityModel.eta0 ({config.coop.eta0!r}) differs from "
            f"AtomParams.eta0 ({config.atoms.eta0!r}); the config file "
            "stores only [atoms] eta0")
    lines = []
    for section, rows in groupby(FIELDS, key=lambda row: row[0]):
        lines.append(f"[{section}]")
        for _, key, part, name, scale, default in rows:
            value = getattr(getattr(config, part) if part else config, name)
            text = format_value(value / scale if scale else value, levels=default is None)
            lines.append(f"{key} = {text}")
        lines.append("")
    Path(path).write_text("\n".join(lines))


def config_as_dict(config: RunConfig) -> dict:
    """JSON-ready dump of the fully resolved configuration (SI units);
    ``json`` writes the ``levels`` tuples as lists."""
    return asdict(config)
