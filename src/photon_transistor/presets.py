"""Canned experiment configurations reproducing the headline measurement
modes, each a sweep of fully resolved run configurations.

Every preset picks the cooperativity distribution matched to what its
observable averages over:

* spectra (fig2) use the extinction-matched constant value 1.5,
* the bimodal histogram (fig3) uses the constant value reproducing the
  measured one-photon extinction factor 17/1.5,
* gain and retrieval modes (fig4ab, fig4e, g2) use the reciprocal
  two-point mixture that realizes the extinction-matched/scattering-
  matched pair (1.5, 3.3) simultaneously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from .config import MHZ, US, default_config
from .engine import (DetectionChain, GatePulse, PumpingModel, RunConfig,
                     SourceDrive, TimingSequence)
from .qed import CooperativityModel, matched_level_mixture

# physical defaults (cavity, atoms, storage/retrieval chain, optical pumping)
DEFAULTS = default_config()

# effective cooperativities: extinction-matched, scattering-matched, and the
# constant reproducing the measured one-photon extinction factor 17/1.5
ETA_TRANSMISSION = 1.5
ETA_SCATTERING = 3.3
MEAN_EXTINCTION = 1.0 / (1.0 + ETA_TRANSMISSION) ** 2
ETA_HISTOGRAM = math.sqrt(17.0 / 1.5) - 1.0

NO_PUMPING = PumpingModel(hop_prob_per_scatter=0.0, eta_ratio_after_hop=1.0)

IDEAL_DETECTION = DetectionChain(1.0, 1.0, 0.0, 0.0)

FIG2_GATE_MEANS = (0.0, 0.4, 1.4, 2.9)
FIG2_DETUNINGS_MHZ = (-3.0, -2.0, -1.5, -1.0, -0.75, -0.5, -0.25, 0.0,
                      0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
FIG3_GATE_MEAN = 0.5
FIG3_DETUNINGS_MHZ = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
FIG3_DETECTED_TARGET = 17.3
FIG3_SOURCE_EFFICIENCY = 0.43
FIG3_SOURCE_DARK_CPS = 8000.0
FIG4AB_GATE_MEAN = 0.4
FIG4AB_STRENGTHS = (1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 14.0, 19.0, 25.0,
                    60.0, 125.0, 250.0, 500.0, 1000.0, 2000.0, 3000.0)
FIG4AB_LINEAR_POINTS = 9
FIG4E_STRENGTHS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.5, 8.0)

# shots per point and run seed of a preset run, also the [run] values of
# every preset point, so a preset point's config file runs as its preset
PRESET_SHOTS = 2000
PRESET_SEED = 12345


def constant_cooperativity(eta: float) -> CooperativityModel:
    return CooperativityModel(eta0=DEFAULTS.atoms.eta0, standing_wave=False,
                              geometric_weight=1.0, levels=((eta, 1.0),))


def matched_pair_cooperativity() -> CooperativityModel:
    """Two-point mixture with extinction-matched 1.5 and scattering-matched
    3.3 effective cooperativities."""
    return matched_level_mixture(eta_scattering=ETA_SCATTERING,
                                 mean_extinction=MEAN_EXTINCTION,
                                 eta0=DEFAULTS.atoms.eta0)


@dataclass(frozen=True)
class PresetPoint:
    label: str
    meta: dict
    config: RunConfig


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    description: str
    points: tuple[PresetPoint, ...]


def _base(coop, gate, timing, source, pumping, detection, retrieval_mode=False):
    return replace(DEFAULTS, coop=coop, timing=timing, gate=gate, source=source,
                   pumping=pumping, detection=detection, n_shots=PRESET_SHOTS,
                   master_seed=PRESET_SEED, retrieval_mode=retrieval_mode)


def _gate_for_stored(stored_mean: float, retrieval_efficiency: float = 1.0) -> GatePulse:
    storage = DEFAULTS.gate.storage_efficiency
    return GatePulse(mean_incident_photons=stored_mean / storage,
                     storage_efficiency=storage,
                     retrieval_efficiency=retrieval_efficiency)


def fig2_preset() -> ExperimentPreset:
    """Average transmission spectra for stored gate means 0/0.4/1.4/2.9,
    24 us source window, ideal detection."""
    timing = TimingSequence(1.0 * US, 0.0, 24.0 * US, 0.0)
    points = []
    for ng in FIG2_GATE_MEANS:
        gate = _gate_for_stored(ng)
        for dmhz in FIG2_DETUNINGS_MHZ:
            cfg = _base(constant_cooperativity(ETA_TRANSMISSION), gate, timing,
                        SourceDrive(60.0, dmhz * MHZ), NO_PUMPING, IDEAL_DETECTION)
            points.append(PresetPoint(
                label=f"ng={ng},delta={dmhz}MHz",
                meta={"n_g_stored": ng, "detuning_mhz": dmhz},
                config=cfg))
    return ExperimentPreset(
        name="fig2",
        description="source transmission spectra vs stored gate photon number",
        points=tuple(points))


def fig3_source_strength() -> float:
    """Source strength placing the no-gate detected mean at the target."""
    dark = FIG3_SOURCE_DARK_CPS * 24.0 * US
    outcoupling = DEFAULTS.cavity.outcoupling
    return (FIG3_DETECTED_TARGET - dark) / (outcoupling * FIG3_SOURCE_EFFICIENCY)


def fig3_preset() -> ExperimentPreset:
    """Bimodal transmission histogram with 0.5 stored gate photons; the
    source path is calibrated so the no-gate component sits at 17
    detected photons per 24 us window."""
    timing = TimingSequence(1.0 * US, 0.0, 24.0 * US, 0.0)
    detection = DetectionChain(gate_path_efficiency=1.0,
                               source_path_efficiency=FIG3_SOURCE_EFFICIENCY,
                               gate_dark_rate=0.0,
                               source_dark_rate=FIG3_SOURCE_DARK_CPS)
    mu = fig3_source_strength()
    points = []
    for dmhz in FIG3_DETUNINGS_MHZ:
        cfg = _base(constant_cooperativity(ETA_HISTOGRAM),
                    _gate_for_stored(FIG3_GATE_MEAN), timing,
                    SourceDrive(mu, dmhz * MHZ), NO_PUMPING, detection)
        points.append(PresetPoint(
            label=f"delta={dmhz}MHz",
            meta={"detuning_mhz": dmhz},
            config=cfg))
    return ExperimentPreset(
        name="fig3",
        description="bimodal histogram of detected source photons",
        points=tuple(points))


def fig4ab_preset() -> ExperimentPreset:
    """Transistor gain vs source strength with 0.4 stored gate photons,
    50 us window, optical pumping on; gain is evaluated from the true
    transmitted photon numbers."""
    timing = TimingSequence(1.0 * US, 0.0, 50.0 * US, 0.0)
    points = []
    for mu in FIG4AB_STRENGTHS:
        cfg = _base(matched_pair_cooperativity(), _gate_for_stored(FIG4AB_GATE_MEAN),
                    timing, SourceDrive(mu, 0.0), DEFAULTS.pumping, IDEAL_DETECTION)
        points.append(PresetPoint(
            label=f"Ms={mu}",
            meta={"source_strength": mu},
            config=cfg))
    return ExperimentPreset(
        name="fig4ab",
        description="transistor gain and saturation vs source strength",
        points=tuple(points))


def fig4e_preset() -> ExperimentPreset:
    """Retrieval-mode operation: 1 us source window inside a 1 us storage
    interval, combined storage-retrieval chain calibrated to 3.0%, sweep
    of the source strength for the retrieval decay and gain."""
    timing = TimingSequence(1.0 * US, 0.0, 1.0 * US, 0.0)
    points = []
    for mu in FIG4E_STRENGTHS:
        cfg = _base(matched_pair_cooperativity(),
                    _gate_for_stored(0.15, DEFAULTS.gate.retrieval_efficiency), timing,
                    SourceDrive(mu, 0.0), DEFAULTS.pumping, DEFAULTS.detection,
                    retrieval_mode=True)
        points.append(PresetPoint(
            label=f"Ms={mu}",
            meta={"source_strength": mu},
            config=cfg))
    return ExperimentPreset(
        name="fig4e",
        description="gate retrieval vs source photon number",
        points=tuple(points))


def g2_preset() -> ExperimentPreset:
    """Gate-source cross-correlation point: weak source over 1 us,
    retrieval mode, counting backgrounds calibrated so the raw and
    background-corrected correlations land near 0.29 and 0.17."""
    timing = TimingSequence(1.0 * US, 0.0, 1.0 * US, 0.0)
    detection = DetectionChain(gate_path_efficiency=0.9,
                               source_path_efficiency=FIG3_SOURCE_EFFICIENCY,
                               gate_dark_rate=9300.0,
                               source_dark_rate=6200.0)
    cfg = _base(matched_pair_cooperativity(), _gate_for_stored(0.4, 0.85), timing,
                SourceDrive(0.45, 0.0), DEFAULTS.pumping, detection, retrieval_mode=True)
    return ExperimentPreset(
        name="g2",
        description="gate-source cross-correlation with backgrounds",
        points=(PresetPoint(label="g2", meta={}, config=cfg),))


def custom_preset(config: RunConfig, label: str = "custom") -> ExperimentPreset:
    return ExperimentPreset(
        name="custom",
        description="single user-supplied configuration",
        points=(PresetPoint(label=label, meta={}, config=config),))


PRESET_BUILDERS: dict[str, Callable[[], ExperimentPreset]] = {
    "fig2": fig2_preset,
    "fig3": fig3_preset,
    "fig4ab": fig4ab_preset,
    "fig4e": fig4e_preset,
    "g2": g2_preset,
}


def get_preset(name: str) -> ExperimentPreset:
    try:
        return PRESET_BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; "
                         f"choose from {sorted(PRESET_BUILDERS)}") from None


def scale_point_shots(point: PresetPoint, n_shots: int, master_seed: int) -> RunConfig:
    return replace(point.config, n_shots=n_shots, master_seed=master_seed)


# acceptance bands for compare_report, keyed by preset
REFERENCE_TABLES: dict[str, dict[str, tuple[float, float]]] = {
    "fig2": {
        "contrast_bound_ratio_ng_0.4": (0.80, 1.05),
        "contrast_bound_ratio_ng_1.4": (0.80, 1.05),
        "contrast_bound_ratio_ng_2.9": (0.80, 1.05),
        "contrast_excess_sigmas_ng_0.4": (-99.0, 3.0),
        "contrast_excess_sigmas_ng_1.4": (-99.0, 3.0),
        "contrast_excess_sigmas_ng_2.9": (-99.0, 3.0),
        "spectra_nested_margin": (0.0, 1.0),
    },
    "fig3": {
        "extinction_factor": (9.0, 13.0),
        "p_single_given_present": (0.761, 0.781),
    },
    "fig4ab": {
        "gain_slope_ratio": (0.95, 1.05),
        "gain_peak_intracavity": (600.0, 1e9),
        "gain_peak_outside": (400.0, 1e9),
    },
    "fig4e": {
        "m_s0_intracavity": (2.6, 3.0),
        "m_s0_outside": (1.7, 2.0),
        "g_r_intracavity": (1.8, 2.6),
        "g_r_outside": (1.1, 1.8),
    },
    "g2": {
        "g2_raw": (0.21, 0.38),
        "g2_corrected": (0.11, 0.25),
    },
}
