"""Stochastic simulator of an all-optical transistor in which a single
stored gate photon switches the cavity transmission of a source beam."""

__version__ = "0.1.0"

from .qed import (AtomParams, CavityParams, CooperativityModel,
                  EffectiveCooperativities, cavity_transmission_spectrum,
                  effective_cooperativities, extinction,
                  free_space_scatter_prob, matched_level_mixture,
                  sample_cooperativity)
from .engine import (DetectionChain, GatePulse, PumpingModel, RunConfig,
                     ShotRecord, SourceDrive, SpinWave, TimingSequence,
                     apply_spin_decay, detect, evolve_source_window,
                     SHOT_DTYPE, retrieve_gate, run_experiment, run_shot,
                     sample_gate_storage, shot_rng, shot_table)
from .stats import (G2Result, GainEstimate, RetrievalCurve, Spectrum,
                    TransmissionHistogram, average_spectrum, build_histogram,
                    fit_exponential, fit_linear, g2_cross, gain,
                    retrieval_curve, switching_contrast)
from .config import ConfigError, default_config, load_config, write_config
from .presets import ExperimentPreset, PRESET_BUILDERS, get_preset
from .runner import ComparisonReport, compare_report, run_preset

__all__ = [
    "__version__",
    "AtomParams", "CavityParams", "CooperativityModel",
    "EffectiveCooperativities", "cavity_transmission_spectrum",
    "effective_cooperativities", "extinction", "free_space_scatter_prob",
    "matched_level_mixture", "sample_cooperativity",
    "DetectionChain", "GatePulse", "PumpingModel", "RunConfig", "ShotRecord",
    "SourceDrive", "SpinWave", "TimingSequence", "apply_spin_decay", "detect",
    "evolve_source_window", "retrieve_gate", "run_experiment", "run_shot",
    "sample_gate_storage", "shot_rng", "SHOT_DTYPE", "shot_table",
    "G2Result", "GainEstimate", "RetrievalCurve", "Spectrum",
    "TransmissionHistogram", "average_spectrum", "build_histogram",
    "fit_exponential", "fit_linear", "g2_cross", "gain", "retrieval_curve",
    "switching_contrast",
    "ConfigError", "default_config", "load_config", "write_config",
    "ExperimentPreset", "PRESET_BUILDERS", "get_preset",
    "ComparisonReport", "compare_report", "run_preset",
]
