"""Experiment orchestration: run a preset sweep, derive its observables
and write machine-readable artifacts.

Every run emits into the output directory:

* ``manifest.json``  - fully resolved configuration of every sweep point
  plus seed, shot count and package version,
* ``sweep.csv``      - one summary row per sweep point,
* ``summary.json``   - flat map observable -> {value, err_low, err_high},
* ``histogram.csv``  - (fig3 only) occurrence rates per detuning/count bin.

Identical inputs produce byte-identical files: floats are serialized
with repr, JSON keys sorted, and no timestamps are embedded.  Writes go
through a temporary file and an atomic rename.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, qed, stats
from .config import config_as_dict, format_value
from .engine import RunConfig, run_experiment
from .presets import (FIG4AB_LINEAR_POINTS, ExperimentPreset,
                      REFERENCE_TABLES, scale_point_shots)

GAIN_RESAMPLES = 200


class SchemaError(ValueError):
    pass


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _entry(value: float, err_low: float = 0.0, err_high: float = 0.0) -> dict:
    return {"value": float(value), "err_low": float(err_low),
            "err_high": float(err_high)}


# ---------------------------------------------------------------------------
# per-preset analyses

def _analyze_fig2(points, runs):
    by_ng: dict[float, dict[float, list]] = {}
    for point, records in zip(points, runs):
        ng = point.meta["n_g_stored"]
        by_ng.setdefault(ng, {})[point.meta["detuning_mhz"]] = records
    reference = stats.resonant_reference(by_ng[0.0][0.0])
    rows, summary = [], {}
    resonant_means = []
    for ng in sorted(by_ng):
        spectrum = stats.average_spectrum(by_ng[ng], reference)
        for d, m, s in zip(spectrum.detunings, spectrum.mean_transmission, spectrum.sem):
            rows.append([ng, d, m, s])
        idx = spectrum.detunings.index(0.0)
        resonant_means.append(spectrum.mean_transmission[idx])
        summary[f"resonant_transmission_ng_{ng}"] = _entry(
            spectrum.mean_transmission[idx], spectrum.sem[idx], spectrum.sem[idx])
        if ng > 0.0:
            contrast, sigma = stats.switching_contrast(by_ng[ng][0.0], by_ng[0.0][0.0])
            bound = 1.0 - math.exp(-ng)
            summary[f"contrast_ng_{ng}"] = _entry(contrast, sigma, sigma)
            summary[f"contrast_bound_ng_{ng}"] = _entry(bound)
            summary[f"contrast_bound_ratio_ng_{ng}"] = _entry(contrast / bound)
            excess = contrast - bound  # +-inf, or NaN at the bound, when sigma is 0
            summary[f"contrast_excess_sigmas_ng_{ng}"] = _entry(
                excess / sigma if sigma > 0 else excess * math.inf)
    margin = min(a - b for a, b in zip(resonant_means, resonant_means[1:]))
    summary["spectra_nested_margin"] = _entry(margin)
    header = ["n_g_stored", "detuning_mhz", "mean_transmission", "sem"]
    return header, rows, summary, {}


def _analyze_fig3(points, runs):
    groups = {p.meta["detuning_mhz"]: records for p, records in zip(points, runs)}
    hist = stats.build_histogram(groups)
    col = hist.column(0.0)
    resonant = groups[0.0]
    p1, p1_err = stats.single_excitation_fraction(resonant)
    factor, f_low, f_high, _ = stats.extinction_factor_errors(resonant)
    spectrum = stats.average_spectrum(groups, 1.0)  # unnormalized mean counts
    rows = list(zip(spectrum.detunings, spectrum.mean_transmission, spectrum.sem,
                    hist.high_mean, hist.low_mean, hist.extinction_factor))
    summary = {
        "extinction_factor": _entry(factor, f_low, f_high),
        "threshold_extinction_factor": _entry(hist.threshold_extinction_factor[col]),
        "p_single_given_present": _entry(p1, p1_err, p1_err),
        "high_component_mean": _entry(hist.high_mean[col]),
        "low_component_mean": _entry(hist.low_mean[col]),
        "high_peak": _entry(hist.high_peak[col]),
        "low_peak": _entry(hist.low_peak[col]),
    }
    header = ["detuning_mhz", "mean_detected", "sem",
              "high_component_mean", "low_component_mean", "extinction_factor"]
    hist_rows = []
    for i, d in enumerate(hist.detunings):
        for c, rate in zip(hist.count_bins, hist.rates[i]):
            hist_rows.append([d, c, float(rate)])
    extra = {"histogram.csv": (["detuning_mhz", "detected_count", "occurrence_rate"],
                               hist_rows)}
    return header, rows, summary, extra


def _analyze_fig4ab(points, runs):
    strengths, gains = [], []
    rows = []
    for point, records in zip(points, runs):
        est = stats.gain(records, resamples=GAIN_RESAMPLES)
        strengths.append(est.source_strength)
        gains.append(est)
        rows.append([point.meta["source_strength"], est.source_strength,
                     est.g, est.err_low, est.err_high,
                     est.g_outside, est.outside_err_low, est.outside_err_high])
    xs = np.array(strengths)
    gs = np.array([e.g for e in gains])
    k = FIG4AB_LINEAR_POINTS
    slope, _ = stats.fit_linear(xs[:k], gs[:k])
    config = points[0].config
    prediction = 1.0 - qed.mean_blocked_transmission(config.coop, config.gate.stored_mean)
    peak_idx = int(np.argmax(gs))
    plateau = gs[-1]
    sat_scale = float("nan")
    try:
        deficit = np.maximum(plateau - gs, 0.0)
        _, sat_scale, _ = stats.fit_exponential(xs, deficit + plateau * 1e-4)
    except (ValueError, RuntimeError):
        pass
    summary = {
        "gain_slope": _entry(slope),
        "gain_slope_prediction": _entry(prediction),
        "gain_slope_ratio": _entry(slope / prediction),
        "gain_peak_intracavity": _entry(gs[peak_idx], gains[peak_idx].err_low,
                                        gains[peak_idx].err_high),
        "gain_peak_outside": _entry(gains[peak_idx].g_outside,
                                    gains[peak_idx].outside_err_low,
                                    gains[peak_idx].outside_err_high),
        "saturation_scale": _entry(sat_scale),
    }
    header = ["source_strength_nominal", "source_strength_measured",
              "gain_intracavity", "gain_err_low", "gain_err_high",
              "gain_outside", "gain_outside_err_low", "gain_outside_err_high"]
    return header, rows, summary, {}


def _analyze_fig4e(points, runs):
    curve = stats.retrieval_curve(runs, condition_single=True)
    gains = [stats.gain(records, resamples=GAIN_RESAMPLES) for records in runs]
    xs_in = np.array(curve.source_strengths)
    xs_out = np.array(curve.source_strengths_outside)
    g_in = np.array([e.g for e in gains])
    g_out = np.array([e.g_outside for e in gains])
    order = np.argsort(xs_in)
    g_r_in = float(np.interp(curve.m_s0, xs_in[order], g_in[order]))
    order_out = np.argsort(xs_out)
    g_r_out = float(np.interp(curve.m_s0_outside, xs_out[order_out], g_out[order_out]))
    rows = []
    for i in range(len(runs)):
        rows.append([xs_in[i], xs_out[i], curve.fractions[i], g_in[i], g_out[i]])
    summary = {
        "m_s0_intracavity": _entry(curve.m_s0, curve.m_s0_err_low, curve.m_s0_err_high),
        "m_s0_outside": _entry(curve.m_s0_outside, curve.m_s0_outside_err_low,
                               curve.m_s0_outside_err_high),
        "m_s0_unit_ratio": _entry(curve.m_s0_outside / curve.m_s0),
        "g_r_intracavity": _entry(g_r_in),
        "g_r_outside": _entry(g_r_out),
        "retrieval_fit_amplitude": _entry(curve.amplitude),
        "retrieval_fit_residual_rms": _entry(curve.residual_rms),
    }
    header = ["source_strength_intracavity", "source_strength_outside",
              "retrieval_fraction_norm", "gain_intracavity", "gain_outside"]
    return header, rows, summary, {}


def _analyze_g2(points, runs):
    records = runs[0]
    config = points[0].config
    backgrounds = (
        config.detection.gate_dark_rate * config.timing.storage_ramp,
        config.detection.source_dark_rate * config.timing.source_window,
    )
    g, s = records.detected_gate, records.detected_source
    res = stats.g2_cross(g, s, backgrounds)
    rows = [[float(g.mean()), float(s.mean()), res.raw, res.corrected]]
    summary = {
        "g2_raw": _entry(res.raw, res.raw_err_low, res.raw_err_high),
        "g2_corrected": _entry(res.corrected, res.corrected_err_low,
                               res.corrected_err_high),
        "mean_gate_detected": _entry(float(g.mean())),
        "mean_source_detected": _entry(float(s.mean())),
    }
    header = ["mean_gate_detected", "mean_source_detected", "g2_raw", "g2_corrected"]
    return header, rows, summary, {}


def _analyze_custom(points, runs):
    records = runs[0]
    means = [float(np.mean(column)) for column in (
        records.source_transmitted_intracavity, records.source_transmitted_outside,
        records.detected_source, records.retrieved)]
    header = ["label", "mean_transmitted_intracavity", "mean_transmitted_outside",
              "mean_detected_source", "retrieved_fraction"]
    summary = {name: _entry(mean) for name, mean in zip(header[1:], means)}
    return header, [[points[0].label, *means]], summary, {}


_ANALYZERS = {
    "fig2": _analyze_fig2,
    "fig3": _analyze_fig3,
    "fig4ab": _analyze_fig4ab,
    "fig4e": _analyze_fig4e,
    "g2": _analyze_g2,
    "custom": _analyze_custom,
}


# ---------------------------------------------------------------------------
# orchestration

@dataclass(frozen=True)
class PresetRun:
    preset: ExperimentPreset
    summary: dict
    manifest_path: Path
    sweep_path: Path
    summary_path: Path


def point_configs(preset: ExperimentPreset, n_shots: int, seed: int) -> list[RunConfig]:
    """Every sweep point's config at ``n_shots`` with its derived master
    seed; raises ValueError for a bad shot count or seed."""
    seeds = np.random.SeedSequence(seed).generate_state(len(preset.points), dtype=np.uint64)
    return [scale_point_shots(p, n_shots, int(s)) for p, s in zip(preset.points, seeds)]


def run_preset_points(configs: list[RunConfig], workers: int = 1) -> list[np.recarray]:
    """One shot table per sweep point config (from ``point_configs``)."""
    return [run_experiment(cfg, workers=workers) for cfg in configs]


def analyze_preset(preset: ExperimentPreset, runs: list[np.recarray]):
    analyzer = _ANALYZERS[preset.name]
    return analyzer(preset.points, runs)


def run_preset(preset: ExperimentPreset, n_shots: int, seed: int,
               out_dir: str | Path, workers: int = 1) -> PresetRun:
    """Run the sweep and write manifest, sweep CSV and summary JSON into
    ``out_dir``.  Identical (preset, n_shots, seed) produce byte-identical
    files.  Bad input raises before ``out_dir`` is created; a simulation or
    analysis that raises removes the directories this call created."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers}")
    configs = point_configs(preset, n_shots, seed)
    out = Path(out_dir)
    created = [d for d in (out, *out.parents) if not d.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise RuntimeError(f"output directory not writable: {out}") from exc

    try:
        runs = run_preset_points(configs, workers=workers)
        header, rows, summary, extra = analyze_preset(preset, runs)
    except BaseException:
        if created:
            shutil.rmtree(created[-1], ignore_errors=True)
        raise

    manifest = {
        "preset": preset.name,
        "description": preset.description,
        "version": __version__,
        "seed": seed,
        "n_shots_per_point": n_shots,
        "points": [
            {"label": p.label, "meta": p.meta, "master_seed": cfg.master_seed,
             "config": config_as_dict(cfg)}
            for p, cfg in zip(preset.points, configs)
        ],
    }
    manifest_path = out / "manifest.json"
    _write_atomic(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    sweep_path = out / "sweep.csv"
    _write_csv(sweep_path, header, rows)
    summary_path = out / "summary.json"
    _write_atomic(summary_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    for name, (h, r) in extra.items():
        _write_csv(out / name, h, r)
    return PresetRun(preset, summary, manifest_path, sweep_path, summary_path)


# ---------------------------------------------------------------------------
# comparison against reference bands

@dataclass(frozen=True)
class ComparisonReport:
    lines: tuple[str, ...]
    passed: bool

    def __str__(self) -> str:
        return "\n".join(self.lines)


def _load_json(source) -> dict:
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            return json.load(fh)
    return source


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def compare_report(summary, reference) -> ComparisonReport:
    """Check every referenced observable against its [lo, hi] band.
    ``summary`` is a summary dict or path to summary.json; ``reference``
    maps observable -> (lo, hi) (dict, or path to an equivalent JSON).
    A summary that is not an object, an observable missing from it or
    without a numeric value, and a band that is not two numbers are a
    schema mismatch."""
    summary = _load_json(summary)
    reference = _load_json(reference)
    for what, table in (("summary", summary), ("reference", reference)):
        if not isinstance(table, dict):
            raise SchemaError(f"{what} must be a JSON object keyed by observable, "
                              f"not {type(table).__name__}")
    lines = []
    passed = True
    for name in sorted(reference):
        band = reference[name]
        if not (isinstance(band, (list, tuple)) and len(band) == 2
                and all(map(_is_number, band))):
            raise SchemaError(f"reference band of {name!r} is not a pair of numbers: {band!r}")
        lo, hi = float(band[0]), float(band[1])
        if name not in summary:
            raise SchemaError(f"observable {name!r} missing from summary")
        entry = summary[name]
        value = entry.get("value") if isinstance(entry, dict) else entry
        if not _is_number(value):
            raise SchemaError(f"observable {name!r} has no numeric value: {entry!r}")
        value = float(value)
        ok = lo <= value <= hi and math.isfinite(value)
        passed &= ok
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status} {name}: {value:.6g} in [{lo:.6g}, {hi:.6g}]")
    return ComparisonReport(tuple(lines), passed)


def reference_for(preset_name: str) -> dict[str, tuple[float, float]]:
    try:
        return REFERENCE_TABLES[preset_name]
    except KeyError:
        raise SchemaError(f"no reference table for preset {preset_name!r}") from None
