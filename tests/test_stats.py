import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from photon_transistor import presets, runner, stats
from photon_transistor.engine import (DetectionChain, GatePulse, PumpingModel,
                                      RunConfig, ShotRecord, SourceDrive,
                                      TimingSequence, run_experiment,
                                      with_source_strength)
from photon_transistor.qed import (AtomParams, CavityParams, CooperativityModel,
                                   cavity_transmission_spectrum, extinction)

CAVITY = CavityParams(kappa=2 * math.pi * 1e6, mirror_transmission=6.6e-6,
                      mirror_loss=3.4e-6)
ATOMS = AtomParams(gamma=2 * math.pi * 5.2e6, eta0=8.6, tau_spinwave=2.1e-6)
NO_PUMP = PumpingModel(0.0, 1.0)
IDEAL = DetectionChain(1.0, 1.0, 0.0, 0.0)


def constant_model(eta, eta0=None):
    return CooperativityModel(eta0=eta0 if eta0 is not None else max(eta, 8.6),
                              standing_wave=False, geometric_weight=1.0,
                              levels=((eta, 1.0),))


def make_config(**overrides):
    cfg = dict(
        cavity=CAVITY, atoms=ATOMS, coop=constant_model(2.3665),
        timing=TimingSequence(1e-6, 0.0, 24e-6, 0.0),
        gate=GatePulse(0.5, 1.0, 1.0),
        source=SourceDrive(26.0, 0.0),
        pumping=NO_PUMP, detection=IDEAL,
        n_shots=4000, master_seed=1, retrieval_mode=False,
    )
    cfg.update(overrides)
    return RunConfig(**cfg)


def record(n_stored=0, intra=0, outside=0, collapsed=False, retrieved=False,
           detected_source=0, detected_gate=0, idx=0):
    return ShotRecord(shot_index=idx, n_stored=n_stored,
                      source_transmitted_intracavity=intra,
                      source_transmitted_outside=outside,
                      collapsed=collapsed, retrieved=retrieved,
                      survived_decay=True, detected_source=detected_source,
                      detected_gate=detected_gate)


class TestAverageSpectrum:
    def test_identical_counts_zero_sem(self):
        recs = [record(detected_source=5, idx=i) for i in range(10)]
        spec = stats.average_spectrum({0.0: recs}, reference=5.0)
        assert spec.sem == (0.0,)
        assert spec.mean_transmission == (1.0,)

    def test_requires_two_shots(self):
        with pytest.raises(ValueError):
            stats.average_spectrum({0.0: [record()]}, reference=1.0)

    def test_requires_positive_reference(self):
        recs = [record(detected_source=5, idx=i) for i in range(3)]
        with pytest.raises(ValueError):
            stats.average_spectrum({0.0: recs}, reference=0.0)

    def test_recovers_empty_cavity_lorentzian(self):
        detunings_mhz = (-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0)
        groups = {}
        gate_off = GatePulse(0.0, 0.15)
        for i, dmhz in enumerate(detunings_mhz):
            cfg = make_config(gate=gate_off,
                              source=SourceDrive(30.0, dmhz * 2 * math.pi * 1e6),
                              n_shots=3000, master_seed=100 + i)
            groups[dmhz] = run_experiment(cfg)
        reference = stats.resonant_reference(groups[0.0])
        spec = stats.average_spectrum(groups, reference)
        ref_sem = spec.sem[spec.detunings.index(0.0)]
        for dmhz, mean, sem in zip(spec.detunings, spec.mean_transmission, spec.sem):
            oracle = cavity_transmission_spectrum(dmhz * 2 * math.pi * 1e6, (),
                                                  CAVITY, ATOMS)
            tol = 3.0 * math.sqrt(sem ** 2 + (oracle * ref_sem) ** 2) + 1e-12
            assert abs(mean - oracle) <= tol

    def test_sorted_by_detuning(self):
        recs = [record(detected_source=4, idx=i) for i in range(4)]
        spec = stats.average_spectrum({1.0: recs, -1.0: recs, 0.0: recs}, 4.0)
        assert spec.detunings == (-1.0, 0.0, 1.0)


class TestSwitchingContrast:
    def test_no_gate_gives_zero(self):
        rng = np.random.default_rng(0)
        a = [record(detected_source=int(rng.poisson(20)), idx=i) for i in range(4000)]
        b = [record(detected_source=int(rng.poisson(20)), idx=i) for i in range(4000)]
        contrast, sigma = stats.switching_contrast(a, b)
        assert abs(contrast) <= 3.5 * sigma

    def test_perfect_blocking_reaches_coherent_state_bound(self):
        # a huge cooperativity makes each occupied shot fully dark, so the
        # contrast equals the photon-statistics bound 1 - exp(-0.4)
        cfg = make_config(coop=constant_model(1000.0, eta0=1000.0),
                          gate=GatePulse(0.4, 1.0),
                          source=SourceDrive(40.0, 0.0),
                          n_shots=30_000, master_seed=5)
        gate_on = run_experiment(cfg)
        gate_off = run_experiment(replace(cfg, gate=GatePulse(0.0, 1.0),
                                          master_seed=6))
        contrast, sigma = stats.switching_contrast(gate_on, gate_off)
        bound = 1.0 - math.exp(-0.4)
        assert abs(contrast - bound) <= max(3 * sigma, 0.01)
        assert contrast <= bound + 3 * sigma

    def test_zero_reference_rejected(self):
        a = [record(detected_source=1, idx=i) for i in range(5)]
        b = [record(detected_source=0, idx=i) for i in range(5)]
        with pytest.raises(ValueError):
            stats.switching_contrast(a, b)

    @pytest.mark.parametrize("gated_count, excess", [(0, math.inf), (5, -math.inf)])
    def test_zero_sigma_fails_the_excess_band(self, gated_count, excess):
        # 50 shots of constant counts at every fig2 point: the contrast's
        # sigma is 0, so its excess over the bound is infinite, not 0
        preset = presets.get_preset("fig2")
        runs = [[record(detected_source=5 if p.meta["n_g_stored"] == 0.0 else gated_count,
                        idx=i) for i in range(50)] for p in preset.points]
        _, _, summary, _ = runner.analyze_preset(preset, runs)
        report = runner.compare_report(summary, runner.reference_for("fig2"))
        for ng in (0.4, 1.4, 2.9):
            assert summary[f"contrast_excess_sigmas_ng_{ng}"]["value"] == excess
            assert f"FAIL contrast_excess_sigmas_ng_{ng}: {excess} in [-99, 3]" in report.lines
        assert not report.passed


@pytest.fixture(scope="module")
def fig3_like():
    cfg = make_config(
        source=SourceDrive(60.0, 0.0),
        detection=DetectionChain(1.0, 0.43, 0.0, 8000.0),
        n_shots=25_000, master_seed=8)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def decay_runs():
    cfg = make_config(
        coop=constant_model(3.3),
        timing=TimingSequence(1e-6, 0.0, 1e-6, 0.0),
        gate=GatePulse(0.5, 1.0, 1.0),
        source=SourceDrive(0.0, 0.0),
        n_shots=15_000, retrieval_mode=True)
    runs = []
    for i, mu in enumerate((0.0, 0.7, 1.4, 2.1, 2.8, 3.6, 4.6, 5.6)):
        runs.append(run_experiment(
            replace(with_source_strength(cfg, mu), master_seed=40 + i)))
    return runs


class TestHistogram:
    def test_columns_normalized(self, fig3_like):
        hist = stats.build_histogram({0.0: fig3_like})
        assert abs(hist.rates[0].sum() - 1.0) < 1e-9

    def test_gate_off_unimodal(self):
        cfg = make_config(gate=GatePulse(0.0, 1.0), n_shots=4000, master_seed=9)
        hist = stats.build_histogram({0.0: run_experiment(cfg)})
        assert math.isnan(hist.extinction_factor[0])
        assert math.isnan(hist.threshold[0])

    def test_extinction_factor_near_measured_value(self, fig3_like):
        hist = stats.build_histogram({0.0: fig3_like})
        assert 9.0 <= hist.extinction_factor[0] <= 14.0

    def test_threshold_split_matches_truth(self, fig3_like):
        hist = stats.build_histogram({0.0: fig3_like})
        col = hist.column(0.0)
        assert hist.low_peak[col] < hist.threshold[col] < hist.high_peak[col]
        assert abs(hist.threshold_extinction_factor[col]
                   - hist.extinction_factor[col]) < 1.0

    def test_low_component_oracle(self):
        # weak gate: the blocked component mean is the enumeration average
        # of extinction over the stored-number mixture
        eta, nu, mu = 2.3665, 0.05, 60.0
        cfg = make_config(gate=GatePulse(nu, 1.0), source=SourceDrive(mu, 0.0),
                          n_shots=120_000, master_seed=10)
        records = run_experiment(cfg)
        hist = stats.build_histogram({0.0: records})
        ks = np.arange(1, 12)
        pk = sps.poisson.pmf(ks, nu)
        oracle = float(np.sum(pk * (1 + eta * ks) ** -2.0) / pk.sum())
        expected_low = mu * 0.66 * oracle
        assert abs(hist.low_mean[0] - expected_low) / expected_low < 0.05
        assert abs(hist.high_mean[0] - mu * 0.66) / (mu * 0.66) < 0.01

    def test_degenerate_binning_rejected(self):
        recs = [record(detected_source=0, idx=i) for i in range(10)]
        with pytest.raises(ValueError):
            stats.build_histogram({0.0: recs})

    def test_empty_groups_rejected(self):
        with pytest.raises(ValueError):
            stats.build_histogram({})

    def test_single_excitation_fraction(self, fig3_like):
        p1, err = stats.single_excitation_fraction(fig3_like)
        assert abs(p1 - 0.7707) <= 4 * err + 0.005

    @pytest.mark.parametrize("stored, fraction", [(1, 1.0), (2, 0.0)])
    def test_single_excitation_fraction_of_one_kind(self, stored, fraction):
        # every shot with an excitation stored the same number: p is 0 or
        # 1 and its standard error sqrt(p (1 - p) / n) is exactly 0
        recs = [record(n_stored=stored if i % 3 else 0, idx=i) for i in range(30)]
        assert stats.single_excitation_fraction(recs) == (fraction, 0.0)


class TestGain:
    def test_perfect_blocking_limit(self):
        cfg = make_config(coop=constant_model(900.0, eta0=900.0),
                          gate=GatePulse(0.7, 1.0),
                          source=SourceDrive(25.0, 0.0),
                          n_shots=20_000, master_seed=11)
        est = stats.gain(run_experiment(cfg), resamples=200)
        assert est.g / est.source_strength > 0.99
        assert est.g <= est.source_strength
        assert abs(est.g_outside - 0.66 * est.g) < 0.05 * est.g

    def test_threshold_and_truth_agree_when_separated(self):
        cfg = make_config(source=SourceDrive(60.0, 0.0),
                          detection=DetectionChain(1.0, 0.43, 0.0, 8000.0),
                          n_shots=20_000, master_seed=12)
        records = run_experiment(cfg)
        hist = stats.build_histogram({0.0: records})
        truth = stats.gain(records, resamples=300)
        thresh = stats.gain(records, labels="threshold",
                            threshold=hist.threshold[0], resamples=300)
        tol = truth.err_low + truth.err_high + thresh.err_low + thresh.err_high
        assert abs(truth.g - thresh.g) <= tol

    def test_empty_component_rejected(self):
        recs = [record(n_stored=0, intra=10, outside=7, idx=i) for i in range(20)]
        with pytest.raises(ValueError):
            stats.gain(recs, resamples=10)

    def test_unknown_labels_rejected(self):
        recs = [record(idx=i) for i in range(5)]
        with pytest.raises(ValueError):
            stats.gain(recs, labels="psychic")


class TestRetrievalCurve:
    def test_normalization_point_is_one(self, decay_runs):
        curve = stats.retrieval_curve(decay_runs, condition_single=True,
                                      resamples=50)
        assert curve.fractions[0] == 1.0

    def test_destruction_constant(self, decay_runs):
        curve = stats.retrieval_curve(decay_runs, condition_single=True,
                                      resamples=200)
        assert 2.65 <= curve.m_s0 <= 2.95
        assert abs(curve.m_s0_outside / curve.m_s0 - 0.66) <= 0.025

    def test_non_decreasing_data_reported(self):
        rng = np.random.default_rng(13)
        points = []
        for strength, p_ret in ((0.0, 0.2), (1.0, 0.4), (2.0, 0.6), (3.0, 0.8)):
            recs = []
            for i in range(400):
                stored = i % 2
                recs.append(record(
                    n_stored=stored, intra=int(rng.poisson(strength)),
                    retrieved=bool(stored and rng.random() < p_ret), idx=i))
            points.append(recs)
        with pytest.raises((stats.FitError, ValueError)):
            stats.retrieval_curve(points, resamples=10)

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            stats.retrieval_curve([[record()]], resamples=10)

    def test_empty_selection_names_the_point(self):
        # point 1 stored no single excitation, so condition_single selects nothing
        points = [[record(n_stored=k, intra=i, retrieved=k == 1, idx=i)
                   for i, k in enumerate(stored)]
                  for stored in ([0, 1, 1, 0], [0, 2, 2, 0], [0, 1, 0, 1])]
        with pytest.raises(ValueError, match="point 1 has no shot in its retrieval"):
            stats.retrieval_curve(points, condition_single=True, resamples=10)


class TestG2Cross:
    def test_independent_channels_give_unity(self):
        rng = np.random.default_rng(14)
        g = rng.poisson(0.12, size=100_000)
        s = rng.poisson(0.4, size=100_000)
        res = stats.g2_cross(g, s, resamples=400)
        err = max(res.raw_err_low, res.raw_err_high)
        assert abs(res.raw - 1.0) <= 3 * err
        assert abs(res.corrected - 1.0) <= 3 * err

    def test_shuffling_removes_correlation(self):
        cfg = make_config(gate=GatePulse(0.8, 1.0, 1.0),
                          timing=TimingSequence(1e-6, 0.0, 1e-6, 0.0),
                          source=SourceDrive(1.0, 0.0),
                          n_shots=100_000, master_seed=15, retrieval_mode=True)
        records = run_experiment(cfg)
        g, s = records.detected_gate, records.detected_source
        correlated = stats.g2_cross(g, s, resamples=200)
        assert correlated.raw < 0.6
        rng = np.random.default_rng(16)
        shuffled = stats.g2_cross(g, rng.permutation(s), resamples=400)
        err = max(shuffled.raw_err_low, shuffled.raw_err_high)
        assert abs(shuffled.raw - 1.0) <= 3 * err

    def test_background_correction_directions(self):
        rng = np.random.default_rng(17)
        n = 50_000
        stored = rng.random(n) < 0.3
        g_sig = (stored & (rng.random(n) < 0.4)).astype(float)
        s_sig = rng.poisson(np.where(stored, 0.05, 0.5))
        dg, ds = 0.02, 0.03
        g = g_sig + rng.poisson(dg, size=n)
        s = s_sig + rng.poisson(ds, size=n)
        res = stats.g2_cross(g, s, backgrounds=(dg, ds), resamples=200)
        assert res.corrected < res.raw

    def test_zero_channel_rejected(self):
        with pytest.raises(ValueError):
            stats.g2_cross(np.zeros(10), np.ones(10))

    def test_excess_background_rejected(self):
        with pytest.raises(ValueError):
            stats.g2_cross(np.ones(10), np.ones(10), backgrounds=(2.0, 0.0))

    def test_one_shot_rejected_by_count(self):
        with pytest.raises(ValueError, match="at least 2 shots, got 1"):
            stats.g2_cross(np.ones(1), np.ones(1))
        with pytest.raises(ValueError, match="equal-length 1-d"):
            stats.g2_cross(np.ones(3), np.ones(2))


class TestFits:
    def test_presets_run_without_scipy(self, tmp_path):
        # scipy is a test dependency only: both presets that fit run with
        # every scipy import refused
        code = (
            "import sys\n"
            "class Refuse:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] == 'scipy':\n"
            "            raise ModuleNotFoundError(f'{name} is refused')\n"
            "sys.meta_path.insert(0, Refuse())\n"
            "from photon_transistor import presets, runner\n"
            "for name, shots, fit in (('fig4ab', 100, 'saturation_scale'),\n"
            "                         ('fig4e', 400, 'm_s0_intracavity')):\n"
            "    run = runner.run_preset(presets.get_preset(name), shots, 77,\n"
            f"                            {str(tmp_path)!r} + '/' + name)\n"
            "    print(run.summary[fit]['value'])\n"
            "print('scipy' in sys.modules)\n")
        src = str(Path(stats.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        *fits, scipy_loaded = done.stdout.split()
        assert len(fits) == 2 and all(math.isfinite(float(v)) for v in fits)
        assert scipy_loaded == "False"

    def test_exponential_exact_recovery(self):
        xs = np.linspace(0, 8, 15)
        ys = np.exp(-xs / 2.0)
        amp, decay, residuals = stats.fit_exponential(xs, ys)
        assert abs(decay - 2.0) < 1e-6
        assert abs(amp - 1.0) < 1e-6
        assert np.max(np.abs(residuals)) < 1e-8

    def test_linear_exact_recovery(self):
        xs = np.array([0.0, 1.0, 2.0, 5.0])
        slope, intercept = stats.fit_linear(xs, 3.0 * xs + 1.0)
        assert abs(slope - 3.0) < 1e-12
        assert abs(intercept - 1.0) < 1e-12

    def test_noisy_exponential_within_band(self):
        rng = np.random.default_rng(18)
        xs = np.linspace(0, 8, 20)
        ys = np.exp(-xs / 2.8) * (1 + 0.05 * rng.standard_normal(20))
        _, decay, _ = stats.fit_exponential(xs, ys)
        assert 2.5 <= decay <= 3.1

    def test_exponential_input_validation(self):
        for xs, ys in (([1.0, 2.0], [1.0, 0.5]),                 # fewer than 3 points
                       ([1.0, 1.0, 2.0], [1.0, 1.0, 0.5]),       # a repeated x
                       ([0.0, math.nan, 2.0], [1.0, 0.6, 0.4]),
                       ([0.0, 1.0, math.inf], [1.0, 0.6, 0.4]),
                       ([0.0, 1.0, 2.0], [1.0, math.nan, 0.4]),
                       ([0.0, 1.0, 2.0], [-math.inf, 0.6, 0.4]),
                       ([0.0, 1.0, 2.0, 3.0], [1.0, 0.6, 0.4]),  # unequal lengths
                       ([0.0, 1.0, 2.0], [1.0, 0.6, 0.4, 0.2])):
            with pytest.raises(ValueError):
                stats.fit_exponential(xs, ys)

    def test_unconverged_fit_raises(self, monkeypatch):
        # one iteration: far from its log-linear start, no fit converges;
        # retrieval_curve passes the solver's FitError on as it is
        monkeypatch.setattr(stats, "_FIT_ITERATIONS", 1)
        xs = np.arange(9.0)
        ys = np.exp(-xs / 2.0) + 0.3
        with pytest.raises(stats.FitError) as fit_error:
            stats.fit_exponential(xs, ys)
        # strength x from one empty shot, retrieval fraction ~ y / 1.3
        points = [[record(intra=int(x))] + [record(n_stored=1, retrieved=i < 100 * y, idx=i)
                                            for i in range(1, 201)]
                  for x, y in zip(xs, ys)]
        with pytest.raises(stats.FitError) as curve_error:
            stats.retrieval_curve(points, resamples=10)
        assert str(curve_error.value) == str(fit_error.value)
        assert curve_error.value.__cause__ is None

    def test_linear_rank_deficient(self):
        with pytest.raises(ValueError):
            stats.fit_linear([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


class TestSpectrumType:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stats.Spectrum((0.0,), (1.0, 0.5), (0.0, 0.0))

    def test_negative_sem_rejected(self):
        with pytest.raises(ValueError):
            stats.Spectrum((0.0,), (1.0,), (-0.1,))
