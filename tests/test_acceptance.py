"""Acceptance suite: one test per headline criterion, each printing a
pass line with the measured numbers.  Every tolerance is pinned here;
the sweeps run at the scale stated in the criterion."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps

from photon_transistor import stats
from photon_transistor.engine import (DetectionChain, GatePulse, PumpingModel,
                                      RunConfig, SourceDrive, SpinWave,
                                      TimingSequence, evolve_source_window,
                                      run_experiment, shot_rng,
                                      with_source_strength)
from photon_transistor.presets import (DEFAULTS, constant_cooperativity,
                                       get_preset, scale_point_shots)
from photon_transistor.qed import (extinction, free_space_scatter_prob)
from photon_transistor.runner import (analyze_preset, compare_report,
                                      point_configs, reference_for,
                                      run_preset, run_preset_points)

NO_PUMP = PumpingModel(0.0, 1.0)
IDEAL = DetectionChain(1.0, 1.0, 0.0, 0.0)


def report(criterion, name, detail):
    print(f"[ACCEPTANCE] criterion {criterion} ({name}): PASS  {detail}")


# ---------------------------------------------------------------------------
# shared expensive runs

@pytest.fixture(scope="module")
def destruction_runs():
    """~10^6 shots of the constant eta=3.3 retrieval-decay scan."""
    cfg = RunConfig(
        cavity=DEFAULTS.cavity, atoms=DEFAULTS.atoms,
        coop=constant_cooperativity(3.3),
        timing=TimingSequence(1e-6, 0.0, 0.1e-6, 0.0),
        gate=GatePulse(1.0, 1.0, 1.0),
        source=SourceDrive(0.0, 0.0),
        pumping=NO_PUMP, detection=IDEAL,
        n_shots=111_000, master_seed=0, retrieval_mode=True)
    grid = (0.0, 0.7, 1.4, 2.1, 2.8, 3.6, 4.5, 5.5, 6.5)
    seeds = np.random.SeedSequence(1000).generate_state(len(grid), dtype=np.uint64)
    return [run_experiment(replace(with_source_strength(cfg, mu), master_seed=int(s)))
            for mu, s in zip(grid, seeds)]


@pytest.fixture(scope="module")
def fig3_resonant():
    """10^5 resonant shots of the bimodal-histogram preset."""
    preset = get_preset("fig3")
    point = next(p for p in preset.points if p.meta["detuning_mhz"] == 0.0)
    return run_experiment(scale_point_shots(point, 100_000, 77))


def test_criterion_1_analytic_extinction():
    assert extinction(1.5) == 0.16
    assert extinction(0.0) == 1.0
    report(1, "analytic extinction", "extinction(1.5) = 0.1600 exactly")


def test_criterion_2_destruction_constant(destruction_runs):
    curve = stats.retrieval_curve(destruction_runs, condition_single=True,
                                  resamples=300)
    assert abs(curve.m_s0 - 2.80) <= 0.05
    ratio = curve.m_s0_outside / curve.m_s0
    assert abs(ratio - 0.66) <= 0.015
    assert 1.75 <= curve.m_s0_outside <= 1.95
    report(2, "destruction constant",
           f"m_s0 = {curve.m_s0:.3f} (intracavity, target 2.80+-0.05), "
           f"outside = {curve.m_s0_outside:.3f}, unit ratio = {ratio:.3f}")


def test_criterion_3_bimodal_histogram(fig3_resonant):
    hist = stats.build_histogram({0.0: fig3_resonant})
    col = hist.column(0.0)
    factor = hist.extinction_factor[col]
    assert 9.0 <= factor <= 13.0
    # clearly separated components: an observable valley sits between them
    assert hist.low_peak[col] <= 4.0
    assert hist.high_peak[col] >= 14.0
    assert hist.low_peak[col] < hist.threshold[col] < hist.high_peak[col]
    p1, p1_err = stats.single_excitation_fraction(fig3_resonant)
    assert abs(p1 - 0.771) <= 0.01
    assert p1_err < 0.01
    report(3, "bimodal histogram",
           f"extinction factor = {factor:.2f} (target 11+-2), "
           f"peaks at {hist.high_peak[col]:.0f}/{hist.low_peak[col]:.0f}, "
           f"P(1|>=1) = {p1:.4f} (target 0.771+-0.01)")


def test_criterion_4_switching_contrast_bound():
    preset = get_preset("fig2")
    resonant = {p.meta["n_g_stored"]: p for p in preset.points
                if p.meta["detuning_mhz"] == 0.0}
    runs = {ng: run_experiment(scale_point_shots(pt, 10_000, int(1000 * ng) + 3))
            for ng, pt in resonant.items()}
    reference = runs[0.0]
    lines = []
    resonant_means = []
    for ng in (0.0, 0.4, 1.4, 2.9):
        resonant_means.append(np.mean(runs[ng].detected_source))
    # nested spectra: resonant transmission strictly decreasing with gate mean
    assert all(a > b for a, b in zip(resonant_means, resonant_means[1:]))
    for ng in (0.4, 1.4, 2.9):
        contrast, sigma = stats.switching_contrast(runs[ng], reference)
        bound = 1.0 - math.exp(-ng)
        assert contrast <= bound + 3 * sigma
        assert contrast >= 0.8 * bound
        lines.append(f"ng={ng}: {contrast:.3f} vs bound {bound:.3f} "
                     f"(ratio {contrast / bound:.3f})")
    report(4, "switching-contrast bound", "; ".join(lines))


def test_criterion_5_cross_correlation():
    # calibrated detection defaults
    preset = get_preset("g2")
    runs = run_preset_points(point_configs(preset, 120_000, 99))
    _, _, summary, _ = analyze_preset(preset, runs)
    raw = summary["g2_raw"]["value"]
    corrected = summary["g2_corrected"]["value"]
    assert 0.21 <= raw <= 0.38
    assert 0.11 <= corrected <= 0.25

    # ideal detection with the extinction-matched constant cooperativity:
    # the corrected correlation equals the one-atom transmission
    cfg = RunConfig(
        cavity=DEFAULTS.cavity, atoms=DEFAULTS.atoms,
        coop=constant_cooperativity(1.5),
        timing=TimingSequence(1e-6, 0.0, 1e-6, 0.0),
        gate=GatePulse(0.05, 1.0, 1.0),
        source=SourceDrive(0.5, 0.0),
        pumping=NO_PUMP, detection=IDEAL,
        n_shots=150_000, master_seed=321, retrieval_mode=True)
    records = run_experiment(cfg)
    ideal = stats.g2_cross(records.detected_gate, records.detected_source, resamples=300)
    assert abs(ideal.corrected - 0.16) <= 0.03
    report(5, "g2 anticorrelation",
           f"raw = {raw:.3f} (band [0.21, 0.38]), "
           f"corrected = {corrected:.3f} (band [0.11, 0.25]), "
           f"ideal eta=1.5 corrected = {ideal.corrected:.3f} (target 0.16+-0.03)")


def test_criterion_6_gain_curve():
    preset = get_preset("fig4ab")
    runs = run_preset_points(point_configs(preset, 2500, 2024))
    _, rows, summary, _ = analyze_preset(preset, runs)
    slope_ratio = summary["gain_slope_ratio"]["value"]
    peak = summary["gain_peak_intracavity"]["value"]
    peak_out = summary["gain_peak_outside"]["value"]
    assert 0.95 <= slope_ratio <= 1.05
    assert peak > 600.0
    assert peak_out > 400.0
    # saturation: the curve flattens to well under its small-signal slope
    xs = [r[0] for r in rows]
    gs = [r[2] for r in rows]
    late_slope = (gs[-1] - gs[-2]) / (xs[-1] - xs[-2])
    assert late_slope < 0.15 * summary["gain_slope"]["value"]
    assert gs[-1] < 0.5 * summary["gain_slope"]["value"] * xs[-1]
    report(6, "gain curve",
           f"small-signal slope ratio = {slope_ratio:.4f} (within 5%), "
           f"peak gain = {peak:.0f} intracavity / {peak_out:.0f} outside, "
           f"late slope fraction = {late_slope / summary['gain_slope']['value']:.3f}")


def test_criterion_7_retrieval_mode_gain():
    preset = get_preset("fig4e")
    runs = run_preset_points(point_configs(preset, 40_000, 5150))
    _, _, summary, _ = analyze_preset(preset, runs)
    report_cmp = compare_report(summary, reference_for("fig4e"))
    assert report_cmp.passed, str(report_cmp)
    g_r = summary["g_r_intracavity"]["value"]
    g_r_out = summary["g_r_outside"]["value"]
    assert 1.8 <= g_r <= 2.6
    assert abs(g_r_out / g_r - 0.66) <= 0.03
    report(7, "retrieval-mode gain",
           f"G_r = {g_r:.2f} (band [1.8, 2.6]), outside = {g_r_out:.2f} "
           f"(ratio {g_r_out / g_r:.3f}), "
           f"m_s0 = {summary['m_s0_intracavity']['value']:.3f}")


class TestCriterion8Properties:
    def test_poisson_sampler_moments(self):
        rng = shot_rng(0, 0)
        lam = 2.9
        draws = rng.poisson(lam, size=1_000_000).astype(float)
        assert abs(draws.mean() - lam) < 5 * math.sqrt(lam / draws.size)
        var_se = math.sqrt((np.mean((draws - draws.mean()) ** 4)
                            - draws.var() ** 2) / draws.size)
        assert abs(draws.var() - lam) < 5 * var_se
        report("8a", "poisson moments", f"mean {draws.mean():.4f}, var {draws.var():.4f}")

    def test_binomial_thinning_composition(self):
        rng = shot_rng(0, 1)
        n = 100_000
        two = rng.binomial(rng.binomial(rng.poisson(25.0, n), 0.8), 0.55)
        one = rng.binomial(rng.poisson(25.0, n), 0.44)
        top = max(two.max(), one.max())
        h1 = np.bincount(two, minlength=top + 1)
        h2 = np.bincount(one, minlength=top + 1)
        keep = (h1 + h2) > 10
        _, p, _, _ = sps.chi2_contingency(np.vstack([h1[keep], h2[keep]]))
        assert p > 1e-3
        report("8b", "thinning composition", f"chi2 p = {p:.3f}")

    def test_geometric_collapse_distribution(self):
        eta = 3.3
        s = free_space_scatter_prob(eta)
        rng = shot_rng(0, 2)
        src = SourceDrive(35.0, 0.0)
        end_on_scatter = PumpingModel(1.0, 0.0)
        cavity, atoms = DEFAULTS.cavity, DEFAULTS.atoms
        firsts = []
        for _ in range(100_000):
            spin = SpinWave(1, [eta])
            evolve_source_window(spin, src, end_on_scatter, cavity, atoms, rng)
            if spin.first_scatter_photon is not None:
                firsts.append(spin.first_scatter_photon)
        firsts = np.asarray(firsts)
        assert abs(firsts.mean() - 1.0 / s) <= 0.05
        kmax = 22
        observed = np.bincount(np.minimum(firsts, kmax + 1))[1:]
        pmf = s * (1 - s) ** (np.arange(1, kmax + 1) - 1)
        expected = np.append(pmf, (1 - s) ** kmax) * firsts.size
        _, p = sps.chisquare(observed, expected * observed.sum() / expected.sum())
        assert p > 1e-3
        report("8c", "geometric collapse count",
               f"mean {firsts.mean():.3f} vs {1 / s:.3f}, chi2 p = {p:.3f}")

    def test_empty_cavity_fwhm(self):
        preset = get_preset("fig2")
        base = next(p for p in preset.points
                    if p.meta["n_g_stored"] == 0.0
                    and p.meta["detuning_mhz"] == 0.0).config
        grid = (-0.6, -0.55, -0.5, -0.45, -0.4, 0.0, 0.4, 0.45, 0.5, 0.55, 0.6)
        groups = {}
        for i, dmhz in enumerate(grid):
            cfg = replace(base,
                          source=replace(base.source,
                                         detuning=dmhz * 2 * math.pi * 1e6),
                          n_shots=20_000, master_seed=555 + i)
            groups[dmhz] = run_experiment(cfg)
        spectrum = stats.average_spectrum(
            groups, stats.resonant_reference(groups[0.0]))
        ds = np.array(spectrum.detunings)
        ts = np.array(spectrum.mean_transmission)

        def crossing(side):
            sel = ds * side > 0
            x, y = ds[sel] * side, ts[sel]
            order = np.argsort(x)
            x, y = x[order], y[order]
            i = int(np.searchsorted(-y, -0.5))
            return x[i - 1] + (y[i - 1] - 0.5) * (x[i] - x[i - 1]) / (y[i - 1] - y[i])

        fwhm_mhz = crossing(+1) + crossing(-1)
        assert abs(fwhm_mhz - 1.0) < 0.01
        report("8d", "empty-cavity FWHM", f"{fwhm_mhz:.4f} MHz vs kappa = 1.0 MHz")

    def test_independent_channels_unit_g2(self):
        rng = shot_rng(0, 3)
        g = rng.poisson(0.15, size=100_000)
        s = rng.poisson(0.3, size=100_000)
        res = stats.g2_cross(g, s, resamples=400)
        err = max(res.raw_err_low, res.raw_err_high)
        assert abs(res.raw - 1.0) <= 3 * err
        report("8e", "independent-channel g2", f"{res.raw:.4f} +- {err:.4f}")

    def test_serial_parallel_byte_identical(self, tmp_path):
        preset = get_preset("g2")
        run_preset(preset, n_shots=200, seed=8, out_dir=tmp_path / "serial",
                   workers=1)
        run_preset(preset, n_shots=200, seed=8, out_dir=tmp_path / "parallel",
                   workers=2)
        for name in ("manifest.json", "sweep.csv", "summary.json"):
            a = (tmp_path / "serial" / name).read_bytes()
            b = (tmp_path / "parallel" / name).read_bytes()
            assert a == b
        report("8f", "determinism", "serial and parallel artifacts byte-identical")

    def test_histogram_columns_normalized(self, fig3_resonant):
        hist = stats.build_histogram({0.0: fig3_resonant})
        assert abs(hist.rates[0].sum() - 1.0) <= 1e-9
        report("8g", "histogram normalization",
               f"column sum deviation = {abs(hist.rates[0].sum() - 1.0):.2e}")
