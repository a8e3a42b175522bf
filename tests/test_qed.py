import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from photon_transistor.presets import matched_pair_cooperativity
from photon_transistor.qed import (AtomParams, CavityParams,
                                   CooperativityModel,
                                   cavity_transmission_spectrum,
                                   effective_cooperativities, extinction,
                                   free_space_scatter_prob,
                                   matched_level_mixture,
                                   mean_blocked_transmission,
                                   sample_cooperativity)

CAVITY = CavityParams(kappa=2 * math.pi * 1e6, mirror_transmission=6.6e-6,
                      mirror_loss=3.4e-6)
ATOMS = AtomParams(gamma=2 * math.pi * 5.2e6, eta0=8.6, tau_spinwave=2.1e-6)


def _sample_cooperativities(model, n, rng):
    """``n`` draws of ``sample_cooperativity``: the same rule, consuming the
    stream the same way."""
    if model.levels is not None:
        etas = np.array([lv[0] for lv in model.levels])
        cdf = np.cumsum([lv[1] for lv in model.levels])
        idx = np.searchsorted(cdf, rng.random(n), side="right")
        return etas[np.minimum(idx, etas.size - 1)]
    if model.standing_wave:
        kz = rng.uniform(0.0, math.pi, size=n)
        return model.eta0 * model.geometric_weight * np.cos(kz) ** 2
    return np.full(n, model.eta0 * model.geometric_weight)


class TestExtinction:
    def test_empty_cavity(self):
        assert extinction(0.0) == 1.0

    def test_transmission_matched_value(self):
        assert extinction(1.5) == 0.16

    def test_peak_cooperativity(self):
        assert abs(extinction(8.6) - 1.0 / 92.16) < 1e-15

    def test_monotone_decreasing(self):
        etas = np.linspace(0, 30, 200)
        vals = [extinction(e) for e in etas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_inverse_identity_machine_precision(self):
        for eta in np.linspace(0.0, 100.0, 500):
            assert abs(extinction(eta) * (1 + eta) ** 2 - 1.0) < 5e-15

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            extinction(-0.1)


class TestScatterProb:
    def test_no_coupling(self):
        assert free_space_scatter_prob(0.0) == 0.0

    def test_maximum_at_unity(self):
        assert free_space_scatter_prob(1.0) == 0.5

    def test_scattering_matched_value(self):
        val = free_space_scatter_prob(3.3)
        assert abs(val - 6.6 / 18.49) < 1e-15
        assert round(1.0 / val, 2) == 2.80

    def test_bounded_by_half(self):
        for eta in np.linspace(0, 50, 300):
            val = free_space_scatter_prob(eta)
            assert val <= 0.5
            if abs(eta - 1.0) > 1e-9:
                assert val < 0.5

    def test_reciprocal_invariance(self):
        for eta in (1.7, 3.3, 9.0):
            assert math.isclose(free_space_scatter_prob(eta),
                                free_space_scatter_prob(1 / eta), rel_tol=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            free_space_scatter_prob(-1e-9)


class TestSpectrum:
    def test_empty_resonant(self):
        assert cavity_transmission_spectrum(0.0, (), CAVITY, ATOMS) == 1.0

    def test_half_linewidth(self):
        assert cavity_transmission_spectrum(CAVITY.kappa / 2, (), CAVITY, ATOMS) == 0.5

    def test_reduces_to_extinction(self):
        t = cavity_transmission_spectrum(0.0, ((1.5, 0.0),), CAVITY, ATOMS)
        assert t == extinction(1.5)

    def test_summed_susceptibilities(self):
        t = cavity_transmission_spectrum(0.0, ((0.7, 0.0), (0.8, 0.0)), CAVITY, ATOMS)
        assert abs(t - extinction(1.5)) < 1e-15

    def test_even_in_detuning(self):
        for d in np.linspace(0.1, 3, 7) * CAVITY.kappa:
            tp = cavity_transmission_spectrum(d, ((2.0, d),), CAVITY, ATOMS)
            tm = cavity_transmission_spectrum(-d, ((2.0, -d),), CAVITY, ATOMS)
            assert math.isclose(tp, tm, rel_tol=1e-12)

    def test_empty_lorentzian_fwhm(self):
        # half maximum exactly at +-kappa/2
        for sign in (1, -1):
            t = cavity_transmission_spectrum(sign * CAVITY.kappa / 2, (), CAVITY, ATOMS)
            assert abs(t - 0.5) < 1e-12

    def test_far_detuned_blocker_is_transparent(self):
        t = cavity_transmission_spectrum(0.0, ((1.5, 50 * ATOMS.gamma),), CAVITY, ATOMS)
        assert t > 0.99

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            cavity_transmission_spectrum(0.0, ((-0.5, 0.0),), CAVITY, ATOMS)


class TestSampling:
    def test_degenerate_model(self):
        model = CooperativityModel(eta0=8.6, standing_wave=False, geometric_weight=1.0)
        rng = np.random.default_rng(0)
        assert all(sample_cooperativity(model, rng) == 8.6 for _ in range(50))

    def test_calibrated_mean(self):
        # rounded weight from the 2.8 mean calibration
        model = CooperativityModel(eta0=8.6, standing_wave=True, geometric_weight=0.65)
        rng = np.random.default_rng(1)
        mean = float(np.mean(_sample_cooperativities(model, 1_000_000, rng)))
        assert abs(mean - 2.8) <= 0.01

    def test_exact_weight_mean(self):
        model = CooperativityModel(eta0=8.6, standing_wave=True,
                                   geometric_weight=2.8 / 4.3)
        rng = np.random.default_rng(2)
        mean = float(np.mean(_sample_cooperativities(model, 1_000_000, rng)))
        assert abs(mean - 2.8) <= 0.006

    def test_standing_wave_average_is_half(self):
        model = CooperativityModel(eta0=8.6, standing_wave=True, geometric_weight=1.0)
        rng = np.random.default_rng(3)
        mean = float(np.mean(_sample_cooperativities(model, 1_000_000, rng)))
        assert abs(mean - 4.3) <= 0.01

    def test_samples_bounded(self):
        model = CooperativityModel(eta0=8.6, standing_wave=True, geometric_weight=0.9)
        rng = np.random.default_rng(4)
        samples = _sample_cooperativities(model, 10_000, rng)
        assert samples.min() >= 0.0
        assert samples.max() <= 8.6

    def test_level_sampling_frequencies(self):
        model = CooperativityModel(eta0=8.6, levels=((3.3, 0.8), (0.3, 0.2)))
        rng = np.random.default_rng(5)
        draws = np.array([sample_cooperativity(model, rng) for _ in range(40_000)])
        assert set(np.unique(draws)) == {0.3, 3.3}
        assert abs(np.mean(draws == 3.3) - 0.8) < 0.01

    @pytest.mark.parametrize("model,rtol", [
        (CooperativityModel(eta0=8.6, levels=((3.3, 0.1), (0.3, 0.2), (1.0, 0.7))), 0.0),
        (CooperativityModel(eta0=8.6, standing_wave=False, geometric_weight=0.65), 0.0),
        (CooperativityModel(eta0=8.6, standing_wave=True, geometric_weight=2.8 / 4.3),
         1e-15),
    ])
    def test_vector_draws_equal_scalar_draws(self, model, rtol):
        # one rule, one stream: n vector draws are n scalar draws, and leave
        # the generator in the same place (cos**2 vs c*c may differ by an ulp)
        vector_rng, scalar_rng = np.random.default_rng(8), np.random.default_rng(8)
        vector = _sample_cooperativities(model, 5000, vector_rng)
        scalar = np.array([sample_cooperativity(model, scalar_rng) for _ in range(5000)])
        assert np.allclose(vector, scalar, rtol=rtol, atol=0.0)
        assert vector_rng.random() == scalar_rng.random()


LEVELS = st.lists(st.tuples(st.floats(0.0, 20.0), st.floats(0.01, 1.0)),
                  min_size=1, max_size=4)


def _levels_model(pairs):
    """A levels model on (eta, weight) pairs, weights normalized."""
    total = math.fsum(w for _, w in pairs)
    return CooperativityModel(eta0=max(eta for eta, _ in pairs), standing_wave=False,
                              levels=tuple((eta, w / total) for eta, w in pairs))


def _standing_wave(c):
    """A standing-wave model of peak cooperativity ``c``."""
    return CooperativityModel(eta0=20.0, standing_wave=True, geometric_weight=c / 20.0)


def _means(eff):
    """<eta>, <(1+eta)^-2> and <2 eta/(1+eta)^2> that ``eff`` matches."""
    return (eff.eta_mean, extinction(eff.eta_transmission),
            free_space_scatter_prob(eff.eta_scattering))


class TestEffectiveCooperativities:
    def test_constant_distribution_collapses(self):
        for model in (CooperativityModel(eta0=8.6, levels=((2.8, 1.0),)),
                      CooperativityModel(eta0=2.8, standing_wave=False)):
            eff = effective_cooperativities(model)
            assert abs(eff.eta_mean - 2.8) < 1e-12
            assert abs(eff.eta_transmission - 2.8) < 1e-12
            assert abs(eff.eta_scattering - 2.8) < 1e-12

    @pytest.mark.parametrize("c", [0.3, 3.3, 8.6, 20.0])
    def test_standing_wave_equals_gauss_legendre(self, c):
        # 200-point Gauss-Legendre quadrature over the phase, theta in [0, pi)
        nodes, weights = np.polynomial.legendre.leggauss(200)
        etas = c * np.cos(math.pi / 2 * (nodes + 1.0)) ** 2
        quadrature = [float(weights @ f) / 2 for f in
                      (etas, (1.0 + etas) ** -2, 2.0 * etas / (1.0 + etas) ** 2)]
        exact = _means(effective_cooperativities(_standing_wave(c)))
        assert np.allclose(exact, quadrature, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("model", [
        _standing_wave(2.8 / 4.3 * 8.6), matched_pair_cooperativity(),
        CooperativityModel(eta0=8.6, levels=((3.3, 0.1), (0.3, 0.2), (1.0, 0.7)))],
        ids=["standing-wave", "matched-pair", "three-levels"])
    def test_within_five_standard_errors_of_a_draw(self, model):
        etas = _sample_cooperativities(model, 1_000_000, np.random.default_rng(9))
        exact = _means(effective_cooperativities(model))
        for value, draws in zip(exact, (etas, (1.0 + etas) ** -2,
                                        2.0 * etas / (1.0 + etas) ** 2)):
            # the matched pair scatters the same at both levels, so its
            # scattering draws spread by rounding only
            sem = float(np.std(draws, ddof=1)) / math.sqrt(draws.size)
            assert abs(value - float(np.mean(draws))) < 5 * sem + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(pairs=LEVELS, data=st.data())
    def test_split_level_unchanged(self, pairs, data):
        k = data.draw(st.integers(0, len(pairs) - 1))
        eta, weight = pairs[k]
        split = [*pairs[:k], (eta, weight / 2), (eta, weight / 2), *pairs[k + 1:]]
        assert np.allclose(effective_cooperativities(_levels_model(pairs)),
                           effective_cooperativities(_levels_model(split)),
                           rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(pairs=LEVELS, data=st.data())
    def test_level_order_unchanged(self, pairs, data):
        shuffled = data.draw(st.permutations(pairs))
        assert np.allclose(effective_cooperativities(_levels_model(pairs)),
                           effective_cooperativities(_levels_model(shuffled)),
                           rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(pairs=LEVELS, c=st.floats(1e-4, 1e-2), standing_wave=st.booleans())
    def test_weak_coupling_limit(self, pairs, c, standing_wave):
        # T and S are linear in eta to first order, so as the largest
        # cooperativity c vanishes both effective values tend to <eta>
        # (eta_S as its reciprocal root), each off by at most a few c
        top = max(eta for eta, _ in pairs)
        assume(standing_wave or top > 0.0)
        model = (_standing_wave(c) if standing_wave else
                 _levels_model([(c * (eta / top), w) for eta, w in pairs]))
        eff = effective_cooperativities(model)
        assert abs(eff.eta_transmission / eff.eta_mean - 1.0) <= 4 * c
        assert abs(1.0 / eff.eta_scattering / eff.eta_mean - 1.0) <= 4 * c

    def test_calibrated_model_against_quadrature(self):
        # independent oracle: quadrature of the standing-wave averages
        weight = 2.8 / 4.3
        model = CooperativityModel(eta0=8.6, standing_wave=True,
                                   geometric_weight=weight)

        def eta_of(z):
            return 8.6 * weight * math.cos(z) ** 2

        mean_t, _ = quad(lambda z: extinction(eta_of(z)) / math.pi, 0, math.pi)
        mean_s, _ = quad(lambda z: free_space_scatter_prob(eta_of(z)) / math.pi,
                         0, math.pi)
        eff = effective_cooperativities(model)
        assert abs(eff.eta_mean - 2.8) < 1e-12
        assert abs(extinction(eff.eta_transmission) - mean_t) < 1e-12
        assert abs(free_space_scatter_prob(eff.eta_scattering) - mean_s) < 1e-12
        # the single-weight model lands well away from the (1.5, 3.3) pair
        assert abs(eff.eta_transmission - 1.112) < 0.02
        assert abs(eff.eta_scattering - 3.792) < 0.05

    def test_matched_mixture_hits_both_targets(self):
        model = matched_level_mixture(eta_scattering=3.3, mean_extinction=0.16,
                                      eta0=8.6)
        eff = effective_cooperativities(model)
        # the low level's weight f puts the average extinction at 0.16
        f = (0.16 - extinction(3.3)) / (extinction(1 / 3.3) - extinction(3.3))
        assert abs(eff.eta_scattering - 3.3) < 1e-12
        assert abs(eff.eta_transmission - 1.5) < 1e-12
        assert abs(eff.eta_mean - (3.3 - f * (3.3 - 1 / 3.3))) < 1e-12
        assert abs(eff.eta_mean - 2.7065) < 1e-4

    def test_sample_count_refused(self):
        # exact, so it takes no sample count and no generator
        model = CooperativityModel(eta0=8.6)
        with pytest.raises(TypeError):
            effective_cooperativities(model, 1_000_000, np.random.default_rng(0))
        with pytest.raises(TypeError):
            effective_cooperativities(model, n_samples=1_000_000)


def _one_shot_blocked_transmission(model, stored_mean, n_samples, rng):
    """The Monte Carlo oracle: the mean of (1 + sum eta)^-2 over the occupied
    draws of ``n_samples`` Poisson counts, and its standard error."""
    if not (math.isfinite(stored_mean) and stored_mean > 0):
        raise ValueError("stored_mean must be finite and > 0")
    counts = rng.poisson(stored_mean, size=n_samples)
    counts = counts[counts >= 1]
    if counts.size == 0:
        raise ValueError("no occupied draws; increase n_samples")
    etas = _sample_cooperativities(model, int(counts.sum()), rng)
    totals = np.add.reduceat(etas, np.concatenate(([0], np.cumsum(counts)[:-1])))
    weights = (1.0 + totals) ** -2
    return float(np.mean(weights)), float(np.std(weights, ddof=1) / math.sqrt(weights.size))


ORACLE_MODELS = [matched_pair_cooperativity(),
                 CooperativityModel(eta0=8.6, standing_wave=False)]

class TestBlockedTransmissionOracle:
    def test_single_excitation_limit(self):
        model = CooperativityModel(eta0=8.6, levels=((1.5, 1.0),))
        assert abs(mean_blocked_transmission(model, 0.02) - extinction(1.5)) < 0.002

    def test_fig4ab_prediction(self):
        mean_t = mean_blocked_transmission(matched_pair_cooperativity(), 0.4)
        assert abs((1.0 - mean_t) - 0.862771979441481) < 1e-12

    @pytest.mark.parametrize("model", ORACLE_MODELS, ids=["levels", "constant"])
    @pytest.mark.parametrize("stored_mean", [0.05, 0.4, 3.0])
    def test_within_four_standard_errors_of_a_draw(self, model, stored_mean):
        drawn, sem = _one_shot_blocked_transmission(model, stored_mean, 1_000_000,
                                                    np.random.default_rng(5))
        assert abs(mean_blocked_transmission(model, stored_mean) - drawn) < 4 * sem

    @settings(max_examples=60, deadline=None)
    @given(eta=st.floats(0.0, 20.0), stored_mean=st.floats(1e-3, 30.0))
    def test_split_level_unchanged(self, eta, stored_mean):
        whole = CooperativityModel(eta0=eta, standing_wave=False, levels=((eta, 1.0),))
        halves = CooperativityModel(eta0=eta, standing_wave=False,
                                    levels=((eta, 0.5), (eta, 0.5)))
        assert abs(mean_blocked_transmission(whole, stored_mean)
                   - mean_blocked_transmission(halves, stored_mean)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(pairs=LEVELS, stored_mean=st.floats(1e-3, 10.0), data=st.data())
    def test_level_order_unchanged(self, pairs, stored_mean, data):
        shuffled = data.draw(st.permutations(pairs))
        assert math.isclose(mean_blocked_transmission(_levels_model(pairs), stored_mean),
                            mean_blocked_transmission(_levels_model(shuffled), stored_mean),
                            rel_tol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(pairs=LEVELS, stored_mean=st.floats(1e-12, 1e-6))
    def test_single_excitation_as_stored_mean_vanishes(self, pairs, stored_mean):
        # P(n > 1 | n >= 1) is about stored_mean / 2
        model = _levels_model(pairs)
        limit = math.fsum(prob * extinction(eta) for eta, prob in model.levels)
        assert abs(mean_blocked_transmission(model, stored_mean) - limit) <= stored_mean

    def test_standing_wave_refused(self):
        with pytest.raises(ValueError, match="standing-wave"):
            mean_blocked_transmission(CooperativityModel(eta0=8.6), 0.4)

    @pytest.mark.parametrize("stored_mean, n_samples, match", [
        (0.0, 10, "stored_mean"),
        (-1.0, 10, "stored_mean"),
    ])
    def test_errors_equal_one_draw(self, stored_mean, n_samples, match):
        model = matched_pair_cooperativity()
        with pytest.raises(ValueError, match=match):
            _one_shot_blocked_transmission(model, stored_mean, n_samples,
                                           np.random.default_rng(0))
        with pytest.raises(ValueError, match=match):
            mean_blocked_transmission(model, stored_mean)

    @pytest.mark.parametrize("stored_mean, n_samples, match", [
        (math.nan, 10, "stored_mean"),
        (math.inf, 10, "stored_mean"),
        (0.4, 0, "n_samples"),
        (0.4, -5, "n_samples"),
        (0.4, 10.0, "n_samples"),
        (0.4, True, "n_samples"),
    ])
    def test_inputs_checked_at_entry(self, stored_mean, n_samples, match):
        model = matched_pair_cooperativity()
        if match == "n_samples":
            # the exact oracle takes no sample count, whatever its value
            with pytest.raises(TypeError, match=match):
                mean_blocked_transmission(model, stored_mean, n_samples=n_samples)
            return
        with pytest.raises(ValueError, match=match):
            _one_shot_blocked_transmission(model, stored_mean, n_samples,
                                           np.random.default_rng(0))
        with pytest.raises(ValueError, match=match):
            mean_blocked_transmission(model, stored_mean)

    def test_gain_slope_call_memory(self):
        # fig4ab's gain-slope prediction; the 10^6-sample draw it replaced peaked at 3.7 MB
        model = matched_pair_cooperativity()
        tracemalloc.start()
        try:
            mean_blocked_transmission(model, 0.4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6


class TestParameterValidation:
    def test_outcoupling(self):
        assert abs(CAVITY.outcoupling - 0.66) < 1e-12

    def test_cavity_invariants(self):
        with pytest.raises(ValueError, match="CavityParams.kappa"):
            CavityParams(kappa=-1.0, mirror_transmission=1e-6, mirror_loss=0.0)
        with pytest.raises(ValueError, match="mirror_transmission"):
            CavityParams(kappa=1.0, mirror_transmission=0.0, mirror_loss=0.0)

    def test_atom_invariants(self):
        with pytest.raises(ValueError, match="gamma"):
            AtomParams(gamma=0.0, eta0=8.6, tau_spinwave=1e-6)
        with pytest.raises(ValueError, match="tau_spinwave"):
            AtomParams(gamma=1.0, eta0=8.6, tau_spinwave=0.0)

    def test_model_invariants(self):
        with pytest.raises(ValueError, match="geometric_weight"):
            CooperativityModel(eta0=8.6, geometric_weight=0.0)
        with pytest.raises(ValueError, match="sum to 1"):
            CooperativityModel(eta0=8.6, levels=((2.0, 0.5), (1.0, 0.4)))
        with pytest.raises(ValueError, match="eta0"):
            CooperativityModel(eta0=2.0, levels=((3.0, 1.0),))
        with pytest.raises(ValueError, match="empty"):
            CooperativityModel(eta0=2.0, levels=())
        for levels in (((math.nan, 1.0),), ((1.0, math.nan),), ((1.0, 0.5), (2.0, math.nan))):
            with pytest.raises(ValueError, match="CooperativityModel.levels"):
                CooperativityModel(eta0=8.6, levels=levels)

    def test_mixture_construction_errors(self):
        with pytest.raises(ValueError):
            matched_level_mixture(eta_scattering=0.9, mean_extinction=0.3, eta0=8.6)
        with pytest.raises(ValueError):
            matched_level_mixture(eta_scattering=3.3, mean_extinction=0.01, eta0=8.6)
