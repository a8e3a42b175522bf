import math

import numpy as np
import pytest
from scipy.integrate import quad

from photon_transistor.qed import (AtomParams, CavityParams, CooperativityModel,
                                   cavity_transmission_spectrum,
                                   effective_cooperativities, extinction,
                                   free_space_scatter_prob,
                                   matched_level_mixture,
                                   mean_blocked_transmission,
                                   sample_cooperativity,
                                   _sample_cooperativities)

CAVITY = CavityParams(kappa=2 * math.pi * 1e6, mirror_transmission=6.6e-6,
                      mirror_loss=3.4e-6)
ATOMS = AtomParams(gamma=2 * math.pi * 5.2e6, eta0=8.6, tau_spinwave=2.1e-6)


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


class TestEffectiveCooperativities:
    def test_constant_distribution_collapses(self):
        model = CooperativityModel(eta0=8.6, levels=((2.8, 1.0),))
        rng = np.random.default_rng(6)
        eff = effective_cooperativities(model, 1_000_000, rng)
        assert abs(eff.eta_mean - 2.8) < 1e-3
        assert abs(eff.eta_transmission - 2.8) < 1e-3
        assert abs(eff.eta_scattering - 2.8) < 1e-3

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
        rng = np.random.default_rng(7)
        eff = effective_cooperativities(model, 1_000_000, rng)
        assert abs(eff.eta_mean - 2.8) < 0.01
        assert abs(extinction(eff.eta_transmission) - mean_t) < 0.002
        assert abs(free_space_scatter_prob(eff.eta_scattering) - mean_s) < 0.002
        # the single-weight model lands well away from the (1.5, 3.3) pair
        assert abs(eff.eta_transmission - 1.112) < 0.02
        assert abs(eff.eta_scattering - 3.792) < 0.05

    def test_matched_mixture_hits_both_targets(self):
        model = matched_level_mixture(eta_scattering=3.3, mean_extinction=0.16,
                                      eta0=8.6)
        rng = np.random.default_rng(8)
        eff = effective_cooperativities(model, 500_000, rng)
        # scattering is invariant under eta -> 1/eta, so this one is exact
        assert abs(eff.eta_scattering - 3.3) < 1e-9
        assert abs(eff.eta_transmission - 1.5) < 0.02
        assert abs(eff.eta_mean - 2.707) < 0.01

    def test_small_sample_count_rejected(self):
        model = CooperativityModel(eta0=8.6)
        with pytest.raises(ValueError):
            effective_cooperativities(model, 9999, np.random.default_rng(0))


class TestBlockedTransmissionOracle:
    def test_single_excitation_limit(self):
        model = CooperativityModel(eta0=8.6, levels=((1.5, 1.0),))
        rng = np.random.default_rng(9)
        mean_t = mean_blocked_transmission(model, 0.02, 500_000, rng)
        assert abs(mean_t - extinction(1.5)) < 0.002


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
