"""Closed-form cavity QED relations for a single-mode cavity containing
blocking atoms, and averages over inhomogeneous atom-cavity coupling.

The central quantity is the single-atom cooperativity eta.  One resonant
atom coupled to the cavity mode suppresses the resonant transmission to

    T(eta) = (1 + eta)^-2

and scatters a fraction

    S(eta) = 2 eta / (1 + eta)^2

of the incident photons into free space (maximum 1/2 at eta = 1); the
remainder, eta^2/(1+eta)^2, is reflected.  T + S + R = 1, so the three
outcomes form a valid per-photon trinomial.

Atoms sit at different positions in the cavity standing wave and carry
different polarization overlap factors, so the cooperativity seen by a
stored excitation is a random variable.  Because T and S are nonlinear
in eta, averaging over that distribution yields *different* effective
cooperativities depending on which observable is matched; this module
computes all three (plain mean, extinction-matched, scattering-matched)
exactly, as finite sums over a model's levels or in closed form for a
standing wave.  The gain-slope prediction (``mean_blocked_transmission``)
is an exact finite sum too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Below this summed cooperativity the cavity is treated as empty.
ETA_FLOOR = 1e-12


def check_range(obj, names: str, lo: float = 0.0, hi: float = math.inf,
                low_open: bool = False) -> None:
    """Raise ValueError naming ``<Class>.<field>`` unless each field of
    ``obj`` in the space-separated ``names`` is finite and in [lo, hi],
    or in (lo, hi] with ``low_open``.  NaN and +-inf always fail."""
    for name in names.split():
        value = getattr(obj, name)
        if not (math.isfinite(value) and (lo < value if low_open else lo <= value)
                and value <= hi):
            raise ValueError(f"{type(obj).__name__}.{name} must be finite and in "
                             f"{'(' if low_open else '['}{lo:g}, {hi:g}], got {value!r}")


@dataclass(frozen=True)
class CavityParams:
    """Static cavity properties.

    kappa                full cavity linewidth (angular frequency, rad/s)
    mirror_transmission  useful output-mirror transmission fraction
    mirror_loss          parasitic mirror loss fraction
    """

    kappa: float
    mirror_transmission: float
    mirror_loss: float

    def __post_init__(self):
        check_range(self, "kappa mirror_transmission", low_open=True)
        check_range(self, "mirror_loss")

    @property
    def outcoupling(self) -> float:
        """Probability that a photon leaving the cavity exits through the
        output mirror rather than being lost."""
        return self.mirror_transmission / (self.mirror_transmission + self.mirror_loss)


@dataclass(frozen=True)
class AtomParams:
    """Atomic properties relevant to blocking and storage.

    gamma          excited-state linewidth (angular frequency, rad/s)
    eta0           peak single-atom cooperativity at a standing-wave antinode
    tau_spinwave   1/e lifetime of the collective excitation (s)
    optical_depth  ensemble optical depth (informational)
    """

    gamma: float
    eta0: float
    tau_spinwave: float
    optical_depth: float = 0.9

    def __post_init__(self):
        check_range(self, "gamma tau_spinwave", low_open=True)
        check_range(self, "eta0 optical_depth")


@dataclass(frozen=True)
class CooperativityModel:
    """Distribution of the cooperativity seen by a stored excitation.

    Two sampling modes:

    * continuous (default): eta = eta0 * geometric_weight * cos^2(kz) with
      kz uniform over a standing-wave period (or eta0 * geometric_weight
      when standing_wave is off).  geometric_weight absorbs polarization
      and beam-overlap factors into a single scale.
    * discrete: ``levels`` is a tuple of (eta, probability) pairs sampled
      directly.  Used to realize a target pair of effective
      cooperativities that no single-weight continuous model reaches.
    """

    eta0: float
    standing_wave: bool = True
    geometric_weight: float = 1.0
    levels: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        check_range(self, "eta0")
        check_range(self, "geometric_weight", hi=1.0, low_open=True)
        if self.levels is not None:
            if len(self.levels) == 0:
                raise ValueError("CooperativityModel.levels must not be empty")
            total = 0.0
            # written so that NaN fails every comparison
            for eta, prob in self.levels:
                if not (0 <= eta <= self.eta0 and prob >= 0):
                    raise ValueError("CooperativityModel.levels need etas in [0, eta0] and "
                                     f"probabilities >= 0, got {eta!r}:{prob!r}")
                total += prob
            if not abs(total - 1.0) <= 1e-9:
                raise ValueError("CooperativityModel.levels probabilities must sum to 1, "
                                 f"got {total!r}")


class EffectiveCooperativities(NamedTuple):
    eta_mean: float
    eta_transmission: float
    eta_scattering: float


def extinction(eta: float) -> float:
    """Resonant cavity transmission with total blocking cooperativity eta,
    T = (1 + eta)^-2.  Strictly decreasing; T(0) = 1."""
    if eta < 0:
        raise ValueError("cooperativity must be >= 0")
    onep = 1.0 + eta
    return 1.0 / (onep * onep)


def free_space_scatter_prob(eta: float) -> float:
    """Probability that a resonant incident photon is scattered into free
    space by the blocking atom(s), 2 eta / (1 + eta)^2.  Bounded by 1/2,
    the bound being reached only at eta = 1."""
    if eta < 0:
        raise ValueError("cooperativity must be >= 0")
    onep = 1.0 + eta
    return 2.0 * eta / (onep * onep)


def cavity_transmission_spectrum(delta, blockers, cavity: CavityParams,
                                 atoms: AtomParams) -> float:
    """Cavity transmission versus probe-cavity detuning ``delta`` (rad/s)
    with zero or more dispersive blockers.

    Each blocker is an (eta, atomic_detuning) pair contributing a
    susceptibility eta / (1 + 2i*Delta/Gamma) in the cavity denominator:

        T = | 1 + 2i*delta/kappa + sum_j eta_j / (1 + 2i*Delta_j/Gamma) |^-2

    Normalized so the empty cavity transmits 1 on resonance.  With
    delta = 0 and all blockers resonant this reduces to
    ``extinction(sum eta_j)``.
    """
    denom = 1.0 + 2.0j * delta / cavity.kappa
    for eta, datom in blockers:
        if eta < 0:
            raise ValueError("cooperativity must be >= 0")
        denom += eta / (1.0 + 2.0j * datom / atoms.gamma)
    mag2 = denom.real * denom.real + denom.imag * denom.imag
    return 1.0 / mag2


def sample_cooperativity(model: CooperativityModel, rng: np.random.Generator) -> float:
    """Draw one cooperativity value from the model distribution."""
    if model.levels is not None:
        u = rng.random()
        acc = 0.0
        for eta, prob in model.levels:
            acc += prob
            if u < acc:
                return eta
        return model.levels[-1][0]
    if model.standing_wave:
        c = math.cos(rng.uniform(0.0, math.pi))
        return model.eta0 * model.geometric_weight * c * c
    return model.eta0 * model.geometric_weight


def effective_cooperativities(model: CooperativityModel) -> EffectiveCooperativities:
    """The three effective cooperativities of the distribution, exact:

    * eta_mean: plain average <eta>.
    * eta_transmission: the constant cooperativity with the same average
      extinction, (1 + eta_T)^-2 = <(1 + eta)^-2>.
    * eta_scattering: the constant cooperativity with the same average
      free-space scattering, 2 eta_a/(1+eta_a)^2 = <2 eta/(1+eta)^2>,
      taking the root >= 1.

    A levels or constant model averages over its levels, as finite sums.
    A standing wave, eta = c cos^2(theta) with theta uniform and
    c = eta0 * geometric_weight, has <eta> = c/2,
    <(1+eta)^-2> = (2+c) / (2 (1+c)^(3/2)) and
    <2 eta/(1+eta)^2> = c / (1+c)^(3/2).
    """
    if model.levels is None and model.standing_wave:
        c = model.eta0 * model.geometric_weight
        power = (1.0 + c) ** 1.5
        mean_eta, mean_t, mean_s = c / 2.0, (2.0 + c) / (2.0 * power), c / power
    else:
        levels = model.levels or ((model.eta0 * model.geometric_weight, 1.0),)
        mean_eta = math.fsum(prob * eta for eta, prob in levels)
        mean_t = math.fsum(prob * extinction(eta) for eta, prob in levels)
        mean_s = math.fsum(prob * free_space_scatter_prob(eta) for eta, prob in levels)
    eta_t = mean_t ** -0.5 - 1.0
    if mean_s <= 0.0:
        eta_a = 0.0
    else:
        # s(1+x)^2 = 2x has reciprocal roots; pick the one >= 1.
        arg = max(1.0 - 2.0 * mean_s, 0.0)
        eta_a = (1.0 - mean_s + math.sqrt(arg)) / mean_s
    return EffectiveCooperativities(mean_eta, eta_t, eta_a)


def matched_level_mixture(eta_scattering: float, mean_extinction: float,
                          eta0: float) -> CooperativityModel:
    """Two-point cooperativity distribution on the reciprocal pair
    {eta, 1/eta}, which leaves the average scattering probability pinned
    at S(eta) for any mixing weight (S is invariant under eta -> 1/eta),
    while the weight is chosen to reach the requested average extinction.

    This realizes an arbitrary (extinction-matched, scattering-matched)
    effective-cooperativity pair that no single-scale continuous model
    can produce.
    """
    if eta_scattering <= 1.0:
        raise ValueError("eta_scattering must exceed 1 so the pair is distinct")
    t_hi = extinction(eta_scattering)
    t_lo = extinction(1.0 / eta_scattering)
    if not t_hi <= mean_extinction <= t_lo:
        raise ValueError("mean_extinction outside the range spanned by the pair")
    f_lo = (mean_extinction - t_hi) / (t_lo - t_hi)
    return CooperativityModel(
        eta0=eta0,
        standing_wave=False,
        geometric_weight=1.0,
        levels=((eta_scattering, 1.0 - f_lo), (1.0 / eta_scattering, f_lo)),
    )


def _poisson_probabilities(mean: float, tail: float) -> np.ndarray:
    """Poisson(``mean``) probabilities of the counts 0, 1, ..., cut above the
    mode where the probability left beyond is below ``tail``."""
    mode = math.floor(mean)
    q = math.exp(mode * math.log(mean) - mean - math.lgamma(mode + 1)) if mean > 0 else 1.0
    # below the mode p(n - 1) = p(n) n / mean
    probs = [*(q * np.cumprod(np.arange(mode, 0, -1) / mean))[::-1], q]
    # above the mode the ratio r of neighbouring probabilities falls, so all
    # that lies beyond the last count is at most its probability * r / (1 - r)
    while probs[-1] * (r := mean / len(probs)) >= tail * (1 - r):
        probs.append(probs[-1] * r)
    return np.array(probs)


def mean_blocked_transmission(model: CooperativityModel, stored_mean: float) -> float:
    """Average resonant transmission conditioned on at least one stored
    excitation, for a Poissonian stored number with mean ``stored_mean``
    and independently drawn per-excitation cooperativities.

    Used as an independent prediction for the small-signal transistor
    gain slope, 1 - <T | n >= 1>.

    Exact for a levels model and a constant one (one level eta0 *
    geometric_weight).  Poisson thinning makes each level's count an
    independent Poisson of mean stored_mean * p_k (Kingman, *Poisson
    Processes*, 1993), so the average is a finite sum over a grid of
    per-level counts, each cut where its tail is below double precision.
    A standing-wave model is refused.
    """
    if not (math.isfinite(stored_mean) and stored_mean > 0):
        raise ValueError(f"stored_mean must be finite and > 0, got {stored_mean!r}")
    if model.levels is None and model.standing_wave:
        raise ValueError("mean_blocked_transmission needs a levels or constant "
                         "cooperativity model, not a standing-wave one")
    levels = model.levels or ((model.eta0 * model.geometric_weight, 1.0),)
    occupied = -math.expm1(-stored_mean)
    tail = np.finfo(float).eps * occupied / len(levels)
    (eta_first, probs_first), *rest = [
        (eta, _poisson_probabilities(stored_mean * prob, tail)) for eta, prob in levels]
    # every cell of the levels after the first: summed cooperativity and probability
    totals, weights = np.zeros(1), np.ones(1)
    for eta, probs in rest:
        totals = (totals[:, None] + eta * np.arange(probs.size)).ravel()
        weights = (weights[:, None] * probs).ravel()
    rows = []
    for n, p in enumerate(probs_first):
        row = weights * (1.0 + (n * eta_first + totals)) ** -2
        if n == 0:
            row[0] = 0.0  # the cell with no stored excitation
        rows.append(p * row.sum())
    return math.fsum(rows) / occupied
