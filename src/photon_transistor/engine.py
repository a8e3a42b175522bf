"""Shot-by-shot stochastic simulation of the switching experiment.

One shot is the full sequence: a weak coherent gate pulse is stored as a
collective atomic excitation, the spin wave decoheres at its lifetime,
a resonant source beam is gated through the cavity for a fixed window,
the gate excitation is optionally retrieved, and both channels pass
through a lossy counting chain.

The source window is sampled photon by photon.  Each incident photon
either transmits through the cavity (probability T from the dispersive
spectrum), scatters off a blocking atom into free space (probability S),
or is reflected.  A free-space scattering event localizes the excitation
and destroys the collective phase, so retrieval fails, but the atom
stays in the blocking state and keeps switching the beam; it may also
hop to a more weakly coupled sublevel (optical pumping), which is what
eventually saturates the gain.

Sampling is exact but organized in scattering epochs rather than a
literal per-photon loop: between scattering events the blocking
configuration is constant, so the index of the next scattering photon is
geometric in S and the transmitted count among the intervening photons
is binomial in T/(1-S).  This reproduces the per-photon process
distribution at a cost proportional to the number of scattering events.
The configuration changes only at a pumping hop, so the total
cooperativity, T and S are computed once per configuration, not once per
scattering event.

Every shot draws from its own counter-based random stream keyed by
(master_seed, shot_index), so results are independent of execution order
and identical for serial and parallel runs.  A parallel run splits the
shots into contiguous shares, one for each process that computes: the
calling process runs the first share itself, and a pool of one process
fewer, forked once the kernel is built, runs one share each.

Every shot runs as one call of a small C kernel, ``_window.c``'s
``shot``, whenever the kernel is built.  The kernel keys the shot's
Philox stream as ``shot_rng`` does, makes the draws of ``_run_shot_py``
in the same order through the numpy distribution functions
(``libnpyrandom``) that ``Generator`` itself calls, and repeats every
float expression, so the stream and every result are unchanged.  A
detuned window's T and S, at the start of the window and after every
pumping hop, come from a real-arithmetic port of CPython's complex
operations in the dispersive spectrum.  ``shot`` is the only compiled
path.  ``_kernel`` builds the kernel and loads it once, as an extension
module, and packs a configuration into the kernel's one argument layout,
``struct shot_args``; ``run_shot`` calls the module's entry point
``shot(args, shot_index)``.

A chunk of shots (``_run_range``) runs into one ``(n, 9)`` int64 block,
the chunk scratch's rows: the kernel writes each shot's record into its
row, and the block is cast into the shot table once, column by column,
so a shot the kernel runs makes no Python object.  ``_run_range`` still
calls ``run_shot`` once per shot: the benchmark's self-test
(``perfbench/test_perfbench.py``) counts those calls against the number
of shots, so the loop over a chunk can move into C only once the
benchmark counts shots from the tables.

The Python engine stays, as the reference the tests compare the kernel
against and as the fallback: ``evolve_source_window`` is the Python
reference of the kernel's source window, and ``_run_shot_py`` of its
shot.  The kernel is compiled on first use with the system C compiler and
cached in the package's ``__pycache__``, and without a compiler every
shot runs in Python, with identical results.  A shot in which the kernel
meets a draw that numpy would reject, or that stores more excitations
than ``_window.c``'s ``ETA_CAPACITY``, also runs in Python, where
``Generator`` raises its own error.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple, get_type_hints

import numpy as np

from . import _kernel, qed
from .qed import AtomParams, CavityParams, CooperativityModel, ETA_FLOOR, check_range


@dataclass(frozen=True)
class TimingSequence:
    """Durations of the experimental sequence segments, in seconds.

    The decay argument for the spin wave is everything between the end of
    storage and retrieval: hold_before_source + source_window +
    hold_before_retrieval.  storage_ramp is also used as the gate-channel
    counting window (the retrieval pulse mirrors the storage ramp).
    """

    storage_ramp: float
    hold_before_source: float
    source_window: float
    hold_before_retrieval: float

    def __post_init__(self):
        check_range(self, "storage_ramp hold_before_source source_window "
                          "hold_before_retrieval")

    @property
    def total_storage_time(self) -> float:
        return self.hold_before_source + self.source_window + self.hold_before_retrieval


@dataclass(frozen=True)
class GatePulse:
    """Coherent gate pulse and the storage/retrieval chain efficiencies.

    The stored excitation number is Poissonian with mean
    mean_incident_photons * storage_efficiency.
    """

    mean_incident_photons: float
    storage_efficiency: float
    retrieval_efficiency: float = 1.0

    def __post_init__(self):
        check_range(self, "mean_incident_photons")
        check_range(self, "storage_efficiency retrieval_efficiency", hi=1.0)

    @property
    def stored_mean(self) -> float:
        return self.mean_incident_photons * self.storage_efficiency


@dataclass
class SpinWave:
    """State of the stored collective excitation during one shot.

    coherent flips to False at the first free-space scattering event and
    never recovers; survived_decay flips to False if the collective phase
    is lost to dephasing before retrieval.  n_scatters and
    first_scatter_photon are diagnostics for the collapse statistics.
    """

    n_exc: int
    etas: list[float] = field(default_factory=list)
    coherent: bool = True
    survived_decay: bool = True
    n_scatters: int = 0
    first_scatter_photon: int | None = None

    def __post_init__(self):
        if self.n_exc < 0:
            raise ValueError("SpinWave.n_exc must be >= 0")
        if len(self.etas) != self.n_exc:
            raise ValueError("SpinWave.etas length must equal n_exc")

    def total_eta(self) -> float:
        """Sum of the cooperativities, added left to right.  ``sum`` is
        not used: from Python 3.12 on it compensates float rounding, so its
        result would depend on the Python version."""
        total = 0.0
        for eta in self.etas:
            total += eta
        return total


@dataclass(frozen=True)
class SourceDrive:
    """Source beam over one window.  mean_source_photons is the expected
    transmitted photon count with no gate excitation present, i.e. the
    empty-cavity window-integrated photon number before outcoupling."""

    mean_source_photons: float
    detuning: float = 0.0

    def __post_init__(self):
        check_range(self, "mean_source_photons")
        # the largest |detuning| for which 2j * detuning stays finite
        bound = sys.float_info.max / 2
        check_range(self, "detuning", lo=-bound, hi=bound)


@dataclass(frozen=True)
class PumpingModel:
    """Optical pumping applied at each scattering event: with probability
    hop_prob_per_scatter the scattering atom's cooperativity is multiplied
    by eta_ratio_after_hop (< 1 moves it toward weaker coupling)."""

    hop_prob_per_scatter: float
    eta_ratio_after_hop: float

    def __post_init__(self):
        check_range(self, "hop_prob_per_scatter eta_ratio_after_hop", hi=1.0)


@dataclass(frozen=True)
class DetectionChain:
    """Counting-chain model: detected = Binomial(true, efficiency) +
    Poisson(dark_rate * window).  Dark rates are in counts/s and include
    all uncorrelated background (detector darks, leakage, stray light)."""

    gate_path_efficiency: float
    source_path_efficiency: float
    gate_dark_rate: float = 0.0
    source_dark_rate: float = 0.0

    def __post_init__(self):
        check_range(self, "gate_path_efficiency source_path_efficiency", hi=1.0)
        check_range(self, "gate_dark_rate source_dark_rate")


class ShotRecord(NamedTuple):
    """Everything observable (and the ground truth) for one repetition:
    one row of a shot table, whose columns are these fields."""

    shot_index: int
    n_stored: int
    source_transmitted_intracavity: int
    source_transmitted_outside: int
    collapsed: bool
    retrieved: bool
    survived_decay: bool
    detected_source: int
    detected_gate: int


SHOT_DTYPE = np.dtype([(name, np.int64 if kind is int else np.bool_)
                       for name, kind in get_type_hints(ShotRecord).items()])


def shot_table(rows) -> np.recarray:
    """Shot table of ``rows`` (ShotRecords or equal tuples): one
    ``SHOT_DTYPE`` column per field, read as ``table.n_stored``.  A shot
    table is returned as it is, without a copy."""
    if isinstance(rows, np.ndarray) and rows.dtype == SHOT_DTYPE:
        return rows.view(np.recarray)
    return np.fromiter(rows, SHOT_DTYPE).view(np.recarray)


@dataclass(frozen=True)
class RunConfig:
    cavity: CavityParams
    atoms: AtomParams
    coop: CooperativityModel
    timing: TimingSequence
    gate: GatePulse
    source: SourceDrive
    pumping: PumpingModel
    detection: DetectionChain
    n_shots: int
    master_seed: int
    retrieval_mode: bool = False

    def __post_init__(self):
        if self.n_shots < 1:
            raise ValueError("RunConfig.n_shots must be >= 1")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError("RunConfig.master_seed must be a 64-bit integer")


def shot_rng(master_seed: int, shot_index: int) -> np.random.Generator:
    """Counter-based substream for one shot; the 128-bit Philox key packs
    (master_seed, shot_index) so streams never depend on call order."""
    if not 0 <= shot_index < 2 ** 64:
        raise ValueError("shot_index must be a 64-bit integer")
    return np.random.Generator(np.random.Philox(key=(master_seed << 64) | shot_index))


def _rekey_shot_stream(scratch, master_seed: int, shot_index: int) -> np.random.Generator:
    """Reuse one Philox instance across shots by assigning it a fresh state
    (``scratch`` is the Philox and its Generator):
    key (shot_index, master_seed), zero counter, empty buffer.  Yields the
    same stream as a fresh shot_rng() but without per-shot construction
    cost, and without reading the old state back."""
    bitgen = scratch[0]
    bitgen.state = {"bit_generator": "Philox",
                    "state": {"counter": (0, 0, 0, 0), "key": (shot_index, master_seed)},
                    "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                    "has_uint32": 0, "uinteger": 0}
    return scratch[1]


def sample_gate_storage(gate: GatePulse, coop: CooperativityModel,
                        rng: np.random.Generator) -> SpinWave:
    """Store the gate pulse: Poissonian excitation number (thinned by the
    storage efficiency), one independent cooperativity per excitation."""
    n_exc = int(rng.poisson(gate.stored_mean))
    etas = [qed.sample_cooperativity(coop, rng) for _ in range(n_exc)]
    return SpinWave(n_exc=n_exc, etas=etas)


def _transmission_and_scatter(delta: float, total_eta: float,
                              cavity: CavityParams, atoms: AtomParams) -> tuple[float, float]:
    """Per-photon transmission and free-space scattering probabilities at
    probe detuning delta, for blockers resonant with the cavity (their
    atomic detuning equals delta).  On resonance these are the closed
    forms extinction() and free_space_scatter_prob(); off resonance the
    scattering scales with the atomic excitation |L|^2 times the
    intracavity buildup, so T + S <= 1 always holds.  S is capped at 1 - T
    so that this holds after rounding too: with eta below about 1e-8 the
    reflection is under an ulp of 1, and uncapped T / (1 - S) exceeded 1."""
    if delta == 0.0:
        t = qed.extinction(total_eta)
        s = 2.0 * total_eta * t
    else:
        t = qed.cavity_transmission_spectrum(delta, ((total_eta, delta),), cavity, atoms)
        x = 2.0 * delta / atoms.gamma
        lor2 = 1.0 / (1.0 + x * x)
        s = 2.0 * total_eta * lor2 * t
    return t, (s if s < 1.0 - t else 1.0 - t)


def _window_probabilities(delta: float, total_eta: float, cavity: CavityParams,
                          atoms: AtomParams) -> tuple[float, float]:
    """T and S of a window whose blockers add up to ``total_eta``: those of
    ``_transmission_and_scatter``, or, at or below ``ETA_FLOOR``, the
    empty cavity's T (1 on resonance, where it is not drawn) and S = 0.
    The guard is written so that a NaN total takes the first branch."""
    if not total_eta <= ETA_FLOOR:
        return _transmission_and_scatter(delta, total_eta, cavity, atoms)
    if delta == 0.0:
        return 1.0, 0.0
    return qed.cavity_transmission_spectrum(delta, (), cavity, atoms), 0.0


def evolve_source_window(spin: SpinWave, source: SourceDrive, pumping: PumpingModel,
                         cavity: CavityParams, atoms: AtomParams,
                         rng: np.random.Generator) -> tuple[int, SpinWave]:
    """Send the source beam through the cavity for one window.

    Draws a Poissonian number of incident photons with mean
    source.mean_source_photons; each photon transmits with the current
    dispersive transmission, or scatters off one of the blocking atoms
    with the current free-space scattering probability.  A scattering
    event destroys the collective phase (coherent = False), leaves the
    atom blocking, and applies the pumping hop to the atom that
    scattered (chosen with probability proportional to its
    cooperativity).  The total cooperativity, T and S are computed once
    per blocking configuration, so again only after a pumping hop.

    This is the reference that the kernel's ``source_window`` repeats,
    draw for draw, inside a compiled shot.

    Returns (transmitted_count, updated spin).
    """
    n_attempt = int(rng.poisson(source.mean_source_photons))
    delta = source.detuning
    total = spin.total_eta()
    t, s = _window_probabilities(delta, total, cavity, atoms)
    transmitted = 0
    remaining = n_attempt
    processed = 0
    while remaining > 0:
        if total <= ETA_FLOOR:
            if delta == 0.0:
                transmitted += remaining
            else:
                transmitted += int(rng.binomial(remaining, t))
            break
        if s < 1e-300:
            transmitted += int(rng.binomial(remaining, t))
            break
        gap = int(rng.geometric(s))
        if gap > remaining:
            transmitted += int(rng.binomial(remaining, t / (1.0 - s)))
            break
        if gap > 1:
            transmitted += int(rng.binomial(gap - 1, t / (1.0 - s)))
        processed += gap
        remaining -= gap
        spin.n_scatters += 1
        if spin.first_scatter_photon is None:
            spin.first_scatter_photon = processed
        spin.coherent = False
        pick = rng.random() * total
        if pumping.hop_prob_per_scatter > 0.0 and (
                pumping.hop_prob_per_scatter >= 1.0
                or rng.random() < pumping.hop_prob_per_scatter):
            # scattering atom chosen proportionally to its cooperativity
            acc = 0.0
            j = 0
            for j, eta in enumerate(spin.etas):
                acc += eta
                if pick <= acc:
                    break
            spin.etas[j] *= pumping.eta_ratio_after_hop
            total = spin.total_eta()
            t, s = _window_probabilities(delta, total, cavity, atoms)
    return transmitted, spin


def apply_spin_decay(spin: SpinWave, elapsed: float, atoms: AtomParams,
                     rng: np.random.Generator) -> SpinWave:
    """Collective dephasing over ``elapsed`` seconds: with probability
    1 - exp(-elapsed/tau) the excitation is no longer retrievable.  The
    atomic population stays put, so blocking is unaffected."""
    if elapsed < 0:
        raise ValueError("elapsed must be >= 0")
    if spin.n_exc == 0 or elapsed == 0.0:
        return spin
    if rng.random() >= math.exp(-elapsed / atoms.tau_spinwave):
        spin.survived_decay = False
    return spin


def retrieve_gate(spin: SpinWave, retrieval_efficiency: float,
                  rng: np.random.Generator) -> bool:
    """Attempt retrieval of the stored photon.  Succeeds with the given
    efficiency only if an excitation is present, the collective phase is
    intact (no free-space scattering occurred) and dephasing has not
    destroyed it."""
    if not 0.0 <= retrieval_efficiency <= 1.0:
        raise ValueError("retrieval_efficiency must be in [0, 1]")
    if spin.n_exc < 1 or not spin.coherent or not spin.survived_decay:
        return False
    return bool(rng.random() < retrieval_efficiency)


def detect(true_count: int, window: float, efficiency: float, dark_rate: float,
           rng: np.random.Generator) -> int:
    """Counting chain: binomial thinning plus Poissonian background."""
    if true_count < 0:
        raise ValueError("true_count must be >= 0")
    detected = int(rng.binomial(true_count, efficiency)) if efficiency < 1.0 else true_count
    if dark_rate > 0.0 and window > 0.0:
        detected += int(rng.poisson(dark_rate * window))
    return detected


def run_shot(config: RunConfig, shot_index: int, _scratch=None) -> ShotRecord | None:
    """One full repetition, fully determined by (master_seed, shot_index).

    One call of the compiled ``shot`` when the kernel is built, else
    ``_run_shot_py``.  A shot in which the kernel meets a draw that
    numpy's Generator rejects, or that stores more than ``_window.c``'s
    ``ETA_CAPACITY`` excitations, runs again in ``_run_shot_py``, where
    the Generator raises its own error.

    Without ``_scratch``, returns the shot's ``ShotRecord``.  With a chunk
    scratch, ``_shot_scratch(config, rows, first)``, writes the record
    into row ``shot_index - first`` of the chunk's block ``rows`` and
    returns None: one call of the entry point ``shot(args, shot_index)``
    stores the index in the packed arguments and writes the row, and only
    a shot that it refuses makes a ``ShotRecord``, written into the row
    here.
    ``_run_range`` still calls this function once per shot, so the
    benchmark's tracer, which counts these calls, sees every shot."""
    if _scratch is None:
        if not 0 <= shot_index < 2 ** 64:
            return _run_shot_py(config, shot_index)  # shot_rng refuses it
        # a chunk of one row, read back with real bools
        return ShotRecord(*_run_range((config, shot_index, shot_index + 1))[0].item())
    shot, args, rows, first, stream = _scratch
    # shot raises OverflowError for an index out of range; shot_rng
    # raises its own error for it
    if shot is not None and 0 <= shot_index < 2 ** 64:
        if not shot(args, shot_index):
            return None
    row = shot_index - first
    if not 0 <= row < len(rows):
        raise IndexError(f"shot {shot_index} is outside the chunk of shots "
                         f"{first} to {first + len(rows) - 1}")
    rows[row] = _run_shot_py(config, shot_index, stream)
    return None


def _run_shot_py(config: RunConfig, shot_index: int, stream=None) -> ShotRecord:
    """``run_shot`` in Python, the reference for the compiled ``shot``.
    ``stream`` is a Philox and its Generator, rekeyed here for the shot; a
    fresh ``shot_rng`` is used when None."""
    rng = (shot_rng(config.master_seed, shot_index) if stream is None
           else _rekey_shot_stream(stream, config.master_seed, shot_index))
    spin = sample_gate_storage(config.gate, config.coop, rng)
    n_stored = spin.n_exc
    spin = apply_spin_decay(spin, config.timing.total_storage_time, config.atoms, rng)
    transmitted, spin = evolve_source_window(
        spin, config.source, config.pumping, config.cavity, config.atoms, rng)
    outside = int(rng.binomial(transmitted, config.cavity.outcoupling))
    retrieved = False
    if config.retrieval_mode:
        retrieved = retrieve_gate(spin, config.gate.retrieval_efficiency, rng)
    det = config.detection
    detected_source = detect(outside, config.timing.source_window,
                             det.source_path_efficiency, det.source_dark_rate, rng)
    detected_gate = detect(1 if retrieved else 0, config.timing.storage_ramp,
                           det.gate_path_efficiency, det.gate_dark_rate, rng)
    # positional: keyword construction of a NamedTuple is slower per shot
    return ShotRecord(shot_index, n_stored, transmitted, outside,
                      n_stored > 0 and not spin.coherent, retrieved,
                      spin.survived_decay, detected_source, detected_gate)


def _dark_mean(rate: float, window: float) -> float:
    """The mean of ``detect``'s dark-count draw; 0 when it makes none,
    which is equivalent, as a Poisson draw of mean 0 takes nothing from
    the stream."""
    return rate * window if rate > 0.0 and window > 0.0 else 0.0


def _shot_scratch(config: RunConfig, rows: np.ndarray, first: int) -> tuple:
    """What ``run_shot`` reuses across a chunk of ``config``'s shots
    ``first`` to ``first + len(rows) - 1``, whose records go into
    ``rows``, an ``(n, 9)`` int64 block:
    ``(shot, args, rows, first, None)``, the compiled ``shot``'s entry
    point with the configuration and the block packed into its
    arguments, when the kernel is built; otherwise ``(None, None, rows,
    first, stream)``, with a Philox stream rekeyed per shot.

    What depends on the configuration alone is computed here once, with
    the Python engine's expressions: the decay survival probability, the
    dark-count means and, for a detuned window, the empty-cavity T, the
    complex denominators of ``qed.cavity_transmission_spectrum`` and the
    Lorentzian of ``_transmission_and_scatter``."""
    kernel = _kernel._window_kernel()
    if kernel is None:
        bitgen = np.random.Philox(key=0)  # rekeyed for every shot
        return None, None, rows, first, (bitgen, np.random.Generator(bitgen))
    cavity, atoms, coop, timing = config.cavity, config.atoms, config.coop, config.timing
    det, delta = config.detection, config.source.detuning
    cavity_denominator = 1.0 + 2.0j * delta / cavity.kappa
    atom_denominator = 1.0 + 2.0j * delta / atoms.gamma
    x = 2.0 * delta / atoms.gamma
    return *_kernel.pack_shot(
        kernel, [value for level in coop.levels or () for value in level], rows, first,
        master_seed=config.master_seed, stored_mean=config.gate.stored_mean,
        standing_wave=coop.standing_wave, coop_scale=coop.eta0 * coop.geometric_weight,
        storage_time=timing.total_storage_time,
        survival=math.exp(-timing.total_storage_time / atoms.tau_spinwave),
        source_mean=config.source.mean_source_photons,
        hop_prob=config.pumping.hop_prob_per_scatter,
        hop_ratio=config.pumping.eta_ratio_after_hop, eta_floor=ETA_FLOOR, delta=delta,
        empty_t=qed.cavity_transmission_spectrum(delta, (), cavity, atoms),
        cavity_re=cavity_denominator.real, cavity_im=cavity_denominator.imag,
        atom_re=atom_denominator.real, atom_im=atom_denominator.imag,
        lorentzian=1.0 / (1.0 + x * x), outcoupling=cavity.outcoupling,
        retrieval_mode=config.retrieval_mode,
        retrieval_efficiency=config.gate.retrieval_efficiency,
        source_efficiency=det.source_path_efficiency,
        source_dark_mean=_dark_mean(det.source_dark_rate, timing.source_window),
        gate_efficiency=det.gate_path_efficiency,
        gate_dark_mean=_dark_mean(det.gate_dark_rate, timing.storage_ramp)), rows, first, None


def _run_range(args) -> np.recarray:
    """Shot table of the shots ``start`` to ``stop - 1`` of ``config``:
    ``run_shot`` writes each shot's record into its row of one int64
    block, which is then cast into the table column by column."""
    config, start, stop = args
    rows = np.zeros((stop - start, len(SHOT_DTYPE)), np.int64)
    scratch = _shot_scratch(config, rows, start)
    for i in range(start, stop):
        run_shot(config, i, scratch)
    table = np.empty(len(rows), SHOT_DTYPE)
    for column, name in enumerate(SHOT_DTYPE.names):
        table[name] = rows[:, column]
    return table.view(np.recarray)


def bound_workers(requested: int, n_tasks: int, cpus: int | None = None) -> int:
    """Pool size for ``requested`` workers: at most the CPUs this process
    may run on (``cpus``, detected when None) and ``n_tasks``, at least 1."""
    if cpus is None:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # not available on every platform
            cpus = os.cpu_count() or 1
    return max(1, min(requested, cpus, n_tasks))


def run_experiment(config: RunConfig, workers: int = 1) -> np.recarray:
    """Shot table of all shots of one configuration, in shot order.

    ``workers`` > 1 splits the shots into contiguous shares, one for each
    of the ``bound_workers`` processes that compute, the calling process
    included: a pool of one process fewer gets one share each, and the
    caller runs the first share while the pool works.  A single shot runs
    in the caller without a pool.  The per-shot substreams make the result
    identical to the serial run."""
    n = config.n_shots
    if workers <= 1 or n == 1:
        return _run_range((config, 0, n))
    # at least one pool process, so that every parallel call makes a pool
    shares = max(2, bound_workers(workers, n))
    _kernel._window_kernel()  # built here once, not in every pool process
    ranges = [(config, n * i // shares, n * (i + 1) // shares) for i in range(shares)]
    with ProcessPoolExecutor(max_workers=shares - 1) as pool:
        futures = [pool.submit(_run_range, share) for share in ranges[1:]]
        tables = [_run_range(ranges[0])] + [future.result() for future in futures]
    table = np.concatenate(tables).view(np.recarray)
    if len(table) != n or not np.array_equal(table.shot_index, np.arange(n)):
        raise RuntimeError("incomplete parallel run; no partial results returned")
    return table


def with_source_strength(config: RunConfig, mean_source_photons: float) -> RunConfig:
    """Convenience for sweeping the source strength."""
    return replace(config, source=replace(config.source,
                                          mean_source_photons=mean_source_photons))
