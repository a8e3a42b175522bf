import ast
import contextlib
import ctypes
import functools
import inspect
import math
import os
import pathlib
import re
import shutil
import struct
import subprocess
import sys
import sysconfig
import tempfile
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from photon_transistor import _kernel, engine, presets, runner
from photon_transistor.config import default_config
from photon_transistor.engine import (SHOT_DTYPE, DetectionChain, GatePulse,
                                      PumpingModel, RunConfig, SourceDrive, SpinWave,
                                      TimingSequence, _transmission_and_scatter,
                                      apply_spin_decay, bound_workers, detect,
                                      evolve_source_window, retrieve_gate,
                                      run_experiment, run_shot,
                                      sample_gate_storage, shot_rng, shot_table,
                                      with_source_strength)
from photon_transistor.qed import (ETA_FLOOR, AtomParams, CavityParams, CooperativityModel,
                                   extinction, free_space_scatter_prob)

CAVITY = CavityParams(kappa=2 * math.pi * 1e6, mirror_transmission=6.6e-6,
                      mirror_loss=3.4e-6)
ATOMS = AtomParams(gamma=2 * math.pi * 5.2e6, eta0=8.6, tau_spinwave=2.1e-6)
NO_PUMP = PumpingModel(0.0, 1.0)
KILL_ON_SCATTER = PumpingModel(1.0, 0.0)  # first scatter ends blocking
IDEAL = DetectionChain(1.0, 1.0, 0.0, 0.0)


def constant_model(eta, eta0=None):
    return CooperativityModel(eta0=eta0 if eta0 is not None else max(eta, 8.6),
                              standing_wave=False, geometric_weight=1.0,
                              levels=((eta, 1.0),))


def spin_with(eta, n=1):
    return SpinWave(n_exc=n, etas=[eta] * n)


def unchecked_drive(mean_source_photons, detuning):
    """A source drive built past ``SourceDrive``'s range check, so that a
    detuning at which ``2j * detuning`` overflows still reaches the engines."""
    drive = SourceDrive(mean_source_photons)
    object.__setattr__(drive, "detuning", detuning)
    return drive


def _run_range_dropping_first(args, run_range=engine._run_range):
    """A chunk runner that loses the first shot of its chunk."""
    return run_range(args)[1:]


def _run_range_logging_pid(log, args, run_range=engine._run_range):
    """A chunk runner that appends its first shot index and its pid to ``log``."""
    with open(log, "a") as fh:
        fh.write(f"{args[1]} {os.getpid()}\n")
    return run_range(args)


@pytest.fixture
def recorded_pools(monkeypatch):
    """Every pool ``run_experiment`` makes, with its size and its tasks."""
    pools = []

    class RecordingPool(engine.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            super().__init__(max_workers, **kwargs)
            self.max_workers, self.tasks = max_workers, []
            pools.append(self)

        def submit(self, fn, /, *args, **kwargs):
            self.tasks.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)
    return pools


def base_config(**overrides):
    cfg = dict(
        cavity=CAVITY, atoms=ATOMS, coop=constant_model(3.3),
        timing=TimingSequence(1e-6, 0.0, 1e-6, 0.0),
        gate=GatePulse(0.5, 1.0, 1.0),
        source=SourceDrive(2.0, 0.0),
        pumping=NO_PUMP, detection=IDEAL,
        n_shots=100, master_seed=7, retrieval_mode=False,
    )
    cfg.update(overrides)
    return RunConfig(**cfg)


class TestGateStorage:
    def test_no_gate_stores_nothing(self):
        rng = np.random.default_rng(0)
        gate = GatePulse(0.0, 0.15)
        for _ in range(200):
            spin = sample_gate_storage(gate, constant_model(3.3), rng)
            assert spin.n_exc == 0
            assert spin.coherent and spin.survived_decay

    def test_single_given_present_fraction(self):
        # Poisson(0.5): p1/(1-p0) = 0.7707
        rng = np.random.default_rng(1)
        gate = GatePulse(0.5, 1.0)
        model = constant_model(3.3)
        counts = np.array([sample_gate_storage(gate, model, rng).n_exc
                           for _ in range(500_000)])
        present = counts >= 1
        frac = np.mean(counts[present] == 1)
        assert abs(frac - 0.7707) <= 0.005

    def test_thinned_poisson_mean(self):
        rng = np.random.default_rng(2)
        gate = GatePulse(4.0, 0.1)
        model = constant_model(3.3)
        counts = np.array([sample_gate_storage(gate, model, rng).n_exc
                           for _ in range(1_000_000)])
        assert abs(counts.mean() - 0.4) <= 0.002

    def test_stored_marginal_is_poisson(self):
        rng = np.random.default_rng(3)
        gate = GatePulse(2.0, 0.4)
        model = constant_model(3.3)
        counts = np.array([sample_gate_storage(gate, model, rng).n_exc
                           for _ in range(100_000)])
        # merge the sparse tail into one bin for the chi-square
        cut = int(sps.poisson.ppf(1 - 1e-4, 0.8))
        observed = np.bincount(np.minimum(counts, cut + 1), minlength=cut + 2)
        pmf = sps.poisson.pmf(np.arange(cut + 1), 0.8)
        expected = np.append(pmf, 1.0 - pmf.sum()) * counts.size
        _, p = sps.chisquare(observed, expected * observed.sum() / expected.sum())
        assert p > 1e-3

    def test_etas_per_excitation(self):
        rng = np.random.default_rng(4)
        gate = GatePulse(6.0, 1.0)
        spin = sample_gate_storage(gate, constant_model(2.5), rng)
        assert len(spin.etas) == spin.n_exc
        assert all(e == 2.5 for e in spin.etas)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e10, 1e10), st.floats(0.0, 1e3))
@example(0.0, 1e-8)
@example(1e-3, 1e-8)
def test_transmission_scatter_reflection_sum_to_one(delta, eta):
    t, s = _transmission_and_scatter(delta, eta, CAVITY, ATOMS)
    r = t * abs(2j * delta / CAVITY.kappa + eta / (1 + 2j * delta / ATOMS.gamma)) ** 2
    assert abs(t + s + r - 1.0) <= 1e-12
    assert t + s <= 1.0


class TestSourceWindow:
    @pytest.mark.parametrize("delta", [0.0, 1e-3])
    def test_near_empty_blocker_transmits_everything(self, delta):
        # at eta = 1e-8 the rounded T + S exceeded 1, so the binomial
        # probability T / (1 - S) left [0, 1] and numpy raised
        rng = np.random.default_rng(8)
        n, spin = evolve_source_window(spin_with(1e-8), SourceDrive(60.0, delta),
                                       NO_PUMP, CAVITY, ATOMS, rng)
        assert spin.n_scatters == 0 and 30 < n < 90

    def test_empty_cavity_poisson(self):
        rng = np.random.default_rng(5)
        src = SourceDrive(11.0, 0.0)
        counts = []
        for _ in range(200_000):
            spin = SpinWave(n_exc=0, etas=[])
            n, spin = evolve_source_window(spin, src, NO_PUMP, CAVITY, ATOMS, rng)
            counts.append(n)
            assert spin.coherent and spin.n_scatters == 0
        counts = np.asarray(counts, dtype=float)
        assert abs(counts.mean() - 11.0) < 5 * math.sqrt(11.0 / counts.size)
        var_se = math.sqrt(max(np.mean((counts - counts.mean()) ** 4)
                               - counts.var() ** 2, 0) / counts.size)
        assert abs(counts.var() - 11.0) < 5 * var_se

    def test_collapse_count_is_geometric(self):
        # eta 3.3: photons processed before the first collapse average
        # (1+eta)^2 / (2 eta) = 2.80; ending the window at the first
        # scatter (hop ratio 0) leaves that first draw untouched
        rng = np.random.default_rng(6)
        src = SourceDrive(35.0, 0.0)
        firsts = []
        for _ in range(150_000):
            spin = spin_with(3.3)
            _, spin = evolve_source_window(spin, src, KILL_ON_SCATTER, CAVITY,
                                           ATOMS, rng)
            if spin.first_scatter_photon is not None:
                firsts.append(spin.first_scatter_photon)
        firsts = np.asarray(firsts, dtype=float)
        assert abs(firsts.mean() - 2.8015) <= 0.03

        s = free_space_scatter_prob(3.3)
        kmax = 22
        observed = np.bincount(np.minimum(firsts.astype(int), kmax + 1))[1:]
        pmf = s * (1 - s) ** (np.arange(1, kmax + 1) - 1)
        expected = np.append(pmf, (1 - s) ** kmax) * firsts.size
        _, p = sps.chisquare(observed, expected * observed.sum() / expected.sum())
        assert p > 1e-3

    def test_transmission_matches_extinction(self):
        rng = np.random.default_rng(7)
        src = SourceDrive(60.0, 0.0)
        totals, collapsed_totals = [], []
        for _ in range(20_000):
            spin = spin_with(1.5)
            n, spin = evolve_source_window(spin, src, NO_PUMP, CAVITY, ATOMS, rng)
            totals.append(n)
            if not spin.coherent:
                collapsed_totals.append(n)
        assert abs(np.mean(totals) / 60.0 - 0.16) < 0.002
        # blocking persists after collapse: same transmission conditioned on it
        assert abs(np.mean(collapsed_totals) / 60.0 - 0.16) < 0.003

    def test_pumping_reduces_coupling(self):
        rng = np.random.default_rng(8)
        src = SourceDrive(200.0, 0.0)
        spin = spin_with(3.3)
        _, spin = evolve_source_window(spin, src, PumpingModel(1.0, 0.9), CAVITY,
                                       ATOMS, rng)
        assert spin.n_scatters > 0
        assert spin.etas[0] == pytest.approx(3.3 * 0.9 ** spin.n_scatters)

    def test_detuned_source_passes_detuned_cavity(self):
        rng = np.random.default_rng(9)
        src = SourceDrive(50.0, 10 * CAVITY.kappa)
        outs = []
        for _ in range(4000):
            n, _ = evolve_source_window(SpinWave(0, []), src, NO_PUMP, CAVITY,
                                        ATOMS, rng)
            outs.append(n)
        # far detuned: transmission ~ 1/401
        assert np.mean(outs) < 0.5


def _require_compiler():
    if shutil.which(_kernel._CC) is None:
        pytest.skip(f"no C compiler found ({_kernel._CC!r} is not on PATH)")


def _require_kernel():
    """Skip without a C compiler; with one, the window kernel must build."""
    _require_compiler()
    assert _kernel._window_kernel() is not None, "the window kernel did not build"


@pytest.fixture(scope="module")
def sanitized_child(tmp_path_factory):
    """SANITIZER_RUN, run once, with the kernel built under AddressSanitizer
    and UndefinedBehaviorSanitizer: the finished subprocess."""
    _require_compiler()
    libasan = subprocess.run([_kernel._CC, "-print-file-name=libasan.so"],
                             capture_output=True, text=True, check=True).stdout.strip()
    tmp = tmp_path_factory.mktemp("sanitized")
    # pymalloc's pools are not poisoned: PYTHONMALLOC=malloc makes every
    # chunk's block a malloc'd bytearray whose exact bounds the sanitizer
    # sees
    return subprocess.run(
        [sys.executable, "-c", SANITIZER_RUN, os.path.dirname(__file__),
         str(tmp / "cache"), "-fsanitize=address,undefined", "-fno-sanitize-recover=all"],
        capture_output=True, text=True, cwd=tmp, timeout=900,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), LD_PRELOAD=libasan,
                 ASAN_OPTIONS="detect_leaks=0", PYTHONMALLOC="malloc"))


def _python_shots():
    """Every shot runs in Python while this is active."""
    return mock.patch.object(_kernel, "_window_kernel", lambda: None)


@pytest.fixture
def cold_kernel_cache(monkeypatch, tmp_path):
    """An empty kernel cache directory, and no kernel loaded yet."""
    monkeypatch.setattr(_kernel, "_KERNEL_CACHE", str(tmp_path / "cache"))
    _kernel._window_kernel.cache_clear()
    yield tmp_path / "cache"
    _kernel._window_kernel.cache_clear()


def test_total_eta_adds_left_to_right():
    # a compensated sum (Python 3.12+ sum) gives 1.0000000000000002
    assert SpinWave(3, [1.0, 1e-16, 1e-16]).total_eta() == 1.0


def test_only_the_kernel_module_imports_ctypes():
    importers = set()
    for path in pathlib.Path(engine.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.partition(".")[0] == "ctypes" for m in modules):
                importers.add(path.name)
    assert importers == {"_kernel.py"}


def _kernel_exports():
    """The kernel's library opened with ctypes, for the exports that only
    the tests call: ``source_window``, ``philox_raw`` and
    ``window_probabilities_of``."""
    return ctypes.CDLL(_kernel._window_kernel().__file__)


def _compiled_window(spin, source, pumping, cavity, atoms, rng):
    """``evolve_source_window`` with the loop run by the kernel's exported
    ``source_window``, drawing from ``rng``'s bit generator at numpy's
    public ctypes address, with the packed arguments that ``shot`` gets.
    The photon number is drawn here as the Python window draws it.
    Returns the kernel's return value, negative for a draw numpy's
    Generator rejects, and the updated spin."""
    n_attempt = int(rng.poisson(source.mean_source_photons))
    cfg = base_config(source=source, pumping=pumping, cavity=cavity, atoms=atoms)
    block = engine._shot_scratch(cfg, 0, 1)[1]
    etas = (ctypes.c_double * len(spin.etas))(*spin.etas)
    scatters = (ctypes.c_int64 * 2)()
    window = _kernel_exports().source_window
    window.restype = ctypes.c_int64
    transmitted = window(rng.bit_generator.ctypes.bit_generator,
                         ctypes.byref(_kernel._ShotArgs.from_buffer(block)),
                         ctypes.c_int64(n_attempt), etas, ctypes.c_int64(len(etas)), scatters)
    if scatters[0]:
        spin.n_scatters += scatters[0]
        if spin.first_scatter_photon is None:
            spin.first_scatter_photon = scatters[1]
        spin.coherent = False
        spin.etas[:] = etas
    return transmitted, spin


def _assert_windows_equal(etas, source, pumping, rng):
    """The kernel's window and the Python one, from equal spins and
    streams, give the same window and leave the stream in the same state."""
    rng_py = np.random.Generator(np.random.Philox())
    rng_py.bit_generator.state = rng.bit_generator.state
    spin, spin_py = SpinWave(len(etas), list(etas)), SpinWave(len(etas), list(etas))
    n, spin = _compiled_window(spin, source, pumping, CAVITY, ATOMS, rng)
    n_py, spin_py = evolve_source_window(spin_py, source, pumping, CAVITY, ATOMS, rng_py)
    assert n == n_py
    assert spin == spin_py  # etas, n_scatters, first photon, coherent
    assert repr(rng.bit_generator.state) == repr(rng_py.bit_generator.state)


DETUNED = 2 * math.pi * 0.5e6  # half a cavity linewidth
# the most stored excitations a compiled shot holds
ETA_CAPACITY = int(re.search(r"#define ETA_CAPACITY (\d+)",
                             pathlib.Path(_kernel._KERNEL_SOURCE).read_text())[1])


def RANDOM_WINDOWS(check):
    """``check`` as a hypothesis test over random configs, one of which is
    always a detuned window whose atoms scatter and hop."""
    return example(eta0=3.3, levels=None, standing_wave=False, stored=2.0,
                   photons=200.0, detuning=DETUNED, hop_prob=1.0, hop_ratio=0.5,
                   dark=0.0, retrieval=True, seed=1)(given(
        eta0=st.floats(0.0, 20.0),
        levels=st.one_of(st.none(), st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))),
        standing_wave=st.booleans(),
        stored=st.floats(0.0, 40.0),
        photons=st.floats(0.0, 3000.0),
        detuning=st.one_of(st.just(0.0), st.floats(-1e8, 1e8)),
        hop_prob=st.one_of(st.just(0.0), st.floats(0.01, 0.99), st.just(1.0)),
        hop_ratio=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0)),
        dark=st.floats(0.0, 1e6),
        retrieval=st.booleans(),
        seed=st.integers(0, 2 ** 64 - 1))(check))


def _check_random_windows(eta0, levels, standing_wave, stored, photons, detuning,
                          hop_prob, hop_ratio, dark, retrieval, seed):
    """Random configs run equal windows and shots through both engines."""
    if levels is not None:  # two levels, eta0 and a fraction of it
        levels = ((eta0, levels[1]), (eta0 * levels[0], 1.0 - levels[1]))
    cfg = base_config(
        coop=CooperativityModel(eta0, standing_wave, 1.0, levels),
        gate=GatePulse(stored, 1.0, 1.0), source=SourceDrive(photons, detuning),
        pumping=PumpingModel(hop_prob, hop_ratio),
        detection=DetectionChain(0.7, 0.5, dark, dark),
        n_shots=3, master_seed=seed, retrieval_mode=retrieval)
    for i in range(cfg.n_shots):
        spin = sample_gate_storage(cfg.gate, cfg.coop, shot_rng(seed, i))
        _assert_windows_equal(spin.etas, cfg.source, cfg.pumping, shot_rng(seed, i))
    with _python_shots():
        expected = [run_shot(cfg, i) for i in range(cfg.n_shots)]
    assert run_shot(cfg, 0) == expected[0]
    # a range whose block starts at shot 1, so that a row written at the
    # shot's index instead of its offset lands past the block
    assert engine._run_range((cfg, 1, cfg.n_shots)).tolist() == expected[1:]


def _check_rows_outside_the_block_refused():
    """The kernel refuses a shot whose row lies outside the rows of the
    block of shots 10 to 12 and writes nothing in the block; ``run_shot``
    raises for it.  Running every shot of the block writes its rows and
    leaves its header and levels as packed."""
    cfg = base_config()
    scratch = engine._shot_scratch(cfg, 10, 3)
    shot, block, rows = scratch[:3]
    packed = bytes(block)
    for index in (9, 13, 0, 2 ** 64 - 1):
        assert shot(block, index) is True
        with pytest.raises(IndexError, match="outside the chunk of shots 10 to 12"):
            run_shot(cfg, index, scratch)
        assert bytes(block) == packed
    for index in (12, 10, 11):
        assert run_shot(cfg, index, scratch) is None
    assert block[:-rows.nbytes] == packed[:-rows.nbytes]
    assert rows.tolist() == [list(run_shot(cfg, i)) for i in (10, 11, 12)]


def _fig4e_and_detuned_points():
    """A fig4e point, the detuned fig2 point and a fig4ab point detuned by
    half a cavity linewidth, whose atoms scatter and hop, and their tables
    from the Python engine."""
    [detuned] = [p for p in presets.get_preset("fig2").points
                 if p.meta["n_g_stored"] == 1.4 and p.meta["detuning_mhz"] == 1.0]
    pumped = presets.get_preset("fig4ab").points[12].config
    configs = [replace(presets.get_preset("fig4e").points[3].config, n_shots=600,
                       master_seed=59),
               replace(detuned.config, n_shots=300, master_seed=61),
               replace(pumped, source=replace(pumped.source, detuning=DETUNED),
                       n_shots=300, master_seed=67)]
    with _python_shots():
        return configs, [run_experiment(cfg) for cfg in configs]


# the package's (module, attribute) bindings before and after the first
# load of the kernel, built into the empty directory argv[1]; prints how
# many were compared
LOAD_PROBE = """
import sys, types
import photon_transistor.cli
from photon_transistor import _kernel
_kernel._KERNEL_CACHE = sys.argv[1]

def bindings():
    return {(name, attr): value for name, module in list(sys.modules.items())
            if name.startswith("photon_transistor") and isinstance(module, types.ModuleType)
            for attr, value in vars(module).items()}

before, modules = bindings(), set(sys.modules)
assert _kernel._window_kernel() is not None, "the kernel did not build"
after = bindings()
assert after.keys() == before.keys(), sorted(after.keys() ^ before.keys())
assert [key for key in before if after[key] is not before[key]] == []
assert [name for name in set(sys.modules) - modules if "_window" in name] == []
print(len(before))
"""


def _check_entry_point_refusals():
    """The entry point raises, and writes nothing, for arguments that are
    not an 8-byte aligned writeable block exactly as long as its header
    says and a 64-bit shot index.  Every buffer holds a block of shots 10
    to 12, or its start, so that shot 10, run, would write its row."""
    shot, block = engine._shot_scratch(base_config(), 10, 3)[:2]
    packed = bytes(block)
    head = ctypes.sizeof(_kernel._ShotArgs)

    def lying(**fields):
        """The block, its header saying ``fields``."""
        args = _kernel._ShotArgs.from_buffer_copy(packed)
        for name, value in fields.items():
            setattr(args, name, value)
        return bytearray(bytes(args) + packed[head:])

    shifted = bytearray(len(packed) + 1)
    shifted[1:] = packed
    bad_block = "needs an 8-byte aligned block"
    refusals = [((bytearray(packed[:head - 8]), 10), ValueError, bad_block),
                # master_seed, first and n_rows, and no n_levels
                ((bytearray(packed[:24]), 10), ValueError, bad_block),
                ((bytearray(packed[:-8]), 10), ValueError, bad_block),
                ((bytearray(packed + bytes(8)), 10), ValueError, bad_block),
                ((bytearray(packed + bytes(72)), 10), ValueError, bad_block),
                ((lying(n_rows=4), 10), ValueError, bad_block),
                ((lying(n_levels=2 ** 62), 10), ValueError, bad_block),
                # 16 n_levels wraps around to the levels' true length
                ((lying(n_levels=2 ** 62 + 1), 10), ValueError, bad_block),
                ((lying(n_levels=-1), 10), ValueError, bad_block),
                ((memoryview(shifted)[1:], 10), ValueError, bad_block),
                ((packed, 10), BufferError, "not writable"),
                (([0] * len(packed), 10), TypeError, "bytes-like object is required"),
                ((block,), TypeError, "takes 2 arguments"),
                ((block, 10, 11), TypeError, "takes 2 arguments"),
                ((block, -1), OverflowError, "negative int"),
                ((block, 2 ** 64), OverflowError, "int too big")]
    for call, error, match in refusals:
        before = bytes(call[0])
        with pytest.raises(error, match=match):
            shot(*call)
        assert bytes(call[0]) == before
        assert bytes(block) == packed
    assert shot(block, 10) is False  # the block itself runs


class TestWindowKernel:
    """The compiled source window against the Python loop."""

    @pytest.mark.parametrize("etas", [
        [1e-12, 8e-29, 8e-29],  # at ETA_FLOOR only when added left to right
        [0.0, 0.0, 2.0],        # uncoupled atoms before the one that scatters
        [3.3] * 200,
    ])
    @pytest.mark.parametrize("pumping", [NO_PUMP, PumpingModel(0.3, 0.0),
                                         PumpingModel(1.0, 0.5)])
    def test_hand_built_windows_equal_python(self, etas, pumping):
        _require_kernel()
        for delta in (0.0, DETUNED):
            for i in range(20):
                _assert_windows_equal(etas, SourceDrive(500.0, delta), pumping,
                                      shot_rng(3, i))

    @pytest.mark.parametrize("name", [*presets.PRESET_BUILDERS, "custom"])
    def test_preset_points_equal_python(self, name):
        _require_kernel()
        preset = (presets.custom_preset(default_config()) if name == "custom"
                  else presets.get_preset(name))
        configs = runner.point_configs(preset, 40, 5)
        with _python_shots():
            expected = runner.run_preset_points(configs)
        for cfg, table in zip(configs, expected):
            assert np.array_equal(run_experiment(cfg), table)
            assert np.array_equal(run_experiment(cfg, workers=2), table)

    @settings(max_examples=60, deadline=None)
    @RANDOM_WINDOWS
    @example(eta0=3.3, levels=None, standing_wave=False, stored=2.0, photons=200.0,
             detuning=0.0, hop_prob=0.5, hop_ratio=0.0, dark=0.0, retrieval=True, seed=1)
    @example(eta0=3.3, levels=None, standing_wave=False, stored=2.0, photons=200.0,
             detuning=DETUNED, hop_prob=0.0, hop_ratio=0.0, dark=0.0, retrieval=True,
             seed=1)
    def test_random_windows_equal_python(self, **window):
        _require_kernel()
        _check_random_windows(**window)

    def test_sanitized_random_windows_equal_python(self, sanitized_child):
        # the same comparison, in the child built under both sanitizers
        assert sanitized_child.returncode == 0, sanitized_child.stderr[-4000:]
        assert "random windows checked" in sanitized_child.stdout.splitlines()

    @pytest.mark.parametrize("etas, source, pumping, match", [
        ([2.0], SourceDrive(1e19), NO_PUMP, "lam value too large"),
        ([math.nan, 1.0], SourceDrive(50.0), NO_PUMP, "p <= 0, p > 1"),
        # the hop turns the infinite cooperativity into NaN
        ([math.inf, 1.0], SourceDrive(50.0), KILL_ON_SCATTER, "p <= 0, p > 1"),
        ([2.0], SourceDrive(1e19, DETUNED), NO_PUMP, "lam value too large"),
        ([math.nan, 1.0], SourceDrive(50.0, DETUNED), NO_PUMP, "p <= 0, p > 1"),
        # at this detuning the empty-cavity T is NaN: 2j * delta overflows
        ([1e-13], unchecked_drive(50.0, 1e308), NO_PUMP, "p < 0, p > 1 or p is NaN"),
    ])
    def test_raises_what_the_generator_raises(self, etas, source, pumping, match):
        _require_kernel()
        def run(window):
            return window(SpinWave(len(etas), list(etas)), source, pumping, CAVITY, ATOMS,
                          shot_rng(0, 0))

        with pytest.raises(ValueError, match=match):
            run(evolve_source_window)
        if match == "lam value too large":
            # the photon number is drawn before either loop runs
            with pytest.raises(ValueError, match=match):
                run(_compiled_window)
        else:
            assert run(_compiled_window)[0] < 0

    def test_python_window_does_not_build_the_kernel(self, cold_kernel_cache):
        _, spin = evolve_source_window(spin_with(3.3, 3), SourceDrive(200.0),
                                       PumpingModel(0.5, 0.8), CAVITY, ATOMS, shot_rng(1, 0))
        assert spin.n_scatters > 0
        assert _kernel._window_kernel.cache_info().misses == 0
        assert not cold_kernel_cache.exists()

    def test_missing_compiler_falls_back_to_python(self, cold_kernel_cache, monkeypatch):
        configs = [base_config(n_shots=200, source=SourceDrive(300.0),
                               pumping=PumpingModel(0.5, 0.8)),
                   base_config(n_shots=200, source=SourceDrive(300.0, DETUNED))]
        with _python_shots():
            expected = [run_experiment(cfg) for cfg in configs]
        monkeypatch.setattr(_kernel, "_CC", str(cold_kernel_cache / "no-such-cc"))
        for cfg, table in zip(configs, expected):
            assert np.array_equal(run_experiment(cfg), table)
        assert _kernel._window_kernel() is None
        assert list(cold_kernel_cache.iterdir()) == []

    def test_unwritable_cache_builds_in_a_private_directory(self, cold_kernel_cache,
                                                            monkeypatch, tmp_path):
        _require_compiler()
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(_kernel, "_KERNEL_CACHE", str(tmp_path / "file" / "cache"))
        monkeypatch.setattr(tempfile, "tempdir", str(cold_kernel_cache))
        cold_kernel_cache.mkdir()
        assert _kernel._window_kernel() is not None
        assert list(cold_kernel_cache.iterdir()) == []  # removed once loaded

    def test_parallel_run_builds_once_in_the_parent(self, cold_kernel_cache,
                                                    monkeypatch, tmp_path):
        _require_compiler()
        log = tmp_path / "cc.log"
        cc = tmp_path / "cc"
        cc.write_text(f'#!/bin/sh\necho $PPID >> "{log}"\n'
                      f'exec "{shutil.which(_kernel._CC)}" "$@"\n')
        cc.chmod(0o755)
        monkeypatch.setattr(_kernel, "_CC", str(cc))
        for delta in (0.0, DETUNED):  # each from a cold cache
            monkeypatch.setattr(_kernel, "_KERNEL_CACHE", str(tmp_path / f"cache{delta}"))
            _kernel._window_kernel.cache_clear()
            run_experiment(base_config(n_shots=400, source=SourceDrive(300.0, delta)),
                           workers=2)
        assert log.read_text().split() == [str(os.getpid())] * 2

    def test_rebuild_removes_the_older_library(self, cold_kernel_cache, monkeypatch,
                                               tmp_path):
        # the cache holds one library per interpreter, named by its cache tag
        _require_kernel()
        [first] = [p.name for p in cold_kernel_cache.iterdir()]
        # another interpreter's tag starts with a hex letter, as "cpython-" does
        other = cold_kernel_cache / "_window.cpython-27.0123456789abcdef.so"
        other.write_bytes(b"")
        edited = tmp_path / "_window.c"
        with open(_kernel._KERNEL_SOURCE) as fh:
            edited.write_text(fh.read() + "/* edited */\n")
        monkeypatch.setattr(_kernel, "_KERNEL_SOURCE", str(edited))
        _kernel._window_kernel.cache_clear()
        assert _kernel._window_kernel() is not None
        names = {p.name for p in cold_kernel_cache.iterdir()}
        assert other.name in names  # another interpreter's library stays
        [second] = names - {other.name}
        prefix = f"_window.{sys.implementation.cache_tag}."
        assert first.startswith(prefix) and second.startswith(prefix)
        assert second != first

    def test_changed_flags_build_a_new_library(self, cold_kernel_cache, monkeypatch):
        # the library's name hashes the compiler command, so a flag changed
        # after a build is never served by the library built without it
        _require_kernel()
        [first] = [p.name for p in cold_kernel_cache.iterdir()]
        monkeypatch.setattr(_kernel, "_CFLAGS", (*_kernel._CFLAGS, "-DCHANGED_FLAG"))
        _kernel._window_kernel.cache_clear()
        assert _kernel._window_kernel() is not None
        [second] = [p.name for p in cold_kernel_cache.iterdir()]
        assert second != first

    def test_import_and_preset_setup_do_not_build(self):
        # what the benchmark times as setup: import, preset, reference table
        probe = ("import photon_transistor\n"
                 "from photon_transistor import _kernel, presets, runner\n"
                 "presets.get_preset('fig4ab')\n"
                 "runner.reference_for('fig4ab')\n"
                 "print(_kernel._window_kernel.cache_info().misses)\n")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, check=True,
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert done.stdout.split() == ["0"]

    def test_kernel_source_compiles_without_warnings(self, tmp_path):
        _require_compiler()
        done = subprocess.run(
            [_kernel._CC, *_kernel._CFLAGS, "-Wall", "-Wextra", "-Werror", "-c",
             "-I", np.get_include(), "-I", sysconfig.get_paths()["include"],
             "-o", str(tmp_path / "window.o"), _kernel._KERNEL_SOURCE],
            capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


class TestDecayAndRetrieval:
    def test_zero_elapsed_survives(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            spin = apply_spin_decay(spin_with(3.3), 0.0, ATOMS, rng)
            assert spin.survived_decay

    def test_one_lifetime(self):
        rng = np.random.default_rng(11)
        survived = sum(apply_spin_decay(spin_with(3.3), ATOMS.tau_spinwave,
                                        ATOMS, rng).survived_decay
                       for _ in range(500_000))
        assert abs(survived / 500_000 - math.exp(-1)) <= 0.002

    def test_partial_lifetime(self):
        rng = np.random.default_rng(12)
        survived = sum(apply_spin_decay(spin_with(3.3), 1e-6, ATOMS, rng).survived_decay
                       for _ in range(500_000))
        assert abs(survived / 500_000 - math.exp(-1 / 2.1)) <= 0.002

    def test_collapsed_spin_never_retrieves(self):
        rng = np.random.default_rng(13)
        spin = spin_with(3.3)
        spin.coherent = False
        assert not any(retrieve_gate(spin, 1.0, rng) for _ in range(100))

    def test_intact_spin_retrieves_at_unit_efficiency(self):
        rng = np.random.default_rng(14)
        assert all(retrieve_gate(spin_with(3.3), 1.0, rng) for _ in range(100))

    def test_empty_spin_never_retrieves(self):
        rng = np.random.default_rng(15)
        assert not retrieve_gate(SpinWave(0, []), 1.0, rng)

    def test_invalid_efficiency(self):
        with pytest.raises(ValueError):
            retrieve_gate(spin_with(1.0), 1.5, np.random.default_rng(0))

    def test_combined_chain_calibration(self):
        # storage 0.15 x decay over 1 us x retrieval 0.322 = 3.0% per
        # incident photon in the weak-pulse limit
        cfg = base_config(
            coop=constant_model(3.3),
            timing=TimingSequence(1e-6, 1e-6, 0.0, 0.0),
            gate=GatePulse(0.05, 0.15, 0.3219859280039968),
            source=SourceDrive(0.0, 0.0),
            n_shots=1_000_000, master_seed=99, retrieval_mode=True)
        records = run_experiment(cfg)
        retrieved = np.mean(records.retrieved)
        per_incident = retrieved / 0.05
        se = math.sqrt(retrieved / len(records)) / 0.05
        assert abs(per_incident - 0.030) <= 0.001 + 2 * se


class TestDetect:
    def test_identity(self):
        rng = np.random.default_rng(16)
        assert detect(137, 1e-6, 1.0, 0.0, rng) == 137

    def test_dark_only(self):
        rng = np.random.default_rng(17)
        draws = np.array([detect(0, 2e-6, 0.0, 1e6, rng) for _ in range(100_000)])
        assert abs(draws.mean() - 2.0) < 5 * math.sqrt(2.0 / draws.size)

    def test_binomial_mean(self):
        rng = np.random.default_rng(18)
        draws = np.array([detect(1000, 1e-6, 0.5, 0.0, rng) for _ in range(10_000)])
        assert abs(draws.mean() - 500.0) <= 1.0

    def test_thinning_composition(self):
        # binomial(e1) then binomial(e2) equals binomial(e1 e2)
        rng = np.random.default_rng(19)
        n = 100_000
        base = rng.poisson(20.0, size=n)
        two_step = rng.binomial(rng.binomial(base, 0.7), 0.6)
        one_step = rng.binomial(rng.poisson(20.0, size=n), 0.42)
        top = max(two_step.max(), one_step.max())
        h1 = np.bincount(two_step, minlength=top + 1)
        h2 = np.bincount(one_step, minlength=top + 1)
        keep = (h1 + h2) > 10
        table = np.vstack([h1[keep], h2[keep]])
        _, p, _, _ = sps.chi2_contingency(table)
        assert p > 1e-3

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            detect(-1, 1e-6, 1.0, 0.0, np.random.default_rng(0))


class TestRunShot:
    def test_bit_identical_repeat(self):
        cfg = base_config(retrieval_mode=True)
        assert run_shot(cfg, 3) == run_shot(cfg, 3)

    def test_chained_thinning_mean(self):
        cfg = base_config(
            gate=GatePulse(0.0, 0.15),
            source=SourceDrive(40.0, 0.0),
            detection=DetectionChain(1.0, 0.5, 0.0, 0.0),
            n_shots=30_000, master_seed=21)
        records = run_experiment(cfg)
        detected = np.mean(records.detected_source)
        assert abs(detected - 40.0 * 0.66 * 0.5) <= 0.15

    def test_outside_never_exceeds_intracavity(self):
        cfg = base_config(source=SourceDrive(30.0, 0.0), n_shots=2000)
        records = run_experiment(cfg)
        assert np.all(records.source_transmitted_outside
                      <= records.source_transmitted_intracavity)

    def test_retrieval_consistency_invariants(self):
        cfg = base_config(
            gate=GatePulse(1.5, 1.0, 0.9),
            source=SourceDrive(1.5, 0.0),
            n_shots=20_000, master_seed=23, retrieval_mode=True)
        records = run_experiment(cfg)
        retrieved = records[records.retrieved]
        assert len(retrieved) > 0
        assert np.all(retrieved.n_stored >= 1)
        assert not retrieved.collapsed.any()
        assert retrieved.survived_decay.all()

    def test_strong_gate_reaches_extinction_level(self):
        # many stored excitations: compare against the enumeration oracle
        eta = 0.4
        stored_mean = 12.0
        cfg = base_config(
            coop=constant_model(eta),
            gate=GatePulse(stored_mean, 1.0),
            source=SourceDrive(50.0, 0.0),
            timing=TimingSequence(1e-6, 0.0, 1e-6, 0.0),
            n_shots=20_000, master_seed=29)
        records = run_experiment(cfg)
        sim = np.mean(records.source_transmitted_intracavity) / 50.0
        ks = np.arange(0, 80)
        oracle = float(np.sum(sps.poisson.pmf(ks, stored_mean)
                              * (1 + eta * ks) ** -2.0))
        assert abs(sim - oracle) < 0.002


class TestRunExperiment:
    def test_single_shot_equals_run_shot(self):
        cfg = base_config(n_shots=1)
        assert run_experiment(cfg).tolist() == [run_shot(cfg, 0)]

    def test_serial_equals_parallel(self):
        cfg = base_config(n_shots=500, master_seed=31, retrieval_mode=True)
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=3)
        for table in (serial, parallel):
            assert isinstance(table, np.recarray)
            assert table.dtype == SHOT_DTYPE
            assert np.array_equal(table.shot_index, np.arange(500))
        assert np.array_equal(serial, parallel)

    @pytest.mark.parametrize("cpus, workers, processes", [
        (2, 2, 1), (1, 2, 1), (8, 3, 2), (8, 4, 3)])
    def test_caller_runs_a_share_and_each_pool_process_one(
            self, recorded_pools, monkeypatch, tmp_path, cpus, workers, processes):
        cfg = base_config(n_shots=101, master_seed=41)
        serial = run_experiment(cfg)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        log = tmp_path / "shares.log"
        monkeypatch.setattr(engine, "_run_range",
                            functools.partial(_run_range_logging_pid, log))
        assert np.array_equal(run_experiment(cfg, workers=workers), serial)
        [pool] = recorded_pools
        assert pool.max_workers == processes
        starts = [101 * i // (processes + 1) for i in range(processes + 1)]
        # the pool gets every share but the first, one task per process
        assert [share[1] for (share,) in pool.tasks] == starts[1:]
        ran = dict(map(int, line.split()) for line in log.read_text().splitlines())
        assert sorted(ran) == starts
        assert ran[0] == os.getpid()
        assert os.getpid() not in [ran[start] for start in starts[1:]]

    def test_single_shot_makes_no_pool(self, recorded_pools):
        cfg = base_config(n_shots=1, master_seed=43)
        assert np.array_equal(run_experiment(cfg, workers=2), run_experiment(cfg))
        assert recorded_pools == []

    def test_detuned_preset_point_serial_equals_parallel(self):
        [point] = [p for p in presets.get_preset("fig2").points
                   if p.meta["n_g_stored"] == 1.4 and p.meta["detuning_mhz"] == 1.0]
        cfg = replace(point.config, n_shots=400, master_seed=47)
        serial = run_experiment(cfg)
        assert serial.collapsed.any()  # blocked shots scatter off resonance too
        assert np.array_equal(run_experiment(cfg, workers=2), serial)

    def test_incomplete_parallel_run_raises(self, monkeypatch):
        monkeypatch.setattr(engine, "_run_range", _run_range_dropping_first)
        with pytest.raises(RuntimeError, match="incomplete"):
            run_experiment(base_config(n_shots=40, master_seed=31), workers=2)

    def test_worker_bound(self):
        # the pool size is clamped; no pool of that size is ever started
        assert bound_workers(1000, 10_000, cpus=2) == 2
        assert bound_workers(1000, 3, cpus=8) == 3
        assert bound_workers(0, 10_000, cpus=2) == 1
        assert bound_workers(-4, 10_000, cpus=2) == 1
        assert bound_workers(4, 10_000, cpus=8) == 4
        usable = len(os.sched_getaffinity(0))
        assert 1 <= bound_workers(1000, 10_000) <= usable

    def test_shot_rng_streams_are_independent_of_order(self):
        cfg = base_config(n_shots=50, master_seed=37)
        records = run_experiment(cfg)
        assert [run_shot(cfg, i) for i in reversed(range(50))][::-1] == records.tolist()


class TestShotTable:
    def test_rows_become_columns(self):
        cfg = base_config(retrieval_mode=True)
        rows = [run_shot(cfg, i) for i in range(5)]
        table = shot_table(rows)
        assert table.dtype == SHOT_DTYPE
        assert table.tolist() == rows
        assert list(table.n_stored) == [r.n_stored for r in rows]
        assert table[2].detected_source == rows[2].detected_source

    def test_table_is_not_copied(self):
        table = run_experiment(base_config(n_shots=10))
        assert np.shares_memory(shot_table(table), table)
        assert len(shot_table([])) == 0


class TestSamplerMoments:
    def test_poisson_five_sigma(self):
        rng = shot_rng(0, 0)
        lam = 3.7
        draws = rng.poisson(lam, size=1_000_000).astype(float)
        assert abs(draws.mean() - lam) < 5 * math.sqrt(lam / draws.size)
        var_se = math.sqrt((np.mean((draws - draws.mean()) ** 4)
                            - draws.var() ** 2) / draws.size)
        assert abs(draws.var() - lam) < 5 * var_se

    def test_binomial_five_sigma(self):
        rng = shot_rng(0, 1)
        n, p = 40, 0.37
        draws = rng.binomial(n, p, size=1_000_000).astype(float)
        mean, var = n * p, n * p * (1 - p)
        assert abs(draws.mean() - mean) < 5 * math.sqrt(var / draws.size)
        var_se = math.sqrt((np.mean((draws - draws.mean()) ** 4)
                            - draws.var() ** 2) / draws.size)
        assert abs(draws.var() - var) < 5 * var_se


class TestValidation:
    def test_timing_invariants(self):
        with pytest.raises(ValueError, match="source_window"):
            TimingSequence(1e-6, 0.0, -1e-6, 0.0)

    def test_gate_invariants(self):
        with pytest.raises(ValueError, match="storage_efficiency"):
            GatePulse(1.0, 1.2)

    def test_source_invariants(self):
        with pytest.raises(ValueError, match="mean_source_photons"):
            SourceDrive(-2.0)

    def test_detuning_bound(self):
        # 2j * detuning stays finite up to half the largest float
        bound = sys.float_info.max / 2
        for delta in (bound, -bound):
            assert SourceDrive(50.0, delta).detuning == delta
        for delta in (1e308, -1e308, math.nextafter(bound, math.inf)):
            with pytest.raises(ValueError, match="SourceDrive.detuning"):
                SourceDrive(50.0, delta)

    def test_config_invariants(self):
        with pytest.raises(ValueError, match="n_shots"):
            base_config(n_shots=0)

    def test_seed_range(self):
        with pytest.raises(ValueError, match="master_seed"):
            base_config(master_seed=2 ** 64)

    def test_spinwave_invariants(self):
        with pytest.raises(ValueError, match="etas"):
            SpinWave(n_exc=2, etas=[1.0])

    def test_source_strength_helper(self):
        cfg = base_config()
        assert with_source_strength(cfg, 7.5).source.mean_source_photons == 7.5


def _same_float(a, b):
    """Equal bit for bit, or both NaN (whose payloads carry no result)."""
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


def _c_quot(ar, ai, br, bi):
    """CPython's complex division ``_Py_c_quot`` in plain floats."""
    abs_br, abs_bi = abs(br), abs(bi)
    if abs_br >= abs_bi:
        if abs_br == 0.0:
            raise ZeroDivisionError("complex division by zero")
        ratio = bi / br
        denom = br + bi * ratio
        return (ar + ai * ratio) / denom, (ai - ar * ratio) / denom
    if abs_bi >= abs_br:
        ratio = br / bi
        denom = br * ratio + bi
        return (ar * ratio + ai) / denom, (ai * ratio - ar) / denom
    return math.nan, math.nan


def _real_window_probabilities(delta, total, kappa, gamma, eta_floor):
    """``engine._window_probabilities`` in real arithmetic, with every
    complex operation of ``qed.cavity_transmission_spectrum`` as CPython
    makes it; plain floats only, so any interpreter can run it."""
    def denominator(width):  # 1.0 + 2.0j * delta / width
        re, im = 0.0 * delta - 2.0 * 0.0, 0.0 * 0.0 + 2.0 * delta  # the product
        re, im = _c_quot(re, im, width, 0.0)
        return 1.0 + re, 0.0 + im

    if total <= eta_floor:
        if delta == 0.0:
            return 1.0, 0.0
        cr, ci = denominator(kappa)
        return 1.0 / (cr * cr + ci * ci), 0.0
    if delta == 0.0:
        onep = 1.0 + total
        t = 1.0 / (onep * onep)
        s = 2.0 * total * t
    else:
        cr, ci = denominator(kappa)
        qr, qi = _c_quot(total, 0.0, *denominator(gamma))
        dr, di = cr + qr, ci + qi
        t = 1.0 / (dr * dr + di * di)
        x = 2.0 * delta / gamma
        s = 2.0 * total * (1.0 / (1.0 + x * x)) * t
    return t, (s if s < 1.0 - t else 1.0 - t)


def _complex_window_probabilities(delta, total, kappa, gamma, eta_floor):
    """``engine._window_probabilities`` as written with Python's complex
    numbers (``_transmission_and_scatter`` over
    ``qed.cavity_transmission_spectrum``), without numpy."""
    denom = 1.0 + 2.0j * delta / kappa
    if total <= eta_floor:
        return (1.0, 0.0) if delta == 0.0 else (
            1.0 / (denom.real * denom.real + denom.imag * denom.imag), 0.0)
    if delta == 0.0:
        onep = 1.0 + total
        t = 1.0 / (onep * onep)
        s = 2.0 * total * t
    else:
        denom += total / (1.0 + 2.0j * delta / gamma)
        t = 1.0 / (denom.real * denom.real + denom.imag * denom.imag)
        x = 2.0 * delta / gamma
        lor2 = 1.0 / (1.0 + x * x)
        s = 2.0 * total * lor2 * t
    return t, (s if s < 1.0 - t else 1.0 - t)


# the real-arithmetic and complex formulas on random (delta, total) in any
# interpreter; prints the number of inputs compared and of mismatches
FORMULAS_RUN = """
import math, random, struct
{source}
rng = random.Random(12)
deltas = [rng.uniform(-1e8, 1e8) for _ in range(3000)]
deltas += [math.copysign(10 ** rng.uniform(-3, 12), rng.random() - 0.5) for _ in range(3000)]
deltas += [1e308, -1e308, 9e307, 1e-300, -0.0]
totals = [rng.uniform(0.0, 40.0) for _ in range(3000)]
totals += [10 ** rng.uniform(-14, 3) for _ in range(3000)] + [ETA_FLOOR, 0.0, 2e-12]
cases = [(d, t) for d, t in zip(deltas, totals)] + [(d, ETA_FLOOR) for d in deltas[:50]]
cases += [(d, 1.0) for d in deltas[-5:]]
bad = [c for c in cases
       if not all(_same_float(a, b) for a, b in zip(
           _real_window_probabilities(*c, KAPPA, GAMMA, ETA_FLOOR),
           _complex_window_probabilities(*c, KAPPA, GAMMA, ETA_FLOOR)))]
print(len(cases), len(bad), bad[:3])
"""


class TestShotKernel:
    """The compiled shot against ``run_shot`` in Python."""

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
    def test_stream_equals_shot_rng(self, seed):
        _require_kernel()
        for index in (0, 1, 2 ** 64 - 1):
            raw = (ctypes.c_uint64 * 9)()
            _kernel_exports().philox_raw((ctypes.c_uint64 * 2)(seed, index), raw,
                                         ctypes.c_int64(9))
            # nine words cross the boundary of the 4-word blocks twice
            assert list(raw) == shot_rng(seed, index).bit_generator.random_raw(9).tolist()

    @settings(max_examples=300, deadline=None)
    @given(delta=st.floats(-1e8, 1e8),
           total=st.one_of(st.floats(0.0, 1e3), st.sampled_from([
               ETA_FLOOR, math.nextafter(ETA_FLOOR, 0.0), math.nextafter(ETA_FLOOR, 1.0)])))
    @example(delta=1e308, total=0.5)  # 2j * delta overflows: T is NaN
    @example(delta=1e308, total=ETA_FLOOR)
    @example(delta=2 * ATOMS.gamma, total=3.3)  # the quotient's second branch
    def test_ported_window_probabilities_equal_python(self, delta, total):
        _require_kernel()
        block = engine._shot_scratch(base_config(source=unchecked_drive(1.0, delta)), 0, 1)[1]
        ported = (ctypes.c_double * 2)(total)
        _kernel_exports().window_probabilities_of(
            ctypes.byref(_kernel._ShotArgs.from_buffer(block)), ported)
        expected = engine._window_probabilities(delta, total, CAVITY, ATOMS)
        formulas = [f(delta, total, CAVITY.kappa, ATOMS.gamma, ETA_FLOOR)
                    for f in (_real_window_probabilities, _complex_window_probabilities)]
        for got in (tuple(ported), *formulas):
            assert all(map(_same_float, got, expected)), (got, expected)

    @pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
    def test_real_formula_equals_complex_in_other_pythons(self, version):
        # the kernel's arithmetic repeats CPython 3.11's complex operations;
        # this checks that other versions make them the same way
        python = shutil.which(f"python{version}")
        env = dict(os.environ, PYENV_VERSION=version)  # picks the version of a pyenv shim
        if python is None or subprocess.run([python, "-c", ""], env=env,
                                            capture_output=True).returncode != 0:
            pytest.skip(f"no python{version} to run")
        source = "\n".join([inspect.getsource(f) for f in (
            _same_float, _c_quot, _real_window_probabilities, _complex_window_probabilities)]
            + [f"KAPPA, GAMMA, ETA_FLOOR = {CAVITY.kappa!r}, {ATOMS.gamma!r}, {ETA_FLOOR!r}"])
        done = subprocess.run([python, "-c", FORMULAS_RUN.format(source=source)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        compared, mismatched, _ = done.stdout.split(" ", 2)
        assert int(compared) > 6000 and mismatched == "0", done.stdout

    @pytest.mark.parametrize("overrides, match", [
        (dict(gate=GatePulse(1e19, 1.0, 1.0)), "lam value too large"),
        (dict(source=SourceDrive(1e19)), "lam value too large"),
        (dict(source=SourceDrive(1e19, DETUNED)), "lam value too large"),
        # rate * window = 1e20 is above numpy's largest Poisson mean
        (dict(detection=DetectionChain(1.0, 1.0, 0.0, 1e26)), "lam value too large"),
        (dict(detection=DetectionChain(1.0, 1.0, 1e26, 0.0)), "lam value too large"),
        (dict(gate=GatePulse(3.0, 1.0, 1.0), source=unchecked_drive(50.0, 1e308)),
         "p <= 0, p > 1"),
    ])
    def test_run_shot_raises_what_the_generator_raises(self, overrides, match):
        _require_kernel()
        cfg = base_config(**overrides)
        errors = []
        for python_only in (False, True):
            with _python_shots() if python_only else contextlib.nullcontext():
                with pytest.raises(ValueError, match=match) as info:
                    for i in range(10):
                        run_shot(cfg, i)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    def test_compiled_records_hold_bools(self):
        _require_kernel()
        cfg = base_config(gate=GatePulse(1.5, 1.0, 0.9), source=SourceDrive(1.5),
                          retrieval_mode=True, detection=DetectionChain(0.7, 0.5, 1e5, 1e5))
        with mock.patch.object(engine, "_run_shot_py", side_effect=AssertionError):
            records = [run_shot(cfg, i) for i in range(200)]
        with _python_shots():
            assert records == [run_shot(cfg, i) for i in range(200)]
        for field in ("collapsed", "retrieved", "survived_decay"):
            values = [getattr(r, field) for r in records]
            assert {type(v) for v in values} == {bool} and len(set(values)) == 2

    @pytest.mark.parametrize("index", [-1, 2 ** 64])
    def test_shot_index_out_of_range(self, index):
        _require_kernel()
        with pytest.raises(ValueError, match="shot_index must be a 64-bit integer"):
            run_shot(base_config(), index)

    def test_more_stored_excitations_than_the_kernel_holds(self):
        _require_kernel()
        cfg = base_config(gate=GatePulse(1030.0, 1.0, 1.0), source=SourceDrive(40.0),
                          n_shots=60)
        with _python_shots():
            expected = run_experiment(cfg)
        assert np.array_equal(run_experiment(cfg), expected)
        assert expected.n_stored.max() > ETA_CAPACITY

    def test_rows_outside_the_block_are_refused(self):
        _require_kernel()
        _check_rows_outside_the_block_refused()

    def test_entry_point_refuses_what_is_not_a_shot(self):
        _require_kernel()
        _check_entry_point_refusals()

    def test_refused_shots_in_the_middle_of_a_range_run_in_python(self):
        _require_kernel()
        cfg = base_config(gate=GatePulse(1000.0, 1.0, 1.0), source=SourceDrive(40.0),
                          retrieval_mode=True, n_shots=400)
        start, stop = 101, 260
        with _python_shots():
            expected = engine._run_range((cfg, start, stop))
        # a shot at the capacity runs compiled, and one past it in Python
        assert {ETA_CAPACITY, ETA_CAPACITY + 1} <= set(expected.n_stored.tolist())
        refused = expected.shot_index[expected.n_stored > ETA_CAPACITY].tolist()
        assert refused and start < refused[0] and refused[-1] < stop - 1
        with mock.patch.object(engine, "_run_shot_py", wraps=engine._run_shot_py) as python:
            table = engine._run_range((cfg, start, stop))
        assert table.tolist() == expected.tolist()
        assert [call.args[1] for call in python.call_args_list] == refused

    @pytest.mark.parametrize("workers", [1, 2])
    def test_compiled_shots_make_no_record(self, workers):
        # the kernel writes the table's rows: no ShotRecord is made and no
        # shot runs in Python, in the caller or in a pool process
        _require_kernel()
        configs, expected = _fig4e_and_detuned_points()
        with mock.patch.object(engine, "ShotRecord", side_effect=AssertionError), \
                mock.patch.object(engine, "_run_shot_py", side_effect=AssertionError):
            for cfg, table in zip(configs, expected):
                assert run_experiment(cfg, workers=workers).tolist() == table.tolist()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shots_run_through_the_entry_point_alone(self, workers, cold_kernel_cache):
        # the kernel is built, loaded and run with no ctypes library
        # opened, and no shot runs in Python, in the caller or in a pool
        # process
        _require_compiler()
        configs, expected = _fig4e_and_detuned_points()
        with mock.patch.object(ctypes, "CDLL", side_effect=AssertionError), \
                mock.patch.object(engine, "_run_shot_py", side_effect=AssertionError):
            for cfg, table in zip(configs, expected):
                assert run_experiment(cfg, workers=workers).tolist() == table.tolist()
            assert _kernel._window_kernel() is not None

    def test_loading_binds_nothing(self, tmp_path):
        # the snapshot perfbench's self-test takes of the package's
        # bindings, before and after the first load, from a cold cache
        _require_compiler()
        done = subprocess.run(
            [sys.executable, "-c", LOAD_PROBE, str(tmp_path / "cache")],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert done.returncode == 0, done.stderr[-4000:]
        assert int(done.stdout) > 100  # bindings compared

    def test_address_sanitized_random_shots_equal_python(self, sanitized_child):
        # rows outside the block and entry-point refusals under both sanitizers
        assert sanitized_child.returncode == 0, sanitized_child.stderr[-4000:]
        assert "refusals checked" in sanitized_child.stdout.splitlines()

# _check_random_windows, whose ranges write rows from a block offset,
# _check_rows_outside_the_block_refused and _check_entry_point_refusals, in
# a fresh interpreter whose kernel is built into the directory argv[2] with
# the compiler flags argv[3:]; a sanitizer report ends that interpreter, so
# its stderr can be shown
SANITIZER_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
import test_engine as t
t._kernel._KERNEL_CACHE = sys.argv[2]
t._kernel._CFLAGS += tuple(sys.argv[3:])
assert t._kernel._window_kernel() is not None, "the sanitized kernel did not build"
t._check_rows_outside_the_block_refused()
t._check_entry_point_refusals()
print("refusals checked", flush=True)
t.settings(max_examples=40, deadline=None)(t.RANDOM_WINDOWS(t._check_random_windows))()
print("random windows checked", flush=True)
"""
