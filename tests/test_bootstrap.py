"""The shared bootstrap (``stats._draw_sums`` over the rows that
``stats._counted_rows`` finds), the compiled multinomial counts it draws,
the point estimates of every estimator that uses it, their fallback
counts, and property tests of the estimators."""

import contextlib
import math
import re
import shutil
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photon_transistor import _kernel, presets, runner, stats
from photon_transistor.engine import SHOT_DTYPE, ShotRecord

PROPERTY = settings(max_examples=40, deadline=None)


def synthetic_records(n, seed, mu=20.0, stored_mean=0.5):
    """Seeded shot table with the shape of a gated run: unblocked shots
    transmit ~mu photons, blocked ones a tenth of that."""
    rng = np.random.default_rng(seed)
    stored = rng.poisson(stored_mean, n)
    intra = rng.poisson(np.where(stored == 0, mu, 0.1 * mu))
    outside = rng.binomial(intra, 0.66)
    detected = rng.binomial(outside, 0.43)
    retrieved = (stored >= 1) & (rng.random(n) < 0.5 * np.exp(-0.66 * mu / 2.8))
    gate = rng.binomial(stored, 0.3)
    return np.rec.fromarrays([np.arange(n), stored, intra, outside, np.zeros(n, bool),
                              retrieved, np.ones(n, bool), detected, gate],
                             dtype=SHOT_DTYPE)


def sorted_bootstrap(cols, resamples, rng):
    """``stats._draw_sums`` over the distinct rows of the C-contiguous
    float columns ``cols`` (n shots x k), byte-sorted from all n rows: the
    bootstrap the estimators' counted rows must reproduce draw for draw."""
    return stats._draw_sums(*stats._distinct_rows(cols), len(cols), resamples, rng)


def shots(n_stored, values):
    return [ShotRecord(i, k, v, v, False, k == 1, True, v, k)
            for i, (k, v) in enumerate(zip(n_stored, values))]


@pytest.fixture(scope="module")
def records():
    return synthetic_records(600, 1)


@pytest.fixture(scope="module")
def decay_points():
    return [synthetic_records(500, 10 + i, mu=mu)
            for i, mu in enumerate((0.0, 1.0, 2.0, 3.5, 5.0))]


class TestBootstrapSums:
    COLUMNS = np.array([[1, 0, 3], [1, 1, 0], [1, 0, 3], [1, 2, 5],
                        [1, 1, 0], [1, 0, 1], [1, 2, 5], [1, 0, 3]], dtype=float)

    def test_moments_match_the_index_bootstrap(self):
        # a resample of n rows has sums with mean n*mean and covariance
        # n*cov (ddof=0) of the rows; 20000 replicates give the means to
        # well under 5 standard errors and the variances to about 1%
        n, reps = len(self.COLUMNS), 20_000
        sums = sorted_bootstrap(self.COLUMNS, reps, np.random.default_rng(3))
        assert sums.shape == (reps, 3)
        assert np.all(sums[:, 0] == n)
        mean, var = self.COLUMNS[:, 1:].mean(axis=0), self.COLUMNS[:, 1:].var(axis=0)
        se = np.sqrt(n * var / reps)
        assert np.all(np.abs(sums[:, 1:].mean(axis=0) - n * mean) < 5 * se)
        assert np.allclose(sums[:, 1:].var(axis=0), n * var, rtol=0.05)

    def test_same_seed_same_draws(self):
        a = sorted_bootstrap(self.COLUMNS, 50, np.random.default_rng(5))
        b = sorted_bootstrap(self.COLUMNS, 50, np.random.default_rng(5))
        c = sorted_bootstrap(self.COLUMNS, 50, np.random.default_rng(6))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n_rows, resamples, block", [
        (20_000, 30, 1),     # one row of counts fills a block
        (300, 250, 109),     # 250 resamples in blocks of 109, 109 and 32
        (40_000, 20, 1)],    # more distinct rows than counts in a block
        ids=["one-row-block", "uneven-blocks", "rows-outnumber-block"])
    def test_blocks_do_not_change_draws(self, monkeypatch, n_rows, resamples, block):
        # all rows distinct, the case where blocking bounds memory; integer
        # valued like shot counts, so the sums are exact in any order
        cols = np.random.default_rng(7).integers(0, 10**9, (n_rows, 2)).astype(float)
        assert len(stats._distinct_rows(cols)[0]) == n_rows
        assert max(1, stats._BOOTSTRAP_BLOCK // n_rows) == block
        blocked = sorted_bootstrap(cols, resamples, np.random.default_rng(8))
        monkeypatch.setattr(stats, "_BOOTSTRAP_BLOCK", resamples * n_rows)
        whole = sorted_bootstrap(cols, resamples, np.random.default_rng(8))
        assert np.array_equal(whole, blocked)

    def test_working_memory_holds_one_copy_of_the_rows(self):
        # 100k distinct rows of 6 floats (8nk = 4.8 MB): the distinct rows,
        # a few n-long index and count arrays and one row of counts per
        # block stay under 2 * 8nk plus 1 MiB; an n x 8k byte matrix of the
        # sorted rows beside its n x 8k comparison does not (12.9 MB)
        n, k = 100_000, 6
        cols = np.random.default_rng(12).random((n, k))
        tracemalloc.start()
        try:
            sorted_bootstrap(cols, 1000, np.random.default_rng(13))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * n * k + (1 << 20)

    @pytest.mark.parametrize("resamples", [0, -1])
    def test_no_resample_is_refused(self, records, resamples):
        with pytest.raises(ValueError, match=f"resamples must be at least 1, not {resamples}"):
            stats.gain(records, resamples=resamples)
        with pytest.raises(ValueError, match="resamples must be at least 1"):
            sorted_bootstrap(self.COLUMNS, resamples, np.random.default_rng(0))

    def test_no_shot_is_refused(self, records):
        for empty in ([], records[:0]):
            with pytest.raises(ValueError, match="extinction_factor_errors got no shots"):
                stats.extinction_factor_errors(empty)

    def test_empty_component_frequency(self):
        # 2 of 40 shots in one component: a resample misses both with
        # probability (38/40)**40; 2000 replicates put the count within
        # 5 standard deviations of 2000 times that
        p = (38 / 40) ** 40
        cols = np.array([[1.0]] * 2 + [[0.0]] * 38)
        sums = sorted_bootstrap(cols, 2000, np.random.default_rng(9))
        empty = int((sums[:, 0] == 0).sum())
        assert abs(empty - 2000 * p) < 5 * math.sqrt(2000 * p * (1 - p))


# ---------------------------------------------------------------------------
# the compiled multinomial counts

def _require_kernel():
    """The kernel's module; skip without a C compiler, and with one the
    kernel must build."""
    if shutil.which(_kernel._CC) is None:
        pytest.skip(f"no C compiler found ({_kernel._CC!r} is not on PATH)")
    kernel = _kernel._window_kernel()
    assert kernel is not None, "the window kernel did not build"
    return kernel


def _python_draws():
    """Every bootstrap draws with ``rng.multinomial`` while this is active."""
    return mock.patch.object(_kernel, "_window_kernel", lambda: None)


def _counts_block(rows, d, fill=0):
    """A writeable int64 array of rows x d, all ``fill``, over a bytearray:
    with PYTHONMALLOC=malloc its exact bounds are what the sanitizer sees."""
    counts = np.frombuffer(bytearray(8 * rows * d), np.int64).reshape(rows, d)
    counts[...] = fill
    return counts


def _compiled_multinomial(n, p, counts, rng):
    """The kernel's ``multinomial`` into ``counts``, drawing from ``rng``'s
    bit generator under its lock: whether it refused."""
    with rng.bit_generator.lock:
        return _kernel._window_kernel().multinomial(rng.bit_generator.capsule, n, p, counts)


def _check_multinomial(n, p, size, seed):
    """The kernel's ``size`` rows of counts equal ``rng.multinomial``'s
    count for count, from generators seeded alike, and leave them in the
    same state."""
    p = np.array(p, float)
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    counts = _counts_block(size, len(p), fill=-1)
    assert _compiled_multinomial(n, p, counts, ours) is False
    expected = numpys.multinomial(n, p, size=size)
    assert np.array_equal(counts, expected), (n, p.tolist(), size, seed)
    assert ours.bit_generator.state == numpys.bit_generator.state
    assert ours.random() == numpys.random()


def _probabilities(weights):
    """``weights`` over their sum, or all on the first category when they sum to 0."""
    w = np.array(weights, float)
    if w.sum() == 0:
        w[0] = 1.0
    return (w / w.sum()).tolist()


def RANDOM_MULTINOMIALS(check):
    """``check`` as a hypothesis test over n from 0 to 10^6, 1 to 40
    categories with zeros and dominant ones among them, and blocks of 0 to
    5 rows, with examples of each way a category is drawn."""
    examples = [
        (0, [1.0], 3), (7, [1.0], 2), (0, [0.3, 0.7], 4),
        # inversion at n = 10^6, p * n = 1
        (10 ** 6, [1e-6] * 10 + [1 - 1e-5], 3),
        # BTPE, and inversion of 1 - p for p above 0.5
        (1000, [0.5, 0.5], 3), (1000, [0.99, 0.01], 3), (10 ** 6, [0.6, 0.4], 2),
        # zeros before, between and after; a category of p = 1 takes all
        (50, [0.0, 0.2, 0.0, 0.8, 0.0], 4), (50, [0.0, 1.0, 0.0], 2),
        # p[1] / (1 - p[0]) rounds above 1: numpy's own random_binomial
        (40, [0.6, 0.4 + 1e-13, 0.0], 2),
        # a single row, numpy's own random_multinomial
        (2000, [0.25, 0.25, 0.5], 1),
        # p * n = 0.001: of 8000 draws, about 8 count 1, where numpy's
        # rejection bound, 10 sqrt(p n (1 - p) + 1), passes a count of 1
        (1000, [1e-6] * 40 + [1 - 4e-5], 200)]
    for n, p, size in examples:
        check = example(n=n, p=p, size=size, seed=5)(check)
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1.0, 1e3))
    return given(n=st.one_of(st.integers(0, 100), st.integers(0, 10 ** 6)),
                 p=st.lists(weight, min_size=1, max_size=40).map(_probabilities),
                 size=st.integers(0, 5), seed=st.integers(0, 2 ** 64 - 1))(check)


def _check_multinomial_refusals():
    """Arguments the Generator rejects are refused with nothing written or
    drawn, and ``_draw_sums`` raises the Generator's own error for them,
    with the kernel and without; a bad buffer raises ``ValueError`` and is
    left as it was; a counts buffer one row short gets one row fewer."""
    pvals = re.escape("pvals < 0, pvals > 1 or pvals contains NaNs")
    # (freq, n, error): p is freq / n, as _draw_sums takes it
    rejected = [([-1, -1], -2, "n < 0"),
                ([math.nan, 2], 2, pvals),
                ([3, -1], 2, pvals),
                ([2, 2, 0], 3, re.escape("sum(pvals[:-1]) > 1.0")),
                # 1e-10 over the sum, past numpy's tolerance of 1e-12
                ([0.5, 0.5 + 1e-10, 0.0], 1, re.escape("sum(pvals[:-1]) > 1.0"))]
    for freq, n, error in rejected:
        freq = np.array(freq, float)
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        counts = _counts_block(2, len(freq), fill=7)
        assert _compiled_multinomial(n, freq / n, counts, rng) is True
        assert (counts == 7).all() and rng.bit_generator.state == state
        for draws in (contextlib.nullcontext(), _python_draws()):
            with draws, pytest.raises(ValueError, match=error):
                stats._draw_sums(np.eye(len(freq)), freq, n, 5, rng)
            assert rng.bit_generator.state == state
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    assert _compiled_multinomial(5, np.array([]), _counts_block(2, 1, fill=7), rng) is True
    p = np.array([0.25, 0.75])
    readonly = np.full((3, 2), 7, np.int64)
    readonly.flags.writeable = False
    wide = np.full((3, 4), 7, np.int64)
    bad_counts = [np.full((3, 2), 7.0), np.full((3, 2), 7, np.int32),
                  np.full((3, 2), 7, np.uint64), readonly, wide[:, ::2],
                  # one count short of three rows
                  _counts_block(5, 1, fill=7)]
    for counts in bad_counts:
        with pytest.raises(ValueError, match="needs counts as writeable C-contiguous int64"):
            _compiled_multinomial(5, p, counts, rng)
        assert (counts == 7).all() and (wide == 7).all()
    for bad_p in (p.astype(np.float32), np.array([0.25, 0, 0.75, 0])[::2]):
        counts = _counts_block(3, 2, fill=7)
        with pytest.raises(ValueError, match="needs p as C-contiguous float64"):
            _compiled_multinomial(5, bad_p, counts, rng)
        assert (counts == 7).all()
    assert rng.bit_generator.state == state
    # a block one row short of three rows is two rows, drawn as numpy draws two
    _check_multinomial(5, p, 2, 1)


class TestCompiledMultinomial:
    """The kernel's ``multinomial``, which ``stats._draw_sums`` calls for
    every block, against ``rng.multinomial``."""

    @PROPERTY
    @RANDOM_MULTINOMIALS
    def test_equals_numpy(self, n, p, size, seed):
        _require_kernel()
        _check_multinomial(n, p, size, seed)

    def test_refusals(self):
        _require_kernel()
        _check_multinomial_refusals()

    @pytest.mark.parametrize("name, shots", [("fig4ab", 2000), ("fig4e", 10_000)])
    def test_preset_bootstraps(self, monkeypatch, name, shots):
        # every bootstrap of the preset's analysis, as the benchmark runs it:
        # the kernel draws each block, its counts equal numpy's, and the
        # sums equal those drawn by rng.multinomial
        kernel = _require_kernel()
        preset = presets.get_preset(name)
        runs = runner.run_preset_points(runner.point_configs(preset, shots, 1))
        bootstraps, calls = [], []
        draw_sums = stats._draw_sums

        def recording(rows, freq, n, resamples, rng):
            bootstraps.append((rows, freq, n, resamples))
            return draw_sums(rows, freq, n, resamples, rng)

        class Counting:
            """The kernel, counting its multinomial calls."""
            def multinomial(self, *args):
                calls.append(args)
                return kernel.multinomial(*args)

        monkeypatch.setattr(stats, "_draw_sums", recording)
        monkeypatch.setattr(_kernel, "_window_kernel", lambda: Counting())
        runner.analyze_preset(preset, runs)
        monkeypatch.undo()
        assert len(bootstraps) == {"fig4ab": 16, "fig4e": 22}[name]
        blocks = [-(-resamples // max(1, stats._BOOTSTRAP_BLOCK // len(rows)))
                  for rows, _, _, resamples in bootstraps]
        assert len(calls) == sum(blocks)
        for i, (rows, freq, n, resamples) in enumerate(bootstraps):
            block = max(1, stats._BOOTSTRAP_BLOCK // len(rows))
            _check_multinomial(n, freq / n, min(block, resamples), i)
            sums = draw_sums(rows, freq, n, resamples, np.random.default_rng(i))
            with _python_draws():
                assert np.array_equal(
                    draw_sums(rows, freq, n, resamples, np.random.default_rng(i)), sums)

    @PROPERTY
    @given(freq=st.lists(st.integers(1, 50), min_size=1, max_size=30),
           resamples=st.integers(1, 300), block=st.integers(1, 64), seed=st.integers(0, 99))
    def test_draw_sums_equal_without_the_kernel(self, freq, resamples, block, seed):
        # uneven blocks of any size, drawn by the kernel and by rng.multinomial
        _require_kernel()
        freq = np.array(freq)
        rows = np.arange(3 * len(freq), dtype=float).reshape(-1, 3)
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        with mock.patch.object(stats, "_BOOTSTRAP_BLOCK", block * len(freq)):
            sums = stats._draw_sums(rows, freq, int(freq.sum()), resamples, ours)
            with _python_draws():
                expected = stats._draw_sums(rows, freq, int(freq.sum()), resamples, numpys)
        assert np.array_equal(sums, expected)
        assert ours.bit_generator.state == numpys.bit_generator.state


def _void_unique(cols):
    """The distinct rows and their counts as ``np.unique`` finds them on
    the rows' void view, the reference of ``stats._distinct_rows``."""
    k = cols.shape[1]
    keys, freq = np.unique(cols.view(f"V{8 * k}").ravel(), return_counts=True)
    return keys.view(float).reshape(-1, k), freq


# signed zeros and NaN differ from equal floats in their bytes only
EDGE_FLOATS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, 2.0])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda k: st.lists(
    st.lists(EDGE_FLOATS, min_size=k, max_size=k), min_size=1, max_size=60)))
def test_distinct_rows_equal_void_unique(matrix):
    cols = np.array(matrix, dtype=float)
    rows, freq = stats._distinct_rows(cols)
    ref_rows, ref_freq = _void_unique(cols)
    # the keys and their order, bit for bit, and the counts
    assert rows.shape == ref_rows.shape and rows.tobytes() == ref_rows.tobytes()
    assert freq.dtype == ref_freq.dtype and freq.tolist() == ref_freq.tolist()


def _int_or_float_column(n):
    ints = st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n, max_size=n)
    floats = st.lists(EDGE_FLOATS | st.floats(), min_size=n, max_size=n)
    return ints.map(lambda v: np.array(v, np.int64)) | floats.map(np.array)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
    st.lists(_int_or_float_column(n), max_size=3))))
def test_component_sums_equal_the_stacked_products(split):
    hi, values = split
    with np.errstate(invalid="ignore"):  # inf * 0
        cols = stats._component_sums(hi, *values)
        ref = np.column_stack([hi, ~hi, *(c for v in values for c in (hi * v, ~hi * v))])
    # bit for bit, signed zeros and NaN included, and C-contiguous float64 as
    # the byte views of _distinct_rows need
    assert cols.dtype == np.float64 and cols.tobytes() == ref.astype(float).tobytes()
    assert np.ascontiguousarray(cols, dtype=float) is cols


def _sorted_columns(columns, *fields):
    """The n-row path the counted rows replace, kept as their oracle: every
    shot's row built, the rows byte-sorted into distinct rows and counts,
    and the columns summed."""
    cols = columns(*fields)
    return (*stats._distinct_rows(cols), cols.sum(axis=0))


def _int_field(n):
    """n int64 shot values: all equal, all distinct, small counts, or
    spread about an offset near 0 or +-2^31 (spans of up to 2^33)."""
    offsets = st.sampled_from([0, 2 ** 31 - 1, -2 ** 31, 2 ** 31, -2 ** 31 - 5])
    spread = st.sampled_from([1, 3, 1000, 2 ** 32])
    values = (st.integers(-5, 5).map(lambda v: [v] * n)
              | st.permutations(range(n))
              | st.lists(st.integers(0, 6), min_size=n, max_size=n)
              | st.tuples(offsets, spread).flatmap(lambda o: st.lists(
                  st.integers(o[0] - o[1], o[0] + o[1]), min_size=n, max_size=n)))
    return values.map(lambda v: np.array(v, np.int64))


def _mask(n):
    return st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)


def _channel(n):
    """n float64 counts of one g2 channel: integers mixed with signed
    zeros, NaN and infinities."""
    return st.lists(EDGE_FLOATS | st.integers(-5, 1000).map(float),
                    min_size=n, max_size=n).map(np.array)


def _g2_table(channels):
    """``g2_cross``'s columns and fields: each channel coded by its float64
    bit patterns, whose n rows are the stack (g, s, g*s) of the channels."""
    g, s = channels
    (gv, gi), (sv, si) = (np.unique(x.view(np.int64), return_inverse=True) for x in (g, s))
    gv, sv = gv.view(float), sv.view(float)

    def g2_columns(i, j):
        return np.column_stack([gv[i], sv[j], gv[i] * sv[j]])

    with np.errstate(invalid="ignore"):  # inf * 0
        assert g2_columns(gi, si).tobytes() == np.column_stack([g, s, g * s]).tobytes()
    return g2_columns, (gi, si)


# (columns, fields) as estimators key them: gain's and the histogram's
# component split, retrieval_curve's columns, whose rows merge, and
# g2_cross's coded channels
FIELD_TABLES = st.integers(1, 40).flatmap(lambda n: st.one_of(
    st.tuples(st.just(stats._component_sums),
              st.tuples(_mask(n), st.lists(_int_field(n), max_size=3)).map(
                  lambda f: (f[0], *f[1]))),
    st.tuples(st.just(stats._retrieval_columns),
              st.tuples(_mask(n), _int_field(n), _int_field(n), _mask(n), _mask(n))),
    st.tuples(_channel(n), _channel(n)).map(_g2_table)))


@settings(max_examples=300, deadline=None)
@given(FIELD_TABLES)
@example((stats._component_sums, (np.array([True]), np.array([2 ** 31]))))  # one shot
@example((stats._component_sums, (np.arange(5) < 2, *np.array(  # spans past int64
    [[-2 ** 31 - 1, 2 ** 31, 0, 1, 2 ** 31]] * 3) * [[1], [-1], [1]])))
def test_counted_rows_equal_the_sorted_columns(table):
    columns, fields = table
    with np.errstate(invalid="ignore"):  # g2's inf * 0 and inf - inf
        rows, freq = stats._counted_rows(columns, *fields)
        ref_rows, ref_freq, ref_sums = _sorted_columns(columns, *fields)
        sums = freq @ rows
        draws, ref_draws = (
            stats._draw_sums(rows, freq, len(fields[0]), 3, np.random.default_rng(1)),
            sorted_bootstrap(columns(*fields), 3, np.random.default_rng(1)))
    # the categories and their order, bit for bit, and the counts
    assert rows.shape == ref_rows.shape and rows.tobytes() == ref_rows.tobytes()
    assert freq.dtype == ref_freq.dtype and freq.tolist() == ref_freq.tolist()
    if columns in (stats._component_sums, stats._retrieval_columns):
        assert sums.tobytes() == ref_sums.tobytes()
    else:  # g2's float sums, which g2_cross does not use: equal, NaN's bits aside
        np.testing.assert_array_equal(sums, ref_sums)
    # so every draw
    assert draws.tobytes() == ref_draws.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(_channel(n), _channel(n))))
@example((np.array([0.0, -0.0, -0.0, 2.0]), np.array([1.0, 1.0, 1.0, -0.0])))
@example((np.array([1.0, math.nan]), np.array([1.0, 2.0])))
@example((np.array([1.0, 2.0]), np.array([math.inf, 2.0])))
def test_g2_cross_draws_over_the_sorted_rows(channels):
    # g2_cross's own coding: -0.0 and 0.0 are two categories, as in the
    # byte sort of the n rows (g, s, g*s); a NaN or infinite count is refused
    g, s = (np.append(c, 1000.0) for c in channels)  # a positive mean
    if not (np.isfinite(g).all() and np.isfinite(s).all()):
        with pytest.raises(ValueError, match="g2_cross needs finite counts"):
            stats.g2_cross(g, s, resamples=3)
        return
    calls, draw = [], stats._draw_sums
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_draw_sums", lambda *args: calls.append(args) or draw(*args))
        stats.g2_cross(g, s, resamples=3)
        ref_rows, ref_freq = stats._distinct_rows(np.column_stack([g, s, g * s]))
    [(rows, freq, n, _, _)] = calls
    assert rows.tobytes() == ref_rows.tobytes() and freq.tolist() == ref_freq.tolist()
    assert n == len(g)


@pytest.mark.parametrize("fields, counted_by", [
    # radix 2 * 10 for 50 shots: counted in a count array
    ([np.arange(50) % 2 == 0, np.arange(50) % 10], {"bincount"}),
    # radix 2 * 10^6 for 50 shots: the keys are sorted
    ([np.arange(50) % 2 == 0, np.arange(50) * 20_000], {"unique"}),
    # spans of 2 and three of 2^32 + 1, whose product passes 2^62: the
    # fields are counted as rows
    ([np.arange(6) % 2 == 1, *(np.array([-2 ** 31, 2 ** 31, 0, 7, -2 ** 31, 2 ** 31]) * s
                               for s in (1, -1, 1))],
     {"rows"}),
    # a span of 2^63 after the mask's 2, wider than any key: counted as rows
    ([np.array([True, False, True]), np.array([-2 ** 62, 2 ** 62, 1])],
     {"rows"})],
    ids=["bincount", "unique", "re-densify", "own-codes"])
def test_key_branches(monkeypatch, fields, counted_by):
    calls = []
    unique, bincount = np.unique, np.bincount

    def spy_unique(values, **kwargs):
        calls.append("rows" if "axis" in kwargs else "unique")
        return unique(values, **kwargs)

    def spy_bincount(values):
        calls.append("bincount")
        return bincount(values)

    monkeypatch.setattr(np, "unique", spy_unique)
    monkeypatch.setattr(np, "bincount", spy_bincount)
    rows, freq = stats._counted_rows(stats._component_sums, *fields)
    monkeypatch.undo()
    assert set(calls) == counted_by
    ref_rows, ref_freq, ref_sums = _sorted_columns(stats._component_sums, *fields)
    assert rows.tobytes() == ref_rows.tobytes() and freq.tolist() == ref_freq.tolist()
    if np.abs(np.column_stack(fields)).max() < 2 ** 53:  # 2^62 sums are not exact
        assert (freq @ rows).tobytes() == ref_sums.tobytes()


def test_estimators_sort_distinct_rows_only(monkeypatch, records, decay_points):
    # the byte sort sees one row per distinct combination of the fields an
    # estimator reads, never one per shot
    sorted_rows = []
    distinct_rows = stats._distinct_rows

    def recording(cols, *weights):
        sorted_rows.append(len(cols))
        return distinct_rows(cols, *weights)

    def combinations(*fields):
        return len(np.unique(np.column_stack(fields), axis=0))

    monkeypatch.setattr(stats, "_distinct_rows", recording)
    hi, counts = records.n_stored == 0, records.detected_source
    intra, outside = records.source_transmitted_intracavity, records.source_transmitted_outside
    stats.gain(records, resamples=5)
    stats.gain(records, labels="threshold", threshold=3.5, resamples=5)
    hist = stats.build_histogram({0.0: records})
    stats.extinction_factor_errors(records, resamples=5)
    assert sorted_rows == [combinations(hi, intra, outside),
                           combinations(counts > 3.5, intra, outside),
                           combinations(hi, counts),
                           combinations(counts > hist.threshold[0], counts),
                           combinations(hi, counts)]
    assert max(sorted_rows) < len(records)
    sorted_rows.clear()
    stats.retrieval_curve(decay_points, condition_single=True, resamples=5)
    assert sorted_rows == [
        combinations(t.n_stored == 0, t.source_transmitted_intracavity,
                     t.source_transmitted_outside, t.n_stored == 1, t.retrieved)
        for t in decay_points]
    assert max(sorted_rows) < min(map(len, decay_points))
    sorted_rows.clear()
    gate, source = records.detected_gate, records.detected_source
    stats.g2_cross(gate, source, resamples=5)
    assert sorted_rows == [combinations(gate, source)]
    assert sorted_rows[0] < len(records)


class TestPointEstimatesPinned:
    """Values computed by the per-resample loops the shared bootstrap
    replaced; the point estimates must not change by a bit."""

    def test_gain(self, records):
        truth = stats.gain(records, resamples=50, seed=2)
        assert (truth.g, truth.g_outside, truth.source_strength) == (
            17.83254144229754, 11.814063984795693, 19.84552845528455)
        thresh = stats.gain(records, labels="threshold", threshold=3.5,
                            resamples=50, seed=2)
        assert (thresh.g, thresh.g_outside, thresh.source_strength) == (
            14.904806890803002, 10.406835232008891, 20.308196721311475)

    def test_retrieval_curve(self, decay_points):
        strengths = (0.0, 0.9456869009584664, 2.0875420875420874,
                     3.4952380952380953, 4.989510489510489)
        outside = (0.0, 0.6134185303514377, 1.4343434343434343,
                   2.311111111111111, 3.227272727272727)
        curve = stats.retrieval_curve(decay_points, resamples=20, seed=3)
        # the fitted values are the converged least-squares fit, pinned when
        # fit_exponential became the batched solver (test_point_fit_is_converged)
        assert (curve.m_s0, curve.m_s0_outside, curve.amplitude,
                curve.residual_rms) == (3.640712266192858, 2.4258918653888872,
                                        0.9549595414521577, 0.11871456005467088)
        assert curve.fractions == (1.0, 0.6283185840707964, 0.6725663716814159,
                                   0.20353982300884954, 0.35398230088495575)
        assert curve.source_strengths == strengths
        assert curve.source_strengths_outside == outside
        single = stats.retrieval_curve(decay_points, condition_single=True,
                                       resamples=20, seed=3)
        assert (single.m_s0, single.m_s0_outside, single.amplitude,
                single.residual_rms) == (3.685354804118918, 2.450288816839224,
                                         0.9790440789185479, 0.09935415918594015)
        assert single.fractions == (1.0, 0.6967723259516572, 0.6666196984641397,
                                    0.2251892046265886, 0.34869223472015176)

    def test_g2_cross(self, records):
        res = stats.g2_cross(records.detected_gate, records.detected_source,
                             backgrounds=(0.01, 0.2), resamples=50, seed=4)
        assert (res.raw, res.corrected) == (0.16940225978270904, 0.053494861498672844)

    def test_extinction_factor(self, records):
        hist = stats.build_histogram({0.0: records})
        assert hist.extinction_factor[0] == 10.760295881647341

    def test_extinction_factor_errors(self, records):
        # the factor is the histogram's, byte for byte; errors and skip counts pinned
        factor = stats.build_histogram({0.0: records}).extinction_factor[0]
        estimate = stats.extinction_factor_errors(records)
        assert np.float64(estimate[0]).tobytes() == np.float64(factor).tobytes()
        assert estimate[1:] == (1.8568399748788007, 3.006929592350028, 0)
        assert stats.extinction_factor_errors(records, resamples=50, seed=3)[1:] == (
            2.2429700963571246, 1.892749304812801, 0)
        sparse = shots(TestFallbacks.N_STORED, [10, 12] + [1] * 38)
        assert stats.extinction_factor_errors(sparse) == (11.0, 1.0, 1.0, 63)


def test_record_list_equals_table(records, decay_points):
    """Estimators give the same results for a list of ShotRecords."""
    rows = [ShotRecord(*r) for r in records.tolist()]
    assert stats.gain(rows, resamples=50, seed=2) == \
        stats.gain(records, resamples=50, seed=2)
    factor = stats.build_histogram({0.0: rows}).extinction_factor[0]
    assert stats.build_histogram({0.0: records}).extinction_factor[0] == factor
    assert stats.extinction_factor_errors(rows) == stats.extinction_factor_errors(records)
    lists = [[ShotRecord(*r) for r in p.tolist()] for p in decay_points]
    assert stats.retrieval_curve(lists, resamples=10, seed=2) == \
        stats.retrieval_curve(decay_points, resamples=10, seed=2)


class TestErrorBars:
    def test_same_seed_same_error_bars(self, records, decay_points):
        assert stats.gain(records, resamples=100, seed=5) == \
            stats.gain(records, resamples=100, seed=5)
        assert stats.retrieval_curve(decay_points, resamples=20, seed=5) == \
            stats.retrieval_curve(decay_points, resamples=20, seed=5)
        g, s = records.detected_gate, records.detected_source
        assert stats.g2_cross(g, s, resamples=100, seed=5) == \
            stats.g2_cross(g, s, resamples=100, seed=5)
        assert stats.extinction_factor_errors(records, seed=5) == \
            stats.extinction_factor_errors(records, seed=5)

    def test_error_bars_bracket_the_point(self, records):
        est = stats.gain(records, resamples=400, seed=6)
        assert est.fallbacks == 0
        assert 0 < est.err_low < 0.2 * est.g and 0 < est.err_high < 0.2 * est.g


class TestFallbacks:
    """2 of 40 shots in one component: about 13% of replicates lose it."""

    N_STORED = [0, 0] + [1] * 38

    def test_gain(self):
        est = stats.gain(shots(self.N_STORED, [9, 11] + [1] * 38), resamples=200)
        assert est.fallbacks > 0
        assert est.g == 9.0

    def test_g2_cross(self):
        res = stats.g2_cross([1.0, 2.0] + [0.0] * 38, [1.0] * 40, resamples=200)
        assert res.fallbacks > 0

    def test_retrieval_curve(self):
        points = [synthetic_records(400, 20 + i, mu=mu, stored_mean=0.8)
                  for i, mu in enumerate((0.0, 2.0))]
        # strength 4 measured from 2 no-gate shots, retrieval 4 of 40
        sparse = [ShotRecord(i, 0 if i < 2 else 1, 4, 3, False, i % 10 == 5, True,
                             1, 0) for i in range(40)]
        curve = stats.retrieval_curve(points + [sparse], resamples=100, seed=1)
        assert curve.fallbacks > 0
        dense = synthetic_records(400, 22, mu=4.0, stored_mean=0.8)
        assert stats.retrieval_curve(points + [dense], resamples=30,
                                     seed=1).fallbacks == 0

    def test_extinction_factor(self, records):
        sparse = shots(self.N_STORED, [10, 12] + [1] * 38)
        factor, err_low, err_high, skipped = stats.extinction_factor_errors(sparse)
        assert factor == 11.0 and skipped > 0
        assert err_low >= 0 and err_high >= 0
        assert stats.extinction_factor_errors(records)[3] == 0


class TestUndefinedReplicates:
    """An undefined replicate is NaN or infinite and is dropped from the
    interval, never replaced; the estimators count the dropped ones."""

    def test_no_defined_replicate_gives_zero_width(self):
        nan = np.full((7, 2), math.nan)
        nan[3, 0] = 1.0
        assert stats._percentile_errors(nan, (1.0, 2.0)) == ([(0.0, 0.0)] * 2, 7)
        # a dark low component: every replicate's ratio is x/0
        dark = shots(TestFallbacks.N_STORED, [10, 12] + [0] * 38)
        assert stats.extinction_factor_errors(dark, resamples=50) == (math.inf, 0.0, 0.0, 50)

    def test_gain_interval_from_defined_replicates_only(self):
        # 2 high-component shots among 20: about a tenth of the replicates
        # lose that component, and the interval is the percentiles of the rest
        n_stored = [0, 0] + [1] * 18
        values = [12, 20] + [k % 9 for k in range(18)]
        est = stats.gain(shots(n_stored, values), resamples=400, seed=3)
        hi, m = np.array(n_stored) == 0, np.array(values, dtype=float)
        n_hi, n_lo, s_hi, s_lo, _, _ = sorted_bootstrap(
            np.column_stack([hi, ~hi, hi * m, ~hi * m, hi * m, ~hi * m]),
            400, np.random.default_rng(3)).T
        defined = (n_hi > 0) & (n_lo > 0)
        lo, up = np.percentile(s_hi[defined] / n_hi[defined]
                               - s_lo[defined] / n_lo[defined], [2.5, 97.5])
        assert est.fallbacks == 400 - defined.sum() > 0
        assert (est.err_low, est.err_high) == (est.g - lo, up - est.g)
        assert (est.outside_err_low, est.outside_err_high) == (est.err_low, est.err_high)

    def test_g2_cross_drops_masked_replicates(self):
        # gate mean 2/40 over a background of 0.04 per shot: a replicate that
        # draws the two gate clicks fewer than twice has no corrected g2, and
        # its raw value, finite or not, is dropped with it
        g = np.array([1.0, 1.0] + [0.0] * 38)
        s = np.array([3.0, 3.0] + [1.0, 2.0] * 19)
        res = stats.g2_cross(g, s, backgrounds=(0.04, 0.0), resamples=300, seed=2)
        bg, bs, bgs = (sorted_bootstrap(np.column_stack([g, s, g * s]), 300,
                                        np.random.default_rng(2)) / g.size).T
        kept = (bg - 0.04 > 0) & (bs > 0)
        lo, up = np.percentile(bgs[kept] / (bg[kept] * bs[kept]), [2.5, 97.5])
        assert res.fallbacks == 300 - kept.sum() > 0
        assert np.isfinite(bgs[~kept & (bg > 0)] / bg[~kept & (bg > 0)]).any()
        assert (res.raw_err_low, res.raw_err_high) == (res.raw - lo, up - res.raw)


def converged_decay(x, y, start):
    """m of y = A exp(-x/m) by ``curve_fit`` run to the least-squares
    minimum; its default tolerances stop up to 2.5e-5 (relative) short."""
    from scipy.optimize import curve_fit

    def model(xv, a, m):
        return a * np.exp(-xv / m)

    return curve_fit(model, x, y, p0=start, ftol=1e-15, xtol=1e-15, gtol=0,
                     maxfev=20000)[0][1]


class TestBatchedDecayFit:
    """``retrieval_curve`` fits its bootstrap replicates with one batched
    Levenberg-Marquardt solve (``_fit_decays``) started at the point fit,
    which is the same solver on one row (``fit_exponential``)."""

    @pytest.fixture(scope="class", params=[False, True], ids=["all", "single"])
    def decay_fit_calls(self, request, decay_points):
        """The (x, y, a0, m0) of every ``_fit_decays`` call of a
        1000-resample retrieval curve: the intracavity and outside point
        fits (``fit_exponential``, one row each), then their replicates."""
        calls, fit = [], stats._fit_decays
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stats, "_fit_decays", lambda *args: calls.append(args) or fit(*args))
            stats.retrieval_curve(decay_points, condition_single=request.param,
                                  resamples=1000)
        return calls

    def test_agrees_with_converged_curve_fit(self, decay_fit_calls):
        assert [len(x) for x, *_ in decay_fit_calls] == [1, 1, 1000, 1000]
        for x, y, a0, m0 in decay_fit_calls:
            m = stats._fit_decays(x, y, a0, m0)[1]
            tight = [converged_decay(xb, yb, (a0, m0)) for xb, yb in zip(x, y)]
            point = [stats.fit_exponential(xb, yb)[1] for xb, yb in zip(x, y)]
            assert np.isfinite(m).all()
            np.testing.assert_allclose(m, tight, rtol=1e-7)
            np.testing.assert_allclose(m, point, rtol=1e-7)

    @pytest.mark.parametrize("condition_single", [False, True])
    def test_point_fit_is_converged(self, decay_points, condition_single):
        curve = stats.retrieval_curve(decay_points, condition_single=condition_single,
                                      resamples=20)
        for xs, m in ((curve.source_strengths, curve.m_s0),
                      (curve.source_strengths_outside, curve.m_s0_outside)):
            tight = converged_decay(np.array(xs), np.array(curve.fractions), (1.0, 1.0))
            np.testing.assert_allclose(m, tight, rtol=1e-7)

    def test_undefined_rows_are_nan(self, monkeypatch):
        x = np.tile([0.0, 1.0, 2.0, 3.0], (4, 1))
        x[1, 2] = 1.0                              # a repeated x
        y = 2.0 * np.exp(-x / 1.5)
        y[2] = 2.0 * np.exp(-x[2] / 4.0)           # far from the start
        y[3, 0] = math.nan
        with monkeypatch.context() as patch:
            patch.setattr(stats, "_FIT_ITERATIONS", 1)
            a, m = stats._fit_decays(x, y, 2.0, 1.5)
        assert (a[0], m[0]) == (2.0, 1.5)
        assert np.isnan(a[1:]).all() and np.isnan(m[1:]).all()
        # with the default cap the far row converges; the others stay undefined
        a, m = stats._fit_decays(x, y, 2.0, 1.5)
        assert math.isclose(m[2], 4.0, rel_tol=1e-9) and np.isfinite(a[[0, 2]]).all()
        assert np.isnan(m[[1, 3]]).all()
        # fewer than 3 points
        assert np.isnan(stats._fit_decays(x[:, :2], y[:, :2], 2.0, 1.5)[1]).all()

    @pytest.mark.parametrize("resamples", [20, 200])
    def test_point_fits_only(self, decay_points, monkeypatch, resamples):
        # the replicates never reach fit_exponential, whatever their number
        calls, fit = [], stats.fit_exponential
        monkeypatch.setattr(stats, "fit_exponential",
                            lambda *args: calls.append(args) or fit(*args))
        stats.retrieval_curve(decay_points, resamples=resamples)
        assert len(calls) == 2


# ---------------------------------------------------------------------------
# properties

counts = st.integers(min_value=0, max_value=30)


@PROPERTY
@given(st.floats(0.1, 10.0), st.floats(0.3, 30.0),
       st.sets(st.integers(0, 60), min_size=3, max_size=12),
       st.floats(0.5, 2.0), st.floats(0.5, 2.0))
def test_fit_decays_recovers_noise_free_decay(amp, decay, steps, a_start, m_start):
    x = 3 * decay * np.array(sorted(steps)) / 60  # distinct, in [0, 3m]
    y = amp * np.exp(-x / decay)
    a, m = stats._fit_decays(x[None], y[None], a_start * amp, m_start * decay)
    assert math.isclose(a[0], amp, rel_tol=1e-9)
    assert math.isclose(m[0], decay, rel_tol=1e-9)


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 2), counts), min_size=2, max_size=30))
def test_gain_never_exceeds_source_strength(pairs):
    n_stored = [k for k, _ in pairs]
    if 0 not in n_stored or all(k == 0 for k in n_stored):
        n_stored = [0, 1] + n_stored[2:]
    est = stats.gain(shots(n_stored, [v for _, v in pairs]), resamples=5)
    assert est.g <= est.source_strength


@PROPERTY
@given(st.dictionaries(st.floats(-5.0, 5.0, allow_nan=False),
                       st.lists(counts, min_size=1, max_size=20),
                       min_size=1, max_size=4),
       st.integers(1, 40))
def test_histogram_rows_sum_to_one(columns, top):
    groups = {d: shots([i % 2 for i in range(len(v))], v) for d, v in columns.items()}
    hist = stats.build_histogram(groups, max_count=top)
    assert np.allclose(hist.rates.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=2,
                max_size=40),
       st.randoms(use_true_random=False),
       st.floats(0.01, 100.0))
def test_g2_raw_invariant_under_permutation_and_scale(pairs, rnd, scale):
    g = np.array([a for a, _ in pairs], dtype=float)
    s = np.array([b for _, b in pairs], dtype=float)
    g[0] += 1.0   # both channels need a positive mean
    s[-1] += 1.0
    raw = stats.g2_cross(g, s, resamples=2).raw
    order = list(range(len(g)))
    rnd.shuffle(order)
    assert math.isclose(stats.g2_cross(g[order], s[order], resamples=2).raw, raw,
                        rel_tol=1e-12)
    assert math.isclose(stats.g2_cross(scale * g, s, resamples=2).raw, raw,
                        rel_tol=1e-12)
    assert math.isclose(stats.g2_cross(g, scale * s, resamples=2).raw, raw,
                        rel_tol=1e-12)


def masked_means(values, hi):
    """High and low component means by masked np.mean, NaN when empty."""
    return tuple(float(np.mean(values[sel])) if sel.any() else math.nan
                 for sel in (hi, ~hi))


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 2), counts), min_size=1, max_size=30))
def test_component_split_equals_masked_means(pairs):
    n_stored = np.array([k for k, _ in pairs])
    values = np.array([v for _, v in pairs])
    records = shots(n_stored, values)
    hist = stats.build_histogram({0.0: records}, max_count=30)
    truth, by_threshold = n_stored == 0, values > hist.threshold[0]
    hm, lm = masked_means(values, truth)
    assert same(hist.high_mean[0], hm) and same(hist.low_mean[0], lm)
    for hi, factor in ((truth, hist.extinction_factor[0]),
                       (by_threshold, hist.threshold_extinction_factor[0])):
        want_hm, want_lm = masked_means(values, hi)
        if hi.any() and (~hi).any() and want_lm > 0:
            assert factor == want_hm / want_lm
    if truth.any() and (~truth).any():
        assert stats.gain(records, resamples=2).g == hm - lm


class TestComponentSplit:
    """IEEE arithmetic decides an undefined component statistic: an empty
    component's mean is NaN (0/0), a dark low component's ratio inf (x/0)."""

    def test_empty_low_component_is_nan(self):
        hist = stats.build_histogram({0.0: shots([0] * 4, [5, 3, 4, 6])})
        assert math.isnan(hist.low_mean[0]) and math.isnan(hist.low_peak[0])
        assert math.isnan(hist.extinction_factor[0])
        assert hist.high_mean[0] == 4.5

    def test_dark_low_component_is_inf(self):
        hist = stats.build_histogram({0.0: shots([0] * 5 + [1] * 5, [10] * 5 + [0] * 5)})
        assert (hist.high_mean[0], hist.low_mean[0]) == (10.0, 0.0)
        assert hist.extinction_factor[0] == math.inf
        assert hist.threshold[0] == 2.0
        assert hist.threshold_extinction_factor[0] == math.inf
