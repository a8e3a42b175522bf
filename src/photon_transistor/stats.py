"""Estimators turning shots into the derived observables: transmission
spectra, bimodal count histograms, switching contrast, transistor gain,
retrieval decay curves and the gate-source cross-correlation, each with
uncertainties.  Estimators read the columns of a shot table
(``engine.shot_table``, what ``run_experiment`` returns); a list of
``ShotRecord`` rows is converted to one first.

Uncertainties are bootstrap percentile intervals (1000 resamples by
default) except for three 1-sigma standard errors: of the mean for
spectra, propagated from both means for ``switching_contrast``, and
binomial for ``single_excitation_fraction``.  Every bootstrap is drawn
by ``_draw_sums`` as multinomial counts over the distinct per-shot
rows, in the order of their bytes.  The compiled kernel's
``multinomial`` draws the counts (``_multinomial``): numpy's own draws,
count for count and from the same generator state as
``rng.multinomial``, with each category's set-up computed once per block
of resamples instead of once per resample; without a compiler
``rng.multinomial`` draws them.  Every bootstrap is one
``_resampled_sums``, which finds its rows by ``_counted_rows`` from the
integer fields its columns are built of: shot counts and 0/1 masks, and
for ``g2_cross`` each channel's code among its distinct float64 bit
patterns.  Their distinct combinations are counted by one int64 key per
shot, and only their d rows are built and sorted, so for n shots and k
columns the working memory is O(n) int64 plus d x k rows and a count
block of at most max(``_BOOTSTRAP_BLOCK``, d) counts, whatever the number
of resamples.  Replicates are ratios of the resampled sums, and every
point estimate but ``g2_cross``'s is the same ratio of the full-sample
sums, ``_resampled_sums``'s row 0.  ``retrieval_curve`` fits the
decays of all its replicates in one batched Levenberg-Marquardt solve
(``_fit_decays``) started at the point fit; the point fit,
``fit_exponential``, is the same solver on one row.  An undefined
replicate (an emptied component, a fit that ``fit_exponential`` would
reject or that has not converged within the iteration cap) is NaN or
infinite, is dropped by ``_percentile_errors`` and is counted in
``fallbacks``.  Every high/low component split is built by
``_component_sums`` and averaged by ``_component_means``, for point
estimates and replicates alike: an empty component's mean is NaN (0/0),
the extinction factor of a dark low component inf (x/0).  Splits use the
simulation ground truth (stored excitation number) or a threshold on the
detected counts, as a real bimodal histogram is cut.
``_mean_sem`` is every plain mean of counts with its standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _kernel
from .engine import ShotRecord, shot_table

DEFAULT_RESAMPLES = 1000
_BOOTSTRAP_BLOCK = 1 << 15
_KEY_LIMIT = 1 << 62    # largest radix of a key of shot fields
_FIT_ITERATIONS = 100   # cap of every exponential fit
_FIT_STEP_TOL = 1e-12   # relative step at which an exponential fit has converged


class FitError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# bootstrap

def _draw_sums(rows, freq, n: int, resamples: int, rng: np.random.Generator) -> np.ndarray:
    """Column sums of ``resamples`` bootstrap resamples of n shots whose
    distinct rows are ``rows`` (shape (d, k)), row i occurring ``freq[i]``
    times.  Resampling with replacement draws each distinct row a
    multinomial number of times, so counts are drawn over the distinct
    rows only; blocks of at most ``_BOOTSTRAP_BLOCK`` counts (one row of
    counts when there are more distinct rows) bound memory without
    changing them.  Each block is ``_multinomial``'s."""
    if resamples < 1:
        raise ValueError(f"resamples must be at least 1, not {resamples}")
    p = freq / n
    block = max(1, _BOOTSTRAP_BLOCK // len(rows))
    kernel = _kernel._window_kernel()
    return np.concatenate([
        _multinomial(kernel, rng, n, p, min(block, resamples - start)) @ rows
        for start in range(0, resamples, block)])


def _multinomial(kernel, rng: np.random.Generator, n: int, p: np.ndarray,
                 size: int) -> np.ndarray:
    """``rng.multinomial(n, p, size=size)``, drawn by the compiled
    ``multinomial`` of ``kernel``, the module of ``_kernel._window_kernel``:
    the same counts, from ``rng``'s bit generator in the same state, with
    each category's set-up computed once per block.  ``rng.multinomial``
    draws them itself when there is no kernel, and for arguments that it
    rejects, which the kernel refuses without drawing, so that it raises
    its own error."""
    if kernel is not None:
        counts = np.empty((size, len(p)), np.int64)
        with rng.bit_generator.lock:  # as the Generator's own draws hold it
            refused = kernel.multinomial(rng.bit_generator.capsule, n, p, counts)
        if not refused:
            return counts
    return rng.multinomial(n, p, size=size)


def _distinct_rows(cols: np.ndarray, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``cols``, a C-contiguous float array of shape
    (n, k), and how often each occurs: the number of its copies, or the
    sum of their ``weights`` when given.  Rows are compared as raw bytes and
    come in the order of their bytes, byte 0 first: the order of
    ``np.unique`` on the rows' void view, whose sort is about 1.6x slower
    than this ``np.lexsort`` of the bytes.  A row starts a new one where
    any of its 64-bit words differs from the sorted row before, compared
    one column at a time, so no n x 8k byte matrix is built."""
    order = np.lexsort(cols.view(np.uint8).reshape(len(cols), -1).T[::-1])
    new = np.zeros(len(cols), bool)  # whether a sorted row differs from the one before
    new[:1] = True
    for words in cols.view(np.uint64).T:
        sorted_words = words[order]
        new[1:] |= sorted_words[1:] != sorted_words[:-1]
    starts = np.flatnonzero(new)
    freq = (np.diff(starts, append=len(cols)) if weights is None
            else np.add.reduceat(weights[order], starts))
    return cols[order[starts]], freq


def _counted_rows(columns, *fields) -> tuple[np.ndarray, np.ndarray]:
    """``_distinct_rows(columns(*fields))`` without building or sorting its
    n rows: ``columns`` builds one float row per element of the integer or
    bool shot ``fields``, and is called on their d distinct combinations
    only, whose rows are then merged by ``_distinct_rows`` weighted by how
    often each combination occurs.  Each field minus its minimum is a digit
    of one int64 mixed-radix key, counted by ``np.bincount`` while the
    radix is at most 2n and by ``np.unique`` above that, where the count
    array would be mostly empty and slower to scan than n keys are to
    sort.  Past ``_KEY_LIMIT`` the fields are counted as rows instead.  The
    point sums are ``freq @ rows``: equal to ``columns(*fields).sum(axis=0)``
    byte for byte while every column is integer-valued and every sum is
    below 2^53, which shot counts are, so every float operation is exact."""
    los = [int(field.min()) for field in fields]
    spans = [int(field.max()) - lo + 1 for field, lo in zip(fields, los)]
    if math.prod(spans) > _KEY_LIMIT:
        combinations, freq = np.unique(np.column_stack(fields), axis=0, return_counts=True)
        digits = combinations.T
    else:
        key, radix, strides = np.zeros(len(fields[0]), np.int64), 1, []
        for field, lo, span in zip(fields, los, spans):
            key += (field.astype(np.int64) - lo) * radix
            strides.append(radix)
            radix *= span
        if radix <= 2 * len(key):
            counts = np.bincount(key)
            present = np.flatnonzero(counts)
            freq = counts[present]
        else:
            present, freq = np.unique(key, return_counts=True)
        digits = [present // stride % span + lo
                  for lo, span, stride in zip(los, spans, strides)]
    values = [digit.astype(field.dtype) for digit, field in zip(digits, fields)]
    return _distinct_rows(columns(*values), freq)


def _resampled_sums(columns, fields, resamples: int, rng: np.random.Generator) -> np.ndarray:
    """The column sums of ``columns(*fields)`` over the full sample (row 0)
    and over ``resamples`` bootstrap resamples of its shots (the rows
    after it), from the rows that ``_counted_rows`` finds."""
    rows, freq = _counted_rows(columns, *fields)
    return np.vstack([freq @ rows, _draw_sums(rows, freq, len(fields[0]), resamples, rng)])


def _percentile_errors(replicates, centers) -> tuple[list[tuple[float, float]], int]:
    """2.5/97.5 percentile errors about each float of ``centers`` from the
    columns of ``replicates`` (resamples x len(centers)), and the number of
    rows dropped for holding a NaN or infinity (undefined).  All dropped: 0s."""
    kept = replicates[np.isfinite(replicates).all(axis=1)]
    if len(kept) == 0:
        return [(0.0, 0.0)] * len(centers), len(replicates)
    lo, hi = np.percentile(kept, [2.5, 97.5], axis=0).tolist()
    errors = [(max(c - l, 0.0), max(h - c, 0.0)) for c, l, h in zip(centers, lo, hi)]
    return errors, len(replicates) - len(kept)


# ---------------------------------------------------------------------------
# spectra

@dataclass(frozen=True)
class Spectrum:
    detunings: tuple[float, ...]
    mean_transmission: tuple[float, ...]
    sem: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.detunings) == len(self.mean_transmission) == len(self.sem)):
            raise ValueError("Spectrum fields must have equal lengths")
        if any(s < 0 for s in self.sem):
            raise ValueError("Spectrum.sem must be >= 0")


def _mean_sem(counts) -> tuple[float, float]:
    """Mean of ``counts`` and its standard error, std (ddof 1) / sqrt(N)."""
    return float(np.mean(counts)), float(np.std(counts, ddof=1)) / math.sqrt(counts.size)


def average_spectrum(groups: Mapping[float, Sequence[ShotRecord]],
                     reference: float) -> Spectrum:
    """Mean detected source counts per detuning, normalized by
    ``reference`` (the no-gate resonant mean).  SEM is the sample
    standard deviation over sqrt(N), in the same normalized units."""
    if reference <= 0:
        raise ValueError("reference must be > 0")
    detunings, means, sems = [], [], []
    for delta in sorted(groups):
        counts = shot_table(groups[delta]).detected_source
        if counts.size < 2:
            raise ValueError("need at least 2 shots per detuning")
        mean, sem = _mean_sem(counts)
        detunings.append(delta)
        means.append(mean / reference)
        sems.append(sem / reference)
    return Spectrum(tuple(detunings), tuple(means), tuple(sems))


def resonant_reference(records: Sequence[ShotRecord]) -> float:
    """Mean detected counts of a no-gate resonant run, used to normalize."""
    counts = shot_table(records).detected_source
    if counts.size == 0:
        raise ValueError("empty reference run")
    return float(np.mean(counts))


def switching_contrast(gate_records: Sequence[ShotRecord],
                       no_gate_records: Sequence[ShotRecord]) -> tuple[float, float]:
    """Relative transmission drop on resonance,
    1 - <counts with gate>/<counts without gate>, with the propagated
    standard error."""
    a = shot_table(gate_records).detected_source
    b = shot_table(no_gate_records).detected_source
    if a.size < 2 or b.size < 2:
        raise ValueError("need at least 2 shots in each group")
    (ma, sa), (mb, sb) = _mean_sem(a), _mean_sem(b)
    if mb == 0:
        raise ValueError("zero transmission in the no-gate reference")
    ratio = ma / mb
    sigma = abs(ratio) * math.sqrt((sa / ma) ** 2 + (sb / mb) ** 2) if ma > 0 else sa / mb
    return 1.0 - ratio, sigma


# ---------------------------------------------------------------------------
# histograms

@dataclass(frozen=True)
class TransmissionHistogram:
    """Occurrence rates of detected source counts per detuning column.
    rates[i, c] is the fraction of shots at detunings[i] that produced c
    detected photons; every row sums to 1.  Component statistics come
    from the ground-truth stored number; threshold_* fields repeat the
    split using only the observable counts."""

    detunings: tuple[float, ...]
    count_bins: tuple[int, ...]
    rates: np.ndarray
    high_mean: tuple[float, ...]
    low_mean: tuple[float, ...]
    high_peak: tuple[float, ...]
    low_peak: tuple[float, ...]
    extinction_factor: tuple[float, ...]
    threshold: tuple[float, ...]
    threshold_extinction_factor: tuple[float, ...]

    def column(self, detuning: float) -> int:
        for i, d in enumerate(self.detunings):
            if d == detuning:
                return i
        raise KeyError(f"no column at detuning {detuning}")


def _component_sums(hi, *values) -> np.ndarray:
    """Per-shot columns (hi, lo, hi*v, lo*v, ...) of the split ``hi`` (lo
    = ~hi), as one float64 array; their sums are each component's size
    and total of each value."""
    lo = ~hi
    return np.column_stack([hi, lo, *(m * v for v in values
                                      for m in (hi, lo))]).astype(float)


def _component_means(sums) -> tuple[np.ndarray, np.ndarray]:
    """High and low means of each value from ``_component_sums`` column
    sums (last axis), one row or a bootstrap stack; NaN if empty (0/0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return sums[..., 2::2] / sums[..., :1], sums[..., 3::2] / sums[..., 1:2]


def _extinction(sums):
    """High mean, low mean and their ratio from ``_component_sums(hi, counts)`` sums."""
    hm, lm = (m[..., 0] for m in _component_means(sums))
    with np.errstate(divide="ignore", invalid="ignore"):
        return hm, lm, hm / lm


def _valley_threshold(hist: np.ndarray) -> float:
    """Cut between the two components of a bimodal count histogram: the
    minimum of the (lightly smoothed) histogram between its outermost
    prominent local maxima.  NaN when the histogram is unimodal."""
    if hist.size < 3:
        return math.nan
    kernel = np.array([0.25, 0.5, 0.25])
    smooth = np.convolve(hist, kernel, mode="same")
    floor = 0.05 * smooth.max()
    maxima = []
    for i in range(smooth.size):
        left = smooth[i - 1] if i > 0 else -1.0
        right = smooth[i + 1] if i < smooth.size - 1 else -1.0
        if smooth[i] >= floor and smooth[i] >= left and smooth[i] > right:
            maxima.append(i)
    if len(maxima) < 2:
        return math.nan
    lo, hi = maxima[0], maxima[-1]
    if hi - lo < 2:
        return math.nan
    valley = lo + 1 + int(np.argmin(smooth[lo + 1: hi]))
    return float(valley)


def build_histogram(groups: Mapping[float, Sequence[ShotRecord]],
                    max_count: int | None = None) -> TransmissionHistogram:
    """Occurrence-rate histogram over detuning x detected-count bins with
    a high/low component split per column.  The extinction factor is the
    ratio of the component mean counts (no gate over gate present): NaN
    with an empty component, inf with a dark low one."""
    if len(groups) == 0:
        raise ValueError("no detuning groups")
    tables = {d: shot_table(groups[d]) for d in groups}
    all_counts = np.concatenate([t.detected_source for t in tables.values()])
    if all_counts.size < 1:
        raise ValueError("no shots")
    top = int(max_count) if max_count is not None else int(all_counts.max())
    if top < 1:
        raise ValueError("degenerate count binning; no counts above zero")
    bins = np.arange(0, top + 1)
    detunings = sorted(groups)
    rates = np.zeros((len(detunings), bins.size))
    columns = []
    for i, delta in enumerate(detunings):
        table = tables[delta]
        if len(table) < 1:
            raise ValueError("empty detuning group")
        counts = table.detected_source
        clipped = np.clip(counts, 0, top).astype(int)
        hist = np.bincount(clipped, minlength=bins.size).astype(float)
        rates[i] = hist / hist.sum()
        hi = table.n_stored == 0
        rows, freq = _counted_rows(_component_sums, hi, counts)
        hm, lm, factor = _extinction(freq @ rows)
        peaks = [np.argmax(np.bincount(clipped[sel], minlength=bins.size))
                 if sel.any() else math.nan for sel in (hi, ~hi)]
        thr = _valley_threshold(rates[i])
        rows, freq = _counted_rows(_component_sums, counts > thr, counts)
        thr_factor = _extinction(freq @ rows)[2]
        columns.append((hm, lm, *peaks, factor, thr, thr_factor))
    # one tuple of floats per field, high_mean to threshold_extinction_factor
    return TransmissionHistogram(tuple(detunings), tuple(int(b) for b in bins), rates,
                                 *(tuple(map(float, col)) for col in zip(*columns)))


def extinction_factor_errors(records: Sequence[ShotRecord], resamples: int = 400,
                             seed: int = 11) -> tuple[float, float, float, int]:
    """The ground-truth extinction factor of ``records``, ``build_histogram``'s,
    with its bootstrap percentile errors, as (factor, err_low, err_high,
    skipped).  Replicates with an empty component or a dark low component
    are undefined and skipped."""
    table = shot_table(records)
    if len(table) == 0:
        raise ValueError("extinction_factor_errors got no shots")
    ratios = _extinction(_resampled_sums(_component_sums,
                                         (table.n_stored == 0, table.detected_source),
                                         resamples, np.random.default_rng(seed)))[2]
    factor = float(ratios[0])
    [errors], skipped = _percentile_errors(ratios[1:, None], [factor])
    return (factor, *errors, skipped)


def single_excitation_fraction(records: Sequence[ShotRecord]) -> tuple[float, float]:
    """P(n_stored = 1 | n_stored >= 1) with its binomial standard error,
    sqrt(p (1 - p) / n), which is 0 when every or no shot with a stored
    excitation stored exactly one."""
    stored = shot_table(records).n_stored
    present = stored >= 1
    n = int(present.sum())
    if n == 0:
        raise ValueError("no shots with a stored excitation")
    p = float(np.mean(stored[present] == 1))
    return p, math.sqrt(p * (1 - p) / n)


# ---------------------------------------------------------------------------
# gain

@dataclass(frozen=True)
class GainEstimate:
    g: float
    err_low: float
    err_high: float
    g_outside: float
    outside_err_low: float
    outside_err_high: float
    source_strength: float
    fallbacks: int = 0

    def __post_init__(self):
        if self.g > self.source_strength + 1e-9:
            raise ValueError("gain cannot exceed the source strength")


def gain(records: Sequence[ShotRecord], labels: str = "truth",
         threshold: float | None = None, resamples: int = DEFAULT_RESAMPLES,
         seed: int = 0) -> GainEstimate:
    """Gate-induced drop in transmitted source photons: the difference of
    the component means of the window-integrated photon number, in
    intracavity units (g) and after outcoupling (g_outside).

    ``labels="truth"`` splits on the stored excitation number;
    ``labels="threshold"`` splits on detected counts above/below
    ``threshold`` the way a measured histogram would be cut.
    """
    table = shot_table(records)
    if labels == "truth":
        hi = table.n_stored == 0
    elif labels == "threshold":
        if threshold is None:
            raise ValueError("threshold labels need a threshold")
        hi = table.detected_source > threshold
    else:
        raise ValueError(f"unknown label mode {labels!r}")
    if hi.all() or not hi.any():
        raise ValueError("both histogram components must be populated")

    # row 0: the full sample, for the point estimate; then the replicates
    high, low = _component_means(_resampled_sums(
        _component_sums, (hi, table.source_transmitted_intracavity,
                          table.source_transmitted_outside),
        resamples, np.random.default_rng(seed)))
    boots = high - low
    g_in, g_out = boots[0].tolist()
    ((el, eh), (ol, oh)), fallbacks = _percentile_errors(boots[1:], (g_in, g_out))
    return GainEstimate(g_in, el, eh, g_out, ol, oh,
                        source_strength=float(high[0, 0]), fallbacks=fallbacks)


# ---------------------------------------------------------------------------
# retrieval decay

@dataclass(frozen=True)
class RetrievalCurve:
    source_strengths: tuple[float, ...]
    source_strengths_outside: tuple[float, ...]
    fractions: tuple[float, ...]
    m_s0: float
    m_s0_err_low: float
    m_s0_err_high: float
    m_s0_outside: float
    m_s0_outside_err_low: float
    m_s0_outside_err_high: float
    amplitude: float
    residual_rms: float
    fallbacks: int = 0


def _retrieval_columns(empty, intra, outside, sel, retrieved) -> np.ndarray:
    """Per-shot columns (empty, empty*intra, empty*outside, sel,
    sel*retrieved) of ``retrieval_curve``: the size and transmitted totals
    of the zero-excitation shots, and the size and retrievals of the
    selection."""
    return np.column_stack([empty, empty * intra, empty * outside,
                            sel, sel * retrieved]).astype(float)


def retrieval_curve(point_records: Sequence[Sequence[ShotRecord]],
                    condition_single: bool = False,
                    resamples: int = DEFAULT_RESAMPLES,
                    seed: int = 0) -> RetrievalCurve:
    """Retrieval probability versus source strength, normalized to the
    zero-source point, with the fitted 1/e source photon number in both
    intracavity and outside-cavity units.

    The source strength of each point is measured from its own no-gate
    shots.  ``condition_single`` restricts the retrieval fraction to
    shots that stored exactly one excitation, isolating the one-photon
    destruction constant from multi-excitation admixture.
    """
    if len(point_records) < 3:
        raise ValueError("need at least 3 source-strength points")

    rng = np.random.default_rng(seed)
    sums = []
    for i, records in enumerate(point_records):
        table = shot_table(records)
        stored = table.n_stored
        empty = stored == 0
        sel = stored == 1 if condition_single else np.ones_like(empty)
        if not empty.any():
            raise ValueError(f"point {i} has no zero-excitation shots to measure strength")
        if not sel.any():
            raise ValueError(f"point {i} has no shot in its retrieval selection")
        sums.append(_resampled_sums(_retrieval_columns, (
            empty, table.source_transmitted_intracavity, table.source_transmitted_outside,
            sel, table.retrieved), resamples, rng))
    # each (1 + resamples, points), row 0 the full sample as in gain
    n_e, in_e, out_e, n_sel, r_sel = np.moveaxis(np.stack(sums, axis=1), -1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        xs_in, xs_out, raw = in_e / n_e, out_e / n_e, r_sel / n_sel
        ref = raw[np.arange(len(raw)), np.argmin(xs_in, axis=1)]
        fractions = raw / ref[:, None]
    if ref[0] <= 0:
        raise ValueError("zero retrieval at the reference point")

    amp_in, m_in, res = fit_exponential(xs_in[0], fractions[0])
    amp, m_out, _ = fit_exponential(xs_out[0], fractions[0])
    if not (np.isfinite(m_in) and m_in > 0):
        raise FitError("retrieval decay fit failed: non-decreasing data")

    # every replicate starts at the point fit; an undefined one comes back NaN
    boots = np.column_stack([_fit_decays(xs_in[1:], fractions[1:], amp_in, m_in)[1],
                             _fit_decays(xs_out[1:], fractions[1:], amp, m_out)[1]])
    ((el, eh), (ol, oh)), fallbacks = _percentile_errors(boots, (m_in, m_out))
    return RetrievalCurve(
        source_strengths=tuple(xs_in[0].tolist()),
        source_strengths_outside=tuple(xs_out[0].tolist()),
        fractions=tuple(fractions[0].tolist()),
        m_s0=m_in, m_s0_err_low=el, m_s0_err_high=eh,
        m_s0_outside=m_out, m_s0_outside_err_low=ol, m_s0_outside_err_high=oh,
        amplitude=amp,
        residual_rms=float(np.sqrt(np.mean(res ** 2))),
        fallbacks=fallbacks,
    )


# ---------------------------------------------------------------------------
# cross-correlation

@dataclass(frozen=True)
class G2Result:
    raw: float
    raw_err_low: float
    raw_err_high: float
    corrected: float
    corrected_err_low: float
    corrected_err_high: float
    fallbacks: int = 0


def g2_cross(gate_counts, source_counts, backgrounds: tuple[float, float] = (0.0, 0.0),
             resamples: int = DEFAULT_RESAMPLES, seed: int = 0) -> G2Result:
    """Normalized gate-source cross-correlation <n_g n_s>/(<n_g><n_s>)
    from paired per-shot counts, raw and with the known mean background
    counts per shot subtracted from both channels.  Values below 1 mean
    the two channels anticorrelate.  Uncertainties are bootstrap
    percentiles and generally asymmetric."""
    g = np.asarray(gate_counts, dtype=float)
    s = np.asarray(source_counts, dtype=float)
    if g.shape != s.shape or g.ndim != 1:
        raise ValueError("gate and source counts must be equal-length 1-d arrays")
    if g.size < 2:
        raise ValueError(f"g2_cross needs at least 2 shots, got {g.size}")
    if not (np.isfinite(g).all() and np.isfinite(s).all()):
        raise ValueError("g2_cross needs finite counts, not NaN or an infinity")
    dg, ds = backgrounds

    def estimate(mg, ms, mgs):
        return (mgs / (mg * ms),
                (mgs - mg * ds - dg * ms + dg * ds) / ((mg - dg) * (ms - ds)))

    mg, ms = float(np.mean(g)), float(np.mean(s))
    if mg <= 0 or ms <= 0:
        raise ValueError("zero mean in a channel")
    if mg - dg <= 0 or ms - ds <= 0:
        raise ValueError("background exceeds a channel mean")
    raw, corrected = estimate(mg, ms, float(np.mean(g * s)))
    # each channel coded by its float64 bits, which keep -0.0 apart as bytes do
    (gv, gi), (sv, si) = (np.unique(x.view(np.int64), return_inverse=True) for x in (g, s))
    gv, sv = gv.view(float), sv.view(float)
    sums = _resampled_sums(lambda i, j: np.column_stack([gv[i], sv[j], gv[i] * sv[j]]),
                           (gi, si), resamples, np.random.default_rng(seed))
    # replicates only: the point estimate keeps np.mean's rounding of non-integer counts
    bg, bs, bgs = (sums[1:] / g.size).T
    with np.errstate(divide="ignore", invalid="ignore"):
        boots = np.column_stack(estimate(bg, bs, bgs))
    # a replicate failing the point estimate's conditions is undefined
    boots[(bg <= 0) | (bs <= 0) | (bg - dg <= 0) | (bs - ds <= 0)] = math.nan
    ((rl, rh), (cl, ch)), fallbacks = _percentile_errors(boots, (raw, corrected))
    return G2Result(raw, rl, rh, corrected, cl, ch, fallbacks=fallbacks)


# ---------------------------------------------------------------------------
# fits

def fit_exponential(xs, ys) -> tuple[float, float, np.ndarray]:
    """Unweighted least squares of y = A exp(-x/m) on a linear scale:
    ``_fit_decays`` on one row, started at a line fitted to log(y).
    Returns (A, m, residuals); raises FitError if the fit has not
    converged within ``_FIT_ITERATIONS`` iterations."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("xs and ys must be 1-d and of equal length")
    if x.size < 3:
        raise ValueError("need at least 3 points")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("xs and ys must be finite")
    if np.unique(x).size != x.size:
        raise ValueError("xs must be distinct")
    pos = y > 0
    if pos.sum() >= 2:
        slope, intercept = np.polyfit(x[pos], np.log(y[pos]), 1)
        m0 = -1.0 / slope if slope < 0 else (x.max() - x.min()) or 1.0
        a0 = math.exp(intercept)
    else:
        m0 = (x.max() - x.min()) or 1.0
        a0 = float(y.max()) or 1.0
    [a], [m] = _fit_decays(x[None], y[None], a0, m0)
    if math.isnan(m):
        raise FitError(f"exponential fit not converged in {_FIT_ITERATIONS} iterations")
    return float(a), float(m), y - a * np.exp(-x / m)


def _fit_decays(x, y, a0, m0):
    """Least squares of y = A exp(-x/m) for every row of ``x``, ``y``
    (shape (rows, points)) at once, started at (a0, m0).  Levenberg-
    Marquardt on (A, k = 1/m), in which the model is smooth through k = 0,
    with the analytic Jacobian and the 2x2 damped normal equations solved
    in closed form.  A step is taken only where it does not raise the
    row's sum of squares; a row has converged when a taken step moves A
    and k by at most ``_FIT_STEP_TOL`` relative.  Returns (A, m), one per
    row, NaN for a row that ``fit_exponential`` would reject (fewer than 3
    points, a repeated x), that is not finite, or that has not converged
    within ``_FIT_ITERATIONS`` iterations."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fit = np.full((2, len(x)), math.nan)
    rows = np.flatnonzero((x.shape[1] >= 3) & np.isfinite(x).all(axis=1)
                          & np.isfinite(y).all(axis=1)
                          & (np.diff(np.sort(x, axis=1), axis=1) != 0).all(axis=1))
    x, y = x[rows], y[rows]

    def dot(u, v):
        return np.einsum("ij,ij->i", u, v)

    def residuals(a, k):
        e = np.exp(-k[:, None] * x)
        r = y - a[:, None] * e
        return e, r, dot(r, r)

    with np.errstate(all="ignore"):  # a trial step to inf or NaN is not taken
        a = np.full(rows.size, float(a0))
        k = 1 / np.full(rows.size, float(m0))
        lam = np.full(rows.size, 1e-3)
        e, r, ss = residuals(a, k)
        for _ in range(_FIT_ITERATIONS):
            if rows.size == 0:
                break
            ja, jk = e, -a[:, None] * x * e
            haa, hkk, hak = dot(ja, ja) * (1 + lam), dot(jk, jk) * (1 + lam), dot(ja, jk)
            ga, gk = dot(ja, r), dot(jk, r)
            det = haa * hkk - hak * hak
            da, dk = (hkk * ga - hak * gk) / det, (haa * gk - hak * ga) / det
            e_t, r_t, ss_t = residuals(a + da, k + dk)
            take = ss_t <= ss  # False for a NaN trial
            a, k = np.where(take, a + da, a), np.where(take, k + dk, k)
            e, r = np.where(take[:, None], e_t, e), np.where(take[:, None], r_t, r)
            ss, lam = np.where(take, ss_t, ss), np.where(take, lam / 10, lam * 10)
            done = (take & (np.abs(da) <= _FIT_STEP_TOL * np.abs(a))
                    & (np.abs(dk) <= _FIT_STEP_TOL * np.abs(k)))
            fit[:, rows[done]] = a[done], 1 / k[done]
            rows, x, y, a, k, lam, e, r, ss = (
                v[~done] for v in (rows, x, y, a, k, lam, e, r, ss))
    return fit[0], fit[1]


def fit_linear(xs, ys) -> tuple[float, float]:
    """Least-squares line; returns (slope, intercept)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 points")
    if np.all(x == x[0]):
        raise ValueError("rank-deficient input: xs are all equal")
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)
