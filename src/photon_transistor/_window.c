/* Source window with blocking atoms, compiled.
 *
 * The loop of engine._evolve_source_window_py once the incident photon
 * number is drawn, branch for branch: the same float expressions in the
 * same order, and the same numpy distribution functions (libnpyrandom)
 * that numpy's Generator calls, drawing from the shot's own bit
 * generator.  A window run here therefore consumes the stream exactly as
 * the Python loop does and returns the same numbers.  Build with
 * -ffp-contract=off so that no multiply-add is fused.
 *
 * A resonant window (delta == 0) computes its transmission T and
 * scattering probability S from the total cooperativity, once at the
 * start and again after every pumping hop.  A detuned window takes T and
 * S from the caller, computed by engine._transmission_and_scatter (or the
 * empty-cavity T at or below the floor), so no complex arithmetic is
 * ported; it must have no pumping hops, which would change them.
 */
#include "numpy/random/distributions.h"

/* return values for a draw that numpy's Generator rejects */
#define REJECTED_GEOMETRIC (-1)
#define REJECTED_BINOMIAL (-2)

/* T and S on resonance, as engine._transmission_and_scatter gives them */
static void resonant_probabilities(double total, double *t, double *s)
{
    double onep = 1.0 + total;
    *t = 1.0 / (onep * onep);
    *s = 2.0 * total * *t;
    *s = *s < 1.0 - *t ? *s : 1.0 - *t;
}

static double total_eta(const double *etas, int64_t n_etas)
{
    double total = 0.0;
    for (int64_t i = 0; i < n_etas; i++)
        total += etas[i];
    return total;
}

/* Adds Binomial(n, p), drawn as numpy's Generator draws it, to *sum and
 * returns 1.  A probability that the Generator rejects is not drawn: the
 * return value is then 0, with n in counts[0] and p in values[0]. */
static int add_binomial(bitgen_t *bitgen, binomial_t *state, int64_t n, double p,
                        int64_t *sum, int64_t *counts, double *values)
{
    if (!(p >= 0.0 && p <= 1.0)) {
        counts[0] = n;
        values[0] = p;
        return 0;
    }
    *sum += random_binomial(bitgen, p, n, state);
    return 1;
}

/* Sends counts[0] photons through the cavity with the cooperativities
 * values[6 : 6 + counts[1]] blocking it, at hop probability values[0],
 * hop ratio values[1], empty-cavity floor values[2] and detuning
 * values[3]; a detuned window's T and S are values[4] and values[5]
 * (arguments are packed into two arrays because every separate ctypes
 * argument costs call time).  Returns the transmitted photon count, with
 * the number of scattering events in counts[2] and the index of the
 * photon that scattered first in counts[3] (0 when none did); the
 * cooperativities are updated in place by the pumping hops.  A draw
 * whose argument numpy's Generator rejects is not made: the return value
 * is then REJECTED_GEOMETRIC with the probability in values[0], or
 * REJECTED_BINOMIAL with the count in counts[0] and the probability in
 * values[0]. */
int64_t source_window(bitgen_t *bitgen, int64_t *counts, double *values)
{
    int64_t remaining = counts[0], n_etas = counts[1];
    double hop_prob = values[0], hop_ratio = values[1], eta_floor = values[2];
    double delta = values[3], t = values[4], s = values[5];
    double *etas = values + 6;
    binomial_t binomial = {0};
    int64_t transmitted = 0, processed = 0;
    double total = total_eta(etas, n_etas);
    if (delta == 0.0)
        resonant_probabilities(total, &t, &s);
    counts[2] = counts[3] = 0;
    while (remaining > 0) {
        if (total <= eta_floor) {
            if (delta == 0.0)
                transmitted += remaining;
            else if (!add_binomial(bitgen, &binomial, remaining, t, &transmitted,
                                   counts, values))
                return REJECTED_BINOMIAL;
            break;
        }
        if (s < 1e-300) {
            if (!add_binomial(bitgen, &binomial, remaining, t, &transmitted,
                              counts, values))
                return REJECTED_BINOMIAL;
            break;
        }
        /* s is NaN only when the cooperativities or the detuned T are
           not numbers */
        if (!(s > 0.0 && s <= 1.0)) {
            values[0] = s;
            return REJECTED_GEOMETRIC;
        }
        int64_t gap = random_geometric(bitgen, s);
        double p = t / (1.0 - s);
        if (gap > remaining) {
            if (!add_binomial(bitgen, &binomial, remaining, p, &transmitted,
                              counts, values))
                return REJECTED_BINOMIAL;
            break;
        }
        if (gap > 1 && !add_binomial(bitgen, &binomial, gap - 1, p, &transmitted,
                                     counts, values))
            return REJECTED_BINOMIAL;
        processed += gap;
        remaining -= gap;
        if (counts[2]++ == 0)
            counts[3] = processed;
        double pick = random_standard_uniform(bitgen) * total;
        if (hop_prob > 0.0
                && (hop_prob >= 1.0 || random_standard_uniform(bitgen) < hop_prob)) {
            /* the scattering atom, chosen proportionally to its
               cooperativity; the last one when rounding leaves the pick
               above every sum */
            double acc = 0.0;
            int64_t j = 0;
            for (; j < n_etas - 1; j++) {
                acc += etas[j];
                if (pick <= acc)
                    break;
            }
            etas[j] *= hop_ratio;
            total = total_eta(etas, n_etas);
            resonant_probabilities(total, &t, &s);  /* hops run here only on resonance */
        }
    }
    return transmitted;
}
