/* Resonant source window with blocking atoms, compiled.
 *
 * The loop of engine._evolve_source_window_py for a resonant source
 * (delta == 0) once the incident photon number is drawn, branch for
 * branch: the same float expressions in the same order, and the same
 * numpy distribution functions (libnpyrandom) that numpy's Generator
 * calls, drawing from the shot's own bit generator.  A window run here
 * therefore consumes the stream exactly as the Python loop does and
 * returns the same numbers.  Build with -ffp-contract=off so that no
 * multiply-add is fused.
 */
#include "numpy/random/distributions.h"

/* Sends counts[0] photons through the cavity with the cooperativities
 * values[3 : 3 + counts[1]] blocking it, at hop probability values[0],
 * hop ratio values[1] and empty-cavity floor values[2] (arguments are
 * packed into two arrays because every separate ctypes argument costs
 * call time).  Returns the transmitted photon count, with the number of
 * scattering events in counts[2] and the index of the photon that
 * scattered first in counts[3] (0 when none did); the cooperativities
 * are updated in place by the pumping hops.  A geometric draw whose
 * argument numpy's Generator rejects is not made: the return value is
 * then -1, with the argument in values[0]. */
int64_t resonant_window(bitgen_t *bitgen, int64_t *counts, double *values)
{
    int64_t remaining = counts[0], n_etas = counts[1];
    double hop_prob = values[0], hop_ratio = values[1], eta_floor = values[2];
    double *etas = values + 3;
    binomial_t binomial = {0};
    int64_t transmitted = 0, processed = 0;
    counts[2] = counts[3] = 0;
    while (remaining > 0) {
        double total = 0.0;
        for (int64_t i = 0; i < n_etas; i++)
            total += etas[i];
        if (total <= eta_floor) {
            transmitted += remaining;
            break;
        }
        double onep = 1.0 + total;
        double t = 1.0 / (onep * onep);
        double s = 2.0 * total * t;
        s = s < 1.0 - t ? s : 1.0 - t;
        if (s < 1e-300) {
            transmitted += random_binomial(bitgen, t, remaining, &binomial);
            break;
        }
        /* s is NaN only when the cooperativities are not numbers; the
           binomial probabilities are then never reached, and otherwise
           always lie in [0, 1] */
        if (!(s > 0.0 && s <= 1.0)) {
            values[0] = s;
            return -1;
        }
        int64_t gap = random_geometric(bitgen, s);
        double p = t / (1.0 - s);
        if (gap > remaining) {
            transmitted += random_binomial(bitgen, p, remaining, &binomial);
            break;
        }
        if (gap > 1)
            transmitted += random_binomial(bitgen, p, gap - 1, &binomial);
        processed += gap;
        remaining -= gap;
        if (counts[2]++ == 0)
            counts[3] = processed;
        /* scattering atom chosen proportionally to its cooperativity;
           the last one when rounding leaves the pick above every sum */
        double pick = random_standard_uniform(bitgen) * total, acc = 0.0;
        int64_t j = 0;
        for (; j < n_etas - 1; j++) {
            acc += etas[j];
            if (pick <= acc)
                break;
        }
        if (hop_prob > 0.0
                && (hop_prob >= 1.0 || random_standard_uniform(bitgen) < hop_prob))
            etas[j] *= hop_ratio;
    }
    return transmitted;
}
