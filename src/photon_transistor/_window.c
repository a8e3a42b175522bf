/* One shot of the switching experiment, compiled.
 *
 * shot runs a whole repetition of engine._run_shot_py: gate storage,
 * spin-wave decay, the source window, outcoupling, retrieval and the two
 * counting chains.  engine.run_shot calls it for every shot once this
 * file is built.  It keys its own Philox4x64-10 stream from
 * (master_seed, shot_index) exactly as engine.shot_rng keys numpy's, and
 * makes every draw in the same order through the numpy distribution
 * functions (libnpyrandom) that numpy's Generator calls, so a shot run
 * here consumes the same random numbers and returns the same record.
 * Every float expression is the Python one, in the same order; build with
 * -ffp-contract=off so that no multiply-add is fused.  The Python engine
 * stays, as the reference the tests compare this file against and as the
 * fallback where no compiler is found.
 *
 * Every function that reads a configuration takes it as one
 * const struct shot_args, which _kernel.pack_shot packs once for a chunk
 * of shots.  shot writes its record, ShotRecord's nine fields as int64,
 * straight into the shot's row of the chunk's block; it refuses a shot
 * whose row is outside the block and writes nothing for it.
 *
 * _kernel.py builds this file and loads it once, as the CPython extension
 * module _window, whose METH_FASTCALL function shot(args, shot_index)
 * takes the packed arguments through the buffer protocol, stores the
 * index and calls shot, holding the GIL.  source_window, philox_raw and
 * window_probabilities_of are plain exports that only the tests call,
 * through ctypes.
 *
 * source_window is the loop of engine.evolve_source_window once the
 * incident photon number is drawn, branch for branch, drawing from the
 * caller's bit generator.  Its T and S come from window_probabilities, a
 * real-arithmetic port of CPython's complex operations in
 * qed.cavity_transmission_spectrum.  A pumping hop changes them, so it
 * recomputes them after the hop: with resonant_probabilities on
 * resonance, and with window_probabilities off it.
 *
 * A shot keeps its stored cooperativities on its own stack, at most
 * ETA_CAPACITY of them.  A shot that stores more, or meets a draw that
 * numpy's Generator would reject, is refused before that draw is made;
 * the caller reruns it in Python, where the Generator raises its own
 * error, and writes its row.
 */
#include <Python.h>
#include <math.h>
#include "numpy/random/distributions.h"

/* return value of source_window when a draw is rejected */
#define REJECTED (-1)
/* return value of shot when a draw is rejected, the etas do not fit or
   the shot's row is outside the attached block */
#define SHOT_IN_PYTHON 1
/* the most stored excitations a compiled shot holds */
#define ETA_CAPACITY 1024

/* the largest Poisson mean numpy's Generator accepts, computed as numpy does */
#define POISSON_LAM_MAX ((double)INT64_MAX - sqrt((double)INT64_MAX) * 10)
/* math.pi */
#define PI 3.141592653589793

/* ---- the shot's stream: numpy's Philox4x64-10 with its buffering ---- */

typedef struct {
    uint64_t counter[4], key[2], buffer[4];
    int buffer_pos, has_uint32;
    uint32_t uinteger;
} philox_t;

/* numpy.random.Philox(key=(master_seed << 64) | shot_index), fresh */
static void philox_seed(philox_t *st, uint64_t master_seed, uint64_t shot_index)
{
    *st = (philox_t){.key = {shot_index, master_seed}, .buffer_pos = 4};
}

static uint64_t philox_next64(void *state)
{
    philox_t *st = state;
    if (st->buffer_pos < 4)
        return st->buffer[st->buffer_pos++];
    /* the counter is incremented, with carry, before each block */
    for (int i = 0; i < 4 && ++st->counter[i] == 0; i++)
        ;
    uint64_t c0 = st->counter[0], c1 = st->counter[1];
    uint64_t c2 = st->counter[2], c3 = st->counter[3];
    uint64_t k0 = st->key[0], k1 = st->key[1];
    for (int round = 0; round < 10; round++) {
        if (round > 0) {
            k0 += 0x9E3779B97F4A7C15ULL;
            k1 += 0xBB67AE8584CAA73BULL;
        }
        unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93ULL * c0;
        unsigned __int128 p1 = (unsigned __int128)0xCA5A826395121157ULL * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c3 = (uint64_t)p0;
    }
    st->buffer[0] = c0;
    st->buffer[1] = c1;
    st->buffer[2] = c2;
    st->buffer[3] = c3;
    st->buffer_pos = 1;
    return c0;
}

static uint32_t philox_next32(void *state)
{
    philox_t *st = state;
    if (st->has_uint32) {
        st->has_uint32 = 0;
        return st->uinteger;
    }
    uint64_t next = philox_next64(st);
    st->has_uint32 = 1;
    st->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)(next & 0xffffffff);
}

static double philox_next_double(void *state)
{
    return (philox_next64(state) >> 11) * (1.0 / 9007199254740992.0);
}

/* The first n raw outputs of the stream of (master_seed, shot_index),
 * key[0] and key[1], into out (for testing the stream against numpy's). */
void philox_raw(const uint64_t *key, uint64_t *out, int64_t n)
{
    philox_t st;
    philox_seed(&st, key[0], key[1]);
    for (int64_t i = 0; i < n; i++)
        out[i] = philox_next64(&st);
}

/* ---- one configuration ---- */

/* One configuration's parameters, packed once per chunk by
 * _kernel.pack_shot (its ctypes mirror is _kernel._ShotArgs), the shot
 * to run, and the chunk's block of rows.  Every field is 8 bytes, so the
 * layout has no padding. */
struct shot_args {
    uint64_t master_seed, shot_index;
    /* the chunk's block: n_rows rows of 9 int64, ShotRecord's fields in
       order; shot i writes row i - first, and a shot outside
       [first, first + n_rows) is refused.  A block never attached has no
       rows, so every shot is refused. */
    int64_t *rows;
    uint64_t first, n_rows;
    /* gate storage: the stored mean, and the cooperativity rule of
       qed.sample_cooperativity: n_levels (eta, probability) pairs, or
       coop_scale = eta0 * geometric_weight, times cos^2 of a uniform
       phase with standing_wave */
    double stored_mean;
    int64_t n_levels, standing_wave;
    const double *levels;
    double coop_scale;
    /* decay: the storage time and exp(-storage time / lifetime) */
    double storage_time, survival;
    /* the source window: its mean photon number, the pumping hops, the
       empty-cavity floor of the total cooperativity and the detuning */
    double source_mean, hop_prob, hop_ratio, eta_floor, delta;
    /* a detuned window's constants: the empty cavity's T, the complex
       1 + 2i delta/kappa and 1 + 2i delta/gamma, and the Lorentzian
       1 / (1 + (2 delta/gamma)^2) */
    double empty_t, cavity_re, cavity_im, atom_re, atom_im, lorentzian;
    /* outcoupling, retrieval, and the two counting chains, each with the
       mean dark count of its window (0 when it has none) */
    double outcoupling;
    int64_t retrieval_mode;
    double retrieval_efficiency;
    double source_efficiency, source_dark_mean, gate_efficiency, gate_dark_mean;
};

/* ---- the source window ---- */

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
 * returns 1; returns 0, drawing nothing, for a probability the Generator
 * rejects. */
static int add_binomial(bitgen_t *bitgen, binomial_t *state, int64_t n, double p,
                        int64_t *sum)
{
    if (!(p >= 0.0 && p <= 1.0))
        return 0;
    *sum += random_binomial(bitgen, p, n, state);
    return 1;
}

/* T and S of a window whose blockers add up to total, as
 * engine._window_probabilities computes them.  A detuned T is
 * 1 / |(1 + 2i delta/kappa) + total / (1 + 2i delta/gamma)|^2 in
 * CPython's complex arithmetic: the quotient is _Py_c_quot with both of
 * its branches.  The divisor's real part is 1, or NaN at a detuning so
 * large that 2i delta overflows, so its zero-divisor case never arises. */
static void window_probabilities(const struct shot_args *a, double total,
                                 double *t, double *s)
{
    if (total <= a->eta_floor) {
        *t = a->delta == 0.0 ? 1.0 : a->empty_t;
        *s = 0.0;
        return;
    }
    if (a->delta == 0.0) {
        resonant_probabilities(total, t, s);
        return;
    }
    double br = a->atom_re, bi = a->atom_im, qr, qi;
    double abs_br = br < 0 ? -br : br, abs_bi = bi < 0 ? -bi : bi;
    if (abs_br >= abs_bi) {
        double ratio = bi / br, denom = br + bi * ratio;
        qr = (total + 0.0 * ratio) / denom;
        qi = (0.0 - total * ratio) / denom;
    } else if (abs_bi >= abs_br) {
        double ratio = br / bi, denom = br * ratio + bi;
        qr = (total * ratio + 0.0) / denom;
        qi = (0.0 * ratio - total) / denom;
    } else {
        qr = qi = NAN;
    }
    double dr = a->cavity_re + qr, di = a->cavity_im + qi;
    *t = 1.0 / (dr * dr + di * di);
    *s = 2.0 * total * a->lorentzian * *t;
    *s = *s < 1.0 - *t ? *s : 1.0 - *t;
}

/* window_probabilities for a test: the total in values[0], T and S
 * returned in values[0] and values[1] */
void window_probabilities_of(const struct shot_args *a, double *values)
{
    window_probabilities(a, values[0], &values[0], &values[1]);
}

/* Sends photons photons through the cavity of a with the n_etas
 * cooperativities etas blocking it.  Returns the transmitted photon
 * count, with the number of scattering events in scatters[0] and the
 * index of the photon that scattered first in scatters[1] (0 when none
 * did); the cooperativities are updated in place by the pumping hops.  A
 * draw whose argument numpy's Generator rejects is not made: the return
 * value is then REJECTED. */
int64_t source_window(bitgen_t *bitgen, const struct shot_args *a, int64_t photons,
                      double *etas, int64_t n_etas, int64_t *scatters)
{
    /* copied once: a hop writes through etas, which may alias *a */
    double hop_prob = a->hop_prob, hop_ratio = a->hop_ratio, eta_floor = a->eta_floor;
    double delta = a->delta, t, s;
    binomial_t binomial = {0};
    int64_t remaining = photons, transmitted = 0, processed = 0;
    double total = total_eta(etas, n_etas);
    window_probabilities(a, total, &t, &s);
    scatters[0] = scatters[1] = 0;
    while (remaining > 0) {
        if (total <= eta_floor) {
            if (delta == 0.0)
                transmitted += remaining;
            else if (!add_binomial(bitgen, &binomial, remaining, t, &transmitted))
                return REJECTED;
            break;
        }
        if (s < 1e-300) {
            if (!add_binomial(bitgen, &binomial, remaining, t, &transmitted))
                return REJECTED;
            break;
        }
        /* s is NaN only when the cooperativities or the detuned T are
           not numbers */
        if (!(s > 0.0 && s <= 1.0))
            return REJECTED;
        int64_t gap = random_geometric(bitgen, s);
        double p = t / (1.0 - s);
        if (gap > remaining) {
            if (!add_binomial(bitgen, &binomial, remaining, p, &transmitted))
                return REJECTED;
            break;
        }
        if (gap > 1 && !add_binomial(bitgen, &binomial, gap - 1, p, &transmitted))
            return REJECTED;
        processed += gap;
        remaining -= gap;
        if (scatters[0]++ == 0)
            scatters[1] = processed;
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
            if (delta == 0.0)
                resonant_probabilities(total, &t, &s);
            else
                window_probabilities(a, total, &t, &s);
        }
    }
    return transmitted;
}

/* ---- one shot ---- */

/* Adds Poisson(lam), drawn as numpy's Generator draws it, to *sum and
 * returns 1; returns 0, drawing nothing, for a mean the Generator rejects. */
static int add_poisson(bitgen_t *bitgen, double lam, int64_t *sum)
{
    if (!(lam >= 0.0 && lam <= POISSON_LAM_MAX))
        return 0;
    *sum += random_poisson(bitgen, lam);
    return 1;
}

/* qed.sample_cooperativity */
static double sample_cooperativity(bitgen_t *bitgen, const struct shot_args *a)
{
    if (a->n_levels > 0) {
        double u = random_standard_uniform(bitgen), acc = 0.0;
        for (int64_t i = 0; i < a->n_levels; i++) {
            acc += a->levels[2 * i + 1];
            if (u < acc)
                return a->levels[2 * i];
        }
        return a->levels[2 * a->n_levels - 2];
    }
    if (a->standing_wave) {
        double c = cos(random_uniform(bitgen, 0.0, PI));
        return a->coop_scale * c * c;
    }
    return a->coop_scale;
}

/* The counting chain of engine.detect */
static int detect(bitgen_t *bitgen, binomial_t *state, int64_t true_count,
                  double efficiency, double dark_mean, int64_t *detected)
{
    *detected = 0;
    if (efficiency < 1.0) {
        if (!add_binomial(bitgen, state, true_count, efficiency, detected))
            return 0;
    } else {
        *detected = true_count;
    }
    return add_poisson(bitgen, dark_mean, detected);
}

/* Runs shot a->shot_index of the configuration in a and writes its
 * record into its row of a->rows.  Returns 0, or SHOT_IN_PYTHON, having
 * written nothing, when the row is outside the block, a draw that numpy's
 * Generator rejects comes up, or more than ETA_CAPACITY excitations are
 * stored; the caller then runs the shot in Python. */
int shot(const struct shot_args *a)
{
    /* unsigned, so an index below first wraps to a row past the block */
    uint64_t row = a->shot_index - a->first;
    if (row >= a->n_rows)
        return SHOT_IN_PYTHON;
    philox_t stream;
    philox_seed(&stream, a->master_seed, a->shot_index);
    bitgen_t bitgen = {&stream, philox_next64, philox_next32, philox_next_double,
                       philox_next64};
    binomial_t binomial = {0};
    int64_t scatters[2], n_stored = 0, photons = 0, transmitted, outside = 0, source, gate;
    double etas[ETA_CAPACITY];

    if (!add_poisson(&bitgen, a->stored_mean, &n_stored) || n_stored > ETA_CAPACITY)
        return SHOT_IN_PYTHON;
    for (int64_t i = 0; i < n_stored; i++)
        etas[i] = sample_cooperativity(&bitgen, a);
    int survived = 1;
    if (n_stored > 0 && a->storage_time != 0.0)
        survived = !(random_standard_uniform(&bitgen) >= a->survival);

    if (!add_poisson(&bitgen, a->source_mean, &photons))
        return SHOT_IN_PYTHON;
    transmitted = source_window(&bitgen, a, photons, etas, n_stored, scatters);
    if (transmitted < 0)
        return SHOT_IN_PYTHON;
    int coherent = scatters[0] == 0;

    if (!add_binomial(&bitgen, &binomial, transmitted, a->outcoupling, &outside))
        return SHOT_IN_PYTHON;
    int retrieved = 0;
    if (a->retrieval_mode && n_stored > 0 && coherent && survived)
        retrieved = random_standard_uniform(&bitgen) < a->retrieval_efficiency;
    if (!detect(&bitgen, &binomial, outside, a->source_efficiency, a->source_dark_mean,
                &source)
            || !detect(&bitgen, &binomial, retrieved, a->gate_efficiency, a->gate_dark_mean,
                       &gate))
        return SHOT_IN_PYTHON;

    int64_t *r = a->rows + 9 * row;
    r[0] = (int64_t)a->shot_index;
    r[1] = n_stored;
    r[2] = transmitted;
    r[3] = outside;
    r[4] = n_stored > 0 && !coherent;
    r[5] = retrieved;
    r[6] = survived;
    r[7] = source;
    r[8] = gate;
    return 0;
}

/* ---- the entry point of engine.run_shot ---- */

/* shot(args, shot_index) from Python: stores shot_index in args, the
 * writeable buffer of a _kernel._ShotArgs, runs the shot and returns
 * whether it was refused.  A buffer that is not writeable or not
 * sizeof(struct shot_args) bytes long, or an index outside [0, 2^64),
 * raises and writes nothing.  The GIL is held throughout. */
static PyObject *shot_entry(PyObject *module, PyObject *const *argv, Py_ssize_t argc)
{
    (void)module;
    if (argc != 2) {
        PyErr_Format(PyExc_TypeError, "shot() takes 2 arguments (%zd given)", argc);
        return NULL;
    }
    /* OverflowError below 0 and at 2^64 and above */
    unsigned long long shot_index = PyLong_AsUnsignedLongLong(argv[1]);
    if (shot_index == (unsigned long long)-1 && PyErr_Occurred())
        return NULL;
    Py_buffer view;
    if (PyObject_GetBuffer(argv[0], &view, PyBUF_WRITABLE) < 0)
        return NULL;
    if (view.len != (Py_ssize_t)sizeof(struct shot_args)) {
        PyBuffer_Release(&view);
        PyErr_Format(PyExc_ValueError, "shot() needs a buffer of %zu bytes, not %zd",
                     sizeof(struct shot_args), view.len);
        return NULL;
    }
    struct shot_args *a = view.buf;
    a->shot_index = shot_index;
    int refused = shot(a);
    PyBuffer_Release(&view);
    return PyBool_FromLong(refused);
}

static PyMethodDef window_methods[] = {
    {.ml_name = "shot", .ml_meth = (PyCFunction)(void (*)(void))shot_entry,
     .ml_flags = METH_FASTCALL,
     .ml_doc = "shot(args, shot_index): run one shot; True when it was refused"},
    {0},
};

/* multi-phase initialisation, so that loading the module registers it
   nowhere: _kernel.py keeps the only reference */
static struct PyModuleDef window_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_window",
    .m_doc = "The entry point of the compiled shot.",
    .m_methods = window_methods,
};

PyMODINIT_FUNC PyInit__window(void)
{
    return PyModuleDef_Init(&window_module);
}
