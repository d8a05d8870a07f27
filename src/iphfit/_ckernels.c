/*
 * The two sweeps of _kernels.py, compiled.
 *
 * complete_sweep runs complete_path over a whole panel; the estimator
 * calls it for each SE-step and for the final-segment bridges of
 * initialization.  simulate_sweep draws each path's initial state (one
 * next_double) and runs run_chain to the horizon; the studies and the CLI
 * call it for a simulated cohort and for each goodness-of-fit sample.
 * The helpers below (jump, run_chain, bridge_attempt, complete_path)
 * mirror the Python ones (_jump, _run_chain, _bridge_attempt,
 * _complete_path) step for step.  A jump draws (1/rate) *
 * random_standard_exponential and, when it lands inside the horizon,
 * next_double * rate: what Generator.exponential(1/rate) and
 * Generator.random() compute, so both forms leave the stream in the same
 * state.
 *
 * Both sweeps seed each path's stream themselves from the path's key, with
 * numpy's SeedSequence pool mix and PCG64 seeding, and draw through a
 * local bitgen_t that steps PCG64 as numpy does; this is the only source
 * of random bits here.  The paths (and the sufficient statistics of
 * complete_sweep) come back as flat arrays.
 *
 * Each sweep is a Kernel object holding its Python body as py_func.  A
 * call this file does not take as is (another dtype or layout, a state or
 * key out of range, a keyword argument) goes to py_func unchanged, so
 * every call gives the same result whichever body runs it.  Arguments are
 * checked here, before any pointer is used.  A call holds the GIL
 * throughout.
 *
 * Build: cc -O2 -fPIC -shared -ffp-contract=off with the Python and numpy
 * include directories, linked against numpy/random/lib/libnpyrandom.a.
 * _kernels.py does this once and caches the result.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
#include <numpy/random/distributions.h>

/* The jump model: cum holds n rows of n + 1 cumulative rates (the last
   one the exit rate), total the n exit rates.  State n is absorbing. */
typedef struct {
    const double *cum;
    const double *total;
    npy_intp n;
} Model;

/* Output buffers: jump epochs and entered states, room for cap jumps. */
typedef struct {
    double *times;
    npy_int64 *states;
    npy_intp cap;
} Buffers;

/* One jump out of `state` at *t.  Returns -1 when the state has no exit
   rate or the jump would land after `horizon` (*t is left as is);
   otherwise moves *t to the jump epoch and returns the entered state.
   The destination search stops at the last column. */
static inline npy_intp
jump(bitgen_t *bg, const Model *m, npy_intp state, double *t, double horizon)
{
    const double rate = m->total[state];
    if (rate <= 0.0)
        return -1;
    const double dt = (1.0 / rate) * random_standard_exponential(bg);
    if (*t + dt > horizon)
        return -1;
    *t = *t + dt;
    const double u = bg->next_double(bg->state) * rate;
    const double *row = m->cum + state * (m->n + 1);
    npy_intp nxt = 0;
    while (nxt < m->n && row[nxt] <= u)
        nxt++;
    return nxt;
}

/* Run the chain from *state at *t, appending jumps to out after *count,
   until it is absorbed (1), makes no jump before `horizon` (2), or
   finds the buffers full before a jump (0). */
static int
run_chain(bitgen_t *bg, const Model *m, npy_intp *state, double *t, double horizon,
          const Buffers *out, npy_intp *count)
{
    for (;;) {
        if (*count == out->cap)
            return 0;
        const npy_intp nxt = jump(bg, m, *state, t, horizon);
        if (nxt < 0)
            return 2;
        out->times[*count] = *t;
        out->states[*count] = nxt;
        (*count)++;
        *state = nxt;
        if (nxt == m->n)
            return 1;
    }
}

/* One rejection attempt: the chain from x over (0, duration], its jumps
   written at epochs s1 + t from index `start` on.  Returns the state
   occupied at duration, or -1 when a jump finds the buffers full; *k is
   the number of jumps written. */
static npy_intp
bridge_attempt(bitgen_t *bg, const Model *m, npy_intp x, double s1, double duration,
               const Buffers *out, npy_intp start, npy_intp *k)
{
    npy_intp state = x;
    double t = 0.0;
    *k = 0;
    for (;;) {
        const npy_intp nxt = jump(bg, m, state, &t, duration);
        if (nxt < 0)
            return state;
        if (start + *k == out->cap)
            return -1;
        out->times[start + *k] = s1 + t;
        out->states[start + *k] = nxt;
        (*k)++;
        state = nxt;
        if (nxt == m->n)
            return state;
    }
}

/* Complete one path observed at obs_s[0..last] in obs_x[0..last], as
   complete_panel_path does: bridge each segment by rejection, then run a
   censored path on to absorption.  Returns the status (0 completed, 1
   budget exhausted, 2 buffers full, 3 dead end) and sets *info to the
   segment it ended in; on status 0, *count is the number of jumps written
   and *end the absorption epoch.  Adds the bridge attempts started to
   *attempts. */
static int
complete_path(bitgen_t *bg, const Model *m, const double *obs_s, const npy_int64 *obs_x,
              npy_intp last, npy_intp max_attempts, const Buffers *out,
              npy_intp *info, npy_intp *count, double *end, npy_intp *attempts)
{
    npy_intp k;
    *count = 0;
    for (npy_intp seg = 0; seg < last; seg++) {
        *info = seg;
        const double s1 = obs_s[seg];
        const double duration = obs_s[seg + 1] - s1;
        int accepted = 0;
        for (npy_intp a = 0; a < max_attempts && !accepted; a++) {
            (*attempts)++;
            const npy_intp state = bridge_attempt(bg, m, obs_x[seg], s1, duration, out, *count, &k);
            if (state < 0)
                return 2;
            if (state == obs_x[seg + 1]) {
                *count += k;
                accepted = 1;
            }
        }
        if (!accepted)
            return 1;
    }
    *info = last;
    if (obs_x[last] == m->n) {
        *end = out->times[*count - 1];
        return 0;
    }
    /* censored: continue unconditioned from the last observed state */
    npy_intp state = obs_x[last];
    double t = obs_s[last];
    switch (run_chain(bg, m, &state, &t, INFINITY, out, count)) {
    case 1:
        *end = t;
        return 0;
    case 2: /* no exit rate: a dead end */
        return 3;
    default: /* buffers full */
        return 2;
    }
}

/* ---- numpy's SeedSequence and PCG64, for the streams of the sweeps ---- */

#ifndef __SIZEOF_INT128__
#error "the sweeps step PCG64 in 128-bit integer arithmetic"
#endif

typedef __uint128_t u128;

/* the state of numpy's PCG64 (XSL-RR output) */
typedef struct {
    u128 state;
    u128 inc;
    int has_uint32;
    uint32_t uinteger;
} Pcg64;

#define PCG_MULTIPLIER (((u128)2549297995355413924ULL << 64) | 4865540595714422341ULL)

static inline uint64_t
pcg64_next64(void *st)
{
    Pcg64 *s = (Pcg64 *)st;
    s->state = s->state * PCG_MULTIPLIER + s->inc;
    const uint64_t x = (uint64_t)(s->state >> 64) ^ (uint64_t)s->state;
    const unsigned rot = (unsigned)(s->state >> 122);
    return (x >> rot) | (x << ((-rot) & 63));
}

static uint32_t
pcg64_next32(void *st)
{
    Pcg64 *s = (Pcg64 *)st;
    if (s->has_uint32) {
        s->has_uint32 = 0;
        return s->uinteger;
    }
    const uint64_t next = pcg64_next64(s);
    s->has_uint32 = 1;
    s->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static double
pcg64_next_double(void *st)
{
    return (double)(pcg64_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* SeedSequence's hash constants (pool of 4 words) */
#define SS_INIT_A 0x43b0d7e5u
#define SS_MULT_A 0x931e8875u
#define SS_INIT_B 0x8b51f9ddu
#define SS_MULT_B 0x58f38dedu
#define SS_MIX_MULT_L 0xca01f9ddu
#define SS_MIX_MULT_R 0x4973f715u
#define SS_POOL 4

static inline uint32_t
hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= SS_MULT_A;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static inline uint32_t
mix(uint32_t x, uint32_t y)
{
    const uint32_t result = SS_MIX_MULT_L * x - SS_MIX_MULT_R * y;
    return result ^ (result >> 16);
}

/* s = PCG64(SeedSequence(words)): the pool mix, generate_state(4, uint64)
   and PCG64's set_seed. */
static void
pcg64_seed(Pcg64 *s, const uint32_t *words, npy_intp len)
{
    uint32_t pool[SS_POOL], hash_const = SS_INIT_A;
    for (int i = 0; i < SS_POOL; i++)
        pool[i] = hashmix(i < len ? words[i] : 0, &hash_const);
    for (int src = 0; src < SS_POOL; src++)
        for (int dst = 0; dst < SS_POOL; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash_const));
    for (npy_intp src = SS_POOL; src < len; src++)
        for (int dst = 0; dst < SS_POOL; dst++)
            pool[dst] = mix(pool[dst], hashmix(words[src], &hash_const));
    uint64_t seed[4];
    hash_const = SS_INIT_B;
    for (int i = 0; i < 8; i++) {
        uint32_t v = pool[i % SS_POOL] ^ hash_const;
        hash_const *= SS_MULT_B;
        v *= hash_const;
        v ^= v >> 16;
        if (i % 2 == 0)
            seed[i / 2] = v;
        else
            seed[i / 2] |= (uint64_t)v << 32;
    }
    const u128 initstate = ((u128)seed[0] << 64) | seed[1];
    const u128 initseq = ((u128)seed[2] << 64) | seed[3];
    s->inc = (initseq << 1) | 1;
    s->state = 0;
    pcg64_next64(s);
    s->state += initstate;
    pcg64_next64(s);
    s->has_uint32 = 0;
    s->uinteger = 0;
}

/* a bitgen_t drawing from s, for numpy's distribution functions */
static bitgen_t
pcg64_bitgen(Pcg64 *s)
{
    bitgen_t bg = {s, pcg64_next64, pcg64_next32, pcg64_next_double, pcg64_next64};
    return bg;
}

/* Appends SeedSequence's words for v (little-endian 32-bit words, [0]
   for 0); returns how many. */
static npy_intp
put_words(uint32_t *out, npy_uint64 v)
{
    npy_intp i = 0;
    do {
        out[i++] = (uint32_t)v;
        v >>= 32;
    } while (v);
    return i;
}

/* ---- argument checks: each returns 0, with no error set, to decline ---- */

static int
as_index(PyObject *obj, npy_intp *out)
{
    if (!PyIndex_Check(obj))
        return 0;
    const Py_ssize_t v = PyNumber_AsSsize_t(obj, PyExc_OverflowError);
    if (v == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        return 0;
    }
    *out = v;
    return 1;
}

/* A float, numpy.float64 included: other types keep their own arithmetic. */
static int
as_double(PyObject *obj, double *out)
{
    if (!PyFloat_Check(obj))
        return 0;
    *out = PyFloat_AS_DOUBLE(obj);
    return 1;
}

/* An aligned, native-order, C-contiguous ndarray (not a subclass) of the
   given dtype and dimension. */
static PyArrayObject *
as_array(PyObject *obj, int type, int ndim)
{
    if (!PyArray_CheckExact(obj))
        return NULL;
    PyArrayObject *a = (PyArrayObject *)obj;
    if (PyArray_TYPE(a) != type || PyArray_NDIM(a) != ndim || !PyArray_ISCARRAY_RO(a)
        || !PyArray_ISNOTSWAPPED(a))
        return NULL;
    return a;
}

/* cum (n, n + 1) and total (n,) as a Model for the given n. */
static int
as_model(PyObject *cum_obj, PyObject *total_obj, PyObject *n_obj, Model *m)
{
    PyArrayObject *cum = as_array(cum_obj, NPY_FLOAT64, 2);
    PyArrayObject *total = as_array(total_obj, NPY_FLOAT64, 1);
    if (cum == NULL || total == NULL || !as_index(n_obj, &m->n) || m->n < 1
        || PyArray_DIM(cum, 0) != m->n || PyArray_DIM(cum, 1) != m->n + 1
        || PyArray_DIM(total, 0) != m->n)
        return 0;
    m->cum = (const double *)PyArray_DATA(cum);
    m->total = (const double *)PyArray_DATA(total);
    return 1;
}

/* ---- the kernels: args are those of the Python body ---- */

typedef PyObject *(*kernel_body)(PyObject *const *args);

/* Every observed state but the last is transient; a lone observation is
   too (the Python body would read times[-1]). */
static int
valid_path(const npy_int64 *obs_x, npy_intp len, npy_intp n)
{
    const npy_intp last = len - 1;
    if (last < 0 || obs_x[last] < 0 || obs_x[last] > n || (last == 0 && obs_x[0] == n))
        return 0;
    for (npy_intp i = 0; i < last; i++)
        if (obs_x[i] < 0 || obs_x[i] >= n)
            return 0;
    return 1;
}

/* Resizes a 1-d array this file owns alone. */
static int
resize(PyArrayObject *a, npy_intp size)
{
    PyArray_Dims shape = {&size, 1};
    PyObject *res = PyArray_Resize(a, &shape, 0, NPY_CORDER);
    Py_XDECREF(res);
    return res == NULL ? -1 : 0;
}

/* complete_sweep(words, iteration, replications, keys, obs_s, obs_x, starts, cum, total, n,
                  max_attempts, cap)
   -> (status, path, info, attempts, retries, stats, paths) */
static PyObject *
complete_sweep(PyObject *const *args)
{
    PyArrayObject *w_arr = as_array(args[0], NPY_UINT32, 1);
    PyArrayObject *key_arr = as_array(args[3], NPY_INT64, 1);
    PyArrayObject *s_arr = as_array(args[4], NPY_FLOAT64, 1);
    PyArrayObject *x_arr = as_array(args[5], NPY_INT64, 1);
    PyArrayObject *k_arr = as_array(args[6], NPY_INT64, 1);
    npy_intp iteration, replications, max_attempts, cap;
    Model m;
    if (w_arr == NULL || key_arr == NULL || s_arr == NULL || x_arr == NULL || k_arr == NULL
        || !as_index(args[1], &iteration) || !as_index(args[2], &replications)
        || !as_model(args[7], args[8], args[9], &m) || !as_index(args[10], &max_attempts)
        || !as_index(args[11], &cap) || iteration < 0 || replications < 1 || cap < 0
        || PyArray_DIM(x_arr, 0) != PyArray_DIM(s_arr, 0) || PyArray_DIM(k_arr, 0) < 2
        || PyArray_DIM(key_arr, 0) != PyArray_DIM(k_arr, 0) - 1)
        return NULL;
    const double *obs_s = (const double *)PyArray_DATA(s_arr);
    const npy_int64 *obs_x = (const npy_int64 *)PyArray_DATA(x_arr);
    const npy_int64 *starts = (const npy_int64 *)PyArray_DATA(k_arr);
    const npy_int64 *keys = (const npy_int64 *)PyArray_DATA(key_arr);
    const npy_intp K = PyArray_DIM(k_arr, 0) - 1;
    if (starts[0] != 0 || starts[K] != PyArray_DIM(s_arr, 0))
        return NULL;
    for (npy_intp k = 0; k < K; k++)
        if (keys[k] < 0 || starts[k + 1] <= starts[k]
            || !valid_path(obs_x + starts[k], starts[k + 1] - starts[k], m.n))
            return NULL;

    const npy_intp n = m.n, nwords = PyArray_DIM(w_arr, 0);
    npy_intp dims[2] = {n, n}, paths = replications * K + 1;
    npy_intp capacity = PyArray_DIM(s_arr, 0) * replications + cap + 1;
    PyArrayObject *b = (PyArrayObject *)PyArray_ZEROS(1, &n, NPY_INT64, 0);
    PyArrayObject *nt = (PyArrayObject *)PyArray_ZEROS(2, dims, NPY_INT64, 0);
    PyArrayObject *na = (PyArrayObject *)PyArray_ZEROS(1, &n, NPY_INT64, 0);
    PyArrayObject *r = (PyArrayObject *)PyArray_ZEROS(1, &n, NPY_FLOAT64, 0);
    PyArrayObject *bounds = (PyArrayObject *)PyArray_EMPTY(1, &paths, NPY_INT64, 0);
    PyArrayObject *times = (PyArrayObject *)PyArray_EMPTY(1, &capacity, NPY_FLOAT64, 0);
    PyArrayObject *states = (PyArrayObject *)PyArray_EMPTY(1, &capacity, NPY_INT64, 0);
    /* the stream's words, then those of (iteration, keys[k], round[, rep]) */
    uint32_t *words = PyMem_Malloc((nwords + 8) * sizeof(uint32_t));
    PyObject *result = NULL;
    if (b == NULL || nt == NULL || na == NULL || r == NULL || bounds == NULL || times == NULL
        || states == NULL || words == NULL) {
        if (words == NULL)
            PyErr_NoMemory();
        goto done;
    }
    memcpy(words, PyArray_DATA(w_arr), nwords * sizeof(uint32_t));
    const npy_intp at_k = nwords + put_words(words + nwords, (npy_uint64)iteration);
    npy_int64 *B = (npy_int64 *)PyArray_DATA(b), *N = (npy_int64 *)PyArray_DATA(nt);
    npy_int64 *NA = (npy_int64 *)PyArray_DATA(na), *bound = (npy_int64 *)PyArray_DATA(bounds);
    double *R = (double *)PyArray_DATA(r);
    npy_intp used = 0, path = 0, attempts = 0, retries = 0;
    bound[0] = 0;
    for (npy_intp rep = 0; rep < replications; rep++) {
        for (npy_intp k = 0; k < K; k++) {
            if (used + 1 + cap > capacity) {
                capacity = Py_MAX(2 * capacity, used + 1 + cap);
                if (resize(times, capacity) < 0 || resize(states, capacity) < 0)
                    goto done;
            }
            double *t = (double *)PyArray_DATA(times) + used;
            npy_int64 *x = (npy_int64 *)PyArray_DATA(states) + used;
            const Buffers out = {t + 1, x + 1, cap};
            const npy_intp a = starts[k], last = starts[k + 1] - a - 1;
            npy_intp info = 0, count = 0;
            double end;
            int status = 0;
            const npy_intp at_round = at_k + put_words(words + at_k, (npy_uint64)keys[k]);
            for (int round = 0; round < 2; round++) {
                npy_intp len = at_round + put_words(words + at_round, (npy_uint64)round);
                if (replications > 1)
                    len += put_words(words + len, (npy_uint64)rep);
                Pcg64 stream;
                pcg64_seed(&stream, words, len);
                bitgen_t bg = pcg64_bitgen(&stream);
                status = complete_path(&bg, &m, obs_s + a, obs_x + a, last, max_attempts, &out,
                                       &info, &count, &end, &attempts);
                if (status != 1 || round == 1)
                    break;
                retries++;
            }
            if (status != 0) {
                result = Py_BuildValue("(innnnOO)", status, k, info, attempts, retries,
                                       Py_None, Py_None);
                goto done;
            }
            /* the entry into the first state, then the jumps: tallied as
               accumulate_statistics does, in path order, then jump order */
            t[0] = 0.0;
            x[0] = obs_x[a];
            B[x[0]]++;
            for (npy_intp j = 1; j <= count; j++) {
                R[x[j - 1]] += t[j] - t[j - 1];
                if (x[j] < n)
                    N[x[j - 1] * n + x[j]]++;
                else
                    NA[x[j - 1]]++;
            }
            used += 1 + count;
            bound[++path] = used;
        }
    }
    if (resize(times, used) < 0 || resize(states, used) < 0)
        goto done;
    result = Py_BuildValue("(innnn(OOOO)(OOO))", 0, (npy_intp)0, (npy_intp)0, attempts, retries,
                           b, nt, na, r, times, states, bounds);
done:
    PyMem_Free(words);
    Py_XDECREF(b);
    Py_XDECREF(nt);
    Py_XDECREF(na);
    Py_XDECREF(r);
    Py_XDECREF(bounds);
    Py_XDECREF(times);
    Py_XDECREF(states);
    return result;
}

/* simulate_sweep(words, keys, cum_pi, cum, total, n, horizon)
   -> (times, states, bounds, ends) */
static PyObject *
simulate_sweep(PyObject *const *args)
{
    PyArrayObject *w_arr = as_array(args[0], NPY_UINT32, 1);
    PyArrayObject *key_arr = as_array(args[1], NPY_INT64, 1);
    PyArrayObject *pi_arr = as_array(args[2], NPY_FLOAT64, 1);
    double horizon;
    Model m;
    if (w_arr == NULL || key_arr == NULL || pi_arr == NULL
        || !as_model(args[3], args[4], args[5], &m) || !as_double(args[6], &horizon)
        || PyArray_DIM(pi_arr, 0) != m.n)
        return NULL;
    const npy_int64 *keys = (const npy_int64 *)PyArray_DATA(key_arr);
    const double *cum_pi = (const double *)PyArray_DATA(pi_arr);
    npy_intp K = PyArray_DIM(key_arr, 0);
    for (npy_intp k = 0; k < K; k++)
        if (keys[k] < 0)
            return NULL;

    const npy_intp nwords = PyArray_DIM(w_arr, 0);
    npy_intp paths = K + 1, capacity = 4 * K + 64;
    PyArrayObject *bounds = (PyArrayObject *)PyArray_EMPTY(1, &paths, NPY_INT64, 0);
    PyArrayObject *ends = (PyArrayObject *)PyArray_EMPTY(1, &K, NPY_FLOAT64, 0);
    PyArrayObject *times = (PyArrayObject *)PyArray_EMPTY(1, &capacity, NPY_FLOAT64, 0);
    PyArrayObject *states = (PyArrayObject *)PyArray_EMPTY(1, &capacity, NPY_INT64, 0);
    /* the stream's words, then those of keys[k] */
    uint32_t *words = PyMem_Malloc((nwords + 2) * sizeof(uint32_t));
    PyObject *result = NULL;
    if (bounds == NULL || ends == NULL || times == NULL || states == NULL || words == NULL) {
        if (words == NULL)
            PyErr_NoMemory();
        goto done;
    }
    memcpy(words, PyArray_DATA(w_arr), nwords * sizeof(uint32_t));
    npy_int64 *bound = (npy_int64 *)PyArray_DATA(bounds);
    double *end = (double *)PyArray_DATA(ends);
    npy_intp used = 0;
    bound[0] = 0;
    for (npy_intp k = 0; k < K; k++) {
        Pcg64 stream;
        pcg64_seed(&stream, words, nwords + put_words(words + nwords, (npy_uint64)keys[k]));
        bitgen_t bg = pcg64_bitgen(&stream);
        /* the initial state: how many cum_pi entries are <= u, at most n - 1 */
        const double u = bg.next_double(bg.state);
        npy_intp first = 0;
        while (first < m.n - 1 && cum_pi[first] <= u)
            first++;
        npy_intp state = first, count = 0;
        double t = 0.0;
        int status;
        for (;;) {
            if (used + 1 + count >= capacity) {
                capacity *= 2;
                if (resize(times, capacity) < 0 || resize(states, capacity) < 0)
                    goto done;
            }
            const Buffers out = {(double *)PyArray_DATA(times) + used + 1,
                                 (npy_int64 *)PyArray_DATA(states) + used + 1,
                                 capacity - used - 1};
            status = run_chain(&bg, &m, &state, &t, horizon, &out, &count);
            if (status != 0)
                break;
        }
        ((double *)PyArray_DATA(times))[used] = 0.0;
        ((npy_int64 *)PyArray_DATA(states))[used] = first;
        used += 1 + count;
        bound[k + 1] = used;
        end[k] = status == 1 ? t : horizon;
    }
    if (resize(times, used) < 0 || resize(states, used) < 0)
        goto done;
    result = Py_BuildValue("(OOOO)", times, states, bounds, ends);
done:
    PyMem_Free(words);
    Py_XDECREF(bounds);
    Py_XDECREF(ends);
    Py_XDECREF(times);
    Py_XDECREF(states);
    return result;
}

static const struct {
    const char *name;
    kernel_body body;
    Py_ssize_t nargs;
} BODIES[] = {
    {"complete_sweep", complete_sweep, 12},
    {"simulate_sweep", simulate_sweep, 7},
};

/* ---- the Kernel type ---- */

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    kernel_body body;
    Py_ssize_t nargs;
    PyObject *py_func;
    PyObject *dict;
} Kernel;

static PyObject *
Kernel_vectorcall(PyObject *self, PyObject *const *args, size_t nargsf, PyObject *kwnames)
{
    Kernel *kernel = (Kernel *)self;
    const Py_ssize_t nargs = PyVectorcall_NARGS(nargsf);
    if (kwnames == NULL && nargs == kernel->nargs) {
        PyObject *result = kernel->body(args);
        if (result != NULL || PyErr_Occurred())
            return result;
    }
    return PyObject_Vectorcall(kernel->py_func, args, nargsf, kwnames);
}

static int
Kernel_traverse(Kernel *self, visitproc visit, void *arg)
{
    Py_VISIT(self->py_func);
    Py_VISIT(self->dict);
    return 0;
}

static int
Kernel_clear(Kernel *self)
{
    Py_CLEAR(self->py_func);
    Py_CLEAR(self->dict);
    return 0;
}

static void
Kernel_dealloc(Kernel *self)
{
    PyObject_GC_UnTrack(self);
    Kernel_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMemberDef Kernel_members[] = {
    {"py_func", T_OBJECT_EX, offsetof(Kernel, py_func), READONLY,
     "The Python body, which runs the calls the compiled one declines."},
    {NULL},
};

static PyGetSetDef Kernel_getset[] = {
    {"__dict__", PyObject_GenericGetDict, PyObject_GenericSetDict, NULL, NULL},
    {NULL},
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "iphfit._ckernels.Kernel",
    .tp_doc = "A compiled sweep; py_func is its Python body.",
    .tp_basicsize = sizeof(Kernel),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_vectorcall_offset = offsetof(Kernel, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_dictoffset = offsetof(Kernel, dict),
    .tp_traverse = (traverseproc)Kernel_traverse,
    .tp_clear = (inquiry)Kernel_clear,
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_members = Kernel_members,
    .tp_getset = Kernel_getset,
};

/* kernel(name, py_func): the compiled body called `name`, falling back to py_func. */
static PyObject *
make_kernel(PyObject *Py_UNUSED(module), PyObject *args)
{
    const char *name;
    PyObject *py_func;
    if (!PyArg_ParseTuple(args, "sO:kernel", &name, &py_func))
        return NULL;
    for (size_t i = 0; i < sizeof(BODIES) / sizeof(BODIES[0]); i++) {
        if (strcmp(BODIES[i].name, name) != 0)
            continue;
        Kernel *self = PyObject_GC_New(Kernel, &KernelType);
        if (self == NULL)
            return NULL;
        self->vectorcall = Kernel_vectorcall;
        self->body = BODIES[i].body;
        self->nargs = BODIES[i].nargs;
        Py_INCREF(py_func);
        self->py_func = py_func;
        self->dict = NULL;
        PyObject_GC_Track(self);
        return (PyObject *)self;
    }
    return PyErr_Format(PyExc_ValueError, "no compiled kernel named %s", name);
}

static PyObject *
u128_to_long(u128 v)
{
    PyObject *hi = PyLong_FromUnsignedLongLong((unsigned long long)(v >> 64));
    PyObject *lo = PyLong_FromUnsignedLongLong((unsigned long long)v);
    PyObject *shift = PyLong_FromLong(64);
    PyObject *high = hi && shift ? PyNumber_Lshift(hi, shift) : NULL;
    PyObject *out = high && lo ? PyNumber_Or(high, lo) : NULL;
    Py_XDECREF(hi);
    Py_XDECREF(lo);
    Py_XDECREF(shift);
    Py_XDECREF(high);
    return out;
}

/* stream_draws(words, count): count draws each of next_uint64, next_uint32,
   random_standard_exponential and next_double, in that order, from the
   stream the sweeps seed with the uint32 array words, and the final
   (state, inc, has_uint32, uinteger). */
static PyObject *
stream_draws(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *w_obj;
    Py_ssize_t count;
    if (!PyArg_ParseTuple(args, "On:stream_draws", &w_obj, &count))
        return NULL;
    PyArrayObject *w_arr = as_array(w_obj, NPY_UINT32, 1);
    if (w_arr == NULL || count < 0)
        return PyErr_Format(PyExc_ValueError, "need a uint32 vector and a count >= 0");
    Pcg64 stream;
    pcg64_seed(&stream, (const uint32_t *)PyArray_DATA(w_arr), PyArray_DIM(w_arr, 0));
    bitgen_t bg = pcg64_bitgen(&stream);
    npy_intp dims[1] = {count};
    PyArrayObject *raw = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_UINT64, 0);
    PyArrayObject *u32 = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_UINT32, 0);
    PyArrayObject *exp = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_FLOAT64, 0);
    PyArrayObject *dbl = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_FLOAT64, 0);
    PyObject *result = NULL;
    if (raw != NULL && u32 != NULL && exp != NULL && dbl != NULL) {
        for (Py_ssize_t i = 0; i < count; i++)
            ((npy_uint64 *)PyArray_DATA(raw))[i] = bg.next_uint64(bg.state);
        for (Py_ssize_t i = 0; i < count; i++)
            ((npy_uint32 *)PyArray_DATA(u32))[i] = bg.next_uint32(bg.state);
        for (Py_ssize_t i = 0; i < count; i++)
            ((double *)PyArray_DATA(exp))[i] = random_standard_exponential(&bg);
        for (Py_ssize_t i = 0; i < count; i++)
            ((double *)PyArray_DATA(dbl))[i] = bg.next_double(bg.state);
        result = Py_BuildValue("(OOOO(NNik))", raw, u32, exp, dbl, u128_to_long(stream.state),
                               u128_to_long(stream.inc), stream.has_uint32,
                               (unsigned long)stream.uinteger);
    }
    Py_XDECREF(raw);
    Py_XDECREF(u32);
    Py_XDECREF(exp);
    Py_XDECREF(dbl);
    return result;
}

static PyMethodDef module_methods[] = {
    {"kernel", make_kernel, METH_VARARGS,
     "kernel(name, py_func): the compiled kernel `name`, with py_func as its Python body."},
    {"stream_draws", stream_draws, METH_VARARGS,
     "stream_draws(words, count): draws from the sweeps' stream for these entropy words."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_ckernels",
    .m_doc = "The compiled sweeps.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__ckernels(void)
{
    import_array();
    if (PyType_Ready(&KernelType) < 0)
        return NULL;
    return PyModule_Create(&module_def);
}
