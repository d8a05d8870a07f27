/*
 * The two sweeps of _kernels.py, compiled.
 *
 * complete_sweep completes every path of a panel; the estimator calls it
 * for each SE-step and for the final-segment bridges of initialization.
 * It draws each segment exactly from its endpoint-conditioned law by
 * uniformization (bridge), computing the normalizer of the segment's
 * bridge group (series) at the first segment that needs it, and runs a
 * censored path on to absorption (run_chain).  simulate_sweep draws each
 * path's initial state (one next_double) and runs run_chain to the
 * horizon; the studies and the CLI call it for a simulated cohort and for
 * each goodness-of-fit sample.
 * The helpers below mirror those of _kernels.py (_jump, _run_chain,
 * _Chain.power, _Chain.steps, _series, _draw_count, _bridge,
 * _complete_path) step for step, and compute each float with the same
 * operations in the same order, so both give the same bits.  A forward
 * jump draws (1/rate) * random_standard_exponential and, when it lands
 * inside the horizon, next_double * rate: what Generator.exponential(1/rate)
 * and Generator.random() compute, so both forms leave the stream in the
 * same state.  A bridge draws only uniforms, inline, with the bits of
 * next_double.
 *
 * Both sweeps seed each path's stream themselves from the path's key, with
 * numpy's SeedSequence pool mix and PCG64 seeding, and draw through a
 * local PCG64 that steps as numpy's does; this is the only source of
 * random bits here.  The paths (and the sufficient statistics of
 * complete_sweep) come back as flat arrays.
 *
 * Each sweep is a module function taking its Python body's positional
 * arguments, and _kernels.build runs every call of the sweep here.  The
 * arguments are checked before any pointer is used or memory allocated:
 * another argument count, dtype, layout or sign raises TypeError, a state,
 * group or offset out of range ValueError, and a negative stream key the
 * Python body's ValueError.  simulate_sweep holds the GIL throughout.
 *
 * complete_sweep releases the GIL and completes its paths on up to
 * min(usable CPUs, MAX_WORKERS, K / MIN_PATHS) workers, the caller one of
 * them, in blocks of BLOCK paths that each worker takes from a shared
 * counter as it frees up, so each worker goes through its blocks in path
 * order.  Every path draws from its own stream, so no draw depends on
 * which worker makes it, and the rules below make every output byte and
 * counter those of one worker going through the paths in order:
 *  - Each worker keeps the normalizers it computed in one Store of its
 *    own, which no other worker reads.  A group's normalizer is a fixed
 *    function of its gap and endpoints, and so is a bridge's draw given
 *    it; an x-to-x segment with mu delta < 1 whose worker has not computed
 *    its normalizer draws R = 0 when u exp(mu delta) < 1, as it would with
 *    the normalizer.
 *  - The first failing path in path order wins: a block past a failed one
 *    is skipped, and a worker that fails takes no earlier block after.  A
 *    failed sweep returns that path's status and segment alone.
 *  - The join, after every thread has ended: the blocks are copied end
 *    to end in path order into new arrays; then every path's statistics
 *    are summed there, in path order, then jump order; each group's
 *    series counts once, however many workers computed it (count_series).
 * Workers allocate with malloc and realloc alone and call no Python API.
 * A sweep's segments of one group must share their gap and endpoint
 * states, as the estimator's do: then every worker computes the same
 * normalizer for a group.
 *
 * Build: cc -O2 -fPIC -shared -pthread -ffp-contract=off with the Python
 * and numpy include directories, linked against
 * numpy/random/lib/libnpyrandom.a.  _kernels.py does this once and caches
 * the result.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

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
   finds the buffers full before a jump (0).  A state without exit rate
   draws nothing and ends with 2 however full the buffers are. */
static int
run_chain(bitgen_t *bg, const Model *m, npy_intp *state, double *t, double horizon,
          const Buffers *out, npy_intp *count)
{
    for (;;) {
        if (*count == out->cap && m->total[*state] > 0.0)
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

/* ---- bridges by uniformization ---- */

/* relative truncation error of a normalizer series */
#define SERIES_TOL 0x1p-53

/* The uniformized chain of one sweep: P = I + G / mu over the n1 = n + 1
   states, the absorbing row the identity, its powers P^0 .. P^(rows - 1),
   n1 x n1 each, and its step table for k < step_rows, both computed on
   demand. */
typedef struct {
    const double *p;
    npy_intp n1;
    double *pow;
    npy_intp rows, room;
    double *steps;
    npy_intp step_rows;
} Chain;

/* Makes P^r available: P^(j+1)[i][c] sums P^j[i][k] P[k][c] over k in
   ascending order.  -1 on a failed allocation. */
static int
chain_grow(Chain *c, npy_intp r)
{
    const npy_intp n1 = c->n1, size = n1 * n1;
    if (r >= c->room) {
        const npy_intp room = Py_MAX(2 * c->room, r + 1);
        double *pow = realloc(c->pow, room * size * sizeof(double));
        if (pow == NULL)
            return -1;
        c->pow = pow;
        c->room = room;
    }
    for (; c->rows <= r; c->rows++) {
        const double *prev = c->pow + (c->rows - 1) * size;
        double *next = c->pow + c->rows * size;
        for (npy_intp i = 0; i < n1; i++)
            for (npy_intp col = 0; col < n1; col++) {
                double s = prev[i * n1] * c->p[col];
                for (npy_intp k = 1; k < n1; k++)
                    s = s + prev[i * n1 + k] * c->p[k * n1 + col];
                next[i * n1 + col] = s;
            }
    }
    return 0;
}

static inline int
chain_power(Chain *c, npy_intp r)
{
    return r < c->rows ? 0 : chain_grow(c, r);
}

/* (P^r)_xy */
#define POW(c, r, x, y) ((c)->pow[((r) * (c)->n1 + (x)) * (c)->n1 + (y)])

/* Extends the step table to k < rows, as _Chain.steps: steps[((k n1 + y)
   n1 + z) n1 + c] is the running sum over c' <= c of P[z][c'] (P^k)[c'][y].
   A row is a fixed function of P, so growing the table changes no bit.
   -1 on a failed allocation. */
static int
chain_steps(Chain *c, npy_intp rows)
{
    const npy_intp n1 = c->n1, size = n1 * n1 * n1;
    if (rows <= c->step_rows)
        return 0;
    if (chain_power(c, rows - 1) < 0)
        return -1;
    double *steps = realloc(c->steps, rows * size * sizeof(double));
    if (steps == NULL)
        return -1;
    c->steps = steps;
    double *out = steps + c->step_rows * size;
    for (npy_intp k = c->step_rows; k < rows; k++)
        for (npy_intp y = 0; y < n1; y++)
            for (npy_intp z = 0; z < n1; z++) {
                double acc = c->p[z * n1] * POW(c, k, 0, y);
                *out++ = acc;
                for (npy_intp col = 1; col < n1; col++) {
                    acc = acc + c->p[z * n1 + col] * POW(c, k, col, y);
                    *out++ = acc;
                }
            }
    c->step_rows = rows;
    return 0;
}

/* The normalizer of one bridge group, as _series' norm: the mode m, the
   bounds of the walk and where its running totals start in its Sums; and
   the group. */
typedef struct {
    double total;
    npy_intp m, lo, hi, at, group;
} Norm;

/* The running totals of normalizer series, end to end. */
typedef struct {
    double *v;
    npy_intp used, room;
} Sums;

/* Makes room for more running totals; -1 on a failed allocation. */
static int
grow(Sums *s, npy_intp more)
{
    const npy_intp room = Py_MAX(2 * s->room, s->used + more + 1024);
    double *v = realloc(s->v, room * sizeof(double));
    if (v == NULL)
        return -1;
    s->v = v;
    s->room = room;
    return 0;
}

static inline int
push(Sums *s, double total)
{
    if (s->used == s->room && grow(s, 1) < 0)
        return -1;
    s->v[s->used++] = total;
    return 0;
}

/* The normalizer of a bridge from x to y over a gap with mu * delta = q,
   as _series: the terms w_r (P^r)_xy walked from the mode m = floor(q)
   with w_m = 1, down while the Poisson mass below could exceed SERIES_TOL
   times the running total, then up likewise, each running total appended
   to sums.  Returns 0, 4 when the walk would pass vcap virtual jumps, or
   -1 on a failed allocation. */
static int
series(Chain *c, Sums *sums, double q, npy_intp x, npy_intp y, npy_intp vcap, Norm *out)
{
    if (!(q <= (double)vcap)) /* nan and inf too */
        return 4;
    const npy_intp m = (npy_intp)q, at = sums->used;
    if (chain_power(c, m) < 0)
        return -1;
    double w = 1.0, total = w * POW(c, m, x, y);
    if (push(sums, total) < 0)
        return -1;
    npy_intp r = m;
    if (r > 0) {
        const double down = 1.0 / q;
        while (r > 0 && w * (double)r > SERIES_TOL * total * (q - (double)r + 1.0)) {
            w = w * ((double)r * down);
            r--;
            total = total + w * POW(c, r, x, y);
            if (push(sums, total) < 0)
                return -1;
        }
    }
    out->lo = r;
    w = 1.0;
    r = m;
    for (;;) {
        const double next = w * (q * (1.0 / (double)(r + 1)));
        if (!(next * ((double)r + 2.0) > SERIES_TOL * total * ((double)r + 2.0 - q)))
            break;
        if (r == vcap) {
            sums->used = at;
            return 4;
        }
        r++;
        if (chain_power(c, r) < 0)
            return -1;
        w = next;
        total = total + w * POW(c, r, x, y);
        if (push(sums, total) < 0)
            return -1;
    }
    out->m = m;
    out->hi = r;
    out->at = at;
    out->total = total;
    return 0;
}

/* The virtual-jump count, as _draw_count: the r of the first of the
   running totals s above target, or of the last place the total grows if
   rounding leaves none. */
static npy_intp
draw_count(const double *s, const Norm *g, double target)
{
    const npy_intp len = g->hi - g->lo + 1, down = g->m - g->lo;
    npy_intp j = 0;
    while (j < len && !(s[j] > target))
        j++;
    if (j == len)
        for (j = len - 1; j > 0 && !(s[j] > s[j - 1]); j--)
            ;
    return j <= down ? g->m - j : j + g->lo;
}

/* Puts the values of the ascending ranks ranks[0] < ... < ranks[nr - 1]
   of v[lo..hi) in those places, as sorting v[lo..hi) would.  On 2,000
   paths bridged 0 -> 1 -> 2 under the Gompertz Lambda at mu delta = 162 (2
   CPUs), a full sort made a sweep 18% slower (qsort above 16 values), a
   Shell sort 7%. */
static void
select_ranks(double *v, npy_intp lo, npy_intp hi, const npy_intp *ranks, npy_intp nr)
{
    while (nr > 0) {
        if (hi - lo <= 16) {
            for (npy_intp i = lo + 1; i < hi; i++) {
                const double t = v[i];
                npy_intp j = i;
                for (; j > lo && v[j - 1] > t; j--)
                    v[j] = v[j - 1];
                v[j] = t;
            }
            return;
        }
        /* the median of three as pivot, then [lo, lt) < pivot, [lt, gt) ==
           pivot and [gt, hi) > pivot */
        const double a = v[lo], b = v[lo + (hi - lo) / 2], c = v[hi - 1];
        const double pivot = a < b ? (b < c ? b : (a < c ? c : a)) : (a < c ? a : (b < c ? c : b));
        npy_intp lt = lo, i = lo, gt = hi;
        while (i < gt) {
            const double t = v[i];
            if (t < pivot) {
                v[i++] = v[lt];
                v[lt++] = t;
            } else if (t > pivot) {
                v[i] = v[--gt];
                v[gt] = t;
            } else {
                i++;
            }
        }
        npy_intp left = 0, done = 0;
        while (left < nr && ranks[left] < lt)
            left++;
        for (done = left; done < nr && ranks[done] < gt; done++)
            ;
        select_ranks(v, lo, lt, ranks, left);
        ranks += done;
        nr -= done;
        lo = gt;
    }
}

/* Draws the bridge from x at s1 to y at s2 as _bridge does, R from the
   uniform u and the normalizer g with its running totals at totals, and
   appends its kept jumps to out after *count.  v has room for R uniforms,
   and jumps (for the kept jumps' indices, states and epoch ranks) for
   3 R.  Returns 0, 2 when the buffers are full before a kept jump, or 5
   when the floats run out; adds the virtual-jump count R to *virtual. */
static int
bridge(Pcg64 *st, const Chain *c, const double *totals, npy_intp n, double s1, double s2,
       npy_intp x, npy_intp y, const Norm *g, double u, double *v, npy_intp *jumps,
       const Buffers *out, npy_intp *count, npy_intp *virtual)
{
    const double delta = s2 - s1;
    const npy_intp R = draw_count(totals, g, u * g->total);
    const npy_intp n1 = c->n1;
    *virtual += R;
    if (R == 0)
        return 0;
    for (npy_intp i = 0; i < R; i++)
        v[i] = pcg64_next_double(st);
    npy_intp *index = jumps, *state = jumps + R, *rank = jumps + 2 * R, kept = 0, z = x;
    for (npy_intp i = 1; i <= R && z != n; i++) {
        npy_intp nxt;
        if (i == R) {
            nxt = y;
        } else {
            const double *sums = c->steps + (((R - i) * n1 + y) * n1 + z) * n1;
            const double target = pcg64_next_double(st) * sums[n];
            for (nxt = 0; nxt < n1 && !(sums[nxt] > target); nxt++)
                ;
            if (nxt == n1) { /* rounding: the last c at which the sum grows */
                for (nxt = n; nxt >= 0 && !(sums[nxt] > (nxt ? sums[nxt - 1] : 0.0)); nxt--)
                    ;
                if (nxt < 0)
                    return 5;
            }
        }
        if (nxt != z) {
            index[kept] = i;
            state[kept++] = nxt;
        }
        z = nxt;
    }
    /* jump i falls at the i-th largest uniform: ascending rank R - i */
    for (npy_intp j = 0; j < kept; j++)
        rank[j] = R - index[kept - 1 - j];
    select_ranks(v, 0, R, rank, kept);
    double prev = s1;
    for (npy_intp j = 0; j < kept; j++) {
        if (*count == out->cap)
            return 2;
        double t = s2 - delta * v[R - index[j]];
        if (!(t > prev)) {
            t = nextafter(prev, INFINITY);
            if (t > s2)
                return 5;
        }
        out->times[*count] = t;
        out->states[*count] = state[j];
        (*count)++;
        prev = t;
    }
    return 0;
}

/* ---- argument checks: each returns 0 (or NULL), with no error set, to refuse ---- */

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

/* ---- the sweeps: args are those of the Python body ---- */

/* the messages of a refused call: a TypeError, a ValueError, and the
   Python body's ValueError */
#define BAD_CALL "the sweep does not take this argument count, type, dtype, layout or sign"
#define OUT_OF_RANGE "an observed state, bridge group or path offset is out of range"
#define NEGATIVE_KEY "stream keys must be non-negative"

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

/* ---- the SE-step sweep, on one or more workers ---- */

/* paths per block; at most MAX_WORKERS workers, one per MIN_PATHS paths */
#define BLOCK 32
#define MAX_WORKERS 8
#define MIN_PATHS 64

typedef struct Sweep Sweep;

/* The normalizers one worker computed: norm[0..used) in that order (room
   for one per group), their running totals in sums, and slot[g] = 1 + the
   index of group g's, 0 while it has none. */
typedef struct {
    uint32_t *slot;
    Norm *norm;
    npy_intp used;
    Sums sums;
} Store;

/* One worker: its chain, its normalizers, its stream words and bridge
   scratch (v and jumps, room for step_rows virtual jumps), and the paths
   it completed, end to end in times and states. */
typedef struct {
    Sweep *s;
    Chain chain;
    Store store;
    npy_intp used, room;
    uint32_t *words;
    double *v, *times;
    npy_intp *jumps;
    npy_int64 *states;
} __attribute__((aligned(64))) Worker;

/* A block of paths: how completing it ended (status, path and info at the
   first failing path), the virtual jumps its paths drew and where they lie
   in its worker's buffers. */
typedef struct {
    int status;
    npy_intp path, info, virtual, lo, hi;
    Worker *w;
} Block;

/* One call: its arguments, its output statistics and bounds, and what the
   workers share.  next, stop and error change atomically; stop is the
   first failing block, nblocks while none has failed. */
struct Sweep {
    const double *obs_s, *p;
    const npy_int64 *obs_x, *starts, *keys, *groups;
    const uint32_t *words;
    Model m;
    double mu;
    npy_intp vcap, cap, K, n_groups, at_k, room, nblocks, nworkers;
    npy_int64 *B, *N, *NA, *bound;
    double *R;
    Block *blocks;
    Worker *workers;
    npy_intp next, stop, error;
};

#define LOAD(p) __atomic_load_n(p, __ATOMIC_SEQ_CST)
#define TAKE(p) __atomic_fetch_add(p, 1, __ATOMIC_SEQ_CST)

/* The norm of group g in st, NULL if it has none (or st was never set
   up: its worker's thread did not start). */
static inline Norm *
find(const Store *st, npy_intp g)
{
    return st->slot != NULL && st->slot[g] != 0 ? st->norm + st->slot[g] - 1 : NULL;
}

/* A new norm in st for group g. */
static Norm *
add(Store *st, npy_intp g)
{
    Norm *out = st->norm + st->used++;
    out->group = g;
    st->slot[g] = (uint32_t)st->used;
    return out;
}

/* Lowers *stop to b unless it is lower already. */
static void
stop_at(npy_intp *stop, npy_intp b)
{
    npy_intp now = LOAD(stop);
    while (b < now
           && !__atomic_compare_exchange_n(stop, &now, b, 0, __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST))
        ;
}

/* The worker's chain (P^0 only), stream words, empty store and path
   buffers, allocated by its own thread: what a thread frees stays in its
   own malloc arena, for the next sweep's thread to use.  -1 on a failed
   allocation. */
static int
start(Worker *w)
{
    const Sweep *s = w->s;
    const npy_intp n1 = s->m.n + 1, n_groups = Py_MAX(s->n_groups, 1);
    w->chain = (Chain){s->p, n1, malloc(16 * n1 * n1 * sizeof(double)), 1, 16, NULL, 0};
    w->words = malloc((s->at_k + 2) * sizeof(uint32_t));
    w->store.slot = calloc(n_groups, sizeof(uint32_t));
    w->store.norm = malloc(n_groups * sizeof(Norm));
    w->room = s->room;
    w->times = malloc(w->room * sizeof(double));
    w->states = malloc(w->room * sizeof(npy_int64));
    if (w->chain.pow == NULL || w->words == NULL || w->store.slot == NULL
        || w->store.norm == NULL || w->times == NULL || w->states == NULL
        || grow(&w->store.sums, 0) < 0)
        return -1;
    for (npy_intp i = 0; i < n1 * n1; i++)
        w->chain.pow[i] = i % (n1 + 1) == 0 ? 1.0 : 0.0;
    memcpy(w->words, s->words, s->at_k * sizeof(uint32_t));
    return 0;
}

/* The step table and bridge scratch for bridges of up to hi virtual
   jumps; -1 on a failed allocation. */
static int
reach(Worker *w, npy_intp hi)
{
    if (hi <= w->chain.step_rows)
        return 0;
    double *v = realloc(w->v, hi * sizeof(double));
    if (v != NULL)
        w->v = v;
    npy_intp *jumps = realloc(w->jumps, 3 * hi * sizeof(npy_intp));
    if (jumps != NULL)
        w->jumps = jumps;
    if (v == NULL || jumps == NULL)
        return -1;
    return chain_steps(&w->chain, hi);
}

/* Completes path k, as _complete_path, into the worker's buffers after
   its first entry at w->times[w->used]: bridge each segment, then run a
   censored path on to absorption.  A segment whose group has no
   normalizer in the worker's store yet fails with 4 if q = mu delta
   passes vcap, takes R = 0 if it goes from x to x with q < 1 and u exp(q)
   < 1, and otherwise has its series computed there (a zero total fails
   with 1).  Returns the status (0 completed, 1 an impossible pair, 2
   buffers full, 3 dead end, 4 past vcap, 5 out of floats, -1 on a failed
   allocation) and sets *info to the segment it ended in and *count to the
   jumps written.  Adds the virtual jumps drawn to *virtual. */
static int
complete_path(Worker *w, npy_intp k, npy_intp *info, npy_intp *count, npy_intp *virtual)
{
    const Sweep *s = w->s;
    const npy_intp a = s->starts[k], last = s->starts[k + 1] - a - 1;
    const double *obs_s = s->obs_s + a;
    const npy_int64 *obs_x = s->obs_x + a, *groups = s->groups + a;
    const Buffers out = {w->times + w->used + 1, w->states + w->used + 1, s->cap};
    Store *store = &w->store;
    Pcg64 st;
    pcg64_seed(&st, w->words, s->at_k + put_words(w->words + s->at_k, (npy_uint64)s->keys[k]));
    *count = 0;
    for (npy_intp seg = 0; seg < last; seg++) {
        const double s1 = obs_s[seg], s2 = obs_s[seg + 1], u = pcg64_next_double(&st);
        const npy_intp x = obs_x[seg], y = obs_x[seg + 1];
        Norm *g = find(store, groups[seg]);
        *info = seg;
        if (g == NULL) {
            const double q = s->mu * (s2 - s1);
            if (!(q <= (double)s->vcap)) /* nan and inf too */
                return 4;
            if (x == y && q < 1.0 && u * exp(q) < 1.0)
                continue;
            g = add(store, groups[seg]);
            const int status = series(&w->chain, &store->sums, q, x, y, s->vcap, g);
            if (status != 0)
                return status;
            if (!(g->total > 0.0))
                return 1;
            if (reach(w, g->hi) < 0)
                return -1;
        }
        const int status = bridge(&st, &w->chain, store->sums.v + g->at, s->m.n, s1, s2, x, y,
                                  g, u, w->v, w->jumps, &out, count, virtual);
        if (status != 0)
            return status;
    }
    *info = last;
    if (obs_x[last] == s->m.n)
        return 0;
    /* censored: continue unconditioned from the last observed state */
    bitgen_t bg = pcg64_bitgen(&st);
    npy_intp state = obs_x[last];
    double t = obs_s[last];
    switch (run_chain(&bg, &s->m, &state, &t, INFINITY, &out, count)) {
    case 1:
        return 0;
    case 2: /* no exit rate: a dead end */
        return 3;
    default: /* buffers full */
        return 2;
    }
}

/* Adds the path at t[0..count] in the states x[0..count] to the
   statistics, as accumulate_statistics does: its entry into its first
   state, then its jumps in order. */
static void
tally(const Sweep *s, const double *t, const npy_int64 *x, npy_intp count)
{
    const npy_intp n = s->m.n;
    s->B[x[0]]++;
    for (npy_intp j = 1; j <= count; j++) {
        s->R[x[j - 1]] += t[j] - t[j - 1];
        if (x[j] < n)
            s->N[x[j - 1] * n + x[j]]++;
        else
            s->NA[x[j - 1]]++;
    }
}

/* Gives the worker's path buffers room for room entries; -1 on a failed
   allocation. */
static int
widen(Worker *w, npy_intp room)
{
    double *times = realloc(w->times, room * sizeof(double));
    if (times != NULL)
        w->times = times;
    npy_int64 *states = realloc(w->states, room * sizeof(npy_int64));
    if (states != NULL)
        w->states = states;
    if (times == NULL || states == NULL)
        return -1;
    w->room = room;
    return 0;
}

/* Completes the paths of block b in order into the worker's buffers, up
   to the first that fails. */
static void
complete_block(Worker *w, npy_intp b)
{
    Sweep *s = w->s;
    Block *blk = s->blocks + b;
    npy_intp virtual = 0;
    blk->w = w;
    blk->lo = w->used;
    for (npy_intp k = b * BLOCK; k < Py_MIN(s->K, (b + 1) * BLOCK); k++) {
        if (w->used + 1 + s->cap > w->room
            && widen(w, Py_MAX(2 * w->room, w->used + 1 + s->cap)) < 0) {
            __atomic_store_n(&s->error, 1, __ATOMIC_SEQ_CST);
            return;
        }
        npy_intp count, info = 0;
        const int status = complete_path(w, k, &info, &count, &virtual);
        if (status < 0) {
            __atomic_store_n(&s->error, 1, __ATOMIC_SEQ_CST);
            return;
        }
        if (status != 0) {
            blk->status = status;
            blk->path = k;
            blk->info = info;
            stop_at(&s->stop, b);
            break;
        }
        w->times[w->used] = 0.0;
        w->states[w->used] = s->obs_x[s->starts[k]];
        w->used += 1 + count;
        s->bound[k + 1] = w->used;
    }
    blk->virtual = virtual;
    blk->hi = w->used;
}

/* One worker's part of the sweep: blocks while any are left, skipping
   those past a failed one. */
static void
work(Worker *w)
{
    Sweep *s = w->s;
    if (start(w) < 0)
        __atomic_store_n(&s->error, 1, __ATOMIC_SEQ_CST);
    for (npy_intp b; (b = TAKE(&s->next)) < s->nblocks;)
        if (b < LOAD(&s->stop) && !LOAD(&s->error))
            complete_block(w, b);
}

static void *
work_thread(void *w)
{
    work(w);
    return NULL;
}

/* How many series a sequential sweep computes: each group a worker
   computed counts once, at the first worker that computed it. */
static npy_intp
count_series(const Sweep *s)
{
    npy_intp count = 0;
    for (const Worker *w = s->workers; w < s->workers + s->nworkers; w++)
        for (const Norm *g = w->store.norm; g < w->store.norm + w->store.used; g++) {
            const Worker *o = s->workers;
            while (o < w && find(&o->store, g->group) == NULL)
                o++;
            count += o == w;
        }
    return count;
}

/* The CPUs the calling thread may run on. */
static npy_intp
usable_cpus(void)
{
#ifdef CPU_COUNT
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return CPU_COUNT(&set);
#endif
    const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
    return cpus > 0 ? cpus : 1;
}

/* The paths of a sweep that did not fail, in *times and *states: the
   blocks copied end to end in path order into new arrays, s->bound made
   global and the statistics summed over them in path order.  -1 with an
   error set if that fails. */
static int
join_paths(Sweep *s, PyObject **times, PyObject **states)
{
    npy_intp used = 0;
    for (npy_intp b = 0; b < s->nblocks; b++)
        used += s->blocks[b].hi - s->blocks[b].lo;
    *times = PyArray_EMPTY(1, &used, NPY_FLOAT64, 0);
    *states = PyArray_EMPTY(1, &used, NPY_INT64, 0);
    if (*times == NULL || *states == NULL)
        return -1;
    double *t = (double *)PyArray_DATA((PyArrayObject *)*times);
    npy_int64 *x = (npy_int64 *)PyArray_DATA((PyArrayObject *)*states);
    for (npy_intp b = 0, at = 0; b < s->nblocks; b++) {
        const Block *blk = s->blocks + b;
        memcpy(t + at, blk->w->times + blk->lo, (blk->hi - blk->lo) * sizeof(double));
        memcpy(x + at, blk->w->states + blk->lo, (blk->hi - blk->lo) * sizeof(npy_int64));
        for (npy_intp k = b * BLOCK; k < Py_MIN(s->K, (b + 1) * BLOCK); k++)
            s->bound[k + 1] += at - blk->lo;
        at += blk->hi - blk->lo;
    }
    for (npy_intp k = 0; k < s->K; k++)
        tally(s, t + s->bound[k], x + s->bound[k], s->bound[k + 1] - s->bound[k] - 1);
    return 0;
}

/* complete_sweep(words, iteration, keys, obs_s, obs_x, starts, groups, cum, total, n, mu,
                  ptrans, vcap, cap)
   -> (status, path, info, (virtual, series), stats, paths); work, stats and paths are None
   when it fails */
static PyObject *
complete_sweep(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 14)
        return PyErr_Format(PyExc_TypeError, BAD_CALL);
    PyArrayObject *w_arr = as_array(args[0], NPY_UINT32, 1);
    PyArrayObject *key_arr = as_array(args[2], NPY_INT64, 1);
    PyArrayObject *s_arr = as_array(args[3], NPY_FLOAT64, 1);
    PyArrayObject *x_arr = as_array(args[4], NPY_INT64, 1);
    PyArrayObject *k_arr = as_array(args[5], NPY_INT64, 1);
    PyArrayObject *g_arr = as_array(args[6], NPY_INT64, 1);
    PyArrayObject *p_arr = as_array(args[11], NPY_FLOAT64, 2);
    npy_intp iteration, vcap, cap;
    double mu;
    Model m;
    if (w_arr == NULL || key_arr == NULL || s_arr == NULL || x_arr == NULL || k_arr == NULL
        || g_arr == NULL || p_arr == NULL || !as_index(args[1], &iteration)
        || !as_model(args[7], args[8], args[9], &m) || !as_double(args[10], &mu)
        || !as_index(args[12], &vcap) || !as_index(args[13], &cap) || vcap < 0 || cap < 0
        || PyArray_DIM(x_arr, 0) != PyArray_DIM(s_arr, 0)
        || PyArray_DIM(g_arr, 0) != PyArray_DIM(s_arr, 0)
        || PyArray_DIM(key_arr, 0) != PyArray_DIM(k_arr, 0) - 1
        || PyArray_DIM(p_arr, 0) != m.n + 1 || PyArray_DIM(p_arr, 1) != m.n + 1)
        return PyErr_Format(PyExc_TypeError, BAD_CALL);
    if (iteration < 0)
        return PyErr_Format(PyExc_ValueError, NEGATIVE_KEY);
    const npy_int64 *starts = (const npy_int64 *)PyArray_DATA(k_arr);
    const npy_int64 *keys = (const npy_int64 *)PyArray_DATA(key_arr);
    const npy_int64 *groups = (const npy_int64 *)PyArray_DATA(g_arr);
    const npy_int64 *obs_x = (const npy_int64 *)PyArray_DATA(x_arr);
    const npy_intp K = PyArray_DIM(k_arr, 0) - 1, len = PyArray_DIM(s_arr, 0);
    /* a slot holds a segment count */
    if (K < 1 || starts[0] != 0 || starts[K] != len || len > UINT32_MAX)
        return PyErr_Format(PyExc_ValueError, OUT_OF_RANGE);
    npy_intp n_groups = 0;
    for (npy_intp k = 0; k < K; k++) {
        if (keys[k] < 0)
            return PyErr_Format(PyExc_ValueError, NEGATIVE_KEY);
        if (starts[k + 1] <= starts[k]
            || !valid_path(obs_x + starts[k], starts[k + 1] - starts[k], m.n))
            return PyErr_Format(PyExc_ValueError, OUT_OF_RANGE);
        for (npy_intp i = starts[k]; i < starts[k + 1] - 1; i++) {
            if (groups[i] < 0)
                return PyErr_Format(PyExc_ValueError, OUT_OF_RANGE);
            n_groups = Py_MAX(n_groups, groups[i] + 1);
        }
    }

    const npy_intp n = m.n, nwords = PyArray_DIM(w_arr, 0), nblocks = (K + BLOCK - 1) / BLOCK;
    const npy_intp nworkers = Py_MAX(1, Py_MIN(Py_MIN(usable_cpus(), MAX_WORKERS), K / MIN_PATHS));
    npy_intp dims[2] = {n, n}, paths = K + 1;
    PyArrayObject *b = (PyArrayObject *)PyArray_ZEROS(1, &n, NPY_INT64, 0);
    PyArrayObject *nt = (PyArrayObject *)PyArray_ZEROS(2, dims, NPY_INT64, 0);
    PyArrayObject *na = (PyArrayObject *)PyArray_ZEROS(1, &n, NPY_INT64, 0);
    PyArrayObject *r = (PyArrayObject *)PyArray_ZEROS(1, &n, NPY_FLOAT64, 0);
    PyArrayObject *bounds = (PyArrayObject *)PyArray_EMPTY(1, &paths, NPY_INT64, 0);
    /* the stream's words, then those of iteration */
    uint32_t *words = malloc((nwords + 2) * sizeof(uint32_t));
    Block *blocks = calloc(nblocks, sizeof(Block));
    Worker workers[MAX_WORKERS];
    PyObject *times = NULL, *states = NULL, *result = NULL;
    memset(workers, 0, sizeof workers);
    if (b == NULL || nt == NULL || na == NULL || r == NULL || bounds == NULL || words == NULL
        || blocks == NULL) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        goto done;
    }
    memcpy(words, PyArray_DATA(w_arr), nwords * sizeof(uint32_t));
    Sweep s = {
        .obs_s = (const double *)PyArray_DATA(s_arr), .p = (const double *)PyArray_DATA(p_arr),
        .obs_x = obs_x, .starts = starts, .keys = keys, .groups = groups, .words = words,
        .m = m, .mu = mu, .vcap = vcap, .cap = cap, .K = K, .n_groups = n_groups,
        .at_k = nwords + put_words(words + nwords, (npy_uint64)iteration),
        .room = len / nworkers + cap + 1, .nblocks = nblocks, .nworkers = nworkers,
        .B = (npy_int64 *)PyArray_DATA(b), .N = (npy_int64 *)PyArray_DATA(nt),
        .NA = (npy_int64 *)PyArray_DATA(na), .bound = (npy_int64 *)PyArray_DATA(bounds),
        .R = (double *)PyArray_DATA(r), .blocks = blocks, .workers = workers,
        .stop = nblocks,
    };
    for (npy_intp i = 0; i < nworkers; i++)
        workers[i].s = &s;
    s.bound[0] = 0;
    Py_BEGIN_ALLOW_THREADS
    /* the caller is worker 0; a thread that does not start leaves its
       blocks to the others */
    pthread_t threads[MAX_WORKERS];
    npy_intp started = 0;
    while (started + 1 < nworkers
           && pthread_create(threads + started, NULL, work_thread, workers + started + 1) == 0)
        started++;
    work(workers);
    while (started > 0)
        pthread_join(threads[--started], NULL);
    Py_END_ALLOW_THREADS
    if (s.error) {
        PyErr_NoMemory();
        goto done;
    }
    if (s.stop < nblocks) {
        const Block *failed = blocks + s.stop;
        result = Py_BuildValue("(innOOO)", failed->status, failed->path, failed->info, Py_None,
                               Py_None, Py_None);
        goto done;
    }
    npy_intp virtual = 0;
    for (npy_intp i = 0; i < nblocks; i++)
        virtual += blocks[i].virtual;
    if (join_paths(&s, &times, &states) == 0)
        result = Py_BuildValue("(inn(nn)(OOOO)(OOO))", 0, (npy_intp)0, (npy_intp)0, virtual,
                               count_series(&s), b, nt, na, r, times, states, bounds);
done:
    for (npy_intp i = 0; i < MAX_WORKERS; i++) {
        Worker *w = workers + i;
        free(w->chain.pow);
        free(w->chain.steps);
        free(w->store.slot);
        free(w->store.norm);
        free(w->store.sums.v);
        free(w->words);
        free(w->v);
        free(w->jumps);
        free(w->times);
        free(w->states);
    }
    free(words);
    free(blocks);
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
   -> (times, states, bounds) */
static PyObject *
simulate_sweep(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 7)
        return PyErr_Format(PyExc_TypeError, BAD_CALL);
    PyArrayObject *w_arr = as_array(args[0], NPY_UINT32, 1);
    PyArrayObject *key_arr = as_array(args[1], NPY_INT64, 1);
    PyArrayObject *pi_arr = as_array(args[2], NPY_FLOAT64, 1);
    double horizon;
    Model m;
    if (w_arr == NULL || key_arr == NULL || pi_arr == NULL
        || !as_model(args[3], args[4], args[5], &m) || !as_double(args[6], &horizon)
        || PyArray_DIM(pi_arr, 0) != m.n)
        return PyErr_Format(PyExc_TypeError, BAD_CALL);
    const npy_int64 *keys = (const npy_int64 *)PyArray_DATA(key_arr);
    const double *cum_pi = (const double *)PyArray_DATA(pi_arr);
    const npy_intp K = PyArray_DIM(key_arr, 0);
    for (npy_intp k = 0; k < K; k++)
        if (keys[k] < 0)
            return PyErr_Format(PyExc_ValueError, NEGATIVE_KEY);

    const npy_intp nwords = PyArray_DIM(w_arr, 0);
    npy_intp paths = K + 1, capacity = 4 * K + 64;
    PyArrayObject *bounds = (PyArrayObject *)PyArray_EMPTY(1, &paths, NPY_INT64, 0);
    PyArrayObject *times = (PyArrayObject *)PyArray_EMPTY(1, &capacity, NPY_FLOAT64, 0);
    PyArrayObject *states = (PyArrayObject *)PyArray_EMPTY(1, &capacity, NPY_INT64, 0);
    /* the stream's words, then those of keys[k] */
    uint32_t *words = PyMem_Malloc((nwords + 2) * sizeof(uint32_t));
    PyObject *result = NULL;
    if (bounds == NULL || times == NULL || states == NULL || words == NULL) {
        if (words == NULL)
            PyErr_NoMemory();
        goto done;
    }
    memcpy(words, PyArray_DATA(w_arr), nwords * sizeof(uint32_t));
    npy_int64 *bound = (npy_int64 *)PyArray_DATA(bounds);
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
        for (;;) {
            if (used + 1 + count >= capacity) {
                capacity *= 2;
                if (resize(times, capacity) < 0 || resize(states, capacity) < 0)
                    goto done;
            }
            const Buffers out = {(double *)PyArray_DATA(times) + used + 1,
                                 (npy_int64 *)PyArray_DATA(states) + used + 1,
                                 capacity - used - 1};
            if (run_chain(&bg, &m, &state, &t, horizon, &out, &count) != 0)
                break;
        }
        ((double *)PyArray_DATA(times))[used] = 0.0;
        ((npy_int64 *)PyArray_DATA(states))[used] = first;
        used += 1 + count;
        bound[k + 1] = used;
    }
    if (resize(times, used) < 0 || resize(states, used) < 0)
        goto done;
    result = Py_BuildValue("(OOO)", times, states, bounds);
done:
    PyMem_Free(words);
    Py_XDECREF(bounds);
    Py_XDECREF(times);
    Py_XDECREF(states);
    return result;
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
    {"complete_sweep", (PyCFunction)(void (*)(void))complete_sweep, METH_FASTCALL,
     "The SE-step sweep: complete_sweep of _kernels.py, compiled."},
    {"simulate_sweep", (PyCFunction)(void (*)(void))simulate_sweep, METH_FASTCALL,
     "The simulation sweep: simulate_sweep of _kernels.py, compiled."},
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
    return PyModule_Create(&module_def);
}
