/*
 * The two sweeps of _kernels.py, compiled.
 *
 * complete_sweep completes every path of a panel; the estimator calls it
 * for each SE-step and for the final-segment bridges of initialization.
 * It first computes the normalizer of every bridge group (series), then
 * draws each segment exactly from its endpoint-conditioned law by
 * uniformization (bridge) and runs a censored path on to absorption
 * (run_chain).  simulate_sweep draws each path's initial state (one
 * next_double) and runs run_chain to the horizon; the studies and the CLI
 * call it for a simulated cohort and for each goodness-of-fit sample.
 * The helpers below mirror those of _kernels.py (_jump, _run_chain,
 * _Chain.power, _series, _draw_count, _bridge, _normalizers,
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
 * Each sweep is a Kernel object holding its Python body as py_func.  A
 * call this file does not take as is (another dtype or layout, a state,
 * key or group out of range, a keyword argument) goes to py_func
 * unchanged, so every call gives the same result whichever body runs it.
 * Arguments are checked here, before any pointer is used.  A call holds
 * the GIL throughout.
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
/* the step table's least rows: a series from x to x with q < 1 ends by r = 18 */
#define SHORT_ROWS 20

/* The uniformized chain of one sweep: P = I + G / mu over the n1 = n + 1
   states, the absorbing row the identity, its powers P^0 .. P^(rows - 1),
   n1 x n1 each, computed on demand, and the step table of _Chain.steps. */
typedef struct {
    const double *p;
    npy_intp n1;
    double *pow;
    npy_intp rows, room;
    double *steps;
    npy_intp step_rows;
} Chain;

/* Makes P^r available: P^(j+1)[i][c] sums P^j[i][k] P[k][c] over k in
   ascending order.  -1 with an error set on a failed allocation. */
static int
chain_grow(Chain *c, npy_intp r)
{
    const npy_intp n1 = c->n1, size = n1 * n1;
    if (r >= c->room) {
        const npy_intp room = Py_MAX(2 * c->room, r + 1);
        double *pow = PyMem_Realloc(c->pow, room * size * sizeof(double));
        if (pow == NULL) {
            PyErr_NoMemory();
            return -1;
        }
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

/* The step table for k < rows, as _Chain.steps: steps[((k n1 + y) n1 + z)
   n1 + c] is the running sum over c' <= c of P[z][c'] (P^k)[c'][y].  -1
   with an error set on a failed allocation. */
static int
chain_steps(Chain *c, npy_intp rows)
{
    const npy_intp n1 = c->n1;
    if (chain_power(c, rows - 1) < 0)
        return -1;
    c->steps = PyMem_Malloc(rows * n1 * n1 * n1 * sizeof(double));
    if (c->steps == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    c->step_rows = rows;
    double *out = c->steps;
    for (npy_intp k = 0; k < rows; k++)
        for (npy_intp y = 0; y < n1; y++)
            for (npy_intp z = 0; z < n1; z++) {
                double acc = c->p[z * n1] * POW(c, k, 0, y);
                *out++ = acc;
                for (npy_intp col = 1; col < n1; col++) {
                    acc = acc + c->p[z * n1 + col] * POW(c, k, col, y);
                    *out++ = acc;
                }
            }
    return 0;
}

/* The normalizer of one bridge group, as _series' norm: the mode m, the
   bounds of the walk and where its running totals start in the sweep's
   Sums; hi < 0 while not computed. */
typedef struct {
    double total;
    npy_intp m, lo, hi, at;
} Norm;

/* The running totals of the sweep's normalizer series, end to end. */
typedef struct {
    double *v;
    npy_intp used, room;
} Sums;

/* Makes room for more running totals; -1 with an error set on a failed
   allocation. */
static int
grow(Sums *s, npy_intp more)
{
    const npy_intp room = Py_MAX(2 * s->room, s->used + more + 1024);
    double *v = PyMem_Realloc(s->v, room * sizeof(double));
    if (v == NULL) {
        PyErr_NoMemory();
        return -1;
    }
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
   -1 with an error set. */
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

/* The virtual-jump count, as _draw_count: the r of the first running
   total above target, or of the last place the total grows if rounding
   leaves none. */
static npy_intp
draw_count(const Sums *sums, const Norm *g, double target)
{
    const double *s = sums->v + g->at;
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
   of v[lo..hi) in those places, as sorting v[lo..hi) would. */
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
   uniform u, and appends its kept jumps to out after *count.  v has room for R uniforms, and jumps
   (for the kept jumps' indices, states and epoch ranks) for 3 R.  Returns
   0, 2 when the buffers are full before a kept jump, or 5 when the floats
   run out; adds the virtual-jump count R to *virtual. */
static int
bridge(Pcg64 *st, const Chain *c, const Sums *sums, npy_intp n, double s1, double s2,
       npy_intp x, npy_intp y, const Norm *g, double u, double *v, npy_intp *jumps,
       const Buffers *out, npy_intp *count, npy_intp *virtual)
{
    const double delta = s2 - s1;
    const npy_intp R = draw_count(sums, g, u * g->total);
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

/* The normalizers the paths need, each group's computed once, in path
   order, as _normalizers.  Returns 0, 1 (an impossible pair) or 4 with
   *path and *info at the first failing segment, or -1 with an error set;
   counts the series computed in *computed. */
static int
normalizers(Chain *c, Sums *sums, double mu, npy_intp vcap, const double *obs_s,
            const npy_int64 *obs_x,
            const npy_int64 *starts, const npy_int64 *groups, npy_intp K, Norm *norms,
            npy_intp *path, npy_intp *info, npy_intp *computed)
{
    for (npy_intp k = 0; k < K; k++) {
        for (npy_intp i = starts[k]; i < starts[k + 1] - 1; i++) {
            Norm *g = norms + groups[i];
            const double q = mu * (obs_s[i + 1] - obs_s[i]);
            *path = k;
            *info = i - starts[k];
            if (!(q <= (double)vcap)) /* nan and inf too */
                return 4;
            if (obs_x[i] == obs_x[i + 1] && q < 1.0)
                continue;
            if (g->hi < 0) {
                const int status = series(c, sums, q, obs_x[i], obs_x[i + 1], vcap, g);
                (*computed)++;
                if (status != 0) {
                    g->hi = -1;
                    return status;
                }
            }
            if (!(g->total > 0.0))
                return 1;
        }
    }
    return 0;
}

/* Completes one path observed at obs_s[0..last] in obs_x[0..last], as
   _complete_path: bridge each segment (a segment from x to x with q < 1
   and no normalizer yet takes R = 0 when u exp(q) < 1, else computes its
   series), then run a censored path on to absorption.  Returns the status
   (0 completed, 2 buffers full, 3 dead end, 5 out of floats, -1 with an
   error set) and sets *info to the segment it ended in; on status 0,
   *count is the number of jumps written and *end the absorption epoch.
   Adds the virtual jumps drawn to *virtual and the series computed to
   *computed. */
static int
complete_path(Pcg64 *st, Chain *c, Sums *sums, double mu, npy_intp vcap, const Model *m,
              Norm *norms,
              const double *obs_s, const npy_int64 *obs_x, const npy_int64 *groups,
              npy_intp last, double *v, npy_intp *jumps, const Buffers *out, npy_intp *info,
              npy_intp *count, double *end, npy_intp *virtual, npy_intp *computed)
{
    *count = 0;
    for (npy_intp seg = 0; seg < last; seg++) {
        const double s1 = obs_s[seg], s2 = obs_s[seg + 1], u = pcg64_next_double(st);
        Norm *g = norms + groups[seg];
        *info = seg;
        if (g->hi < 0) {
            const double q = mu * (s2 - s1);
            if (u * exp(q) < 1.0)
                continue;
            const int status = series(c, sums, q, obs_x[seg], obs_x[seg + 1], vcap, g);
            (*computed)++;
            if (status < 0)
                return -1;
            if (status != 0 || g->hi > c->step_rows) { /* not reached: such a walk ends by r = 18 */
                g->hi = -1;
                return 5;
            }
        }
        const int status = bridge(st, c, sums, m->n, s1, s2, obs_x[seg], obs_x[seg + 1], g, u,
                                  v, jumps, out, count, virtual);
        if (status != 0)
            return status;
    }
    *info = last;
    if (obs_x[last] == m->n) {
        *end = out->times[*count - 1];
        return 0;
    }
    /* censored: continue unconditioned from the last observed state */
    bitgen_t bg = pcg64_bitgen(st);
    npy_intp state = obs_x[last];
    double t = obs_s[last];
    switch (run_chain(&bg, m, &state, &t, INFINITY, out, count)) {
    case 1:
        *end = t;
        return 0;
    case 2: /* no exit rate: a dead end */
        return 3;
    default: /* buffers full */
        return 2;
    }
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

/* complete_sweep(words, iteration, replications, keys, obs_s, obs_x, starts, groups, cum,
                  total, n, mu, ptrans, vcap, cap)
   -> (status, path, info, (virtual, kept, censored, series), stats, paths) */
static PyObject *
complete_sweep(PyObject *const *args)
{
    PyArrayObject *w_arr = as_array(args[0], NPY_UINT32, 1);
    PyArrayObject *key_arr = as_array(args[3], NPY_INT64, 1);
    PyArrayObject *s_arr = as_array(args[4], NPY_FLOAT64, 1);
    PyArrayObject *x_arr = as_array(args[5], NPY_INT64, 1);
    PyArrayObject *k_arr = as_array(args[6], NPY_INT64, 1);
    PyArrayObject *g_arr = as_array(args[7], NPY_INT64, 1);
    PyArrayObject *p_arr = as_array(args[12], NPY_FLOAT64, 2);
    npy_intp iteration, replications, vcap, cap;
    double mu;
    Model m;
    if (w_arr == NULL || key_arr == NULL || s_arr == NULL || x_arr == NULL || k_arr == NULL
        || g_arr == NULL || p_arr == NULL || !as_index(args[1], &iteration)
        || !as_index(args[2], &replications) || !as_model(args[8], args[9], args[10], &m)
        || !as_double(args[11], &mu) || !as_index(args[13], &vcap) || !as_index(args[14], &cap)
        || iteration < 0 || replications < 1 || vcap < 0 || cap < 0
        || PyArray_DIM(x_arr, 0) != PyArray_DIM(s_arr, 0)
        || PyArray_DIM(g_arr, 0) != PyArray_DIM(s_arr, 0) || PyArray_DIM(k_arr, 0) < 2
        || PyArray_DIM(key_arr, 0) != PyArray_DIM(k_arr, 0) - 1
        || PyArray_DIM(p_arr, 0) != m.n + 1 || PyArray_DIM(p_arr, 1) != m.n + 1)
        return NULL;
    const double *obs_s = (const double *)PyArray_DATA(s_arr);
    const npy_int64 *obs_x = (const npy_int64 *)PyArray_DATA(x_arr);
    const npy_int64 *starts = (const npy_int64 *)PyArray_DATA(k_arr);
    const npy_int64 *keys = (const npy_int64 *)PyArray_DATA(key_arr);
    const npy_int64 *groups = (const npy_int64 *)PyArray_DATA(g_arr);
    const npy_intp K = PyArray_DIM(k_arr, 0) - 1, len = PyArray_DIM(s_arr, 0);
    if (starts[0] != 0 || starts[K] != len)
        return NULL;
    npy_intp n_groups = 0;
    for (npy_intp k = 0; k < K; k++) {
        if (keys[k] < 0 || starts[k + 1] <= starts[k]
            || !valid_path(obs_x + starts[k], starts[k + 1] - starts[k], m.n))
            return NULL;
        for (npy_intp i = starts[k]; i < starts[k + 1] - 1; i++) {
            if (groups[i] < 0)
                return NULL;
            n_groups = Py_MAX(n_groups, groups[i] + 1);
        }
    }

    const npy_intp n = m.n, n1 = n + 1, nwords = PyArray_DIM(w_arr, 0);
    npy_intp dims[2] = {n, n}, paths = replications * K + 1;
    npy_intp capacity = len * replications + cap + 1;
    PyArrayObject *b = (PyArrayObject *)PyArray_ZEROS(1, &n, NPY_INT64, 0);
    PyArrayObject *nt = (PyArrayObject *)PyArray_ZEROS(2, dims, NPY_INT64, 0);
    PyArrayObject *na = (PyArrayObject *)PyArray_ZEROS(1, &n, NPY_INT64, 0);
    PyArrayObject *r = (PyArrayObject *)PyArray_ZEROS(1, &n, NPY_FLOAT64, 0);
    PyArrayObject *bounds = (PyArrayObject *)PyArray_EMPTY(1, &paths, NPY_INT64, 0);
    PyArrayObject *times = (PyArrayObject *)PyArray_EMPTY(1, &capacity, NPY_FLOAT64, 0);
    PyArrayObject *states = (PyArrayObject *)PyArray_EMPTY(1, &capacity, NPY_INT64, 0);
    /* the stream's words, then those of (iteration, keys[k][, rep]) */
    uint32_t *words = PyMem_Malloc((nwords + 6) * sizeof(uint32_t));
    Norm *norms = PyMem_Malloc(Py_MAX(n_groups, 1) * sizeof(Norm));
    Chain chain = {(const double *)PyArray_DATA(p_arr), n1,
                   PyMem_Malloc(16 * n1 * n1 * sizeof(double)), 1, 16, NULL, 0};
    double *v = NULL;
    npy_intp *jumps = NULL;
    Sums sums = {NULL, 0, 0};
    PyObject *result = NULL;
    if (b == NULL || nt == NULL || na == NULL || r == NULL || bounds == NULL || times == NULL
        || states == NULL || words == NULL || norms == NULL || chain.pow == NULL) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        goto done;
    }
    for (npy_intp i = 0; i < n1 * n1; i++)
        chain.pow[i] = i % (n1 + 1) == 0 ? 1.0 : 0.0;
    for (npy_intp g = 0; g < n_groups; g++)
        norms[g].hi = -1;
    npy_intp status, path = 0, info = 0, virtual = 0, kept = 0, censored = 0, computed = 0;
    status = normalizers(&chain, &sums, mu, vcap, obs_s, obs_x, starts, groups, K, norms,
                         &path, &info, &computed);
    if (status < 0)
        goto done;
    if (status != 0)
        goto failed;
    npy_intp room = SHORT_ROWS;
    for (npy_intp g = 0; g < n_groups; g++)
        room = Py_MAX(room, norms[g].hi);
    v = PyMem_Malloc(room * sizeof(double));
    jumps = PyMem_Malloc(3 * room * sizeof(npy_intp));
    if (v == NULL || jumps == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (chain_steps(&chain, room) < 0)
        goto done;
    memcpy(words, PyArray_DATA(w_arr), nwords * sizeof(uint32_t));
    const npy_intp at_k = nwords + put_words(words + nwords, (npy_uint64)iteration);
    npy_int64 *B = (npy_int64 *)PyArray_DATA(b), *N = (npy_int64 *)PyArray_DATA(nt);
    npy_int64 *NA = (npy_int64 *)PyArray_DATA(na), *bound = (npy_int64 *)PyArray_DATA(bounds);
    double *R = (double *)PyArray_DATA(r);
    npy_intp used = 0, done_paths = 0;
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
            npy_intp count = 0, len_k = at_k + put_words(words + at_k, (npy_uint64)keys[k]);
            double end;
            if (replications > 1)
                len_k += put_words(words + len_k, (npy_uint64)rep);
            Pcg64 stream;
            pcg64_seed(&stream, words, len_k);
            status = complete_path(&stream, &chain, &sums, mu, vcap, &m, norms, obs_s + a,
                                   obs_x + a,
                                   groups + a, last, v, jumps, &out, &info, &count, &end,
                                   &virtual, &computed);
            if (status < 0)
                goto done;
            if (status != 0) {
                path = k;
                goto failed;
            }
            kept += count;
            censored += obs_x[a + last] != n;
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
            bound[++done_paths] = used;
        }
    }
    if (resize(times, used) < 0 || resize(states, used) < 0)
        goto done;
    result = Py_BuildValue("(inn(nnnn)(OOOO)(OOO))", 0, (npy_intp)0, (npy_intp)0, virtual, kept,
                           censored, computed, b, nt, na, r, times, states, bounds);
    goto done;
failed:
    result = Py_BuildValue("(inn(nnnn)OO)", (int)status, path, info, virtual, kept, censored,
                           computed, Py_None, Py_None);
done:
    PyMem_Free(words);
    PyMem_Free(norms);
    PyMem_Free(chain.pow);
    PyMem_Free(chain.steps);
    PyMem_Free(sums.v);
    PyMem_Free(v);
    PyMem_Free(jumps);
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
    {"complete_sweep", complete_sweep, 15},
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
