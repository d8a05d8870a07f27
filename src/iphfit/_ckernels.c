/*
 * The jump-chain kernels of _kernels.py, compiled.
 *
 * sim_path, bridge_attempts and complete_panel_path keep the signatures,
 * return tuples, buffer writes and draw order of their Python bodies.  A
 * jump draws (1/rate) * random_standard_exponential and, when it lands
 * inside the horizon, next_double * rate: what Generator.exponential(1/rate)
 * and Generator.random() compute, so both forms leave the generator in the
 * same state.  The bit generator comes from gen.bit_generator.capsule.
 *
 * Each kernel is a Kernel object holding its Python body as py_func, as a
 * numba dispatcher does.  A call this file does not take as is (a
 * generator other than numpy.random.Generator, another dtype or layout,
 * a state out of range, a keyword argument) goes to py_func unchanged, so
 * every call gives the same result whichever body runs it.  Arguments are
 * checked here, before any pointer is used.  A call holds the GIL
 * throughout and does not take the bit generator's lock, as numba's
 * kernels do not: a generator is not shared between threads here.
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
   given dtype and dimension; writable if asked. */
static PyArrayObject *
as_array(PyObject *obj, int type, int ndim, int writable)
{
    if (!PyArray_CheckExact(obj))
        return NULL;
    PyArrayObject *a = (PyArrayObject *)obj;
    if (PyArray_TYPE(a) != type || PyArray_NDIM(a) != ndim || !PyArray_ISCARRAY_RO(a)
        || !PyArray_ISNOTSWAPPED(a) || (writable && !PyArray_ISWRITEABLE(a)))
        return NULL;
    return a;
}

/* cum (n, n + 1) and total (n,) as a Model for the given n. */
static int
as_model(PyObject *cum_obj, PyObject *total_obj, PyObject *n_obj, Model *m)
{
    PyArrayObject *cum = as_array(cum_obj, NPY_FLOAT64, 2, 0);
    PyArrayObject *total = as_array(total_obj, NPY_FLOAT64, 1, 0);
    if (cum == NULL || total == NULL || !as_index(n_obj, &m->n) || m->n < 1
        || PyArray_DIM(cum, 0) != m->n || PyArray_DIM(cum, 1) != m->n + 1
        || PyArray_DIM(total, 0) != m->n)
        return 0;
    m->cum = (const double *)PyArray_DATA(cum);
    m->total = (const double *)PyArray_DATA(total);
    return 1;
}

/* times (cap,) float64 and states int64 with room for at least cap. */
static int
as_buffers(PyObject *times_obj, PyObject *states_obj, Buffers *out)
{
    PyArrayObject *times = as_array(times_obj, NPY_FLOAT64, 1, 1);
    PyArrayObject *states = as_array(states_obj, NPY_INT64, 1, 1);
    if (times == NULL || states == NULL || PyArray_DIM(states, 0) < PyArray_DIM(times, 0))
        return 0;
    out->times = (double *)PyArray_DATA(times);
    out->states = (npy_int64 *)PyArray_DATA(states);
    out->cap = PyArray_DIM(times, 0);
    return 1;
}

/* ---- the kernels: args are those of the Python body, gen first ---- */

typedef PyObject *(*kernel_body)(bitgen_t *bg, PyObject *const *args);

/* sim_path(gen, state, t, horizon, cum, total, n, times, states)
   -> (status, count, state, time) */
static PyObject *
sim_path(bitgen_t *bg, PyObject *const *args)
{
    npy_intp state, count = 0;
    double t, horizon;
    Model m;
    Buffers out;
    if (!as_index(args[1], &state) || !as_double(args[2], &t) || !as_double(args[3], &horizon)
        || !as_model(args[4], args[5], args[6], &m) || !as_buffers(args[7], args[8], &out)
        || state < 0 || state >= m.n)
        return NULL;
    const int status = run_chain(bg, &m, &state, &t, horizon, &out, &count);
    return Py_BuildValue("(innd)", status, count, state, status == 2 ? horizon : t);
}

/* bridge_attempts(gen, x, y, duration, cum, total, n, max_attempts, times, states)
   -> (status, attempts, count) */
static PyObject *
bridge_attempts(bitgen_t *bg, PyObject *const *args)
{
    npy_intp x, y, max_attempts, k;
    double duration;
    Model m;
    Buffers out;
    if (!as_index(args[1], &x) || !as_index(args[2], &y) || !as_double(args[3], &duration)
        || !as_model(args[4], args[5], args[6], &m) || !as_index(args[7], &max_attempts)
        || !as_buffers(args[8], args[9], &out) || x < 0 || x >= m.n)
        return NULL;
    for (npy_intp attempt = 1; attempt <= max_attempts; attempt++) {
        const npy_intp end = bridge_attempt(bg, &m, x, 0.0, duration, &out, 0, &k);
        if (end < 0)
            return Py_BuildValue("(inn)", 2, attempt, (npy_intp)0);
        if (end == y)
            return Py_BuildValue("(inn)", 0, attempt, k);
    }
    return Py_BuildValue("(inn)", 1, max_attempts, (npy_intp)0);
}

/* complete_panel_path(gen, obs_s, obs_x, cum, total, n, max_attempts, times, states)
   -> (status, info, count, end_time) */
static PyObject *
complete_panel_path(bitgen_t *bg, PyObject *const *args)
{
    PyArrayObject *s_arr = as_array(args[1], NPY_FLOAT64, 1, 0);
    PyArrayObject *x_arr = as_array(args[2], NPY_INT64, 1, 0);
    npy_intp max_attempts, k, count = 0;
    Model m;
    Buffers out;
    if (s_arr == NULL || x_arr == NULL || !as_model(args[3], args[4], args[5], &m)
        || !as_index(args[6], &max_attempts) || !as_buffers(args[7], args[8], &out))
        return NULL;
    const double *obs_s = (const double *)PyArray_DATA(s_arr);
    const npy_int64 *obs_x = (const npy_int64 *)PyArray_DATA(x_arr);
    const npy_intp last = PyArray_DIM(s_arr, 0) - 1;
    /* every observed state but the last is transient; a lone observation
       is too (the Python body would read times[-1]) */
    if (last < 0 || PyArray_DIM(x_arr, 0) != last + 1 || obs_x[last] < 0 || obs_x[last] > m.n
        || (last == 0 && obs_x[0] == m.n))
        return NULL;
    for (npy_intp i = 0; i < last; i++)
        if (obs_x[i] < 0 || obs_x[i] >= m.n)
            return NULL;

    for (npy_intp seg = 0; seg < last; seg++) {
        const double s1 = obs_s[seg];
        const double duration = obs_s[seg + 1] - s1;
        int accepted = 0;
        for (npy_intp a = 0; a < max_attempts && !accepted; a++) {
            const npy_intp end = bridge_attempt(bg, &m, obs_x[seg], s1, duration, &out, count, &k);
            if (end < 0)
                return Py_BuildValue("(innd)", 2, seg, (npy_intp)0, 0.0);
            if (end == obs_x[seg + 1]) {
                count += k;
                accepted = 1;
            }
        }
        if (!accepted)
            return Py_BuildValue("(innd)", 1, seg, (npy_intp)0, 0.0);
    }
    if (obs_x[last] == m.n)
        return Py_BuildValue("(innd)", 0, last, count, out.times[count - 1]);
    /* censored: continue unconditioned from the last observed state */
    npy_intp state = obs_x[last];
    double t = obs_s[last];
    switch (run_chain(bg, &m, &state, &t, INFINITY, &out, &count)) {
    case 1:
        return Py_BuildValue("(innd)", 0, last, count, t);
    case 2: /* no exit rate: a dead end */
        return Py_BuildValue("(innd)", 3, last, (npy_intp)0, 0.0);
    default: /* buffers full */
        return Py_BuildValue("(innd)", 2, last, (npy_intp)0, 0.0);
    }
}

static const struct {
    const char *name;
    kernel_body body;
    Py_ssize_t nargs;
} BODIES[] = {
    {"sim_path", sim_path, 9},
    {"bridge_attempts", bridge_attempts, 10},
    {"complete_panel_path", complete_panel_path, 9},
};

/* ---- the Kernel type ---- */

static PyObject *generator_type;  /* numpy.random.Generator */
static PyObject *str_bit_generator;
static PyObject *str_capsule;

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
    if (kwnames == NULL && nargs == kernel->nargs
        && (PyObject *)Py_TYPE(args[0]) == generator_type) {
        /* held until the body returns: it owns the bit generator's state */
        PyObject *bit_generator = PyObject_GetAttr(args[0], str_bit_generator);
        PyObject *capsule = bit_generator ? PyObject_GetAttr(bit_generator, str_capsule) : NULL;
        bitgen_t *bg = NULL;
        if (capsule != NULL && PyCapsule_IsValid(capsule, "BitGenerator"))
            bg = (bitgen_t *)PyCapsule_GetPointer(capsule, "BitGenerator");
        PyObject *result = NULL;
        if (bg != NULL)
            result = kernel->body(bg, args);
        Py_XDECREF(capsule);
        Py_XDECREF(bit_generator);
        if (result != NULL || (bg != NULL && PyErr_Occurred()))
            return result;
        PyErr_Clear();
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
    .tp_doc = "A compiled jump-chain kernel; py_func is its Python body.",
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

static PyMethodDef module_methods[] = {
    {"kernel", make_kernel, METH_VARARGS,
     "kernel(name, py_func): the compiled kernel `name`, with py_func as its Python body."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_ckernels",
    .m_doc = "Compiled jump-chain kernels.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__ckernels(void)
{
    import_array();
    if (PyType_Ready(&KernelType) < 0)
        return NULL;
    PyObject *random = PyImport_ImportModule("numpy.random");
    if (random == NULL)
        return NULL;
    generator_type = PyObject_GetAttrString(random, "Generator");
    Py_DECREF(random);
    str_bit_generator = PyUnicode_InternFromString("bit_generator");
    str_capsule = PyUnicode_InternFromString("capsule");
    if (generator_type == NULL || str_bit_generator == NULL || str_capsule == NULL)
        return NULL;
    return PyModule_Create(&module_def);
}
