"""Jump-chain kernels.

The hot loops of trajectory simulation, bridge rejection sampling,
whole-path completion and the two sweeps live here: ``complete_sweep``
over a whole panel (each SE-step, and the final-segment bridges of
initialization) and ``simulate_sweep`` over a whole simulated cohort or
goodness-of-fit sample.  ``sim_path``, ``bridge_attempts`` and
``complete_panel_path`` draw from a ``numpy.random.Generator`` handed in
by the caller; the two sweeps derive one stream per path (and round)
from entropy words and the path's key, as ``RandomStream.generator()``
does.  All five rest on one jump step, ``_jump``, and on the private
helpers built on it (``_run_chain``, ``_bridge_attempt``,
``_complete_path``), which mirror those of ``_ckernels.c``.  Three
backends run them, tried in this order:

- numba, when importable: the bodies below, jitted, except the two
  sweeps, which stay Python loops over the jitted ``_complete_path`` and
  ``_run_chain``;
- C: ``_ckernels.c``, compiled on the first import and cached in this
  package's ``__pycache__`` under a name keyed by the source, the
  compiler flags, the interpreter's extension suffix and the numpy
  version (see ``build``);
- pure Python: the bodies below as they are, if compiling or loading
  the C file fails for any reason.

``BACKEND`` names the one in use.  All three consume each bit stream
exactly like the Python bodies do, so every backend produces
bitwise-identical paths; the compiled kernels expose their Python body
as ``py_func``.  ``build`` rebinds only the five public names, so a
``py_func`` runs Python throughout.

Conventions inside this module only: states are 0-based, the absorbing
state has index n, and ``cum[x]`` holds the cumulative rates out of x over
the n+1 destinations (the n transient states with the self-rate zeroed,
then the exit rate), so ``cum[x, -1]`` is the total exit rate of x.  Each
jump consumes one exponential draw and, if it lands inside the horizon,
one uniform draw.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import os
import subprocess
import sysconfig
import tempfile

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def decorate(func):
            return func

        return decorate


@njit(cache=True)
def _jump(gen, cum, total, n, state, t, horizon):
    """One jump out of ``state`` at ``t``: ``(-1, t)`` when the state has
    no exit rate or the jump would land after ``horizon``, otherwise the
    entered state and the jump epoch.  The destination search stops at
    the last column."""
    rate = total[state]
    if rate <= 0.0:
        return -1, t
    dt = gen.exponential(1.0 / rate)
    if t + dt > horizon:
        return -1, t
    t = t + dt
    u = gen.random() * rate
    row = cum[state]
    nxt = 0
    while nxt < n and row[nxt] <= u:
        nxt += 1
    return nxt, t


@njit(cache=True)
def _run_chain(gen, cum, total, n, state, t, horizon, times, states, count):
    """Run the chain from ``state`` at ``t``, appending jumps to the
    buffers after ``count``, until it is absorbed (status 1), makes no
    jump before ``horizon`` (2), or finds the buffers full before a jump
    (0).  Returns ``(status, count, state, t)``."""
    cap = times.shape[0]
    while True:
        if count == cap:
            return 0, count, state, t
        nxt, t = _jump(gen, cum, total, n, state, t, horizon)
        if nxt < 0:
            return 2, count, state, t
        times[count] = t
        states[count] = nxt
        count += 1
        state = nxt
        if nxt == n:
            return 1, count, state, t


@njit(cache=True)
def _bridge_attempt(gen, cum, total, n, x, s1, duration, times, states, start):
    """One rejection attempt: the chain from x over ``(0, duration]``, its
    jumps written at epochs ``s1 + t`` from index ``start`` on.  Returns
    ``(state, k)``: the state occupied at ``duration``, or -1 when a jump
    finds the buffers full, and the number of jumps written."""
    cap = times.shape[0]
    state = x
    t = 0.0
    k = 0
    while True:
        nxt, t = _jump(gen, cum, total, n, state, t, duration)
        if nxt < 0:
            return state, k
        if start + k == cap:
            return -1, k
        times[start + k] = s1 + t
        states[start + k] = nxt
        k += 1
        state = nxt
        if nxt == n:
            return state, k


@njit(cache=True)
def _complete_path(gen, obs_s, obs_x, cum, total, n, max_attempts, times, states):
    """The body of ``complete_panel_path``, under a name ``build`` leaves
    alone, so that ``complete_sweep``'s Python body stays Python."""
    count = 0
    attempts = 0
    m = obs_s.shape[0] - 1
    for seg in range(m):
        s1 = obs_s[seg]
        duration = obs_s[seg + 1] - s1
        accepted = False
        for _attempt in range(max_attempts):
            attempts += 1
            state, k = _bridge_attempt(
                gen, cum, total, n, obs_x[seg], s1, duration, times, states, count
            )
            if state < 0:
                return 2, seg, 0, 0.0, attempts
            if state == obs_x[seg + 1]:
                count += k
                accepted = True
                break
        if not accepted:
            return 1, seg, 0, 0.0, attempts
    if obs_x[m] == n:
        return 0, m, count, times[count - 1], attempts
    # censored: continue unconditioned from the last observed state
    status, count, _state, t = _run_chain(
        gen, cum, total, n, obs_x[m], obs_s[m], np.inf, times, states, count
    )
    if status == 1:
        return 0, m, count, t, attempts
    if status == 2:  # no exit rate: a dead end
        return 3, m, 0, 0.0, attempts
    return 2, m, 0, 0.0, attempts


@njit(cache=True)
def sim_path(gen, state, t, horizon, cum, total, n, times, states):
    """Simulate the jump chain from ``state`` at time ``t``.

    Fills ``times``/``states`` with jump epochs and entered states until
    absorption, the horizon, or a full buffer.  Returns
    ``(status, count, state, time)`` with status 0 = buffer full (call
    again to continue), 1 = absorbed, 2 = horizon reached.  A state with
    no exit rate ends the path at the horizon.
    """
    status, count, state, t = _run_chain(gen, cum, total, n, state, t, horizon, times, states, 0)
    if status == 2:
        return status, count, state, horizon
    return status, count, state, t


@njit(cache=True)
def bridge_attempts(gen, x, y, duration, cum, total, n, max_attempts, times, states):
    """Rejection-sample a path from x over ``duration`` ending in y.

    Each attempt resimulates the jump chain from scratch; an attempt is
    accepted iff the state occupied at ``duration`` equals y (an absorbed
    chain stays absorbed).  Returns ``(status, attempts, count)`` with
    status 0 = accepted (``count`` jumps in the buffers), 1 = budget
    exhausted, 2 = buffer overflow within an attempt.
    """
    for attempt in range(1, max_attempts + 1):
        state, count = _bridge_attempt(gen, cum, total, n, x, 0.0, duration, times, states, 0)
        if state < 0:
            return 2, attempt, 0
        if state == y:
            return 0, attempt, count
    return 1, max_attempts, 0


@njit(cache=True)
def complete_panel_path(gen, obs_s, obs_x, cum, total, n, max_attempts, times, states):
    """Reconstruct one full trajectory consistent with its panel records.

    ``obs_s`` are the observation epochs on the homogeneous scale and
    ``obs_x`` the observed 0-based states (absorbing = n).  Every
    inter-observation segment is bridged by rejection; if the final
    observed state is transient the chain is then simulated to absorption.
    Jump epochs are absolute.  Returns ``(status, info, count, end_time,
    attempts)`` with status 0 = completed (``end_time`` is the absorption
    epoch), 1 = bridge budget exhausted on segment ``info``, 2 = buffer
    overflow, 3 = dead-end state reached during the censored continuation;
    ``attempts`` counts the bridge attempts started.
    """
    return _complete_path(gen, obs_s, obs_x, cum, total, n, max_attempts, times, states)


def stream_words(*ints):
    """The uint32 entropy words ``numpy.random.SeedSequence`` makes of
    these non-negative ints: each int's little-endian 32-bit words, and
    ``[0]`` for 0."""
    words = []
    for v in ints:
        v = int(v)
        if v < 0:
            raise ValueError("stream keys must be non-negative")
        words.append(v & 0xFFFFFFFF)
        v >>= 32
        while v:
            words.append(v & 0xFFFFFFFF)
            v >>= 32
    return np.array(words, dtype=np.uint32)


def complete_sweep(
    words, iteration, replications, keys, obs_s, obs_x, starts, cum, total, n, max_attempts,
    cap,
):
    """Complete every path ``replications`` times: one SE-step, or the
    bridges of initialization.

    Path k is observed at the epochs ``obs_s[starts[k]:starts[k + 1]]`` in
    the 0-based states ``obs_x[...]``, and ``complete_panel_path``
    completes it with ``cap`` jumps of room.  Its stream in round r is the
    PCG64 generator of ``SeedSequence(words + stream_words(iteration,
    keys[k], r))``, with ``rep`` appended when ``replications > 1``; round
    1 runs only when round 0 exhausts a bridge budget.  Paths are
    completed with ``rep`` outer and ``k`` inner.

    Returns ``(status, path, info, attempts, retries, stats, paths)``.
    Status 0: ``stats`` is ``(B, N_xy, N_x, R_x)`` summed in path order,
    then jump order, and ``paths`` is ``(times, states, bounds)``: path i
    is ``times[bounds[i]:bounds[i + 1]]``, starting with its entry into
    its first observed state at 0.0 and ending with its absorption.
    Otherwise ``status`` is that of the failing ``complete_panel_path``
    call (1 only after both rounds), ``path`` its k and ``info`` its
    segment, and ``stats`` and ``paths`` are None.  ``attempts`` counts
    the bridge attempts started and ``retries`` the paths that needed
    round 1.
    """
    tbuf = np.empty(cap, dtype=np.float64)
    sbuf = np.empty(cap, dtype=np.int64)
    pieces_t, pieces_s = [], []
    attempts = retries = 0
    for rep in range(replications):
        for k in range(starts.shape[0] - 1):
            a, z = starts[k], starts[k + 1]
            for round_ in (0, 1):
                key = (iteration, keys[k], round_) if replications == 1 else (
                    iteration, keys[k], round_, rep
                )
                seed = np.random.SeedSequence(np.concatenate((words, stream_words(*key))))
                status, info, count, _end, tried = _complete_path(
                    np.random.default_rng(seed), obs_s[a:z], obs_x[a:z], cum, total, n,
                    max_attempts, tbuf, sbuf,
                )
                attempts += tried
                if status != 1 or round_ == 1:
                    break
                retries += 1
            if status != 0:
                return status, k, info, attempts, retries, None, None
            pieces_t.append(np.concatenate(([0.0], tbuf[:count])))
            pieces_s.append(np.concatenate((obs_x[a:a + 1], sbuf[:count])))
    times = np.concatenate(pieces_t)
    states = np.concatenate(pieces_s)
    bounds = np.concatenate(([0], np.cumsum([p.size for p in pieces_t]))).astype(np.int64)
    # one step per jump: drop the steps from a path's last entry to the next path
    within = np.ones(times.size - 1, dtype=bool)
    within[bounds[1:-1] - 1] = False
    src, dst, hold = states[:-1][within], states[1:][within], np.diff(times)[within]
    b = np.zeros(n, dtype=np.int64)
    nt = np.zeros((n, n), dtype=np.int64)
    na = np.zeros(n, dtype=np.int64)
    r = np.zeros(n)
    np.add.at(b, states[bounds[:-1]], 1)
    np.add.at(r, src, hold)
    into = dst < n
    np.add.at(nt, (src[into], dst[into]), 1)
    np.add.at(na, src[~into], 1)
    return 0, 0, 0, attempts, retries, (b, nt, na, r), (times, states, bounds)


def simulate_sweep(words, keys, cum_pi, cum, total, n, horizon):
    """Simulate one path of the chain from time 0 up to ``horizon`` (which
    may be ``inf``) for each key.

    Path k draws from the PCG64 generator of ``SeedSequence(words +
    stream_words(keys[k]))``: one uniform u for its initial state, the
    number of ``cum_pi`` entries <= u but at most n - 1, then the chain as
    ``sim_path`` runs it, until absorption or the horizon.  The buffers
    grow as long as a path needs.

    Returns ``(times, states, bounds, ends)``: path k is
    ``times[bounds[k]:bounds[k + 1]]`` and ``states[...]``, its entry into
    its initial state at 0.0, then its jumps; ``ends[k]`` is its
    absorption epoch, or ``horizon`` when it is not absorbed.
    """
    times = np.empty(4 * keys.shape[0] + 64, dtype=np.float64)
    states = np.empty(times.shape[0], dtype=np.int64)
    bounds = np.zeros(keys.shape[0] + 1, dtype=np.int64)
    ends = np.empty(keys.shape[0], dtype=np.float64)
    used = 0
    for k in range(keys.shape[0]):
        gen = np.random.default_rng(
            np.random.SeedSequence(np.concatenate((words, stream_words(keys[k]))))
        )
        first = min(int(np.searchsorted(cum_pi, gen.random(), side="right")), n - 1)
        state, count, t = first, 0, 0.0
        while True:
            if used + 1 + count >= times.shape[0]:
                times = np.concatenate((times, np.empty_like(times)))
                states = np.concatenate((states, np.empty_like(states)))
            status, count, state, t = _run_chain(
                gen, cum, total, n, state, t, horizon, times[used + 1:], states[used + 1:], count
            )
            if status != 0:
                break
        times[used] = 0.0
        states[used] = first
        used += 1 + count
        bounds[k + 1] = used
        ends[k] = t if status == 1 else horizon
    return times[:used].copy(), states[:used].copy(), bounds, ends


# the Python bodies, as numba's dispatchers keep them
_PY_KERNELS = tuple(
    getattr(f, "py_func", f)
    for f in (sim_path, bridge_attempts, complete_panel_path, complete_sweep, simulate_sweep)
)
_HERE = os.path.dirname(os.path.abspath(__file__))
_C_SOURCE = os.path.join(_HERE, "_ckernels.c")
# no -ffast-math or -march: the arithmetic must round as the Python bodies do
_C_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def build(cc: str = "cc", cache_dir: str = os.path.join(_HERE, "__pycache__")):
    """The kernels compiled from ``_ckernels.c``: ``("c", kernels)``.

    ``kernels`` is ``(sim_path, bridge_attempts, complete_panel_path,
    complete_sweep, simulate_sweep)``.
    The shared library is built with the compiler ``cc`` unless
    ``cache_dir`` already holds it under its key; concurrent builds each
    write their own temporary file and rename it into place.  If the
    source is missing, the compiler is absent or fails, or the library
    does not load, returns ``("pure-python", <the Python bodies>)``.
    """
    try:
        module = _load_c(cc, cache_dir)
    except (OSError, ImportError, subprocess.SubprocessError):
        return "pure-python", _PY_KERNELS
    return "c", tuple(
        functools.update_wrapper(module.kernel(f.__name__, f), f) for f in _PY_KERNELS
    )


def _load_c(cc: str, cache_dir: str):
    with open(_C_SOURCE, "rb") as f:
        source = f.read()
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    key = hashlib.sha256(
        b"\0".join(
            [source, " ".join(_C_FLAGS).encode(), suffix.encode(), np.__version__.encode()]
        )
    ).hexdigest()[:16]
    path = os.path.join(cache_dir, f"_ckernels.{key}{suffix}")
    if not os.path.exists(path):
        _compile_c(cc, path, suffix)
    spec = importlib.util.spec_from_file_location(f"{__package__}._ckernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compile_c(cc: str, path: str, suffix: str) -> None:
    includes = [sysconfig.get_paths()["include"], np.get_include()]
    library = os.path.join(os.path.dirname(np.random.__file__), "lib", "libnpyrandom.a")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=".ckernels-build-", suffix=suffix, dir=os.path.dirname(path)
    )
    os.close(fd)
    try:
        subprocess.run(
            [cc, *_C_FLAGS, *(f"-I{d}" for d in includes), _C_SOURCE, library, "-lm", "-o", tmp],
            check=True, capture_output=True, timeout=300,
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


if HAVE_NUMBA:  # pragma: no cover - numba is not installed in every environment
    BACKEND = "numba"
else:
    BACKEND, (sim_path, bridge_attempts, complete_panel_path, complete_sweep, simulate_sweep) = (
        build()
    )
