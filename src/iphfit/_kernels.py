"""Jump-chain kernels, and the panel file tokenizer.

The hot loops of trajectory simulation and Markov bridges live here.  Two
kernels do the package's work, each over many paths in one call:
``complete_sweep`` over a whole panel (each SE-step, and the
final-segment bridges of initialization) and ``simulate_sweep`` over a
whole simulated cohort or goodness-of-fit sample.  Each derives one
stream per path from entropy words and the path's key, as
``RandomStream.generator()`` does.  A third function,
``tokenize_panel``, splits a panel file in its canonical form into
columns for ``panelio.read_panel``; its Python body refuses every file.

``complete_sweep`` draws every bridge exactly from its endpoint-conditioned
law, by uniformization (Hobolth & Stone 2009): with ``mu`` the largest exit
rate and ``P = I + G/mu`` over the n + 1 states, a bridge from x to y over
a gap delta has ``R`` virtual jumps with ``P(R = r)`` proportional to
``Poisson(r; mu delta) (P^r)_xy``, at sorted uniform epochs, through states
drawn forward given the endpoint; the jumps that change state are kept.
``_Chain`` holds the powers of P and the step table, ``_series`` the
normalizer of one gap and endpoint pair (computed at the first segment
that needs it, once per sweep), ``_bridge`` draws one bridge and
``_complete_path`` one path; a censored path then runs on unconditioned
to absorption.  The C body walks the normalizer of a group with one
segment in the sweep only until that segment's R is certain, and draws
the same R.

``sim_path``, ``bridge_attempts`` and ``complete_panel_path`` run one path
on a ``numpy.random.Generator`` handed in by the caller.  The last two
draw bridges by rejection: they are plain Python, kept as references for
``bridge_sample``, the tests and the benchmark.  The forward runs rest on
one jump step, ``_jump``, and one loop, ``_run_chain``, which mirror the
helpers of ``_ckernels.c``.  Two backends run the sweeps and the
tokenizer, tried in this order:

- C: ``_ckernels.c``, compiled on the first import and cached in this
  package's ``__pycache__`` under a name keyed by the source, the
  compiler flags, the interpreter's extension suffix and the numpy
  version (see ``build``).  Its ``complete_sweep`` releases the GIL and
  completes the paths on up to one thread per usable CPU (at most 8, and
  one per 64 paths), in blocks handed out as the threads free up, each
  thread with normalizers of its own; it joins them in path order, so the
  thread count changes no output byte, no counter and no failure;
- pure Python: the bodies below as they are, on one thread, if compiling
  or loading the C file fails for any reason.

``BACKEND`` names the one in use.  The C sweeps consume each bit stream
exactly like the Python bodies do and compute every float the same way,
so both backends produce bitwise-identical paths, and a file reads the
same whether it is tokenized or not.  A compiled function runs every
call on its C body, which takes its Python body's positional arguments
and raises ``TypeError`` or ``ValueError`` for any it does not take (see
``_ckernels.c``); it exposes its Python body as ``py_func``, which runs
Python throughout.

Conventions inside this module only: states are 0-based, the absorbing
state has index n, and ``cum[x]`` holds the cumulative rates out of x over
the n+1 destinations (the n transient states with the self-rate zeroed,
then the exit rate), so ``cum[x, -1]`` is the total exit rate of x.  Each
forward jump consumes one exponential draw and, if it lands inside the
horizon, one uniform draw.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import hashlib
import importlib.util
import math
import os
import re
import subprocess
import sysconfig
import tempfile

import numpy as np

from .likelihood import flat_statistics

# numba is not a backend; bench/run.py reads this name
HAVE_NUMBA = False


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


def _run_chain(gen, cum, total, n, state, t, horizon, times, states, count):
    """Run the chain from ``state`` at ``t``, appending jumps to the
    buffers after ``count``, until it is absorbed (status 1), makes no
    jump before ``horizon`` (2), or finds the buffers full before a jump
    (0).  A state without exit rate draws nothing and ends with status 2
    however full the buffers are.  Returns ``(status, count, state, t)``."""
    cap = times.shape[0]
    while True:
        if count == cap and total[state] > 0.0:
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


def bridge_attempts(gen, x, y, duration, cum, total, n, max_attempts, times, states, start=0):
    """Rejection-sample a path from x over ``duration`` ending in y.

    Each attempt resimulates the jump chain from scratch, writing its jumps
    to the buffers from index ``start`` on at epochs from 0; an attempt is
    accepted iff the state occupied at ``duration`` equals y (an absorbed
    chain stays absorbed).  An attempt that fills the buffers is still
    accepted if it makes no further jump before ``duration``.  Returns
    ``(status, attempts, count)`` with status 0 = accepted (its jumps at
    ``start:count``), 1 = budget exhausted, 2 = buffer overflow within an
    attempt.
    """
    for attempt in range(1, max_attempts + 1):
        status, count, state, t = _run_chain(
            gen, cum, total, n, x, 0.0, duration, times, states, start
        )
        if status == 0 and _jump(gen, cum, total, n, state, t, duration)[0] >= 0:
            return 2, attempt, 0
        if state == y:
            return 0, attempt, count
    return 1, max_attempts, 0


def complete_panel_path(gen, obs_s, obs_x, cum, total, n, max_attempts, times, states):
    """Reconstruct one full trajectory consistent with its panel records,
    bridging by rejection.

    ``obs_s`` are the observation epochs on the homogeneous scale and
    ``obs_x`` the observed 0-based states (absorbing = n).  Every
    inter-observation segment is bridged by ``bridge_attempts``; if the
    final observed state is transient the chain is then simulated to
    absorption.  Jump epochs are absolute.  Returns ``(status, info,
    count, end_time, attempts)`` with status 0 = completed (``end_time``
    is the absorption epoch), 1 = bridge budget exhausted on segment
    ``info``, 2 = buffer overflow, 3 = dead-end state reached during the
    censored continuation; ``attempts`` counts the bridge attempts
    started.  The sweeps do not call it; it is the rejection reference.
    """
    count = 0
    attempts = 0
    m = obs_s.shape[0] - 1
    for seg in range(m):
        s1 = obs_s[seg]
        status, used, end = bridge_attempts(
            gen, obs_x[seg], obs_x[seg + 1], obs_s[seg + 1] - s1, cum, total, n, max_attempts,
            times, states, count,
        )
        attempts += used
        if status:
            return status, seg, 0, 0.0, attempts
        times[count:end] += s1
        count = end
    if obs_x[m] == n:
        return 0, m, count, times[count - 1], attempts
    status, count, _state, t = _run_chain(
        gen, cum, total, n, obs_x[m], obs_s[m], np.inf, times, states, count
    )
    if status == 1:
        return 0, m, count, t, attempts
    if status == 2:  # no exit rate: a dead end
        return 3, m, 0, 0.0, attempts
    return 2, m, 0, 0.0, attempts


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


# relative truncation error of a bridge normalizer series
_SERIES_TOL = 2.0**-53


class _Chain:
    """The uniformized chain of one sweep: ``P = I + G/mu`` over the n + 1
    states, the absorbing row the identity, its powers ``P^0, P^1, ...``
    and its step table, both computed on demand.  ``P^(j+1)[i, c]`` is the
    sum of ``P^j[i, k] P[k, c]`` over k in ascending order, as in
    ``_ckernels.c``."""

    def __init__(self, ptrans):
        self.p = ptrans
        self.arrays = [np.eye(ptrans.shape[0])]
        self.pow = [self.arrays[0].tolist()]
        self.table = []

    def power(self, r):
        """``P^r`` as nested lists, with every lower power."""
        p = self.p
        while len(self.pow) <= r:
            prev = self.arrays[-1]
            acc = prev[:, :1] * p[:1, :]
            for k in range(1, p.shape[0]):
                acc = acc + prev[:, k:k + 1] * p[k:k + 1, :]
            self.arrays.append(acc)
            self.pow.append(acc.tolist())
        return self.pow[r]

    def steps(self, rows):
        """The step table of the bridges, extended to k < ``rows`` at
        least: ``steps[k][y][z][c]`` is the running sum over c' <= c of
        ``P[z, c'] (P^k)[c', y]``, the weights of the states a bridge to y
        enters from z with k virtual jumps left.  A row is a fixed function
        of P, so extending the table changes none."""
        table = self.table
        if len(table) < rows:
            self.power(rows - 1)
            pk = np.array(self.arrays[len(table):rows]).transpose(0, 2, 1)  # [k, y, c]
            table += np.cumsum(self.p[None, None] * pk[:, :, None, :], axis=3).tolist()
        return table


def _series(chain, q, x, y, vcap):
    """The normalizer of a bridge from x to y over a gap with ``mu *
    delta = q``: ``(status, norm)``, ``norm = (sums, m, lo, hi)``.

    The terms ``w_r (P^r)_xy`` are walked from the mode ``m = floor(q)``,
    where ``w_m = 1`` (the Poisson weights divided by the mode's, so a
    large q does not underflow), with ``w_(r-1) = w_r (r (1/q))`` and
    ``w_(r+1) = w_r (q (1/(r+1)))``: down to ``lo`` while the Poisson mass
    below could exceed ``_SERIES_TOL`` times the running total, then up to
    ``hi`` likewise.  ``sums`` holds the running total after each term in
    that order; the last is the normalizer.  Status 4 (and no norm) when
    the walk would pass ``vcap`` virtual jumps, else 0.
    """
    if not q <= vcap:  # nan and inf too
        return 4, None
    m = int(q)
    w = 1.0
    total = w * chain.power(m)[x][y]
    sums = [total]
    pw = chain.pow
    r = m
    if r > 0:
        down = 1.0 / q
        while r > 0 and w * r > _SERIES_TOL * total * (q - r + 1.0):
            w = w * (r * down)
            r -= 1
            total = total + w * pw[r][x][y]
            sums.append(total)
    lo = r
    w, r = 1.0, m
    while True:
        nxt = w * (q * (1.0 / (r + 1)))
        if not nxt * (r + 2.0) > _SERIES_TOL * total * (r + 2.0 - q):
            return 0, (sums, m, lo, r)
        if r == vcap:
            return 4, None
        r += 1
        w = nxt
        total = total + w * chain.power(r)[x][y]
        sums.append(total)


def _draw_count(norm, target):
    """The virtual-jump count: the r of the first running total in
    ``_series``' order above ``target``, or of the last place the total
    grows if rounding leaves none."""
    sums, m, lo, _hi = norm
    j = bisect.bisect_right(sums, target)
    if j == len(sums):
        j -= 1
        while j > 0 and not sums[j] > sums[j - 1]:
            j -= 1
    return m - j if j <= m - lo else j + lo


def _bridge(gen, steps, n, s1, s2, x, y, norm, u, times, states, count):
    """Draw the bridge from x at ``s1`` to y at ``s2`` and append its kept
    jumps to the buffers after ``count``.  Returns ``(status, count, R)``:
    status 0, 2 when the buffers are full before a kept jump, or 5 when
    the floats run out (two kept epochs in one, or every weight of a step
    underflowing); ``R`` is the virtual-jump count.

    ``norm`` is ``_series``' for this gap and pair, and the uniform u, the
    bridge's first draw, draws R as ``_draw_count`` at u times the
    normalizer.  R uniforms follow, and
    virtual jump i (from 1) falls at ``s2 - delta * v``, v the i-th
    largest of them.  Then the states are drawn forward, one uniform u
    each: jump i < R leaves z for the first c at which ``steps[R - i][y][z]``
    (the running sum of ``P[z, c] (P^(R-i))[c, y]``) exceeds u times its
    last entry, or the last c at which it grows if rounding leaves none;
    jump R enters y.
    An absorbed bridge draws no more (it ends its path, whose stream is
    then left unread).  Each kept epoch not above the previous one (or
    ``s1``) is raised to the next float.
    """
    delta = s2 - s1
    big_r = _draw_count(norm, u * norm[0][-1])
    if big_r == 0:
        return 0, count, 0
    epochs = gen.random(big_r)
    pick = gen.random(big_r - 1).tolist()
    kept = []
    z = x
    for i in range(1, big_r + 1):
        if z == n:
            break
        if i == big_r:
            nxt = y
        else:
            sums = steps[big_r - i][y][z]
            nxt = bisect.bisect_right(sums, pick[i - 1] * sums[n])
            if nxt > n:
                nxt = n
                while nxt >= 0 and not sums[nxt] > (sums[nxt - 1] if nxt else 0.0):
                    nxt -= 1
                if nxt < 0:
                    return 5, count, big_r
        if nxt != z:
            kept.append((i, nxt))
        z = nxt
    ascending = np.sort(epochs).tolist() if kept else None
    prev = s1
    for i, state in kept:
        if count == times.shape[0]:
            return 2, count, big_r
        t = s2 - delta * ascending[big_r - i]
        if not t > prev:
            t = math.nextafter(prev, math.inf)
            if t > s2:
                return 5, count, big_r
        times[count] = t
        states[count] = state
        count += 1
        prev = t
    return 0, count, big_r


def _complete_path(gen, chain, norms, mu, vcap, obs_s, obs_x, groups, cum, total, n, times,
                   states):
    """Complete one path: bridge each segment with ``_bridge``, then run a
    censored path on to absorption.  Returns ``(status, info, count,
    virtual, computed)``: status 0, 1 an impossible endpoint pair, 2
    buffers full, 3 a dead end in the censored run, 4 a bridge needing
    more than ``vcap`` virtual jumps, 5 as ``_bridge``; ``info`` is the
    segment it ended in, ``virtual`` the virtual jumps drawn and
    ``computed`` the series it computed.

    ``norms[g]`` is group g's normalizer, None until a segment needs it.
    A segment whose group has none yet fails with 4 when ``q = mu * delta``
    passes ``vcap``.  One from x to x with q < 1 takes R = 0 when its
    first uniform u has ``u * exp(q) < 1``: the normalizer is at most
    ``exp(q)``, and the mode's term is 1.  Otherwise its group's series is
    computed then (a zero total fails with 1), and the step table extended
    to its ``hi``.
    """
    count = virtual = computed = 0
    m = obs_s.shape[0] - 1
    for seg in range(m):
        s1, s2, x, y = float(obs_s[seg]), float(obs_s[seg + 1]), int(obs_x[seg]), int(obs_x[seg + 1])
        g = groups[seg]
        u = gen.random()
        if norms[g] is None:
            q = mu * (s2 - s1)
            if not q <= vcap:  # nan and inf too
                return 4, seg, 0, virtual, computed
            if x == y and q < 1.0 and u * math.exp(q) < 1.0:
                continue
            status, norm = _series(chain, q, x, y, vcap)
            computed += 1
            if status:
                return status, seg, 0, virtual, computed
            if not norm[0][-1] > 0.0:
                return 1, seg, 0, virtual, computed
            norms[g] = norm
            chain.steps(norm[3])
        status, count, big_r = _bridge(
            gen, chain.table, n, s1, s2, x, y, norms[g], u, times, states, count
        )
        virtual += big_r
        if status:
            return status, seg, 0, virtual, computed
    if obs_x[m] == n:
        return 0, m, count, virtual, computed
    # censored: continue unconditioned from the last observed state
    status, count, _state, _t = _run_chain(
        gen, cum, total, n, obs_x[m], obs_s[m], np.inf, times, states, count
    )
    if status == 1:
        return 0, m, count, virtual, computed
    if status == 2:  # no exit rate: a dead end
        return 3, m, 0, virtual, computed
    return 2, m, 0, virtual, computed


def complete_sweep(
    words, iteration, keys, obs_s, obs_x, starts, groups, cum, total, n, mu, ptrans, vcap, cap
):
    """Complete every path once: one SE-step, or the bridges of
    initialization.

    Path k is observed at the epochs ``obs_s[starts[k]:starts[k + 1]]`` in
    the 0-based states ``obs_x[...]``; ``groups[i]`` names the bridge
    group of the segment from observation i to i + 1 (any value at a
    path's last observation): segments of one group share their gap and
    endpoint states, and so one normalizer.  ``ptrans`` is ``I + G/mu``
    with ``mu`` the largest exit rate (see ``_bridge``).  Path k is
    completed by ``_complete_path`` with ``cap`` jumps of room, drawing
    from the PCG64 generator of ``SeedSequence(words +
    stream_words(iteration, keys[k]))``, in path order; a group's
    normalizer is computed at the first segment that needs it, and kept
    for the rest of the sweep.

    Returns ``(status, path, info, work, stats, paths)``.  Status 0:
    ``work`` is ``(virtual, series)``, the virtual jumps drawn and the
    normalizers computed; ``stats`` is ``(B, N_xy, N_x, R_x)`` summed in
    path order, then jump order; and ``paths`` is ``(times, states,
    bounds)``: path i is ``times[bounds[i]:bounds[i + 1]]``, starting with
    its entry into its first observed state at 0.0 and ending with its
    absorption.  Otherwise ``path`` is the first failing k, ``info`` its
    segment, ``status`` that of ``_complete_path`` (1 an impossible
    endpoint pair, 4 a bridge needing more than ``vcap`` virtual jumps, or
    a draw's failure), and ``work``, ``stats`` and ``paths`` are None.
    """
    chain = _Chain(ptrans)
    norms = [None] * (int(groups.max()) + 1 if groups.size else 0)
    virtual = series = 0
    tbuf = np.empty(cap, dtype=np.float64)
    sbuf = np.empty(cap, dtype=np.int64)
    pieces_t, pieces_s = [], []
    for k in range(starts.shape[0] - 1):
        a, z = starts[k], starts[k + 1]
        seed = np.random.SeedSequence(np.concatenate((words, stream_words(iteration, keys[k]))))
        status, info, count, drawn, computed = _complete_path(
            np.random.default_rng(seed), chain, norms, mu, vcap, obs_s[a:z], obs_x[a:z],
            groups[a:z], cum, total, n, tbuf, sbuf,
        )
        if status != 0:
            return status, k, info, None, None, None
        virtual += drawn
        series += computed
        pieces_t.append(np.concatenate(([0.0], tbuf[:count])))
        pieces_s.append(np.concatenate((obs_x[a:a + 1], sbuf[:count])))
    times = np.concatenate(pieces_t)
    states = np.concatenate(pieces_s)
    bounds = np.concatenate(([0], np.cumsum([p.size for p in pieces_t]))).astype(np.int64)
    # every path ends at its absorption, so none has a censored tail
    stats = flat_statistics(times, states, bounds, times[bounds[1:] - 1], n)
    return 0, 0, 0, (virtual, series), (
        stats.start_counts, stats.jump_counts, stats.absorption_counts, stats.occupation
    ), (times, states, bounds)


def simulate_sweep(words, keys, cum_pi, cum, total, n, horizon):
    """Simulate one path of the chain from time 0 up to ``horizon`` (which
    may be ``inf``) for each key.

    Path k draws from the PCG64 generator of ``SeedSequence(words +
    stream_words(keys[k]))``: one uniform u for its initial state, the
    number of ``cum_pi`` entries <= u but at most n - 1, then the chain as
    ``sim_path`` runs it, until absorption or the horizon.  The buffers
    grow as long as a path needs.

    Returns ``(times, states, bounds)``: path k is
    ``times[bounds[k]:bounds[k + 1]]`` and ``states[...]``, its entry into
    its initial state at 0.0, then its jumps.
    """
    times = np.empty(4 * keys.shape[0] + 64, dtype=np.float64)
    states = np.empty(times.shape[0], dtype=np.int64)
    bounds = np.zeros(keys.shape[0] + 1, dtype=np.int64)
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
    return times[:used].copy(), states[:used].copy(), bounds


def tokenize_panel(data):
    r"""The rows of the panel file ``data`` (bytes) in its canonical form:
    ``(ids, path, times, states)``, or None for any other bytes.

    The canonical form is the header ``path_id,time,state``, then rows of
    an id (one or more bytes in 0x21-0x7E but the quote and the comma), a
    time (``[+-]?(digits[.digits*]|.digits)([eE][+-]?digits)?``) and a
    state (an optional ``+`` and 1-18 digits), separated by commas, each
    row ending in ``\n`` or ``\r\n``, the last one possibly at the end of
    the data.  ``ids`` are the distinct ids as str, in first-occurrence
    order, and row i has the id ``ids[path[i]]``, the time ``times[i]``
    (as ``float`` reads it) and the state ``states[i]`` (int64).  This
    Python body returns None for every file, so that ``panelio`` reads it
    with its ``csv`` reader; the compiled one tokenizes.
    """
    return None


# the Python bodies, kept before the module rebinds their names
_PY_BODIES = (complete_sweep, simulate_sweep, tokenize_panel)
_HERE = os.path.dirname(os.path.abspath(__file__))
_C_SOURCE = os.path.join(_HERE, "_ckernels.c")
# no -ffast-math or -march: the arithmetic must round as the Python bodies do
_C_FLAGS = ("-O2", "-fPIC", "-shared", "-pthread", "-ffp-contract=off")


def build(cc: str = "cc", cache_dir: str = os.path.join(_HERE, "__pycache__")):
    """The functions compiled from ``_ckernels.c``: ``("c", (complete_sweep,
    simulate_sweep, tokenize_panel))``.

    The shared library is built with the compiler ``cc`` unless
    ``cache_dir`` already holds it under its key; concurrent builds each
    write their own temporary file and rename it into place, and a build
    deletes the libraries other keys left there for this interpreter.  If the
    source is missing, the compiler is absent or fails, or the library
    does not load, returns ``("pure-python", <the Python bodies>)``.
    """
    try:
        module = _load_c(cc, cache_dir)
    except (OSError, ImportError, subprocess.SubprocessError):
        return "pure-python", _PY_BODIES
    return "c", _bind(module)


def _bind(module):
    """The functions of the loaded library ``module``, each running every
    call on its C body, with its Python body as ``py_func``."""

    def bind(py_body):
        c_body = getattr(module, py_body.__name__)

        @functools.wraps(py_body)
        def compiled(*args):
            return c_body(*args)

        compiled.py_func = py_body
        return compiled

    return tuple(map(bind, _PY_BODIES))


def _load_library(path: str):
    """The extension module built at ``path``."""
    spec = importlib.util.spec_from_file_location(f"{__package__}._ckernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
        _remove_stale(cache_dir, key, suffix)
    return _load_library(path)


def _remove_stale(cache_dir: str, key: str, suffix: str) -> None:
    """Delete the libraries with this extension suffix that other keys
    built (older sources, flags or numpy versions).  Libraries for other
    interpreters have other suffixes and stay."""
    built = re.compile(r"_ckernels\.[0-9a-f]{16}" + re.escape(suffix))
    own = f"_ckernels.{key}{suffix}"
    for name in os.listdir(cache_dir):
        if name != own and built.fullmatch(name):
            with contextlib.suppress(OSError):  # another process removed it first
                os.remove(os.path.join(cache_dir, name))


def _compile_c(cc: str, path: str, suffix: str, flags=_C_FLAGS) -> None:
    includes = [sysconfig.get_paths()["include"], np.get_include()]
    library = os.path.join(os.path.dirname(np.random.__file__), "lib", "libnpyrandom.a")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=".ckernels-build-", suffix=suffix, dir=os.path.dirname(path)
    )
    os.close(fd)
    try:
        subprocess.run(
            [cc, *flags, *(f"-I{d}" for d in includes), _C_SOURCE, library, "-lm", "-o", tmp],
            check=True, capture_output=True, timeout=300,
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


BACKEND, (complete_sweep, simulate_sweep, tokenize_panel) = build()
