"""The benchmark's hooks still find every package name they wrap.

``bench/layers.py`` times the package by replacing functions and methods
by name; a name that has gone makes ``install_full`` raise.  The bench
files are imported as they are, without writing bytecode next to them.
"""

import os
import sys
from collections import Counter

from iphfit import _kernels, estimator, simulate
from iphfit.studies import WEIBULL_STUDY, run_study

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_bench_hooks_install_and_restore(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH_DIR)
    import layers
    from tracing import Tracer

    originals = (estimator.sem_iteration, simulate.bridge_sample, _kernels.complete_panel_path)
    tracer = Tracer()
    try:
        layers.install_full(tracer, [])
        assert simulate.bridge_sample is not originals[1]
    finally:
        tracer.restore()
        for name in ("checks", "layers", "tracing"):
            sys.modules.pop(name, None)
    assert (estimator.sem_iteration, simulate.bridge_sample,
            _kernels.complete_panel_path) == originals
    assert hasattr(_kernels, "HAVE_NUMBA")  # bench/run.py reads it on every run


def test_timing_hooks_see_every_fit_and_sweep(monkeypatch, tmp_path):
    """``fit_s`` and ``sweep_s`` are the spans of ``estimator.fit`` and
    ``estimator.sem_iteration``, wrapped as ``Tracer.patch_function`` wraps
    them: in every iphfit module that holds the original.  The wrappers
    see one ``sem_iteration`` call per SEM iteration of each fit, and one
    ``fit`` call per window of a study and per ``iphfit fit`` run; a
    refactor that inlined the loop or bypassed the module attribute would
    otherwise zero ``sweep_s`` without failing anything."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH_DIR)
    from test_kernels import _cli_run
    from tracing import Tracer

    calls = Counter()

    def counting(name):
        def make(func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return wrapper

        return make

    tracer = Tracer()
    try:
        tracer.patch_function(estimator, "fit", counting("fit"))
        tracer.patch_function(estimator, "sem_iteration", counting("sem_iteration"))
        outcome = run_study(WEIBULL_STUDY, 3, paths=200, horizons=(5.0, 3.0))
        iterations = [h.result.iterations_used for h in outcome.horizons]
        assert calls == {"fit": 2, "sem_iteration": sum(iterations)}
        assert min(iterations) > 1
        calls.clear()
        _cli_run(tmp_path / "cli")
        assert calls["fit"] == 1 and calls["sem_iteration"] > 1
    finally:
        tracer.restore()
        sys.modules.pop("tracing", None)
