"""The benchmark's hooks still find every package name they wrap.

``bench/layers.py`` times the package by replacing functions and methods
by name; a name that has gone makes ``install_full`` raise.  The bench
files are imported as they are, without writing bytecode next to them.
"""

import os
import sys

from iphfit import _kernels, estimator, simulate

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
