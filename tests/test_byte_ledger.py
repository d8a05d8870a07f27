"""Every file of the ledgered runs keeps the sha256 in ``byte_ledger.json``,
and every study its summed sweep work.

The runs are recomputed on the compiled sweeps at all usable CPUs and at
one, and on the Python bodies (``py_func``) for the Weibull studies and
the CLI files; a Gompertz study on the Python bodies takes several
seconds a window, so that subset leaves it out.  In an environment other
than the ledger's the tests skip and name the difference.  The ledger is
only ever rewritten by ``python tests/byte_ledger.py --write``.
"""

import json
import os

import pytest

import byte_ledger
from byte_ledger import differences, mismatch
from iphfit import _kernels

LEDGER = json.loads(byte_ledger.LEDGER.read_text())
MISMATCH = mismatch(LEDGER)
PYTHON_SUBSET = tuple(n for n in byte_ledger.ENTRIES if not n.startswith("study/gompertz/"))

pytestmark = [
    pytest.mark.skipif(
        bool(MISMATCH), reason="the ledger was made elsewhere: " + "; ".join(MISMATCH)
    ),
    # the Gompertz fits' known initialization underflow; bytes are what is checked here
    pytest.mark.filterwarnings("ignore:density underflow at observation:RuntimeWarning"),
]
compiled = pytest.mark.skipif(
    _kernels.BACKEND == "pure-python", reason="the C kernels did not build or load"
)


def test_ledger_lists_every_entry():
    assert sorted(LEDGER["files"]) == sorted(byte_ledger.ENTRIES)
    assert len(LEDGER["files"]["cli"]) == 6
    assert sorted(LEDGER["work"]) == sorted(n for n in byte_ledger.ENTRIES if n != "cli")


@compiled
def test_ledger_holds_on_all_cpus():
    assert differences(LEDGER, byte_ledger.ENTRIES) == []


@compiled
def test_ledger_holds_on_one_cpu():
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        bad = differences(LEDGER, byte_ledger.ENTRIES)
    finally:
        os.sched_setaffinity(0, cpus)
    assert bad == []


def test_ledger_holds_on_python_bodies(monkeypatch):
    for name in ("complete_sweep", "simulate_sweep", "tokenize_panel"):
        kernel = getattr(_kernels, name)
        monkeypatch.setattr(_kernels, name, getattr(kernel, "py_func", kernel))
    assert differences(LEDGER, PYTHON_SUBSET) == []
