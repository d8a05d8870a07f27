"""The byte ledger: the sha256 of every file that a fixed set of runs writes.

    PYTHONPATH=src python tests/byte_ledger.py --write
    PYTHONPATH=src python tests/byte_ledger.py --check

``--write`` recomputes every entry on the loaded kernel backend and
rewrites ``byte_ledger.json`` next to this file.  ``--check`` recomputes
them and prints each environment key that differs from the ledger's,
each ``entry/file`` whose sha256 moved and each ``entry/work`` whose
counters moved; it exits 1 if any of them moved.
``test_byte_ledger.py`` makes the same comparison and never rewrites the
ledger.  A change that moves bytes on purpose regenerates the ledger with
``--write`` and says which files moved and why.

The entries are ``write_study`` of both presets at seeds 10-12 and the six
files of ``test_kernels._cli_run`` (simulate, fit with ``--dump-paths``,
gof).  For each study entry the ledger also records its ``work``: the
``SweepWork`` counters summed over every sweep of every window, so that a
change which keeps the bytes but not the work done shows too.  The ledger
also records the environment it was made in: float results, and so the
bytes, may differ under another Python, numpy, libc or machine.
"""

import dataclasses
import hashlib
import json
import pathlib
import platform
import sys
import tempfile
import warnings

import numpy as np

from iphfit import run_study, write_study
from iphfit.studies import PRESETS

LEDGER = pathlib.Path(__file__).with_name("byte_ledger.json")
SEEDS = (10, 11, 12)
ENTRIES = tuple(f"study/{p}/seed{s}" for p in PRESETS for s in SEEDS) + ("cli",)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "platform": sys.platform,
        "libc": " ".join(platform.libc_ver()),
    }


def _hashes(root: pathlib.Path) -> dict:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _work(outcome) -> dict:
    """The ``SweepWork`` of every sweep of a study, summed field by field."""
    works = [r.work for h in outcome.horizons for r in h.result.trace]
    return {
        f.name: sum(getattr(w, f.name) for w in works)
        for f in dataclasses.fields(works[0])
    }


def entry(name: str) -> tuple[dict, dict | None]:
    """The sha256 of each file the run ``name`` writes, by relative path,
    and the summed work of its sweeps (None for the CLI run)."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp) / "run"
        if name == "cli":
            from test_kernels import _cli_run

            _cli_run(root)
            work = None
        else:
            _, preset, seed = name.split("/")
            outcome = run_study(PRESETS[preset], int(seed.removeprefix("seed")))
            write_study(outcome, root)
            work = _work(outcome)
        return _hashes(root), work


def mismatch(ledger: dict) -> list[str]:
    """The environment keys whose value here differs from the ledger's,
    as ``key: ledger value != value here``."""
    here = environment()
    return [
        f"{key}: {want!r} != {here.get(key)!r}"
        for key, want in ledger["environment"].items() if here.get(key) != want
    ]


def differences(ledger: dict, names) -> list[str]:
    """Each file of the entries ``names`` whose hash is not the ledger's,
    as ``entry/file``, or missing or extra on one side, and ``entry/work``
    where the summed work is not the ledger's."""
    out = []
    for name in names:
        (got, work), want = entry(name), ledger["files"][name]
        out += [f"{name}/{f}" for f in sorted(set(got) | set(want)) if got.get(f) != want.get(f)]
        if work != ledger["work"].get(name):
            out.append(f"{name}/work")
    return out


def main(argv) -> int:
    if argv not in (["--write"], ["--check"]):
        print(__doc__, file=sys.stderr)
        return 2
    warnings.filterwarnings("ignore", "density underflow at observation", RuntimeWarning)
    if argv == ["--check"]:
        ledger = json.loads(LEDGER.read_text())
        for line in mismatch(ledger):
            print(f"environment {line}")
        moved = differences(ledger, ENTRIES)
        for line in moved:
            print(f"moved {line}")
        return 1 if moved else 0
    runs = {n: entry(n) for n in ENTRIES}
    ledger = {
        "environment": environment(),
        "files": {n: files for n, (files, _) in runs.items()},
        "work": {n: work for n, (_, work) in runs.items() if work is not None},
    }
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
