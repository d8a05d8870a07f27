"""The byte ledger: the sha256 of every file that a fixed set of runs writes.

    PYTHONPATH=src python tests/byte_ledger.py --write
    PYTHONPATH=src python tests/byte_ledger.py --check

``--write`` recomputes every entry on the loaded kernel backend and
rewrites ``byte_ledger.json`` next to this file.  ``--check`` recomputes
them and prints each environment key that differs from the ledger's and
each ``entry/file`` whose sha256 moved; it exits 1 if a file moved.
``test_byte_ledger.py`` makes the same comparison and never rewrites the
ledger.  A change that moves bytes on purpose regenerates the ledger with
``--write`` and says which files moved and why.

The entries are ``write_study`` of both presets at seeds 10-12 and the six
files of ``test_kernels._cli_run`` (simulate, fit with ``--dump-paths``,
gof).  The ledger also records the environment it was made in: float
results, and so the bytes, may differ under another Python, numpy, libc
or machine.
"""

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


def entry(name: str) -> dict:
    """The sha256 of each file the run ``name`` writes, by relative path."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp) / "run"
        if name == "cli":
            from test_kernels import _cli_run

            _cli_run(root)
        else:
            _, preset, seed = name.split("/")
            write_study(run_study(PRESETS[preset], int(seed.removeprefix("seed"))), root)
        return _hashes(root)


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
    as ``entry/file``, or missing or extra on one side."""
    out = []
    for name in names:
        got, want = entry(name), ledger["files"][name]
        out += [f"{name}/{f}" for f in sorted(set(got) | set(want)) if got.get(f) != want.get(f)]
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
    ledger = {"environment": environment(), "files": {n: entry(n) for n in ENTRIES}}
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
