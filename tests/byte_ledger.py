"""The byte ledger: the sha256 of every file that a fixed set of runs writes.

    PYTHONPATH=src python tests/byte_ledger.py --write

recomputes every entry on the loaded kernel backend and rewrites
``byte_ledger.json`` next to this file.  ``test_byte_ledger.py`` checks the
entries against it and never rewrites it.  A change that moves bytes on
purpose regenerates the ledger with this script and says which files moved
and why.

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


def main(argv) -> int:
    if argv != ["--write"]:
        print(__doc__, file=sys.stderr)
        return 2
    warnings.filterwarnings("ignore", "density underflow at observation", RuntimeWarning)
    ledger = {"environment": environment(), "files": {n: entry(n) for n in ENTRIES}}
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
