"""The C kernels under AddressSanitizer and UndefinedBehaviorSanitizer.

    PYTHONPATH=src python tests/sanitize.py --check

compiles ``_ckernels.c`` as ``_kernels`` does, but with ``-O1 -g
-fsanitize=address,undefined -fno-sanitize-recover=undefined``, into a
temporary directory, and runs tests on that library in a child Python.
The child has both runtimes, found by ``cc -print-file-name``, in
``LD_PRELOAD``, ``ASAN_OPTIONS=detect_leaks=0`` (CPython leaks by design)
and ``PYTHONMALLOC=malloc`` (so that the sanitizers see the allocations
of the Python allocator too).  It binds the library's functions in place
of the built ones and runs the kernel, bridge, simulate, ledger,
panel-reader and input-fuzz tests, but for the build tests, which compile
and load the library of the build: every status of a sweep, one CPU and
all of them, and the untrusted bytes that the tokenizer parses.
pytest captures only ``sys.stdout`` and ``sys.stderr`` there, so that a
sanitizer's report, written to file descriptor 2 as it ends the child,
is kept.  ``--check`` prints the child's output and exits with its
status, 0 only when every test passed and no sanitizer reported.
``test_sanitize.py`` runs a subset the same way.  The package gains no
option for this.
"""

import os
import subprocess
import sys
import sysconfig
import tempfile

from iphfit import _kernels

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLAGS = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined",
         "-fPIC", "-shared", "-pthread", "-ffp-contract=off")
RUNTIMES = ("libasan.so", "libubsan.so")
FULL = ("tests/test_kernels.py", "tests/test_bridges.py", "tests/test_simulate.py",
        "tests/test_byte_ledger.py", "tests/test_panel_reader.py", "tests/test_input_fuzz.py",
        "-k", "not build and not compiles")

# the child: the sanitized library's functions in place of the built ones,
# then pytest on the remaining arguments
CHILD = """\
import sys
import pytest
from iphfit import _kernels
module = _kernels._load_library(sys.argv[1])
_kernels.BACKEND = "c"
_kernels.complete_sweep, _kernels.simulate_sweep, _kernels.tokenize_panel = _kernels._bind(module)
_kernels._load_c = lambda cc, cache_dir: module
sys.exit(pytest.main(sys.argv[2:]))
"""


def runtimes(cc: str = "cc") -> tuple[list[str], list[str]]:
    """The paths of the sanitizer runtimes, and the names of those the
    toolchain lacks."""
    found, missing = [], []
    for name in RUNTIMES:
        try:  # the name alone when the toolchain has no such file
            path = subprocess.run([cc, f"-print-file-name={name}"], capture_output=True,
                                  text=True, check=True, timeout=60).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            path = name
        if os.path.isabs(path) and os.path.exists(path):
            found.append(path)
        else:
            missing.append(name)
    return found, missing


def run(args, cc: str = "cc") -> tuple[int, str]:
    """The exit status and output of pytest with ``args`` on the sanitized
    library, in a child Python."""
    found, missing = runtimes(cc)
    if missing:
        return 2, f"the toolchain has no {', '.join(missing)}"
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    with tempfile.TemporaryDirectory(prefix="iphfit-sanitize-") as work:
        library = os.path.join(work, f"_ckernels{suffix}")
        _kernels._compile_c(cc, library, suffix, FLAGS)
        env = dict(os.environ)
        package = os.path.dirname(os.path.dirname(os.path.abspath(_kernels.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package, env.get("PYTHONPATH")]))
        env["LD_PRELOAD"] = " ".join(found)
        env["ASAN_OPTIONS"] = "detect_leaks=0"
        env["PYTHONMALLOC"] = "malloc"
        done = subprocess.run(
            [sys.executable, "-c", CHILD, library, "-q", "-p", "no:cacheprovider",
             "--capture=sys", *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=1800,
        )
    return done.returncode, done.stdout + done.stderr


def main(argv) -> int:
    if argv != ["--check"]:
        print(__doc__, file=sys.stderr)
        return 2
    code, output = run(FULL)
    print(output)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
