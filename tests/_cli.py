"""Start the iphfit command line in a child process.

The children must run the same copy of the package as the test process,
whether it was installed or found through a relative ``PYTHONPATH=src``
that stops resolving once a child runs in another directory.
"""

import os
import shutil
import sys

import iphfit

# the directory that holds the imported ``iphfit`` package
PACKAGE_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(iphfit.__file__)))


def command(target=None):
    """The argv prefix that runs the CLI.

    The installed ``iphfit`` script when one is on ``PATH``.  Otherwise
    ``python -m iphfit``, or, given a ``module:function`` console-script
    target, the call that pip's generated script makes.
    """
    script = shutil.which("iphfit")
    if script:
        return [script]
    if target is None:
        return [sys.executable, "-m", "iphfit"]
    code = (
        "import sys; from importlib.metadata import EntryPoint; "
        f"sys.exit(EntryPoint('iphfit', {target!r}, 'console_scripts').load()())"
    )
    return [sys.executable, "-c", code]


def env():
    """The child environment.

    ``PYTHONPATH`` starts with the absolute package directory.
    """
    child = dict(os.environ)
    inherited = child.get("PYTHONPATH")
    child["PYTHONPATH"] = (
        PACKAGE_PARENT + os.pathsep + inherited if inherited else PACKAGE_PARENT
    )
    return child
