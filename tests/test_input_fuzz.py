"""Mutated input files never end the command line in a traceback.

A seeded property test: each example mutates one config, panel or report
file (a value replaced, one character overwritten or inserted, among them
a non-ASCII one and a byte that is not UTF-8, a line dropped or repeated,
the file cut short) and runs ``simulate``, ``fit``
or ``gof`` on it in-process.  Every run must return 0, 2, 3 or 4; an
exception escaping ``main`` fails the example.  The base files are small
and cap the SEM and ascent iterations, so one mutation cannot make a run
slow; warnings are not what is checked here and are silenced.
"""

import os
import re
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from iphfit.cli import main

CONFIG = """[model]
n = 2
family = weibull
beta0 = 2.0
beta = 3.0
pi = 0.5, 0.5
lambda = -3.0, 0.1; 0.01, -0.1

[estimation]
eta = 1e-4
e_ell = 0.01
seed = 5
max_sem_iterations = 4
gd_max_steps = 60
homog_iterations = 4
homog_tail_average = 2

[study]
paths = 16
horizon = 3
delta = 0.5
"""

EXITS = {0, 2, 3, 4}
VALUES = ("0", "-1", "1", "2", "0.5", "1e-300", "1e-9", "1e300", "nan", "inf", "", "x",
          "gompertz", "homogeneous", "1, 0", "0.5; 0.5")
# "\udcff" is written as the raw byte 0xff (surrogateescape): a file that is not UTF-8
CHARS = ("0", "9", "-", ".", "e", ",", ";", "=", " ", "\n", "x", "\u00e9", "\udcff")

MUTATIONS = st.one_of(
    st.tuples(st.just("value"), st.integers(0, 10_000), st.sampled_from(VALUES)),
    st.tuples(st.just("overwrite"), st.integers(0, 10_000), st.sampled_from(CHARS)),
    st.tuples(st.just("insert"), st.integers(0, 10_000), st.sampled_from(CHARS)),
    st.tuples(st.just("drop line"), st.integers(0, 10_000), st.just("")),
    st.tuples(st.just("repeat line"), st.integers(0, 10_000), st.just("")),
    st.tuples(st.just("cut"), st.integers(0, 10_000), st.just("")),
)

SETTINGS = settings(
    derandomize=True, database=None, deadline=None, max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)


def mutate(text: str, mutation) -> str:
    kind, at, arg = mutation
    if kind == "value":
        tokens = list(re.finditer(r"[^\s,;=\[\]]+", text))
        token = tokens[at % len(tokens)]
        return text[:token.start()] + arg + text[token.end():]
    if kind in ("drop line", "repeat line"):
        lines = text.splitlines(keepends=True)
        i = at % len(lines)
        return "".join(lines[:i] + lines[i:i + 1] * (kind == "repeat line") + lines[i + 1:])
    i = at % len(text)
    if kind == "overwrite":
        return text[:i] + arg + text[i + 1:]
    if kind == "insert":
        return text[:i] + arg + text[i:]
    return text[:i]


def run(argv) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    assert code in EXITS, (argv, code)
    return code


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A config, the panel it simulates and the report of its fit."""
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "run.ini"
    config.write_text(CONFIG)
    assert run(["simulate", "--config", str(config), "--out", str(root / "panel.csv")]) == 0
    assert run(["fit", "--panel", str(root / "panel.csv"), "--config", str(config),
                "--out", str(root / "fit")]) == 0
    return {name: (root / path).read_text() for name, path in
            (("config", "run.ini"), ("panel", "panel.csv"), ("report", "fit/report.txt"))}


def run_mutated(base, changed: str, mutation, command) -> None:
    """``command(work, paths)`` on the base files written to a fresh
    directory, ``changed`` mutated."""
    with tempfile.TemporaryDirectory(prefix="iphfit-fuzz-") as work:
        paths = {}
        for name, text in base.items():
            paths[name] = os.path.join(work, name)
            with open(paths[name], "w", encoding="utf-8", errors="surrogateescape") as handle:
                handle.write(mutate(text, mutation) if name == changed else text)
        run(command(work, paths))


@SETTINGS
@given(mutation=MUTATIONS)
def test_simulate_survives_a_mutated_config(base, mutation):
    run_mutated(base, "config", mutation, lambda work, paths: [
        "simulate", "--config", paths["config"], "--out", os.path.join(work, "out.csv")])


@SETTINGS
@given(changed=st.sampled_from(["panel", "config"]), mutation=MUTATIONS)
def test_fit_survives_a_mutated_panel_or_config(base, changed, mutation):
    run_mutated(base, changed, mutation, lambda work, paths: [
        "fit", "--panel", paths["panel"], "--config", paths["config"],
        "--out", os.path.join(work, "fit")])


@SETTINGS
@given(mutation=MUTATIONS)
def test_gof_survives_a_mutated_report(base, mutation):
    run_mutated(base, "report", mutation, lambda work, paths: [
        "gof", "--panel", paths["panel"], "--fit", paths["report"],
        "--out", os.path.join(work, "gof.csv")])
