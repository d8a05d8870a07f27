import configparser
import dataclasses
import io
import os

import numpy as np
import pytest

from iphfit import (
    ConfigError,
    FitConfig,
    GOMPERTZ,
    IDENTITY,
    InitialDistribution,
    PanelFormatError,
    PanelObservationSet,
    RandomStream,
    ScalingFamily,
    SubIntensityMatrix,
    ValidationError,
    read_config,
    read_panel,
    read_report,
    read_sample,
    write_panel,
    write_report,
    write_sample,
)
from iphfit.estimator import FitResult, IterationRecord
from iphfit.panelio import (
    format_beta_trace,
    format_ecdf,
    format_gof,
    format_panel,
    format_path_dump,
    format_truth,
    read_truth_times,
)
from iphfit.simulate import simulate_paths
from iphfit.studies import cohort_panel, simulate_cohort, uniform_grid

from conftest import panel_from_rows

PANEL_TEXT = """path_id,time,state
a,0,1
a,1.5,2
a,3,4
b,0,2
b,2,2
"""


def _read(text, n=3):
    return read_panel(io.StringIO(text), n)


# ---------------------------------------------------------------------------
# panel parsing


def test_read_panel_example():
    data = _read(PANEL_TEXT)
    assert data.n == 3
    assert len(data) == 2
    assert data.ids == ("a", "b")
    assert data.starts.tolist() == [0, 3, 5]
    np.testing.assert_array_equal(data.times, [0.0, 1.5, 3.0, 0.0, 2.0])
    np.testing.assert_array_equal(data.states, [1, 2, 4, 2, 2])
    assert data.absorbed.tolist() == [True, False]
    assert data.absorbed_count() == 1


def test_read_panel_skips_blank_rows():
    text = "path_id,time,state\na,0,1\n\na,1,2\n"
    assert _read(text).starts.tolist() == [0, 2]


def test_read_panel_preserves_first_occurrence_order():
    text = "path_id,time,state\nz,0,1\nq,0,1\nz,1,1\n"
    assert _read(text).ids == ("z", "q")


@pytest.mark.parametrize(
    "row,fragment,lineno",
    [
        ("a,0.5,2", "non-increasing", 3),  # appended after a,0,1 below
        ("a,zero,2", "malformed time", 3),
        ("a,1,two", "malformed state", 3),
        ("a,1", "expected 3 fields", 3),
        (",1,2", "empty path_id", 3),
        ("a,1,9", "outside 1..4", 3),
        ("a,-1,2", ">= 0", 3),
        ("a,inf,2", "finite", 3),
    ],
)
def test_read_panel_line_numbered_errors(row, fragment, lineno):
    text = "path_id,time,state\na,0,1\n" + row + "\n"
    if fragment == "non-increasing":
        text = "path_id,time,state\na,0.5,1\n" + row + "\n"
    with pytest.raises(PanelFormatError) as exc:
        _read(text)
    assert fragment in str(exc.value)
    assert f"line {lineno}" in str(exc.value)


def test_read_panel_rejects_interior_absorption():
    text = "path_id,time,state\na,0,1\na,1,4\na,2,4\n"
    with pytest.raises(PanelFormatError, match="absorbing state not terminal"):
        _read(text)


def test_read_panel_rejects_bad_header_and_empty():
    with pytest.raises(PanelFormatError, match="expected path_id,time,state"):
        _read("id,time,state\na,0,1\n")
    with pytest.raises(PanelFormatError, match="empty file"):
        _read("")


def test_read_panel_requires_time_zero_start():
    with pytest.raises(PanelFormatError, match="time 0"):
        _read("path_id,time,state\na,1,1\na,2,2\n")


def test_panel_round_trip_is_exact(tmp_path, gompertz_pi, gompertz_lam):
    fam = ScalingFamily(GOMPERTZ, 0.1019)
    cohort = simulate_cohort(
        gompertz_pi, gompertz_lam, fam, 40.0, 25, RandomStream(97)
    )
    panel = cohort_panel(cohort, uniform_grid(40.0, 1.0))
    target = tmp_path / "panel.csv"
    write_panel(panel, target)
    back = read_panel(target, panel.n)
    assert back.ids == panel.ids
    assert back.starts.tolist() == panel.starts.tolist()
    assert back.times.tobytes() == panel.times.tobytes()
    assert np.array_equal(back.states, panel.states)
    # re-serialization is byte-identical
    assert format_panel(back) == target.read_text()


def test_write_panel_empty_set(tmp_path):
    target = tmp_path / "empty.csv"
    write_panel(PanelObservationSet(2, (), [], [], [0]), target)
    assert target.read_text() == "path_id,time,state\n"
    assert len(read_panel(target, 2)) == 0


@pytest.mark.parametrize(
    "rows,fragment,lineno",
    [
        # two bad lines: the earlier one wins, whichever check each fails
        (["a,0,1", "a,2,2", "a,1,2", "a,zero,2"], "non-increasing", 4),
        (["a,0,1", "a,zero,2", "a,0.5,1"], "malformed time", 3),
        (["a,0,1", "a,1,9", "a,1"], "outside 1..4", 3),
        (["a,0,1", "a,1", "a,1,9"], "expected 3 fields", 3),
        (["a,0,1", "a,1,4", "b,0,two", "a,2,1"], "malformed state", 4),
        (["a,0,1", "a,1,4", "a,2,1", "b,0,two"], "absorbing state not terminal", 4),
        (["a,0,1", "b,0,1", "b,inf,2", ",1,2"], "finite", 4),
        # one bad line failing several checks: the first check in reading order
        (["a,0,1", ",zero,two"], "empty path_id", 3),
        (["a,0,1", "a,zero,two"], "malformed time", 3),
        (["a,0,1", "a,-1,9"], ">= 0", 3),
        (["a,2,1", "a,1,9"], "non-increasing", 3),
        (["a,0,4", "a,1,9"], "absorbing state not terminal", 3),
        # interleaved paths, blank rows and CRLF endings keep the numbering
        (["a,0,1", "b,0,2", "a,1,2", "b,0.5,1", "a,0.5,1"], "non-increasing", 6),
        (["a,0,1", "", "b,0,2", "", "b,1,7"], "state 7 outside", 6),
        (["a,0,1", "", "a,1"], "expected 3 fields", 4),
    ],
)
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_read_panel_reports_the_earliest_bad_line(rows, fragment, lineno, newline):
    text = newline.join(["path_id,time,state", *rows]) + newline
    with pytest.raises(PanelFormatError) as exc:
        _read(text)
    assert fragment in str(exc.value)
    assert exc.value.line == lineno


def test_read_panel_groups_interleaved_paths():
    data = _read("path_id,time,state\na,0,1\nb,0,2\na,1,2\nb,1.5,4\na,2,4\n")
    assert data.ids == ("a", "b")
    assert data.times.tolist() == [0.0, 1.0, 2.0, 0.0, 1.5]
    assert data.states.tolist() == [1, 2, 4, 2, 4]
    assert data.starts.tolist() == [0, 3, 5]
    assert data.absorbed_count() == 2


def test_read_panel_reads_fields_as_python_does():
    text = (
        "path_id,time,state\r\n"
        " a , 0 , 1 \r\n"
        "\r\n"
        "a,1e0,+2\r\n"
        "a, 2.5_0 ,1_0\r\n"
        "\r\n"
        "b,0,3\r\n"
    )
    data = _read(text, n=10)
    assert data.ids == ("a", "b")
    assert data.times.tolist() == [0.0, float("1e0"), float(" 2.5_0 "), 0.0]
    assert data.states.tolist() == [1, int("+2"), int("1_0"), 3]


def test_read_panel_quoted_ids_round_trip(tmp_path):
    data = panel_from_rows(3, [("x,y", [0.0, 1.0], [1, 4]), ('say "hi"', [0.0], [2])])
    target = tmp_path / "panel.csv"
    write_panel(data, target)
    assert '"x,y"' in target.read_text()
    back = read_panel(target, 3)
    assert back.ids == ("x,y", 'say "hi"')
    assert back.times.tolist() == [0.0, 1.0, 0.0]
    assert back.states.tolist() == [1, 4, 2]


def test_read_panel_keeps_huge_states_in_the_message():
    with pytest.raises(PanelFormatError, match="line 3: state 99999999999999999999 outside"):
        _read("path_id,time,state\na,0,1\na,1,99999999999999999999\n")


# ---------------------------------------------------------------------------
# panel sets: built from flat arrays


def test_panel_set_from_arrays_matches_panel_paths():
    """Each path of the set reads back as the (id, times, states) it was
    built from."""
    paths = [("a", [0.0, 1.0, 2.5], [1, 2, 4]), ("b", [0.0, 3.0], [3, 3]), ("c", [0.0], [4])]
    panel = panel_from_rows(3, paths)
    assert len(panel) == 3
    assert panel.absorbed_count() == 2
    assert panel.absorbed.tolist() == [True, False, True]
    bounds = panel.starts.tolist()
    for k, (pid, times, states) in enumerate(paths):
        assert panel.ids[k] == pid
        assert panel.times[bounds[k]:bounds[k + 1]].tolist() == times
        assert panel.states[bounds[k]:bounds[k + 1]].tolist() == states
    for a in (panel.times, panel.states, panel.starts):
        assert not a.flags.writeable
    assert repr(panel).startswith("PanelObservationSet(n=3, ids=('a', 'b', 'c'), ")
    assert format_panel(panel) == (
        "path_id,time,state\na,0,1\na,1,2\na,2.5,4\nb,0,3\nb,3,3\nc,0,4\n"
    )


@pytest.mark.parametrize(
    "paths,message",
    [
        ([("a", [0.0], [1]), ("a", [0.0], [2])], "duplicate path id 'a'"),
        ([("a", [0.0], [1]), ("b", [1.0, 2.0], [1, 2])], "path b: first observation must be at time 0"),
        ([("a", [0.0, 0.0], [1, 2])], "path a: observation times must be strictly increasing"),
        ([("a", [0.0, np.nan], [1, 2])], "path a: non-finite observation time"),
        ([("a", [np.nan, 1.0], [1, 2])], "path a: non-finite observation time"),
        ([("a", [0.0], [1]), ("b", [], [])], "path b: times and states must be matching non-empty"),
        ([("a", [0.0, 1.0], [1, 5])], "path a: states must lie in 1..4"),
        ([("a", [0.0, 1.0], [4, 1])], "path a: absorbing state before the final observation"),
        # the checks on observation times come before the set's checks
        ([("a", [0.0], [9]), ("b", [1.0], [1])], "path b: first observation must be at time 0"),
        # and the first bad path decides among the set's checks, in their order
        ([("a", [0.0], [9]), ("a", [0.0], [1])], "path a: states must lie in 1..4"),
        ([("a", [0.0], [1]), ("a", [0.0], [9])], "duplicate path id 'a'"),
        ([("a", [0.0], [1]), ("b", [0.0, 1.0], [4, 1]), ("a", [0.0], [1])],
         "path b: absorbing state before the final observation"),
    ],
)
def test_panel_set_from_arrays_raises_what_panel_paths_raise(paths, message):
    with pytest.raises(ValidationError) as exc:
        panel_from_rows(3, paths)
    assert str(exc.value).startswith(message)


def test_panel_set_from_arrays_rejects_mismatched_arrays():
    with pytest.raises(ValidationError, match="matching vectors"):
        PanelObservationSet(3, ["a"], [0.0, 1.0], [1], [0, 2])
    with pytest.raises(ValidationError, match="matching vectors"):
        PanelObservationSet(3, ["a", "b"], [0.0, 0.0], [1, 1], [0, 2])


# ---------------------------------------------------------------------------
# sample files


def test_sample_round_trip(tmp_path):
    values = np.array([0.25, 1.0 / 3.0, 17.125, 1e-7])
    target = tmp_path / "sample.csv"
    write_sample(values, target)
    np.testing.assert_array_equal(read_sample(target), values)


def test_read_sample_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("times\n1.0\n")
    with pytest.raises(PanelFormatError, match="absorption_time"):
        read_sample(bad)
    bad.write_text("absorption_time\nnope\n")
    with pytest.raises(PanelFormatError, match="line 2"):
        read_sample(bad)
    bad.write_text("\n1.0\n")  # a blank first line is no header
    with pytest.raises(PanelFormatError, match="^line 1: expected header absorption_time$"):
        read_sample(bad)


# ---------------------------------------------------------------------------
# configuration files

CONFIG_TEXT = """[model]
n = 3
family = gompertz
beta0 = 1.0
beta = 0.1019
pi = 0.0451, 0.1303, 0.8246
lambda = -0.1357, 0.1214, 0.0; 0.0130, -0.0421, 0.0288; 0.1415, 0.0184, -0.1620

[estimation]
eta = 1e-6
e_ell = 0.01
seed = 7

[study]
paths = 100
horizon = 60
delta = 1
"""


def write_config(tmp_path, text):
    target = tmp_path / "run.ini"
    target.write_text(text)
    return target


def test_read_config_example(tmp_path):
    cfg = read_config(write_config(tmp_path, CONFIG_TEXT))
    assert cfg.n == 3
    assert cfg.family == GOMPERTZ
    assert cfg.true_beta == 0.1019
    assert cfg.settings == {"beta0": 1.0, "eta": 1e-6, "e_ell": 0.01, "seed": 7}
    assert cfg.seed == 7
    assert cfg.paths == 100
    np.testing.assert_allclose(
        cfg.true_pi.probabilities, [0.0451, 0.1303, 0.8246]
    )
    assert cfg.true_lambda.entries[2, 0] == 0.1415
    grid = cfg.observation_grid()
    assert grid.size == 61
    assert grid[0] == 0.0 and grid[-1] == 60.0
    fc = cfg.fit_config(5)
    assert fc.seed == 5 and fc.family == GOMPERTZ and fc.eta == 1e-6


def test_read_config_defaults(tmp_path):
    cfg = read_config(write_config(tmp_path, "[model]\nn = 2\n"))
    assert cfg.family == GOMPERTZ
    assert cfg.settings == {}
    assert cfg.seed is None
    assert cfg.fit_config(0) == FitConfig(family=GOMPERTZ)
    assert cfg.true_pi is None
    with pytest.raises(ConfigError, match="delta and horizon"):
        cfg.observation_grid()


def test_read_config_homogeneous_maps_to_identity(tmp_path):
    cfg = read_config(
        write_config(tmp_path, "[model]\nn = 2\nfamily = homogeneous\n")
    )
    assert cfg.homogeneous
    fc = cfg.fit_config(0)
    assert fc.family == IDENTITY


def test_read_config_times_file(tmp_path):
    times = tmp_path / "times.txt"
    times.write_text("0\n1\n2.5\n")
    cfg = read_config(
        write_config(
            tmp_path, f"[model]\nn = 2\n\n[study]\ntimes_file = {times}\n"
        )
    )
    np.testing.assert_array_equal(cfg.observation_grid(), [0.0, 1.0, 2.5])
    times.write_text("1\n2\n")
    with pytest.raises(ConfigError, match="start at 0"):
        cfg.observation_grid()


def test_readme_config_block_lists_every_estimation_setting(tmp_path):
    """The README's configuration example is a valid config, its
    [estimation] keys are exactly FitConfig's estimation fields, and the
    values it shows are FitConfig's defaults but for the seed."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        text = handle.read()
    block = text.split("## Configuration format", 1)[1].split("```ini\n", 1)[1]
    block = block.split("```", 1)[0]
    parser = configparser.ConfigParser()
    parser.read_string(block)
    declared = {f.name for f in dataclasses.fields(FitConfig)} - {"family", "beta0"}
    assert set(parser.options("estimation")) == declared
    cfg = read_config(write_config(tmp_path, block))
    assert set(cfg.settings) == declared | {"beta0"}
    assert cfg.fit_config(0) == FitConfig(family=GOMPERTZ)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[estimation]\neta = 1e-6\n", r"\[model\]"),
        ("[model]\nfamily = gompertz\n", "n must be"),
        ("[model]\nn = 2\nfamily = lognormal\n", "family must be"),
        ("[model]\nn = 3\npi = 0.5, 0.5\n", "pi has 2 entries"),
        ("[model]\nn = 2\nlambda = -1, 2; 0, -1\n", "row 1 sums"),
        ("[model]\nn = 2\n\n[estimation]\neta = fast\n", "eta"),
        ("[model]\nn = 2\n\n[estimation]\neta = -1\n", "positive"),
        ("[model]\nn = 2\n\n[study]\npaths = -5\n", "paths"),
        ("[model]\nn = 2\nbeta = 0\n", "beta must be positive"),
        ("[model]\nn = 2\nbroken", "malformed config"),
        ("[model]\nn = 2\n\n[estimation]\nmax_sem_iteration = 5\n",
         "unknown key 'max_sem_iteration'"),
        ("[model]\nn = 2\n\n[estimation]\nbeta0 = 2\n", "unknown key 'beta0'"),
        ("[estimation]\nbridge_replications = 1\n",
         r"\[estimation\] unknown key 'bridge_replications'"),
        ("[model]\nn = 2\nbeta_0 = 2\n", r"\[model\] unknown key 'beta_0'"),
        ("[model]\nn = 2\n\n[study]\ndelt = 0.5\n", r"\[study\] unknown key 'delt'"),
        ("[model]\nn = 2\n\n[study]\npath = 10\n", r"\[study\] unknown key 'path'"),
        ("[model]\nn = 2\n\n[estimaton]\neta = 5\n", r"unknown section \[estimaton\]"),
        ("[model]\nn = 2\n\n[estimation]\ne_ell = inf\n", "finite"),
    ],
)
def test_read_config_errors(tmp_path, text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        read_config(write_config(tmp_path, text))


# ---------------------------------------------------------------------------
# fit reports


def _toy_result(homogeneous=False):
    pi = InitialDistribution(np.array([0.25, 0.75]))
    lam = SubIntensityMatrix(np.array([[-0.5, 0.125], [1.0 / 3.0, -2.0]]))
    if homogeneous:
        cfg = FitConfig(
            family=IDENTITY, seed=3, homog_iterations=2, homog_tail_average=1,
        )
        trace = tuple(
            IterationRecord(i, 0, 4, None, lam) for i in (1, 2)
        )
        return FitResult(pi, lam, None, 2, "max-iterations", trace, cfg)
    cfg = FitConfig(family=GOMPERTZ, beta0=1.0, seed=3)
    trace = (
        IterationRecord(1, 5, 4, 0.25, lam),
        IterationRecord(2, 1, 4, 0.2502, lam),
    )
    return FitResult(pi, lam, 0.2502, 2, "single-update-converged", trace, cfg)


def test_report_round_trip(tmp_path):
    result = _toy_result()
    target = tmp_path / "report.txt"
    write_report(result, 2, 4, target)
    rep = read_report(target)
    assert rep.family == GOMPERTZ
    assert rep.n == 2
    assert rep.seed == 3
    assert rep.keys["homogeneous_mode"] == "0"
    assert rep.termination == "single-update-converged"
    assert rep.iterations_used == 2
    assert rep.beta_hat == result.beta_hat
    np.testing.assert_array_equal(
        rep.pi_hat.probabilities, result.pi_hat.probabilities
    )
    np.testing.assert_array_equal(rep.lam_hat.entries, result.lam_hat.entries)
    assert rep.keys["paths"] == "4"


def test_homogeneous_report_has_no_beta(tmp_path):
    result = _toy_result(homogeneous=True)
    target = tmp_path / "report.txt"
    write_report(result, 2, 4, target)
    text = target.read_text()
    assert "beta_hat," not in text.split("[trace]")[0]
    rep = read_report(target)
    assert rep.beta_hat is None
    assert rep.keys["homogeneous_mode"] == "1"


def test_report_trace_block_shape(tmp_path):
    target = tmp_path / "report.txt"
    write_report(_toy_result(), 2, 4, target)
    lines = target.read_text().splitlines()
    start = lines.index("[trace]")
    header = lines[start + 1].split(",")
    assert header[:4] == ["iteration", "gd_updates", "absorbed_paths", "beta_hat"]
    assert header[4:] == ["lambda_1_1", "lambda_1_2", "lambda_2_1", "lambda_2_2"]
    assert len(lines[start + 2].split(",")) == len(header)


# ---------------------------------------------------------------------------
# truth, gof, trace and dump formatters


def test_truth_round_trip(tmp_path):
    pi = InitialDistribution(np.array([1.0]))
    lam = SubIntensityMatrix(np.array([[-1.0]]))
    times = np.array([0.5, 1.0 / 7.0, 12.25])
    target = tmp_path / "truth.txt"
    target.write_text(format_truth(pi, lam, GOMPERTZ, 0.1019, 7, times))
    np.testing.assert_array_equal(read_truth_times(target), times)
    text = target.read_text()
    assert "beta,0.1019" in text
    # no beta line for a homogeneous truth file
    target.write_text(format_truth(pi, lam, "homogeneous", None, 7, times))
    assert "beta," not in target.read_text()
    np.testing.assert_array_equal(read_truth_times(target), times)


def test_read_truth_times_requires_block(tmp_path):
    target = tmp_path / "truth.txt"
    target.write_text("# iphfit ground truth\nformat,1\n")
    with pytest.raises(Exception, match="absorption_times"):
        read_truth_times(target)


def test_read_truth_times_names_a_malformed_value(tmp_path):
    target = tmp_path / "truth.txt"
    target.write_text("# iphfit ground truth\nformat,1\n\n[absorption_times]\n0.5\nabc\n")
    with pytest.raises(ValidationError) as exc:
        read_truth_times(target)
    assert str(exc.value) == f"{target}, line 6: malformed absorption time 'abc'"


def test_format_gof_exact():
    assert format_gof(0.25, 0.5, 100, 100) == (
        "n_observed,n_simulated,d_statistic,p_value\n100,100,0.25,0.5\n"
    )


def test_format_ecdf_merged_grid():
    text = format_ecdf([1.0, 2.0], [1.5])
    lines = text.splitlines()
    assert lines[0] == "value,ecdf_observed,ecdf_simulated"
    assert lines[1] == "1,0.5,0"
    assert lines[2] == "1.5,0.5,1"
    assert lines[3] == "2,1,1"


def test_format_beta_trace_rows():
    text = format_beta_trace([(1, 0.5, -10.0, 2.0), (2, 0.25, -9.5, -1.0)])
    assert text == (
        "step,beta,loglik,grad\n1,0.5,-10,2\n2,0.25,-9.5,-1\n"
    )


def test_format_path_dump(weibull_lam, weibull_pi):
    # the identity family keeps the homogeneous epochs
    path = dataclasses.replace(
        simulate_paths(weibull_lam, weibull_pi, ScalingFamily("identity"), 5.0, RandomStream(98), 1),
        timeline="homogeneous",
    )
    text = format_path_dump(path, ["a-1"])
    lines = text.splitlines()
    assert lines[0] == "path_id,epoch,state,timeline_tag"
    assert all(ln.startswith("a-1,") for ln in lines[1:])
    assert all(ln.endswith(",homogeneous") for ln in lines[1:])
