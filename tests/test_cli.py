import os
import subprocess
import sys

import numpy as np
import pytest

import _cli
from iphfit import read_panel, read_report, read_sample, write_sample
from iphfit.cli import main
from iphfit.panelio import read_truth_times

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))

GOMPERTZ_INI = """[model]
n = 3
family = gompertz
beta0 = 1.0
beta = 0.1019
pi = 0.0451, 0.1303, 0.8246
lambda = -0.1357, 0.1214, 0.0; 0.0130, -0.0421, 0.0288; 0.1415, 0.0184, -0.1620

[estimation]
eta = 1e-6
e_ell = 0.01
seed = 11

[study]
paths = 50
horizon = 30
delta = 1
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One simulate + fit round reused by the cheaper assertions."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.ini"
    config.write_text(GOMPERTZ_INI)
    panel = root / "panel.csv"
    assert main(["simulate", "--config", str(config), "--out", str(panel)]) == 0
    fitdir = root / "fit"
    assert (
        main(
            [
                "fit",
                "--panel",
                str(panel),
                "--config",
                str(config),
                "--out",
                str(fitdir),
                "--beta-trace",
                "--dump-paths",
            ]
        )
        == 0
    )
    return root, config, panel, fitdir


def test_simulate_outputs(workspace):
    root, config, panel, _ = workspace
    data = read_panel(panel, 3)
    assert len(data) == 50
    truth = root / "panel.truth.txt"
    assert truth.exists()
    times = read_truth_times(truth)
    assert times.size == data.absorbed_count()
    assert np.all(times <= 30.0)


def test_simulate_rerun_is_byte_identical(workspace, tmp_path):
    _, config, panel, _ = workspace
    again = tmp_path / "again.csv"
    assert main(["simulate", "--config", str(config), "--out", str(again)]) == 0
    assert again.read_bytes() == panel.read_bytes()
    assert (tmp_path / "again.truth.txt").read_text().splitlines()[3:] == (
        panel.parent / "panel.truth.txt"
    ).read_text().splitlines()[3:]


def test_simulate_zero_paths(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(GOMPERTZ_INI.replace("paths = 50", "paths = 0"))
    out = tmp_path / "empty.csv"
    with pytest.warns(UserWarning, match="header-only"):
        code = main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == 0
    assert out.read_text() == "path_id,time,state\n"
    assert read_truth_times(tmp_path / "empty.truth.txt").size == 0


def test_simulate_requires_beta_for_scaled_family(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(GOMPERTZ_INI.replace("beta = 0.1019\n", ""))
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "p.csv")])
    assert code == 2


def test_simulate_grid_spacing_that_lands_on_the_horizon(tmp_path):
    # 3 * 0.1 exceeds 0.3 in floating point; the grid's last epoch is 0.3
    config = tmp_path / "run.ini"
    config.write_text(
        GOMPERTZ_INI.replace("horizon = 30", "horizon = 0.3").replace("delta = 1", "delta = 0.1")
    )
    out = tmp_path / "p.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    panel = read_panel(out, 3)
    assert panel.times.max() == 0.3
    assert set(np.round(panel.times, 12)) <= {0.0, 0.1, 0.2, 0.3}


@pytest.mark.parametrize("line,zero", [("delta = 1", "delta = 0"), ("horizon = 30", "horizon = 0")])
def test_simulate_rejects_a_zero_grid_setting(tmp_path, capsys, line, zero):
    config = tmp_path / "run.ini"
    config.write_text(GOMPERTZ_INI.replace(line, zero))
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "p.csv")])
    assert code == 2
    assert "positive delta and horizon" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line,bad",
    [("horizon = 30", "horizon = inf"), ("horizon = 30", "horizon = nan"),
     ("delta = 1", "delta = nan"), ("delta = 1", "delta = inf")],
)
def test_simulate_rejects_a_non_finite_grid_setting(tmp_path, capsys, line, bad):
    config = tmp_path / "run.ini"
    config.write_text(GOMPERTZ_INI.replace(line, bad))
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "p.csv")])
    assert code == 2
    assert "finite, positive delta and horizon" in capsys.readouterr().err


@pytest.mark.parametrize(
    "horizon,delta", [("30", "1e-300"), ("1000", "1e-9"), ("1000", "1e-310")]
)
def test_simulate_refuses_a_grid_beyond_its_point_limit(tmp_path, capsys, horizon, delta):
    # checked before the grid is made: 1e-9 over 1000 is 10^12 points, and
    # 1000 / 1e-310 overflows to inf
    config = tmp_path / "run.ini"
    config.write_text(
        GOMPERTZ_INI.replace("horizon = 30", f"horizon = {horizon}")
        .replace("delta = 1", f"delta = {delta}")
    )
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "p.csv")])
    assert code == 2
    assert "limit of 1000000 points" in capsys.readouterr().err


def test_fit_report_contents(workspace):
    _, _, panel, fitdir = workspace
    report = read_report(fitdir / "report.txt")
    assert report.family == "gompertz"
    assert report.n == 3
    assert report.beta_hat is not None and report.beta_hat > 0
    assert report.termination in ("single-update-converged", "max-iterations")
    trace = (fitdir / "beta_trace.csv").read_text().splitlines()
    assert trace[0] == "step,beta,loglik,grad"
    assert len(trace) > 1
    dump = (fitdir / "paths.csv").read_text().splitlines()
    assert dump[0] == "path_id,epoch,state,timeline_tag"
    assert len(dump) > 50


def test_fit_dump_labels_paths_by_their_ids(workspace, tmp_path):
    """A panel whose ids are not ``p<k>`` dumps its paths under those ids;
    the rows are otherwise those of the same panel named ``p<k>``."""
    _, config, panel, fitdir = workspace
    named = tmp_path / "named.csv"
    named.write_text("".join(
        "patient-" + line[1:] if line.startswith("p") and line[1].isdigit() else line
        for line in panel.read_text().splitlines(keepends=True)
    ))
    ids = read_panel(named, 3).ids
    assert ids[:2] == ("patient-0", "patient-1") and len(ids) == 50
    out = tmp_path / "fit"
    argv = ["fit", "--panel", str(named), "--config", str(config), "--out", str(out)]
    assert main(argv + ["--dump-paths"]) == 0
    rows = (out / "paths.csv").read_text().splitlines()
    want = (fitdir / "paths.csv").read_text().splitlines()
    assert rows[0] == want[0] and len(rows) == len(want)
    assert [r.split(",", 1)[1] for r in rows[1:]] == [w.split(",", 1)[1] for w in want[1:]]
    dumped = [r.split(",", 1)[0] for r in rows[1:]]
    assert sorted(set(dumped), key=dumped.index) == list(ids)


def test_fit_rerun_is_byte_identical(workspace, tmp_path):
    _, config, panel, fitdir = workspace
    out2 = tmp_path / "fit2"
    assert (
        main(
            [
                "fit",
                "--panel",
                str(panel),
                "--config",
                str(config),
                "--out",
                str(out2),
                "--beta-trace",
            ]
        )
        == 0
    )
    assert (out2 / "report.txt").read_bytes() == (fitdir / "report.txt").read_bytes()
    assert (out2 / "beta_trace.csv").read_bytes() == (
        fitdir / "beta_trace.csv"
    ).read_bytes()


def test_gof_from_panel(workspace, tmp_path):
    _, config, panel, fitdir = workspace
    out = tmp_path / "gof.csv"
    ecdf_out = tmp_path / "ecdf.csv"
    assert (
        main(
            [
                "gof",
                "--panel",
                str(panel),
                "--fit",
                str(fitdir),
                "--config",
                str(config),
                "--out",
                str(out),
                "--ecdf-out",
                str(ecdf_out),
            ]
        )
        == 0
    )
    header, row = out.read_text().splitlines()
    assert header == "n_observed,n_simulated,d_statistic,p_value"
    n_obs, n_sim, d, p = row.split(",")
    assert n_obs == n_sim
    assert 0.0 <= float(d) <= 1.0
    assert 0.0 <= float(p) <= 1.0
    assert ecdf_out.read_text().startswith("value,ecdf_observed,ecdf_simulated")


def test_gof_from_sample_and_determinism(workspace, tmp_path):
    root, config, panel, fitdir = workspace
    sample = tmp_path / "sample.csv"
    write_sample(read_truth_times(root / "panel.truth.txt"), sample)
    out1 = tmp_path / "gof1.csv"
    out2 = tmp_path / "gof2.csv"
    for out in (out1, out2):
        assert (
            main(
                [
                    "gof",
                    "--sample",
                    str(sample),
                    "--fit",
                    str(fitdir / "report.txt"),
                    "--out",
                    str(out),
                    "--seed",
                    "42",
                ]
            )
            == 0
        )
    assert out1.read_bytes() == out2.read_bytes()


def test_gof_requires_absorbed_paths(workspace, tmp_path):
    _, _, _, fitdir = workspace
    censored = tmp_path / "censored.csv"
    censored.write_text("path_id,time,state\na,0,1\na,1,1\nb,0,2\nb,1,2\n")
    out = tmp_path / "gof.csv"
    code = main(
        ["gof", "--panel", str(censored), "--fit", str(fitdir), "--out", str(out)]
    )
    assert code == 2
    assert not out.exists()


def test_gof_sample_with_blank_header_line_exit_code(workspace, tmp_path, capsys):
    _, _, _, fitdir = workspace
    sample = tmp_path / "s.csv"
    sample.write_text("\n1.0\n")
    out = tmp_path / "gof.csv"
    code = main(["gof", "--sample", str(sample), "--fit", str(fitdir), "--out", str(out)])
    assert code == 2
    assert "line 1: expected header absorption_time" in capsys.readouterr().err
    assert not out.exists()


def test_gof_panel_and_sample_are_exclusive(workspace, tmp_path):
    _, _, panel, fitdir = workspace
    with pytest.raises(SystemExit):
        main(
            [
                "gof",
                "--panel",
                str(panel),
                "--sample",
                str(panel),
                "--fit",
                str(fitdir),
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )


def test_validation_exit_codes(workspace, tmp_path):
    _, config, panel, fitdir = workspace
    bad_panel = tmp_path / "bad.csv"
    bad_panel.write_text("path_id,time,state\na,0,1\na,0,1\n")
    assert (
        main(
            [
                "fit",
                "--panel",
                str(bad_panel),
                "--config",
                str(config),
                "--out",
                str(tmp_path / "f"),
            ]
        )
        == 2
    )
    bad_config = tmp_path / "bad.ini"
    bad_config.write_text("[model]\nn = 3\nfamily = cauchy\n")
    assert (
        main(
            [
                "fit",
                "--panel",
                str(panel),
                "--config",
                str(bad_config),
                "--out",
                str(tmp_path / "g"),
            ]
        )
        == 2
    )


@pytest.mark.parametrize("kind", ["panel", "sample", "config", "report"])
def test_a_file_that_is_not_utf8_exits_2(workspace, tmp_path, capsys, kind):
    """One byte 0xff on line 3 of a panel, sample, config or report file:
    exit 2 with a message naming that line, not a traceback."""
    root, config, panel, fitdir = workspace
    sample = tmp_path / "sample.csv"
    write_sample(read_truth_times(root / "panel.truth.txt"), sample)
    files = {"panel": panel, "sample": sample, "config": config,
             "report": fitdir / "report.txt"}
    lines = files[kind].read_bytes().split(b"\n")
    lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
    bad = tmp_path / f"bad-{kind}"
    bad.write_bytes(b"\n".join(lines))
    files[kind] = bad
    out = tmp_path / "out"
    if kind in ("panel", "config"):
        argv = ["fit", "--panel", str(files["panel"]), "--config", str(files["config"]),
                "--out", str(out)]
    else:
        source = ["--sample", str(files["sample"])] if kind == "sample" else [
            "--panel", str(files["panel"])]
        argv = ["gof", *source, "--fit", str(files["report"]), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "line 3: byte 0xff is not UTF-8 text" in err, err
    assert not out.exists()


def test_estimation_failure_exit_code(tmp_path, capsys):
    # state 2 never observed: its occupation is zero and the MLE is undefined
    config = tmp_path / "run.ini"
    config.write_text(
        "[model]\nn = 2\nfamily = gompertz\n\n[estimation]\nseed = 1\n"
    )
    panel = tmp_path / "panel.csv"
    panel.write_text("path_id,time,state\na,0,1\na,1,1\na,2,3\nb,0,1\nb,1,3\n")
    code = main(
        [
            "fit",
            "--panel",
            str(panel),
            "--config",
            str(config),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 3
    assert "estimation error" in capsys.readouterr().err


def test_overflowing_beta_ascent_exit_code(tmp_path, capsys):
    # visits 200 time units apart: at beta0 = 1 the transform of the
    # initial absorption times overflows, a numerical failure, not bad input
    config = tmp_path / "run.ini"
    config.write_text("[model]\nn = 2\nfamily = gompertz\n\n[estimation]\nseed = 1\n")
    panel = tmp_path / "panel.csv"
    panel.write_text(
        "path_id,time,state\na,0,1\na,200,2\na,400,3\nb,0,1\nb,200,1\nb,400,2\nb,600,3\n"
        "c,0,2\nc,200,3\nd,0,1\nd,200,2\nd,400,2\nd,600,1\nd,800,2\nd,1000,3\n"
    )
    argv = ["fit", "--panel", str(panel), "--config", str(config), "--out", str(tmp_path / "o")]
    with pytest.warns(RuntimeWarning, match="underflow"):
        code = main(argv)
    assert code == 4
    assert "numerical error: non-finite gradient at beta=1" in capsys.readouterr().err


def test_seed_precedence(workspace, tmp_path):
    _, config, panel, _ = workspace
    # flag beats config: different seed changes the simulated panel
    alt = tmp_path / "alt.csv"
    assert (
        main(
            ["simulate", "--config", str(config), "--out", str(alt), "--seed", "99"]
        )
        == 0
    )
    assert alt.read_bytes() != panel.read_bytes()
    # the seed is 0 when neither flag nor config provide one
    noseed = tmp_path / "noseed.ini"
    noseed.write_text(GOMPERTZ_INI.replace("seed = 11\n", ""))
    zero = tmp_path / "zero.csv"
    implicit = tmp_path / "implicit.csv"
    assert main(["simulate", "--config", str(noseed), "--out", str(zero), "--seed", "0"]) == 0
    assert main(["simulate", "--config", str(noseed), "--out", str(implicit)]) == 0
    assert implicit.read_bytes() == zero.read_bytes() != panel.read_bytes()


def test_study_smoke(tmp_path):
    out = tmp_path / "study"
    assert (
        main(
            [
                "study",
                "--name",
                "weibull",
                "--out",
                str(out),
                "--seed",
                "5",
                "--paths",
                "12",
            ]
        )
        == 0
    )
    tdir = out / "T5"
    for name in ("panel.csv", "truth.txt", "report.txt", "gof.csv", "ecdf.csv"):
        assert (tdir / name).exists()
    estimates = (out / "estimates.csv").read_text().splitlines()
    assert estimates[0].startswith("T,beta_hat,lambda_1_1")
    assert estimates[1].startswith("true,")
    results = (out / "results.csv").read_text().splitlines()
    assert results[0] == "T,absorbed_paths,iteration,p_value,seed"
    assert (out / "parameters.csv").exists()


def _study_report(tmp_path, overrides):
    config = tmp_path / "overrides.ini"
    config.write_text(overrides)
    out = tmp_path / "study"
    argv = ["study", "--name", "weibull", "--out", str(out), "--config", str(config)]
    assert main(argv + ["--seed", "3"]) == 0
    return read_report(out / "T5" / "report.txt").keys


def test_study_config_keeps_the_preset_settings_it_does_not_set(tmp_path):
    keys = _study_report(tmp_path, "[model]\nn = 2\n\n[study]\npaths = 40\n")
    assert (keys["paths"], keys["beta0"], keys["eta"], keys["e_ell"]) == (
        "40", "2", "0.0001", "0.01"
    )
    keys = _study_report(
        tmp_path, "[model]\nn = 2\nbeta0 = 2.5\n\n[estimation]\neta = 0.001\n\n"
        "[study]\npaths = 40\n"
    )
    assert (keys["paths"], keys["beta0"], keys["eta"], keys["e_ell"]) == (
        "40", "2.5", "0.001", "0.01"
    )


def test_study_config_needs_no_model_section(tmp_path):
    # a study's preset fixes the model, so the override file may skip [model]
    keys = _study_report(tmp_path, "[study]\npaths = 40\n")
    assert (keys["paths"], keys["beta0"]) == ("40", "2")
    keys = _study_report(tmp_path, "[model]\nbeta0 = 2.5\n\n[study]\npaths = 40\n")
    assert (keys["paths"], keys["beta0"]) == ("40", "2.5")


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_study_config_rejects_a_non_finite_delta(tmp_path, capsys, delta):
    config = tmp_path / "overrides.ini"
    config.write_text(f"[study]\npaths = 40\ndelta = {delta}\n")
    argv = ["study", "--name", "weibull", "--out", str(tmp_path / "s"), "--config", str(config)]
    assert main(argv) == 2
    assert "finite, positive delta and horizon" in capsys.readouterr().err


def test_study_config_rejects_settings_a_preset_does_not_take(tmp_path, capsys):
    config = tmp_path / "overrides.ini"
    config.write_text("[model]\nn = 2\n\n[estimation]\nmax_sem_iterations = 5\n")
    argv = ["study", "--name", "weibull", "--out", str(tmp_path / "s"), "--config", str(config)]
    assert main(argv) == 2
    assert "[estimation] max_sem_iterations does not apply" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_console_script_help():
    # the script pyproject.toml declares: the installed one when it is on
    # PATH, else the call that pip's generated wrapper makes
    tomllib = pytest.importorskip("tomllib")
    pyproject = os.path.join(os.path.dirname(TESTS_DIR), "pyproject.toml")
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["iphfit"]
    cmd = _cli.command(target)
    proc = subprocess.run(
        [*cmd, "--help"], capture_output=True, text=True, env=_cli.env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: iphfit")
    for sub in ("simulate", "fit", "gof", "study"):
        assert sub in proc.stdout


def test_module_invocation_help():
    for module in ("iphfit", "iphfit.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True,
            text=True,
            env=_cli.env(),
            timeout=60,
        )
        assert proc.returncode == 0, f"-m {module}: {proc.stderr}"
        for sub in ("simulate", "fit", "gof", "study"):
            assert sub in proc.stdout


NO_MA_CODE = """
import os, sys, warnings
import iphfit
from iphfit.cli import main
warnings.simplefilter("ignore")
iphfit.run_study(iphfit.WEIBULL_STUDY, 0, paths=50)
root = sys.argv[1]
config, panel, fit = (os.path.join(root, f) for f in ("run.ini", "panel.csv", "fit"))
assert main(["simulate", "--config", config, "--out", panel]) == 0
assert main(["fit", "--panel", panel, "--config", config, "--out", fit]) == 0
assert main(["gof", "--panel", panel, "--fit", fit, "--config", config,
             "--out", os.path.join(root, "gof.csv"),
             "--ecdf-out", os.path.join(root, "ecdf.csv")]) == 0
print("numpy.ma" in sys.modules)
"""


def test_run_path_imports_no_numpy_ma(tmp_path):
    # np.unique without flags asks numpy.ma whether its input is masked,
    # which imports numpy.ma: 9-15 ms of a fresh interpreter on 2 shared cores
    (tmp_path / "run.ini").write_text(GOMPERTZ_INI)
    proc = subprocess.run(
        [sys.executable, "-c", NO_MA_CODE, str(tmp_path)],
        capture_output=True, text=True, env=_cli.env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "ecdf.csv").read_text().startswith("value,ecdf_observed,ecdf_simulated")
