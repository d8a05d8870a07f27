"""File formats: panel CSV, run configuration, fit reports and GOF output.

Panel files are UTF-8 CSV with header ``path_id,time,state``; times are
written with 17 significant digits so read(write(d)) reproduces d exactly.
Configuration is INI-style with ``[model]``, ``[estimation]`` and
``[study]`` sections (see the README for the full key list).  All writes
are atomic: a temp file in the target directory is renamed into place.
"""

from __future__ import annotations

import configparser
import csv
import io
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, PanelFormatError, ValidationError
from .estimator import FitConfig, FitResult
from .generator import InitialDistribution, SubIntensityMatrix
from .paths import FlatPaths, PanelObservationSet
from .scaling import GOMPERTZ, IDENTITY, WEIBULL
from .simulate import uniform_grid

PANEL_HEADER = ["path_id", "time", "state"]
_G17 = "%.17g"


# ---------------------------------------------------------------------------
# atomic write helper


def _atomic_write(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".iphfit-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as err:
        raise ValidationError(f"cannot write {path}: {err}") from err


# ---------------------------------------------------------------------------
# panel files


def read_panel(file, n: int) -> PanelObservationSet:
    """Parse a panel CSV into a validated observation set.

    ``file`` is a path or a text file object; ``n`` is the declared number
    of transient states (records with larger state indices are rejected).
    Paths appear in first-occurrence order, and the rows of one path need
    not be contiguous, only time-ordered.  Fields are read as ``str.strip``,
    ``float`` and ``int`` read them; blank records are skipped.  A bad
    record raises :class:`PanelFormatError` naming its line (the earliest
    bad line, and at that line the first of: field count, empty id,
    malformed time, malformed state, negative or non-finite time, time not
    after the path's previous one, a row after the absorbing state, state
    outside 1..n+1).  Once every record passes, a path that does not start
    at time 0 raises without a line number.

    The rows are read into three columns of text and converted and checked
    in bulk, then grouped by path into a :class:`PanelObservationSet`.
    """
    if hasattr(file, "read"):
        return _parse_panel(file, n)
    try:
        with open(file, "r", encoding="utf-8", newline="") as handle:
            return _parse_panel(handle, n)
    except OSError as err:
        raise ValidationError(f"cannot read {file}: {err}") from err


def _parse_panel(stream, n: int) -> PanelObservationSet:
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise PanelFormatError("empty file; expected header path_id,time,state")
    if [h.strip() for h in header] != PANEL_HEADER:
        raise PanelFormatError(
            f"bad header {','.join(header)!r}; expected path_id,time,state", line=1
        )
    raw_ids: list[str] = []
    raw_times: list[str] = []
    raw_states: list[str] = []
    blanks: list[int] = []  # for each blank record, the rows read before it
    stop = None  # the first record without three fields: (line, message)
    add_id, add_time, add_state = raw_ids.append, raw_times.append, raw_states.append
    for row in reader:
        if len(row) == 3:
            add_id(sys.intern(row[0]))  # one copy of an id however many rows name it
            add_time(row[1])
            add_state(row[2])
        elif not row or (len(row) == 1 and not row[0].strip()):
            blanks.append(len(raw_ids))
        else:
            stop = (len(raw_ids) + len(blanks) + 2, f"expected 3 fields, got {len(row)}")
            break
    rows = len(raw_ids)
    ids = list(map(str.strip, raw_ids))
    times, bad_time = _convert(raw_times, float, float)
    try:
        states, bad_state = _convert(raw_states, int, np.int64)
    except OverflowError:  # beyond int64, so outside 1..n+1: clip it there
        states, bad_state = _convert(
            raw_states, lambda text: min(max(int(text), 0), n + 2), np.int64
        )
    # rows [0, good) have both numbers; paths are numbered by first occurrence
    good = min(bad_time, bad_state)
    times, states = times[:good], states[:good]
    index = {pid: k for k, pid in enumerate(dict.fromkeys(ids[:good]))}
    path = np.fromiter(map(index.__getitem__, ids[:good]), np.int64, good)
    order = np.argsort(path, kind="stable")  # by path, then by line
    same = path[order[1:]] == path[order[:-1]]
    after, before = order[1:][same], order[:-1][same]  # consecutive rows of a path
    # the earliest bad row, and at that row the first check it fails
    row, check = min(
        (ids.index("") if "" in ids else rows, 1),
        (bad_time, 2),
        (bad_state, 3),
        (_first_row(~np.isfinite(times) | (times < 0.0)), 4),
        (_first_row(times[after] <= times[before], after), 5),
        (_first_row(states[before] == n + 1, after), 6),
        (_first_row((states < 1) | (states > n + 1)), 7),
    )
    if row < rows:
        line = row + 2 + sum(1 for b in blanks if b <= row)
        raise PanelFormatError(
            _row_error(check, n, ids[row], raw_times[row], raw_states[row]), line=line
        )
    if stop:
        raise PanelFormatError(stop[1], line=stop[0])
    try:
        return PanelObservationSet(
            n, list(index), times[order], states[order],
            np.concatenate(([0], np.cumsum(np.bincount(path, minlength=len(index))))),
        )
    except ValidationError as err:
        raise PanelFormatError(str(err)) from err


def _row_error(check: int, n: int, pid: str, time: str, state: str) -> str:
    if check == 1:
        return "empty path_id"
    if check == 2:
        return f"malformed time {time!r}"
    if check == 3:
        return f"malformed state {state!r}"
    if check == 4:
        return f"time must be finite and >= 0, got {float(time)!r}"
    if check == 5:
        return f"non-increasing times within path {pid!r}"
    if check == 6:
        return f"absorbing state not terminal in path {pid!r}"
    return f"state {int(state)} outside 1..{n + 1} in path {pid!r}"


def _convert(texts: list[str], convert, dtype) -> tuple[np.ndarray, int]:
    """``convert`` applied to ``texts`` up to the first text it rejects with
    ``ValueError``, as an array, and that text's index (``len(texts)`` when
    it rejects none)."""
    try:
        return np.fromiter(map(convert, texts), dtype, len(texts)), len(texts)
    except ValueError:
        pass
    values = []
    for text in texts:
        try:
            values.append(convert(text))
        except ValueError:
            break
    return np.array(values, dtype=dtype), len(values)


def _first_row(mask: np.ndarray, rows: np.ndarray | None = None) -> int | float:
    """The smallest row where ``mask`` holds (entry i is row ``rows[i]``,
    or row i), or infinity."""
    hits = mask.nonzero()[0] if rows is None else rows[mask]
    return int(hits.min()) if hits.size else np.inf


def format_panel(data: PanelObservationSet) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PANEL_HEADER)
    sizes = np.diff(data.starts).tolist()
    writer.writerows(zip(
        [i for i, size in zip(data.ids, sizes) for _ in range(size)],
        [_G17 % t for t in data.times.tolist()],
        data.states.tolist(),
    ))
    return buf.getvalue()


def write_panel(data: PanelObservationSet, file) -> None:
    """Serialize a panel; exact inverse of :func:`read_panel`."""
    _atomic_write(file, format_panel(data))


# ---------------------------------------------------------------------------
# absorption-time sample files


def read_sample(file) -> np.ndarray:
    """One-column CSV of absorption times (header ``absorption_time``)."""
    try:
        with open(file, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if not header or header[0].strip() != "absorption_time":
                raise PanelFormatError(
                    "expected header absorption_time", line=1
                )
            vals = []
            for lineno, row in enumerate(reader, start=2):
                if not row or not row[0].strip():
                    continue
                try:
                    vals.append(float(row[0]))
                except ValueError:
                    raise PanelFormatError(f"malformed value {row[0]!r}", line=lineno)
    except OSError as err:
        raise ValidationError(f"cannot read {file}: {err}") from err
    return np.asarray(vals, dtype=float)


def write_sample(values, file) -> None:
    lines = ["absorption_time"]
    lines += [_G17 % v for v in np.asarray(values, dtype=float)]
    _atomic_write(file, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration file.

    The model block declares the state count, family and (for simulation)
    the true parameters; the study block sizes simulated datasets.  The
    estimation settings are the fields of :class:`FitConfig` (``beta0`` in
    the model block, the rest but ``family`` in the estimation block):
    ``settings`` maps each one the file sets to its value, and
    ``fit_config`` takes ``FitConfig``'s defaults for the others.
    """

    n: int
    family: str  # gompertz | weibull | homogeneous
    true_beta: float | None = None
    true_pi: InitialDistribution | None = None
    true_lambda: SubIntensityMatrix | None = None
    paths: int | None = None
    horizon: float | None = None
    delta: float | None = None
    times_file: str | None = None
    settings: dict = field(default_factory=dict)

    @property
    def homogeneous(self) -> bool:
        return self.family == "homogeneous"

    @property
    def seed(self) -> int | None:
        """The file's ``[estimation] seed``, or None if it sets none."""
        return self.settings.get("seed")

    def fit_config(self, seed: int) -> FitConfig:
        kind = IDENTITY if self.homogeneous else self.family
        return FitConfig(family=kind, **{**self.settings, "seed": seed})

    def observation_grid(self) -> np.ndarray:
        """Grid for simulate/study runs: fixed spacing or explicit times."""
        if self.times_file is not None:
            grid = _read_grid_file(self.times_file)
        else:
            if self.delta is None or self.horizon is None:
                raise ConfigError(
                    "study block needs either times_file or both delta and horizon"
                )
            grid = uniform_grid(self.horizon, self.delta)
        if grid.size == 0 or grid[0] != 0.0 or np.any(np.diff(grid) <= 0.0):
            raise ConfigError("observation grid must start at 0 and increase")
        return grid


def _read_grid_file(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            vals = [float(line) for line in handle if line.strip()]
    except OSError as err:
        raise ConfigError(f"cannot read times_file {path}: {err}") from err
    except ValueError as err:
        raise ConfigError(f"malformed times_file {path}: {err}") from err
    return np.asarray(vals, dtype=float)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.asarray([float(v) for v in text.split(",")], dtype=float)
    except ValueError as err:
        raise ConfigError(f"malformed vector {text!r}: {err}") from err


def _parse_matrix(text: str) -> np.ndarray:
    rows = [r for r in (row.strip() for row in text.split(";")) if r]
    return np.asarray([_parse_vector(r) for r in rows], dtype=float)


_FAMILY_NAMES = (GOMPERTZ, WEIBULL, "homogeneous")


def read_config(file) -> RunConfig:
    """Parse and validate an INI-style run configuration."""
    return _read_config(file)


def _read_config(file, default_n: int | None = None) -> RunConfig:
    """:func:`read_config`, with ``default_n`` standing in for a missing
    ``[model] n`` (and section): a study's override file needs neither,
    since the preset fixes the model."""
    parser = configparser.ConfigParser()
    try:
        with open(file, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as err:
        raise ConfigError(f"cannot read config {file}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"malformed config {file}: {err}") from err

    def get(section, key, conv, default=None):
        if not parser.has_option(section, key):
            return default
        raw = parser.get(section, key)
        try:
            return conv(raw)
        except (ValueError, ConfigError) as err:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {err}") from err

    # FitConfig declares the estimation settings: beta0 in [model], every
    # other field but family in [estimation], each read as its default's type
    declared = {f.name: type(f.default) for f in fields(FitConfig) if f.name != "family"}
    known = {
        "model": {"n", "family", "beta0", "beta", "pi", "lambda"},
        "estimation": set(declared) - {"beta0"},
        "study": {"paths", "horizon", "delta", "times_file"},
    }
    for section in parser.sections():
        if section not in known:
            raise ConfigError(
                f"unknown section [{section}]; expected [model], [estimation] or [study]"
            )
        for key in parser.options(section):
            if key not in known[section]:
                raise ConfigError(f"[{section}] unknown key {key!r}")
    if default_n is None and not parser.has_section("model"):
        raise ConfigError("config needs a [model] section")
    n = get("model", "n", int, default_n)
    if n is None or n < 1:
        raise ConfigError("[model] n must be a positive integer")
    family = get("model", "family", str.strip, "gompertz").lower()
    if family not in _FAMILY_NAMES:
        raise ConfigError(
            f"[model] family must be one of {', '.join(_FAMILY_NAMES)}"
        )
    pi_arr = get("model", "pi", _parse_vector)
    lam_arr = get("model", "lambda", _parse_matrix)
    true_pi = true_lam = None
    try:
        if pi_arr is not None:
            true_pi = InitialDistribution(pi_arr)
            if true_pi.n != n:
                raise ConfigError(f"[model] pi has {true_pi.n} entries, n = {n}")
        if lam_arr is not None:
            true_lam = SubIntensityMatrix(lam_arr)
            true_lam.require_valid()
            if true_lam.n != n:
                raise ConfigError(f"[model] lambda is {true_lam.n}x{true_lam.n}, n = {n}")
    except ValidationError as err:
        raise ConfigError(f"[model]: {err}") from err

    settings = {}
    for key, conv in declared.items():
        section = "model" if key == "beta0" else "estimation"
        if parser.has_option(section, key):
            settings[key] = get(section, key, conv)
    cfg = RunConfig(
        n=n,
        family=family,
        true_beta=get("model", "beta", float),
        true_pi=true_pi,
        true_lambda=true_lam,
        paths=get("study", "paths", int),
        horizon=get("study", "horizon", float),
        delta=get("study", "delta", float),
        times_file=get("study", "times_file", str.strip),
        settings=settings,
    )
    try:
        cfg.fit_config(seed=cfg.seed if cfg.seed is not None else 0)
    except ValidationError as err:
        raise ConfigError(str(err)) from err
    if cfg.paths is not None and cfg.paths < 0:
        raise ConfigError("[study] paths must be >= 0")
    if cfg.true_beta is not None and cfg.true_beta <= 0:
        raise ConfigError("[model] beta must be positive")
    return cfg


# ---------------------------------------------------------------------------
# fit reports


def _fmt_row(values) -> str:
    return ",".join(_G17 % v for v in values)


def format_report(result: FitResult, n: int, paths: int) -> str:
    cfg = result.config
    lines = [
        "# iphfit run report",
        "format,1",
        f"family,{cfg.family}",
        f"n,{n}",
        f"paths,{paths}",
        f"seed,{cfg.seed}",
        f"homogeneous_mode,{int(cfg.family == IDENTITY)}",
        f"beta0,{_G17 % cfg.beta0}",
        f"eta,{_G17 % cfg.eta}",
        f"e_ell,{_G17 % cfg.e_ell}",
        f"beta_min,{_G17 % cfg.beta_min}",
        f"max_sem_iterations,{cfg.max_sem_iterations}",
        f"homog_iterations,{cfg.homog_iterations}",
        f"homog_tail_average,{cfg.homog_tail_average}",
        f"termination,{result.termination}",
        f"iterations_used,{result.iterations_used}",
    ]
    if result.beta_hat is not None:
        lines.append(f"beta_hat,{_G17 % result.beta_hat}")
    lines += ["", "[pi_hat]", _fmt_row(result.pi_hat.probabilities)]
    lines += ["", "[lambda_hat]"]
    lines += [_fmt_row(row) for row in result.lam_hat.entries]
    lines += ["", "[trace]"]
    header = ["iteration", "gd_updates", "absorbed_paths", "beta_hat"]
    header += [f"lambda_{i + 1}_{j + 1}" for i in range(n) for j in range(n)]
    lines.append(",".join(header))
    for rec in result.trace:
        row = [str(rec.iteration), str(rec.gd_updates), str(rec.absorbed_paths)]
        row.append("" if rec.beta_hat is None else _G17 % rec.beta_hat)
        row += [_G17 % v for v in rec.lam_hat.entries.ravel()]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def write_report(result: FitResult, n: int, paths: int, file) -> None:
    _atomic_write(file, format_report(result, n, paths))


@dataclass(frozen=True)
class FitReport:
    """The subset of a run report needed downstream (GOF simulation)."""

    family: str
    n: int
    seed: int
    termination: str
    iterations_used: int
    beta_hat: float | None
    pi_hat: InitialDistribution
    lam_hat: SubIntensityMatrix
    keys: dict = field(default_factory=dict)


def read_report(file) -> FitReport:
    try:
        with open(file, "r", encoding="utf-8") as handle:
            lines = [ln.rstrip("\n") for ln in handle]
    except OSError as err:
        raise ValidationError(f"cannot read report {file}: {err}") from err
    keys: dict[str, str] = {}
    sections: dict[str, list[str]] = {}
    current = None
    for ln in lines:
        if not ln or ln.startswith("#"):
            continue
        if ln.startswith("[") and ln.endswith("]"):
            current = ln[1:-1]
            sections[current] = []
            continue
        if current is None:
            key, _, value = ln.partition(",")
            keys[key] = value
        else:
            sections[current].append(ln)
    try:
        n = int(keys["n"])
        pi = InitialDistribution(_parse_vector(sections["pi_hat"][0]))
        lam = SubIntensityMatrix(
            np.asarray([_parse_vector(r) for r in sections["lambda_hat"]])
        )
        report = FitReport(
            family=keys["family"],
            n=n,
            seed=int(keys["seed"]),
            termination=keys.get("termination", ""),
            iterations_used=int(keys.get("iterations_used", "0")),
            beta_hat=float(keys["beta_hat"]) if "beta_hat" in keys else None,
            pi_hat=pi,
            lam_hat=lam,
            keys=keys,
        )
    except (KeyError, IndexError, ValueError, ConfigError) as err:
        raise ValidationError(f"malformed report {file}: {err}") from err
    if pi.n != n or lam.n != n:
        raise ValidationError(f"report {file}: inconsistent dimensions")
    return report


# ---------------------------------------------------------------------------
# truth report (simulate runs), GOF and ECDF output


def format_truth(
    pi: InitialDistribution,
    lam: SubIntensityMatrix,
    family: str,
    beta: float | None,
    seed: int,
    absorption_times,
) -> str:
    lines = [
        "# iphfit ground truth",
        "format,1",
        f"family,{family}",
        f"n,{pi.n}",
        f"seed,{seed}",
    ]
    if beta is not None:
        lines.append(f"beta,{_G17 % beta}")
    lines += ["", "[pi]", _fmt_row(pi.probabilities), "", "[lambda]"]
    lines += [_fmt_row(row) for row in lam.entries]
    lines += ["", "[absorption_times]"]
    lines += [_G17 % v for v in np.asarray(absorption_times, dtype=float)]
    return "\n".join(lines) + "\n"


def read_truth_times(file) -> np.ndarray:
    """Absorption-time block of a simulate run's truth report."""
    try:
        with open(file, "r", encoding="utf-8") as handle:
            lines = [ln.strip() for ln in handle]
    except OSError as err:
        raise ValidationError(f"cannot read truth file {file}: {err}") from err
    try:
        start = lines.index("[absorption_times]") + 1
    except ValueError:
        raise ValidationError(f"{file}: no [absorption_times] block")
    vals = []
    for lineno, ln in enumerate(lines[start:], start=start + 1):
        if ln and not ln.startswith("["):
            try:
                vals.append(float(ln))
            except ValueError:
                raise ValidationError(
                    f"{file}, line {lineno}: malformed absorption time {ln!r}"
                ) from None
    return np.asarray(vals, dtype=float)


def format_gof(d: float, p: float, n_observed: int, n_simulated: int) -> str:
    return (
        "n_observed,n_simulated,d_statistic,p_value\n"
        f"{n_observed},{n_simulated},{_G17 % d},{_G17 % p}\n"
    )


def format_ecdf(observed, simulated) -> str:
    """Both ECDFs on the merged grid of sample values, for plotting."""
    from .gof import SampleSet, ecdf

    obs = SampleSet(np.asarray(observed, dtype=float))
    sim = SampleSet(np.asarray(simulated, dtype=float))
    # sorted and deduplicated: np.unique without flags imports numpy.ma
    grid = np.sort(np.concatenate([obs.values, sim.values]))
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    fo = ecdf(obs, grid)
    fs = ecdf(sim, grid)
    lines = ["value,ecdf_observed,ecdf_simulated"]
    lines += [
        f"{_G17 % v},{_G17 % a},{_G17 % b}" for v, a, b in zip(grid, fo, fs)
    ]
    return "\n".join(lines) + "\n"


def format_beta_trace(rows) -> str:
    lines = ["step,beta,loglik,grad"]
    for step, beta, ell, grad in rows:
        lines.append(f"{step},{_G17 % beta},{_G17 % ell},{_G17 % grad}")
    return "\n".join(lines) + "\n"


def format_path_dump(paths: FlatPaths, ids) -> str:
    """Diagnostic CSV of reconstructed continuous paths, path k under the
    id ``ids[k]``, with 1-based states."""
    lines = ["path_id,epoch,state,timeline_tag"]
    times, states = paths.times.tolist(), (paths.states + 1).tolist()
    bounds = paths.bounds.tolist()
    for k, path_id in enumerate(ids):
        for j in range(bounds[k], bounds[k + 1]):
            lines.append(f"{path_id},{_G17 % times[j]},{states[j]},{paths.timeline}")
    return "\n".join(lines) + "\n"
