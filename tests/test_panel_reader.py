"""The compiled panel tokenizer reads what the ``csv`` reader reads.

``read_panel`` tries ``_kernels.tokenize_panel`` first, which takes only
the canonical form of a panel file and returns None for anything else.
Generated panels (ids that need quoting, times in every form ``float``
takes and some it does not, states with signs, zeros, spaces and 20
digits, LF or CRLF line ends, blank rows, no final newline) and the
mutations of ``test_input_fuzz`` applied to a written panel must read the
same on the compiled tokenizer as on its Python body, which refuses every
file: the same arrays, or the same exception, message and line.  Each
form outside the canonical one is refused by the compiled body.
"""

import csv
import io
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from iphfit import ValidationError, _kernels, read_panel
from iphfit.panelio import format_panel

from test_input_fuzz import MUTATIONS, mutate
from test_kernels import _irregular_panel

compiled = pytest.mark.skipif(
    _kernels.BACKEND == "pure-python", reason="the C kernels did not build or load"
)

SETTINGS = settings(
    derandomize=True, database=None, deadline=None, max_examples=300,
    suppress_health_check=[HealthCheck.too_slow],
)

HEADER = "path_id,time,state"
PLAIN_IDS = st.text("abcXYZ019_-.#!~\\/", min_size=1, max_size=4)
ODD_IDS = st.sampled_from(["a,b", 'a"b', " a", "b ", "a b", "", "é", "a\tb", "a\nb"])
TIME_FORMATS = st.sampled_from([repr, "%.17g".__mod__, "%.3g".__mod__, "%e".__mod__,
                                "%.2E".__mod__, "{:+.4f}".format, "{:.0f}.".format])
ODD_TIMES = st.sampled_from(["inf", "-inf", "nan", "-1.5", "-0", "1e999", "1e-400", "1_0",
                             " 1", "1 ", ".5e-3", "+.5", "1.", ".", "1e", "e1", "", "0x1p3",
                             "4.9e-324", "1e0000000000000000000003", "١"])
STATE_FORMATS = st.sampled_from([str, "+{}".format, "00{}".format])
ODD_STATES = st.sampled_from([" {}".format, "{} ".format, "-{}".format,
                              lambda s: "9" * 19 + str(s), lambda s: str(s) * 20])


@st.composite
def panels(draw):
    """The bytes of a panel file: a few paths of increasing times from 0,
    in states 1-3 but for a last one in 1-4, each field in one of its
    canonical forms but for about one in ten."""
    def odd():
        return draw(st.integers(0, 9)) == 0

    rows = []
    for _ in range(draw(st.integers(0, 4))):
        pid = draw(ODD_IDS if odd() else PLAIN_IDS)
        gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=0, max_size=4))
        times = np.concatenate(([0.0], np.cumsum(gaps))).tolist()
        for i, t in enumerate(times):
            time = draw(ODD_TIMES) if odd() else draw(TIME_FORMATS)(t)
            state = draw(st.integers(1, 4 if i == len(times) - 1 else 3))
            rows.append([pid, time, draw(ODD_STATES if odd() else STATE_FORMATS)(state)])
    if draw(st.booleans()):  # as csv writes them: ids quoted where they need it
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        lines = [HEADER] + buf.getvalue().splitlines()
    else:
        lines = [HEADER] + [",".join(row) for row in rows]
    if odd():
        lines.insert(draw(st.integers(0, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return text.encode("utf-8")


def _outcome(file, n=3):
    """What ``read_panel`` makes of ``file``: the panel's ids and array
    bytes, or its exception's type, message and line."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            panel = read_panel(file, n)
    except ValidationError as err:
        return type(err), str(err), getattr(err, "line", None)
    return panel.ids, [(a.dtype.str, a.tobytes()) for a in (panel.times, panel.states,
                                                              panel.starts)]


def _read_both(data: bytes):
    """The outcome of reading ``data`` from a file with the compiled
    tokenizer and with its Python body, checked equal; and, for UTF-8
    data, the same outcome from a text stream."""
    with tempfile.TemporaryDirectory(prefix="iphfit-reader-") as work:
        path = os.path.join(work, "panel.csv")
        with open(path, "wb") as handle:
            handle.write(data)
        got = _outcome(path)
        tokenize = _kernels.tokenize_panel
        _kernels.tokenize_panel = getattr(tokenize, "py_func", tokenize)
        try:
            want = _outcome(path)
        finally:
            _kernels.tokenize_panel = tokenize
    assert got == want, data
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return got
    assert _outcome(io.StringIO(text)) == got, data
    return got


@SETTINGS
@given(data=panels())
def test_generated_panels_read_alike(data):
    _read_both(data)


@pytest.fixture(scope="module")
def written():
    return format_panel(_irregular_panel(12, 3))


@SETTINGS
@given(mutation=MUTATIONS)
def test_mutated_written_panels_read_alike(written, mutation):
    _read_both(mutate(written, mutation).encode("utf-8", "surrogateescape"))


@compiled
@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_written_panels_are_tokenized(end):
    """``format_panel``'s output, with either line end and with or without
    its final one, is the canonical form: the tokenizer gives its rows."""
    panel = _irregular_panel(40, 5)
    text = format_panel(panel).replace("\n", end)
    for data in (text.encode(), text.rstrip(end).encode()):
        ids, path, times, states = _kernels.tokenize_panel(data)
        assert ids == list(panel.ids)
        assert np.array_equal(path, np.repeat(np.arange(len(ids)), np.diff(panel.starts)))
        assert times.tobytes() == panel.times.tobytes()
        assert states.dtype == np.int64 and np.array_equal(states, panel.states)
        assert _read_both(data) == _outcome(io.StringIO(text))


@pytest.mark.parametrize("data", [
    b"",
    b"path_id,time\n",
    b"path_id, time,state\na,0,1\n",
    b'path_id,time,state\n"a",0,1\n',
    b'path_id,time,state\na"b,0,1\n',
    b"path_id,time,state\na ,0,1\n",
    b"path_id,time,state\na,0 ,1\n",
    b"path_id,time,state\na,0,\t1\n",
    b"path_id,time,state\na,1_0,1\n",
    b"path_id,time,state\na,inf,1\n",
    b"path_id,time,state\na,nan,1\n",
    b"path_id,time,state\na,0x1p3,1\n",
    b"path_id,time,state\na,1e,1\n",
    b"path_id,time,state\na,.,1\n",
    b"path_id,time,state\na,0,-1\n",
    b"path_id,time,state\na,0,1234567890123456789\n",
    b"path_id,time,state\na,0,1_0\n",
    b"path_id,time,state\n\xc3\xa9,0,1\n",
    b"path_id,time,state\na,0,1\xff\n",
    b"path_id,time,state\na\x00,0,1\n",
    b"path_id,time,state\ra,0,1\n",
    b"path_id,time,state\na,0,1\rb,0,1\n",
    b"path_id,time,state\na,0,1\r",
    b"path_id,time,state\na,0\n",
    b"path_id,time,state\na,0,1,\n",
    b"path_id,time,state\n,0,1\n",
    b"path_id,time,state\n\na,0,1\n",
    b"path_id,time,state\na,0,1\n\n",
    b"path_id,time,state\na,0,1\n\r\n",
], ids=repr)
def test_other_forms_are_refused(data):
    assert _kernels.tokenize_panel(data) is None
    _read_both(data)


@compiled
def test_tokenizer_takes_only_bytes():
    with pytest.raises(TypeError):
        _kernels.tokenize_panel("path_id,time,state\n")
