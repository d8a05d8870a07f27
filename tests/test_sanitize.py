"""A subset of ``sanitize.py --check``: the compiled sweeps and tokenizer
under AddressSanitizer and UBSan, on a few sweeps (lazy normalizers, the
last step-table row, refused calls, full buffers, a dead end) and on the
tokenizer's refused forms and fuzz corpus.  Skipped only when the
toolchain lacks a sanitizer runtime."""

import pytest

import sanitize
from iphfit import _kernels

QUICK = (
    "tests/test_panel_reader.py", "-k", "not generated",
    "tests/test_kernels.py::test_one_segment_groups_draw_what_their_full_series_draws",
    "tests/test_kernels.py::test_bridge_reads_the_last_row_of_its_step_table",
    "tests/test_kernels.py::test_sweep_refuses_other_inputs",
    "tests/test_kernels.py::test_sweep_overflows_where_python_body_does",
    "tests/test_kernels.py::test_sweep_reports_a_dead_end_with_full_buffers",
)


@pytest.mark.skipif(_kernels.BACKEND == "pure-python", reason="the C kernels did not build or load")
def test_kernels_run_clean_under_sanitizers():
    missing = sanitize.runtimes()[1]
    if missing:
        pytest.skip(f"the toolchain has no {', '.join(missing)}")
    code, output = sanitize.run(QUICK)
    assert code == 0, output
