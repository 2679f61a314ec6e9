"""The experiment scripts, run in-process as ``python scripts/<name>.py`` would
run them."""

import contextlib
import functools
import io
import re
import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# a table row of hydro_two_bump.py: t, d_X, d_V/d_V0, mass drift
HYDRO_ROW = re.compile(r"^\s*(\d+\.\d+)\s+\S+\s+\S+\s+\S+$", re.MULTILINE)


@functools.cache
def run_script(name):
    """The script's globals after it ran as __main__, and its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        namespace = runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return namespace, out.getvalue()


@pytest.mark.parametrize("name", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_script_runs_to_completion(name):
    _, stdout = run_script(name)
    assert stdout.strip()


def test_hydro_two_bump_reports_no_time_past_its_horizon():
    namespace, stdout = run_script("hydro_two_bump.py")
    times = [float(t) for t in HYDRO_ROW.findall(stdout)]
    assert times
    assert max(times) <= namespace["T_FINAL"]
