"""Each mutant of ``tests/mutants.py`` against the check or oracle that must
catch it, on a small run.  A catcher that misses today is a strict xfail
naming the ROADMAP item that should make it catch."""

from pathlib import Path

import numpy as np
import pytest

import mutants
import test_relations as relations
from flocklab.cli import main

DOCUMENTS = Path(__file__).resolve().parent / "documents"

SMALL_SCALE_DOC = """
[model]
model = mt
s = 0.5
alpha = 1

[initial]
N = 40
seed = 3
vel_min = -1e-3
vel_max = 1e-3

[integration]
dt = 0.05
T = 4
scheme = {scheme}
"""


def test_the_decay_check_catches_a_flipped_rhs(tmp_path, capsys, monkeypatch):
    mutants.plant(monkeypatch, "rhs-sign-flip")
    out = tmp_path / "flipped"
    cfg = str(DOCUMENTS / "mt.cfg")
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == "simulate: decay check failed for mt (worst step 39)\n"


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the decay check's absolute DECAY_SLACK * dt**2 passes "
    "anti-alignment at small velocity scales",
)
@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_the_decay_check_catches_a_flipped_rhs_at_small_velocities(tmp_path, monkeypatch, scheme):
    # the flipped run anti-aligns (d_V grows about 46x under Euler and 50x
    # under rk4), so the decay check must fail it
    mutants.plant(monkeypatch, "rhs-sign-flip")
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SMALL_SCALE_DOC.format(scheme=scheme))
    out = tmp_path / "flipped"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1


def test_the_relations_catch_a_transposed_rhs(monkeypatch):
    # every runtime check passes A^T v (simulate on mt.cfg exits 0); the
    # paper's exact relations do not
    mutants.plant(monkeypatch, "rhs-transpose")
    n, steps = 40, 80
    initial = relations.ensemble(3, n, 2)
    c = np.array([3.0, -2.0])
    moved = relations._shifted(initial, c)
    base = relations.velocities(initial, relations._spec("mt", 1.0), steps)
    shifted = relations.velocities(moved, relations._spec("mt", 1.0), steps) - c
    scale = float(np.max(np.abs(moved.velocities)))
    assert relations.miss(shifted, base) > relations.tolerance(n, steps, scale)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 4: hydro runs no check, so a step that relaxes away "
    "from the average exits 0",
)
def test_a_hydro_check_catches_an_overshooting_average(tmp_path, monkeypatch):
    # on this document the mutant grows d_V about 1.46x, and the certificate
    # still reads unconditional
    mutants.plant(monkeypatch, "nonlocal-average-overshoot")
    cfg = tmp_path / "hydro.cfg"
    cfg.write_text((DOCUMENTS / "hydro.cfg").read_text().replace("alpha = 1", "alpha = 0.2"))
    out = tmp_path / "overshoot"
    assert main(["hydro", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
