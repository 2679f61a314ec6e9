import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import flocklab
from flocklab import cli, dynamics
from flocklab.activeset import ActionBound, lemma_action_bound
from flocklab.cli import _write_csv, main
from flocklab.dynamics import simulate, step_times
from flocklab.hydro import HydroState1D, step_eulerian
from flocklab.influence import InfluenceFunction, InfluenceMatrix, tail_integral
from flocklab.scenario import Scenario, parse_scenario

MT_DOC = """
[model]
model = mt
s = 0.25
alpha = 1

[initial]
N = 6
seed = 3
pos_min = 0
pos_max = 4

[integration]
dt = 0.05
T = 2
snapshot_stride = 10
"""

HYDRO_DOC = """
[model]
model = mt
s = 0.25
alpha = 1

[initial]
N = 2
seed = 1

[integration]
dt = 0.08
T = 2
snapshot_stride = 10

[hydro]
x_min = -8
x_max = 8
dx = 0.1
profile = two-bump
centers = -3 3
width = 0.5
speeds = 0.5 -0.5
"""

# hydro reads no particles, so its document needs no [initial] section
BARE_HYDRO_DOC = HYDRO_DOC.replace("[initial]\nN = 2\nseed = 1\n\n", "")

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

GROUPS_DOC = """
[model]
model = mt
phi = power-law-with-cutoff
s = 4
cutoff = 5
alpha = 1

[initial]
kind = two-group
N1 = 3
N2 = 20
D = 40
group_spread = 0.5
seed = 11

[integration]
dt = 0.05
T = 150
"""


def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_simulate_writes_outputs(tmp_path):
    cfg = write(tmp_path, MT_DOC)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["prng"] == "splitmix64"
    assert summary["certificate"]["verdict"] == "unconditional"
    assert summary["decay_check"]["passed"] is True
    assert summary["scenario"]["initial"]["seed"] == 3
    diagnostics = (out / "diagnostics.csv").read_text().splitlines()
    assert diagnostics[0] == "t,d_x,d_v,momentum_norm,decay_margin"
    assert len(diagnostics) == 42  # header + 41 recorded instants
    snapshots = (out / "snapshots.csv").read_text().splitlines()
    assert snapshots[0] == "t,agent,x0,x1,v0,v1"
    assert len(snapshots) == 1 + 6 * 5  # initial + steps 10,20,30,40
    # every cell round-trips exactly to the simulated state
    sc = parse_scenario(MT_DOC)
    kept = []

    def keep(k, state, row, built):
        if k % sc.snapshot_stride == 0:
            kept.append(state)

    simulate(sc.initial_ensemble(), sc.to_model_spec(), sc.dt, sc.t_final, sc.scheme,
             observers=[keep])
    cells = [line.split(",") for line in snapshots[1:]]
    expected = [(ens, agent) for ens in kept for agent in range(ens.n)]
    assert len(cells) == len(expected)
    for row, (ens, agent) in zip(cells, expected):
        assert row[1] == str(agent)
        assert [float(c) for c in row[:1] + row[2:]] == [
            ens.t, *ens.positions[agent], *ens.velocities[agent]
        ]


@pytest.mark.parametrize(
    "command,doc,steps,dt",
    [("simulate", MT_DOC, 40, 0.05), ("hydro", HYDRO_DOC, 25, 0.08)],
    ids=["simulate", "hydro"],
)
def test_time_stamps_are_exact_multiples_of_dt(tmp_path, command, doc, steps, dt):
    cfg = write(tmp_path, doc)
    out = tmp_path / command
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [k * dt for k in range(steps + 1)]
    assert rows[-1].split(",")[0] == "2"
    assert json.loads((out / "summary.json").read_text())["final"]["t"] == 2.0


def test_simulate_failed_decay_check_exits_one(tmp_path):
    # rk4 has no stability guard: alpha*dt = 10 blows d_V up by orders of
    # magnitude while the certificate still reads unconditional
    doc = MT_DOC.replace("alpha = 1", "alpha = 200").replace("N = 6", "N = 20")
    doc = doc.replace("T = 2", "T = 1\nscheme = rk4")
    cfg = write(tmp_path, doc)
    out = tmp_path / "blowup"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["certificate"]["verdict"] == "unconditional"
    assert summary["decay_check"]["passed"] is False
    assert summary["final"]["d_v_ratio"] > 1e3
    assert (out / "diagnostics.csv").exists()


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


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the decay check's absolute DECAY_SLACK * dt**2 passes "
    "anti-alignment at small velocity scales",
)
@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_simulate_anti_alignment_at_small_velocities_exits_one(tmp_path, monkeypatch, scheme):
    # with rhs's sign flipped the run anti-aligns (d_V grows about 46x under
    # Euler and 50x under rk4), so the decay check must fail it
    real = dynamics.rhs
    monkeypatch.setattr(dynamics, "rhs", lambda ens, model, matrix: -real(ens, model, matrix))
    cfg = write(tmp_path, SMALL_SCALE_DOC.format(scheme=scheme))
    out = tmp_path / "flipped"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 1


CUTOFF_DOC = """
[model]
model = mt
phi = power-law-with-cutoff
s = 1
cutoff = 2
alpha = {alpha}

[initial]
N = 30
dim = 2
seed = 3
pos_min = 0
pos_max = 20

[integration]
dt = 0.05
T = 1
scheme = {scheme}
"""


def test_simulate_cutoff_kernel_blowup_exits_one(tmp_path):
    # the cutoff is shorter than d_X, so the guaranteed level is 0 and the
    # check reduces to the maximum principle, which the rk4 blow-up breaks
    cfg = write(tmp_path, CUTOFF_DOC.format(alpha=200, scheme="rk4"))
    out = tmp_path / "cutoff_rk4"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["decay_check"]["passed"] is False
    assert summary["final"]["d_v_ratio"] > 100


def test_simulate_cutoff_kernel_euler_passes(tmp_path):
    cfg = write(tmp_path, CUTOFF_DOC.format(alpha=1, scheme="euler"))
    out = tmp_path / "cutoff_euler"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["decay_check"]["passed"] is True
    rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
    # the last instant has no step after it, so its margin stays nan
    margins = [float(r.split(",")[-1]) for r in rows[:-1]]
    assert len(margins) == 20 and all(math.isfinite(m) for m in margins)


def test_simulate_is_byte_deterministic(tmp_path):
    cfg = write(tmp_path, MT_DOC)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out_a), "--quiet"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out_b), "--quiet"]) == 0
    for name in ("diagnostics.csv", "snapshots.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_override_changes_outputs(tmp_path):
    cfg = write(tmp_path, MT_DOC)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out_a), "--quiet"]) == 0
    assert main(
        ["simulate", "--config", cfg, "--out", str(out_b), "--seed", "4", "--quiet"]
    ) == 0
    assert (out_a / "diagnostics.csv").read_bytes() != (out_b / "diagnostics.csv").read_bytes()
    summary = json.loads((out_b / "summary.json").read_text())
    assert summary["scenario"]["initial"]["seed"] == 4


def test_simulate_vision_model_skips_certificate(tmp_path):
    doc = MT_DOC.replace(
        "model = mt", "model = vision\ngamma = 0.2\nnormalization = mt-style"
    )
    cfg = write(tmp_path, doc)
    out = tmp_path / "vision"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["certificate"] is None  # no alignment guarantee for vision
    assert summary["decay_check"] is None  # and no default level schedule
    diagnostics = (out / "diagnostics.csv").read_text().splitlines()
    assert diagnostics[1].endswith("nan")  # margin column not computable


def test_certify_command(tmp_path):
    cfg = write(tmp_path, MT_DOC)
    out = tmp_path / "cert"
    assert main(["certify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["certificate"]["verdict"] == "unconditional"
    assert summary["certificate"]["tail"] == "diverges"
    assert summary["symmetric_theory_tail"] == "diverges"


def test_certify_leader_symmetric_tail_carries_beta_squared(tmp_path):
    # s = 2: the phi tail is finite, and on the leader's beta**2 scale
    doc = MT_DOC.replace("model = mt", "model = leader\nbeta = 0.5\nleader = 0")
    cfg = write(tmp_path, doc.replace("s = 0.25", "s = 2"))
    out = tmp_path / "leader"
    assert main(["certify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    d_x0 = summary["initial"]["d_x"]
    expected = 1.0 * 0.5**2 * tail_integral(InfluenceFunction.power_law(2.0), 1, d_x0)
    assert math.isfinite(expected)
    assert summary["symmetric_theory_tail"] == expected
    assert summary["certificate"]["psi_kind"] == "phi-squared"
    assert summary["certificate"]["psi_scale"] == 0.25


CRITICAL_DOC = """
[model]
model = mt
s = 1
alpha = 1

[initial]
kind = explicit
positions = 0 0; 0 0
velocities = 0 0; 1 0
"""


def test_certify_at_exact_criticality_reports_an_infinite_diameter(tmp_path):
    # d_X0 = 0 and d_V0 = 1 = alpha * integral of (1+r)^-2 over [0, inf)
    cfg = write(tmp_path, CRITICAL_DOC)
    out = tmp_path / "critical"
    assert main(["certify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    certificate = json.loads((out / "summary.json").read_text())["certificate"]
    assert certificate["tail"] == 1.0
    assert certificate["verdict"] == "conditional-satisfied"
    assert certificate["d_star"] == "infinite"
    assert certificate["predicted_rate"] == 0.0


@pytest.mark.parametrize(
    "points,message",
    [
        (
            "positions = 0 0; 1 0\nvelocities = 0 1 0; 1 0 0",
            "velocities must have as many coordinates as positions (key 'velocities')",
        ),
        (
            "positions = 0 0 0 0; 1 0 0 0\nvelocities = 0 1 0 0; 1 0 0 0",
            "out of range: need 1, 2 or 3 coordinates (key 'positions')",
        ),
        (
            "positions = 0 nan; 1 0\nvelocities = 0 1; 1 0",
            "coordinates must be finite (key 'positions')",
        ),
    ],
    ids=["dimension-mismatch", "four-coordinates", "nan"],
)
def test_explicit_points_that_form_no_ensemble_exit_two_naming_the_key(
    tmp_path, capsys, points, message
):
    doc = "[model]\nmodel = mt\ns = 1\nalpha = 1\n[initial]\nkind = explicit\n" + points
    cfg = write(tmp_path, doc)
    for command in ("simulate", "certify", "hydro"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command), "--quiet"]) == 2
        assert message in capsys.readouterr().err


def test_verify_lemma_command(tmp_path):
    out = tmp_path / "lemma"
    assert main(["verify-lemma", "--seed", "5", "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cases"] == 1000
    assert summary["violations"] == 0
    assert summary["worst_slack"] >= -1e-12


def test_verify_lemma_takes_no_config(tmp_path, capsys):
    # it read the document's seed alone and echoed every other key as if used
    cfg = write(tmp_path, MT_DOC)
    out = tmp_path / "lemma"
    assert main(["verify-lemma", "--config", cfg, "--seed", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{cli.USAGE}\nerror: verify-lemma reads no scenario: it takes no --config\n"
    )
    assert not out.exists()


def test_verify_lemma_broken_bound_exits_one(tmp_path, monkeypatch, capsys):
    # every case breaks the bound: the summary is still written, and exit 1
    # names the count on one stderr line
    monkeypatch.setattr(cli, "lemma_action_bound", lambda *a: ActionBound(1.0, 0.0, False))
    out = tmp_path / "lemma"
    assert main(["verify-lemma", "--seed", "5", "--out", str(out), "--quiet"]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["violations"] == 4000
    assert capsys.readouterr().err == "verify-lemma: lemma bound broken in 4000 cases\n"


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_verify_lemma_holds_at_its_extremal_cases(tmp_path, seed):
    out = tmp_path / "lemma"
    assert main(["verify-lemma", "--seed", str(seed), "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "summary.json").read_text())["violations"] == 0


def _false_lemma(weaken):
    """lemma_action_bound with the factor 1 - count**2 theta**2 replaced by
    ``weaken(count * theta)``: a stronger bound than the lemma's."""
    def bound(S, u, w, theta):
        real = lemma_action_bound(S, u, w, theta)
        count = np.count_nonzero((u >= theta * u.sum()) & (w >= theta * w.sum()))
        rhs = np.abs(S).max() * u.sum() * w.sum() * weaken(count * theta)
        return ActionBound(real.lhs, rhs, real.lhs <= rhs + 1e-12)

    return bound


@pytest.mark.parametrize(
    "weaken", [lambda c: 1.0 - c, lambda c: 0.85 * (1.0 - c * c)], ids=["linear", "0.85"]
)
def test_verify_lemma_breaks_a_false_stronger_bound(tmp_path, monkeypatch, capsys, weaken):
    # uniformly drawn S left the worst case 18.8 % below the bound, and both
    # of these passed all 4000 seed-1 cases
    monkeypatch.setattr(cli, "lemma_action_bound", _false_lemma(weaken))
    out = tmp_path / "lemma"
    assert main(["verify-lemma", "--seed", "1", "--out", str(out), "--quiet"]) == 1
    assert json.loads((out / "summary.json").read_text())["violations"] > 0
    assert capsys.readouterr().err.startswith("verify-lemma: lemma bound broken in ")


def test_hydro_command(tmp_path):
    cfg = write(tmp_path, HYDRO_DOC)
    out = tmp_path / "hydro"
    assert main(["hydro", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_step_mass_drift"] <= 1e-12
    assert summary["certificate"]["verdict"] == "unconditional"
    fields = (out / "fields.csv").read_text().splitlines()
    assert fields[0] == "t,x,rho,u"
    diag = (out / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == "t,d_x,d_v,mass"
    # every cell round-trips exactly to the stepped states (initial + steps 10, 20)
    sc = parse_scenario(HYDRO_DOC)
    state, phi = sc.initial_hydro_state(), sc.build_phi()
    expected = [state]
    for k, t in enumerate(step_times(state.t, sc.dt, sc.t_final), start=1):
        stepped = step_eulerian(state, phi, sc.alpha, sc.dt)
        state = HydroState1D(stepped.x_min, stepped.dx, stepped.rho, stepped.u, t=t)
        if k % sc.snapshot_stride == 0:
            expected.append(state)
    cells = [[float(c) for c in line.split(",")] for line in fields[1:]]
    assert len(cells) == 3 * state.n_cells
    rows = [[s.t, x, r, u] for s in expected for x, r, u in zip(s.centers, s.rho, s.u)]
    assert cells == rows


def test_hydro_is_byte_deterministic(tmp_path):
    cfg = write(tmp_path, HYDRO_DOC)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["hydro", "--config", cfg, "--out", str(out_a), "--quiet"]) == 0
    assert main(["hydro", "--config", cfg, "--out", str(out_b), "--quiet"]) == 0
    for name in ("diagnostics.csv", "fields.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_hydro_document_needs_no_initial_section(tmp_path):
    assert "[initial]" not in BARE_HYDRO_DOC
    bare, full = write(tmp_path, BARE_HYDRO_DOC, "bare.cfg"), write(tmp_path, HYDRO_DOC)
    assert main(["hydro", "--config", bare, "--out", str(tmp_path / "bare"), "--quiet"]) == 0
    assert main(["hydro", "--config", full, "--out", str(tmp_path / "full"), "--quiet"]) == 0
    for name in ("diagnostics.csv", "fields.csv"):
        assert (tmp_path / "bare" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()
    # --seed sets only the seed, which describes no particles
    argv = ["hydro", "--config", bare, "--out", str(tmp_path / "seeded"), "--seed", "4", "--quiet"]
    assert main(argv) == 0


@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["certify"], ["compare-groups"], ["sweep", "s", "0.25,0.5"]],
    ids=lambda argv: argv[0],
)
def test_particle_commands_reject_a_document_without_particles(tmp_path, capsys, monkeypatch, argv):
    def no_step(*args, **kwargs):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(dynamics, "step", no_step)
    cfg = write(tmp_path, BARE_HYDRO_DOC)
    out = tmp_path / "out"
    assert main([argv[0], "--config", cfg, "--out", str(out), "--quiet", *argv[1:]]) == 2
    assert "missing required key (key 'N')" in capsys.readouterr().err
    # nothing is written, and the --out the run created is removed again
    assert not out.exists()


@pytest.mark.parametrize("profile", ["gaussian", "uniform"])
def test_hydro_single_profiles(tmp_path, profile):
    # gaussian: rho = exp(-(x - c)^2 / (2 w^2)) about its one center c;
    # uniform: rho = 1; both move at their one speed
    doc = BARE_HYDRO_DOC.replace("profile = two-bump", f"profile = {profile}")
    doc = doc.replace("centers = -3 3", "centers = -3")
    doc = doc.replace("speeds = 0.5 -0.5", "speeds = 0.5")
    if profile == "uniform":  # it reads no centers and no width
        doc = doc.replace("centers = -3\nwidth = 0.5\n", "")
    state = parse_scenario(doc).initial_hydro_state()
    x = -8.0 + 0.1 * (np.arange(160) + 0.5)
    rho = np.exp(-((x + 3.0) ** 2) / (2.0 * 0.5**2)) if profile == "gaussian" else np.ones(160)
    np.testing.assert_allclose(state.centers, x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.rho, rho, rtol=1e-12, atol=0)
    assert np.all(state.u == 0.5)
    cfg = write(tmp_path, doc)
    assert main(["hydro", "--config", cfg, "--out", str(tmp_path / "h"), "--quiet"]) == 0
    summary = json.loads((tmp_path / "h" / "summary.json").read_text())
    assert summary["scenario"]["hydro"]["profile"] == profile
    if profile == "gaussian":
        assert summary["max_step_mass_drift"] <= 1e-12
    else:
        # one speed everywhere stays one speed; mass leaves through the outflow edge
        assert summary["initial"]["d_v"] == summary["final"]["d_v"] == 0.0
        assert summary["final"]["mass"] < summary["initial"]["mass"]


def format_value(value) -> str:
    """Text form of one CSV cell; floats carry 17 significant digits so
    doubles round-trip exactly."""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _per_cell_csv(header, rows) -> bytes:
    """The CSV text cell by cell through format_value: what the writer must match."""
    lines = [",".join(header)] + [",".join(format_value(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


# row counts at the edges of the writers' chunks
CHUNK_EDGES = (1, cli.CHUNK_ROWS - 1, cli.CHUNK_ROWS, cli.CHUNK_ROWS + 1, 2 * cli.CHUNK_ROWS + 1)


def _tile(rows, n):
    """The first n rows of rows repeated."""
    return [rows[k % len(rows)] for k in range(n)]


def test_write_csv_matches_per_cell_formatting_on_float_tables(tmp_path):
    odd = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e22, 0.1, 1 / 3, 2.0, -7.5e-300]
    table = np.column_stack((odd, np.arange(len(odd)), odd[::-1], np.sqrt(np.arange(len(odd)))))
    path = tmp_path / "floats.csv"
    _write_csv(path, ["t", "agent", "x0", "v0"], table)
    assert path.read_bytes() == _per_cell_csv(["t", "agent", "x0", "v0"], table.tolist())
    assert path.read_text().splitlines()[1:4] == ["nan,0,-7.4999999999999996e-300,0",
                                                  "inf,1,2,1", "-inf,2,0.33333333333333331,"
                                                  "1.4142135623730951"]
    _write_csv(path, ["t", "x"], np.empty((0, 2)))
    assert path.read_bytes() == b"t,x\n"
    for n in CHUNK_EDGES:
        col = np.resize(odd, n)
        table = np.column_stack((col, np.arange(n), col[::-1], np.sqrt(np.arange(n))))
        _write_csv(path, ["t", "agent", "x0", "v0"], table)
        assert path.read_bytes() == _per_cell_csv(["t", "agent", "x0", "v0"], table.tolist()), n


def test_write_csv_matches_per_cell_formatting_on_mixed_tables(tmp_path):
    # as in sweep.csv (an int or float value, floats, a str verdict) and
    # compare-groups' diagnostics.csv (a str model, floats)
    rows = [(5, 0.1, math.nan, "unconditional"), (12, 1 / 3, -0.0, "not-guaranteed"),
            (200, 1e22, 5e-324, "n/a")]
    path = tmp_path / "mixed.csv"
    header = ["N", "final_d_v_ratio", "fitted_rate", "verdict"]
    _write_csv(path, header, rows)
    assert path.read_bytes() == _per_cell_csv(header, rows)
    groups = [("cs", 0.0, 1.5), ("cs", 0.05, 1 / 3), ("mt", 0.0, math.inf)]
    _write_csv(path, ["model", "t", "g1_d_v"], groups)
    assert path.read_bytes() == _per_cell_csv(["model", "t", "g1_d_v"], groups)
    _write_csv(path, ["s", "verdict"], [])
    assert path.read_bytes() == b"s,verdict\n"
    for n in CHUNK_EDGES:
        tiled, tiled_groups = _tile(rows, n), _tile(groups, n)
        _write_csv(path, header, tiled)
        assert path.read_bytes() == _per_cell_csv(header, tiled), n
        _write_csv(path, ["model", "t", "g1_d_v"], tiled_groups)
        assert path.read_bytes() == _per_cell_csv(["model", "t", "g1_d_v"], tiled_groups), n


def _blocks(path):
    """A snapshots or fields table's blocks in order: (t text, block lines)."""
    found = {}
    for line in path.read_text().splitlines()[1:]:
        found.setdefault(line.split(",", 1)[0], []).append(line)
    return list(found.items())


# both at dt = 0.1: 20 steps to T = 2
STRIDE_CASES = [
    ("simulate", MT_DOC.replace("dt = 0.05", "dt = 0.1"), "snapshots.csv"),
    ("hydro", HYDRO_DOC.replace("dt = 0.08", "dt = 0.1"), "fields.csv"),
]


@pytest.mark.parametrize("command, doc, table", STRIDE_CASES, ids=["simulate", "hydro"])
def test_snapshot_stride_writes_every_stride_th_state(tmp_path, command, doc, table):
    runs = {}
    for stride, t_final in ((1, 2), (7, 2), (5, 1)):
        text = doc.replace("snapshot_stride = 10", f"snapshot_stride = {stride}")
        cfg = write(tmp_path, text.replace("T = 2", f"T = {t_final}"), f"{stride}.cfg")
        out = tmp_path / f"stride{stride}"
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
        runs[stride] = out
    every, strided, short = (_blocks(runs[s] / table) for s in (1, 7, 5))
    assert len(every) == 21
    # only the strided states are written, stamped k*dt, each as at stride 1
    assert [float(t) for t, _ in strided] == [0.0, 7 * 0.1, 14 * 0.1]
    assert strided == [every[k] for k in (0, 7, 14)]
    # 10 steps at stride 5: the initial state, steps 5 and 10
    assert len(short) == 3 and float(short[1][0]) == pytest.approx(0.5)
    assert short == every[0:11:5]
    # the stride changes what is written, never the run
    diagnostics = (runs[1] / "diagnostics.csv").read_bytes()
    assert (runs[7] / "diagnostics.csv").read_bytes() == diagnostics


@pytest.mark.parametrize(
    "command, target, tables",
    [
        ("simulate", (dynamics, "step"), ("snapshots.csv", "diagnostics.csv", "summary.json")),
        ("hydro", (cli, "step_eulerian"), ("fields.csv", "diagnostics.csv", "summary.json")),
    ],
    ids=["simulate", "hydro"],
)
def test_a_failed_run_leaves_no_partial_table(tmp_path, monkeypatch, command, target, tables):
    # the snapshot table is open, states 0..3 written to it, when the fifth
    # step fails; the run exits 3 and removes it, and writes nothing else
    doc = MT_DOC if command == "simulate" else HYDRO_DOC
    cfg = write(tmp_path, doc.replace("snapshot_stride = 10", "snapshot_stride = 1"))
    out = tmp_path / "run"
    module, name = target
    real, calls, streamed = getattr(module, name), [], []

    def fails_fifth(*args, **kwargs):
        calls.append(args)
        if len(calls) == 5:
            streamed.append((out / tables[0]).exists())
            raise FloatingPointError("non-finite state after time step")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, fails_fifth)
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 3
    assert len(calls) == 5 and streamed == [True]
    for table in tables:
        assert not (out / table).exists(), table


OVERFLOW_DOC = """
[model]
model = cs
s = 0.5
alpha = 1e170

[initial]
kind = explicit
positions = 0 0; 1 0; 0 1
velocities = 1e150 0; -1e150 0; 0 1e150

[integration]
"""


@pytest.mark.parametrize(
    "integration, when",
    [("dt = 0.05\nT = 1\nscheme = rk4\n", "at an rk4 stage"),
     ("dt = 1e-171\nT = 1e-170\n", "after time step")],
    ids=["rk4", "euler"],
)
def test_an_overflowing_step_exits_three(tmp_path, capsys, integration, when):
    # the coupling overflows at the first step: under rk4 inside a stage,
    # under Euler in its result; either way a runtime failure, not bad input,
    # named in one stderr line with no numpy warning before it
    cfg = write(tmp_path, OVERFLOW_DOC + integration)
    out = tmp_path / "run" / "nested"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    assert capsys.readouterr().err == f"error: non-finite state {when}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [["certify"], ["sweep", "N", "3,5"]], ids=["certify", "sweep"])
def test_overflowing_distances_exit_three(tmp_path, capsys, argv):
    # positions up to 1e308 apart overflow their squared distances: d_X read
    # "infinite", under numpy's overflow warning, and the run exited 0 with
    # the verdict unconditional; no bound holds for an infinite diameter
    cfg = write(tmp_path, MT_DOC.replace("pos_max = 4", "pos_max = 1e308"))
    out = tmp_path / "run" / "nested"
    assert main([argv[0], "--config", cfg, "--out", str(out), "--quiet", *argv[1:]]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite diameter at t=0: d_X inf, d_V ")
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "error, line",
    [(MemoryError("Unable to allocate 298. GiB"), "error: Unable to allocate 298. GiB\n"),
     (MemoryError(), "error: out of memory\n")],
    ids=["numpy", "bare"],
)
def test_a_run_too_large_for_memory_exits_three(tmp_path, capsys, monkeypatch, error, line):
    # an N x N buffer beyond memory raised MemoryError: exit 1, the code of a
    # failed check, under a traceback, and an empty --out left behind
    def too_large(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "simulate", too_large)
    cfg = write(tmp_path, MT_DOC)
    out = tmp_path / "run" / "nested"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    assert capsys.readouterr().err == line
    assert not (tmp_path / "run").exists()


def test_a_matrix_broken_mid_run_exits_three(tmp_path, capsys, monkeypatch):
    # the document is valid, so this is no bad input: from its 6th build the
    # mt matrix is normalised by columns, and the run stops at its invariant
    real, built = dynamics.build_mt, []

    def column_normalised(distances, phi, masses=None):
        built.append(None)
        matrix = real(distances, phi, masses)
        if len(built) < 6:
            return matrix
        return InfluenceMatrix(matrix.entries / matrix.entries.sum(axis=0), "mt")

    monkeypatch.setattr(dynamics, "build_mt", column_normalised)
    doc = str(Path(__file__).resolve().parent / "documents" / "mt.cfg")
    out = tmp_path / "run" / "nested"
    assert main(["simulate", "--config", doc, "--out", str(out), "--quiet"]) == 3
    assert len(built) == 6
    assert capsys.readouterr().err == "error: influence matrix rows must sum to 1\n"
    assert not (tmp_path / "run").exists()


def test_a_negative_hydro_density_exits_three(tmp_path, capsys, monkeypatch):
    # a step that leaves one cell's density negative on a valid document
    real = cli.step_eulerian

    def negative(state, *args):
        new = real(state, *args)
        rho = new.rho.copy()
        rho[0] = -1e-3
        return HydroState1D(new.x_min, new.dx, rho, new.u, new.t)

    monkeypatch.setattr(cli, "step_eulerian", negative)
    cfg = write(tmp_path, HYDRO_DOC)
    out = tmp_path / "run"
    assert main(["hydro", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    assert capsys.readouterr().err == "error: density must be non-negative\n"
    assert not out.exists()


def test_a_config_that_is_not_text_exits_two(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_bytes(MT_DOC.encode() + b"# \xff\xfe\n")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'utf-8' codec can't decode") and err.count("\n") == 1
    assert not out.exists()


# key -> (a document that sets it, its line there)
FINITE_KEYS = {
    "pos_max": (MT_DOC, "pos_max = 4"),
    "alpha": (MT_DOC, "alpha = 1"),
    "dt": (MT_DOC, "dt = 0.05"),
    "D": (GROUPS_DOC, "D = 40"),
    "x_min": (HYDRO_DOC, "x_min = -8"),
}


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key", FINITE_KEYS)
def test_a_number_that_is_not_finite_exits_two_naming_its_key(tmp_path, capsys, key, value):
    # pos_max = inf exited 2 naming no key, and alpha or dt = inf exited 3
    # from the Euler guard: bad input reported as a runtime failure
    doc, line = FINITE_KEYS[key]
    cfg = write(tmp_path, doc.replace(line, f"{key} = {value}"))
    out = tmp_path / "run"
    command = "hydro" if key == "x_min" else "simulate"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: out of range: must be finite (key '{key}')\n"
    assert not out.exists()


def test_hydro_builds_one_state_per_step(tmp_path, monkeypatch):
    # the initial state, then per step the stepped state, stamped on the step
    # grid in place
    built = []
    init = HydroState1D.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HydroState1D, "__init__", counting)
    cfg = write(tmp_path, HYDRO_DOC)
    assert main(["hydro", "--config", cfg, "--out", str(tmp_path / "hydro"), "--quiet"]) == 0
    assert len(built) == 1 + 25


def _every_state(path, header, index):
    """``_snapshots`` at stride 1 over :func:`_state` states."""
    return cli._snapshots(1, path, header, index, lambda s: s.columns)


def _state(t, *columns):
    """A recorded state at time t whose block holds ``columns``."""
    return SimpleNamespace(t=t, columns=columns)


def test_block_csv_matches_per_cell_formatting(tmp_path):
    odd = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e22, 0.1, 1 / 3, 2.0, -7.5e-300])
    centers = -12.0 + 0.01 * (np.arange(odd.size) + 0.5)
    path = tmp_path / "fields.csv"
    blocks = [(0.0, odd, odd[::-1]), (0.1, odd[::-1], np.sqrt(np.arange(odd.size))), (0.2, odd, odd)]
    with _every_state(path, ["t", "x", "rho", "u"], centers) as (write,):
        for k, (t, rho, u) in enumerate(blocks):
            write(k, _state(t, rho, u), None, None)
    rows = [[t, x, r, v] for t, rho, u in blocks for x, r, v in zip(centers, rho, u)]
    assert path.read_bytes() == _per_cell_csv(["t", "x", "rho", "u"], rows)
    # 2D columns give one cell per axis, as in snapshots.csv
    x, v = odd.reshape(5, 2), np.arange(10.0).reshape(5, 2) / 3
    with _every_state(path, ["t", "agent", "x0", "x1", "v0", "v1"], np.arange(5)) as (write,):
        write(0, _state(0.1, x, v), None, None)
    rows = [[0.1, k, *x[k], *v[k]] for k in range(5)]
    assert path.read_bytes() == _per_cell_csv(["t", "agent", "x0", "x1", "v0", "v1"], rows)
    for n in CHUNK_EDGES:
        tiled, centers = np.resize(odd, n), -12.0 + 0.01 * (np.arange(n) + 0.5)
        blocks = [(0.0, tiled, tiled[::-1]), (0.1, tiled[::-1], np.sqrt(np.arange(n)))]
        with _every_state(path, ["t", "x", "rho", "u"], centers) as (write,):
            for k, (t, rho, u) in enumerate(blocks):
                write(k, _state(t, rho, u), None, None)
        rows = [[t, x, r, v] for t, rho, u in blocks for x, r, v in zip(centers, rho, u)]
        assert path.read_bytes() == _per_cell_csv(["t", "x", "rho", "u"], rows), n
        x, v = np.resize(odd, (n, 2)), np.arange(2.0 * n).reshape(n, 2) / 3
        with _every_state(path, ["t", "agent", "x0", "x1", "v0", "v1"], np.arange(n)) as (write,):
            write(0, _state(0.1, x, v), None, None)
        rows = [[0.1, k, *x[k], *v[k]] for k in range(n)]
        assert path.read_bytes() == _per_cell_csv(["t", "agent", "x0", "x1", "v0", "v1"], rows), n


def test_block_csv_removes_the_file_of_a_failed_run(tmp_path):
    path = tmp_path / "fields.csv"
    with pytest.raises(RuntimeError):
        with _every_state(path, ["t", "x", "rho", "u"], np.arange(3.0)) as (write,):
            write(0, _state(0.0, np.ones(3), np.zeros(3)), None, None)
            raise RuntimeError("step failed")
    assert not path.exists()
    # a whole table follows the same rule: row 300's str in a float column
    # fails the second chunk after the first is written
    rows = [(0.5 * k, 1.0) for k in range(2 * cli.CHUNK_ROWS)]
    rows[300] = (150.0, "x")
    path = tmp_path / "diagnostics.csv"
    with pytest.raises(TypeError):
        _write_csv(path, ["t", "d_v"], rows)
    assert not path.exists()


def test_hydro_fields_memory_does_not_grow_with_snapshots(tmp_path):
    # stride 1 on 320 cells: held and formatted whole, 80 snapshots took
    # megabytes more than 20; written block by block, only the per-step
    # diagnostics rows grow
    doc = HYDRO_DOC.replace("dt = 0.08", "dt = 0.02").replace("dx = 0.1", "dx = 0.05")
    doc = doc.replace("snapshot_stride = 10", "snapshot_stride = 1")
    peaks = []
    for t_final in (0.4, 1.6):
        cfg = write(tmp_path, doc.replace("T = 2", f"T = {t_final}"))
        argv = ["hydro", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]
        assert main(argv) == 0  # warm up
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len((tmp_path / "out" / "fields.csv").read_text().splitlines()) == 1 + 81 * 320
    assert peaks[1] < peaks[0] + 100_000, peaks


def test_csv_output_memory_does_not_grow_with_rows(tmp_path):
    # formatted whole, one 100,000-row block peaked at 43 MiB; in chunks of
    # CHUNK_ROWS rows each write stays within a few hundred kilobytes
    n = 100_000
    positions, velocities = np.random.default_rng(1).random((2, n, 3))
    table = np.random.default_rng(2).random((n, 5))

    def peak_of(write) -> int:
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            write()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    header = ["t", "agent", "x0", "x1", "x2", "v0", "v1", "v2"]
    with _every_state(tmp_path / "snapshots.csv", header, np.arange(n)) as (write,):
        state = _state(0.5, positions, velocities)
        block_peak = peak_of(lambda: write(0, state, None, None))
    path = tmp_path / "table.csv"
    table_peak = peak_of(lambda: _write_csv(path, ["a", "b", "c", "d", "e"], table))
    assert len((tmp_path / "snapshots.csv").read_text().splitlines()) == 1 + n
    assert len(path.read_text().splitlines()) == 1 + n
    assert block_peak < 2 * 2**20, block_peak
    assert table_peak < 2 * 2**20, table_peak


def test_sweep_exponent_flips_verdict(tmp_path):
    cfg = write(tmp_path, MT_DOC)
    out = tmp_path / "sweep"
    assert main(
        ["sweep", "--config", cfg, "--out", str(out), "--quiet", "s", "0.25,0.5,0.6,1"]
    ) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    verdicts = {float(r.split(",")[0]): r.split(",")[3] for r in rows}
    assert verdicts[0.25] == "unconditional"
    assert verdicts[0.5] == "unconditional"
    assert verdicts[0.6] != "unconditional"
    assert verdicts[1.0] != "unconditional"


def test_sweep_alpha_rates_increase(tmp_path):
    cfg = write(tmp_path, MT_DOC.replace("T = 2", "T = 6"))
    out = tmp_path / "alpha"
    assert main(
        ["sweep", "--config", cfg, "--out", str(out), "--quiet", "alpha", "0.5,1,2"]
    ) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    rates = [float(r.split(",")[2]) for r in rows]
    assert rates[0] < rates[1] < rates[2]


def test_sweep_unfittable_rate_is_strict_json_null(tmp_path):
    cfg = write(tmp_path, MT_DOC.replace("T = 2", "T = 0.05"))  # one step: no fit
    out = tmp_path / "short"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet", "alpha", "1,2"]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    assert [row["fitted_rate"] for row in summary["rows"]] == [None, None]


def test_sweep_rejects_bad_parameter(tmp_path):
    cfg = write(tmp_path, MT_DOC)
    assert main(["sweep", "--config", cfg, "--quiet", "phase", "1,2"]) == 2
    assert main(["sweep", "--config", cfg, "--quiet", "s", " "]) == 2


def test_sweep_failed_decay_check_exits_one(tmp_path, capsys):
    # the simulate blow-up scenario, swept: alpha*dt = 10 under rk4 breaks
    # the decay bound, and the sweep may not exit 0 on it
    doc = MT_DOC.replace("N = 6", "N = 20").replace("T = 2", "T = 1\nscheme = rk4")
    cfg = write(tmp_path, doc)
    out = tmp_path / "blowup"
    assert main(
        ["sweep", "--config", cfg, "--out", str(out), "--quiet", "alpha", "1,200"]
    ) == 1
    assert "decay check failed for alpha = 200.0" in capsys.readouterr().err
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "alpha,final_d_v_ratio,fitted_rate,verdict"
    assert len(rows) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert [r["decay_check_passed"] for r in summary["rows"]] == [True, False]
    assert summary["rows"][1]["final_d_v_ratio"] > 1e3


def test_sweep_vision_rows_have_no_decay_check(tmp_path):
    doc = MT_DOC.replace("model = mt", "model = vision\ngamma = 0.2\nnormalization = mt-style")
    cfg = write(tmp_path, doc)
    out = tmp_path / "vision"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet", "s", "0.5,1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [r["decay_check_passed"] for r in summary["rows"]] == [None, None]
    assert [r["verdict"] for r in summary["rows"]] == ["n/a", "n/a"]


TABULATED_DOC = MT_DOC.replace("s = 0.25", "phi = tabulated\ntable = 0:1 2:0.5 6:0")


def test_invalid_table_exits_two_naming_its_key(tmp_path, capsys):
    cfg = write(tmp_path, MT_DOC.replace("s = 0.25", "phi = tabulated\ntable = 0:1 1:1.5"))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t"), "--quiet"]) == 2
    assert "table values must be non-increasing (key 'table')" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc,key,values,message",
    [
        (MT_DOC, "beta", "0.2,0.5", "only the leader model reads it (key 'beta')"),
        (MT_DOC, "gamma", "0.2", "only the vision model reads it (key 'gamma')"),
        (MT_DOC, "D", "10", "only kind = two-group reads it (key 'D')"),
        (GROUPS_DOC, "N", "10", "only kind = random reads it (key 'N')"),
        (TABULATED_DOC, "s", "0.5", "a tabulated kernel has no exponent (key 's')"),
        (MT_DOC, "N", "6,2.5", "expected an integer, got '2.5' (key 'N')"),
        (MT_DOC, "alpha", "1,fast", "expected a number, got 'fast' (key 'alpha')"),
    ],
    ids=["beta-mt", "gamma-mt", "D-random", "N-two-group", "s-tabulated", "N-2.5", "alpha-word"],
)
def test_sweep_rejects_keys_the_scenario_never_reads(tmp_path, capsys, doc, key, values, message):
    cfg = write(tmp_path, doc)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet", key, values]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_compare_groups_reports_contrast(tmp_path):
    cfg = write(tmp_path, GROUPS_DOC)
    out = tmp_path / "groups"
    assert main(["compare-groups", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mt"]["halving_time"] is not None
    # the remote crowd halts the averaged dynamics: either cs halves much
    # later, or not at all within the horizon (ratio then a lower bound)
    assert summary["halving_time_ratio_cs_over_mt"] > 10.0
    assert summary["rate_ratio_mt_over_cs"] > 1.0


def test_compare_groups_fast_run_has_null_rates(tmp_path):
    # alpha*dt = 1: mt aligns group 1 in one Euler step, leaving too few
    # positive samples for a rate; that is a valid run, not bad input
    cfg = write(tmp_path, GROUPS_DOC.replace("alpha = 1", "alpha = 20"))
    out = tmp_path / "fast"
    assert main(["compare-groups", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mt"]["halving_time"] == 0.05
    assert summary["mt"]["fitted_rate"] is None
    assert summary["rate_ratio_mt_over_cs"] is None
    assert summary["halving_time_ratio_cs_over_mt"] == pytest.approx(11.0)


# a cutoff far below every distance: no agent sees another, so d_V is flat
FLAT_DOC = MT_DOC.replace("s = 0.25", "phi = power-law-with-cutoff\ns = 1\ncutoff = 0.001")
FLAT_GROUPS_DOC = (
    GROUPS_DOC.replace("cutoff = 5", "cutoff = 0.001")
    .replace("N2 = 20", "N2 = 5")
    .replace("T = 150", "T = 2")
)


def test_simulate_flat_run_fits_exactly_positive_zero(tmp_path):
    cfg = write(tmp_path, FLAT_DOC)
    out = tmp_path / "flat"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final"]["d_v_ratio"] == 1.0
    rate = summary["fitted_rate"]
    assert rate == 0.0 and math.copysign(1.0, rate) == 1.0


def test_compare_groups_flat_cs_rate_has_null_rate_ratio(tmp_path):
    # both rates are exactly 0.0: there is no ratio, and no ZeroDivisionError
    cfg = write(tmp_path, FLAT_GROUPS_DOC)
    out = tmp_path / "flat"
    assert main(["compare-groups", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [summary[kind]["fitted_rate"] for kind in ("cs", "mt")] == [0.0, 0.0]
    assert summary["rate_ratio_mt_over_cs"] is None


def test_particle_commands_load_no_least_squares_solver(tmp_path, monkeypatch):
    # the decay rate is a closed-form slope: no command may reach LAPACK's
    # least-squares solver, through numpy.linalg or numpy.polyfit
    def refuse(*args, **kwargs):
        raise AssertionError("a least-squares solver was called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np, "polyfit", refuse)
    mt_cfg, groups_cfg = write(tmp_path, MT_DOC, "mt.cfg"), write(tmp_path, GROUPS_DOC, "g.cfg")
    for argv in (
        ["simulate", "--config", mt_cfg],
        ["sweep", "--config", mt_cfg, "alpha", "0.5,1"],
        ["compare-groups", "--config", groups_cfg],
    ):
        assert main(argv[:3] + ["--out", str(tmp_path / argv[0]), "--quiet"] + argv[3:]) == 0


def test_compare_groups_time_stamps_are_exact(tmp_path):
    # step k is stamped k*dt, not a running sum of dt
    cfg = write(tmp_path, GROUPS_DOC.replace("alpha = 1", "alpha = 20"))
    out = tmp_path / "fast"
    assert main(["compare-groups", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cs"]["halving_time"] == 0.55
    assert summary["cs"]["horizon"] == 0.8
    rows = [r.split(",") for r in (out / "diagnostics.csv").read_text().splitlines()[1:]]
    cs_times = [float(r[1]) for r in rows if r[0] == "cs"]
    assert cs_times == [k * 0.05 for k in range(len(cs_times))]


def test_compare_groups_failed_decay_check_exits_one(tmp_path, capsys):
    # rk4 with alpha*dt = 10 blows the contrast runs up; every step taken is
    # held to the decay bound, so this no longer passes with exit 0
    doc = GROUPS_DOC.replace("alpha = 1", "alpha = 200").replace("T = 150", "T = 1\nscheme = rk4")
    cfg = write(tmp_path, doc)
    out = tmp_path / "blowup"
    assert main(["compare-groups", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert "compare-groups: decay check failed for" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mt"]["final_ratio"] > 10.0
    assert summary["mt"]["decay_check"]["passed"] is False


def test_compare_groups_checks_every_step_taken(tmp_path):
    # group 1 of mt reaches 0.4 of its start early, so its run stops before T
    cfg = write(tmp_path, GROUPS_DOC)
    out = tmp_path / "groups"
    assert main(["compare-groups", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    rows = [r.split(",") for r in (out / "diagnostics.csv").read_text().splitlines()[1:]]
    mt_rows = [r for r in rows if r[0] == "mt"]
    assert float(mt_rows[-1][1]) == summary["mt"]["horizon"] < 150.0
    assert float(mt_rows[-1][2]) <= 0.4 * float(mt_rows[0][2])
    for kind in ("cs", "mt"):
        check = summary[kind]["decay_check"]
        assert check["passed"] is True and check["worst_margin"] >= 0.0
    assert summary["mt"]["decay_check"]["worst_step"] < len(mt_rows) - 1


@pytest.mark.parametrize(
    "model",
    ["model = leader\nbeta = 0.3\nleader = 4", "model = vision\ngamma = 0\nnormalization = mt-style"],
    ids=["leader", "vision"],
)
def test_compare_groups_runs_cs_and_mt_whatever_the_document_model(tmp_path, model):
    # the document's model and its keys are replaced: only the scenario echo differs
    mt, other = tmp_path / "mt", tmp_path / "other"
    for out, doc in ((mt, GROUPS_DOC), (other, GROUPS_DOC.replace("model = mt", model))):
        cfg = write(tmp_path, doc, f"{out.name}.cfg")
        assert main(["compare-groups", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert (mt / "diagnostics.csv").read_bytes() == (other / "diagnostics.csv").read_bytes()
    want, got = (json.loads((d / "summary.json").read_text()) for d in (mt, other))
    assert got.pop("scenario")["model"] != want.pop("scenario")["model"]
    assert got == want


@pytest.mark.parametrize(
    "edit", [("N1 = 3", "N1 = 1"), ("seed = 11", "seed = 11\nvel_min = 0.5\nvel_max = 0.5")]
)
def test_compare_groups_rejects_aligned_group(tmp_path, capsys, edit):
    cfg = write(tmp_path, GROUPS_DOC.replace(*edit))
    assert main(["compare-groups", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
    assert "group 1 starts aligned" in capsys.readouterr().err


def test_compare_groups_requires_two_group_kind(tmp_path):
    cfg = write(tmp_path, MT_DOC)
    assert main(["compare-groups", "--config", cfg, "--quiet"]) == 2


def test_bad_config_exits_two(tmp_path):
    cfg = write(tmp_path, MT_DOC.replace("alpha = 1", "alpha = -3"))
    assert main(["simulate", "--config", cfg, "--quiet"]) == 2
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg"), "--quiet"]) == 2


@pytest.mark.parametrize("dx", ["3", "0.3"], ids=["wider-than-domain", "leaves-remainder"])
def test_hydro_dx_that_does_not_tile_exits_two(tmp_path, capsys, dx):
    # dx = 3 used to fail inside the solver with a message about array
    # lengths; dx = 0.3 used to simulate [0, 0.9] and exit 0
    doc = HYDRO_DOC.replace("x_min = -8\nx_max = 8\ndx = 0.1", f"x_min = 0\nx_max = 1\ndx = {dx}")
    cfg = write(tmp_path, doc)
    assert main(["hydro", "--config", cfg, "--out", str(tmp_path / "h"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "must divide x_max - x_min" in err and "key 'dx'" in err


@pytest.mark.parametrize(
    "command, doc", [("simulate", MT_DOC), ("hydro", HYDRO_DOC)], ids=["simulate", "hydro"]
)
def test_infinite_horizon_exits_two_naming_T(tmp_path, capsys, command, doc):
    # T = inf passed the positivity check and overflowed in step_times,
    # exiting 1, the failed-check code, with a traceback
    cfg = write(tmp_path, doc.replace("T = 2", "T = inf"))
    out = tmp_path / "run"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert "key 'T'" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("seed, code", [(-1, 2), (2**64, 2), (0, 0), (2**64 - 1, 0)])
def test_seed_outside_64_bits_exits_two(tmp_path, capsys, seed, code):
    # splitmix64 reads its seed modulo 2**64: -1 ran seed 2**64 - 1 and
    # 2**64 + 1 seed 1, while the summary recorded the seed as given
    doc = write(tmp_path, MT_DOC.replace("seed = 3", f"seed = {seed}"), "seeded.cfg")
    cfg = write(tmp_path, MT_DOC)
    runs = {
        "document": ["simulate", "--config", doc],
        "flag": ["certify", "--config", cfg, "--seed", str(seed)],
        "lemma": ["verify-lemma", "--seed", str(seed)],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        assert main(argv + ["--out", str(out), "--quiet"]) == code, name
        err = capsys.readouterr().err
        if code:
            assert "key 'seed'" in err, name
            assert not (out / "summary.json").exists()
        else:
            summary = json.loads((out / "summary.json").read_text())
            assert (summary if name == "lemma" else summary["scenario"]["initial"])["seed"] == seed


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["verify-lemma", "--seed", "18446744073709551617"], 2, "key 'seed'"),
        (["verify-lemma"], 2, "key 'seed'"),
        (["hydro", "--config", "CFL"], 3, "CFL violated"),
    ],
    ids=["seed-over-64-bits", "no-seed", "cfl-violated"],
)
def test_input_errors_leave_no_output_directory(tmp_path, capsys, monkeypatch, argv, code, message):
    # --out is created before the command validates its input or steps; an
    # exit 2 or 3 removes every directory the run created and keeps one that
    # was there
    cfl = write(tmp_path, HYDRO_DOC.replace("dt = 0.08", "dt = 0.5"))
    argv = [cfl if word == "CFL" else word for word in argv]
    runs = tmp_path / "runs"
    runs.mkdir()
    monkeypatch.chdir(runs)
    for out in ("big", "a/b/c"):
        assert main([*argv, "--out", out, "--quiet"]) == code
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in runs.iterdir()) == [], out
    (runs / "kept").mkdir()
    (runs / "kept" / "notes.txt").write_text("not the run's")
    assert main([*argv, "--out", "kept/run", "--quiet"]) == code
    assert [p.name for p in (runs / "kept").iterdir()] == ["notes.txt"]
    assert main([*argv, "--out", "kept", "--quiet"]) == code
    assert [p.name for p in (runs / "kept").iterdir()] == ["notes.txt"]


@pytest.mark.parametrize(
    "argv, draws",
    [
        (["compare-groups", "--config", str(EXAMPLES / "two_groups.cfg")], 1),
        (["simulate", "--config", "MT"], 1),
        (["sweep", "--config", "MT", "alpha", "0.5,1"], 2),
    ],
    ids=["compare-groups", "simulate", "sweep"],
)
def test_each_run_draws_its_initial_state_once(tmp_path, monkeypatch, argv, draws):
    # compare-groups drew its two-group state three times: for its group-1
    # check and again for each of its cs and mt runs
    real, drawn = Scenario.initial_ensemble, []

    def counted(sc):
        drawn.append(sc)
        return real(sc)

    monkeypatch.setattr(Scenario, "initial_ensemble", counted)
    argv = [write(tmp_path, MT_DOC) if word == "MT" else word for word in argv]
    assert main(argv + ["--out", str(tmp_path / "run"), "--quiet"]) == 0
    assert len(drawn) == draws


def test_stability_violation_exits_three(tmp_path):
    cfg = write(tmp_path, HYDRO_DOC.replace("dt = 0.08", "dt = 0.5"))
    assert main(["hydro", "--config", cfg, "--out", str(tmp_path / "h"), "--quiet"]) == 3


def test_console_entry_point(tmp_path):
    import subprocess
    import sys

    cfg = write(tmp_path, MT_DOC)
    proc = subprocess.run(
        [sys.executable, "-m", "flocklab", "certify", "--config", cfg,
         "--out", str(tmp_path / "m"), "--quiet"],
        capture_output=True,
    )
    assert proc.returncode == 0


def test_sweep_values_may_start_with_a_negative_decimal(tmp_path):
    doc = MT_DOC.replace("model = mt", "model = vision\ngamma = 0.2\nnormalization = mt-style")
    cfg = write(tmp_path, doc)
    out = tmp_path / "vision"
    assert main(
        ["sweep", "--config", cfg, "--out", str(out), "--quiet", "gamma", "-0.5,0.5"]
    ) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["gamma", "-0.5", "0.5"]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nope", "--out", "OUT"],
        ["simulate", "--out", "OUT"],
        ["simulate", "--config", "CFG", "--out", "OUT", "--bogus"],
        ["verify-lemma", "--out", "OUT", "--seed", "x"],
        ["verify-lemma", "--out", "OUT", "--seed"],
        ["sweep", "--config", "CFG", "--out", "OUT", "alpha"],
        ["simulate", "--config", "CFG", "--out", "OUT", "stray"],
        ["simulate", "--config=", "--out", "OUT"],
    ],
    ids=["empty", "unknown-command", "no-config", "unknown-flag", "seed-word",
         "seed-last", "sweep-one-positional", "stray-positional", "empty-config"],
)
def test_usage_errors_exit_two_before_writing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    names = {"CFG": write(tmp_path, MT_DOC), "OUT": str(out)}
    assert main([names.get(word, word) for word in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(cli.USAGE + "\nerror: ")
    assert not out.exists()


def test_accepted_flag_forms(tmp_path, capsys):
    cfg = write(tmp_path, MT_DOC)
    out = tmp_path / "certify"
    assert main(["certify", f"--config={cfg}", f"--out={out}", "--seed=5", "--quiet"]) == 0
    assert json.loads((out / "summary.json").read_text())["scenario"]["initial"]["seed"] == 5
    sweep = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(sweep), "s", "0.5,1", "--quiet"]) == 0
    assert len((sweep / "sweep.csv").read_text().splitlines()) == 3
    assert capsys.readouterr().out == ""
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith(cli.USAGE + "\n")
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == flocklab.__version__ + "\n"


def test_cli_start_up_imports_no_argument_parser(tmp_path):
    # argparse, with the gettext and locale it imports, costs a fresh
    # process several milliseconds before any command runs
    cfg = write(tmp_path, MT_DOC)
    code = f"""
import sys
from flocklab.cli import main
assert main(["certify", "--config", {cfg!r}, "--out", {str(tmp_path / "c")!r}, "--quiet"]) == 0
print(sorted(m for m in ("argparse", "gettext", "locale") if m in sys.modules))
"""
    src = str(Path(flocklab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_generates_no_record_code():
    # @dataclass compiles each generated method through exec: about 13 ms of
    # a fresh process's import, paid by every command
    code = "import sys, flocklab.cli; print('dataclasses' in sys.modules)"
    src = str(Path(flocklab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
