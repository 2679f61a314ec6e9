import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import flocklab
from flocklab import cli
from flocklab.cli import _write_csv, main
from flocklab.dynamics import simulate, step_times
from flocklab.hydro import step_eulerian
from flocklab.influence import InfluenceFunction, tail_integral
from flocklab.scenario import format_value, parse_scenario

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
    record = simulate(sc.initial_ensemble(), sc.to_model_spec(), sc.dt, sc.t_final,
                      sc.scheme, snapshot_stride=sc.snapshot_stride)
    cells = [line.split(",") for line in snapshots[1:]]
    expected = [(ens, agent) for ens in record.snapshots for agent in range(ens.n)]
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


def test_verify_lemma_command(tmp_path):
    out = tmp_path / "lemma"
    assert main(["verify-lemma", "--seed", "5", "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cases"] == 1000
    assert summary["violations"] == 0
    assert summary["worst_slack"] >= -1e-12


def test_verify_lemma_honours_output_summary(tmp_path):
    cfg = write(tmp_path, MT_DOC + "\n[output]\nsummary = lemma.json\n")
    out = tmp_path / "lemma"
    assert main(["verify-lemma", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["lemma.json"]
    summary = json.loads((out / "lemma.json").read_text())
    assert summary["command"] == "verify-lemma"
    assert summary["seed"] == 3
    assert summary["scenario"]["output"]["summary"] == "lemma.json"


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
        state = replace(step_eulerian(state, phi, sc.alpha, sc.dt), t=t)
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


def _per_cell_csv(header, rows) -> bytes:
    """The CSV text cell by cell through format_value: what the writer must match."""
    lines = [",".join(header)] + [",".join(format_value(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


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


def test_block_csv_matches_per_cell_formatting(tmp_path):
    odd = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e22, 0.1, 1 / 3, 2.0, -7.5e-300])
    centers = -12.0 + 0.01 * (np.arange(odd.size) + 0.5)
    path = tmp_path / "fields.csv"
    blocks = [(0.0, odd, odd[::-1]), (0.1, odd[::-1], np.sqrt(np.arange(odd.size))), (0.2, odd, odd)]
    with cli._BlockCSV(path, ["t", "x", "rho", "u"], centers) as table:
        for t, rho, u in blocks:
            table.write(t, rho, u)
    rows = [[t, x, r, v] for t, rho, u in blocks for x, r, v in zip(centers, rho, u)]
    assert path.read_bytes() == _per_cell_csv(["t", "x", "rho", "u"], rows)
    # 2D columns give one cell per axis, as in snapshots.csv
    x, v = odd.reshape(5, 2), np.arange(10.0).reshape(5, 2) / 3
    with cli._BlockCSV(path, ["t", "agent", "x0", "x1", "v0", "v1"], np.arange(5)) as table:
        table.write(0.1, x, v)
    rows = [[0.1, k, *x[k], *v[k]] for k in range(5)]
    assert path.read_bytes() == _per_cell_csv(["t", "agent", "x0", "x1", "v0", "v1"], rows)


def test_block_csv_removes_the_file_of_a_failed_run(tmp_path):
    path = tmp_path / "fields.csv"
    with pytest.raises(RuntimeError):
        with cli._BlockCSV(path, ["t", "x", "rho", "u"], np.arange(3.0)) as table:
            table.write(0.0, np.ones(3), np.zeros(3))
            raise RuntimeError("step failed")
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


def test_stability_violation_exits_three(tmp_path):
    cfg = write(tmp_path, HYDRO_DOC.replace("dt = 0.08", "dt = 0.5"))
    assert main(["hydro", "--config", cfg, "--out", str(tmp_path / "h"), "--quiet"]) == 3


def test_cli_runs_on_numpy_alone(tmp_path):
    # scipy is a test dependency only, and no numpy submodule that loads on
    # first use (np.unique pulls in numpy.ma) may run inside a command
    simulate_cfg = write(tmp_path, MT_DOC, "simulate.cfg")
    hydro_cfg = write(tmp_path, HYDRO_DOC, "hydro.cfg")
    code = f"""
import sys
from flocklab.cli import main
assert main(["simulate", "--config", {simulate_cfg!r}, "--out", {str(tmp_path / "s")!r}, "--quiet"]) == 0
assert main(["hydro", "--config", {hydro_cfg!r}, "--out", {str(tmp_path / "h")!r}, "--quiet"]) == 0
print(sorted(m for m in ("scipy", "numpy.ma") if m in sys.modules))
"""
    src = str(Path(flocklab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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
