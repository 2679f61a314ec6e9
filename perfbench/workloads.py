"""The four pinned benchmark workloads.

Each workload turns the benchmark seed into a scenario document and CLI
arguments, computes its reference result with ``oracle`` (once per seed),
and checks a finished run's output directory against it.  The seed reaches
the program only through the generated scenario and ``--seed``.

Why these four: each layer a later change is likely to optimise does most of
the work in one workload and almost none in another (see README.md for the
layer -> metric -> workload predictions).  ``DECLARED`` names the two that
BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

import oracle

# Numbers must agree with the reference to this relative tolerance.  It is
# far above the rounding differences of a reordered sum and far below any
# change of algorithm, schedule or step count.
REL_TOL = 1e-9
MASS_DRIFT_LIMIT = 1e-12


def _problems_close(label: str, got, want, scale: float = 0.0) -> List[str]:
    if not isinstance(got, (int, float)) or isinstance(got, bool) or not math.isfinite(got):
        return [f"{label}: expected a finite number, got {got!r}"]
    if abs(got - want) <= REL_TOL * max(abs(want), scale):
        return []
    return [f"{label}: {got!r} differs from reference {want!r}"]


def _csv(path: Path) -> Tuple[List[str], List[List[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _check_csv_shape(path: Path, header: List[str], rows: int) -> List[str]:
    got_header, got_rows = _csv(path)
    if got_header != header:
        return [f"{path.name}: header {got_header} != {header}"]
    if len(got_rows) != rows or any(len(r) != len(header) for r in got_rows):
        return [f"{path.name}: expected {rows} rows of {len(header)} cells"]
    return []


def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())


@dataclass(frozen=True)
class Workload:
    """One pinned scenario.

    ``scenario(seed)`` is the document written to --config, ``argv`` the
    CLI arguments after --config/--out, ``setup_override`` the scenario
    fields the set-up phase applies before building the initial state,
    ``elements`` the agents (or cells) times steps one run advances, summed
    over sweep values.  ``check(out_dir, reference)`` returns problems.
    ``yardstick_s`` holds the yardstick's ``wall_s`` and ``setup_s`` on a
    quiet host: about the fastest of many samples on the 2-vCPU Intel Xeon
    VM the benchmark was defined on.  They only set the scale of reported
    times.
    """

    name: str
    why: str
    scenario: Callable[[int], str]
    argv: Tuple[str, ...]
    hydro: bool
    setup_override: Callable[[int], Dict]
    elements: int
    reference: Callable[[int], dict]
    check: Callable[[Path, dict], List[str]]
    yardstick_s: Dict[str, float]


# --- simulate-mt-verify -----------------------------------------------------

MT_N, MT_DT, MT_T, MT_STRIDE = 200, 0.02, 2.0, 50
MT_STEPS = int(round(MT_T / MT_DT))


def _mt_scenario(seed: int) -> str:
    return f"""[model]
model = mt
phi = power-law
s = 0.5
alpha = 1
[initial]
kind = random
N = {MT_N}
dim = 2
seed = {seed}
pos_min = 0
pos_max = 10
[integration]
dt = {MT_DT}
T = {MT_T}
scheme = euler
snapshot_stride = {MT_STRIDE}
"""


def _mt_reference(seed: int) -> dict:
    x, v = oracle.random_ensemble(seed, MT_N, 2)
    d_x, d_v, worst = oracle.mt_euler_run(x, v, 0.5, 1.0, MT_DT, MT_STEPS, decay_check=True)
    return {"d_v0": d_v[0], "d_v": d_v[-1], "ratio": d_v[-1] / d_v[0], "worst_margin": worst}


def _mt_check(out: Path, ref: dict) -> List[str]:
    summary = _summary(out)
    decay = summary["decay_check"] or {}
    problems = [] if decay.get("passed") is True else ["decay_check.passed is not true"]
    problems += _problems_close("final.d_v_ratio", summary["final"]["d_v_ratio"], ref["ratio"])
    # margins are differences of O(d_v) numbers: compare on that scale
    problems += _problems_close(
        "decay_check.worst_margin", decay.get("worst_margin"), ref["worst_margin"], ref["d_v0"]
    )
    problems += _problems_close("final.t", summary["final"]["t"], MT_T)
    if (summary["certificate"] or {}).get("verdict") != "unconditional":
        problems.append("certificate verdict is not 'unconditional' (2s = 1 tail diverges)")
    problems += _check_csv_shape(
        out / "diagnostics.csv", ["t", "d_x", "d_v", "momentum_norm", "decay_margin"], MT_STEPS + 1
    )
    axes = ["x0", "x1", "v0", "v1"]
    problems += _check_csv_shape(
        out / "snapshots.csv", ["t", "agent"] + axes, (MT_STEPS // MT_STRIDE + 1) * MT_N
    )
    return problems


# --- hydro-fine ---------------------------------------------------------------

HY_DX, HY_DT, HY_T, HY_STRIDE, HY_EPS = 0.01, 0.01, 0.1, 10, 1e-6
HY_X = (-12.0, 12.0)
HY_CELLS = int(round((HY_X[1] - HY_X[0]) / HY_DX))
HY_STEPS = int(round(HY_T / HY_DT))


def _hydro_shape(seed: int):
    """Bump centres near -4 and 4 and inward speeds near 0.5, drawn from the
    seed; every speed keeps the CFL number dt*|u|/dx below 0.7."""
    u = oracle.splitmix_uniform(seed, 4).tolist()
    centers = (-4.0 + (u[0] - 0.5), 4.0 + (u[1] - 0.5))
    speeds = (0.5 + 0.2 * u[2], -0.5 - 0.2 * u[3])
    return centers, speeds


def _hydro_scenario(seed: int) -> str:
    centers, speeds = _hydro_shape(seed)
    return f"""[model]
model = mt
phi = power-law
s = 0.5
alpha = 1
[initial]
N = 2
seed = {seed}
[integration]
dt = {HY_DT}
T = {HY_T}
snapshot_stride = {HY_STRIDE}
[hydro]
x_min = {HY_X[0]}
x_max = {HY_X[1]}
dx = {HY_DX}
profile = two-bump
centers = {centers[0]!r} {centers[1]!r}
width = 0.5
speeds = {speeds[0]!r} {speeds[1]!r}
epsilon = {HY_EPS}
"""


def _hydro_reference(seed: int) -> dict:
    centers, speeds = _hydro_shape(seed)
    return oracle.hydro_run(
        HY_X[0], HY_X[1], HY_DX, centers, 0.5, speeds, 0.5, 1.0, HY_DT, HY_STEPS, HY_EPS
    )


def _hydro_check(out: Path, ref: dict) -> List[str]:
    summary = _summary(out)
    drift = summary["max_step_mass_drift"]
    problems = [] if drift <= MASS_DRIFT_LIMIT else [f"max_step_mass_drift {drift!r} > 1e-12"]
    final = summary["final"]
    for key in ("d_v", "d_x", "mass"):
        problems += _problems_close(f"final.{key}", final[key], ref[key])
    problems += _problems_close("final.t", final["t"], HY_T)
    problems += _check_csv_shape(out / "diagnostics.csv", ["t", "d_x", "d_v", "mass"], HY_STEPS + 1)
    problems += _check_csv_shape(
        out / "fields.csv", ["t", "x", "rho", "u"], (HY_STEPS // HY_STRIDE + 1) * HY_CELLS
    )
    return problems


# --- sweep-cutoff-largeN ------------------------------------------------------

SW_NS, SW_DT, SW_T, SW_CUTOFF = (500, 1000, 2000), 0.05, 0.75, 2.0
SW_STEPS = int(round(SW_T / SW_DT))


def _sweep_scenario(seed: int) -> str:
    return f"""[model]
model = mt
phi = power-law-with-cutoff
s = 1
cutoff = {SW_CUTOFF}
alpha = 1
[initial]
kind = random
N = {SW_NS[0]}
dim = 2
seed = {seed}
pos_min = 0
pos_max = 20
[integration]
dt = {SW_DT}
T = {SW_T}
scheme = euler
"""


def _sweep_reference(seed: int) -> dict:
    rows = []
    times = SW_DT * np.arange(SW_STEPS + 1)
    for n in SW_NS:
        x, v = oracle.random_ensemble(seed, n, 2, pos=(0.0, 20.0))
        d_x, d_v, _ = oracle.mt_euler_run(x, v, 1.0, 1.0, SW_DT, SW_STEPS, cutoff=SW_CUTOFF)
        rows.append({
            "value": n,
            "final_d_v_ratio": d_v[-1] / d_v[0],
            "fitted_rate": oracle.fitted_rate(times, d_v),
            "verdict": oracle.cutoff_verdict(d_x[0], d_v[0], 1.0, 1.0, SW_CUTOFF),
        })
    return {"rows": rows}


def _sweep_check(out: Path, ref: dict) -> List[str]:
    rows = _summary(out)["rows"]
    if [r["value"] for r in rows] != list(SW_NS):
        return [f"sweep values {[r['value'] for r in rows]} != {list(SW_NS)}"]
    problems = []
    for got, want in zip(rows, ref["rows"]):
        for key in ("final_d_v_ratio", "fitted_rate"):
            problems += _problems_close(f"N={want['value']} {key}", got[key], want[key])
        if got["verdict"] != want["verdict"]:
            problems.append(f"N={want['value']} verdict {got['verdict']!r} != {want['verdict']!r}")
    header, csv_rows = _csv(out / "sweep.csv")
    if header != ["N", "final_d_v_ratio", "fitted_rate", "verdict"] or len(csv_rows) != len(SW_NS):
        problems.append("sweep.csv does not hold one row per swept value")
    else:
        for row, want in zip(csv_rows, ref["rows"]):
            problems += _problems_close(f"sweep.csv N={want['value']}", float(row[1]), want["final_d_v_ratio"])
    return problems


# --- simulate-vision-rk4 ------------------------------------------------------

VI_N, VI_DT, VI_T, VI_GAMMA, VI_S, VI_ALPHA = 150, 0.02, 2.0, 0.0, 0.5, 2.0
VI_STEPS = int(round(VI_T / VI_DT))


def _vision_scenario(seed: int) -> str:
    return f"""[model]
model = vision
phi = power-law
s = {VI_S}
alpha = {VI_ALPHA}
gamma = {VI_GAMMA}
normalization = mt-style
[initial]
kind = random
N = {VI_N}
dim = 3
seed = {seed}
pos_min = 0
pos_max = 10
[integration]
dt = {VI_DT}
T = {VI_T}
scheme = rk4
snapshot_stride = 1
"""


def _vision_reference(seed: int) -> dict:
    x, v = oracle.random_ensemble(seed, VI_N, 3)
    x, v = oracle.vision_rk4_run(x, v, VI_S, VI_GAMMA, VI_ALPHA, VI_DT, VI_STEPS)
    return {"d_x": oracle.diameter(x), "d_v": oracle.diameter(v), "state": np.hstack([x, v])}


def _vision_check(out: Path, ref: dict) -> List[str]:
    summary = _summary(out)
    problems = []
    for key in ("d_x", "d_v"):
        problems += _problems_close(f"final.{key}", summary["final"][key], ref[key])
    if summary["decay_check"] is not None or summary["certificate"] is not None:
        problems.append("vision run must carry neither a decay check nor a certificate")
    header = ["t", "agent", "x0", "x1", "x2", "v0", "v1", "v2"]
    shape = _check_csv_shape(out / "snapshots.csv", header, (VI_STEPS + 1) * VI_N)
    if shape:
        return problems + shape
    _, rows = _csv(out / "snapshots.csv")
    last = np.array([[float(c) for c in row[2:]] for row in rows[-VI_N:]])
    scale = float(np.max(np.abs(ref["state"])))
    err = float(np.max(np.abs(last - ref["state"])))
    if not err <= REL_TOL * scale:
        problems.append(f"snapshots.csv final state differs from reference by {err:.3g}")
    problems += _check_csv_shape(
        out / "diagnostics.csv", ["t", "d_x", "d_v", "momentum_norm", "decay_margin"], VI_STEPS + 1
    )
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="simulate-mt-verify",
            why="certification path: mt N=200 Euler with the per-step decay check; "
            "the verifier's active sets and matrix rebuilds dominate",
            scenario=_mt_scenario,
            argv=("simulate",),
            hydro=False,
            setup_override=lambda seed: {"seed": seed},
            elements=MT_N * MT_STEPS,
            reference=_mt_reference,
            check=_mt_check,
            yardstick_s={"wall_s": 0.57, "setup_s": 0.3},
        ),
        Workload(
            name="hydro-fine",
            why="1D hydro on 2400 cells: the nonlocal average is nearly all the "
            "time and no particle layer runs",
            scenario=_hydro_scenario,
            argv=("hydro",),
            hydro=True,
            setup_override=lambda seed: {},
            elements=HY_CELLS * HY_STEPS,
            reference=_hydro_reference,
            check=_hydro_check,
            yardstick_s={"wall_s": 0.64, "setup_s": 0.31},
        ),
        Workload(
            name="sweep-cutoff-largeN",
            why="dense kernel and diameters at N=500..2000 with a cutoff kernel; "
            "no verifier runs",
            scenario=_sweep_scenario,
            argv=("sweep", "N", ",".join(str(n) for n in SW_NS)),
            hydro=False,
            setup_override=lambda seed: {"seed": seed, "n": max(SW_NS)},
            elements=sum(SW_NS) * SW_STEPS,
            reference=_sweep_reference,
            check=_sweep_check,
            yardstick_s={"wall_s": 1.85, "setup_s": 0.34},
        ),
        Workload(
            name="simulate-vision-rk4",
            why="vision cone builder four times per rk4 step and the heaviest CSV "
            "output; no decay check",
            scenario=_vision_scenario,
            argv=("simulate",),
            hydro=False,
            setup_override=lambda seed: {"seed": seed},
            elements=VI_N * VI_STEPS,
            reference=_vision_reference,
            check=_vision_check,
            yardstick_s={"wall_s": 0.59, "setup_s": 0.31},
        ),
    )
}

# The workloads BENCHMARK.json declares.  Between them they run every layer.
# On the shared host a run needs 60 s for steady timings (README.md, "Noise
# on a shared machine"), and a regression check can afford two such
# workloads; the other two run by name.
DECLARED = ("simulate-mt-verify", "hydro-fine")
