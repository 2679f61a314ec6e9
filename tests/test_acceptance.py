"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at runtime.
"""

import numpy as np
import pytest

from flocklab.activeset import DecayObserver, lemma_action_bound
from flocklab.dynamics import (
    AgentEnsemble,
    ModelSpec,
    diameters,
    simulate,
    step,
)
from flocklab.flocking import certify, energy, fit_exponential_rate, solve_flock_diameter
from flocklab.hydro import (
    HydroState1D,
    hydro_diameters,
    step_eulerian,
)
from flocklab.influence import InfluenceFunction
from flocklab.rng import SplitMix64
from oracles import kinetic_consistency_check


def ok(num, text):
    print(f"ACCEPTANCE {num:>2}: PASS - {text}")


def seeded_ensemble(seed, n, d=2, pos=(0.0, 10.0), vel=(-1.0, 1.0)):
    rng = SplitMix64(seed)
    x = rng.uniform_array((n, d), *pos)
    v = rng.uniform_array((n, d), *vel)
    return AgentEnsemble(t=0.0, positions=x, velocities=v)


# ---------------------------------------------------------------- criterion 1


def test_acceptance_01_lemma_fuzz():
    rng = SplitMix64(2026)
    worst = np.inf
    for _ in range(1000):
        n = 2 + rng.next_u64() % 7  # sizes 2..8
        s = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                s[i, j] = rng.uniform(-1.0, 1.0)
                s[j, i] = -s[i, j]
        u = np.array([rng.uniform(0.0, 1.0) for _ in range(n)])
        w = np.array([rng.uniform(0.0, 1.0) for _ in range(n)])
        # beside the drawn S, the extremal one: of every antisymmetric S with
        # |S_ij| <= 1 it has the largest |u^T S w|, on u, w and on their
        # two-level forms (each entry 1 or 1e-3), where the lemma is sharp
        u2, w2 = np.where(u < 0.5, 1.0, 1e-3), np.where(w < 0.5, 1.0, 1e-3)
        cases = [(s, u, w)] + [(np.sign(np.outer(a, b) - np.outer(b, a)), a, b)
                               for a, b in ((u, w), (u2, w2))]
        for theta in (rng.uniform(1e-3, 1.0), 1.0 / n, 0.5 / n, 2.0 / n):
            for case in cases:
                res = lemma_action_bound(*case, theta)
                slack = res.rhs - res.lhs
                if case[0].any():  # S = 0 (u = w two-level) has slack 0 and shows nothing
                    worst = min(worst, slack)
                assert slack >= -1e-12
                assert res.holds
    ok(1, f"12000 antisymmetric-action cases hold, worst slack over S != 0 {worst:.3e}")


# ---------------------------------------------------------------- criterion 2


def test_acceptance_02_cs_momentum_conservation():
    ens = seeded_ensemble(2, n=20)
    model = ModelSpec(model="cs", phi=InfluenceFunction.power_law(0.25), alpha=1.0)
    record = simulate(ens, model, dt=0.01, t_final=50.0, scheme="rk4")
    drift = float(np.linalg.norm(record.momentum[-1] - record.momentum[0]))
    assert drift <= 1e-6
    ok(2, f"bulk momentum drift over T=50 rk4 run is {drift:.3e} <= 1e-6")


# ---------------------------------------------------------------- criterion 3


def test_acceptance_03_discrete_maximum_principle():
    phi = InfluenceFunction.power_law(1.0)
    specs = {
        "cs": ModelSpec(model="cs", phi=phi, alpha=2.0),
        "mt": ModelSpec(model="mt", phi=phi, alpha=2.0),
        "leader": ModelSpec(model="leader", phi=phi, alpha=2.0, beta=0.3, leader=0),
        "vision": ModelSpec(
            model="vision", phi=phi, alpha=2.0, gamma=0.2, normalization="cs-style"
        ),
    }
    dt = 0.5  # alpha*dt = 1, the extreme admissible Euler step
    worst = -np.inf
    for name, model in specs.items():
        state = seeded_ensemble(3, n=12, pos=(0.0, 6.0))
        for _ in range(100):
            new = step(state, model, dt, scheme="euler")
            increase = diameters(new)[1] - diameters(state)[1]
            worst = max(worst, increase)
            assert increase <= 1e-12, name
            state = new
    ok(3, f"velocity diameter never grew by more than {worst:.3e} per step")


# ------------------------------------------------------------ criteria 4,5,6


PHI_MT = InfluenceFunction.power_law(0.25)
MT_MODEL = ModelSpec(model="mt", phi=PHI_MT, alpha=1.0)
MT_DT = 0.02


@pytest.fixture(scope="module")
def mt_flagship_run():
    ens = seeded_ensemble(4, n=50, d=2, pos=(0.0, 10.0), vel=(-1.0, 1.0))
    check = DecayObserver(MT_MODEL)
    record = simulate(ens, MT_MODEL, dt=MT_DT, t_final=200.0, observers=[check])
    return ens, record, check


def test_acceptance_04_mt_unconditional_flocking(mt_flagship_run):
    ens, record, _ = mt_flagship_run
    d_x0, d_v0 = diameters(ens)
    cert = certify(d_x0, d_v0, 1.0, PHI_MT, model=MT_MODEL)
    assert cert.verdict == "unconditional"
    assert np.all(record.position_diameter <= cert.d_star + MT_DT * d_v0 + 1e-12)
    ratio = record.velocity_diameter[-1] / d_v0
    assert ratio <= 1e-3  # reached within T = 200
    crossing = int(np.argmax(record.velocity_diameter <= 1e-3 * d_v0))
    fitted = fit_exponential_rate(
        record.times[: crossing + 1], record.velocity_diameter[: crossing + 1]
    )
    assert fitted >= cert.predicted_rate
    ok(
        4,
        f"verdict unconditional, d_X <= d*={cert.d_star:.3f}, "
        f"d_V ratio {ratio:.1e} by t={record.times[crossing]:.1f}, "
        f"fitted rate {fitted:.3f} >= predicted {cert.predicted_rate:.3f}",
    )


def test_acceptance_05_per_step_decay_bound(mt_flagship_run):
    _, record, check = mt_flagship_run
    n = 50
    d_v = record.velocity_diameter
    d_x = record.position_diameter
    theta = PHI_MT(d_x[:-1]) / n
    factor = 1.0 - 1.0 * (n * theta) ** 2 * MT_DT  # alpha = 1, lambda = N
    bound = d_v[:-1] * factor + 10.0 * MT_DT**2
    margin = bound - d_v[1:]
    assert np.all(margin >= 0.0)
    assert check.report().passed
    assert all(count_global == n for count_global, _ in check.counts)  # the proof's level activates everyone
    ok(5, f"per-step contraction bound holds at every step, worst margin {margin.min():.3e}")


def test_acceptance_06_energy_monotone(mt_flagship_run):
    _, record, _ = mt_flagship_run
    series = np.array(
        [
            energy(dx, dv, 1.0, PHI_MT, power=2)
            for dx, dv in zip(record.position_diameter, record.velocity_diameter)
        ]
    )
    increments = np.diff(series)
    assert np.all(increments <= 10.0 * MT_DT**2)
    ok(6, f"energy functional non-increasing, max increment {increments.max():.3e}")


# ---------------------------------------------------------------- criterion 7


def test_acceptance_07_flock_diameter_closed_form():
    d_star = solve_flock_diameter(0.0, 1.0, 1.0, InfluenceFunction.power_law(1.0), power=1)
    assert d_star == pytest.approx(np.e - 1.0, abs=1e-10)
    ok(7, f"d* = {d_star:.12f} matches e-1 to 1e-10")


# ---------------------------------------------------------------- criterion 8


def test_acceptance_08_leader_convergence():
    ens = seeded_ensemble(8, n=30, d=2, pos=(0.0, 5.0), vel=(-1.0, 1.0))
    model = ModelSpec(
        model="leader", phi=InfluenceFunction.power_law(0.5), alpha=1.0, beta=0.3, leader=0
    )
    v_leader = ens.velocities[0].copy()
    state = ens
    dt = 0.05
    hit = None
    while state.t < 300.0:
        state = step(state, model, dt, scheme="euler")
        spread = float(np.max(np.linalg.norm(state.velocities - state.velocities[0], axis=1)))
        if spread <= 1e-3:
            hit = state.t
            break
    assert hit is not None and hit <= 300.0
    assert np.array_equal(state.velocities[0], v_leader)  # leader uninfluenced
    ok(8, f"all 30 agents within 1e-3 of the leader velocity by t={hit:.1f} <= 300")


# ---------------------------------------------------------------- criterion 9


def test_acceptance_09_two_group_contrast():
    phi = InfluenceFunction.power_law_with_cutoff(4.0, 5.0)
    d = 40.0  # separation far beyond the cutoff: cross influence exactly 0
    rng = SplitMix64(9)
    n1, n2 = 5, 100
    x1 = rng.uniform_array((n1, 2), 0.0, 0.5)
    x2 = rng.uniform_array((n2, 2), 0.0, 0.5)
    x2[:, 0] += d
    x = np.vstack([x1, x2])
    v = rng.uniform_array((n1 + n2, 2), -0.25, 0.25)
    initial = AgentEnsemble(t=0.0, positions=x, velocities=v)

    def group_dv(state):
        g = state.velocities[:n1]
        return float(np.max(np.linalg.norm(g[:, None] - g[None, :], axis=-1)))

    dv0 = group_dv(initial)
    dt = 0.05

    def halving_time(kind, horizon):
        model = ModelSpec(model=kind, phi=phi, alpha=1.0)
        state = initial
        while state.t < horizon:
            state = step(state, model, dt, scheme="euler")
            if group_dv(state) <= 0.5 * dv0:
                return state.t
        return None

    t_mt = halving_time("mt", horizon=50.0)
    assert t_mt is not None
    horizon_cs = 12.0 * t_mt
    t_cs = halving_time("cs", horizon=horizon_cs)
    ratio = (t_cs if t_cs is not None else horizon_cs) / t_mt
    assert ratio >= 10.0
    shown = f"{t_cs:.1f}" if t_cs is not None else f"> {horizon_cs:.1f} (never halved)"
    ok(9, f"G1 halving: mt at {t_mt:.2f}, cs {shown}; ratio {'>= ' if t_cs is None else ''}{ratio:.1f}")


# --------------------------------------------------------------- criterion 10


def test_acceptance_10_kinetic_consistency():
    phi = InfluenceFunction.power_law(0.7)
    worst = 0.0
    for seed, n in ((10, 3), (11, 25), (12, 100)):
        ens = seeded_ensemble(seed, n=n, pos=(0.0, 8.0), vel=(-2.0, 2.0))
        worst = max(worst, kinetic_consistency_check(ens, phi, alpha=1.4))
    assert worst <= 1e-12
    ok(10, f"mean-field and matrix routes agree to {worst:.3e} up to N=100")


# --------------------------------------------------------------- criterion 11


def test_acceptance_11_lagrangian_oracle_equivalence():
    phi = InfluenceFunction.power_law(1.0)
    rng = SplitMix64(11)
    x = rng.uniform_array((8, 2), 0.0, 4.0)
    v = rng.uniform_array((8, 2), -1.0, 1.0)
    model = ModelSpec(model="mt", phi=phi, alpha=1.0)
    states = []
    simulate(
        AgentEnsemble(t=0.0, positions=x, velocities=v),
        model,
        dt=0.01,
        t_final=10.0,
        scheme="rk4",
        observers=[lambda k, state, row, built: states.append(state)],
    )
    assert len(states) == 1001
    parts = states[0]
    unit_masses = ModelSpec(model="mt", phi=phi, alpha=1.0, masses=np.ones(8))
    for snap in states[1:]:
        parts = step(parts, unit_masses, 0.01, "rk4")
        assert np.array_equal(parts.positions, snap.positions)
        assert np.array_equal(parts.velocities, snap.velocities)
    ok(11, "unit-mass trajectories equal the particle model bit for bit over T=10")


# --------------------------------------------------------------- criterion 12


def test_acceptance_12_hydro_conservation_and_decay():
    dx = 0.05
    x_min = -12.0
    n = int(round(24.0 / dx))
    centers = x_min + dx * (np.arange(n) + 0.5)
    width = 0.5
    rho = np.exp(-((centers + 4.0) ** 2) / (2 * width**2)) + np.exp(
        -((centers - 4.0) ** 2) / (2 * width**2)
    )
    u = np.where(centers < 0.0, 0.5, -0.5)
    state = HydroState1D(x_min=x_min, dx=dx, rho=rho, u=u)
    phi = InfluenceFunction.power_law(0.25)
    dt = 0.9 * dx / 0.5  # CFL at the limit with max|u| = 0.5
    d_x0, d_v0 = hydro_diameters(state)

    worst_drift = 0.0
    hit = None
    while state.t < 200.0:
        mass_before = state.total_mass
        state = step_eulerian(state, phi, alpha=1.0, dt=dt)
        worst_drift = max(worst_drift, abs(state.total_mass - mass_before) / mass_before)
        d_x, d_v = hydro_diameters(state)
        assert np.isfinite(d_x) and np.isfinite(d_v)
        if d_v <= 0.1 * d_v0:
            hit = state.t
            break
    assert worst_drift <= 1e-12
    assert hit is not None and hit <= 200.0
    ok(
        12,
        f"mass drift {worst_drift:.2e} per step, d_V ratio <= 0.1 by t={hit:.2f} <= 200",
    )


# --------------------------------------------------------------- criterion 13


def test_acceptance_13_tail_criterion_sweep(tmp_path):
    from flocklab.cli import main

    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "[model]\nmodel = mt\ns = 0.25\nalpha = 1\n"
        "[initial]\nN = 12\nseed = 13\npos_max = 6\n"
        "[integration]\ndt = 0.05\nT = 20\n"
    )
    out = tmp_path / "out"
    assert main(
        ["sweep", "--config", str(cfg), "--out", str(out), "--quiet", "s", "0.25,0.5,0.6,1"]
    ) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    verdicts = {float(r.split(",")[0]): r.split(",")[3] for r in rows}
    for s_value, verdict in verdicts.items():
        assert (verdict == "unconditional") == (s_value <= 0.5), verdicts
    ok(13, f"verdict flips from unconditional exactly above s = 0.5: {verdicts}")
