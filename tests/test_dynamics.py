import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flocklab.dynamics import (
    MODEL_KINDS,
    AgentEnsemble,
    ModelSpec,
    build_matrix,
    bulk_momentum,
    diameters,
    kinetic_consistency_check,
    rhs,
    simulate,
    step,
    step_times,
)
from flocklab.errors import StabilityError
from flocklab.influence import InfluenceFunction

PHI1 = InfluenceFunction.power_law(1.0)


def two_agent_line():
    return AgentEnsemble(
        t=0.0, positions=np.array([[0.0], [1.0]]), velocities=np.array([[0.0], [1.0]])
    )


def random_ensemble(seed, n=8, d=2, pos=5.0, vel=1.0):
    rng = np.random.default_rng(seed)
    return AgentEnsemble(
        t=0.0,
        positions=rng.uniform(-pos, pos, size=(n, d)),
        velocities=rng.uniform(-vel, vel, size=(n, d)),
    )


def model_for(kind, n, phi=PHI1, alpha=1.0):
    if kind == "leader":
        return ModelSpec(model=kind, phi=phi, alpha=alpha, beta=0.3, leader=0)
    if kind == "vision":
        return ModelSpec(model=kind, phi=phi, alpha=alpha, gamma=0.0, normalization="mt-style")
    return ModelSpec(model=kind, phi=phi, alpha=alpha)


# -------------------------------------------------------------------- types


def test_ensemble_validation():
    with pytest.raises(ValueError):
        AgentEnsemble(t=0.0, positions=np.zeros((2, 2)), velocities=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        AgentEnsemble(t=0.0, positions=np.zeros((0, 2)), velocities=np.zeros((0, 2)))
    with pytest.raises(ValueError):
        AgentEnsemble(t=0.0, positions=np.zeros((2, 4)), velocities=np.zeros((2, 4)))
    with pytest.raises(ValueError):
        AgentEnsemble(
            t=0.0, positions=np.array([[np.inf]]), velocities=np.array([[0.0]])
        )


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(model="mt", phi=PHI1, alpha=0.0)
    with pytest.raises(ValueError):
        ModelSpec(model="leader", phi=PHI1, alpha=1.0)  # missing beta/leader
    with pytest.raises(ValueError):
        ModelSpec(model="mt", phi=PHI1, alpha=1.0, beta=0.5)  # stray parameter
    with pytest.raises(ValueError):
        ModelSpec(model="nope", phi=PHI1, alpha=1.0)


# ---------------------------------------------------------------------- rhs


def test_rhs_zero_for_equal_velocities():
    ens = AgentEnsemble(
        t=0.0, positions=np.array([[0.0], [2.0], [5.0]]), velocities=np.full((3, 1), 0.7)
    )
    for kind in ("cs", "mt", "leader", "vision"):
        acc = rhs(ens, model_for(kind, 3))
        assert np.max(np.abs(acc)) <= 1e-15


def test_rhs_mt_hand_values():
    acc = rhs(two_agent_line(), model_for("mt", 2))
    assert acc == pytest.approx(np.array([[1.0 / 3.0], [-1.0 / 3.0]]), abs=1e-15)


def test_rhs_cs_hand_values():
    acc = rhs(two_agent_line(), model_for("cs", 2))
    assert acc == pytest.approx(np.array([[0.25], [-0.25]]), abs=1e-15)


# --------------------------------------------------------------------- step


def test_step_fixed_point_at_rest():
    ens = AgentEnsemble(t=0.0, positions=np.array([[0.0], [1.0]]), velocities=np.zeros((2, 1)))
    out = step(ens, model_for("mt", 2), dt=0.1)
    assert np.array_equal(out.positions, ens.positions)
    assert np.array_equal(out.velocities, ens.velocities)
    assert out.t == pytest.approx(0.1)


def test_step_euler_hand_values():
    out = step(two_agent_line(), model_for("mt", 2), dt=0.1, scheme="euler")
    assert out.velocities == pytest.approx(np.array([[1.0 / 30.0], [1.0 - 1.0 / 30.0]]), abs=1e-15)
    assert out.positions == pytest.approx(np.array([[0.0], [1.1]]), abs=1e-15)


def test_step_euler_at_unit_coupling_lands_on_row_average():
    ens = random_ensemble(0, n=6)
    model = model_for("mt", 6)
    out = step(ens, model, dt=1.0, scheme="euler")
    from flocklab.dynamics import build_matrix

    expected = build_matrix(ens, model).entries @ ens.velocities
    assert out.velocities == pytest.approx(expected, abs=1e-14)
    _, dv_before = diameters(ens)
    _, dv_after = diameters(out)
    assert dv_after <= dv_before + 1e-12


def test_step_euler_stability_guard():
    with pytest.raises(StabilityError):
        step(two_agent_line(), model_for("mt", 2, alpha=2.0), dt=0.6, scheme="euler")


def test_step_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        step(two_agent_line(), model_for("mt", 2), dt=0.1, scheme="heun")


def test_rk4_matches_adaptive_reference_integrator():
    from scipy.integrate import solve_ivp

    ens = random_ensemble(13, n=5, d=2)
    model = model_for("mt", 5)

    def field(t, y):
        x, v = y[:10].reshape(5, 2), y[10:].reshape(5, 2)
        state = AgentEnsemble(t=t, positions=x, velocities=v)
        return np.concatenate([v.ravel(), rhs(state, model).ravel()])

    y0 = np.concatenate([ens.positions.ravel(), ens.velocities.ravel()])
    ref = solve_ivp(field, (0.0, 2.0), y0, rtol=1e-12, atol=1e-12).y[:, -1]

    state = ens
    for _ in range(200):
        state = step(state, model, dt=0.01, scheme="rk4")
    got = np.concatenate([state.positions.ravel(), state.velocities.ravel()])
    assert got == pytest.approx(ref, abs=1e-9)


# ---------------------------------------------------------------- diagnostics


def test_diameters_single_agent():
    ens = AgentEnsemble(t=0.0, positions=np.array([[1.0]]), velocities=np.array([[2.0]]))
    assert diameters(ens) == (0.0, 0.0)


def test_diameters_collinear():
    ens = AgentEnsemble(
        t=0.0,
        positions=np.array([[0.0], [1.0], [10.0]]),
        velocities=np.full((3, 1), 0.3),
    )
    d_x, d_v = diameters(ens)
    assert d_x == pytest.approx(10.0)
    assert d_v == pytest.approx(0.0)


def test_diameters_match_permuted_bruteforce():
    ens = random_ensemble(5, n=7, d=3)
    perm = np.random.default_rng(1).permutation(7)
    best_x = best_v = 0.0
    for i in perm:
        for j in perm:
            best_x = max(best_x, float(np.linalg.norm(ens.positions[j] - ens.positions[i])))
            best_v = max(best_v, float(np.linalg.norm(ens.velocities[j] - ens.velocities[i])))
    d_x, d_v = diameters(ens)
    assert d_x == pytest.approx(best_x, abs=1e-12)
    assert d_v == pytest.approx(best_v, abs=1e-12)


def test_bulk_momentum_trivial_cases():
    ens = AgentEnsemble(
        t=0.0, positions=np.zeros((2, 1)), velocities=np.array([[1.0], [-1.0]])
    )
    assert bulk_momentum(ens) == pytest.approx(np.array([0.0]))
    ens2 = AgentEnsemble(t=0.0, positions=np.zeros((3, 2)), velocities=np.full((3, 2), 0.4))
    assert bulk_momentum(ens2) == pytest.approx(np.array([0.4, 0.4]))


def test_cs_momentum_conserved_along_rk4():
    ens = random_ensemble(2, n=10, d=2)
    model = model_for("cs", 10, phi=InfluenceFunction.power_law(0.25))
    record = simulate(ens, model, dt=0.01, t_final=20.0, scheme="rk4")
    drift = np.linalg.norm(record.momentum[-1] - record.momentum[0])
    assert drift <= 1e-6


def test_asymmetric_models_do_not_conserve_momentum():
    ens = AgentEnsemble(
        t=0.0,
        positions=np.array([[0.0], [1.0], [10.0]]),
        velocities=np.array([[0.0], [1.0], [0.0]]),
    )
    for kind in ("mt", "leader"):
        acc = rhs(ens, model_for(kind, 3))
        assert abs(acc.mean()) > 1e-3, kind
    # the vision cone needs 2D geometry for a lopsided configuration
    ens2 = AgentEnsemble(
        t=0.0,
        positions=np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]]),
        velocities=np.array([[1.0, 0.0], [1.0, 0.5], [-1.0, 0.0]]),
    )
    acc = rhs(ens2, model_for("vision", 3))
    assert np.linalg.norm(acc.mean(axis=0)) > 1e-3


# ----------------------------------------------------------------- simulate


def test_simulate_at_rest_keeps_diameters():
    ens = AgentEnsemble(
        t=0.0, positions=np.array([[0.0], [3.0]]), velocities=np.zeros((2, 1))
    )
    record = simulate(ens, model_for("mt", 2), dt=0.1, t_final=1.0)
    assert np.all(record.position_diameter == record.position_diameter[0])
    assert np.all(record.velocity_diameter == 0.0)


def test_simulate_dv_nonincreasing_euler():
    ens = random_ensemble(3, n=20, d=2, pos=8.0)
    model = model_for("mt", 20, phi=InfluenceFunction.power_law(0.25))
    record = simulate(ens, model, dt=0.5, t_final=20.0, scheme="euler")
    assert np.all(np.diff(record.velocity_diameter) <= 1e-12)


def test_step_times_rounds_the_horizon_to_whole_steps():
    stamps = step_times(0.0, 0.09, 20.0)  # 20 / 0.09 = 222.2
    assert len(stamps) == 222
    assert stamps[-1] == 19.98
    # the horizon rounds to the nearest step, so the last stamp may pass it
    assert len(step_times(0.0, 0.09, 20.03)) == 223


def test_step_times_takes_at_least_one_step():
    assert step_times(2.0, 0.5, 0.1) == [2.5]


@given(st.floats(-100.0, 100.0), st.floats(1e-3, 1.0), st.floats(1e-3, 50.0))
@settings(max_examples=50, deadline=None)
def test_step_times_are_exact_multiples_of_dt(t0, dt, t_final):
    stamps = step_times(t0, dt, t_final)
    assert len(stamps) == max(1, int(round(t_final / dt)))
    assert all(type(t) is float and t == t0 + k * dt for k, t in enumerate(stamps, start=1))


@pytest.mark.parametrize("t_final", [0.0, -1.0, float("nan")])
def test_step_times_rejects_non_positive_horizon(t_final):
    with pytest.raises(ValueError):
        step_times(0.0, 0.1, t_final)


def test_simulate_snapshot_stride():
    ens = random_ensemble(4, n=3)
    record = simulate(ens, model_for("mt", 3), dt=0.1, t_final=1.0, snapshot_stride=5)
    assert len(record.snapshots) == 3  # initial, step 5, step 10
    assert record.snapshots[1].t == pytest.approx(0.5)
    # only the strided states are kept, stamped k*dt
    ens = random_ensemble(6, n=5)
    model = model_for("mt", 5)
    every = simulate(ens, model, dt=0.1, t_final=2.0, snapshot_stride=1)
    strided = simulate(ens, model, dt=0.1, t_final=2.0, snapshot_stride=7)
    assert [snap.t for snap in strided.snapshots] == [0.0, 7 * 0.1, 14 * 0.1]
    for snap, k in zip(strided.snapshots, (0, 7, 14)):
        assert np.array_equal(snap.positions, every.snapshots[k].positions)
        assert np.array_equal(snap.velocities, every.snapshots[k].velocities)


def test_simulate_observers_see_each_step_start_and_its_matrix():
    ens = random_ensemble(7, n=4)
    model = model_for("leader", 4)
    seen = []
    record = simulate(ens, model, dt=0.1, t_final=1.0, observers=[lambda *a: seen.append(a)])
    assert len(seen) == 10
    for k, (state, d_x, matrix) in enumerate(seen):
        assert state.t == k * 0.1
        assert d_x == record.position_diameter[k]
        assert np.array_equal(matrix.entries, build_matrix(state, model).entries)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_step_with_a_prebuilt_matrix_is_identical(kind, scheme):
    ens = random_ensemble(9, n=6, d=3)
    model = model_for(kind, 6)
    given = step(ens, model, 0.05, scheme, build_matrix(ens, model))
    built = step(ens, model, 0.05, scheme)
    assert np.array_equal(given.positions, built.positions)
    assert np.array_equal(given.velocities, built.velocities)


def test_leader_run_converges_to_leader_velocity():
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 3, size=(8, 2))
    v = rng.uniform(-1, 1, size=(8, 2))
    ens = AgentEnsemble(t=0.0, positions=x, velocities=v)
    model = model_for("leader", 8, phi=InfluenceFunction.power_law(0.5))
    record = simulate(ens, model, dt=0.05, t_final=120.0, snapshot_stride=1)
    final = record.snapshots[-1]
    # leader velocity never changed
    assert final.velocities[0] == pytest.approx(v[0], abs=1e-14)
    spread = np.max(np.linalg.norm(final.velocities - final.velocities[0], axis=1))
    assert spread <= 1e-3


@pytest.mark.parametrize("kind", ["cs", "mt", "leader", "vision"])
def test_discrete_maximum_principle_all_builders(kind):
    state = random_ensemble(17, n=9, d=2)
    model = model_for(kind, 9, alpha=2.0)
    dt = 0.5  # alpha*dt = 1, the hardest admissible Euler step
    for _ in range(100):
        new = step(state, model, dt, scheme="euler")
        _, dv_old = diameters(state)
        _, dv_new = diameters(new)
        assert dv_new <= dv_old + 1e-12
        state = new


def test_velocities_stay_in_initial_bounding_box():
    state = random_ensemble(23, n=12, d=3)
    lo = state.velocities.min(axis=0) - 1e-12
    hi = state.velocities.max(axis=0) + 1e-12
    model = model_for("mt", 12)
    for _ in range(60):
        state = step(state, model, dt=0.3, scheme="euler")
        assert np.all(state.velocities >= lo) and np.all(state.velocities <= hi)


def test_position_diameter_linear_growth_bound():
    ens = random_ensemble(29, n=10, d=2, vel=2.0)
    d_x0, d_v0 = diameters(ens)
    record = simulate(ens, model_for("mt", 10), dt=0.05, t_final=10.0)
    bound = d_x0 + d_v0 * (record.times - record.times[0])
    assert np.all(record.position_diameter <= bound + 1e-9)


# ------------------------------------------------------- kinetic consistency


def test_kinetic_consistency_two_agents():
    assert kinetic_consistency_check(two_agent_line(), PHI1, 1.0) <= 1e-12


@given(st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_kinetic_consistency_random(seed):
    ens = random_ensemble(seed, n=30, d=2)
    assert kinetic_consistency_check(ens, InfluenceFunction.power_law(0.7), 1.3) <= 1e-12


def test_kinetic_consistency_coincident_agents():
    ens = AgentEnsemble(
        t=0.0, positions=np.zeros((4, 2)), velocities=np.arange(8.0).reshape(4, 2)
    )
    assert kinetic_consistency_check(ens, PHI1, 1.0) <= 1e-12
