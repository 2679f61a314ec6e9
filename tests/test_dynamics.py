from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from flocklab import dynamics, influence
from flocklab.dynamics import (
    MODEL_KINDS,
    AgentEnsemble,
    ModelSpec,
    build_matrix,
    bulk_momentum,
    diameter,
    diameters,
    march,
    rhs,
    simulate,
    step,
    step_times,
)
from flocklab.errors import StabilityError
from flocklab.influence import InfluenceFunction
from oracles import kinetic_consistency_check

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
    # masses weight the mt model's columns and no other model's
    for extra in ({"model": "cs"}, {"model": "leader", "beta": 0.3, "leader": 0},
                  {"model": "vision", "gamma": 0.0, "normalization": "mt-style"}):
        with pytest.raises(ValueError, match="masses"):
            ModelSpec(phi=PHI1, alpha=1.0, masses=np.ones(2), **extra)


# ---------------------------------------------------------------------- rhs


def test_rhs_zero_for_equal_velocities():
    ens = AgentEnsemble(
        t=0.0, positions=np.array([[0.0], [2.0], [5.0]]), velocities=np.full((3, 1), 0.7)
    )
    for kind in ("cs", "mt", "leader", "vision"):
        model = model_for(kind, 3)
        acc = rhs(ens, model, build_matrix(ens, model))
        assert np.max(np.abs(acc)) <= 1e-15


def test_rhs_mt_hand_values():
    ens, model = two_agent_line(), model_for("mt", 2)
    acc = rhs(ens, model, build_matrix(ens, model))
    assert acc == pytest.approx(np.array([[1.0 / 3.0], [-1.0 / 3.0]]), abs=1e-15)


def test_rhs_cs_hand_values():
    ens, model = two_agent_line(), model_for("cs", 2)
    acc = rhs(ens, model, build_matrix(ens, model))
    assert acc == pytest.approx(np.array([[0.25], [-0.25]]), abs=1e-15)


def test_rhs_only_multiplies(monkeypatch):
    ens, model = random_ensemble(5, n=6), model_for("mt", 6, alpha=0.7)
    matrix = build_matrix(ens, model)

    def refuse(*args, **kwargs):
        raise AssertionError("rhs built something")

    monkeypatch.setattr(dynamics, "build_matrix", refuse)
    monkeypatch.setattr(influence, "pairwise_distances", refuse)
    expected = 0.7 * (matrix.entries @ ens.velocities - ens.velocities)
    assert np.array_equal(rhs(ens, model, matrix), expected)
    with pytest.raises(TypeError):
        rhs(ens, model)  # the matrix has no default


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


LINE = ((0.0, 1.0), (0.0, 1.0))  # two_agent_line's positions and velocities
FAR = ((1e308, 1e308), (1e308, 1e308))  # one step of size 1 overflows the positions
STIFF = ((0.0, 1.0, 0.0), (1e150, -1e150, 1e150))  # alpha*(a v - v) overflows at the start


@pytest.mark.parametrize(
    "state, alpha, dt, scheme, error, message",
    [
        (LINE, 1.0, 0.0, "euler", ValueError, "dt must be positive"),
        (LINE, 1.0, float("nan"), "rk4", ValueError, "dt must be positive"),
        (LINE, 1.0, 0.1, "heun", ValueError, "unknown scheme 'heun'"),
        (LINE, 2.0, 0.6, "euler", StabilityError, r"alpha\*dt <= 1, got 1.2"),
        (LINE, 2.0, 0.6, "rk4", None, None),  # rk4 is not refused at alpha*dt > 1
        (STIFF, 1e170, 0.05, "rk4", FloatingPointError, "non-finite state at an rk4 stage"),
        (FAR, 1.0, 1.0, "euler", FloatingPointError, "non-finite state after time step"),
        (FAR, 1.0, 0.5, "rk4", FloatingPointError, "non-finite state after time step"),
    ],
    ids=["dt-zero", "dt-nan", "unknown-scheme", "euler-guard", "rk4-unguarded",
         "rk4-stage", "euler-result", "rk4-result"],
)
def test_step_error_contract(state, alpha, dt, scheme, error, message):
    x, v = (np.array(coords)[:, None] for coords in state)
    ens = AgentEnsemble(t=0.0, positions=x, velocities=v)
    model = model_for("mt", len(x), alpha=alpha)
    if error is None:
        out = step(ens, model, dt, scheme)
        assert out.t == dt and np.all(np.isfinite(out.velocities))
        return
    with pytest.raises(error, match=message):
        step(ens, model, dt, scheme)


@pytest.mark.parametrize(
    "scheme, given, passes",
    [("euler", True, 0), ("euler", False, 1), ("rk4", True, 3), ("rk4", False, 4)],
)
def test_step_builds_what_it_reads_into_one_distance_buffer(monkeypatch, scheme, given, passes):
    # one distance pass per matrix the step builds: the first allocates the
    # N x N buffer and every later one writes into it
    ens, model = random_ensemble(4, n=7), model_for("mt", 7)
    matrix = build_matrix(ens, model) if given else None
    expected = step(ens, model, 0.1, scheme)
    calls = []
    real = influence.pairwise_distances

    def spy(points, out=None):
        result = real(points, out=out)
        calls.append((out, result))
        return result

    monkeypatch.setattr(influence, "pairwise_distances", spy)
    got = step(ens, model, 0.1, scheme, matrix)
    assert len(calls) == passes
    if calls:
        assert calls[0][0] is None
        buffer = calls[0][1]
        assert all(out is buffer and result is buffer for out, result in calls[1:])
    assert np.array_equal(got.positions, expected.positions)
    assert np.array_equal(got.velocities, expected.velocities)


def test_rk4_matches_adaptive_reference_integrator():
    from scipy.integrate import solve_ivp

    ens = random_ensemble(13, n=5, d=2)
    model = model_for("mt", 5)

    def field(t, y):
        x, v = y[:10].reshape(5, 2), y[10:].reshape(5, 2)
        state = AgentEnsemble(t=t, positions=x, velocities=v)
        acc = rhs(state, model, build_matrix(state, model))
        return np.concatenate([v.ravel(), acc.ravel()])

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


def exhaustive_diameter(points):
    return float(cdist(points, points).max())


def sphere_points(n, d, seed):
    u = np.random.default_rng(seed).normal(size=(n, d))
    return 3.0 * u / np.linalg.norm(u, axis=1, keepdims=True)


@given(
    st.integers(1, 60),
    st.integers(1, 3),
    st.sampled_from(["uniform", "gaussian", "duplicates", "sphere", "collinear", "grid"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_diameter_equals_the_exhaustive_max(n, d, shape, seed):
    rng = np.random.default_rng(seed)
    if shape == "uniform":
        x = rng.uniform(-1.0, 1.0, size=(n, d)) * 10.0 ** rng.integers(-3, 4)
    elif shape == "gaussian":
        x = rng.normal(size=(n, d)) + 100.0
    elif shape == "duplicates":
        x = rng.uniform(-1.0, 1.0, size=(3, d))[rng.integers(0, 3, size=n)]
    elif shape == "sphere":
        # every point lies on the bounding sphere: none is filtered out
        x = sphere_points(n, d, seed)
    elif shape == "collinear":
        x = np.outer(rng.uniform(-2.0, 2.0, size=n), rng.normal(size=d))
    else:
        # integer lattice: many pairs tie for the diameter
        x = rng.integers(-2, 3, size=(n, d)).astype(float)
    assert diameter(x) == exhaustive_diameter(x)


@pytest.mark.parametrize(
    "points",
    [
        np.array([[1.5, -2.0]]),
        np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]]),
        np.array([[2.0], [2.0], [2.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),  # two diagonals tie
        np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]]),  # four-way tie
        sphere_points(500, 2, 0),
        sphere_points(300, 3, 1),
    ],
    ids=["one", "two", "coincident", "square", "cross", "circle", "sphere"],
)
def test_diameter_edge_cases(points):
    assert diameter(points) == (exhaustive_diameter(points) if len(points) > 1 else 0.0)


def test_euler_simulate_computes_position_distances_once_per_state(monkeypatch):
    ens = random_ensemble(3, n=30, d=2)
    handed = []
    real = influence.pairwise_distances

    def counted(points, *args, **kwargs):
        handed.append(np.array(points))
        return real(points, *args, **kwargs)

    monkeypatch.setattr(influence, "pairwise_distances", counted)
    states = []
    record = simulate(
        ens, model_for("mt", ens.n), dt=0.1, t_final=1.0,
        observers=[lambda k, state, row, built: states.append(state)],
    )
    # d_X and the next step's matrix share the state's one N x N pass; the
    # d_V filter only scans a few velocities
    assert len(states) == 11
    for snap in states:
        assert sum(np.array_equal(p, snap.positions) for p in handed) == 1
    assert sum(len(p) == ens.n for p in handed) == len(record.times) == 11


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
        model = model_for(kind, 3)
        acc = rhs(ens, model, build_matrix(ens, model))
        assert abs(acc.mean()) > 1e-3, kind
    # the vision cone needs 2D geometry for a lopsided configuration
    ens2 = AgentEnsemble(
        t=0.0,
        positions=np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]]),
        velocities=np.array([[1.0, 0.0], [1.0, 0.5], [-1.0, 0.0]]),
    )
    model = model_for("vision", 3)
    acc = rhs(ens2, model, build_matrix(ens2, model))
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


@pytest.mark.parametrize(
    "dt,t_final,message",
    [
        pytest.param(0.1, 0.0, "t_final", id="0.0"),
        pytest.param(0.1, -1.0, "t_final", id="-1.0"),
        pytest.param(0.1, float("nan"), "t_final", id="nan"),
        pytest.param(0.0, 1.0, "dt", id="dt=0.0"),
        pytest.param(float("nan"), 1.0, "dt", id="dt=nan"),
    ],
)
def test_step_times_rejects_non_positive_horizon(dt, t_final, message):
    # a zero or NaN step is rejected as well, not left to the division
    with pytest.raises(ValueError, match=f"{message} must be positive"):
        step_times(0.0, dt, t_final)


def test_march_contract():
    # a scalar "state" x at time t, stepped to x + t + 1, which is x plus the
    # next stamp; the stepper stamps it off the grid and march replaces that
    # t with the exact stamp.  k runs 0..n, each observer call gets state k,
    # its row and what the step from it built, None at the end
    def state(x, t=0.0):
        return SimpleNamespace(x=x, t=t)

    def stepper(s):
        return ("built", s.x), state(s.x + s.t + 1.0, t=s.t + 1.0 + 1e-9)

    seen = []
    rows = march(
        state(0.0), stepper, lambda s: ("row", s.x), [1.0, 2.0, 3.0],
        observers=[lambda *a: seen.append(a)],
    )
    assert rows == [("row", 0.0), ("row", 1.0), ("row", 3.0), ("row", 6.0)]
    assert [k for k, *_ in seen] == [0, 1, 2, 3]
    assert [s.x for _, s, _, _ in seen] == [0.0, 1.0, 3.0, 6.0]
    assert [s.t for _, s, _, _ in seen] == [0.0, 1.0, 2.0, 3.0]
    assert [row for _, _, row, _ in seen] == rows
    assert [built for *_, built in seen] == [("built", 0.0), ("built", 1.0), ("built", 3.0), None]
    # stop sees each new state once it is measured and ends the run there
    seen.clear()
    stopped = []
    rows = march(
        state(0.0), lambda s: (s.x, state(s.x + s.t + 1.0)), lambda s: s.x, [1.0, 2.0, 3.0, 4.0],
        observers=[lambda *a: seen.append(a)], stop=lambda s: stopped.append(s.x) or s.x >= 3.0,
    )
    assert rows == [0.0, 1.0, 3.0] and stopped == [1.0, 3.0]
    assert [(k, s.x, built) for k, s, _, built in seen] == [(0, 0.0, 0.0), (1, 1.0, 1.0), (2, 3.0, None)]
    # no stamp: the one state is recorded and observed, with nothing built
    seen.clear()
    start = state(5.0)
    assert march(start, None, lambda s: s.x, [], observers=[lambda *a: seen.append(a)]) == [5.0]
    assert seen == [(0, start, 5.0, None)]


def test_simulate_observers_see_each_step_start_and_its_matrix():
    ens = random_ensemble(7, n=4)
    model = model_for("leader", 4)
    seen = []
    record = simulate(ens, model, dt=0.1, t_final=1.0, observers=[lambda *a: seen.append(a)])
    assert len(seen) == 11
    assert seen[-1][3] is None and seen[-1][1].t == 1.0
    for k, (j, state, row, matrix) in enumerate(seen[:-1]):
        assert j == k
        assert state.t == k * 0.1
        assert row[1] == record.position_diameter[k]
        assert np.array_equal(matrix.entries, build_matrix(state, model).entries)
    # each row is the record's instant: t, d_X, d_V and the bulk momentum
    for k, (_, _, (t, d_x, d_v, momentum), _) in enumerate(seen):
        assert (t, d_x, d_v) == (
            record.times[k], record.position_diameter[k], record.velocity_diameter[k]
        )
        assert np.array_equal(momentum, record.momentum[k])


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_step_with_a_prebuilt_matrix_is_identical(kind, scheme):
    ens = random_ensemble(9, n=6, d=3)
    model = model_for(kind, 6)
    given = step(ens, model, 0.05, scheme, build_matrix(ens, model))
    built = step(ens, model, 0.05, scheme)
    assert np.array_equal(given.positions, built.positions)
    assert np.array_equal(given.velocities, built.velocities)


@pytest.mark.parametrize("scheme, expected", [("euler", 1), ("rk4", 4)])
def test_step_builds_no_ensemble_for_its_starting_state(monkeypatch, scheme, expected):
    # the returned state, plus rk4's three later stages; the starting
    # acceleration is taken from the ensemble as given
    ens = random_ensemble(9, n=6)
    model = model_for("mt", 6)
    matrix = build_matrix(ens, model)
    built = []
    init = AgentEnsemble.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AgentEnsemble, "__init__", counting)
    step(ens, model, 0.05, scheme, matrix)
    assert len(built) == expected


def test_euler_simulate_builds_each_state_once(monkeypatch):
    # the initial state, then the one ensemble each step returns, stamped on
    # the step grid in place
    built = []
    init = AgentEnsemble.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AgentEnsemble, "__init__", counting)
    record = simulate(random_ensemble(9, n=6), model_for("mt", 6), dt=0.05, t_final=1.0)
    assert len(record.times) == 21
    assert len(built) == 1 + 20


@pytest.mark.parametrize("masses", [None, np.array([1.0, 2.0, 0.5])], ids=["agents", "masses"])
def test_rk4_stage_overflow_raises_floating_point_error(masses):
    # alpha*(a v - v) overflows at the starting state, so rk4's second stage
    # starts non-finite: a runtime failure, not an ensemble's bad input
    ens = AgentEnsemble(
        t=0.0,
        positions=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        velocities=np.array([[1e150, 0.0], [-1e150, 0.0], [0.0, 1e150]]),
    )
    model = ModelSpec(model="mt", phi=InfluenceFunction.power_law(0.5), alpha=1e170, masses=masses)
    with pytest.raises(FloatingPointError, match="rk4 stage"):
        step(ens, model, 0.05, "rk4")


def test_leader_run_converges_to_leader_velocity():
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 3, size=(8, 2))
    v = rng.uniform(-1, 1, size=(8, 2))
    ens = AgentEnsemble(t=0.0, positions=x, velocities=v)
    model = model_for("leader", 8, phi=InfluenceFunction.power_law(0.5))
    states = []
    simulate(ens, model, dt=0.05, t_final=120.0,
             observers=[lambda k, state, row, built: states.append(state)])
    final = states[-1]
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
