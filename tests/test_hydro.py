import tracemalloc
from unittest import mock

import numpy as np
import pytest

from flocklab import hydro
from flocklab.activeset import lemma_action_bound
from flocklab.dynamics import AgentEnsemble, ModelSpec, rhs, simulate, step
from flocklab.errors import StabilityError
from flocklab.flocking import certify
from flocklab.hydro import (
    HydroState1D,
    hydro_diameters,
    nonlocal_average,
    step_eulerian,
)
from flocklab.influence import InfluenceFunction, build_mt, eval_influence, pairwise_distances
from flocklab.rng import SplitMix64

PHI1 = InfluenceFunction.power_law(1.0)
PHI_SLOW = InfluenceFunction.power_law(0.25)


def mass_particles(masses, alpha=1.0):
    """The mt model on PHI1 with mass-weighted matrix columns."""
    return ModelSpec(model="mt", phi=PHI1, alpha=alpha, masses=masses)


def two_bump_state(x_min=-12.0, dx=0.05, centers=(-4.0, 4.0), width=0.5, speed=0.5):
    n = int(round((-2 * x_min) / dx))
    centers_grid = x_min + dx * (np.arange(n) + 0.5)
    rho = sum(np.exp(-((centers_grid - c) ** 2) / (2 * width**2)) for c in centers)
    u = np.where(centers_grid < 0.0, speed, -speed)
    return HydroState1D(x_min=x_min, dx=dx, rho=rho, u=u)


# ------------------------------------------------------------ nonlocal average


def test_average_of_constant_velocity():
    rho = np.array([1.0, 2.0, 0.5, 3.0])
    u = np.full(4, 0.7)
    state = HydroState1D(x_min=0.0, dx=1.0, rho=rho, u=u)
    assert nonlocal_average(state, PHI1) == pytest.approx(u, abs=1e-14)


def test_average_single_occupied_cell():
    rho = np.array([0.0, 0.0, 2.0, 0.0])
    u = np.array([9.0, 9.0, 1.5, 9.0])
    state = HydroState1D(x_min=0.0, dx=1.0, rho=rho, u=u)
    avg = nonlocal_average(state, PHI1)
    # the span is the occupied cell alone; every other cell keeps its u
    assert np.array_equal(avg, u)


def test_average_two_occupied_cells_hand_values():
    # occupied cells at centers 0.5 and 3.5 (distance 3), rho 2 and 1
    rho = np.array([2.0, 0.0, 0.0, 1.0])
    u = np.array([1.0, 0.0, 0.0, -2.0])
    state = HydroState1D(x_min=0.0, dx=1.0, rho=rho, u=u)
    avg = nonlocal_average(state, PHI1)
    assert avg[0] == pytest.approx((2.0 - 0.25 * 2.0) / 2.25, abs=1e-14)  # 2/3
    assert avg[3] == pytest.approx((0.25 * 2.0 - 2.0) / 1.5, abs=1e-14)  # -1
    assert avg[1] == pytest.approx((0.5 * 2.0 - (1.0 / 3.0) * 2.0) / (0.5 * 2.0 + 1.0 / 3.0), abs=1e-14)


def test_average_rejects_zero_density():
    state = HydroState1D(x_min=0.0, dx=1.0, rho=np.zeros(3), u=np.ones(3))
    with pytest.raises(ValueError):
        nonlocal_average(state, PHI1)


def test_average_cutoff_with_empty_reach_keeps_velocity():
    phi = InfluenceFunction.power_law_with_cutoff(1.0, 1.5)
    # two occupied cells too far apart to see each other; middle cell sees none
    rho = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
    u = np.array([2.0, 5.0, 7.0, 5.0, -3.0])
    state = HydroState1D(x_min=0.0, dx=1.0, rho=rho, u=u)
    avg = nonlocal_average(state, phi)
    assert avg[0] == pytest.approx(2.0)
    assert avg[4] == pytest.approx(-3.0)
    assert avg[2] == pytest.approx(7.0)  # no mass within reach: untouched


def test_cutoff_reach_depends_on_the_offset_only():
    # the cutoff 0.3 is an exact multiple of dx = 0.1, where |c_i - c_j|
    # computed from the cell centers rounds to either side of it row by row;
    # the reach of a cell must be the same set of offsets on every row
    phi = InfluenceFunction.power_law_with_cutoff(1.0, 0.3)
    n = 60
    reach = []
    for p in range(n):
        # mass at both edge cells, velocity 1, makes the occupied span the
        # whole grid; the probed cell p has velocity 0 and the rest 10 or more
        rho = np.zeros(n)
        rho[[0, -1, p]] = 1.0
        u = np.arange(n) + 10.0
        u[[0, -1]] = 1.0
        u[p] = 0.0
        avg = nonlocal_average(HydroState1D(x_min=-1.3, dx=0.1, rho=rho, u=u), phi)
        # a cell that sees p averages below 1, one that sees an edge cell
        # alone to 1, and one that sees no mass keeps its u
        assert np.all((avg < 1.0) | (avg == 1.0) | (avg == u))
        reach.append({j - p for j in np.flatnonzero(avg < 1.0)})
    assert any(len(offsets) > 1 for offsets in reach)
    for k in range(1 - n, n):
        rows = {k in offsets for p, offsets in enumerate(reach) if 0 <= p + k < n}
        assert len(rows) == 1, f"offset {k} is in reach on some rows only"


def test_average_allocates_no_cell_by_cell_kernel():
    state = two_bump_state(dx=0.008)  # 3000 cells: an n x n kernel is 72 MB
    assert state.n_cells == 3000
    for phi in (PHI_SLOW, InfluenceFunction.power_law_with_cutoff(1.0, 2.0)):
        tracemalloc.start()
        try:
            nonlocal_average(state, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def _occupied(n, cells):
    rho = np.zeros(n)
    rho[list(cells)] = np.linspace(0.5, 2.0, len(cells))
    return rho


SPAN_CASES = {
    "cell 0 only": _occupied(40, [0]),
    "cell n-1 only": _occupied(40, [39]),
    "one interior cell": _occupied(40, [17]),
    "both edges": _occupied(40, [0, 1, 2, 20, 38, 39]),
    "1-cell grid": _occupied(1, [0]),
    # the gap (cells 8..51, 4.4 wide) is wider than the cutoff 1.5
    "two blocks, wide gap": _occupied(60, [*range(3, 8), *range(52, 57)]),
    "gaps inside the cutoff": _occupied(50, [6, 8, 9, 13, 14, 22, 23, 24, 31]),
}


@pytest.mark.parametrize("rho", SPAN_CASES.values(), ids=SPAN_CASES.keys())
@pytest.mark.parametrize(
    "phi", [PHI_SLOW, InfluenceFunction.power_law_with_cutoff(1.0, 1.5)], ids=["slow", "cutoff"]
)
def test_occupied_span_edge_cases_match_the_dense_kernel(rho, phi):
    n, dx = rho.size, 0.1
    u = np.linspace(-3.0, 4.0, n) + 0.25
    state = HydroState1D(x_min=-2.0, dx=dx, rho=rho, u=u)
    # the reference: the dense Toeplitz kernel phi(dx*|i - j|) over every cell
    kernel = eval_influence(phi, dx * np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]))
    den = kernel @ rho
    expected = u.copy()
    np.divide(kernel @ (rho * u), den, out=expected, where=den > 0.0)
    span = np.zeros(n, dtype=bool)
    lo, hi = np.flatnonzero(rho)[[0, -1]]
    span[lo : hi + 1] = True
    avg = nonlocal_average(state, phi)
    assert np.max(np.abs(avg[span] - expected[span])) <= 1e-13 * np.max(np.abs(u))
    assert np.array_equal(avg[~span], u[~span])
    # span cells with mass in reach average to 0 exactly; the rest keep their 1
    probe = HydroState1D(x_min=-2.0, dx=dx, rho=rho, u=np.where(rho > 0.0, 0.0, 1.0))
    probe_avg = nonlocal_average(probe, phi)
    assert np.array_equal(probe_avg[span] == 0.0, den[span] > 0.0)
    assert np.array_equal(probe_avg[~span], probe.u[~span])
    if phi.cutoff is not None and n == 60:
        # the middle of the gap sees neither block and keeps its velocity
        assert np.array_equal(avg[25:35], u[25:35])


@pytest.mark.parametrize("rho", SPAN_CASES.values(), ids=SPAN_CASES.keys())
@pytest.mark.parametrize(
    "phi", [PHI_SLOW, InfluenceFunction.power_law_with_cutoff(1.0, 1.5)], ids=["slow", "cutoff"]
)
def test_step_averages_the_span_as_the_whole_grid_does(rho, phi):
    u = np.linspace(-3.0, 4.0, rho.size) + 0.25
    state = HydroState1D(x_min=-2.0, dx=0.1, rho=rho, u=u)
    # the step averages its own state once, and builds no span state for it
    with mock.patch.object(hydro, "nonlocal_average", wraps=nonlocal_average) as spy:
        step_eulerian(state, phi, alpha=1.0, dt=0.01)
    # (a state equals only itself)
    assert [call.args for call in spy.call_args_list] == [(state, phi)]


def test_occupied_span_all_vacuum_still_raises():
    for n in (1, 5):
        state = HydroState1D(x_min=0.0, dx=0.1, rho=np.zeros(n), u=np.ones(n))
        with pytest.raises(ValueError, match="all-zero density"):
            nonlocal_average(state, PHI1)


# ----------------------------------------------------------------- euler step


def test_uniform_outflow_state_interior_steady():
    state = HydroState1D(x_min=0.0, dx=0.1, rho=np.ones(40), u=np.full(40, 0.3))
    out = step_eulerian(state, PHI1, alpha=1.0, dt=0.02)
    assert out.rho[1:] == pytest.approx(state.rho[1:], abs=1e-14)
    assert out.u == pytest.approx(state.u, abs=1e-12)
    assert out.rho[0] < 1.0  # drains against the vacuum exterior


def test_rest_state_unchanged():
    rho = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
    state = HydroState1D(x_min=0.0, dx=0.5, rho=rho, u=np.zeros(5))
    out = step_eulerian(state, PHI1, alpha=0.8, dt=0.1)
    assert np.array_equal(out.rho, rho)
    assert np.array_equal(out.u, state.u)


def test_two_bump_step_conserves_mass_and_contracts():
    state = two_bump_state()
    mass0 = state.total_mass
    d_v0 = hydro_diameters(state)[1]
    out = step_eulerian(state, PHI_SLOW, alpha=1.0, dt=0.05)
    assert abs(out.total_mass - mass0) / mass0 <= 1e-12
    assert np.all(out.rho >= 0.0)
    assert hydro_diameters(out)[1] < d_v0


def test_mass_conserved_on_random_interior_states():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = 30
        rho = np.zeros(n)
        rho[3:-3] = rng.uniform(0.0, 2.0, size=n - 6)
        u = rng.uniform(-1.0, 1.0, size=n)
        state = HydroState1D(x_min=-1.0, dx=0.2, rho=rho, u=u)
        out = step_eulerian(state, PHI1, alpha=1.0, dt=0.15)
        assert abs(out.total_mass - state.total_mass) <= 1e-12 * max(state.total_mass, 1.0)
        assert np.all(out.rho >= 0.0)


def test_cfl_and_relaxation_guards():
    state = HydroState1D(x_min=0.0, dx=0.1, rho=np.ones(10), u=np.full(10, 2.0))
    with pytest.raises(StabilityError):
        step_eulerian(state, PHI1, alpha=1.0, dt=0.1)  # CFL = 2 > 0.9
    with pytest.raises(StabilityError):
        step_eulerian(state, PHI1, alpha=100.0, dt=0.04)  # alpha*dt > 1


def test_guard_holds_courant_plus_relaxation_to_one():
    # CFL 0.87 and alpha*dt 0.81 each pass alone, but their sum exceeds 1,
    # so the upwind update is no convex combination: one unguarded step
    # pushed max|u| on the support from 0.970 to 1.242 and d_V from 1.930
    # to 2.296
    centers = -10.0 + 0.1 * (np.arange(200) + 0.5)
    rho = np.where(np.abs(centers) < 5.0, 1.0, 0.0)
    u = SplitMix64(0).uniform_array(200, -1.0, 1.0)
    state = HydroState1D(x_min=-10.0, dx=0.1, rho=rho, u=u)
    phi = InfluenceFunction.power_law(0.5)
    with pytest.raises(StabilityError, match=r"/dx \+ alpha\*dt <= 1"):
        step_eulerian(state, phi, alpha=9.0, dt=0.09)


def test_all_zero_density_step_raises():
    state = HydroState1D(x_min=0.0, dx=0.1, rho=np.zeros(5), u=np.ones(5))
    with pytest.raises(ValueError, match="all-zero density"):
        step_eulerian(state, PHI1, alpha=1.0, dt=0.01)


def test_vacuum_cells_keep_velocity():
    rho = np.array([0.0, 1.0, 1.0, 0.0])
    u = np.array([5.0, 0.5, -0.5, -7.0])
    state = HydroState1D(x_min=0.0, dx=1.0, rho=rho, u=u)
    out = step_eulerian(state, PHI1, alpha=1.0, dt=0.5)
    assert out.u[0] == 5.0 and out.u[3] == -7.0


def per_cell_step(state, phi, alpha, dt):
    """step_eulerian restated cell by cell: the exterior is massless, and a
    vacuum or exterior upwind cell gives no gradient."""
    rho, u, dx, n = state.rho, state.u, state.dx, state.n_cells
    vacuum = [r < hydro.VACUUM_RELATIVE_THRESHOLD * max(rho) for r in rho]

    def inert(i):  # a vacuum cell or the exterior
        return not 0 <= i < n or vacuum[i]

    def moving(i):  # the velocity that moves cell i's mass
        return 0.0 if inert(i) else u[i]

    def mass(i):
        return rho[i] if 0 <= i < n else 0.0

    # flux[k] crosses the interface left of cell k
    flux = [mass(k - 1) * max(moving(k - 1), 0.0) + mass(k) * min(moving(k), 0.0)
            for k in range(n + 1)]
    u_bar = nonlocal_average(state, phi)
    rho_new, u_new = [], []
    for i in range(n):
        rho_new.append(rho[i] - dt / dx * (flux[i + 1] - flux[i]))
        if vacuum[i]:
            u_new.append(u[i])
            continue
        if u[i] > 0.0:
            grad = 0.0 if inert(i - 1) else (u[i] - u[i - 1]) / dx
        elif u[i] < 0.0:
            grad = 0.0 if inert(i + 1) else (u[i + 1] - u[i]) / dx
        else:
            grad = 0.0
        u_new.append(u[i] - dt * u[i] * grad + dt * alpha * (u_bar[i] - u[i]))
    return np.array(rho_new), np.array(u_new)


def _edge_case(n, support, edge_speed, vacuum_speed=0.0):
    """Mass on the cells of ``support``, interior velocities in (-1, 1), the
    two edge cells moving at ``edge_speed`` (sign +1: right) and vacuum cells
    frozen at ``vacuum_speed``."""
    rho = np.zeros(n)
    rho[support] = 0.5 + SplitMix64(n).uniform_array(n, 0.0, 1.0)[support]
    u = SplitMix64(n + 1).uniform_array(n, -1.0, 1.0)
    u[[0, -1]] = edge_speed
    u = np.where(rho > 0.0, u, vacuum_speed)
    return rho, u


STEP_CASES = {
    "left edge, inward": _edge_case(30, slice(0, 12), [0.7, 0.0]),
    "left edge, outward": _edge_case(30, slice(0, 12), [-0.7, 0.0]),
    "right edge, inward": _edge_case(30, slice(18, 30), [0.0, -0.7]),
    "right edge, outward": _edge_case(30, slice(18, 30), [0.0, 0.7]),
    "both edges, outward, vacuum gap": _edge_case(
        30, [0, 1, 2, 3, 25, 26, 27, 28, 29], [-0.9, 0.9], vacuum_speed=-5.0
    ),
    "vacuum edges frozen outward": (
        np.array([0.0, 1.0, 2.0, 1.0, 0.0]), np.array([-40.0, 0.3, -0.2, 0.5, 40.0])
    ),
    "1-cell grid, moving": (np.array([2.0]), np.array([0.8])),
    "1-cell grid, at rest": (np.array([2.0]), np.array([0.0])),
    "fully occupied": _edge_case(25, slice(0, 25), [0.6, -0.6]),
}


@pytest.mark.parametrize("rho, u", STEP_CASES.values(), ids=STEP_CASES.keys())
@pytest.mark.parametrize(
    "phi", [PHI_SLOW, InfluenceFunction.power_law_with_cutoff(1.0, 0.35)], ids=["slow", "cutoff"]
)
def test_step_matches_its_per_cell_restatement(rho, u, phi):
    state = HydroState1D(x_min=-1.5, dx=0.1, rho=rho, u=u)
    out = step_eulerian(state, phi, alpha=0.5, dt=0.05)
    rho_ref, u_ref = per_cell_step(state, phi, alpha=0.5, dt=0.05)
    assert np.array_equal(out.rho, rho_ref)
    assert np.array_equal(out.u, u_ref)


def test_macroscopic_decay_two_bump_run():
    state = two_bump_state()
    dt = 0.05
    slack = 10.0 * (dt + state.dx)
    d_v = [hydro_diameters(state)[1]]
    for _ in range(100):
        state = step_eulerian(state, PHI_SLOW, alpha=1.0, dt=dt)
        d_v.append(hydro_diameters(state)[1])
    assert np.all(np.diff(d_v) <= slack)
    assert d_v[-1] < d_v[0]


# ------------------------------------------------------------ lagrangian form


def test_lagrangian_two_mass_hand_value():
    parts = AgentEnsemble(
        t=0.0, positions=np.array([[0.0], [1.0]]), velocities=np.array([[0.0], [1.0]])
    )
    matrix = build_mt(pairwise_distances(parts.positions), PHI1, np.array([1.0, 3.0]))
    expected = np.array([[0.4, 0.6], [1.0 / 7.0, 6.0 / 7.0]])
    assert matrix.entries == pytest.approx(expected, abs=1e-15)
    acc = rhs(parts, ModelSpec(model="mt", phi=PHI1, alpha=1.0), matrix)
    assert acc[0, 0] == pytest.approx(0.6, abs=1e-15)
    assert acc[1, 0] == pytest.approx(3.0 / 3.5 - 1.0, abs=1e-15)


def test_single_particle_moves_straight():
    parts = AgentEnsemble(
        t=0.0, positions=np.array([[0.0, 0.0]]), velocities=np.array([[0.3, -0.4]])
    )
    for _ in range(10):
        parts = step(parts, mass_particles(np.array([2.0])), dt=0.1)
    assert parts.positions[0] == pytest.approx(np.array([0.3, -0.4]), abs=1e-12)
    assert parts.velocities[0] == pytest.approx(np.array([0.3, -0.4]), abs=1e-15)
    assert parts.t == pytest.approx(1.0)


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_equal_mass_lagrangian_matches_particle_model(scheme):
    rng = np.random.default_rng(21)
    x = rng.uniform(0, 4, size=(8, 2))
    v = rng.uniform(-1, 1, size=(8, 2))
    model = ModelSpec(model="mt", phi=PHI1, alpha=1.0)
    states = []
    simulate(
        AgentEnsemble(t=0.0, positions=x, velocities=v),
        model,
        dt=0.01,
        t_final=5.0,
        scheme=scheme,
        observers=[lambda k, state, row, built: states.append(state)],
    )
    assert len(states) == 501
    parts = states[0]
    for snap in states[1:]:
        parts = step(parts, mass_particles(np.ones(8)), dt=0.01, scheme=scheme)
        assert np.array_equal(parts.positions, snap.positions)
        assert np.array_equal(parts.velocities, snap.velocities)


def test_lagrangian_euler_velocity_diameter_monotone():
    rng = np.random.default_rng(30)
    parts = AgentEnsemble(
        t=0.0,
        positions=rng.uniform(0, 3, size=(7, 2)),
        velocities=rng.uniform(-1, 1, size=(7, 2)),
    )
    masses = rng.uniform(0.5, 2.0, size=7)

    def spread(p):
        v = p.velocities
        return float(np.max(np.linalg.norm(v[:, None] - v[None, :], axis=-1)))

    for _ in range(50):
        new = step(parts, mass_particles(masses, alpha=2.0), dt=0.5)  # alpha*dt = 1
        assert spread(new) <= spread(parts) + 1e-12
        parts = new


def test_lagrangian_euler_guard_and_mass_validation():
    parts = AgentEnsemble(t=0.0, positions=np.zeros((2, 1)), velocities=np.ones((2, 1)))
    with pytest.raises(StabilityError):
        step(parts, mass_particles(np.ones(2), alpha=3.0), dt=0.5)
    # wrong shapes, a zero mass and an infinite one; a single mass would
    # broadcast over both columns in build_mt if its length went unchecked
    for masses in (np.ones(3), np.ones((2, 1)), np.array([1.0, 0.0]), np.array([1.0, np.inf]),
                   np.array([2.0])):
        with pytest.raises(ValueError, match="masses"):
            step(parts, mass_particles(masses), dt=0.1)


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_unit_mass_simulate_equals_the_plain_mt_run(scheme):
    rng = np.random.default_rng(22)
    ens = AgentEnsemble(
        t=0.0, positions=rng.uniform(0, 4, size=(9, 2)), velocities=rng.uniform(-1, 1, size=(9, 2))
    )
    runs = []
    for masses in (None, np.ones(9)):
        states = []
        record = simulate(
            ens, ModelSpec(model="mt", phi=PHI1, alpha=1.0, masses=masses), dt=0.05, t_final=3.0,
            scheme=scheme, observers=[lambda k, state, row, built: states.append(state)],
        )
        runs.append((record, states))
    (plain, plain_states), (unit, unit_states) = runs
    for series in ("times", "position_diameter", "velocity_diameter", "momentum"):
        assert np.array_equal(getattr(plain, series), getattr(unit, series)), series
    assert len(plain_states) == len(unit_states) == 61
    for a, b in zip(plain_states, unit_states):
        assert a.t == b.t
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)


def test_lagrangian_rejects_a_negative_alpha():
    # the mt model's own check: a negative rate would push the particles apart
    parts = AgentEnsemble(
        t=0.0, positions=np.array([[0.0], [1.0]]), velocities=np.array([[0.0], [1.0]])
    )
    with pytest.raises(ValueError, match="alpha"):
        step(parts, mass_particles(np.ones(2), alpha=-1.0), dt=0.1)


# ------------------------------------------------------------------ diameters


def test_hydro_diameters_single_cell():
    state = HydroState1D(x_min=0.0, dx=1.0, rho=np.array([0.0, 3.0, 0.0]), u=np.array([1.0, 2.0, 5.0]))
    assert hydro_diameters(state) == (0.0, 0.0)


def test_hydro_diameters_two_cells():
    rho = np.zeros(11)
    rho[0] = rho[10] = 1.0
    u = np.zeros(11)
    u[10] = 2.0
    state = HydroState1D(x_min=-0.25, dx=0.5, rho=rho, u=u)
    d_x, d_v = hydro_diameters(state)
    assert d_x == pytest.approx(5.0)
    assert d_v == pytest.approx(2.0)


def test_hydro_diameters_epsilon_sweep_stable_on_compact_bump():
    dx = 0.05
    n = int(round(4.0 / dx))
    centers = -2.0 + dx * (np.arange(n) + 0.5)
    rho = np.where(np.abs(centers) <= 1.0, np.cos(0.5 * np.pi * centers) ** 2, 0.0)
    u = 0.1 * centers
    state = HydroState1D(x_min=-2.0, dx=dx, rho=rho, u=u)
    d_x_lo, d_v_lo = hydro_diameters(state, epsilon=1e-6)
    d_x_hi, d_v_hi = hydro_diameters(state, epsilon=1e-4)
    assert abs(d_x_lo - d_x_hi) <= dx + 1e-12
    assert abs(d_v_lo - d_v_hi) <= 0.1 * dx + 1e-12


def test_hydro_diameters_validation():
    state = HydroState1D(x_min=0.0, dx=1.0, rho=np.zeros(3), u=np.zeros(3))
    with pytest.raises(ValueError):
        hydro_diameters(state)
    ok = HydroState1D(x_min=0.0, dx=1.0, rho=np.ones(3), u=np.zeros(3))
    with pytest.raises(ValueError):
        hydro_diameters(ok, epsilon=0.0)


# ---------------------------------------------------------------- certificates


def test_hydro_certificate_unconditional():
    state = two_bump_state()
    cert = certify(*hydro_diameters(state), ModelSpec(model="mt", phi=PHI_SLOW, alpha=1.0))
    assert cert.verdict == "unconditional"


def test_hydro_certificate_not_guaranteed():
    state = two_bump_state(speed=5.0)  # d_v0 = 10 exceeds the (1+r)^-2 tail
    # widen dt constraints are irrelevant here; certificate only reads state0
    cert = certify(*hydro_diameters(state), ModelSpec(model="mt", phi=PHI1, alpha=1.0))
    assert cert.verdict == "not-guaranteed"


def test_hydro_certificate_rest_state():
    state = two_bump_state(speed=0.0)
    d_x0, d_v0 = hydro_diameters(state)
    cert = certify(d_x0, d_v0, ModelSpec(model="mt", phi=PHI1, alpha=1.0))
    assert cert.verdict == "conditional-satisfied"
    assert cert.d_star == pytest.approx(d_x0)


# ------------------------------------------------- macroscopic kernel lemma


def test_macroscopic_action_bound_reduces_to_discrete_lemma():
    rng = np.random.default_rng(99)
    for _ in range(25):
        n = 40
        dx = 0.25
        x = dx * np.arange(n)
        kernel = np.sin(x[:, None] - x[None, :])  # antisymmetric, |k| <= 1
        rho = rng.uniform(0.0, 1.5, size=n)
        rho[rng.uniform(size=n) < 0.3] = 0.0
        u = rng.uniform(0.0, 2.0, size=n)
        w = rng.uniform(0.0, 2.0, size=n)
        u_weighted = u * rho * dx
        w_weighted = w * rho * dx
        theta = float(rng.uniform(1e-3, 0.5))
        res = lemma_action_bound(kernel, u_weighted, w_weighted, theta)
        # the double quadrature of the macroscopic form is literally <Su, w>
        quadrature = float(
            np.sum(kernel * np.outer(u * rho, w * rho)) * dx * dx
        )
        assert abs(abs(quadrature) - res.lhs) <= 1e-12 * max(1.0, abs(quadrature))
        assert res.holds
