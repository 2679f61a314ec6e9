"""Property tests of the paper's exact discrete invariants: every builder
gives a non-negative row-stochastic matrix, explicit Euler with
alpha*dt <= 1 never grows the velocity diameter, the hydro step conserves
mass while the support stays off the boundary, and the hydro nonlocal average
agrees with the dense cell-by-cell kernel over the occupied span, keeps every
other cell's velocity bit for bit, and is the step's one average."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flocklab import hydro
from flocklab.dynamics import AgentEnsemble, ModelSpec, build_matrix, simulate
from flocklab.hydro import HydroState1D, nonlocal_average, step_eulerian
from flocklab.influence import ROW_SUM_TOL, InfluenceFunction, eval_influence

KERNELS = st.one_of(
    st.floats(0.1, 3.0).map(InfluenceFunction.power_law),
    st.tuples(st.floats(0.1, 3.0), st.floats(0.5, 8.0)).map(
        lambda p: InfluenceFunction.power_law_with_cutoff(*p)
    ),
    st.sampled_from(
        [((0.0, 1.0), (1.0, 0.5), (3.0, 0.2), (6.0, 0.0)), ((0.0, 1.0), (2.0, 0.0))]
    ).map(InfluenceFunction.tabulated),
)


@st.composite
def ensembles_and_models(draw, alpha=st.floats(0.1, 5.0)):
    n = draw(st.integers(1, 9))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ens = AgentEnsemble(
        t=0.0,
        positions=rng.uniform(0.0, draw(st.floats(0.5, 12.0)), size=(n, d)),
        velocities=rng.uniform(-1.0, 1.0, size=(n, d)),
    )
    kind = draw(st.sampled_from(["cs", "mt", "leader", "vision"]))
    extra = {}
    if kind == "leader":
        extra = {"beta": draw(st.floats(0.05, 0.95)), "leader": draw(st.integers(0, n - 1))}
    elif kind == "vision":
        extra = {
            "gamma": draw(st.floats(-1.0, 1.0)),
            "normalization": draw(st.sampled_from(["cs-style", "mt-style"])),
        }
    model = ModelSpec(model=kind, phi=draw(KERNELS), alpha=draw(alpha), **extra)
    return ens, model


@given(ensembles_and_models())
@settings(max_examples=150, deadline=None)
def test_every_builder_is_nonnegative_and_row_stochastic(case):
    ens, model = case
    a = build_matrix(ens, model).entries
    assert a.shape == (ens.n, ens.n)
    assert np.all(a >= 0.0)
    assert np.max(np.abs(a.sum(axis=1) - 1.0)) <= ROW_SUM_TOL


@given(ensembles_and_models(alpha=st.floats(0.1, 2.0)), st.floats(0.05, 1.0))
@settings(max_examples=60, deadline=None)
def test_euler_velocity_diameter_never_grows(case, alpha_dt):
    # with alpha*dt <= 1 each new velocity is a convex combination of the old
    # ones, so d_V can only grow by rounding
    ens, model = case
    dt = alpha_dt / model.alpha
    record = simulate(ens, model, dt=dt, t_final=12 * dt, scheme="euler")
    d_v = record.velocity_diameter
    assert np.all(np.diff(d_v) <= 1e-12)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
    st.integers(1, 6),
    st.floats(0.05, 0.6),
    st.floats(0.1, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_hydro_mass_conserved_while_support_is_interior(seed, width, steps, cfl, s):
    # mass moves at most one cell per step (CFL < 1), so a support that starts
    # more than `steps` cells away from either edge never reaches the boundary
    rng = np.random.default_rng(seed)
    dx = 0.25
    rho = np.zeros(width + 2 * (steps + 1))
    rho[steps + 1 : -steps - 1] = rng.uniform(0.0, 2.0, size=width)
    rho[rho.size // 2] += 0.5  # never all vacuum
    u = rng.uniform(-1.0, 1.0, size=rho.size)
    state = HydroState1D(x_min=-rho.size * dx / 2, dx=dx, rho=rho, u=u)
    # with |u| <= 1, dt*|u|/dx + alpha*dt <= 0.75 makes the velocity update a
    # convex combination, so |u| stays <= 1 and the CFL number <= cfl
    dt = cfl * dx
    mass0 = state.total_mass
    phi = InfluenceFunction.power_law(s)
    for _ in range(steps):
        state = step_eulerian(state, phi, alpha=1.0, dt=dt)
        assert abs(state.total_mass - mass0) <= 1e-12 * mass0
        assert np.all(state.rho >= 0.0)
    assert state.rho[0] == 0.0 and state.rho[-1] == 0.0


@given(
    KERNELS,
    st.integers(1, 80),
    st.floats(0.01, 2.0),
    st.floats(-50.0, 50.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_nonlocal_average_matches_the_dense_kernel(phi, n, dx, x_min, seed):
    rng = np.random.default_rng(seed)
    rho = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.01, 2.0, size=n))
    rho[rng.integers(n)] = 1.0  # never all vacuum
    u = rng.uniform(-5.0, 5.0, size=n)
    state = HydroState1D(x_min=x_min, dx=dx, rho=rho, u=u)
    # the reference: the dense Toeplitz kernel phi(dx*|i - j|)
    offsets = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    kernel = eval_influence(phi, dx * offsets)
    w = np.where(state.vacuum_mask(), 0.0, rho)
    den = kernel @ w
    expected = u.copy()
    np.divide(kernel @ (w * u), den, out=expected, where=den > 0.0)
    # the occupied span, first to last non-vacuum cell; the rest keep their u
    span = np.zeros(n, dtype=bool)
    lo, hi = np.flatnonzero(~state.vacuum_mask())[[0, -1]]
    span[lo : hi + 1] = True
    avg = nonlocal_average(state, phi)
    assert np.max(np.abs(avg[span] - expected[span])) <= 1e-13 * np.max(np.abs(u))
    assert np.array_equal(avg[~span], u[~span])
    # the span cells with mass in reach are exactly the reference's: with
    # velocity 0 on the occupied cells and 1 elsewhere, a span cell averages
    # to 0 exactly when it sees mass, and keeps its 1 otherwise
    probe = HydroState1D(x_min=x_min, dx=dx, rho=rho, u=np.where(w > 0.0, 0.0, 1.0))
    probe_avg = nonlocal_average(probe, phi)
    assert np.array_equal(probe_avg[span] == 0.0, den[span] > 0.0)
    assert np.array_equal(probe_avg[~span], probe.u[~span])


@given(
    KERNELS,
    st.integers(1, 80),
    st.floats(0.01, 2.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_step_averages_the_span_as_the_whole_grid_does(phi, n, dx, seed):
    # vacuum gaps anywhere, spans that touch either edge or are one cell wide
    rng = np.random.default_rng(seed)
    rho = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.01, 2.0, size=n))
    rho[rng.integers(n)] = 1.0  # never all vacuum
    state = HydroState1D(x_min=-1.0, dx=dx, rho=rho, u=rng.uniform(-5.0, 5.0, size=n))
    # the step averages its own state once, and builds no span state for it
    with mock.patch.object(hydro, "nonlocal_average", wraps=nonlocal_average) as spy:
        step_eulerian(state, phi, alpha=1.0, dt=dx / 50.0)
    # (a state equals only itself)
    assert [call.args for call in spy.call_args_list] == [(state, phi)]
