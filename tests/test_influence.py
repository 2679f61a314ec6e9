import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.spatial.distance import cdist

from flocklab.influence import (
    InfluenceFunction,
    InfluenceMatrix,
    build_cs,
    build_leader,
    build_mt,
    build_vision,
    eval_influence,
    pairwise_distances,
    range_integral,
    tail_integral,
)

ROW_TOL = 1e-12


def positions_strategy(max_n=8, dims=(1, 2, 3)):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(min(dims), max(dims)).flatmap(
            lambda d: st.lists(
                st.lists(
                    st.floats(-20, 20, allow_nan=False, allow_infinity=False),
                    min_size=d,
                    max_size=d,
                ),
                min_size=n,
                max_size=n,
            ).map(np.array)
        )
    )


# ---------------------------------------------------------------- distances


@given(
    st.integers(1, 40),
    st.integers(1, 3),
    st.integers(-3, 3),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_pairwise_distances_equal_cdist_bit_for_bit(n, d, exponent, seed, into_buffer):
    # cdist (test-only reference) sums the squared per-axis terms in axis
    # order and takes one correctly rounded sqrt: the numpy pass must match
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, d)) * 10.0**exponent + rng.normal(size=d)
    x[rng.integers(0, n, size=n // 4)] = x[0]  # exact duplicates
    if into_buffer:
        out = np.full((n, n), np.nan)
        got = pairwise_distances(x, out=out)
        assert got is out
    else:
        got = pairwise_distances(x)
    assert np.array_equal(got, cdist(x, x))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [200, 1000])
def test_pairwise_distances_equal_cdist_at_size(n, d):
    x = np.random.default_rng(n + d).uniform(0.0, 20.0, size=(n, d))
    assert np.array_equal(pairwise_distances(x), cdist(x, x))


def test_builders_accept_the_precomputed_distances():
    rng = np.random.default_rng(4)
    x, v = rng.uniform(0, 5, size=(9, 2)), rng.uniform(-1, 1, size=(9, 2))
    phi = InfluenceFunction.power_law(0.5)
    dist = pairwise_distances(x)
    kept = dist.copy()
    for build in (
        lambda **kw: build_cs(x, phi, **kw),
        lambda **kw: build_mt(x, phi, **kw),
        lambda **kw: build_leader(x, phi, 0.3, 2, **kw),
        lambda **kw: build_vision(x, v, phi, 0.2, "mt-style", **kw),
    ):
        assert np.array_equal(build(distances=dist).entries, build().entries)
    assert np.array_equal(dist, kept)
    with pytest.raises(ValueError, match="N x N"):
        build_mt(x, phi, distances=dist[:-1])


# ---------------------------------------------------------------- evaluation


def test_power_law_at_zero_is_one():
    assert eval_influence(InfluenceFunction.power_law(1.0), 0.0) == 1.0


def test_power_law_hand_value():
    assert eval_influence(InfluenceFunction.power_law(1.0), 1.0) == pytest.approx(0.5, abs=0)


def test_cutoff_beyond_radius_is_zero():
    phi = InfluenceFunction.power_law_with_cutoff(1.0, 2.0)
    assert eval_influence(phi, 3.0) == 0.0
    assert eval_influence(phi, 1.0) == 0.5


def test_negative_distance_rejected():
    with pytest.raises(ValueError):
        eval_influence(InfluenceFunction.power_law(1.0), -0.1)


@pytest.mark.parametrize(
    "phi",
    [
        InfluenceFunction.power_law(0.5),
        InfluenceFunction.power_law_with_cutoff(0.5, 2.0),
        InfluenceFunction.tabulated([(0.0, 1.0), (2.0, 0.0)]),
    ],
    ids=["power-law", "cutoff", "tabulated"],
)
def test_nan_distance_rejected(phi):
    # NaN compares false both ways, so a "< 0" test alone lets it through
    for r in ([0.0, np.nan], np.nan, np.full((2, 2), np.nan)):
        with pytest.raises(ValueError, match="negative or NaN distance"):
            eval_influence(phi, r)
    assert eval_influence(phi, np.empty(0)).shape == (0,)


def test_tabulated_interpolation_and_clamp():
    phi = InfluenceFunction.tabulated([(0.0, 1.0), (1.0, 0.5), (2.0, 0.5)])
    assert phi(0.5) == pytest.approx(0.75)
    assert phi(1.5) == pytest.approx(0.5)
    assert phi(2.0) == pytest.approx(0.5)
    assert phi(2.5) == 0.0  # clamped beyond the last knot


def test_tabulated_validation():
    with pytest.raises(ValueError):
        InfluenceFunction.tabulated([(0.0, 0.9), (1.0, 0.5)])  # phi(0) != 1
    with pytest.raises(ValueError):
        InfluenceFunction.tabulated([(0.0, 1.0), (1.0, 0.5), (0.5, 0.4)])
    with pytest.raises(ValueError):
        InfluenceFunction.tabulated([(0.0, 1.0), (1.0, 1.1)])  # increasing
    with pytest.raises(ValueError):
        InfluenceFunction.power_law(-2.0)


@given(
    s=st.floats(0.05, 6.0),
    r1=st.floats(0, 50),
    r2=st.floats(0, 50),
)
def test_power_law_monotone_and_bounded(s, r1, r2):
    phi = InfluenceFunction.power_law(s)
    lo, hi = sorted((r1, r2))
    assert phi(lo) >= phi(hi) >= 0.0
    assert phi(0.0) == 1.0


# ------------------------------------------------------------ tail integrals


def test_tail_integral_closed_form_with_quadrature_oracle():
    phi = InfluenceFunction.power_law(1.0)
    value = tail_integral(phi, 2, 0.0)
    oracle, _ = quad(lambda r: (1.0 + r) ** -2, 0.0, np.inf)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert value == pytest.approx(oracle, rel=1e-8)


def test_tail_integral_divergence_markers():
    assert np.isinf(tail_integral(InfluenceFunction.power_law(0.5), 2, 0.0))
    assert np.isinf(tail_integral(InfluenceFunction.power_law(1.0), 1, 0.0))


@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.5000001, 0.75, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("power", [1, 2])
def test_divergence_criterion_grid(s, power):
    diverges = np.isinf(tail_integral(InfluenceFunction.power_law(s), power, 0.0))
    assert diverges == (power * s <= 1.0)


@pytest.mark.parametrize(
    "phi",
    [
        InfluenceFunction.power_law(1.7),
        InfluenceFunction.power_law_with_cutoff(0.3, 4.0),
        InfluenceFunction.tabulated([(0.0, 1.0), (0.7, 0.4), (2.0, 0.1), (3.0, 0.0)]),
    ],
)
@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("bounds", [(0.0, 2.5), (0.5, 5.0), (1.0, 1.0)])
def test_range_integral_against_quadrature(phi, power, bounds):
    a, b = bounds
    oracle, _ = quad(lambda r: phi(r) ** power, a, b, limit=200, points=[0.7, 2.0, 3.0, 4.0])
    assert range_integral(phi, power, a, b) == pytest.approx(oracle, abs=1e-8)


def test_integral_rejects_bad_arguments():
    phi = InfluenceFunction.power_law(1.0)
    with pytest.raises(ValueError):
        tail_integral(phi, 3, 0.0)
    with pytest.raises(ValueError):
        range_integral(phi, 1, -1.0, 2.0)


def test_cutoff_tail_is_finite_even_for_small_s():
    phi = InfluenceFunction.power_law_with_cutoff(0.1, 5.0)
    value = tail_integral(phi, 1, 0.0)
    oracle, _ = quad(lambda r: phi(r), 0.0, 5.0)
    assert np.isfinite(value) and value == pytest.approx(oracle, rel=1e-8)


# ------------------------------------------------------------------ builders


def test_cs_single_agent():
    m = build_cs(np.array([[0.0]]), InfluenceFunction.power_law(1.0))
    assert m.entries == pytest.approx(np.array([[1.0]]))


def test_cs_two_agents_hand_values():
    m = build_cs(np.array([[0.0], [1.0]]), InfluenceFunction.power_law(1.0))
    assert m.entries == pytest.approx(np.array([[0.75, 0.25], [0.25, 0.75]]), abs=1e-15)


def test_cs_offdiagonal_symmetric():
    rng = np.random.default_rng(7)
    x = rng.uniform(-5, 5, size=(6, 3))
    m = build_cs(x, InfluenceFunction.power_law(0.7)).entries
    off = m - np.diag(np.diag(m))
    assert np.max(np.abs(off - off.T)) <= 1e-15


def test_cs_rejects_nonfinite_positions():
    with pytest.raises(ValueError):
        build_cs(np.array([[0.0], [np.nan]]), InfluenceFunction.power_law(1.0))


def test_mt_two_agents_hand_values():
    m = build_mt(np.array([[0.0], [1.0]]), InfluenceFunction.power_law(1.0))
    expected = np.array([[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]])
    assert m.entries == pytest.approx(expected, abs=1e-15)


def test_mt_coincident_agents_give_uniform_rows():
    x = np.zeros((4, 2))
    m = build_mt(x, InfluenceFunction.power_law(2.0))
    assert m.entries == pytest.approx(np.full((4, 4), 0.25), abs=1e-15)


def test_mt_asymmetry_witness():
    x = np.array([[0.0], [1.0], [10.0]])
    m = build_mt(x, InfluenceFunction.power_law(1.0)).entries
    assert m[0, 1] == pytest.approx(11.0 / 35.0, abs=1e-15)
    assert m[1, 0] == pytest.approx(5.0 / 16.0, abs=1e-15)
    assert m[0, 1] != m[1, 0]


def test_mt_single_agent():
    m = build_mt(np.array([[3.0, 1.0]]), InfluenceFunction.power_law(1.0))
    assert m.entries == pytest.approx(np.array([[1.0]]))


@given(positions_strategy())
@settings(max_examples=60, deadline=None)
def test_mt_entry_lower_bound(x):
    phi = InfluenceFunction.power_law(1.3)
    m = build_mt(x, phi).entries
    d_x = np.max(np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1))
    assert np.all(m >= phi(d_x) / x.shape[0] - 1e-12)


def test_leader_two_agents_hand_values():
    m = build_leader(np.array([[0.0], [1.0]]), InfluenceFunction.power_law(1.0), beta=0.5, leader=0)
    assert m.entries == pytest.approx(np.array([[1.0, 0.0], [0.25, 0.75]]), abs=1e-15)


def test_leader_row_lower_bound():
    rng = np.random.default_rng(3)
    x = rng.uniform(-4, 4, size=(3, 2))
    phi = InfluenceFunction.power_law(0.8)
    beta = 0.4
    m = build_leader(x, phi, beta=beta, leader=1).entries
    d_x = np.max(np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1))
    assert np.allclose(m.sum(axis=1), 1.0, atol=ROW_TOL)
    for i in range(3):
        if i != 1:
            assert m[i, 1] >= beta * phi(d_x) - 1e-12


def test_leader_beta_out_of_range():
    x = np.zeros((2, 1))
    for beta in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ValueError):
            build_leader(x, InfluenceFunction.power_law(1.0), beta=beta, leader=0)


def test_vision_asymmetry_witness():
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    v = np.array([[1.0, 0.0], [1.0, 0.0]])
    m = build_vision(x, v, InfluenceFunction.power_law(1.0), gamma=0.0, normalization="mt-style").entries
    assert m[0, 1] > 0.0  # agent 0 sees agent 1 ahead
    assert m[1, 0] == 0.0  # agent 1 looks away from agent 0


@pytest.mark.parametrize("normalization,builder", [("cs-style", build_cs), ("mt-style", build_mt)])
def test_vision_full_cone_matches_base_builder(normalization, builder):
    rng = np.random.default_rng(11)
    x = rng.uniform(-3, 3, size=(5, 2))
    v = rng.uniform(0.5, 1.5, size=(5, 2))  # all speeds positive
    phi = InfluenceFunction.power_law(1.0)
    vis = build_vision(x, v, phi, gamma=-1.0, normalization=normalization).entries
    base = builder(x, phi).entries
    assert vis == pytest.approx(base, abs=1e-15)


def test_vision_zero_velocity_sees_everyone():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    v = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    phi = InfluenceFunction.power_law(1.0)
    vis = build_vision(x, v, phi, gamma=0.5, normalization="mt-style").entries
    full = build_mt(x, phi).entries
    assert vis[0] == pytest.approx(full[0], abs=1e-15)


def test_vision_sees_no_one_gets_unit_row():
    # both agents heading away from each other
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    v = np.array([[-1.0, 0.0], [1.0, 0.0]])
    m = build_vision(x, v, InfluenceFunction.power_law(1.0), gamma=0.0, normalization="cs-style").entries
    assert m == pytest.approx(np.eye(2), abs=1e-15)


def test_vision_gamma_range():
    x = np.zeros((2, 1))
    v = np.ones((2, 1))
    with pytest.raises(ValueError):
        build_vision(x, v, InfluenceFunction.power_law(1.0), gamma=1.5, normalization="cs-style")
    with pytest.raises(ValueError):
        build_vision(x, v, InfluenceFunction.power_law(1.0), gamma=0.0, normalization="weird")


@given(positions_strategy(max_n=6, dims=(2, 2)), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_all_builders_are_row_stochastic(x, which):
    phi = InfluenceFunction.power_law(0.9)
    n = x.shape[0]
    if which == 0:
        m = build_cs(x, phi)
    elif which == 1:
        m = build_mt(x, phi)
    elif which == 2:
        m = build_leader(x, phi, beta=0.3, leader=n - 1)
    else:
        v = np.cos(x) + 0.1  # deterministic velocities from positions
        m = build_vision(x, v, phi, gamma=0.2, normalization="mt-style")
    assert np.all(m.entries >= 0.0)
    assert np.max(np.abs(m.entries.sum(axis=1) - 1.0)) <= ROW_TOL


def test_influence_matrix_validation():
    with pytest.raises(ValueError):
        InfluenceMatrix(entries=np.array([[0.5, 0.4]]), model_tag="x")
    with pytest.raises(ValueError):
        InfluenceMatrix(entries=np.array([[1.2, -0.2], [0.5, 0.5]]), model_tag="x")
    with pytest.raises(ValueError):
        InfluenceMatrix(entries=np.array([[0.9, 0.0], [0.5, 0.5]]), model_tag="x")
    # NaN compares false both ways, so each check must be written to fail on it
    nan_entries = [np.full((2, 2), np.nan), np.array([[np.nan, 1.0], [0.5, 0.5]])]
    for entries in nan_entries:
        for tag in ("mt", "cs"):
            with pytest.raises(ValueError, match="non-negative"):
                InfluenceMatrix(entries=entries, model_tag=tag)
    with pytest.raises(ValueError, match="sum to 1"):
        InfluenceMatrix(entries=np.array([[np.inf, 0.0], [0.5, 0.5]]), model_tag="mt")
    asymmetric = np.array([[0.5, 0.5], [0.4, 0.6]])
    assert InfluenceMatrix(entries=asymmetric, model_tag="mt").n == 2
    with pytest.raises(ValueError, match="symmetric"):
        InfluenceMatrix(entries=asymmetric, model_tag="cs")
