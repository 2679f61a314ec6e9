import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flocklab.activeset import (
    DecayObserver,
    active_sets,
    default_theta,
    lemma_action_bound,
)
from flocklab.dynamics import AgentEnsemble, ModelSpec, build_matrix, diameter, simulate
from flocklab.influence import (
    InfluenceFunction,
    InfluenceMatrix,
    build_cs,
    build_leader,
    build_mt,
    pairwise_distances,
)

PHI1 = InfluenceFunction.power_law(1.0)


def hand_matrix():
    # four agents arranged so agent 1 is influenced by {1,2,3} and agent 4 by
    # {2,3,4} at level 0.2 (1-based labels; rows are 0-based here)
    return InfluenceMatrix(
        entries=np.array(
            [
                [0.3, 0.3, 0.3, 0.1],
                [0.25, 0.25, 0.25, 0.25],
                [0.25, 0.25, 0.25, 0.25],
                [0.1, 0.3, 0.3, 0.3],
            ]
        ),
        model_tag="hand",
    )


# ----------------------------------------------------------------- active sets


def test_active_sets_hand_matrix():
    m = hand_matrix()
    hits = m.entries >= 0.2
    assert np.flatnonzero(hits[0]).tolist() == [0, 1, 2]
    assert np.flatnonzero(hits[3]).tolist() == [1, 2, 3]
    # pairwise intersection of rows 0 and 3 is {1, 2}, the smallest one
    assert np.flatnonzero(hits[0] & hits[3]).tolist() == [1, 2]
    report = active_sets(m, 0.2)
    assert report.pairwise_min == 2
    assert list(report.global_indices) == [1, 2]
    assert report.global_count == 2


def test_min_entry_level_activates_everyone():
    rng = np.random.default_rng(0)
    x = rng.uniform(-4, 4, size=(6, 2))
    for builder in (build_cs, build_mt):
        m = builder(pairwise_distances(x), PHI1)
        report = active_sets(m, float(m.entries.min()))
        assert report.global_count == m.n
        assert report.pairwise_min == m.n


def test_level_above_max_empties_all_sets():
    m = hand_matrix()
    report = active_sets(m, 0.31)
    assert not (m.entries >= 0.31).any()
    assert report.global_count == 0
    assert report.pairwise_min == 0


def test_active_sets_requires_positive_level():
    with pytest.raises(ValueError):
        active_sets(hand_matrix(), 0.0)


@given(st.floats(0.01, 0.5), st.floats(0.01, 0.5), st.integers(0, 500))
@settings(max_examples=50, deadline=None)
def test_active_set_monotonicity_in_level(t1, t2, seed):
    lo, hi = sorted((t1, t2))
    rng = np.random.default_rng(seed)
    m = build_mt(pairwise_distances(rng.uniform(-3, 3, size=(5, 2))), PHI1)
    at_lo = active_sets(m, lo)
    at_hi = active_sets(m, hi)
    assert np.all((m.entries >= hi) <= (m.entries >= lo))
    assert set(at_hi.global_indices.tolist()) <= set(at_lo.global_indices.tolist())
    assert at_hi.pairwise_min <= at_lo.pairwise_min


@given(st.integers(0, 500), st.floats(0.01, 1.0))
@settings(max_examples=50, deadline=None)
def test_count_times_level_bounded_by_one(seed, theta):
    rng = np.random.default_rng(seed)
    m = build_mt(pairwise_distances(rng.uniform(-3, 3, size=(6, 2))), PHI1)
    report = active_sets(m, theta)
    row_counts = (m.entries >= theta).sum(axis=1)
    assert np.all(row_counts * theta <= 1.0 + 1e-12)
    assert report.global_count <= report.pairwise_min
    assert report.pairwise_min <= row_counts.min()


def reference_active_sets(entries, theta):
    """Loops over the per-agent sets and the int64 pair-count product:
    pairwise minimum, all-agent intersection."""
    n = entries.shape[0]
    per_agent = [[j for j in range(n) if entries[p, j] >= theta] for p in range(n)]
    hits = (entries >= theta).astype(np.int64)
    everyone = [j for j in range(n) if all(j in row for row in per_agent)]
    return int((hits @ hits.T).min()), everyone


def assert_matches_reference(matrix, theta):
    report = active_sets(matrix, theta)
    pairwise_min, everyone = reference_active_sets(matrix.entries, theta)
    assert report.pairwise_min == pairwise_min
    assert report.global_indices.tolist() == everyone
    assert report.theta == theta
    return report


def smallest_row_count(matrix, theta):
    return int((matrix.entries >= theta).sum(axis=1).min())


def test_hand_matrix_needs_the_pair_product():
    # smallest row count 3 > global count 2: only the pair counts decide
    m = hand_matrix()
    assert smallest_row_count(m, 0.2) == 3
    assert assert_matches_reference(m, 0.2).global_count == 2


def test_default_levels_take_the_shortcut():
    # phi(d_X)/N activates every agent; beta*phi(d_X) activates the leader,
    # and the leader's own row holds nothing else: global = smallest row
    rng = np.random.default_rng(12)
    x = rng.uniform(0, 6, size=(9, 2))
    phi = InfluenceFunction.power_law(0.5)
    for model, matrix in (
        (ModelSpec(model="mt", phi=phi, alpha=1.0), build_mt(pairwise_distances(x), phi)),
        (ModelSpec(model="cs", phi=phi, alpha=1.0), build_cs(pairwise_distances(x), phi)),
        (
            ModelSpec(model="leader", phi=phi, alpha=1.0, beta=0.2, leader=4),
            build_leader(pairwise_distances(x), phi, 0.2, 4),
        ),
    ):
        theta = default_theta(model, 9, diameter(x))
        report = assert_matches_reference(matrix, theta)
        assert report.global_count == smallest_row_count(matrix, theta)


@st.composite
def random_stochastic_matrices(draw):
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < draw(st.floats(0.2, 1.0)))
    w[np.arange(n), np.arange(n)] += 0.1  # no empty row
    return InfluenceMatrix(entries=w / w.sum(axis=1, keepdims=True), model_tag="random")


@given(random_stochastic_matrices(), st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_active_sets_match_reference_on_random_matrices(matrix, q):
    # a level at an entry quantile: from everyone active to almost no one
    theta = float(np.quantile(matrix.entries, q))
    if theta > 0.0:
        assert_matches_reference(matrix, theta)


@given(st.integers(0, 2**32 - 1), st.integers(2, 10), st.floats(0.05, 0.95), st.floats(0.5, 3.0))
@settings(max_examples=50, deadline=None)
def test_active_sets_match_reference_on_leader_matrices(seed, n, beta, scale):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 4, size=(n, 2))
    phi = InfluenceFunction.power_law(0.5)
    m = build_leader(pairwise_distances(x), phi, beta, int(rng.integers(n)))
    base = beta * float(phi(diameter(x)))
    # the default level and multiples of it, above and below
    for theta in (base * 0.999999999999, base * scale, base / scale):
        report = assert_matches_reference(m, theta)
        assert report.global_count <= report.pairwise_min <= smallest_row_count(m, theta)


# ----------------------------------------------------------------- the lemma


def test_lemma_zero_matrix():
    for theta in (0.01, 0.3, 0.9):
        res = lemma_action_bound(np.zeros((4, 4)), np.ones(4), np.ones(4), theta)
        assert res.lhs == 0.0
        assert res.holds


def test_lemma_equal_vectors_tight_bound():
    rng = np.random.default_rng(1)
    n = 4
    s = rng.uniform(-1, 1, size=(n, n))
    s = s - s.T
    u = np.full(n, 0.7)
    res = lemma_action_bound(s, u, u, 1.0 / n)
    assert res.lhs <= 1e-12  # <Su, u> vanishes by antisymmetry
    assert abs(res.rhs) <= 1e-12  # all entries active: the bound is tight
    assert res.holds


def test_lemma_fuzz_thousand_cases():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        s = rng.uniform(-1, 1, size=(n, n))
        s = 0.5 * (s - s.T)
        u = rng.uniform(0, 1, size=n)
        w = rng.uniform(0, 1, size=n)
        for theta in (float(rng.uniform(1e-3, 1.0)), 1.0 / n, 0.5 / n):
            res = lemma_action_bound(s, u, w, theta)
            assert res.holds, (n, theta)
            assert res.lhs <= res.rhs + 1e-12


def test_lemma_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lemma_action_bound(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2), np.ones(2), 0.1)
    s = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError):
        lemma_action_bound(s, np.array([-1.0, 1.0]), np.ones(2), 0.1)
    with pytest.raises(ValueError):
        lemma_action_bound(s, np.ones(2), np.ones(2), 0.0)


# -------------------------------------------------------------- decay checks


def mt_model(alpha=1.0, s=1.0):
    return ModelSpec(model="mt", phi=InfluenceFunction.power_law(s), alpha=alpha)


def checked_run(ens, model, **kwargs):
    """``simulate`` with a :class:`DecayObserver`: the record, its verdict and
    the counts of every step, global then pairwise minimum, one row each."""
    check = DecayObserver(model)
    record = simulate(ens, model, observers=[check], **kwargs)
    return record, check.report(), np.array(check.counts)


def test_decay_check_equal_velocities():
    ens = AgentEnsemble(
        t=0.0, positions=np.array([[0.0], [2.0]]), velocities=np.full((2, 1), 0.5)
    )
    record, report, _ = checked_run(ens, mt_model(), dt=0.1, t_final=1.0)
    assert report.passed
    assert np.all(record.velocity_diameter == 0.0)


def test_decay_check_two_agent_hand_rate():
    dt = 0.1
    ens = AgentEnsemble(
        t=0.0, positions=np.array([[0.0], [1.0]]), velocities=np.array([[0.0], [1.0]])
    )
    model = mt_model()
    record, report, counts = checked_run(ens, model, dt=dt, t_final=dt)
    # hand Euler step: d_V drops from 1 to 1 - 2*dt/3
    d_v = record.velocity_diameter
    assert d_v[1] == pytest.approx(1.0 - 2.0 * dt / 3.0, abs=1e-14)
    # guaranteed contraction at level phi(1)/2: rate alpha*phi(1)**2 = 1/4
    assert d_v[1] <= (1.0 - 0.25 * dt) * d_v[0]
    assert report.passed
    assert counts.tolist() == [[2, 2]]
    theta = default_theta(model, 2, 1.0)
    assert theta == pytest.approx(0.25)
    step = record.times[1] - record.times[0]
    assert report.margins.tolist() == [
        d_v[0] * (1.0 - 1.0 * 2**2 * (theta * theta) * step) + 10.0 * step * step - d_v[1]
    ]


def test_decay_check_cs_random_run():
    rng = np.random.default_rng(77)
    ens = AgentEnsemble(
        t=0.0,
        positions=rng.uniform(0, 4, size=(3, 2)),
        velocities=rng.uniform(-1, 1, size=(3, 2)),
    )
    model = ModelSpec(model="cs", phi=InfluenceFunction.power_law(0.5), alpha=1.0)
    _, report, counts = checked_run(ens, model, dt=0.05, t_final=5.0)
    assert report.passed
    assert report.worst_margin >= 0.0
    # the verdict's pairwise count is never below the global one
    assert np.all(counts[:, 1] >= counts[:, 0])


def test_decay_check_leader_schedule():
    # at level beta*phi(d_X) only the leader is guaranteed active, giving the
    # beta**2 contraction rate; the verifier must still pass every step
    rng = np.random.default_rng(55)
    ens = AgentEnsemble(
        t=0.0,
        positions=rng.uniform(0, 3, size=(5, 2)),
        velocities=rng.uniform(-1, 1, size=(5, 2)),
    )
    model = ModelSpec(
        model="leader", phi=InfluenceFunction.power_law(0.5), alpha=1.0, beta=0.3, leader=2
    )
    _, report, counts = checked_run(ens, model, dt=0.1, t_final=5.0)
    assert report.passed
    assert np.all(counts[:, 0] >= 1)  # the leader is always active


def test_decay_check_holds_for_rk4_runs_too():
    rng = np.random.default_rng(81)
    ens = AgentEnsemble(
        t=0.0,
        positions=rng.uniform(0, 5, size=(6, 2)),
        velocities=rng.uniform(-1, 1, size=(6, 2)),
    )
    model = mt_model(s=0.25)
    _, report, _ = checked_run(ens, model, dt=0.05, t_final=4.0, scheme="rk4")
    assert report.passed


def test_decay_check_zero_level_is_maximum_principle():
    # the cutoff is shorter than d_X, so phi(d_X) = 0: no contraction is
    # guaranteed and each step is held to d_V(k+1) <= d_V(k) + 10 dt**2
    dt = 0.1
    ens = AgentEnsemble(
        t=0.0,
        positions=np.array([[0.0], [1.0], [6.0]]),
        velocities=np.array([[0.0], [1.0], [-0.5]]),
    )
    model = ModelSpec(
        model="mt", phi=InfluenceFunction.power_law_with_cutoff(1.0, 2.0), alpha=1.0
    )
    record, report, counts = checked_run(ens, model, dt=dt, t_final=1.0)
    assert all(default_theta(model, 3, d_x) == 0.0 for d_x in record.position_diameter[:-1])
    assert np.all(counts == 0)
    d_v = record.velocity_diameter
    expected = d_v[:-1] + 10.0 * dt * dt - d_v[1:]
    assert np.allclose(report.margins, expected, rtol=0.0, atol=1e-15)
    assert report.passed


def stream_case(kind, seed=31, n=7):
    rng = np.random.default_rng(seed)
    if kind == "cutoff":
        # positions spread past the cutoff radius: a zero level on every step
        x = np.array([[0.0], [1.0], [6.0], [6.5]])
        v = rng.uniform(-1, 1, size=(4, 1))
        return AgentEnsemble(t=0.0, positions=x, velocities=v), ModelSpec(
            model="mt", phi=InfluenceFunction.power_law_with_cutoff(1.0, 2.0), alpha=1.0
        )
    ens = AgentEnsemble(
        t=0.0,
        positions=rng.uniform(0, 5, size=(n, 2)),
        velocities=rng.uniform(-1, 1, size=(n, 2)),
    )
    extra = {"beta": 0.3, "leader": 1} if kind == "leader" else {}
    phi = InfluenceFunction.power_law(0.5)
    return ens, ModelSpec(model=kind, phi=phi, alpha=2.0, **extra)


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
@pytest.mark.parametrize("kind", ["cs", "mt", "leader", "cutoff"])
def test_online_check_equals_replay(kind, scheme):
    ens, model = stream_case(kind)
    online = DecayObserver(model)
    streamed = simulate(ens, model, dt=0.05, t_final=2.0, scheme=scheme, observers=[online])
    states = []
    full = simulate(
        ens, model, dt=0.05, t_final=2.0, scheme=scheme,
        observers=[lambda k, state, row, built: states.append(state)],
    )
    assert streamed.snapshots == [] and full.snapshots == []
    # the replay: each recorded state's (t, d_x, d_v) row and its matrix built
    # afresh, fed to an observer
    times, d_x, d_v = full.times, full.position_diameter, full.velocity_diameter
    replay = DecayObserver(model)
    for k, state in enumerate(states):
        matrix = build_matrix(state, model) if k < len(states) - 1 else None
        replay(k, state, (float(times[k]), float(d_x[k]), float(d_v[k])), matrix)
    got, want = online.report(), replay.report()
    assert np.array_equal(got.margins, want.margins)
    assert np.array_equal(online.counts, replay.counts)
    assert got[:3] == want[:3]
    # the old array formula over the whole record, at the pairwise count
    theta = np.array([default_theta(model, ens.n, x) for x in d_x[:-1]])
    c = np.array(online.counts)[:, 1]
    dt = np.diff(times)
    formula = d_v[:-1] * (1.0 - model.alpha * c**2 * theta**2 * dt) + 10.0 * dt * dt - d_v[1:]
    assert np.array_equal(got.margins, formula)
    worst = int(np.argmin(formula))
    assert got[:3] == (bool(formula[worst] >= 0.0), float(formula[worst]), worst)
    # the pairwise count is at least the global one, so its margin is never larger
    counts = np.array(online.counts)
    assert counts.shape == (len(times) - 1, 2)
    assert np.all(counts[:, 1] >= counts[:, 0])
    if kind == "cutoff":
        assert np.all(theta == 0.0) and np.all(counts[:, 1] == 0)
    else:
        assert np.all(theta > 0.0) and np.all(counts[:, 0] >= 1)


def test_observer_report_needs_a_step():
    _, model = stream_case("mt")
    with pytest.raises(ValueError, match="no step observed"):
        DecayObserver(model).report()


def test_default_schedule_leader_and_vision():
    phi = InfluenceFunction.power_law(1.0)
    leader = ModelSpec(model="leader", phi=phi, alpha=1.0, beta=0.25, leader=0)
    assert default_theta(leader, 5, 1.0) == pytest.approx(0.25 * 0.5)
    vision = ModelSpec(model="vision", phi=phi, alpha=1.0, gamma=0.0, normalization="mt-style")
    with pytest.raises(ValueError):
        default_theta(vision, 5, 1.0)
