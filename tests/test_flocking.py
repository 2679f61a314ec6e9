import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flocklab.dynamics import AgentEnsemble, ModelSpec, diameters, simulate
from flocklab.flocking import (
    ROUND_OFF,
    certify,
    energy,
    fit_exponential_rate,
    solve_flock_diameter,
)
from flocklab.influence import InfluenceFunction, range_integral, tail_integral

PHI_S1 = InfluenceFunction.power_law(1.0)


def mt(phi: InfluenceFunction, alpha: float = 1.0) -> ModelSpec:
    return ModelSpec(model="mt", phi=phi, alpha=alpha)


# -------------------------------------------------------------------- energy


def test_energy_empty_integral():
    assert energy(0.0, 0.7, 1.0, PHI_S1) == pytest.approx(0.7)


def test_energy_log_closed_form():
    # psi = (1+r)^-1 realized as phi with s=1 taken to the first power
    for d_x in (0.5, 1.0, 7.3):
        got = energy(d_x, 0.2, 1.0, PHI_S1, power=1)
        assert got == pytest.approx(0.2 + math.log1p(d_x), rel=1e-12)


def test_energy_monotone_along_mt_trajectory():
    rng = np.random.default_rng(5)
    ens = AgentEnsemble(
        t=0.0,
        positions=rng.uniform(0, 6, size=(12, 2)),
        velocities=rng.uniform(-1, 1, size=(12, 2)),
    )
    phi = InfluenceFunction.power_law(0.25)
    model = ModelSpec(model="mt", phi=phi, alpha=1.0)
    dt = 0.05
    record = simulate(ens, model, dt=dt, t_final=10.0)
    series = [
        energy(d_x, d_v, 1.0, phi, power=2)
        for d_x, d_v in zip(record.position_diameter, record.velocity_diameter)
    ]
    assert np.all(np.diff(series) <= 10.0 * dt * dt)


# --------------------------------------------------------------- d* solving


def test_flock_diameter_zero_spread():
    assert solve_flock_diameter(3.0, 0.0, 1.0, PHI_S1) == 3.0


def test_flock_diameter_log_closed_form():
    d_star = solve_flock_diameter(0.0, 1.0, 1.0, PHI_S1, power=1)
    assert d_star == pytest.approx(math.e - 1.0, abs=1e-10)


def test_flock_diameter_absent_when_tail_too_small():
    # tail of (1+r)^-2 from 0 is exactly 1 < 2
    assert solve_flock_diameter(0.0, 2.0, 1.0, PHI_S1, power=2) is None


@given(
    d_x0=st.floats(0.0, 10.0),
    d_v0=st.floats(0.001, 5.0),
    alpha=st.floats(0.2, 3.0),
    s=st.floats(0.1, 0.5),
)
@settings(max_examples=60, deadline=None)
def test_flock_diameter_reintegration(d_x0, d_v0, alpha, s):
    phi = InfluenceFunction.power_law(s)  # 2s <= 1: tail diverges, root exists
    d_star = solve_flock_diameter(d_x0, d_v0, alpha, phi, power=2)
    back = alpha * range_integral(phi, 2, d_x0, d_star)
    assert back == pytest.approx(d_v0, rel=1e-10)


@given(
    d_v_small=st.floats(0.01, 1.0),
    bump=st.floats(0.01, 2.0),
)
@settings(max_examples=40, deadline=None)
def test_flock_diameter_monotone_in_initial_spread(d_v_small, bump):
    phi = InfluenceFunction.power_law(0.3)
    small = solve_flock_diameter(1.0, d_v_small, 1.0, phi)
    large = solve_flock_diameter(1.0, d_v_small + bump, 1.0, phi)
    assert large >= small


# ------------------------------------------------------------- certificates


def test_certificate_unconditional_for_slow_decay():
    cert = certify(5.0, 3.0, mt(InfluenceFunction.power_law(0.25)))
    assert cert.verdict == "unconditional"
    assert math.isinf(cert.tail)
    assert cert.d_star is not None and math.isfinite(cert.d_star)
    assert cert.predicted_rate == pytest.approx(
        InfluenceFunction.power_law(0.25)(cert.d_star) ** 2
    )


def test_certificate_not_guaranteed_when_spread_exceeds_tail():
    cert = certify(0.0, 1.5, mt(PHI_S1))  # tail of phi^2 from 0 is 1
    assert cert.verdict == "not-guaranteed"
    assert cert.tail == pytest.approx(1.0)
    assert cert.d_star is None and cert.predicted_rate is None


def test_certificate_conditional_with_finite_diameter():
    cert = certify(0.0, 0.5, mt(PHI_S1))
    assert cert.verdict == "conditional-satisfied"
    assert cert.d_star is not None
    back = range_integral(PHI_S1, 2, 0.0, cert.d_star)
    assert back == pytest.approx(0.5, rel=1e-10)
    # closed form: int_0^d (1+r)^-2 = d/(1+d) = 1/2  =>  d* = 1
    assert cert.d_star == pytest.approx(1.0, abs=1e-10)


def test_certificate_at_exact_criticality_has_no_finite_diameter():
    # tail of (1+r)^-2 from 0 is exactly 1 = d_v0: the root of the integral
    # lies at infinity, so the diameter bound and the rate are void
    assert tail_integral(PHI_S1, 2, 0.0) == 1.0
    assert solve_flock_diameter(0.0, 1.0, 1.0, PHI_S1) == math.inf
    cert = certify(0.0, 1.0, mt(PHI_S1))
    assert cert.verdict == "conditional-satisfied"
    assert cert.d_star == math.inf
    assert cert.predicted_rate == 0.0


def test_a_flock_diameter_far_above_the_first_bracket_is_found():
    # s = 0.5: psi = (1+r)^-1 integrates to log((1+d*)/(1+d_x0)) = d_v0/alpha,
    # so d* = (1+d_x0) exp(d_v0/alpha) - 1 = 1.5e66, far above 2**200 doublings
    # of the first bracket, where a capped search read it as infinite
    phi = InfluenceFunction.power_law(0.5)
    cert = certify(10.0, 150.0, mt(phi))
    assert cert.d_star == pytest.approx(11.0 * math.exp(150.0) - 1.0, rel=1e-12)
    assert cert.predicted_rate == pytest.approx(1.0 / (1.0 + cert.d_star), rel=1e-12)
    # a root above the largest float is infinite, its rate void
    assert math.log(np.finfo(float).max / 11.0) < 800.0
    cert = certify(10.0, 800.0, mt(phi))
    assert (cert.d_star, cert.predicted_rate) == (math.inf, 0.0)


def test_certificate_alpha_scales_admissibility():
    # tail value includes alpha: d_v0 = 1.5 is admissible once alpha = 2
    cert = certify(0.0, 1.5, mt(PHI_S1, alpha=2.0))
    assert cert.tail == pytest.approx(2.0)
    assert cert.verdict == "conditional-satisfied"


def test_certificate_leader_absorbs_beta_squared():
    phi = InfluenceFunction.power_law(1.0)
    model = ModelSpec(model="leader", phi=phi, alpha=1.0, beta=0.5, leader=0)
    cert = certify(0.0, 0.2, model)
    assert cert.psi_scale == pytest.approx(0.25)
    assert cert.tail == pytest.approx(0.25)  # alpha * beta^2 * 1
    back = 0.25 * range_integral(phi, 2, 0.0, cert.d_star)
    assert back == pytest.approx(0.2, rel=1e-10)
    assert cert.predicted_rate == pytest.approx(0.25 * phi(cert.d_star) ** 2)


def test_certificate_vision_model_has_none():
    model = ModelSpec(
        model="vision", phi=PHI_S1, alpha=1.0, gamma=0.0, normalization="mt-style"
    )
    assert certify(1.0, 1.0, model) is None


def test_an_overflowing_tail_is_no_divergence():
    # for s = 0.51 the integral of phi**2 is finite: alpha = 1e308 overflows
    # only its product with alpha, which certifies nothing unconditionally
    phi = InfluenceFunction.power_law(0.51)
    assert math.isfinite(tail_integral(phi, 2, 7.7))
    cert = certify(7.7, 2.0, mt(phi, alpha=1e308))
    assert cert.tail == math.inf
    assert cert.verdict == "conditional-satisfied"
    assert cert.to_json_dict()["tail"] == math.inf


@pytest.mark.parametrize("d_x0, d_v0", [(0.0, -0.5), (0.0, math.nan), (math.nan, 0.5)])
@pytest.mark.parametrize(
    "phi", [PHI_S1, InfluenceFunction.power_law(0.25)], ids=["finite-tail", "infinite-tail"]
)
def test_certificate_rejects_a_negative_or_nan_diameter(phi, d_x0, d_v0):
    # a NaN spread is no spread the solver can bound, whatever the tail: it
    # must not bisect its way to an unconditional d* = inf
    with pytest.raises(ValueError, match="diameters must be non-negative"):
        solve_flock_diameter(d_x0, d_v0, 1.0, phi)
    with pytest.raises(ValueError, match="diameters must be non-negative"):
        certify(d_x0, d_v0, mt(phi))


def test_certificate_symmetric_theory_kind():
    # the symmetric-theory tail, of psi = phi = (1+r)^-1, diverges; the
    # certificate's own psi = phi**2 has tail 1, which d_v0 = 10 exceeds
    assert math.isinf(tail_integral(PHI_S1, 1, 0.0))
    cert = certify(0.0, 10.0, mt(PHI_S1))
    assert cert.tail == pytest.approx(1.0)
    assert cert.verdict == "not-guaranteed"
    assert cert.to_json_dict()["psi_kind"] == "phi-squared"


# ------------------------------------------------------------- rate fitting


def test_fit_rate_exact_exponential():
    t = np.linspace(0.0, 5.0, 200)
    assert fit_exponential_rate(t, np.exp(-2.0 * t)) == pytest.approx(2.0, abs=1e-9)


def test_fit_rate_constant_series():
    t = np.linspace(0.0, 1.0, 50)
    assert fit_exponential_rate(t, np.full(50, 0.3)) == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_of_a_flat_series_is_exactly_positive_zero():
    # the fitted logs are taken relative to the first, so a constant series
    # fits a zero slope exactly, and its negation is +0.0, not -0.0
    rate = fit_exponential_rate(np.linspace(0.0, 5.0, 50), np.full(50, 0.3))
    assert rate == 0.0
    assert math.copysign(1.0, rate) == 1.0


def test_fit_rate_truncates_at_first_zero():
    t = np.linspace(0.0, 1.0, 10)
    v = np.exp(-t)
    v[6:] = 0.0
    rate = fit_exponential_rate(t, v)
    assert rate == pytest.approx(1.0, abs=1e-9)
    # fewer than three positive samples left: no rate, not an error
    assert math.isnan(fit_exponential_rate(t[:4], np.array([1.0, 0.0, 0.0, 0.0])))
    assert math.isnan(fit_exponential_rate(t[:2], np.exp(-t[:2])))
    with pytest.raises(ValueError):  # mismatched shapes are still bad input
        fit_exponential_rate(t[:4], v[:3])


def test_fit_rate_over_times_whose_squares_underflow_is_nan_without_a_warning():
    # steps of 1e-171: every centred time squares to 0, so no slope is defined
    # (the fit divided 0 by 0 and numpy warned)
    t = 1e-171 * np.arange(11.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(fit_exponential_rate(t, np.exp(-t)))
        assert math.isnan(fit_exponential_rate(t, np.linspace(2.0, 1.0, 11)))


def test_fit_rate_cuts_the_round_off_tail():
    # a decay to round-off of its start, then noise at that level: the fit
    # reads the decay, not the flat tail
    t = np.linspace(0.0, 60.0, 601)
    v = 3.0 * np.exp(-t)
    spent = v <= ROUND_OFF * v[0]
    v[spent] = 3.0 * np.random.default_rng(1).uniform(0.1, 1.0, spent.sum()) * 1e-16
    assert 0 < spent.argmax() < 601 // 2
    assert fit_exponential_rate(t, v) == pytest.approx(1.0, abs=1e-9)
    # the cut takes a sample at round-off of the start and keeps one above it
    t = np.arange(4.0)
    at, above = [1.0, 1e-4, 1e-8, ROUND_OFF], [1.0, 1e-4, 1e-8, 2.0 * ROUND_OFF]
    assert fit_exponential_rate(t, np.array(at)) == pytest.approx(math.log(1e4))
    assert fit_exponential_rate(t, np.array(above)) == pytest.approx(math.log(1e-8 / above[3]))


def _polyfit_rate(times, values):
    """Test-only reference: numpy's least-squares line through the logs of
    the trailing half, after the same round-off cut, with the slope the
    fitted logs span end to end (NaN, NaN when fewer than three are left)."""
    spent = np.flatnonzero(values <= ROUND_OFF * values[0])
    n = spent[0] if spent.size else values.size
    if n < 3:
        return math.nan, math.nan
    half = n // 2
    logs = np.log(values[half:n])
    span = (logs.max() - logs.min()) / (times[n - 1] - times[half])
    return float(-np.polyfit(times[half:n], logs, 1)[0]), span


@given(
    n=st.integers(3, 400),
    t0=st.floats(0.0, 100.0),
    log_step=st.floats(-3.0, 0.0),
    log_rate=st.floats(-4.0, 1.0),
    grows=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_fit_rate_matches_polyfit(n, t0, log_step, log_rate, grows, seed):
    t = t0 + 10.0**log_step * np.arange(n)
    rate = -(10.0**log_rate) if grows else 10.0**log_rate
    noise = 1e-3 * np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    log_v = -rate * (t - t0) + np.log1p(noise)
    assume(log_v.max() < 700.0)  # a growth past the float range has no series
    v = np.exp(log_v)  # a decay underflows to 0 and is cut
    want, span = _polyfit_rate(t, v)
    got = fit_exponential_rate(t, v)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        # relative to the larger of the slope and the logs' own span: where the
        # noise all but cancels the trend, polyfit's uncentred times (up to 100
        # against a span down to 2e-3) leave it 1e-8 off the exact slope
        assert abs(got - want) <= 1e-9 * max(abs(want), span)


# --------------------------------------------------- simulation conformance


def test_mt_run_conforms_to_certificate():
    rng = np.random.default_rng(12)
    ens = AgentEnsemble(
        t=0.0,
        positions=rng.uniform(0, 5, size=(10, 2)),
        velocities=rng.uniform(-1, 1, size=(10, 2)),
    )
    phi = InfluenceFunction.power_law(0.25)
    model = ModelSpec(model="mt", phi=phi, alpha=1.0)
    d_x0, d_v0 = diameters(ens)
    cert = certify(d_x0, d_v0, model)
    assert cert.verdict == "unconditional"

    dt = 0.05
    record = simulate(ens, model, dt=dt, t_final=60.0)
    assert np.all(record.position_diameter <= cert.d_star + dt * d_v0 + 1e-12)
    assert record.velocity_diameter[-1] <= 1e-3 * d_v0
    # fit over the clean decay region, before rounding noise flattens the tail
    hit = int(np.argmax(record.velocity_diameter <= 1e-3 * d_v0))
    fitted = fit_exponential_rate(record.times[: hit + 1], record.velocity_diameter[: hit + 1])
    assert fitted >= cert.predicted_rate


@pytest.mark.parametrize("kind", ["cs", "leader"])
def test_cs_and_leader_runs_conform_to_certificates(kind):
    rng = np.random.default_rng(44)
    ens = AgentEnsemble(
        t=0.0,
        positions=rng.uniform(0, 4, size=(8, 2)),
        velocities=rng.uniform(-0.8, 0.8, size=(8, 2)),
    )
    phi = InfluenceFunction.power_law(0.25)
    if kind == "leader":
        model = ModelSpec(model=kind, phi=phi, alpha=1.0, beta=0.4, leader=0)
    else:
        model = ModelSpec(model=kind, phi=phi, alpha=1.0)
    d_x0, d_v0 = diameters(ens)
    cert = certify(d_x0, d_v0, model)
    assert cert.verdict == "unconditional"

    dt = 0.05
    record = simulate(ens, model, dt=dt, t_final=400.0)
    assert np.all(record.position_diameter <= cert.d_star + dt * d_v0 + 1e-12)
    assert record.velocity_diameter[-1] <= 1e-3 * d_v0
