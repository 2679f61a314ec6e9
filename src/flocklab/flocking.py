"""Energy-functional flocking certificates.

The contraction argument compares the initial velocity diameter with the tail
mass of psi = phi**2 (beta**2 phi**2 for the leader model), read from the
model's own spec; the vision model has no flocking theorem.  A diverging tail
certifies flocking for every initial condition; a finite tail certifies it
when d_V(0) <= alpha * integral, in which case the position diameter never
exceeds the root d* of alpha * int_{d_X0}^{d*} psi = d_V0 and the velocity
diameter contracts at least at rate alpha * psi(d*).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .dynamics import ModelSpec
from .influence import InfluenceFunction, range_integral, tail_integral

VERDICT_UNCONDITIONAL = "unconditional"
VERDICT_CONDITIONAL = "conditional-satisfied"
VERDICT_NOT_GUARANTEED = "not-guaranteed"

# a decaying series at this fraction of its start is round-off, not decay
ROUND_OFF = 1e3 * np.finfo(float).eps


class FlockingCertificate(NamedTuple):
    """Tail test, flock-diameter bound and guaranteed contraction rate.

    tail is alpha * psi_scale * integral of psi = phi**2 over [d_x0, inf)
    (math.inf when the integral diverges, or when the product overflows; only
    the former is the unconditional verdict, and only it is written
    "diverges").  d_star is present whenever the admissibility condition
    d_v0 <= tail holds, math.inf at d_v0 == tail; predicted_rate is
    alpha * psi_scale * phi(d_star)**2, the Gronwall rate valid once the
    diameter bound holds, and 0.0 for an infinite d_star.
    """

    psi_scale: float
    d_x0: float
    d_v0: float
    alpha: float
    tail: float
    d_star: Optional[float]
    predicted_rate: Optional[float]
    verdict: str

    def to_json_dict(self) -> dict:
        return {"psi_kind": "phi-squared", **self._asdict(),
                "tail": "diverges" if self.verdict == VERDICT_UNCONDITIONAL else self.tail}


def energy(d_x: float, d_v: float, alpha: float, phi: InfluenceFunction, power: int = 2) -> float:
    """d_V + alpha * integral of phi**power over [0, d_X]."""
    if d_x < 0 or d_v < 0:
        raise ValueError("diameters must be non-negative")
    return d_v + alpha * range_integral(phi, power, 0.0, d_x)


def solve_flock_diameter(
    d_x0: float,
    d_v0: float,
    alpha: float,
    phi: InfluenceFunction,
    power: int = 2,
    scale: float = 1.0,
) -> Optional[float]:
    """Unique d* >= d_x0 with alpha*scale*int_{d_x0}^{d*} phi**power = d_v0,
    or None when d_v0 exceeds the available tail mass.

    Bisection on the monotone integral (the kernel may be merely continuous),
    bracket grown by doubling until it holds the root.  At exact criticality
    d_v0 == tail the root is +inf, and a root above the largest float is
    returned as math.inf too.
    """
    if not (d_x0 >= 0 and d_v0 >= 0):
        raise ValueError("diameters must be non-negative")
    if not (alpha > 0):
        raise ValueError("alpha must be positive")
    eff = alpha * scale
    tail = eff * tail_integral(phi, power, d_x0)
    if d_v0 > tail:
        return None
    if d_v0 == 0.0:
        return d_x0
    if d_v0 == tail:
        return math.inf

    def deficit(d: float) -> float:
        return eff * range_integral(phi, power, d_x0, d) - d_v0

    hi = max(2.0 * d_x0, 1.0)
    while deficit(hi) < 0.0:
        hi *= 2.0
        if math.isinf(hi):  # the root lies beyond the largest float
            return math.inf
    lo = d_x0
    # bisect to float resolution: the re-integration residual must stay below
    # 1e-10 of d_v0 even when d_v0 is tiny next to d_x0
    while hi - lo > 1e-15 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if deficit(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def certify(d_x0: float, d_v0: float, model: ModelSpec) -> Optional[FlockingCertificate]:
    """The flocking certificate of ``model`` for the given initial diameters,
    or None for the vision model, which has no flocking theorem.

    The leader model absorbs beta**2 into the effective kernel; the cs and mt
    builders use phi**2 unscaled.  The verdict is unconditional exactly when
    the integral of phi**2 itself diverges, whatever alpha * beta**2 does to it.
    """
    if model.model == "vision":
        return None
    alpha, phi = model.alpha, model.phi
    scale = model.beta**2 if model.model == "leader" else 1.0
    integral = tail_integral(phi, 2, d_x0)
    d_star = solve_flock_diameter(d_x0, d_v0, alpha, phi, scale=scale)
    if d_star is None:
        verdict, rate = VERDICT_NOT_GUARANTEED, None
    else:
        verdict = VERDICT_UNCONDITIONAL if math.isinf(integral) else VERDICT_CONDITIONAL
        rate = alpha * scale * phi(d_star) ** 2 if math.isfinite(d_star) else 0.0
    return FlockingCertificate(
        psi_scale=scale,
        d_x0=d_x0,
        d_v0=d_v0,
        alpha=alpha,
        tail=alpha * scale * integral,
        d_star=d_star,
        predicted_rate=rate,
        verdict=verdict,
    )


def fit_exponential_rate(times, values) -> float:
    """Negated least-squares slope of log(values) over the trailing half.

    A series is cut at its first sample at or below ROUND_OFF times its first
    (a zero included); with fewer than three samples left, or times so close
    that their centred squares sum to zero, there is no rate to fit, and the
    result is NaN.  The slope is the closed-form ordinary least
    squares one, sum(tc*y) / sum(tc*tc) with tc the fitted times less their
    mean and y the logs less the first fitted log, so a constant series fits
    exactly 0.0 and no LAPACK solver is loaded.  The mean is taken of the
    times less the first, so late times of a short span centre to a few ulps
    of the span rather than of the times.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise ValueError("times and values must be equal-length 1D arrays")
    # values[:1] is empty for an empty series, and so is the comparison
    spent = np.flatnonzero(values <= ROUND_OFF * np.maximum(values[:1], 0.0))
    if spent.size:
        times = times[: spent[0]]
        values = values[: spent[0]]
    if values.size < 3:
        return math.nan
    half = values.size // 2
    tc = times[half:] - times[half]
    tc -= tc.mean()
    y = np.log(values[half:])
    y -= y[0]
    spread = (tc * tc).sum()
    if spread == 0.0:
        return math.nan
    # 0.0 - slope, never -0.0: a flat series reads +0.0
    return 0.0 - float((tc * y).sum() / spread)
