"""Agent state, alignment dynamics, time integration and diagnostics.

Every model reduces to dv_i/dt = alpha * (sum_j a_ij v_j - v_i) with a
row-stochastic matrix from :mod:`flocklab.influence`, so the new velocity
under explicit Euler with alpha*dt <= 1 is a convex combination of the old
ones.  That makes the velocity diameter non-increasing per step, which is the
exact discrete invariant the verification suite leans on; rk4 is the accuracy
scheme and rebuilds the matrix at every stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial.distance import cdist

from .errors import StabilityError
from .influence import (
    InfluenceFunction,
    InfluenceMatrix,
    build_cs,
    build_leader,
    build_mt,
    build_vision,
)

MODEL_KINDS = ("cs", "mt", "leader", "vision")


@dataclass(frozen=True)
class AgentEnsemble:
    """Positions and velocities of N agents at one time instant."""

    t: float
    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.positions, dtype=float)
        v = np.asarray(self.velocities, dtype=float)
        object.__setattr__(self, "positions", x)
        object.__setattr__(self, "velocities", v)
        if x.ndim != 2 or v.ndim != 2:
            raise ValueError("positions and velocities must be (N, d) arrays")
        if x.shape != v.shape:
            raise ValueError("positions and velocities must have equal shapes")
        if x.shape[0] < 1:
            raise ValueError("at least one agent required")
        if x.shape[1] not in (1, 2, 3):
            raise ValueError("spatial dimension must be 1, 2 or 3")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise ValueError("coordinates must be finite")

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True)
class ModelSpec:
    """Which matrix builder to use and its parameters.

    alpha is the positive coupling rate; beta/leader apply to the leader
    model, gamma/normalization to the vision model, and must be present
    exactly when that model is selected.
    """

    model: str
    phi: InfluenceFunction
    alpha: float
    beta: Optional[float] = None
    leader: Optional[int] = None
    gamma: Optional[float] = None
    normalization: Optional[str] = None

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model!r}")
        if not (self.alpha > 0):
            raise ValueError("alpha must be positive")
        needs_leader = self.model == "leader"
        needs_vision = self.model == "vision"
        if needs_leader != (self.beta is not None and self.leader is not None):
            raise ValueError("beta and leader index required exactly for the leader model")
        if needs_vision != (self.gamma is not None and self.normalization is not None):
            raise ValueError("gamma and normalization required exactly for the vision model")
        if not needs_leader and (self.beta is not None or self.leader is not None):
            raise ValueError("beta/leader only valid for the leader model")
        if not needs_vision and (self.gamma is not None or self.normalization is not None):
            raise ValueError("gamma/normalization only valid for the vision model")


def build_matrix(ensemble: AgentEnsemble, model: ModelSpec) -> InfluenceMatrix:
    """Assemble the influence matrix for the ensemble's current geometry."""
    if model.model == "cs":
        return build_cs(ensemble.positions, model.phi)
    if model.model == "mt":
        return build_mt(ensemble.positions, model.phi)
    if model.model == "leader":
        return build_leader(ensemble.positions, model.phi, model.beta, model.leader)
    return build_vision(
        ensemble.positions, ensemble.velocities, model.phi, model.gamma, model.normalization
    )


def rhs(
    ensemble: AgentEnsemble, model: ModelSpec, matrix: Optional[InfluenceMatrix] = None
) -> np.ndarray:
    """Accelerations alpha * (a v - v), one row per agent; ``matrix``, when
    given, is the ensemble's influence matrix, built by the caller."""
    if matrix is None:
        matrix = build_matrix(ensemble, model)
    a = matrix.entries
    return model.alpha * (a @ ensemble.velocities - ensemble.velocities)


def advance(x, v, accel, alpha: float, dt: float, scheme: str) -> Tuple[np.ndarray, np.ndarray]:
    """One step of dx/dt = v, dv/dt = accel(x, v) with 'euler' or 'rk4'.

    accel is evaluated once per Euler step and at each of the four rk4
    stages.  Euler needs alpha*dt <= 1 (the convex-combination guard for
    relaxation at rate alpha); a non-finite result raises FloatingPointError.
    """
    if not (dt > 0):
        raise ValueError("dt must be positive")
    if scheme == "euler":
        if alpha * dt > 1.0:
            raise StabilityError(f"explicit Euler needs alpha*dt <= 1, got {alpha * dt}")
        x_new, v_new = x + dt * v, v + dt * accel(x, v)
    elif scheme == "rk4":
        kv1 = accel(x, v)
        kx2 = v + 0.5 * dt * kv1
        kv2 = accel(x + 0.5 * dt * v, kx2)
        kx3 = v + 0.5 * dt * kv2
        kv3 = accel(x + 0.5 * dt * kx2, kx3)
        kx4 = v + dt * kv3
        kv4 = accel(x + dt * kx3, kx4)
        x_new = x + dt / 6.0 * (v + 2.0 * (kx2 + kx3) + kx4)
        v_new = v + dt / 6.0 * (kv1 + 2.0 * (kv2 + kv3) + kv4)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    if not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(v_new))):
        raise FloatingPointError("non-finite state after time step")
    return x_new, v_new


def step(
    ensemble: AgentEnsemble,
    model: ModelSpec,
    dt: float,
    scheme: str = "euler",
    matrix: Optional[InfluenceMatrix] = None,
) -> AgentEnsemble:
    """Advance one step of size dt with 'euler' or 'rk4'.

    ``matrix``, when given, is the ensemble's own influence matrix and serves
    the acceleration at the step's starting state (Euler's only one, rk4's
    stage 1); every other rk4 stage builds its own.
    """

    def accel(x, v):
        at_start = x is ensemble.positions and v is ensemble.velocities
        state = AgentEnsemble(t=ensemble.t, positions=x, velocities=v)
        return rhs(state, model, matrix if at_start else None)

    x, v = advance(ensemble.positions, ensemble.velocities, accel, model.alpha, dt, scheme)
    return AgentEnsemble(t=ensemble.t + dt, positions=x, velocities=v)


def diameter(points: np.ndarray) -> float:
    """Largest pairwise Euclidean distance between the rows of points."""
    return float(np.max(cdist(points, points)))


def diameters(ensemble: AgentEnsemble) -> Tuple[float, float]:
    """Max pairwise position and velocity distances (exhaustive scan)."""
    return diameter(ensemble.positions), diameter(ensemble.velocities)


def bulk_momentum(ensemble: AgentEnsemble) -> np.ndarray:
    """Mean velocity (1/N) sum_i v_i."""
    return ensemble.velocities.mean(axis=0)


@dataclass
class TrajectoryRecord:
    """Per-step diagnostics plus optional state snapshots.

    times, position_diameter, velocity_diameter and momentum all have one
    entry per recorded instant (initial state included).  snapshots holds the
    full ensembles every ``snapshot_stride`` steps (and always the initial
    one) when the stride is positive.
    """

    times: np.ndarray
    position_diameter: np.ndarray
    velocity_diameter: np.ndarray
    momentum: np.ndarray
    snapshot_stride: int = 0
    snapshots: List[AgentEnsemble] = field(default_factory=list)

    def __post_init__(self):
        k = len(self.times)
        if not (len(self.position_diameter) == len(self.velocity_diameter) == len(self.momentum) == k):
            raise ValueError("diagnostic series must have equal lengths")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


def step_times(t0: float, dt: float, t_final: float) -> List[float]:
    """Time stamps of steps 1..n: the horizon t_final is rounded to n whole
    steps of size dt (at least one), and step k is stamped t0 + k*dt rather
    than accumulated, so no stamp drifts off the grid."""
    if not (t_final > 0):
        raise ValueError("t_final must be positive")
    n_steps = max(1, int(round(t_final / dt)))
    return [float(t0 + k * dt) for k in range(1, n_steps + 1)]


def simulate(
    initial: AgentEnsemble,
    model: ModelSpec,
    dt: float,
    t_final: float,
    scheme: str = "euler",
    snapshot_stride: int = 0,
    observers: Sequence[Callable[[AgentEnsemble, float, InfluenceMatrix], None]] = (),
) -> TrajectoryRecord:
    """Integrate to t_final, recording diameters and momentum at every step.

    Steps are stamped on the :func:`step_times` grid.  Each step builds the
    influence matrix of the state it starts from once; every observer is
    called as ``observer(state, d_x, matrix)`` with that state, its position
    diameter and the matrix, which then serves the step's first acceleration.
    Snapshots are kept every ``snapshot_stride`` steps only.
    """
    times = [initial.t]
    d_x, d_v = diameters(initial)
    dx_series, dv_series = [d_x], [d_v]
    momenta = [bulk_momentum(initial)]
    snapshots = [initial] if snapshot_stride > 0 else []

    state = initial
    for k, t in enumerate(step_times(initial.t, dt, t_final), start=1):
        matrix = build_matrix(state, model)
        for observe in observers:
            observe(state, d_x, matrix)
        state = replace(step(state, model, dt, scheme, matrix), t=t)
        times.append(t)
        d_x, d_v = diameters(state)
        dx_series.append(d_x)
        dv_series.append(d_v)
        momenta.append(bulk_momentum(state))
        if snapshot_stride > 0 and k % snapshot_stride == 0:
            snapshots.append(state)

    return TrajectoryRecord(
        times=np.array(times),
        position_diameter=np.array(dx_series),
        velocity_diameter=np.array(dv_series),
        momentum=np.array(momenta),
        snapshot_stride=snapshot_stride,
        snapshots=snapshots,
    )


def kinetic_consistency_check(
    ensemble: AgentEnsemble, phi: InfluenceFunction, alpha: float
) -> float:
    """Max deviation between the mean-field vector field evaluated on the
    empirical measure and the relative-influence right-hand side.

    The two are the same sum written down differently (empirical weights 1/N
    against matrix rows), so the result must sit at rounding level.
    """
    x, v, n = ensemble.positions, ensemble.velocities, ensemble.n
    w = phi(cdist(x, x))
    # empirical-measure route, 1/N weights kept explicit
    num = alpha * ((w / n)[:, :, None] * (v[None, :, :] - v[:, None, :])).sum(axis=1)
    den = (w / n).sum(axis=1)
    field_route = num / den[:, None]

    model = ModelSpec(model="mt", phi=phi, alpha=alpha)
    matrix_route = rhs(ensemble, model)
    return float(np.max(np.linalg.norm(field_route - matrix_route, axis=1)))
