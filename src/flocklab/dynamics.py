"""Agent state, alignment dynamics, time integration and diagnostics.

Every model reduces to dv_i/dt = alpha * (sum_j a_ij v_j - v_i) with a
row-stochastic matrix from :mod:`flocklab.influence`, so the new velocity
under explicit Euler with alpha*dt <= 1 is a convex combination of the old
ones.  That makes the velocity diameter non-increasing per step, which is the
exact discrete invariant the verification suite leans on; rk4 is the accuracy
scheme and rebuilds the matrix at every stage.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import influence
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
# step's integration schemes
SCHEMES = ("euler", "rk4")


class AgentEnsemble:
    """Positions and velocities of N agents at one time instant."""

    def __init__(self, t: float, positions: np.ndarray, velocities: np.ndarray):
        x = np.asarray(positions, dtype=float)
        v = np.asarray(velocities, dtype=float)
        self.t, self.positions, self.velocities = t, x, v
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


class ModelSpec:
    """Which matrix builder to use and its parameters.

    alpha is the positive coupling rate; beta/leader apply to the leader
    model, gamma/normalization to the vision model, and must be present
    exactly when that model is selected.  masses, optional and mt only, are
    one finite positive mass per agent that weight the matrix columns: the
    Lagrangian particles of the hydrodynamic limit.
    """

    def __init__(
        self,
        model: str,
        phi: InfluenceFunction,
        alpha: float,
        beta: Optional[float] = None,
        leader: Optional[int] = None,
        gamma: Optional[float] = None,
        normalization: Optional[str] = None,
        masses: Optional[np.ndarray] = None,
    ):
        if model not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {model!r}")
        if not (alpha > 0):
            raise ValueError("alpha must be positive")
        needs_leader = model == "leader"
        needs_vision = model == "vision"
        if needs_leader != (beta is not None and leader is not None):
            raise ValueError("beta and leader index required exactly for the leader model")
        if needs_vision != (gamma is not None and normalization is not None):
            raise ValueError("gamma and normalization required exactly for the vision model")
        if not needs_leader and (beta is not None or leader is not None):
            raise ValueError("beta/leader only valid for the leader model")
        if not needs_vision and (gamma is not None or normalization is not None):
            raise ValueError("gamma/normalization only valid for the vision model")
        if masses is not None:
            if model != "mt":
                raise ValueError("masses only valid for the mt model")
            masses = np.asarray(masses, dtype=float)
            if masses.ndim != 1 or not np.all(np.isfinite(masses) & (masses > 0)):
                raise ValueError("masses must be a 1D array of finite positive values")
        self.model, self.phi, self.alpha = model, phi, alpha
        self.beta, self.leader = beta, leader
        self.gamma, self.normalization = gamma, normalization
        self.masses = masses


def build_matrix(
    ensemble: AgentEnsemble, model: ModelSpec, distances: Optional[np.ndarray] = None
) -> InfluenceMatrix:
    """The influence matrix of the ensemble's geometry, built from its positions'
    N x N distance matrix: ``distances`` when the caller holds it (only read),
    else one :func:`~flocklab.influence.pairwise_distances` pass."""
    if distances is None:
        distances = influence.pairwise_distances(ensemble.positions)
    elif distances.shape != (ensemble.n, ensemble.n):
        raise ValueError("distances must be an N x N matrix for N positions")
    if model.model == "cs":
        return build_cs(distances, model.phi)
    if model.model == "mt":
        if model.masses is not None and len(model.masses) != ensemble.n:
            raise ValueError("masses must be one per agent")
        return build_mt(distances, model.phi, model.masses)
    if model.model == "leader":
        return build_leader(distances, model.phi, model.beta, model.leader)
    x, v = ensemble.positions, ensemble.velocities
    return build_vision(x, v, distances, model.phi, model.gamma, model.normalization)


def rhs(ensemble: AgentEnsemble, model: ModelSpec, matrix: InfluenceMatrix) -> np.ndarray:
    """Accelerations alpha * (a v - v), one row per agent, where a is
    ``matrix``, the ensemble's influence matrix; it builds nothing."""
    a = matrix.entries
    return model.alpha * (a @ ensemble.velocities - ensemble.velocities)


def step(
    ensemble: AgentEnsemble,
    model: ModelSpec,
    dt: float,
    scheme: str = "euler",
    matrix: Optional[InfluenceMatrix] = None,
) -> AgentEnsemble:
    """One step of dx/dt = v, dv/dt = :func:`rhs` of size dt with 'euler' or 'rk4'.

    ``matrix``, when given, is the ensemble's own influence matrix and serves
    the acceleration at the step's starting state (Euler's only one, rk4's
    stage 1).  The step builds every other matrix it reads, each from one
    :func:`~flocklab.influence.pairwise_distances` pass into one N x N buffer
    allocated at its first build, so an Euler step given its matrix allocates
    none.  Euler needs alpha*dt <= 1 (the convex-combination guard for
    relaxation at rate alpha); a non-finite result, or a non-finite state at
    an rk4 stage, raises FloatingPointError.  Mass particles are a ``model``
    with ``masses``.
    """
    if not (dt > 0):
        raise ValueError("dt must be positive")

    def checked(t, x, v, when):
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise FloatingPointError(f"non-finite state {when}")
        return AgentEnsemble(t=t, positions=x, velocities=v)

    x, v, alpha = ensemble.positions, ensemble.velocities, model.alpha
    dist = None

    def accel(state, built=None):
        nonlocal dist
        if built is None:
            dist = influence.pairwise_distances(state.positions, out=dist)
            built = build_matrix(state, model, dist)
        return rhs(state, model, built)

    # an overflow leaves a non-finite state, which checked() raises as
    # FloatingPointError: numpy's warning would only repeat it on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        a0 = accel(ensemble, matrix)
        if scheme == "euler":
            if alpha * dt > 1.0:
                raise StabilityError(f"explicit Euler needs alpha*dt <= 1, got {alpha * dt}")
            x_new, v_new = x + dt * v, v + dt * a0
        elif scheme == "rk4":
            def stage(xs, vs):
                return accel(checked(ensemble.t, xs, vs, "at an rk4 stage"))

            kx2 = v + 0.5 * dt * a0
            kv2 = stage(x + 0.5 * dt * v, kx2)
            kx3 = v + 0.5 * dt * kv2
            kv3 = stage(x + 0.5 * dt * kx2, kx3)
            kx4 = v + dt * kv3
            kv4 = stage(x + dt * kx3, kx4)
            x_new = x + dt / 6.0 * (v + 2.0 * (kx2 + kx3) + kx4)
            v_new = v + dt / 6.0 * (a0 + 2.0 * (kv2 + kv3) + kv4)
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
    return checked(ensemble.t + dt, x_new, v_new, "after time step")


@functools.lru_cache(maxsize=None)
def _extreme_directions(d: int) -> np.ndarray:
    """The d axes and the 2**(d-1) diagonals (1, +-1, ...), one per row
    (in 1D the one diagonal repeats the axis)."""
    diagonals = [(1.0, *signs) for signs in itertools.product((1.0, -1.0), repeat=d - 1)]
    directions = np.vstack((np.eye(d), diagonals))
    directions.flags.writeable = False
    return directions


def _norms(columns: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of a (d, m) array, squares summed in
    axis order: the arithmetic of :func:`~flocklab.influence.pairwise_distances`,
    so the norm of x_i - x_j is its (i, j) entry exactly."""
    squares = columns * columns
    total = squares[0]
    for k in range(1, len(squares)):
        total = total + squares[k]
    return np.sqrt(total)


def diameter(points: np.ndarray) -> float:
    """Largest pairwise Euclidean distance between the rows of points, equal
    to the max of their :func:`~flocklab.influence.pairwise_distances`.

    An extreme-point filter keeps this exact without an N x N pass in the
    usual case.  L, the largest distance between the two points extreme
    along one of the axes or diagonals, is a true pairwise distance, so the
    diameter is at least L.  No pair involving a point whose farthest
    bounding-box corner lies within L is longer than L: per axis that corner
    is at least as far as any point, and rounding is monotone in every
    operation of the distance, so this holds for the computed values with no
    margin.  Only the other points are scanned; points on a circle all
    survive and get the full scan.
    """
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        return 0.0
    columns = np.ascontiguousarray(points.T)
    projections = _extreme_directions(len(columns)) @ columns
    # a difference or square that overflows gives an infinite diameter, which
    # diameters() raises: numpy's warning would only repeat it on stderr
    with np.errstate(over="ignore"):
        ends = columns[:, projections.argmax(axis=1)] - columns[:, projections.argmin(axis=1)]
        lower = float(_norms(ends).max())
        # |x - corner| per axis; both differences are >= 0, as computed too
        low, high = columns.min(axis=1, keepdims=True), columns.max(axis=1, keepdims=True)
        reach = np.maximum(columns - low, high - columns)
        survivors = points[_norms(reach) > lower]
    if len(survivors) < 2:
        return lower
    return max(lower, float(influence.pairwise_distances(survivors).max()))


def diameters(
    ensemble: AgentEnsemble, position_distances: Optional[np.ndarray] = None
) -> Tuple[float, float]:
    """Max pairwise position and velocity distances; ``position_distances``,
    when given, is the positions' distance matrix and d_X is its max.  A
    diameter that overflows raises FloatingPointError: no bound holds for it."""
    if position_distances is None:
        d_x = diameter(ensemble.positions)
    else:
        d_x = float(position_distances.max())
    d_v = diameter(ensemble.velocities)
    if not (math.isfinite(d_x) and math.isfinite(d_v)):
        raise FloatingPointError(
            f"non-finite diameter at t={ensemble.t:g}: d_X {d_x:g}, d_V {d_v:g}"
        )
    return d_x, d_v


def bulk_momentum(ensemble: AgentEnsemble) -> np.ndarray:
    """Mean velocity (1/N) sum_i v_i."""
    return ensemble.velocities.mean(axis=0)


class TrajectoryRecord:
    """Per-step diagnostics of a particle run.

    times, position_diameter, velocity_diameter and momentum all have one
    entry per recorded instant (initial state included).  No state is
    held: states reach a caller through an observer of :func:`simulate`, and
    ``snapshots``, which perfbench's ``snapshots_held`` metric reads, is empty.
    """

    def __init__(
        self, times: np.ndarray, position_diameter: np.ndarray,
        velocity_diameter: np.ndarray, momentum: np.ndarray,
    ):
        k = len(times)
        if not (len(position_diameter) == len(velocity_diameter) == len(momentum) == k):
            raise ValueError("diagnostic series must have equal lengths")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        self.times = times
        self.position_diameter, self.velocity_diameter = position_diameter, velocity_diameter
        self.momentum = momentum
        self.snapshots: List[AgentEnsemble] = []


def step_times(t0: float, dt: float, t_final: float) -> List[float]:
    """Time stamps of steps 1..n: the horizon t_final is rounded to n whole
    steps of size dt (at least one), and step k is stamped t0 + k*dt rather
    than accumulated, so no stamp drifts off the grid."""
    if not (dt > 0):
        raise ValueError("dt must be positive")
    if not (t_final > 0):
        raise ValueError("t_final must be positive")
    n_steps = max(1, int(round(t_final / dt)))
    return [float(t0 + k * dt) for k in range(1, n_steps + 1)]


def march(state, stepper, measure, stamps, observers=(), stop=None) -> list:
    """The one stepping loop, of particles and hydro alike: one ``measure``
    row per recorded state, the first included.  ``stepper(state)`` returns
    ``(built, next state)`` once per stamp, and is called right after
    ``measure`` on the same state, so it may reuse its work; the loop stamps
    the next state with that stamp, replacing the ``t`` the step computed.
    Each observer is called as ``observer(k, state, row, built)`` once per
    recorded state k, ``built`` being what the step from it built (None for
    the last state).  A true ``stop(state)`` on a new state ends the run.
    """
    rows = [measure(state)]
    for k, t in enumerate(stamps):
        built, stepped = stepper(state)
        stepped.t = t
        for observe in observers:
            observe(k, state, rows[-1], built)
        state = stepped
        rows.append(measure(state))
        if stop is not None and stop(state):
            break
    for observe in observers:
        observe(len(rows) - 1, state, rows[-1], None)
    return rows


def simulate(
    initial: AgentEnsemble,
    model: ModelSpec,
    dt: float,
    t_final: float,
    scheme: str = "euler",
    observers: Sequence[Callable] = (),
    stop: Optional[Callable[[AgentEnsemble], bool]] = None,
) -> TrajectoryRecord:
    """Integrate to t_final through :func:`march` on the :func:`step_times`
    grid, recording diameters and momentum at every step.  Each state's
    position distances are computed once, into one N x N buffer allocated up
    front: they give its d_X and the influence matrix of the step from it,
    which serves that step's first acceleration.  Observers and ``stop`` are
    :func:`march`'s; a row is ``(t, d_x, d_v, momentum)`` and ``built`` the
    matrix, a fresh array that an observer may keep.
    """
    # Reused, not reallocated: per-step N x N temporaries that the allocator
    # hands back to the OS and takes again cost a page fault per page.
    dist = np.empty((initial.n, initial.n))

    def measure(state: AgentEnsemble):
        influence.pairwise_distances(state.positions, out=dist)
        return (state.t, *diameters(state, dist), bulk_momentum(state))

    def stepper(state: AgentEnsemble):
        matrix = build_matrix(state, model, dist)
        return matrix, step(state, model, dt, scheme, matrix)

    rows = march(initial, stepper, measure, step_times(initial.t, dt, t_final), observers, stop)
    return TrajectoryRecord(*(np.array(series) for series in zip(*rows)))
