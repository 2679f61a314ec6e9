"""Active sets, the antisymmetric maximal-action bound, and the per-step
contraction check for simulated trajectories.

The active set of agent p at level theta collects the agents whose influence
on p is at least theta; intersecting over agents (or over a pair) gives the
global (or pairwise) sets whose counts drive the guaranteed velocity-diameter
contraction rate alpha * count**2 * theta**2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Tuple

import numpy as np

from .dynamics import AgentEnsemble, ModelSpec, TrajectoryRecord, build_matrix
from .influence import InfluenceMatrix

ANTISYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class ActiveSetReport:
    """Per-agent, pairwise-minimum and global active sets at one level.

    hits[p, j] says whether agent j is active for agent p (a_pj >= theta).
    """

    theta: float
    hits: np.ndarray
    pairwise_min: int
    global_indices: np.ndarray

    @property
    def global_count(self) -> int:
        return int(self.global_indices.size)

    @cached_property
    def per_agent(self) -> List[np.ndarray]:
        return [np.flatnonzero(row) for row in self.hits]


def active_sets(matrix: InfluenceMatrix, theta: float) -> ActiveSetReport:
    """Sets {j : a_pj >= theta} per agent, their pairwise-intersection
    minimum count, and the all-agent intersection.

    The counts obey global <= pairwise minimum <= smallest row count <= N
    (the diagonal pairs are the rows themselves), so when two ends agree no
    pair product is formed; the default levels of cs and mt, which activate
    every agent, always land there.  Otherwise the pair counts come from a
    float64 product of the 0/1 hit matrix, exact for counts below 2**53.
    """
    if not (theta > 0):
        raise ValueError("theta must be positive")
    hits = matrix.entries >= theta
    n = hits.shape[0]
    global_indices = np.flatnonzero(hits.all(axis=0))
    if global_indices.size == n:
        pairwise_min = n
    else:
        pairwise_min = int(np.count_nonzero(hits, axis=1).min())
    if pairwise_min > global_indices.size:
        h = hits.astype(np.float64)
        pairwise_min = int((h @ h.T).min())
    return ActiveSetReport(
        theta=theta, hits=hits, pairwise_min=pairwise_min, global_indices=global_indices
    )


class ActionBound(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def lemma_action_bound(
    S: np.ndarray, u: np.ndarray, w: np.ndarray, theta: float
) -> ActionBound:
    """Check |<Su, w>| <= max|S_ij| * U * W * (1 - count**2 theta**2), where
    count is the number of entries active at level theta in both u and w
    (u_j >= theta*U and w_j >= theta*W, with U, W the vector sums)."""
    S = np.asarray(S, dtype=float)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if not (theta > 0):
        raise ValueError("theta must be positive")
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be square")
    if np.max(np.abs(S + S.T)) > ANTISYMMETRY_TOL:
        raise ValueError("S must be antisymmetric within 1e-12")
    if np.any(u < 0) or np.any(w < 0):
        raise ValueError("u and w must be entrywise non-negative")

    u_total = float(u.sum())
    w_total = float(w.sum())
    lhs = float(abs(u @ S @ w))
    count = int(np.count_nonzero((u >= theta * u_total) & (w >= theta * w_total)))
    m = float(np.max(np.abs(S))) if S.size else 0.0
    rhs = m * u_total * w_total * (1.0 - count**2 * theta**2)
    return ActionBound(lhs=lhs, rhs=rhs, holds=lhs <= rhs + 1e-12)


# Relative shave applied to the analytic default levels.  The levels are
# exact lower bounds of the matrix entries, but numpy evaluates the kernel
# through different code paths for scalars and matrices, which can disagree
# in the last ulp; without the shave, the bound-realizing entry can fall one
# ulp below its own level and drop out of the active set.
LEVEL_SAFETY = 1.0 - 1e-12

# dt**2 coefficient of the per-step decay bound's slack
DECAY_SLACK = 10.0


def default_theta(model: ModelSpec, n: int, d_x: float) -> float:
    """Level used in the flocking arguments at position diameter d_x:
    phi(d_X)/N for the cs and mt builders (every agent active),
    beta*phi(d_X) for the leader builder (the leader active in every row).
    The vision model has no such level."""
    if model.model in ("cs", "mt"):
        return LEVEL_SAFETY * model.phi(d_x) / n
    if model.model == "leader":
        return LEVEL_SAFETY * model.beta * model.phi(d_x)
    raise ValueError("no default theta level for the vision model")


@dataclass
class DecayReport:
    """Outcome of the per-step velocity-diameter contraction check."""

    times: np.ndarray
    theta: np.ndarray
    count_global: np.ndarray
    count_pairwise_min: np.ndarray
    margin_global: np.ndarray
    margin_pairwise: np.ndarray
    worst_margin: float
    worst_step: int
    passed: bool


class DecayObserver:
    """Per-step velocity-diameter contraction check, fed online.

    Pass it to ``simulate(..., observers=[check])``: before each step it is
    called with the state the step starts from, that state's position
    diameter and its influence matrix, and records the default level theta
    and both active-set counts there.  ``report(record)`` then holds every
    step to

        d_V(k+1) <= d_V(k) * (1 - alpha * count**2 * theta**2 * dt) + DECAY_SLACK * dt**2,

    where the slack covers time-discretization curvature, for the global
    count and for the sharper pairwise minimum.  A zero level (a compactly
    supported kernel shorter than d_X) guarantees no contraction: both counts
    are 0 and the bound is the maximum principle
    d_V(k+1) <= d_V(k) + DECAY_SLACK * dt**2.
    """

    def __init__(self, model: ModelSpec, n: int):
        self.model = model
        self.n = n
        self.theta: List[float] = []
        self.counts: List[Tuple[int, int]] = []  # global, pairwise minimum

    def __call__(self, state: AgentEnsemble, d_x: float, matrix: InfluenceMatrix) -> None:
        theta = default_theta(self.model, self.n, d_x)
        counts = (0, 0)
        if theta > 0.0:
            found = active_sets(matrix, theta)
            counts = (found.global_count, found.pairwise_min)
        self.theta.append(theta)
        self.counts.append(counts)

    def report(self, trajectory: TrajectoryRecord) -> DecayReport:
        """Margins of every observed step against the record's diameters."""
        n_steps = len(self.theta)
        if n_steps < 1:
            raise ValueError("trajectory must contain at least one step")
        if len(trajectory.times) != n_steps + 1:
            raise ValueError("the record must hold one instant more than the observed steps")
        times = trajectory.times
        theta = np.array(self.theta)
        counts = np.array(self.counts, dtype=int).T
        dt = np.diff(times)
        d_v = trajectory.velocity_diameter
        m_glob, m_pair = (
            d_v[:-1] * (1.0 - self.model.alpha * counts**2 * theta**2 * dt)
            + DECAY_SLACK * dt * dt
            - d_v[1:]
        )
        worst = np.minimum(m_glob, m_pair)
        worst_step = int(np.argmin(worst))
        return DecayReport(
            times=times[:-1].copy(),
            theta=theta,
            count_global=counts[0],
            count_pairwise_min=counts[1],
            margin_global=m_glob,
            margin_pairwise=m_pair,
            worst_margin=float(worst[worst_step]),
            worst_step=worst_step,
            passed=bool(worst[worst_step] >= 0.0),
        )


def verify_diameter_decay(trajectory: TrajectoryRecord, model: ModelSpec) -> DecayReport:
    """The :class:`DecayObserver` check of a finished run whose record holds
    a snapshot at every step: each snapshot's matrix is built and fed to the
    observer, as ``simulate(..., observers=...)`` would have."""
    snaps = trajectory.snapshots
    if trajectory.snapshot_stride != 1 or len(snaps) != len(trajectory.times):
        raise ValueError("trajectory must carry snapshots at every step")
    check = DecayObserver(model, snaps[0].n)
    for state, d_x in zip(snaps[:-1], trajectory.position_diameter):
        check(state, float(d_x), build_matrix(state, model))
    return check.report(trajectory)
