"""Active sets, the antisymmetric maximal-action bound, and the per-step
contraction check for simulated trajectories.

The active set of agent p at level theta collects the agents whose influence
on p is at least theta; intersecting over agents (or over a pair) gives the
global (or pairwise) sets whose counts drive the guaranteed velocity-diameter
contraction rate alpha * count**2 * theta**2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple

import numpy as np

from .dynamics import ModelSpec, TrajectoryRecord, build_matrix
from .influence import InfluenceMatrix

ANTISYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class ActiveSetReport:
    """Per-agent, pairwise-minimum and global active sets at one level."""

    theta: float
    per_agent: List[np.ndarray]
    pairwise_min: int
    global_indices: np.ndarray

    @property
    def global_count(self) -> int:
        return int(self.global_indices.size)


def active_sets(matrix: InfluenceMatrix, theta: float) -> ActiveSetReport:
    """Sets {j : a_pj >= theta} per agent, their pairwise-intersection
    minimum count, and the all-agent intersection."""
    if not (theta > 0):
        raise ValueError("theta must be positive")
    hits = matrix.entries >= theta
    per_agent = [np.flatnonzero(row) for row in hits]
    pair_counts = hits.astype(np.int64) @ hits.astype(np.int64).T
    return ActiveSetReport(
        theta=theta,
        per_agent=per_agent,
        pairwise_min=int(pair_counts.min()),
        global_indices=np.flatnonzero(hits.all(axis=0)),
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


# Relative shave applied to the analytic level schedules.  The schedules are
# exact lower bounds of the matrix entries, but numpy evaluates the kernel
# through different code paths for scalars and matrices, which can disagree
# in the last ulp; without the shave, the bound-realizing entry can fall one
# ulp below its own level and drop out of the active set.
LEVEL_SAFETY = 1.0 - 1e-12

# dt**2 coefficient of the per-step decay bound's slack
DECAY_SLACK = 10.0


def default_theta_schedule(model: ModelSpec, n: int) -> Callable[[float, float], float]:
    """Level schedule used in the flocking arguments: phi(d_X)/N for the cs
    and mt builders (every agent active), beta*phi(d_X) for the leader
    builder (the leader active in every row).  The vision model has no such
    schedule."""
    if model.model in ("cs", "mt"):
        return lambda t, d_x: LEVEL_SAFETY * model.phi(d_x) / n
    if model.model == "leader":
        return lambda t, d_x: LEVEL_SAFETY * model.beta * model.phi(d_x)
    raise ValueError("no default theta schedule for the vision model")


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


def verify_diameter_decay(trajectory: TrajectoryRecord, model: ModelSpec) -> DecayReport:
    """Check, at every recorded step, that the velocity diameter contracted at
    least as fast as 1 - alpha * count**2 * theta**2 * dt at the default
    level theta, with slack DECAY_SLACK * dt**2 covering time-discretization
    curvature.

    Both the global-count and the sharper pairwise-minimum variants are
    evaluated; matrices are rebuilt from the stride-1 snapshots.  A zero level
    (a compactly supported kernel shorter than d_X) guarantees no contraction:
    both counts are 0 and the bound is the maximum principle
    d_V(t + dt) <= d_V(t) + DECAY_SLACK * dt**2.
    """
    snaps = trajectory.snapshots
    if trajectory.snapshot_stride != 1 or len(snaps) != len(trajectory.times):
        raise ValueError("trajectory must carry snapshots at every step")
    n_steps = len(trajectory.times) - 1
    if n_steps < 1:
        raise ValueError("trajectory must contain at least one step")

    schedule = default_theta_schedule(model, snaps[0].n)
    times = trajectory.times
    d_x = trajectory.position_diameter
    theta = np.array([schedule(float(times[k]), float(d_x[k])) for k in range(n_steps)])
    counts = np.zeros((2, n_steps), dtype=int)  # global, pairwise minimum
    for k in np.flatnonzero(theta > 0.0):
        report = active_sets(build_matrix(snaps[k], model), theta[k])
        counts[:, k] = report.global_count, report.pairwise_min

    dt = np.diff(times)
    d_v = trajectory.velocity_diameter
    m_glob, m_pair = (
        d_v[:-1] * (1.0 - model.alpha * counts**2 * theta**2 * dt) + DECAY_SLACK * dt * dt - d_v[1:]
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
