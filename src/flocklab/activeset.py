"""Active sets, the antisymmetric maximal-action bound, and the per-step
contraction check for simulated trajectories.

The active set of agent p at level theta collects the agents whose influence
on p is at least theta; intersecting over agents (or over a pair) gives the
global (or pairwise) sets whose counts drive the guaranteed velocity-diameter
contraction rate alpha * count**2 * theta**2.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .dynamics import ModelSpec, TrajectoryRecord
from .influence import InfluenceMatrix

ANTISYMMETRY_TOL = 1e-12


class ActiveSetReport:
    """Per-agent, pairwise-minimum and global active sets at one level.

    hits[p, j] says whether agent j is active for agent p (a_pj >= theta).
    """

    def __init__(
        self, theta: float, hits: np.ndarray, pairwise_min: int, global_indices: np.ndarray
    ):
        self.theta, self.hits = theta, hits
        self.pairwise_min, self.global_indices = pairwise_min, global_indices

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


class DecayReport(NamedTuple):
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

    Pass it to ``simulate(..., observers=[check])``: as a
    :func:`~flocklab.dynamics.march` observer it records, at each state a step
    starts from, the default level theta at d_X = ``row[1]`` (N read from the
    step's matrix) and both active-set counts there.  ``report(record)`` then
    holds every step to

        d_V(k+1) <= d_V(k) * (1 - alpha * count**2 * theta**2 * dt) + DECAY_SLACK * dt**2,

    where the slack covers time-discretization curvature, for the global
    count and for the sharper pairwise minimum, whose margin is never the
    larger (the margin never rises with the count) and alone decides the
    verdict.  A zero level (a compactly supported kernel shorter than d_X)
    guarantees no contraction: both counts are 0 and the bound is the
    maximum principle d_V(k+1) <= d_V(k) + DECAY_SLACK * dt**2.
    """

    def __init__(self, model: ModelSpec):
        self.model = model
        self.theta: List[float] = []
        self.counts: List[Tuple[int, int]] = []  # global, pairwise minimum

    def __call__(self, k: int, state, row: tuple, matrix: Optional[InfluenceMatrix]) -> None:
        if matrix is None:
            return
        theta = default_theta(self.model, matrix.n, row[1])
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
        worst_step = int(np.argmin(m_pair))
        return DecayReport(
            times=times[:-1].copy(),
            theta=theta,
            count_global=counts[0],
            count_pairwise_min=counts[1],
            margin_global=m_glob,
            margin_pairwise=m_pair,
            worst_margin=float(m_pair[worst_step]),
            worst_step=worst_step,
            passed=bool(m_pair[worst_step] >= 0.0),
        )
