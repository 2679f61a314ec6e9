"""Influence functions and row-stochastic influence matrices.

An influence function is a non-increasing, non-negative kernel normalized to
1 at distance 0.  Three kinds are supported: the power law (1+r)**-s, the
same law truncated to 0 at a cutoff radius, and a tabulated kernel that is
linearly interpolated between knots and clamped to 0 beyond the last knot.

Four builders turn the agents' N x N distance matrix, which they only read,
into a matrix with non-negative entries and unit row sums: the classic
symmetric average (``build_cs``), the relative-influence normalization that
divides each row by the total influence received (``build_mt``), a leader
matrix whose designated row is the unit row (``build_leader``), and a
vision-cone matrix over each agent's heading-aligned cone (``build_vision``).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

ROW_SUM_TOL = 1e-12

# Speeds below this are treated as "no heading" in the vision model; such
# agents see everyone (see build_vision).
ZERO_SPEED_THRESHOLD = 1e-12

INFLUENCE_KINDS = ("power-law", "power-law-with-cutoff", "tabulated")
# build_vision's row normalizations, after build_cs and build_mt
NORMALIZATIONS = ("cs-style", "mt-style")


class InfluenceFunction:
    """Non-increasing kernel with value 1 at r = 0.

    kind: one of INFLUENCE_KINDS.
    s: exponent of the power law (positive).
    cutoff: radius beyond which the cutoff kind is exactly 0.
    table: (r, value) knots, r strictly increasing from 0, values
        non-increasing from 1; clamped to 0 beyond the last knot.
    """

    def __init__(
        self,
        kind: str,
        s: Optional[float] = None,
        cutoff: Optional[float] = None,
        table: Optional[Tuple[Tuple[float, float], ...]] = None,
    ):
        if kind not in INFLUENCE_KINDS:
            raise ValueError(f"unknown influence kind {kind!r}")
        if kind != "tabulated":
            if s is None or not (s > 0):
                raise ValueError("power-law exponent s must be positive")
            if kind == "power-law-with-cutoff":
                if cutoff is None or not (cutoff > 0):
                    raise ValueError("cutoff radius must be positive")
        else:
            if not table:
                raise ValueError("tabulated kind needs a non-empty table")
            rs = np.array([p[0] for p in table], dtype=float)
            vals = np.array([p[1] for p in table], dtype=float)
            if rs[0] != 0.0 or vals[0] != 1.0:
                raise ValueError("table must start at (0, 1)")
            if np.any(np.diff(rs) <= 0):
                raise ValueError("table radii must be strictly increasing")
            if np.any(np.diff(vals) > 0):
                raise ValueError("table values must be non-increasing")
            if np.any(vals < 0):
                raise ValueError("table values must be non-negative")
        self.kind, self.s, self.cutoff, self.table = kind, s, cutoff, table

    @classmethod
    def power_law(cls, s: float) -> "InfluenceFunction":
        return cls(kind="power-law", s=s)

    @classmethod
    def power_law_with_cutoff(cls, s: float, cutoff: float) -> "InfluenceFunction":
        return cls(kind="power-law-with-cutoff", s=s, cutoff=cutoff)

    @classmethod
    def tabulated(cls, table: Sequence[Tuple[float, float]]) -> "InfluenceFunction":
        return cls(kind="tabulated", table=tuple((float(r), float(v)) for r, v in table))

    def __call__(self, r):
        return eval_influence(self, r)


def eval_influence(phi: InfluenceFunction, r):
    """Evaluate phi at distance(s) r >= 0.  Accepts scalars or arrays."""
    arr = np.asarray(r, dtype=float)
    # one reduction; written so that a NaN distance fails it too
    if not (arr.min(initial=0.0) >= 0.0):
        raise ValueError("influence function evaluated at negative or NaN distance")
    if phi.kind in ("power-law", "power-law-with-cutoff"):
        # in place on the fresh 1 + r: one array, the same values as (1 + r)**-s
        out = 1.0 + arr
        out **= -phi.s
        if phi.kind == "power-law-with-cutoff":
            # zeroed in place through the mask (out *= mask casts it through a
            # ufunc buffer); asarray after the power keeps a scalar's arithmetic
            out = np.asarray(out)
            out[arr >= phi.cutoff] = 0.0
    else:
        rs, vals = np.array(phi.table, dtype=float).T
        out = np.interp(arr, rs, vals, right=0.0)
    return float(out) if arr.ndim == 0 else out


def _power_law_segment(s: float, power: int, a: float, b: float) -> float:
    """Integral of (1+r)**(-power*s) over [a, b], b possibly inf.

    Written via expm1/log1p so exponents within rounding of 1 do not cancel.
    """
    e = power * s
    q = 1.0 - e
    if math.isinf(b):
        if e <= 1.0:
            return math.inf
        return math.exp(q * math.log1p(a)) / (e - 1.0)
    if b <= a:
        return 0.0
    log_ratio = math.log1p(b) - math.log1p(a)
    if q == 0.0:
        return log_ratio
    return math.exp(q * math.log1p(a)) * math.expm1(q * log_ratio) / q


def _tabulated_integral(phi: InfluenceFunction, power: int, a: float, b: float) -> float:
    """Exact integral of phi**power over [a, b] for the piecewise-linear table."""
    rs = [p[0] for p in phi.table]
    vals = [p[1] for p in phi.table]
    b = min(b, rs[-1])
    if b <= a:
        return 0.0
    total = 0.0
    for k in range(len(rs) - 1):
        lo, hi = rs[k], rs[k + 1]
        seg_lo, seg_hi = max(a, lo), min(b, hi)
        if seg_hi <= seg_lo:
            continue
        m = (vals[k + 1] - vals[k]) / (hi - lo)
        y0 = vals[k] + m * (seg_lo - lo)
        y1 = vals[k] + m * (seg_hi - lo)
        w = seg_hi - seg_lo
        if power == 1:
            total += 0.5 * (y0 + y1) * w
        else:
            total += (y0 * y0 + y0 * y1 + y1 * y1) * w / 3.0
    return total


def range_integral(phi: InfluenceFunction, power: int, a: float, b: float) -> float:
    """Integral of phi(r)**power over [a, b]; closed form for every kind."""
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")
    if a < 0:
        raise ValueError("lower limit must be non-negative")
    if phi.kind == "power-law":
        return _power_law_segment(phi.s, power, a, b)
    if phi.kind == "power-law-with-cutoff":
        return _power_law_segment(phi.s, power, min(a, phi.cutoff), min(b, phi.cutoff))
    return _tabulated_integral(phi, power, a, b)


def tail_integral(phi: InfluenceFunction, power: int, a: float = 0.0) -> float:
    """Integral of phi**power from a to infinity; math.inf marks divergence.

    For power laws the tail diverges exactly when power*s <= 1; cutoff and
    tabulated kernels have compact support and always give a finite value.
    """
    return range_integral(phi, power, a, math.inf)


class InfluenceMatrix:
    """Row-stochastic non-negative matrix produced by one of the builders."""

    def __init__(self, entries: np.ndarray, model_tag: str):
        self.entries, self.model_tag = entries, model_tag
        self.__post_init__()

    # a separate method because perfbench times it as the influence.validate span
    def __post_init__(self):
        a = self.entries
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("influence matrix must be square")
        # each check is written to fail on NaN, which compares false
        if not (a.min() >= 0.0):
            raise ValueError("influence matrix entries must be non-negative")
        if not (np.max(np.abs(a.sum(axis=1) - 1.0)) <= ROW_SUM_TOL):
            raise ValueError("influence matrix rows must sum to 1")
        if self.model_tag == "cs":
            # the diagonal of a - a.T cancels exactly: only off-diagonal pairs count
            asym = a - a.T
            if not (np.abs(asym, out=asym).max() <= 1e-15):
                raise ValueError("cs matrices must be symmetric off the diagonal")

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def pairwise_distances(points: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """N x N Euclidean distances between the rows of an (N, d) array.

    One numpy pass: the squared per-axis differences are summed in axis
    order and the square root taken in place, so every entry is the
    correctly rounded sqrt(sum_k (x_ik - x_jk)**2) of the per-pair loop, bit
    for bit, and the matrix is exactly symmetric with a zero diagonal.
    ``out``, when given, is an N x N float array that receives the result,
    so a caller can reuse one buffer across states; each further axis's
    term (d > 1) goes through one temporary of the same size.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("positions must be an (N, d) array")
    if not np.all(np.isfinite(points)):
        raise ValueError("positions must be finite")
    n, d = points.shape
    if out is None:
        out = np.empty((n, n))
    scratch = np.empty((n, n)) if d > 1 else None
    # an overflow gives an infinite distance, whose diameter the caller raises
    with np.errstate(over="ignore"):
        for k, column in enumerate(np.ascontiguousarray(points.T)):
            term = scratch if k else out
            # x_ik - x_jk as a row fill then a row subtraction, which numpy runs
            # faster than the equal np.subtract.outer
            np.copyto(term, column[:, None])
            term -= column
            np.square(term, out=term)
            if k:
                out += term
    return np.sqrt(out, out=out)


def build_cs(distances: np.ndarray, phi: InfluenceFunction) -> InfluenceMatrix:
    """Symmetric all-to-all average: a_ij = phi(|x_i-x_j|)/N off diagonal.

    ``distances``, here and in the other builders, is the positions'
    :func:`pairwise_distances` matrix; it is only read."""
    a = eval_influence(phi, distances)
    a /= len(distances)
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, 1.0 - a.sum(axis=1))
    return InfluenceMatrix(entries=a, model_tag="cs")


def build_mt(
    distances: np.ndarray, phi: InfluenceFunction, masses: Optional[np.ndarray] = None
) -> InfluenceMatrix:
    """Relative-influence normalization: each row divided by the total
    influence received, self term included.  ``masses``, when given, weights
    column j by m_j (mass particles); unit masses give the agents' matrix."""
    w = eval_influence(phi, distances)
    if masses is not None:
        w *= masses
    w /= w.sum(axis=1, keepdims=True)
    return InfluenceMatrix(entries=w, model_tag="mt")


def build_leader(
    distances: np.ndarray, phi: InfluenceFunction, beta: float, leader: int
) -> InfluenceMatrix:
    """Leader matrix: the leader row is the unit row (uninfluenced), every
    other agent gives the leader weight beta*phi and spreads (1-beta)/N over
    the rest."""
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie strictly between 0 and 1")
    n = distances.shape[0]
    if not (0 <= leader < n):
        raise ValueError("leader index out of range")
    a = eval_influence(phi, distances)
    leader_column = beta * a[:, leader]
    a *= (1.0 - beta) / n
    a[:, leader] = leader_column
    np.fill_diagonal(a, 0.0)
    a[leader, :] = 0.0
    np.fill_diagonal(a, 1.0 - a.sum(axis=1))
    return InfluenceMatrix(entries=a, model_tag="leader")


def build_vision(
    positions: np.ndarray,
    velocities: np.ndarray,
    distances: np.ndarray,
    phi: InfluenceFunction,
    gamma: float,
    normalization: str,
) -> InfluenceMatrix:
    """Vision-cone matrix: agent i only weights agents j whose direction from
    i makes cos-angle >= gamma with i's heading v_i/|v_i|.

    Conventions: an agent always sees itself and any coincident agent (zero
    displacement has no direction); an agent slower than ZERO_SPEED_THRESHOLD
    sees everyone; an agent that sees no other agent gets the unit row.  With
    gamma = -1 the cone is full and the matrix reduces to the base builder
    selected by ``normalization`` ("cs-style" or "mt-style").
    """
    if not (-1.0 <= gamma <= 1.0):
        raise ValueError("gamma must lie in [-1, 1]")
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"normalization must be {' or '.join(map(repr, NORMALIZATIONS))}")
    positions = np.asarray(positions, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    n = distances.shape[0]

    disp = positions[None, :, :] - positions[:, None, :]
    speeds = np.linalg.norm(velocities, axis=1)
    sees = np.ones((n, n), dtype=bool)
    moving = speeds >= ZERO_SPEED_THRESHOLD
    if np.any(moving):
        headings = np.zeros_like(velocities)
        headings[moving] = velocities[moving] / speeds[moving, None]
        proj = np.einsum("id,ijd->ij", headings, disp)
        with np.errstate(invalid="ignore", divide="ignore"):
            cosang = np.where(distances > 0.0, proj / distances, 1.0)
        # each agent sees itself and any coincident agent: a zero distance
        # has no direction, its cosang is 1.0, and gamma <= 1
        sees[moving] = cosang[moving] >= gamma

    w = eval_influence(phi, distances) * sees
    if normalization == "cs-style":
        a = w / sees.sum(axis=1, keepdims=True)
    else:
        a = w / w.sum(axis=1, keepdims=True)
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, 1.0 - a.sum(axis=1))
    return InfluenceMatrix(entries=a, model_tag="vision")
