"""Reference results for the benchmark workloads, computed without flocklab.

Each function restates the paper's scheme with numpy and scipy primitives
only, so a later change to flocklab is checked against something it cannot
have changed.  The arithmetic follows the obvious order of operations; the
checks in ``workloads.py`` compare with tolerances, not bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# The default decay-check level is phi(d_X)/N, at which every agent is
# active.  It is shaved by 1e-12 relative so that the entry realizing the
# bound cannot fall one ulp below its own level and drop out.
LEVEL_SAFETY = 1.0 - 1e-12
DECAY_SLACK = 10.0
VACUUM_RELATIVE = 1e-14


def splitmix_uniform(seed: int, count: int, skip: int = 0) -> np.ndarray:
    """Draws skip+1 .. skip+count of the splitmix64 stream as doubles in [0, 1)."""
    k = np.arange(skip + 1, skip + count + 1, dtype=np.uint64)
    z = np.uint64(seed % 2**64) + k * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def random_ensemble(seed, n, dim, pos=(0.0, 10.0), vel=(-1.0, 1.0)):
    """Positions then velocities, agent by agent, axis by axis."""
    u = splitmix_uniform(seed, 2 * n * dim)
    x = pos[0] + (pos[1] - pos[0]) * u[: n * dim].reshape(n, dim)
    v = vel[0] + (vel[1] - vel[0]) * u[n * dim :].reshape(n, dim)
    return x, v


def kernel(r, s, cutoff=None):
    """phi(r) = (1+r)**-s, truncated to 0 at the cutoff radius if given."""
    if cutoff is None:
        return (1.0 + r) ** (-s)
    out = np.zeros_like(r)
    inside = r < cutoff
    out[inside] = (1.0 + r[inside]) ** (-s)
    return out


def diameter(points) -> float:
    return float(np.max(cdist(points, points)))


def mt_matrix(x, s, cutoff=None):
    w = kernel(cdist(x, x), s, cutoff)
    return w / w.sum(axis=1, keepdims=True)


def vision_matrix(x, v, s, gamma):
    """Cone-restricted weights with mt-style rows: j is seen by i when the
    direction from i to j is within arccos(gamma) of i's heading; every
    agent sees itself and coincident agents."""
    dist = cdist(x, x)
    disp = x[None, :, :] - x[:, None, :]
    speed = np.linalg.norm(v, axis=1)
    heading = v / speed[:, None]
    proj = np.einsum("id,ijd->ij", heading, disp)
    with np.errstate(invalid="ignore", divide="ignore"):
        sees = np.where(dist > 0.0, proj / dist, 1.0) >= gamma
    w = kernel(dist, s) * sees
    a = w / w.sum(axis=1, keepdims=True)
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, 1.0 - a.sum(axis=1))
    return a


def fitted_rate(times, values) -> float:
    """Negated least-squares slope of log(values) over the trailing half."""
    half = len(values) // 2
    return float(-np.polyfit(times[half:], np.log(values[half:]), 1)[0])


def cutoff_verdict(d_x0, d_v0, alpha, s, cutoff) -> str:
    """Tail test with psi = phi**2 for the cutoff power law: the tail mass
    alpha * int_{d_x0}^{cutoff} (1+r)**(-2s) dr is always finite."""
    a, e = min(d_x0, cutoff), 2.0 * s
    if e == 1.0:
        mass = math.log1p(cutoff) - math.log1p(a)
    else:
        mass = ((1.0 + a) ** (1.0 - e) - (1.0 + cutoff) ** (1.0 - e)) / (e - 1.0)
    return "conditional-satisfied" if d_v0 <= alpha * mass else "not-guaranteed"


def mt_euler_run(x, v, s, alpha, dt, steps, cutoff=None, decay_check=False):
    """Explicit Euler for the relative-influence model.

    Returns the diameter series and, with decay_check, the worst margin of
    the per-step contraction bound d_V(t+dt) <= d_V(t)(1 - alpha c^2
    theta^2 dt) + 10 dt^2 over the global and pairwise-minimum counts c at
    level theta = phi(d_X)/N.
    """
    n = x.shape[0]
    d_x, d_v = [diameter(x)], [diameter(v)]
    worst = math.inf
    for _ in range(steps):
        a = mt_matrix(x, s, cutoff)
        if decay_check:
            theta = LEVEL_SAFETY * (1.0 + d_x[-1]) ** (-s) / n
            hits = (a >= theta).astype(np.float64)
            counts = (hits.all(axis=0).sum(), (hits @ hits.T).min())
        x, v = x + dt * v, v + dt * (alpha * (a @ v - v))
        d_x.append(diameter(x))
        d_v.append(diameter(v))
        if decay_check:
            slack = DECAY_SLACK * dt * dt
            for c in counts:
                bound = d_v[-2] * (1.0 - alpha * c * c * theta * theta * dt) + slack
                worst = min(worst, bound - d_v[-1])
    return np.array(d_x), np.array(d_v), worst


def vision_rk4_run(x, v, s, gamma, alpha, dt, steps):
    """Classical rk4 with the cone matrix rebuilt at every stage; returns
    the final positions and velocities."""

    def accel(xs, vs):
        return alpha * (vision_matrix(xs, vs, s, gamma) @ vs - vs)

    for _ in range(steps):
        kx1, kv1 = v, accel(x, v)
        kx2 = v + 0.5 * dt * kv1
        kv2 = accel(x + 0.5 * dt * kx1, kx2)
        kx3 = v + 0.5 * dt * kv2
        kv3 = accel(x + 0.5 * dt * kx2, kx3)
        kx4 = v + dt * kv3
        kv4 = accel(x + dt * kx3, kx4)
        x = x + dt / 6.0 * (kx1 + 2.0 * (kx2 + kx3) + kx4)
        v = v + dt / 6.0 * (kv1 + 2.0 * (kv2 + kv3) + kv4)
    return x, v


def hydro_run(x_min, x_max, dx, centers, width, speeds, s, alpha, dt, steps, epsilon):
    """Donor-cell density transport, upwind velocity advection and
    relaxation toward the density-weighted kernel average on a fixed grid,
    with a vacuum exterior.  Returns final mass, support diameters and the
    largest relative mass change over one step."""
    n = int(round((x_max - x_min) / dx))
    xc = x_min + dx * (np.arange(n) + 0.5)
    rho = sum(np.exp(-((xc - c) ** 2) / (2.0 * width**2)) for c in centers)
    u = np.where(xc < 0.5 * (centers[0] + centers[-1]), speeds[0], speeds[-1])
    k = kernel(np.abs(xc[:, None] - xc[None, :]), s)
    drift = 0.0
    for _ in range(steps):
        mass = rho.sum() * dx
        vac = rho < VACUUM_RELATIVE * rho.max()
        u_eff = np.where(vac, 0.0, u)
        flux = np.zeros(n + 1)
        flux[1:-1] = rho[:-1] * np.maximum(u_eff[:-1], 0.0) + rho[1:] * np.minimum(u_eff[1:], 0.0)
        flux[0] = rho[0] * min(u_eff[0], 0.0)
        flux[n] = rho[-1] * max(u_eff[-1], 0.0)
        grad = (u[1:] - u[:-1]) / dx
        grad_minus = np.concatenate(([0.0], np.where(vac[:-1], 0.0, grad)))
        grad_plus = np.concatenate((np.where(vac[1:], 0.0, grad), [0.0]))
        dudx = np.where(u > 0.0, grad_minus, np.where(u < 0.0, grad_plus, 0.0))
        rho_eff = np.where(vac, 0.0, rho)
        num = k @ (rho_eff * u) * dx
        den = k @ rho_eff * dx
        u_bar = u.copy()
        np.divide(num, den, out=u_bar, where=den > 0.0)
        u_new = u - dt * u * dudx + dt * alpha * (u_bar - u)
        u_new[vac] = u[vac]
        rho = rho - dt / dx * (flux[1:] - flux[:-1])
        u = u_new
        drift = max(drift, abs(rho.sum() * dx - mass) / mass)
    support = rho >= epsilon * rho.max()
    return {
        "mass": float(rho.sum() * dx),
        "d_x": float(np.ptp(xc[support])),
        "d_v": float(np.ptp(u[support])),
        "max_step_mass_drift": drift,
    }
