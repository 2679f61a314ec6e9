"""Pressureless hydrodynamics with nonlocal velocity relaxation.

The 1D Eulerian solver advances cell densities with a conservative
donor-cell upwind flux and cell velocities with non-conservative upwind
advection plus relaxation toward the density-weighted nonlocal average.  The
exterior is vacuum, so mass only changes if the support actually reaches the
boundary.  The Lagrangian form, mass particles along characteristics in 1, 2
or 3 dimensions, is :func:`flocklab.dynamics.step` on an mt
:class:`~flocklab.dynamics.ModelSpec` with ``masses``: the matrix columns
are weighted by mass, so with unit masses it is that particle model bit for
bit.

:func:`nonlocal_average` averages the occupied span only, the cells the
Eulerian step relaxes; vacuum cells are never relaxed.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .errors import StabilityError
from .influence import InfluenceFunction, eval_influence

CFL_LIMIT = 0.9
# Cells this far below the density peak are vacuum: excluded from the
# nonlocal average and frozen by the velocity update.
VACUUM_RELATIVE_THRESHOLD = 1e-14
DEFAULT_SUPPORT_EPSILON = 1e-6


class HydroState1D:
    """Cell-centered density and velocity on a uniform 1D grid."""

    def __init__(self, x_min: float, dx: float, rho: np.ndarray, u: np.ndarray, t: float = 0.0):
        rho = np.asarray(rho, dtype=float)
        u = np.asarray(u, dtype=float)
        self.x_min, self.dx, self.rho, self.u, self.t = x_min, dx, rho, u, t
        if not (dx > 0):
            raise ValueError("dx must be positive")
        if rho.ndim != 1 or rho.shape != u.shape or rho.size < 1:
            raise ValueError("rho and u must be equal-length 1D arrays")
        if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(u))):
            raise ValueError("fields must be finite")
        if np.any(rho < 0):
            raise ValueError("density must be non-negative")

    @property
    def n_cells(self) -> int:
        return self.rho.size

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + self.dx * (np.arange(self.n_cells) + 0.5)

    @property
    def total_mass(self) -> float:
        return float(self.rho.sum() * self.dx)

    def vacuum_mask(self) -> np.ndarray:
        return self.rho < VACUUM_RELATIVE_THRESHOLD * self.rho.max()


def nonlocal_average(state: HydroState1D, phi: InfluenceFunction) -> np.ndarray:
    """Density-weighted kernel average of u over the occupied span lo..hi,
    the first to the last non-vacuum cell; every other cell keeps its u.

    Vacuum cells are excluded from numerator and denominator; a cell whose
    kernel reach contains no mass (possible for cutoff kernels) keeps its own
    velocity, i.e. feels no relaxation.

    On the uniform grid the kernel between cells i and j is phi(|i - j| dx),
    so over the m span cells both sums are one direct convolution with the
    symmetric phi(k dx), k = -(m-1)..m-1: m^2 work, O(m) memory, one path for
    every kernel kind.  A direct sum of non-negative terms is exactly zero
    only when no mass is in reach, so the den > 0 test stays exact for
    compact kernels (an FFT's round-off would break it).
    """
    vacuum = state.vacuum_mask()
    rho_eff = np.where(vacuum, 0.0, state.rho)
    if not rho_eff.any():
        raise ValueError("nonlocal average undefined for all-zero density")
    occupied = np.flatnonzero(~vacuum)
    lo, hi = occupied[0], occupied[-1] + 1
    g = eval_influence(phi, state.dx * np.arange(hi - lo))
    g = np.concatenate((g[:0:-1], g))
    w = rho_eff[lo:hi]
    num = np.convolve(g, w * state.u[lo:hi], mode="valid")
    den = np.convolve(g, w, mode="valid")
    out = state.u.copy()
    np.divide(num, den, out=out[lo:hi], where=den > 0.0)
    return out


def step_eulerian(
    state: HydroState1D,
    phi: InfluenceFunction,
    alpha: float,
    dt: float,
) -> HydroState1D:
    """One forward step: donor-cell mass flux, upwind velocity advection,
    relaxation toward the nonlocal average.  Vacuum cells keep their velocity.

    The boundary is outflow against a vacuum exterior (nothing comes in,
    outgoing mass leaves and is lost); grids should be sized so the support
    never reaches the edge.
    """
    if not (dt > 0):
        raise ValueError("dt must be positive")
    rho, u, dx = state.rho, state.u, state.dx
    vacuum = state.vacuum_mask()
    # one ghost cell per side, vacuum like the exterior it stands for; vacuum
    # cells are inert: their (frozen) velocities move no mass, and only the
    # support constrains the step
    vacuum_g = np.concatenate(([True], vacuum, [True]))
    rho_g = np.concatenate(([0.0], rho, [0.0]))
    u_g = np.where(vacuum_g, 0.0, np.concatenate(([0.0], u, [0.0])))
    cfl = dt * float(np.max(np.abs(u_g))) / dx
    if cfl > CFL_LIMIT + 1e-12:
        raise StabilityError(f"CFL violated: dt*max|u|/dx = {cfl:.6g} > {CFL_LIMIT}")
    # the velocity update (1 - c - a) u_i + c u_upwind + a u_bar, with c the
    # local Courant number and a = alpha*dt, is a convex combination (no new
    # extremes) only while c + a <= 1
    if cfl + alpha * dt > 1.0:
        raise StabilityError(
            f"upwind relaxation needs dt*max|u|/dx + alpha*dt <= 1, got {cfl + alpha * dt:.6g}"
        )

    # flux[k] is the mass flux through the interface left of cell k
    flux = rho_g[:-1] * np.maximum(u_g[:-1], 0.0) + rho_g[1:] * np.minimum(u_g[1:], 0.0)
    rho_new = rho - dt / dx * (flux[1:] - flux[:-1])

    # velocity: upwind gradient; a vacuum upwind neighbor contributes no
    # gradient (nothing advects in)
    jump = np.diff(u_g) / dx
    grad_minus = np.where(vacuum_g[:-2], 0.0, jump[:-1])
    grad_plus = np.where(vacuum_g[2:], 0.0, jump[1:])
    dudx = np.where(u > 0.0, grad_minus, np.where(u < 0.0, grad_plus, 0.0))
    u_bar = nonlocal_average(state, phi)
    u_new = u - dt * u * dudx + dt * alpha * (u_bar - u)
    u_new[vacuum] = u[vacuum]

    return HydroState1D(x_min=state.x_min, dx=dx, rho=rho_new, u=u_new, t=state.t + dt)


def hydro_diameters(
    state: HydroState1D, epsilon: float = DEFAULT_SUPPORT_EPSILON
) -> Tuple[float, float]:
    """Support diameters: cells with rho >= epsilon * max(rho) count as
    occupied; d_X spans their centers, d_V the velocity range over them."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    peak = state.rho.max()
    if peak <= 0.0:
        raise ValueError("empty support: all-zero density")
    support = state.rho >= epsilon * peak
    centers = state.centers[support]
    u = state.u[support]
    return float(centers.max() - centers.min()), float(u.max() - u.min())

