#!/usr/bin/env python3
"""Two density bumps on a collision course, relaxing toward alignment.

Integrates the 1D pressureless system with nonlocal velocity relaxation from
a two-bump profile with opposing velocities, reporting mass conservation and
the decay of the velocity range over the support.
"""

import numpy as np

from flocklab import (
    HydroState1D,
    InfluenceFunction,
    certify,
    hydro_diameters,
    step_eulerian,
    step_times,
)

X_MIN, X_MAX, DX = -12.0, 12.0, 0.05
CENTERS = (-4.0, 4.0)
WIDTH = 0.5
SPEED = 0.5
S_EXPONENT = 0.25
ALPHA = 1.0
T_FINAL = 20.0


def main():
    n = int(round((X_MAX - X_MIN) / DX))
    centers = X_MIN + DX * (np.arange(n) + 0.5)
    rho = sum(np.exp(-((centers - c) ** 2) / (2 * WIDTH**2)) for c in CENTERS)
    u = np.where(centers < 0.0, SPEED, -SPEED)
    state = HydroState1D(x_min=X_MIN, dx=DX, rho=rho, u=u)

    phi = InfluenceFunction.power_law(S_EXPONENT)
    d_x0, d_v0 = hydro_diameters(state)
    cert = certify(d_x0, d_v0, ALPHA, phi)
    mass0 = state.total_mass
    print(f"grid: {n} cells, dx = {DX}")
    print(f"initial: d_X = {d_x0:.2f}, d_V = {d_v0:.2f}, mass = {mass0:.6f}")
    print(f"certificate verdict: {cert.verdict}\n")

    dt = 0.9 * DX / SPEED
    worst_drift = 0.0
    print("    t     d_X      d_V/d_V0    mass drift")
    next_report = 0.0
    for t in step_times(state.t, dt, T_FINAL):
        state = step_eulerian(state, phi, ALPHA, dt)
        worst_drift = max(worst_drift, abs(state.total_mass - mass0) / mass0)
        if t >= next_report:
            d_x, d_v = hydro_diameters(state)
            print(f"  {t:5.2f}  {d_x:7.3f}  {d_v / d_v0:10.3e}  {worst_drift:10.2e}")
            next_report += 2.0

    d_x, d_v = hydro_diameters(state)
    print(f"\nfinal d_V ratio {d_v / d_v0:.3e}; worst cumulative mass drift {worst_drift:.2e}")


if __name__ == "__main__":
    main()
