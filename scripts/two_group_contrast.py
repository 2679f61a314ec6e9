#!/usr/bin/env python3
"""Small group next to a huge remote crowd: agent-count normalization stalls.

A group of 5 agents sits 40 length units away from a crowd of 100, far beyond
the kernel cutoff, so the two never interact.  Under the all-agent average
the small group's alignment is diluted by the crowd's headcount and its
internal velocity spread barely moves; under relative-influence weighting the
crowd drops out of the normalization and the group aligns at full speed.
"""

import numpy as np

from flocklab import AgentEnsemble, InfluenceFunction, ModelSpec, SplitMix64, diameter, step

SEED = 9
N1, N2 = 5, 100
SEPARATION = 40.0
CUTOFF = 5.0
DT = 0.05
HORIZON = 60.0


def main():
    rng = SplitMix64(SEED)
    x1 = rng.uniform_array((N1, 2), 0.0, 0.5)
    x2 = rng.uniform_array((N2, 2), 0.0, 0.5)
    x2[:, 0] += SEPARATION
    v = rng.uniform_array((N1 + N2, 2), -0.25, 0.25)
    initial = AgentEnsemble(t=0.0, positions=np.vstack([x1, x2]), velocities=v)

    phi = InfluenceFunction.power_law_with_cutoff(4.0, CUTOFF)
    dv0 = diameter(initial.velocities[:N1])
    print(f"group-1 initial velocity spread: {dv0:.4f}\n")

    halvings = {}
    for kind in ("mt", "cs"):
        model = ModelSpec(model=kind, phi=phi, alpha=1.0)
        state = initial
        halving = None
        while state.t < HORIZON:
            state = step(state, model, DT, scheme="euler")
            if diameter(state.velocities[:N1]) <= 0.5 * dv0:
                halving = state.t
                break
        final = diameter(state.velocities[:N1]) / dv0
        halvings[kind] = halving
        label = f"halved at t = {halving:.2f}" if halving else f"never halved by t = {HORIZON:g}"
        print(f"{kind:>3}: {label}   (spread ratio now {final:.3f})")

    t_mt = halvings["mt"]
    if t_mt and halvings["cs"] is None:
        print(f"\nhalving-time ratio cs/mt >= {HORIZON / t_mt:.1f}")
    elif t_mt:
        print(f"\nhalving-time ratio cs/mt = {halvings['cs'] / t_mt:.1f}")


if __name__ == "__main__":
    main()
