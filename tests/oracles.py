"""Reference computations the tests hold the package to; nothing here is
package code."""

import numpy as np

from flocklab.dynamics import AgentEnsemble, ModelSpec, build_matrix, rhs
from flocklab.influence import InfluenceFunction, pairwise_distances


def kinetic_consistency_check(
    ensemble: AgentEnsemble, phi: InfluenceFunction, alpha: float
) -> float:
    """Max deviation between the mean-field vector field evaluated on the
    empirical measure and the relative-influence right-hand side.

    The two are the same sum written down differently (empirical weights 1/N
    against matrix rows), so the result must sit at rounding level.
    """
    x, v, n = ensemble.positions, ensemble.velocities, ensemble.n
    w = phi(pairwise_distances(x))
    # empirical-measure route, 1/N weights kept explicit
    num = alpha * ((w / n)[:, :, None] * (v[None, :, :] - v[:, None, :])).sum(axis=1)
    den = (w / n).sum(axis=1)
    field_route = num / den[:, None]

    model = ModelSpec(model="mt", phi=phi, alpha=alpha)
    matrix_route = rhs(ensemble, model, build_matrix(ensemble, model))
    return float(np.max(np.linalg.norm(field_route - matrix_route, axis=1)))
