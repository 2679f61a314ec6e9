"""The paper's claims as exact relations between two runs.

The mt model "does not involve any explicit dependence on the number of
agents; only their geometry in phase space is taken into account".  The
code holds that, and two more of the paper's facts, as identities that are
exact in real arithmetic:

- crowd-free groups: a crowd beyond a cut-off kernel's reach leaves an mt
  group's run as it is alone, and only rescales cs's coupling to
  ``alpha * N1 / N``;
- Galilean invariance: adding one velocity c to every agent adds c to every
  later velocity, for every model with a row-stochastic matrix (cs, mt,
  leader); vision's cone reads headings, so it breaks the relation by design;
- mass splitting: an mt mass particle split into two half-mass copies at the
  same state changes no trajectory.

In floating point two related runs differ by round-off alone.  An Euler
step's new velocity is a convex combination of the N old ones: the
row normalization and the mat-vec each round within gamma_N = N u / (1 - N u)
of max|v| (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
section 3.1), and a row-stochastic step does not amplify an earlier error, so
K steps stay within ``2 K gamma_N max|v|`` (:func:`tolerance`).  Misses
measured on such runs were at most 2.4e-15 of max|v|, and at most 0.12 of
the tolerance.  A step that applies the transpose of the matrix, which every
runtime check passes, breaks mt's Galilean relation by 0.64 and mass
splitting by 2.5e-2 on a 40-agent, 80-step run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flocklab.dynamics import AgentEnsemble, ModelSpec, step
from flocklab.influence import InfluenceFunction
from flocklab.rng import SplitMix64

U = 2.0**-53
DT = 0.05
PHI = InfluenceFunction.power_law(0.5)

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 3)
step_counts = st.integers(1, 40)
alphas = st.sampled_from([0.5, 1.0, 20.0])  # alpha * DT up to 1


def gamma(n: int) -> float:
    return n * U / (1.0 - n * U)


def tolerance(n: int, steps: int, scale: float) -> float:
    """The round-off two related runs of n agents may differ by after
    ``steps`` Euler steps, for velocities within ``scale``."""
    return 2 * steps * gamma(n) * scale


def ensemble(seed: int, n: int, d: int, box: float = 10.0, speed: float = 1.0) -> AgentEnsemble:
    """n agents in [0, box]^d moving at velocities in [-speed, speed]^d."""
    rng = SplitMix64(seed)
    x = rng.uniform_array((n, d), 0.0, box)
    return AgentEnsemble(t=0.0, positions=x, velocities=rng.uniform_array((n, d), -speed, speed))


def velocities(initial: AgentEnsemble, model: ModelSpec, steps: int) -> np.ndarray:
    """The velocities of every state of an Euler run, the first included."""
    states = [initial]
    for _ in range(steps):
        states.append(step(states[-1], model, DT))
    return np.array([state.velocities for state in states])


def miss(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


@given(seeds, st.integers(1, 20), st.integers(1, 20), dims, step_counts, alphas)
@settings(max_examples=25, deadline=None)
def test_a_crowd_out_of_reach_leaves_mt_alone_and_rescales_cs(seed, n1, n2, d, steps, alpha):
    cutoff, spread, speed = 2.0, 1.0, 0.5
    group = ensemble(seed, n1, d, box=spread, speed=speed)
    crowd = ensemble(seed + 1, n2, d, box=spread, speed=speed)
    # each velocity coordinate stays within [-speed, speed] (maximum
    # principle), so the groups close in by at most 2 * speed * T along axis
    # 0 and stay a whole unit beyond the cut-off
    crowd.positions[:, 0] += spread + cutoff + 2.0 * speed * steps * DT + 1.0
    both = AgentEnsemble(
        t=0.0,
        positions=np.vstack([group.positions, crowd.positions]),
        velocities=np.vstack([group.velocities, crowd.velocities]),
    )
    phi = InfluenceFunction.power_law_with_cutoff(1.0, cutoff)
    n = n1 + n2
    for model, alone in (("mt", alpha), ("cs", alpha * n1 / n)):
        full = velocities(both, ModelSpec(model, phi, alpha), steps)[:, :n1]
        solo = velocities(group, ModelSpec(model, phi, alone), steps)
        assert miss(full, solo) <= tolerance(n, steps, speed), model


def _spec(model: str, alpha: float) -> ModelSpec:
    if model == "leader":
        return ModelSpec(model, PHI, alpha, beta=0.3, leader=0)
    if model == "vision":
        return ModelSpec(model, PHI, alpha, gamma=0.5, normalization="mt-style")
    return ModelSpec(model, PHI, alpha)


def _shifted(initial: AgentEnsemble, c: np.ndarray) -> AgentEnsemble:
    return AgentEnsemble(t=0.0, positions=initial.positions, velocities=initial.velocities + c)


@pytest.mark.parametrize("model", ["cs", "mt", "leader"])
@given(seed=seeds, n=st.integers(2, 40), d=dims, steps=step_counts, alpha=alphas)
@settings(max_examples=25, deadline=None)
def test_a_uniform_velocity_shift_is_carried_through_the_run(model, seed, n, d, steps, alpha):
    initial = ensemble(seed, n, d)
    c = SplitMix64(seed + 1).uniform_array(d, -3.0, 3.0)
    moved = _shifted(initial, c)
    base = velocities(initial, _spec(model, alpha), steps)
    shifted = velocities(moved, _spec(model, alpha), steps) - c
    scale = float(np.max(np.abs(moved.velocities)))
    assert miss(shifted, base) <= tolerance(n, steps, scale)


def test_vision_breaks_galilean_invariance_by_design():
    # the cone is taken about each agent's heading, which the shift turns
    initial, c, steps = ensemble(3, 40, 2), np.array([3.0, -2.0]), 80
    base = velocities(initial, _spec("vision", 1.0), steps)
    shifted = velocities(_shifted(initial, c), _spec("vision", 1.0), steps) - c
    assert miss(shifted, base) > 1e-2


@given(seeds, st.integers(1, 39), dims, step_counts, alphas, st.integers(0, 38))
@settings(max_examples=25, deadline=None)
def test_splitting_a_mass_particle_in_halves_changes_no_trajectory(seed, n, d, steps, alpha, k):
    k %= n
    initial = ensemble(seed, n, d)
    masses = SplitMix64(seed + 1).uniform_array(n, 0.5, 2.0)
    halves = masses.copy()
    halves[k] /= 2.0
    split = AgentEnsemble(
        t=0.0,
        positions=np.insert(initial.positions, k, initial.positions[k], axis=0),
        velocities=np.insert(initial.velocities, k, initial.velocities[k], axis=0),
    )
    whole = velocities(initial, ModelSpec("mt", PHI, alpha, masses=masses), steps)
    parts = velocities(
        split, ModelSpec("mt", PHI, alpha, masses=np.insert(halves, k, halves[k])), steps
    )
    # either copy, with the other left out, is the whole particle's run
    for copy in (k, k + 1):
        assert miss(np.delete(parts, copy, axis=1), whole) <= tolerance(n + 1, steps, 1.0)
