"""Every library guard by its exception type and message, one case per raise
that no other test and no corpus document reaches."""

import numpy as np
import pytest

from flocklab.activeset import lemma_action_bound
from flocklab.dynamics import AgentEnsemble, ModelSpec, TrajectoryRecord, simulate
from flocklab.errors import ScenarioError
from flocklab.flocking import energy, solve_flock_diameter
from flocklab.hydro import HydroState1D, step_eulerian
from flocklab.influence import InfluenceFunction, build_leader, pairwise_distances
from flocklab.scenario import parse_scenario

PHI = InfluenceFunction.power_law(0.5)
PAIR = np.array([[0.0, 0.0], [1.0, 0.0]])
CELLS = HydroState1D(x_min=0.0, dx=1.0, rho=np.ones(3), u=np.zeros(3))


def _no_step(state):
    raise AssertionError("a step ran before the time grid was refused")


def _far_from_zero():
    # 1e20 + 1 rounds to 1e20: every step would be stamped with the start time;
    # the grid is refused before the first step (``stop`` sees each new state)
    start = AgentEnsemble(t=1e20, positions=PAIR, velocities=PAIR)
    simulate(start, ModelSpec("mt", PHI, 1.0), dt=1.0, t_final=2.0, stop=_no_step)


def _document(*lines):
    return lambda: parse_scenario("\n".join(lines) + "\n")


# module -> (case -> (call, exception type, message))
GUARDS = {
    "dynamics": {
        "ensemble-not-2d": (lambda: AgentEnsemble(0.0, np.zeros(2), np.zeros(2)), ValueError,
                            "positions and velocities must be (N, d) arrays"),
        "vision-without-gamma": (lambda: ModelSpec("vision", PHI, 1.0), ValueError,
                                 "gamma and normalization required exactly for the vision model"),
        "gamma-outside-vision": (lambda: ModelSpec("mt", PHI, 1.0, gamma=0.0), ValueError,
                                 "gamma/normalization only valid for the vision model"),
        "leader-outside-leader": (lambda: ModelSpec("mt", PHI, 1.0, beta=0.2, leader=0),
                                  ValueError, "beta/leader only valid for the leader model"),
        "record-lengths": (
            lambda: TrajectoryRecord(np.arange(2.0), np.zeros(1), np.zeros(2), np.zeros((2, 2))),
            ValueError, "diagnostic series must have equal lengths",
        ),
        "record-repeated-times": (
            lambda: TrajectoryRecord(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros((2, 2))),
            ValueError, "times must be strictly increasing",
        ),
        "record-times-far-from-zero": (
            _far_from_zero, ValueError,
            "step times t0 + k*dt must strictly increase: dt is below t0's rounding",
        ),
    },
    "hydro": {
        "dx": (lambda: HydroState1D(0.0, 0.0, np.ones(3), np.zeros(3)), ValueError,
               "dx must be positive"),
        "shape": (lambda: HydroState1D(0.0, 1.0, np.ones(3), np.zeros(2)), ValueError,
                  "rho and u must be equal-length 1D arrays"),
        "finite": (lambda: HydroState1D(0.0, 1.0, np.ones(3), np.array([0.0, np.nan, 0.0])),
                   ValueError, "fields must be finite"),
        "dt": (lambda: step_eulerian(CELLS, PHI, 1.0, 0.0), ValueError, "dt must be positive"),
    },
    "influence": {
        "kind": (lambda: InfluenceFunction("gaussian"), ValueError,
                 "unknown influence kind 'gaussian'"),
        "cutoff": (lambda: InfluenceFunction("power-law-with-cutoff", s=1.0, cutoff=0.0),
                   ValueError, "cutoff radius must be positive"),
        # a parameter the kind never reads is refused, not silently dropped
        "power-law-cutoff": (lambda: InfluenceFunction("power-law", s=0.5, cutoff=2.0),
                             ValueError, "the power-law kernel does not read cutoff"),
        "cutoff-kind-table": (
            lambda: InfluenceFunction("power-law-with-cutoff", s=0.5, cutoff=2.0,
                                      table=((0.0, 1.0),)),
            ValueError, "the power-law-with-cutoff kernel does not read table",
        ),
        "tabulated-s": (lambda: InfluenceFunction("tabulated", s=0.5, table=((0.0, 1.0),)),
                        ValueError, "the tabulated kernel does not read s"),
        "empty-table": (lambda: InfluenceFunction("tabulated", table=()), ValueError,
                        "tabulated kind needs a non-empty table"),
        "negative-table": (
            lambda: InfluenceFunction("tabulated", table=((0.0, 1.0), (1.0, -0.5))),
            ValueError, "table values must be non-negative",
        ),
        "distances-not-2d": (lambda: pairwise_distances(np.zeros(3)), ValueError,
                             "positions must be an (N, d) array"),
        "leader-index": (lambda: build_leader(np.zeros((3, 3)), PHI, 0.5, 3), ValueError,
                         "leader index out of range"),
    },
    "activeset": {
        "non-square-S": (lambda: lemma_action_bound(np.zeros((2, 3)), np.ones(3), np.ones(3), 0.5),
                         ValueError, "S must be square"),
    },
    "flocking": {
        "energy": (lambda: energy(-1.0, 0.0, 1.0, PHI), ValueError,
                   "diameters must be non-negative"),
        "alpha": (lambda: solve_flock_diameter(0.0, 1.0, 0.0, PHI), ValueError,
                  "alpha must be positive"),
    },
    "scenario": {
        "empty-points": (_document("[initial]", "kind = explicit", "positions = ;"),
                         ScenarioError,
                         "expected semicolon-separated points (key 'positions', line 3)"),
        "mixed-dimensions": (_document("[initial]", "kind = explicit", "positions = 0 0; 1"),
                             ScenarioError,
                             "points must share one dimension (key 'positions', line 3)"),
        "table-token": (_document("[model]", "phi = tabulated", "table = 0:1 2"), ScenarioError,
                        "table entries are r:value pairs (key 'table', line 3)"),
        "no-equals": (_document("[model]", "model mt"), ScenarioError,
                      "expected 'key = value' (line 2)"),
        "no-section": (_document("model = mt"), ScenarioError, "key outside any section (line 1)"),
    },
}


@pytest.mark.parametrize(
    "call, error, message",
    [case for cases in GUARDS.values() for case in cases.values()],
    ids=[f"{module}-{name}" for module, cases in GUARDS.items() for name in cases],
)
def test_each_guard_raises_its_message(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
