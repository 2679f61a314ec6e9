"""flocklab: simulation and verification lab for self-organized alignment
dynamics - particle models with symmetric, relative-influence, leader and
vision-cone couplings, active-set contraction checks, flocking certificates,
and the 1D pressureless hydrodynamic limit."""

from .activeset import (
    ActionBound,
    ActiveSetReport,
    DecayObserver,
    DecayReport,
    active_sets,
    default_theta,
    lemma_action_bound,
)
from .dynamics import (
    AgentEnsemble,
    ModelSpec,
    TrajectoryRecord,
    build_matrix,
    bulk_momentum,
    diameter,
    diameters,
    rhs,
    simulate,
    step,
    step_times,
)
from .errors import FlockLabError, ScenarioError, StabilityError
from .flocking import (
    FlockingCertificate,
    certify,
    energy,
    fit_exponential_rate,
    solve_flock_diameter,
)
from .hydro import (
    HydroState1D,
    hydro_diameters,
    nonlocal_average,
    step_eulerian,
)
from .influence import (
    InfluenceFunction,
    InfluenceMatrix,
    build_cs,
    build_leader,
    build_mt,
    build_vision,
    eval_influence,
    range_integral,
    tail_integral,
)
from .rng import PRNG_ID, SplitMix64

__all__ = [
    "ActionBound",
    "ActiveSetReport",
    "AgentEnsemble",
    "DecayObserver",
    "DecayReport",
    "FlockLabError",
    "FlockingCertificate",
    "HydroState1D",
    "InfluenceFunction",
    "InfluenceMatrix",
    "ModelSpec",
    "PRNG_ID",
    "ScenarioError",
    "SplitMix64",
    "StabilityError",
    "TrajectoryRecord",
    "active_sets",
    "build_cs",
    "build_leader",
    "build_matrix",
    "build_mt",
    "build_vision",
    "bulk_momentum",
    "certify",
    "default_theta",
    "diameter",
    "diameters",
    "energy",
    "eval_influence",
    "fit_exponential_rate",
    "hydro_diameters",
    "lemma_action_bound",
    "nonlocal_average",
    "range_integral",
    "rhs",
    "simulate",
    "solve_flock_diameter",
    "step",
    "step_eulerian",
    "step_times",
    "tail_integral",
]

__version__ = "0.1.0"
