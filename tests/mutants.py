"""A catalogue of faults planted in flocklab in-process, each named and
tagged with the check or oracle that must catch it.

A mutant replaces one name in the module where its callers look it up:
``make(real)`` takes the name's real value and returns the faulty one.
:func:`plant` installs it through pytest's ``monkeypatch``, so it is undone
when the test ends.  ``tests/test_mutants.py`` holds each mutant to its
catcher; a catcher that misses today is a strict xfail there, naming the
ROADMAP item that should make it catch.
"""

from typing import Callable, NamedTuple

from flocklab import dynamics, hydro
from flocklab.influence import InfluenceMatrix


class Mutant(NamedTuple):
    module: object  # where the callers look the name up
    attribute: str
    make: Callable  # real value -> faulty value
    caught_by: str  # the check or oracle that must catch it


def _flipped_rhs(real):
    # anti-alignment: every velocity moves away from its neighbours' average
    return lambda ens, model, matrix: -real(ens, model, matrix)


def _transposed_rhs(real):
    # alpha (A^T v - v): the checks read the row-stochastic A the step was
    # given, not the operator it applied, so every runtime check passes
    def rhs(ens, model, matrix):
        return model.alpha * (matrix.entries.T @ ens.velocities - ens.velocities)

    return rhs


def _overshooting_average(real):
    # 2u - u_bar: relaxation pushes each cell away from the average
    return lambda state, phi: 2.0 * state.u - real(state, phi)


def _column_normalised_from_sixth_build(real):
    # the first five mt matrices are right; from the sixth the rows no longer
    # sum to 1.  ``built`` counts the builds.
    def build_mt(distances, phi, masses=None):
        build_mt.built += 1
        matrix = real(distances, phi, masses)
        if build_mt.built < 6:
            return matrix
        return InfluenceMatrix(matrix.entries / matrix.entries.sum(axis=0), "mt")

    build_mt.built = 0
    return build_mt


MUTANTS = {
    "rhs-sign-flip": Mutant(
        dynamics, "rhs", _flipped_rhs, "the decay check: simulate exits 1"
    ),
    "rhs-transpose": Mutant(
        dynamics, "rhs", _transposed_rhs,
        "tests/test_relations.py: mt's Galilean relation",
    ),
    "nonlocal-average-overshoot": Mutant(
        hydro, "nonlocal_average", _overshooting_average,
        "a hydro decay check (ROADMAP item 4): hydro exits 1",
    ),
    "matrix-broken-mid-run": Mutant(
        dynamics, "build_mt", _column_normalised_from_sixth_build,
        "InfluenceMatrix's row-sum check: the run exits 3",
    ),
}


def plant(monkeypatch, name: str):
    """Install the mutant ``name`` for the rest of the test; returns the faulty value."""
    mutant = MUTANTS[name]
    faulty = mutant.make(getattr(mutant.module, mutant.attribute))
    monkeypatch.setattr(mutant.module, mutant.attribute, faulty)
    return faulty
