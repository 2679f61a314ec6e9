"""Scenario documents: flat sectioned key = value files.

Sections are [model], [initial], [integration] and [hydro]; a # starts
a comment.  Each key is one row of :data:`_SCHEMA`, with its value's own
checks; :data:`_READERS` says which scenarios read a key only some read, so
whether setting it is an error and, if it has no default, whether it is
required.  Unknown sections or keys are rejected with their line number.  A
bad value, a number that is not finite among them, is named first, the
earliest row first; then come unread keys, missing required keys and the rules
between keys.
Parsing returns a fully resolved Scenario (defaults filled in) that knows
which keys the document set.  A scenario that sets no [initial] key but the
seed (a hydro document) skips the [initial] checks until a particle command
builds its state.

Random initial conditions use the splitmix64 generator (see
:mod:`flocklab.rng`): positions agent by agent, axis by axis, then velocities
the same way; the two-group kind draws group 1 positions, then group 2
positions offset by the separation along the first axis, then all velocities.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import List, Tuple

import numpy as np

from .dynamics import MODEL_KINDS, SCHEMES, AgentEnsemble, ModelSpec
from .errors import ScenarioError
from .hydro import DEFAULT_SUPPORT_EPSILON, HydroState1D
from .influence import INFLUENCE_KINDS, NORMALIZATIONS, InfluenceFunction
from .rng import SplitMix64


def _parse_float(raw: str, key: str, line: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ScenarioError(f"expected a number, got {raw!r}", key=key, line=line) from None


def _parse_int(raw: str, key: str, line: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"expected an integer, got {raw!r}", key=key, line=line) from None


def _parse_floats(raw: str, key: str, line: int) -> Tuple[float, ...]:
    return tuple(_parse_float(tok, key, line) for tok in raw.split())


def _parse_points(raw: str, key: str, line: int) -> Tuple[Tuple[float, ...], ...]:
    pts = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if chunk:
            pts.append(_parse_floats(chunk, key, line))
    if not pts:
        raise ScenarioError("expected semicolon-separated points", key=key, line=line)
    if len({len(p) for p in pts}) != 1:
        raise ScenarioError("points must share one dimension", key=key, line=line)
    return tuple(pts)


def _parse_table(raw: str, key: str, line: int) -> Tuple[Tuple[float, float], ...]:
    knots = []
    for tok in raw.split():
        if ":" not in tok:
            raise ScenarioError("table entries are r:value pairs", key=key, line=line)
        r, v = tok.split(":", 1)
        knots.append((_parse_float(r, key, line), _parse_float(v, key, line)))
    return tuple(knots)


def _one_of(choices, message: str):
    return (lambda v: v in choices, message)


# a value's own checks, each a (holds(v), message) pair; the shared ones
_POSITIVE = (lambda v: v > 0, "out of range: must be positive")
_IN_UNIT = (lambda v: 0.0 < v < 1.0, "out of range: must lie in (0, 1)")
_GROUP = (lambda v: v >= 1, "out of range: groups must be non-empty")

# Every document key, once: (section, key, Scenario field, parser, default,
# checks on the value whenever it is set).  A parser takes (raw, key, line);
# str keeps the raw text.  Scenario's fields, the parse lookup, the validation
# pass, the summary.json echo and the sweep lookup all read this.
_SCHEMA = (
    ("model", "model", "model", str, "mt", (_one_of(MODEL_KINDS, "unknown model kind"),)),
    ("model", "phi", "phi_kind", str, "power-law",
     (_one_of(INFLUENCE_KINDS, "unknown influence kind"),)),
    ("model", "s", "s", _parse_float, None, (_POSITIVE,)),
    ("model", "cutoff", "cutoff", _parse_float, None, (_POSITIVE,)),
    ("model", "table", "table", _parse_table, None, ()),
    ("model", "alpha", "alpha", _parse_float, 1.0, (_POSITIVE,)),
    ("model", "beta", "beta", _parse_float, None, (_IN_UNIT,)),
    ("model", "leader", "leader", _parse_int, None, ()),
    ("model", "gamma", "gamma", _parse_float, None,
     ((lambda v: -1.0 <= v <= 1.0, "out of range: must lie in [-1, 1]"),)),
    ("model", "normalization", "normalization", str, None,
     (_one_of(NORMALIZATIONS, f"must be {' or '.join(map(repr, NORMALIZATIONS))}"),)),
    ("initial", "kind", "ic_kind", str, "random",
     (_one_of(("random", "two-group", "explicit"), "unknown kind"),)),
    ("initial", "N", "n", _parse_int, None, ((lambda v: v >= 1, "out of range: must be >= 1"),)),
    ("initial", "dim", "dim", _parse_int, 2,
     (_one_of((1, 2, 3), "out of range: must be 1, 2 or 3"),)),
    # splitmix64 reads its seed modulo 2**64: a seed outside would run another's stream
    ("initial", "seed", "seed", _parse_int, None,
     ((lambda v: 0 <= v < 2**64, "out of range: must lie in 0..2**64-1"),)),
    ("initial", "pos_min", "pos_min", _parse_float, 0.0, ()),
    ("initial", "pos_max", "pos_max", _parse_float, 10.0, ()),
    ("initial", "vel_min", "vel_min", _parse_float, -1.0, ()),
    ("initial", "vel_max", "vel_max", _parse_float, 1.0, ()),
    ("initial", "N1", "n1", _parse_int, None, (_GROUP,)),
    ("initial", "N2", "n2", _parse_int, None, (_GROUP,)),
    ("initial", "D", "separation", _parse_float, None, (_POSITIVE,)),
    ("initial", "group_spread", "group_spread", _parse_float, 1.0, (_POSITIVE,)),
    ("initial", "positions", "positions", _parse_points, None,
     ((lambda v: len(v[0]) in (1, 2, 3), "out of range: need 1, 2 or 3 coordinates"),)),
    ("initial", "velocities", "velocities", _parse_points, None, ()),
    ("integration", "dt", "dt", _parse_float, 0.01, (_POSITIVE,)),
    ("integration", "T", "t_final", _parse_float, 10.0, (_POSITIVE,)),
    ("integration", "scheme", "scheme", str, "euler", (_one_of(SCHEMES, "unknown scheme"),)),
    ("integration", "snapshot_stride", "snapshot_stride", _parse_int, 0,
     ((lambda v: v >= 0, "out of range: must be >= 0"),)),
    ("hydro", "x_min", "hydro_x_min", _parse_float, -12.0, ()),
    ("hydro", "x_max", "hydro_x_max", _parse_float, 12.0, ()),
    ("hydro", "dx", "hydro_dx", _parse_float, 0.05, (_POSITIVE,)),
    ("hydro", "profile", "hydro_profile", str, "two-bump",
     (_one_of(("two-bump", "gaussian", "uniform"), "unknown profile"),)),
    ("hydro", "centers", "hydro_centers", _parse_floats, (-4.0, 4.0),
     ((lambda v: len(v) >= 1, "need at least one center"),)),
    # the profiles divide by 2*width**2, which underflows to 0 below about
    # 1e-162 and overflows above about 1e154
    ("hydro", "width", "hydro_width", _parse_float, 0.5,
     (_POSITIVE, (lambda v: 1e-160 <= v <= 1e150, "out of range: must lie in [1e-160, 1e150]"))),
    ("hydro", "speeds", "hydro_speeds", _parse_floats, (0.5, -0.5),
     ((lambda v: len(v) >= 1, "need at least one speed"),)),
    ("hydro", "epsilon", "hydro_epsilon", _parse_float, DEFAULT_SUPPORT_EPSILON, (_IN_UNIT,)),
)

SECTIONS = tuple(dict.fromkeys(section for section, *_ in _SCHEMA))
_PARSE = {(section, key): (name, parser) for section, key, name, parser, *_ in _SCHEMA}
# [initial] less the seed, which --seed sets for every command
_PARTICLE_FIELDS = frozenset(
    name for section, key, name, *_ in _SCHEMA if section == "initial" and key != "seed"
)
# the float-valued parsers, each with its message for a number that is not finite
_NOT_FINITE = {
    _parse_float: "out of range: must be finite",
    _parse_floats: "out of range: must be finite",
    _parse_table: "out of range: must be finite",
    _parse_points: "coordinates must be finite",
}


class Scenario(
    namedtuple(
        "Scenario",
        [row[2] for row in _SCHEMA] + ["written"],
        defaults=[row[4] for row in _SCHEMA] + [frozenset()],
    )
):
    """A resolved scenario document: one field per :data:`_SCHEMA` row, in
    order, then ``written``, the names of the fields the document set."""

    __slots__ = ()

    def build_phi(self) -> InfluenceFunction:
        # a field the kind does not read is unset (see _READERS)
        return InfluenceFunction(self.phi_kind, s=self.s, cutoff=self.cutoff, table=self.table)

    def to_model_spec(self) -> ModelSpec:
        """The [model] section as the spec a run takes, with each of beta,
        leader, gamma and normalization that the scenario reads (see _READERS)."""
        kwargs = {key: getattr(self, key) for key in ("beta", "leader", "gamma", "normalization")
                  if _READERS[key][0](self)}
        return ModelSpec(model=self.model, phi=self.build_phi(), alpha=self.alpha, **kwargs)

    def initial_ensemble(self) -> AgentEnsemble:
        """The particles a particle command starts from, [initial] checked first."""
        _validate_initial(self)
        if self.ic_kind == "explicit":
            return AgentEnsemble(
                t=0.0, positions=np.array(self.positions), velocities=np.array(self.velocities)
            )
        rng = SplitMix64(self.seed)
        if self.ic_kind == "random":
            x = rng.uniform_array((self.n, self.dim), self.pos_min, self.pos_max)
        else:  # two-group: compact group 1 at the origin, group 2 shifted along axis 0
            x1 = rng.uniform_array((self.n1, self.dim), 0.0, self.group_spread)
            x2 = rng.uniform_array((self.n2, self.dim), 0.0, self.group_spread)
            x2[:, 0] += self.separation
            x = np.vstack([x1, x2])
        v = rng.uniform_array(x.shape, self.vel_min, self.vel_max)
        return AgentEnsemble(t=0.0, positions=x, velocities=v)

    # a cell many widths off a center overflows its exponent: exp(-inf) is
    # its density, 0, exactly
    @np.errstate(over="ignore")
    def initial_hydro_state(self) -> HydroState1D:
        n = int(round((self.hydro_x_max - self.hydro_x_min) / self.hydro_dx))
        centers = self.hydro_x_min + self.hydro_dx * (np.arange(n) + 0.5)
        if self.hydro_profile == "uniform":
            rho = np.ones(n)
            u = np.full(n, self.hydro_speeds[0])
        elif self.hydro_profile == "gaussian":
            c = self.hydro_centers[0]
            rho = np.exp(-((centers - c) ** 2) / (2.0 * self.hydro_width**2))
            u = np.full(n, self.hydro_speeds[0])
        else:  # two-bump
            rho = np.zeros(n)
            for c in self.hydro_centers:
                rho += np.exp(-((centers - c) ** 2) / (2.0 * self.hydro_width**2))
            mid = 0.5 * (self.hydro_centers[0] + self.hydro_centers[-1])
            u = np.where(centers < mid, self.hydro_speeds[0], self.hydro_speeds[-1])
        mass = float(rho.sum())
        if not (math.isfinite(mass) and mass > 0.0):
            raise ScenarioError("the profile leaves no positive mass on the grid", key="centers")
        # a subnormal peak makes the vacuum threshold 1e-14 * peak 0: no empty cell is vacuum
        if rho.max() < np.finfo(float).tiny:
            raise ScenarioError(
                "the peak density is below the smallest normal float", key="centers"
            )
        return HydroState1D(x_min=self.hydro_x_min, dx=self.hydro_dx, rho=rho, u=u, t=0.0)


def _kind_reads(*kinds):
    """The [initial] reader entry of a key only ``kind = one of kinds`` reads."""
    return (lambda sc: sc.ic_kind in kinds, f"only kind = {' or '.join(kinds)} reads it")


# key read only by some scenarios -> (does the scenario read it?, why it would
# not); a scenario that sets such a key without reading it is bad input
_READERS = {
    "s": (lambda sc: sc.phi_kind != "tabulated", "a tabulated kernel has no exponent"),
    "cutoff": (lambda sc: sc.phi_kind == "power-law-with-cutoff", "only a cut-off kernel reads it"),
    "table": (lambda sc: sc.phi_kind == "tabulated", "only a tabulated kernel reads it"),
    "beta": (lambda sc: sc.model == "leader", "only the leader model reads it"),
    "leader": (lambda sc: sc.model == "leader", "only the leader model reads it"),
    "gamma": (lambda sc: sc.model == "vision", "only the vision model reads it"),
    "normalization": (lambda sc: sc.model == "vision", "only the vision model reads it"),
    **{key: _kind_reads("random") for key in ("N", "pos_min", "pos_max")},
    **{key: _kind_reads("two-group") for key in ("N1", "N2", "D", "group_spread")},
    **{key: _kind_reads("explicit") for key in ("positions", "velocities")},
    **{key: _kind_reads("random", "two-group") for key in ("dim", "vel_min", "vel_max")},
    "centers": (lambda sc: sc.hydro_profile != "uniform", "a uniform profile has no centers"),
    "width": (lambda sc: sc.hydro_profile != "uniform", "a uniform profile has no width"),
}
SWEEPABLE_KEYS = ("s", "alpha", "beta", "gamma", "N", "D")


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document; defaults are filled in."""
    values = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SECTIONS:
                raise ScenarioError(f"unknown section [{section}]", line=lineno)
            continue
        if "=" not in line:
            raise ScenarioError("expected 'key = value'", line=lineno)
        if section is None:
            raise ScenarioError("key outside any section", line=lineno)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if (section, key) not in _PARSE:
            raise ScenarioError(f"unknown key in [{section}]", key=key, line=lineno)
        field_name, parser = _PARSE[(section, key)]
        if field_name in values:
            raise ScenarioError("duplicate key", key=key, line=lineno)
        if parser is str:
            values[field_name] = raw_value
        else:
            values[field_name] = parser(raw_value, key, lineno)

    scenario = Scenario(**values, written=frozenset(values))
    validate_scenario(scenario)
    return scenario


def _require(cond: bool, message: str, key: str):
    if not cond:
        raise ScenarioError(message, key=key)


def _finite(value) -> bool:
    """Whether every number of a parsed value, a float or nested tuples of floats, is finite."""
    return all(map(_finite, value)) if isinstance(value, tuple) else math.isfinite(value)


def _require_read_keys(sc: Scenario, section: str) -> None:
    """Every key of ``section`` with no default that the scenario reads is set."""
    for (sec, key, _, _, default, _), value in zip(_SCHEMA, sc):
        if sec == section and key in _READERS and default is None and value is None:
            _require(not _READERS[key][0](sc), "missing required key", key)


def validate_scenario(sc: Scenario) -> None:
    # each set value on its own, in table order: no range check or bound
    # holds for inf or nan, so finiteness comes first
    for (_, key, _, parser, _, checks), value in zip(_SCHEMA, sc):
        if value is None:
            continue
        if parser in _NOT_FINITE:
            _require(_finite(value), _NOT_FINITE[parser], key)
        for holds, message in checks:
            _require(holds(value), message, key)
    # the knots on their own, whatever kernel is named: the library's messages
    if sc.table is not None:
        try:
            InfluenceFunction("tabulated", table=sc.table)
        except ValueError as exc:
            raise ScenarioError(str(exc), key="table") from None
    # a key no run reads would only be echoed, as if it had been used
    for _, key, name, *_ in _SCHEMA:
        if key in _READERS and name in sc.written:
            reads, why = _READERS[key]
            _require(reads(sc), f"the scenario never reads it: {why}", key)
    _require_read_keys(sc, "model")

    # described particles are checked now, else when a particle command builds them
    if sc.written & _PARTICLE_FIELDS:
        _validate_initial(sc)

    # the run takes round(T / dt) steps, which an infinite ratio has no count of
    _require(math.isfinite(sc.t_final / sc.dt), "out of range: T / dt overflows", "T")

    _require(sc.hydro_x_max > sc.hydro_x_min, "empty grid: x_max <= x_min", "x_max")
    _require(math.isfinite(sc.hydro_x_max - sc.hydro_x_min), "x_max - x_min overflows", "x_max")
    # the grid is n whole cells of width dx; a dx that leaves a remainder
    # would silently shorten the domain
    cells = (sc.hydro_x_max - sc.hydro_x_min) / sc.hydro_dx
    _require(
        math.isfinite(cells) and round(cells) >= 1 and abs(cells - round(cells)) <= 1e-9 * cells,
        f"must divide x_max - x_min into whole cells, got {cells:.6g} cells",
        "dx",
    )
    # gaussian reads one center, two-bump its first and last speeds, the others
    # their first speed: a further value set would be echoed as if it had been used
    profile = sc.hydro_profile
    for key, count in (("centers", 1 if profile == "gaussian" else math.inf),
                       ("speeds", 2 if profile == "two-bump" else 1)):
        name = "hydro_" + key
        _require(name not in sc.written or len(getattr(sc, name)) <= count,
                 f"too many values: a {profile} profile reads {count}", key)


def _validate_initial(sc: Scenario) -> None:
    """The [initial] rules between keys: the particles a particle command starts from."""
    _require_read_keys(sc, "initial")
    if sc.ic_kind == "two-group":
        _require(math.isfinite(sc.separation + sc.group_spread), "D + group_spread overflows", "D")
    if sc.ic_kind == "explicit":
        _require(len(sc.positions) == len(sc.velocities),
                 "positions and velocities must list the same number of points", "velocities")
        _require(len(sc.velocities[0]) == len(sc.positions[0]),
                 "velocities must have as many coordinates as positions", "velocities")
    else:  # both random kinds draw from the seed; two-group reads no pos box, so its default passes
        _require(sc.seed is not None, "missing required key (mandatory for random specs)", "seed")
        _require(sc.pos_max >= sc.pos_min, "empty box: pos_max < pos_min", "pos_max")
        _require(math.isfinite(sc.pos_max - sc.pos_min), "pos_max - pos_min overflows", "pos_max")
        _require(sc.vel_max >= sc.vel_min, "empty box: vel_max < vel_min", "vel_max")
        _require(math.isfinite(sc.vel_max - sc.vel_min), "vel_max - vel_min overflows", "vel_max")
    if sc.leader is not None:
        total = {"random": sc.n, "two-group": (sc.n1 or 0) + (sc.n2 or 0)}.get(
            sc.ic_kind, len(sc.positions or ())
        )
        _require(0 <= sc.leader < total, "out of range: leader index", "leader")


def scenario_to_dict(sc: Scenario, sections: Tuple[str, ...] = SECTIONS) -> dict:
    """Resolved scenario as a JSON-friendly mapping (section -> key -> value)
    of the keys it reads in ``sections``, the sections a command reads: a key
    _READERS says it never reads is left out."""
    out = {name: {} for name in sections}
    for (section, key, *_), value in zip(_SCHEMA, sc):
        if section not in out or value is None or (key in _READERS and not _READERS[key][0](sc)):
            continue
        if isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        out[section][key] = value
    return out


def with_override(sc: Scenario, **kwargs) -> Scenario:
    """``sc`` with the fields of ``kwargs`` set, as if its document set them."""
    updated = sc._replace(written=sc.written.union(kwargs), **kwargs)
    validate_scenario(updated)
    return updated


def sweep_points(sc: Scenario, key: str, values: str) -> List[Tuple[object, Scenario]]:
    """``(value, scenario)`` per comma-separated value of the sweepable ``key``,
    parsed as a document would parse it.  A key the scenario never reads is
    rejected: sweeping it would repeat one run under different labels."""
    if key not in SWEEPABLE_KEYS:
        raise ScenarioError(
            f"unsweepable parameter (choose from {', '.join(SWEEPABLE_KEYS)})", key=key
        )
    raw_values = [v.strip() for v in values.split(",") if v.strip()]
    if not raw_values:
        raise ScenarioError("empty value list", key=key)
    field_name, parser = next((name, parser) for _, k, name, parser, *_ in _SCHEMA if k == key)
    parsed = [parser(raw, key, None) for raw in raw_values]
    return [(value, with_override(sc, **{field_name: value})) for value in parsed]
