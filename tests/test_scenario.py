import re
from pathlib import Path

import numpy as np
import pytest

import corpus
from flocklab.errors import ScenarioError
from flocklab.scenario import (
    _READERS,
    _SCHEMA,
    parse_scenario,
    scenario_to_dict,
    sweep_points,
    with_override,
)

MINIMAL = """
[model]
model = mt
s = 0.25
alpha = 1

[initial]
N = 10
seed = 1

[integration]
dt = 0.01
T = 10
"""


def test_minimal_document_fills_defaults():
    sc = parse_scenario(MINIMAL)
    assert sc.model == "mt"
    assert sc.s == 0.25
    assert sc.alpha == 1.0
    assert sc.n == 10 and sc.seed == 1
    assert sc.dt == 0.01 and sc.t_final == 10.0
    # defaults echoed
    assert sc.scheme == "euler"
    assert sc.dim == 2
    assert sc.pos_min == 0.0 and sc.pos_max == 10.0


def test_alpha_range_error_names_key():
    doc = MINIMAL.replace("alpha = 1", "alpha = -1")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.key == "alpha"


def test_unknown_key_rejected_with_line():
    doc = MINIMAL + "\n[integration]\nwavelength = 3\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.key == "wavelength"
    assert err.value.line is not None


def test_unknown_model_kind_rejected():
    doc = MINIMAL.replace("model = mt", "model = boids")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.key == "model"


def test_missing_seed_rejected():
    doc = MINIMAL.replace("seed = 1", "")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.key == "seed"


def test_duplicate_key_rejected():
    doc = MINIMAL + "\n[model]\nalpha = 2\n"
    with pytest.raises(ScenarioError):
        parse_scenario(doc)


def test_comments_and_blank_lines_ignored():
    doc = "# header\n" + MINIMAL.replace("dt = 0.01", "dt = 0.01  # step size")
    sc = parse_scenario(doc)
    assert sc.dt == 0.01


def test_leader_model_requires_its_keys():
    doc = MINIMAL.replace("model = mt", "model = leader")
    with pytest.raises(ScenarioError):
        parse_scenario(doc)
    good = doc + "\n[model]\nbeta = 0.3\nleader = 0\n"
    # duplicate [model] section is fine; duplicate keys are not
    sc = parse_scenario(good)
    assert sc.beta == 0.3 and sc.leader == 0
    spec = sc.to_model_spec()
    assert spec.model == "leader" and spec.beta == 0.3


def test_vision_model_requires_normalization():
    doc = MINIMAL.replace("model = mt", "model = vision") + "\n[model]\ngamma = 0.2\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.key == "normalization"


def test_explicit_initial_conditions():
    doc = """
[model]
model = cs
s = 1
alpha = 1

[initial]
kind = explicit
positions = 0 0; 1 0
velocities = 0 1; 0 -1

[integration]
dt = 0.1
T = 1
"""
    sc = parse_scenario(doc)
    ens = sc.initial_ensemble()
    assert ens.n == 2 and ens.d == 2
    assert np.array_equal(ens.positions, np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_two_group_layout_and_determinism():
    doc = """
[model]
model = mt
phi = power-law-with-cutoff
s = 4
cutoff = 5
alpha = 1

[initial]
kind = two-group
N1 = 3
N2 = 6
D = 40
seed = 7

[integration]
dt = 0.05
T = 1
"""
    sc = parse_scenario(doc)
    a = sc.initial_ensemble()
    b = sc.initial_ensemble()
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.velocities, b.velocities)
    assert a.n == 9
    # group 2 sits `separation` away along the first axis
    assert np.all(a.positions[3:, 0] >= 40.0)
    assert np.all(a.positions[:3, 0] <= 1.0)


def test_tabulated_phi_through_config():
    doc = MINIMAL.replace("s = 0.25", "phi = tabulated\ntable = 0:1 1:0.5 2:0")
    sc = parse_scenario(doc)
    phi = sc.build_phi()
    assert phi(0.5) == pytest.approx(0.75)


@pytest.mark.parametrize(
    "table", ["0:1 1:1.5", "0.5:1 1:0", "0:1 1:-0.5 2:0"],
    ids=["increasing", "not-from-0-1", "negative"],
)
def test_invalid_table_rejected_at_parse_naming_its_key(table):
    doc = MINIMAL.replace("s = 0.25", f"phi = tabulated\ntable = {table}")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.key == "table"


def test_hydro_defaults_and_state():
    sc = parse_scenario(MINIMAL)
    state = sc.initial_hydro_state()
    assert state.n_cells == 480
    assert state.total_mass > 0
    d = scenario_to_dict(sc)
    assert d["hydro"]["profile"] == "two-bump"
    assert d["integration"]["T"] == 10.0


def test_document_without_particles_parses_and_round_trips():
    # a hydro document: the [initial] checks wait for a particle command
    doc = MINIMAL.replace("[initial]\nN = 10\nseed = 1\n", "")
    sc = parse_scenario(doc)
    assert sc.n is None and sc.seed is None
    assert with_override(sc, seed=5).seed == 5
    with pytest.raises(ScenarioError) as err:
        sc.initial_ensemble()
    assert err.value.key == "N"
    # any particle field brings the checks back at parse
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc + "\n[initial]\ndim = 3\n")
    assert err.value.key == "N"
    with pytest.raises(ScenarioError) as err:
        with_override(sc, n=4)
    assert err.value.key == "seed"


def test_with_override_revalidates():
    sc = parse_scenario(MINIMAL)
    with pytest.raises(ScenarioError):
        with_override(sc, alpha=-2.0)
    assert with_override(sc, seed=99).seed == 99


def test_sweep_points_parse_values_as_the_document_would():
    sc = parse_scenario(MINIMAL)
    points = sweep_points(sc, "N", " 4, 8,")
    assert [value for value, _ in points] == [4, 8]
    assert all(type(value) is int for value, _ in points)
    assert [point.n for _, point in points] == [4, 8]
    assert sweep_points(sc, "alpha", "2")[0][1].alpha == 2.0
    with pytest.raises(ScenarioError, match="out of range"):
        sweep_points(sc, "alpha", "-1")
    with pytest.raises(ScenarioError, match="empty value list"):
        sweep_points(sc, "s", " , ")


@pytest.mark.parametrize(
    "x_min, x_max, dx, cells",
    # 0.7 / 0.1 is 6.999999999999999 in floating point
    [(-12, 12, 0.01, 2400), (-12, 12, 0.05, 480), (-8, 8, 0.1, 160), (0, 0.7, 0.1, 7), (0, 1, 1, 1)],
)
def test_hydro_dx_that_tiles_is_accepted_despite_rounding(x_min, x_max, dx, cells):
    doc = MINIMAL + f"\n[hydro]\nx_min = {x_min}\nx_max = {x_max}\ndx = {dx}\n"
    assert parse_scenario(doc).initial_hydro_state().n_cells == cells


TWO_GROUP = MINIMAL.replace("N = 10", "kind = two-group\nN1 = 2\nN2 = 3\nD = 4")


def _with_initial(doc: str, lines: str) -> str:
    return doc.replace("seed = 1", f"seed = 1\n{lines}")


@pytest.mark.parametrize(
    "doc, key",
    [
        (_with_initial(MINIMAL, "pos_min = -1e308\npos_max = 1e308"), "pos_max"),
        (_with_initial(MINIMAL, "vel_min = -1e308\nvel_max = 1e308"), "vel_max"),
        (_with_initial(TWO_GROUP, "vel_min = -1e308\nvel_max = 1e308"), "vel_max"),
        (TWO_GROUP.replace("D = 4", "D = 1.7e308\ngroup_spread = 1e308"), "D"),
        (MINIMAL + "[hydro]\nx_min = -1e308\nx_max = 1e308\ndx = 1e306", "x_max"),
    ],
    ids=["positions", "velocities", "two-group-velocities", "two-group-reach", "hydro-range"],
)
def test_a_finite_range_whose_width_overflows_is_rejected_naming_its_key(doc, key):
    # the initial boxes and the hydro grid are drawn or tiled by their width
    with pytest.raises(ScenarioError, match=f"overflows \\(key '{key}'\\)"):
        parse_scenario(doc)


def test_an_output_section_is_an_unknown_section():
    # every output has a fixed name inside --out: no document names one
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL + "\n[output]\nsummary = s.json\n")
    assert str(err.value) == "unknown section [output] (line 15)"


def test_a_step_count_that_overflows_is_rejected_naming_t():
    # round(T / dt) of an infinite ratio raised OverflowError in step_times, exit 1
    doc = MINIMAL.replace("dt = 0.01", "dt = 1e-10").replace("T = 10", "T = 1e300")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert str(err.value) == "out of range: T / dt overflows (key 'T')"


@pytest.mark.parametrize(
    "lines, key, message",
    [
        ("profile = gaussian\ncenters = -3 3", "centers", "a gaussian profile reads 1"),
        ("profile = gaussian\ncenters = -3\nspeeds = 0.3 -0.3", "speeds",
         "a gaussian profile reads 1"),
        ("profile = uniform\nspeeds = 0.3 -0.3", "speeds", "a uniform profile reads 1"),
        ("speeds = 0.5 9 -0.5", "speeds", "a two-bump profile reads 2"),
        # the default speeds, written out: still a value the document set
        ("profile = gaussian\ncenters = -3\nspeeds = 0.5 -0.5", "speeds",
         "a gaussian profile reads 1"),
    ],
    ids=["gaussian-centers", "gaussian-speeds", "uniform-speeds", "two-bump-speeds",
         "gaussian-default-speeds"],
)
def test_a_hydro_list_value_the_profile_never_reads_is_rejected(lines, key, message):
    # gaussian read only the first center, and every profile but two-bump only
    # the first speed; the rest were echoed as if they had been used
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL + f"\n[hydro]\n{lines}\n")
    assert str(err.value) == f"too many values: {message} (key '{key}')"


@pytest.mark.parametrize(
    "lines",
    ["profile = gaussian", "profile = uniform", "profile = gaussian\ncenters = 2\nspeeds = 1",
     "centers = -4 0 4\nspeeds = 1"],
)
def test_a_hydro_list_value_the_profile_reads_is_accepted(lines):
    # the defaults, two centers and two speeds, are no value the document set
    parse_scenario(MINIMAL + f"\n[hydro]\n{lines}\n")


def _parses(doc: Path) -> bool:
    try:
        parse_scenario(doc.read_text())
    except ScenarioError:
        return False
    return True


def _as_document(echo: dict) -> str:
    """A summary.json scenario echo written back as key = value lines."""
    lines = []
    for section, keys in echo.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            if key == "table":
                value = " ".join(f"{r!r}:{v!r}" for r, v in value)
            elif key in ("positions", "velocities"):
                value = "; ".join(" ".join(map(repr, point)) for point in value)
            elif isinstance(value, list):
                value = " ".join(map(repr, value))
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "doc", [doc for doc in corpus.DOCUMENTS if _parses(doc)],
    ids=lambda doc: doc.relative_to(corpus.ROOT).as_posix(),
)
def test_the_summary_echo_is_a_complete_document(doc):
    # the echo holds exactly the keys the scenario reads, each set one under
    # its own section and key, and the keys the document wrote read back to
    # the same scenario
    sc = parse_scenario(doc.read_text())
    echo = scenario_to_dict(sc)
    read = {(section, key) for (section, key, *_), value in zip(_SCHEMA, sc)
            if value is not None and (key not in _READERS or _READERS[key][0](sc))}
    assert {(section, key) for section, keys in echo.items() for key in keys} == read
    written = {(section, key) for section, key, name, *_ in _SCHEMA if name in sc.written}
    echo = {section: {key: value for key, value in keys.items() if (section, key) in written}
            for section, keys in echo.items()}
    assert parse_scenario(_as_document(echo)) == sc


def test_the_readme_documents_every_key_in_its_section():
    block = (corpus.ROOT / "README.md").read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    documented, section = set(), None
    for line in block.splitlines():
        heading = re.match(r"\[(\w+)\]", line)
        key = re.match(r"#? ?(\w+) = ", line)
        if heading:
            section = heading[1]
        elif key:
            documented.add((section, key[1]))
    assert {(section, key) for section, key, *_ in _SCHEMA} <= documented


EXPLICIT = "kind = explicit\npositions = 0 0; 1 0\nvelocities = 0 1; 0 -1"


@pytest.mark.parametrize(
    "old,new,key,why",
    [
        ("s = 0.25", "s = 0.25\ncutoff = 3", "cutoff", "only a cut-off kernel reads it"),
        ("s = 0.25", "s = 0.25\ntable = 0:1 1:0", "table", "only a tabulated kernel reads it"),
        ("s = 0.25", "phi = tabulated\ns = 0.25\ntable = 0:1 1:0", "s",
         "a tabulated kernel has no exponent"),
        ("alpha = 1", "alpha = 1\nbeta = 0.3", "beta", "only the leader model reads it"),
        ("alpha = 1", "alpha = 1\nleader = 0", "leader", "only the leader model reads it"),
        ("alpha = 1", "alpha = 1\ngamma = 0.5", "gamma", "only the vision model reads it"),
        ("alpha = 1", "alpha = 1\nnormalization = mt-style", "normalization",
         "only the vision model reads it"),
        ("seed = 1", "seed = 1\nD = 40", "D", "only kind = two-group reads it"),
        ("seed = 1", "seed = 1\nN1 = 3", "N1", "only kind = two-group reads it"),
        ("seed = 1", "seed = 1\ngroup_spread = 2", "group_spread",
         "only kind = two-group reads it"),
        ("seed = 1", "seed = 1\npositions = 0 0; 1 0", "positions",
         "only kind = explicit reads it"),
        ("N = 10", "kind = two-group\nN1 = 2\nN2 = 3\nD = 4\npos_max = 20", "pos_max",
         "only kind = random reads it"),
        ("N = 10", "kind = two-group\nN1 = 2\nN2 = 3\nD = 4\npos_min = -1", "pos_min",
         "only kind = random reads it"),
        # a key set to its default value is still a key the document set
        ("N = 10", "kind = two-group\nN1 = 2\nN2 = 3\nD = 4\npos_max = 10", "pos_max",
         "only kind = random reads it"),
        ("T = 10", "T = 10\n[hydro]\nprofile = uniform\nwidth = 0.5", "width",
         "a uniform profile has no width"),
        ("N = 10", f"{EXPLICIT}\ndim = 3", "dim", "only kind = random or two-group reads it"),
        ("N = 10", f"{EXPLICIT}\nvel_max = 2", "vel_max",
         "only kind = random or two-group reads it"),
        ("T = 10", "T = 10\n[hydro]\nprofile = uniform\ncenters = 7 9", "centers",
         "a uniform profile has no centers"),
        ("T = 10", "T = 10\n[hydro]\nprofile = uniform\nwidth = 3", "width",
         "a uniform profile has no width"),
    ],
)
def test_a_key_the_scenario_never_reads_is_rejected_naming_it(old, new, key, why):
    # it would only be echoed in summary.json, as if the run had used it
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL.replace(old, new))
    assert str(err.value) == f"the scenario never reads it: {why} (key '{key}')"


@pytest.mark.parametrize(
    "old,new,section,unread",
    [
        ("N = 10", EXPLICIT, "initial",
         {"dim", "pos_min", "pos_max", "vel_min", "vel_max", "group_spread"}),
        ("T = 10", "T = 10\n[hydro]\nprofile = uniform", "hydro", {"centers", "width"}),
    ],
    ids=["explicit", "uniform"],
)
def test_the_summary_echo_leaves_out_the_defaults_the_scenario_never_reads(
    old, new, section, unread
):
    echo = scenario_to_dict(parse_scenario(MINIMAL.replace(old, new)))
    assert not unread & echo[section].keys()


# (old, new, key): MINIMAL with old replaced by new is a complete document
# that reads the key
REQUIRED = [
    ("s = 0.25", "s = 0.25", "s"),
    ("s = 0.25", "phi = power-law-with-cutoff\ns = 0.25\ncutoff = 3", "cutoff"),
    ("s = 0.25", "phi = tabulated\ntable = 0:1 1:0", "table"),
    ("model = mt", "model = leader\nbeta = 0.3\nleader = 0", "beta"),
    ("model = mt", "model = leader\nbeta = 0.3\nleader = 0", "leader"),
    ("model = mt", "model = vision\ngamma = 0.5\nnormalization = mt-style", "gamma"),
    ("model = mt", "model = vision\ngamma = 0.5\nnormalization = mt-style", "normalization"),
    ("N = 10", "kind = two-group\nN1 = 2\nN2 = 3\nD = 4", "N1"),
    ("N = 10", "kind = two-group\nN1 = 2\nN2 = 3\nD = 4", "N2"),
    ("N = 10", "kind = two-group\nN1 = 2\nN2 = 3\nD = 4", "D"),
    ("N = 10", EXPLICIT, "positions"),
    ("N = 10", EXPLICIT, "velocities"),
]


@pytest.mark.parametrize("old,new,key", REQUIRED, ids=[key for *_, key in REQUIRED])
def test_a_required_key_left_out_is_named_as_missing(old, new, key):
    # the complete document parses; without the key's line it names the key
    doc = MINIMAL.replace(old, new)
    parse_scenario(doc)
    without = "\n".join(line for line in doc.splitlines() if not line.startswith(f"{key} = "))
    with pytest.raises(ScenarioError) as err:
        parse_scenario(without)
    assert str(err.value) == f"missing required key (key '{key}')"


LEADER = "model = leader\nbeta = 0.3\nleader = 0"
VISION = "model = vision\ngamma = 0.5\nnormalization = mt-style"
GROUPS = "kind = two-group\nN1 = 2\nN2 = 3\nD = 4"
# (old, new, message, key): MINIMAL with old replaced by new fails one value
# check, which names its key
VALUE_CHECKS = [
    ("alpha = 1", "alpha = inf", "out of range: must be finite", "alpha"),
    ("N = 10", f"{EXPLICIT.replace('0 -1', '0 nan')}", "coordinates must be finite",
     "velocities"),
    ("model = mt", "model = boids", "unknown model kind", "model"),
    ("s = 0.25", "phi = gaussian\ns = 0.25", "unknown influence kind", "phi"),
    ("s = 0.25", "s = -1", "out of range: must be positive", "s"),
    ("s = 0.25", "phi = power-law-with-cutoff\ns = 0.25\ncutoff = 0",
     "out of range: must be positive", "cutoff"),
    ("s = 0.25", "phi = tabulated\ntable = 0:1 1:2", "table values must be non-increasing",
     "table"),
    ("alpha = 1", "alpha = 0", "out of range: must be positive", "alpha"),
    ("model = mt", LEADER.replace("0.3", "1"), "out of range: must lie in (0, 1)", "beta"),
    ("model = mt", VISION.replace("0.5", "1.5"), "out of range: must lie in [-1, 1]", "gamma"),
    ("model = mt", VISION.replace("mt-style", "rs-style"), "must be 'cs-style' or 'mt-style'",
     "normalization"),
    ("seed = 1", "seed = -1", "out of range: must lie in 0..2**64-1", "seed"),
    ("dt = 0.01", "dt = 0", "out of range: must be positive", "dt"),
    ("T = 10", "T = -1", "out of range: must be positive", "T"),
    ("T = 10", "T = 10\nscheme = rk2", "unknown scheme", "scheme"),
    ("T = 10", "T = 10\nsnapshot_stride = -1", "out of range: must be >= 0", "snapshot_stride"),
    ("T = 10", "T = 10\n[hydro]\ndx = 0", "out of range: must be positive", "dx"),
    ("T = 10", "T = 10\n[hydro]\nx_max = -12", "empty grid: x_max <= x_min", "x_max"),
    ("T = 10", "T = 10\n[hydro]\nx_min = -1e308\nx_max = 1e308", "x_max - x_min overflows",
     "x_max"),
    ("T = 10", "T = 10\n[hydro]\ndx = 7", "must divide x_max - x_min into whole cells, "
     "got 3.42857 cells", "dx"),
    ("T = 10", "T = 10\n[hydro]\nprofile = flat", "unknown profile", "profile"),
    ("T = 10", "T = 10\n[hydro]\nwidth = 0", "out of range: must be positive", "width"),
    ("T = 10", "T = 10\n[hydro]\nwidth = 1e200", "out of range: must lie in [1e-160, 1e150]",
     "width"),
    ("T = 10", "T = 10\n[hydro]\ncenters =", "need at least one center", "centers"),
    ("T = 10", "T = 10\n[hydro]\nspeeds =", "need at least one speed", "speeds"),
    ("T = 10", "T = 10\n[hydro]\nepsilon = 1", "out of range: must lie in (0, 1)", "epsilon"),
    ("N = 10", "kind = lattice", "unknown kind", "kind"),
    ("N = 10", "N = 10\ndim = 4", "out of range: must be 1, 2 or 3", "dim"),
    ("N = 10", "N = 0", "out of range: must be >= 1", "N"),
    ("seed = 1", "", "missing required key (mandatory for random specs)", "seed"),
    ("seed = 1", "seed = 1\npos_min = 5\npos_max = 4", "empty box: pos_max < pos_min", "pos_max"),
    ("seed = 1", "seed = 1\npos_min = -1e308\npos_max = 1e308", "pos_max - pos_min overflows",
     "pos_max"),
    ("N = 10", GROUPS.replace("N1 = 2", "N1 = 0"), "out of range: groups must be non-empty", "N1"),
    ("N = 10", GROUPS.replace("N2 = 3", "N2 = 0"), "out of range: groups must be non-empty", "N2"),
    ("N = 10", GROUPS.replace("D = 4", "D = 0"), "out of range: must be positive", "D"),
    ("N = 10", f"{GROUPS}\ngroup_spread = 0", "out of range: must be positive", "group_spread"),
    ("N = 10", f"{GROUPS}\ngroup_spread = 1e308".replace("D = 4", "D = 1e308"),
     "D + group_spread overflows", "D"),
    ("N = 10\nseed = 1", GROUPS, "missing required key (mandatory for random specs)", "seed"),
    ("N = 10", EXPLICIT.replace("0 1; 0 -1", "0 1"),
     "positions and velocities must list the same number of points", "velocities"),
    ("N = 10", EXPLICIT.replace("0 0; 1 0", "0 0 0 0; 1 0 0 0").replace("0 1; 0 -1", "0 1; 0 1"),
     "out of range: need 1, 2 or 3 coordinates", "positions"),
    ("N = 10", EXPLICIT.replace("0 -1", "0 -1 0").replace("0 1;", "0 1 0;"),
     "velocities must have as many coordinates as positions", "velocities"),
    ("seed = 1", "seed = 1\nvel_min = 1\nvel_max = 0", "empty box: vel_max < vel_min", "vel_max"),
    ("seed = 1", "seed = 1\nvel_min = -1e308\nvel_max = 1e308", "vel_max - vel_min overflows",
     "vel_max"),
    ("model = mt", LEADER.replace("leader = 0", "leader = 10"), "out of range: leader index",
     "leader"),
]


@pytest.mark.parametrize("old,new,message,key", VALUE_CHECKS, ids=[c[3] for c in VALUE_CHECKS])
def test_every_value_check_names_its_key(old, new, message, key):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL.replace(old, new))
    assert str(err.value) == f"{message} (key '{key}')"


@pytest.mark.parametrize("new", ["kind = randm\nN = 5", GROUPS.replace("two-group", "two-grup")],
                         ids=["random", "two-group"])
def test_a_misspelled_kind_is_named_not_the_keys_its_kind_would_read(new):
    # no kind reads N or N1 until kind itself is a kind
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL.replace("N = 10", new))
    assert str(err.value) == "unknown kind (key 'kind')"


def test_every_default_passes_its_own_rows_checks():
    # so the validation pass cannot reject a document that sets nothing
    for _, key, _, _, default, checks in _SCHEMA:
        if default is not None:
            assert all(holds(default) for holds, _ in checks), key


# (document, message, key): two faults each; the bad value in the earliest
# row is named before unread or missing keys and the rules between keys
TWO_FAULTS = [
    # vision without gamma
    (MINIMAL.replace("model = mt\ns = 0.25", "model = vision\ns = -1\nnormalization = mt-style"),
     "out of range: must be positive", "s"),
    (MINIMAL.replace("N = 10", "kind = randm\nN = 0"), "unknown kind", "kind"),
    (MINIMAL.replace("alpha = 1", "alpha = -1").replace("dt = 0.01", "dt = 0"),
     "out of range: must be positive", "alpha"),
]


@pytest.mark.parametrize("doc,message,key", TWO_FAULTS, ids=[key for *_, key in TWO_FAULTS])
def test_the_bad_value_in_the_earliest_row_is_named_first(doc, message, key):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert str(err.value) == f"{message} (key '{key}')"


@pytest.mark.parametrize("width", ["1e-170", "1.1e-162", "1e151", "1e200"])
def test_a_width_whose_square_leaves_the_float_range_is_rejected(width):
    # the profiles divide by 2*width**2: 0 below about 1e-162, and width**2
    # overflows above about 1e154
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL + f"\n[hydro]\nwidth = {width}\n")
    assert str(err.value) == "out of range: must lie in [1e-160, 1e150] (key 'width')"


@pytest.mark.parametrize("width", [1e-160, 1e150])
def test_the_widest_and_narrowest_widths_build_a_profile_without_warnings(width):
    # a cell many widths from a center overflows its exponent to exp(-inf) = 0
    sc = parse_scenario(MINIMAL + f"\n[hydro]\nx_min = -1\nx_max = 1\ndx = 0.5\n"
                        f"centers = -0.75 1e200\nwidth = {width!r}\n")
    rho = sc.initial_hydro_state().rho
    assert rho[0] == 1.0 and (width > 1 or not rho[1:].any())


def test_a_hydro_profile_with_no_mass_on_the_grid_is_rejected_naming_centers():
    # both bumps far off the grid leave an all-zero density, which has no
    # support and no nonlocal average
    sc = parse_scenario(MINIMAL + "\n[hydro]\ncenters = -300 300\n")
    with pytest.raises(ScenarioError) as err:
        sc.initial_hydro_state()
    assert err.value.key == "centers"
