"""The scenario documents under examples/, each run in-process as
``python -m flocklab <command> --config examples/<name>.cfg`` runs it, with
the figures of the claim it reproduces asserted."""

import csv
import json
from pathlib import Path

from flocklab import cli

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"
COMMANDS = {
    "two_groups.cfg": "compare-groups",
    "two_bump.cfg": "hydro",
    "portrait.cfg": "simulate",
}


def run_example(name, out):
    """The command's exit code, its summary and its diagnostics rows."""
    argv = [COMMANDS[name], "--config", str(EXAMPLES / name), "--out", str(out), "--quiet"]
    code = cli.main(argv)
    summary = json.loads((out / "summary.json").read_text())
    with (out / "diagnostics.csv").open() as f:
        return code, summary, list(csv.DictReader(f))


def test_every_example_opens_with_its_command():
    assert sorted(p.name for p in EXAMPLES.iterdir()) == sorted(COMMANDS)
    for name, command in COMMANDS.items():
        text = (EXAMPLES / name).read_text()
        assert text.startswith("#")
        assert f"python -m flocklab {command} --config examples/{name}" in text


def test_two_groups_mt_aligns_where_cs_stalls(tmp_path):
    code, summary, _ = run_example("two_groups.cfg", tmp_path)
    assert code == cli.EXIT_OK
    assert summary["mt"]["halving_time"] == 1.1
    assert summary["cs"]["halving_time"] is None
    assert summary["ratio_is_lower_bound"] is True


def test_two_bump_flocks_within_its_horizon(tmp_path):
    code, summary, rows = run_example("two_bump.cfg", tmp_path)
    assert code == cli.EXIT_OK
    assert float(rows[-1]["t"]) <= summary["scenario"]["integration"]["T"]
    assert summary["max_step_mass_drift"] <= 1e-12
    assert summary["final"]["d_v_ratio"] < 1e-6


def test_portrait_meets_its_certificate(tmp_path):
    code, summary, rows = run_example("portrait.cfg", tmp_path)
    assert code == cli.EXIT_OK
    cert = summary["certificate"]
    assert summary["decay_check"]["passed"] is True
    assert all(float(row["d_x"]) <= cert["d_star"] for row in rows)
    assert summary["fitted_rate"] >= cert["predicted_rate"]


def test_portrait_meets_its_certificate_until_round_off(tmp_path):
    # run to T = 60, d_V ends at about 3e-16 of its start: the fit stops
    # where the series reaches round-off and still reads the decay
    doc = (EXAMPLES / "portrait.cfg").read_text().replace("\nT = 10\n", "\nT = 60\n")
    assert "\nT = 60\n" in doc
    cfg = tmp_path / "portrait60.cfg"
    cfg.write_text(doc)
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["final"]["d_v_ratio"] < 1e-15
    assert summary["fitted_rate"] >= summary["certificate"]["predicted_rate"]


def test_the_readme_library_example_runs(capsys):
    # the README's one python block, as a reader would paste it
    block = (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("unconditional ")
