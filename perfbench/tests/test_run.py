"""The harness: output checks count as failures, seeds run end to end, and
the harness agrees with BENCHMARK.json."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import DECLARED, WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _run_benchmark(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(DECLARED)
    assert set(DECLARED) <= set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER


def test_times_are_scaled_by_the_yardstick_and_memory_is_the_median():
    wl = WORKLOADS["hydro-fine"]

    def sample(wall, setup, rss, yard_wall, yard_setup, problems=()):
        return run.Sample(traced=False, problems=list(problems), wall_s=wall, setup_s=setup,
                          peak_rss_mb=rss, elem_steps_per_s=wl.elements / wall,
                          pair=run.Sample(traced=False, wall_s=yard_wall, setup_s=yard_setup))

    samples = [
        sample(1.5, 0.4, 200.0, 3.0, 0.5),
        sample(1.2, 0.5, 204.0, 2.0, 0.4),
        sample(2.0, 0.3, 202.0, 2.5, 0.6),
        sample(1.9, 0.6, 201.0, 4.0, 0.8),
        sample(0.1, 0.1, 999.0, 0.1, 0.1, problems=["bad"]),  # failed: left out
    ]
    final = run.report(run.summarize(wl, samples, trace=False), trace=False)
    values = {name: m["value"] for name, m in final["metrics"].items()}
    # the three fastest of each side: program 1.2, 1.5, 1.9; yardstick 2.0, 2.5, 3.0
    wall = (1.2 + 1.5 + 1.9) / (2.0 + 2.5 + 3.0) * wl.yardstick_s["wall_s"]
    assert values == pytest.approx({
        "wall_s": wall,
        "setup_s": (0.3 + 0.4 + 0.5) / (0.4 + 0.5 + 0.6) * wl.yardstick_s["setup_s"],
        "peak_rss_mb": 201.5,
        "elem_steps_per_s": wl.elements / wall,
    })


def _corrupt_summary_truncated(out: Path):
    text = (out / "summary.json").read_text()
    (out / "summary.json").write_text(text[: len(text) // 2])


def _corrupt_final_value(out: Path):
    summary = json.loads((out / "summary.json").read_text())
    summary["final"]["d_v"] *= 1.0 + 1e-6
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")


def _corrupt_missing_rows(out: Path):
    lines = (out / "diagnostics.csv").read_text().splitlines()
    (out / "diagnostics.csv").write_text("\n".join(lines[:-1]) + "\n")


def _reformat_summary(out: Path):
    summary = json.loads((out / "summary.json").read_text())
    (out / "summary.json").write_text(json.dumps(summary) + "\n")


@pytest.fixture(scope="module")
def hydro_run(tmp_path_factory):
    """One checked hydro-fine sample and its reference."""
    tmp = tmp_path_factory.mktemp("hydro")
    wl, seed = WORKLOADS["hydro-fine"], 2
    config = tmp / "scenario.cfg"
    config.write_text(wl.scenario(seed))
    reference = wl.reference(seed)
    sample = run.run_child(wl, seed, config, tmp / "good", traced=False)
    first = run.check_outputs(wl, sample, tmp / "good", reference, None)
    assert sample.problems == []
    return wl, reference, sample, tmp / "good", first


@pytest.mark.parametrize(
    "corrupt, byte_compare",
    [
        (_corrupt_summary_truncated, False),
        (_corrupt_final_value, False),
        (_corrupt_missing_rows, False),
        (_reformat_summary, True),  # same numbers, different bytes
    ],
)
def test_corrupted_output_counts_toward_failed_frac(hydro_run, corrupt, byte_compare, tmp_path):
    wl, reference, good, good_out, first = hydro_run
    bad_out = tmp_path / "bad"
    shutil.copytree(good_out, bad_out)
    corrupt(bad_out)
    bad = copy.deepcopy(good)
    run.check_outputs(wl, bad, bad_out, reference, first if byte_compare else None)
    assert bad.problems

    result = run.summarize(wl, [good, bad], trace=False)
    assert (result["attempted"], result["failed"], result["failed_frac"]) == (2, 1, 0.5)
    final = run.report(result, trace=False)
    assert final["correct"] is False and final["failed"] == 1


def test_another_seed_runs_and_passes_its_checks():
    proc = _run_benchmark("--workload", "simulate-vision-rk4", "--seed", "11", "--seconds", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads((run.WORK_DIR / "results" / "simulate-vision-rk4-seed11-trace0.json").read_text())
    assert all(s["yardstick_wall_s"] > 0 for s in record["samples"])


def test_traced_run_reports_every_layer_metric():
    proc = _run_benchmark("--workload", "simulate-mt-verify", "--seed", "4",
                          "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] is True and set(result["metrics"]) == set(spans.PER_LAYER)
    assert result["metrics"]["dynamics.steps"]["value"] == 100


def test_without_a_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run_benchmark("--workload", "hydro-fine", "--seed", "1", "--seconds", "1",
                          cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
