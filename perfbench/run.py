"""flocklab benchmark: pinned CLI workloads, end-to-end metrics, a traced
per-layer profile and output checks.

    python3 perfbench/run.py --workload all                  # every workload, report
    python3 perfbench/run.py --workload hydro-fine --seed 3 --seconds 20 --trace 0

Each sample is one fresh child process (``child.py``) that imports
flocklab from ``src/``, builds the initial state, and calls
``flocklab.cli.main`` once, with BLAS pinned to one thread.  Samples run one
after another for ``--seconds``; their outputs are checked against
``oracle`` references and each other.  With ``--trace 0`` every sample is
paired with a run of the frozen ``yardstick/flocklab`` copy on the same
inputs, and the last stdout line carries the end-to-end metrics (timings
scaled by the pair's ratio, see ``reported``); with
``--trace 1`` untraced and traced samples alternate and it carries the
per-layer metrics.  A full record, with the environment, goes to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

# BLAS threading on a 2-core machine is pathological by default; pin it for
# this process and every child before numpy loads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 60

# metric -> (unit, better); failed_frac is printed but not emitted, since it
# is 0 on every passing run and bounds are shares of the median.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "elem_steps_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

SRC = ROOT / "src"
# flocklab as it was when this benchmark was defined.  The shared host runs
# up to 2x slower for minutes at a time, and memory-heavy code slows more
# than the rest, so no fixed calibration loop tracks it; the same code on the
# same inputs does.  Timings are reported relative to it (see ``reported``).
YARDSTICK = HERE / "yardstick"
# a run's timings average this many of its fastest samples on each side
FASTEST = 3


@dataclass
class Sample:
    """One child run and what the checks found wrong with it."""

    traced: bool
    problems: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    elem_steps_per_s: float = 0.0
    output_bytes: int = 0
    layers: Dict[str, Optional[float]] = field(default_factory=dict)
    absent: List[str] = field(default_factory=list)
    # the yardstick run next to this sample, on the same inputs
    pair: Optional["Sample"] = None


def child_env(src: Path) -> Dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    # cached bytecode on both sides of a pair, as in a normal install
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def run_child(wl: Workload, seed: int, config: Path, out: Path, traced: bool,
              src: Path = SRC) -> Sample:
    """Run one child on the flocklab under ``src``; fill in its timings, or
    its problems if it failed."""
    spec = {
        "src": str(src),
        "config": str(config),
        "override": wl.setup_override(seed),
        "hydro": wl.hydro,
        "argv": [wl.argv[0], "--config", str(config), "--out", str(out),
                 "--seed", str(seed), "--quiet", *wl.argv[1:]],
        "trace": traced,
        "spans_out": str(out.with_suffix(".spans.json")),
    }
    spec_path = out.with_suffix(".spec.json")
    spec_path.write_text(json.dumps(spec))
    sample = Sample(traced=traced)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=ROOT, env=child_env(src), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sample.problems.append(f"child did not finish within {CHILD_TIMEOUT_S} s")
        return sample
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-3:]
        sample.problems.append(f"child exited {proc.returncode} without a record: {tail}")
        return sample
    if record["rc"] != 0:
        sample.problems.append(f"flocklab exited with {record['rc']}: {proc.stderr.strip()[-300:]}")
    sample.wall_s = record["wall_s"]
    sample.setup_s = record["ready"] - started
    sample.peak_rss_mb = record["peak_rss_mb"]
    sample.elem_steps_per_s = wl.elements / record["wall_s"]
    if out.is_dir():
        sample.output_bytes = sum(p.stat().st_size for p in out.iterdir())
    if traced:
        traced_run = json.loads(Path(spec["spans_out"]).read_text())
        sample.absent = traced_run["absent"]
        sample.layers = spans.layer_metrics(traced_run["spans"], sample.absent)
    return sample


def check_outputs(wl: Workload, sample: Sample, out: Path, reference: dict,
                  first_summary: Optional[bytes]) -> Optional[bytes]:
    """Add output problems to the sample; return the summary.json bytes that
    later samples of this seed must repeat exactly."""
    if sample.problems:
        return first_summary
    try:
        sample.problems += wl.check(out, reference)
        summary = (out / "summary.json").read_bytes()
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        sample.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return first_summary
    if first_summary is not None and summary != first_summary:
        sample.problems.append("summary.json differs from the first run of this seed")
    return first_summary if first_summary is not None else summary


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> List[Sample]:
    """Run samples back to back until the next would end after ``seconds``.

    At least three samples run (four when tracing, alternating untraced and
    traced), so every result has a median and quartiles.  Untraced runs pair
    each sample with a yardstick run; the yardstick goes first in every other
    pair, so a steady change in the host's speed cancels over the run.
    """
    work = WORK_DIR / f"{wl.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "scenario.cfg"
        config.write_text(wl.scenario(seed))
        reference = wl.reference(seed)
        samples: List[Sample] = []
        first_summary = None
        minimum = 4 if trace else 3
        start = time.monotonic()
        while True:
            began = time.monotonic()
            out = work / f"run{len(samples)}"
            odd = len(samples) % 2 == 1
            yard = None
            if not trace and odd:
                yard = run_child(wl, seed, config, work / "yardstick", False, YARDSTICK)
            sample = run_child(wl, seed, config, out, traced=trace and odd)
            first_summary = check_outputs(wl, sample, out, reference, first_summary)
            if not trace and not odd:
                yard = run_child(wl, seed, config, work / "yardstick", False, YARDSTICK)
            if yard is not None:
                sample.pair = yard
                sample.problems += [f"yardstick: {p}" for p in yard.problems]
            samples.append(sample)
            shutil.rmtree(out, ignore_errors=True)
            shutil.rmtree(work / "yardstick", ignore_errors=True)
            now = time.monotonic()
            if len(samples) >= minimum and now + (now - began) - start > seconds:
                return samples
    finally:
        shutil.rmtree(work, ignore_errors=True)


def reported(wl: Workload, name: str, samples: List[Sample]) -> float:
    """The value a run reports for an end-to-end metric.

    A time is the mean of the run's ``FASTEST`` fastest samples over the
    same mean for the yardstick, times the yardstick's time on a quiet host
    (``wl.yardstick_s``): what the code would take had the host run at that
    speed.  The ratio cancels slow spells, which cover both sides of a pair;
    keeping the fastest samples drops the second-to-second jitter, which
    pairs do not share and which only ever adds time.  Memory, and a time
    without pairs (in a traced run), is the median over samples.
    """
    if name == "elem_steps_per_s":
        return wl.elements / reported(wl, "wall_s", samples)
    values = [getattr(s, name) for s in samples]
    if name == "peak_rss_mb" or samples[0].pair is None:
        return statistics.median(values)
    yardstick = [getattr(s.pair, name) for s in samples]
    return fastest_mean(values) / fastest_mean(yardstick) * wl.yardstick_s[name]


def fastest_mean(values: List[float]) -> float:
    return statistics.fmean(sorted(values)[:FASTEST])


def quartiles(values: List[float]):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def git_commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, ref_name = line.partition(" ")
        if ref_name == name:
            return sha
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(config):
        info = config.get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    return {
        **THREAD_ENV,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "git_commit": git_commit(),
        "seed": seed,
    }


def summarize(wl: Workload, samples: List[Sample], trace: bool) -> dict:
    """Reported values, medians and quartiles over the passing samples, plus
    failure counts."""
    ok = [s for s in samples if not s.problems]
    plain = [s for s in ok if not s.traced]
    traced = [s for s in ok if s.traced]
    failed = len(samples) - len(ok)
    # name -> (unit, sample count, reported value, (median, q1, q3))
    stats = {}
    if plain:
        for name, (unit, _) in END_TO_END.items():
            values = [getattr(s, name) for s in plain]
            stats[name] = (unit, len(plain), reported(wl, name, plain), quartiles(values))
    if trace and traced and plain:
        for name, (unit, _) in spans.PER_LAYER.items():
            if name == "trace.overhead_s":
                value = (quartiles([s.wall_s for s in traced])[0]
                         - quartiles([s.wall_s for s in plain])[0])
                values = [value]
            elif name == "cli.output_bytes":
                values = [s.output_bytes for s in traced]
            elif traced[0].layers[name] is not None:
                values = [s.layers[name] for s in traced]
            else:
                continue
            spread = quartiles(values)
            stats[name] = (unit, len(traced), spread[0], spread)
    return {
        "workload": wl.name,
        "attempted": len(samples),
        "failed": failed,
        "failed_frac": failed / len(samples),
        "absent": traced[0].absent if traced else [],
        "problems": [p for s in samples for p in s.problems],
        "samples": [
            {"traced": s.traced, "wall_s": s.wall_s, "setup_s": s.setup_s,
             "peak_rss_mb": s.peak_rss_mb, "failed": bool(s.problems),
             "yardstick_wall_s": s.pair.wall_s if s.pair else None,
             "yardstick_setup_s": s.pair.setup_s if s.pair else None}
            for s in samples
        ],
        "stats": stats,
    }


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable lines and return the contract's result object."""
    print(f"== {result['workload']}: {result['attempted']} runs, "
          f"{result['failed']} failed, failed_frac {result['failed_frac']:.4g} ratio")
    for problem in result["problems"]:
        print(f"   FAILED CHECK: {problem}")
    for name, (unit, n, value, (med, q1, q3)) in result["stats"].items():
        print(f"   {name:28s} {value:14.6g} {unit:6s} "
              f"[measured: median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, n={n}]")
    if result["absent"]:
        print(f"   absent hook targets (their metrics read 0): {', '.join(result['absent'])}")
    wanted = spans.PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, (unit, _) in wanted.items():
        if name in result["stats"]:
            metrics[name] = {"value": result["stats"][name][2], "unit": unit}
        elif trace and result["stats"]:
            metrics[name] = {"value": 0, "unit": unit}
    correct = result["failed"] == 0 and len(metrics) == len(wanted)
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "flocklab" / "__init__.py").is_file():
        print(f"error: no flocklab source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print("env " + json.dumps(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = summarize(WORKLOADS[name], measure(WORKLOADS[name], args.seed, args.seconds,
                                                    bool(args.trace)), bool(args.trace))
        final = report(result, bool(args.trace))
        results.append(final)
        record = WORK_DIR / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps({"environment": env, **result, "result": final}, indent=1))
    if len(results) == 1:
        print(json.dumps(results[0]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
