"""Command-line front end.

Commands: simulate, certify, verify-lemma, hydro, sweep, compare-groups.
Every command reads a scenario document (--config), writes its results under
--out, and embeds the fully resolved scenario plus the PRNG identifier in
summary.json.  CSV files carry a header row and 17-significant-digit floats
so doubles round-trip losslessly; identical scenarios produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .activeset import lemma_action_bound, verify_diameter_decay
from .dynamics import diameter, diameters, simulate, step
from .errors import FlockLabError, ScenarioError, StabilityError
from .flocking import certify, fit_exponential_rate
from .hydro import hydro_certify, hydro_diameters, step_eulerian
from .rng import PRNG_ID, SplitMix64
from .scenario import (
    SWEEPABLE_KEYS,
    Scenario,
    format_value,
    parse_scenario,
    scenario_to_dict,
    with_override,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_RUNTIME = 3


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _state_rows(t, *columns) -> list:
    """CSV rows ``[t, columns...]``, one per item; t is a scalar shared by all
    rows or one value per item, and 2D columns contribute one cell per axis."""
    return np.column_stack((np.broadcast_to(t, len(columns[0])), *columns)).tolist()


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        # strict JSON has no NaN or Infinity literals
        if math.isnan(obj):
            return None
        return "infinite" if math.isinf(obj) else obj
    return obj


def _write_summary(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n")


def _load_scenario(args) -> Scenario:
    text = Path(args.config).read_text()
    sc = parse_scenario(text)
    if args.seed is not None:
        sc = with_override(sc, seed=args.seed)
    return sc


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _certificate_payload(sc: Scenario, d_x0: float, d_v0: float):
    """Certificate with psi = phi**2 plus the symmetric-theory phi tail, or
    None for the vision model (its flocking analysis is open)."""
    model = sc.to_model_spec()
    if model.model == "vision":
        return None, None
    cert = certify(d_x0, d_v0, sc.alpha, model.phi, model=model)
    comparison = certify(d_x0, d_v0, sc.alpha, model.phi, model=model, psi_kind="phi")
    tail = "diverges" if math.isinf(comparison.tail) else comparison.tail
    return cert, tail


def cmd_simulate(args) -> int:
    sc = _load_scenario(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    initial = sc.initial_ensemble()
    model = sc.to_model_spec()
    d_x0, d_v0 = diameters(initial)
    record = simulate(initial, model, sc.dt, sc.t_final, sc.scheme, snapshot_stride=1)

    # the vision model has no level schedule: no check, margin column nan
    decay = None if model.model == "vision" else verify_diameter_decay(record, model)
    margins = np.full(len(record.times), np.nan)
    if decay is not None:
        margins[:-1] = decay.margin_pairwise

    momentum_norm = np.linalg.norm(record.momentum, axis=1)
    rows = _state_rows(
        record.times, record.position_diameter, record.velocity_diameter, momentum_norm, margins
    )
    _write_csv(out / sc.out_diagnostics, ["t", "d_x", "d_v", "momentum_norm", "decay_margin"], rows)

    if sc.snapshot_stride > 0:
        snap_rows = []
        axes = [f"x{k}" for k in range(initial.d)] + [f"v{k}" for k in range(initial.d)]
        for ens in record.snapshots[:: sc.snapshot_stride]:
            snap_rows += _state_rows(ens.t, np.arange(ens.n), ens.positions, ens.velocities)
        _write_csv(out / sc.out_snapshots, ["t", "agent"] + axes, snap_rows)

    cert, comparison_tail = _certificate_payload(sc, d_x0, d_v0)
    try:
        fitted = fit_exponential_rate(record.times, record.velocity_diameter)
    except ValueError:
        fitted = None

    dv_ratio = (
        float(record.velocity_diameter[-1] / d_v0) if d_v0 > 0 else 0.0
    )
    summary = {
        "command": "simulate",
        "prng": PRNG_ID,
        "scenario": scenario_to_dict(sc),
        "initial": {"d_x": d_x0, "d_v": d_v0},
        "final": {
            "t": float(record.times[-1]),
            "d_x": float(record.position_diameter[-1]),
            "d_v": float(record.velocity_diameter[-1]),
            "d_v_ratio": dv_ratio,
            # the emergent bulk velocity; an invariant only for the cs model
            "bulk_velocity": [float(c) for c in record.momentum[-1]],
        },
        "momentum_drift": float(
            np.linalg.norm(record.momentum[-1] - record.momentum[0])
        ),
        "fitted_rate": fitted,
        "certificate": cert.to_json_dict() if cert else None,
        "symmetric_theory_tail": comparison_tail,
        "decay_check": None
        if decay is None
        else {
            "passed": decay.passed,
            "worst_margin": decay.worst_margin,
            "worst_step": decay.worst_step,
            "margin_per_step": [float(m) for m in decay.margin_pairwise],
        },
    }
    _write_summary(out / sc.out_summary, summary)
    verdict = cert.verdict if cert else "n/a"
    _say(args, f"simulate: T={record.times[-1]:g} d_V ratio {dv_ratio:.3e} verdict {verdict}")
    if decay is not None and not decay.passed:
        print(f"simulate: decay check failed, worst step {decay.worst_step}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_certify(args) -> int:
    sc = _load_scenario(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    d_x0, d_v0 = diameters(sc.initial_ensemble())
    cert, comparison_tail = _certificate_payload(sc, d_x0, d_v0)
    if cert is None:
        raise ScenarioError("the vision model has no flocking certificate", key="model")
    summary = {
        "command": "certify",
        "prng": PRNG_ID,
        "scenario": scenario_to_dict(sc),
        "initial": {"d_x": d_x0, "d_v": d_v0},
        "certificate": cert.to_json_dict(),
        "symmetric_theory_tail": comparison_tail,
    }
    _write_summary(out / sc.out_summary, summary)
    _say(args, f"certify: verdict {cert.verdict}")
    return EXIT_OK


def cmd_verify_lemma(args) -> int:
    if args.config:
        sc = _load_scenario(args)
        seed = sc.seed
        scenario_dict = scenario_to_dict(sc)
    else:
        seed = args.seed
        scenario_dict = None
    if seed is None:
        raise ScenarioError("verify-lemma needs a seed (--seed or scenario)", key="seed")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = SplitMix64(seed)
    cases = 1000
    violations = 0
    worst_slack = math.inf
    for _ in range(cases):
        n = 2 + rng.next_u64() % 7  # 2..8
        s = np.zeros((n, n))
        s[np.triu_indices(n, 1)] = rng.uniform_array(n * (n - 1) // 2, -1.0, 1.0)
        s = s - s.T
        u = rng.uniform_array(n, 0.0, 1.0)
        w = rng.uniform_array(n, 0.0, 1.0)
        thetas = [rng.uniform(1e-3, 1.0), 0.5 / n, 1.0 / n, 1.0 / (2 * n)]
        for theta in thetas:
            res = lemma_action_bound(s, u, w, theta)
            worst_slack = min(worst_slack, res.rhs - res.lhs)
            if not res.holds:
                violations += 1
    summary = {
        "command": "verify-lemma",
        "prng": PRNG_ID,
        "seed": seed,
        "scenario": scenario_dict,
        "cases": cases,
        "violations": violations,
        "worst_slack": worst_slack,
    }
    _write_summary(out / "summary.json", summary)
    _say(args, f"verify-lemma: {cases} cases, {violations} violations")
    return EXIT_OK if violations == 0 else EXIT_CHECK_FAILED


def cmd_hydro(args) -> int:
    sc = _load_scenario(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    state = sc.initial_hydro_state()
    phi = sc.build_phi()
    cert = hydro_certify(state, phi, sc.alpha, sc.hydro_epsilon)
    d_x0, d_v0 = hydro_diameters(state, sc.hydro_epsilon)
    mass0 = state.total_mass

    n_steps = max(1, int(round(sc.t_final / sc.dt)))
    stride = sc.snapshot_stride
    diag_rows = []
    field_rows = []

    def record(s):
        d_x, d_v = hydro_diameters(s, sc.hydro_epsilon)
        diag_rows.append((float(s.t), d_x, d_v, s.total_mass))
        return d_x, d_v

    def snapshot(s):
        field_rows.extend(_state_rows(s.t, s.centers, s.rho, s.u))

    record(state)
    if stride > 0:
        snapshot(state)
    max_mass_drift = 0.0
    for k in range(1, n_steps + 1):
        prev_mass = state.total_mass
        state = step_eulerian(state, phi, sc.alpha, sc.dt)
        if prev_mass > 0:
            max_mass_drift = max(max_mass_drift, abs(state.total_mass - prev_mass) / prev_mass)
        record(state)
        if stride > 0 and k % stride == 0:
            snapshot(state)

    _write_csv(out / sc.out_diagnostics, ["t", "d_x", "d_v", "mass"], diag_rows)
    if stride > 0:
        _write_csv(out / sc.out_fields, ["t", "x", "rho", "u"], field_rows)

    d_xf, d_vf = hydro_diameters(state, sc.hydro_epsilon)
    summary = {
        "command": "hydro",
        "prng": PRNG_ID,
        "scenario": scenario_to_dict(sc),
        "initial": {"d_x": d_x0, "d_v": d_v0, "mass": mass0},
        "final": {
            "t": float(state.t),
            "d_x": d_xf,
            "d_v": d_vf,
            "mass": state.total_mass,
            "d_v_ratio": d_vf / d_v0 if d_v0 > 0 else 0.0,
        },
        "max_step_mass_drift": max_mass_drift,
        "certificate": cert.to_json_dict(),
    }
    _write_summary(out / sc.out_summary, summary)
    _say(args, f"hydro: {n_steps} steps, d_V ratio {summary['final']['d_v_ratio']:.3e}")
    return EXIT_OK


def _run_for_sweep(sc: Scenario):
    initial = sc.initial_ensemble()
    model = sc.to_model_spec()
    d_x0, d_v0 = diameters(initial)
    record = simulate(initial, model, sc.dt, sc.t_final, sc.scheme)
    ratio = float(record.velocity_diameter[-1] / d_v0) if d_v0 > 0 else 0.0
    try:
        rate = fit_exponential_rate(record.times, record.velocity_diameter)
    except ValueError:
        rate = math.nan
    if model.model == "vision":
        verdict = "n/a"
    else:
        verdict = certify(d_x0, d_v0, sc.alpha, model.phi, model=model).verdict
    return ratio, rate, verdict


def cmd_sweep(args) -> int:
    sc = _load_scenario(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.parameter not in SWEEPABLE_KEYS:
        raise ScenarioError(
            f"unsweepable parameter (choose from {', '.join(SWEEPABLE_KEYS)})",
            key=args.parameter,
        )
    raw_values = [v for v in args.values.split(",") if v.strip()]
    if not raw_values:
        raise ScenarioError("empty value list", key=args.parameter)

    field = {"s": "s", "alpha": "alpha", "beta": "beta", "gamma": "gamma",
             "N": "n", "D": "separation"}[args.parameter]
    rows = []
    for raw in raw_values:
        value = int(raw) if args.parameter == "N" else float(raw)
        ratio, rate, verdict = _run_for_sweep(with_override(sc, **{field: value}))
        rows.append((value, ratio, rate, verdict))
    _write_csv(
        out / "sweep.csv",
        [args.parameter, "final_d_v_ratio", "fitted_rate", "verdict"],
        rows,
    )
    summary = {
        "command": "sweep",
        "prng": PRNG_ID,
        "scenario": scenario_to_dict(sc),
        "parameter": args.parameter,
        "rows": [
            {"value": v, "final_d_v_ratio": r, "fitted_rate": rt, "verdict": vd}
            for v, r, rt, vd in rows
        ],
    }
    _write_summary(out / sc.out_summary, summary)
    _say(args, f"sweep {args.parameter}: " + ", ".join(f"{r[0]}->{r[3]}" for r in rows))
    return EXIT_OK


def cmd_compare_groups(args) -> int:
    sc = _load_scenario(args)
    if sc.ic_kind != "two-group":
        raise ScenarioError("compare-groups needs kind = two-group", key="kind")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    initial = sc.initial_ensemble()
    n1 = sc.n1
    results = {}
    runs = {}
    diag_rows = []
    for model_kind in ("cs", "mt"):
        model = sc.to_model_spec(model_kind)
        state = initial
        times = [0.0]
        series = [diameter(state.velocities[:n1])]
        target = 0.5 * series[0]
        halving = None
        n_steps = max(1, int(round(sc.t_final / sc.dt)))
        for _ in range(n_steps):
            state = step(state, model, sc.dt, sc.scheme)
            times.append(state.t)
            series.append(diameter(state.velocities[:n1]))
            if halving is None and series[-1] <= target:
                halving = state.t
            if halving is not None and series[-1] <= 0.4 * series[0]:
                break
        runs[model_kind] = (np.array(times), np.array(series))
        results[model_kind] = {
            "halving_time": halving,
            "horizon": float(times[-1]),
            "fitted_rate": fit_exponential_rate(*runs[model_kind]),
            "final_ratio": series[-1] / series[0],
        }
        diag_rows.extend((model_kind, t, dv) for t, dv in zip(times, series))

    _write_csv(out / sc.out_diagnostics, ["model", "t", "g1_d_v"], diag_rows)
    t_cs = results["cs"]["halving_time"]
    t_mt = results["mt"]["halving_time"]
    # averaging over the huge remote group can halt the cs dynamics entirely;
    # if halving never happens within the horizon, the ratio is a lower bound
    cs_halved = t_cs is not None
    ratio = None
    if t_mt is not None:
        ratio = (t_cs if cs_halved else results["cs"]["horizon"]) / t_mt

    # initial alignment rates over a shared early window: the tail of a
    # halted run is flat, so only the early phase compares the two fairly
    window = min(results["cs"]["horizon"], results["mt"]["horizon"])
    early = {}
    for model_kind in ("cs", "mt"):
        times, series = runs[model_kind]
        keep = times <= window + 1e-12
        early[model_kind] = fit_exponential_rate(times[keep], series[keep])

    summary = {
        "command": "compare-groups",
        "prng": PRNG_ID,
        "scenario": scenario_to_dict(sc),
        "group1_size": n1,
        "cs": results["cs"],
        "mt": results["mt"],
        "cs_halved_within_horizon": cs_halved,
        "halving_time_ratio_cs_over_mt": ratio,
        "ratio_is_lower_bound": (ratio is not None) and not cs_halved,
        "rate_window": window,
        "rate_ratio_mt_over_cs": early["mt"] / early["cs"],
    }
    _write_summary(out / sc.out_summary, summary)
    shown = "n/a" if ratio is None else f"{'>= ' if not cs_halved else ''}{ratio:.2f}"
    _say(args, f"compare-groups: halving-time ratio cs/mt = {shown}")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "certify": cmd_certify,
    "verify-lemma": cmd_verify_lemma,
    "hydro": cmd_hydro,
    "sweep": cmd_sweep,
    "compare-groups": cmd_compare_groups,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flocklab",
        description="Alignment-dynamics simulation and verification lab",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument(
            "--config",
            required=name != "verify-lemma",
            help="scenario document path",
        )
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--quiet", action="store_true")
        if name == "sweep":
            p.add_argument("parameter", help=f"one of {', '.join(SWEEPABLE_KEYS)}")
            p.add_argument("values", help="comma-separated values")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (StabilityError, FloatingPointError, FlockLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
