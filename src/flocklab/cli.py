"""Command-line front end.

Commands: simulate, certify, verify-lemma, hydro, sweep, compare-groups.
:func:`main` is the one frame around them: it loads the scenario document
(--config, with --seed applied) and creates --out, then calls
``cmd_x(scenario, out, args)``, which writes its CSV files and returns
``(summary body, exit code)``.  ``main`` heads the body with the command name
and the PRNG identifier and writes it to the scenario's ``[output] summary``
file (summary.json without a scenario).  CSV files carry a header row and
17-significant-digit floats so doubles round-trip losslessly; identical
scenarios produce byte-identical outputs.  ``snapshots.csv`` and
``fields.csv`` are written block by block (:class:`_BlockCSV`), ``hydro``'s
fields at each snapshot as it is taken; the other tables in one pass
(:func:`_write_csv`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .activeset import DecayObserver, lemma_action_bound
from .dynamics import diameter, diameters, simulate, step_times
from .errors import FlockLabError, ScenarioError
from .flocking import certify, fit_exponential_rate
from .hydro import hydro_diameters, step_eulerian
from .influence import tail_integral
from .rng import PRNG_ID, SplitMix64
from .scenario import (
    SWEEPABLE_KEYS,
    Scenario,
    parse_scenario,
    scenario_to_dict,
    sweep_points,
    with_override,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_RUNTIME = 3


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    """Write the header and the rows, formatted by one ``%`` over the table's
    flat list of cells.  ``rows`` is a 2D float array or a list of rows whose
    every column holds one type; a float column is written ``%.17g`` (the text
    of :func:`flocklab.scenario.format_value`), any other ``%s``."""
    if isinstance(rows, np.ndarray):
        cells, first = rows.ravel().tolist(), [0.0] * rows.shape[1]
    else:
        cells, first = [v for row in rows for v in row], rows[0] if rows else ()
    line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in first) + "\n"
    path.write_text(",".join(header) + "\n" + (line * len(rows)) % tuple(cells))


class _BlockCSV:
    """A CSV table written block by block as the run produces its states.

    A block is one time stamp t, the index column (agent number or cell
    centre, the same in every block) and the state columns, one row per item,
    written ``t, index, state...``.  The index text is formatted once per
    table and t once per block; only the state cells go through ``%.17g`` per
    row.  The bytes are those of :func:`_write_csv` on the stacked float
    table.  The file is open inside a ``with`` block, and a run that raises
    there removes the unfinished file.
    """

    def __init__(self, path: Path, header: Sequence[str], index: np.ndarray):
        self._path, self._header = path, header
        self._index = ["%.17g" % v for v in np.asarray(index, dtype=float).tolist()]

    def write(self, t: float, *columns: np.ndarray) -> None:
        """One block: 1D columns give one cell per row, 2D ones one per axis."""
        cols = [c for col in columns for c in (col.T if col.ndim == 2 else (col,))]
        width = len(cols) + 1
        cells = [None] * (len(self._index) * width)
        cells[::width] = self._index
        for k, col in enumerate(cols, start=1):
            cells[k::width] = col.tolist()
        line = "%.17g," % t + "%s" + ",%.17g" * len(cols) + "\n"
        self._file.write((line * len(self._index)) % tuple(cells))

    def __enter__(self) -> "_BlockCSV":
        self._file = self._path.open("w")
        self._file.write(",".join(self._header) + "\n")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._file.close()
        if exc_type is not None:
            self._path.unlink()


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


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _certificate_payload(sc: Scenario, d_x0: float, d_v0: float):
    """Certificate with psi = phi**2 plus the symmetric-theory phi tail on the
    same scale, or None for the vision model (its flocking analysis is open)."""
    model = sc.to_model_spec()
    if model.model == "vision":
        return None, None
    cert = certify(d_x0, d_v0, sc.alpha, model.phi, model=model)
    tail = sc.alpha * cert.psi_scale * tail_integral(model.phi, 1, d_x0)
    return cert, "diverges" if math.isinf(tail) else tail


def _run(sc: Scenario, snapshot_stride: int):
    """The one checked particle run of ``simulate`` and of each ``sweep`` value:
    (record, decay report, certificate, symmetric-theory tail, final d_V ratio,
    fitted rate).  Every step is held to the decay bound online, except under
    the vision model, which has no default level (report and certificate None)."""
    initial = sc.initial_ensemble()
    model = sc.to_model_spec()
    check = None if model.model == "vision" else DecayObserver(model, initial.n)
    record = simulate(
        initial, model, sc.dt, sc.t_final, sc.scheme,
        snapshot_stride=snapshot_stride, observers=[check] if check else (),
    )
    d_x0, d_v0 = float(record.position_diameter[0]), float(record.velocity_diameter[0])
    return (
        record,
        check.report(record) if check else None,
        *_certificate_payload(sc, d_x0, d_v0),
        float(record.velocity_diameter[-1] / d_v0) if d_v0 > 0 else 0.0,
        fit_exponential_rate(record.times, record.velocity_diameter),
    )


def cmd_simulate(sc: Scenario, out: Path, args):
    record, decay, cert, comparison_tail, dv_ratio, rate = _run(sc, sc.snapshot_stride)
    # the vision model has no check: its margin column is nan
    margins = np.full(len(record.times), np.nan)
    if decay is not None:
        margins[:-1] = decay.margin_pairwise

    momentum_norm = np.linalg.norm(record.momentum, axis=1)
    rows = np.column_stack((
        record.times, record.position_diameter, record.velocity_diameter, momentum_norm, margins
    ))
    _write_csv(out / sc.out_diagnostics, ["t", "d_x", "d_v", "momentum_norm", "decay_margin"], rows)

    if sc.snapshot_stride > 0:
        first = record.snapshots[0]
        axes = [f"{c}{k}" for c in "xv" for k in range(first.d)]
        with _BlockCSV(out / sc.out_snapshots, ["t", "agent"] + axes, np.arange(first.n)) as snaps:
            for ens in record.snapshots:
                snaps.write(ens.t, ens.positions, ens.velocities)

    body = {
        "scenario": scenario_to_dict(sc),
        "initial": {"d_x": float(record.position_diameter[0]),
                    "d_v": float(record.velocity_diameter[0])},
        "final": {
            "t": float(record.times[-1]),
            "d_x": float(record.position_diameter[-1]),
            "d_v": float(record.velocity_diameter[-1]),
            "d_v_ratio": dv_ratio,
            # the emergent bulk velocity; an invariant only for the cs model
            "bulk_velocity": [float(c) for c in record.momentum[-1]],
        },
        "momentum_drift": float(np.linalg.norm(record.momentum[-1] - record.momentum[0])),
        "fitted_rate": rate,
        "certificate": cert.to_json_dict() if cert else None,
        "symmetric_theory_tail": comparison_tail,
        "decay_check": None if decay is None else {
            "passed": decay.passed,
            "worst_margin": decay.worst_margin,
            "worst_step": decay.worst_step,
            "margin_per_step": [float(m) for m in decay.margin_pairwise],
        },
    }
    verdict = cert.verdict if cert else "n/a"
    _say(args, f"simulate: T={record.times[-1]:g} d_V ratio {dv_ratio:.3e} verdict {verdict}")
    if decay is not None and not decay.passed:
        print(f"simulate: decay check failed, worst step {decay.worst_step}", file=sys.stderr)
        return body, EXIT_CHECK_FAILED
    return body, EXIT_OK


def cmd_certify(sc: Scenario, out: Path, args):
    d_x0, d_v0 = diameters(sc.initial_ensemble())
    cert, comparison_tail = _certificate_payload(sc, d_x0, d_v0)
    if cert is None:
        raise ScenarioError("the vision model has no flocking certificate", key="model")
    body = {
        "scenario": scenario_to_dict(sc),
        "initial": {"d_x": d_x0, "d_v": d_v0},
        "certificate": cert.to_json_dict(),
        "symmetric_theory_tail": comparison_tail,
    }
    _say(args, f"certify: verdict {cert.verdict}")
    return body, EXIT_OK


def cmd_verify_lemma(sc: Optional[Scenario], out: Path, args):
    seed = args.seed if sc is None else sc.seed
    if seed is None:
        raise ScenarioError("verify-lemma needs a seed (--seed or scenario)", key="seed")

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
    body = {
        "seed": seed,
        "scenario": None if sc is None else scenario_to_dict(sc),
        "cases": cases,
        "violations": violations,
        "worst_slack": worst_slack,
    }
    _say(args, f"verify-lemma: {cases} cases, {violations} violations")
    return body, EXIT_OK if violations == 0 else EXIT_CHECK_FAILED


def cmd_hydro(sc: Scenario, out: Path, args):
    state = sc.initial_hydro_state()
    phi = sc.build_phi()

    stamps = step_times(state.t, sc.dt, sc.t_final)
    stride = sc.snapshot_stride
    diag_rows = []

    def record(s):
        d_x, d_v = hydro_diameters(s, sc.hydro_epsilon)
        diag_rows.append((float(s.t), d_x, d_v, s.total_mass))

    record(state)
    _, d_x0, d_v0, mass0 = diag_rows[0]
    cert = certify(d_x0, d_v0, sc.alpha, phi)
    max_mass_drift = 0.0
    # each field snapshot is written as it is taken; none is held
    header = ["t", "x", "rho", "u"]
    with (
        _BlockCSV(out / sc.out_fields, header, state.centers) if stride > 0 else nullcontext()
    ) as fields:
        if fields is not None:
            fields.write(state.t, state.rho, state.u)
        for k, t in enumerate(stamps, start=1):
            prev_mass = state.total_mass
            state = replace(step_eulerian(state, phi, sc.alpha, sc.dt), t=t)
            if prev_mass > 0:
                max_mass_drift = max(max_mass_drift, abs(state.total_mass - prev_mass) / prev_mass)
            record(state)
            if fields is not None and k % stride == 0:
                fields.write(state.t, state.rho, state.u)

    _write_csv(out / sc.out_diagnostics, ["t", "d_x", "d_v", "mass"], np.array(diag_rows))

    t_f, d_xf, d_vf, mass_f = diag_rows[-1]
    body = {
        "scenario": scenario_to_dict(sc),
        "initial": {"d_x": d_x0, "d_v": d_v0, "mass": mass0},
        "final": {
            "t": t_f,
            "d_x": d_xf,
            "d_v": d_vf,
            "mass": mass_f,
            "d_v_ratio": d_vf / d_v0 if d_v0 > 0 else 0.0,
        },
        "max_step_mass_drift": max_mass_drift,
        "certificate": cert.to_json_dict(),
    }
    _say(args, f"hydro: {len(stamps)} steps, d_V ratio {body['final']['d_v_ratio']:.3e}")
    return body, EXIT_OK


def cmd_sweep(sc: Scenario, out: Path, args):
    rows = []
    for value, point in sweep_points(sc, args.parameter, args.values):
        _, decay, cert, _, ratio, rate = _run(point, 0)
        passed = None if decay is None else decay.passed
        rows.append((value, ratio, rate, cert.verdict if cert else "n/a", passed))
    header = [args.parameter, "final_d_v_ratio", "fitted_rate", "verdict"]
    _write_csv(out / "sweep.csv", header, [row[:4] for row in rows])
    keys = ("value", "final_d_v_ratio", "fitted_rate", "verdict", "decay_check_passed")
    body = {
        "scenario": scenario_to_dict(sc),
        "parameter": args.parameter,
        "rows": [dict(zip(keys, row)) for row in rows],
    }
    _say(args, f"sweep {args.parameter}: " + ", ".join(f"{r[0]}->{r[3]}" for r in rows))
    failed = [str(r[0]) for r in rows if r[4] is False]
    if failed:
        print(f"sweep: decay check failed for {args.parameter} = {', '.join(failed)}",
              file=sys.stderr)
        return body, EXIT_CHECK_FAILED
    return body, EXIT_OK


def cmd_compare_groups(sc: Scenario, out: Path, args):
    if sc.ic_kind != "two-group":
        raise ScenarioError("compare-groups needs kind = two-group", key="kind")
    initial = sc.initial_ensemble()
    n1 = sc.n1
    d_v0 = diameter(initial.velocities[:n1])
    if d_v0 == 0.0:
        raise ScenarioError(
            "group 1 starts aligned (zero velocity spread, as with N1 = 1 or "
            "vel_min = vel_max): there is no alignment to compare"
        )
    results = {}
    runs = {}
    diag_rows = []
    failed = []
    for model_kind in ("cs", "mt"):
        model = sc.to_model_spec(model_kind)
        check = DecayObserver(model, initial.n)
        spread = [d_v0]  # group 1's velocity diameter at every recorded state

        def group1_aligned(state) -> bool:
            spread.append(diameter(state.velocities[:n1]))
            return spread[-1] <= 0.4 * d_v0

        # the whole ensemble is held to the decay bound at every step taken;
        # the run ends early once group 1 is down to 0.4 of its start
        record = simulate(
            initial, model, sc.dt, sc.t_final, sc.scheme, observers=[check], stop=group1_aligned
        )
        decay = check.report(record)
        times, series = record.times, np.array(spread)
        halved = np.flatnonzero(series <= 0.5 * d_v0)
        runs[model_kind] = (times, series)
        results[model_kind] = {
            "halving_time": float(times[halved[0]]) if halved.size else None,
            "horizon": float(times[-1]),
            "fitted_rate": fit_exponential_rate(times, series),
            "final_ratio": float(series[-1] / d_v0),
            "decay_check": {
                "passed": decay.passed,
                "worst_margin": decay.worst_margin,
                "worst_step": decay.worst_step,
            },
        }
        if not decay.passed:
            failed.append(f"{model_kind} (worst step {decay.worst_step})")
        diag_rows.extend((model_kind, t, dv) for t, dv in zip(times.tolist(), series.tolist()))

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

    body = {
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
    shown = "n/a" if ratio is None else f"{'>= ' if not cs_halved else ''}{ratio:.2f}"
    _say(args, f"compare-groups: halving-time ratio cs/mt = {shown}")
    if failed:
        print(f"compare-groups: decay check failed for {', '.join(failed)}", file=sys.stderr)
        return body, EXIT_CHECK_FAILED
    return body, EXIT_OK


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
        sc = parse_scenario(Path(args.config).read_text()) if args.config else None
        if sc is not None and args.seed is not None:
            sc = with_override(sc, seed=args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        body, code = _COMMANDS[args.command](sc, out, args)
        summary = {"command": args.command, "prng": PRNG_ID, **body}
        text = json.dumps(_jsonable(summary), indent=2, allow_nan=False) + "\n"
        (out / (sc.out_summary if sc else "summary.json")).write_text(text)
        return code
    except (ScenarioError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (FloatingPointError, FlockLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
