"""Command-line front end.

Commands: simulate, certify, verify-lemma, hydro, sweep, compare-groups.
:func:`parse_args` reads the fixed command line (a usage error exits 2 before
anything is written).  :func:`main` loads the scenario (--config, with --seed
applied; verify-lemma reads --seed alone), creates --out, which it removes
again if the run exits 2 or 3, and calls ``cmd_x(scenario, out, args)``; that
writes its CSV files, each under a fixed name, and returns ``(summary body,
failed checks)``, and ``main`` writes the body, headed by the command name and
the PRNG identifier, to summary.json.  ``main`` alone sets every exit code:
failed checks are named on one stderr line, exit 1.
``simulate``, each ``sweep`` value and the cs and mt runs of
``compare-groups`` are one checked particle run, :func:`_run`.  ``simulate``
and ``hydro`` step through the one loop, :func:`~flocklab.dynamics.march`, and
stream their snapshots through an observer (:func:`_snapshots`) as it records
them.  CSV floats carry 17 significant digits, so doubles round-trip and
identical scenarios give byte-identical files; :class:`_CSV` formats at most
:data:`CHUNK_ROWS` rows per ``%``.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .activeset import DecayObserver, lemma_action_bound
from .dynamics import ModelSpec, diameter, diameters, march, simulate, step_times
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


# Rows per ``%``: a table's transient text and cells stay this many rows
# long, whatever the table's length.
CHUNK_ROWS = 256


class _CSV:
    """A CSV file open for writing inside a ``with`` block: the header on
    entry, then rows through :meth:`write_rows`.  A run that raises inside the
    block removes the unfinished file."""

    def __init__(self, path: Path, header: Sequence[str]):
        self._path, self._header = path, header

    def write_rows(self, line: str, columns: Sequence, n: int) -> None:
        """Write ``n`` rows of the row template ``line``, row i's k-th cell
        being ``columns[k][i]`` (each column an array or a sequence),
        formatted at most :data:`CHUNK_ROWS` rows per ``%``.  Each chunk takes
        the cells of its own slice, so an array column gives ``.tolist()`` of
        that slice only."""
        width = len(columns)
        for lo in range(0, n, CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, n)
            cells = [None] * ((hi - lo) * width)
            for k, column in enumerate(columns):
                part = column[lo:hi]
                cells[k::width] = part.tolist() if isinstance(part, np.ndarray) else part
            self._file.write((line * (hi - lo)) % tuple(cells))

    def __enter__(self):
        self._file = self._path.open("w")
        self._file.write(",".join(self._header) + "\n")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._file.close()
        if exc_type is not None:
            self._path.unlink()


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    """Write the header and the rows of a whole table.  ``rows`` is a 2D float
    array or a list of rows whose every column holds one type; a float column
    is written ``%.17g``, 17 significant digits, so every double reads back
    exactly, and any other column ``%s``."""
    if isinstance(rows, np.ndarray):
        columns, first = list(rows.T), [0.0] * rows.shape[1]
    else:
        columns, first = list(zip(*rows)), rows[0] if rows else ()
    line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in first) + "\n"
    with _CSV(path, header) as table:
        table.write_rows(line, columns, len(rows))


@contextmanager
def _snapshots(stride: int, path: Path, header: Sequence[str], index: np.ndarray, columns):
    """A ``with`` block giving a run's observers: one that writes every
    ``stride``-th recorded state as the run records it, holding none, or no
    observer when ``stride`` is 0.  A state's block has one row per item,
    ``t, index, columns(state)...``, a 2D column giving a cell per axis.  The
    index text (agent number or cell centre) is formatted once per table and
    t once per block, so only the state cells go through ``%.17g`` per row;
    the bytes are those of :func:`_write_csv` on the stacked float table."""
    if stride <= 0:
        yield ()
        return
    index = ["%.17g" % v for v in np.asarray(index, dtype=float).tolist()]
    with _CSV(path, header) as table:
        def write(k, state, row, built):
            if k % stride == 0:
                cols = [c for col in columns(state) for c in (col.T if col.ndim == 2 else (col,))]
                line = "%.17g," % state.t + "%s" + ",%.17g" * len(cols) + "\n"
                table.write_rows(line, [index, *cols], len(index))
        yield [write]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        # strict JSON has no NaN or Infinity literals
        if math.isnan(obj):
            return None
        return "infinite" if math.isinf(obj) else obj
    return obj


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _certificate_payload(model: ModelSpec, d_x0: float, d_v0: float):
    """Certificate with psi = phi**2 plus the symmetric-theory phi tail on the
    same scale, or None for the vision model (its flocking analysis is open)."""
    if model.model == "vision":
        return None, None
    cert = certify(d_x0, d_v0, model.alpha, model.phi, model=model)
    tail = model.alpha * cert.psi_scale * tail_integral(model.phi, 1, d_x0)
    return cert, "diverges" if math.isinf(tail) else tail


def _run(sc: Scenario, initial, observers=(), stop=None):
    """The one checked particle run of ``simulate``, each ``sweep`` value and
    each ``compare-groups`` model, from the caller's ``initial`` ensemble:
    (record, decay verdict, certificate, symmetric-theory tail, final d_V
    ratio, fitted rate).  Every step is held to the decay bound online, but
    under vision, which has no default level (verdict and certificate None)."""
    model = sc.to_model_spec()
    check = None if model.model == "vision" else DecayObserver(model)
    record = simulate(
        initial, model, sc.dt, sc.t_final, sc.scheme,
        observers=[*observers, check] if check else observers, stop=stop,
    )
    d_x0, d_v0 = float(record.position_diameter[0]), float(record.velocity_diameter[0])
    return (
        record,
        check.report() if check else None,
        *_certificate_payload(model, d_x0, d_v0),
        float(record.velocity_diameter[-1] / d_v0) if d_v0 > 0 else 0.0,
        fit_exponential_rate(record.times, record.velocity_diameter),
    )


def _decay_block(decay) -> dict:
    """The ``decay_check`` summary block of a checked run."""
    return {key: getattr(decay, key) for key in ("passed", "worst_margin", "worst_step")}


def _failed(decay, run: str) -> List[str]:
    """The failure phrase of ``run``'s decay report: none when it passed or
    when the run has no check (vision)."""
    if decay is None or decay.passed:
        return []
    return [f"decay check failed for {run} (worst step {decay.worst_step})"]


def cmd_simulate(sc: Scenario, out: Path, args):
    initial = sc.initial_ensemble()
    axes = [f"{c}{k}" for c in "xv" for k in range(initial.d)]
    with _snapshots(
        sc.snapshot_stride, out / "snapshots.csv", ["t", "agent"] + axes,
        np.arange(initial.n), lambda s: (s.positions, s.velocities),
    ) as observers:
        record, decay, cert, comparison_tail, dv_ratio, rate = _run(sc, initial, observers)
    # the vision model has no check: its margin column is nan
    margins = np.full(len(record.times), np.nan)
    if decay is not None:
        margins[:-1] = decay.margins

    momentum_norm = np.linalg.norm(record.momentum, axis=1)
    rows = np.column_stack((
        record.times, record.position_diameter, record.velocity_diameter, momentum_norm, margins
    ))
    _write_csv(out / "diagnostics.csv", ["t", "d_x", "d_v", "momentum_norm", "decay_margin"], rows)

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
        "decay_check": None if decay is None else dict(
            _decay_block(decay), margin_per_step=decay.margins.tolist()
        ),
    }
    verdict = cert.verdict if cert else "n/a"
    _say(args, f"simulate: T={record.times[-1]:g} d_V ratio {dv_ratio:.3e} verdict {verdict}")
    return body, _failed(decay, sc.model)


def cmd_certify(sc: Scenario, out: Path, args):
    d_x0, d_v0 = diameters(sc.initial_ensemble())
    cert, comparison_tail = _certificate_payload(sc.to_model_spec(), d_x0, d_v0)
    if cert is None:
        raise ScenarioError("the vision model has no flocking certificate", key="model")
    body = {
        "scenario": scenario_to_dict(sc),
        "initial": {"d_x": d_x0, "d_v": d_v0},
        "certificate": cert.to_json_dict(),
        "symmetric_theory_tail": comparison_tail,
    }
    _say(args, f"certify: verdict {cert.verdict}")
    return body, []


def cmd_verify_lemma(_, out: Path, args):
    if args.seed is None:
        raise ScenarioError("verify-lemma needs a seed (--seed)", key="seed")
    if not 0 <= args.seed < 2**64:
        raise ScenarioError("out of range: must lie in 0..2**64-1", key="seed")

    rng = SplitMix64(args.seed)
    cases = 1000
    violations = 0
    worst_slack = math.inf
    for case in range(cases):
        n = 2 + rng.next_u64() % 7  # 2..8
        u, w = rng.uniform_array((2, n))
        if case % 2:  # two-level: each entry 1 or 1e-3
            u, w = np.where(u < 0.5, 1.0, 1e-3), np.where(w < 0.5, 1.0, 1e-3)
        # of every antisymmetric S with |S_ij| <= 1, this one has the largest |u^T S w|
        s = np.sign(np.outer(u, w) - np.outer(w, u))
        thetas = [rng.uniform(1e-3, 1.0), 0.5 / n, 1.0 / n, 2.0 / n]
        for theta in thetas:
            res = lemma_action_bound(s, u, w, theta)
            # a two-level case with u = w has S = 0 and slack 0 at every
            # level, which shows nothing: the worst slack is taken over the
            # cases with m*U*W > 0, i.e. S != 0
            if s.any():
                worst_slack = min(worst_slack, res.rhs - res.lhs)
            if not res.holds:
                violations += 1
    body = {
        "seed": args.seed,
        "scenario": None,
        "cases": cases,
        "violations": violations,
        "worst_slack": worst_slack,
    }
    _say(args, f"verify-lemma: {cases} cases, {violations} violations")
    return body, [f"lemma bound broken in {violations} cases"] if violations else []


def cmd_hydro(sc: Scenario, out: Path, args):
    # any other model or scheme would run this mt limit's Euler step under its name
    if sc.model != "mt":
        raise ScenarioError("hydro is the mt model's limit: model must be mt", key="model")
    if sc.scheme != "euler":
        raise ScenarioError("hydro steps by explicit Euler: scheme must be euler", key="scheme")
    state = sc.initial_hydro_state()
    phi = sc.build_phi()

    def stepper(s):
        return None, step_eulerian(s, phi, sc.alpha, sc.dt)

    def measure(s):
        return (float(s.t), *hydro_diameters(s, sc.hydro_epsilon), s.total_mass)

    stamps = step_times(state.t, sc.dt, sc.t_final)
    with _snapshots(
        sc.snapshot_stride, out / "fields.csv", ["t", "x", "rho", "u"], state.centers,
        lambda s: (s.rho, s.u),
    ) as observers:
        diag_rows = march(state, stepper, measure, stamps, observers)
    _, d_x0, d_v0, mass0 = diag_rows[0]
    cert = certify(d_x0, d_v0, sc.alpha, phi)

    diag = np.array(diag_rows)
    _write_csv(out / "diagnostics.csv", ["t", "d_x", "d_v", "mass"], diag)
    # every recorded mass is positive: a donor-cell step keeps at least
    # (1 - CFL) of each cell's mass, and initial_hydro_state refuses a massless profile
    mass = diag[:, 3]

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
        "max_step_mass_drift": float(np.max(np.abs(np.diff(mass)) / mass[:-1])),
        "certificate": cert.to_json_dict(),
    }
    _say(args, f"hydro: {len(stamps)} steps, d_V ratio {body['final']['d_v_ratio']:.3e}")
    return body, []


def cmd_sweep(sc: Scenario, out: Path, args):
    rows, failed = [], []
    for value, point in sweep_points(sc, args.parameter, args.values):
        _, decay, cert, _, ratio, rate = _run(point, point.initial_ensemble())
        passed = None if decay is None else decay.passed
        rows.append((value, ratio, rate, cert.verdict if cert else "n/a", passed))
        failed += _failed(decay, f"{args.parameter} = {value}")
    header = [args.parameter, "final_d_v_ratio", "fitted_rate", "verdict"]
    _write_csv(out / "sweep.csv", header, [row[:4] for row in rows])
    keys = ("value", "final_d_v_ratio", "fitted_rate", "verdict", "decay_check_passed")
    body = {
        "scenario": scenario_to_dict(sc),
        "parameter": args.parameter,
        "rows": [dict(zip(keys, row)) for row in rows],
    }
    _say(args, f"sweep {args.parameter}: " + ", ".join(f"{r[0]}->{r[3]}" for r in rows))
    return body, failed


def cmd_compare_groups(sc: Scenario, out: Path, args):
    initial = sc.initial_ensemble()
    if sc.ic_kind != "two-group":
        raise ScenarioError("compare-groups needs kind = two-group", key="kind")
    n1 = sc.n1
    d_v0 = diameter(initial.velocities[:n1])
    if d_v0 == 0.0:
        raise ScenarioError(
            "group 1 starts aligned (zero velocity spread, as with N1 = 1 or "
            "vel_min = vel_max): there is no alignment to compare"
        )
    runs, diag_rows, failed = {}, [], []
    for model_kind in ("cs", "mt"):
        spread = [d_v0]  # group 1's velocity diameter at every recorded state

        def group1_aligned(state) -> bool:
            spread.append(diameter(state.velocities[:n1]))
            return spread[-1] <= 0.4 * d_v0

        # the whole ensemble is held to the decay bound at every step taken;
        # the run ends early once group 1 is down to 0.4 of its start
        record, decay, *_ = _run(sc._replace(model=model_kind), initial, stop=group1_aligned)
        runs[model_kind] = (record.times, np.array(spread), decay)
        failed += _failed(decay, model_kind)
        diag_rows.extend((model_kind, t, dv) for t, dv in zip(record.times.tolist(), spread))
    _write_csv(out / "diagnostics.csv", ["model", "t", "g1_d_v"], diag_rows)

    # initial alignment rates over a shared early window, the shorter horizon:
    # the tail of a halted run is flat, so only the early phase compares the two fairly
    window = min(float(times[-1]) for times, *_ in runs.values())
    results, early = {}, {}
    for model_kind, (times, series, decay) in runs.items():
        halved = np.flatnonzero(series <= 0.5 * d_v0)
        keep = times <= window
        early[model_kind] = fit_exponential_rate(times[keep], series[keep])
        results[model_kind] = {
            "halving_time": float(times[halved[0]]) if halved.size else None,
            "horizon": float(times[-1]),
            "fitted_rate": fit_exponential_rate(times, series),
            "final_ratio": float(series[-1] / d_v0),
            "decay_check": _decay_block(decay),
        }
    t_cs, t_mt = results["cs"]["halving_time"], results["mt"]["halving_time"]
    # averaging over the huge remote group can halt the cs dynamics entirely;
    # if halving never happens within the horizon, the ratio is a lower bound
    cs_halved = t_cs is not None
    ratio = None if t_mt is None else (t_cs if cs_halved else results["cs"]["horizon"]) / t_mt
    # no ratio to a cs rate of exactly 0 (a flat run); a NaN rate gives NaN,
    # written null
    rate_ratio = None if early["cs"] == 0.0 else early["mt"] / early["cs"]

    body = {
        "scenario": scenario_to_dict(sc),
        "group1_size": n1,
        "cs": results["cs"],
        "mt": results["mt"],
        "cs_halved_within_horizon": cs_halved,
        "halving_time_ratio_cs_over_mt": ratio,
        "ratio_is_lower_bound": (ratio is not None) and not cs_halved,
        "rate_window": window,
        "rate_ratio_mt_over_cs": rate_ratio,
    }
    shown = "n/a" if ratio is None else f"{'>= ' if not cs_halved else ''}{ratio:.2f}"
    _say(args, f"compare-groups: halving-time ratio cs/mt = {shown}")
    return body, failed


_COMMANDS = {
    "simulate": cmd_simulate,
    "certify": cmd_certify,
    "verify-lemma": cmd_verify_lemma,
    "hydro": cmd_hydro,
    "sweep": cmd_sweep,
    "compare-groups": cmd_compare_groups,
}


USAGE = (
    "usage: flocklab COMMAND [--config PATH] [--out DIR] [--seed N] [--quiet] [PARAMETER VALUES]"
)

HELP = f"""{USAGE}

Alignment-dynamics simulation and verification lab.

COMMAND: {", ".join(_COMMANDS)}
The flags follow it in any order, a valued one as --flag VALUE or --flag=VALUE.
  --config PATH      scenario document: required, but verify-lemma takes none
  --out DIR          output directory (default .)
  --seed N           override the scenario seed
  --quiet            print no progress line
  PARAMETER VALUES   sweep only: one of {", ".join(SWEEPABLE_KEYS)}, then
                     comma-separated values
  -h, --help         print this text
  --version          print the version"""


class Args:
    """One parsed command line: the command, its flags and sweep's positionals."""

    def __init__(self, command: str):
        self.command = command
        self.config: Optional[str] = None
        self.out = "."
        self.seed: Optional[int] = None
        self.quiet = False
        self.parameter: Optional[str] = None
        self.values: Optional[str] = None


def parse_args(argv: Sequence[str]) -> Args:
    """Parse ``COMMAND [--config PATH] [--out DIR] [--seed N] [--quiet]``, plus
    ``PARAMETER VALUES`` for sweep.  A flag is a word that starts with ``--``;
    every other word after the command is a positional, so a sweep value list
    may start with ``-``.  ``-h``/``--help`` or ``--version`` anywhere makes
    the command that word.  A usage error raises ``ValueError``."""
    for word in argv:
        if word in ("-h", "--help", "--version"):
            return Args(command=word)
    if not argv or argv[0] not in _COMMANDS:
        raise ValueError(f"the first word must be a command: {', '.join(_COMMANDS)}")
    args, positionals = Args(command=argv[0]), []
    words = iter(argv[1:])
    for word in words:
        name, eq, value = word.partition("=")
        if word == "--quiet":
            args.quiet = True
        elif name in ("--config", "--out", "--seed"):
            if not eq:
                value = next(words, None)
                if value is None or value.startswith("--"):
                    raise ValueError(f"{name} needs a value")
            try:
                setattr(args, name[2:], int(value) if name == "--seed" else value)
            except ValueError:
                raise ValueError(f"--seed needs an integer, not {value!r}") from None
        elif word.startswith("--"):
            raise ValueError(f"unknown flag {word}")
        else:
            positionals.append(word)
    if args.command == "verify-lemma":
        if args.config is not None:
            raise ValueError("verify-lemma reads no scenario: it takes no --config")
    elif not args.config:
        raise ValueError(f"{args.command} needs --config PATH")
    if args.command == "sweep":
        if len(positionals) != 2:
            raise ValueError("sweep needs exactly two positionals, PARAMETER VALUES")
        args.parameter, args.values = positionals
    elif positionals:
        raise ValueError(f"unexpected argument {positionals[0]!r}")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"{USAGE}\nerror: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.command in ("-h", "--help", "--version"):
        print(__version__ if args.command == "--version" else HELP)
        return EXIT_OK
    out, created = Path(args.out), None
    try:
        sc = parse_scenario(Path(args.config).read_text()) if args.config else None
        if sc is not None and args.seed is not None:
            sc = with_override(sc, seed=args.seed)
        # the outermost directory this run creates, removed again if it exits 2 or 3
        created = next((p for p in (*reversed(out.parents), out) if not p.exists()), None)
        out.mkdir(parents=True, exist_ok=True)
        body, failed = _COMMANDS[args.command](sc, out, args)
        summary = {"command": args.command, "prng": PRNG_ID, **body}
        text = json.dumps(_jsonable(summary), indent=2, allow_nan=False) + "\n"
        (out / "summary.json").write_text(text)
        if failed:
            print(f"{args.command}: {'; '.join(failed)}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        return EXIT_OK
    except (ScenarioError, OSError, UnicodeDecodeError) as exc:
        error, code = exc, EXIT_BAD_INPUT
    # any other ValueError is an invariant the run broke, such as a matrix row
    # that does not sum to 1, on a document that was valid
    except (FloatingPointError, FlockLabError, MemoryError, ValueError) as exc:
        error, code = exc, EXIT_RUNTIME
    print(f"error: {str(error) or 'out of memory'}", file=sys.stderr)
    if created is not None:
        shutil.rmtree(created, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
