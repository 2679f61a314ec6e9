"""Call spans around flocklab's public functions and the per-layer metrics
derived from them.

flocklab modules import names directly (``from .dynamics import simulate``),
so a hook must replace the name in the namespace where the caller looks it
up; patching only the defining module would miss those calls.  Spans stay in
memory as ``[name, parent, start, end, work]`` lists, parents before their
children, and are written out once the traced command returns.

A span's self time is its duration minus the durations of its direct
children.  ``work`` is a count taken from the call's result (draws made,
kernel entries evaluated, snapshots held).
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional

import numpy as np

# (module, attribute looked up there, span name, work counted from the result)
HOOKS = (
    ("flocklab.cli", "parse_scenario", "scenario.parse", None),
    ("flocklab.cli", "simulate", "dynamics.simulate", lambda r: len(r.snapshots)),
    ("flocklab.cli", "step", "dynamics.step", None),
    ("flocklab.cli", "diameters", "dynamics.diameters", None),
    ("flocklab.cli", "verify_diameter_decay", "activeset.verify", None),
    ("flocklab.cli", "step_eulerian", "hydro.step", None),
    ("flocklab.cli", "hydro_diameters", "hydro.diameters", None),
    ("flocklab.cli", "certify", "flocking.certify", None),
    ("flocklab.cli", "fit_exponential_rate", "flocking.fit", None),
    ("flocklab.dynamics", "build_matrix", "influence.build", None),
    ("flocklab.dynamics", "rhs", "dynamics.rhs", None),
    ("flocklab.dynamics", "step", "dynamics.step", None),
    ("flocklab.dynamics", "diameters", "dynamics.diameters", None),
    ("flocklab.activeset", "build_matrix", "activeset.rebuild", None),
    ("flocklab.activeset", "active_sets", "activeset.active_sets", None),
    ("flocklab.influence", "pairwise_distances", "influence.distances", None),
    ("flocklab.influence", "eval_influence", "influence.kernel", np.size),
    # the average returns one value per cell from an n x n kernel
    ("flocklab.hydro", "nonlocal_average", "hydro.nonlocal_average", lambda r: r.size**2),
    ("flocklab.rng", "SplitMix64.uniform_array", "rng.fill", np.size),
    ("flocklab.influence", "InfluenceMatrix.__post_init__", "influence.validate", None),
)

ROOT_SPAN = "cli.main"

# metric -> (unit, better, aggregate, span names).  Aggregates: "total" sums
# span durations, "self" sums self times, "calls" counts spans, "work" sums
# their work counts, "max_work" takes the largest.
LAYER_METRICS = {
    "scenario.parse_s": ("s", "lower", "total", ("scenario.parse",)),
    "rng.fill_s": ("s", "lower", "total", ("rng.fill",)),
    "rng.draws": ("count", "lower", "work", ("rng.fill",)),
    "influence.build_s": ("s", "lower", "total", ("influence.build", "activeset.rebuild")),
    "influence.builds": ("count", "lower", "calls", ("influence.build", "activeset.rebuild")),
    "influence.distances_s": ("s", "lower", "total", ("influence.distances",)),
    "influence.kernel_s": ("s", "lower", "total", ("influence.kernel",)),
    "influence.kernel_evals": ("count", "lower", "work", ("influence.kernel",)),
    "influence.validate_s": ("s", "lower", "total", ("influence.validate",)),
    "dynamics.step_s": ("s", "lower", "total", ("dynamics.step",)),
    "dynamics.steps": ("count", "higher", "calls", ("dynamics.step",)),
    "dynamics.matvec_s": ("s", "lower", "self", ("dynamics.rhs",)),
    "dynamics.diameters_s": ("s", "lower", "total", ("dynamics.diameters",)),
    "dynamics.diameter_calls": ("count", "lower", "calls", ("dynamics.diameters",)),
    "dynamics.snapshots_held": ("count", "lower", "max_work", ("dynamics.simulate",)),
    "activeset.verify_s": ("s", "lower", "total", ("activeset.verify",)),
    "activeset.active_sets_s": ("s", "lower", "total", ("activeset.active_sets",)),
    "activeset.active_set_calls": ("count", "lower", "calls", ("activeset.active_sets",)),
    "activeset.rebuild_s": ("s", "lower", "total", ("activeset.rebuild",)),
    "flocking.certify_s": ("s", "lower", "total", ("flocking.certify",)),
    "flocking.fit_s": ("s", "lower", "total", ("flocking.fit",)),
    "hydro.step_s": ("s", "lower", "total", ("hydro.step",)),
    "hydro.steps": ("count", "higher", "calls", ("hydro.step",)),
    "hydro.nonlocal_average_s": ("s", "lower", "total", ("hydro.nonlocal_average",)),
    "hydro.kernel_entries": ("count", "lower", "work", ("hydro.nonlocal_average",)),
    "hydro.diameters_s": ("s", "lower", "total", ("hydro.diameters",)),
    "cli.self_s": ("s", "lower", "self", (ROOT_SPAN,)),
}

# Every per-layer metric -> (unit, better), including those computed outside
# the span table: builds per step here, output bytes and tracing overhead by
# the harness.
PER_LAYER = {m: (unit, better) for m, (unit, better, _, _) in LAYER_METRICS.items()}
PER_LAYER.update({
    "influence.builds_per_step": ("ratio", "lower"),
    "cli.output_bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


class Tracer:
    """Installs the hooks, records spans, and restores every patched name."""

    def __init__(self):
        self.spans: List[list] = []
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def span(self, name: str, fn: Callable, work: Optional[Callable] = None) -> Callable:
        """Wrap fn so that each call records one span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, self._stack[-1] if self._stack else None, time.perf_counter(), None, 0]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                record[4] = int(work(result))
            return result

        return traced

    def install(self, hooks=HOOKS) -> None:
        """Patch each hook target; a target that no longer exists is listed in
        ``absent`` and skipped."""
        installed = set()
        for module_name, path, span_name, work in hooks:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            setattr(owner, attr, self.span(span_name, original, work))
            self._patches.append((owner, attr, original))
            installed.add(span_name)
        self.absent = sorted({h[2] for h in hooks} - installed)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: List[list]) -> List[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_metrics(spans: List[list], absent: List[str]) -> Dict[str, Optional[float]]:
    """Per-layer metrics of one traced run; None marks a metric whose every
    hook target is absent from the program."""
    own = self_times(spans)
    metrics: Dict[str, Optional[float]] = {}
    for metric, (_, _, how, names) in LAYER_METRICS.items():
        if all(n in absent for n in names):
            metrics[metric] = None
            continue
        picked = [i for i, s in enumerate(spans) if s[0] in names]
        if how == "total":
            value = sum(spans[i][3] - spans[i][2] for i in picked)
        elif how == "self":
            value = sum(own[i] for i in picked)
        elif how == "calls":
            value = len(picked)
        elif how == "work":
            value = sum(spans[i][4] for i in picked)
        else:
            value = max((spans[i][4] for i in picked), default=0)
        metrics[metric] = value
    steps, builds = metrics["dynamics.steps"], metrics["influence.builds"]
    metrics["influence.builds_per_step"] = (
        None if steps is None or builds is None else (builds / steps if steps else 0.0)
    )
    return metrics
