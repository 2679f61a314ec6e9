"""Tracer bookkeeping: parents, self times, hook removal, absent hooks."""

import importlib

import pytest

from spans import HOOKS, LAYER_METRICS, Tracer, layer_metrics, self_times

MT_DOC = """[model]
model = mt
phi = power-law
s = 0.5
alpha = 1
[initial]
N = 6
seed = 3
[integration]
dt = 0.05
T = 0.5
"""


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def _busy():
    return sum(range(20000))


def test_self_time_adds_up_to_span_duration():
    tracer = Tracer()
    leaf = tracer.span("leaf", _busy)

    def middle_body():
        leaf()
        leaf()
        return _busy()

    middle = tracer.span("middle", middle_body)
    root = tracer.span("root", lambda: (middle(), leaf(), _busy()))
    root()

    spans = tracer.spans
    assert [(s[0], s[1]) for s in spans] == [
        ("root", None), ("middle", 0), ("leaf", 1), ("leaf", 1), ("leaf", 0)
    ]
    own = self_times(spans)
    for i, (_, _, start, end, _) in enumerate(spans):
        children = [s[3] - s[2] for s in spans if s[1] == i]
        assert own[i] > 0
        assert own[i] + sum(children) == pytest.approx(end - start, rel=1e-12, abs=1e-12)


def test_hooks_are_removed_after_a_traced_run(tmp_path):
    from flocklab import cli

    before = {(m, p): _resolve(m, p) for m, p, _, _ in HOOKS}
    cfg = tmp_path / "mt.cfg"
    cfg.write_text(MT_DOC)
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert all(_resolve(m, p) is not fn for (m, p), fn in before.items())
        run = tracer.span("cli.main", cli.main)
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    finally:
        tracer.remove()
    assert all(_resolve(m, p) is fn for (m, p), fn in before.items())

    metrics = layer_metrics(tracer.spans, tracer.absent)
    assert metrics["dynamics.steps"] == 10
    assert metrics["influence.builds_per_step"] == 2  # integrator plus verifier rebuild
    assert metrics["dynamics.snapshots_held"] == 11
    assert metrics["rng.draws"] == 24
    assert metrics["hydro.steps"] == 0


def test_missing_hook_target_is_reported_absent():
    hooks = [("flocklab.cli", "verify_diameter_decay_gone", "activeset.verify", None),
             ("flocklab.rng", "NoSuchClass.uniform_array", "rng.fill", None),
             ("flocklab.dynamics", "rhs", "dynamics.rhs", None)]
    tracer = Tracer()
    tracer.install(hooks)
    tracer.remove()
    assert tracer.absent == ["activeset.verify", "rng.fill"]
    metrics = layer_metrics([], tracer.absent)
    assert metrics["activeset.verify_s"] is None
    assert metrics["rng.draws"] is None
    assert metrics["dynamics.matvec_s"] == 0
    assert set(metrics) >= set(LAYER_METRICS)
