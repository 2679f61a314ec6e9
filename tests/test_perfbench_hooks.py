"""Every perfbench hook target still names something in flocklab.

perfbench times layers by patching the names in ``perfbench/spans.HOOKS``,
and a target that no longer resolves is skipped silently, so its metric
reads 0.  Three targets are known to be gone (ROADMAP item 1); any other
that stops resolving fails here.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
KNOWN_DEAD = {
    ("flocklab.cli", "step"),
    ("flocklab.cli", "verify_diameter_decay"),
    ("flocklab.activeset", "build_matrix"),
}


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.HOOKS


def resolves(module_name: str, path: str) -> bool:
    # as Tracer.install looks it up: the last name must be the owner's own
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return owner is not None and vars(owner).get(attr) is not None


def test_only_the_known_dead_hook_targets_fail_to_resolve():
    hooks = load_hooks()
    assert hooks
    dead = {(module, path) for module, path, _, _ in hooks if not resolves(module, path)}
    assert dead <= KNOWN_DEAD

