"""One benchmark sample in a fresh process: set up, run the CLI once, report.

    python3 perfbench/child.py SPEC.json

SPEC.json holds the source directory, the scenario path, the scenario
fields the set-up applies, the CLI argv, whether to trace, and where to
write spans.  The last stdout line is a JSON record with the exit code, the
monotonic time at which the initial state was ready, the wall time of
``flocklab.cli.main`` and the peak resident memory.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def peak_rss_mib() -> float:
    """High-water resident memory of this process image.

    resource.getrusage's ru_maxrss is not used: Linux folds the parent's
    peak into it at exec, so a child of a large parent reads large.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import flocklab
    from flocklab import cli
    from flocklab.scenario import parse_scenario, with_override

    if Path(flocklab.__file__).resolve().parent.parent != Path(spec["src"]).resolve():
        raise SystemExit(f"flocklab was imported from {flocklab.__file__}, not {spec['src']}")
    sc = with_override(parse_scenario(Path(spec["config"]).read_text()), **spec["override"])
    if spec["hydro"]:
        sc.initial_hydro_state()
    else:
        sc.initial_ensemble()
    ready = time.monotonic()

    tracer = None
    run = cli.main
    if spec["trace"]:
        from spans import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.span(ROOT_SPAN, cli.main)
    start = time.perf_counter()
    try:
        rc = run(spec["argv"])
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.remove()
    if tracer is not None:
        Path(spec["spans_out"]).write_text(
            json.dumps({"spans": tracer.spans, "absent": tracer.absent})
        )
    print(json.dumps({"rc": rc, "ready": ready, "wall_s": wall, "peak_rss_mb": peak_rss_mib()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
