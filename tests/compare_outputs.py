"""Check that a change to flocklab leaves every output byte as it was.

    python tests/compare_outputs.py PARENT_SRC

runs each case twice, once on the flocklab package under ``PARENT_SRC``
(the ``src`` directory of another checkout) and once on ``./src``, each run
a child interpreter in a fresh temporary directory.  The cases are every
scenario document of the corpus (``tests/documents`` and ``examples``, run
by the command line in its header) and each benchmark workload of
``perfbench/workloads.py`` at seeds 1 and 5, run as the benchmark runs it.
The two runs of a case must agree in exit code, stdout, stderr and the bytes
of every file they leave.  Prints one line per case and exits 1 on any
difference.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import corpus

ROOT = corpus.ROOT
SEEDS = (1, 5)


def workloads():
    """The benchmark's workloads, imported without writing under perfbench/."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    return WORKLOADS


def cases():
    """(name, argv, scenario text or None) per case; a scenario text is
    written to ``scenario.cfg`` in the run's directory."""
    for doc in corpus.DOCUMENTS:
        yield doc.relative_to(ROOT).as_posix(), corpus.read(doc)[0], None
    for name, wl in workloads().items():
        for seed in SEEDS:
            argv = [wl.argv[0], "--config", "scenario.cfg", "--out", "out",
                    "--seed", str(seed), "--quiet", *wl.argv[1:]]
            yield f"{name} --seed {seed}", argv, wl.scenario(seed)


def run(src: Path, argv, scenario):
    """Exit code, stdout, stderr and every file left, run on the flocklab under src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as cwd:
        if scenario is not None:
            (Path(cwd) / "scenario.cfg").write_text(scenario)
        done = subprocess.run([sys.executable, "-m", "flocklab", *argv], cwd=cwd, env=env,
                              capture_output=True, timeout=600)
        return done.returncode, done.stdout, done.stderr, corpus.files(Path(cwd))


def differences(parent, child) -> list:
    """What differs between two runs, as one phrase each."""
    (code_a, out_a, err_a, files_a), (code_b, out_b, err_b, files_b) = parent, child
    found = [f"exit {code_a} -> {code_b}"] if code_a != code_b else []
    found += [f"{stream} differs" for stream, a, b in (("stdout", out_a, out_b),
                                                         ("stderr", err_a, err_b)) if a != b]
    changed = sorted(n for n in files_a.keys() | files_b.keys() if files_a.get(n) != files_b.get(n))
    return found + ([f"files differ: {changed}"] if changed else [])


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tests/compare_outputs.py PARENT_SRC", file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    if not (parent / "flocklab" / "__init__.py").is_file():
        print(f"error: no flocklab package under {parent}", file=sys.stderr)
        return 2
    failed = 0
    for name, args, scenario in cases():
        found = differences(run(parent, args, scenario), run(ROOT / "src", args, scenario))
        failed += bool(found)
        print(f"DIFF {name}: {'; '.join(found)}" if found else f"same {name}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
