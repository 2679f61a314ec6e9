"""Run every scenario document under tests/documents/ and examples/ as a user
would, on numpy alone, and check what each one promises.

A document's header comment names the command line it runs and what the run
must leave behind, paths relative to the directory the command runs in:

    #   python -m flocklab COMMAND --config PATH --out DIR [ARGS]
    # exit: 3                      the exit code (0 when not stated)
    # writes: DIR/summary.json     every file the run leaves, and no other;
    #                              each one must be non-empty
    # absent: DIR                  paths that must not exist afterwards
    # stderr: error: ...           all of stderr, one line (empty when not stated)

``--config`` is replaced by the document's own path.  Each run is a child
interpreter in a fresh directory, with scipy and numpy.ma blocked (``None``
in ``sys.modules``) before flocklab is imported, so a command that imports
either fails.  A document that exits 0 runs twice, and the second run must
write the same bytes.

    PYTHONPATH=src python tests/corpus.py

prints one line per document and exits 1 if any document breaks a promise.
"""

import itertools
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = sorted((ROOT / "tests" / "documents").glob("*.cfg")) + sorted(
    (ROOT / "examples").glob("*.cfg")
)
COMMAND = re.compile(r"#\s+python -m flocklab (.+)")
FIELD = re.compile(r"# (exit|writes|absent|stderr):(.*)")
CHILD = (
    "import sys; sys.modules['scipy'] = sys.modules['numpy.ma'] = None; "
    "from flocklab.cli import main; sys.exit(main(sys.argv[1:]))"
)
# the children run in other directories, so a relative PYTHONPATH is made absolute
ENV = dict(os.environ)
if ENV.get("PYTHONPATH"):
    ENV["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath, ENV["PYTHONPATH"].split(os.pathsep)))


def read(doc: Path):
    """The document's argv and its promises: exit code, files, absent paths, stderr."""
    lines = doc.read_text().splitlines()
    header = list(itertools.takewhile(lambda line: line.startswith("#"), lines))
    argv = next(m[1].split() for m in map(COMMAND.fullmatch, header) if m)
    if "--config" in argv:
        argv[argv.index("--config") + 1] = str(doc)
    fields = {m[1]: m[2].strip() for m in map(FIELD.fullmatch, header) if m}
    stderr = fields.get("stderr")
    return (argv, int(fields.get("exit", 0)), sorted(fields.get("writes", "").split()),
            fields.get("absent", "").split(), "" if stderr is None else stderr + "\n")


def files(top: Path) -> dict:
    return {p.relative_to(top).as_posix(): p.read_bytes() for p in top.rglob("*") if p.is_file()}


def check(doc: Path) -> list:
    """Every promise the document breaks, as one phrase each."""
    argv, code, writes, absent, stderr = read(doc)
    problems, outputs = [], []
    for _ in range(2 if code == 0 else 1):
        with tempfile.TemporaryDirectory() as cwd:
            done = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=cwd, env=ENV,
                                  capture_output=True, text=True, timeout=600)
            left = files(Path(cwd))
            if done.returncode != code:
                last = done.stderr.strip().splitlines()[-1:]
                problems.append(f"exit {done.returncode}, not {code} {last}")
            if done.stderr != stderr:
                problems.append(f"stderr {done.stderr!r}")
            if sorted(left) != writes:
                problems.append(f"wrote {sorted(left)}")
            problems += [f"wrote an empty {name}" for name, body in left.items() if not body]
            problems += [f"left {path}" for path in absent if (Path(cwd) / path).exists()]
        outputs.append(left)
        if problems:
            break
    if len(outputs) == 2 and outputs[0] != outputs[1]:
        changed = sorted(name for name in outputs[0] if outputs[0][name] != outputs[1].get(name))
        problems.append(f"a second run wrote other bytes to {changed}")
    return problems


def main() -> int:
    failed = 0
    for doc in DOCUMENTS:
        problems = check(doc)
        failed += bool(problems)
        name = doc.relative_to(ROOT).as_posix()
        print(f"FAIL {name}: {'; '.join(problems)}" if problems else f"ok   {name}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
