"""The output comparison tool, tests/compare_outputs.py, on hand-made runs:
every byte-identity claim of a refactor rests on it.  No test here starts a
child process."""

import subprocess
import sys

import pytest

import compare_outputs
import corpus

RUN = (0, b"simulate: ok\n", b"", {"out/summary.json": b"{}", "out/diagnostics.csv": b"t\n0\n"})


@pytest.fixture(autouse=True)
def no_children(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("started a child process")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)


def changed(code=None, stdout=None, stderr=None, files=None):
    """RUN with the given parts replaced."""
    parts = (code, stdout, stderr, files)
    return tuple(new if new is not None else old for new, old in zip(parts, RUN))


def test_identical_runs_have_no_differences():
    assert compare_outputs.differences(RUN, changed(files=dict(RUN[3]))) == []


@pytest.mark.parametrize(
    "child,found",
    [
        (changed(code=2), ["exit 0 -> 2"]),
        (changed(stdout=b"simulate: other\n"), ["stdout differs"]),
        (changed(stderr=b"error: x\n"), ["stderr differs"]),
        (changed(files={**RUN[3], "out/summary.json": b"{ }"}), ["files differ: ['out/summary.json']"]),
        (changed(files={"out/summary.json": b"{}"}), ["files differ: ['out/diagnostics.csv']"]),
        (changed(files={**RUN[3], "out/extra.csv": b"x"}), ["files differ: ['out/extra.csv']"]),
        (
            changed(code=3, stderr=b"error: x\n", files={}),
            ["exit 0 -> 3", "stderr differs",
             "files differ: ['out/diagnostics.csv', 'out/summary.json']"],
        ),
    ],
    ids=["exit", "stdout", "stderr", "changed-file", "missing-file", "extra-file", "all"],
)
def test_differences_names_each_part_that_differs(child, found):
    assert compare_outputs.differences(RUN, child) == found


def test_cases_are_each_document_once_then_each_workload_at_seeds_1_and_5(monkeypatch):
    # workloads() puts perfbench/ on sys.path and stops bytecode writes there
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    found = list(compare_outputs.cases())
    docs = corpus.DOCUMENTS
    assert [name for name, _, _ in found[: len(docs)]] == [
        doc.relative_to(corpus.ROOT).as_posix() for doc in docs
    ]
    for doc, (_, argv, scenario) in zip(docs, found):
        assert argv == corpus.read(doc)[0] and scenario is None
    workloads = compare_outputs.workloads()
    runs = [(wl, seed) for wl in workloads.values() for seed in (1, 5)]
    assert len(workloads) >= 2 and len(found) == len(docs) + len(runs)
    for (wl, seed), (name, argv, scenario) in zip(runs, found[len(docs):]):
        assert name == f"{wl.name} --seed {seed}"
        assert argv == [wl.argv[0], "--config", "scenario.cfg", "--out", "out",
                        "--seed", str(seed), "--quiet", *wl.argv[1:]]
        assert scenario == wl.scenario(seed)


def test_main_rejects_a_bad_command_line_before_running_anything(tmp_path, capsys):
    assert compare_outputs.main([]) == 2
    assert compare_outputs.main([str(tmp_path)]) == 2
    assert "no flocklab package" in capsys.readouterr().err
