"""Self-tests for the benchmark: ``python3 -m pytest perfbench -q``.

They use the small ``--smoke`` corpora, so the whole file runs in about a
minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import corpora  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from knowspan.corpus import build_citation_graph, parse_corpus  # noqa: E402

WORKLOADS = run.workloads(smoke=True)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _write(shape, seed, path):
    return corpora.write_corpus(corpora.generate(shape, seed), shape, seed, str(path))


def test_generator_is_byte_identical_per_seed(tmp_path):
    shape = WORKLOADS["aps-shaped"].shape
    first = _write(shape, 5, tmp_path / "a.jsonl")
    second = _write(shape, 5, tmp_path / "b.jsonl")
    other = _write(shape, 6, tmp_path / "c.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert first == second
    assert (tmp_path / "a.jsonl").read_bytes() != (tmp_path / "c.jsonl").read_bytes()
    assert other != first


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_recorded_injections_match_the_library(tmp_path, workload):
    shape = run.workloads()[workload].shape  # full size: every corruption occurs
    expected = _write(shape, 9, tmp_path / "corpus.jsonl")
    with open(tmp_path / "corpus.jsonl", encoding="utf-8") as fh:
        corpus, report = parse_corpus(fh)
    graph = build_citation_graph(corpus)
    assert (report.n_records, report.n_skipped, dict(report.skip_reasons)) == (
        expected.records, expected.skipped, expected.skip_reasons)
    assert (graph.n_edges, graph.n_dropped_out_of_corpus, graph.n_dropped_year_order) == (
        expected.edges, expected.dropped_out_of_corpus, expected.dropped_year_order)
    if shape.rough:
        assert expected.skipped and expected.dropped_out_of_corpus and expected.dropped_year_order
        assert set(expected.skip_reasons) == set(corpora.CORRUPTIONS)
    else:
        assert expected.skipped == expected.dropped_out_of_corpus == 0


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """Set-up and two timed runs of the small rescore workload."""
    work = str(tmp_path_factory.mktemp("work"))
    workload = WORKLOADS["rescore"]
    setup = run.do_setup(workload, 4, os.path.join(work, "setup"), None)
    runs = [run.do_timed_run(workload, 4, setup, i, work, None) for i in range(2)]
    return workload, setup, runs


def _checked(setup, runs, tmp_path, corrupt=None):
    """Problems of fresh copies of ``runs``, the last one passed to ``corrupt``."""
    copies = []
    for timed, outdir in runs:
        copy = str(tmp_path / os.path.basename(outdir))
        shutil.copytree(outdir, copy)
        timed = run.TimedRun(timed.index, False, timed.wall_s, timed.peak_rss_mb,
                             timed.processes, [], {})
        copies.append((timed, copy))
    if corrupt:
        corrupt(copies[-1][1])
    run.check_runs(copies, setup, 4)
    return [timed.problems for timed, _ in copies]


def test_clean_runs_pass(two_runs, tmp_path):
    _, setup, runs = two_runs
    assert _checked(setup, runs, tmp_path) == [[], []]


def _edit_cell(name, pid, column, change):
    """Corrupter that rewrites one cell of one CSV row."""

    def corrupt(outdir):
        path = os.path.join(outdir, name)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        col = lines[0].split(",").index(column)
        for i, line in enumerate(lines):
            cells = line.split(",")
            if cells[0] == pid:
                cells[col] = change(cells[col])
                lines[i] = ",".join(cells)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    return corrupt


def _remove(name):
    return lambda outdir: os.remove(os.path.join(outdir, name))


def _truncate(name):
    def corrupt(outdir):
        path = os.path.join(outdir, name)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])

    return corrupt


def _edit_report(outdir):
    path = os.path.join(outdir, "parse_report.json")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["n_skipped"] += 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def _plus_one(cell):
    return str(int(cell) + 1)


def _nudge(cell):
    return repr(float(cell) * (1 + 1e-9))


CORRUPTIONS = {
    "disruption-count": lambda pid: _edit_cell("disruption.csv", pid, "d_n_k", _plus_one),
    "merged-count": lambda pid: _edit_cell("metrics.csv", pid, "d_n_j", _plus_one),
    "article-distance": lambda pid: _edit_cell("metrics.csv", pid, "article_distance", _nudge),
    "network-distance": lambda pid: _edit_cell("metrics.csv", pid, "network_distance", _nudge),
    "missing-artifact": lambda pid: _remove("curves_model3.csv"),
    "truncated-metrics": lambda pid: _truncate("metrics.csv"),
    "parse-report": lambda pid: _edit_report,
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corrupted_artifact_fails_the_run(two_runs, tmp_path, kind):
    import checks

    _, setup, runs = two_runs
    pid = checks.Oracle(runs[0][1], setup.expected, 4).sample[0]
    (problems,) = _checked(setup, runs[:1], tmp_path, CORRUPTIONS[kind](pid))
    assert problems, f"{kind}: a corrupted artifact must fail the run"


def test_outputs_that_differ_between_runs_fail(two_runs, tmp_path):
    _, setup, runs = two_runs

    def append_newline(outdir):
        with open(os.path.join(outdir, "correlations.csv"), "a", encoding="utf-8") as fh:
            fh.write("\n")

    first, second = _checked(setup, runs, tmp_path, append_newline)
    assert first == [] and any("differ" in p for p in second)


def test_self_time_subtracts_children_per_process():
    process = [
        ["r", 0, None, "cli.command", 0, 100, None],
        ["r", 1, 0, "cli.metrics", 10, 90, None],
        ["r", 2, 1, "corpus.parse", 20, 50, {"records": 3, "skipped": 1}],
        ["r", 3, 1, "geometry.article_distance", 50, 60, None],
    ]
    other = [
        ["r", 0, None, "cli.command", 0, 50, None],
        ["r", 1, 0, "cli.metrics", 0, 40, None],
    ]
    layers, zero_calls = tracer.layer_metrics([process, other])
    assert layers["cli.metrics_s"] == pytest.approx(120e-9)
    assert layers["cli.metrics.self_s"] == pytest.approx(80e-9)
    assert layers["corpus.records"] == 3
    assert "cli.train" in zero_calls and "cli.metrics" not in zero_calls


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_of_all_workloads(trace):
    start = time.perf_counter()
    done = _bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", trace,
                  "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    names = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert set(result["metrics"]) == {
        f"{w}.{m['name']}" for w in WORKLOADS for m in names
    }
    if trace == "1":
        for w in WORKLOADS:
            assert result["metrics"][f"{w}.trace.zero_call_boundaries"]["value"] == 0
    assert time.perf_counter() - start < 120


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = _bench("--workload", "quickstart", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""
