"""Stage wiring, artifact contracts, and error surfaces of the command line."""

import builtins
import csv
import errno
import hashlib
import itertools
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from knowspan import cli
from knowspan.cli import DISRUPTION_COLUMNS, METRIC_COLUMNS, SPACE_COLUMNS, main
from knowspan.corpus import Paper
from planted import synth_then_pipeline

FAST_TRAIN = ["--dim", "8", "--epochs", "2"]


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.stderr or result.output
    return result


def run_planted(runner, outdir, *pipeline_args, papers=None):
    """Make the planted corpus in ``outdir`` and run `pipeline` on it."""
    for args in synth_then_pipeline(*pipeline_args, papers=papers, outdir=outdir):
        run_ok(runner, args)


def run_fail(runner, args):
    """Failed invocations must emit exactly one JSON object on stderr."""
    result = runner.invoke(main, args)
    assert result.exit_code != 0
    lines = [ln for ln in result.stderr.splitlines() if ln.strip()]
    assert len(lines) == 1
    return json.loads(lines[0])


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def record(pid, year, codes, journal="J-a", refs=(), authors=3, pages=10, title=8):
    return {
        "id": pid,
        "year": year,
        "journal": journal,
        "pacs_codes": codes,
        "author_count": authors,
        "n_pages": pages,
        "title_length": title,
        "references": list(refs),
    }


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def tiny_corpus(path):
    """Eight papers, two journals, a known citation pattern."""
    codes_a = ["11.22.Aa", "11.22.Bb"]
    codes_b = ["43.50.Cc", "43.50.Dd"]
    write_jsonl(
        path,
        [
            record("A", 2000, codes_a, authors=2, pages=4, title=5),
            record("P", 2001, codes_a + ["43.50.Cc"], refs=["A"], authors=5, pages=12),
            record("C1", 2002, codes_b, journal="J-b", refs=["P"], title=11),
            record("C2", 2002, codes_b, refs=["P"], authors=1, pages=7),
            record("C3", 2002, codes_a, journal="J-b", refs=["P"], title=14),
            record("C4", 2002, codes_b, refs=["P", "A"], authors=7, pages=20),
            record("C5", 2002, codes_a, refs=["A"], authors=4, title=6),
            # cites nothing and is cited by nobody: every count stays zero
            record("Z", 2002, codes_b, authors=6, pages=9, title=9),
        ],
    )


# ---------------------------------------------------------------- stages

def test_stagewise_run_produces_each_artifact(runner, tmp_path):
    out = str(tmp_path)
    run_ok(runner, ["synth", "--outdir", out, "--papers", "150", "--seed", "5"])
    assert (tmp_path / "corpus.jsonl").exists()
    run_ok(runner, ["ingest", "--outdir", out])
    assert (tmp_path / "corpus.parsed.jsonl").exists()
    report = json.loads((tmp_path / "parse_report.json").read_text())
    assert report["n_parsed"] == 150
    assert report["n_skipped"] == 0
    run_ok(runner, ["train", "--outdir", out, *FAST_TRAIN])
    assert (tmp_path / "embedding.txt").exists()
    losses = read_manifest(tmp_path)["stages"]["train"]["loss_by_epoch"]
    assert len(losses) == 2 and all(isinstance(loss, float) for loss in losses)
    run_ok(runner, ["metrics", "--outdir", out])
    assert (tmp_path / "metrics_space.csv").exists()
    assert not (tmp_path / "metrics.csv").exists()  # merge waits for disrupt
    run_ok(runner, ["disrupt", "--outdir", out])
    assert (tmp_path / "disruption.csv").exists()
    assert (tmp_path / "metrics.csv").exists()
    run_ok(runner, ["correlate", "--outdir", out])
    assert (tmp_path / "correlations.csv").exists()
    run_ok(runner, ["regress", "--outdir", out, "--model", "model1"])
    assert (tmp_path / "regression_model1.csv").exists()
    run_ok(runner, ["curves", "--outdir", out, "--model", "model1", "--points", "5"])
    assert (tmp_path / "curves_model1.csv").exists()


def test_metrics_without_embedding_names_train(runner, tmp_path):
    out = str(tmp_path)
    run_ok(runner, ["synth", "--outdir", out, "--papers", "50"])
    run_ok(runner, ["ingest", "--outdir", out])
    payload = run_fail(runner, ["metrics", "--outdir", out])
    assert payload["error"] == "missing_artifact"
    assert payload["path"] == "embedding.txt"
    assert payload["producer"] == "train"
    assert "train" in payload["message"]


def test_ingest_without_corpus_names_synth(runner, tmp_path):
    payload = run_fail(runner, ["ingest", "--outdir", str(tmp_path)])
    assert payload["path"] == "corpus.jsonl"
    assert payload["producer"] == "synth"


def test_ingest_of_a_missing_input_is_structured_error(runner, tmp_path):
    """Refused before any artifact is written, so no directory is made."""
    out = tmp_path / "new"
    missing = tmp_path / "absent.jsonl"
    args = ["ingest", "--input", str(missing), "--outdir", str(out)]
    payload = run_fail(runner, args)
    assert payload["error"] == "missing_input"
    assert str(missing) in payload["message"]
    assert runner.invoke(main, args).exit_code == 1
    assert not out.exists()


def test_correlate_without_merged_table_names_both_producers(runner, tmp_path):
    payload = run_fail(runner, ["correlate", "--outdir", str(tmp_path)])
    assert payload["path"] == "metrics.csv"
    assert payload["producer"] == "metrics,disrupt"
    assert "metrics" in payload["message"] and "disrupt" in payload["message"]


def test_train_before_ingest_names_ingest(runner, tmp_path):
    payload = run_fail(runner, ["train", "--outdir", str(tmp_path)])
    assert payload["producer"] == "ingest"


def test_unknown_model_is_structured_error(runner, tmp_path):
    out = str(tmp_path)
    run_planted(runner, out, *FAST_TRAIN, "--points", "3", papers=120)
    payload = run_fail(runner, ["regress", "--outdir", out, "--model", "model99"])
    assert payload["error"] == "unknown_model"
    assert "model99" in payload["message"]


# ---------------------------------------------------------------- contracts

def test_merged_metrics_column_contract(runner, tmp_path):
    out = str(tmp_path)
    run_planted(runner, out, *FAST_TRAIN, "--points", "3", papers=200)
    header, rows = read_csv(tmp_path / "metrics.csv")
    assert tuple(header) == METRIC_COLUMNS
    assert len(rows) == 200
    for row in rows:
        assert len(row) == len(METRIC_COLUMNS)
        assert row[0].startswith("P")
        for cell in row[1:]:
            if cell != "":
                float(cell)  # every populated cell is numeric
    # a reader of disruption.csv may take D's cells by position
    header, _ = read_csv(tmp_path / "disruption.csv")
    assert header[:6] == ["paper_id", "d_score", "d_percentile", "d_n_i", "d_n_j", "d_n_k"]


def test_undefined_disruption_cells_are_empty_not_zero(runner, tmp_path):
    out = str(tmp_path)
    tiny_corpus(tmp_path / "corpus.jsonl")
    run_ok(runner, ["ingest", "--outdir", out])
    run_ok(runner, ["train", "--outdir", out, *FAST_TRAIN])
    run_ok(runner, ["metrics", "--outdir", out])
    run_ok(runner, ["disrupt", "--outdir", out])
    header, rows = read_csv(tmp_path / "metrics.csv")
    by_id = {row[0]: dict(zip(header, row)) for row in rows}
    assert by_id["Z"]["d_score"] == ""
    assert by_id["Z"]["d_percentile"] == ""
    assert by_id["Z"]["d_n_i"] == "0"
    # P has the worked 3/1/1 split under the disjoint variant
    assert by_id["P"]["d_score"] == "0.4"
    assert by_id["P"]["d_n_i"] == "3"
    assert by_id["P"]["d_n_j"] == "1"
    assert by_id["P"]["d_n_k"] == "1"


def test_overlapping_variant_changes_the_counts(runner, tmp_path):
    out = str(tmp_path)
    tiny_corpus(tmp_path / "corpus.jsonl")
    run_ok(runner, ["ingest", "--outdir", out])
    run_ok(runner, ["disrupt", "--outdir", out, "--d-variant", "overlapping"])
    header, rows = read_csv(tmp_path / "disruption.csv")
    by_id = {row[0]: dict(zip(header, row)) for row in rows}
    assert by_id["P"]["d_n_i"] == "4"
    assert by_id["P"]["d_score"] == "0.5"


def test_only_disrupt_records_the_graph_counters(runner, tmp_path):
    """disrupt builds the citation graph and records its counters; metrics
    reads no citation and records none."""
    out = str(tmp_path)
    tiny_corpus(tmp_path / "corpus.jsonl")
    with open(tmp_path / "corpus.jsonl", "a", encoding="utf-8") as fh:
        # A is kept; C1 (2002) is later than E, and "gone" is not in the corpus
        fh.write(json.dumps(record("E", 2001, ["11.22.Aa"], refs=["A", "C1", "gone"])) + "\n")
    for stage in ("ingest", "train", "metrics", "disrupt"):
        run_ok(runner, [stage, "--outdir", out, *(FAST_TRAIN if stage == "train" else [])])
    stages = read_manifest(tmp_path)["stages"]
    counters = {k: stages["disrupt"][k] for k in cli.GRAPH_COUNTERS}
    assert counters == {"n_edges": 8, "n_dropped_out_of_corpus": 1, "n_dropped_year_order": 1}
    assert not stages["metrics"].keys() & set(cli.GRAPH_COUNTERS)


def test_exclude_self_empties_single_member_cells(runner, tmp_path):
    out = str(tmp_path)
    tiny_corpus(tmp_path / "corpus.jsonl")
    run_ok(runner, ["ingest", "--outdir", out])
    run_ok(runner, ["train", "--outdir", out, *FAST_TRAIN])
    run_ok(runner, ["metrics", "--outdir", out])
    _, rows = read_csv(tmp_path / "metrics_space.csv")
    plain = {row[0]: row[1] for row in rows}
    assert all(cell != "" for cell in plain.values())
    run_ok(runner, ["metrics", "--outdir", out, "--exclude-self"])
    _, rows = read_csv(tmp_path / "metrics_space.csv")
    excluded = {row[0]: row[1] for row in rows}
    # ("J-a", 2000) and ("J-a", 2001) hold one paper each
    assert excluded["A"] == "" and excluded["P"] == ""
    assert excluded["C2"] != ""


def vocabulary_gap_corpus(path):
    """44 papers.  Forty share six codes three at a time; X1, X2 and X9 each
    carry one code that no multi-code paper carries, so it never reaches
    training.  X1 sits in (J-a, 2001) beside defined papers; X2 is alone in
    (J-c, 2002); X9 shares (J9, 2005) with Z4, its only defined member."""
    pool = ["11.22.Aa", "11.22.Bb", "11.30.Cc", "43.50.Dd", "43.50.Ee", "43.60.Ff"]
    records = []
    for i in range(40):
        codes = [pool[(i + k) % 6] for k in (0, 1, 3)]
        refs = [f"P{j:02d}" for j in (i - 7, i - 11) if j >= 0 and (j % 4) < (i % 4)]
        records.append(
            record(f"P{i:02d}", 2000 + i % 4, codes, journal=("J-a", "J-b")[i % 2], refs=refs)
        )
    records += [
        record("X1", 2001, ["77.10.Xx"], journal="J-a", refs=["P00"]),
        record("X2", 2002, ["77.20.Yy"], journal="J-c"),
        record("X9", 2005, ["88.20.Zz"], journal="J9", refs=["P04"]),
        record("Z4", 2005, pool[:2] + [pool[4]], journal="J9", refs=["P08", "X1"]),
    ]
    write_jsonl(path, records)


# sha256 of metrics_space.csv for the vocabulary-gap corpus after `ingest`,
# `train --dim 8 --epochs 2` and `metrics` with each flag setting; the
# corpus's papers, and so its training pairs, in (year, id) order.
VOCABULARY_GAP_SHA256 = {
    (): "1aab1be2e20046e4e0545feec5d5b082856b2cca1d09a0a2291980943bd756ae",
    ("--exclude-self",): "cb61b58274f6186dcafb70977e7df4125bcc0b17613c60fd4b9efffc8ae4ccca",
}


@pytest.mark.parametrize("flags", list(VOCABULARY_GAP_SHA256), ids=["plain", "exclude_self"])
def test_vocabulary_gaps_leave_blank_cells_and_defined_means(runner, tmp_path, flags):
    out = str(tmp_path)
    vocabulary_gap_corpus(tmp_path / "corpus.jsonl")
    run_ok(runner, ["ingest", "--outdir", out])
    run_ok(runner, ["train", "--outdir", out, *FAST_TRAIN])
    run_ok(runner, ["metrics", "--outdir", out, *flags])
    header, rows = read_csv(tmp_path / "metrics_space.csv")
    by_id = {row[0]: dict(zip(header, row)) for row in rows}
    embedded = ("journal_distance", "article_distance", "article_distance_log")
    for pid in ("X1", "X2", "X9"):
        assert [by_id[pid][c] for c in embedded] == ["", "", ""], pid
        assert by_id[pid]["network_distance"] == "0.0"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["stages"]["metrics"]["n_missing_vocabulary"] == 3
    # Z4 is the only defined member of (J9, 2005): its own mean, or nobody;
    # a vector's cosine distance to itself is 0.0 up to one rounding
    if flags:
        assert by_id["Z4"]["journal_distance"] == ""
    else:
        assert float(by_id["Z4"]["journal_distance"]) == pytest.approx(0.0, abs=1e-15)
    for pid, row in by_id.items():
        if pid not in ("X1", "X2", "X9"):
            assert row["article_distance"] != "", pid
            assert float(row["article_distance_log"]) == np.log1p(
                float(row["article_distance"])
            ), pid
            if pid != "Z4":
                assert row["journal_distance"] != "", pid
    digest = hashlib.sha256((tmp_path / "metrics_space.csv").read_bytes()).hexdigest()
    assert digest == VOCABULARY_GAP_SHA256[flags]


def test_correlations_put_r_above_and_p_below(runner, tmp_path):
    out = str(tmp_path)
    run_planted(runner, out, *FAST_TRAIN, "--points", "3", papers=200)
    run_ok(
        runner,
        ["correlate", "--outdir", out, "--columns", "team_size,citation_count,years"],
    )
    header, rows = read_csv(tmp_path / "correlations.csv")
    rows.insert(0, header)
    assert rows[0] == ["", "team_size", "citation_count", "years"]
    names = [row[0] for row in rows[1:]]
    assert names == ["team_size", "citation_count", "years"]
    for i in range(1, 4):
        assert rows[i][i] == "1.0"
    r_above = float(rows[1][2])
    p_below = float(rows[2][1])
    assert -1.0 <= r_above <= 1.0
    assert 0.0 <= p_below <= 1.0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["stages"]["correlate"]["df"] == 198


def test_regress_all_emits_all_eight_tables(runner, tmp_path):
    out = str(tmp_path)
    run_planted(runner, out, *FAST_TRAIN, "--points", "3", papers=300)
    for k in range(1, 9):
        header, rows = read_csv(tmp_path / f"regression_model{k}.csv")
        assert header == ["term", "coefficient", "std_error", "t", "p", "stars"]
        assert rows[0][0] == "const"
        assert rows[-2][0] == "adjusted_r2"
        assert rows[-1][0] == "n"
    # three-predictor moderated presets carry 17 terms including the constant
    _, rows = read_csv(tmp_path / "regression_model4.csv")
    assert len(rows) - 2 == 17
    _, rows = read_csv(tmp_path / "regression_model8.csv")
    assert len(rows) - 2 == 17


def test_curves_are_long_format_within_observed_range(runner, tmp_path):
    out = str(tmp_path)
    run_planted(runner, out, *FAST_TRAIN, "--points", "7", papers=200)
    header, rows = read_csv(tmp_path / "curves_model4.csv")
    assert header == ["predictor", "predictor_value", "moderator_level", "prediction", "extrapolated"]
    predictors = {row[0] for row in rows}
    assert predictors == {"network_distance", "article_distance_log", "journal_distance"}
    # 3 predictors x 7 grid points x 3 moderator levels
    assert len(rows) == 63
    assert {row[4] for row in rows} == {"false"}
    levels = {row[2] for row in rows}
    assert len(levels) == 3


def test_curves_levels_come_from_the_rows_the_model_fits(runner, tmp_path):
    """A sparse corpus leaves some D undefined, so model5 fits fewer rows
    than the metrics table holds."""
    out = str(tmp_path)
    run_ok(runner, ["synth", "--outdir", out, "--papers", "200", "--density", "2"])
    run_ok(runner, ["ingest", "--outdir", out])
    run_ok(runner, ["train", "--outdir", out, *FAST_TRAIN])
    run_ok(runner, ["metrics", "--outdir", out])
    run_ok(runner, ["disrupt", "--outdir", out])
    payload = run_fail(runner, ["curves", "--outdir", out, "--model", "model5", "--levels", "2,x"])
    assert payload["error"] == "bad_arguments"
    assert "--levels" in payload["message"]
    assert not list(tmp_path.glob("curves_*.csv"))

    run_ok(runner, ["curves", "--outdir", out, "--model", "model5", "--points", "3"])
    spec = cli._model_specs({})["model5"]
    header, rows = read_csv(tmp_path / "metrics.csv")
    used = [header.index(c) for c in (spec.outcome, *spec.base_columns())]
    fitted = [row for row in rows if all(row[j] != "" for j in used)]
    assert len(fitted) < len(rows)
    team = np.array([float(row[header.index(spec.moderator)]) for row in fitted])
    mean, sd = float(team.mean()), float(team.std(ddof=1))
    _, curve = read_csv(tmp_path / "curves_model5.csv")
    assert sorted({float(row[2]) for row in curve}) == [mean - sd, mean, mean + sd]

    run_ok(runner, ["curves", "--outdir", out, "--model", "model5", "--points", "3", "--levels", "2,4"])
    _, curve = read_csv(tmp_path / "curves_model5.csv")
    assert sorted({float(row[2]) for row in curve}) == [2.0, 4.0]


@pytest.mark.parametrize("value", ["2,x", "nan", "1,inf", "-inf", ","])
@pytest.mark.parametrize("route", ["flag", "config"])
def test_curves_levels_must_be_finite_numbers(runner, tmp_path, value, route):
    """Checked before the metrics table is read, so no model is fitted."""
    out = str(tmp_path)
    if route == "flag":
        args = ["--levels", value]
    else:
        (tmp_path / "run.cfg").write_text(f"levels = {value}\n")
        args = ["--config", str(tmp_path / "run.cfg")]
    payload = run_fail(runner, ["curves", "--outdir", out, *args])
    assert payload["error"] == "bad_arguments"
    assert "--levels" in payload["message"]


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A small finished pipeline run; tests copy it before changing it."""
    out = tmp_path_factory.mktemp("finished")
    run_planted(CliRunner(), out, *FAST_TRAIN, "--points", "3", papers=150)
    return out


def snapshot(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.mark.parametrize("value", ["1", "0", "-2"])
@pytest.mark.parametrize("route", ["flag", "config", "pipeline"])
def test_curve_grids_need_two_points(runner, tmp_path, finished_run, value, route):
    """Checked before any stage runs, so no model is fitted and no file written."""
    out = finished_run
    if route == "pipeline":
        out = tmp_path / "run"
        out.mkdir()
        args = ["pipeline", "--outdir", str(out), "--points", value]
    elif route == "flag":
        args = ["curves", "--outdir", str(out), "--points", value]
    else:
        (tmp_path / "run.cfg").write_text(f"points = {value}\n")
        args = ["curves", "--outdir", str(out), "--config", str(tmp_path / "run.cfg")]
    before = snapshot(out)
    payload = run_fail(runner, args)
    assert payload["error"] == "bad_arguments"
    assert "--points" in payload["message"]
    assert snapshot(out) == before


def test_curves_of_an_unmoderated_model_sweep_once_at_no_level(runner, tmp_path, finished_run):
    """Moderator levels, given or by default, apply to moderated models only."""
    shutil.copytree(finished_run, tmp_path / "run")
    out = str(tmp_path / "run")
    config = tmp_path / "models.cfg"
    config.write_text("model1.moderator = none\n")
    args = ["curves", "--outdir", out, "--model", "model1", "--points", "3", "--config", str(config)]
    run_ok(runner, args)
    _, rows = read_csv(tmp_path / "run" / "curves_model1.csv")
    assert [(row[0], row[2]) for row in rows] == [("network_distance", "")] * 3
    written = (tmp_path / "run" / "curves_model1.csv").read_bytes()
    run_ok(runner, [*args, "--levels", "1,2"])
    assert (tmp_path / "run" / "curves_model1.csv").read_bytes() == written


def damage_parsed_corpus(path, damage):
    """Delete 'year' from the first record, or cut the last one mid-line."""
    lines = path.read_text().splitlines(keepends=True)
    if damage == "missing_field":
        obj = json.loads(lines[0])
        del obj["year"]
        lines[0] = json.dumps(obj) + "\n"
    else:
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
    path.write_text("".join(lines))


@pytest.mark.parametrize(
    "damage, reason", [("missing_field", "missing_field 1"), ("cut_line", "invalid_json 1")]
)
@pytest.mark.parametrize("stage", ["train", "metrics", "disrupt"])
def test_stages_refuse_a_parsed_corpus_record_ingest_would_not_write(
    runner, tmp_path, finished_run, stage, damage, reason
):
    """Ingest writes only records it keeps, so a skipped one means a damaged
    file; the stage fails before it writes, leaving its table as it was."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    parsed = out / "corpus.parsed.jsonl"
    n = len(parsed.read_text().splitlines())
    damage_parsed_corpus(parsed, damage)
    before = snapshot(out)
    flags = FAST_TRAIN if stage == "train" else []
    payload = run_fail(runner, [stage, "--outdir", str(out), *flags])
    assert payload["error"] == "bad_artifact"
    assert payload["message"] == f"{parsed}: 1 of {n} records are not ones ingest writes ({reason})"
    assert snapshot(out) == before


def drop_last_line(path):
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]))


@pytest.mark.parametrize(
    "artifact, stage, error",
    [
        ("corpus.parsed.jsonl", "train", "stale_artifact"),
        ("corpus.parsed.jsonl", "metrics", "stale_artifact"),
        ("corpus.parsed.jsonl", "disrupt", "stale_artifact"),
        ("embedding.txt", "metrics", "bad_artifact"),
        ("metrics_space.csv", "disrupt", "bad_artifact"),
        ("disruption.csv", "metrics", "bad_artifact"),
        ("metrics.csv", "correlate", "stale_artifact"),
    ],
    ids=["parsed-train", "parsed-metrics", "parsed-disrupt", "embedding", "metrics_space",
         "disruption", "metrics"],
)
def test_an_artifact_cut_after_its_last_full_line_is_refused(
    runner, tmp_path, finished_run, artifact, stage, error
):
    """Every line left still parses, so the file reads as one of fewer
    papers; the next stage that reads it fails with one JSON line instead.
    A parsed corpus is refused before the stage writes anything."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    drop_last_line(out / artifact)
    before = snapshot(out)
    flags = FAST_TRAIN if stage == "train" else []
    result = runner.invoke(main, [stage, "--outdir", str(out), *flags])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no other exception escaped
    [line] = result.stderr.splitlines()
    payload = json.loads(line)
    assert payload["error"] == error
    if artifact == "corpus.parsed.jsonl":
        assert (payload["path"], payload["producer"]) == (artifact, "ingest")
        assert snapshot(out) == before


def test_an_embedding_edited_after_training_is_stale(runner, tmp_path, finished_run):
    """Every row still loads, but metrics would measure distances with a
    vector train did not write: it fails before it writes anything."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    path = out / "embedding.txt"
    header, first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
    code, value, *values = first.split()
    edited = " ".join([code, repr(float(value) + 0.5), *values]) + "\n"
    path.write_text(header + edited + "".join(rest), encoding="utf-8")
    before = snapshot(out)
    payload = run_fail(runner, ["metrics", "--outdir", str(out)])
    assert payload["error"] == "stale_artifact"
    assert (payload["path"], payload["producer"]) == ("embedding.txt", "train")
    assert snapshot(out) == before


def test_an_embedding_fitted_on_another_parsed_corpus_is_stale(runner, tmp_path, finished_run):
    """After a new ingest, embedding.txt is still the file train wrote, but
    train fitted it on the earlier parsed corpus: metrics fails before it
    writes anything.  An embedding with no train entry is read as it is."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    run_ok(runner, ["ingest", "--outdir", str(out), "--min-year", "2005"])
    fitted_on = read_manifest(out)["stages"]["train"]["inputs"]["corpus.parsed.jsonl"]
    assert fitted_on != sha256_of(out / "corpus.parsed.jsonl")
    before = snapshot(out)
    payload = run_fail(runner, ["metrics", "--outdir", str(out)])
    assert payload == {
        "error": "stale_artifact",
        "message": f"{out / 'embedding.txt'} was fitted on another corpus.parsed.jsonl; rerun 'train'",
        "path": "embedding.txt",
        "producer": "train",
    }
    assert snapshot(out) == before
    manifest = read_manifest(out)
    del manifest["stages"]["train"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    run_ok(runner, ["metrics", "--outdir", str(out)])


def analysis_tables(out):
    return sorted(
        p.name for p in out.iterdir()
        if p.name == "correlations.csv" or p.name.startswith(("regression_", "curves_"))
    )


def test_the_analysis_tables_go_with_the_merged_table_they_were_fitted_on(
    runner, tmp_path, finished_run
):
    """After a new ingest and train, metrics removes metrics.csv, since the
    disruption table is of the earlier corpus, and with it every table
    fitted on it and every entry that records reading it."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    assert len(analysis_tables(out)) == 17
    for args in (["ingest", "--min-year", "2005"], ["train", *FAST_TRAIN], ["metrics"]):
        run_ok(runner, args + ["--outdir", str(out)])
    assert not (out / "metrics.csv").exists()
    assert analysis_tables(out) == []
    assert set(read_manifest(out)["stages"]) == {"synth", "ingest", "train", "metrics", "disrupt"}


def test_a_space_table_of_a_replaced_embedding_is_not_joined(runner, tmp_path, finished_run):
    """After train replaces the embedding, metrics_space.csv is of the old
    one: disrupt does not join it, and there is no metrics.csv to analyse
    until metrics reruns."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    run_ok(runner, ["train", "--outdir", str(out), *FAST_TRAIN, "--seed", "1"])
    stages = read_manifest(out)["stages"]
    assert stages["metrics"]["inputs"]["embedding.txt"] != stages["train"]["outputs"]["embedding.txt"]
    run_ok(runner, ["disrupt", "--outdir", str(out)])
    assert not (out / "metrics.csv").exists()
    assert "merge" not in read_manifest(out)["stages"]
    payload = run_fail(runner, ["correlate", "--outdir", str(out)])
    assert (payload["error"], payload["path"]) == ("missing_artifact", "metrics.csv")
    run_ok(runner, ["metrics", "--outdir", str(out)])
    run_ok(runner, ["correlate", "--outdir", str(out)])
    assert_manifest_records_every_artifact(out, out / "corpus.jsonl")


# each a rerun that replaces an artifact metrics.csv was joined from: the
# artifact the analysis stages then name, the input it was fitted on, and the
# producer that writes it again
REPLACED_INPUTS = {
    "retrain": (["train", "--dim", "8", "--epochs", "1", "--seed", "1"],
                "metrics_space.csv", "embedding.txt", "metrics"),
    "reingest": (["ingest", "--min-year", "2005"], "embedding.txt", "corpus.parsed.jsonl", "train"),
}


@pytest.mark.parametrize("stage", ["correlate", "regress", "curves"])
@pytest.mark.parametrize("replace", list(REPLACED_INPUTS))
def test_a_merged_table_of_a_replaced_input_is_stale(runner, tmp_path, finished_run, replace, stage):
    """metrics.csv is still the file the merge wrote, but it was joined from
    tables of the artifact train or ingest replaced: the analysis stage fails
    before it writes anything, naming the most upstream artifact fitted on a
    replaced input, and runs once the producers each refusal names rerun."""
    args, path, replaced, producer = REPLACED_INPUTS[replace]
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    run_ok(runner, [*args, "--outdir", str(out)])
    command = [stage, "--outdir", str(out), *(["--points", "3"] if stage == "curves" else [])]
    before = snapshot(out)
    payload = run_fail(runner, command)
    assert payload == {
        "error": "stale_artifact",
        "message": f"{out / path} was fitted on another {replaced}; rerun '{producer}'",
        "path": path,
        "producer": producer,
    }
    assert snapshot(out) == before
    reruns = []
    while payload is not None and len(reruns) < 4:
        reruns.append(payload["producer"])
        for name in payload["producer"].split(","):
            run_ok(runner, [name, "--outdir", str(out), *(FAST_TRAIN if name == "train" else [])])
        result = runner.invoke(main, command)
        payload = json.loads(result.stderr) if result.exit_code else None
    assert payload is None, payload
    # after a new ingest, disrupt's table is of the earlier corpus too
    assert reruns == (["metrics"] if replace == "retrain" else ["train", "metrics", "metrics,disrupt"])
    assert_manifest_records_every_artifact(out, out / "corpus.jsonl")


def edit_one_table_cell(path, column):
    """Change the first cell of ``column`` that holds a value, rewriting every
    other byte of the table as it was."""
    header, rows = read_csv(path)
    j = header.index(column)
    row = next(row for row in rows if row[j])
    row[j] = repr(float(row[j]) - 0.5)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


@pytest.mark.parametrize(
    "table, column, stage, producer",
    [("disruption.csv", "d_score", "metrics", "disrupt"),
     ("metrics_space.csv", "n_pages", "disrupt", "metrics")],
    ids=["disruption", "metrics_space"],
)
def test_a_merge_input_edited_after_its_stage_is_stale(
    runner, tmp_path, finished_run, table, column, stage, producer
):
    """Every row still pairs with its paper, but the merge would join a value
    the other stage did not write: it fails before metrics.csv is written."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    edit_one_table_cell(out / table, column)
    payload = run_fail(runner, [stage, "--outdir", str(out)])
    assert payload["error"] == "stale_artifact"
    assert (payload["path"], payload["producer"]) == (table, producer)
    assert not (out / "metrics.csv").exists()
    assert "merge" not in read_manifest(out)["stages"]
    assert not list(out.glob("*.partial"))


def test_tree_export_writes_edge_list(runner, tmp_path):
    out = str(tmp_path)
    run_ok(runner, ["synth", "--outdir", out, "--papers", "60"])
    run_ok(runner, ["ingest", "--outdir", out])
    run_ok(runner, ["train", "--outdir", out, *FAST_TRAIN])
    run_ok(runner, ["metrics", "--outdir", out, "--export-tree"])
    header, rows = read_csv(tmp_path / "tree_edges.csv")
    assert header == ["child_label", "parent_label", "level"]
    assert ["physics", "", ""] not in rows
    roots = [row for row in rows if row[1] == "physics"]
    assert roots and all(row[2] == "2" for row in roots)


# ---------------------------------------------------------------- manifest

def sha256_of(path):
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def test_manifest_records_stages_digests_and_no_paths(runner, tmp_path):
    out = str(tmp_path)
    run_planted(runner, out, *FAST_TRAIN, "--points", "3", papers=150)
    text = (tmp_path / "manifest.json").read_text()
    assert out not in text  # artifact names only, never absolute paths
    manifest = json.loads(text)
    assert set(manifest["stages"]) == {
        "synth", "ingest", "train", "metrics", "disrupt", "merge",
        "correlate", "regress", "curves",
    }
    assert manifest["versions"]["knowspan"]
    train_stage = manifest["stages"]["train"]
    assert train_stage["outputs"]["embedding.txt"] == sha256_of(tmp_path / "embedding.txt")
    assert train_stage["inputs"]["corpus.parsed.jsonl"] == sha256_of(
        tmp_path / "corpus.parsed.jsonl"
    )
    assert train_stage["seed"] == 0
    assert train_stage["config_hash"].startswith("sha256:")


def assert_manifest_records_every_artifact(out, ingest_input):
    """Every file in ``out`` but the manifest is exactly one stage's recorded
    output, with its digest, and every recorded input digest is its file's;
    ingest's corpus.jsonl is the file it read, ``ingest_input``."""
    producers = {}
    for stage, entry in read_manifest(out)["stages"].items():
        for name, digest in entry["outputs"].items():
            assert name not in producers, f"{name} is output of {producers[name]} and {stage}"
            producers[name] = stage
            assert digest == sha256_of(out / name), name
        for name, digest in entry["inputs"].items():
            path = ingest_input if (stage, name) == ("ingest", "corpus.jsonl") else out / name
            assert digest == sha256_of(path), (stage, name)
    assert sorted(producers) == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")


@pytest.mark.parametrize("route", ["synth", "input", "stages"])
def test_manifest_records_every_artifact_by_its_name(runner, tmp_path, finished_run, route):
    out = tmp_path / "run"
    if route == "synth":
        out = finished_run
        ingest_input = out / "corpus.jsonl"
    elif route == "input":
        ingest_input = tmp_path / "elsewhere.jsonl"
        shutil.copy(finished_run / "corpus.jsonl", ingest_input)
        run_ok(runner, ["pipeline", "--outdir", str(out), "--input", str(ingest_input),
                        *FAST_TRAIN, "--points", "3"])
    else:
        ingest_input = out / "corpus.jsonl"
        for args in (
            ["synth", "--papers", "150"], ["ingest"], ["train", *FAST_TRAIN],
            ["metrics", "--export-tree"], ["disrupt"], ["correlate"], ["regress"],
            ["curves", "--points", "3"],
        ):
            run_ok(runner, args + ["--outdir", str(out)])
    assert_manifest_records_every_artifact(out, ingest_input)


def test_a_rerun_that_writes_fewer_outputs_removes_the_ones_it_no_longer_writes(
    runner, tmp_path, finished_run
):
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    run_ok(runner, ["metrics", "--export-tree", "--outdir", str(out)])
    assert (out / "tree_edges.csv").exists()
    run_ok(runner, ["metrics", "--outdir", str(out)])
    run_ok(runner, ["regress", "--outdir", str(out)])  # metrics removed the tables fitted before
    assert len(list(out.glob("regression_*.csv"))) == 8
    run_ok(runner, ["regress", "--model", "model1", "--outdir", str(out)])
    assert not (out / "tree_edges.csv").exists()
    assert [p.name for p in out.glob("regression_*.csv")] == ["regression_model1.csv"]
    assert_manifest_records_every_artifact(out, out / "corpus.jsonl")


def test_an_output_recorded_outside_the_directory_is_never_removed(runner, tmp_path, finished_run):
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    outside = tmp_path / "outside.csv"
    outside.write_text("kept\n")
    manifest = read_manifest(out)
    manifest["stages"]["regress"]["outputs"]["../outside.csv"] = "sha256:0"
    (out / "manifest.json").write_text(json.dumps(manifest))
    run_ok(runner, ["regress", "--model", "model1", "--outdir", str(out)])
    assert outside.read_text() == "kept\n"
    assert [p.name for p in out.glob("regression_*.csv")] == ["regression_model1.csv"]


def test_an_output_another_entry_records_is_never_removed(runner, tmp_path, finished_run):
    """A correlate entry edited to list embedding.txt, which train records,
    does not make correlate remove it."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    embedding = (out / "embedding.txt").read_bytes()
    manifest = read_manifest(out)
    manifest["stages"]["correlate"]["outputs"]["embedding.txt"] = "sha256:0"
    (out / "manifest.json").write_text(json.dumps(manifest))
    run_ok(runner, ["correlate", "--outdir", str(out)])
    assert (out / "embedding.txt").read_bytes() == embedding
    assert_manifest_records_every_artifact(out, out / "corpus.jsonl")


def test_a_failed_removal_leaves_no_file_unrecorded(runner, tmp_path, finished_300, monkeypatch):
    """metrics without --export-tree stops recording tree_edges.csv; when the
    file cannot be removed, the manifest still records it."""
    shutil.copytree(finished_300, tmp_path, dirs_exist_ok=True)
    remove = os.remove

    def refused(path, *args, **kwargs):
        if os.path.basename(path) == "tree_edges.csv":
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return remove(path, *args, **kwargs)

    monkeypatch.setattr(os, "remove", refused)
    payload = run_fail(runner, ["metrics", "--outdir", str(tmp_path)])
    monkeypatch.undo()
    assert payload["error"] == "io_error"
    assert (tmp_path / "tree_edges.csv").exists()
    assert_manifest_records_every_artifact(tmp_path, tmp_path / "corpus.jsonl")


# Digests of a small stage run (`synth --papers 400 --seed 3 --density 2`,
# `ingest`, `train --dim 8 --epochs 2`, `metrics`, `disrupt`); 67 papers have
# undefined D.  metrics.csv's was recorded with the per-pair disruption and
# distance loops, and holds the cells of the two stage tables.
STAGE_RUN_SHA256 = {
    "metrics_space.csv": "8e2b34b8d24346c070ced15b4862bf8d3b1dbb120e374d4e8e77afe3887ff388",
    "disruption.csv": "44f002ccd475fbce4c044361706eeed80e9997ba2e61efd3854d7f204547dd30",
    "metrics.csv": "3e66dcc3e7cb4d1b60aa67104fad80783d226d2a2bc2bc67f041b20916b844c9",
}


def test_small_stage_run_matches_the_recorded_digests(runner, tmp_path):
    out = str(tmp_path)
    for args in (
        ["synth", "--papers", "400", "--seed", "3", "--density", "2"],
        ["ingest"],
        ["train", "--dim", "8", "--epochs", "2"],
        ["metrics"],
        ["disrupt"],
    ):
        run_ok(runner, args + ["--outdir", out])
    for name, digest in STAGE_RUN_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_pipeline_rerun_is_byte_identical(runner, tmp_path):
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        run_planted(runner, d, *FAST_TRAIN, "--points", "3", papers=150)
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_pipeline_does_not_mutate_its_input(runner, tmp_path):
    staging = tmp_path / "staging"
    run_ok(runner, ["synth", "--outdir", str(staging), "--papers", "150"])
    source = staging / "corpus.jsonl"
    before = source.read_bytes()
    out = tmp_path / "work"
    run_ok(
        runner,
        ["pipeline", "--outdir", str(out), "--input", str(source), *FAST_TRAIN, "--points", "3"],
    )
    assert source.read_bytes() == before
    assert (out / "metrics.csv").exists()
    assert not (out / "corpus.jsonl").exists()  # input stays where it was


# ---------------------------------------------------------------- artifact writes

def test_every_artifact_arrives_by_a_rename_from_its_partial_file(runner, tmp_path, monkeypatch):
    renames = []
    replace = os.replace

    def recorded(src, dst):
        renames.append((os.fspath(src), os.fspath(dst)))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", recorded)
    run_planted(runner, tmp_path, "--export-tree", *FAST_TRAIN, "--points", "3", papers=150)
    assert all(src == dst + ".partial" for src, dst in renames), renames
    arrived = {os.path.basename(dst) for _, dst in renames}
    assert {path.name for path in tmp_path.iterdir()} == arrived


class FullDisk:
    """A text file with room for ``room`` more characters; a write that does
    not fit fails as on a full disk."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def write(self, text):
        if len(text) > self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= len(text)
        return self.fh.write(text)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


def fill_disk(monkeypatch, path):
    """Writes to ``path``, or to its partial file, fail half-way through its
    present size."""
    room = len(path.read_text(encoding="utf-8")) // 2
    targets = {str(path), str(path) + ".partial"}
    real_open = builtins.open

    def opener(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and isinstance(file, (str, os.PathLike)) and os.fspath(file) in targets:
            return FullDisk(fh, room)
        return fh

    monkeypatch.setattr(builtins, "open", opener)


def fail_to_record_after(monkeypatch, n):
    """Paper.to_record raises on each call after the n-th."""
    to_record, calls = Paper.to_record, itertools.count(1)

    def failing(paper):
        if next(calls) > n:
            raise ValueError(f"record of paper {paper.id!r} cannot be written")
        return to_record(paper)

    monkeypatch.setattr(Paper, "to_record", failing)


@pytest.fixture(scope="module")
def finished_300(tmp_path_factory):
    """A finished 300-paper run with its tree export; tests copy it."""
    out = tmp_path_factory.mktemp("finished_300")
    run_planted(CliRunner(), out, "--epochs", "1", "--dim", "8", "--points", "3", "--export-tree",
                papers=300)
    return out


@pytest.mark.parametrize(
    "args, artifact",
    [
        (["synth", "--papers", "300"], "corpus.jsonl"),
        (["ingest"], "corpus.parsed.jsonl"),
        (["ingest"], "parse_report.json"),
        (["train", "--epochs", "1", "--dim", "8"], "embedding.txt"),
        (["metrics", "--export-tree"], "tree_edges.csv"),
        (["disrupt"], "disruption.csv"),
        (["correlate"], "manifest.json"),
    ],
    ids=["synth", "ingest_parsed", "ingest_report", "train", "tree_export", "csv_table", "manifest"],
)
def test_a_write_that_fails_part_way_leaves_the_earlier_artifact(
    runner, tmp_path, finished_300, monkeypatch, args, artifact
):
    """Every other file the stage writes before the failure gets its earlier
    bytes again, so the whole directory is as it was."""
    shutil.copytree(finished_300, tmp_path, dirs_exist_ok=True)
    before = snapshot(tmp_path)
    if artifact == "corpus.parsed.jsonl":
        fail_to_record_after(monkeypatch, 200)  # of 300 papers
        error = "stage_failed"
    else:
        fill_disk(monkeypatch, tmp_path / artifact)
        error = "io_error"
    payload = run_fail(runner, [*args, "--outdir", str(tmp_path)])
    monkeypatch.undo()
    assert payload["error"] == error
    assert not list(tmp_path.glob("*.partial"))
    assert snapshot(tmp_path) == before
    if artifact == "corpus.parsed.jsonl":
        run_ok(runner, ["disrupt", "--outdir", str(tmp_path)])
        _, rows = read_csv(tmp_path / "disruption.csv")
        assert len(rows) == 300


@pytest.mark.parametrize(
    "args, partner",
    [
        (["metrics", "--exclude-self"], "disruption.csv"),
        (["disrupt", "--d-variant", "overlapping"], "metrics_space.csv"),
    ],
    ids=["metrics", "disrupt"],
)
@pytest.mark.parametrize("fault", ["full_disk", "missing_partner", "unrecorded_table"])
def test_a_stage_that_replaces_its_table_leaves_no_stale_merged_table(
    runner, tmp_path, finished_300, monkeypatch, args, partner, fault
):
    """The earlier metrics.csv was joined from the table the stage replaces,
    so a join that fails part-way, or that lacks the other table, leaves no
    merged table for the analyses to read, even one no merge entry records."""
    shutil.copytree(finished_300, tmp_path, dirs_exist_ok=True)
    if fault == "full_disk":
        fill_disk(monkeypatch, tmp_path / "metrics.csv")
        payload = run_fail(runner, [*args, "--outdir", str(tmp_path)])
        monkeypatch.undo()
        assert payload["error"] == "io_error"
    else:
        (tmp_path / partner).unlink()
        if fault == "unrecorded_table":  # as no entry records a hand-made table
            manifest = read_manifest(tmp_path)
            del manifest["stages"]["merge"]
            (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        run_ok(runner, [*args, "--outdir", str(tmp_path)])
    assert not (tmp_path / "metrics.csv").exists()
    assert "merge" not in read_manifest(tmp_path)["stages"]
    assert not list(tmp_path.glob("*.partial"))
    payload = run_fail(runner, ["correlate", "--outdir", str(tmp_path)])
    assert payload["error"] == "missing_artifact"


# ---------------------------------------------------------------- config file

def test_config_file_supplies_defaults_and_flags_win(runner, tmp_path):
    out = str(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("epochs = 1\ndim = 6  # comment\n\n")
    run_ok(runner, ["synth", "--outdir", out, "--papers", "80"])
    run_ok(runner, ["ingest", "--outdir", out])
    run_ok(runner, ["train", "--outdir", out, "--config", str(config)])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["stages"]["train"]["config"]["epochs"] == 1
    assert manifest["stages"]["train"]["config"]["dim"] == 6
    run_ok(runner, ["train", "--outdir", out, "--config", str(config), "--dim", "10"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["stages"]["train"]["config"]["dim"] == 10
    assert manifest["stages"]["train"]["config"]["epochs"] == 1


def test_config_file_can_rewrite_a_model_preset(runner, tmp_path):
    out = str(tmp_path)
    run_planted(runner, out, *FAST_TRAIN, "--points", "3", papers=200)
    config = tmp_path / "models.cfg"
    config.write_text("model1.controls = n_pages\nmodel1.moderator = none\n")
    run_ok(runner, ["regress", "--outdir", out, "--model", "model1", "--config", str(config)])
    _, rows = read_csv(tmp_path / "regression_model1.csv")
    terms = [row[0] for row in rows[:-2]]
    assert terms == ["const", "n_pages", "network_distance", "network_distance^2"]


def test_malformed_config_line_is_structured_error(runner, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("dim 12\n")
    payload = run_fail(runner, ["train", "--outdir", str(tmp_path), "--config", str(config)])
    assert payload["error"] == "bad_config"
    assert "key = value" in payload["message"]


@pytest.mark.parametrize(
    "stage, key, first, second",
    [("train", "dim", "8", "9"), ("regress", "model1.moderator", "none", "team_size")],
    ids=["option", "model_preset"],
)
def test_config_key_given_twice_is_structured_error(runner, tmp_path, stage, key, first, second):
    """Reading either value would ignore the other without a word; the file
    is refused before the stage reads or writes anything."""
    out = tmp_path / "run"
    run_ok(runner, ["synth", "--outdir", str(out), "--papers", "60"])
    run_ok(runner, ["ingest", "--outdir", str(out)])
    config = tmp_path / "run.cfg"
    config.write_text(f"epochs = 1\n{key} = {first}\n# a later edit\n{key} = {second}\n")
    before = snapshot(out)
    result = runner.invoke(main, [stage, "--outdir", str(out), "--config", str(config)])
    assert result.exit_code == 1
    payload = json.loads(result.stderr)
    assert payload["error"] == "bad_config"
    assert payload["key"] == key
    assert payload["message"] == f"{config}:4: config key {key!r} is already set on line 2"
    assert snapshot(out) == before


@pytest.mark.parametrize(
    "key",
    [
        "paper",  # a typo of papers
        "input_path",  # declared, but read from the command line only
        "model9.outcome",  # no such preset
        "model1.intercept",  # no such preset field
        "loss_log",  # the key of the removed train flag --loss-log
        "non_deterministic",  # the key of the removed train flag --non-deterministic
    ],
)
def test_config_key_no_subcommand_reads_is_structured_error(runner, tmp_path, key):
    config = tmp_path / "typo.cfg"
    config.write_text(f"{key} = 40\n")
    args = ["synth", "--outdir", str(tmp_path), "--papers", "60", "--config", str(config)]
    payload = run_fail(runner, args)
    assert payload["error"] == "bad_config"
    assert payload["key"] == key
    assert not (tmp_path / "corpus.jsonl").exists()


def test_one_config_file_serves_every_stage(runner, tmp_path):
    """Keys of other subcommands and model-preset keys are accepted."""
    out = str(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text(
        "papers = 60\nepochs = 1\ndim = 6\nd_variant = overlapping\n"
        "model1.controls = n_pages\nmodel1.moderator = none\n"
    )
    for args in (
        ["synth"], ["ingest"], ["train"], ["metrics"], ["disrupt"], ["regress", "--model", "model1"]
    ):
        run_ok(runner, args + ["--outdir", out, "--config", str(config)])
    manifest = read_manifest(tmp_path)
    assert manifest["stages"]["synth"]["config"]["n_papers"] == 60
    assert manifest["stages"]["train"]["config"]["dim"] == 6
    assert manifest["stages"]["disrupt"]["config"]["d_variant"] == "overlapping"
    _, rows = read_csv(tmp_path / "regression_model1.csv")
    assert [row[0] for row in rows[:-2]] == [
        "const", "n_pages", "network_distance", "network_distance^2"
    ]


def read_manifest(tmp_path):
    return json.loads((tmp_path / "manifest.json").read_text())


# model-preset config values that name too few columns, or a column twice,
# each with the key its bad_config error names
BAD_PRESET_CONFIGS = {
    "empty_predictors_config": ("model1.predictors =\n", "model1.predictors"),
    "empty_outcome_config": ("model1.outcome =\n", "model1.outcome"),
    "repeated_predictor_config": (
        "model1.predictors = network_distance, network_distance\n", "model1.predictors"
    ),
    "control_is_moderator_config": ("model1.controls = team_size\n", "model1.controls"),
}


@pytest.mark.parametrize(
    "args, config, error, key",
    [
        (["--dim", "1"], "", "stage_failed", None),
        ([], "d_variant = sideways\n", "bad_config", None),
        *(([], config, "bad_config", key) for config, key in BAD_PRESET_CONFIGS.values()),
        (["--seed", "-1"], "", "stage_failed", None),
    ],
    ids=["dim_flag", "d_variant_config", *BAD_PRESET_CONFIGS, "seed_flag"],
)
def test_pipeline_checks_every_setting_before_its_first_stage(
    runner, tmp_path, args, config, error, key
):
    out = tmp_path / "run"
    (tmp_path / "bad.ini").write_text(config)
    args = ["pipeline", "--outdir", str(out), "--epochs", "1", "--points", "3",
            "--config", str(tmp_path / "bad.ini"), *args]
    payload = run_fail(runner, args)
    assert payload["error"] == error
    if key is not None:
        assert payload["key"] == key
    assert not out.exists()  # a refused command makes no output directory


def test_pipeline_checks_the_seed_before_ingesting_its_input(runner, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    tiny_corpus(corpus)
    out = tmp_path / "run"
    payload = run_fail(runner, ["pipeline", "--outdir", str(out), "--input", str(corpus),
                                "--seed", "-1"])
    assert payload == {"error": "stage_failed", "message": "seed must be non-negative"}
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["train", "--seed", "-1"], "seed must be non-negative"),
        (["train", "--dim", "1"], "dim must be at least 2"),
        (["synth", "--seed", "-1"], "seed must be non-negative"),
        (["train", "--negatives", "0"], "negatives_per_positive must be at least 1"),
        (["ingest", "--min-year", "2001", "--max-year", "2000"], "min_year exceeds max_year"),
    ],
    ids=["train_seed", "train_dim", "synth_seed", "train_negatives", "ingest_years"],
)
def test_stages_check_their_settings_before_reading_or_writing(runner, tmp_path, args, message):
    """The directory is empty, so a check made after reading the corpus would
    fail as missing_artifact instead."""
    out = tmp_path / "empty"
    payload = run_fail(runner, [*args, "--outdir", str(out)])
    assert payload == {"error": "stage_failed", "message": message}
    assert not out.exists()


@pytest.mark.parametrize("command", ["regress", "curves"])
@pytest.mark.parametrize("config, key", BAD_PRESET_CONFIGS.values(), ids=list(BAD_PRESET_CONFIGS))
def test_analysis_stages_check_model_presets_before_reading_metrics(
    runner, tmp_path, command, config, key
):
    """No metrics table exists, so a check made after reading it would fail
    as missing_artifact instead."""
    (tmp_path / "bad.ini").write_text(config)
    args = [command, "--outdir", str(tmp_path), "--model", "model1", "--config",
            str(tmp_path / "bad.ini")]
    payload = run_fail(runner, args)
    assert payload["error"] == "bad_config"
    assert payload["key"] == key


def test_empty_controls_and_moderator_config_values_mean_none():
    assert cli._model_specs({"model1.controls": ""})["model1"].controls == ()
    for value in ("", "none"):
        assert cli._model_specs({"model1.moderator": value})["model1"].moderator is None


def test_pipeline_checks_a_config_value_it_does_not_read(runner, tmp_path):
    """pipeline runs every model preset, so a config file's `model` would go
    unread: it is refused before any work.  A corpus setting belongs to
    synth, which pipeline does not run, so one file serves both commands."""
    staging = tmp_path / "staging"
    run_ok(runner, ["synth", "--outdir", str(staging), "--papers", "150"])
    config = tmp_path / "run.cfg"
    config.write_text("papers = 60\nmodel = model1\n")
    out = tmp_path / "run"
    args = ["pipeline", "--outdir", str(out), "--input", str(staging / "corpus.jsonl"),
            "--config", str(config), *FAST_TRAIN, "--points", "3"]
    payload = run_fail(runner, args)
    assert payload["error"] == "bad_config"
    assert payload["key"] == "model"
    assert not out.exists()
    config.write_text("papers = 60\n")
    run_ok(runner, args)
    assert "synth" not in read_manifest(out)["stages"]


@pytest.mark.parametrize(
    "key, value, stage",
    [("columns", "team_size,years", "correlate"), ("model", "model1", "regress"),
     ("levels", "1,2", "curves")],
    ids=["columns", "model", "levels"],
)
def test_pipeline_refuses_a_config_key_it_would_ignore(
    runner, tmp_path, finished_run, key, value, stage
):
    """pipeline runs correlate, regress and curves on the default columns,
    every model and the default levels, so it would not read these keys."""
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    out = tmp_path / "run"
    args = ["pipeline", "--outdir", str(out), "--input", str(finished_run / "corpus.jsonl"),
            "--config", str(config), *FAST_TRAIN, "--points", "3"]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    message = f"config key {key!r} sets an option of {stage} that pipeline does not take"
    payload = {"error": "bad_config", "key": key, "message": message}
    assert result.stderr == json.dumps(payload, sort_keys=True) + "\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [["--synth"], ["--papers", "10"]], ids=["synth", "papers"])
def test_pipeline_takes_no_corpus_setting(runner, tmp_path, args):
    """synth is the one command that makes a corpus."""
    out = tmp_path / "run"
    result = runner.invoke(main, ["pipeline", *args, "--outdir", str(out)])
    assert result.exit_code == 2
    (line,) = result.stderr.splitlines()
    assert json.loads(line)["error"] == "bad_arguments"
    assert not out.exists()


@pytest.mark.parametrize(
    "stage, key, value, flag",
    [
        ("synth", "planted", "invertedu", ["--planted", "u"]),  # click.Choice
        ("synth", "papers", "many", ["--papers", "60"]),  # int
        ("synth", "density", "dense", ["--density", "2.5"]),  # float
        ("ingest", "pad_short_codes", "maybe", ["--pad-short-codes"]),  # bool flag
    ],
)
def test_config_value_is_checked_like_its_flag(runner, tmp_path, stage, key, value, flag):
    out = str(tmp_path)
    run_ok(runner, ["synth", "--outdir", out, "--papers", "60"])
    run_ok(runner, ["ingest", "--outdir", out])
    config = tmp_path / "bad.cfg"
    config.write_text(f"{key} = {value}\n")
    args = [stage, "--outdir", out, "--config", str(config)]
    small = [] if key == "papers" else {"synth": ["--papers", "60"], "ingest": []}[stage]
    payload = run_fail(runner, args + small)
    assert payload["error"] == "bad_config"
    assert payload["key"] == key
    assert repr(key) in payload["message"]
    run_ok(runner, args + small + flag)  # the flag wins, so the file's value is never read


def test_config_values_take_click_spellings_and_flags_win(runner, tmp_path):
    out = str(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("planted = u\npapers = 60\npad_short_codes = y\nexport_tree = f\n")
    run_ok(runner, ["synth", "--outdir", out, "--config", str(config)])
    synth_stage = read_manifest(tmp_path)["stages"]["synth"]
    assert synth_stage["config"]["planted"]["quadratic_sign"] == 1
    assert synth_stage["config"]["n_papers"] == 60
    run_ok(runner, ["synth", "--outdir", out, "--config", str(config), "--planted", "inverted-u"])
    assert read_manifest(tmp_path)["stages"]["synth"]["config"]["planted"]["quadratic_sign"] == -1
    run_ok(runner, ["ingest", "--outdir", out, "--config", str(config)])
    assert read_manifest(tmp_path)["stages"]["ingest"]["config"]["pad_short_codes"] is True
    run_ok(runner, ["train", "--outdir", out, *FAST_TRAIN])
    run_ok(runner, ["metrics", "--outdir", out, "--config", str(config)])
    assert read_manifest(tmp_path)["stages"]["metrics"]["config"]["export_tree"] is False
    assert not (tmp_path / "tree_edges.csv").exists()
    run_ok(runner, ["metrics", "--outdir", out, "--config", str(config), "--export-tree"])
    assert read_manifest(tmp_path)["stages"]["metrics"]["config"]["export_tree"] is True


@pytest.mark.parametrize("moderator", ["amplify", "dampen"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_planted_moderator_with_no_planted_effect_is_refused(runner, tmp_path, source, moderator):
    """--planted none plants nothing to moderate, so the pair is refused
    before any write instead of the moderator being dropped."""
    config = tmp_path / "run.cfg"
    config.write_text(f"planted_moderator = {moderator}\n")
    given = ["--planted-moderator", moderator] if source == "flag" else ["--config", str(config)]
    out = tmp_path / "run"
    result = runner.invoke(
        main, ["synth", "--outdir", str(out), "--papers", "50", "--planted", "none", *given]
    )
    assert result.exit_code == 1
    message = f"--planted-moderator {moderator} needs --planted other than none"
    assert result.stderr == json.dumps({"error": "bad_arguments", "message": message}) + "\n"
    assert not (out / "corpus.jsonl").exists()
    assert not out.exists()


def table_with_team_size(cell):
    """A one-row metrics table whose team_size cell holds ``cell``."""
    row = ["p1"] + [cell if c == "team_size" else "1.0" for c in METRIC_COLUMNS[1:]]
    return ",".join(METRIC_COLUMNS) + "\n" + ",".join(row) + "\n"


@pytest.mark.parametrize("stage", ["correlate", "regress", "curves"])
@pytest.mark.parametrize(
    "content, column",
    [
        (",".join(METRIC_COLUMNS) + "\np1,0.1\n", None),
        ("", None),
        (table_with_team_size("abc"), "team_size"),
        (table_with_team_size("inf"), "team_size"),
        (table_with_team_size("-inf"), "team_size"),
        (table_with_team_size("nan"), "team_size"),
    ],
    ids=["short_row", "empty_file", "bad_cell", "inf_cell", "minus_inf_cell", "nan_cell"],
)
def test_malformed_metrics_table_is_structured_error(runner, tmp_path, stage, content, column):
    (tmp_path / "metrics.csv").write_text(content, encoding="utf-8")
    payload = run_fail(runner, [stage, "--outdir", str(tmp_path)])
    assert payload["error"] == "bad_artifact"
    assert "metrics.csv" in payload["message"]
    if column is not None:
        assert repr(column) in payload["message"]


def duplicate_last_row(path):
    with open(path, encoding="utf-8") as fh:
        last = fh.readlines()[-1]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(last)


def edit_one_cell(path):
    header, rows = read_csv(path)
    rows[0][header.index("n_pages")] = repr(float(rows[0][header.index("n_pages")]) + 1)
    path.write_text(metrics_text(rows), encoding="utf-8")


@pytest.mark.parametrize("stage", ["correlate", "regress", "curves"])
@pytest.mark.parametrize("edit", [duplicate_last_row, edit_one_cell], ids=["duplicated_row", "edited_cell"])
def test_a_metrics_table_changed_after_the_merge_is_stale(runner, tmp_path, finished_run, stage, edit):
    """Every cell still parses, but the table is not the one the merge
    recorded: analysing it would count a paper twice or fit a changed value."""
    shutil.copytree(finished_run, tmp_path / "run")
    edit(tmp_path / "run" / "metrics.csv")
    before = snapshot(tmp_path / "run")
    payload = run_fail(runner, [stage, "--outdir", str(tmp_path / "run")])
    assert payload["error"] == "stale_artifact"
    assert payload["path"] == "metrics.csv"
    assert payload["producer"] == "metrics,disrupt"
    assert snapshot(tmp_path / "run") == before


def row_based_load_metrics_table(path):
    """The metrics-table loader that held every row as strings before it
    parsed any column; the column-wise loader must match it exactly."""
    header, *rows = cli._table_rows(path, "metrics")
    columns = {}
    for j, name in enumerate(header[1:], start=1):
        try:
            values = np.array([float(row[j]) if row[j] != "" else math.nan for row in rows])
        except ValueError as exc:
            cli._fail("bad_artifact", f"{path} column {name!r}: {exc}")
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            if rows[i][j] != "":
                cli._fail(
                    "bad_artifact",
                    f"{path} column {name!r}: data row {i + 1} holds {rows[i][j]!r}, "
                    "not a finite number",
                )
        columns[name] = values
    return cli.AnalysisTable(columns)


def assert_same_tables(path):
    expected, loaded = row_based_load_metrics_table(path), cli._load_metrics_table(path)
    assert list(loaded.columns) == list(expected.columns)
    for name, values in expected.columns.items():
        assert loaded.columns[name].dtype == np.float64
        assert np.array_equal(loaded.columns[name], values, equal_nan=True), name


def test_column_wise_loader_matches_the_row_based_one_on_a_default_run(runner, tmp_path):
    run_planted(runner, tmp_path)
    assert_same_tables(str(tmp_path / "metrics.csv"))


def metrics_text(rows):
    return "\n".join([",".join(METRIC_COLUMNS), *(",".join(row) for row in rows)]) + "\n"


def random_metrics_rows(n, blank_share, seed=0):
    """``n`` rows of METRIC_COLUMNS cells, each numeric cell blank with
    probability ``blank_share``."""
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=1e3, size=(n, len(METRIC_COLUMNS) - 1))
    blank = rng.random(values.shape) < blank_share
    return [
        [f"p{i}"] + ["" if gap else repr(float(v)) for v, gap in zip(row, gaps)]
        for i, (row, gaps) in enumerate(zip(values, blank))
    ]


@pytest.mark.parametrize("n, blank_share", [(0, 0.0), (1, 1.0), (300, 0.2), (300, 1.0)])
def test_column_wise_loader_matches_the_row_based_one_on_blank_cells(tmp_path, n, blank_share):
    path = tmp_path / "metrics.csv"
    path.write_text(metrics_text(random_metrics_rows(n, blank_share)), encoding="utf-8")
    assert_same_tables(str(path))


def with_cells(rows, *cells):
    """``rows`` with each (row index, column name, text) cell replaced."""
    rows = [list(row) for row in rows]
    for i, name, text in cells:
        rows[i][METRIC_COLUMNS.index(name)] = text
    return rows


BASE_ROWS = random_metrics_rows(5, 0.2)
OVERSIZED = 200_000  # characters, past csv's default field size limit of 131,072
DEFECTIVE_TABLES = {
    "bad_cell": metrics_text(with_cells(BASE_ROWS, (2, "team_size", "abc"))),
    "inf_cell": metrics_text(with_cells(BASE_ROWS, (3, "d_score", "inf"))),
    "minus_inf_cell": metrics_text(with_cells(BASE_ROWS, (0, "years", "-Infinity"))),
    "nan_cell": metrics_text(with_cells(BASE_ROWS, (4, "n_pages", " NaN"))),
    # of several defects, the leftmost column's, and a non-number before a non-finite cell
    "two_columns": metrics_text(
        with_cells(BASE_ROWS, (0, "d_score", "x"), (3, "team_size", "inf"))
    ),
    "one_column": metrics_text(
        with_cells(BASE_ROWS, (1, "team_size", "nan"), (3, "team_size", "y"))
    ),
    # a short row anywhere comes before any cell
    "short_row_after_a_bad_cell": metrics_text(
        with_cells(BASE_ROWS, (0, "team_size", "abc"))[:3] + [["p9", "0.1"]]
    ),
    "short_row": metrics_text([["p1", "0.1"]]),
    "long_row": metrics_text([BASE_ROWS[0] + ["1.0"]]),
    "paper_id_only": "paper_id\np1\n",
    "empty_file": "",
    # csv refuses a cell past its field size limit, in the header or a row
    "oversized_cell": metrics_text(with_cells(BASE_ROWS, (2, "n_pages", "9" * OVERSIZED))),
    "oversized_header": "paper_id," + "x" * OVERSIZED + "\n",
}


@pytest.mark.parametrize("content", DEFECTIVE_TABLES.values(), ids=DEFECTIVE_TABLES)
def test_column_wise_loader_refuses_what_the_row_based_one_refuses(tmp_path, capsys, content):
    path = tmp_path / "metrics.csv"
    path.write_text(content, encoding="utf-8")
    refusals = []
    for load in (row_based_load_metrics_table, cli._load_metrics_table):
        with pytest.raises((cli.StageFailure, ValueError)) as caught:
            load(str(path))
        refusals.append((type(caught.value), str(caught.value), capsys.readouterr().err))
    assert refusals[0] == refusals[1]


@pytest.mark.parametrize(
    "defect, where", [("oversized_cell", "data row 3"), ("oversized_header", "header")]
)
def test_a_row_csv_cannot_read_is_a_bad_artifact_naming_it(tmp_path, capsys, defect, where):
    path = tmp_path / "metrics.csv"
    path.write_text(DEFECTIVE_TABLES[defect], encoding="utf-8")
    with pytest.raises(cli.StageFailure):
        cli._load_metrics_table(str(path))
    assert json.loads(capsys.readouterr().err) == {
        "error": "bad_artifact",
        "message": f"{path} {where}: field larger than field limit (131072)",
    }


def test_loader_holds_little_more_than_the_columns_it_returns(tmp_path):
    """Each cell goes straight into its column, so the loader's peak stays
    close to the arrays it returns; a list of string rows would be about
    eight times as large."""
    path = tmp_path / "metrics.csv"
    path.write_text(metrics_text(random_metrics_rows(20_000, 0.1)), encoding="utf-8")
    tracemalloc.start()
    try:
        table = cli._load_metrics_table(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    column_bytes = sum(values.nbytes for values in table.columns.values())
    assert table.n == 20_000 and column_bytes == 20_000 * (len(METRIC_COLUMNS) - 1) * 8
    assert peak <= 2 * column_bytes


@pytest.mark.parametrize("stage", ["disrupt", "correlate"])
@pytest.mark.parametrize("defect", ["truncated", "not_an_object"])
def test_malformed_manifest_is_structured_error(runner, tmp_path, finished_run, stage, defect):
    shutil.copytree(finished_run, tmp_path, dirs_exist_ok=True)
    manifest = tmp_path / "manifest.json"
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(text[: len(text) // 2] if defect == "truncated" else "[]\n", encoding="utf-8")
    payload = run_fail(runner, [stage, "--outdir", str(tmp_path)])
    assert payload["error"] == "bad_artifact"
    assert "manifest.json" in payload["message"]


@pytest.mark.parametrize(
    "args",
    [["synth", "--papers", "50"], ["ingest"], ["pipeline"]],
    ids=["synth", "ingest", "pipeline"],
)
def test_a_damaged_manifest_fails_a_stage_before_it_writes(runner, tmp_path, finished_run, args):
    """synth and ingest read the manifest before their first write, so a
    manifest they could not update leaves every file as it was."""
    shutil.copy(finished_run / "corpus.jsonl", tmp_path)
    (tmp_path / "manifest.json").write_text('{"stages": {', encoding="utf-8")
    before = snapshot(tmp_path)
    payload = run_fail(runner, [*args, "--outdir", str(tmp_path)])
    assert payload["error"] == "bad_artifact"
    assert "manifest.json" in payload["message"]
    assert snapshot(tmp_path) == before


# each with a stage that reads the entry back
MISTYPED_ENTRIES = [
    ("disrupt", ("ingest",), []),
    ("disrupt", ("ingest", "outputs"), "corpus.parsed.jsonl"),
    ("disrupt", ("ingest", "config"), "min_year=1800"),
    ("disrupt", ("ingest", "config", "min_year"), "1800"),
    ("disrupt", ("ingest", "config", "max_year"), 2100.0),
    ("disrupt", ("ingest", "config", "pad_short_codes"), 0),
    ("disrupt", ("ingest", "end_year"), True),
    ("disrupt", ("metrics",), []),
    ("disrupt", ("metrics", "inputs"), "corpus.parsed.jsonl"),
    ("disrupt", ("metrics", "outputs"), "metrics_space.csv"),
    ("disrupt", ("disrupt", "outputs"), []),
    ("metrics", ("train",), []),
    ("metrics", ("train", "outputs"), []),
]


@pytest.mark.parametrize(
    "stage, keys, value", MISTYPED_ENTRIES, ids=[".".join(keys) for _, keys, _ in MISTYPED_ENTRIES]
)
def test_mistyped_manifest_entry_is_structured_error(
    runner, tmp_path, finished_run, stage, keys, value
):
    """`disrupt` reads the ingest entry back, and the metrics and disrupt
    entries to merge; `metrics` reads the train entry to check the embedding.
    The manifest is checked before the stage writes anything."""
    shutil.copytree(finished_run, tmp_path, dirs_exist_ok=True)
    manifest = read_manifest(tmp_path)
    entry = manifest["stages"]
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    before = snapshot(tmp_path)
    payload = run_fail(runner, [stage, "--outdir", str(tmp_path)])
    assert payload["error"] == "bad_artifact"
    assert "manifest.json" in payload["message"]
    assert "stages." + ".".join(keys) in payload["message"]
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize(
    "keys, value",
    [(("merge",), []), (("merge", "outputs"), "metrics.csv"), (("merge", "inputs"), [])],
    ids=["merge", "merge.outputs", "merge.inputs"],
)
def test_mistyped_merge_entry_is_structured_error(runner, tmp_path, finished_run, keys, value):
    """`regress` reads the merge entry back to check the table it fits."""
    shutil.copytree(finished_run, tmp_path, dirs_exist_ok=True)
    manifest = read_manifest(tmp_path)
    entry = manifest["stages"]
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    before = snapshot(tmp_path)
    payload = run_fail(runner, ["regress", "--outdir", str(tmp_path), "--model", "model1"])
    assert payload["error"] == "bad_artifact"
    assert "stages." + ".".join(keys) in payload["message"]
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("stage, command", [("train", "metrics"), ("merge", "correlate")])
def test_an_input_name_no_stage_declares_steers_no_check(
    runner, tmp_path, finished_run, stage, command
):
    """A name an entry records among its inputs that cli.STAGES does not
    declare it reads is ignored, and the entry the next stage records lists
    exactly the inputs STAGES declares."""
    shutil.copytree(finished_run, tmp_path, dirs_exist_ok=True)
    manifest = read_manifest(tmp_path)
    manifest["stages"][stage]["inputs"]["foo.csv"] = "sha256:0"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    run_ok(runner, [command, "--outdir", str(tmp_path)])
    recorded = read_manifest(tmp_path)["stages"][command]["inputs"]
    assert list(recorded) == list(cli.STAGES[command][1])


def damage_embedding(text, defect):
    header, first, second, *rest = text.splitlines(keepends=True)
    if defect == "truncated":
        return text[: len(text) // 2]
    if defect == "empty":
        return ""
    if defect == "no_rows":  # dim=8 vocab=0
        return header.split()[0] + " vocab=0\n"
    if defect == "zero_dim":  # dim=0 with code-only rows
        codes = [line.split()[0] for line in (first, second, *rest)]
        return header.replace(header.split()[0], "dim=0") + "".join(c + "\n" for c in codes)
    if defect == "bad_code":
        return header + "not-a-code" + first[first.index(" "):] + second + "".join(rest)
    if defect in ("nan", "inf"):  # one coordinate of the first row
        code, _, *values = first.split()
        return header + " ".join([code, defect, *values]) + "\n" + second + "".join(rest)
    if defect == "short_row":  # the first row one value short
        return header + first.rsplit(" ", 1)[0] + "\n" + second + "".join(rest)
    # the second row takes the first row's code; the row count still matches
    repeated = first.split()[0] + second[second.index(" "):]
    return header + first + repeated + "".join(rest)


@pytest.mark.parametrize(
    "defect",
    ["truncated", "empty", "bad_code", "repeated_code", "nan", "inf", "no_rows", "zero_dim", "short_row"],
)
def test_malformed_embedding_is_structured_error(runner, tmp_path, finished_run, defect):
    shutil.copytree(finished_run, tmp_path, dirs_exist_ok=True)
    embedding = tmp_path / "embedding.txt"
    embedding.write_text(damage_embedding(embedding.read_text(encoding="utf-8"), defect))
    before = snapshot(tmp_path)
    payload = run_fail(runner, ["metrics", "--outdir", str(tmp_path)])
    assert payload["error"] == "bad_artifact"
    assert "embedding.txt" in payload["message"]
    assert snapshot(tmp_path) == before


def set_middle_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] = 0xFF  # never part of a UTF-8 text
    path.write_bytes(bytes(data))


# each artifact cli.STAGES declares a stage reads, but corpus.jsonl, which
# ingest may read from anywhere, by each subcommand running that stage that
# does not write it first; then a config file and an ingest input
NOT_UTF8 = [
    (stage, name, [command], "bad_artifact")
    for stage, (runs, reads, _) in cli.STAGES.items()
    for name in reads if name != cli.CORPUS_RAW
    for command in runs if command not in cli.ARTIFACT_STAGES[name][1]
] + [(None, "run.cfg", ["train", "--config"], "bad_config"),
     (None, "input.jsonl", ["ingest", "--input"], "corpus_error")]


@pytest.mark.parametrize(
    "stage, name, args, error", NOT_UTF8, ids=[f"{args[0]}-{name}" for _, name, args, _ in NOT_UTF8]
)
def test_a_file_that_is_not_utf8_is_refused_naming_it(
    runner, tmp_path, finished_run, stage, name, args, error
):
    """A stage that reads an artifact, a config file or a corpus to ingest
    that holds a byte UTF-8 never uses fails with one error naming the file.
    A failed merge leaves no merged table; any other failure changes no file."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    if stage is None:  # a file named on the command line
        path = tmp_path / name
        config = b"dim = 8\nepochs = 1\n"
        path.write_bytes(config if name == "run.cfg" else (out / "corpus.jsonl").read_bytes())
        args = [*args, str(path)]
    else:
        path = out / name
    set_middle_byte(path)
    before = snapshot(out)
    payload = run_fail(runner, [*args, "--outdir", str(out)])
    assert payload["error"] == error
    assert name in payload["message"]
    if stage == "merge":
        assert not (out / "metrics.csv").exists()
        assert "merge" not in read_manifest(out)["stages"]
    else:
        assert snapshot(out) == before


def test_an_embedding_that_is_not_utf8_is_refused_without_a_position(runner, tmp_path, finished_run):
    """The codec's position counts from the start of a decode block, not
    of the file, so the message gives the reason alone."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    set_middle_byte(out / "embedding.txt")
    payload = run_fail(runner, ["metrics", "--outdir", str(out)])
    assert payload["error"] == "bad_artifact"
    assert payload["message"] == f"{out / 'embedding.txt'} is not UTF-8 text: invalid start byte"
    assert "position" not in payload["message"]


BOM = "\ufeff".encode()


def test_a_byte_order_mark_that_starts_the_corpus_is_read_past(runner, tmp_path, finished_run):
    """Spreadsheet exports start with one; the first record is kept, and
    ingest writes the bytes it writes for the file without it."""
    bom = tmp_path / "bom.jsonl"
    bom.write_bytes(BOM + (finished_run / "corpus.jsonl").read_bytes())
    run_ok(runner, ["ingest", "--input", str(bom), "--outdir", str(tmp_path / "out")])
    for name in ("corpus.parsed.jsonl", "parse_report.json"):
        assert (tmp_path / "out" / name).read_bytes() == (finished_run / name).read_bytes(), name
    assert json.loads((tmp_path / "out" / "parse_report.json").read_text())["n_skipped"] == 0


def test_a_byte_order_mark_after_the_start_makes_its_line_invalid(runner, tmp_path, finished_run):
    first, *rest = (finished_run / "corpus.jsonl").read_bytes().splitlines(keepends=True)
    marked = tmp_path / "marked.jsonl"
    marked.write_bytes(first + BOM + b"".join(rest))
    run_ok(runner, ["ingest", "--input", str(marked), "--outdir", str(tmp_path / "out")])
    report = json.loads((tmp_path / "out" / "parse_report.json").read_text())
    assert (report["n_skipped"], report["skip_reasons"]) == (1, {"invalid_json": 1})


@pytest.mark.parametrize("field, value", [("outcome", "d_percentil"), ("predictors", "network_distanc")])
def test_model_naming_an_absent_column_is_structured_error(runner, tmp_path, finished_run, field, value):
    config = tmp_path / "models.cfg"
    config.write_text(f"model5.{field} = {value}\n")
    args = ["regress", "--outdir", str(finished_run), "--model", "model5", "--config", str(config)]
    payload = run_fail(runner, args)
    assert payload["error"] == "unknown_column"
    assert payload["message"] == f"model5 references columns absent from the metrics table: {value}"


@pytest.mark.parametrize(
    "stage, flags",
    [("regress", ["--center", "mean"]), ("curves", ["--points", "5"])],
    ids=["regress", "curves"],
)
def test_a_failing_model_leaves_the_tables_of_the_models_before_it(
    runner, tmp_path, finished_run, stage, flags
):
    """Every model is fitted before any table is written, so the flags that
    would rewrite model1's and model2's tables change no file."""
    shutil.copytree(finished_run, tmp_path / "run")
    config = tmp_path / "models.cfg"
    config.write_text("model3.predictors = bogus\n")
    before = snapshot(tmp_path / "run")
    args = [stage, "--outdir", str(tmp_path / "run"), "--model", "all", "--config", str(config), *flags]
    payload = run_fail(runner, args)
    assert payload["error"] == "unknown_column"
    assert payload["message"] == "model3 references columns absent from the metrics table: bogus"
    assert snapshot(tmp_path / "run") == before


def test_a_rank_deficient_model_is_structured_error(runner, tmp_path):
    """A hand-made table has no merge record and is read as it is; two
    equal controls make model1's design rank deficient, and no table is
    written."""
    rows = random_metrics_rows(60, 0.0, seed=3)
    for row in rows:
        row[METRIC_COLUMNS.index("title_length")] = row[METRIC_COLUMNS.index("n_pages")]
    (tmp_path / "metrics.csv").write_text(metrics_text(rows), encoding="utf-8")
    payload = run_fail(runner, ["regress", "--outdir", str(tmp_path), "--model", "model1"])
    assert payload["error"] == "rank_deficient"
    assert "n_pages" in payload["message"] and "title_length" in payload["message"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["metrics.csv"]


@pytest.mark.parametrize("command", ["regress", "curves"])
@pytest.mark.parametrize(
    "cell, message",
    [("", "need more rows (0) than design columns (9)"), ("1.5", "outcome has zero variance")],
    ids=["no_complete_row", "constant_outcome"],
)
def test_a_model_its_rows_cannot_fit_is_structured_error(runner, tmp_path, command, cell, message):
    """Every log_citations cell of a hand-made table is blank or equal, so
    model1 has no row to fit or no variance to explain: one plain line, no
    numpy warning, and no table written."""
    rows = random_metrics_rows(40, 0.0, seed=5)
    for row in rows:
        row[METRIC_COLUMNS.index("log_citations")] = cell
    (tmp_path / "metrics.csv").write_text(metrics_text(rows), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        payload = run_fail(runner, [command, "--outdir", str(tmp_path), "--model", "model1"])
    assert payload == {"error": "stage_failed", "message": message}
    assert sorted(path.name for path in tmp_path.iterdir()) == ["metrics.csv"]


def test_correlate_needs_three_complete_rows(runner, tmp_path):
    (tmp_path / "metrics.csv").write_text(metrics_text(random_metrics_rows(2, 0.0)), encoding="utf-8")
    payload = run_fail(runner, ["correlate", "--outdir", str(tmp_path)])
    assert payload == {"error": "stage_failed", "message": "need at least 3 complete rows, have 2"}
    assert sorted(path.name for path in tmp_path.iterdir()) == ["metrics.csv"]


def test_a_table_naming_a_column_twice_is_refused(runner, tmp_path):
    """A column read by name would be one of the two, unseen."""
    path = tmp_path / "metrics.csv"
    rows = [f"p{i},{i % 3},{i},{i * i % 7}" for i in range(5)]
    path.write_text("\n".join(["paper_id,team_size,team_size,years", *rows]) + "\n")
    args = ["correlate", "--outdir", str(tmp_path), "--columns", "team_size,years"]
    payload = run_fail(runner, args)
    assert payload == {
        "error": "bad_artifact",
        "message": f"{path} header names column 'team_size' more than once",
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv"]


def test_a_key_error_without_an_argument_is_stage_failed(runner, tmp_path, finished_run, monkeypatch):
    """A KeyError's message is its argument; one with none is named by its repr."""
    shutil.copytree(finished_run, tmp_path, dirs_exist_ok=True)

    def no_graph(corpus):
        raise KeyError()

    monkeypatch.setattr(cli, "build_citation_graph", no_graph)
    payload = run_fail(runner, ["disrupt", "--outdir", str(tmp_path)])
    assert payload == {"error": "stage_failed", "message": "KeyError()"}


def test_unknown_correlation_column_is_reported_without_extra_quotes(runner, tmp_path, finished_run):
    shutil.copytree(finished_run, tmp_path, dirs_exist_ok=True)
    (tmp_path / "correlations.csv").unlink()
    before = snapshot(tmp_path)
    args = ["correlate", "--outdir", str(tmp_path), "--columns", "team_size,yeers"]
    payload = run_fail(runner, args)
    assert payload == {
        "error": "unknown_column",
        "message": "--columns references columns absent from the metrics table: yeers",
    }
    assert snapshot(tmp_path) == before


EMPTY_COLUMNS = "--columns needs at least one column name"
REPEATED_COLUMN = "--columns names d_score more than once"


@pytest.mark.parametrize(
    "source, value, message",
    [
        pytest.param("flag", " , ", EMPTY_COLUMNS, id="flag"),
        pytest.param("config", "", EMPTY_COLUMNS, id="config"),
        pytest.param("flag", "d_score,team_size,d_score", REPEATED_COLUMN, id="flag_repeated"),
        pytest.param("config", "d_score,team_size,d_score", REPEATED_COLUMN, id="config_repeated"),
    ],
)
def test_empty_correlation_columns_are_refused_before_the_table_is_read(
    runner, tmp_path, source, value, message
):
    """The directory holds no metrics.csv, so reading it would fail first."""
    config = tmp_path / "run.cfg"
    config.write_text(f"columns = {value}".rstrip() + "\n")
    extra = ["--columns", value] if source == "flag" else ["--config", str(config)]
    payload = run_fail(runner, ["correlate", "--outdir", str(tmp_path), *extra])
    assert payload == {"error": "bad_arguments", "message": message}
    assert not (tmp_path / "correlations.csv").exists()


@pytest.mark.parametrize(
    "args, named",
    [
        (["train", "--dim", "abc"], "--dim"),
        (["train", "--config", "{out}/missing.cfg"], "--config"),
        (["ingest", "--input", "{out}"], "--input"),
        (["train", "--bogus"], "--bogus"),
        (["bogus"], "bogus"),
        (["--bogus"], "--bogus"),
    ],
    ids=[
        "bad_value",
        "missing_config",
        "directory_input",
        "unknown_option",
        "unknown_subcommand",
        "unknown_group_option",
    ],
)
def test_usage_errors_are_structured(runner, tmp_path, finished_run, args, named):
    """A flag click refuses fails as its value from a config file does: one
    JSON line, before anything is written.  The exit code stays click's 2."""
    shutil.copytree(finished_run, tmp_path, dirs_exist_ok=True)
    args = [arg.format(out=tmp_path) for arg in args]
    before = snapshot(tmp_path)
    payload = run_fail(runner, [*args, "--outdir", str(tmp_path)])
    assert payload["error"] == "bad_arguments"
    assert named in payload["message"]
    assert runner.invoke(main, [*args, "--outdir", str(tmp_path)]).exit_code == 2
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("args", [["--help"], ["train", "--help"], ["--version"]])
def test_help_and_version_print_text(runner, args):
    result = run_ok(runner, args)
    assert result.output.startswith(("Usage:", "knowspan, version"))
    assert not result.stderr


MERGE_INPUT_HEADERS = {
    "disruption.csv": ",".join(DISRUPTION_COLUMNS),
    "metrics_space.csv": ",".join(SPACE_COLUMNS),
}
MERGE_INPUTS = pytest.mark.parametrize(
    "bad_file, stage",
    [("disruption.csv", "metrics"), ("metrics_space.csv", "disrupt")],
    ids=["disruption", "metrics_space"],
)


def tiny_run_with_other_table(runner, tmp_path, stage):
    """A tiny corpus ingested and trained on, with the table of the stage
    that is not ``stage``."""
    out = str(tmp_path)
    tiny_corpus(tmp_path / "corpus.jsonl")
    run_ok(runner, ["ingest", "--outdir", out])
    run_ok(runner, ["train", "--outdir", out, *FAST_TRAIN])
    run_ok(runner, ["disrupt" if stage == "metrics" else "metrics", "--outdir", out])


def damage_merge_input(path, defect):
    rows = {"short_row": "A,0.1\n", "oversized_cell": "A," + "9" * OVERSIZED + "\n"}
    content = MERGE_INPUT_HEADERS[path.name] + "\n" + rows[defect] if defect in rows else ""
    path.write_text(content, encoding="utf-8")


@MERGE_INPUTS
@pytest.mark.parametrize("defect", ["short_row", "empty_file", "oversized_cell"])
def test_malformed_merge_input_is_structured_error(runner, tmp_path, bad_file, stage, defect):
    """Both stages read one corpus, so the merge after this stage reads the
    other stage's table, damaged since that stage ran."""
    tiny_run_with_other_table(runner, tmp_path, stage)
    damage_merge_input(tmp_path / bad_file, defect)
    payload = run_fail(runner, [stage, "--outdir", str(tmp_path)])
    assert payload["error"] == "bad_artifact"
    assert bad_file in payload["message"]
    if defect == "oversized_cell":
        assert "data row 1: field larger than field limit" in payload["message"]
    assert not (tmp_path / "metrics.csv").exists()


@MERGE_INPUTS
def test_a_table_of_another_corpus_is_left_unread(runner, tmp_path, bad_file, stage):
    """After the corpus changes, the other stage's table is never joined, so
    the merge does not read it, damaged or not, and the stage succeeds."""
    tiny_run_with_other_table(runner, tmp_path, stage)
    run_ok(runner, ["ingest", "--outdir", str(tmp_path), "--min-year", "2001"])
    run_ok(runner, ["train", "--outdir", str(tmp_path), *FAST_TRAIN])
    damage_merge_input(tmp_path / bad_file, "empty_file")
    run_ok(runner, [stage, "--outdir", str(tmp_path)])
    assert not (tmp_path / "metrics.csv").exists()
    assert "merge" not in read_manifest(tmp_path)["stages"]
    assert (tmp_path / bad_file).read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("stale", ["metrics", "disrupt"])
def test_merge_refuses_tables_of_different_corpora(runner, tmp_path, stale):
    """After a new corpus, the stage not yet rerun holds an old table."""
    out = str(tmp_path)
    run_planted(runner, out, *FAST_TRAIN, "--points", "3", papers=150)
    run_ok(runner, ["synth", "--outdir", out, "--papers", "150", "--seed", "99"])
    run_ok(runner, ["ingest", "--outdir", out])
    run_ok(runner, ["train", "--outdir", out, *FAST_TRAIN])
    run_ok(runner, ["disrupt" if stale == "metrics" else "metrics", "--outdir", out])
    assert not (tmp_path / "metrics.csv").exists()
    assert "merge" not in read_manifest(tmp_path)["stages"]
    for stage in ("correlate", "regress", "curves"):
        payload = run_fail(runner, [stage, "--outdir", out])
        assert payload["error"] == "missing_artifact"
        assert payload["path"] == "metrics.csv"

    run_ok(runner, [stale, "--outdir", out])
    assert "merge" in read_manifest(tmp_path)["stages"]
    _, rows = read_csv(tmp_path / "metrics.csv")
    with open(tmp_path / "corpus.parsed.jsonl", encoding="utf-8") as fh:
        assert [row[0] for row in rows] == [json.loads(line)["id"] for line in fh]


def damage_table(path, defect):
    """Cut a table to its first half, or give its last row the first row's paper."""
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    if defect == "missing_rows":
        rows = rows[: len(rows) // 2]
    else:
        first_id = rows[0].split(",", 1)[0]
        rows[-1] = first_id + rows[-1][rows[-1].index(","):]
    path.write_text(header + "".join(rows), encoding="utf-8")


@pytest.mark.parametrize(
    "table, stage",
    [("disruption.csv", "metrics"), ("metrics_space.csv", "disrupt")],
    ids=["disruption", "metrics_space"],
)
@pytest.mark.parametrize("defect", ["missing_rows", "other_paper"])
def test_merge_refuses_a_table_that_does_not_list_the_corpus(runner, tmp_path, finished_run, table, stage, defect):
    """Both stages read one corpus, so each table lists its papers in its
    order; a cut or altered table fails the merge instead of leaving blank
    cells that the analyses would drop as missing."""
    shutil.copytree(finished_run, tmp_path, dirs_exist_ok=True)
    damage_table(tmp_path / table, defect)
    payload = run_fail(runner, [stage, "--outdir", str(tmp_path)])
    assert payload["error"] == "bad_artifact"
    assert "metrics_space.csv" in payload["message"] and "disruption.csv" in payload["message"]
    assert not (tmp_path / "metrics.csv").exists()
    assert "merge" not in read_manifest(tmp_path)["stages"]
    assert not list(tmp_path.glob("*.partial"))
    payload = run_fail(runner, ["regress", "--outdir", str(tmp_path), "--model", "model5"])
    assert payload["error"] == "missing_artifact"


def subprocess_env():
    """The environment with this package's source on the path."""
    import knowspan

    src = os.path.dirname(os.path.dirname(knowspan.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def probe_in_subprocess(code):
    """stdout of ``python -c code`` with this package's source on the path."""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env(), check=True
    )
    return result.stdout.strip()


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    probe = "import sys, knowspan.cli; print('scipy.stats' in sys.modules)"
    assert probe_in_subprocess(probe) == "False"


@pytest.mark.parametrize("module", ["corpus", "tree"])
def test_importing_a_standard_library_module_leaves_numpy_unloaded(module):
    """The package itself imports none of its modules, so importing one
    loads only what that module uses."""
    probe = f"import sys, knowspan.{module}; print('numpy' in sys.modules)"
    assert probe_in_subprocess(probe) == "False"


def test_ingest_metrics_disrupt_and_curves_leave_scipy_special_unloaded(runner, tmp_path):
    """Nor importlib.metadata, which no output byte needs."""
    out = str(tmp_path)
    run_ok(runner, ["synth", "--outdir", out, "--papers", "120"])
    run_ok(runner, ["ingest", "--outdir", out])
    run_ok(runner, ["train", "--outdir", out, *FAST_TRAIN])
    probe = (
        "import sys, knowspan.cli as cli\n"
        "modules = ('scipy.special', 'importlib.metadata')\n"
        "loaded = [[m in sys.modules for m in modules]]\n"
        "for stage in ('ingest', 'metrics', 'disrupt', 'curves'):\n"
        f"    cli.main([stage, '--outdir', {out!r}], standalone_mode=False)\n"
        "    loaded.append([m in sys.modules for m in modules])\n"
        "print(loaded)"
    )
    assert probe_in_subprocess(probe) == str([[False, False]] * 5)
    assert len(list(tmp_path.glob("curves_model*.csv"))) == 8


# Runs the command line in a fresh interpreter in which every scipy import fails.
WITHOUT_SCIPY = "import sys; sys.modules['scipy'] = None; from knowspan.cli import main; main()"


def test_every_subcommand_runs_without_scipy(tmp_path):
    """scipy is a test-only dependency: no stage imports any part of it."""
    env = subprocess_env()
    out = str(tmp_path / "stages")
    runs = [
        ["synth", "--outdir", out, "--papers", "150"],
        ["ingest", "--outdir", out],
        ["train", "--outdir", out, *FAST_TRAIN],
        ["metrics", "--outdir", out],
        ["disrupt", "--outdir", out],
        ["correlate", "--outdir", out],
        ["regress", "--outdir", out],
        ["curves", "--outdir", out],
        *synth_then_pipeline("--epochs", "1", papers=150, outdir=tmp_path / "pipeline"),
    ]
    assert {args[0] for args in runs} == set(main.commands)
    for args in runs:
        result = subprocess.run(
            [sys.executable, "-c", WITHOUT_SCIPY, *args], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, (args[0], result.stderr)
    assert len(list((tmp_path / "stages").glob("regression_model*.csv"))) == 8
    assert (tmp_path / "pipeline" / "correlations.csv").exists()


def test_metrics_normalises_each_code_at_most_once(runner, tmp_path, monkeypatch):
    """The run's article distances share the loaded matrix's code cache,
    which normalises each distinct code's vector once, not once per paper.
    Only calls on the matrix's own code vectors count: the journal
    distances normalise paper vectors."""
    import knowspan.embedding

    out = str(tmp_path)
    run_ok(runner, ["synth", "--outdir", out, "--papers", "150"])
    run_ok(runner, ["ingest", "--outdir", out])
    run_ok(runner, ["train", "--outdir", out, *FAST_TRAIN])
    loaded = []
    calls = []
    load_embeddings = cli.load_embeddings
    direction_and_norm = knowspan.embedding.direction_and_norm

    def load(path):
        loaded.append(load_embeddings(path))
        return loaded[-1]

    def counted(vector):
        if any(vector is code_vector for code_vector in loaded[0].vectors.values()):
            calls.append(vector.tobytes())
        return direction_and_norm(vector)

    monkeypatch.setattr(cli, "load_embeddings", load)
    monkeypatch.setattr(knowspan.embedding, "direction_and_norm", counted)
    run_ok(runner, ["metrics", "--outdir", out])
    corpus = cli._read_corpus(out)
    assert 0 < len(calls) <= len(corpus.distinct_codes())
    assert len(set(calls)) == len(calls)


# ---------------------------------------------------------------- end year

@pytest.mark.parametrize("route", ["stages", "pipeline"])
def test_metrics_counts_paper_ages_to_the_ingest_end_year(runner, tmp_path, route):
    out = str(tmp_path)
    run_ok(runner, ["synth", "--outdir", out, "--papers", "150"])
    if route == "stages":
        run_ok(runner, ["ingest", "--outdir", out, "--end-year", "2030"])
        run_ok(runner, ["train", "--outdir", out, *FAST_TRAIN])
        run_ok(runner, ["metrics", "--outdir", out])
    else:
        run_ok(
            runner,
            ["pipeline", "--outdir", out, "--input", str(tmp_path / "corpus.jsonl"),
             "--end-year", "2030", *FAST_TRAIN, "--points", "3"],
        )
    with open(tmp_path / "corpus.parsed.jsonl", encoding="utf-8") as fh:
        published = {rec["id"]: rec["year"] for rec in map(json.loads, fh)}
    assert max(published.values()) < 2030
    header, rows = read_csv(tmp_path / "metrics_space.csv")
    years = {row[0]: int(row[header.index("years")]) for row in rows}
    assert years == {pid: 2030 - year for pid, year in published.items()}


def test_end_year_before_the_data_is_structured_error(runner, tmp_path):
    out = str(tmp_path)
    run_ok(runner, ["synth", "--outdir", out, "--papers", "200"])
    payload = run_fail(runner, ["ingest", "--outdir", out, "--end-year", "1980"])
    assert payload["error"] == "corpus_error"
    assert "1980" in payload["message"]
    assert not (tmp_path / "corpus.parsed.jsonl").exists()
    with open(tmp_path / "corpus.jsonl", encoding="utf-8") as fh:
        latest = max(json.loads(line)["year"] for line in fh)
    run_ok(runner, ["ingest", "--outdir", out, "--end-year", str(latest)])
    assert read_manifest(tmp_path)["stages"]["ingest"]["end_year"] == latest


# ---------------------------------------------------------------- year range

@pytest.mark.parametrize("route", ["stages", "pipeline"])
def test_later_stages_keep_every_paper_ingest_kept(runner, tmp_path, route):
    """Papers older than the default 1800 floor, kept by ingest --min-year."""
    out = str(tmp_path)
    run_ok(runner, ["synth", "--outdir", out, "--papers", "150"])
    source = tmp_path / "corpus.jsonl"
    with open(source, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    codes = records[0]["pacs_codes"]
    records += [
        record("old-1750", 1750, codes),
        record("old-1760", 1760, codes, refs=["old-1750"]),
        record("old-1800", 1800, codes, refs=["old-1760"]),
    ]
    write_jsonl(source, records)
    if route == "stages":
        run_ok(runner, ["ingest", "--outdir", out, "--min-year", "1700"])
        run_ok(runner, ["train", "--outdir", out, *FAST_TRAIN])
        run_ok(runner, ["metrics", "--outdir", out])
        run_ok(runner, ["disrupt", "--outdir", out])
    else:
        run_ok(
            runner,
            ["pipeline", "--outdir", out, "--input", str(source), "--min-year", "1700",
             *FAST_TRAIN, "--points", "3"],
        )
    ids = [rec["id"] for rec in sorted(records, key=lambda rec: (rec["year"], rec["id"]))]
    for name in ("metrics_space.csv", "disruption.csv", "metrics.csv"):
        _, rows = read_csv(tmp_path / name)
        assert [row[0] for row in rows] == ids, name


# ---------------------------------------------------------------- input order

ORDER_RUN = ["--dim", "8", "--epochs", "1", "--points", "3"]


def run_artifacts(outdir):
    """Every file a run wrote but the manifest, which records the input's digest."""
    return {path.name: path.read_bytes() for path in sorted(outdir.iterdir())
            if path.name != "manifest.json"}


@pytest.fixture(scope="module")
def ordered_run(tmp_path_factory):
    """The lines of a fixed 150-paper synth corpus, and what a pipeline run on them writes."""
    root = tmp_path_factory.mktemp("ordered")
    runner = CliRunner()
    run_ok(runner, ["synth", "--outdir", str(root), "--papers", "150"])
    source = root / "corpus.jsonl"
    run_ok(runner, ["pipeline", "--outdir", str(root / "run"), "--input", str(source), *ORDER_RUN])
    return source.read_text(encoding="utf-8").splitlines(keepends=True), run_artifacts(root / "run")


@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_input_line_order_changes_no_output(ordered_run, data):
    """A metamorphic relation: a permutation of the input lines leaves every
    artifact byte-identical, the trained embedding included."""
    lines, expected = ordered_run
    order = data.draw(st.permutations(range(len(lines))))
    with tempfile.TemporaryDirectory() as root:
        source = pathlib.Path(root) / "shuffled.jsonl"
        source.write_text("".join(lines[i] for i in order), encoding="utf-8")
        out = pathlib.Path(root) / "run"
        run_ok(CliRunner(), ["pipeline", "--outdir", str(out), "--input", str(source), *ORDER_RUN])
        assert run_artifacts(out) == expected


# ---------------------------------------------------------------- one parse per command

@pytest.fixture
def corpus_calls(monkeypatch):
    """Count the corpus parses and graph builds the CLI makes."""
    calls = {"parse": 0, "graph": 0}
    for name, attribute in (("parse", "parse_corpus"), ("graph", "build_citation_graph")):

        def counted(*args, _fn=getattr(cli, attribute), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, attribute, counted)
    return calls


def test_pipeline_parses_once_and_links_once(runner, tmp_path, corpus_calls):
    """train, metrics and disrupt share the corpus ingest parsed; disrupt
    alone builds its citation graph."""
    run_planted(runner, tmp_path, *FAST_TRAIN, "--points", "3", papers=120)
    assert corpus_calls == {"parse": 1, "graph": 1}


def test_pipeline_reads_the_metrics_table_once(runner, tmp_path, monkeypatch):
    """correlate, regress and curves share the table pipeline loads after
    disrupt; run one by one, each loads it for itself and writes the same
    bytes.  The digests the manifest records read the file in binary mode
    and are not counted."""
    loads, opens = [], []
    load, real_open = cli._load_metrics_table, builtins.open

    def counted_load(path):
        loads.append(os.path.basename(path))
        return load(path)

    def counted_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.path.basename(file) == "metrics.csv":
            opens.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "_load_metrics_table", counted_load)
    monkeypatch.setattr(builtins, "open", counted_open)
    piped, staged = tmp_path / "pipeline", tmp_path / "stages"
    run_planted(runner, piped, *FAST_TRAIN, "--points", "3", papers=150)
    assert loads == ["metrics.csv"]
    assert [mode for mode in opens if "b" not in mode] == ["r"]
    shutil.copytree(piped, staged)
    for args in (["correlate"], ["regress"], ["curves", "--points", "3"]):
        run_ok(runner, args + ["--outdir", str(staged)])
    assert len(loads) == 4
    names = sorted(p.name for p in piped.iterdir())
    assert names == sorted(p.name for p in staged.iterdir())
    analysis = [n for n in names if n == "correlations.csv" or n.startswith(("regression_", "curves_"))]
    assert len(analysis) == 17
    for name in analysis + ["manifest.json"]:
        assert (staged / name).read_bytes() == (piped / name).read_bytes(), name


def counted_binary_opens(monkeypatch):
    """The base name of each file opened in binary mode from now on, as a
    digest opens it, in a list that grows as they are opened."""
    hashed, real_open = [], builtins.open

    def counted_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and "b" in mode:
            hashed.append(os.path.basename(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted_open)
    return hashed


@pytest.mark.parametrize(
    "stage, unrecorded",
    [*((stage, None) for stage in ("train", "metrics", "disrupt", "correlate", "regress", "curves")),
     ("train", "ingest")],
    ids=["train", "metrics", "disrupt", "correlate", "regress", "curves",
         "train_of_a_corpus_no_entry_records"],
)
def test_a_stage_run_alone_hashes_each_input_once(
    runner, tmp_path, finished_run, monkeypatch, stage, unrecorded
):
    """The digest that checks an input against its producer's record is the
    one the stage's manifest entry records for it; an output is hashed once,
    when it is recorded, and the merge after metrics or disrupt takes the
    digest recorded for that stage's table.  An input no entry records is
    hashed once, when the stage records it."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    if unrecorded:
        manifest = read_manifest(out)
        del manifest["stages"][unrecorded]
        (out / "manifest.json").write_text(json.dumps(manifest))
    hashed = counted_binary_opens(monkeypatch)
    run_ok(runner, [stage, "--outdir", str(out), *(FAST_TRAIN if stage == "train" else [])])
    entry = json.loads((out / "manifest.json").read_text())["stages"][stage]
    for name, digest in entry["inputs"].items():
        assert hashed.count(name) == 1, name
        assert digest == sha256_of(out / name)
    for name in entry["outputs"]:
        assert hashed.count(name) == 1, name


@pytest.mark.parametrize("leftover", ["intact", "cut"])
def test_a_pipeline_rerun_joins_the_merged_table_once(
    runner, tmp_path, monkeypatch, leftover
):
    """A rerun into a directory that holds an earlier run's tables joins
    metrics.csv once, after both stages have replaced theirs, so a leftover
    table the rerun rewrites is never read, whole or cut short."""
    args = [*FAST_TRAIN, "--points", "3"]
    fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
    run_planted(runner, fresh, *args, papers=120)
    shutil.copytree(fresh, rerun)
    if leftover == "cut":
        drop_last_line(rerun / "disruption.csv")
    joins, write_csv = [], cli._write_csv

    def counted_write_csv(outdir, name, *rest):
        if name == "metrics.csv":
            joins.append(outdir)
        return write_csv(outdir, name, *rest)

    monkeypatch.setattr(cli, "_write_csv", counted_write_csv)
    run_planted(runner, rerun, *args, papers=120)
    assert len(joins) == 1
    assert snapshot(rerun) == snapshot(fresh)


def test_metrics_holds_no_vector_per_paper(runner, tmp_path):
    """metrics computes each paper vector where it is used, into its cell's
    running sum and again for its row, so its peak grows by far less per
    paper than one held 50-float vector (about 550 B with its array header)."""
    peaks = []
    for n in (1_000, 4_000):
        out = str(tmp_path / str(n))
        for args in (["synth", "--papers", str(n)], ["ingest"], ["train", "--epochs", "1"]):
            run_ok(runner, [*args, "--outdir", out])
        corpus = cli._read_corpus(out)
        tracemalloc.start()
        try:
            cli._stage_metrics(out, corpus, False, False)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 3_000 < 100, peaks


def test_pipeline_hashes_each_artifact_at_most_twice(runner, tmp_path, monkeypatch):
    """Each stage records an input under the digest its producer wrote it
    with, or the one its check read: the parsed corpus and the two stage
    tables are hashed once, when their stages write them, and metrics.csv
    twice, when the merge writes it and when it is read back and checked."""
    hashed = counted_binary_opens(monkeypatch)
    run_planted(runner, tmp_path, *FAST_TRAIN, "--points", "3", papers=150)
    counts = {name: hashed.count(name) for name in hashed}
    assert counts["corpus.parsed.jsonl"] == 1
    assert counts["metrics_space.csv"] == counts["disruption.csv"] == 1
    assert counts["metrics.csv"] == 2
    assert max(counts.values()) <= 2, counts
    for entry in read_manifest(tmp_path)["stages"].values():
        for name, digest in entry["inputs"].items():
            assert digest == sha256_of(tmp_path / name), name


def test_pipeline_releases_its_corpus_and_graph_before_the_analysis_stages(
    runner, tmp_path, monkeypatch
):
    """The analysis stages read metrics.csv alone, so the corpus and its
    citation graph are dead before the first of them starts and add nothing
    to the process's peak memory."""
    refs, alive = [], []
    build, correlate = cli.build_citation_graph, cli._stage_correlate

    def tracked_build(corpus):
        graph = build(corpus)
        refs.extend((weakref.ref(corpus), weakref.ref(graph)))
        return graph

    def checked_correlate(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return correlate(*args, **kwargs)

    monkeypatch.setattr(cli, "build_citation_graph", tracked_build)
    monkeypatch.setattr(cli, "_stage_correlate", checked_correlate)
    run_planted(runner, tmp_path, *FAST_TRAIN, "--points", "3", papers=120)
    assert alive == [[False, False]]


@pytest.mark.parametrize(
    "args, config, exit_code",
    [
        (["curves", "--points", "1"], "", 1),
        (["curves", "--levels", "x"], "", 1),
        (["correlate", "--columns", "d_score,d_score"], "", 1),
        (["regress", "--model", "model9"], "", 1),
        (["train"], "bogus = 1\n", 1),
        (["metrics"], "", 1),
        (["pipeline", "--papers", "10"], "", 2),
        (["pipeline", "--dim", "1"], "", 1),
        (["train", "--dim", "abc"], "", 2),
    ],
    ids=[
        "curves_points",
        "curves_levels",
        "correlate_columns",
        "regress_model",
        "config_key",
        "missing_artifact",
        "pipeline_papers",
        "pipeline_dim",
        "usage_error",
    ],
)
def test_a_refused_command_makes_no_output_directory(runner, tmp_path, args, config, exit_code):
    """The directory is made by the first artifact written, so a command
    refused before then leaves nothing behind."""
    out = tmp_path / "new"
    (tmp_path / "run.cfg").write_text(config)
    args = [*args, "--outdir", str(out), "--config", str(tmp_path / "run.cfg")]
    run_fail(runner, args)
    assert runner.invoke(main, args).exit_code == exit_code
    assert not out.exists()


def test_pipeline_writes_the_bytes_of_a_stage_by_stage_run(runner, tmp_path):
    """pipeline hands on the corpus ingest parsed; the stages re-read the
    file it wrote.  References forward in the file, out of the corpus and to
    the paper itself, padded short codes and a paper before 1800 all reach
    the same tables either way."""
    run_ok(runner, ["synth", "--outdir", str(tmp_path), "--papers", "150"])
    source = tmp_path / "corpus.jsonl"
    with open(source, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    codes = records[0]["pacs_codes"]
    records += [
        record("old-1750", 1750, codes),
        record("fwd-a", 2000, codes, refs=["fwd-b", "old-1750"]),  # fwd-b is later
        record("fwd-b", 2001, codes, refs=["fwd-c", "nowhere"]),  # fwd-c is earlier
        record("fwd-c", 1999, [codes[0], codes[1][:-1]], refs=["old-1750"]),  # a short code
        record("self", 2002, codes, refs=["self", "fwd-a", "self"]),
    ]
    write_jsonl(source, records)
    flags = ["--min-year", "1700", "--pad-short-codes"]
    stages, piped = tmp_path / "stages", tmp_path / "pipeline"
    for args in (
        ["ingest", "--input", str(source), *flags],
        ["train", *FAST_TRAIN],
        ["metrics"],
        ["disrupt"],
        ["correlate"],
        ["regress"],
        ["curves", "--points", "3"],
    ):
        run_ok(runner, args + ["--outdir", str(stages)])
    run_ok(runner, ["pipeline", "--outdir", str(piped), "--input", str(source), *flags,
                    *FAST_TRAIN, "--points", "3"])
    report = json.loads((piped / "parse_report.json").read_text())
    assert report["padded_codes"] == 1 and report["self_references_removed"] == 2
    assert "old-1750" in (piped / "corpus.parsed.jsonl").read_text()
    names = sorted(p.name for p in stages.iterdir())
    assert names == sorted(p.name for p in piped.iterdir())
    for name in names:  # manifest.json included
        assert (stages / name).read_bytes() == (piped / name).read_bytes(), name


def test_each_stage_invocation_parses_and_links_for_itself(runner, tmp_path, corpus_calls):
    out = str(tmp_path)
    run_ok(runner, ["synth", "--outdir", out, "--papers", "120"])
    run_ok(runner, ["ingest", "--outdir", out])
    run_ok(runner, ["train", "--outdir", out, *FAST_TRAIN])
    assert corpus_calls == {"parse": 2, "graph": 0}
    for _ in range(2):
        run_ok(runner, ["metrics", "--outdir", out])
        run_ok(runner, ["disrupt", "--outdir", out])
    # metrics reads no citation, so disrupt alone builds the graph
    assert corpus_calls == {"parse": 6, "graph": 2}


def test_read_corpus_parses_a_rewritten_file_afresh(tmp_path, corpus_calls):
    parsed = tmp_path / "corpus.parsed.jsonl"
    write_jsonl(parsed, [record("A", 2000, ["11.22.Aa"])])
    cli._read_corpus(str(tmp_path))
    write_jsonl(parsed, [record("A", 2000, ["11.22.Aa"]), record("B", 2001, ["11.22.Bb"])])
    rewritten = cli._read_corpus(str(tmp_path))
    assert list(rewritten.papers) == ["A", "B"] and corpus_calls["parse"] == 2


def test_metrics_builds_the_tree_once_for_distances_and_export(runner, tmp_path, monkeypatch):
    out = str(tmp_path)
    run_ok(runner, ["synth", "--outdir", out, "--papers", "150"])
    run_ok(runner, ["ingest", "--outdir", out])
    run_ok(runner, ["train", "--outdir", out, *FAST_TRAIN])
    calls = []

    def counted(codes, _fn=cli.build_tree):
        calls.append(1)
        return _fn(codes)

    monkeypatch.setattr(cli, "build_tree", counted)
    run_ok(runner, ["metrics", "--outdir", out, "--export-tree"])
    assert len(calls) == 1
    assert (tmp_path / "tree_edges.csv").exists()
