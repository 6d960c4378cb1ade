"""Stage wiring, artifact contracts, and error surfaces of the command line."""

import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from knowspan import cli
from knowspan.cli import DISRUPTION_COLUMNS, METRIC_COLUMNS, SPACE_COLUMNS, main

FAST_TRAIN = ["--dim", "8", "--epochs", "2"]


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.stderr or result.output
    return result


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
    run_ok(runner, ["train", "--outdir", out, *FAST_TRAIN, "--loss-log"])
    assert (tmp_path / "embedding.txt").exists()
    header, loss_rows = read_csv(tmp_path / "loss_log.csv")
    assert header == ["epoch", "mean_loss"]
    assert len(loss_rows) == 2
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
    run_ok(runner, ["pipeline", "--outdir", out, "--synth", "--papers", "120", *FAST_TRAIN, "--points", "3"])
    payload = run_fail(runner, ["regress", "--outdir", out, "--model", "model99"])
    assert payload["error"] == "unknown_model"
    assert "model99" in payload["message"]


# ---------------------------------------------------------------- contracts

def test_merged_metrics_column_contract(runner, tmp_path):
    out = str(tmp_path)
    run_ok(runner, ["pipeline", "--outdir", out, "--synth", "--papers", "200", *FAST_TRAIN, "--points", "3"])
    header, rows = read_csv(tmp_path / "metrics.csv")
    assert tuple(header) == METRIC_COLUMNS
    assert len(rows) == 200
    for row in rows:
        assert len(row) == len(METRIC_COLUMNS)
        assert row[0].startswith("P")
        for cell in row[1:]:
            if cell != "":
                float(cell)  # every populated cell is numeric


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
# `train --dim 8 --epochs 2` and `metrics` with each flag setting.
VOCABULARY_GAP_SHA256 = {
    (): "470daef28ca3302ff58004c2f0235a6785c6eaff18731199cd70386d770a68e1",
    ("--exclude-self",): "ba656599910e2d0fde202f2883280bf6780917d721a4f06ddf617aaee6ec2658",
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
    # Z4 is the only defined member of (J9, 2005): its own mean, or nobody
    assert by_id["Z4"]["journal_distance"] == ("" if flags else "0.0")
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
    run_ok(runner, ["pipeline", "--outdir", out, "--synth", "--papers", "200", *FAST_TRAIN, "--points", "3"])
    run_ok(
        runner,
        ["correlate", "--outdir", out, "--columns", "team_size,citation_count,years"],
    )
    rows = list(csv.reader(open(tmp_path / "correlations.csv", newline="")))
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
    run_ok(runner, ["pipeline", "--outdir", out, "--synth", "--papers", "300", *FAST_TRAIN, "--points", "3"])
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
    run_ok(runner, ["pipeline", "--outdir", out, "--synth", "--papers", "200", *FAST_TRAIN, "--points", "7"])
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
    assert payload["error"] == "stage_failed"
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
    run_ok(runner, ["pipeline", "--outdir", out, "--synth", "--papers", "150", *FAST_TRAIN, "--points", "3"])
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


# Digests of a small stage run (`synth --papers 400 --seed 3 --density 2`,
# `ingest`, `train --dim 8 --epochs 2`, `metrics`, `disrupt`), recorded with
# the per-pair disruption and distance loops; 67 papers have undefined D.
STAGE_RUN_SHA256 = {
    "metrics_space.csv": "2d38abb52dfc1dd9c2a866f6ee7eecedf43cdb73d2a81bde48dc372854daa65b",
    "disruption.csv": "1dcbc3c62f5d2eb76447b1bd30ad504188c374d5d9c7b9d2add9c27c63888ef0",
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
        run_ok(
            runner,
            ["pipeline", "--outdir", str(d), "--synth", "--papers", "150",
             *FAST_TRAIN, "--points", "3", "--loss-log"],
        )
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
    run_ok(runner, ["pipeline", "--outdir", out, "--synth", "--papers", "200", *FAST_TRAIN, "--points", "3"])
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
    "key",
    [
        "paper",  # a typo of papers
        "input_path",  # declared, but read from the command line only
        "model9.outcome",  # no such preset
        "model1.intercept",  # no such preset field
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


@pytest.mark.parametrize(
    "stage, key, value, flag",
    [
        ("synth", "planted", "invertedu", ["--planted", "u"]),  # click.Choice
        ("synth", "papers", "many", ["--papers", "60"]),  # int
        ("synth", "density", "dense", ["--density", "2.5"]),  # float
        ("train", "loss_log", "maybe", ["--loss-log"]),  # bool flag
    ],
)
def test_config_value_is_checked_like_its_flag(runner, tmp_path, stage, key, value, flag):
    out = str(tmp_path)
    run_ok(runner, ["synth", "--outdir", out, "--papers", "60"])
    run_ok(runner, ["ingest", "--outdir", out])
    config = tmp_path / "bad.cfg"
    config.write_text(f"{key} = {value}\n")
    args = [stage, "--outdir", out, "--config", str(config)]
    small = [] if key == "papers" else {"synth": ["--papers", "60"], "train": FAST_TRAIN}[stage]
    payload = run_fail(runner, args + small)
    assert payload["error"] == "bad_config"
    assert payload["key"] == key
    assert repr(key) in payload["message"]
    run_ok(runner, args + small + flag)  # the flag wins, so the file's value is never read


def test_config_values_take_click_spellings_and_flags_win(runner, tmp_path):
    out = str(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("planted = u\npapers = 60\nloss_log = y\nnon_deterministic = f\n")
    run_ok(runner, ["synth", "--outdir", out, "--config", str(config)])
    synth_stage = read_manifest(tmp_path)["stages"]["synth"]
    assert synth_stage["config"]["planted"]["quadratic_sign"] == 1
    assert synth_stage["config"]["n_papers"] == 60
    run_ok(runner, ["synth", "--outdir", out, "--config", str(config), "--planted", "inverted-u"])
    assert read_manifest(tmp_path)["stages"]["synth"]["config"]["planted"]["quadratic_sign"] == -1
    run_ok(runner, ["ingest", "--outdir", out])
    run_ok(runner, ["train", "--outdir", out, "--config", str(config), *FAST_TRAIN])
    train_config = read_manifest(tmp_path)["stages"]["train"]["config"]
    assert train_config["loss_log"] is True
    assert train_config["deterministic"] is True
    assert (tmp_path / "loss_log.csv").exists()


@pytest.mark.parametrize("stage", ["correlate", "regress", "curves"])
@pytest.mark.parametrize(
    "content",
    [",".join(METRIC_COLUMNS) + "\np1,0.1\n", ""],
    ids=["short_row", "empty_file"],
)
def test_malformed_metrics_table_is_structured_error(runner, tmp_path, stage, content):
    (tmp_path / "metrics.csv").write_text(content, encoding="utf-8")
    payload = run_fail(runner, [stage, "--outdir", str(tmp_path)])
    assert payload["error"] == "bad_artifact"
    assert "metrics.csv" in payload["message"]


MERGE_INPUT_HEADERS = {
    "disruption.csv": ",".join(DISRUPTION_COLUMNS),
    "metrics_space.csv": ",".join(SPACE_COLUMNS),
}


@pytest.mark.parametrize(
    "bad_file, stage",
    [("disruption.csv", "metrics"), ("metrics_space.csv", "disrupt")],
    ids=["disruption", "metrics_space"],
)
@pytest.mark.parametrize("defect", ["short_row", "empty_file"])
def test_malformed_merge_input_is_structured_error(runner, tmp_path, bad_file, stage, defect):
    """The other stage's table is bad when this stage finishes and merges."""
    out = str(tmp_path)
    tiny_corpus(tmp_path / "corpus.jsonl")
    run_ok(runner, ["ingest", "--outdir", out])
    run_ok(runner, ["train", "--outdir", out, *FAST_TRAIN])
    content = MERGE_INPUT_HEADERS[bad_file] + "\nA,0.1\n" if defect == "short_row" else ""
    (tmp_path / bad_file).write_text(content, encoding="utf-8")
    payload = run_fail(runner, [stage, "--outdir", out])
    assert payload["error"] == "bad_artifact"
    assert bad_file in payload["message"]
    assert not (tmp_path / "metrics.csv").exists()


@pytest.mark.parametrize("stale", ["metrics", "disrupt"])
def test_merge_refuses_tables_of_different_corpora(runner, tmp_path, stale):
    """After a new corpus, the stage not yet rerun holds an old table."""
    out = str(tmp_path)
    run_ok(runner, ["pipeline", "--outdir", out, "--synth", "--papers", "150", *FAST_TRAIN, "--points", "3"])
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


def probe_in_subprocess(code):
    """stdout of ``python -c code`` with this package's source on the path."""
    import knowspan

    src = os.path.dirname(os.path.dirname(knowspan.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return result.stdout.strip()


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    probe = "import sys, knowspan.cli; print('scipy.stats' in sys.modules)"
    assert probe_in_subprocess(probe) == "False"


def test_ingest_metrics_and_disrupt_leave_scipy_special_unloaded(runner, tmp_path):
    out = str(tmp_path)
    run_ok(runner, ["synth", "--outdir", out, "--papers", "120"])
    run_ok(runner, ["ingest", "--outdir", out])
    run_ok(runner, ["train", "--outdir", out, *FAST_TRAIN])
    probe = (
        "import sys, knowspan.cli as cli\n"
        "loaded = ['scipy.special' in sys.modules]\n"
        "for stage in ('ingest', 'metrics', 'disrupt'):\n"
        f"    cli.main([stage, '--outdir', {out!r}], standalone_mode=False)\n"
        "    loaded.append('scipy.special' in sys.modules)\n"
        "print(loaded)"
    )
    assert probe_in_subprocess(probe) == "[False, False, False, False]"
    assert (tmp_path / "metrics.csv").exists()


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
    ids = [rec["id"] for rec in records]
    for name in ("metrics_space.csv", "disruption.csv", "metrics.csv"):
        _, rows = read_csv(tmp_path / name)
        assert [row[0] for row in rows] == ids, name


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


def test_pipeline_parses_twice_and_links_once(runner, tmp_path, corpus_calls):
    """ingest parses the raw corpus; train, metrics and disrupt share one
    parse of the file it wrote, and metrics and disrupt one graph."""
    args = ["pipeline", "--outdir", str(tmp_path), "--synth", "--papers", "120"]
    run_ok(runner, args + [*FAST_TRAIN, "--points", "3"])
    assert corpus_calls == {"parse": 2, "graph": 1}


def test_each_stage_invocation_parses_and_links_for_itself(runner, tmp_path, corpus_calls):
    out = str(tmp_path)
    run_ok(runner, ["synth", "--outdir", out, "--papers", "120"])
    run_ok(runner, ["ingest", "--outdir", out])
    run_ok(runner, ["train", "--outdir", out, *FAST_TRAIN])
    assert corpus_calls == {"parse": 2, "graph": 0}
    for _ in range(2):
        run_ok(runner, ["metrics", "--outdir", out])
        run_ok(runner, ["disrupt", "--outdir", out])
    assert corpus_calls == {"parse": 6, "graph": 4}


def test_read_corpus_parses_a_rewritten_file_afresh(tmp_path, monkeypatch, corpus_calls):
    monkeypatch.setattr(cli, "_CORPUS_MEMO", {})
    parsed = tmp_path / "corpus.parsed.jsonl"
    write_jsonl(parsed, [record("A", 2000, ["11.22.Aa"])])
    _, first = cli._read_corpus(str(tmp_path))
    _, again = cli._read_corpus(str(tmp_path))
    assert again is first and corpus_calls["parse"] == 1
    write_jsonl(parsed, [record("A", 2000, ["11.22.Aa"]), record("B", 2001, ["11.22.Bb"])])
    _, rewritten = cli._read_corpus(str(tmp_path))
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
