"""Command-line orchestrator: corpus → embedding → metrics → models → curves.

Each subcommand reads prior-stage artifacts from a shared output directory and
writes its own, so stages can be run one at a time or all at once via
``pipeline``.  Every run updates ``manifest.json`` with config hashes and
content digests of inputs and outputs; reruns with the same seed and inputs
are byte-identical.  Failures print one structured JSON line to stderr and
exit nonzero.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import importlib.metadata
import json
import math
import os
import sys
from typing import Iterator

import click
import numpy as np
import scipy
from click.core import ParameterSource

from . import __version__
from .corpus import (
    CitationGraph,
    Corpus,
    CorpusError,
    InvalidCodeError,
    ParseConfig,
    build_citation_graph,
    citation_count,
    log_citation_count,
    parse_corpus,
    team_size,
)
from .disruption import VARIANTS, score_corpus
from .embedding import (
    EmbeddingMatrix,
    TrainingConfig,
    build_training_pairs,
    cosine_distance,
    load_embeddings,
    save_embeddings,
    train_embeddings,
)
from .geometry import article_distance, journal_cells, journal_reference, paper_vector
from .stats import (
    AnalysisTable,
    RankDeficiencyError,
    RegressionSpec,
    fit_model,
    pearson_matrix,
    predicted_curve,
)
from .synthgen import PlantedEffect, SynthConfig, write_corpus
from .tree import KnowledgeTree, build_tree, export_edges, network_distance

# Artifact names are fixed so stages can find each other's outputs.
CORPUS_RAW = "corpus.jsonl"
CORPUS_PARSED = "corpus.parsed.jsonl"
PARSE_REPORT = "parse_report.json"
EMBEDDING = "embedding.txt"
LOSS_LOG = "loss_log.csv"
TREE_EDGES = "tree_edges.csv"
METRICS_SPACE = "metrics_space.csv"
DISRUPTION = "disruption.csv"
METRICS = "metrics.csv"
CORRELATIONS = "correlations.csv"
MANIFEST = "manifest.json"

METRIC_COLUMNS = (
    "paper_id",
    "journal_distance",
    "article_distance",
    "article_distance_log",
    "network_distance",
    "team_size",
    "citation_count",
    "log_citations",
    "d_score",
    "d_percentile",
    "d_n_i",
    "d_n_j",
    "d_n_k",
    "years",
    "n_pages",
    "title_length",
)

SPACE_COLUMNS = tuple(
    c for c in METRIC_COLUMNS if not c.startswith("d_")
)
DISRUPTION_COLUMNS = ("paper_id", "d_score", "d_percentile", "d_n_i", "d_n_j", "d_n_k")

CONTROLS = ("n_pages", "years", "title_length")
MODERATOR = "team_size"

DEFAULT_MODELS: dict[str, RegressionSpec] = {}
for _name, _outcome, _predictors in (
    ("model1", "log_citations", ("network_distance",)),
    ("model2", "log_citations", ("article_distance_log",)),
    ("model3", "log_citations", ("journal_distance",)),
    ("model4", "log_citations", ("network_distance", "article_distance_log", "journal_distance")),
    ("model5", "d_percentile", ("network_distance",)),
    ("model6", "d_percentile", ("article_distance_log",)),
    ("model7", "d_percentile", ("journal_distance",)),
    ("model8", "d_percentile", ("network_distance", "article_distance_log", "journal_distance")),
):
    DEFAULT_MODELS[_name] = RegressionSpec(
        outcome=_outcome, predictors=_predictors, controls=CONTROLS, moderator=MODERATOR
    )

DEFAULT_CORRELATION_COLUMNS = tuple(
    c for c in METRIC_COLUMNS if c != "paper_id" and not c.startswith("d_n_")
)

# The stages whose runs write each artifact that another stage reads.
PRODUCERS = {
    CORPUS_RAW: ("synth",),
    CORPUS_PARSED: ("ingest",),
    EMBEDDING: ("train",),
    METRICS: ("metrics", "disrupt"),  # both stages feed the merged table
}


# ---------------------------------------------------------------------------
# failure reporting


class StageFailure(SystemExit):
    """Raised after the structured error line has been written."""


def _fail(kind: str, message: str, **fields) -> None:
    payload = {"error": kind, "message": message}
    payload.update(fields)
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    raise StageFailure(1)


def _structured_errors(fn):
    """Convert library errors at the command boundary into JSON lines."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except StageFailure:
            raise
        except (CorpusError, InvalidCodeError) as exc:
            _fail("corpus_error", str(exc))
        except RankDeficiencyError as exc:
            _fail("rank_deficient", str(exc))
        except (ValueError, KeyError) as exc:
            _fail("stage_failed", str(exc))
        except OSError as exc:
            _fail("io_error", str(exc))

    return wrapper


def _require(outdir: str, filename: str) -> str:
    """Path of a prior-stage artifact, or a structured missing-file error."""
    path = os.path.join(outdir, filename)
    if not os.path.exists(path):
        producers = PRODUCERS[filename]
        phrase = " and ".join(f"'{p}'" for p in producers)
        plural = "subcommands" if len(producers) > 1 else "subcommand"
        _fail(
            "missing_artifact",
            f"required file '{filename}' is missing; run the {phrase} "
            f"{plural} to produce it",
            path=filename,
            producer=",".join(producers),
        )
    return path


# ---------------------------------------------------------------------------
# manifest


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _read_manifest(outdir: str) -> dict:
    path = os.path.join(outdir, MANIFEST)
    if not os.path.exists(path):
        return {"tool": "knowspan", "stages": {}}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _update_manifest(
    outdir: str,
    stage: str,
    config: dict,
    inputs: dict[str, str],
    outputs: dict[str, str],
    seed: int | None = None,
    **extra,
) -> None:
    """Replace one stage entry; digests keyed by artifact basename only."""
    manifest = _read_manifest(outdir)
    manifest["versions"] = {
        "knowspan": __version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"),
    }
    entry = {
        "config": config,
        "config_hash": _config_hash(config),
        "inputs": {os.path.basename(k): _digest(v) for k, v in inputs.items()},
        "outputs": {os.path.basename(k): _digest(v) for k, v in outputs.items()},
    }
    if seed is not None:
        entry["seed"] = seed
    entry.update(extra)
    manifest.setdefault("stages", {})[stage] = entry
    _write_manifest(outdir, manifest)


def _write_manifest(outdir: str, manifest: dict) -> None:
    with open(os.path.join(outdir, MANIFEST), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# config file and option resolution


def _read_config(path: str) -> dict[str, str]:
    """Plain ``key = value`` lines; '#' starts a comment; blanks ignored."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                _fail(
                    "bad_config",
                    f"{path}:{lineno}: expected 'key = value', got {line!r}",
                )
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _as_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


class Options:
    """Flag > config file > declared default, per option name.

    A config-file value is converted by its option's own click type, so it
    is checked exactly as the flag would be.
    """

    def __init__(self, ctx: click.Context, config: dict[str, str]):
        self.ctx = ctx
        self.config = config

    def get(self, name: str):
        from_flag = self.ctx.get_parameter_source(name) == ParameterSource.COMMANDLINE
        if from_flag or name not in self.config:
            return self.ctx.params[name]
        param = next(p for p in self.ctx.command.params if p.name == name)
        try:
            return param.type_cast_value(self.ctx, self.config[name])
        except click.BadParameter as exc:
            _fail("bad_config", f"config key {name!r}: {exc.message}", key=name)


PRESET_FIELDS = ("outcome", "predictors", "controls", "moderator")
# declared by subcommands but read from the command line only
COMMAND_LINE_ONLY = ("outdir", "config_path", "input_path", "use_synth")


def _check_config_keys(config: dict[str, str]) -> None:
    """Reject a key that no subcommand reads, so a typo is not silently
    ignored.  A key of another subcommand is accepted, so one file can serve
    every stage of a run."""
    known = {p.name for command in main.commands.values() for p in command.params}
    known.difference_update(COMMAND_LINE_ONLY)
    known.update(f"{name}.{field}" for name in DEFAULT_MODELS for field in PRESET_FIELDS)
    for key in config:
        if key not in known:
            _fail(
                "bad_config",
                f"config key {key!r} is not an option any subcommand reads from a config file",
                key=key,
            )


def _model_specs(config: dict[str, str]) -> dict[str, RegressionSpec]:
    """Built-in model presets, overridable per field from the config file."""
    specs = {}
    for name, base in DEFAULT_MODELS.items():
        predictors = config.get(f"{name}.predictors")
        controls = config.get(f"{name}.controls")
        moderator = config.get(f"{name}.moderator", base.moderator)
        if moderator in ("none", ""):
            moderator = None
        specs[name] = dataclasses.replace(
            base,
            outcome=config.get(f"{name}.outcome", base.outcome),
            predictors=_as_list(predictors) if predictors else base.predictors,
            controls=_as_list(controls) if controls is not None else base.controls,
            moderator=moderator,
        )
    return specs


# ---------------------------------------------------------------------------
# CSV helpers


def _cell(value) -> str:
    """Empty string for undefined values — never a stand-in zero."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: str, header: tuple[str, ...], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _table_rows(
    path: str, kind: str, columns: tuple[str, ...] | None = None
) -> Iterator[list[str]]:
    """The header, then each data row, of a per-paper CSV artifact.

    The header must equal ``columns`` when given, and start with paper_id
    otherwise; every row must have as many cells as the header.  Anything
    else, an empty file included, fails the stage with ``bad_artifact``.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "paper_id" or (columns and header != list(columns)):
            _fail("bad_artifact", f"{path} does not look like a {kind} table")
        yield header
        for number, row in enumerate(reader, start=1):
            if len(row) != len(header):
                _fail(
                    "bad_artifact",
                    f"{path} data row {number} has {len(row)} cells; "
                    f"the header has {len(header)}",
                )
            yield row


def _load_metrics_table(path: str) -> tuple[list[str], AnalysisTable]:
    """(paper ids, numeric table) from the merged metrics CSV; blanks → NaN."""
    header, *rows = _table_rows(path, "metrics")
    ids = [row[0] for row in rows]
    columns = {}
    for j, name in enumerate(header[1:], start=1):
        columns[name] = np.array(
            [float(row[j]) if row[j] != "" else math.nan for row in rows]
        )
    return ids, AnalysisTable(columns)


# The parsed corpus of the running command, with its citation graph once
# built: `pipeline` runs train, metrics and disrupt on one file.  At most one
# entry, keyed by the file's digest and the parse settings; `_command` empties
# it as each command starts.
_CORPUS_MEMO: dict[str, object] = {}


def _read_corpus(outdir: str) -> tuple[str, Corpus]:
    """Path and contents of the parsed corpus.

    The file is parsed with the year range and padding ingest recorded in
    the manifest, so later stages keep every paper ingest kept, and with the
    end year ingest used (which --end-year sets), so paper ages agree.  A
    file already parsed with those settings in this command is not parsed
    again.
    """
    path = _require(outdir, CORPUS_PARSED)
    ingest = _read_manifest(outdir).get("stages", {}).get("ingest", {})
    recorded = ingest.get("config", {})
    parse = ParseConfig(
        **{k: recorded[k] for k in ("min_year", "max_year", "pad_short_codes") if k in recorded},
        dataset_end_year=ingest.get("end_year"),
    )
    key = (_digest(path), dataclasses.astuple(parse))
    if _CORPUS_MEMO.get("key") != key:
        with open(path, encoding="utf-8") as fh:
            corpus, _ = parse_corpus(fh, parse)
        _CORPUS_MEMO.clear()
        _CORPUS_MEMO.update(key=key, corpus=corpus)
    return path, _CORPUS_MEMO["corpus"]


def _read_graph(outdir: str) -> tuple[str, Corpus, CitationGraph]:
    """`_read_corpus`, plus the corpus's citation graph, built once."""
    path, corpus = _read_corpus(outdir)
    if "graph" not in _CORPUS_MEMO:
        _CORPUS_MEMO["graph"] = build_citation_graph(corpus)
    return path, corpus, _CORPUS_MEMO["graph"]


# ---------------------------------------------------------------------------
# stage bodies (plain functions so `pipeline` can chain them)


def _stage_synth(outdir: str, config: SynthConfig) -> str:
    out_path = os.path.join(outdir, CORPUS_RAW)
    write_corpus(config, out_path)
    settings = dataclasses.asdict(config)
    seed = settings.pop("seed")  # recorded beside the config, not in it
    settings["planted"] = settings.pop("planted_effect")
    _update_manifest(
        outdir,
        "synth",
        config=settings,
        inputs={},
        outputs={CORPUS_RAW: out_path},
        seed=seed,
    )
    return out_path


def _stage_ingest(outdir: str, input_path: str, parse: ParseConfig) -> None:
    parsed_path = os.path.join(outdir, CORPUS_PARSED)
    report_path = os.path.join(outdir, PARSE_REPORT)
    with open(input_path, encoding="utf-8") as fh:
        corpus, report = parse_corpus(fh, parse)
    with open(parsed_path, "w", encoding="utf-8", newline="\n") as fh:
        for paper in corpus:
            fh.write(
                json.dumps(paper.to_record(), sort_keys=True, separators=(",", ":"))
            )
            fh.write("\n")
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    _update_manifest(
        outdir,
        "ingest",
        config={"input": os.path.basename(input_path), **dataclasses.asdict(parse)},
        inputs={CORPUS_RAW: input_path},
        outputs={CORPUS_PARSED: parsed_path, PARSE_REPORT: report_path},
        n_parsed=report.n_parsed,
        n_skipped=report.n_skipped,
        end_year=corpus.dataset_end_year,
    )


def _stage_train(outdir: str, config: TrainingConfig, loss_log: bool) -> None:
    parsed_path, corpus = _read_corpus(outdir)
    matrix = train_embeddings(build_training_pairs(corpus), config)
    embedding_path = os.path.join(outdir, EMBEDDING)
    save_embeddings(matrix, embedding_path)
    outputs = {EMBEDDING: embedding_path}
    if loss_log:
        loss_path = os.path.join(outdir, LOSS_LOG)
        _write_csv(
            loss_path,
            ("epoch", "mean_loss"),
            [(e + 1, loss) for e, loss in enumerate(matrix.loss_by_epoch)],
        )
        outputs[LOSS_LOG] = loss_path
    settings = dataclasses.asdict(config)
    seed = settings.pop("seed")  # recorded beside the config, not in it
    _update_manifest(
        outdir,
        "train",
        config={**settings, "loss_log": loss_log},
        inputs={CORPUS_PARSED: parsed_path},
        outputs=outputs,
        seed=seed,
        vocabulary=len(matrix.vocabulary),
    )


def _space_rows(
    corpus: Corpus,
    graph: CitationGraph,
    emb: EmbeddingMatrix,
    tree: KnowledgeTree,
    exclude_self: bool,
) -> tuple[list[tuple], int]:
    """Per-paper metric rows; embedding-derived cells are empty when a code
    is missing from the trained vocabulary or a journal-year cell has no
    usable reference point."""
    vectors: dict[str, np.ndarray | None] = {}
    for pid, paper in corpus.papers.items():
        if all(code in emb for code in paper.pacs_codes):
            vectors[pid] = paper_vector(paper, emb)
        else:
            vectors[pid] = None
    cells = journal_cells(corpus, vectors)

    rows = []
    n_missing = 0
    for pid, paper in corpus.papers.items():
        vec = vectors[pid]
        journal_dist = None
        article_dist = None
        article_dist_log = None
        if vec is None:
            n_missing += 1
        else:
            article_dist = article_distance(paper, emb)
            article_dist_log = float(np.log1p(article_dist))
            reference = journal_reference(
                cells[(paper.journal, paper.year)], vec, exclude_self
            )
            if reference is not None:
                journal_dist = cosine_distance(vec, reference)
        rows.append(
            (
                pid,
                journal_dist,
                article_dist,
                article_dist_log,
                network_distance(paper, tree),
                team_size(paper),
                citation_count(paper, graph),
                log_citation_count(paper, graph),
                corpus.paper_age(paper),
                paper.n_pages,
                paper.title_length,
            )
        )
    return rows, n_missing


def _merge_metrics(outdir: str) -> None:
    """Join the space and disruption tables on paper_id into metrics.csv.

    Runs from whichever stage finished second, when both tables exist and
    the manifest records that `metrics` and `disrupt` read the same parsed
    corpus.  Otherwise any earlier metrics.csv and its `merge` entry are
    removed, so the merged table is missing rather than mixing generations.
    """
    space_path = os.path.join(outdir, METRICS_SPACE)
    disruption_path = os.path.join(outdir, DISRUPTION)
    if not (os.path.exists(space_path) and os.path.exists(disruption_path)):
        return
    rows = _table_rows(disruption_path, "disruption", DISRUPTION_COLUMNS)
    next(rows)
    disruption_by_id = {row[0]: row[1:] for row in rows}
    for _ in _table_rows(space_path, "space metrics", SPACE_COLUMNS):
        pass  # check every row before metrics.csv is opened for writing
    merged_path = os.path.join(outdir, METRICS)
    manifest = _read_manifest(outdir)
    stages = manifest["stages"]
    metrics_corpus, disrupt_corpus = (
        stages.get(stage, {}).get("inputs", {}).get(CORPUS_PARSED)
        for stage in ("metrics", "disrupt")
    )
    if metrics_corpus is None or metrics_corpus != disrupt_corpus:
        if os.path.exists(merged_path):
            os.remove(merged_path)
        stages.pop("merge", None)
        _write_manifest(outdir, manifest)
        return
    empty = [""] * (len(DISRUPTION_COLUMNS) - 1)
    with open(merged_path, "w", encoding="utf-8", newline="") as dst:
        writer = csv.writer(dst, lineterminator="\n")
        rows = _table_rows(space_path, "space metrics", SPACE_COLUMNS)
        next(rows)
        writer.writerow(METRIC_COLUMNS)
        for row in rows:
            head, tail = row[:8], row[8:]
            writer.writerow(head + disruption_by_id.get(row[0], empty) + tail)
    _update_manifest(
        outdir,
        "merge",
        config={"columns": list(METRIC_COLUMNS)},
        inputs={METRICS_SPACE: space_path, DISRUPTION: disruption_path},
        outputs={METRICS: merged_path},
    )


def _stage_metrics(outdir: str, exclude_self: bool, export_tree: bool) -> None:
    parsed_path, corpus, graph = _read_graph(outdir)
    embedding_path = _require(outdir, EMBEDDING)
    emb = load_embeddings(embedding_path)
    tree = build_tree(corpus.distinct_codes())
    rows, n_missing = _space_rows(corpus, graph, emb, tree, exclude_self)
    space_path = os.path.join(outdir, METRICS_SPACE)
    _write_csv(space_path, SPACE_COLUMNS, rows)
    outputs = {METRICS_SPACE: space_path}
    if export_tree:
        tree_path = os.path.join(outdir, TREE_EDGES)
        export_edges(tree, tree_path)
        outputs[TREE_EDGES] = tree_path
    _update_manifest(
        outdir,
        "metrics",
        config={"exclude_self": exclude_self, "export_tree": export_tree},
        inputs={CORPUS_PARSED: parsed_path, EMBEDDING: embedding_path},
        outputs=outputs,
        n_papers=len(corpus.papers),
        n_missing_vocabulary=n_missing,
    )
    _merge_metrics(outdir)


def _stage_disrupt(outdir: str, variant: str) -> None:
    parsed_path, corpus, graph = _read_graph(outdir)
    scored = score_corpus(corpus, graph, variant)
    rows = []
    n_defined = 0
    for pid in corpus.papers:
        counts, score = scored[pid]
        n_defined += score.d is not None
        rows.append((pid, score.d, score.percentile, counts.n_i, counts.n_j, counts.n_k))
    disruption_path = os.path.join(outdir, DISRUPTION)
    _write_csv(disruption_path, DISRUPTION_COLUMNS, rows)
    _update_manifest(
        outdir,
        "disrupt",
        config={"d_variant": variant},
        inputs={CORPUS_PARSED: parsed_path},
        outputs={DISRUPTION: disruption_path},
        n_defined=n_defined,
        n_undefined=len(rows) - n_defined,
    )
    _merge_metrics(outdir)


def _stage_correlate(outdir: str, columns: tuple[str, ...]) -> None:
    metrics_path = _require(outdir, METRICS)
    _, table = _load_metrics_table(metrics_path)
    matrix = pearson_matrix(table, columns)
    correlations_path = os.path.join(outdir, CORRELATIONS)
    n = len(matrix.columns)
    # r above the diagonal, p below, unity on it
    rows = [
        [name] + [matrix.r[i, j] if j > i else matrix.p[i, j] if j < i else 1.0 for j in range(n)]
        for i, name in enumerate(matrix.columns)
    ]
    _write_csv(correlations_path, ("",) + tuple(matrix.columns), rows)
    _update_manifest(
        outdir,
        "correlate",
        config={"columns": list(columns)},
        inputs={METRICS: metrics_path},
        outputs={CORRELATIONS: correlations_path},
        df=matrix.df,
        n_complete=matrix.df + 2,
    )


def _fit_named_model(
    name: str, spec: RegressionSpec, table: AnalysisTable, center: str
):
    missing = [c for c in spec.base_columns() if c not in table.columns]
    if missing:
        _fail(
            "unknown_column",
            f"{name} references columns absent from the metrics table: "
            + ", ".join(sorted(missing)),
        )
    return fit_model(dataclasses.replace(spec, centering=center), table)


def _stage_regress(
    outdir: str, models: dict[str, RegressionSpec], names: tuple[str, ...], center: str
) -> None:
    metrics_path = _require(outdir, METRICS)
    _, table = _load_metrics_table(metrics_path)
    outputs = {}
    summaries = {}
    for name in names:
        result = _fit_named_model(name, models[name], table, center)
        out_path = os.path.join(outdir, f"regression_{name}.csv")
        rows = [(t.name, t.coefficient, t.std_error, t.t, t.p, t.stars) for t in result.terms]
        rows.append(("adjusted_r2", result.adjusted_r2, "", "", "", ""))
        rows.append(("n", result.n, "", "", "", ""))
        _write_csv(out_path, ("term", "coefficient", "std_error", "t", "p", "stars"), rows)
        outputs[f"regression_{name}.csv"] = out_path
        summaries[name] = {
            "n": result.n,
            "adjusted_r2": result.adjusted_r2,
            "terms": len(result.terms),
        }
    _update_manifest(
        outdir,
        "regress",
        config={"models": list(names), "center": center},
        inputs={METRICS: metrics_path},
        outputs=outputs,
        fits=summaries,
    )


def _moderator_levels(spec: RegressionSpec, table: AnalysisTable) -> list[float]:
    """Mean and mean ± 1 SD of the moderator over the rows the model is
    fitted on: listwise over the outcome and every base column."""
    sample = table.listwise((spec.outcome, *spec.base_columns()))
    assert spec.moderator is not None
    values = sample.column(spec.moderator)
    mean, sd = float(values.mean()), float(values.std(ddof=1))
    return [mean - sd, mean, mean + sd]


def _stage_curves(
    outdir: str,
    models: dict[str, RegressionSpec],
    names: tuple[str, ...],
    center: str,
    points: int,
    levels: tuple[float, ...] | None,
) -> None:
    metrics_path = _require(outdir, METRICS)
    _, table = _load_metrics_table(metrics_path)
    outputs = {}
    for name in names:
        spec = models[name]
        result = _fit_named_model(name, spec, table, center)
        model_levels: list[float] | None
        if spec.moderator is None:
            model_levels = None
        else:
            model_levels = list(levels) if levels else _moderator_levels(spec, table)
        rows = []
        for predictor in spec.predictors:
            low, high = result.design.base_ranges[predictor]
            grid = np.linspace(low, high, points)
            for point in predicted_curve(
                result, predictor, grid, moderator_levels=model_levels
            ):
                rows.append(
                    (
                        point.predictor,
                        point.value,
                        point.moderator_level,
                        point.prediction,
                        point.extrapolated,
                    )
                )
        out_path = os.path.join(outdir, f"curves_{name}.csv")
        _write_csv(
            out_path,
            ("predictor", "predictor_value", "moderator_level", "prediction", "extrapolated"),
            rows,
        )
        outputs[f"curves_{name}.csv"] = out_path
    _update_manifest(
        outdir,
        "curves",
        config={
            "models": list(names),
            "center": center,
            "points": points,
            "levels": list(levels) if levels else "mean±sd",
        },
        inputs={METRICS: metrics_path},
        outputs=outputs,
    )


# ---------------------------------------------------------------------------
# click wiring: each option is declared once, in the group of the stage that
# reads it, and `pipeline` takes the groups of the stages it runs


OUTDIR_OPTION = click.option(
    "--outdir",
    default=".",
    show_default=True,
    type=click.Path(file_okay=False),
    help="Directory holding all stage artifacts.",
)
CONFIG_OPTION = click.option(
    "--config",
    "config_path",
    default=None,
    type=click.Path(exists=True, dir_okay=False),
    help="Plain key = value config file; flags given explicitly win.",
)


def _seed_option(default: int):
    return click.option("--seed", default=default, show_default=True, type=int)


PAPERS_OPTION = click.option("--papers", default=5000, show_default=True, type=int)
MODEL_OPTION = click.option(
    "--model", default="all", show_default=True, help="Preset name or 'all'."
)
CENTER_OPTION = click.option(
    "--center",
    type=click.Choice(["none", "mean"]),
    default="none",
    show_default=True,
    help="Mean-center predictors and moderator before products.",
)
POINTS_OPTION = click.option("--points", default=41, show_default=True, type=int)

INGEST_OPTIONS = (
    click.option(
        "--input",
        "input_path",
        default=None,
        type=click.Path(dir_okay=False),
        help="Corpus JSONL to ingest [default: <outdir>/corpus.jsonl].",
    ),
    click.option("--min-year", default=1800, show_default=True, type=int),
    click.option("--max-year", default=2100, show_default=True, type=int),
    click.option(
        "--end-year", default=0, type=int, help="Dataset end year [default: max observed]."
    ),
    click.option("--pad-short-codes", is_flag=True, default=False),
)
TRAIN_OPTIONS = (
    click.option("--dim", default=50, show_default=True, type=int),
    click.option("--negatives", default=5, show_default=True, type=int),
    click.option("--epochs", default=5, show_default=True, type=int),
    click.option("--initial-lr", default=0.025, show_default=True, type=float),
    click.option("--final-lr", default=1e-4, show_default=True, type=float),
    _seed_option(0),
    click.option("--non-deterministic", is_flag=True, default=False),
    click.option("--loss-log", is_flag=True, default=False, help="Also write loss_log.csv."),
)
METRICS_OPTIONS = (
    click.option(
        "--exclude-self",
        is_flag=True,
        default=False,
        help="Drop the focal paper from its journal-year mean.",
    ),
    click.option("--export-tree", is_flag=True, default=False, help="Also write tree_edges.csv."),
)
DISRUPT_OPTIONS = (
    click.option(
        "--d-variant",
        type=click.Choice(list(VARIANTS)),
        default="disjoint",
        show_default=True,
    ),
)


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="knowspan")
def main() -> None:
    """Category-embedding analytics for citation corpora.

    Stages share one output directory: synth/ingest prepare the corpus,
    train fits code vectors, metrics and disrupt emit the per-paper table,
    correlate/regress/curves fit and export the statistical models.
    """


def _command(*options):
    """Register ``body(opts, outdir)`` as a subcommand named after it.

    The subcommand takes the given options plus --outdir and --config, and
    reports failures as structured errors.  The body itself is returned, so
    `pipeline` can run it with its own Options.
    """

    def register(body):
        @click.pass_context
        @_structured_errors
        def command(ctx, outdir, config_path, **_):
            _CORPUS_MEMO.clear()  # one invocation never sees another's corpus
            os.makedirs(outdir, exist_ok=True)
            config = _read_config(config_path) if config_path else {}
            _check_config_keys(config)
            body(Options(ctx, config), outdir)

        for option in reversed((OUTDIR_OPTION, CONFIG_OPTION, *options)):
            command = option(command)
        main.command(name=body.__name__, help=body.__doc__)(command)
        return body

    return register


@_command(
    _seed_option(7),
    PAPERS_OPTION,
    click.option("--codes", default=60, show_default=True, type=int),
    click.option("--blocks", default=6, show_default=True, type=int),
    click.option("--codes-per-paper", default=5, show_default=True, type=int),
    click.option("--journals", default=8, show_default=True, type=int),
    click.option("--density", default=12.0, show_default=True, type=float),
    click.option("--leakage", default=0.15, show_default=True, type=float),
    click.option(
        "--planted",
        type=click.Choice(["none", "inverted-u", "u"]),
        default="none",
        show_default=True,
        help="Optionally bias citations by a quadratic in block spread.",
    ),
    click.option(
        "--planted-moderator",
        type=click.Choice(["none", "amplify", "dampen"]),
        default="none",
        show_default=True,
    ),
)
def synth(opts: Options, outdir: str) -> None:
    """Generate a seeded synthetic corpus as corpus.jsonl."""
    planted_shape = opts.get("planted")
    if planted_shape == "none":
        effect = None
    else:
        effect = PlantedEffect(
            quadratic_sign=-1 if planted_shape == "inverted-u" else 1,
            moderator_sign={"none": 0, "amplify": 1, "dampen": -1}[opts.get("planted_moderator")],
        )
    config = SynthConfig(
        seed=opts.get("seed"),
        n_papers=opts.get("papers"),
        n_codes=opts.get("codes"),
        n_blocks=opts.get("blocks"),
        codes_per_paper=opts.get("codes_per_paper"),
        n_journals=opts.get("journals"),
        citation_density=opts.get("density"),
        cross_block_leakage=opts.get("leakage"),
        planted_effect=effect,
    )
    _stage_synth(outdir, config)


@_command(*INGEST_OPTIONS)
def ingest(opts: Options, outdir: str) -> None:
    """Validate and normalize a corpus into corpus.parsed.jsonl."""
    input_path = opts.ctx.params["input_path"]  # from the command line only
    if input_path is None:
        input_path = _require(outdir, CORPUS_RAW)
    elif not os.path.exists(input_path):
        _fail("missing_input", f"input file {input_path!r} does not exist")
    end_year = opts.get("end_year")
    parse = ParseConfig(
        min_year=opts.get("min_year"),
        max_year=opts.get("max_year"),
        dataset_end_year=end_year if end_year else None,
        pad_short_codes=opts.get("pad_short_codes"),
    )
    _stage_ingest(outdir, input_path, parse)


@_command(*TRAIN_OPTIONS)
def train(opts: Options, outdir: str) -> None:
    """Fit code vectors on co-assignment pairs; writes embedding.txt."""
    config = TrainingConfig(
        dim=opts.get("dim"),
        negatives_per_positive=opts.get("negatives"),
        epochs=opts.get("epochs"),
        initial_learning_rate=opts.get("initial_lr"),
        final_learning_rate=opts.get("final_lr"),
        seed=opts.get("seed"),
        deterministic=not opts.get("non_deterministic"),
    )
    _stage_train(outdir, config, opts.get("loss_log"))


@_command(*METRICS_OPTIONS)
def metrics(opts: Options, outdir: str) -> None:
    """Per-paper distances and covariates; writes metrics_space.csv."""
    _stage_metrics(outdir, opts.get("exclude_self"), opts.get("export_tree"))


@_command(*DISRUPT_OPTIONS)
def disrupt(opts: Options, outdir: str) -> None:
    """Disruption counts, scores, and percentiles; writes disruption.csv."""
    _stage_disrupt(outdir, opts.get("d_variant"))


@_command(
    click.option(
        "--columns",
        default=",".join(DEFAULT_CORRELATION_COLUMNS),
        show_default=False,
        help="Comma-separated metric columns [default: all numeric metrics].",
    )
)
def correlate(opts: Options, outdir: str) -> None:
    """Pairwise correlations; writes correlations.csv (r above, p below)."""
    _stage_correlate(outdir, _as_list(opts.get("columns")))


def _selected_models(opts: Options) -> tuple[dict[str, RegressionSpec], tuple[str, ...]]:
    models = _model_specs(opts.config)
    requested = opts.get("model")
    if requested == "all":
        return models, tuple(models)
    if requested not in models:
        _fail(
            "unknown_model",
            f"unknown model {requested!r}; choose from {', '.join(models)} or 'all'",
        )
    return models, (requested,)


@_command(MODEL_OPTION, CENTER_OPTION)
def regress(opts: Options, outdir: str) -> None:
    """Fit model presets; writes regression_<model>.csv term tables."""
    models, names = _selected_models(opts)
    _stage_regress(outdir, models, names, opts.get("center"))


@_command(
    MODEL_OPTION,
    CENTER_OPTION,
    POINTS_OPTION,
    click.option(
        "--levels",
        default=None,
        help="Comma-separated moderator levels [default: mean and mean±1 SD].",
    ),
)
def curves(opts: Options, outdir: str) -> None:
    """Predicted-outcome grids per predictor; writes curves_<model>.csv."""
    models, names = _selected_models(opts)
    raw_levels = opts.get("levels")
    levels = tuple(float(v) for v in _as_list(raw_levels)) if raw_levels else None
    _stage_curves(outdir, models, names, opts.get("center"), opts.get("points"), levels)


@_command(
    click.option(
        "--synth", "use_synth", is_flag=True, default=False, help="Generate the corpus first."
    ),
    PAPERS_OPTION,
    *INGEST_OPTIONS,
    *TRAIN_OPTIONS,
    *METRICS_OPTIONS,
    *DISRUPT_OPTIONS,
    CENTER_OPTION,
    POINTS_OPTION,
)
def pipeline(opts: Options, outdir: str) -> None:
    """Run every stage in order on one corpus.

    With --synth, first generates the default 5,000-paper corpus with a
    planted inverted-U citation effect (amplified by team size).  --seed
    seeds both the corpus and the training.
    """
    if opts.ctx.params["use_synth"]:  # from the command line only
        if opts.ctx.params["input_path"] is not None:
            _fail("bad_arguments", "--input and --synth are mutually exclusive")
        synth_config = SynthConfig(
            seed=opts.get("seed"),
            n_papers=opts.get("papers"),
            planted_effect=PlantedEffect(quadratic_sign=-1, moderator_sign=1),
        )
        _stage_synth(outdir, synth_config)
    ingest(opts, outdir)
    train(opts, outdir)
    metrics(opts, outdir)
    disrupt(opts, outdir)
    models = _model_specs(opts.config)
    center = opts.get("center")
    _stage_correlate(outdir, DEFAULT_CORRELATION_COLUMNS)
    _stage_regress(outdir, models, tuple(models), center)
    _stage_curves(outdir, models, tuple(models), center, opts.get("points"), None)


if __name__ == "__main__":
    main()
