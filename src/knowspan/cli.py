"""Command-line orchestrator: corpus → embedding → metrics → models → curves.

Each subcommand reads prior-stage artifacts from a shared output directory and
writes its own, so stages can be run one at a time or all at once via
``pipeline``.  Every run updates ``manifest.json`` with config hashes and
content digests of inputs and outputs; reruns with the same seed and inputs
are byte-identical.  Failures print one structured JSON line to stderr and
exit nonzero.
"""

from __future__ import annotations

import array
import contextlib
import csv
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import operator
import os
import sys
from typing import Iterator, Sequence, TextIO

import click
import numpy as np
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
from .synthgen import PlantedEffect, SynthConfig, generate
from .tree import KnowledgeTree, build_tree, network_distance

# Artifact names are fixed so stages can find each other's outputs.
CORPUS_RAW = "corpus.jsonl"
CORPUS_PARSED = "corpus.parsed.jsonl"
PARSE_REPORT = "parse_report.json"
EMBEDDING = "embedding.txt"
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

SPACE_COLUMNS = tuple(c for c in METRIC_COLUMNS if not c.startswith("d_"))
DISRUPTION_COLUMNS = ("paper_id",) + tuple(c for c in METRIC_COLUMNS if c.startswith("d_"))

# the CitationGraph counters that the metrics and disrupt manifest entries record
GRAPH_COUNTERS = ("n_edges", "n_dropped_out_of_corpus", "n_dropped_year_order")

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

# The type of each manifest field a stage reads back, by its path below
# "stages".  A field may be absent, but not of another type.
RECORDED_TYPES = (
    ("ingest", dict), ("ingest.config", dict), ("ingest.end_year", int),
    ("ingest.config.min_year", int), ("ingest.config.max_year", int),
    ("ingest.config.pad_short_codes", bool),
    ("metrics", dict), ("metrics.inputs", dict), ("disrupt", dict), ("disrupt.inputs", dict),
)


# ---------------------------------------------------------------------------
# failure reporting


class StageFailure(SystemExit):
    """Raised after the structured error line has been written."""


def _fail(kind: str, message: str, *, exit_code: int = 1, **fields) -> None:
    payload = {"error": kind, "message": message}
    payload.update(fields)
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    raise StageFailure(exit_code)


@contextlib.contextmanager
def _structured_errors() -> Iterator[None]:
    """Report a failure as one JSON line: a usage error, such as an unknown
    subcommand or option or a flag value its type refuses, as
    ``bad_arguments`` with click's exit code, and a library error by its kind."""
    try:
        yield
    except click.exceptions.NoArgsIsHelpError:
        raise  # a bare `knowspan` prints its help
    except click.UsageError as exc:
        _fail("bad_arguments", exc.format_message(), exit_code=exc.exit_code)
    except (CorpusError, InvalidCodeError) as exc:
        _fail("corpus_error", str(exc))
    except RankDeficiencyError as exc:
        _fail("rank_deficient", str(exc))
    except ValueError as exc:
        _fail("stage_failed", str(exc))
    except KeyError as exc:  # its str() is the repr of its argument
        _fail("stage_failed", str(exc.args[0]) if exc.args else repr(exc))
    except OSError as exc:
        _fail("io_error", str(exc))


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
        for chunk in iter(lambda: fh.read(1 << 16), b""):
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
        try:
            manifest = json.load(fh)
        except ValueError:  # truncated, or not JSON
            manifest = None
    if not (isinstance(manifest, dict) and isinstance(manifest.get("stages"), dict)):
        _fail("bad_artifact", f"{path} is not a JSON object with a 'stages' object")
    for field, kind in RECORDED_TYPES:  # parents first, so each lookup finds an object
        *parents, name = field.split(".")
        entry = functools.reduce(lambda obj, key: obj.get(key, {}), parents, manifest["stages"])
        if name in entry and type(entry[name]) is not kind:  # a JSON true is no integer
            _fail("bad_artifact", f"{path}: stages.{field} is not of type {kind.__name__}")
    return manifest


def _update_manifest(
    outdir: str, stage: str, config: dict, inputs: Sequence[str], outputs: Sequence[str],
    *, paths: dict[str, str] | None = None, **extra,
) -> None:
    """Replace one stage entry, with the digest of each input and output
    artifact by its name.  Each is read in ``outdir`` unless ``paths`` gives
    its path: ingest's input may lie outside it."""
    paths = {name: os.path.join(outdir, name) for name in (*inputs, *outputs)} | (paths or {})
    manifest = _read_manifest(outdir)
    manifest["versions"] = {
        "knowspan": __version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
    }
    entry = {
        "config": config,
        "config_hash": _config_hash(config),
        "inputs": {name: _digest(paths[name]) for name in inputs},
        "outputs": {name: _digest(paths[name]) for name in outputs},
    }
    entry.update(extra)
    manifest.setdefault("stages", {})[stage] = entry
    _write_json(outdir, MANIFEST, manifest)


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


# each model-preset field, with the fewest and most columns it names; a
# moderator of 'none' names none
PRESET_FIELDS = {
    "outcome": (1, 1, "exactly one column"),
    "predictors": (1, math.inf, "at least one column"),
    "controls": (0, math.inf, "any number of columns"),
    "moderator": (0, 1, "one column or 'none'"),
}
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
    """Built-in model presets, overridable per field from the config file.

    Each preset value is checked before any work, as an option value is: a
    field naming too few or too many columns, or a column named twice in one
    model, fails as ``bad_config`` naming its key."""
    specs = {}
    for name, base in DEFAULT_MODELS.items():
        roles = {"outcome": (base.outcome,), "predictors": base.predictors,
                 "controls": base.controls, "moderator": (base.moderator,)}
        given = [field for field in PRESET_FIELDS if f"{name}.{field}" in config]
        for field in given:
            key, raw = f"{name}.{field}", config[f"{name}.{field}"]
            fewest, most, takes = PRESET_FIELDS[field]
            roles[field] = () if field == "moderator" and raw == "none" else _as_list(raw)
            if not fewest <= len(roles[field]) <= most:
                _fail("bad_config", f"config key {key!r} takes {takes}; got {raw!r}", key=key)
        named = [column for columns in roles.values() for column in columns]
        repeated = next((column for column in named if named.count(column) > 1), None)
        if repeated is not None:  # the presets name each column once, so a value given did
            key = next(f"{name}.{field}" for field in given if repeated in roles[field])
            _fail("bad_config", f"config key {key!r}: {name} names {repeated!r} twice", key=key)
        specs[name] = dataclasses.replace(
            base,
            outcome=roles["outcome"][0],
            predictors=roles["predictors"],
            controls=roles["controls"],
            moderator=roles["moderator"][0] if roles["moderator"] else None,
        )
    return specs


# ---------------------------------------------------------------------------
# artifact writers


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


@contextlib.contextmanager
def _replacing(outdir: str, name: str) -> Iterator[TextIO]:
    """A text file at ``<name>.partial`` in ``outdir``, which replaces artifact
    ``name`` when the block ends.  Any failure in the block removes the partial
    file and leaves ``name`` as it was, so a later stage never reads a
    half-written artifact.  Every artifact is written through here, so the
    first write makes the output directory, and a refused command makes none."""
    path = os.path.join(outdir, name)
    partial = path + ".partial"
    os.makedirs(os.path.dirname(path), exist_ok=True)
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:  # a StageFailure is a SystemExit
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise


def _write_csv(outdir: str, name: str, header: tuple[str, ...], rows) -> None:
    """Write the header and each row as they come; a bad row of a streamed
    table leaves the artifact as it was."""
    with _replacing(outdir, name) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _write_json(outdir: str, name: str, obj) -> None:
    with _replacing(outdir, name) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def _load_metrics_table(path: str) -> AnalysisTable:
    """The numeric columns of the merged metrics CSV; blanks → NaN.  A cell
    that is not a finite number fails the stage with ``bad_artifact``: the
    stages never write inf or nan, and the analyses would drop its row as
    missing.  Of several such cells, the leftmost column's is reported, and
    in it the first cell that is no number, else the first non-finite one.

    Each cell is parsed as its row is read, straight into its column's
    buffer, so no row outlives its parsing.
    """
    rows = _table_rows(path, "metrics")
    with contextlib.closing(rows):
        names = next(rows)[1:]
        buffers = [array.array("d") for _ in names]
        not_numbers: dict[int, str] = {}  # per column index, its first defect of each kind
        not_finite: dict[int, str] = {}
        for number, row in enumerate(rows, start=1):
            for j, cell in enumerate(row[1:]):
                try:
                    value = float(cell) if cell != "" else math.nan
                except ValueError as exc:
                    not_numbers.setdefault(j, str(exc))
                    value = math.nan
                else:
                    if cell != "" and not math.isfinite(value):
                        not_finite.setdefault(
                            j, f"data row {number} holds {cell!r}, not a finite number"
                        )
                buffers[j].append(value)
    if not_numbers or not_finite:
        j = min(not_numbers.keys() | not_finite.keys())
        _fail("bad_artifact", f"{path} column {names[j]!r}: {not_numbers.get(j) or not_finite[j]}")
    return AnalysisTable(
        {name: np.frombuffer(buffer, dtype=np.float64) for name, buffer in zip(names, buffers)}
    )


def _read_metrics(outdir: str) -> AnalysisTable:
    """Numeric columns of the merged metrics table."""
    return _load_metrics_table(_require(outdir, METRICS))


def _read_corpus(outdir: str) -> Corpus:
    """Contents of the parsed corpus.

    The file is parsed with the year range and padding ingest recorded in
    the manifest, so later stages keep every paper ingest kept, and with the
    end year ingest used (which --end-year sets), so paper ages agree.
    Ingest writes only records it keeps, so a record the parse skips means a
    damaged file, which fails the stage with ``bad_artifact``.
    """
    path = _require(outdir, CORPUS_PARSED)
    ingest = _read_manifest(outdir)["stages"].get("ingest", {})
    recorded = ingest.get("config", {})
    parse = ParseConfig(
        **{k: recorded[k] for k in ("min_year", "max_year", "pad_short_codes") if k in recorded},
        dataset_end_year=ingest.get("end_year"),
    )
    with open(path, encoding="utf-8") as fh:
        corpus, report = parse_corpus(fh, parse)
    if report.n_skipped:
        skipped = f"{report.n_skipped} of {report.n_records} records are not ones ingest writes"
        reasons = ", ".join(f"{reason} {n}" for reason, n in sorted(report.skip_reasons.items()))
        _fail("bad_artifact", f"{path}: {skipped} ({reasons})")
    return corpus


# ---------------------------------------------------------------------------
# stages: each takes its inputs and settings as arguments


def _stage_synth(outdir: str, config: SynthConfig) -> None:
    with _replacing(outdir, CORPUS_RAW) as fh:
        for line in generate(config):
            fh.write(line + "\n")
    settings = dataclasses.asdict(config)
    seed = settings.pop("seed")  # recorded beside the config, not in it
    settings["planted"] = settings.pop("planted_effect")
    _update_manifest(
        outdir,
        "synth",
        config=settings,
        inputs=(),
        outputs=(CORPUS_RAW,),
        seed=seed,
    )


def _stage_ingest(outdir: str, input_path: str | None, parse: ParseConfig) -> Corpus:
    """Parse ``input_path``, or corpus.jsonl in ``outdir`` when it is None;
    returns the contents of the parsed corpus it writes."""
    if input_path is None:
        input_path = _require(outdir, CORPUS_RAW)
    elif not os.path.exists(input_path):
        _fail("missing_input", f"input file {input_path!r} does not exist")
    with open(input_path, encoding="utf-8") as fh:
        corpus, report = parse_corpus(fh, parse)
    with _replacing(outdir, CORPUS_PARSED) as fh:
        for paper in corpus:
            fh.write(json.dumps(paper.to_record(), sort_keys=True, separators=(",", ":")) + "\n")
    _write_json(outdir, PARSE_REPORT, report.as_dict())
    _update_manifest(
        outdir,
        "ingest",
        config={"input": os.path.basename(input_path), **dataclasses.asdict(parse)},
        inputs=(CORPUS_RAW,),
        outputs=(CORPUS_PARSED, PARSE_REPORT),
        paths={CORPUS_RAW: input_path},
        n_parsed=report.n_parsed,
        n_skipped=report.n_skipped,
        end_year=corpus.dataset_end_year,
    )
    return corpus


def _stage_train(outdir: str, corpus: Corpus, config: TrainingConfig) -> None:
    matrix = train_embeddings(build_training_pairs(corpus), config)
    with _replacing(outdir, EMBEDDING) as fh:
        save_embeddings(matrix, fh)
    settings = dataclasses.asdict(config)
    seed = settings.pop("seed")  # recorded beside the config, not in it
    _update_manifest(
        outdir,
        "train",
        config=settings,
        inputs=(CORPUS_PARSED,),
        outputs=(EMBEDDING,),
        seed=seed,
        vocabulary=len(matrix.vocabulary),
        loss_by_epoch=list(matrix.loss_by_epoch),
    )


def _space_rows(
    corpus: Corpus,
    graph: CitationGraph,
    emb: EmbeddingMatrix,
    tree: KnowledgeTree,
    exclude_self: bool,
) -> tuple[Iterator[tuple], int]:
    """Per-paper metric rows, computed one at a time as they are read, and
    the number of papers with a code missing from the trained vocabulary.
    Embedding-derived cells are empty for such a paper, and the journal
    distance also when its journal-year cell has no usable reference point."""
    matrix = np.zeros((len(corpus.papers), emb.dim))  # one row per paper, in corpus order
    vectors: dict[str, np.ndarray | None] = {}
    for row, (pid, paper) in zip(matrix, corpus.papers.items()):
        if all(code in emb for code in paper.pacs_codes):
            row[:] = paper_vector(paper, emb)
            vectors[pid] = row
        else:
            vectors[pid] = None
    cells = journal_cells(corpus, vectors)

    def rows() -> Iterator[tuple]:
        for pid, paper in corpus.papers.items():
            vec = vectors[pid]
            journal_dist = None
            article_dist = None
            article_dist_log = None
            if vec is not None:
                article_dist = article_distance(paper, emb)
                article_dist_log = float(np.log1p(article_dist))
                reference = journal_reference(
                    cells[(paper.journal, paper.year)], vec, exclude_self
                )
                if reference is not None:
                    journal_dist = cosine_distance(vec, reference)
            yield (
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

    return rows(), sum(vec is None for vec in vectors.values())


def _paired_rows(
    space_rows: Iterator[list[str]], space_path: str,
    disruption_rows: Iterator[list[str]], disruption_path: str,
) -> Iterator[list[str]]:
    """Each space row followed by the disruption row at the same position.
    Both tables list the papers of one parsed corpus in its order, so a pair
    naming two papers, or one table ending first, fails with ``bad_artifact``."""
    for number, (space, disruption) in enumerate(
        itertools.zip_longest(space_rows, disruption_rows), start=1
    ):
        if space is None or disruption is None:
            _fail(
                "bad_artifact",
                f"{space_path} and {disruption_path} differ in length: "
                f"only one has a data row {number}",
            )
        if space[0] != disruption[0]:
            _fail(
                "bad_artifact",
                f"data row {number} is paper {space[0]!r} in {space_path} "
                f"but paper {disruption[0]!r} in {disruption_path}",
            )
        yield space + disruption


def _merge_metrics(outdir: str) -> None:
    """Rebuild metrics.csv from the space and disruption tables.

    Runs each time `metrics` or `disrupt` replaces its table.  The earlier
    metrics.csv and its `merge` entry are removed first, so a join that fails
    or is not made leaves no merged table.  A new one is joined only when both
    tables exist and the manifest records that `metrics` and `disrupt` read
    the same parsed corpus: both then list its papers in its order and stream
    through the join together.  A malformed or mismatched table fails the
    stage.
    """
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(outdir, METRICS))
    manifest = _read_manifest(outdir)
    stages = manifest["stages"]
    if stages.pop("merge", None) is not None:
        _write_json(outdir, MANIFEST, manifest)
    space_path = os.path.join(outdir, METRICS_SPACE)
    disruption_path = os.path.join(outdir, DISRUPTION)
    metrics_corpus, disrupt_corpus = (
        stages.get(stage, {}).get("inputs", {}).get(CORPUS_PARSED)
        for stage in ("metrics", "disrupt")
    )
    if not (
        os.path.exists(space_path) and os.path.exists(disruption_path)
        and metrics_corpus is not None and metrics_corpus == disrupt_corpus
    ):
        return
    # each merged column by name from a space row followed by its disruption row
    pick = operator.itemgetter(*map((SPACE_COLUMNS + DISRUPTION_COLUMNS).index, METRIC_COLUMNS))
    space_rows = _table_rows(space_path, "space metrics", SPACE_COLUMNS)
    disruption_rows = _table_rows(disruption_path, "disruption", DISRUPTION_COLUMNS)
    with contextlib.closing(space_rows), contextlib.closing(disruption_rows):
        next(space_rows)  # the headers, checked as they are read
        next(disruption_rows)
        pairs = _paired_rows(space_rows, space_path, disruption_rows, disruption_path)
        _write_csv(outdir, METRICS, METRIC_COLUMNS, map(pick, pairs))
    _update_manifest(
        outdir,
        "merge",
        config={"columns": list(METRIC_COLUMNS)},
        inputs=(METRICS_SPACE, DISRUPTION),
        outputs=(METRICS,),
    )


def _stage_metrics(
    outdir: str, corpus: Corpus, graph: CitationGraph, exclude_self: bool, export_tree: bool
) -> None:
    embedding_path = _require(outdir, EMBEDDING)
    try:
        emb = load_embeddings(embedding_path)
    except ValueError as exc:
        _fail("bad_artifact", f"{embedding_path}: {exc}")
    tree = build_tree(corpus.distinct_codes())
    rows, n_missing = _space_rows(corpus, graph, emb, tree, exclude_self)
    _write_csv(outdir, METRICS_SPACE, SPACE_COLUMNS, rows)
    if export_tree:
        _write_csv(outdir, TREE_EDGES, ("child_label", "parent_label", "level"), tree.edges())
    _update_manifest(
        outdir,
        "metrics",
        config={"exclude_self": exclude_self, "export_tree": export_tree},
        inputs=(CORPUS_PARSED, EMBEDDING),
        outputs=(METRICS_SPACE, TREE_EDGES) if export_tree else (METRICS_SPACE,),
        n_papers=len(corpus.papers),
        n_missing_vocabulary=n_missing,
        **{name: getattr(graph, name) for name in GRAPH_COUNTERS},
    )
    _merge_metrics(outdir)


def _stage_disrupt(outdir: str, corpus: Corpus, graph: CitationGraph, variant: str) -> None:
    scored = score_corpus(corpus, graph, variant)
    rows = (
        (pid, score.d, score.percentile, counts.n_i, counts.n_j, counts.n_k)
        for pid, (counts, score) in scored.items()
    )
    _write_csv(outdir, DISRUPTION, DISRUPTION_COLUMNS, rows)
    n_defined = sum(score.d is not None for _, score in scored.values())
    _update_manifest(
        outdir,
        "disrupt",
        config={"d_variant": variant},
        inputs=(CORPUS_PARSED,),
        outputs=(DISRUPTION,),
        n_defined=n_defined,
        n_undefined=len(scored) - n_defined,
        **{name: getattr(graph, name) for name in GRAPH_COUNTERS},
    )
    _merge_metrics(outdir)


def _stage_correlate(outdir: str, table: AnalysisTable, columns: tuple[str, ...]) -> None:
    _require_columns("--columns", columns, table)
    matrix = pearson_matrix(table, columns)
    n = len(matrix.columns)
    # r above the diagonal, p below, unity on it
    rows = [
        [name] + [matrix.r[i, j] if j > i else matrix.p[i, j] if j < i else 1.0 for j in range(n)]
        for i, name in enumerate(matrix.columns)
    ]
    _write_csv(outdir, CORRELATIONS, ("",) + tuple(matrix.columns), rows)
    _update_manifest(
        outdir,
        "correlate",
        config={"columns": list(columns)},
        inputs=(METRICS,),
        outputs=(CORRELATIONS,),
        df=matrix.df,
        n_complete=matrix.df + 2,
    )


def _require_columns(owner: str, names: tuple[str, ...], table: AnalysisTable) -> None:
    missing = [c for c in names if c not in table.columns]
    if missing:
        _fail(
            "unknown_column",
            f"{owner} references columns absent from the metrics table: "
            + ", ".join(sorted(missing)),
        )


def _fit_named_model(
    name: str, spec: RegressionSpec, table: AnalysisTable, center: str
):
    _require_columns(name, (spec.outcome, *spec.base_columns()), table)
    return fit_model(dataclasses.replace(spec, centering=center), table)


def _stage_regress(
    outdir: str, table: AnalysisTable,
    models: dict[str, RegressionSpec], names: tuple[str, ...], center: str,
) -> None:
    summaries = {}
    for name in names:
        result = _fit_named_model(name, models[name], table, center)
        rows = [(t.name, t.coefficient, t.std_error, t.t, t.p, t.stars) for t in result.terms]
        rows.append(("adjusted_r2", result.adjusted_r2, "", "", "", ""))
        rows.append(("n", result.n, "", "", "", ""))
        _write_csv(
            outdir, f"regression_{name}.csv",
            ("term", "coefficient", "std_error", "t", "p", "stars"), rows,
        )
        summaries[name] = {
            "n": result.n,
            "adjusted_r2": result.adjusted_r2,
            "terms": len(result.terms),
        }
    _update_manifest(
        outdir,
        "regress",
        config={"models": list(names), "center": center},
        inputs=(METRICS,),
        outputs=[f"regression_{name}.csv" for name in names],
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
    table: AnalysisTable,
    models: dict[str, RegressionSpec],
    names: tuple[str, ...],
    center: str,
    points: int,
    levels: tuple[float, ...] | None,
) -> None:
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
            grid = np.linspace(*result.design.base_ranges[predictor], points)
            curve = predicted_curve(result, predictor, grid, moderator_levels=model_levels)
            rows.extend(map(dataclasses.astuple, curve))
        _write_csv(
            outdir, f"curves_{name}.csv",
            ("predictor", "predictor_value", "moderator_level", "prediction", "extrapolated"),
            rows,
        )
    _update_manifest(
        outdir,
        "curves",
        config={
            "models": list(names),
            "center": center,
            "points": points,
            "levels": list(levels) if levels else "mean±sd",
        },
        inputs=(METRICS,),
        outputs=[f"curves_{name}.csv" for name in names],
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


class _Group(click.Group):
    """The one error boundary: parsing the command line, its subcommand's
    included, and running the subcommand both happen under
    _structured_errors, so every failure prints one JSON line."""

    def make_context(self, *args, **kwargs):
        with _structured_errors():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _structured_errors():
            return super().invoke(ctx)


@click.group(cls=_Group, context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="knowspan")
def main() -> None:
    """Category-embedding analytics for citation corpora.

    Stages share one output directory: synth/ingest prepare the corpus,
    train fits code vectors, metrics and disrupt emit the per-paper table,
    correlate/regress/curves fit and export the statistical models.
    """


def _command(*options):
    """Register ``body(params, config, outdir)`` as a subcommand named after it.

    The subcommand takes the given options plus --outdir and --config.  Before
    the body runs, each config value for a parameter not given as a flag is
    converted by that option's click type into ``params``, so it is checked
    exactly as the flag would be.  Failures reach _Group, the one error
    boundary.  The body is returned unchanged.
    """

    def register(body):
        @click.pass_context
        def command(ctx, **params):
            config = _read_config(params["config_path"]) if params["config_path"] else {}
            _check_config_keys(config)
            for param in ctx.command.params:
                name = param.name
                if name in config and ctx.get_parameter_source(name) != ParameterSource.COMMANDLINE:
                    try:
                        params[name] = param.type_cast_value(ctx, config[name])
                    except click.BadParameter as exc:
                        _fail("bad_config", f"config key {name!r}: {exc.message}", key=name)
            body(params, config, params["outdir"])

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
def synth(params: dict, config: dict[str, str], outdir: str) -> None:
    """Generate a seeded synthetic corpus as corpus.jsonl."""
    if params["planted"] == "none":
        effect = None
    else:
        effect = PlantedEffect(
            quadratic_sign=-1 if params["planted"] == "inverted-u" else 1,
            moderator_sign={"none": 0, "amplify": 1, "dampen": -1}[params["planted_moderator"]],
        )
    settings = SynthConfig(
        seed=params["seed"],
        n_papers=params["papers"],
        n_codes=params["codes"],
        n_blocks=params["blocks"],
        codes_per_paper=params["codes_per_paper"],
        n_journals=params["journals"],
        citation_density=params["density"],
        cross_block_leakage=params["leakage"],
        planted_effect=effect,
    )
    _stage_synth(outdir, settings)


def _parse_config(params: dict) -> ParseConfig:
    return ParseConfig(
        min_year=params["min_year"],
        max_year=params["max_year"],
        dataset_end_year=params["end_year"] or None,
        pad_short_codes=params["pad_short_codes"],
    )


@_command(*INGEST_OPTIONS)
def ingest(params: dict, config: dict[str, str], outdir: str) -> None:
    """Validate and normalize a corpus into corpus.parsed.jsonl."""
    _stage_ingest(outdir, params["input_path"], _parse_config(params))


def _training_config(params: dict) -> TrainingConfig:
    return TrainingConfig(
        dim=params["dim"],
        negatives_per_positive=params["negatives"],
        epochs=params["epochs"],
        initial_learning_rate=params["initial_lr"],
        final_learning_rate=params["final_lr"],
        seed=params["seed"],
    )


@_command(*TRAIN_OPTIONS)
def train(params: dict, config: dict[str, str], outdir: str) -> None:
    """Fit code vectors on co-assignment pairs; writes embedding.txt."""
    settings = _training_config(params)  # checked before the corpus is read
    _stage_train(outdir, _read_corpus(outdir), settings)


@_command(*METRICS_OPTIONS)
def metrics(params: dict, config: dict[str, str], outdir: str) -> None:
    """Per-paper distances and covariates; writes metrics_space.csv."""
    corpus = _read_corpus(outdir)
    graph = build_citation_graph(corpus)
    _stage_metrics(outdir, corpus, graph, params["exclude_self"], params["export_tree"])


@_command(*DISRUPT_OPTIONS)
def disrupt(params: dict, config: dict[str, str], outdir: str) -> None:
    """Disruption counts, scores, and percentiles; writes disruption.csv."""
    corpus = _read_corpus(outdir)
    _stage_disrupt(outdir, corpus, build_citation_graph(corpus), params["d_variant"])


@_command(
    click.option(
        "--columns",
        default=",".join(DEFAULT_CORRELATION_COLUMNS),
        show_default=False,
        help="Comma-separated metric columns [default: all numeric metrics].",
    )
)
def correlate(params: dict, config: dict[str, str], outdir: str) -> None:
    """Pairwise correlations; writes correlations.csv (r above, p below)."""
    columns = _as_list(params["columns"])
    if not columns:
        _fail("bad_arguments", "--columns needs at least one column name")
    repeated = sorted({name for name in columns if columns.count(name) > 1})
    if repeated:
        _fail("bad_arguments", f"--columns names {', '.join(repeated)} more than once")
    _stage_correlate(outdir, _read_metrics(outdir), columns)


def _selected_models(
    params: dict, config: dict[str, str]
) -> tuple[dict[str, RegressionSpec], tuple[str, ...]]:
    models = _model_specs(config)
    requested = params["model"]
    if requested == "all":
        return models, tuple(models)
    if requested not in models:
        _fail(
            "unknown_model",
            f"unknown model {requested!r}; choose from {', '.join(models)} or 'all'",
        )
    return models, (requested,)


@_command(MODEL_OPTION, CENTER_OPTION)
def regress(params: dict, config: dict[str, str], outdir: str) -> None:
    """Fit model presets; writes regression_<model>.csv term tables."""
    models, names = _selected_models(params, config)
    _stage_regress(outdir, _read_metrics(outdir), models, names, params["center"])


def _finite_levels(raw: str) -> tuple[float, ...]:
    """The moderator levels of a --levels value: one or more finite numbers."""
    parts = _as_list(raw) or (raw,)  # a value naming no number fails as a whole
    levels = []
    for part in parts:
        try:
            value = float(part)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            _fail(
                "bad_arguments",
                f"--levels takes comma-separated finite numbers; got {part!r}",
            )
        levels.append(value)
    return tuple(levels)


def _grid_points(params: dict) -> int:
    """The --points value; a curve's grid needs both ends of its range."""
    points = params["points"]
    if points < 2:
        _fail("bad_arguments", f"--points must be at least 2; got {points}")
    return points


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
def curves(params: dict, config: dict[str, str], outdir: str) -> None:
    """Predicted-outcome grids per predictor; writes curves_<model>.csv."""
    points = _grid_points(params)
    levels = None if params["levels"] is None else _finite_levels(params["levels"])
    models, names = _selected_models(params, config)
    _stage_curves(outdir, _read_metrics(outdir), models, names, params["center"], points, levels)


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
def pipeline(params: dict, config: dict[str, str], outdir: str) -> None:
    """Run every stage in order on one corpus.

    With --synth, first generates a corpus with a planted inverted-U
    citation effect (amplified by team size); --papers sizes it (5,000 by
    default).  --seed seeds both the corpus and the training.  Every
    setting is checked before the first stage runs.
    """
    use_synth = params["use_synth"]
    if use_synth and params["input_path"] is not None:
        _fail("bad_arguments", "--input and --synth are mutually exclusive")
    papers_flag = click.get_current_context().get_parameter_source("papers")
    if not use_synth and papers_flag == ParameterSource.COMMANDLINE:
        _fail("bad_arguments", "--papers sizes the --synth corpus; it needs --synth")
    parse = _parse_config(params)
    training = _training_config(params)
    models = _model_specs(config)
    center = params["center"]
    points = _grid_points(params)
    if use_synth:
        seed, papers = params["seed"], params["papers"]
        effect = PlantedEffect(quadratic_sign=-1, moderator_sign=1)
        _stage_synth(outdir, SynthConfig(seed=seed, n_papers=papers, planted_effect=effect))
    corpus = _stage_ingest(outdir, params["input_path"], parse)
    _stage_train(outdir, corpus, training)
    graph = build_citation_graph(corpus)
    _stage_metrics(outdir, corpus, graph, params["exclude_self"], params["export_tree"])
    _stage_disrupt(outdir, corpus, graph, params["d_variant"])
    table = _read_metrics(outdir)
    _stage_correlate(outdir, table, DEFAULT_CORRELATION_COLUMNS)
    _stage_regress(outdir, table, models, tuple(models), center)
    _stage_curves(outdir, table, models, tuple(models), center, points, None)


if __name__ == "__main__":
    main()
