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
import gc
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
    Corpus,
    CorpusError,
    InvalidCodeError,
    Paper,
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
    CENTERINGS,
    AnalysisTable,
    RankDeficiencyError,
    RegressionResult,
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

# disrupt writes every column read from the citation graph; D's come first,
# since readers of disruption.csv may take them by position
DISRUPTION_COLUMNS = (
    "paper_id", "d_score", "d_percentile", "d_n_i", "d_n_j", "d_n_k",
    "citation_count", "log_citations",
)
SPACE_COLUMNS = ("paper_id",) + tuple(c for c in METRIC_COLUMNS if c not in DISRUPTION_COLUMNS)

# the CitationGraph counters that the disrupt manifest entry records
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

# Each stage that records a manifest entry, after those it reads from: the
# subcommands that run it, the artifacts it reads, which its entry records,
# and its outputs that their readers check against that entry.  Ingest reads
# corpus.jsonl from anywhere, so no record of it is checked.
STAGES = {
    "synth": (("synth",), (), ()),
    "ingest": (("ingest",), (CORPUS_RAW,), (CORPUS_PARSED,)),
    "train": (("train",), (CORPUS_PARSED,), (EMBEDDING,)),
    "metrics": (("metrics",), (CORPUS_PARSED, EMBEDDING), (METRICS_SPACE,)),
    "disrupt": (("disrupt",), (CORPUS_PARSED,), (DISRUPTION,)),
    "merge": (("metrics", "disrupt"), (METRICS_SPACE, DISRUPTION), (METRICS,)),
    "correlate": (("correlate",), (METRICS,), ()),
    "regress": (("regress",), (METRICS,), ()),
    "curves": (("curves",), (METRICS,), ()),
}
# each artifact a stage reads, upstream first: the stage recording it, the subcommands writing it
ARTIFACT_STAGES = {CORPUS_RAW: (None, ("synth",))} | {
    name: (stage, runs) for stage, (runs, _, checked) in STAGES.items() for name in checked
}
MERGED_TABLES = STAGES["merge"][1]

# ingest's options that each set one ParseConfig field, by parameter name:
# that field, which ingest records and the later stages parse with
PARSE_FIELDS = {
    "min_year": "min_year", "max_year": "max_year", "pad_short_codes": "pad_short_codes",
}

# The type of each manifest field a stage reads back, by its path below
# "stages", parents first: for each recording stage, its entry, those of its
# fields listed here, then its inputs and outputs.  A field may be absent, but
# not of another type; a recorded parse setting is of its ParseConfig default's type.
_FIELDS_READ = (
    ("ingest.config", dict), ("ingest.end_year", int),
    *((f"ingest.config.{field}", type(getattr(ParseConfig(), field)))
      for field in PARSE_FIELDS.values()),
)
RECORDED_TYPES = tuple(
    row
    for stage, (_, _, checked) in STAGES.items() if checked
    for row in ((stage, dict), *(r for r in _FIELDS_READ if r[0].startswith(f"{stage}.")),
                (f"{stage}.inputs", dict), (f"{stage}.outputs", dict))
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
        producers = ARTIFACT_STAGES[filename][1]
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


def _recorded(entry, field: str = "outputs") -> dict:
    """The outputs, or the inputs, a manifest entry records, or none if it is
    not well formed."""
    recorded = entry.get(field) if isinstance(entry, dict) else None
    return recorded if isinstance(recorded, dict) else {}


def _update_manifest(
    outdir: str, stage: str, config: dict, outputs: Sequence[str],
    inputs: dict[str, str] | None = None, **extra
) -> None:
    """Replace one stage entry, with the digest each artifact STAGES declares
    it reads is recorded under (``inputs`` gives ingest's, of the file it
    read), and the digest of each output artifact in ``outdir``, by name.  A
    ``seed`` in ``config`` is recorded beside the config, not in it.

    Before the manifest is written, the outputs STAGES declares of each stage
    this one runs and writes an input of (the merge, for `metrics` and
    `disrupt`) are removed with its entry, and so is an output the stage's
    previous entry recorded, this run did not write and no other entry
    records, such as tree_edges.csv after `metrics` without --export-tree.
    An entry that records reading a removed artifact goes too, with its
    outputs that no other entry records, such as correlations.csv with
    metrics.csv.  A failed removal or write thus leaves no file unrecorded."""
    manifest = _read_manifest(outdir)
    stages = manifest["stages"]
    if inputs is None:
        inputs = {name: _current_digest(manifest, outdir, name) for name in STAGES[stage][1]}
    stale = [s for s, (runs, reads, _) in STAGES.items() if stage in runs and {*reads} & {*outputs}]
    dropped = [stages.pop(s, None) for s in (stage, *stale)]
    removed: list[str] = []
    # the stage's own stale outputs go first, then the artifacts it invalidates,
    # then the outputs of each entry that records reading a removed artifact
    while dropped:
        kept = {MANIFEST, *outputs, *removed}.union(*map(_recorded, stages.values()))
        # bare file names only, since anyone can edit the manifest
        bare = [name for name in _recorded(dropped.pop(0)) if name == os.path.basename(name)]
        removed += [name for name in bare if name not in kept]
        removed += [name for s in stale for name in STAGES[s][2] if name not in removed]
        readers = [s for s, entry in stages.items() if s in STAGES  # by the inputs it declares
                   and _recorded(entry, "inputs").keys() & removed & {*STAGES[s][1]}]
        dropped += map(stages.pop, readers)
    config = dict(config)
    if "seed" in config:
        extra["seed"] = config.pop("seed")
    manifest["versions"] = {
        "knowspan": __version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
    }
    stages[stage] = {
        "config": config,
        "config_hash": _config_hash(config),
        "inputs": inputs,
        "outputs": {name: _digest(os.path.join(outdir, name)) for name in outputs},
        **extra,
    }
    for path in (os.path.join(outdir, name) for name in removed):
        if os.path.isfile(path):
            os.remove(path)
    _write_json(outdir, MANIFEST, manifest)


# ---------------------------------------------------------------------------
# config file and option resolution


def _read_config(path: str) -> dict[str, str]:
    """Plain ``key = value`` lines; '#' starts a comment; blanks ignored.  A
    key given twice fails, since one of its values would be ignored."""
    values: dict[str, str] = {}
    linenos: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        _fail("bad_config", f"{path} is not UTF-8 text: {exc.reason}")
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _fail(
                "bad_config",
                f"{path}:{lineno}: expected 'key = value', got {line!r}",
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if key in linenos:
            _fail(
                "bad_config",
                f"{path}:{lineno}: config key {key!r} is already set on line {linenos[key]}",
                key=key,
            )
        linenos[key] = lineno
        values[key] = value
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
COMMAND_LINE_ONLY = ("outdir", "config_path", "input_path")


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
    and name each column once otherwise; every row must have as many cells
    as the header, and csv must read it as UTF-8 text.  Anything else, an
    empty file included, fails the stage with ``bad_artifact``.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        number = -1  # of the last row read; the header is row 0
        try:
            header = next(reader, None)
            number = 0
            if not header or header[0] != "paper_id" or (columns and header != list(columns)):
                _fail("bad_artifact", f"{path} does not look like a {kind} table")
            repeated = next((name for name in header if header.count(name) > 1), None)
            if repeated is not None:  # a reader by name would take one of its columns
                _fail("bad_artifact", f"{path} header names column {repeated!r} more than once")
            yield header
            for number, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    _fail(
                        "bad_artifact",
                        f"{path} data row {number} has {len(row)} cells; "
                        f"the header has {len(header)}",
                    )
                yield row
        except csv.Error as exc:  # such as a cell past csv's field size limit
            where = f"data row {number + 1}" if number >= 0 else "header"
            _fail("bad_artifact", f"{path} {where}: {exc}")
        except UnicodeDecodeError as exc:  # decoded a block at a time, so no row is named
            _fail("bad_artifact", f"{path} is not UTF-8 text: {exc.reason}")


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


def _current_digest(manifest: dict, outdir: str, name: str) -> str | None:
    """The digest a reader of artifact ``name`` in ``outdir`` records for it: the
    one its recording stage lists among its outputs in ``manifest``, or the
    file's own when no entry records it; None when neither exists."""
    recorded = _recorded(manifest["stages"].get(ARTIFACT_STAGES[name][0])).get(name)
    path = os.path.join(outdir, name)
    return _digest(path) if recorded is None and os.path.isfile(path) else recorded


def _current(manifest: dict, outdir: str, names: Sequence[str], read: bool = True) -> bool:
    """Whether each artifact of ``names`` in ``outdir`` is current: its file, if
    ``read``, is the one its recording stage lists among its outputs, if any,
    and each declared input that stage's entry records is at its current digest
    and is itself current, up to corpus.jsonl, which ingest may read from
    anywhere.  A reader (``read``) fails with ``stale_artifact`` at the most upstream stale one."""
    reached, stale = set(names), None
    digest = functools.cache(lambda name: _current_digest(manifest, outdir, name))
    # from the artifacts read upstream, so the last one found stale is the most upstream
    for name, (stage, _) in reversed(ARTIFACT_STAGES.items()):
        if stage is None or name not in reached:
            continue
        entry = manifest["stages"].get(stage)
        inputs = {i: d for i, d in _recorded(entry, "inputs").items() if i in STAGES[stage][1]}
        reached.update(inputs)
        recorded, path = _recorded(entry).get(name), os.path.join(outdir, name)
        replaced = [i for i, d in inputs.items() if ARTIFACT_STAGES[i][0] and d != digest(i)]
        if read and name in names and recorded is not None and recorded != _digest(path):
            stale = name, f"{path} is not the file the {stage} stage wrote"
        elif replaced:
            stale = name, f"{path} was fitted on another {replaced[0]}"
    if stale is None or not read:
        return stale is None
    producers = ARTIFACT_STAGES[stale[0]][1]
    message = f"{stale[1]}; rerun " + " or ".join(f"'{p}'" for p in producers)
    _fail("stale_artifact", message, path=stale[0], producer=",".join(producers))


def _read_metrics(outdir: str) -> AnalysisTable:
    """Numeric columns of the merged metrics table, which must be current."""
    path = _require(outdir, METRICS)
    table = _load_metrics_table(path)
    _current(_read_manifest(outdir), outdir, (METRICS,))
    return table


def _parse_file(path: str, parse: ParseConfig, kind: str) -> tuple:
    """The corpus and parse report of the corpus JSONL at ``path``; a byte that
    is not UTF-8 fails the stage with ``kind``, naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_corpus(fh, parse)
    except UnicodeDecodeError as exc:
        _fail(kind, f"{path} is not UTF-8 text: {exc.reason}")


def _read_corpus(outdir: str) -> Corpus:
    """Contents of the parsed corpus.

    The file is parsed with the year range and padding ingest recorded in
    the manifest, so later stages keep every paper ingest kept, and with the
    end year ingest used (which --end-year sets), so paper ages agree.
    Ingest writes only records it keeps, so a record the parse skips means a
    damaged file, which fails the stage with ``bad_artifact``, as a byte that
    is not UTF-8 does.  A file that parses cleanly must still be the one
    ingest recorded: one cut at a line boundary would otherwise be read as a
    smaller corpus.
    """
    path = _require(outdir, CORPUS_PARSED)
    manifest = _read_manifest(outdir)
    ingest = manifest["stages"].get("ingest", {})
    recorded = ingest.get("config", {})
    parse = ParseConfig(
        **{field: recorded[field] for field in PARSE_FIELDS.values() if field in recorded},
        dataset_end_year=ingest.get("end_year"),
    )
    corpus, report = _parse_file(path, parse, "bad_artifact")
    if report.n_skipped:
        skipped = f"{report.n_skipped} of {report.n_records} records are not ones ingest writes"
        reasons = ", ".join(f"{reason} {n}" for reason, n in sorted(report.skip_reasons.items()))
        _fail("bad_artifact", f"{path}: {skipped} ({reasons})")
    _current(manifest, outdir, (CORPUS_PARSED,))
    return corpus


# ---------------------------------------------------------------------------
# stages: each takes its inputs and settings as arguments


def _stage_synth(outdir: str, config: SynthConfig) -> None:
    _read_manifest(outdir)  # a damaged manifest fails the stage before it writes
    with _replacing(outdir, CORPUS_RAW) as fh:
        for line in generate(config):
            fh.write(line + "\n")
    settings = dataclasses.asdict(config)
    settings["planted"] = settings.pop("planted_effect")
    _update_manifest(outdir, "synth", config=settings, outputs=(CORPUS_RAW,))


def _stage_ingest(outdir: str, input_path: str | None, parse: ParseConfig) -> Corpus:
    """Parse ``input_path``, or corpus.jsonl in ``outdir`` when it is None;
    returns the contents of the parsed corpus it writes."""
    _read_manifest(outdir)  # a damaged manifest fails the stage before it writes
    if input_path is None:
        input_path = _require(outdir, CORPUS_RAW)
    elif not os.path.exists(input_path):
        _fail("missing_input", f"input file {input_path!r} does not exist")
    corpus, report = _parse_file(input_path, parse, "corpus_error")
    with _replacing(outdir, CORPUS_PARSED) as fh:
        for paper in corpus:
            fh.write(json.dumps(paper.to_record(), sort_keys=True, separators=(",", ":")) + "\n")
    # vars, not asdict, which would rebuild the skip_reasons Counter from its pairs
    _write_json(outdir, PARSE_REPORT, vars(report))
    _update_manifest(
        outdir,
        "ingest",
        config={"input": os.path.basename(input_path), **dataclasses.asdict(parse)},
        inputs={CORPUS_RAW: _digest(input_path)},
        outputs=(CORPUS_PARSED, PARSE_REPORT),
        n_parsed=report.n_parsed,
        n_skipped=report.n_skipped,
        end_year=corpus.dataset_end_year,
    )
    return corpus


def _stage_train(outdir: str, corpus: Corpus, config: TrainingConfig) -> None:
    matrix = train_embeddings(build_training_pairs(corpus), config)
    with _replacing(outdir, EMBEDDING) as fh:
        save_embeddings(matrix, fh)
    _update_manifest(
        outdir,
        "train",
        config=dataclasses.asdict(config),
        outputs=(EMBEDDING,),
        vocabulary=len(matrix.vocabulary),
        loss_by_epoch=list(matrix.loss_by_epoch),
    )


def _in_vocabulary(paper: Paper, emb: EmbeddingMatrix) -> bool:
    return all(code in emb for code in paper.pacs_codes)


def _space_rows(
    corpus: Corpus, emb: EmbeddingMatrix, tree: KnowledgeTree, exclude_self: bool
) -> Iterator[tuple]:
    """Per-paper metric rows, computed one at a time as they are read.  A
    paper with a code missing from the trained vocabulary gets empty
    embedding-derived cells; so does a journal distance whose journal-year
    cell has no usable reference point.  Each paper vector is computed twice,
    once into its cell's mean and once for its row, so at most one is held."""

    def vector(paper: Paper) -> np.ndarray | None:
        return paper_vector(paper, emb) if _in_vocabulary(paper, emb) else None

    cells = journal_cells(corpus, map(vector, corpus.papers.values()))
    for pid, paper in corpus.papers.items():
        vec = vector(paper)
        journal_dist = None
        article_dist = None
        article_dist_log = None
        if vec is not None:
            article_dist = article_distance(paper, emb)
            article_dist_log = float(np.log1p(article_dist))
            reference = journal_reference(cells[(paper.journal, paper.year)], vec, exclude_self)
            if reference is not None:
                journal_dist = cosine_distance(vec, reference)
        yield (
            pid,
            journal_dist,
            article_dist,
            article_dist_log,
            network_distance(paper, tree),
            team_size(paper),
            corpus.paper_age(paper),
            paper.n_pages,
            paper.title_length,
        )


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


def _merge_metrics(outdir: str, written: Sequence[str]) -> None:
    """Join metrics.csv from the space and disruption tables, once per command
    that replaced either: `pipeline` after both stages, a stage run alone
    after itself.  ``written`` names the tables the command wrote; the other
    is checked against its stage's record.

    A table is joined only when both tables exist and are current and the
    manifest records that `metrics` and `disrupt` each read a parsed corpus:
    both then list the current corpus's papers in its order and stream
    through the join together.  A malformed or mismatched table fails the
    command, and so does one that is not the file its stage recorded.
    """
    manifest = _read_manifest(outdir)
    space_path, disruption_path = paths = [os.path.join(outdir, name) for name in MERGED_TABLES]
    entries = [manifest["stages"].get(ARTIFACT_STAGES[name][0]) for name in MERGED_TABLES]
    if not all(map(os.path.exists, paths)) or not all(
        CORPUS_PARSED in _recorded(entry, "inputs") for entry in entries
    ) or not _current(manifest, outdir, MERGED_TABLES, read=False):
        return
    # each merged column by name from a space row followed by its disruption row
    pick = operator.itemgetter(*map((SPACE_COLUMNS + DISRUPTION_COLUMNS).index, METRIC_COLUMNS))
    space_rows = _table_rows(space_path, "space metrics", SPACE_COLUMNS)
    disruption_rows = _table_rows(disruption_path, "disruption", DISRUPTION_COLUMNS)

    def merged_rows() -> Iterator[tuple]:
        yield from map(pick, _paired_rows(space_rows, space_path, disruption_rows, disruption_path))
        # once the join has read both tables, so one cut at a line boundary fails
        # it as malformed, and before metrics.csv is put in place
        _current(manifest, outdir, [name for name in MERGED_TABLES if name not in written])

    with contextlib.closing(space_rows), contextlib.closing(disruption_rows):
        next(space_rows)  # the headers, checked as they are read
        next(disruption_rows)
        _write_csv(outdir, METRICS, METRIC_COLUMNS, merged_rows())
    _update_manifest(outdir, "merge", config={"columns": list(METRIC_COLUMNS)}, outputs=(METRICS,))


def _stage_metrics(outdir: str, corpus: Corpus, exclude_self: bool, export_tree: bool) -> None:
    """Write metrics_space.csv."""
    embedding_path = _require(outdir, EMBEDDING)
    try:
        emb = load_embeddings(embedding_path)
    except ValueError as exc:
        _fail("bad_artifact", f"{embedding_path}: {exc}")
    _current(_read_manifest(outdir), outdir, (EMBEDDING,))
    tree = build_tree(corpus.distinct_codes())
    rows = _space_rows(corpus, emb, tree, exclude_self)
    _write_csv(outdir, METRICS_SPACE, SPACE_COLUMNS, rows)
    if export_tree:
        _write_csv(outdir, TREE_EDGES, ("child_label", "parent_label", "level"), tree.edges())
    _update_manifest(
        outdir,
        "metrics",
        config={"exclude_self": exclude_self, "export_tree": export_tree},
        outputs=(METRICS_SPACE, TREE_EDGES) if export_tree else (METRICS_SPACE,),
        n_papers=len(corpus.papers),
        n_missing_vocabulary=sum(not _in_vocabulary(paper, emb) for paper in corpus),
    )


def _stage_disrupt(outdir: str, corpus: Corpus, variant: str) -> None:
    """Write disruption.csv from the corpus's citation graph."""
    graph = build_citation_graph(corpus)
    scored = score_corpus(corpus, graph, variant)
    rows = (
        (pid, score.d, score.percentile, counts.n_i, counts.n_j, counts.n_k,
         citation_count(paper, graph), log_citation_count(paper, graph))
        for paper, (pid, (counts, score)) in zip(corpus, scored.items())
    )
    _write_csv(outdir, DISRUPTION, DISRUPTION_COLUMNS, rows)
    n_defined = sum(score.d is not None for _, score in scored.values())
    _update_manifest(
        outdir,
        "disrupt",
        config={"d_variant": variant},
        outputs=(DISRUPTION,),
        n_defined=n_defined,
        n_undefined=len(scored) - n_defined,
        **{name: getattr(graph, name) for name in GRAPH_COUNTERS},
    )


def _write_analysis(
    outdir: str, stage: str, header: tuple[str, ...], tables: dict, config: dict, **extra
) -> None:
    """Write the rows of each artifact, all computed first so that a failed
    fit leaves every table as it was, and record them as read from metrics.csv."""
    for artifact, rows in tables.items():
        _write_csv(outdir, artifact, header, rows)
    _update_manifest(outdir, stage, config=config, outputs=list(tables), **extra)


def _stage_correlate(outdir: str, table: AnalysisTable, columns: tuple[str, ...]) -> None:
    _require_columns("--columns", columns, table)
    matrix = pearson_matrix(table, columns)
    n = len(matrix.columns)
    # r above the diagonal, p below, unity on it
    rows = [
        [name] + [matrix.r[i, j] if j > i else matrix.p[i, j] if j < i else 1.0 for j in range(n)]
        for i, name in enumerate(matrix.columns)
    ]
    _write_analysis(
        outdir, "correlate", ("",) + tuple(matrix.columns), {CORRELATIONS: rows},
        config={"columns": list(columns)}, df=matrix.df, n_complete=matrix.df + 2,
    )


def _require_columns(owner: str, names: tuple[str, ...], table: AnalysisTable) -> None:
    missing = [c for c in names if c not in table.columns]
    if missing:
        _fail(
            "unknown_column",
            f"{owner} references columns absent from the metrics table: "
            + ", ".join(sorted(missing)),
        )


def _fits(
    table: AnalysisTable, models: dict[str, RegressionSpec], names: tuple[str, ...], center: str
) -> Iterator[tuple[str, RegressionSpec, RegressionResult]]:
    """Each named model, its spec with --center applied, and its fit, in turn."""
    for name in names:
        spec = dataclasses.replace(models[name], centering=center)
        _require_columns(name, (spec.outcome, *spec.base_columns()), table)
        yield name, spec, fit_model(spec, table)


def _stage_regress(
    outdir: str, table: AnalysisTable, models: dict[str, RegressionSpec], names: tuple[str, ...],
    center: str,
) -> None:
    tables, summaries = {}, {}
    for name, _, result in _fits(table, models, names, center):
        rows = list(map(dataclasses.astuple, result.terms))
        rows.append(("adjusted_r2", result.adjusted_r2, "", "", "", ""))
        rows.append(("n", result.n, "", "", "", ""))
        tables[f"regression_{name}.csv"] = rows
        summaries[name] = {
            "n": result.n,
            "adjusted_r2": result.adjusted_r2,
            "terms": len(result.terms),
        }
    _write_analysis(
        outdir, "regress", ("term", "coefficient", "std_error", "t", "p", "stars"),
        tables, config={"models": list(names), "center": center}, fits=summaries,
    )


def _stage_curves(
    outdir: str,
    table: AnalysisTable,
    models: dict[str, RegressionSpec],
    names: tuple[str, ...],
    center: str,
    points: int,
    levels: tuple[float, ...] | None,
) -> None:
    tables = {}
    for name, spec, result in _fits(table, models, names, center):
        design = result.design
        model_levels: list[float] | None = None  # an unmoderated model: one sweep, no level
        if spec.moderator is not None:  # by default its mean and mean ± 1 SD in the fit
            mean, sd = design.base_means[spec.moderator], design.base_sds[spec.moderator]
            model_levels = list(levels) if levels else [mean - sd, mean, mean + sd]
        rows = []
        for predictor in spec.predictors:
            grid = np.linspace(*design.base_ranges[predictor], points)
            curve = predicted_curve(result, predictor, grid, moderator_levels=model_levels)
            rows.extend(map(dataclasses.astuple, curve))
        tables[f"curves_{name}.csv"] = rows
    _write_analysis(
        outdir, "curves",
        ("predictor", "predictor_value", "moderator_level", "prediction", "extrapolated"), tables,
        config={
            "models": list(names),
            "center": center,
            "points": points,
            "levels": list(levels) if levels else "mean±sd",
        },
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

# Each option that sets one field of a stage's settings class, by parameter
# name: that field, whose value in the class's default instance is its default
# (PARSE_FIELDS, above, for ingest).
SYNTH_FIELDS = {
    "seed": "seed", "papers": "n_papers", "codes": "n_codes", "blocks": "n_blocks",
    "codes_per_paper": "codes_per_paper", "journals": "n_journals",
    "density": "citation_density", "leakage": "cross_block_leakage",
}
TRAIN_FIELDS = {
    "dim": "dim", "negatives": "negatives_per_positive", "epochs": "epochs",
    "initial_lr": "initial_learning_rate", "final_lr": "final_learning_rate", "seed": "seed",
}


def _field_options(defaults, fields: dict[str, str]) -> dict:
    """The options of ``fields`` by name, each of its default's type; a bool makes a flag."""
    options = {}
    for name, field in fields.items():
        flag, value = "--" + name.replace("_", "-"), getattr(defaults, field)
        if isinstance(value, bool):
            options[name] = click.option(flag, is_flag=True, default=value)
        else:
            options[name] = click.option(flag, default=value, show_default=True, type=type(value))
    return options


def _settings(cls, fields: dict[str, str], params: dict, **extra):
    """A ``cls`` settings object with each field of ``fields`` set from its option."""
    return cls(**{field: params[name] for name, field in fields.items()}, **extra)


PARSE_OPTIONS = _field_options(ParseConfig(), PARSE_FIELDS)
MODEL_OPTION = click.option(
    "--model", default="all", show_default=True, help="Preset name or 'all'."
)
CENTER_OPTION = click.option(
    "--center",
    type=click.Choice(list(CENTERINGS)),
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
    PARSE_OPTIONS["min_year"],
    PARSE_OPTIONS["max_year"],
    click.option(
        "--end-year", default=0, type=int, help="Dataset end year [default: max observed]."
    ),
    PARSE_OPTIONS["pad_short_codes"],
)
TRAIN_OPTIONS = tuple(_field_options(TrainingConfig(), TRAIN_FIELDS).values())
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


# each --planted choice's quadratic sign (None: no effect), each --planted-moderator's sign
PLANTED_SIGNS = {"none": None, "inverted-u": -1, "u": 1}
MODERATOR_SIGNS = {"none": 0, "amplify": 1, "dampen": -1}


@_command(
    *_field_options(SynthConfig(), SYNTH_FIELDS).values(),
    click.option(
        "--planted",
        type=click.Choice(list(PLANTED_SIGNS)),
        default="none",
        show_default=True,
        help="Optionally bias citations by a quadratic in block spread.",
    ),
    click.option(
        "--planted-moderator",
        type=click.Choice(list(MODERATOR_SIGNS)),
        default="none",
        show_default=True,
    ),
)
def synth(params: dict, config: dict[str, str], outdir: str) -> None:
    """Generate a seeded synthetic corpus as corpus.jsonl."""
    moderator = params["planted_moderator"]
    quadratic, moderating = PLANTED_SIGNS[params["planted"]], MODERATOR_SIGNS[moderator]
    if quadratic is None and moderating:  # a moderator with no effect to moderate
        _fail("bad_arguments", f"--planted-moderator {moderator} needs --planted other than none")
    effect = PlantedEffect(quadratic_sign=quadratic, moderator_sign=moderating) if quadratic else None
    _stage_synth(outdir, _settings(SynthConfig, SYNTH_FIELDS, params, planted_effect=effect))


def _parse_config(params: dict) -> ParseConfig:
    """Ingest's settings; --end-year 0 leaves the end year to the corpus."""
    return _settings(ParseConfig, PARSE_FIELDS, params, dataset_end_year=params["end_year"] or None)


@_command(*INGEST_OPTIONS)
def ingest(params: dict, config: dict[str, str], outdir: str) -> None:
    """Validate and normalize a corpus into corpus.parsed.jsonl."""
    _stage_ingest(outdir, params["input_path"], _parse_config(params))


@_command(*TRAIN_OPTIONS)
def train(params: dict, config: dict[str, str], outdir: str) -> None:
    """Fit code vectors on co-assignment pairs; writes embedding.txt."""
    settings = _settings(TrainingConfig, TRAIN_FIELDS, params)  # checked before the corpus is read
    _stage_train(outdir, _read_corpus(outdir), settings)


@_command(*METRICS_OPTIONS)
def metrics(params: dict, config: dict[str, str], outdir: str) -> None:
    """Per-paper distances and covariates; writes metrics_space.csv."""
    _stage_metrics(outdir, _read_corpus(outdir), params["exclude_self"], params["export_tree"])
    _merge_metrics(outdir, (METRICS_SPACE,))


@_command(*DISRUPT_OPTIONS)
def disrupt(params: dict, config: dict[str, str], outdir: str) -> None:
    """Citation counts and disruption counts, scores and percentiles; writes disruption.csv."""
    _stage_disrupt(outdir, _read_corpus(outdir), params["d_variant"])
    _merge_metrics(outdir, (DISRUPTION,))


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
    *INGEST_OPTIONS,
    *TRAIN_OPTIONS,
    *METRICS_OPTIONS,
    *DISRUPT_OPTIONS,
    CENTER_OPTION,
    POINTS_OPTION,
)
def pipeline(params: dict, config: dict[str, str], outdir: str) -> None:
    """Run ingest through curves in order on one corpus.

    Reads --input, or corpus.jsonl in --outdir, which synth writes.
    correlate, regress and curves run on the default columns, every model
    and the default levels.  Every setting is checked before the first
    stage runs.
    """
    # a config key of a stage pipeline runs that pipeline does not take would go unread
    for stage, command in main.commands.items():
        if stage == "synth":  # the one stage pipeline does not run, so its keys serve it alone
            continue
        for key in (p.name for p in command.params if p.name in config and p.name not in params):
            message = f"config key {key!r} sets an option of {stage} that pipeline does not take"
            _fail("bad_config", message, key=key)
    parse = _parse_config(params)
    training = _settings(TrainingConfig, TRAIN_FIELDS, params)
    models = _model_specs(config)
    center = params["center"]
    points = _grid_points(params)
    corpus = _stage_ingest(outdir, params["input_path"], parse)
    _stage_train(outdir, corpus, training)
    _stage_metrics(outdir, corpus, params["exclude_self"], params["export_tree"])
    _stage_disrupt(outdir, corpus, params["d_variant"])
    del corpus
    _merge_metrics(outdir, MERGED_TABLES)
    # a full collection empties the free lists, whose idle objects pin arenas the corpus left
    gc.collect()
    table = _read_metrics(outdir)
    _stage_correlate(outdir, table, DEFAULT_CORRELATION_COLUMNS)
    _stage_regress(outdir, table, models, tuple(models), center)
    _stage_curves(outdir, table, models, tuple(models), center, points, None)


if __name__ == "__main__":
    main()
