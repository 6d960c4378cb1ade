"""Traced knowspan stage process, and the per-layer figures drawn from it.

Run as ``python3 perfbench/tracer.py SPANS_OUT RUN_ID -- <knowspan args>``.
The process imports ``knowspan.cli``, wraps the layer functions that the CLI
calls (plus ``disruption.disruption_counts`` and ``percentile_ranks``, which
``score_corpus`` calls per paper and once), then runs ``knowspan.cli.main``
with the given arguments.  Each wrapped call becomes one span record: run
id, span id, parent span id, name, start and end in nanoseconds, and a few
counters read from the call's result.  Spans stay in memory and are written
to SPANS_OUT as JSON lines when the process exits; the exit code is the
CLI's.  Nothing in the program is edited: the wrappers replace module
attributes in this process only.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import sys
import time

# (span name, module, attribute).  Names listed here and never called in a
# workload are reported as zero-call boundaries, so a refactor that routes
# around one shows up instead of reading as 0 s.
BOUNDARIES = (
    ("cli.ingest", "knowspan.cli", "_stage_ingest"),
    ("cli.train", "knowspan.cli", "_stage_train"),
    ("cli.metrics", "knowspan.cli", "_stage_metrics"),
    ("cli.disrupt", "knowspan.cli", "_stage_disrupt"),
    ("cli.correlate", "knowspan.cli", "_stage_correlate"),
    ("cli.regress", "knowspan.cli", "_stage_regress"),
    ("cli.curves", "knowspan.cli", "_stage_curves"),
    ("corpus.parse", "knowspan.cli", "parse_corpus"),
    ("corpus.graph", "knowspan.cli", "build_citation_graph"),
    ("embedding.train", "knowspan.cli", "train_embeddings"),
    ("embedding.save", "knowspan.cli", "save_embeddings"),
    ("embedding.load", "knowspan.cli", "load_embeddings"),
    ("embedding.cosine_distance", "knowspan.cli", "cosine_distance"),
    ("geometry.paper_vector", "knowspan.cli", "paper_vector"),
    ("geometry.article_distance", "knowspan.cli", "article_distance"),
    ("tree.build", "knowspan.cli", "build_tree"),
    ("tree.network_distance", "knowspan.cli", "network_distance"),
    ("disruption.score_corpus", "knowspan.cli", "score_corpus"),
    ("disruption.counts", "knowspan.disruption", "disruption_counts"),
    ("disruption.percentile", "knowspan.disruption", "percentile_ranks"),
    ("stats.pearson", "knowspan.cli", "pearson_matrix"),
    ("stats.fit", "knowspan.cli", "fit_model"),
    ("stats.curve", "knowspan.cli", "predicted_curve"),
)

CLI_STAGES = ("ingest", "train", "metrics", "disrupt", "correlate", "regress", "curves")


def _train_counters(matrix) -> dict:
    # every training pair adds one count to its centre and one to its context
    pairs = sum(matrix.frequencies.values()) // 2
    return {
        "updates": pairs * len(matrix.loss_by_epoch),
        "vocab": len(matrix.vocabulary),
        "final_loss": matrix.loss_by_epoch[-1],
    }


def _score_counters(scored) -> dict:
    defined = sum(score.d is not None for _, score in scored.values())
    return {"defined": defined, "undefined": len(scored) - defined}


COUNTERS = {
    "corpus.parse": lambda result: {
        "records": result[1].n_records,
        "skipped": result[1].n_skipped,
    },
    "corpus.graph": lambda graph: {
        "edges": graph.n_edges,
        "dropped_out_of_corpus": graph.n_dropped_out_of_corpus,
        "dropped_year_order": graph.n_dropped_year_order,
    },
    "embedding.train": _train_counters,
    "disruption.score_corpus": _score_counters,
    "stats.fit": lambda result: {"rows": result.n},
}


class Tracer:
    """In-memory span recorder; spans nest by call order in one thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def record(self, name: str, start: int, end: int) -> None:
        self.spans.append([self.run_id, len(self.spans), None, name, start, end, None])

    def wrap(self, name: str, fn):
        counters = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = [self.run_id, len(self.spans), self._stack[-1] if self._stack else None,
                    name, 0, 0, None]
            self.spans.append(span)
            self._stack.append(span[1])
            span[4] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter_ns()
                self._stack.pop()
            if counters is not None:
                span[6] = counters(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def run_traced(spans_out: str, run_id: str, argv: list[str]) -> int:
    tracer = Tracer(run_id)
    start = time.perf_counter_ns()
    cli = importlib.import_module("knowspan.cli")
    tracer.record("cli.import", start, time.perf_counter_ns())
    for name, module, attribute in BOUNDARIES:
        target = importlib.import_module(module)
        setattr(target, attribute, tracer.wrap(name, getattr(target, attribute)))
    code = 0
    try:
        tracer.wrap("cli.command", cli.main.main)(args=argv, prog_name="knowspan")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.write(spans_out)
    return code


# ---------------------------------------------------------------------------
# parent side: per-layer figures from the span files of one workload


def read_spans(path: str) -> list[list]:
    """Span records of one process."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_metrics(processes: list[list[list]]) -> tuple[dict[str, float], list[str]]:
    """Per-layer figures and the boundaries that recorded zero calls, from
    the span records of each process, in process order.

    Times are summed over every call in every process; ``*_us_p50`` and
    ``*_us_p99`` are per-call percentiles; counters come from the first
    call of a boundary (every process of a workload reads the same corpus),
    except fits, which are summed.
    """
    total: dict[str, int] = {}
    calls: dict[str, int] = {}
    child_ns: dict[tuple, int] = {}
    durations: dict[str, list[float]] = {}
    first: dict[str, dict] = {}
    fit_rows = 0
    spans = [(k, *span[1:]) for k, records in enumerate(processes) for span in records]
    for process, span_id, parent, name, start, end, counters in spans:
        ns = end - start
        total[name] = total.get(name, 0) + ns
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(ns / 1e3)
        if parent is not None:
            key = (process, parent)
            child_ns[key] = child_ns.get(key, 0) + ns
        if counters is not None:
            first.setdefault(name, counters)
            if name == "stats.fit":
                fit_rows += counters["rows"]

    self_ns: dict[str, int] = {}
    for process, span_id, parent, name, start, end, counters in spans:
        if name.startswith("cli.") and name[4:] in CLI_STAGES:
            own = end - start - child_ns.get((process, span_id), 0)
            self_ns[name] = self_ns.get(name, 0) + own

    def seconds(name: str) -> float:
        return total.get(name, 0) / 1e9

    def counter(name: str, key: str) -> float:
        return first.get(name, {}).get(key, 0)

    def percentile_us(name: str, q: float) -> float:
        values = sorted(durations.get(name, [0.0]))
        return _nearest_rank(values, q)

    train_s = seconds("embedding.train")
    updates = counter("embedding.train", "updates")
    out = {
        "cli.import_s": statistics.median(
            [d / 1e6 for d in durations.get("cli.import", [0.0])]
        ),
        "cli.processes": calls.get("cli.command", 0),
        "cli.command_s": seconds("cli.command"),
    }
    for stage in CLI_STAGES:
        out[f"cli.{stage}_s"] = seconds(f"cli.{stage}")
        out[f"cli.{stage}.self_s"] = self_ns.get(f"cli.{stage}", 0) / 1e9
    out.update(
        {
            "corpus.parse_s": seconds("corpus.parse"),
            "corpus.parse_calls": calls.get("corpus.parse", 0),
            "corpus.graph_s": seconds("corpus.graph"),
            "corpus.graph_calls": calls.get("corpus.graph", 0),
            "corpus.records": counter("corpus.parse", "records"),
            "corpus.skipped": counter("corpus.parse", "skipped"),
            "corpus.edges": counter("corpus.graph", "edges"),
            "corpus.edges_dropped_out_of_corpus": counter("corpus.graph", "dropped_out_of_corpus"),
            "corpus.edges_dropped_year_order": counter("corpus.graph", "dropped_year_order"),
            "embedding.train_s": train_s,
            "embedding.updates": updates,
            "embedding.us_per_update": train_s * 1e6 / updates if updates else 0.0,
            "embedding.vocab": counter("embedding.train", "vocab"),
            "embedding.final_loss": counter("embedding.train", "final_loss"),
            "embedding.save_s": seconds("embedding.save"),
            "embedding.load_s": seconds("embedding.load"),
            "embedding.cosine_distance_s": seconds("embedding.cosine_distance"),
            "geometry.paper_vector_s": seconds("geometry.paper_vector"),
            "geometry.article_distance_s": seconds("geometry.article_distance"),
            "geometry.article_distance_us_p50": percentile_us("geometry.article_distance", 0.5),
            "geometry.article_distance_us_p99": percentile_us("geometry.article_distance", 0.99),
            "tree.build_s": seconds("tree.build"),
            "tree.network_distance_s": seconds("tree.network_distance"),
            "tree.network_distance_us_p50": percentile_us("tree.network_distance", 0.5),
            "disruption.score_corpus_s": seconds("disruption.score_corpus"),
            "disruption.counts_us_p50": percentile_us("disruption.counts", 0.5),
            "disruption.counts_us_p99": percentile_us("disruption.counts", 0.99),
            "disruption.percentile_s": seconds("disruption.percentile"),
            "disruption.defined": counter("disruption.score_corpus", "defined"),
            "disruption.undefined": counter("disruption.score_corpus", "undefined"),
            "stats.pearson_s": seconds("stats.pearson"),
            "stats.fit_s": seconds("stats.fit"),
            "stats.fits": calls.get("stats.fit", 0),
            "stats.fit_rows": fit_rows,
            "stats.curve_s": seconds("stats.curve"),
            "trace.spans": len(spans),
        }
    )
    zero_calls = [name for name, _, _ in BOUNDARIES if calls.get(name, 0) == 0]
    return out, zero_calls


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.stderr.write("usage: tracer.py SPANS_OUT RUN_ID -- <knowspan args>\n")
        sys.exit(2)
    sys.exit(run_traced(sys.argv[1], sys.argv[2], sys.argv[4:]))
