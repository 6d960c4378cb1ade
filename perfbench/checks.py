"""Output checks run on every timed run of a workload.

A run passes when every expected artifact exists and an independent oracle
agrees with a seeded sample of its rows:

- disruption counts, recounted from the parsed corpus by code that shares
  nothing with ``knowspan.disruption`` or ``CitationGraph``, equal
  ``disruption.csv`` and the merged ``metrics.csv`` exactly;
- article and network distances, recomputed through the public
  ``geometry`` and ``tree`` functions, match ``metrics.csv`` to 1e-12
  relative;
- ``parse_report.json`` and the citation graph's edge counters equal what
  the corpus generator injected.

Artifact digests are returned so the caller can require byte-identical
outputs across the repeated runs of one seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random

from knowspan.corpus import build_citation_graph, parse_corpus
from knowspan.embedding import load_embeddings
from knowspan.geometry import article_distance
from knowspan.tree import build_tree, network_distance

from corpora import Expected

MODELS = tuple(f"model{i}" for i in range(1, 9))
ANALYSIS_ARTIFACTS = (
    "metrics_space.csv",
    "disruption.csv",
    "metrics.csv",
    "correlations.csv",
    *(f"regression_{m}.csv" for m in MODELS),
    *(f"curves_{m}.csv" for m in MODELS),
    "manifest.json",
)
PIPELINE_ARTIFACTS = (
    "corpus.parsed.jsonl",
    "parse_report.json",
    "embedding.txt",
    *ANALYSIS_ARTIFACTS,
)
SAMPLE_SIZE = 400
RELATIVE_TOLERANCE = 1e-12


def digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= RELATIVE_TOLERANCE * max(abs(got), abs(want))


def _rows_by_id(path: str) -> tuple[list[str], dict[str, list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, {row[0]: row for row in reader}


class Oracle:
    """Reference answers for one parsed corpus and embedding."""

    def __init__(self, outdir: str, expected: Expected, seed: int):
        with open(os.path.join(outdir, "corpus.parsed.jsonl"), encoding="utf-8") as fh:
            self.corpus, _ = parse_corpus(fh)
        self.parsed_digest = digest(os.path.join(outdir, "corpus.parsed.jsonl"))
        self.expected = expected
        self.emb = load_embeddings(os.path.join(outdir, "embedding.txt"))
        self.tree = build_tree(self.corpus.distinct_codes())
        papers = self.corpus.papers
        ids = sorted(papers)
        self.sample = sorted(random.Random(seed).sample(ids, min(SAMPLE_SIZE, len(ids))))

        # The citation relation straight from the records: an in-corpus
        # reference to a paper of the same or an earlier year.
        self.cites = {
            pid: {r for r in p.references if r in papers and papers[r].year <= p.year}
            for pid, p in papers.items()
        }
        cited_by: dict[str, set[str]] = {pid: set() for pid in papers}
        for pid, refs in self.cites.items():
            for ref in refs:
                cited_by[ref].add(pid)
        self.cited_by = cited_by
        self.edges = sum(len(refs) for refs in self.cites.values())
        # work the disruption layer does: one candidate per citer of a reference
        self.candidate_scans = sum(
            len(cited_by[ref]) for refs in self.cites.values() for ref in refs
        )
        self.code_pairs = sum(
            len(p.pacs_codes) * (len(p.pacs_codes) - 1) // 2 for p in papers.values()
        )
        graph = build_citation_graph(self.corpus)
        self.graph_counts = (
            graph.n_edges,
            graph.n_dropped_out_of_corpus,
            graph.n_dropped_year_order,
        )

    def counts(self, pid: str) -> tuple[int, int, int]:
        """Disjoint-variant (n_i, n_j, n_k) for one focal paper."""
        year = self.corpus.papers[pid].year
        citers = self.cited_by[pid]
        ref_citers = {
            c
            for ref in self.cites[pid]
            for c in self.cited_by[ref]
            if c != pid and self.corpus.papers[c].year >= year
        }
        n_j = len(citers & ref_citers)
        return len(citers) - n_j, n_j, len(ref_citers - citers)

    def corpus_problems(self) -> list[str]:
        """Generator expectations the parsed corpus itself must meet."""
        want = self.expected
        problems = []
        if len(self.corpus) != want.parsed:
            problems.append(f"parsed {len(self.corpus)} papers, expected {want.parsed}")
        got = self.graph_counts
        expected = (want.edges, want.dropped_out_of_corpus, want.dropped_year_order)
        if got != expected:
            problems.append(
                f"graph edges/dropped out-of-corpus/dropped year-order {got}, expected {expected}"
            )
        if self.edges != want.edges:
            problems.append(f"recounted {self.edges} edges, expected {want.edges}")
        return problems

    def check(self, outdir: str, artifacts: tuple[str, ...]) -> tuple[list[str], dict[str, str]]:
        """Problems found in one run's output directory, and its digests."""
        missing = [a for a in artifacts if not os.path.isfile(os.path.join(outdir, a))]
        if missing:
            return [f"missing artifact {a}" for a in missing], {}
        digests = {a: digest(os.path.join(outdir, a)) for a in artifacts}
        problems: list[str] = []
        if digests.get("corpus.parsed.jsonl", self.parsed_digest) != self.parsed_digest:
            problems.append("corpus.parsed.jsonl differs from the one the oracle read")
        try:
            problems += self._check_report(outdir)
            problems += self._check_tables(outdir)
        except (ValueError, KeyError, IndexError, StopIteration) as exc:
            problems.append(f"unreadable artifact: {type(exc).__name__}: {exc}")
        return problems, digests

    def _check_report(self, outdir: str) -> list[str]:
        with open(os.path.join(outdir, "parse_report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        want = self.expected
        got = (report["n_records"], report["n_skipped"], report["skip_reasons"])
        expected = (want.records, want.skipped, want.skip_reasons)
        if got != expected:
            return [f"parse_report records/skipped/reasons {got}, expected {expected}"]
        return []

    def _check_tables(self, outdir: str) -> list[str]:
        problems = []
        _, disruption = _rows_by_id(os.path.join(outdir, "disruption.csv"))
        header, merged = _rows_by_id(os.path.join(outdir, "metrics.csv"))
        col = {name: i for i, name in enumerate(header)}
        n = len(self.corpus)
        if len(disruption) != n or len(merged) != n:
            problems.append(
                f"row counts disruption={len(disruption)} metrics={len(merged)}, expected {n}"
            )
        for pid in self.sample:
            if pid not in disruption or pid not in merged:
                problems.append(f"{pid}: row missing")
                continue
            n_i, n_j, n_k = self.counts(pid)
            d_cell = "" if n_i + n_j + n_k == 0 else repr((n_i - n_j) / (n_i + n_j + n_k))
            want = [d_cell, str(n_i), str(n_j), str(n_k)]
            row = disruption[pid]
            got = [row[1], row[3], row[4], row[5]]
            merged_got = [merged[pid][col[c]] for c in ("d_score", "d_n_i", "d_n_j", "d_n_k")]
            if got != want or merged_got != want:
                problems.append(
                    f"{pid}: d_score,n_i,n_j,n_k disruption.csv={got} metrics.csv={merged_got}, "
                    f"recount={want}"
                )
            paper = self.corpus.papers[pid]
            net = float(merged[pid][col["network_distance"]])
            if not _close(net, network_distance(paper, self.tree)):
                problems.append(f"{pid}: network_distance {net} disagrees")
            cell = merged[pid][col["article_distance"]]
            if all(code in self.emb for code in paper.pacs_codes):
                art = article_distance(paper, self.emb)
                if cell == "" or not _close(float(cell), art):
                    problems.append(f"{pid}: article_distance {cell!r}, recomputed {art!r}")
            elif cell != "":
                problems.append(f"{pid}: article_distance {cell!r} for a paper with unknown codes")
            if len(problems) > 20:
                break
        return problems
