"""Disruption scores from the citation graph, plus corpus-wide percentiles.

For a focal paper, qualifying papers are those published in or after the
focal year.  With F = qualifying citers of the focal paper and R = qualifying
citers of at least one of its references (the focal paper itself never
counts), the default "disjoint" counts are

    n_i = |F - R|    cite the focal paper only
    n_j = |F & R|    cite the focal paper and a reference
    n_k = |R - F|    cite a reference but not the focal paper

and the score is (n_i - n_j) / (n_i + n_j + n_k).  The "overlapping" variant
instead takes n_i = |F|, leaving n_j double-counted in both numerator terms.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .corpus import CitationGraph, Corpus, Paper

VARIANTS = ("disjoint", "overlapping")


@dataclass(frozen=True, slots=True)
class DisruptionCounts:
    n_i: int
    n_j: int
    n_k: int

    @property
    def total(self) -> int:
        return self.n_i + self.n_j + self.n_k


@dataclass(frozen=True, slots=True)
class DisruptionScore:
    d: float | None
    percentile: float | None


def disruption_counts(
    focal: Paper, graph: CitationGraph, variant: str = "disjoint"
) -> DisruptionCounts:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    citers = graph.cited_by.get(focal.id, ())
    year_of = graph.years.__getitem__
    suffixes = []
    for ref in graph.cites.get(focal.id, ()):
        # citers are ordered by year, so the qualifying ones are a suffix
        ref_cited_by = graph.cited_by[ref]
        suffixes.append(ref_cited_by[bisect_left(ref_cited_by, focal.year, key=year_of):])
    ref_citers = set().union(*suffixes)
    ref_citers.discard(focal.id)
    n_j = len(ref_citers.intersection(citers))
    n_k = len(ref_citers) - n_j
    n_i = len(citers) if variant == "overlapping" else len(citers) - n_j
    return DisruptionCounts(n_i=n_i, n_j=n_j, n_k=n_k)


def d_score(counts: DisruptionCounts) -> float:
    """(n_i - n_j) / (n_i + n_j + n_k); undefined when all counts are zero."""
    if counts.total == 0:
        raise ValueError("d-score is undefined when n_i + n_j + n_k == 0")
    return (counts.n_i - counts.n_j) / counts.total


def percentile_ranks(scores: list[float]) -> list[float]:
    """Midrank percentiles 100 * (rank - 0.5) / N; ties share one value."""
    if not scores:
        raise ValueError("cannot rank an empty score list")
    n = len(scores)
    values = np.asarray(scores, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], n]
    ranks = np.empty(n)
    # tie group [start, end) holds ranks start+1 .. end, whose mean is exact
    ranks[order] = np.repeat((starts + 1 + ends) / 2, ends - starts)
    return (100.0 * (ranks - 0.5) / n).tolist()


def score_corpus(
    corpus: Corpus, graph: CitationGraph, variant: str = "disjoint"
) -> dict[str, tuple[DisruptionCounts, DisruptionScore]]:
    """Counts and scores for every paper; percentiles over the defined pool.

    Papers whose counts are all zero get ``DisruptionScore(None, None)`` and
    are excluded from the percentile pool.
    """
    counts = [disruption_counts(paper, graph, variant) for paper in corpus.papers.values()]
    scores = [d_score(c) for c in counts if c.total > 0]
    # each defined paper's (d, percentile), taken in corpus order as they come
    defined = zip(scores, percentile_ranks(scores) if scores else [])
    undefined = DisruptionScore(d=None, percentile=None)
    return {
        pid: (c, DisruptionScore(*next(defined)) if c.total > 0 else undefined)
        for pid, c in zip(corpus.papers, counts)
    }
