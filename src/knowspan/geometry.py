"""Paper and journal-year vectors in embedding space, and distances on them.

A paper vector is the mean of its code vectors; a journal-year vector is the
mean of its member paper vectors.  Journal distance is the cosine distance
between a paper and its own journal-year vector; article distance is the mean
pairwise cosine distance among the paper's codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Paper
from .embedding import EmbeddingMatrix, cosine_distance, direction_and_norm


@dataclass(frozen=True)
class PaperVector:
    paper_id: str
    vector: np.ndarray


@dataclass(frozen=True)
class JournalVector:
    journal: str
    year: int
    vector: np.ndarray
    n_members: int


def paper_vector(paper: Paper, emb: EmbeddingMatrix) -> PaperVector:
    """Mean of the paper's code vectors; missing codes raise MissingCodeError."""
    if not paper.pacs_codes:
        raise ValueError(f"paper {paper.id!r} has no codes")
    stacked = np.stack([emb[code] for code in paper.pacs_codes])
    return PaperVector(paper.id, stacked.mean(axis=0))


def journal_vector(
    journal: str, year: int, corpus: Corpus, emb: EmbeddingMatrix
) -> JournalVector:
    """Mean of member paper vectors for one (journal, year) cell."""
    member_ids = corpus.journal_year_index.get((journal, year))
    if not member_ids:
        raise ValueError(f"no papers for journal {journal!r} in year {year}")
    stacked = np.stack(
        [paper_vector(corpus.papers[pid], emb).vector for pid in member_ids]
    )
    return JournalVector(journal, year, stacked.mean(axis=0), len(member_ids))


def journal_distance(
    paper: Paper, corpus: Corpus, emb: EmbeddingMatrix, exclude_self: bool = False
) -> float:
    """Cosine distance from a paper to its journal-year vector.

    The focal paper is a member of its own cell; ``exclude_self`` removes it
    from the cell mean, which needs at least one other member.
    """
    focal = paper_vector(paper, emb).vector
    cell = journal_vector(paper.journal, paper.year, corpus, emb)
    reference = cell.vector
    if exclude_self:
        if cell.n_members < 2:
            raise ValueError(
                f"cannot exclude {paper.id!r} from a single-member cell "
                f"({paper.journal!r}, {paper.year})"
            )
        reference = (reference * cell.n_members - focal) / (cell.n_members - 1)
    return cosine_distance(focal, reference)


def article_distance(paper: Paper, emb: EmbeddingMatrix) -> float:
    """Mean cosine distance over the m*(m-1)/2 code pairs; 0.0 when m == 1."""
    codes = paper.pacs_codes
    m = len(codes)
    if m == 0:
        raise ValueError(f"paper {paper.id!r} has no codes")
    if m == 1:
        return 0.0
    vectors, norms = zip(*(direction_and_norm(emb[code]) for code in codes))
    if 0.0 in norms:
        raise ValueError("cosine distance is undefined for zero-norm vectors")
    total = 0.0
    for i in range(m - 1):
        u, norm_u = vectors[i], norms[i]
        for j in range(i + 1, m):
            # cosine_distance's arithmetic and clip, so each term matches it bit for bit
            d = 1.0 - float(u @ vectors[j]) / (norm_u * norms[j])
            total += min(2.0, max(0.0, d))
    return total / (m * (m - 1) // 2)


def article_distance_log(paper: Paper, emb: EmbeddingMatrix) -> float:
    """log(1 + article distance), the transform used in correlation and models."""
    return float(np.log1p(article_distance(paper, emb)))
