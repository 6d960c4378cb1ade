"""Paper and journal-year vectors in embedding space, and distances on them.

A paper vector is the mean of its code vectors; a journal-year vector is the
mean of the defined paper vectors in one (journal, year) cell, so a paper
with a code missing from the vocabulary neither gets a distance nor moves
its cell's mean.  Journal distance is the cosine distance between a paper
and its cell's vector, or the mean of the cell's other defined members when
the paper is excluded; article distance is the mean pairwise cosine
distance among the paper's codes.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .corpus import Corpus, Paper
from .embedding import EmbeddingMatrix


def paper_vector(paper: Paper, emb: EmbeddingMatrix) -> np.ndarray:
    """Mean of the paper's code vectors; missing codes raise MissingCodeError.

    The rows are summed in code order and divided once: for vectors of two
    or more dimensions, every embedding's, the very sum and division
    ``np.stack(rows).mean(axis=0)`` makes, without the stacked copy.
    """
    codes = paper.pacs_codes
    if not codes:
        raise ValueError(f"paper {paper.id!r} has no codes")
    total = emb[codes[0]].copy()
    for code in codes[1:]:
        total += emb[code]
    return total / len(codes)


def journal_cells(
    corpus: Corpus, vectors: Iterable[np.ndarray | None]
) -> dict[tuple[str, int], tuple[np.ndarray, int] | None]:
    """Mean and count of the defined paper vectors in each (journal, year) cell.

    ``vectors`` yields each paper's vector in corpus order, or None when it
    is undefined, and is read once, so it need hold one vector at a time.
    Each cell sums its defined members in corpus order and divides once, as
    ``paper_vector`` does its codes: the bits ``np.mean`` over the stacked
    members gives.  Cells come in corpus order; a cell with no defined
    member maps to None.
    """
    sums: dict[tuple[str, int], list | None] = {}
    for paper, vector in zip(corpus.papers.values(), vectors, strict=True):
        key = (paper.journal, paper.year)
        cell = sums.setdefault(key, None)
        if vector is None:
            continue
        if cell is None:
            sums[key] = [vector.copy(), 1]
        else:
            cell[0] += vector
            cell[1] += 1
    return {
        key: None if cell is None else (cell[0] / cell[1], cell[1]) for key, cell in sums.items()
    }


def journal_reference(
    cell: tuple[np.ndarray, int], vector: np.ndarray, exclude_self: bool
) -> np.ndarray | None:
    """The vector a paper's journal distance is measured from.

    ``cell`` is the (mean, count) of the paper's own cell, of which the
    paper with ``vector`` is a defined member.  ``exclude_self`` removes the
    paper from the mean; with no other defined member the result is None.
    """
    mean, n_members = cell
    if not exclude_self:
        return mean
    if n_members < 2:
        return None
    return (mean * n_members - vector) / (n_members - 1)


def article_distance(paper: Paper, emb: EmbeddingMatrix) -> float:
    """Mean cosine distance over the m*(m-1)/2 code pairs; 0.0 when m == 1.

    Papers scored with one matrix share its code norms and pair terms; see
    ``EmbeddingMatrix.mean_pair_distance``.
    """
    codes = paper.pacs_codes
    m = len(codes)
    if m == 0:
        raise ValueError(f"paper {paper.id!r} has no codes")
    if m == 1:
        return 0.0
    return emb.mean_pair_distance(codes)
