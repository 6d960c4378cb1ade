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

from typing import Mapping

import numpy as np

from .corpus import Corpus, PacsCode, Paper
from .embedding import EmbeddingMatrix, direction_and_norm


def paper_vector(paper: Paper, emb: EmbeddingMatrix) -> np.ndarray:
    """Mean of the paper's code vectors; missing codes raise MissingCodeError."""
    if not paper.pacs_codes:
        raise ValueError(f"paper {paper.id!r} has no codes")
    return np.stack([emb[code] for code in paper.pacs_codes]).mean(axis=0)


def journal_cells(
    corpus: Corpus, vectors: Mapping[str, np.ndarray | None]
) -> dict[tuple[str, int], tuple[np.ndarray, int] | None]:
    """Mean and count of the defined paper vectors in each (journal, year) cell.

    ``vectors`` maps each paper id to its paper vector, or to None when the
    vector is undefined.  Members are averaged in ``journal_year_index``
    order; a cell with no defined member maps to None.
    """
    cells: dict[tuple[str, int], tuple[np.ndarray, int] | None] = {}
    for key, member_ids in corpus.journal_year_index.items():
        stacked = [vectors[pid] for pid in member_ids if vectors[pid] is not None]
        cells[key] = (np.mean(stacked, axis=0), len(stacked)) if stacked else None
    return cells


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


class PairTerms:
    """Article-distance pair terms of one embedding, shared across papers.

    Each code's ``direction_and_norm`` is computed on its first use.  When
    the vocabulary's V*(V-1)/2 unordered pairs are no more than ``n_pairs``,
    the pair terms the caller expects to evaluate, a V x V table also keeps
    each ordered pair's clipped term once computed, so its size is bounded
    by the work it saves; otherwise every term is recomputed.
    """

    def __init__(self, emb: EmbeddingMatrix, n_pairs: int):
        self._emb = emb
        # codes are indexed by their text, since PacsCode hashes are not cached
        self._slots: dict[str, int] = {}
        self._directions: list[np.ndarray] = []
        self._norms: list[float] = []
        v = len(emb.vectors)
        self._table = [[None] * v for _ in range(v)] if v * (v - 1) // 2 <= n_pairs else None

    def _slot(self, code: PacsCode) -> int:
        slot = self._slots.get(code.raw)
        if slot is None:
            direction, norm = direction_and_norm(self._emb[code])
            slot = self._slots[code.raw] = len(self._norms)
            self._directions.append(direction)
            self._norms.append(norm)
        return slot

    def _term(self, a: int, b: int) -> float:
        # cosine_distance's arithmetic and clip, so each term matches it bit for bit
        d = 1.0 - float(self._directions[a] @ self._directions[b]) / (
            self._norms[a] * self._norms[b]
        )
        return min(2.0, max(0.0, d))

    def mean(self, codes: tuple[PacsCode, ...]) -> float:
        """Mean term over the pairs i < j of ``codes``, summed in that order."""
        slots = [self._slot(code) for code in codes]
        if any(self._norms[slot] == 0.0 for slot in slots):
            raise ValueError("cosine distance is undefined for zero-norm vectors")
        table = self._table
        m = len(slots)
        total = 0.0
        for i in range(m - 1):
            a = slots[i]
            row = table[a] if table is not None else None
            for j in range(i + 1, m):
                b = slots[j]
                if row is None:
                    total += self._term(a, b)
                    continue
                term = row[b]
                if term is None:
                    term = row[b] = self._term(a, b)
                total += term
        return total / (m * (m - 1) // 2)


def article_distance(
    paper: Paper, emb: EmbeddingMatrix, terms: PairTerms | None = None
) -> float:
    """Mean cosine distance over the m*(m-1)/2 code pairs; 0.0 when m == 1.

    ``terms``, built once for ``emb`` and passed with every paper of a run,
    shares code norms and pair terms between papers; the result is the
    same, bit for bit, with or without it.
    """
    codes = paper.pacs_codes
    m = len(codes)
    if m == 0:
        raise ValueError(f"paper {paper.id!r} has no codes")
    if m == 1:
        return 0.0
    if terms is None:
        terms = PairTerms(emb, 0)
    return terms.mean(codes)
