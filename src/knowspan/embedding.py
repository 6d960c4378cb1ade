"""Skip-gram embeddings with negative sampling over per-paper code co-occurrence.

Each paper is one document whose window spans every code on it, so a paper
with m codes contributes all m*(m-1) ordered (center, context) pairs.  The
loss for one pair with negatives n_1..n_K is

    L = -log sigmoid(u_o . v_c) - sum_k log sigmoid(-u_{n_k} . v_c)

where v are input-side vectors (the ones exported) and u are output-side
vectors.  Training is plain sequential SGD seeded from ``seed``, so two runs
with one seed produce bit-identical matrices.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .corpus import Corpus, parse_code


def expit(x: float) -> float:
    """The logistic function of one float, bit for bit ``scipy.special.expit``.

    Both evaluate ``1 / (1 + exp(-x))`` with the C library's ``exp``;
    numpy's vectorised ``exp`` rounds differently on some machines, so it
    would change the trained bytes.
    """
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # exp(-x) is past the largest float: 1 / inf
        return 0.0


class MissingCodeError(KeyError):
    """Lookup of a code absent from the trained vocabulary."""

    def __init__(self, code: str):
        super().__init__(code)
        self.code = code

    def __str__(self) -> str:
        return f"code {self.code!r} is not in the embedding vocabulary"


# word2vec's noise exponent (Mikolov et al., NeurIPS 2013)
NOISE_EXPONENT = 0.75


@dataclass
class TrainingConfig:
    dim: int = 50
    negatives_per_positive: int = 5
    epochs: int = 5
    initial_learning_rate: float = 0.025
    final_learning_rate: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not (0.0 < self.final_learning_rate <= self.initial_learning_rate):
            raise ValueError("need 0 < final_learning_rate <= initial_learning_rate")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


# the cosine state an EmbeddingMatrix keeps for itself
_cache_field = partial(field, init=False, repr=False, compare=False)


@dataclass
class EmbeddingMatrix:
    """Trained input-side vectors keyed by code.

    ``vocabulary`` preserves training order (descending frequency, ties by
    code text).  ``frequencies`` counts slot occurrences in the training pair
    stream; matrices restored from disk carry an empty frequency map.
    ``vectors`` must not change once ``mean_pair_distance`` has been called.
    """

    dim: int
    vocabulary: tuple[str, ...]
    vectors: dict[str, np.ndarray]
    frequencies: dict[str, int] = field(default_factory=dict)
    loss_by_epoch: tuple[float, ...] = ()
    # each code normalised so far: its slot in the table and its direction_and_norm
    _seen: dict[str, tuple[int, tuple[np.ndarray, float]]] = _cache_field(default_factory=dict)
    _terms_summed: int = _cache_field(default=0)
    _table: list[list[float | None]] | None = _cache_field(default=None)

    def __contains__(self, code: str) -> bool:
        return code in self.vectors

    def __getitem__(self, code: str) -> np.ndarray:
        try:
            return self.vectors[code]
        except KeyError:
            raise MissingCodeError(code) from None

    def _normalised(self, code: str) -> tuple[int, tuple[np.ndarray, float]]:
        seen = self._seen.get(code)
        if seen is None:
            seen = self._seen[code] = (len(self._seen), direction_and_norm(self[code]))
        return seen

    def mean_pair_distance(self, codes: Sequence[str]) -> float:
        """Mean ``cosine_distance``, bit for bit, over the pairs i < j of two
        or more codes, summed in pair order.

        Each code is normalised on first use.  Once the matrix has summed as
        many terms as its vocabulary has pairs, a V x V table keeps each
        ordered pair's term, so the table is bounded by the work it saves.
        """
        normalised = [self._normalised(code) for code in codes]
        if any(norm == 0.0 for _, (_, norm) in normalised):
            raise ValueError("cosine distance is undefined for zero-norm vectors")
        n_vocab = len(self.vectors)
        if self._table is None and self._terms_summed >= n_vocab * (n_vocab - 1) // 2:
            self._table = [[None] * n_vocab for _ in range(n_vocab)]
        table = self._table
        n_terms = len(codes) * (len(codes) - 1) // 2
        self._terms_summed += n_terms
        total = 0.0
        for i, (a, u) in enumerate(normalised[:-1]):
            row = table[a] if table is not None else None
            for b, v in normalised[i + 1 :]:
                term = row[b] if row is not None else None
                if term is None:
                    term = _clipped_distance(u, v)
                    if row is not None:
                        row[b] = term
                total += term
        return total / n_terms


def build_training_pairs(corpus: Corpus) -> Iterator[tuple[str, str]]:
    """All ordered co-occurrence pairs: m*(m-1) per paper with m codes."""
    for paper in corpus.papers.values():
        codes = paper.pacs_codes
        if len(codes) < 2:
            continue
        for center in codes:
            for context in codes:
                if context != center:
                    yield center, context


def pair_loss(
    center_vec: np.ndarray, context_vec: np.ndarray, negative_vecs: np.ndarray
) -> float:
    """Negative-sampling loss for one (center, context, negatives) triple."""
    s_pos = float(context_vec @ center_vec)
    s_neg = np.asarray(negative_vecs) @ center_vec
    return float(np.logaddexp(0.0, -s_pos) + np.logaddexp(0.0, s_neg).sum())


def pair_gradients(
    center_vec: np.ndarray, context_vec: np.ndarray, negative_vecs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradients of pair_loss w.r.t. center, context, and negatives."""
    negative_vecs = np.asarray(negative_vecs)
    p_pos = expit(float(context_vec @ center_vec))
    p_neg = np.array([expit(s) for s in (negative_vecs @ center_vec).tolist()])
    g_context = (p_pos - 1.0) * center_vec
    g_negatives = p_neg[:, None] * center_vec[None, :]
    g_center = (p_pos - 1.0) * context_vec + p_neg @ negative_vecs
    return g_center, g_context, g_negatives


# Pairs per precomputed block of draws, learning rates and scores.  Large
# enough to amortise numpy call overhead, small enough to keep memory flat.
_CHUNK_PAIRS = 4096


def _sgd_step(
    w_in: np.ndarray,
    w_out: np.ndarray,
    center: int,
    targets: np.ndarray,
    lr: float,
    scores: np.ndarray,
    distinct: bool,
) -> None:
    """One in-place SGD update; ``targets[0]`` is the positive context.

    Writes the pre-update scores ``w_out[targets] @ w_in[center]`` into
    ``scores``; ``_pair_losses`` turns them into the loss.  ``distinct``
    promises that no target repeats; otherwise duplicate negative draws are
    accumulated, not overwritten.
    """
    v = w_in[center]
    u = w_out.take(targets, axis=0)  # a copy, so u stays at pre-update values
    np.dot(u, v, out=scores)
    probs = list(map(expit, scores.tolist()))
    probs[0] -= 1.0
    err = np.array([lr * p for p in probs])
    grad_center = np.dot(err, u)
    # the outer product err v as a k=1 matrix product: each entry is one
    # rounded product, as with broadcasting, at less call overhead
    outer = np.dot(err[:, None], v[None, :])
    if distinct:  # write the updated copy back in one assignment
        u -= outer
        w_out[targets] = u
    else:
        np.subtract.at(w_out, targets, outer)
    v -= grad_center


def _pair_losses(scores: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Per-pair loss from score rows; row i holds ``widths[i]`` scores.

    Entries past a row's width are padding and must be ``-inf``.  Padded rows
    are re-summed over their own width: numpy sums eight or more terms
    pairwise, so trailing zeros could change the rounding.
    """
    terms = np.logaddexp(0.0, scores)
    sums = terms.sum(axis=1)
    for i in np.flatnonzero(widths < scores.shape[1]).tolist():
        sums[i] = terms[i, : widths[i]].sum()
    return sums - scores[:, 0]


def _draw_targets(
    contexts: np.ndarray, noise_cdf: np.ndarray, rng: np.random.Generator, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Targets for a run of pairs: (targets, kept, widths, distinct).

    Row i of the ``(n, k+1)`` ``targets`` is the context then k noise draws.
    ``kept`` is False for draws equal to the context, which the update
    drops, so row i keeps ``widths[i]`` targets.  ``distinct`` is False where
    a kept target repeats.  The generator yields the same doubles however
    the draws are split, so one call here matches k calls per pair.
    """
    n = contexts.shape[0]
    context = contexts[:, None]
    draws = np.searchsorted(noise_cdf, rng.random(n * k)).reshape(n, k)
    targets = np.concatenate((context, draws), axis=1)
    kept = targets != context
    kept[:, 0] = True
    widths = kept.sum(axis=1)
    # Dropped draws get distinct negative keys, so after sorting only kept
    # targets that repeat sit next to an equal neighbour.
    keyed = np.where(kept, targets, -1 - np.arange(k + 1))
    keyed.sort(axis=1)
    distinct = (keyed[:, 1:] != keyed[:, :-1]).all(axis=1)
    return targets, kept, widths, distinct


def train_embeddings(
    pairs: Iterable[tuple[str, str]], config: TrainingConfig | None = None
) -> EmbeddingMatrix:
    """Train input/output vector tables by SGD over the given pair stream.

    Negatives are drawn from a noise distribution proportional to slot
    frequency raised to ``NOISE_EXPONENT``; a draw equal to the positive
    context is dropped rather than resampled.  The learning rate decays
    linearly from the initial to the final value over all scheduled updates.

    Updates run pair by pair; the work that does not depend on the vectors
    (noise draws, learning rates, the loss) is done once per chunk of
    ``_CHUNK_PAIRS`` pairs, with results identical to doing it per pair.
    """
    config = config or TrainingConfig()
    slots = [code for pair in pairs for code in pair]  # center, context, center, ...
    if not slots:
        raise ValueError("no training pairs: no paper carries two or more codes")
    counts = Counter(slots)
    if len(counts) < 2:
        raise ValueError("vocabulary must contain at least two codes")

    vocab = tuple(sorted(counts, key=lambda code: (-counts[code], code)))
    index = {code: i for i, code in enumerate(vocab)}
    n_vocab = len(vocab)
    dim = config.dim

    rng = np.random.default_rng(config.seed)
    bound = 0.5 / dim
    w_in = rng.uniform(-bound, bound, size=(n_vocab, dim))
    w_out = rng.uniform(-bound, bound, size=(n_vocab, dim))

    noise = np.array([counts[code] for code in vocab], dtype=np.float64) ** NOISE_EXPONENT
    noise_cdf = np.cumsum(noise)
    noise_cdf /= noise_cdf[-1]

    ids = np.fromiter(map(index.__getitem__, slots), dtype=np.int64, count=len(slots))
    centers, contexts = ids[0::2], ids[1::2]
    pair_count = len(centers)

    k = config.negatives_per_positive
    lr_hi = config.initial_learning_rate
    lr_lo = config.final_learning_rate
    total_updates = config.epochs * pair_count
    step = 0
    losses = []
    for _ in range(config.epochs):
        acc = 0.0
        for lo in range(0, pair_count, _CHUNK_PAIRS):
            hi = min(lo + _CHUNK_PAIRS, pair_count)
            n = hi - lo
            targets, kept, widths, distinct = _draw_targets(
                contexts[lo:hi], noise_cdf, rng, k
            )
            fraction = np.arange(step, step + n) / total_updates
            rates = np.maximum(lr_lo, lr_hi + (lr_lo - lr_hi) * fraction)
            step += n
            scores = np.full((n, k + 1), -np.inf)
            rows = zip(
                centers[lo:hi].tolist(),
                targets,
                kept,
                scores,
                rates.tolist(),
                widths.tolist(),
                distinct.tolist(),
            )
            for center, row, row_kept, row_scores, lr, width, is_distinct in rows:
                if width <= k:
                    row, row_scores = row[row_kept], row_scores[:width]
                _sgd_step(w_in, w_out, center, row, lr, row_scores, is_distinct)
            for loss in _pair_losses(scores, widths).tolist():  # summed in pair order
                acc += loss
        losses.append(acc / pair_count)

    vectors = {code: w_in[i].copy() for i, code in enumerate(vocab)}
    return EmbeddingMatrix(
        dim=dim,
        vocabulary=vocab,
        vectors=vectors,
        frequencies=dict(counts),
        loss_by_epoch=tuple(losses),
    )


# Vectors whose norm lies outside this range are rescaled before a cosine:
# their squares and products under- or overflow and lose the direction.
_PLAIN_NORMS = (1e-100, 1e100)


def direction_and_norm(u: np.ndarray) -> tuple[np.ndarray, float]:
    """``u`` as float64 and its norm, rescaled first if its magnitude is extreme.

    A cosine depends only on direction, so dividing by the largest entry
    loses nothing; vectors of ordinary magnitude are returned unscaled.  A
    zero vector keeps norm 0.0.
    """
    u = np.asarray(u, dtype=np.float64)
    norm = float(np.linalg.norm(u))
    if _PLAIN_NORMS[0] <= norm <= _PLAIN_NORMS[1]:
        return u, norm
    peak = float(np.abs(u).max()) if u.size else 0.0
    if not 0.0 < peak < np.inf:
        return u, norm
    u = u / peak
    return u, float(np.linalg.norm(u))


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - cos(u, v), in [0, 2]; zero-norm input is an error, not a default."""
    u, v = direction_and_norm(u), direction_and_norm(v)
    if u[1] == 0.0 or v[1] == 0.0:
        raise ValueError("cosine distance is undefined for zero-norm vectors")
    return _clipped_distance(u, v)


def _clipped_distance(u: tuple[np.ndarray, float], v: tuple[np.ndarray, float]) -> float:
    """The kernel of every cosine distance, on two ``direction_and_norm`` results."""
    (u, norm_u), (v, norm_v) = u, v
    d = 1.0 - float(u @ v) / (norm_u * norm_v)
    return min(2.0, max(0.0, d))


def save_embeddings(matrix: EmbeddingMatrix, fh: TextIO) -> None:
    """Plain-text export to an open text file: ``dim=<M> vocab=<V>`` header,
    then one code per line.

    Floats are written with shortest round-trip precision, so save/load is
    exact and re-saving an unchanged matrix is byte-identical.
    """
    fh.write(f"dim={matrix.dim} vocab={len(matrix.vocabulary)}\n")
    for code in matrix.vocabulary:
        vec = matrix.vectors[code]
        fh.write(code + " " + " ".join(map(repr, vec.tolist())) + "\n")


def load_embeddings(path: str) -> EmbeddingMatrix:
    """Read a ``save_embeddings`` file.  A file that training could not have
    written, with fewer than two dimensions or vocabulary rows, is a
    ValueError, as is any malformed line."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        try:
            dim = int(header[0].removeprefix("dim="))
            n_vocab = int(header[1].removeprefix("vocab="))
        except (IndexError, ValueError):
            raise ValueError(f"malformed embedding header in {path!r}") from None
        if dim < 2:
            raise ValueError(f"dim={dim}, but training needs at least 2")
        vocab: list[str] = []
        vectors: dict[str, np.ndarray] = {}
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            code, _ = parse_code(parts[0])
            if code in vectors:
                raise ValueError(f"code {code!r} has more than one row")
            values = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            if values.shape != (dim,):
                raise ValueError(f"vector for {code!r} does not have dim={dim}")
            if not np.isfinite(values).all():
                raise ValueError(f"vector for {code!r} has a non-finite coordinate")
            vocab.append(code)
            vectors[code] = values
    if len(vocab) != n_vocab:
        raise ValueError(f"expected {n_vocab} vocabulary rows, found {len(vocab)}")
    if n_vocab < 2:
        raise ValueError(f"{n_vocab} vocabulary rows, but training needs at least 2")
    return EmbeddingMatrix(dim=dim, vocabulary=tuple(vocab), vectors=vectors)
