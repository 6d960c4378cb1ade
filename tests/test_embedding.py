"""Skip-gram training mechanics: pairs, gradients, determinism, export."""

import hashlib
import json
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from knowspan import embedding
from knowspan.cli import main
from knowspan.corpus import parse_code, parse_corpus
from knowspan.embedding import (
    EmbeddingMatrix,
    MissingCodeError,
    TrainingConfig,
    _pair_losses,
    _sgd_step,
    build_training_pairs,
    cosine_distance,
    load_embeddings,
    save_embeddings,
    train_embeddings,
)
from oracles import pair_gradients, pair_loss

ONE_MINUS_INV_SQRT2 = 0.2928932188134525  # 1 - 1/sqrt(2), 40-digit evaluation


def toy_corpus(code_lists):
    lines = []
    for i, code_texts in enumerate(code_lists):
        lines.append(
            json.dumps(
                {
                    "id": f"P{i}",
                    "year": 2000,
                    "journal": "J",
                    "pacs_codes": code_texts,
                    "author_count": 1,
                    "n_pages": 4,
                    "title_length": 5,
                    "references": [],
                }
            )
        )
    corpus, _ = parse_corpus(lines)
    return corpus


def code(text):
    return parse_code(text)[0]


# ---------------------------------------------------------------- pairs

def test_five_codes_give_twenty_ordered_pairs():
    corpus = toy_corpus([["11.11.Aa", "22.22.Bb", "33.33.Cc", "44.44.Dd", "55.55.Ee"]])
    pairs = list(build_training_pairs(corpus))
    assert len(pairs) == 20
    assert len(set(pairs)) == 20  # all ordered pairs distinct
    assert all(a != b for a, b in pairs)


def test_single_code_papers_contribute_no_pairs():
    corpus = toy_corpus([["11.11.Aa"], ["22.22.Bb", "33.33.Cc"]])
    pairs = list(build_training_pairs(corpus))
    assert len(pairs) == 2


# ---------------------------------------------------------------- loss/gradients

def test_gradient_check_against_central_differences():
    rng = np.random.default_rng(0)
    dim, k = 12, 4
    center = rng.normal(size=dim)
    context = rng.normal(size=dim)
    negatives = rng.normal(size=(k, dim))
    g_center, g_context, g_negatives = pair_gradients(center, context, negatives)

    h = 1e-5
    tol = 1e-4

    def check(vector, gradient, rebuild):
        for i in range(vector.size):
            plus = vector.copy()
            minus = vector.copy()
            plus.flat[i] += h
            minus.flat[i] -= h
            numeric = (rebuild(plus) - rebuild(minus)) / (2 * h)
            denom = max(abs(numeric), abs(gradient.flat[i]), 1e-12)
            assert abs(numeric - gradient.flat[i]) / denom <= tol

    check(center, g_center, lambda v: pair_loss(v, context, negatives))
    check(context, g_context, lambda v: pair_loss(center, v, negatives))
    check(
        negatives,
        g_negatives,
        lambda v: pair_loss(center, context, v.reshape(k, dim)),
    )


def step_loss(scores):
    """The trainer's loss for one update from the scores _sgd_step wrote."""
    (loss,) = _pair_losses(scores[None, :], np.array([scores.size]))
    return loss


def test_sgd_step_applies_exactly_the_analytic_gradients():
    rng = np.random.default_rng(1)
    n_vocab, dim = 6, 8
    w_in_0 = rng.normal(size=(n_vocab, dim))
    w_out_0 = rng.normal(size=(n_vocab, dim))
    center, targets = 2, np.array([0, 3, 4, 5])
    lr = 0.05

    g_center, g_context, g_negatives = pair_gradients(
        w_in_0[center], w_out_0[targets[0]], w_out_0[targets[1:]]
    )
    expected_loss = pair_loss(w_in_0[center], w_out_0[targets[0]], w_out_0[targets[1:]])
    expected_in = w_in_0[center] - lr * g_center
    expected_out = w_out_0.copy()
    expected_out[targets[0]] -= lr * g_context
    expected_out[targets[1:]] -= lr * g_negatives

    for distinct in (True, False):  # the write-back and the accumulating update
        w_in, w_out = w_in_0.copy(), w_out_0.copy()
        scores = np.empty(targets.size)
        _sgd_step(w_in, w_out, center, targets, lr, scores, distinct)
        assert step_loss(scores) == pytest.approx(expected_loss, rel=1e-12)
        np.testing.assert_allclose(w_in[center], expected_in, rtol=1e-12)
        np.testing.assert_allclose(w_out, expected_out, rtol=1e-12)


def test_sgd_step_accumulates_duplicate_negative_draws():
    w_in = np.full((3, 4), 0.3)
    w_out = np.full((3, 4), 0.2)
    before = w_out[2].copy()
    _sgd_step(w_in, w_out, 0, np.array([1, 2, 2]), 0.1, np.empty(3), False)
    single = np.full((3, 4), 0.2)
    _sgd_step(np.full((3, 4), 0.3), single, 0, np.array([1, 2]), 0.1, np.empty(2), True)
    moved_twice = before - w_out[2]
    moved_once = before - single[2]
    np.testing.assert_allclose(moved_twice, 2 * moved_once, rtol=1e-12)


@pytest.mark.parametrize("width", [1, 3, 7, 8, 9, 17])
def test_padded_score_rows_give_the_unpadded_loss(width):
    """A row padded with -inf has the loss of its unpadded scores, bit for bit."""
    rng = np.random.default_rng(width)
    scores = np.full((2, 20), -np.inf)
    scores[0, :width] = rng.normal(size=width)
    scores[1] = rng.normal(size=20)
    losses = _pair_losses(scores, np.array([width, 20]))
    for loss, row in zip(losses, (scores[0, :width], scores[1])):
        assert loss == float(np.logaddexp(0.0, row).sum() - row[0])


def float_bits(x):
    return np.float64(x).view(np.uint64)


# Where exp(-x) leaves the doubles (|x| ~ 709.78), where the logistic leaves
# them (x ~ -745.13), subnormals, and the values scipy treats specially.
@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.floats(), st.floats(-800.0, 800.0), st.floats(-1e-300, 1e-300)))
@example(709.78)
@example(-709.78)
@example(709.79)
@example(-709.79)
@example(745.2)
@example(-745.2)
@example(-745.13)
@example(5e-324)
@example(-5e-324)
@example(2.2250738585072014e-308)
@example(-2.2250738585072014e-308)
@example(0.0)
@example(-0.0)
@example(np.inf)
@example(-np.inf)
@example(np.nan)
def test_logistic_equals_scipy_expit_bit_for_bit(x):
    assert float_bits(embedding.expit(x)) == float_bits(expit(x))


# ---------------------------------------------------------------- training

def two_block_corpus(n_papers=300, seed=9):
    rng = np.random.default_rng(seed)
    block_a = [f"1{i}.00.Aa" for i in range(5)]
    block_b = [f"2{i}.00.Bb" for i in range(5)]
    lists = []
    for _ in range(n_papers):
        block = block_a if rng.random() < 0.5 else block_b
        chosen = rng.choice(5, size=3, replace=False)
        lists.append([block[int(i)] for i in chosen])
    return toy_corpus(lists)


def test_training_is_deterministic_with_fixed_seed():
    corpus = two_block_corpus(60)
    config = TrainingConfig(dim=16, epochs=2, seed=5)
    first = train_embeddings(build_training_pairs(corpus), config)
    second = train_embeddings(build_training_pairs(corpus), config)
    assert first.vocabulary == second.vocabulary
    for key in first.vocabulary:
        assert np.array_equal(first.vectors[key], second.vectors[key])


def test_loss_decreases_from_first_to_final_epoch():
    corpus = two_block_corpus(200)
    matrix = train_embeddings(build_training_pairs(corpus), TrainingConfig(dim=16, seed=2))
    assert matrix.loss_by_epoch[-1] < matrix.loss_by_epoch[0]


def test_every_trained_vector_has_config_dim_and_is_nonzero():
    corpus = two_block_corpus(60)
    matrix = train_embeddings(build_training_pairs(corpus), TrainingConfig(dim=10, epochs=1, seed=0))
    for code_key in matrix.vocabulary:
        vec = matrix.vectors[code_key]
        assert vec.shape == (10,)
        assert np.linalg.norm(vec) > 0.0


def test_planted_blocks_separate():
    corpus = two_block_corpus(400)
    matrix = train_embeddings(build_training_pairs(corpus), TrainingConfig(dim=16, seed=3))
    keys = sorted(matrix.vocabulary)
    sims = {"within": [], "cross": []}
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            va, vb = matrix.vectors[a], matrix.vectors[b]
            sim = float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))
            same = a[0] == b[0]
            sims["within" if same else "cross"].append(sim)
    assert np.mean(sims["within"]) - np.mean(sims["cross"]) >= 0.3


def test_empty_pair_stream_is_error():
    with pytest.raises(ValueError, match="no training pairs"):
        train_embeddings([], TrainingConfig(dim=4))


def test_a_one_code_vocabulary_is_error():
    with pytest.raises(ValueError, match="at least two codes"):
        train_embeddings([("a", "a")])


def test_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(dim=1)
    with pytest.raises(ValueError):
        TrainingConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainingConfig(initial_learning_rate=0.001, final_learning_rate=0.01)


# ---------------------------------------------------------------- exact equality

def seed_sgd_step(w_in, w_out, center, targets, lr):
    """The per-pair update the chunked trainer replaced, kept as its oracle."""
    v = w_in[center]
    u = w_out[targets]
    scores = u @ v
    loss = float(np.logaddexp(0.0, scores).sum() - scores[0])
    err = expit(scores)
    err[0] -= 1.0
    err *= lr
    grad_center = err @ u
    np.add.at(w_out, targets, -err[:, None] * v[None, :])
    w_in[center] = v - grad_center
    return loss


@st.composite
def sgd_step_cases(draw):
    """(w_in, w_out, center, targets, lr): up to k+1 targets, k from 1 to 7,
    that may repeat, on vectors scaled up to scores past +-745.13.  Adding
    +0.0 turns a -0.0 weight into +0.0: training holds none, and on one the
    step may keep -0.0 where the oracle writes +0.0 (the test below)."""
    k = draw(st.integers(1, 7))
    width = draw(st.integers(1, k + 1))
    n_vocab = draw(st.integers(2, 6))
    dim = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1e-3, 1.0, 40.0]))
    elements = st.floats(-scale, scale).map(lambda x: x + 0.0)
    weights = arrays(np.float64, (n_vocab, dim), elements=elements)
    w_in, w_out = draw(weights), draw(weights)
    center = draw(st.integers(0, n_vocab - 1))
    targets = draw(st.lists(st.integers(0, n_vocab - 1), min_size=width, max_size=width))
    lr = draw(st.floats(1e-4, 0.05))
    return w_in, w_out, center, np.array(targets), lr


def overflow_case(targets):
    """Scores -900, -750, -720, 720 and 750 for w_out rows 1 to 5: exp(-x)
    overflows below -709.78, and the logistic underflows to 0 below -745.13."""
    w_in = np.zeros((6, 2))
    w_in[0] = 30.0
    w_out = np.array([[0.01, -0.02], *([c, c] for c in (-15.0, -12.5, -12.0, 12.0, 12.5))])
    return w_in, w_out, 0, np.array(targets), 0.025


@settings(max_examples=500, deadline=None)
@given(case=sgd_step_cases())
@example(case=overflow_case([1, 2, 3, 4, 5]))  # on the positive and two negatives
@example(case=overflow_case([3, 1, 2, 2, 0, 1]))  # repeated, the positive between the two thresholds
@example(case=overflow_case([2]))
def test_sgd_step_equals_the_per_pair_oracle_bit_for_bit(case):
    """The update writes the oracle's weights and scores whose loss is the
    oracle's, bit for bit, whether w_in is the matrix or its row views;
    repeated targets go through the accumulating update."""
    w_in_0, w_out_0, center, targets, lr = case
    w_in_seed, w_out_seed = w_in_0.copy(), w_out_0.copy()
    loss = seed_sgd_step(w_in_seed, w_out_seed, center, targets, lr)
    repeats = len(set(targets.tolist())) < targets.size
    for distinct in (False,) if repeats else (True, False):
        for rows in (False, True):
            w_in, w_out = w_in_0.copy(), w_out_0.copy()
            scores = np.empty(targets.size)
            _sgd_step(list(w_in) if rows else w_in, w_out, center, targets, lr, scores, distinct)
            assert w_in.tobytes() == w_in_seed.tobytes()
            assert w_out.tobytes() == w_out_seed.tobytes()
            assert float_bits(step_loss(scores)) == float_bits(loss)


def test_a_negative_zero_weight_is_where_the_step_and_the_oracle_differ():
    """The step's outer product makes a -0.0 product +0.0, so a -0.0 weight
    moved by zero stays -0.0, where the oracle adds +0.0 and writes +0.0.
    Training never holds a -0.0 weight, so its bytes are the oracle's."""
    w_out, w_out_seed = np.full((2, 2), -0.0), np.full((2, 2), -0.0)
    _sgd_step(np.zeros((2, 2)), w_out, 0, np.array([0]), 0.03125, np.empty(1), True)
    seed_sgd_step(np.zeros((2, 2)), w_out_seed, 0, np.array([0]), 0.03125)
    assert np.signbit(w_out).all()
    assert not np.signbit(w_out_seed[0]).any()


def seed_train(pairs, config):
    """The per-pair training loop the chunked trainer replaced.

    Returns (vocabulary, frequencies, vectors, loss_by_epoch).
    """
    pair_list = list(pairs)
    counts = Counter()
    for center, context in pair_list:
        counts[center] += 1
        counts[context] += 1
    vocab = tuple(sorted(counts, key=lambda c: (-counts[c], c)))
    index = {c: i for i, c in enumerate(vocab)}
    rng = np.random.default_rng(config.seed)
    bound = 0.5 / config.dim
    w_in = rng.uniform(-bound, bound, size=(len(vocab), config.dim))
    w_out = rng.uniform(-bound, bound, size=(len(vocab), config.dim))
    noise = np.array([counts[c] for c in vocab], dtype=np.float64) ** embedding.NOISE_EXPONENT
    noise_cdf = np.cumsum(noise)
    noise_cdf /= noise_cdf[-1]
    pair_count = len(pair_list)
    centers = np.fromiter((index[c] for c, _ in pair_list), dtype=np.int64, count=pair_count)
    contexts = np.fromiter((index[o] for _, o in pair_list), dtype=np.int64, count=pair_count)
    k = config.negatives_per_positive
    lr_hi = config.initial_learning_rate
    lr_lo = config.final_learning_rate
    total_updates = config.epochs * pair_count
    step = 0
    losses = []
    for _ in range(config.epochs):
        acc = 0.0
        for i in range(pair_count):
            lr = max(lr_lo, lr_hi + (lr_lo - lr_hi) * (step / total_updates))
            step += 1
            context = contexts[i]
            draws = np.searchsorted(noise_cdf, rng.random(k))
            draws = draws[draws != context]
            targets = np.concatenate(([context], draws))
            acc += seed_sgd_step(w_in, w_out, centers[i], targets, lr)
        losses.append(acc / pair_count)
    vectors = {c: w_in[i].copy() for c, i in index.items()}
    return vocab, dict(counts), vectors, tuple(losses)


def random_pairs(n_codes, pair_count, seed):
    rng = np.random.default_rng(seed)
    codes = [code(f"{i + 1}0.00.Aa") for i in range(n_codes)]
    pairs = []
    for _ in range(pair_count):
        center, context = rng.choice(n_codes, size=2, replace=False)
        pairs.append((codes[int(center)], codes[int(context)]))
    return pairs


def assert_matches_seed_trainer(pairs, config):
    vocab, frequencies, vectors, losses = seed_train(pairs, config)
    matrix = train_embeddings(pairs, config)
    assert matrix.vocabulary == vocab
    assert list(matrix.frequencies.items()) == list(frequencies.items())
    for key in vocab:
        assert np.array_equal(matrix.vectors[key], vectors[key])
    assert matrix.loss_by_epoch == losses


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n_codes=st.integers(2, 4),
    pair_count=st.integers(1, 40),
    chunk=st.sampled_from([1, 2, 3, 7, 16]),
    k=st.integers(1, 6),
    epochs=st.integers(1, 3),
    dim=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunked_trainer_matches_the_per_pair_loop_exactly(
    n_codes, pair_count, chunk, k, epochs, dim, seed
):
    """Two to four codes make dropped and repeated draws common."""
    config = TrainingConfig(dim=dim, negatives_per_positive=k, epochs=epochs, seed=seed)
    with mock.patch.object(embedding, "_CHUNK_PAIRS", chunk):
        assert_matches_seed_trainer(random_pairs(n_codes, pair_count, seed), config)


def test_chunked_trainer_matches_the_per_pair_loop_across_real_chunks():
    pair_count = 2 * embedding._CHUNK_PAIRS + 5
    config = TrainingConfig(dim=3, negatives_per_positive=6, epochs=2, seed=11)
    assert_matches_seed_trainer(random_pairs(3, pair_count, 4), config)


def test_training_holds_under_fourteen_bytes_per_pair_slot():
    """Each slot is read as a 4-byte first-seen id, counted, and remapped to
    a 4-byte vocabulary id; counting casts the ids to 8 bytes for a moment.
    A list of the slots plus an int64 copy of it took about 17 bytes a slot.
    The pairs are built first, and small chunks keep the per-chunk buffers
    out of the figure."""
    pairs = random_pairs(9, 10_000, 3)
    config = TrainingConfig(dim=2, negatives_per_positive=1, epochs=1)
    with mock.patch.object(embedding, "_CHUNK_PAIRS", 64):
        tracemalloc.start()
        try:
            train_embeddings(pairs, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= 14 * 2 * len(pairs)


# Digests of `train` on the default 5k corpus (`synth`, `ingest`, all options
# at their defaults), recorded with the per-pair trainer above.  The loss is
# that of the `epoch,mean_loss` CSV the train stage once wrote beside the
# embedding, rebuilt from the manifest's `stages.train.loss_by_epoch`.
DEFAULT_TRAIN_SHA256 = {
    "embedding.txt": "1f2a2395e153619c0a399c6f28bf9c4c97adf344533d3bf848200b61ff9de04e",
    "loss": "15a59802ca02d23d130ed96e9c92a488d2e424b0a01ec4e97df9ebc4cf398968",
}


def test_default_train_outputs_match_the_recorded_digests(tmp_path):
    runner = CliRunner()
    for args in (["synth"], ["ingest"], ["train"]):
        result = runner.invoke(main, args + ["--outdir", str(tmp_path)])
        assert result.exit_code == 0, result.stderr or result.output
    losses = json.loads((tmp_path / "manifest.json").read_text())["stages"]["train"]["loss_by_epoch"]
    loss_csv = "epoch,mean_loss\n" + "".join(f"{e},{loss!r}\n" for e, loss in enumerate(losses, 1))
    outputs = {"embedding.txt": (tmp_path / "embedding.txt").read_bytes(), "loss": loss_csv.encode()}
    for name, digest in DEFAULT_TRAIN_SHA256.items():
        assert hashlib.sha256(outputs[name]).hexdigest() == digest, name


# ---------------------------------------------------------------- cosine distance

def test_cosine_distance_quarter_turn():
    u = np.array([1.0, 0.0])
    v = np.array([1.0, 1.0])
    assert cosine_distance(u, v) == pytest.approx(ONE_MINUS_INV_SQRT2, rel=1e-15)


def test_cosine_distance_extremes():
    u = np.array([2.0, 0.0])
    assert cosine_distance(u, np.array([5.0, 0.0])) == pytest.approx(0.0, abs=1e-15)
    assert cosine_distance(u, np.array([-1.0, 0.0])) == pytest.approx(2.0, abs=1e-15)
    assert cosine_distance(u, np.array([0.0, 3.0])) == pytest.approx(1.0, abs=1e-15)


def test_cosine_distance_zero_norm_is_error():
    with pytest.raises(ValueError, match="zero-norm"):
        cosine_distance(np.zeros(3), np.ones(3))


vectors = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=8
)


@settings(max_examples=80)
@given(vectors, vectors)
def test_cosine_distance_symmetric_and_bounded(xs, ys):
    size = min(len(xs), len(ys))
    u, v = np.array(xs[:size]), np.array(ys[:size])
    if np.linalg.norm(u) == 0 or np.linalg.norm(v) == 0:
        return
    d = cosine_distance(u, v)
    assert d == cosine_distance(v, u)
    assert 0.0 <= d <= 2.0


@settings(max_examples=50)
@given(vectors, st.floats(min_value=0.01, max_value=100))
def test_cosine_distance_scale_invariant(xs, c):
    u = np.array(xs)
    if np.linalg.norm(u) == 0 or np.linalg.norm(c * u) == 0:
        return
    assert cosine_distance(u, c * u) == pytest.approx(0.0, abs=1e-9)
    assert cosine_distance(u, -c * u) == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("scale", [4.199661015073918e-161, 1e-300, 1e150])
def test_cosine_distance_extreme_magnitudes(scale):
    """Squares of these entries under- or overflow; the cosine must not care."""
    u = np.array([scale, scale])
    assert cosine_distance(u, 1.5 * u) == pytest.approx(0.0, abs=1e-12)
    assert cosine_distance(u, -1.5 * u) == pytest.approx(2.0, abs=1e-12)
    assert cosine_distance(u, np.array([scale, 0.0])) == pytest.approx(
        ONE_MINUS_INV_SQRT2, rel=1e-12
    )


# ---------------------------------------------------------------- persistence

def test_save_load_round_trip_is_exact(tmp_path):
    corpus = two_block_corpus(40)
    matrix = train_embeddings(build_training_pairs(corpus), TrainingConfig(dim=8, epochs=1, seed=1))
    path = tmp_path / "embedding.txt"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        save_embeddings(matrix, fh)
    loaded = load_embeddings(str(path))
    assert loaded.dim == matrix.dim
    assert loaded.vocabulary == matrix.vocabulary
    for key in matrix.vocabulary:
        assert np.array_equal(loaded.vectors[key], matrix.vectors[key])
    # byte-identical on re-save
    second = tmp_path / "again.txt"
    with open(second, "w", encoding="utf-8", newline="\n") as fh:
        save_embeddings(loaded, fh)
    assert path.read_bytes() == second.read_bytes()


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "embedding.txt"
    path.write_text("dim=2 vocab=2\n\n01.01.Aa 1.0 0.5\n  \n02.02.Bb -0.5 1.0\n\n", encoding="utf-8")
    loaded = load_embeddings(str(path))
    assert loaded.vocabulary == (code("01.01.Aa"), code("02.02.Bb"))
    assert loaded.vectors[code("02.02.Bb")].tolist() == [-0.5, 1.0]


def test_a_code_is_its_canonical_text_from_parse_to_saved_embedding(tmp_path):
    """Codes parse to one shared canonical str each, records round-trip, and
    trained and loaded matrices answer a lookup by a fresh copy of the text."""
    corpus = toy_corpus(
        [["0367Ah", "05.45.Xt"], [" 03.67.Ah ", "0545Xt", "11.11.Aa"], ["03.67.Ah", "11.11.Aa"]]
    )
    texts = ["03.67.Ah", "05.45.Xt", "11.11.Aa"]
    assert corpus.distinct_codes() == texts
    first_seen = {}
    for paper in corpus:
        for code in paper.pacs_codes:
            assert type(code) is str
            assert first_seen.setdefault(code, code) is code
    again, _ = parse_corpus(json.dumps(paper.to_record()) for paper in corpus)
    assert again.papers == corpus.papers

    matrix = train_embeddings(build_training_pairs(corpus), TrainingConfig(dim=4, epochs=1))
    path = tmp_path / "embedding.txt"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        save_embeddings(matrix, fh)
    loaded = load_embeddings(str(path))
    for text in texts:
        fresh = "".join(list(text))  # equal text, another object
        for emb in (matrix, loaded):
            assert fresh in emb
            assert np.array_equal(emb[fresh], matrix.vectors[first_seen[text]])


def test_export_header_format(tmp_path):
    corpus = two_block_corpus(10)
    matrix = train_embeddings(build_training_pairs(corpus), TrainingConfig(dim=6, epochs=1, seed=1))
    path = tmp_path / "emb.txt"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        save_embeddings(matrix, fh)
    lines = path.read_text().splitlines()
    assert lines[0] == f"dim=6 vocab={len(matrix.vocabulary)}"
    assert len(lines) == 1 + len(matrix.vocabulary)
    first = lines[1].split()
    assert len(first) == 1 + 6


def test_missing_code_lookup_names_the_code():
    matrix = EmbeddingMatrix(
        dim=2,
        vocabulary=(code("11.11.Aa"),),
        vectors={code("11.11.Aa"): np.ones(2)},
    )
    with pytest.raises(MissingCodeError, match="99.99.Zz"):
        matrix[code("99.99.Zz")]
