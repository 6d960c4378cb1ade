"""Paper/journal vectors and embedding-space distances against precision oracles."""

import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowspan.corpus import Corpus, Paper, parse_code, parse_corpus
from knowspan.embedding import EmbeddingMatrix, MissingCodeError, cosine_distance
from knowspan.geometry import article_distance, journal_cells, journal_reference, paper_vector
from knowspan.tree import build_tree, network_distance

mp.mp.dps = 40


def mp_cosine_distance(u, v):
    """Oracle: cosine distance at 40 significant digits."""
    u = [mp.mpf(x) for x in u]
    v = [mp.mpf(x) for x in v]
    dot = mp.fsum(a * b for a, b in zip(u, v))
    nu = mp.sqrt(mp.fsum(a * a for a in u))
    nv = mp.sqrt(mp.fsum(b * b for b in v))
    return float(1 - dot / (nu * nv))


def mean_oracle(rows):
    """Oracle: per-coordinate exactly-rounded mean via math.fsum."""
    m = len(rows)
    return np.array([math.fsum(row[i] for row in rows) / m for i in range(len(rows[0]))])


def build_embedding(code_texts, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    keys = tuple(parse_code(t)[0] for t in code_texts)
    vectors = {key: rng.normal(size=dim) for key in keys}
    return EmbeddingMatrix(dim=dim, vocabulary=keys, vectors=vectors)


def build_corpus(papers):
    lines = [
        json.dumps(
            {
                "id": pid,
                "year": year,
                "journal": journal,
                "pacs_codes": code_texts,
                "author_count": 1,
                "n_pages": 4,
                "title_length": 5,
                "references": [],
            }
        )
        for pid, year, journal, code_texts in papers
    ]
    corpus, _ = parse_corpus(lines)
    return corpus


CODE_POOL = [f"{d}{d}.{d}0.A{chr(97 + d)}" for d in range(8)]


# ---------------------------------------------------------------- paper vector

def test_paper_vector_is_code_mean():
    emb = build_embedding(CODE_POOL)
    corpus = build_corpus([("P", 2000, "J", CODE_POOL[:4])])
    paper = corpus.papers["P"]
    got = paper_vector(paper, emb)
    expected = mean_oracle([emb[c] for c in paper.pacs_codes])
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_paper_vector_single_code_is_the_code_vector():
    emb = build_embedding(CODE_POOL)
    corpus = build_corpus([("P", 2000, "J", [CODE_POOL[0]])])
    got = paper_vector(corpus.papers["P"], emb)
    np.testing.assert_array_equal(got, emb[corpus.papers["P"].pacs_codes[0]])


def test_paper_vector_missing_code_names_it():
    emb = build_embedding(CODE_POOL[:2])
    corpus = build_corpus([("P", 2000, "J", [CODE_POOL[0], CODE_POOL[5]])])
    with pytest.raises(MissingCodeError, match="55.50.Af"):
        paper_vector(corpus.papers["P"], emb)


@pytest.mark.parametrize(
    "distance",
    [
        lambda paper: paper_vector(paper, build_embedding(CODE_POOL)),
        lambda paper: article_distance(paper, build_embedding(CODE_POOL)),
        lambda paper: network_distance(paper, build_tree([parse_code(CODE_POOL[0])[0]])),
    ],
    ids=["paper_vector", "article_distance", "network_distance"],
)
def test_a_paper_with_no_codes_is_error(distance):
    paper = Paper("P", 2000, "J", (), 1, 4, 5, "")
    with pytest.raises(ValueError, match="'P' has no codes"):
        distance(paper)


# ---------------------------------------------------------------- journal vector

def defined_vectors(corpus, emb):
    """Paper vectors as the CLI keeps them: None where a code is missing."""
    return {
        pid: paper_vector(paper, emb) if all(c in emb for c in paper.pacs_codes) else None
        for pid, paper in corpus.papers.items()
    }


def journal_distance(paper, corpus, emb, exclude_self=False):
    """journal_cells and journal_reference composed as the CLI composes them."""
    vectors = defined_vectors(corpus, emb)
    cell = journal_cells(corpus, vectors.values())[(paper.journal, paper.year)]
    reference = journal_reference(cell, vectors[paper.id], exclude_self)
    return None if reference is None else cosine_distance(vectors[paper.id], reference)


def test_journal_vector_is_member_mean():
    emb = build_embedding(CODE_POOL)
    corpus = build_corpus(
        [
            ("P1", 2000, "J", CODE_POOL[:3]),
            ("P2", 2000, "J", CODE_POOL[3:6]),
            ("P3", 2000, "K", CODE_POOL[6:8]),  # other journal, excluded
            ("P4", 2001, "J", CODE_POOL[:2]),  # other year, excluded
        ]
    )
    mean, n_members = journal_cells(corpus, defined_vectors(corpus, emb).values())[("J", 2000)]
    members = [paper_vector(corpus.papers[p], emb) for p in ("P1", "P2")]
    np.testing.assert_allclose(mean, mean_oracle(members), rtol=1e-12)
    assert n_members == 2


def test_journal_cells_group_members_by_journal_and_year():
    corpus = build_corpus(
        [
            ("P1", 2000, "J", CODE_POOL[:1]),
            ("P3", 2000, "K", CODE_POOL[:1]),
            ("P2", 2000, "J", CODE_POOL[:1]),
            ("P4", 2001, "J", CODE_POOL[:1]),
        ]
    )
    # in corpus order, (year, id): P1, P2, P3, and P4 undefined
    vectors = [np.array([1.0, 0.0]), np.array([0.0, 3.0]), np.array([2.0, 2.0]), None]
    cells = journal_cells(corpus, vectors)
    assert list(cells) == [("J", 2000), ("K", 2000), ("J", 2001)]
    mean, n_members = cells[("J", 2000)]
    assert mean.tolist() == [0.5, 1.5] and n_members == 2
    mean, n_members = cells[("K", 2000)]
    assert mean.tolist() == [2.0, 2.0] and n_members == 1
    assert cells[("J", 2001)] is None


def test_journal_vector_leaves_out_undefined_members():
    emb = build_embedding(CODE_POOL[:6])
    corpus = build_corpus(
        [
            ("P1", 2000, "J", CODE_POOL[:3]),
            ("P2", 2000, "J", [CODE_POOL[7]]),  # out of the vocabulary
            ("P3", 2000, "J", CODE_POOL[3:6]),
            ("P4", 2001, "J", [CODE_POOL[6]]),  # the cell's only member
        ]
    )
    cells = journal_cells(corpus, defined_vectors(corpus, emb).values())
    mean, n_members = cells[("J", 2000)]
    members = [paper_vector(corpus.papers[p], emb) for p in ("P1", "P3")]
    np.testing.assert_array_equal(mean, np.mean(members, axis=0))
    assert n_members == 2
    assert cells[("J", 2001)] is None


# ---------------------------------------------------------------- journal distance

def test_journal_distance_sole_member_is_zero():
    emb = build_embedding(CODE_POOL)
    corpus = build_corpus([("P1", 2000, "J", CODE_POOL[:3])])
    assert journal_distance(corpus.papers["P1"], corpus, emb) == pytest.approx(
        0.0, abs=1e-12
    )


def test_journal_distance_excluding_self_drops_own_contribution():
    emb = build_embedding(CODE_POOL)
    corpus = build_corpus(
        [
            ("P1", 2000, "J", CODE_POOL[:3]),
            ("P2", 2000, "J", CODE_POOL[3:6]),
        ]
    )
    paper = corpus.papers["P1"]
    other = paper_vector(corpus.papers["P2"], emb)
    own = paper_vector(paper, emb)
    expected = mp_cosine_distance(own, other)
    got = journal_distance(paper, corpus, emb, exclude_self=True)
    assert got == pytest.approx(expected, rel=1e-10)
    # and including self pulls the cell mean toward the paper
    assert got > journal_distance(paper, corpus, emb)


def test_journal_distance_exclude_self_single_member_is_none():
    emb = build_embedding(CODE_POOL)
    corpus = build_corpus(
        [
            ("P1", 2000, "J", CODE_POOL[:2]),
            ("P2", 2000, "J", ["99.99.Zz"]),  # a member, but not a defined one
        ]
    )
    vectors = defined_vectors(corpus, emb)
    cell = journal_cells(corpus, vectors.values())[("J", 2000)]
    assert cell[1] == 1
    assert journal_reference(cell, vectors["P1"], exclude_self=True) is None
    assert journal_reference(cell, vectors["P1"], exclude_self=False) is cell[0]


# ---------------------------------------------------------------- journal oracle

def oracle_paper_vector(paper, emb):
    """Oracle: paper_vector as it was when it returned a PaperVector."""
    if not paper.pacs_codes:
        raise ValueError(f"paper {paper.id!r} has no codes")
    stacked = np.stack([emb[code] for code in paper.pacs_codes])
    return stacked.mean(axis=0)


def oracle_journal_vector(journal, year, corpus, emb):
    """Oracle: the per-paper journal_vector that recomputed its whole cell."""
    member_ids = [p.id for p in corpus if (p.journal, p.year) == (journal, year)]
    if not member_ids:
        raise ValueError(f"no papers for journal {journal!r} in year {year}")
    stacked = np.stack(
        [oracle_paper_vector(corpus.papers[pid], emb) for pid in member_ids]
    )
    return stacked.mean(axis=0), len(member_ids)


def oracle_journal_distance(paper, corpus, emb, exclude_self=False):
    """Oracle: journal_distance as it was, one paper and one cell at a time."""
    focal = oracle_paper_vector(paper, emb)
    reference, n_members = oracle_journal_vector(paper.journal, paper.year, corpus, emb)
    if exclude_self:
        if n_members < 2:
            raise ValueError(
                f"cannot exclude {paper.id!r} from a single-member cell "
                f"({paper.journal!r}, {paper.year})"
            )
        reference = (reference * n_members - focal) / (n_members - 1)
    return cosine_distance(focal, reference)


@st.composite
def corpora_and_embeddings(draw):
    """One to twelve papers in up to two journals and three years, every
    code in the vocabulary, so cells of one, two and more members occur."""
    dim = draw(st.integers(2, 8))
    emb = build_embedding(CODE_POOL, dim=dim, seed=draw(st.integers(0, 2**32 - 1)))
    papers = draw(
        st.lists(
            st.tuples(
                st.sampled_from([2000, 2001, 2002]),
                st.sampled_from(["J", "K"]),
                st.lists(st.sampled_from(CODE_POOL), min_size=1, max_size=5, unique=True),
            ),
            min_size=1,
            max_size=12,
        )
    )
    corpus = build_corpus(
        [(f"P{i}", year, journal, codes) for i, (year, journal, codes) in enumerate(papers)]
    )
    return corpus, emb


@settings(max_examples=200, deadline=None)
@given(corpora_and_embeddings())
def test_journal_reference_matches_the_per_paper_oracle_exactly(case):
    corpus, emb = case
    vectors = defined_vectors(corpus, emb)
    cells = journal_cells(corpus, vectors.values())
    for pid, paper in corpus.papers.items():
        vector = vectors[pid]
        assert np.array_equal(vector, oracle_paper_vector(paper, emb))
        cell = cells[(paper.journal, paper.year)]
        for exclude_self in (False, True):
            reference = journal_reference(cell, vector, exclude_self)
            try:
                expected = oracle_journal_distance(paper, corpus, emb, exclude_self)
            except ValueError as exc:
                assert "single-member" in str(exc)
                assert reference is None
            else:
                assert cosine_distance(vector, reference) == expected


def stacked_journal_cells(corpus, vectors):
    """Oracle: journal_cells as it was, over a map of every paper's vector,
    with np.mean over each cell's stacked defined members."""
    defined = {}
    for pid, paper in corpus.papers.items():
        stacked = defined.setdefault((paper.journal, paper.year), [])
        if (vector := vectors[pid]) is not None:
            stacked.append(vector)
    return {key: (np.mean(v, axis=0), len(v)) if v else None for key, v in defined.items()}


def scaled_rows(seed, n, dim):
    """``n`` random rows, each scaled by its own power of ten in 1e-8 .. 1e8."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 20), st.integers(2, 64), st.integers(0, 2**32 - 1))
def test_paper_vector_equals_the_stacked_mean_exactly(n_codes, dim, seed):
    codes = tuple(f"{i:02d}.00.Aa" for i in range(n_codes))
    vectors = dict(zip(codes, scaled_rows(seed, n_codes, dim)))
    emb = EmbeddingMatrix(dim=dim, vocabulary=codes, vectors=vectors)
    paper = Paper("P", 2000, "J", codes, 1, 4, 5, "")
    assert np.array_equal(paper_vector(paper, emb), oracle_paper_vector(paper, emb))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 300), min_size=1, max_size=4),
    st.integers(2, 64),
    st.floats(0.0, 0.5),
    st.integers(0, 2**32 - 1),
)
def test_journal_cells_equal_the_stacked_means_exactly(year_sizes, dim, undefined_share, seed):
    """Cells of 1 to 300 members, two journals' cells interleaved in corpus
    order, some members undefined; the vectors are read as a stream."""
    rng = np.random.default_rng(seed)
    years = [2000 + k for k, size in enumerate(year_sizes) for _ in range(size)]
    journals = rng.choice(["J", "K"], size=len(years))
    papers = [
        Paper(f"P{i:04d}", year, str(journal), ("00.00.Aa",), 1, 4, 5, "")
        for i, (year, journal) in enumerate(zip(years, journals))
    ]
    corpus = Corpus({paper.id: paper for paper in papers}, 2010)
    undefined = rng.random(len(papers)) < undefined_share
    vectors = {
        paper.id: None if gap else row
        for paper, row, gap in zip(papers, scaled_rows(seed, len(papers), dim), undefined)
    }
    cells = journal_cells(corpus, (vectors[pid] for pid in corpus.papers))
    expected = stacked_journal_cells(corpus, vectors)
    assert list(cells) == list(expected)
    for key, cell in cells.items():
        assert (cell is None) == (expected[key] is None)
        if cell is not None:
            assert np.array_equal(cell[0], expected[key][0]) and cell[1] == expected[key][1]
    for pid, paper in corpus.papers.items():
        if vectors[pid] is None:
            continue
        key = (paper.journal, paper.year)
        for exclude_self in (False, True):
            got = journal_reference(cells[key], vectors[pid], exclude_self)
            want = journal_reference(expected[key], vectors[pid], exclude_self)
            assert (got is None and want is None) or np.array_equal(got, want)


# ---------------------------------------------------------------- article distance

def test_article_distance_single_code_is_zero():
    emb = build_embedding(CODE_POOL)
    corpus = build_corpus([("P", 2000, "J", [CODE_POOL[0]])])
    assert article_distance(corpus.papers["P"], emb) == 0.0


def test_article_distance_identical_vectors_is_zero():
    keys = tuple(parse_code(t)[0] for t in CODE_POOL[:2])
    same = np.array([0.3, -1.2, 0.8])
    emb = EmbeddingMatrix(
        dim=3, vocabulary=keys, vectors={k: same.copy() for k in keys}
    )
    corpus = build_corpus([("P", 2000, "J", CODE_POOL[:2])])
    assert article_distance(corpus.papers["P"], emb) == pytest.approx(0.0, abs=1e-12)


def test_article_distance_orthogonal_pair_is_one():
    keys = tuple(parse_code(t)[0] for t in CODE_POOL[:2])
    emb = EmbeddingMatrix(
        dim=2,
        vocabulary=keys,
        vectors={keys[0]: np.array([1.0, 0.0]), keys[1]: np.array([0.0, 1.0])},
    )
    corpus = build_corpus([("P", 2000, "J", CODE_POOL[:2])])
    assert article_distance(corpus.papers["P"], emb) == pytest.approx(1.0, abs=1e-15)


def test_article_distance_matches_high_precision_oracle():
    emb = build_embedding(CODE_POOL, dim=12, seed=3)
    corpus = build_corpus([("P", 2000, "J", CODE_POOL[:5])])
    paper = corpus.papers["P"]
    vectors = [emb[c] for c in paper.pacs_codes]
    m = len(vectors)
    pairwise = [
        mp_cosine_distance(vectors[i], vectors[j])
        for i in range(m)
        for j in range(i + 1, m)
    ]
    expected = math.fsum(pairwise) / len(pairwise)
    assert article_distance(paper, emb) == pytest.approx(expected, rel=1e-12)


def test_article_distance_is_permutation_invariant():
    emb = build_embedding(CODE_POOL, dim=10, seed=6)
    ordered = build_corpus([("P", 2000, "J", CODE_POOL[:4])])
    shuffled = build_corpus([("P", 2000, "J", list(reversed(CODE_POOL[:4])))])
    assert article_distance(ordered.papers["P"], emb) == pytest.approx(
        article_distance(shuffled.papers["P"], emb), rel=1e-12
    )


# ---------------------------------------------------------------- scale invariance

def test_distances_are_scale_invariant():
    emb = build_embedding(CODE_POOL, dim=8, seed=5)
    scaled = EmbeddingMatrix(
        dim=8,
        vocabulary=emb.vocabulary,
        vectors={k: 7.5 * v for k, v in emb.vectors.items()},
    )
    corpus = build_corpus(
        [
            ("P1", 2000, "J", CODE_POOL[:4]),
            ("P2", 2000, "J", CODE_POOL[2:7]),
        ]
    )
    paper = corpus.papers["P1"]
    assert article_distance(paper, emb) == pytest.approx(
        article_distance(paper, scaled), rel=1e-12
    )
    assert journal_distance(paper, corpus, emb) == pytest.approx(
        journal_distance(paper, corpus, scaled), rel=1e-9, abs=1e-12
    )


# ---------------------------------------------------------------- pair-loop oracle

def pair_loop_article_distance(paper, emb):
    """Oracle: the cosine_distance loop over code pairs that
    article_distance replaced, copied as it was."""
    codes = paper.pacs_codes
    m = len(codes)
    if m == 0:
        raise ValueError(f"paper {paper.id!r} has no codes")
    if m == 1:
        return 0.0
    vectors = [emb[code] for code in codes]
    total = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            total += cosine_distance(vectors[i], vectors[j])
    return total / (m * (m - 1) // 2)


def paper_with(codes):
    return Paper(
        id="P",
        year=2000,
        journal="J",
        pacs_codes=tuple(codes),
        author_count=1,
        n_pages=4,
        title_length=5,
        reference_text="",
    )


@st.composite
def papers_and_embeddings(draw):
    """One to four papers of one to eight codes, possibly repeated, whose
    vectors may copy, negate or rescale an earlier code's vector, so the
    clip to [0, 2] applies."""
    keys = [parse_code(t)[0] for t in CODE_POOL]
    dim = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = [rng.normal(size=dim)]
    for _ in keys[1:]:
        base = vectors[draw(st.integers(0, len(vectors) - 1))]
        kind = draw(st.sampled_from(["fresh", "repeat", "opposite", "scaled"]))
        if kind == "fresh":
            vectors.append(rng.normal(size=dim))
        elif kind == "repeat":
            vectors.append(base.copy())
        elif kind == "opposite":
            vectors.append(-base)
        else:
            vectors.append(base * draw(st.floats(1e-3, 1e3)))
    emb = EmbeddingMatrix(dim=dim, vocabulary=tuple(keys), vectors=dict(zip(keys, vectors)))
    codes = st.lists(st.sampled_from(keys), min_size=1, max_size=8)
    papers = [paper_with(c) for c in draw(st.lists(codes, min_size=1, max_size=4))]
    return papers, emb


def rounds_until_the_table(emb):
    """Rounds of scoring that reach a matrix's pair table: one term a round
    at least, and the table comes after as many terms as V*(V-1)/2."""
    v = len(emb.vectors)
    return v * (v - 1) // 2 + 2


@settings(max_examples=300, deadline=None)
@given(papers_and_embeddings())
def test_article_distance_equals_the_pair_loop_exactly(case):
    """One matrix scores the papers round after round, before its pair table
    exists and after, and every score equals the pair loop's."""
    papers, emb = case
    expected = [pair_loop_article_distance(paper, emb) for paper in papers]
    for _ in range(rounds_until_the_table(emb)):
        assert [article_distance(paper, emb) for paper in papers] == expected
    assert (emb._table is not None) == any(len(p.pacs_codes) > 1 for p in papers)


def test_matrices_over_the_same_codes_keep_their_own_terms():
    """Each matrix scores with its own vectors, however the calls interleave:
    the two codes coincide in one matrix and not in the other."""
    keys = [parse_code(t)[0] for t in CODE_POOL]
    rng = np.random.default_rng(5)
    apart = rng.normal(size=(len(keys), 4))
    together = apart.copy()
    together[1] = together[0]
    matrices = [
        EmbeddingMatrix(dim=4, vocabulary=tuple(keys), vectors=dict(zip(keys, vectors)))
        for vectors in (apart, together)
    ]
    papers = [paper_with(keys[:2]), paper_with(keys[::-1]), paper_with(keys[2:5])]
    expected = [[pair_loop_article_distance(p, emb) for p in papers] for emb in matrices]
    assert expected[1][0] == 0.0 < expected[0][0]
    for _ in range(rounds_until_the_table(matrices[0])):
        for emb, scores in zip(matrices, expected):
            assert [article_distance(p, emb) for p in papers] == scores
    assert all(emb._table is not None for emb in matrices)


def test_article_distance_equals_the_pair_loop_where_the_clip_applies():
    rng = np.random.default_rng(0)
    vectors = (rng.normal(size=5) for _ in range(10_000))

    def self_cosine(u):
        norm = float(np.linalg.norm(u))
        return float(u @ u) / (norm * norm)

    # a vector whose self-cosine rounds above one, so both clips are reached
    v = next(u for u in vectors if self_cosine(u) > 1.0)
    keys = [parse_code(t)[0] for t in CODE_POOL[:3]]
    emb = EmbeddingMatrix(
        dim=5, vocabulary=tuple(keys), vectors=dict(zip(keys, (v, v.copy(), -v)))
    )
    paper = paper_with(keys)
    assert article_distance(paper, emb) == pair_loop_article_distance(paper, emb)
    assert article_distance(paper, emb) == (0.0 + 2.0 + 2.0) / 3


def test_article_distance_zero_vector_is_error():
    keys = [parse_code(t)[0] for t in CODE_POOL[:3]]
    emb = EmbeddingMatrix(
        dim=2,
        vocabulary=tuple(keys),
        vectors=dict(zip(keys, (np.ones(2), np.ones(2), np.zeros(2)))),
    )
    nonzero = paper_with(keys[:2])
    # every paper with the zero code fails, before the pair table exists and after
    for _ in range(rounds_until_the_table(emb)):
        for codes in (keys, keys[::-1]):
            with pytest.raises(ValueError, match="zero-norm"):
                article_distance(paper_with(codes), emb)
        assert article_distance(nonzero, emb) == pair_loop_article_distance(nonzero, emb)
    assert emb._table is not None
