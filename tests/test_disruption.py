"""Disruption counts against a brute-force oracle, plus the percentile contract."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata  # imported here: its first import outlasts a hypothesis deadline

from knowspan.corpus import build_citation_graph, parse_corpus
from knowspan.disruption import (
    VARIANTS,
    DisruptionCounts,
    DisruptionScore,
    d_score,
    disruption_counts,
    percentile_ranks,
    score_corpus,
)


def brute_force_counts(corpus, focal_id, variant="disjoint"):
    """Oracle: classify every paper by scanning raw reference lists directly."""
    focal = corpus.papers[focal_id]

    def cites(citer, cited_id):
        cited = corpus.papers.get(cited_id)
        return (
            cited is not None
            and cited_id in citer.references
            and citer.year >= cited.year
        )

    n_focal_only = n_both = n_ref_only = n_focal_any = 0
    for pid, paper in corpus.papers.items():
        if pid == focal_id or paper.year < focal.year:
            continue
        hits_focal = cites(paper, focal_id)
        hits_ref = any(cites(paper, ref) for ref in focal.references)
        if hits_focal:
            n_focal_any += 1
        if hits_focal and hits_ref:
            n_both += 1
        elif hits_focal:
            n_focal_only += 1
        elif hits_ref:
            n_ref_only += 1
    n_i = n_focal_any if variant == "overlapping" else n_focal_only
    return DisruptionCounts(n_i=n_i, n_j=n_both, n_k=n_ref_only)


def make_corpus(records):
    lines = [
        json.dumps(
            {
                "id": pid,
                "year": year,
                "journal": "J",
                "pacs_codes": ["03.67.Ah"],
                "author_count": 1,
                "n_pages": 4,
                "title_length": 5,
                "references": refs,
            }
        )
        for pid, year, refs in records
    ]
    corpus, _ = parse_corpus(lines)
    return corpus


def random_corpus(seed, max_nodes=30, edge_prob=0.2):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_nodes + 1))
    years = rng.integers(1990, 2011, size=n)
    records = []
    for i in range(n):
        refs = [
            f"N{j}"
            for j in range(n)
            if j != i and years[i] >= years[j] and rng.random() < edge_prob
        ]
        records.append((f"N{i}", int(years[i]), refs))
    return make_corpus(records)


# ---------------------------------------------------------------- counts

def example_corpus():
    # three cite focal only, one cites focal and the reference, one cites
    # the reference only
    records = [
        ("R", 1995, []),
        ("F", 2000, ["R"]),
        ("C0", 2005, ["F"]),
        ("C1", 2005, ["F"]),
        ("C2", 2005, ["F"]),
        ("C3", 2005, ["F", "R"]),
        ("C4", 2005, ["R"]),
    ]
    return make_corpus(records)


def test_example_partition_scores_point_four():
    corpus = example_corpus()
    graph = build_citation_graph(corpus)
    counts = disruption_counts(corpus.papers["F"], graph)
    assert (counts.n_i, counts.n_j, counts.n_k) == (3, 1, 1)
    assert d_score(counts) == pytest.approx(0.4)


def test_overlapping_variant_counts_all_citers():
    corpus = example_corpus()
    graph = build_citation_graph(corpus)
    counts = disruption_counts(corpus.papers["F"], graph, variant="overlapping")
    assert (counts.n_i, counts.n_j, counts.n_k) == (4, 1, 1)
    assert d_score(counts) == pytest.approx(0.5)


def test_unknown_variant_rejected():
    corpus = example_corpus()
    graph = build_citation_graph(corpus)
    with pytest.raises(ValueError, match="variant"):
        disruption_counts(corpus.papers["F"], graph, variant="bogus")


def test_pure_consolidator_scores_minus_one():
    records = [("R", 1990, []), ("F", 2000, ["R"]), ("C", 2005, ["F", "R"])]
    corpus = make_corpus(records)
    graph = build_citation_graph(corpus)
    counts = disruption_counts(corpus.papers["F"], graph)
    assert d_score(counts) == -1.0


def test_pure_disruptor_scores_plus_one():
    records = [("R", 1990, []), ("F", 2000, ["R"]), ("C", 2005, ["F"])]
    corpus = make_corpus(records)
    graph = build_citation_graph(corpus)
    assert d_score(disruption_counts(corpus.papers["F"], graph)) == 1.0


def test_isolated_paper_is_undefined_not_zero():
    records = [("F", 2000, []), ("O", 2001, [])]
    corpus = make_corpus(records)
    graph = build_citation_graph(corpus)
    counts = disruption_counts(corpus.papers["F"], graph)
    assert counts.total == 0
    with pytest.raises(ValueError, match="undefined"):
        d_score(counts)


def test_earlier_citers_of_references_do_not_qualify():
    # E cites R before F exists, so E is outside F's qualifying window
    records = [
        ("R", 1990, []),
        ("E", 1995, ["R"]),
        ("F", 2000, ["R"]),
        ("C", 2005, ["R"]),
    ]
    corpus = make_corpus(records)
    graph = build_citation_graph(corpus)
    counts = disruption_counts(corpus.papers["F"], graph)
    assert (counts.n_i, counts.n_j, counts.n_k) == (0, 0, 1)


def test_focal_never_counts_among_reference_citers():
    records = [("R", 1990, []), ("F", 2000, ["R"]), ("C", 2001, ["F"])]
    corpus = make_corpus(records)
    graph = build_citation_graph(corpus)
    counts = disruption_counts(corpus.papers["F"], graph)
    # F itself cites R but must not appear in n_k
    assert counts.n_k == 0


def test_removing_irrelevant_paper_leaves_d_unchanged():
    corpus = example_corpus()
    graph = build_citation_graph(corpus)
    before = d_score(disruption_counts(corpus.papers["F"], graph))
    records = [
        ("R", 1995, []),
        ("F", 2000, ["R"]),
        ("C0", 2005, ["F"]),
        ("C1", 2005, ["F"]),
        ("C2", 2005, ["F"]),
        ("C3", 2005, ["F", "R"]),
        ("C4", 2005, ["R"]),
        ("X", 2006, []),  # irrelevant bystander
    ]
    bigger = make_corpus(records)
    after = d_score(disruption_counts(bigger.papers["F"], build_citation_graph(bigger)))
    assert before == after


@given(st.integers(1, 20))
def test_d_score_is_count_scale_invariant(scale):
    small = DisruptionCounts(3, 1, 1)
    scaled = DisruptionCounts(3 * scale, 1 * scale, 1 * scale)
    assert d_score(small) == pytest.approx(d_score(scaled), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["disjoint", "overlapping"]))
def test_counts_match_brute_force_oracle(seed, variant):
    corpus = random_corpus(seed)
    graph = build_citation_graph(corpus)
    for pid, paper in corpus.papers.items():
        assert disruption_counts(paper, graph, variant) == brute_force_counts(
            corpus, pid, variant
        )


def scan_counts(focal, graph, variant="disjoint"):
    """Oracle: the per-candidate year scan that disruption_counts replaced,
    copied as it was except that ``cited_by`` now holds tuples."""
    citers = frozenset(graph.cited_by.get(focal.id, ()))
    ref_citers: set[str] = set()
    for ref in graph.cites.get(focal.id, frozenset()):
        for candidate in graph.cited_by.get(ref, ()):
            if candidate != focal.id and graph.years[candidate] >= focal.year:
                ref_citers.add(candidate)
    n_j = len(citers & ref_citers)
    n_k = len(ref_citers - citers)
    n_i = len(citers) if variant == "overlapping" else len(citers) - n_j
    return DisruptionCounts(n_i=n_i, n_j=n_j, n_k=n_k)


@st.composite
def tangled_corpora(draw):
    """Few distinct years, so same-year and mutual citations are common;
    references may point forward in time or out of the corpus."""
    n = draw(st.integers(1, 14))
    years = draw(st.lists(st.integers(2000, 2003), min_size=n, max_size=n))
    refs = draw(
        st.lists(st.sets(st.integers(0, n), max_size=n), min_size=n, max_size=n)
    )
    records = [
        (f"N{i}", years[i], [f"N{j}" if j < n else "ghost" for j in sorted(refs[i]) if j != i])
        for i in range(n)
    ]
    return make_corpus(records)


@settings(max_examples=200, deadline=None)
@given(tangled_corpora(), st.sampled_from(VARIANTS))
def test_counts_equal_the_candidate_scan_exactly(corpus, variant):
    graph = build_citation_graph(corpus)
    for paper in corpus:
        assert disruption_counts(paper, graph, variant) == scan_counts(paper, graph, variant)


@pytest.mark.parametrize("variant", VARIANTS)
def test_counts_equal_the_candidate_scan_on_edge_cases(variant):
    records = [
        ("R", 2000, []),
        ("OLD", 2001, ["R"]),  # cites R before F was published
        ("F", 2003, ["R", "M"]),
        ("M", 2003, ["F", "R"]),  # cites F and is cited by F: same year
        ("S", 2003, ["R"]),  # same-year citer of the reference
        ("C", 2004, ["F"]),
        ("LONE", 2004, []),  # no references and no citers
    ]
    corpus = make_corpus(records)
    graph = build_citation_graph(corpus)
    assert graph.cited_by["R"] == ("OLD", "F", "M", "S")
    for paper in corpus:
        assert disruption_counts(paper, graph, variant) == scan_counts(paper, graph, variant)
    counts = disruption_counts(corpus.papers["F"], graph, variant)
    n_i = 2 if variant == "overlapping" else 1
    assert (counts.n_i, counts.n_j, counts.n_k) == (n_i, 1, 1)
    assert disruption_counts(corpus.papers["LONE"], graph, variant).total == 0


def test_disruption_records_have_no_instance_dict():
    counts = DisruptionCounts(n_i=1, n_j=0, n_k=2)
    score = DisruptionScore(d=d_score(counts), percentile=50.0)
    assert not hasattr(counts, "__dict__")
    assert not hasattr(score, "__dict__")


# ---------------------------------------------------------------- percentiles

def test_percentile_three_distinct_values():
    assert percentile_ranks([-1.0, 0.0, 1.0]) == pytest.approx(
        [50 / 3, 50.0, 250 / 3], rel=1e-12
    )


def test_percentile_single_element_is_fifty():
    assert percentile_ranks([0.25]) == [50.0]


def test_percentile_ties_share_midrank():
    pcts = percentile_ranks([0.5, 0.5])
    assert pcts == [50.0, 50.0]
    pcts = percentile_ranks([1.0, 1.0, 0.0])
    assert pcts[0] == pcts[1]
    assert pcts[2] < pcts[0]


def test_percentile_empty_is_error():
    with pytest.raises(ValueError):
        percentile_ranks([])


def test_tie_free_mean_is_fifty():
    rng = np.random.default_rng(8)
    values = list(rng.permutation(997).astype(float))
    pcts = percentile_ranks(values)
    assert math.fsum(pcts) / len(pcts) == pytest.approx(50.0, abs=1e-10)


@settings(max_examples=60)
@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=50))
def test_percentile_monotone_and_tie_consistent(values):
    pcts = percentile_ranks(values)
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            if a < b:
                assert pcts[i] < pcts[j]
            elif a == b:
                assert pcts[i] == pcts[j]
    assert all(0.0 < p < 100.0 for p in pcts)


def scipy_percentiles(values):
    """The scipy.stats midrank percentiles percentile_ranks replaced."""
    n = len(values)
    return [float(100.0 * (rank - 0.5) / n) for rank in rankdata(values, method="average")]


@settings(max_examples=100)
@given(
    st.lists(
        st.one_of(st.integers(-3, 3).map(float), st.floats(-1, 1, allow_nan=False)),
        min_size=1,
        max_size=60,
    )
)
def test_percentiles_equal_scipy_midranks_exactly(values):
    assert percentile_ranks(values) == scipy_percentiles(values)


def test_percentiles_equal_scipy_on_large_tied_samples():
    rng = np.random.default_rng(12)
    for _ in range(20):
        # d-scores are ratios of small counts, so real pools are full of ties
        values = (rng.integers(-40, 41, size=5000) / rng.integers(1, 41, size=5000)).tolist()
        assert percentile_ranks(values) == scipy_percentiles(values)


# ---------------------------------------------------------------- corpus scoring

def test_score_corpus_pools_defined_scores_only():
    records = [
        ("R", 1995, []),
        ("F", 2000, ["R"]),
        ("C0", 2005, ["F"]),
        ("C1", 2005, ["F", "R"]),
        ("LONER", 2006, []),
    ]
    corpus = make_corpus(records)
    graph = build_citation_graph(corpus)
    scored = score_corpus(corpus, graph)
    loner_counts, loner_score = scored["LONER"]
    assert loner_counts.total == 0
    assert loner_score.d is None and loner_score.percentile is None
    defined = [s for _, s in scored.values() if s.d is not None]
    pool = [s.percentile for s in defined]
    assert len(defined) >= 2
    assert all(p is not None for p in pool)


def score_corpus_through_maps(corpus, graph, variant):
    """Oracle: score_corpus as it was, through per-paper maps of d scores
    and percentiles."""
    counts = {
        pid: disruption_counts(paper, graph, variant)
        for pid, paper in corpus.papers.items()
    }
    d_by_id = {pid: d_score(c) for pid, c in counts.items() if c.total > 0}
    percentiles = percentile_ranks(list(d_by_id.values())) if d_by_id else []
    pct_by_id = dict(zip(d_by_id, percentiles))
    return {
        pid: (c, DisruptionScore(d=d_by_id.get(pid), percentile=pct_by_id.get(pid)))
        for pid, c in counts.items()
    }


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(tangled_corpora(), st.integers(0, 10**6).map(lambda seed: random_corpus(seed, 60))),
    st.sampled_from(VARIANTS),
)
def test_score_corpus_equals_the_per_paper_maps_exactly(corpus, variant):
    graph = build_citation_graph(corpus)
    got = score_corpus(corpus, graph, variant)
    assert list(got.items()) == list(score_corpus_through_maps(corpus, graph, variant).items())
