"""Corpus parsing, validation accounting, and citation-graph construction."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowspan.corpus import (
    CorpusError,
    InvalidCodeError,
    PacsCode,
    ParseConfig,
    build_citation_graph,
    citation_count,
    log_citation_count,
    parse_corpus,
    team_size,
)

LN_10 = 2.302585092994046  # ln(10) frozen from a 40-digit evaluation


def record(**overrides):
    base = {
        "id": "P1",
        "year": 2000,
        "journal": "J",
        "pacs_codes": ["03.67.Ah"],
        "author_count": 2,
        "n_pages": 5,
        "title_length": 8,
        "references": [],
    }
    base.update(overrides)
    return json.dumps(base)


def parse_lines(*lines, config=None):
    return parse_corpus(list(lines), config=config)


# ---------------------------------------------------------------- codes

def test_code_canonical_form():
    code = PacsCode.from_text("0367Ah")
    assert code.raw == "03.67.Ah"
    assert code.compact == "0367Ah"


def test_code_canonicalization_is_idempotent_and_case_preserving():
    once = PacsCode.from_text("03.67.Ah")
    twice = PacsCode.from_text(once.raw)
    assert once == twice
    assert "Ah" in once.raw


def test_code_levels_are_prefixes():
    code = PacsCode.from_text("03.67.Ah")
    assert code.levels == ("0", "03", "036", "0367", "0367Ah")


@pytest.mark.parametrize("bad", ["3.67", "03.67.Ahx", "", "03.6", "03 67 Ah"])
def test_invalid_codes_rejected(bad):
    with pytest.raises(InvalidCodeError):
        PacsCode.from_text(bad)


def test_short_code_padding_opt_in():
    code, padded = PacsCode.parse("03.67", pad_short=True)
    assert padded
    assert code.raw == "03.67.__"
    # three significant characters stay invalid even with padding
    with pytest.raises(InvalidCodeError):
        PacsCode.parse("3.67", pad_short=True)


@given(st.text(alphabet="0123456789ABCDEFabcdef", min_size=6, max_size=6))
def test_code_levels_prefix_monotone(compact):
    code = PacsCode.from_text(compact)
    labels = code.levels
    for shorter, longer in zip(labels, labels[1:]):
        assert longer.startswith(shorter)


# ---------------------------------------------------------------- parsing

def test_parse_happy_path_with_author_count():
    corpus, report = parse_lines(record(pacs_codes=["03.67.Ah"], author_count=3))
    paper = corpus.papers["P1"]
    assert len(paper.pacs_codes) == 1
    assert paper.author_count == 3
    assert report.n_parsed == 1 and report.n_skipped == 0


def test_parse_accepts_author_list_and_title_text():
    line = record()
    obj = json.loads(line)
    del obj["author_count"], obj["title_length"]
    obj["authors"] = ["A. One", "B. Two", "C. Three"]
    obj["title"] = "Entanglement in driven lattices"
    corpus, _ = parse_lines(json.dumps(obj))
    paper = corpus.papers["P1"]
    assert paper.author_count == 3
    assert paper.title_length == 4


def test_title_length_overrides_title_when_both_present():
    corpus, _ = parse_lines(record(title="three word title", title_length=11))
    assert corpus.papers["P1"].title_length == 11


def test_invalid_code_skips_whole_record():
    corpus, report = parse_lines(record(), record(id="P2", pacs_codes=["3.67"]))
    assert "P2" not in corpus
    assert report.skip_reasons["invalid_code"] == 1


def test_duplicate_codes_deduplicated_and_counted():
    corpus, report = parse_lines(record(pacs_codes=["03.67.Ah", "0367Ah", "05.45.Xt"]))
    paper = corpus.papers["P1"]
    assert [c.raw for c in paper.pacs_codes] == ["03.67.Ah", "05.45.Xt"]
    assert report.duplicate_codes_removed == 1


def test_self_reference_removed_and_counted():
    corpus, report = parse_lines(record(references=["P1", "P9"]))
    assert corpus.papers["P1"].references == ("P9",)
    assert report.self_references_removed == 1


def test_year_out_of_range_skipped():
    config = ParseConfig(min_year=1990, max_year=2010)
    corpus, report = parse_lines(
        record(), record(id="P2", year=1970), config=config
    )
    assert "P2" not in corpus
    assert report.skip_reasons["year_out_of_range"] == 1


@pytest.mark.parametrize(
    "overrides, reason",
    [
        ({"author_count": 0}, "invalid_author_count"),
        ({"n_pages": -1}, "invalid_n_pages"),
        ({"journal": ""}, "invalid_journal"),
        ({"pacs_codes": []}, "no_codes"),
        ({"year": "2000"}, "invalid_year"),
    ],
)
def test_skip_reasons(overrides, reason):
    corpus, report = parse_lines(record(), record(id="P2", **overrides))
    assert "P2" not in corpus
    assert report.skip_reasons[reason] == 1


def test_missing_field_skipped():
    obj = json.loads(record(id="P2"))
    del obj["references"]
    _, report = parse_lines(record(), json.dumps(obj))
    assert report.skip_reasons["missing_field"] == 1


def test_invalid_json_counted():
    _, report = parse_lines(record(), "{not json")
    assert report.skip_reasons["invalid_json"] == 1


def test_blank_lines_ignored():
    _, report = parse_lines(record(), "", "   ")
    assert report.n_records == 1


def test_duplicate_id_is_hard_error():
    with pytest.raises(CorpusError, match="duplicate"):
        parse_lines(record(), record())


def test_empty_corpus_is_hard_error():
    with pytest.raises(CorpusError, match="empty"):
        parse_lines(record(pacs_codes=["bad"]))


def test_dataset_end_year_defaults_to_max_observed():
    corpus, _ = parse_lines(record(), record(id="P2", year=2011))
    assert corpus.dataset_end_year == 2011
    assert corpus.paper_age(corpus.papers["P1"]) == 11
    assert corpus.paper_age(corpus.papers["P2"]) == 0


def test_dataset_end_year_override():
    config = ParseConfig(dataset_end_year=2015)
    corpus, _ = parse_lines(record(), config=config)
    assert corpus.paper_age(corpus.papers["P1"]) == 15


def test_journal_year_index_groups_members():
    corpus, _ = parse_lines(
        record(),
        record(id="P2", journal="J"),
        record(id="P3", journal="K"),
    )
    assert set(corpus.journal_year_index[("J", 2000)]) == {"P1", "P2"}
    assert corpus.journal_year_index[("K", 2000)] == ("P3",)


record_strategy = st.fixed_dictionaries(
    {
        "id": st.text(alphabet="PQRS0123456789", min_size=1, max_size=8),
        "year": st.integers(1900, 2030),
        "journal": st.text(alphabet="JKLM", min_size=1, max_size=4),
        "pacs_codes": st.lists(
            st.text(alphabet="0123456789ABab", min_size=6, max_size=6),
            min_size=1,
            max_size=5,
        ),
        "author_count": st.integers(1, 30),
        "n_pages": st.integers(0, 60),
        "title_length": st.integers(0, 40),
        "references": st.lists(
            st.text(alphabet="XY012", min_size=1, max_size=4), max_size=5
        ),
    }
)


@settings(max_examples=60)
@given(record_strategy)
def test_parse_serialize_parse_round_trips(raw):
    corpus, _ = parse_corpus([json.dumps(raw)])
    paper = next(iter(corpus.papers.values()))
    again, _ = parse_corpus([json.dumps(paper.to_record())])
    assert again.papers[paper.id] == paper


# ---------------------------------------------------------------- graph

def cite_chain():
    return parse_lines(
        record(id="A", year=1995, references=[]),
        record(id="B", year=2000, references=["A", "ghost"]),
        record(id="C", year=2005, references=["A", "B"]),
        record(id="D", year=1990, references=["C"]),  # cites into the future
    )


def test_graph_restricts_to_corpus_and_counts_drops():
    corpus, _ = cite_chain()
    graph = build_citation_graph(corpus)
    assert graph.n_dropped_out_of_corpus == 1
    assert graph.n_dropped_year_order == 1  # D (1990) cannot cite C (2005)
    assert graph.cites["B"] == {"A"}
    assert set(graph.cited_by["A"]) == {"B", "C"}
    assert graph.cited_by["A"] == ("B", "C")  # ordered by (year, id)
    assert graph.cites["D"] == frozenset()


def test_graph_edge_count_identity():
    corpus, _ = cite_chain()
    graph = build_citation_graph(corpus)
    assert sum(len(s) for s in graph.cites.values()) == graph.n_edges
    assert sum(len(s) for s in graph.cited_by.values()) == graph.n_edges


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_graph_transpose_identity(seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    years = rng.integers(1990, 2010, size=n)
    lines = []
    for i in range(n):
        refs = [f"N{j}" for j in range(n) if j != i and rng.random() < 0.15]
        lines.append(
            record(id=f"N{i}", year=int(years[i]), references=refs)
        )
    corpus, _ = parse_lines(*lines)
    graph = build_citation_graph(corpus)
    for citer, cited_set in graph.cites.items():
        for cited in cited_set:
            assert citer in graph.cited_by[cited]
    for cited, citer_set in graph.cited_by.items():
        for citer in citer_set:
            assert cited in graph.cites[citer]


# ---------------------------------------------------------------- measures

def test_team_size_reads_author_count():
    corpus, _ = parse_lines(record(author_count=7))
    assert team_size(corpus.papers["P1"]) == 7


def test_citation_counts_and_log_transform():
    lines = [record(id="F", year=1990)]
    lines += [
        record(id=f"C{i}", year=2000, references=["F"]) for i in range(9)
    ]
    corpus, _ = parse_lines(*lines)
    graph = build_citation_graph(corpus)
    focal = corpus.papers["F"]
    assert citation_count(focal, graph) == 9
    assert log_citation_count(focal, graph) == pytest.approx(LN_10, rel=1e-15)
    uncited = corpus.papers["C0"]
    assert log_citation_count(uncited, graph) == 0.0


def test_log_citations_matches_log1p():
    corpus, _ = parse_lines(record(id="F"), record(id="C", references=["F"]))
    graph = build_citation_graph(corpus)
    assert log_citation_count(corpus.papers["F"], graph) == pytest.approx(
        math.log(2.0), rel=1e-15
    )
