"""Corpus parsing, validation accounting, and citation-graph construction."""

import dataclasses
import gc
import hashlib
import json
import math
import random
import tracemalloc

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from knowspan.cli import main
from knowspan.corpus import (
    Corpus,
    CorpusError,
    InvalidCodeError,
    Paper,
    ParseConfig,
    ParseReport,
    build_citation_graph,
    citation_count,
    join_references,
    log_citation_count,
    parse_code,
    parse_corpus,
    team_size,
)
from knowspan.disruption import score_corpus
from knowspan.synthgen import SynthConfig, generate_records
from knowspan.tree import ancestry_labels, leaf_label

LN_10 = 2.302585092994046  # ln(10) frozen from a 40-digit evaluation


ABSENT = object()  # an override that leaves its field out of the record


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
    return json.dumps({key: value for key, value in base.items() if value is not ABSENT})


def parse_lines(*lines, config=None):
    return parse_corpus(list(lines), config=config)


# ---------------------------------------------------------------- codes

def test_code_canonical_form():
    code = parse_code("0367Ah")[0]
    assert code == "03.67.Ah"
    assert leaf_label(code) == "0367Ah"


def test_code_canonicalization_is_idempotent_and_case_preserving():
    once = parse_code("03.67.Ah")[0]
    twice = parse_code(once)[0]
    assert once == twice
    assert "Ah" in once


def test_code_levels_are_prefixes():
    code = parse_code("03.67.Ah")[0]
    assert ancestry_labels(code) == ("0", "03", "036", "0367", "0367Ah")


@pytest.mark.parametrize("bad", ["3.67", "03.67.Ahx", "", "03.6", "03 67 Ah"])
def test_invalid_codes_rejected(bad):
    with pytest.raises(InvalidCodeError):
        parse_code(bad)


def test_short_code_padding_opt_in():
    code, padded = parse_code("03.67", pad_short=True)
    assert padded
    assert code == "03.67.__"
    # three significant characters stay invalid even with padding
    with pytest.raises(InvalidCodeError):
        parse_code("3.67", pad_short=True)


@given(st.text(alphabet="0123456789ABCDEFabcdef", min_size=6, max_size=6))
def test_code_levels_prefix_monotone(compact):
    code = parse_code(compact)[0]
    labels = ancestry_labels(code)
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
    assert list(paper.pacs_codes) == ["03.67.Ah", "05.45.Xt"]
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
        ({"id": ""}, "invalid_id"),
        ({"pacs_codes": "03.67.Ah"}, "invalid_code"),
        ({"author_count": ABSENT, "authors": "A. Author"}, "invalid_authors"),
        ({"title_length": ABSENT, "title": 8}, "invalid_title"),
        ({"title_length": -1}, "invalid_title_length"),
        ({"references": "P1"}, "invalid_references"),
        ({"author_count": ABSENT}, "missing_field"),
        ({"title_length": ABSENT}, "missing_field"),
        # a NUL ends each reference in the held text, so one inside a value
        # could not be told apart
        ({"id": "P\x002"}, "invalid_id"),
        ({"id": "\x00"}, "invalid_id"),
        ({"references": ["P1", "X\x00Y"]}, "invalid_references"),
        ({"references": ["\x00"]}, "invalid_references"),
        ({"references": ["X\x00", "P1"]}, "invalid_references"),
    ],
)
def test_skip_reasons(overrides, reason):
    corpus, report = parse_lines(record(), record(**{"id": "P2", **overrides}))
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


def test_dataset_end_year_before_the_latest_paper_is_hard_error():
    lines = (record(), record(id="P2", year=2011))
    with pytest.raises(CorpusError, match="end year 2010 precedes the latest paper year 2011"):
        parse_lines(*lines, config=ParseConfig(dataset_end_year=2010))
    corpus, _ = parse_lines(*lines, config=ParseConfig(dataset_end_year=2011))
    assert corpus.paper_age(corpus.papers["P2"]) == 0


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


NOT_NUL = st.characters(exclude_characters="\x00")  # a NUL skips the record


@st.composite
def generated_papers(draw):
    paper_id = draw(st.text(NOT_NUL, min_size=1, max_size=8))
    code = st.text(alphabet="0123456789ABab_", min_size=6, max_size=6)
    codes = draw(st.lists(code, min_size=1, max_size=5, unique=True))
    reference = st.text(NOT_NUL, max_size=8).filter(lambda ref: ref != paper_id)
    references = st.lists(reference, max_size=6, unique=True)
    return Paper(
        id=paper_id,
        year=draw(st.integers(1800, 2100)),
        journal=draw(st.text(min_size=1, max_size=6)),
        pacs_codes=tuple(f"{c[:2]}.{c[2:4]}.{c[4:]}" for c in codes),
        author_count=draw(st.integers(1, 10**6)),
        n_pages=draw(st.integers(0, 10**6)),
        title_length=draw(st.integers(0, 10**6)),
        reference_text=join_references(draw(references)),
    )


@settings(max_examples=100)
@given(generated_papers())
def test_a_papers_record_names_every_field_and_parses_back_to_it(paper):
    """to_record writes each field by its name, so a parser that drops a
    field fails here.  The references are written as their array."""
    rec = paper.to_record()
    assert rec.keys() == {f.name for f in dataclasses.fields(Paper)} - {"reference_text"} | {"references"}
    corpus, report = parse_corpus([json.dumps(rec)])
    assert report.n_skipped == 0
    assert corpus.papers[paper.id] == paper


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
    assert set(graph.cites["B"]) == {"A"}
    assert graph.cites["C"] == ("A", "B")  # in reference order
    assert set(graph.cited_by["A"]) == {"B", "C"}
    assert graph.cited_by["A"] == ("B", "C")  # ordered by (year, id)
    assert graph.cites["D"] == ()


def test_graph_edge_count_identity():
    corpus, _ = cite_chain()
    graph = build_citation_graph(corpus)
    assert sum(len(s) for s in graph.cites.values()) == graph.n_edges
    assert sum(len(s) for s in graph.cited_by.values()) == graph.n_edges


def shared_id_corpus():
    # CPython shares every one-character string, so these ids are longer
    return parse_lines(
        record(id="first-paper", year=2000, references=["second-paper", "ghost-paper"]),
        record(id="second-paper", year=2000, references=["first-paper"]),
        record(id="third-paper", year=2005, references=["second-paper", "ghost-paper", "first-paper"]),
    )


def test_a_papers_references_are_held_as_one_text():
    corpus, _ = shared_id_corpus()
    third = corpus.papers["third-paper"]
    assert third.reference_text == "second-paper\x00ghost-paper\x00first-paper\x00"
    assert third.references == ("second-paper", "ghost-paper", "first-paper")
    assert corpus.papers["second-paper"].reference_text == "first-paper\x00"


@pytest.mark.parametrize("references", [[], [""], ["", "P9"], ["P9", ""], ["P9", "", ""]])
def test_an_empty_reference_is_kept_apart_from_none(references):
    corpus, _ = parse_lines(record(references=references))
    assert corpus.papers["P1"].references == tuple(dict.fromkeys(references))


def test_a_record_skipped_for_a_nul_reference_counts_no_self_reference():
    corpus, report = parse_lines(record(), record(id="P2", references=["P2", "P2", "\x00X"]))
    assert list(corpus.papers) == ["P1"]
    assert report.skip_reasons == {"invalid_references": 1}
    assert report.self_references_removed == 0


# every character but NUL; those that JSON and CSV writers escape or quote
# (commas, quotes, backslashes, control and non-ASCII characters) are drawn often
AWKWARD_TEXT = st.text(
    st.one_of(st.sampled_from(',"\'\\\n\r\t\x01\x1f\x7f\u2028é漢🙂 '), NOT_NUL), max_size=6
)


@st.composite
def awkward_corpora(draw):
    """Lines whose ids and references are awkward texts; each reference is
    one of the ids or another text, so the graph has edges to check."""
    ids = draw(st.lists(AWKWARD_TEXT.filter(bool), min_size=1, max_size=6, unique=True))
    references = {
        pid: draw(st.lists(st.one_of(st.sampled_from(ids), AWKWARD_TEXT), max_size=6))
        for pid in ids
    }
    lines = [
        record(id=pid, year=draw(st.integers(1990, 1993)), references=refs)
        for pid, refs in references.items()
    ]
    return lines, references


@settings(max_examples=150, deadline=None)
@given(awkward_corpora())
def test_awkward_ids_and_references_survive_a_round_trip(corpus_and_references):
    lines, references = corpus_and_references
    corpus, report = parse_corpus(lines)
    assert report.n_skipped == 0
    for pid, refs in references.items():
        assert corpus.papers[pid].references == tuple(dict.fromkeys(r for r in refs if r != pid))
    again, report = parse_corpus([json.dumps(paper.to_record()) for paper in corpus])
    assert report.n_skipped == report.self_references_removed == 0
    assert again.papers == corpus.papers
    assert [p.references for p in again] == [p.references for p in corpus]
    assert build_citation_graph(again) == build_citation_graph(corpus)


def held_bytes(lines):
    """Bytes tracemalloc finds held, after parse_corpus returns, by the corpus
    it parsed from ``lines``."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus, _ = parse_corpus(lines)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(corpus) == len(lines)
    return held


def test_a_parsed_corpus_holds_few_bytes_per_out_of_corpus_reference():
    """An 8-character reference to no paper in the corpus costs its text
    and one end mark, not a string object and a tuple slot (about 62 B)."""
    records = list(generate_records(SynthConfig(seed=3, n_papers=1000)))
    plain = [json.dumps(rec) for rec in records]
    added = 20
    for i, rec in enumerate(records):
        rec["references"] += [f"X{i * added + k:07d}" for k in range(added)]
    roughened = [json.dumps(rec) for rec in records]
    per_reference = (held_bytes(roughened) - held_bytes(plain)) / (len(records) * added)
    assert 8 < per_reference < 16


def test_forward_and_out_of_corpus_references_keep_their_text():
    corpus, _ = shared_id_corpus()
    assert corpus.papers["first-paper"].references == ("second-paper", "ghost-paper")
    assert corpus.papers["third-paper"].references == ("second-paper", "ghost-paper", "first-paper")


def test_graph_cites_are_the_cited_papers_ids_in_reference_order():
    corpus, _ = shared_id_corpus()
    papers = corpus.papers
    graph = build_citation_graph(corpus)
    assert graph.cites["third-paper"] == ("second-paper", "first-paper")
    # first-paper named second-paper before it was parsed; the graph still
    # holds second-paper's own id
    assert graph.cites["first-paper"] == ("second-paper",)
    for cited in graph.cites.values():
        assert type(cited) is tuple
        assert all(pid is papers[pid].id for pid in cited)
    assert list(graph.cites) == list(papers)


def test_paper_has_no_instance_dict():
    corpus, _ = parse_lines(record())
    assert not hasattr(corpus.papers["P1"], "__dict__")


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


def test_corpus_keeps_papers_in_year_then_id_order_whatever_order_it_is_given():
    lines = [json.dumps(rec) for rec in generate_records(SynthConfig(seed=5, n_papers=200))]
    ordered, _ = parse_corpus(lines)
    ids = list(ordered.papers)
    assert ids == sorted(ids, key=lambda pid: (ordered.papers[pid].year, pid))
    assert len({ordered.papers[pid].year for pid in ids}) < len(ids)  # ties broken by id
    shuffled_ids = ids[:]
    random.Random(3).shuffle(shuffled_ids)
    shuffled = Corpus({pid: ordered.papers[pid] for pid in shuffled_ids}, ordered.dataset_end_year)
    assert list(shuffled.papers) == ids
    graph = build_citation_graph(shuffled)
    assert graph == build_citation_graph(ordered)
    assert list(graph.cites) == list(graph.cited_by) == ids
    scores = score_corpus(shuffled, graph)
    assert list(scores.items()) == list(score_corpus(ordered, build_citation_graph(ordered)).items())


# ---------------------------------------------------------------- measures

def test_team_size_reads_author_count():
    corpus, _ = parse_lines(record(author_count=7))
    assert team_size(corpus.papers["P1"]) == 7


def test_team_size_of_a_paper_with_no_authors_is_error():
    paper = Paper("P1", 2000, "J", ("03.67.Ah",), 0, 10, 8, "")
    with pytest.raises(ValueError, match="author_count < 1"):
        team_size(paper)


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


# ---------------------------------------------------------------- parser oracle
# The parser as it stood before code texts were memoised per call and
# duplicates were found by dict lookups, kept verbatim as an exact oracle.


class _OracleSkip(Exception):
    def __init__(self, reason):
        self.reason = reason


def _oracle_require_int(obj, key):
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise _OracleSkip(f"invalid_{key}")
    return value


def oracle_record_to_paper(obj, config, report):
    if not isinstance(obj, dict):
        raise _OracleSkip("not_an_object")
    for key in ("id", "year", "journal", "pacs_codes", "n_pages", "references"):
        if key not in obj:
            raise _OracleSkip("missing_field")
    if "authors" not in obj and "author_count" not in obj:
        raise _OracleSkip("missing_field")
    if "title" not in obj and "title_length" not in obj:
        raise _OracleSkip("missing_field")

    paper_id = obj["id"]
    if not isinstance(paper_id, str) or not paper_id:
        raise _OracleSkip("invalid_id")

    year = _oracle_require_int(obj, "year")
    if not (config.min_year <= year <= config.max_year):
        raise _OracleSkip("year_out_of_range")

    journal = obj["journal"]
    if not isinstance(journal, str) or not journal:
        raise _OracleSkip("invalid_journal")

    raw_codes = obj["pacs_codes"]
    if not isinstance(raw_codes, list):
        raise _OracleSkip("invalid_code")
    codes = []
    padded_here = 0
    for raw in raw_codes:
        if not isinstance(raw, str):
            raise _OracleSkip("invalid_code")
        try:
            code, padded = parse_code(raw, pad_short=config.pad_short_codes)
        except InvalidCodeError:
            raise _OracleSkip("invalid_code") from None
        padded_here += padded
        if code not in codes:
            codes.append(code)
        else:
            report.duplicate_codes_removed += 1
    if not codes:
        raise _OracleSkip("no_codes")

    if "author_count" in obj:
        author_count = _oracle_require_int(obj, "author_count")
    else:
        authors = obj["authors"]
        if not isinstance(authors, list) or not all(isinstance(a, str) for a in authors):
            raise _OracleSkip("invalid_authors")
        author_count = len(authors)
    if author_count < 1:
        raise _OracleSkip("invalid_author_count")

    n_pages = _oracle_require_int(obj, "n_pages")
    if n_pages < 0:
        raise _OracleSkip("invalid_n_pages")

    if "title_length" in obj:
        title_length = _oracle_require_int(obj, "title_length")
    else:
        title = obj["title"]
        if not isinstance(title, str):
            raise _OracleSkip("invalid_title")
        title_length = len(title.split())
    if title_length < 0:
        raise _OracleSkip("invalid_title_length")

    raw_refs = obj["references"]
    if not isinstance(raw_refs, list) or not all(isinstance(r, str) for r in raw_refs):
        raise _OracleSkip("invalid_references")
    references = []
    for ref in raw_refs:
        if ref == paper_id:
            report.self_references_removed += 1
        elif ref not in references:
            references.append(ref)

    report.padded_codes += padded_here
    return Paper(
        id=paper_id,
        year=year,
        journal=journal,
        pacs_codes=tuple(codes),
        author_count=author_count,
        n_pages=n_pages,
        title_length=title_length,
        reference_text=join_references(references),
    )


def oracle_parse_corpus(lines, config=None):
    config = config or ParseConfig()
    report = ParseReport()
    papers = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        report.n_records += 1
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            report.n_skipped += 1
            report.skip_reasons["invalid_json"] += 1
            continue
        try:
            paper = oracle_record_to_paper(obj, config, report)
        except _OracleSkip as skip:
            report.n_skipped += 1
            report.skip_reasons[skip.reason] += 1
            continue
        if paper.id in papers:
            raise CorpusError(f"duplicate paper id {paper.id!r}")
        papers[paper.id] = paper
        report.n_parsed += 1

    if not papers:
        raise CorpusError("corpus is empty after validation")

    latest = max(p.year for p in papers.values())
    end_year = config.dataset_end_year
    if end_year is None:
        end_year = latest
    elif end_year < latest:
        raise CorpusError(
            f"dataset end year {end_year} precedes the latest paper year {latest}"
        )

    return Corpus(papers, end_year), report


def parse_outcome(parse, lines, config):
    """Everything a parse yields, in order, or the CorpusError it raised."""
    try:
        corpus, report = parse(lines, config)
    except CorpusError as exc:
        return ("error", str(exc))
    papers = [
        (pid, paper, [type(code) for code in paper.pacs_codes])
        for pid, paper in corpus.papers.items()
    ]
    cells = {}
    for pid, paper in corpus.papers.items():
        cells.setdefault((paper.journal, paper.year), []).append(pid)
    return (
        papers,
        list(cells.items()),
        corpus.dataset_end_year,
        vars(report),
    )


# valid in both spellings, short (padded or invalid), too short, spaced
CODE_TEXTS = (
    "03.67.Ah", "0367Ah", " 03.67.Ah ", "05.45.Xt", "05.45.xt", "0545Xt",
    "03.67", "0367", "03.67.A", "03.67.__", "3.67", "03 67 Ah", "03.67.Ahx", "",
)
NOT_A_CODE = st.one_of(st.integers(0, 9), st.none(), st.just(["03.67.Ah"]))
PAPER_IDS = ("P1", "P2", "P3", "P4")

oracle_record = st.fixed_dictionaries(
    {
        "id": st.sampled_from(PAPER_IDS),
        "year": st.one_of(st.integers(1985, 2015), st.just("2000")),
        "journal": st.sampled_from(("J", "K", "")),
        "pacs_codes": st.lists(
            st.one_of(st.sampled_from(CODE_TEXTS), NOT_A_CODE), max_size=6
        ),
        "author_count": st.integers(0, 4),
        "n_pages": st.integers(-1, 9),
        "title_length": st.integers(0, 9),
        "references": st.one_of(
            st.lists(st.sampled_from(PAPER_IDS + ("X1", "X2")), max_size=8),
            st.just(["P1", 3]),
        ),
    }
)
oracle_line = st.one_of(
    oracle_record.map(json.dumps),
    oracle_record.map(json.dumps),
    oracle_record.map(json.dumps),
    st.sampled_from(("{not json", "[1, 2]", "", "   ")),
)
oracle_config = st.builds(
    lambda low, span, end, pad: ParseConfig(
        min_year=low, max_year=low + span, dataset_end_year=end, pad_short_codes=pad
    ),
    st.integers(1980, 2005),
    st.integers(0, 30),
    st.one_of(st.none(), st.integers(2000, 2030)),
    st.booleans(),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(oracle_line, max_size=12), oracle_config)
def test_parse_matches_the_oracle_exactly(lines, config):
    assert parse_outcome(parse_corpus, lines, config) == parse_outcome(
        oracle_parse_corpus, lines, config
    )


@pytest.mark.parametrize("pad", [False, True])
@pytest.mark.parametrize(
    "codes",
    [
        ["03.67.Ah", "0367Ah", "3.67"],  # a repeat, then an invalid code
        ["03.67.Ah", "0367Ah", 7],  # a repeat, then a non-string code
        ["03.67", "03.67.__", "0367", "05.45.Xt"],  # padded repeats
        ["03.67.Ah", None],
        ["05.45.Xt", " 05.45.Xt", "0545Xt", "05.45.Xt"],
    ],
)
def test_parse_counts_repeats_like_the_oracle(codes, pad):
    lines = [
        record(pacs_codes=codes, references=["P1", "P9", "P1", "P9", "P8", "P1"]),
        record(id="P2", pacs_codes=codes[:2], references=["P2", "P2"]),
        record(id="P3"),
    ]
    config = ParseConfig(pad_short_codes=pad)
    assert parse_outcome(parse_corpus, lines, config) == parse_outcome(
        oracle_parse_corpus, lines, config
    )


def test_papers_share_one_code_object_per_code():
    corpus, _ = parse_lines(
        record(pacs_codes=["03.67.Ah", "05.45.Xt"]),
        record(id="P2", pacs_codes=["05.45.Xt", "03.67.Ah"]),
    )
    first, second = corpus.papers["P1"].pacs_codes, corpus.papers["P2"].pacs_codes
    assert first[0] is second[1] and first[1] is second[0]


def rough_corpus_lines():
    """A 300-paper synthgen corpus with a defect planted on most lines:
    repeated codes in two spellings, short codes (padded with
    pad_short_codes, invalid without), repeated self- and duplicate
    references, a repeat before an invalid code, out-of-range years,
    non-string codes, invalid JSON and missing fields."""
    lines = []
    for i, rec in enumerate(generate_records(SynthConfig(seed=11, n_papers=300, n_codes=40))):
        codes = list(rec["pacs_codes"])
        refs = list(rec["references"])
        kind = i % 11
        if kind == 1:
            codes.append(codes[0].replace(".", ""))
        elif kind == 2:
            codes[-1] = codes[-1][:5]
        elif kind == 3:
            codes = [codes[0][:5], codes[0][:5] + ".__", *codes[1:]]
        elif kind == 4:
            refs = [rec["id"], *refs, rec["id"], *refs[:3]]
        elif kind == 5:
            codes = [codes[0], codes[0], codes[1][:4]]
        elif kind == 6:
            rec["year"] = 1700 + i
        elif kind == 7:
            codes.append(7)
        elif kind == 8 and i % 2:
            lines.append(json.dumps(rec)[:-9])
            continue
        elif kind == 9:
            del rec["journal"]
        rec["pacs_codes"] = codes
        rec["references"] = refs
        lines.append(json.dumps(rec))
    return lines


# sha256 of (corpus.parsed.jsonl, parse_report.json) written by `ingest` of
# rough_corpus_lines(), recorded before the parser was changed; the parsed
# file's again when its lines took (year, id) order, as the old file sorted
ROUGH_INGEST_DIGESTS = {
    False: (
        "b127733f96ea8f2d497e79c0bc60bba368c958f1907be9fe46e538b37e88f993",
        "cbc7769968828559574b4cd685b41d561bd9f10bedf3ec9f55c5afafb3fed570",
    ),
    True: (
        "53ac13d4709c5393ffdd28788d2360f768c65be6a55ed9f6c1d2e5c2641f9ae8",
        "4375c187e1a2ad141cd7e9334eb1ebdbeb8e31370c4ccb79aa197e5e901f4ac1",
    ),
}


@pytest.mark.parametrize("pad", [False, True], ids=["exact", "pad_short_codes"])
def test_rough_corpus_ingest_matches_the_recorded_digests(tmp_path, pad):
    source = tmp_path / "rough.jsonl"
    source.write_text("\n".join(rough_corpus_lines()) + "\n", encoding="utf-8")
    args = ["ingest", "--outdir", str(tmp_path), "--input", str(source)]
    result = CliRunner().invoke(main, args + ["--pad-short-codes"] * pad)
    assert result.exit_code == 0, result.stderr or result.output
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("corpus.parsed.jsonl", "parse_report.json")
    )
    assert digests == ROUGH_INGEST_DIGESTS[pad]
