"""Corpus parsing, validation accounting, and citation-graph construction."""

import hashlib
import json
import math

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from knowspan.cli import main
from knowspan.corpus import (
    Corpus,
    CorpusError,
    InvalidCodeError,
    PacsCode,
    Paper,
    ParseConfig,
    ParseReport,
    build_citation_graph,
    citation_count,
    log_citation_count,
    parse_corpus,
    team_size,
)
from knowspan.synthgen import SynthConfig, generate_records

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


def test_dataset_end_year_before_the_latest_paper_is_hard_error():
    lines = (record(), record(id="P2", year=2011))
    with pytest.raises(CorpusError, match="end year 2010 precedes the latest paper year 2011"):
        parse_lines(*lines, config=ParseConfig(dataset_end_year=2010))
    corpus, _ = parse_lines(*lines, config=ParseConfig(dataset_end_year=2011))
    assert corpus.paper_age(corpus.papers["P2"]) == 0


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
            code, padded = PacsCode.parse(raw, pad_short=config.pad_short_codes)
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
        references=tuple(references),
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

    index = {}
    for paper in papers.values():
        index.setdefault((paper.journal, paper.year), []).append(paper.id)
    frozen_index = {key: tuple(ids) for key, ids in index.items()}

    return Corpus(papers, frozen_index, end_year), report


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
    return (
        papers,
        list(corpus.journal_year_index.items()),
        corpus.dataset_end_year,
        report.as_dict(),
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
# rough_corpus_lines(), recorded before the parser was changed
ROUGH_INGEST_DIGESTS = {
    False: (
        "ab00ee42ed1ee998dd14a72677698e966ab4a7c39b6287bc074eac6afadae6fd",
        "cbc7769968828559574b4cd685b41d561bd9f10bedf3ec9f55c5afafb3fed570",
    ),
    True: (
        "da40c0ca9191090a7cc2be2f8f837dc67c4bce97b778b7dba380b80c7f72c799",
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
