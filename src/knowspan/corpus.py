"""Bibliographic corpus model: category codes, papers, and the citation graph.

Input is one JSON record per line.  Records that fail validation are skipped
and tallied by reason; duplicate paper ids and an empty result are hard errors.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Iterator

PAD_CHAR = "_"
REFERENCE_END = "\x00"  # ends each reference in Paper.reference_text


class InvalidCodeError(ValueError):
    """A category code that does not reduce to six significant characters."""


class CorpusError(ValueError):
    """Corpus-level failure: duplicate paper id or an empty parse result."""


def parse_code(text: str, pad_short: bool = False) -> tuple[str, bool]:
    """A code's canonical ``dd.dd.cc`` text, and whether it was padded.

    With ``pad_short``, codes attested at coarser granularity (four or five
    significant characters) are padded to leaf length with a reserved filler
    character.  The text is interned, so equal codes are one object.
    """
    compact = text.strip().replace(".", "")
    padded = False
    if pad_short and 4 <= len(compact) < 6:
        compact = compact.ljust(6, PAD_CHAR)
        padded = True
    if len(compact) != 6 or any(ch.isspace() for ch in compact):
        raise InvalidCodeError(
            f"category code {text!r} does not have 6 significant characters"
        )
    return sys.intern(f"{compact[:2]}.{compact[2:4]}.{compact[4:6]}"), padded


@dataclass(frozen=True, slots=True)
class Paper:
    id: str
    year: int
    journal: str
    pacs_codes: tuple[str, ...]  # canonical code texts
    author_count: int
    n_pages: int
    title_length: int
    reference_text: str  # join_references of the references, in record order

    @property
    def references(self) -> tuple[str, ...]:
        return tuple(split_references(self.reference_text))

    def to_record(self) -> dict:
        """Serialize back to the line-record form accepted by parse_corpus:
        every field by its name (``slots=True`` makes ``__slots__`` the field
        names, in order), a tuple as a JSON array, and the references as the
        array they were read from in place of their text."""
        record = {name: getattr(self, name) for name in self.__slots__ if name != "reference_text"}
        record["references"] = self.references
        return record


def join_references(references: Iterable[str]) -> str:
    """References held as one text, each followed by ``REFERENCE_END``: one
    object in place of a tuple and a string per reference.  Ending each one,
    rather than separating them, keeps a lone empty reference apart from
    none.  A reference holding ``REFERENCE_END`` cannot be told apart, so
    the parser refuses it."""
    return REFERENCE_END.join([*references, ""])


def split_references(text: str) -> list[str]:
    """The references ``join_references`` held in ``text``, in order."""
    references = text.split(REFERENCE_END)
    references.pop()  # the empty text after the last end mark
    return references


@dataclass
class ParseConfig:
    min_year: int = 1800
    max_year: int = 2100
    dataset_end_year: int | None = None  # defaults to the max observed year
    pad_short_codes: bool = False

    def __post_init__(self) -> None:
        if self.min_year > self.max_year:
            raise ValueError("min_year exceeds max_year")


@dataclass
class ParseReport:
    n_records: int = 0
    n_parsed: int = 0
    n_skipped: int = 0
    skip_reasons: Counter = field(default_factory=Counter)
    duplicate_codes_removed: int = 0
    self_references_removed: int = 0
    padded_codes: int = 0


@dataclass
class Corpus:
    papers: dict[str, Paper]
    dataset_end_year: int

    def __post_init__(self) -> None:  # one paper order for every stage: (year, id)
        self.papers = dict(sorted(self.papers.items(), key=lambda item: (item[1].year, item[0])))

    def __len__(self) -> int:
        return len(self.papers)

    def __contains__(self, paper_id: str) -> bool:
        return paper_id in self.papers

    def __iter__(self) -> Iterator[Paper]:
        return iter(self.papers.values())

    def distinct_codes(self) -> list[str]:
        return sorted({code for paper in self.papers.values() for code in paper.pacs_codes})

    def paper_age(self, paper: Paper) -> int:
        """Whole years between publication and the dataset end year."""
        return self.dataset_end_year - paper.year


class _SkipRecord(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def _require_int(obj: dict, key: str) -> int:
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise _SkipRecord(f"invalid_{key}")
    return value


def _record_to_paper(
    obj: object,
    config: ParseConfig,
    report: ParseReport,
    parsed_codes: dict[str, tuple[str, bool]],
) -> Paper:
    """One validated paper; ``parsed_codes`` memoises ``parse_code`` by raw
    text across the records of one parse."""
    if not isinstance(obj, dict):
        raise _SkipRecord("not_an_object")
    for key in ("id", "year", "journal", "pacs_codes", "n_pages", "references"):
        if key not in obj:
            raise _SkipRecord("missing_field")
    if "authors" not in obj and "author_count" not in obj:
        raise _SkipRecord("missing_field")
    if "title" not in obj and "title_length" not in obj:
        raise _SkipRecord("missing_field")

    paper_id = obj["id"]
    if not isinstance(paper_id, str) or not paper_id or REFERENCE_END in paper_id:
        raise _SkipRecord("invalid_id")

    year = _require_int(obj, "year")
    if not (config.min_year <= year <= config.max_year):
        raise _SkipRecord("year_out_of_range")

    journal = obj["journal"]
    if not isinstance(journal, str) or not journal:
        raise _SkipRecord("invalid_journal")

    raw_codes = obj["pacs_codes"]
    if not isinstance(raw_codes, list):
        raise _SkipRecord("invalid_code")
    codes: dict[str, None] = {}  # the distinct codes in record order
    padded_here = 0
    for raw in raw_codes:
        if not isinstance(raw, str):
            raise _SkipRecord("invalid_code")
        parsed = parsed_codes.get(raw)
        if parsed is None:
            try:
                parsed = parse_code(raw, pad_short=config.pad_short_codes)
            except InvalidCodeError:
                raise _SkipRecord("invalid_code") from None
            parsed_codes[raw] = parsed
        code, padded = parsed
        padded_here += padded
        if code in codes:
            # counted even when a later code skips the record
            report.duplicate_codes_removed += 1
        else:
            codes[code] = None
    if not codes:
        raise _SkipRecord("no_codes")

    if "author_count" in obj:
        author_count = _require_int(obj, "author_count")
    else:
        authors = obj["authors"]
        if not isinstance(authors, list) or not all(isinstance(a, str) for a in authors):
            raise _SkipRecord("invalid_authors")
        author_count = len(authors)
    if author_count < 1:
        raise _SkipRecord("invalid_author_count")

    n_pages = _require_int(obj, "n_pages")
    if n_pages < 0:
        raise _SkipRecord("invalid_n_pages")

    if "title_length" in obj:
        title_length = _require_int(obj, "title_length")
    else:
        title = obj["title"]
        if not isinstance(title, str):
            raise _SkipRecord("invalid_title")
        title_length = len(title.split())
    if title_length < 0:
        raise _SkipRecord("invalid_title_length")

    raw_refs = obj["references"]
    if not isinstance(raw_refs, list) or not all(map(isinstance, raw_refs, repeat(str))):
        raise _SkipRecord("invalid_references")
    unique_refs = dict.fromkeys(raw_refs)
    self_references = 0
    if paper_id in unique_refs:  # rare, so only then are the copies counted
        del unique_refs[paper_id]
        self_references = raw_refs.count(paper_id)
    reference_text = join_references(unique_refs)
    if reference_text.count(REFERENCE_END) != len(unique_refs):
        raise _SkipRecord("invalid_references")

    report.self_references_removed += self_references
    report.padded_codes += padded_here
    return Paper(
        id=paper_id,
        year=year,
        journal=journal,
        pacs_codes=tuple(codes),
        author_count=author_count,
        n_pages=n_pages,
        title_length=title_length,
        reference_text=reference_text,
    )


def parse_corpus(
    lines: Iterable[str], config: ParseConfig | None = None
) -> tuple[Corpus, ParseReport]:
    """Parse a line-record stream into a Corpus (in (year, id) order) and a skip report.

    Malformed records are skipped (one reason tallied each); a duplicate
    paper id, an empty result or a dataset end year before the latest kept
    paper raises CorpusError.
    """
    config = config or ParseConfig()
    report = ParseReport()
    papers: dict[str, Paper] = {}
    parsed_codes: dict[str, tuple[str, bool]] = {}
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
            paper = _record_to_paper(obj, config, report, parsed_codes)
        except _SkipRecord as skip:
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


@dataclass(frozen=True)
class CitationGraph:
    """Forward and reverse citation adjacency restricted to in-corpus edges.

    An edge citer -> cited is kept only when both ends are in the corpus and
    year(citer) >= year(cited).  ``cites`` and ``cited_by`` hold the same
    edges, as the papers' own id strings.  Each ``cites`` tuple is in
    reference order.  Each ``cited_by`` tuple is ordered by (year, id), so
    the citers from a given year on are a suffix of it.
    """

    cites: dict[str, tuple[str, ...]]
    cited_by: dict[str, tuple[str, ...]]
    years: dict[str, int]
    n_edges: int
    n_dropped_out_of_corpus: int
    n_dropped_year_order: int


def build_citation_graph(corpus: Corpus) -> CitationGraph:
    papers = corpus.papers
    cites: dict[str, tuple[str, ...]] = dict.fromkeys(papers, ())
    cited_by: dict[str, list[str] | tuple[str, ...]] = {pid: [] for pid in papers}
    dropped_missing = 0
    dropped_order = 0
    n_edges = 0
    # visiting citers in corpus order, (year, id), appends each citer list in that order
    for paper in papers.values():
        kept = []
        for ref in split_references(paper.reference_text):
            target = papers.get(ref)
            if target is None:
                dropped_missing += 1
            elif paper.year < target.year:
                dropped_order += 1
            else:
                kept.append(target.id)
                cited_by[ref].append(paper.id)
        if kept:
            cites[paper.id] = tuple(kept)
            n_edges += len(kept)
    for pid, citers in cited_by.items():  # each list is freed as its tuple replaces it
        cited_by[pid] = tuple(citers)
    return CitationGraph(
        cites=cites,
        cited_by=cited_by,
        years={pid: p.year for pid, p in papers.items()},
        n_edges=n_edges,
        n_dropped_out_of_corpus=dropped_missing,
        n_dropped_year_order=dropped_order,
    )


def team_size(paper: Paper) -> int:
    if paper.author_count < 1:
        raise ValueError(f"paper {paper.id!r} has author_count < 1")
    return paper.author_count


def citation_count(paper: Paper, graph: CitationGraph) -> int:
    return len(graph.cited_by.get(paper.id, ()))


def log_citation_count(paper: Paper, graph: CitationGraph) -> float:
    """Natural log of one plus the in-corpus citation count."""
    return math.log1p(citation_count(paper, graph))
