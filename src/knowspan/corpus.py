"""Bibliographic corpus model: category codes, papers, and the citation graph.

Input is one JSON record per line.  Records that fail validation are skipped
and tallied by reason; duplicate paper ids and an empty result are hard errors.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

PAD_CHAR = "_"


class InvalidCodeError(ValueError):
    """A category code that does not reduce to six significant characters."""


class CorpusError(ValueError):
    """Corpus-level failure: duplicate paper id or an empty parse result."""


@dataclass(frozen=True)
class PacsCode:
    """A six-character hierarchical category code, canonically ``dd.dd.cc``.

    The six significant characters define a five-step ancestry chain below a
    shared root: first character, first two, first three, first four, and the
    full code.
    """

    raw: str

    @classmethod
    def parse(cls, text: str, pad_short: bool = False) -> tuple["PacsCode", bool]:
        """Canonicalize ``text``; returns the code and whether it was padded.

        With ``pad_short``, codes attested at coarser granularity (four or
        five significant characters) are padded to leaf length with a
        reserved filler character.
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
        return cls(f"{compact[:2]}.{compact[2:4]}.{compact[4:6]}"), padded

    @classmethod
    def from_text(cls, text: str) -> "PacsCode":
        code, _ = cls.parse(text)
        return code

    @property
    def compact(self) -> str:
        return self.raw.replace(".", "")

    @property
    def levels(self) -> tuple[str, str, str, str, str]:
        """Ancestry labels from the coarsest split down to the full code."""
        c = self.compact
        return (c[:1], c[:2], c[:3], c[:4], c)

    def __str__(self) -> str:
        return self.raw


@dataclass(frozen=True)
class Paper:
    id: str
    year: int
    journal: str
    pacs_codes: tuple[PacsCode, ...]
    author_count: int
    n_pages: int
    title_length: int
    references: tuple[str, ...]

    def to_record(self) -> dict:
        """Serialize back to the line-record form accepted by parse_corpus."""
        return {
            "id": self.id,
            "year": self.year,
            "journal": self.journal,
            "pacs_codes": [c.raw for c in self.pacs_codes],
            "author_count": self.author_count,
            "n_pages": self.n_pages,
            "title_length": self.title_length,
            "references": list(self.references),
        }


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

    def as_dict(self) -> dict:
        return {
            "n_records": self.n_records,
            "n_parsed": self.n_parsed,
            "n_skipped": self.n_skipped,
            "skip_reasons": dict(sorted(self.skip_reasons.items())),
            "duplicate_codes_removed": self.duplicate_codes_removed,
            "self_references_removed": self.self_references_removed,
            "padded_codes": self.padded_codes,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


@dataclass
class Corpus:
    papers: dict[str, Paper]
    journal_year_index: dict[tuple[str, int], tuple[str, ...]]
    dataset_end_year: int

    def __len__(self) -> int:
        return len(self.papers)

    def __contains__(self, paper_id: str) -> bool:
        return paper_id in self.papers

    def __iter__(self) -> Iterator[Paper]:
        return iter(self.papers.values())

    def distinct_codes(self) -> list[PacsCode]:
        seen: dict[PacsCode, None] = {}
        for paper in self.papers.values():
            for code in paper.pacs_codes:
                seen[code] = None
        return sorted(seen, key=lambda c: c.raw)

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
    parsed_codes: dict[str, tuple[PacsCode, bool]],
) -> Paper:
    """One validated paper; ``parsed_codes`` memoises ``PacsCode.parse`` by
    raw text across the records of one parse, so papers share code objects."""
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
    if not isinstance(paper_id, str) or not paper_id:
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
    codes: dict[str, PacsCode] = {}  # canonical text -> code
    padded_here = 0
    for raw in raw_codes:
        if not isinstance(raw, str):
            raise _SkipRecord("invalid_code")
        parsed = parsed_codes.get(raw)
        if parsed is None:
            try:
                parsed = PacsCode.parse(raw, pad_short=config.pad_short_codes)
            except InvalidCodeError:
                raise _SkipRecord("invalid_code") from None
            parsed_codes[raw] = parsed
        code, padded = parsed
        padded_here += padded
        if code.raw in codes:
            # counted even when a later code skips the record
            report.duplicate_codes_removed += 1
        else:
            codes[code.raw] = code
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
    if not isinstance(raw_refs, list) or not all(isinstance(r, str) for r in raw_refs):
        raise _SkipRecord("invalid_references")
    report.self_references_removed += raw_refs.count(paper_id)
    references = dict.fromkeys(raw_refs)
    references.pop(paper_id, None)

    report.padded_codes += padded_here
    return Paper(
        id=paper_id,
        year=year,
        journal=journal,
        pacs_codes=tuple(codes.values()),
        author_count=author_count,
        n_pages=n_pages,
        title_length=title_length,
        references=tuple(references),
    )


def parse_corpus(
    lines: Iterable[str], config: ParseConfig | None = None
) -> tuple[Corpus, ParseReport]:
    """Parse a line-record stream into a Corpus plus a skip-count report.

    Malformed records are skipped (one reason tallied each); a duplicate
    paper id, an empty result or a dataset end year before the latest kept
    paper raises CorpusError.
    """
    config = config or ParseConfig()
    report = ParseReport()
    papers: dict[str, Paper] = {}
    parsed_codes: dict[str, tuple[PacsCode, bool]] = {}
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

    index: dict[tuple[str, int], list[str]] = {}
    for paper in papers.values():
        index.setdefault((paper.journal, paper.year), []).append(paper.id)
    frozen_index = {key: tuple(ids) for key, ids in index.items()}

    return Corpus(papers, frozen_index, end_year), report


@dataclass(frozen=True)
class CitationGraph:
    """Forward and reverse citation adjacency restricted to in-corpus edges.

    An edge citer -> cited is kept only when both ends are in the corpus and
    year(citer) >= year(cited).  ``cites`` and ``cited_by`` hold the same
    edges.  Each ``cited_by`` tuple is ordered by (year, id), so the citers
    from a given year on are a suffix of it.
    """

    cites: dict[str, frozenset[str]]
    cited_by: dict[str, tuple[str, ...]]
    years: dict[str, int]
    n_edges: int
    n_dropped_out_of_corpus: int
    n_dropped_year_order: int


def build_citation_graph(corpus: Corpus) -> CitationGraph:
    cites: dict[str, set[str]] = {pid: set() for pid in corpus.papers}
    cited_by: dict[str, list[str]] = {pid: [] for pid in corpus.papers}
    dropped_missing = 0
    dropped_order = 0
    n_edges = 0
    # visiting citers in (year, id) order appends each citer list in that order
    for paper in sorted(corpus.papers.values(), key=lambda p: (p.year, p.id)):
        for ref in paper.references:
            target = corpus.papers.get(ref)
            if target is None:
                dropped_missing += 1
            elif paper.year < target.year:
                dropped_order += 1
            else:
                cites[paper.id].add(ref)
                cited_by[ref].append(paper.id)
                n_edges += 1
    return CitationGraph(
        cites={pid: frozenset(s) for pid, s in cites.items()},
        cited_by={pid: tuple(citers) for pid, citers in cited_by.items()},
        years={pid: p.year for pid, p in corpus.papers.items()},
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
