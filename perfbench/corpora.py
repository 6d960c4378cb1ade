"""Seeded input corpora for the benchmark workloads.

Every corpus is built from ``knowspan.synthgen`` with the benchmark seed.
The ``aps-shaped`` corpus is then roughened the way real bibliographic dumps
are: most references point outside the corpus, a few point forward in time,
and about one line in a hundred does not validate.  The generator records
what it injected, so the checks can compare the program's skip report and
dropped-edge counters against a known answer.  The same seed gives
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from knowspan.synthgen import PlantedEffect, SynthConfig, generate_records

# The effect `knowspan pipeline --synth` plants: inverted U, amplified by team.
PLANTED = PlantedEffect(quadratic_sign=-1, moderator_sign=1)

# Injection rates for the rough corpus; ids outside the corpus never match
# the synthgen id pattern ``P\d{6}``.
OUT_OF_CORPUS_PER_PAPER = 9.0
FORWARD_REFERENCE_RATE = 0.005
INVALID_LINE_RATE = 0.01
# Corruptions cycle through these; each maps to one parse_report reason.
CORRUPTIONS = ("invalid_code", "invalid_year", "invalid_json", "missing_field")


@dataclass(frozen=True)
class CorpusShape:
    n_papers: int
    n_codes: int = 60
    n_blocks: int = 6
    citation_density: float = 12.0
    rough: bool = False

    def synth_config(self, seed: int) -> SynthConfig:
        return SynthConfig(
            seed=seed,
            n_papers=self.n_papers,
            n_codes=self.n_codes,
            n_blocks=self.n_blocks,
            citation_density=self.citation_density,
            planted_effect=PLANTED,
        )


@dataclass(frozen=True)
class Expected:
    """What a correct ingest and citation-graph build must report."""

    records: int
    parsed: int
    skipped: int
    skip_reasons: dict
    edges: int
    dropped_out_of_corpus: int
    dropped_year_order: int


def _line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _roughen(records: list[dict], seed: int) -> dict[int, str]:
    """Add out-of-corpus and forward references in place; returns the
    corruption reason for each record index chosen to fail validation."""
    rng = np.random.default_rng((seed, 0xA95))
    years = [r["year"] for r in records]
    n = len(records)
    corrupted: dict[int, str] = {}
    for i, record in enumerate(records):
        refs = list(record["references"])
        for draw in rng.integers(0, 10**7, size=int(rng.poisson(OUT_OF_CORPUS_PER_PAPER))):
            refs.append(f"X{int(draw):07d}")
        if rng.random() < FORWARD_REFERENCE_RATE:
            # years are sorted, so every later index with a larger year qualifies
            later = int(np.searchsorted(years, years[i], side="right"))
            if later < n:
                refs.append(records[int(rng.integers(later, n))]["id"])
        record["references"] = list(dict.fromkeys(refs))
        if rng.random() < INVALID_LINE_RATE:
            corrupted[i] = CORRUPTIONS[len(corrupted) % len(CORRUPTIONS)]
    return corrupted


def _corrupt(record: dict, reason: str) -> str:
    bad = dict(record)
    if reason == "invalid_code":
        codes = list(bad["pacs_codes"])
        codes[0] = codes[0][:5]  # "12.34.Ab" -> "12.34": four characters
        bad["pacs_codes"] = codes
    elif reason == "invalid_year":
        bad["year"] = str(bad["year"])
    elif reason == "missing_field":
        del bad["journal"]
    else:
        return _line(bad)[:-7]  # cut inside the record: not JSON any more
    return _line(bad)


def _expected(records: list[dict], corrupted: dict[int, str]) -> Expected:
    valid = {r["id"]: r["year"] for i, r in enumerate(records) if i not in corrupted}
    edges = out_of_corpus = year_order = 0
    for i, record in enumerate(records):
        if i in corrupted:
            continue
        for ref in record["references"]:
            if ref not in valid:
                out_of_corpus += 1
            elif record["year"] < valid[ref]:
                year_order += 1
            else:
                edges += 1
    reasons: dict[str, int] = {}
    for reason in corrupted.values():
        reasons[reason] = reasons.get(reason, 0) + 1
    return Expected(
        records=len(records),
        parsed=len(valid),
        skipped=len(corrupted),
        skip_reasons=dict(sorted(reasons.items())),
        edges=edges,
        dropped_out_of_corpus=out_of_corpus,
        dropped_year_order=year_order,
    )


def generate(shape: CorpusShape, seed: int) -> list[dict]:
    """The synthgen records for ``seed``, before any roughening."""
    return list(generate_records(shape.synth_config(seed)))


def write_corpus(records: list[dict], shape: CorpusShape, seed: int, path: str) -> Expected:
    """Roughen ``records`` if the shape asks for it, write them to ``path``
    and return what a correct ingest of the file must report."""
    corrupted = _roughen(records, seed) if shape.rough else {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, record in enumerate(records):
            reason = corrupted.get(i)
            fh.write((_corrupt(record, reason) if reason else _line(record)) + "\n")
    return _expected(records, corrupted)
