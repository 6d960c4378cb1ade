"""Seeded synthetic corpora: block-structured codes, backward citations,
and optionally a planted quadratic citation effect.

Codes are grouped into blocks sharing a leading discipline digit; each paper
draws most codes from one home block and leaks the rest elsewhere, so the
fraction of foreign codes ("block spread") is a generation-time proxy for
knowledge spanning.  A planted effect biases who gets cited as a noisy
quadratic (optionally team-moderated) function of that proxy.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .corpus import parse_code

MAX_TEAM = 25


@dataclass(frozen=True)
class PlantedEffect:
    quadratic_sign: int = -1
    moderator_sign: int = 0
    quadratic_strength: float = 6.0
    moderator_strength: float = 0.6

    def __post_init__(self) -> None:
        if self.quadratic_sign not in (-1, 1):
            raise ValueError("quadratic_sign must be -1 or +1")
        if self.moderator_sign not in (-1, 0, 1):
            raise ValueError("moderator_sign must be -1, 0, or +1")


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 7
    n_papers: int = 5000
    n_codes: int = 60
    n_blocks: int = 6
    codes_per_paper: int = 5
    n_journals: int = 8
    year_range: tuple[int, int] = (1990, 2015)
    citation_density: float = 12.0
    cross_block_leakage: float = 0.15
    planted_effect: PlantedEffect | None = None

    def __post_init__(self) -> None:
        if min(self.n_papers, self.n_codes, self.n_blocks, self.codes_per_paper, self.n_journals) < 1:
            raise ValueError("counts must be positive")
        if self.n_blocks > 10:
            raise ValueError("at most 10 blocks (one discipline digit each)")
        if self.n_blocks > self.n_codes:
            raise ValueError("more blocks than codes")
        if self.codes_per_paper > self.n_codes:
            raise ValueError("codes_per_paper exceeds the code inventory")
        min_block = self.n_codes // self.n_blocks
        if self.cross_block_leakage == 0.0 and self.codes_per_paper > min_block:
            raise ValueError(
                f"infeasible: {self.codes_per_paper} codes per paper from blocks "
                f"of {min_block} with zero leakage"
            )
        if not (0.0 <= self.cross_block_leakage <= 1.0):
            raise ValueError("cross_block_leakage must be in [0, 1]")
        if self.year_range[0] > self.year_range[1]:
            raise ValueError("empty year range")
        if self.citation_density < 0.0:
            raise ValueError("citation_density must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def block_of_code(code: str) -> int:
    """Block index of a generated code (its leading discipline digit)."""
    return int(code[0])


def _make_codes(config: SynthConfig, rng: np.random.Generator) -> list[list[str]]:
    """Unique canonical codes per block, first character = block digit."""
    sizes = [
        config.n_codes // config.n_blocks
        + (1 if b < config.n_codes % config.n_blocks else 0)
        for b in range(config.n_blocks)
    ]
    seen: set[str] = set()
    blocks: list[list[str]] = []
    for b, size in enumerate(sizes):
        members: list[str] = []
        while len(members) < size:
            digits = rng.integers(0, 10, size=3)
            upper = string.ascii_uppercase[rng.integers(0, 26)]
            lower = string.ascii_lowercase[rng.integers(0, 26)]
            compact = f"{b}{digits[0]}{digits[1]}{digits[2]}{upper}{lower}"
            if compact not in seen:
                seen.add(compact)
                members.append(parse_code(compact)[0])
        blocks.append(members)
    return blocks


def generate_records(config: SynthConfig) -> Iterator[dict]:
    """Yield corpus records in id order; same config, same records."""
    rng = np.random.default_rng(config.seed)
    blocks = _make_codes(config, rng)
    journals = [f"J{j:02d}" for j in range(config.n_journals)]
    low, high = config.year_range

    years = np.sort(rng.integers(low, high + 1, size=config.n_papers))
    n = config.n_papers
    cpp = config.codes_per_paper

    ids = [f"P{i:06d}" for i in range(n)]
    records: list[dict] = []
    spreads = np.empty(n)
    teams = np.empty(n, dtype=np.int64)
    foreign = [sum(blocks[:home] + blocks[home + 1 :], []) for home in range(len(blocks))]
    for i in range(n):
        home = int(rng.integers(config.n_blocks))
        home_codes = blocks[home]
        other_codes = foreign[home]
        n_foreign = int(rng.binomial(cpp, config.cross_block_leakage))
        n_foreign = min(n_foreign, len(other_codes))
        n_foreign = max(n_foreign, cpp - len(home_codes))
        own = rng.choice(len(home_codes), size=cpp - n_foreign, replace=False)
        codes = [home_codes[j] for j in own]
        if n_foreign:
            away = rng.choice(len(other_codes), size=n_foreign, replace=False)
            codes.extend(other_codes[j] for j in away)
        spreads[i] = n_foreign / cpp if cpp > 1 else 0.0

        teams[i] = min(MAX_TEAM, 1 + int(rng.poisson(2.4)))
        n_pages = 3 + int(rng.poisson(5.0))
        title_length = 4 + int(rng.poisson(6.0))
        if rng.random() < 0.5:
            journal = journals[home % config.n_journals]
        else:
            journal = journals[int(rng.integers(config.n_journals))]
        records.append(
            {
                "id": ids[i],
                "year": int(years[i]),
                "journal": journal,
                "pacs_codes": codes,
                "author_count": int(teams[i]),
                "n_pages": n_pages,
                "title_length": title_length,
                "references": [],
            }
        )

    effect = config.planted_effect
    if effect is not None:
        centered = spreads - 0.5
        eta = effect.quadratic_sign * effect.quadratic_strength * centered**2
        if effect.moderator_sign != 0:
            eta = eta + (
                effect.moderator_sign
                * effect.moderator_strength
                * centered
                * (teams - 3.0)
            )
        weights = np.exp(eta)
    else:
        weights = np.ones(n)
    cum_weights = np.cumsum(weights)

    for i in range(n):
        k = int(rng.poisson(config.citation_density))
        if i == 0 or k == 0:
            continue
        draws = np.searchsorted(
            cum_weights, rng.random(k) * cum_weights[i - 1], side="right"
        )
        records[i]["references"] = [ids[j] for j in sorted(set(int(d) for d in draws))]

    yield from records


def generate(config: SynthConfig) -> Iterator[str]:
    """The record stream as JSON lines, parse-ready as written."""
    for record in generate_records(config):
        yield json.dumps(record, sort_keys=True, separators=(",", ":"))
