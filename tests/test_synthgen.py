"""Generator determinism, block structure, and planted-effect recovery."""

import collections
import hashlib

import numpy as np
import pytest
from scipy.stats import chisquare

from knowspan.corpus import build_citation_graph, parse_code, parse_corpus
from knowspan.stats import AnalysisTable, RegressionSpec, fit_model
from knowspan.synthgen import (
    MAX_TEAM,
    PlantedEffect,
    SynthConfig,
    generate,
    generate_records,
)
from knowspan.tree import leaf_label


def small_config(**overrides):
    defaults = dict(seed=3, n_papers=600, n_codes=30, n_blocks=5, n_journals=4)
    defaults.update(overrides)
    return SynthConfig(**defaults)


def spread_from_record(record):
    """Foreign-code fraction, measured against the modal leading digit."""
    digits = [leaf_label(parse_code(c)[0])[0] for c in record["pacs_codes"]]
    top = collections.Counter(digits).most_common(1)[0][1]
    return 1.0 - top / len(digits)


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError, match="positive"):
        SynthConfig(n_papers=0)
    with pytest.raises(ValueError, match="10 blocks"):
        SynthConfig(n_blocks=11, n_codes=110)
    with pytest.raises(ValueError, match="more blocks"):
        SynthConfig(n_blocks=9, n_codes=8)
    with pytest.raises(ValueError, match="inventory"):
        SynthConfig(n_codes=4, n_blocks=2, codes_per_paper=5)
    with pytest.raises(ValueError, match="leakage"):
        SynthConfig(cross_block_leakage=1.5)
    with pytest.raises(ValueError, match="year range"):
        SynthConfig(year_range=(2000, 1990))
    with pytest.raises(ValueError, match="nonnegative"):
        SynthConfig(citation_density=-1.0)


def test_zero_leakage_infeasible_when_blocks_too_small():
    with pytest.raises(ValueError, match="infeasible"):
        SynthConfig(n_codes=12, n_blocks=6, codes_per_paper=5, cross_block_leakage=0.0)


def test_planted_effect_validation():
    with pytest.raises(ValueError, match="quadratic_sign"):
        PlantedEffect(quadratic_sign=2)
    with pytest.raises(ValueError, match="moderator_sign"):
        PlantedEffect(moderator_sign=5)


# ---------------------------------------------------------------- determinism

def test_same_config_is_byte_identical():
    config = small_config()
    first = list(generate(config))
    second = list(generate(config))
    assert first == second
    assert list(generate(small_config(seed=4))) != first


# The record stream of a ten-block, 300-code corpus with the planted effect of
# the tests' planted run (tests/planted.py); a change to the generator's
# draws changes it.
MULTI_BLOCK_SHA256 = "3f2e5076ef9e9c116e0644b11ef0319244452f810ed78218e8c7033e38038b95"


def test_multi_block_corpus_matches_the_recorded_digest():
    config = SynthConfig(
        seed=3,
        n_papers=300,
        n_codes=300,
        n_blocks=10,
        citation_density=3.0,
        planted_effect=PlantedEffect(quadratic_sign=-1, moderator_sign=1),
    )
    text = "".join(line + "\n" for line in generate(config))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == MULTI_BLOCK_SHA256


def test_write_corpus_round_trips():
    config = small_config()
    lines = list(generate(config))
    assert len(lines) == config.n_papers
    corpus, report = parse_corpus(lines)
    assert len(corpus.papers) == config.n_papers
    assert not report.skip_reasons
    assert report.duplicate_codes_removed == 0
    assert report.self_references_removed == 0


# ---------------------------------------------------------------- structure

def test_records_parse_cleanly_and_fields_are_bounded():
    config = small_config(n_papers=400)
    for record in generate_records(config):
        assert 1 <= record["author_count"] <= MAX_TEAM
        assert record["n_pages"] >= 3
        assert record["title_length"] >= 4
        assert record["journal"] in {f"J{j:02d}" for j in range(config.n_journals)}
        assert config.year_range[0] <= record["year"] <= config.year_range[1]
        assert len(record["pacs_codes"]) == config.codes_per_paper
        assert len(set(record["pacs_codes"])) == config.codes_per_paper
        for code in record["pacs_codes"]:
            parsed = parse_code(code)[0]
            assert parsed == code
            assert int(parsed[0]) < config.n_blocks  # its block's digit leads


def test_references_point_backward_and_are_sorted_unique():
    config = small_config(n_papers=500, citation_density=6.0)
    records = list(generate_records(config))
    year_of = {r["id"]: r["year"] for r in records}
    any_refs = False
    for record in records:
        refs = record["references"]
        assert refs == sorted(set(refs))
        for ref in refs:
            any_refs = True
            assert ref != record["id"]
            assert ref < record["id"]  # zero-padded ids sort in creation order
            assert year_of[ref] <= record["year"]
    assert any_refs


def test_citation_graph_keeps_every_generated_edge():
    config = small_config(n_papers=500, citation_density=6.0)
    corpus, _ = parse_corpus(generate(config))
    graph = build_citation_graph(corpus)
    assert graph.n_dropped_out_of_corpus == 0
    assert graph.n_dropped_year_order == 0
    assert graph.n_edges == sum(len(p.references) for p in corpus.papers.values())


def test_zero_leakage_means_single_block_papers():
    config = small_config(
        n_codes=30, n_blocks=5, codes_per_paper=5, cross_block_leakage=0.0
    )
    for record in generate_records(config):
        digits = {leaf_label(parse_code(c)[0])[0] for c in record["pacs_codes"]}
        assert len(digits) == 1


def test_leakage_produces_foreign_codes():
    config = small_config(n_papers=400, cross_block_leakage=0.3)
    spreads = [spread_from_record(r) for r in generate_records(config)]
    assert max(spreads) > 0.0
    assert np.mean(spreads) > 0.1


def test_code_usage_is_roughly_uniform():
    # equal-sized blocks make every code exchangeable by symmetry
    config = SynthConfig(seed=11, n_papers=10_000, n_codes=60, n_blocks=6)
    counts = collections.Counter()
    for record in generate_records(config):
        counts.update(record["pacs_codes"])
    assert len(counts) == config.n_codes
    observed = np.array(sorted(counts.values()))
    _, p = chisquare(observed)
    assert p > 1e-3


# ---------------------------------------------------------------- planted

def planted_regression(quadratic_sign, moderator_sign=0, seed=19, strength=6.0):
    config = SynthConfig(
        seed=seed,
        n_papers=4000,
        planted_effect=PlantedEffect(
            quadratic_sign=quadratic_sign,
            moderator_sign=moderator_sign,
            quadratic_strength=strength,
        ),
    )
    records = list(generate_records(config))
    corpus, _ = parse_corpus(json_line for json_line in generate(config))
    graph = build_citation_graph(corpus)
    table = AnalysisTable(
        {
            "log_citations": [
                np.log1p(len(graph.cited_by.get(r["id"], ()))) for r in records
            ],
            "spread": [spread_from_record(r) for r in records],
            "team": [float(r["author_count"]) for r in records],
        }
    )
    spec = RegressionSpec(
        outcome="log_citations",
        predictors=("spread",),
        moderator="team" if moderator_sign else None,
    )
    return fit_model(spec, table)


def test_planted_inverted_u_is_recovered():
    # the fitted curvature tracks the planted strength: indistinguishable
    # from zero with no effect, falling strictly as the effect grows
    terms = [
        planted_regression(quadratic_sign=-1, strength=strength).term("spread^2")
        for strength in (0.0, 1.5, 3.0, 6.0)
    ]
    coefficients = [term.coefficient for term in terms]
    assert all(a > b for a, b in zip(coefficients, coefficients[1:]))
    assert terms[0].p > 0.05
    assert terms[-1].coefficient < 0
    assert terms[-1].p < 1e-6


def test_planted_u_shape_flips_the_sign():
    result = planted_regression(quadratic_sign=+1)
    term = result.term("spread^2")
    assert term.coefficient > 0
    assert term.p < 1e-6


def test_planted_moderation_shows_in_interaction():
    result = planted_regression(quadratic_sign=-1, moderator_sign=-1)
    assert result.term("spread:team").coefficient < 0
    assert result.term("spread:team").p < 0.05


def test_unplanted_corpus_shows_no_strong_quadratic():
    config = SynthConfig(seed=23, n_papers=4000)
    records = list(generate_records(config))
    corpus, _ = parse_corpus(generate(config))
    graph = build_citation_graph(corpus)
    table = AnalysisTable(
        {
            "log_citations": [
                np.log1p(len(graph.cited_by.get(r["id"], ()))) for r in records
            ],
            "spread": [spread_from_record(r) for r in records],
        }
    )
    result = fit_model(
        RegressionSpec(outcome="log_citations", predictors=("spread",)), table
    )
    assert result.term("spread^2").p > 0.001
