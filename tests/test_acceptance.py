"""Acceptance gate: eight checks, one printed PASS/FAIL line each.

Run with ``pytest -v tests/test_acceptance.py``; each criterion is a single
test whose verbose line doubles as the per-criterion verdict.  Criterion 8
needs an external dataset and is skipped unless KNOWSPAN_APS_PATH is set.
"""

import contextlib
import json
import math
import os
import time
from collections import deque

import mpmath as mp
import numpy as np
import pytest
from click.testing import CliRunner

from knowspan.cli import METRIC_COLUMNS, main as cli_main
from knowspan.corpus import (
    Corpus,
    Paper,
    build_citation_graph,
    join_references,
    parse_code,
    parse_corpus,
)
from knowspan.disruption import (
    d_score,
    disruption_counts,
    percentile_ranks,
    score_corpus,
)
from knowspan.embedding import (
    EmbeddingMatrix,
    TrainingConfig,
    build_training_pairs,
    cosine_distance,
    train_embeddings,
)
from knowspan.geometry import article_distance, journal_cells, journal_reference, paper_vector
from knowspan.stats import AnalysisTable, RegressionSpec, fit_model, pearson_matrix
from knowspan.tree import build_tree, leaf_label, network_distance, path_length
from oracles import pair_gradients, pair_loss
from planted import synth_then_pipeline

mp.mp.dps = 40


@contextlib.contextmanager
def criterion(number: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL — {title}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS — {title} ({elapsed:.2f}s)")


def make_paper(pid, year, codes, journal="J", refs=()):
    return Paper(
        id=pid,
        year=year,
        journal=journal,
        pacs_codes=tuple(parse_code(c)[0] for c in codes),
        author_count=1,
        n_pages=1,
        title_length=1,
        reference_text=join_references(refs),
    )


def relative_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# 1. disruption counts match a brute-force oracle on random DAGs


def brute_counts(papers, focal, variant):
    citers = {p.id for p in papers if focal.id in p.references}
    ref_citers = set()
    for ref in focal.references:
        for p in papers:
            if ref in p.references and p.id != focal.id and p.year >= focal.year:
                ref_citers.add(p.id)
    n_j = len(citers & ref_citers)
    n_k = len(ref_citers - citers)
    n_i = len(citers) if variant == "overlapping" else len(citers) - n_j
    return n_i, n_j, n_k


def test_criterion_1_disruption_oracle_equivalence():
    with criterion(1, "disruption counts equal the brute-force oracle on 1,000 DAGs"):
        start = time.perf_counter()
        code = "00.00.Aa"
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 31))
            years = np.sort(rng.integers(1990, 2010, size=n))
            papers = {}
            for i in range(n):
                refs = tuple(
                    f"N{j}" for j in range(i) if rng.random() < 0.2
                )
                papers[f"N{i}"] = make_paper(f"N{i}", int(years[i]), [code], refs=refs)
            corpus = Corpus(papers, int(years[-1]))
            graph = build_citation_graph(corpus)
            paper_list = list(papers.values())
            for paper in paper_list:
                for variant in ("disjoint", "overlapping"):
                    counts = disruption_counts(paper, graph, variant)
                    expected = brute_counts(paper_list, paper, variant)
                    assert (counts.n_i, counts.n_j, counts.n_k) == expected
                    if counts.total > 0:
                        want = (expected[0] - expected[1]) / sum(expected)
                        assert d_score(counts) == want
        assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 2. tree distances: closed form == BFS, worked examples 6 and 8


def bfs_distances(edges, source):
    adjacency = {}
    for child, parent, _ in edges:
        adjacency.setdefault(child, []).append(parent)
        adjacency.setdefault(parent, []).append(child)
    seen = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if neighbor not in seen:
                seen[neighbor] = seen[node] + 1
                queue.append(neighbor)
    return seen


def test_criterion_2_tree_distance_identity():
    with criterion(2, "tree path length matches 2*(6-LCA) and BFS on 200 leaves"):
        start = time.perf_counter()
        rng = np.random.default_rng(2)
        seen = set()
        while len(seen) < 200:
            d = rng.integers(0, 10, size=4)
            upper = chr(65 + rng.integers(0, 26))
            lower = chr(97 + rng.integers(0, 26))
            seen.add(f"{d[0]}{d[1]}.{d[2]}{d[3]}.{upper}{lower}")
        codes = [parse_code(c)[0] for c in sorted(seen)]
        tree = build_tree(codes)
        edges = tree.edges()

        def shared(a, b):
            count = 0
            for x, y in zip(leaf_label(a), leaf_label(b)):
                if x != y:
                    break
                count += 1
            return count

        for i, p in enumerate(codes):
            distances = bfs_distances(edges, leaf_label(p))
            for q in codes[i + 1 :]:
                k = shared(p, q)
                lca = 6 if k == 6 else (5 if k >= 4 else k + 1)
                length = path_length(tree, p, q)
                assert length == 2 * (6 - lca)
                assert length == distances[leaf_label(q)]
        six = (parse_code("42.50.Ab")[0], parse_code("42.65.Cd")[0])
        eight = (parse_code("42.50.Ab")[0], parse_code("47.20.Ft")[0])
        scratch = build_tree(list(six) + list(eight))
        assert path_length(scratch, *six) == 6
        assert path_length(scratch, *eight) == 8
        assert time.perf_counter() - start < 2.0


# ---------------------------------------------------------------------------
# 3. OLS: exact recovery, planted quadratic significance, orthogonality


def test_criterion_3_ols_correctness():
    with criterion(3, "OLS exact recovery, planted quadratic, residual orthogonality"):
        start = time.perf_counter()
        rng = np.random.default_rng(3)
        x = rng.normal(size=300)
        z = rng.normal(size=300)
        y = 0.75 - 1.25 * x + 4.0 * z
        table = AnalysisTable({"y": y, "x": x, "z": z})
        result = fit_model(
            RegressionSpec(outcome="y", predictors=("x",), controls=("z",)), table
        )
        assert relative_close(result.term("const").coefficient, 0.75, 1e-8)
        assert relative_close(result.term("x").coefficient, -1.25, 1e-8)
        assert relative_close(result.term("z").coefficient, 4.0, 1e-8)
        assert abs(result.term("x^2").coefficient) <= 1e-8
        assert abs(result.adjusted_r2 - 1.0) <= 1e-10

        hits = 0
        for seed in range(100):
            srng = np.random.default_rng(seed)
            px = srng.uniform(-1.5, 1.5, size=10_000)
            py = 0.3 + 0.8 * px - 0.6 * px * px + srng.normal(scale=0.1, size=10_000)
            fit = fit_model(
                RegressionSpec(outcome="y", predictors=("x",)),
                AnalysisTable({"y": py, "x": px}),
            )
            term = fit.term("x^2")
            hits += term.coefficient < 0 and term.p < 0.001
        assert hits >= 99

        wide = AnalysisTable(
            {
                "y": rng.normal(size=2000),
                "c1": rng.normal(size=2000),
                "c2": rng.normal(size=2000),
                "c3": rng.normal(size=2000),
                "p1": rng.normal(size=2000),
                "p2": rng.normal(size=2000),
                "p3": rng.normal(size=2000),
                "m": rng.normal(size=2000),
            }
        )
        spec = RegressionSpec(
            outcome="y",
            predictors=("p1", "p2", "p3"),
            controls=("c1", "c2", "c3"),
            moderator="m",
        )
        fit = fit_model(spec, wide)
        residuals = wide.column("y") - fit.design.matrix @ fit.coefficients
        assert np.max(np.abs(fit.design.matrix.T @ residuals)) / 2000 <= 1e-8
        assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 4. embedding separates the two planted blocks


def two_block_corpus(n_papers=2000, codes_per_block=10, per_paper=3, seed=4):
    block_a = [f"1{i}.00.Aa" for i in range(codes_per_block)]
    block_b = [f"2{i}.00.Bb" for i in range(codes_per_block)]
    rng = np.random.default_rng(seed)
    papers = {}
    for i in range(n_papers):
        block = block_a if i % 2 == 0 else block_b
        picks = rng.choice(codes_per_block, size=per_paper, replace=False)
        papers[f"P{i}"] = make_paper(f"P{i}", 2000, [block[j] for j in picks])
    return Corpus(papers, 2000), block_a, block_b


def finite_difference_check(rng):
    dim, negatives = 12, 4
    center = rng.normal(size=dim)
    context = rng.normal(size=dim)
    noise = rng.normal(size=(negatives, dim))
    grads = pair_gradients(center, context, noise)
    h = 1e-5
    for target, grad in zip((center, context, noise), grads):
        flat_target = target.reshape(-1)
        flat_grad = np.asarray(grad).reshape(-1)
        for idx in range(flat_target.size):
            keep = flat_target[idx]
            flat_target[idx] = keep + h
            up = pair_loss(center, context, noise)
            flat_target[idx] = keep - h
            down = pair_loss(center, context, noise)
            flat_target[idx] = keep
            numeric = (up - down) / (2 * h)
            assert relative_close(flat_grad[idx], numeric, 1e-4)


def test_criterion_4_embedding_structure_recovery():
    with criterion(4, "two-block corpus separates by >= 0.3 and gradients check out"):
        start = time.perf_counter()
        corpus, block_a, block_b = two_block_corpus()
        matrix = train_embeddings(build_training_pairs(corpus), TrainingConfig())
        vec = {c: matrix[parse_code(c)[0]] for c in block_a + block_b}

        def mean_similarity(pairs):
            sims = [1.0 - cosine_distance(vec[a], vec[b]) for a, b in pairs]
            return float(np.mean(sims))

        within = [
            (a, b)
            for block in (block_a, block_b)
            for i, a in enumerate(block)
            for b in block[i + 1 :]
        ]
        across = [(a, b) for a in block_a for b in block_b]
        margin = mean_similarity(within) - mean_similarity(across)
        assert margin >= 0.3
        assert matrix.loss_by_epoch[-1] < matrix.loss_by_epoch[0]
        finite_difference_check(np.random.default_rng(44))
        assert time.perf_counter() - start < 15.0


# ---------------------------------------------------------------------------
# 5. geometry against 40-digit oracles on 100 random papers


def mp_cosine(u, v):
    uu = [mp.mpf(float(x)) for x in u]
    vv = [mp.mpf(float(x)) for x in v]
    dot = mp.fsum(a * b for a, b in zip(uu, vv))
    nu = mp.sqrt(mp.fsum(a * a for a in uu))
    nv = mp.sqrt(mp.fsum(b * b for b in vv))
    return float(1 - dot / (nu * nv))


def test_criterion_5_distance_formula_oracles():
    with criterion(5, "distance formulas match 40-digit oracles at 1e-12"):
        rng = np.random.default_rng(5)
        pool = []
        while len(pool) < 30:
            d = rng.integers(0, 10, size=4)
            c = f"{d[0]}{d[1]}.{d[2]}{d[3]}.{chr(65 + rng.integers(0, 26))}{chr(97 + rng.integers(0, 26))}"
            if c not in pool:
                pool.append(c)
        emb = EmbeddingMatrix(
            dim=16,
            vocabulary=tuple(parse_code(c)[0] for c in pool),
            vectors={
                parse_code(c)[0]: rng.normal(size=16) for c in pool
            },
        )
        records = []
        for i in range(100):
            m = int(rng.integers(2, 7))
            picks = rng.choice(30, size=m, replace=False)
            records.append(
                {
                    "id": f"R{i}",
                    "year": 2000 + int(rng.integers(0, 3)),
                    "journal": f"J{int(rng.integers(0, 3))}",
                    "pacs_codes": [pool[j] for j in picks],
                    "author_count": 1,
                    "n_pages": 1,
                    "title_length": 1,
                    "references": [],
                }
            )
        corpus, _ = parse_corpus(json.dumps(r) for r in records)
        tree = build_tree(corpus.distinct_codes())

        def level_of(a, b):
            k = len(os.path.commonprefix([leaf_label(a), leaf_label(b)]))
            return 6 if k == 6 else (5 if k >= 4 else k + 1)

        for paper in corpus:
            vectors = [emb[c] for c in paper.pacs_codes]
            m = len(vectors)
            expected_pv = [
                float(mp.fsum(mp.mpf(float(v[k])) for v in vectors) / m)
                for k in range(16)
            ]
            got_pv = paper_vector(paper, emb)
            for a, b in zip(got_pv, expected_pv):
                assert relative_close(a, b, 1e-12)

            pair_dists = [
                mp_cosine(vectors[i], vectors[j])
                for i in range(m)
                for j in range(i + 1, m)
            ]
            expected_article = math.fsum(pair_dists) / len(pair_dists)
            assert relative_close(article_distance(paper, emb), expected_article, 1e-12)

            tree_dists = [
                2 * (6 - level_of(paper.pacs_codes[i], paper.pacs_codes[j]))
                for i in range(m)
                for j in range(i + 1, m)
            ]
            expected_network = math.fsum(tree_dists) / len(tree_dists)
            assert relative_close(network_distance(paper, tree), expected_network, 1e-12)

        cells = journal_cells(corpus, (paper_vector(p, emb) for p in corpus))
        cell_members = {}
        for paper in corpus:
            cell_members.setdefault((paper.journal, paper.year), []).append(paper)
        assert list(cells) == list(cell_members)
        for key, members in cell_members.items():
            stacked = [paper_vector(p, emb) for p in members]
            expected_jv = [
                float(mp.fsum(mp.mpf(float(v[k])) for v in stacked) / len(stacked))
                for k in range(16)
            ]
            got_jv, n_members = cells[key]
            assert n_members == len(members)
            for a, b in zip(got_jv, expected_jv):
                assert relative_close(a, b, 1e-12)


# ---------------------------------------------------------------------------
# 6. percentile midrank contract


def test_criterion_6_percentile_contract():
    with criterion(6, "midrank percentiles: mean 50 tie-free, monotone, tie-equal"):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            n = int(rng.integers(1, 41))
            if rng.random() < 0.5:
                scores = list(rng.normal(size=n))  # continuous: ties impossible
                tie_free = True
            else:
                scores = [float(v) / 7.0 for v in rng.integers(-3, 4, size=n)]
                tie_free = len(set(scores)) == n
            ranks = percentile_ranks(scores)
            assert all(0.0 < r_ < 100.0 for r_ in ranks)
            if tie_free:
                assert abs(math.fsum(ranks) / n - 50.0) <= 1e-9
            order = sorted(range(n), key=lambda i: scores[i])
            for a, b in zip(order, order[1:]):
                if scores[a] == scores[b]:
                    assert ranks[a] == ranks[b]
                else:
                    assert ranks[a] < ranks[b]


# ---------------------------------------------------------------------------
# 7. pipeline budget, contracts, determinism


def test_criterion_7_pipeline_determinism_and_budget(tmp_path):
    with criterion(7, "5,000-paper pipeline under 60s, documented columns, byte-stable"):
        runner = CliRunner()
        elapsed = []
        for sub in ("a", "b"):
            outdir = tmp_path / sub
            begin = time.perf_counter()
            for args in synth_then_pipeline(outdir=outdir):
                result = runner.invoke(cli_main, args)
                assert result.exit_code == 0, result.stderr
            elapsed.append(time.perf_counter() - begin)
        assert max(elapsed) < 60.0

        with open(tmp_path / "a" / "metrics.csv", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        assert tuple(header) == METRIC_COLUMNS
        for required in (
            "paper_id", "journal_distance", "article_distance",
            "article_distance_log", "network_distance", "team_size",
            "citation_count", "log_citations", "d_score", "d_percentile",
            "years", "n_pages", "title_length",
        ):
            assert required in header

        for k in range(1, 9):
            with open(tmp_path / "a" / f"regression_model{k}.csv", encoding="utf-8") as fh:
                assert fh.readline().strip() == "term,coefficient,std_error,t,p,stars"
            with open(tmp_path / "a" / f"curves_model{k}.csv", encoding="utf-8") as fh:
                assert (
                    fh.readline().strip()
                    == "predictor,predictor_value,moderator_level,prediction,extrapolated"
                )

        names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name


# ---------------------------------------------------------------------------
# 8. conditional: descriptive statistics on a user-supplied corpus


APS_PATH = os.environ.get("KNOWSPAN_APS_PATH")

REFERENCE = {
    "network_distance_mean": 6.96,
    "journal_distance_mean": 0.24,
    "d_percentile_mean": 48.02,
    "article_network_r": 0.82,
    "citation_disruption_r": -0.32,
}


@pytest.mark.skipif(
    APS_PATH is None,
    reason="set KNOWSPAN_APS_PATH to a corpus JSONL to enable the dataset check",
)
def test_criterion_8_reference_descriptives():
    def pearson_r(x, y):
        matrix = pearson_matrix(AnalysisTable({"x": x, "y": y}), ("x", "y"))
        return float(matrix.r[0, 1])

    with criterion(8, "reference descriptive statistics within ±10%"):
        with open(APS_PATH, encoding="utf-8") as fh:
            corpus, _ = parse_corpus(fh)
        graph = build_citation_graph(corpus)
        matrix = train_embeddings(build_training_pairs(corpus), TrainingConfig())
        tree = build_tree(corpus.distinct_codes())

        network = {}
        article = {}
        for paper in corpus:
            network[paper.id] = network_distance(paper, tree)
            if all(c in matrix for c in paper.pacs_codes):
                article[paper.id] = article_distance(paper, emb=matrix)
        vectors = {
            paper.id: paper_vector(paper, matrix) if paper.id in article else None
            for paper in corpus
        }
        cells = journal_cells(corpus, vectors.values())
        journal = {}
        for paper in corpus:
            if paper.id in article:
                focal = vectors[paper.id]
                cell = cells[(paper.journal, paper.year)]
                journal[paper.id] = cosine_distance(
                    focal, journal_reference(cell, focal, exclude_self=False)
                )
        scored = score_corpus(corpus, graph)
        percentile = {
            pid: s.percentile for pid, (_, s) in scored.items() if s.percentile is not None
        }

        def within(value, key):
            target = REFERENCE[key]
            assert abs((value - target) / target) <= 0.10, (key, value, target)

        within(float(np.mean(list(network.values()))), "network_distance_mean")
        within(float(np.mean(list(journal.values()))), "journal_distance_mean")
        within(float(np.mean(list(percentile.values()))), "d_percentile_mean")

        shared_ids = [pid for pid in article if pid in network]
        r_an = pearson_r(
            [article[p] for p in shared_ids],
            [network[p] for p in shared_ids],
        )
        within(r_an, "article_network_r")

        cited = [
            pid for pid in percentile
        ]
        r_cd = pearson_r(
            [math.log1p(len(graph.cited_by.get(p, ()))) for p in cited],
            [percentile[p] for p in cited],
        )
        within(r_cd, "citation_disruption_r")
