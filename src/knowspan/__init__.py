"""Knowledge-spanning distances, disruption scores, and moderated quadratic
regressions for category-coded bibliographic corpora."""

__version__ = "0.1.0"

from .corpus import (
    CitationGraph,
    Corpus,
    CorpusError,
    InvalidCodeError,
    Paper,
    ParseConfig,
    ParseReport,
    build_citation_graph,
    citation_count,
    log_citation_count,
    parse_code,
    parse_corpus,
    team_size,
)
from .disruption import (
    DisruptionCounts,
    DisruptionScore,
    d_score,
    disruption_counts,
    percentile_ranks,
    score_corpus,
)
from .embedding import (
    EmbeddingMatrix,
    MissingCodeError,
    TrainingConfig,
    build_training_pairs,
    cosine_distance,
    load_embeddings,
    save_embeddings,
    train_embeddings,
)
from .geometry import article_distance, journal_cells, journal_reference, paper_vector
from .stats import (
    AnalysisTable,
    CorrelationMatrix,
    CurvePoint,
    RankDeficiencyError,
    RegressionResult,
    RegressionSpec,
    build_design,
    fit_model,
    mean_response,
    ols_fit,
    pearson_matrix,
    pearson_r,
    predicted_curve,
    star_label,
)
from .synthgen import PlantedEffect, SynthConfig, block_of_code, generate
from .tree import KnowledgeTree, build_tree, lca_level, network_distance, path_length
