"""Pre-retrieval prediction of group exposure distributions in rankings."""

from .corpus import (
    Category,
    CollectionIndex,
    CorpusError,
    Document,
    TermStats,
    build_index,
    load_categories_json,
    load_corpus_jsonl,
)
from .evaluation import (
    ModelRanker,
    PredictionReport,
    QueryExpander,
    RunFileRanker,
    bonferroni,
    coefficient_of_variation,
    jsd,
    paired_t_test,
    run_experiment,
)
from .expansion import ExpansionConfig, ExpansionResult, expand_klq, expand_rm3
from .exposure import (
    ExposureDistribution,
    ExposureHistogram,
    achievable_exposure,
    group_exposure,
    log_orderings,
    normalize_exposure,
    orderings,
    position_exposure,
    realized_exposure,
)
from .predictors import (
    PredictorConfig,
    PredictorOutput,
    make_predictors,
    predict_avidf,
    predict_avictf,
    predict_avpmi,
    predict_cori,
    predict_gep,
    predict_scs,
    predict_uniform,
)
from .retrieval import Query, Ranking, rank
from .text import tokenize

__version__ = "0.1.0"
