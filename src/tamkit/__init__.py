"""Sentence-level tense/aspect/modality classification toolkit.

Four learners over a shared sparse binary feature model (sentence-final
character n-grams and token bags), plus the evaluation machinery to compare
them: cross-validation, a rule baseline, sign tests, and a binomial
effective-feature test.
"""

from .corpus import (
    AUXILIARIES,
    CategorySpec,
    CorpusError,
    Dataset,
    Example,
    FoldPlan,
    category_label,
    load_corpus,
    parse_corpus,
    serialize_corpus,
    split_folds,
)
from .declist import DecisionListModel, decide, train_declist
from .evaluate import (
    BaselineModel,
    ConfigError,
    LearnerSpec,
    PrecisionReport,
    SignTestResult,
    baseline_classify,
    category_distribution,
    closed_test,
    compare_predictions,
    cross_domain_eval,
    cross_validate,
    effective_features,
    evaluate_grid,
    evaluate_model,
    fit,
    grid_cell,
    sign_test,
)
from .features import (
    Feature,
    FeatureSet,
    FeatureVector,
    Vocabulary,
    example_features,
    extract,
    suffix_ngrams,
    tokenize,
)
from .knn import KnnModel, classify_knn, train_knn
from .maxent import MaxEntModel, classify_maxent, train_maxent
from .svm import (
    BinarySvmModel,
    ConvergenceError,
    PairwiseModel,
    TrainingError,
    classify_pairwise,
    kernel,
    train_binary_svm,
    train_pairwise,
    train_pairwise_slices,
)
from .svm import decide as svm_decide

__version__ = "0.1.0"
