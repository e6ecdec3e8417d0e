"""Unit-consistent sparse tensor completion.

Learns one strictly positive scale per k-dimensional subtensor by
iterative log-space balancing (every subtensor's product of observed
entries is driven to 1), completes unobserved cells with products of
inverse scales, and ships checkers for the guarantees that make the
completion trustworthy: uniqueness, unit consistency, and consensus
ordering.  A rating-prediction harness evaluates the method as a
hyperparameter-free recommender on MovieLens/Jester-style data.
"""

from .balance import BalanceState, LatentModel, SolverConfig, balance
from .complete import (
    CompletedTensor,
    OrderingReport,
    SupportReport,
    check_consensus_ordering,
    check_full_support,
    complete,
    complete_matrix,
    unit_consistency_gap,
)
from .datasets import (
    FoldPlan,
    RatingsDataset,
    build_tensor_2d,
    encode_features,
    load_jester,
    load_movielens,
    load_tensor_text,
    save_tensor_text,
    split_kfold,
)
from .evaluate import (
    EvalReport,
    ExperimentConfig,
    FoldResult,
    baseline_predict,
    mae,
    rmse,
    run_experiment,
)
from .exceptions import (
    DidNotConvergeError,
    DuplicateIndexError,
    EmptyInputError,
    EmptyTensorError,
    IndexOutOfBoundsError,
    InvalidGammaError,
    InvalidKError,
    KeyOrderError,
    MissingFeatureFileError,
    NonFiniteValueError,
    NonPositiveValueError,
    NotAMatrixError,
    ParseError,
    ShapeMismatchError,
    TooFewRecordsError,
    UctensorError,
    UnknownCategoryError,
    UnknownUserError,
)
from .persist import load_model, save_model
from .recommend import Prediction, predict_rating, top_n
from .tensor import (
    ScaleSet,
    SparseTensor,
    make_tensor,
    max_balance_violation,
    scale_apply,
    subtensor_families,
)

__version__ = "0.1.0"
