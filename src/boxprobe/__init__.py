"""boxprobe: model-agnostic interpretation of black-box predictors.

Every method here works the same way: sample observations, intervene in
their feature values, predict with the black box, and aggregate the
predictions into feature-effect or feature-importance estimates.  The
stage primitives live in :mod:`boxprobe.core`; effect estimators (ICE,
partial dependence, accumulated local effects, marginal effects, Shapley
values, local surrogates) in :mod:`boxprobe.effects` and
:mod:`boxprobe.shapley`; importance estimators (PD spread, permutation
importance and its loss-change curves, Shapley importance) in
:mod:`boxprobe.importance`.  Deterministic reference models and CSV/CLI
plumbing round out the package.

All randomness is PCG64 under explicit seeds; identical inputs and seeds
reproduce results bit-exactly.
"""

from .core import (
    LossFunction,
    PredictionCache,
    PredictorHandle,
    absolute_loss,
    default_step,
    estimate_generalization_error,
    finite_difference,
    intervene_permute,
    intervene_replace,
    intervene_shift,
    loss_by_name,
    make_rng,
    predict_batch,
    sample_observations,
    squared_loss,
    zero_one_loss,
)
from .data import CATEGORICAL, CONTINUOUS, Dataset, FeatureMeta
from .effects import (
    AverageMarginalEffect,
    EffectCurve,
    Grid,
    LimeExplanation,
    ale_first_order,
    average_marginal_effect,
    custom_grid,
    equidistant_grid,
    ice_curves,
    lime_explain,
    marginal_effect,
    observed_grid,
    pd_curve,
)
from .importance import (
    ImportanceScore,
    ces_curve,
    firm,
    ici_curve,
    pd_importance,
    pfi_exhaustive,
    pfi_payout,
    pfi_permutation,
    pi_curve,
    sfimp,
)
from .refmodels import (
    KNNModel,
    LinearModel,
    StumpModel,
    fit_knn,
    fit_linear,
    fit_stump,
    load_model,
    save_model,
)
from .dataio import load_csv
from .shapley import (
    ShapleyExplanation,
    exact_shapley_value,
    pd_payout,
    shapley_exact,
    shapley_mc,
)
from .trace import StageRecord, StageTrace

__version__ = "0.1.0"

__all__ = [
    "AverageMarginalEffect",
    "CATEGORICAL",
    "CONTINUOUS",
    "Dataset",
    "EffectCurve",
    "FeatureMeta",
    "Grid",
    "ImportanceScore",
    "KNNModel",
    "LimeExplanation",
    "LinearModel",
    "LossFunction",
    "PredictionCache",
    "PredictorHandle",
    "ShapleyExplanation",
    "StageRecord",
    "StageTrace",
    "StumpModel",
    "absolute_loss",
    "ale_first_order",
    "average_marginal_effect",
    "ces_curve",
    "custom_grid",
    "default_step",
    "equidistant_grid",
    "estimate_generalization_error",
    "exact_shapley_value",
    "finite_difference",
    "firm",
    "fit_knn",
    "fit_linear",
    "fit_stump",
    "ice_curves",
    "ici_curve",
    "intervene_permute",
    "intervene_replace",
    "intervene_shift",
    "lime_explain",
    "load_csv",
    "load_model",
    "loss_by_name",
    "make_rng",
    "marginal_effect",
    "observed_grid",
    "pd_curve",
    "pd_importance",
    "pd_payout",
    "pfi_exhaustive",
    "pfi_payout",
    "pfi_permutation",
    "pi_curve",
    "predict_batch",
    "sample_observations",
    "save_model",
    "sfimp",
    "shapley_exact",
    "shapley_mc",
    "squared_loss",
    "zero_one_loss",
]
