"""Fair and robust training lab for tabular classification.

A small classifier is trained against two adversaries: one that predicts the
sensitive group from the classifier's output (driving group information out of
the predictions) and one that tells training rows with predictions apart from
clean validation rows with labels (driving out the influence of poisoned
training data), with the second adversary's decision values re-weighting the
training examples.
"""

from .dataset import (
    CrowdResponse,
    DataError,
    Dataset,
    SyntheticSpec,
    aggregate_crowd_labels,
    filter_workers,
    generate_synthetic,
    load_csv,
    save_csv,
    split,
)
from .metrics import (
    MetricsReport,
    UndefinedGroupError,
    accuracy,
    compute_report,
    confusion_by_group,
    disparate_impact,
    empirical_entropy,
    equalized_odds,
)
from .nnet import MLPModel, MLPSpec, OptimizerState, forward, weighted_cross_entropy
from .adversaries import (
    DiscreteJoint,
    fairness_objective,
    mi_exact,
    mi_via_discriminator,
    robustness_objective,
    robustness_rows,
)
from .poison import PoisonBudgetError, PoisonSpec, flip_labels
from .trainer import (
    ConfigError,
    TrainConfig,
    TrainHistory,
    TrainingDivergedError,
    compute_example_weights,
    decide,
    evaluate_model,
    predict,
    train_fair_robust,
    train_logistic_baseline,
)
from .harness import ExperimentSpec, emit_tradeoff_curve, error_range, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
