"""Fair and robust training lab for tabular classification.

A small classifier is trained against two adversaries: one that predicts the
sensitive group from the classifier's output (driving group information out of
the predictions) and one that tells training rows with predictions apart from
clean validation rows with labels (driving out the influence of poisoned
training data), with the second adversary's decision values re-weighting the
training examples.
"""

# The submodules that perfbench's tracer reads off the package.
from . import adversaries, benchmarks, dataset, harness, metrics, nnet, poison, trainer
from .dataset import SyntheticSpec, generate_synthetic, split
from .poison import PoisonSpec, flip_labels
from .trainer import TrainConfig, evaluate_model, train_fair_robust

__all__ = ["SyntheticSpec", "generate_synthetic", "split", "PoisonSpec", "flip_labels",
           "TrainConfig", "train_fair_robust", "evaluate_model"]
