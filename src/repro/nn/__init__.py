"""A from-scratch NumPy deep-learning framework.

This subpackage stands in for PyTorch (unavailable offline in this
environment).  It provides exactly what the SafeLight workloads need:

* layers with explicit forward/backward passes (:mod:`repro.nn.layers`),
* losses and optimizers (:mod:`repro.nn.losses`, :mod:`repro.nn.optim`),
* the three CNN architectures from the paper's Table I
  (:mod:`repro.nn.models`),
* a :class:`~repro.nn.training.Trainer` supporting L2 regularization and
  Gaussian noise-aware training.

Weights live in plain ``float32`` NumPy arrays wrapped in
:class:`~repro.nn.tensor.Parameter`, which is also the handle the accelerator
mapping and the attack-injection machinery operate on.
"""

from repro.nn.tensor import Parameter
from repro.nn.module import Module
from repro.nn.layers import (
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    Dropout,
    Flatten,
    GaussianNoise,
    GlobalAvgPool2D,
    LeakyReLU,
    Linear,
    MaxPool2D,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.losses import (
    CrossEntropyLoss,
    StackedCrossEntropyLoss,
    l2_penalty,
    stacked_l2_penalty,
)
from repro.nn.optim import SGD, Adam
from repro.nn.training import (
    StackedTrainer,
    Trainer,
    TrainingConfig,
    TrainingHistory,
    count_correct,
    evaluate_accuracies,
    evaluate_accuracy,
)
from repro.nn.ensemble import num_scenarios, stack_state_dicts, stacked_state
from repro.nn import functional
from repro.nn import models

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "Conv2D",
    "MaxPool2D",
    "AvgPool2D",
    "GlobalAvgPool2D",
    "BatchNorm2D",
    "Dropout",
    "Flatten",
    "GaussianNoise",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "Sequential",
    "CrossEntropyLoss",
    "StackedCrossEntropyLoss",
    "l2_penalty",
    "stacked_l2_penalty",
    "SGD",
    "Adam",
    "Trainer",
    "StackedTrainer",
    "TrainingConfig",
    "TrainingHistory",
    "count_correct",
    "evaluate_accuracy",
    "evaluate_accuracies",
    "stacked_state",
    "stack_state_dicts",
    "num_scenarios",
    "functional",
    "models",
]
