"""DECO core: pseudo-labeling, learners, and training/evaluation loops."""

from .deco import DECOLearner, condense_offline
from .learner import LearnerConfig, LearnerHistory, OnDeviceLearner
from .pseudo_label import (MajorityVotePseudoLabeler, NoisyPseudoLabeler,
                           PseudoLabelResult, predict_with_confidence)
from .replay import ReplayLearner, UpperBoundLearner
from .training import evaluate_accuracy, predict_logits, train_model

__all__ = [
    "MajorityVotePseudoLabeler", "NoisyPseudoLabeler", "PseudoLabelResult",
    "predict_with_confidence",
    "LearnerConfig", "LearnerHistory", "OnDeviceLearner",
    "DECOLearner", "condense_offline",
    "ReplayLearner", "UpperBoundLearner",
    "train_model", "evaluate_accuracy", "predict_logits",
]
