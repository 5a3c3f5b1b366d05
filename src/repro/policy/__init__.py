"""Adaptive fetch-policy subsystem.

Online access-pattern prediction driving fetch-scheme selection and
pipeline sequencing: per-page access histories
(:mod:`repro.policy.history`), two predictors
(:mod:`repro.policy.predictors`), and the ``"adaptive"`` meta-scheme
plus its per-run controller (:mod:`repro.policy.adaptive`).  See
``docs/POLICY.md`` for the design.
"""

from repro.policy.adaptive import AdaptivePolicy, AdaptiveScheme
from repro.policy.history import KIND_FAULT, KIND_TOUCH, AccessHistory
from repro.policy.predictors import (
    Prediction,
    Predictor,
    StaticNeighborPredictor,
    StrideMajorityPredictor,
    make_predictor,
    predictor_names,
)

__all__ = [
    "AccessHistory",
    "AdaptivePolicy",
    "AdaptiveScheme",
    "KIND_FAULT",
    "KIND_TOUCH",
    "Prediction",
    "Predictor",
    "StaticNeighborPredictor",
    "StrideMajorityPredictor",
    "make_predictor",
    "predictor_names",
]
