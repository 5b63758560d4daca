"""Counterfactual explanations for binary classifiers over categorical features.

The package answers, for one classified entity: which minimal value changes
flip its label, how responsible each feature value is for the outcome, and
what the corresponding answer-set program looks like for a disjunctive
solver.
"""

__version__ = "0.1.0"

from .errors import BackendError, EngineError, InputError, NothingToExplainError
from .schema import Entity, Explanation, Feature, FeatureSchema

__all__ = [
    "BackendError",
    "EngineError",
    "Entity",
    "Explanation",
    "Feature",
    "FeatureSchema",
    "InputError",
    "NothingToExplainError",
    "__version__",
]
