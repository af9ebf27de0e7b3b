"""Exemplar-free class-incremental learning with online adversarial pseudo-replay.

The package trains a small extractor/classifier over a stream of disjoint
class groups, synthesizes replay batches by perturbing new-task samples
toward stored class prototypes, distills against the frozen previous model,
and calibrates prototypes/covariances after every task.
"""

from .errors import (
    ConfigError,
    ContractError,
    DecodeError,
    DimensionError,
    EngineError,
    NumericError,
    StatsError,
)

__all__ = [
    "ConfigError",
    "ContractError",
    "DecodeError",
    "DimensionError",
    "EngineError",
    "NumericError",
    "StatsError",
]

__version__ = "0.1.0"

