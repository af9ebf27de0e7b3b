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
    "load_config",
    "run_benchmark",
]

__version__ = "0.1.0"


def load_config(path=None, overrides=()):
    """Lazy wrapper for :func:`advreplay.config.load_config`."""
    from .config import load_config as _load

    return _load(path, overrides)


def run_benchmark(config, out_dir=None):
    """Lazy wrapper for :func:`advreplay.runner.run_benchmark`."""
    from .runner import run_benchmark as _run

    return _run(config, out_dir)
