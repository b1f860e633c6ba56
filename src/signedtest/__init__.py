"""Signed-graph property testing: exact checkers, sublinear testers, generators."""

from .core import (
    Clustering,
    GraphFormatError,
    Sign,
    SignedGraph,
    Witness,
    WitnessKind,
    load_edge_list,
    save_edge_list,
    validate,
)
from .generators import GenSpec, generate
from .harness import ExperimentConfig, ExperimentReport, run_experiment, run_scaling, wilson

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "GenSpec",
    "generate",
    "run_experiment",
    "run_scaling",
    "wilson",
    "Clustering",
    "GraphFormatError",
    "Sign",
    "SignedGraph",
    "Witness",
    "WitnessKind",
    "load_edge_list",
    "save_edge_list",
    "validate",
    "__version__",
]
