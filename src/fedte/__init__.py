"""Deterministic federated-learning simulator with ensemble constraint targets."""

__version__ = "0.1.0"

from .nn import Batch, Conv, Dense, ModelSpec, Network, Pool, baseline_cnn
from .data import Dataset
from .penalties import FisherDiag, Prox, fisher_diag
from .target import TargetTracker
from .orchestrator import (FedConfig, RoundRecord, RoundState, Split, prepare, run_experiment,
                           run_round)
from .analysis import (
    Trajectory2D,
    converged_accuracy,
    pca_trajectory,
    rounds_to_accuracy,
)

__all__ = [
    "Batch", "Conv", "Dataset", "Dense", "FedConfig", "FisherDiag",
    "ModelSpec", "Network", "Pool", "Prox", "RoundRecord", "RoundState", "Split",
    "TargetTracker", "Trajectory2D",
    "baseline_cnn", "converged_accuracy", "fisher_diag", "pca_trajectory",
    "prepare", "rounds_to_accuracy", "run_experiment", "run_round",
]
