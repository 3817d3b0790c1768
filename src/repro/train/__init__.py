"""Data-parallel training simulator and convergence harness."""

from repro.train.trainer import (
    FusedRankExecutor,
    ParallelTrainer,
    ProcessRankExecutor,
    SerialRankExecutor,
    build_rank_executor,
    compute_grads,
    compute_grads_into,
    phased_step,
)
from repro.train.metrics import accuracy, Meter
from repro.train.convergence import run_to_accuracy, ConvergenceResult
from repro.train.simclock import TrainingTimeModel
from repro.train.checkpoint import load_checkpoint, read_checkpoint_meta, save_checkpoint

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_meta",
    "ParallelTrainer",
    "FusedRankExecutor",
    "ProcessRankExecutor",
    "SerialRankExecutor",
    "build_rank_executor",
    "phased_step",
    "compute_grads",
    "compute_grads_into",
    "accuracy",
    "Meter",
    "run_to_accuracy",
    "ConvergenceResult",
    "TrainingTimeModel",
]
