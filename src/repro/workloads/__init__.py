"""Workloads: what HyperDrive schedules.

Three calibrated synthetic workloads (CIFAR-10, LunarLander and the §9
LSTM sparsity study) stand in for the paper's GPU/Gym testbeds (see
DESIGN.md §2 for the substitution argument); they share the bases in
:mod:`.calibration`.  One real numpy-MLP workload demonstrates genuine
end-to-end training.
"""

from .base import DomainSpec, EpochResult, TrainingRun, Workload
from .calibration import QualityCalibrator, stable_config_seed
from .cifar10 import Cifar10Workload, SyntheticSupervisedRun, cifar10_space
from .datasets import Dataset, make_blobs, make_spirals
from .lstm_sparsity import LSTMSparsityWorkload, SyntheticLSTMRun, lstm_space
from .lunarlander import LunarLanderWorkload, SyntheticRLRun, lunarlander_space
from .mlp import MLPTrainingRun, MLPWorkload, mlp_space

__all__ = [
    "DomainSpec",
    "EpochResult",
    "TrainingRun",
    "Workload",
    "QualityCalibrator",
    "stable_config_seed",
    "Cifar10Workload",
    "SyntheticSupervisedRun",
    "cifar10_space",
    "LunarLanderWorkload",
    "LSTMSparsityWorkload",
    "SyntheticLSTMRun",
    "lstm_space",
    "SyntheticRLRun",
    "lunarlander_space",
    "Dataset",
    "make_blobs",
    "make_spirals",
    "MLPWorkload",
    "MLPTrainingRun",
    "mlp_space",
]
