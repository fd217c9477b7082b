"""HyperDrive / POP reproduction.

A from-scratch reproduction of *HyperDrive: Exploring Hyperparameters
with POP Scheduling* (Rasley et al., Middleware '17): the POP
scheduling algorithm, the HyperDrive middleware (Job/Resource Managers,
Node Agents, AppStat DB, suspend/resume), the Domhan-style probabilistic
learning-curve predictor it builds on, baseline policies (Default,
TuPAQ Bandit, EarlyTerm, successive halving), calibrated synthetic
workloads standing in for the paper's GPU/Gym testbeds, and the
trace-driven discrete-event simulator used for sensitivity analysis.

Quickstart::

    from repro import (
        Cifar10Workload, POPPolicy, RandomGenerator,
        ExperimentSpec, run_simulation,
    )

    workload = Cifar10Workload()
    result = run_simulation(
        workload,
        POPPolicy(),
        generator=RandomGenerator(workload.space, seed=0, max_configs=100),
        spec=ExperimentSpec(num_machines=4, num_configs=100),
    )
    print(result.summary())
"""

from .core import (
    CONFIDENCE_LOWER_BOUND,
    Category,
    ERTEstimate,
    POPPolicy,
    SlotAllocation,
    classify,
    compute_slot_allocation,
    estimate_remaining_time,
    is_poor_by_domain,
    slot_curves,
)
from .curves import (
    CURVE_MODELS,
    CurveEnsemble,
    CurveModel,
    CurvePrediction,
    CurvePredictor,
    EnsembleSampler,
    LastValuePredictor,
    LeastSquaresCurvePredictor,
    MCMCCurvePredictor,
)
from .framework import (
    AppStat,
    AppStatDB,
    Decision,
    ExperimentResult,
    ExperimentSpec,
    HyperDriveScheduler,
    Job,
    JobManager,
    JobState,
    NodeAgent,
    ResourceManager,
    Snapshot,
    SnapshotCostModel,
)
from .generators import (
    BayesianGenerator,
    TPEGenerator,
    Choice,
    GridGenerator,
    HyperparameterGenerator,
    IntUniform,
    LogUniform,
    RandomGenerator,
    SearchSpace,
    Uniform,
)
from .policies import (
    BanditPolicy,
    DefaultPolicy,
    EarlyTermPolicy,
    GlobalCriterionPolicy,
    HyperBandPolicy,
    SchedulingPolicy,
    SuccessiveHalvingPolicy,
)
from .sim import SimulationEngine, default_predictor, run_simulation
from .runtime import run_live
from .workloads import (
    Cifar10Workload,
    DomainSpec,
    EpochResult,
    LSTMSparsityWorkload,
    LunarLanderWorkload,
    MLPWorkload,
    TrainingRun,
    Workload,
)

__version__ = "1.9.1"

__all__ = [
    "POPPolicy",
    "ERTEstimate",
    "estimate_remaining_time",
    "SlotAllocation",
    "compute_slot_allocation",
    "slot_curves",
    "Category",
    "classify",
    "is_poor_by_domain",
    "CONFIDENCE_LOWER_BOUND",
    "CURVE_MODELS",
    "CurveModel",
    "CurveEnsemble",
    "EnsembleSampler",
    "CurvePrediction",
    "CurvePredictor",
    "MCMCCurvePredictor",
    "LeastSquaresCurvePredictor",
    "LastValuePredictor",
    "HyperDriveScheduler",
    "ExperimentSpec",
    "ExperimentResult",
    "Job",
    "JobState",
    "JobManager",
    "ResourceManager",
    "NodeAgent",
    "AppStat",
    "AppStatDB",
    "Decision",
    "Snapshot",
    "SnapshotCostModel",
    "SearchSpace",
    "Uniform",
    "LogUniform",
    "IntUniform",
    "Choice",
    "HyperparameterGenerator",
    "RandomGenerator",
    "GridGenerator",
    "BayesianGenerator",
    "TPEGenerator",
    "SchedulingPolicy",
    "DefaultPolicy",
    "BanditPolicy",
    "EarlyTermPolicy",
    "SuccessiveHalvingPolicy",
    "HyperBandPolicy",
    "GlobalCriterionPolicy",
    "Workload",
    "TrainingRun",
    "EpochResult",
    "DomainSpec",
    "Cifar10Workload",
    "LunarLanderWorkload",
    "LSTMSparsityWorkload",
    "MLPWorkload",
    "SimulationEngine",
    "run_simulation",
    "run_live",
    "default_predictor",
]
