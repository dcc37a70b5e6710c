"""The paper's contribution: ANN ensembles for design-space modeling."""

from .activation import Activation, Identity, Sigmoid, Tanh, get_activation
from .backend import (
    CachingBackend,
    EvaluationBackend,
    EvaluationError,
    ProcessPoolBackend,
    SerialBackend,
    as_backend,
    validate_targets,
)
from .baselines import KNNRegressor, LinearRegression, PolynomialRegression
from .checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    ExplorerCheckpoint,
    clear_checkpoint,
    load_checkpoint,
    previous_path,
    save_checkpoint,
)
from .context import RunContext, default_cache_dir, default_n_jobs
from .crossapp import CrossApplicationModel
from .crossval import (
    DEFAULT_FOLDS,
    DEFAULT_MIN_FOLDS,
    CrossValidationEnsemble,
    make_folds,
)
from .encoding import (
    MultiTargetScaler,
    ParameterEncoder,
    TargetScaler,
    design_matrix,
)
from .ensemble import EnsemblePredictor
from .error import ErrorEstimate, ErrorStatistics, percentage_errors
from .faults import (
    INJECTED_CRASH_EXIT,
    CellFaultPlan,
    FaultInjectingBackend,
    FaultPlan,
    InjectedFault,
)
from .fitting import FitOutcome, evaluate_batch, fit_cv_round
from .kernels import (
    DEFAULT_PREDICT_CHUNK,
    EnsembleTrainingKernel,
    TrainingKernel,
    ensemble_predict,
    ensemble_variance,
    member_predictions,
)
from .multitask import auxiliary_target_names
from .network import (
    DEFAULT_HIDDEN_UNITS,
    DEFAULT_INIT_RANGE,
    DEFAULT_LEARNING_RATE,
    DEFAULT_MOMENTUM,
    SATURATION_THRESHOLD,
    FeedForwardNetwork,
    TrainingDiverged,
    WeightHealth,
    warn_unseeded,
)
from .persistence import FORMAT_VERSION, load_predictor, save_predictor
from .resilience import (
    EvaluationTimeout,
    FailedEvaluation,
    ResilientBackend,
    RetryPolicy,
)
from .training import (
    FoldResult,
    FoldTask,
    StackedEnsembleTrainer,
    TrainingConfig,
    TrainingHistory,
    presentation_probabilities,
)

__all__ = [
    "Activation",
    "CHECKPOINT_VERSION",
    "CachingBackend",
    "CheckpointError",
    "CrossApplicationModel",
    "CrossValidationEnsemble",
    "DEFAULT_FOLDS",
    "DEFAULT_MIN_FOLDS",
    "DEFAULT_HIDDEN_UNITS",
    "DEFAULT_INIT_RANGE",
    "DEFAULT_LEARNING_RATE",
    "DEFAULT_MOMENTUM",
    "DEFAULT_PREDICT_CHUNK",
    "EnsemblePredictor",
    "EnsembleTrainingKernel",
    "CellFaultPlan",
    "EvaluationBackend",
    "EvaluationError",
    "EvaluationTimeout",
    "ExplorerCheckpoint",
    "FORMAT_VERSION",
    "ErrorEstimate",
    "ErrorStatistics",
    "FailedEvaluation",
    "FaultInjectingBackend",
    "FaultPlan",
    "INJECTED_CRASH_EXIT",
    "FeedForwardNetwork",
    "FitOutcome",
    "FoldResult",
    "FoldTask",
    "Identity",
    "InjectedFault",
    "KNNRegressor",
    "LinearRegression",
    "MultiTargetScaler",
    "ParameterEncoder",
    "PolynomialRegression",
    "ProcessPoolBackend",
    "ResilientBackend",
    "RetryPolicy",
    "RunContext",
    "SATURATION_THRESHOLD",
    "SerialBackend",
    "Sigmoid",
    "StackedEnsembleTrainer",
    "Tanh",
    "TargetScaler",
    "TrainingConfig",
    "TrainingDiverged",
    "TrainingHistory",
    "TrainingKernel",
    "WeightHealth",
    "as_backend",
    "auxiliary_target_names",
    "clear_checkpoint",
    "default_cache_dir",
    "default_n_jobs",
    "design_matrix",
    "ensemble_predict",
    "ensemble_variance",
    "evaluate_batch",
    "fit_cv_round",
    "member_predictions",
    "get_activation",
    "load_checkpoint",
    "load_predictor",
    "make_folds",
    "percentage_errors",
    "presentation_probabilities",
    "previous_path",
    "save_checkpoint",
    "save_predictor",
    "validate_targets",
    "warn_unseeded",
]
