"""Nuclear binding-energy regression with small MLPs and data augmentation."""

__version__ = "0.1.0"

from .ame import (DatasetSplit, NuclideRecord, diff_new_nuclei,
                  filter_experimental, parse_mass_table, split_dataset)
from .augment import (AugmentedTrainingSet, error_resample, gaussian_draw,
                      gaussian_resample)
from .experiment import (ResultTable, TrialResult, TrialSpec, pct_change,
                         rms_error, run_trial, sweep)
from .network import (NetworkParams, NetworkSpec, TrainConfig, TrainedModel,
                      backward, forward, init_network, load_model, loss_mse,
                      param_count, save_model, train)
from .optimizers import OptimizerConfig, OptimizerState, init_state, optimizer_step

__all__ = [
    "AugmentedTrainingSet", "DatasetSplit", "NetworkParams", "NetworkSpec",
    "NuclideRecord", "OptimizerConfig", "OptimizerState", "ResultTable",
    "TrainConfig", "TrainedModel", "TrialResult", "TrialSpec",
    "backward", "diff_new_nuclei", "error_resample", "filter_experimental",
    "forward", "gaussian_draw", "gaussian_resample", "init_network",
    "init_state", "load_model", "loss_mse", "optimizer_step", "param_count",
    "parse_mass_table", "pct_change", "rms_error", "run_trial", "save_model",
    "split_dataset", "sweep", "train",
]
