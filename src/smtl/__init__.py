"""Joint learning of task predictors and the structure coupling them.

The model is a matrix of kernel-expansion coefficients C together with a
positive semidefinite task-coupling matrix A; predictions for task t at x
are sums of k(x, x_i) weighted by C and mixed across tasks through A's
role in the regularizer. The solver works on a jointly convex
reformulation with a small barrier on A and alternates exact coefficient
solves with closed-form or projected structure updates.

Quick start::

    from smtl import (KernelSpec, PenaltySpec, SyntheticSpec,
                      synth_generate, fit, predict)

    ds, _ = synth_generate(SyntheticSpec(d=10, n_tasks=5), seed=0)
    model, report = fit(ds, KernelSpec("linear"),
                        PenaltySpec.schatten(p=1.0, mu=1.0), lam=0.1)
    z = predict(model, ds.X)
"""

from . import errors
from .config import RunConfig, load_config, parse_config
from .data import TaskDataset, dataset_from_rows, load_dataset, save_dataset
from .kernels import GramMatrix, KernelSpec, gram
from .linalg import PsdMatrix, pinv_psd, psd_power, schatten, sym_eig
from .metrics import accuracy, nmse, normalized_improvement, predict
from .model_io import load_model, save_model
from .objectives import (
    ProblemInstance,
    eval_Q,
    eval_R,
    eval_S,
    map_Q_to_R,
    map_R_to_Q,
)
from .oracles import OracleReport, brute_force_min_S, random_instance, run_all
from .penalties import (
    PenaltySpec,
    penalty_value,
    project_structure,
    structure_coding,
    structure_graph,
    structure_mean_variance,
    structure_metric,
    unsupervised_min,
)
from .solver import (
    FitReport,
    ModelState,
    SolverConfig,
    fit,
    fit_gram,
    refit_supervised,
    supervised_step,
    unsupervised_step,
)
from .synth import SyntheticSpec, synth_from_weights, synth_generate

__version__ = "0.1.0"

__all__ = [
    "errors",
    "RunConfig", "load_config", "parse_config",
    "TaskDataset", "dataset_from_rows", "load_dataset", "save_dataset",
    "GramMatrix", "KernelSpec", "gram",
    "PsdMatrix", "pinv_psd", "psd_power", "schatten", "sym_eig",
    "accuracy", "nmse", "normalized_improvement", "predict",
    "load_model", "save_model",
    "ProblemInstance", "eval_Q", "eval_R", "eval_S",
    "map_Q_to_R", "map_R_to_Q",
    "OracleReport", "brute_force_min_S", "random_instance", "run_all",
    "PenaltySpec", "penalty_value", "project_structure", "structure_coding",
    "structure_graph", "structure_mean_variance", "structure_metric",
    "unsupervised_min",
    "FitReport", "ModelState", "SolverConfig", "fit", "fit_gram",
    "refit_supervised", "supervised_step", "unsupervised_step",
    "SyntheticSpec", "synth_from_weights", "synth_generate",
    "__version__",
]
