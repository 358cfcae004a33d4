"""Synthetic multi-task regression problems with tunable relatedness.

Task weight vectors mix an independent draw with a shared one:
``w_t = sqrt(1 - rho) * g_t + sqrt(rho) * g``, all components standard
normal, so ``rho = 0`` gives unrelated tasks and ``rho = 1`` identical
ones. Inputs are standard normal; targets add gaussian noise.

Draw order is fixed (shared vector, per-task vectors, inputs, noise) and
all randomness flows through ``numpy.random.default_rng``, so a seed pins
the dataset bit-for-bit. Seeds may be tuples such as ``(seed, trial)``,
which derive independent substreams from one base seed.
"""

from dataclasses import dataclass

import numpy as np

from .data import dataset_from_rows


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and difficulty of a synthetic problem."""

    d: int
    n_tasks: int
    n_per_task: int = 30
    noise_sd: float = 0.1
    relatedness: float = 0.0

    def __post_init__(self):
        if self.d < 1 or self.n_tasks < 1 or self.n_per_task < 1:
            raise ValueError("d, n_tasks, n_per_task must be positive")
        if not (0.0 <= self.relatedness <= 1.0):
            raise ValueError("relatedness must lie in [0, 1]")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be nonnegative")


def synth_generate(spec, seed, weighting="per_task"):
    """Generate a dataset and return it with the true weights.

    Returns
    -------
    (TaskDataset, (d, T) ndarray)
        Rows are grouped by task, task 0 first.
    """
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal(spec.d)
    per_task = rng.standard_normal((spec.d, spec.n_tasks))
    rho = spec.relatedness
    w_true = np.sqrt(1.0 - rho) * per_task + np.sqrt(rho) * shared[:, None]
    ds = synth_from_weights(
        w_true, spec.n_per_task, spec.noise_sd, rng, weighting=weighting
    )
    return ds, w_true


def synth_from_weights(w_true, n_per_task, noise_sd, rng, weighting="per_task"):
    """Draw fresh inputs and noisy targets for known task weights.

    Useful for test sets that share the training tasks' ground truth.
    """
    w_true = np.asarray(w_true, dtype=float)
    d, n_tasks = w_true.shape
    n = n_tasks * n_per_task
    x = rng.standard_normal((n, d))
    noise = noise_sd * rng.standard_normal(n)
    task_ids = np.repeat(np.arange(n_tasks), n_per_task)
    y = np.einsum("ij,ji->i", x, w_true[:, task_ids]) + noise
    return dataset_from_rows(task_ids, y, x, weighting=weighting)
