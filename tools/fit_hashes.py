"""Hash a fixed grid of 324 fits, to show that a change leaves fits bit-identical.

Run from the repository root:

    PYTHONPATH=src python3 tools/fit_hashes.py

It prints ``<fits> <failures> <sha1>``. The SHA-1 runs over each fit's own
SHA-1, in grid order: of its objective trajectory, C, ``A.data`` and its
predictions at 5 new inputs, or, for a fit that raises, of the error's
type and message. Two trees that print the same line fit every grid point
to the same bits. Compare lines only from the same numpy and the same BLAS
thread count (``OPENBLAS_NUM_THREADS``), since both change the last bits.

The grid crosses:

* (n, T) in {(30, 6), (8, 12), (120, 4)};
* a linear kernel with d = 3 (a factor, d < n), a linear kernel with
  d = n + 5 (no factor) and a gaussian kernel (gamma = 0.5) with d = 4;
* one-hot weights (row i on task i mod T), uniform weights, and about 30 %
  of the entries masked, with every row observing task 0;
* schatten(1, 1), schatten(2, 0.5), trace_one, cluster(2, 1, 1.2, 0.5),
  cluster(2, 1, 0.5, 2) and fixed(I + 0.3 11'/T);
* altmin and bcd;

at lam = 0.1 and ``max_iter`` 15. Each (n, T, kernel, weights) cell draws
its data from its own seed, so cells do not depend on each other.
"""

import hashlib
import itertools

import numpy as np

from smtl.data import TaskDataset
from smtl.errors import SmtlError
from smtl.kernels import KernelSpec
from smtl.metrics import predict
from smtl.penalties import PenaltySpec
from smtl.solver import SolverConfig, fit

SHAPES = ((30, 6), (8, 12), (120, 4))
WEIGHTS = ("one_hot", "uniform", "masked")
MODES = ("altmin", "bcd")
LAM = 0.1
MAX_ITER = 15


def kernels(n):
    """(d, spec) of each kernel of the grid at n rows."""
    return ((3, KernelSpec("linear")), (n + 5, KernelSpec("linear")),
            (4, KernelSpec("gaussian", gamma=0.5)))


def penalties(n_tasks):
    return (PenaltySpec.schatten(1.0, 1.0), PenaltySpec.schatten(2.0, 0.5),
            PenaltySpec.trace_one(), PenaltySpec.cluster(2, 1.0, 1.2, 0.5),
            PenaltySpec.cluster(2, 1.0, 0.5, 2.0),
            PenaltySpec.fixed(np.eye(n_tasks)
                              + 0.3 * np.ones((n_tasks, n_tasks)) / n_tasks))


def dataset(n, n_tasks, d, weights, seed):
    """A dataset of the grid and 5 new inputs to predict at."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = rng.standard_normal((n, n_tasks))
    rows = np.arange(n)
    if weights == "one_hot":
        w = np.zeros((n, n_tasks))
        w[rows, rows % n_tasks] = 1.0 / n
        task_ids = rows % n_tasks
    else:
        w = np.full((n, n_tasks), 1.0 / n)
        if weights == "masked":
            w *= rng.random((n, n_tasks)) >= 0.3
            w[:, 0] = 1.0 / n
        task_ids = np.zeros(n, dtype=int)
    ds = TaskDataset(X=x, Y=y * (w > 0), W=w, task_ids=task_ids)
    return ds, rng.standard_normal((5, d))


def fit_digest(ds, x_new, spec, penalty, mode):
    """SHA-1 of one fit's numbers, or of its error."""
    h = hashlib.sha1()
    try:
        model, report = fit(ds, spec, penalty, LAM,
                            config=SolverConfig(mode=mode, max_iter=MAX_ITER))
        for arr in (report.objective_trajectory, model.C, model.A.data,
                    predict(model, x_new)):
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        return h.digest(), False
    except (SmtlError, ValueError, np.linalg.LinAlgError) as exc:
        h.update(("%s: %s" % (type(exc).__name__, exc)).encode())
        return h.digest(), True


def main():
    total = hashlib.sha1()
    fits = failures = 0
    for cell, ((n, n_tasks), weights) in enumerate(
            itertools.product(SHAPES, WEIGHTS)):
        for k, (d, spec) in enumerate(kernels(n)):
            ds, x_new = dataset(n, n_tasks, d, weights, 1000 * cell + k)
            for penalty, mode in itertools.product(penalties(n_tasks),
                                                   MODES):
                digest, failed = fit_digest(ds, x_new, spec, penalty, mode)
                total.update(digest)
                fits += 1
                failures += failed
    print(fits, failures, total.hexdigest())


if __name__ == "__main__":
    main()
