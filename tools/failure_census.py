"""Classify the outcome of a fixed grid of 972 fits, to track which fail.

Run from the repository root:

    PYTHONPATH=src python3 tools/failure_census.py [--list]

It prints one line per (weight pattern, outcome): the pattern, the
outcome, the number of fits and, for each axis of the grid, the values
those fits span. An outcome is:

* ``clean``: the fit returns, S >= 0 at every iterate, and no iterate is
  above the one before it by more than 1e-10 relative;
* ``negative``: the fit returns and some iterate has S < 0, which
  roundoff alone can cause, since every term of S is non-negative under
  the grid's schatten penalty;
* ``rise``: the fit returns, S >= 0, and some iterate is above the one
  before it by more than 1e-10 relative;
* the class name of the package error (``SmtlError``) the fit raises.

Fits are classified, never filtered out. ``--list`` also prints each fit
that is not clean, one line each. Counts can move in the last bits with
numpy and the BLAS thread count (``OPENBLAS_NUM_THREADS``), so compare
lines only from the same of both.

The grid crosses T in {2, 3, 6}, d in {1, 3, 30}, a gaussian kernel with
gamma in {1e-4, 0.3, 50}, lam in {1e-10, 1e-6, 1e-2} and a fixed barrier
delta in {1e-8, 1e-3, 10}, at 8 rows per task, schatten(1, 1), altmin
and ``max_iter`` 60, for seeds 0 and 1 and two weight patterns:

* ``one_hot``: ``synth_generate(SyntheticSpec(d, T, n_per_task=8,
  relatedness=0.5), seed=(seed, T, d))``, one observed entry per row;
* ``masked``: the same data, with every row observing its own task and
  each other entry kept with probability 0.7, drawn from
  ``default_rng((seed, 99))``. Every observed target gets N(0, 0.1^2)
  noise added, so a kept entry off the row's task holds noise only, and
  every observed entry has weight 1.
"""

import argparse
import itertools
from collections import defaultdict

import numpy as np

from smtl.data import TaskDataset
from smtl.errors import SmtlError
from smtl.kernels import KernelSpec
from smtl.penalties import PenaltySpec
from smtl.solver import SolverConfig, fit
from smtl.synth import SyntheticSpec, synth_generate

WEIGHTS = ("one_hot", "masked")
AXES = {
    "T": (2, 3, 6),
    "d": (1, 3, 30),
    "gamma": (1e-4, 0.3, 50.0),
    "lam": (1e-10, 1e-6, 1e-2),
    "delta": (1e-8, 1e-3, 10.0),
    "seed": (0, 1),
}
N_PER_TASK = 8
RISE_RTOL = 1e-10


def dataset(weights, n_tasks, d, seed):
    """The dataset of one (weights, T, d, seed) cell of the grid."""
    ds, _ = synth_generate(SyntheticSpec(d=d, n_tasks=n_tasks,
                                         n_per_task=N_PER_TASK,
                                         relatedness=0.5),
                           seed=(seed, n_tasks, d))
    if weights == "one_hot":
        return ds
    rng = np.random.default_rng((seed, 99))
    observed = (rng.random(ds.Y.shape) < 0.7) | (ds.W > 0)
    y = (ds.Y + 0.1 * rng.standard_normal(ds.Y.shape)) * observed
    return TaskDataset(X=ds.X, Y=y, W=observed * 1.0,
                       task_ids=ds.task_ids,
                       task_sizes=observed.sum(axis=0))


def outcome(ds, gamma, lam, delta):
    """The outcome of one fit (see the module docstring)."""
    try:
        _, rep = fit(ds, KernelSpec("gaussian", gamma=gamma),
                     PenaltySpec.schatten(1.0, 1.0), lam,
                     config=SolverConfig(max_iter=60, delta=delta))
    except SmtlError as exc:
        return type(exc).__name__
    traj = np.asarray(rep.objective_trajectory)
    if np.any(traj < 0):
        return "negative"
    if np.any(np.diff(traj) > RISE_RTOL * np.abs(traj[:-1])):
        return "rise"
    return "clean"


def census():
    """``(weights, outcome, settings)`` of every fit, in grid order."""
    for weights in WEIGHTS:
        for n_tasks, d, seed in itertools.product(
                AXES["T"], AXES["d"], AXES["seed"]):
            ds = dataset(weights, n_tasks, d, seed)
            for gamma, lam, delta in itertools.product(
                    AXES["gamma"], AXES["lam"], AXES["delta"]):
                settings = dict(T=n_tasks, d=d, gamma=gamma, lam=lam,
                                delta=delta, seed=seed)
                yield weights, outcome(ds, gamma, lam, delta), settings


def spans(fits):
    """For each axis, the values that ``fits`` take, as ``name=v1,v2``."""
    return " ".join(
        "%s=%s" % (name, ",".join("%g" % v for v in values
                                  if any(s[name] == v for s in fits)))
        for name, values in AXES.items())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true",
                        help="also print each fit that is not clean")
    args = parser.parse_args(argv)
    groups = defaultdict(list)
    for weights, result, settings in census():
        groups[weights, result].append(settings)
        if args.list and result != "clean":
            print("fit %-8s %-18s %s" % (weights, result, spans([settings])))
    for weights, result in sorted(groups, key=lambda k: (
            WEIGHTS.index(k[0]), k[1])):
        fits = groups[weights, result]
        print("%-8s %-18s %4d  %s" % (weights, result, len(fits), spans(fits)))


if __name__ == "__main__":
    main()
