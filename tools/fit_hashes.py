"""Hash a fixed grid of 324 fits, to show that a change leaves fits bit-identical.

Run from the repository root:

    PYTHONPATH=src python3 tools/fit_hashes.py [--trajectories OUT.json]
    PYTHONPATH=src python3 tools/fit_hashes.py --compare OLD.json NEW.json \
        [--rtol R]

The first form prints ``<fits> <failures> <sha1>``. The SHA-1 runs over
each fit's own SHA-1, in grid order: of its objective trajectory, C,
``A.data`` and its predictions at 5 new inputs, or, for a fit that raises,
of the error's type and message. Two trees that print the same line fit
every grid point to the same bits. Compare lines only from the same numpy
and the same BLAS thread count (``OPENBLAS_NUM_THREADS``), since both
change the last bits. ``--trajectories`` also writes each fit's objective
trajectory, or its error, to a JSON file.

A change that is not bit-identical can still be held to a tolerance: the
second form compares two such files fit by fit. A pair of fits matches if
both raise the same error, or if both trajectories have the same length
and every value agrees within ``R`` relative (default 1e-10). It prints,
for each weight pattern, the fits compared and the largest relative
difference, then every fit that does not match, and exits 1 if any does
not.

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

The models of a cell are kept until the cell ends, so the fits of a cell
share one Gram (see ``smtl.kernels.live_gram``): every fit after the
first that returns a model runs on that model's Gram, with the kernel and
eigenbasis its fit built. A tree where ``fit`` builds a new Gram for each
fit prints the same line only if shared fits are bit-identical to
unshared ones.
"""

import argparse
import hashlib
import itertools
import json
import sys

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
    """SHA-1 of one fit's numbers, or of its error, a record of its
    trajectory (or error) for ``--trajectories``, and the model (None for
    an error)."""
    h = hashlib.sha1()
    try:
        model, report = fit(ds, spec, penalty, LAM,
                            config=SolverConfig(mode=mode, max_iter=MAX_ITER))
        for arr in (report.objective_trajectory, model.C, model.A.data,
                    predict(model, x_new)):
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        return (h.digest(), {"trajectory": report.objective_trajectory},
                model)
    except (SmtlError, ValueError, np.linalg.LinAlgError) as exc:
        error = "%s: %s" % (type(exc).__name__, exc)
        h.update(error.encode())
        return h.digest(), {"error": error}, None


def run_grid(trajectories_path=None):
    total = hashlib.sha1()
    records = []
    for cell, ((n, n_tasks), weights) in enumerate(
            itertools.product(SHAPES, WEIGHTS)):
        for k, (d, spec) in enumerate(kernels(n)):
            ds, x_new = dataset(n, n_tasks, d, weights, 1000 * cell + k)
            models = []  # alive to the cell's end: its fits share a Gram
            for penalty, mode in itertools.product(penalties(n_tasks),
                                                   MODES):
                digest, record, model = fit_digest(ds, x_new, spec, penalty,
                                                   mode)
                models.append(model)
                total.update(digest)
                record.update(n=n, n_tasks=n_tasks, weights=weights,
                              kernel="%s d=%d" % (spec.kind, d),
                              penalty=penalty.kind, mode=mode)
                records.append(record)
    failures = sum("error" in r for r in records)
    print(len(records), failures, total.hexdigest())
    if trajectories_path:
        with open(trajectories_path, "w") as fh:
            json.dump(records, fh)


def _mismatch(old, new):
    """The largest relative difference of two fits' trajectories (NaN if
    a value is infinite in one only), or None if one raises and the other
    does not, their errors differ or their lengths do; 0.0 for two equal
    errors."""
    if "error" in old or "error" in new:
        return 0.0 if old.get("error") == new.get("error") else None
    a, b = np.asarray(old["trajectory"]), np.asarray(new["trajectory"])
    if a.shape != b.shape:
        return None
    with np.errstate(invalid="ignore"):
        rel = np.where(a == b, 0.0,
                       np.abs(a - b) / np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(rel, initial=0.0))


def compare(old_path, new_path, rtol):
    """Compare two ``--trajectories`` files; returns the exit code."""
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    if len(old) != len(new):
        print("the files hold %d and %d fits" % (len(old), len(new)))
        return 1
    worst, bad = {}, []
    for i, (a, b) in enumerate(zip(old, new)):
        diff = _mismatch(a, b)
        count, top = worst.get(a["weights"], (0, 0.0))
        worst[a["weights"]] = (count + 1, top if diff is None
                               else max(top, diff))
        if diff is None or not diff <= rtol:
            bad.append((i, a, b, diff))
    for weights, (count, top) in worst.items():
        print("%s: %d fits, largest relative difference %.3e"
              % (weights, count, top))
    for i, a, b, diff in bad:
        print("fit %d (%s, n=%d, T=%d, %s, %s, %s): %s" % (
            i, a["weights"], a["n"], a["n_tasks"], a["kernel"],
            a["penalty"], a["mode"],
            "%.3e" % diff if diff is not None else "%s / %s" % (
                a.get("error", "trajectory of %d" % len(a.get(
                    "trajectory", ()))),
                b.get("error", "trajectory of %d" % len(b.get(
                    "trajectory", ()))))))
    print("%d of %d fits within rtol %g" % (len(old) - len(bad), len(old),
                                            rtol))
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trajectories", metavar="OUT.json",
                        help="also write each fit's trajectory or error")
    parser.add_argument("--compare", nargs=2, metavar=("OLD.json", "NEW.json"),
                        help="compare two --trajectories files instead")
    parser.add_argument("--rtol", type=float, default=1e-10,
                        help="relative tolerance of --compare")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare, args.rtol)
    run_grid(args.trajectories)
    return 0


if __name__ == "__main__":
    sys.exit(main())
