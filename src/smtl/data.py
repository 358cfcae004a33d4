"""Task datasets, the long CSV format, and the weighted squared loss.

The canonical on-disk format is a long CSV with header
``task,y,x1,...,xd``: one observed example per line, task ids 0-based. In
memory the targets are spread into an ``(n, T)`` matrix ``Y`` that is only
observed at each row's own task; the matching weight matrix ``W`` carries
``1/n_t`` there (or ``1/n`` with uniform weighting) and zero elsewhere, so
masked losses fall out of the same formulas as dense ones.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadLabel,
    DimensionMismatch,
    EmptyTask,
    InconsistentDimension,
    ParseError,
)

WEIGHTINGS = ("per_task", "uniform")


@dataclass
class TaskDataset:
    """Stacked multi-task data.

    X : (n, d) inputs, rows grouped in any order
    Y : (n, T) targets, zero at unobserved entries
    W : (n, T) nonnegative loss weights, zero marks unobserved entries
    task_ids : (n,) 0-based task of each row
    task_sizes : (T,) number of rows per task, ``bincount(task_ids)`` if
        not given
    Task ids and sizes are non-negative integers (:class:`BadLabel`), one
    per row and one per task (:class:`DimensionMismatch`).
    """

    X: np.ndarray
    Y: np.ndarray
    W: np.ndarray
    task_ids: np.ndarray
    task_sizes: np.ndarray = field(default=None)

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.Y = np.asarray(self.Y, dtype=float)
        self.W = np.asarray(self.W, dtype=float)
        if self.Y.shape != self.W.shape or self.Y.shape[0] != self.X.shape[0]:
            raise DimensionMismatch("X, Y, W row counts or Y/W shapes disagree")
        ids = _non_negative_ints(self.task_ids, "row %d: task id")
        if ids.shape != (self.n,):
            raise DimensionMismatch("task_ids must hold one id per row of X")
        if ids.size and ids.max() >= self.n_tasks:
            raise BadLabel("row %d: task id %d is not below Y's %d tasks"
                           % (ids.argmax(), ids.max(), self.n_tasks))
        self.task_ids = ids.astype(int)
        if self.task_sizes is None:
            self.task_sizes = np.bincount(self.task_ids, minlength=self.Y.shape[1])
        sizes = _non_negative_ints(self.task_sizes, "task %d: size")
        if sizes.shape != (self.n_tasks,):
            raise DimensionMismatch("task_sizes must hold one size per task "
                                    "of Y")
        self.task_sizes = sizes.astype(int)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]

    @property
    def n_tasks(self):
        return self.Y.shape[1]

    @property
    def y_observed(self):
        """Per-row observed target, ``Y[i, task_ids[i]]``."""
        return self.Y[np.arange(self.n), self.task_ids]


def _non_negative_ints(values, what):
    """``values`` as floats, once each is a non-negative integer, given as
    an integer or as an integral float such as ``1.0``; any other value
    raises :class:`BadLabel`, naming it by ``what % index`` (0-based), as
    in ``"row %d: task id"``. As floats, values past int64 (object
    entries) are compared and capped without overflow."""
    vals = np.asarray(values).astype(float)
    bad = np.flatnonzero(~(np.isfinite(vals) & (vals >= 0))
                         | (vals != np.floor(vals)))
    if bad.size:
        raise BadLabel("%s %s is not a non-negative integer"
                       % (what % bad[0], np.asarray(values).flat[bad[0]]))
    return vals


def dataset_from_rows(task_ids, y, x, weighting="per_task"):
    """Assemble a :class:`TaskDataset` from per-row task ids, targets, inputs.

    Task ids are non-negative integers, given as integers or as integral
    floats such as ``1.0``; any other id raises :class:`BadLabel`, naming
    its (0-based) row.
    """
    if weighting not in WEIGHTINGS:
        raise ValueError("weighting must be one of %r" % (WEIGHTINGS,))
    ids = _non_negative_ints(task_ids, "row %d: task id")
    n = ids.shape[0]
    # Ids are counted capped at n, so no array is sized by a larger id and
    # no int conversion overflows on it. An id at or past n always leaves a
    # task below it without rows, and the first zero count is the smallest.
    sizes = np.bincount(np.minimum(ids, n).astype(int))
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise EmptyTask(int(empty[0]))
    task_ids, n_tasks = ids.astype(int), sizes.size
    ymat, wmat = np.zeros((n, n_tasks)), np.zeros((n, n_tasks))
    rows = np.arange(n)
    ymat[rows, task_ids] = y
    wmat[rows, task_ids] = 1.0 / (sizes[task_ids] if weighting == "per_task"
                                  else n)
    return TaskDataset(X=x, Y=ymat, W=wmat, task_ids=task_ids, task_sizes=sizes)


def load_dataset(path, weighting="per_task"):
    """Load a long-format CSV file.

    Parameters
    ----------
    path : str or Path
    weighting : "per_task" (weight 1/n_t on each observed entry) or
        "uniform" (weight 1/n)

    Raises
    ------
    ParseError
        Malformed header or unparseable value, with a 1-based line number.
    InconsistentDimension
        A row's feature count differs from the header's.
    EmptyTask
        Some task id in [0, max_id] has no rows.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    # A trailing newline leaves one empty tail element; drop empties at the end
    while lines and lines[-1].strip("\r") == "":
        lines.pop()
    if not lines:
        raise ParseError(1, "empty file, expected header task,y,x1,...")
    header = [f.strip() for f in lines[0].rstrip("\r").split(",")]
    if len(header) < 2 or header[0] != "task" or header[1] != "y":
        raise ParseError(1, "header must start with task,y")
    d = len(header) - 2
    for j, name in enumerate(header[2:]):
        if name != "x%d" % (j + 1):
            raise ParseError(1, "feature column %d must be named x%d" % (j + 3, j + 1))
    if len(lines) == 1:
        raise ParseError(2, "file contains no data rows")

    task_ids, ys, xs = [], [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        fields = raw.rstrip("\r").split(",")
        if len(fields) != d + 2:
            raise InconsistentDimension(
                "line %d has %d feature columns, header has %d"
                % (lineno, len(fields) - 2, d)
            )
        try:
            t = int(fields[0])
        except ValueError:
            raise ParseError(lineno, "task id %r is not an integer" % fields[0])
        if t < 0:
            raise ParseError(lineno, "task id must be >= 0, got %d" % t)
        try:
            values = [float(f) for f in fields[1:]]
        except ValueError:
            raise ParseError(lineno, "non-numeric value in %r" % raw)
        if not all(map(math.isfinite, values)):
            raise ParseError(lineno, "non-finite value in %r" % raw)
        task_ids.append(t)
        ys.append(values[0])
        xs.append(values[1:])
    return dataset_from_rows(task_ids, ys, xs, weighting=weighting)


def save_dataset(ds, path):
    """Write a dataset back to long CSV, 17 significant digits per value.

    ``load_dataset(save_dataset(ds))`` reproduces X and the observed targets
    bit-for-bit. The long CSV holds one observed entry per row, at the
    row's task id, so a dataset with a row observed (``W > 0``) anywhere
    else, or nowhere, raises :class:`DimensionMismatch`, naming the row.
    """
    one_hot = np.eye(ds.n_tasks, dtype=bool)[ds.task_ids]
    bad = np.flatnonzero(np.any((ds.W > 0) != one_hot, axis=1))
    if bad.size:
        raise DimensionMismatch("row %d: the long CSV needs its only observed "
                                "entry at its task id" % bad[0])
    header = "task,y," + ",".join("x%d" % (j + 1) for j in range(ds.d))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        np.savetxt(fh, np.column_stack([ds.task_ids, ds.y_observed, ds.X]),
                   fmt=["%d"] + ["%.17g"] * (ds.d + 1), delimiter=",",
                   header=header, comments="")


def loss_value_grad(y, z, w):
    """Weighted squared loss and its gradient in the predictions.

    Returns ``(value, grad)`` with ``value = sum(W * (Y - Z)**2)`` and
    ``grad = -2 W * (Y - Z)`` (gradient with respect to ``Z``).
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    if y.shape != z.shape or y.shape != w.shape:
        raise DimensionMismatch(
            "Y, Z, W must share a shape, got %r %r %r" % (y.shape, z.shape, w.shape)
        )
    r = y - z
    return float(np.sum(w * r * r)), -2.0 * w * r
