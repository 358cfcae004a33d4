"""Prediction and evaluation metrics."""

import numpy as np

from .errors import (
    BadLabel,
    DimensionMismatch,
    LengthMismatch,
    NonPositiveNmse,
    ZeroVariance,
)
from .kernels import gram


# Test rows per block of the gaussian cross-Gram are chosen so that one
# block holds about this many kernel values (8 MiB of float64).
CROSS_GRAM_BLOCK = 1 << 20


def predict(model, x_new):
    """Predictions of a fitted model at new inputs, one column per task.

    Task t's prediction at x is ``sum_i K(x, x_i) C[i, t]``. No m x n
    (test x training) cross-Gram is formed whole:

    * the linear kernel uses the primal weights, ``x_new @ (X_train' C)``,
      at O((m + n) d T) cost;
    * the gaussian kernel fills the m x T output one block of test rows at
      a time, each block's cross-Gram holding about ``CROSS_GRAM_BLOCK``
      kernel values, so the memory beyond the output is bounded by one
      block (and the squared distances it is built from).
    """
    x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
    spec, x_train = model.gram.spec, model.gram.X_train
    if x_new.shape[1] != model.gram.d:
        raise DimensionMismatch(
            "inputs have %d features, the model was trained with %d"
            % (x_new.shape[1], model.gram.d)
        )
    if spec.kind == "linear":
        return x_new @ (x_train.T @ model.C)
    out = np.empty((x_new.shape[0], model.C.shape[1]))
    rows = max(1, CROSS_GRAM_BLOCK // model.gram.n)
    for i in range(0, x_new.shape[0], rows):
        np.matmul(gram(spec, x_new[i:i + rows], x_train), model.C,
                  out=out[i:i + rows])
    return out


def nmse(y_true, z, mask=None):
    """Normalized mean squared error, averaged over tasks.

    Each task's MSE is divided by the population variance of that task's
    true targets, so predicting the per-task mean scores exactly 1. With
    ``mask`` (a nonnegative matrix, zero marking unobserved entries) both
    the MSE and the variance are computed over observed entries only, and
    tasks with no observed entry are left out of the average (with none
    left, the result is NaN). A task whose observed targets are all equal
    raises :class:`ZeroVariance`.

    All tasks are scored at once by column reductions over one scratch
    array the shape of ``y_true``. Each task's observed targets are first
    shifted by its first observed target, so a task whose targets are all
    equal reads exactly zero (its max equals its min) and is caught without
    roundoff; the variance is the same after the shift. Unobserved entries
    are never read into the sums.
    """
    y_true = np.asarray(y_true, dtype=float)
    z = np.asarray(z, dtype=float)
    if y_true.shape != z.shape:
        raise DimensionMismatch("y_true and z must share a shape")
    # Unmasked, ``where=True`` lets the ufuncs below run unmasked loops.
    keep = True if mask is None else np.asarray(mask) > 0
    if mask is not None and keep.shape != y_true.shape:
        raise DimensionMismatch("mask and y_true must share a shape")
    observed = np.broadcast_to(keep, y_true.shape)
    count = np.count_nonzero(observed, axis=0)
    scored = count > 0
    if not scored.any():
        return float("nan")
    first = y_true[np.argmax(observed, axis=0), np.arange(y_true.shape[1])]
    buf = np.zeros(y_true.shape)
    np.subtract(y_true, first, out=buf, where=keep)
    flat = scored & (buf.max(axis=0) == buf.min(axis=0))
    if flat.any():
        raise ZeroVariance(int(np.argmax(flat)))
    np.subtract(buf, buf.sum(axis=0) / np.maximum(count, 1), out=buf, where=keep)
    np.square(buf, out=buf)
    sq_dev = buf.sum(axis=0)
    np.subtract(y_true, z, out=buf, where=keep)
    np.square(buf, out=buf)
    sq_err = buf.sum(axis=0)
    return float(np.mean(sq_err[scored] / sq_dev[scored]))


def accuracy(labels, z):
    """Fraction of rows whose argmax prediction matches the label.

    Ties pick the smallest column index. Labels must lie in [0, T).
    """
    labels = np.asarray(labels, dtype=int)
    z = np.asarray(z, dtype=float)
    if labels.shape[0] != z.shape[0]:
        raise DimensionMismatch("labels and predictions disagree on row count")
    n_tasks = z.shape[1]
    if labels.size and (labels.min() < 0 or labels.max() >= n_tasks):
        bad = labels[(labels < 0) | (labels >= n_tasks)][0]
        raise BadLabel("label %d outside [0, %d)" % (bad, n_tasks))
    return float(np.mean(np.argmax(z, axis=1) == labels))


def normalized_improvement(stl, mtl):
    """Mean geometric-scale improvement of multi-task over single-task nMSE.

    ``mean((s - m) / sqrt(s * m))`` over paired experiments; positive values
    favor the multi-task fit.
    """
    stl = np.asarray(stl, dtype=float)
    mtl = np.asarray(mtl, dtype=float)
    if stl.shape != mtl.shape:
        raise LengthMismatch("paired nMSE sequences differ in length")
    if np.any(stl <= 0) or np.any(mtl <= 0):
        raise NonPositiveNmse("nMSE values must be strictly positive")
    return float(np.mean((stl - mtl) / np.sqrt(stl * mtl)))
