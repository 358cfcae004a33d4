"""Scalar kernels and training Gram matrices."""

from dataclasses import dataclass

import numpy as np

from .errors import BadKernelParam, DimensionMismatch
from .linalg import psd_clip

KERNEL_KINDS = ("linear", "gaussian")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and its parameters.

    kind : "linear" or "gaussian"
    gamma : width of the gaussian kernel ``exp(-gamma * ||x - x'||^2)``;
        ignored by the linear kernel.
    """

    kind: str = "linear"
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise BadKernelParam("unknown kernel kind %r" % (self.kind,))
        if self.kind == "gaussian" and not self.gamma > 0:
            raise BadKernelParam("gaussian kernel needs gamma > 0, got %r" % (self.gamma,))


def pairwise_sq_dists(x1, x2):
    """Squared euclidean distances between rows of two matrices.

    Uses the expansion ``||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b`` and clips
    tiny negatives produced by cancellation. Works in place, so at most two
    ``(m, r)`` arrays are alive at once.
    """
    sq1 = np.sum(x1 * x1, axis=1)[:, None]
    sq2 = np.sum(x2 * x2, axis=1)[None, :]
    d = sq1 + sq2
    dot = x1 @ x2.T
    dot *= 2.0
    d -= dot
    return np.maximum(d, 0.0, out=d)


def gram(spec, x1, x2=None):
    """Kernel matrix between two sets of row vectors.

    With ``x2=None`` the self-Gram of ``x1`` is computed and symmetrized as
    ``(K + K') / 2``; it is not clipped onto the PSD cone (gaussian kernels
    can go slightly indefinite in floating point, which
    :attr:`GramMatrix.K` absorbs in its spectral form). Cross-Gram matrices
    are returned as-is.

    Returns a plain ``(m, r)`` ndarray.
    """
    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    self_gram = x2 is None
    x2 = x1 if self_gram else np.atleast_2d(np.asarray(x2, dtype=float))
    if x1.shape[1] != x2.shape[1]:
        raise DimensionMismatch(
            "feature dimensions differ: %d vs %d" % (x1.shape[1], x2.shape[1])
        )
    if spec.kind == "linear":
        k = x1 @ x2.T
    else:
        k = pairwise_sq_dists(x1, x2)
        k *= -spec.gamma
        np.exp(k, out=k)
    if self_gram:
        k += k.T
        k *= 0.5
    return k


class GramMatrix:
    """Training Gram matrix bundled with its kernel spec and inputs.

    Construction stores only the spec and the training inputs; nothing is
    evaluated until it is used, and each form is built at most once:

    * ``.raw`` is the symmetrized kernel matrix ``gram(spec, X_train)``, a
      read-only ``(n, n)`` ndarray. The objectives and every supervised
      route read it.
    * ``.K`` is its spectral form, a :class:`~smtl.linalg.PsdMatrix` from
      one eigendecomposition of ``.raw``. Eigenvalues down to
      ``-1e-8 * max(1, w_max)`` are clipped to zero in the spectrum only;
      more negative ones raise :class:`~smtl.errors.NotPsd`. Its ``data``
      is ``.raw`` itself. Only the uniform-weight spectral solve and the
      oracles need it.

    A model that only predicts (e.g. one read by ``load_model``) builds
    neither: prediction needs just the spec and ``X_train``. Both forms
    depend only on the spec and inputs, so two threads that race on a first
    use at worst compute the same value twice.
    """

    __slots__ = ("spec", "X_train", "_raw", "_K")

    def __init__(self, spec, x):
        x = np.atleast_2d(np.array(x, dtype=float))
        x.setflags(write=False)
        self.spec = spec
        self.X_train = x
        self._raw = None
        self._K = None

    @property
    def raw(self):
        if self._raw is None:
            k = gram(self.spec, self.X_train)
            k.setflags(write=False)
            self._raw = k
        return self._raw

    @property
    def K(self):
        if self._K is None:
            self._K = psd_clip(self.raw, tol=1e-8, keep_data=True)
        return self._K

    @property
    def n(self):
        return self.X_train.shape[0]

    @property
    def d(self):
        return self.X_train.shape[1]
