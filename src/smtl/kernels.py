"""Scalar kernels and training Gram matrices."""

from dataclasses import dataclass

import numpy as np

from .errors import BadKernelParam, DimensionMismatch, NonFinite
from .linalg import psd_clip

KERNEL_KINDS = ("linear", "gaussian")
SYMMETRIZE_BLOCK = 128  # tile side of the in-place self-Gram symmetrization


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and its parameters.

    kind : "linear" or "gaussian"
    gamma : width of the gaussian kernel ``exp(-gamma * ||x - x'||^2)``;
        ignored by the linear kernel, but finite for both, since a model
        file stores it.
    """

    kind: str = "linear"
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise BadKernelParam("unknown kernel kind %r" % (self.kind,))
        if not np.isfinite(self.gamma):
            raise BadKernelParam("kernel gamma must be finite, got %r" % (self.gamma,))
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
    :attr:`GramMatrix.eigenbasis` absorbs). Cross-Gram matrices
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
        _symmetrize(k)
    return k


def _symmetrize(k):
    """Replace a square ``k`` by ``(k + k') / 2`` in place, one pair of
    tiles at a time, so the scratch is one tile rather than the n x n copy
    that ``k += k.T`` makes of its overlapping operand. Each entry is
    computed as ``(k_ij + k_ji) * 0.5``, exactly as there."""
    n, b = k.shape[0], SYMMETRIZE_BLOCK
    for i in range(0, n, b):
        for j in range(i, n, b):
            tile = k[i:i + b, j:j + b] + k[j:j + b, i:i + b].T
            tile *= 0.5
            k[i:i + b, j:j + b] = tile
            k[j:j + b, i:i + b] = tile.T


class GramMatrix:
    """Training Gram matrix bundled with its kernel spec and inputs.

    Construction stores only the spec and the training inputs, which must
    be finite (:class:`~smtl.errors.NonFinite`); nothing is evaluated until
    it is used, and each form is built at most once:

    * ``.raw`` is the symmetrized kernel matrix ``gram(spec, X_train)``, a
      read-only ``(n, n)`` ndarray.
    * ``.eigenbasis`` is ``(U, s)`` with ``K = U diag(s) U'``, U an n x r
      matrix with orthonormal columns and ``s >= 0``: the thin SVD
      ``X = U diag(sqrt(s)) V'`` if ``factored`` (r = d, and ``.raw`` is
      not built), else the eigenpairs of ``.raw`` by ``psd_clip`` (r = n):
      the one PSD rule of every ``PsdMatrix``, at ``tol = 1e-8``, so
      eigenvalues down to ``-1e-8 * max(1, w_max)`` are zero in ``s`` and
      more negative ones raise :class:`~smtl.errors.NotPsd`. It is the
      only decomposition of K a fit makes. A fit with uniform weights runs
      in this basis, in either solver mode
      (see :class:`DiagonalGram`).

    Products with K go through :meth:`dot` (``K @ m``), :meth:`quad`
    (``C'KC``) and :meth:`diag_quads` (the diagonal of ``V'C'KCV``); their
    roundoff is sized by :attr:`dot_terms` and :attr:`fro_norm`. These pick
    their form from the kernel kind and the shape of ``X_train``. A linear
    kernel with ``d < n`` (``factored``) has rank at most ``d < n``: it is
    applied through the n x d inputs as ``X (X' m)`` (2ndT flops against
    n^2 T, and no n x n array read), and ``C'KC`` is ``(X'C)'(X'C)``, so
    C's components in K's null space, which can be of order ``1/lam``,
    add no roundoff to it. Every other kernel multiplies by ``.raw``. So
    ``.raw`` is built only for a kernel that is not ``factored``, or for
    the one-hot route's explicit system matrix, which reads K's entries.

    A model that only predicts (e.g. one read by ``load_model``) builds
    none of them: prediction needs just the spec and ``X_train``. Every
    form depends only on the spec and inputs, so two threads that race on
    a first use at worst compute the same value twice.
    """

    __slots__ = ("spec", "X_train", "_raw", "_basis")

    def __init__(self, spec, x):
        x = np.atleast_2d(np.array(x, dtype=float))
        if not np.all(np.isfinite(x)):
            raise NonFinite("training inputs contain non-finite entries")
        x.setflags(write=False)
        self.spec = spec
        self.X_train = x
        self._raw = None
        self._basis = None

    @property
    def raw(self):
        if self._raw is None:
            k = gram(self.spec, self.X_train)
            k.setflags(write=False)
            self._raw = k
        return self._raw

    @property
    def eigenbasis(self):
        if self._basis is None:
            if self.factored:
                u, sigma, _ = np.linalg.svd(self.X_train, full_matrices=False)
                self._basis = (u, sigma * sigma)
            else:
                k = psd_clip(self.raw, tol=1e-8)
                # row-major, as sym_eig returns it (from_eig's column
                # permutation leaves it column-major): BLAS sums the
                # uniform-weight fits' products with this basis in another
                # order on the other layout
                self._basis = (np.ascontiguousarray(k.eigenvectors),
                               k.eigenvalues)
        return self._basis

    @property
    def factored(self):
        """Whether products go through ``X_train``: a linear kernel with
        ``d < n``, whose rank is below n."""
        return self.spec.kind == "linear" and self.d < self.n

    def dot(self, m):
        """``K @ m``: ``X (X' m)`` if ``factored``, else ``raw @ m``."""
        if self.factored:
            x = self.X_train
            return x @ (x.T @ m)
        return self.raw @ m

    def quad(self, c, kc=None):
        """``C'KC`` (T x T): ``(X'C)'(X'C)`` if ``factored``, else
        ``C'(KC)``. ``kc`` is ``K @ c``, if the caller has it."""
        if self.factored:
            xc = self.X_train.T @ c
            return xc.T @ xc
        return c.T @ (self.dot(c) if kc is None else kc)

    def diag_quads(self, c, kc, v):
        """Diagonal of ``V'C'KCV``, column by column: the squared column
        norms of ``X'CV`` if ``factored``, else ``sum((CV) * (KCV))``.

        The roundoff in each form scales with that column's own size, not
        with ``||C'KC||`` as it would if ``C'KC`` were formed first.
        """
        if self.factored:
            xcv = (self.X_train.T @ c) @ v
            return np.sum(xcv * xcv, axis=0)
        return np.sum((c @ v) * (kc @ v), axis=0)

    @property
    def dot_terms(self):
        """Terms summed into each entry of :meth:`dot`, for its roundoff
        bound: ``n``, or ``n + d`` (``X' m``, then ``X`` times it) if
        ``factored``."""
        return self.n + self.d if self.factored else self.n

    @property
    def fro_norm(self):
        """``||K||_F``, as :meth:`dot` applies K: ``||X'X||_F`` (d x d,
        equal in exact arithmetic) if ``factored``."""
        if self.factored:
            return float(np.linalg.norm(self.X_train.T @ self.X_train))
        return float(np.linalg.norm(self.raw))

    @property
    def n(self):
        return self.X_train.shape[0]

    @property
    def d(self):
        return self.X_train.shape[1]


class DiagonalGram:
    """A Gram matrix that is diagonal, ``K = diag(s)``: a
    :class:`GramMatrix` seen in its own eigenbasis.

    It has the product interface of :class:`GramMatrix` that a
    uniform-weight fit reads (``dot``, ``quad``, ``diag_quads``, ``n``),
    each product O(r T^2) or less. ``C'KC`` and its quadratic forms are
    taken as ``(S C)'(S C)`` and the squared column norms of ``S C V``,
    with ``S = diag(sqrt(s))``, so rows where ``s`` is zero add nothing.
    """

    __slots__ = ("s", "_root")

    def __init__(self, s):
        self.s = np.asarray(s, dtype=float)
        self._root = np.sqrt(self.s)[:, None]

    def dot(self, m):
        """``K @ m``, row ``i`` of ``m`` scaled by ``s_i``."""
        return self.s[:, None] * m

    def quad(self, c, kc=None):
        """``C'KC`` as ``(S C)'(S C)``; ``kc`` is not needed."""
        sc = self._root * c
        return sc.T @ sc

    def diag_quads(self, c, kc, v):
        """Diagonal of ``V'C'KCV``: the squared column norms of ``S C V``."""
        scv = (self._root * c) @ v
        return np.sum(scv * scv, axis=0)

    @property
    def n(self):
        return self.s.shape[0]
