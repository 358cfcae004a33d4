"""Scalar kernels and training Gram matrices."""

import weakref
import zlib
from dataclasses import dataclass

import numpy as np

# sym_eig and factor_eig are called as linalg.<name> so that a wrapper
# installed on smtl.linalg (tracing, call-counting tests) sees the A-step.
from . import linalg
from .errors import BadKernelParam, DimensionMismatch, NonFinite
from .linalg import psd_clip

KERNEL_KINDS = ("linear", "gaussian")


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

    With ``x2=None`` the self-Gram of ``x1`` is computed, exactly
    symmetric by construction: ``x1`` is C- or F-contiguous (a strided one
    is copied), so ``x1 @ x1.T`` is one BLAS ``syrk``, which fills both
    triangles from one, and the gaussian's later elementwise steps treat
    (i, j) and (j, i) alike. It is not clipped onto the PSD cone (gaussian
    kernels can go slightly indefinite in floating point, which
    :attr:`GramMatrix.eigenbasis` absorbs).

    Returns a plain ``(m, r)`` ndarray.
    """
    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    self_gram = x2 is None
    if self_gram and not x1.flags.forc:
        x1 = np.ascontiguousarray(x1)
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
    return k


class _FactorForm:
    """Products with K written once over its factor form ``K = LL'``
    (L n x r), through the factor product ``L'M`` (``_factor_product``;
    None for a Gram with no factor, whose products read K itself).

    * ``C'KC`` is ``(L'C)'(L'C)``: C's components in K's null space, of
      order ``1/lam`` at small lam, add no roundoff to it.
    * Its eigenpairs, of rank at most r, come from the r x T factor
      ``L'C`` when ``r < T`` (:func:`~smtl.linalg.factor_eig`), with no
      T x T eigendecomposition.
    * Its quadratic forms ``v'C'KCv`` are taken column by column (the
      squared column norms of ``L'CV``, or ``sum((CV) * (KCV))``), so the
      roundoff in each scales with its own column, not with ``||C'KC||``.
      The barrier objective divides them by A's eigenvalues, down to order
      delta, and an error of ``eps ||C'KC||`` would make it rise between
      iterations at tiny barrier sizes.
    """

    __slots__ = ()

    def quad(self, c, kc=None):
        """``C'KC`` (T x T); ``kc`` is ``K @ c``, if the caller has it."""
        lc = self._factor_product(c)
        if lc is None:
            return c.T @ (self.dot(c) if kc is None else kc)
        return lc.T @ lc

    def quad_eig(self, c, kc=None):
        """Eigenpairs of ``C'KC`` as a ``SymEig``. With no factor,
        ``C'(KC)`` is symmetric only up to roundoff, and is symmetrized
        before ``sym_eig``, which reads one triangle; ``(L'C)'(L'C)`` is
        one ``syrk``, exactly symmetric."""
        lc = self._factor_product(c)
        if lc is not None and lc.shape[0] < lc.shape[1]:
            return linalg.factor_eig(lc)
        b = self.quad(c, kc) if lc is None else lc.T @ lc
        return linalg.sym_eig(0.5 * (b + b.T) if lc is None else b)

    def diag_quads(self, c, kc, v):
        """Diagonal of ``V'C'KCV``."""
        lc = self._factor_product(c)
        if lc is None:
            return np.sum((c @ v) * (kc @ v), axis=0)
        lcv = lc @ v
        return np.sum(lcv * lcv, axis=0)


class GramMatrix(_FactorForm):
    """Training Gram matrix bundled with its kernel spec and inputs.

    Construction stores only the spec and the training inputs. These must
    be finite (:class:`~smtl.errors.NonFinite`), with each row's squared
    norm ``x.x`` finite for the linear kernel and ``2 x.x`` finite for the
    gaussian, which adds two of them (``NonFinite``, naming the first row
    that fails, before any kernel entry is computed), and have at least one
    feature column (:class:`~smtl.errors.DimensionMismatch`). Nothing is
    evaluated until it is used, and each form is built at most once:

    * ``.raw`` is the kernel matrix ``gram(spec, X_train)``, a read-only
      ``(n, n)`` ndarray, exactly symmetric (see :func:`gram`).
    * ``.eigenbasis`` is ``(U, s)`` with ``K = U diag(s) U'``, U an n x r
      matrix with orthonormal columns and ``s >= 0``: the thin SVD
      ``L = U diag(sqrt(s)) V'`` of the factor if ``factored`` (r = d, and
      ``.raw`` is not built), else the eigenpairs of ``.raw`` by
      ``psd_clip`` (r = n): the one PSD rule of every ``PsdMatrix``, at
      ``tol = 1e-8``, so eigenvalues down to ``-1e-8 * max(1, w_max)`` are
      zero in ``s`` and more negative ones raise
      :class:`~smtl.errors.NotPsd`. It is the only decomposition of K a
      fit makes. A fit with uniform weights runs in this basis, in either
      solver mode (see :class:`DiagonalGram`).

    Products with K go through :meth:`dot` (``K @ m``) and the shared
    :meth:`quad`, :meth:`quad_eig` and :meth:`diag_quads` (see
    ``_FactorForm``); :attr:`dot_terms` and :attr:`fro_norm` size the
    roundoff of :meth:`dot`, and :meth:`block` gives K's entries at some
    rows. A linear kernel with ``d < n`` (``factored``, rank at most d)
    has factor ``L = X_train`` and is applied as ``X (X' m)``: 2ndT flops
    against n^2 T, and no n x n array read. Every other kernel multiplies
    by ``.raw``, which is built only then, or for the one-hot route, whose
    products read K's entries on every kernel.

    A model that only predicts (e.g. one read by ``load_model``) builds
    none of them: prediction needs just the spec and ``X_train``. Every
    form depends only on the spec and inputs, so two threads that race on
    a first use at worst compute the same value twice.

    For the same reason fits on the same inputs can share one Gram:
    :func:`live_gram` hands ``solver.fit`` the Gram of a model still alive
    whose inputs are bit-for-bit those of a new one, with the forms that
    model's fit built. It holds each Gram weakly, so a Gram lives only as
    long as a model (or a caller) holds it. ``fit`` constructs a new
    Gram first and looks it up after, so every input check runs on each
    fit.
    """

    __slots__ = ("spec", "X_train", "_factor", "_raw", "_basis",
                 "__weakref__")

    def __init__(self, spec, x):
        x = np.atleast_2d(np.array(x, dtype=float))
        if not np.all(np.isfinite(x)):
            raise NonFinite("training inputs contain non-finite entries")
        # the linear kernel computes x.x, the gaussian also x.x + x'.x'
        with np.errstate(over="ignore"):
            sq = np.einsum("ij,ij->i", x, x) * (
                1.0 if spec.kind == "linear" else 2.0)
        overflows = np.flatnonzero(np.isinf(sq))
        if overflows.size:
            raise NonFinite("training input row %d: its squared norm x.x "
                            "overflows in the %s kernel"
                            % (overflows[0], spec.kind))
        if not x.shape[1]:
            raise DimensionMismatch("training inputs have no feature "
                                    "columns, a kernel needs one")
        x.setflags(write=False)
        self.spec = spec
        self.X_train = x
        # L with K = LL': X_train for a linear kernel with d < n, whose
        # rank is below n, else None
        self._factor = x if spec.kind == "linear" and self.d < self.n else None
        self._raw = None
        self._basis = None

    @property
    def evaluated(self):
        """Whether ``.raw`` has been built."""
        return self._raw is not None

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
            if self._factor is not None:
                u, sigma, _ = np.linalg.svd(self._factor, full_matrices=False)
                self._basis = (u, sigma * sigma)
            else:
                k = psd_clip(self.raw, tol=1e-8)
                self._basis = (k.eigenvectors, k.eigenvalues)
        return self._basis

    @property
    def factored(self):
        """Whether K has a factor L, so that products go through it."""
        return self._factor is not None

    def _factor_product(self, m):
        """``L'M`` if ``factored``, else None."""
        return None if self._factor is None else self._factor.T @ m

    def dot(self, m):
        """``K @ m``: ``L (L'm)`` if ``factored``, else ``raw @ m``."""
        lm = self._factor_product(m)
        return self.raw @ m if lm is None else self._factor @ lm

    def block(self, rows):
        """``K[rows][:, rows]``: ``L[rows] L[rows]'`` if ``factored``, so
        ``.raw`` is not built, else taken from ``.raw``."""
        if self._factor is None:
            return self.raw[np.ix_(rows, rows)]
        lr = self._factor[rows]
        return lr @ lr.T

    @property
    def dot_terms(self):
        """Terms summed into each entry of :meth:`dot`, for its roundoff
        bound: ``n``, or ``n + r`` (``L'm``, then ``L`` times it) if
        ``factored``."""
        return (self.n if self._factor is None
                else self.n + self._factor.shape[1])

    @property
    def fro_norm(self):
        """``||K||_F``, as :meth:`dot` applies K: ``||L'L||_F`` (r x r,
        equal in exact arithmetic) if ``factored``."""
        if self._factor is None:
            return float(np.linalg.norm(self.raw))
        return float(np.linalg.norm(self._factor.T @ self._factor))

    @property
    def n(self):
        return self.X_train.shape[0]

    @property
    def d(self):
        return self.X_train.shape[1]


# Grams that fit() built, by their inputs; an entry goes with its Gram
_LIVE_GRAMS = weakref.WeakValueDictionary()


def live_gram(gram):
    """A live Gram on the same inputs as ``gram`` if there is one, else
    ``gram``, which is then registered as live for the fits after it.

    Inputs match when the specs have the same kind and the same bits of
    gamma, and ``X_train`` the same shape, memory order and bits (so
    ``-0.0`` and ``0.0`` differ). An F-ordered copy of the inputs thus has
    a Gram of its own: its kernel can differ from the C-ordered one's in
    the last bits. The registry keys on a CRC-32 of X's bytes (zlib, which
    numpy loads anyway) and compares the bytes exactly on a hit, so a
    collision costs only the sharing. Two threads that race here at worst
    register two equal Grams.
    """
    x = gram.X_train
    bits = x.ravel(order="K").view(np.uint64)
    key = (gram.spec.kind, np.float64(gram.spec.gamma).tobytes(), x.shape,
           x.flags.c_contiguous, zlib.crc32(bits))
    live = _LIVE_GRAMS.get(key)
    if live is not None and np.array_equal(
            live.X_train.ravel(order="K").view(np.uint64), bits):
        return live
    _LIVE_GRAMS[key] = gram
    return gram


class DiagonalGram(_FactorForm):
    """A Gram matrix that is diagonal, ``K = diag(s)``: a
    :class:`GramMatrix` seen in its own eigenbasis, as a uniform-weight
    fit reads it. Its factor is ``L = diag(sqrt(s))`` (r = ``len(s)``), so
    rows where ``s`` is zero add nothing to a product, and each product
    costs O(r T^2) or less (see ``_FactorForm``).
    """

    __slots__ = ("s", "_root")

    def __init__(self, s):
        self.s = np.asarray(s, dtype=float)
        self._root = np.sqrt(self.s)[:, None]

    def dot(self, m):
        """``K @ m``, row ``i`` of ``m`` scaled by ``s_i``."""
        return self.s[:, None] * m

    def _factor_product(self, m):
        """``L'M``, row ``i`` of ``m`` scaled by ``sqrt(s_i)``."""
        return self._root * m

    @property
    def n(self):
        return self.s.shape[0]
