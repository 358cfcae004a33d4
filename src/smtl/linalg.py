"""Dense symmetric / positive-semidefinite linear algebra primitives.

All routines work on plain ``numpy`` arrays or on :class:`PsdMatrix`, a thin
wrapper caching the eigendecomposition computed at construction. Functions are
pure and results depend only on their inputs, so everything here is safe to
share across threads.

Conventions used throughout the package:

* eigenvalues are returned in non-increasing order;
* each eigenvector's entry of largest magnitude is positive, which pins an
  otherwise arbitrary sign and keeps repeated runs bit-identical. The
  decompositions (:func:`sym_eig`, :func:`factor_eig`) fix it once; a sign
  flip is exact, so every eigenbasis derived from theirs by a permutation
  or a spectral map keeps it, and :meth:`PsdMatrix.from_eig` keeps the
  eigenvectors it is given;
* symmetry is established where a matrix is made, not where it is
  decomposed: :func:`sym_eig` reads the lower triangle (numpy's ``eigh``
  contract), and a matrix that is symmetric only up to roundoff is
  symmetrized once, as ``(A + A.T) / 2``, by whoever forms it. That is
  :class:`PsdMatrix` for outside input; the package's own products are
  exactly symmetric (``syrk`` products and symmetric elementwise maps) or
  symmetrized where they are formed;
* a :class:`PsdMatrix` spectrum is non-negative by construction: every
  constructor sets eigenvalues at or above ``-tol * max(1, w_max)`` to
  zero and raises :class:`NotPsd` below that (``tol`` is ``RANK_TOL``, or
  :func:`psd_clip`'s own), so no reader clips again;
* rank decisions (pseudoinverses, range projectors, fractional powers)
  count eigenvalues at or below ``RANK_TOL * max(eigenvalue)`` as zero;
* whether a matrix may be inverted (a structure matrix A, B = C'KC +
  delta^2 I in the A-step, the cluster map's ``A^{-1}(M)``, an ``a0`` or
  a prescribed metric) has one answer, strict positivity ``w_min > 0``,
  written only here: :func:`pd_eigenvalues` raises, and
  :meth:`PsdMatrix.is_pd` returns false, exactly when it fails. The
  relative rank test would be wrong there: with barrier size delta, A's
  smallest eigenvalues are of order delta and B's of order delta^2, far
  below ``RANK_TOL * ||A||`` yet legitimately positive.
"""

from collections import namedtuple

import numpy as np

from .errors import (
    BadExponent,
    DimensionMismatch,
    NonFinite,
    NotPsd,
    SingularA,
    SingularMatrix,
)

RANK_TOL = 1e-10


SymEig = namedtuple("SymEig", "eigenvalues eigenvectors")
SymEig.__doc__ = """Eigendecomposition of a symmetric matrix: ``eigenvalues``
sorted non-increasing, and ``eigenvectors`` whose column ``i`` pairs with
``eigenvalues[i]``, its entry of largest magnitude positive."""


def _fix_signs(v):
    # Flip each column of v, a new array, so that its largest-magnitude
    # entry is positive; in place, so that an n x n basis is not copied.
    if not v.shape[0]:  # no rows: no entry to pick, nothing to flip
        return v
    idx = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[idx, np.arange(v.shape[1])])
    signs[signs == 0] = 1.0
    v *= signs
    return v


def sym_eig(a):
    """Eigendecomposition of a symmetric matrix with deterministic signs.

    Parameters
    ----------
    a : (m, m) array_like
        Symmetric. Only its lower triangle is read (``np.linalg.eigh``), so
        a matrix that is symmetric only up to roundoff must be symmetrized
        by its maker (see the module notes).

    Returns
    -------
    SymEig

    Raises
    ------
    DimensionMismatch
        If ``a`` is not a square 2-d array.
    NonFinite
        If ``a`` contains NaN or Inf.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("expected a square matrix, got shape %r" % (a.shape,))
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix contains non-finite entries")
    w, v = np.linalg.eigh(a)
    w = w[::-1].copy()
    v = np.ascontiguousarray(v[:, ::-1])
    return SymEig(w, _fix_signs(v))


def factor_eig(f):
    """Eigendecomposition of ``F'F`` from a wide factor ``F`` (r x T, r < T).

    From the SVD ``F = U diag(sigma) V'`` with V square (T x T), the
    eigenpairs of ``F'F`` are ``sigma**2`` on V's first r columns and zero
    on the other T - r, which the SVD completes to an orthonormal basis
    from Householder reflectors. That costs O(r^2 T + r T^2), against the
    O(T^3) of :func:`sym_eig` on the formed ``F'F``, and ``sigma**2``
    carries the roundoff of ``F``, not that of the T x T product.

    Returns
    -------
    SymEig
        With the sign convention of :func:`sym_eig`.

    Raises
    ------
    NonFinite
        If ``f`` contains NaN or Inf.
    """
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)):
        raise NonFinite("matrix contains non-finite entries")
    _, sigma, vt = np.linalg.svd(f)
    w = np.zeros(f.shape[1])
    w[:sigma.size] = sigma * sigma
    return SymEig(w, _fix_signs(vt.T))


def _clip(w, tol):
    """The one PSD rule (see the module notes) on a non-increasing spectrum:
    ``w`` with its negatives set to zero, or :class:`NotPsd` if one is below
    ``-tol * max(1, w_max)``, too negative to be roundoff."""
    if w.size and w[-1] < -tol * max(1.0, w[0]):
        raise NotPsd("smallest eigenvalue %.3e is below the PSD tolerance "
                     "-%.1e * max(1, w_max)" % (w[-1], tol))
    return np.maximum(w, 0.0)


class PsdMatrix:
    """Symmetric positive semidefinite matrix with a cached spectral form.

    The decomposition is computed once in the constructor and never mutated,
    so instances can be shared freely. ``eigenvalues`` are non-negative
    (see the module notes); those at or below ``RANK_TOL`` times the
    largest count as zero.

    ``data`` is the dense read-only matrix. ``PsdMatrix(data)`` takes
    outside input, symmetric only up to roundoff: it symmetrizes ``data``
    once, as ``(data + data.T) / 2``, decomposes that array and keeps it.
    Instances made by :meth:`from_eig` or :func:`psd_clip` build it from
    the spectral form on first read only, since most of them (barrier
    iterates, B in the A-step, K's eigenbasis) are read through their
    eigenpairs alone. The build is deterministic, so two threads racing on
    it store equal arrays.

    Raises
    ------
    NotPsd
        If the smallest eigenvalue is below ``-RANK_TOL * max(1, w_max)``.
    DimensionMismatch
        If ``data`` is not a square 2-d array.
    """

    __slots__ = ("_data", "eigenvalues", "eigenvectors")

    def __init__(self, data):
        a = np.asarray(data, dtype=float)
        if a.shape == a.shape[::-1]:  # else not square: sym_eig refuses it
            a = 0.5 * (a + a.T)
        w, self.eigenvectors = sym_eig(a)
        self.eigenvalues = _clip(w, RANK_TOL)
        a.setflags(write=False)
        self._data = a

    @classmethod
    def from_eig(cls, eigenvalues, eigenvectors):
        """Build from a known spectral form without re-decomposing.

        Eigenvalues may arrive in any order; they are sorted non-increasing
        (with eigenvectors permuted to match) so invariants hold. The
        eigenvectors are kept as given, so they carry the sign convention
        of the module notes only if they arrive with it, as every
        decomposition here returns them.
        """
        w = np.asarray(eigenvalues, dtype=float)
        order = np.argsort(-w, kind="stable")
        obj = cls.__new__(cls)
        obj._data = None  # built from the eigenpairs on first read of .data
        obj.eigenvalues = _clip(w[order], RANK_TOL)
        obj.eigenvectors = np.asarray(eigenvectors, dtype=float)[:, order]
        return obj

    @property
    def data(self):
        if self._data is None:
            v = self.eigenvectors
            # (V w) V' is symmetric only up to roundoff. numpy buffers
            # the overlapping operand of r += r.T: r_ij + r_ji
            r = (v * self.eigenvalues) @ v.T
            r += r.T
            r *= 0.5
            r.setflags(write=False)
            self._data = r
        return self._data

    @property
    def dim(self):
        return self.eigenvalues.shape[0]

    @property
    def shape(self):
        return (self.dim, self.dim)

    def rank_cut(self):
        """Absolute threshold below which eigenvalues count as zero."""
        return RANK_TOL * self.eigenvalues[0]

    def rank(self):
        return int(np.sum(self.eigenvalues > self.rank_cut()))

    def is_pd(self):
        """True when every eigenvalue is strictly positive, so the matrix
        may be inverted (see the module notes)."""
        return bool(self.eigenvalues[-1] > 0.0)


def _as_psd(a):
    """``a`` itself if it is a :class:`PsdMatrix`, else ``PsdMatrix(a)``."""
    return a if isinstance(a, PsdMatrix) else PsdMatrix(a)


def psd_clip(a, tol=RANK_TOL):
    """Project a nearly-PSD symmetric matrix onto the PSD cone.

    ``a`` must be exactly symmetric: :func:`sym_eig` reads one triangle.

    The :class:`PsdMatrix` rule at tolerance ``tol``: negative eigenvalues
    no smaller than ``-tol * max(1, w_max)`` are clipped to zero, and
    anything more negative raises :class:`NotPsd`. The eigenpairs are
    :func:`sym_eig`'s as it returns them: sorted, with fixed signs, and
    row-major.
    """
    w, v = sym_eig(a)
    k = PsdMatrix.__new__(PsdMatrix)
    k._data = None  # built from the clipped eigenpairs on first read
    k.eigenvalues, k.eigenvectors = _clip(w, tol), v
    return k


def pinv_psd(a):
    """Moore-Penrose pseudoinverse of a PSD matrix via its spectral form."""
    a = _as_psd(a)
    w = a.eigenvalues
    cut = a.rank_cut()
    inv = np.where(w > cut, 1.0 / np.where(w > cut, w, 1.0), 0.0)
    return PsdMatrix.from_eig(inv, a.eigenvectors)


def psd_power(a, q):
    """Fractional (or negative) matrix power of a PSD matrix.

    ``q > 0`` maps zero eigenvalues to zero; ``q < 0`` requires full rank and
    raises :class:`SingularMatrix` otherwise; ``q == 0`` gives the projector
    onto the range.
    """
    a = _as_psd(a)
    w = a.eigenvalues
    cut = a.rank_cut()
    nonzero = w > cut
    if q < 0 and not np.all(nonzero):
        raise SingularMatrix("negative power of a rank-deficient matrix")
    safe = np.where(nonzero, w, 1.0)
    if q == 0:
        powered = np.where(nonzero, 1.0, 0.0)
    else:
        powered = np.where(nonzero, safe ** float(q), 0.0)
    return PsdMatrix.from_eig(powered, a.eigenvectors)


def schatten(a, p):
    """Schatten p-norm of a PSD matrix, ``(sum_i w_i^p)**(1/p)``.

    Raises
    ------
    BadExponent
        If ``p < 1``.
    """
    if p < 1:
        raise BadExponent("Schatten norm requires p >= 1, got %r" % (p,))
    w = _as_psd(a).eigenvalues
    if p == 1:
        return float(np.sum(w))
    if np.isinf(p):
        return float(w[0])
    return float(np.sum(w ** float(p)) ** (1.0 / float(p)))


def range_contained(b, a, tol=1e-8):
    """Whether ``Ran(B)`` lies inside ``Ran(A)`` up to tolerance.

    Checks ``||(I - P_A) B||_F <= tol * (1 + ||B||_F)`` where ``P_A`` is the
    orthogonal projector onto the range of ``A``.
    """
    a = _as_psd(a)
    b_arr = b.data if isinstance(b, PsdMatrix) else np.asarray(b, dtype=float)
    if b_arr.shape[0] != a.dim:
        raise DimensionMismatch(
            "B has %d rows but A is %d x %d" % (b_arr.shape[0], a.dim, a.dim)
        )
    keep = a.eigenvalues > a.rank_cut()
    vr = a.eigenvectors[:, keep]
    resid = b_arr - vr @ (vr.T @ b_arr)
    return bool(
        np.linalg.norm(resid) <= tol * (1.0 + np.linalg.norm(b_arr))
    )


def pd_eigenvalues(a):
    """Eigenvalues of a strictly positive definite matrix, for inverting it.

    ``a`` is a :class:`PsdMatrix` or a :class:`SymEig`. The test is
    :meth:`PsdMatrix.is_pd`'s ``w > 0``, not the relative rank test (see
    the module notes), so barrier iterates with eigenvalues of order delta
    pass.

    Raises
    ------
    SingularA
        If the smallest eigenvalue is not strictly positive.
    """
    w = a.eigenvalues
    if w.size and not w[-1] > 0.0:  # a 0 x 0 matrix has no eigenvalue
        raise SingularA(
            "matrix is not strictly positive definite "
            "(smallest eigenvalue %.3e)" % w[-1]
        )
    return w


def sylvester_ls_solve(k, a, lam, y, ridge=0.0):
    """Solve ``K C + C (lam * A^-1 + ridge * I) = Y`` spectrally.

    This is the stationarity system of the uniform-weight squared loss plus
    the coupled quadratic penalty. With ``K = U diag(s) U.T`` and
    ``A = V diag(d) V.T`` the solution is ``C = U Ct V.T`` where
    ``Ct[i, j] = Yt[i, j] / (s[i] + lam / d[j] + ridge)`` and ``Yt = U.T Y V``.
    A K that is already diagonal, given by its spectrum ``s``, has ``U = I``:
    the solve is then ``Ct V.T`` with ``Yt = Y V``, and costs O(n T^2).

    Parameters
    ----------
    k : PsdMatrix, (n, n) array_like, or (n,) array_like
        Kernel Gram matrix, or the nonnegative diagonal of a diagonal one.
    a : PsdMatrix or (t, t) array_like
        Strictly positive definite structure matrix.
    lam : float
        Coupling weight, must be positive.
    y : (n, t) array_like
        Targets.
    ridge : float, optional
        Additional uncoupled quadratic weight (defaults to 0).

    Raises
    ------
    SingularA
        If ``a`` is not strictly positive definite.
    """
    if np.ndim(k) == 1:
        s = np.asarray(k, dtype=float)
    else:
        k = _as_psd(k)
        s = k.eigenvalues
    a = _as_psd(a)
    y = np.asarray(y, dtype=float)
    if lam <= 0:
        raise ValueError("lam must be positive")
    if y.shape != (s.size, a.dim):
        raise DimensionMismatch(
            "Y has shape %r, expected (%d, %d)" % (y.shape, s.size, a.dim)
        )
    if np.ndim(k) != 1:  # solve in K's eigenbasis, where K is diag(s)
        u = k.eigenvectors
        return u @ sylvester_ls_solve(s, a, lam, u.T @ y, ridge)
    d = pd_eigenvalues(a)
    v = a.eigenvectors
    return (y @ v / (s[:, None] + lam / d[None, :] + ridge)) @ v.T

