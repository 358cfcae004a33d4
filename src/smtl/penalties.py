"""Structure penalties and their closed-form minimizers.

A penalty ``F(A)`` on the task-coupling matrix selects the flavour of
structure learning. Four kinds are supported:

* ``schatten(p, mu)`` : ``mu * ||A||_p^p``, the smooth family covering
  Frobenius-style output kernel learning (p=2) and trace-style feature
  learning (p=1);
* ``trace_one`` : indicator of ``{A PSD, tr(A) = 1}``;
* ``cluster(r, eps)`` : indicator of the set of matrices whose inverse is the
  affine image ``(eps_b - eps_w) * M + (eps_m - eps_b) * U + eps_w * I`` of a
  relaxed cluster assignment ``M`` in ``S_c = {0 <= M <= I, tr(M) = r}``
  with ``U = 11'/T``; for r < T, ``eps_b < eps_m + eps_w``
  (:func:`check_tasks`);
* ``fixed(A0)`` : indicator of a single prescribed matrix.

For each penalty, :func:`unsupervised_min` returns the exact minimizer of
``lam * tr(A^-1 B) + F(A)`` over strictly PD matrices, which is the
structure update of the alternating algorithm. For schatten and trace_one
the minimizer shares eigenvectors with ``B`` and only eigenvalues get
remapped; for cluster, ``A^-1 - (eps_m - eps_b) * U`` does, because the
minimizing M is spanned by eigenvectors of ``B``. For each penalty,
:func:`project_structure` maps a symmetric matrix onto the set its
structure may take, which is the A-step of the gradient (bcd) algorithm:
for schatten that set is ``{A >= 1e-12 I}``.

The cluster map ``M -> A`` is written once (:func:`_cluster_structure`),
for M given by a factor Z, ``M = ZZ'``. Off ``span[Z, 1]`` the matrix
``A^{-1}(M)`` is ``eps_w * I``, so the map takes a k x k eigenproblem on
that span, k <= min(m + 1, T) for a T x m factor, and gives the rest of
the space the one eigenvalue ``1/eps_w``. Z enters only when
``eps_b != eps_w`` and the ones vector only when ``eps_m != eps_b``: with
``eps_b == eps_w`` the map never reads Z, so every M gives the same A, bit
for bit. Its inverse is
read in A's eigenbasis (:func:`_cluster_assignment`), where ``V'MV`` is a
diagonal minus a rank-one term: membership needs only A's eigenpairs, and
M's spectrum comes by deflation (:func:`_assignment_spectrum`) from a
problem with one row per distinct eigenvalue of A, k + 1 or fewer for an
A of the cluster map.

The ``structure_*`` builders return a ``PsdMatrix`` for
:meth:`PenaltySpec.fixed`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricAdjacency, BadPenaltyParam, BadRank, NotPd
from .linalg import (
    PsdMatrix, _as_psd, _fix_signs, pd_eigenvalues, pinv_psd, psd_clip, sym_eig,
)

PENALTY_KINDS = ("schatten", "trace_one", "cluster", "fixed")


@dataclass(frozen=True, eq=False)
class PenaltySpec:
    """Penalty kind plus its parameters. Build via the classmethods, which
    reject a parameter that is out of range or not finite, and a cluster
    count ``r`` that is not an integer (:class:`BadRank`)."""

    kind: str
    p: float = 1.0
    mu: float = 1.0
    r: int = 1
    eps_m: float = 1.0
    eps_b: float = 1.0
    eps_w: float = 1.0
    a0: object = None

    @classmethod
    def schatten(cls, p=1.0, mu=1.0):
        if not 1 <= p < np.inf:
            raise BadPenaltyParam("schatten exponent must be finite, p >= 1")
        if not 0 < mu < np.inf:
            raise BadPenaltyParam("schatten weight mu must be positive and finite")
        return cls(kind="schatten", p=float(p), mu=float(mu))

    @classmethod
    def trace_one(cls):
        return cls(kind="trace_one")

    @classmethod
    def cluster(cls, r=1, eps_m=1.0, eps_b=1.0, eps_w=1.0):
        if not (1 <= r < np.inf and int(r) == r):
            raise BadRank("cluster count r must be a positive integer")
        if not all(0 < e < np.inf for e in (eps_m, eps_b, eps_w)):
            raise BadPenaltyParam("cluster epsilon weights must be positive and finite")
        return cls(
            kind="cluster", r=int(r),
            eps_m=float(eps_m), eps_b=float(eps_b), eps_w=float(eps_w),
        )

    @classmethod
    def fixed(cls, a0):
        return cls(kind="fixed", a0=_as_psd(a0))

    @property
    def smooth(self):
        """True for penalties with a gradient (only the Schatten family)."""
        return self.kind == "schatten"


def _ones_projector(n_tasks):
    return np.full((n_tasks, n_tasks), 1.0 / n_tasks)


def check_tasks(spec, n_tasks):
    """Raise when the penalty's parameters do not fit ``n_tasks`` tasks.

    For r < T, cluster weights with ``eps_b >= eps_m + eps_w`` are rejected:
    a rank-r projector M orthogonal to the ones vector makes ``A^-1(M)``
    singular or indefinite. Else ``lambda_min(A^-1(M)) >= min(eps_m, eps_b,
    eps_w, eps_m + eps_w - eps_b)`` on ``S_c``; at r = T, M = I is PD.
    """
    if spec.kind == "cluster" and spec.r > n_tasks:
        raise BadRank("cluster count r=%d exceeds T=%d" % (spec.r, n_tasks))
    if (spec.kind == "cluster" and spec.r < n_tasks
            and spec.eps_b >= spec.eps_m + spec.eps_w):
        raise BadPenaltyParam(
            "cluster weights eps_m=%g, eps_b=%g, eps_w=%g need "
            "eps_b < eps_m + eps_w when r < T"
            % (spec.eps_m, spec.eps_b, spec.eps_w))
    if spec.kind == "fixed" and spec.a0.dim != n_tasks:
        raise BadPenaltyParam("fixed structure is not %d x %d" % (n_tasks, n_tasks))


def _cluster_structure(spec, z):
    """The cluster map ``M -> A`` for ``M = ZZ'`` (Z is T x m): invert
    ``A^{-1}(M) = eps_w I + (eps_b - eps_w) ZZ' + (eps_m - eps_b) uu'``,
    with u the ones vector over ``sqrt(T)``, so that ``U = uu'``.

    Only the terms with a nonzero weight are kept, at most m + 1 columns.
    With k their count, or T if that is less, the first k columns Q_k of
    a complete QR of those columns contain their span, which
    ``A^{-1}(M)`` maps into itself: there it is the k x k
    ``Q_k' A^{-1}(M) Q_k``, eigendecomposed, and on the other T - k
    columns of the QR it is ``eps_w I``. :func:`check_tasks` keeps
    ``A^{-1}(M)`` PD on ``S_c``; the inverse is taken through
    :func:`pd_eigenvalues`. The QR's columns carry no sign convention, so
    the eigenvectors are signed here (see :mod:`smtl.linalg`).
    """
    n_tasks = z.shape[0]
    u = np.full((n_tasks, 1), n_tasks ** -0.5)
    terms = [(coef, f) for coef, f in ((spec.eps_b - spec.eps_w, z),
                                       (spec.eps_m - spec.eps_b, u)) if coef]
    span = np.hstack([np.empty((n_tasks, 0))] + [f for _, f in terms])
    q = np.linalg.qr(span, mode="complete")[0]
    k = min(span.shape[1], n_tasks)
    h = spec.eps_w * np.eye(k)
    for coef, f in terms:
        fq = f.T @ q[:, :k]
        h += coef * (fq.T @ fq)
    e = sym_eig(h)
    w = np.full(n_tasks, 1.0 / spec.eps_w)
    w[:k] = 1.0 / pd_eigenvalues(e)
    return PsdMatrix.from_eig(
        w, _fix_signs(np.hstack((q[:, :k] @ e.eigenvectors, q[:, k:]))))


def _cluster_assignment(spec, inv_w, g):
    """``V'MV`` for the M that the cluster map takes to ``V diag(inv_w) V'``,
    given ``g = V'1 / sqrt(T)``.

    In the basis V, ``U = gg'``. When ``eps_b == eps_w`` M cannot be read
    back from A, and the numerator ``V'(A^{-1} - A^{-1}(0))V`` is returned
    undivided.
    """
    num = (np.diag(inv_w - spec.eps_w)
           - (spec.eps_m - spec.eps_b) * np.outer(g, g))
    gap = spec.eps_b - spec.eps_w
    return num / gap if gap else num


def _assignment_spectrum(spec, inv_w, g):
    """Eigenvalues, unordered, of ``_cluster_assignment(spec, inv_w, g)``
    for ``eps_b != eps_w``, by deflation.

    A rotation within each group of equal ``inv_w`` entries that turns
    the group's part of g onto one axis leaves the matrix's diagonal part
    alone. So a group of m entries keeps m - 1 eigenvalues equal to its
    diagonal entry, and the rest of the spectrum is that of the same
    diagonal-minus-rank-one form with one row per group, whose g entry is
    the norm of g over the group. This is exact for any A.
    """
    vals, group, counts = np.unique(inv_w, return_inverse=True,
                                    return_counts=True)
    h = np.sqrt(np.bincount(group, weights=g * g))
    ties = (vals - spec.eps_w) / (spec.eps_b - spec.eps_w)
    return np.concatenate((
        np.linalg.eigvalsh(_cluster_assignment(spec, vals, h)),
        np.repeat(ties, counts - 1)))


def penalty_value(spec, a):
    """Evaluate ``F(A)``; indicator penalties return 0 or ``inf``."""
    a = _as_psd(a)
    check_tasks(spec, a.dim)
    w = a.eigenvalues
    if spec.kind == "schatten":
        return float(spec.mu * np.sum(w ** spec.p))
    if spec.kind == "trace_one":
        return 0.0 if abs(float(np.sum(w)) - 1.0) <= 1e-8 else float("inf")
    if spec.kind == "fixed":
        return (
            0.0
            if np.linalg.norm(a.data - spec.a0.data) <= 1e-8
            else float("inf")
        )
    if not a.is_pd():
        return float("inf")
    inv_w = 1.0 / a.eigenvalues
    g = a.eigenvectors.sum(axis=0) / np.sqrt(a.dim)
    if spec.eps_b == spec.eps_w:
        m = _cluster_assignment(spec, inv_w, g)
        ok = np.linalg.norm(m) <= 1e-6 * (1.0 + np.linalg.norm(inv_w))
    else:
        # M's spectrum must lie in [0, 1], sum r
        mw = _assignment_spectrum(spec, inv_w, g)
        ok = (np.min(mw) >= -1e-6 and np.max(mw) <= 1.0 + 1e-6
              and abs(float(np.sum(mw)) - spec.r) <= 1e-6)
    return 0.0 if ok else float("inf")


def unsupervised_min(spec, b, lam):
    """Exact minimizer of ``lam * tr(A^-1 B) + F(A)`` over PD matrices.

    Parameters
    ----------
    spec : PenaltySpec
    b : PsdMatrix or array, strictly PD
    lam : float, positive weight on the trace term

    Returns
    -------
    PsdMatrix
        The minimizing structure matrix. For schatten and trace_one it
        commutes with ``b``; for cluster, ``A^-1 - (eps_m - eps_b) * U``
        does.

    Raises
    ------
    SingularA
        If ``b`` is not strictly positive definite (a ``NotStrictlyPd``).

    Notes
    -----
    Per penalty kind the eigenvalue maps are

    * schatten: ``gamma_i = (lam * sigma_i / (mu * p)) ** (1 / (p + 1))``,
      i.e. ``A = (lam / (mu p) * B) ** (1/(p+1))`` as a matrix power;
    * trace_one: ``A = B^{1/2} / tr(B^{1/2})``;
    * cluster: the trace term is affine in the assignment ``M``, so the
      minimum over the spectahedron sits at an extreme point spanned by
      eigenvectors of ``B`` (the r smallest when eps_b > eps_w, the r
      largest when eps_b < eps_w; ties broken by eigenvector index);
    * fixed: ``A0`` independent of ``B``.
    """
    b = _as_psd(b)
    if not lam > 0:
        raise BadPenaltyParam("lam must be positive")
    sigma = pd_eigenvalues(b)
    v = b.eigenvectors
    n_tasks = b.dim
    check_tasks(spec, n_tasks)

    if spec.kind == "schatten":
        gamma = (lam * sigma / (spec.mu * spec.p)) ** (1.0 / (spec.p + 1.0))
        return PsdMatrix.from_eig(gamma, v)

    if spec.kind == "trace_one":
        root = np.sqrt(sigma)
        return PsdMatrix.from_eig(root / np.sum(root), v)

    if spec.kind == "fixed":
        return spec.a0

    # B's r smallest eigenvalues when eps_b > eps_w, else its r largest
    vs = v[:, n_tasks - spec.r:] if spec.eps_b > spec.eps_w else v[:, :spec.r]
    return _cluster_structure(spec, vs)


def project_capped_simplex(v, r):
    """Euclidean projection onto ``{x in [0,1]^T : sum(x) = r}``.

    The projection is ``x_i = clip(v_i - tau, 0, 1)``. The sum is piecewise
    linear and nonincreasing in ``tau``, with breakpoints at ``v_i - 1``
    and ``v_i``; ``tau`` is interpolated on the piece where it crosses r.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    if r > n or r <= 0:
        raise BadRank("need 0 < r <= %d, got %r" % (n, r))
    if r == n:
        return np.ones(n)
    taus = np.sort(np.concatenate((v - 1.0, v)))
    sums = np.clip(v - taus[:, None], 0.0, 1.0).sum(axis=1)  # n down to 0
    k = np.flatnonzero(sums >= r)[-1]  # sums[k] >= r > sums[k + 1]
    slope = (taus[k + 1] - taus[k]) / (sums[k] - sums[k + 1])
    tau = taus[k] + (sums[k] - r) * slope
    return np.clip(v - tau, 0.0, 1.0)


def project_structure(spec, a):
    """Project a symmetric matrix onto the set a structure step may take.

    This is bcd's A-step for every penalty. schatten floors the spectrum
    at 1e-12, onto ``{A >= 1e-12 I}``; trace_one projects the spectrum
    onto the unit simplex; cluster projects in assignment space (recover
    ``M``, project its eigenvalues onto the capped simplex, map back
    through the affine inverse); fixed returns ``A0``.
    """
    a_arr = a.data if isinstance(a, PsdMatrix) else np.asarray(a, dtype=float)
    check_tasks(spec, a_arr.shape[0])
    if spec.kind == "fixed":
        return spec.a0

    e = sym_eig(a_arr)
    if spec.kind == "schatten":
        w = np.maximum(e.eigenvalues, 1e-12)
        return PsdMatrix.from_eig(w, e.eigenvectors)
    if spec.kind == "trace_one":
        w = project_capped_simplex(e.eigenvalues, 1.0)
        return PsdMatrix.from_eig(w, e.eigenvectors)

    cut = 1e-12 * max(abs(e.eigenvalues[0]), 1.0)
    inv_w = np.where(np.abs(e.eigenvalues) > cut, 1.0 / e.eigenvalues, 0.0)
    g = e.eigenvectors.sum(axis=0) / np.sqrt(len(inv_w))
    em = sym_eig(_cluster_assignment(spec, inv_w, g))
    w = project_capped_simplex(em.eigenvalues, float(spec.r))
    keep = w > 0.0  # a zero weight adds nothing to M = ZZ'
    q = e.eigenvectors @ em.eigenvectors[:, keep]
    return _cluster_structure(spec, q * np.sqrt(w[keep]))


# --- fixed structures from side information ---------------------------------

def structure_mean_variance(n_tasks, gamma):
    """Coupling whose inverse is ``I + gamma * 11'/T``.

    ``gamma = 0`` decouples the tasks (identity); larger gamma shrinks all
    tasks toward their mean.
    """
    if gamma < 0:
        raise BadPenaltyParam("mean-variance gamma must be >= 0")
    a_inv = np.eye(n_tasks) + gamma * _ones_projector(n_tasks)
    return pinv_psd(PsdMatrix(a_inv))


def structure_graph(adjacency, gamma):
    """Coupling whose inverse is the graph Laplacian plus ``gamma * I``."""
    w = np.asarray(adjacency, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise AsymmetricAdjacency("adjacency must be a square matrix")
    if not np.allclose(w, w.T, rtol=0.0, atol=1e-12):
        raise AsymmetricAdjacency("adjacency matrix is not symmetric")
    if np.any(w < 0):
        raise BadPenaltyParam("adjacency weights must be nonnegative")
    if not gamma > 0:
        raise BadPenaltyParam("graph gamma must be > 0 (the Laplacian is singular)")
    lap = np.diag(np.sum(w, axis=1)) - w
    return pinv_psd(PsdMatrix(lap + gamma * np.eye(w.shape[0])))


def structure_metric(theta):
    """Use a prescribed strictly PD output metric directly as the coupling."""
    a = PsdMatrix(theta)
    if not a.is_pd():
        raise NotPd("metric must be strictly positive definite")
    return a


def structure_coding(l_embed):
    """Coupling induced by a linear output code: ``A = L' L``."""
    l_embed = np.atleast_2d(np.asarray(l_embed, dtype=float))
    return psd_clip(l_embed.T @ l_embed, tol=1e-8)
