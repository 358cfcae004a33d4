"""The coupled objectives and the maps between their solution sets.

Three functionals of a coefficient matrix ``C`` (n x T) and a coupling
matrix ``A`` (T x T) are exposed:

* ``eval_Q`` : ``V(Y, K C A) + lam tr(A C'KC) + F(A) [+ ridge tr(A C'KC A)]``,
  the original nonconvex form in which predictions are ``K C A``;
* ``eval_R`` : ``V(Y, K C) + lam tr(A^+ C'KC) + F(A) [+ ridge tr(C'KC)]``
  restricted to pairs with ``Ran(C'KC)`` inside ``Ran(A)`` (``+inf``
  otherwise), the jointly convex reformulation;
* ``eval_S`` : the barrier version of R with ``A^{-1}(C'KC + delta^2 I)``
  in place of the pseudoinverse trace, finite only on strictly PD ``A``.

Both trace terms are evaluated in A's eigenbasis ``A = V diag(w) V'``
without forming ``C'KC``: ``tr(A^{-1} C'KC) = sum_i q_i / w_i`` with the
quadratic forms ``q_i = v_i' C'KC v_i`` taken column by column
(``diag_quads``), so that a ``w_i`` of order delta divides no roundoff of
``||C'KC||`` (see :mod:`smtl.kernels`). Every product with K comes from
the Gram, which picks its form.

The value-preserving maps between Q- and R-minimizers are ``map_Q_to_R``
(``C -> C A``) and ``map_R_to_Q`` (``C -> C A^+``). Q's ridge term is R's
at ``C A``, so the maps preserve it too.
"""

from dataclasses import dataclass, replace

import numpy as np

from .data import loss_value_grad
from .errors import DimensionMismatch, InfeasiblePair, NonFinite
from .linalg import (
    _as_psd, pd_eigenvalues, pinv_psd, range_contained,
)
from .penalties import PenaltySpec, penalty_value

RANGE_TOL = 1e-8


@dataclass
class ProblemInstance:
    """Everything that defines one training problem.

    gram : GramMatrix of the training inputs, or a DiagonalGram (the
        same problem in K's eigenbasis)
    Y, W : (n, T) targets and nonnegative loss weights
    lam : weight of the coupled quadratic term, > 0
    penalty : PenaltySpec
    ridge : optional weight of an uncoupled ``tr(C'KC)`` term, >= 0
    delta : barrier size used by ``eval_S``, >= 0

    Every value must be finite: ``lam``, ``ridge`` and ``delta`` raise
    ``ValueError`` otherwise, and ``Y`` or ``W`` :class:`~smtl.errors.NonFinite`.
    A ``W`` with a negative entry, or with no positive one, raises
    ``ValueError``. Targets whose weighted sum of squares ``sum(W Y^2)``
    over the observed entries overflows raise ``NonFinite``: every route's
    objective and stop tolerance take that sum.
    """

    gram: object
    Y: np.ndarray
    W: np.ndarray
    lam: float
    penalty: PenaltySpec
    ridge: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        self.Y = np.asarray(self.Y, dtype=float)
        self.W = np.asarray(self.W, dtype=float)
        if self.Y.shape != self.W.shape:
            raise DimensionMismatch("Y and W must share a shape")
        if self.Y.shape[0] != self.gram.n:
            raise DimensionMismatch("Y row count does not match the Gram matrix")
        if not 0 < self.lam < np.inf:
            raise ValueError("lam must be positive and finite")
        if not (0 <= self.ridge < np.inf and 0 <= self.delta < np.inf):
            raise ValueError("ridge and delta must be nonnegative and finite")
        if not (np.all(np.isfinite(self.Y)) and np.all(np.isfinite(self.W))):
            raise NonFinite("Y and W must be finite")
        if np.any(self.W < 0):
            raise ValueError("loss weights must be nonnegative")
        if not np.any(self.W > 0):
            raise ValueError("loss weights must have a positive entry: "
                             "no entry of Y is observed")
        with np.errstate(over="ignore"):  # W Y is 0 where W is: no 0 * inf
            weighted_ss = np.sum(self.W * self.Y * self.Y)
        if not np.isfinite(weighted_ss):
            raise NonFinite("the targets Y overflow: their weighted sum of "
                            "squares sum(W Y^2) over the observed entries "
                            "is not finite")

    @property
    def n(self):
        return self.Y.shape[0]

    @property
    def n_tasks(self):
        return self.Y.shape[1]

    def with_delta(self, delta):
        return replace(self, delta=delta)


def _check_c(inst, c):
    c = np.asarray(c, dtype=float)
    if c.shape != (inst.n, inst.n_tasks):
        raise DimensionMismatch(
            "C has shape %r, expected (%d, %d)" % (c.shape, inst.n, inst.n_tasks)
        )
    return c


def eval_Q(inst, c, a):
    """Original objective; predictions are ``K C A``."""
    c = _check_c(inst, c)
    a = _as_psd(a)
    kc = inst.gram.dot(c)
    m = inst.gram.quad(c, kc)
    v, _ = loss_value_grad(inst.Y, kc @ a.data, inst.W)
    value = v + inst.lam * float(np.sum(a.data * m))
    if inst.ridge:  # tr(A C'KC A), R's ridge term at C A
        value += inst.ridge * float(np.sum((a.data @ m) * a.data))
    return value + penalty_value(inst.penalty, a)


def eval_R(inst, c, a):
    """Convex reformulation; ``+inf`` off the feasible range set."""
    c = _check_c(inst, c)
    a = _as_psd(a)
    kc = inst.gram.dot(c)
    m = inst.gram.quad(c, kc)
    if not range_contained(m, a, tol=RANGE_TOL):
        return float("inf")
    v, _ = loss_value_grad(inst.Y, kc, inst.W)
    w = a.eigenvalues
    keep = w > a.rank_cut()
    quads = inst.gram.diag_quads(c, kc, a.eigenvectors[:, keep])
    value = v + inst.lam * float(np.sum(quads / w[keep]))
    if inst.ridge:
        value += inst.ridge * float(np.trace(m))
    return value + penalty_value(inst.penalty, a)


def eval_S(inst, c, a, kc=None):
    """Barrier objective at the instance's ``delta``; needs ``delta > 0``.

    The trace term ``tr(A^{-1}(C'KC + delta^2 I))`` is
    ``sum_i (q_i + delta^2) / w_i`` over A's eigenpairs, with ``q_i`` from
    ``GramMatrix.diag_quads``; ``C'KC + delta^2 I`` is never formed, so
    its roundoff is not divided by eigenvalues of order delta (see the
    module notes).
    The ridge term ``tr(C'KC)`` is ``sum(C * KC)``. ``kc`` is ``K @ C``, if
    the caller has it.

    Raises
    ------
    SingularA
        If A is not strictly positive definite (a ``NotStrictlyPd``).
    """
    if not inst.delta > 0:
        raise ValueError("eval_S needs delta > 0 on the instance")
    c = _check_c(inst, c)
    a = _as_psd(a)
    w = pd_eigenvalues(a)
    if kc is None:
        kc = inst.gram.dot(c)
    v, _ = loss_value_grad(inst.Y, kc, inst.W)
    quads = inst.gram.diag_quads(c, kc, a.eigenvectors)
    trace = np.sum(quads / w) + inst.delta ** 2 * np.sum(1.0 / w)
    value = v + inst.lam * float(trace)
    if inst.ridge:
        value += inst.ridge * float(np.sum(c * kc))
    return value + penalty_value(inst.penalty, a)


def grad_S_C(inst, c, a):
    """Gradient of the barrier objective in ``C`` (penalty plays no part).

    The coupled term ``2 lam KC A^{-1}`` is ``2 lam ((KC V) / w) V'``.
    """
    c = _check_c(inst, c)
    a = _as_psd(a)
    w = pd_eigenvalues(a)
    v = a.eigenvectors
    kc = inst.gram.dot(c)
    _, gz = loss_value_grad(inst.Y, kc, inst.W)
    g = inst.gram.dot(gz) + 2.0 * inst.lam * (((kc @ v) / w) @ v.T)
    if inst.ridge:
        g = g + 2.0 * inst.ridge * kc
    return g


def grad_S_A(inst, c, a):
    """Gradient of the barrier objective in ``A``.

    In A's eigenbasis the gradient is
    ``-lam W^{-1} (V'C'KCV + delta^2 I) W^{-1} + mu p W^{p-1}``, rotated
    back once. ``V'C'KCV`` comes from the column forms ``(CV)'(KCV)``, so,
    as in ``eval_S``, the roundoff of the dense ``C'KC`` is not divided by
    eigenvalues of order delta. For indicator penalties this is the
    gradient of the smooth part only (the indicator contributes via
    projection, not differentiation).
    """
    c = _check_c(inst, c)
    a = _as_psd(a)
    w = pd_eigenvalues(a)
    v = a.eigenvectors
    kc = inst.gram.dot(c)
    g = inst.gram.quad(c @ v, kc @ v)
    g[np.diag_indices_from(g)] += inst.delta ** 2
    g *= -inst.lam / np.outer(w, w)
    if inst.penalty.smooth:
        p, mu = inst.penalty.p, inst.penalty.mu
        g[np.diag_indices_from(g)] += mu * p * w ** (p - 1.0)
    g = (v @ g) @ v.T
    return 0.5 * (g + g.T)  # the rotation is symmetric only up to roundoff


def map_Q_to_R(inst, c_q, a_q):
    """Carry a Q-point to the R-parameterization: ``(C A, A)``."""
    c_q = _check_c(inst, c_q)
    a_q = _as_psd(a_q)
    return c_q @ a_q.data, a_q


def map_R_to_Q(inst, c_r, a_r):
    """Carry an R-feasible point to the Q-parameterization: ``(C A^+, A)``.

    Raises
    ------
    InfeasiblePair
        If ``Ran(C'KC)`` is not contained in ``Ran(A)``.
    """
    c_r = _check_c(inst, c_r)
    a_r = _as_psd(a_r)
    m = inst.gram.quad(c_r)
    if not range_contained(m, a_r, tol=RANGE_TOL):
        raise InfeasiblePair("Ran(C'KC) is not contained in Ran(A)")
    return c_r @ pinv_psd(a_r).data, a_r
