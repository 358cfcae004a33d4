"""Block-coordinate solvers for the barrier objective.

Two modes share one outer loop:

* ``altmin`` alternates exact minimization in ``C`` (a linear solve) with the
  closed-form structure update from :func:`smtl.penalties.unsupervised_min`;
* ``bcd`` takes single gradient steps in each block and projects the
  structure with :func:`smtl.penalties.project_structure`, whatever the
  penalty (a schatten one onto ``{A >= 1e-12 I}``). Step sizes are
  user-supplied constants guarded by backtracking halving, so a step that
  would increase the objective is shrunk and, failing that, rejected.

The supervised (C) step takes one of four routes, decided once per fit from
the mode and the weight pattern by ``_route``:

* ``"gradient"``: bcd's guarded gradient step, whatever the weights;
* ``"spectral"`` (altmin, uniform weights): in K's eigenbasis (below) the
  C-step is the elementwise division of :func:`smtl.linalg.sylvester_ls_solve`
  given K's spectrum, ``((Yt V) / (s_i + lam/(w d_j) + ridge/w)) V'``;
* any other weights in altmin: ``C = P(alpha) Atilde``, ``Atilde = (lam
  A^{-1} + ridge I)^{-1}``, where ``P`` scatters ``alpha`` into the m
  observed entries and ``alpha`` solves the SPD system ``(S (Atilde kron
  K) S' + diag(1/w)) alpha = y`` (Bonilla, Chai & Williams 2008) by
  preconditioned CG, then LU (``_solve_observed``). With one observed
  entry per row (``"one_hot"``, m = n) each product with K is one pass
  over it (``_SupervisedState``), the preconditioner is ``diag(w)`` until
  the fit's PCG steps have cost as much as an explicit inverse of the
  system matrix, and that inverse after, rebuilt each time its steps
  cost as much again, and a standalone solve is one LU solve; with any
  other mask (``"cg"``) the products go through ``gram.dot`` and the
  preconditioner is ``diag(w)``. Both routes start CG from the last
  ``alpha``, or from the Galerkin solution on the span of the last
  ``RECYCLED_SOLUTIONS`` ones unless that raises the energy
  (``_recycled_start``), whose products with the earlier solutions take
  one pass over K on the one-hot route. A fit's C-steps stop once the
  C-block objective is within the roundoff of its loss term of its
  minimum; a standalone solve stops at a relative residual of
  ``PCG_RTOL`` (``_observed_step``).
  Both end in the same last rung: a system PCG does not solve, within
  ``max(n, LU_LIMIT)`` unknowns, is solved by LU of its explicit matrix
  (``_observed_system``), and so is every later one of the fit.

With uniform weights the squared loss does not change when the rows are
rotated, so a uniform-weight fit, in either mode, runs in K's eigenbasis
(``GramMatrix.eigenbasis``, ``K = U diag(s) U'``, U n x r; r = d for a
linear kernel with d < n, else n). There the Gram is a ``DiagonalGram``
and the targets ``U'Y``, computed once. The objective adds back
``w ||Y - U U'Y||^2``, the part of Y that K cannot fit, and C is rotated
back once at the end, with its part in K's null space (see
``_SupervisedState``).

Every product with K but the one-hot route's ``K P(x)`` comes from the
Gram (``dot``, ``quad``, ``quad_eig``, ``diag_quads``), in the factor form
``K = LL'`` of :mod:`smtl.kernels`, which says what each form saves, and
so do the ``"cg"`` route's explicit system's entries (``block``). Only
the one-hot route reads K's entries on a kernel with a factor.

A per-fit ``_SupervisedState``, built once by ``_SupervisedState.of``,
holds the route, the instance the loop runs on and the map of its C back
to the original basis, the observed-entry routes' stop tolerance and
P(.) array, and carries the last solutions, the one-hot
preconditioner and the last product with K from call to call.

With a geometric delta schedule each phase stops on convergence or at
``max_iter``; the next, at delta times a constant factor, warm-starts.
"""

import math
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    CgStall,
    DimensionMismatch,
    EmptyTask,
    NonFinite,
    NonFiniteObjective,
    NotStrictlyPd,
    SingularMatrix,
)
from .kernels import DiagonalGram, GramMatrix, live_gram
from .linalg import PsdMatrix, _as_psd, pd_eigenvalues, sylvester_ls_solve
from .objectives import (
    ProblemInstance, eval_S, grad_S_A, grad_S_C,
)
from .penalties import check_tasks, project_structure, unsupervised_min

MODES = ("altmin", "bcd")
SCHEDULES = ("fixed", "geometric")
MAX_HALVINGS = 60
PCG_RTOL = 1e-12  # standalone C-step exit: true residual <= PCG_RTOL * ||y||
BUILD_STEPS_PER_ROW = 0.5  # one-hot PCG steps an n x n inverse costs, per row
RECYCLED_SOLUTIONS = 3  # PCG's Galerkin start spans this many solutions
LU_LIMIT = 4096  # LU solves observed-entry systems of max(n, this) unknowns
TARGET_LIMIT = 2.0 ** 256  # a fit's largest observed |Y|; its square is 2^512


@dataclass
class SolverConfig:
    """Outer-loop settings.

    epsilon is the absolute stopping tolerance on successive objective
    values; delta is the initial barrier size.
    With the geometric schedule, delta is multiplied by ``delta_factor``
    after each phase (until converged, at most ``max_iter`` iterations)
    until it would drop below ``delta_floor``, in at most ``max_iter`` phases.
    ``a0`` overrides the identity initialization of the structure matrix;
    bcd starts from its projection by ``project_structure``.
    Every float setting must be finite, and ``max_iter`` an integer >= 1.
    """

    mode: str = "altmin"
    epsilon: float = 1e-8
    max_iter: int = 500
    delta: float = 1e-3
    delta_schedule: str = "fixed"
    delta_factor: float = 0.1
    delta_floor: float = 1e-6
    step_c: float = 1e-3
    step_a: float = 1e-3
    a0: object = None

    def __post_init__(self):
        for name in ("epsilon", "delta", "delta_factor", "delta_floor",
                     "step_c", "step_a"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite" % name)
        if self.mode not in MODES:
            raise ValueError("mode must be one of %r" % (MODES,))
        if self.delta_schedule not in SCHEDULES:
            raise ValueError("delta_schedule must be one of %r" % (SCHEDULES,))
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if not (0.0 < self.delta_factor < 1.0):
            raise ValueError("delta_factor must lie in (0, 1)")
        if not self.delta_floor > 0:
            raise ValueError("delta_floor must be positive")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError("max_iter must be an integer >= 1")
        if not (self.step_c > 0 and self.step_a > 0):
            raise ValueError("bcd step sizes must be positive")

    def delta_values(self):
        """The ladder of barrier sizes the fit will run through, one phase
        each; one of more than ``max_iter`` phases raises ``ValueError``."""
        if self.delta_schedule == "fixed":
            return [self.delta]
        out = []
        d = self.delta
        while d >= self.delta_floor * (1.0 - 1e-12):
            if len(out) == self.max_iter:
                raise ValueError(
                    "delta=%r, delta_factor=%r and delta_floor=%r make more "
                    "than max_iter=%d phases"
                    % (self.delta, self.delta_factor, self.delta_floor,
                       self.max_iter))
            out.append(d)
            d *= self.delta_factor
        return out or [self.delta]


@dataclass
class FitReport:
    """What happened during a fit.

    ``supervised_route`` is the route of the C-step (see ``_route``):
    ``"spectral"``, ``"one_hot"`` or ``"cg"`` in altmin mode,
    ``"gradient"`` in bcd mode.
    ``pcg_steps`` counts the preconditioned CG steps over the whole fit,
    and ``lu_solves`` the solves left to LU because the system was too
    ill-conditioned for PCG (once one is, every later solve of the fit is
    an LU solve), on the one-hot and ``"cg"`` routes. Only the one-hot
    route fills ``inverse_rebuilds``, the explicit inverses built as
    preconditioners: a solve builds one when its PCG steps since the last
    build (on ``diag(w)`` before the first) reach ``BUILD_STEPS_PER_ROW *
    n``, about an inverse's cost, or stop short of the tolerance. The
    spectral and gradient routes leave all three at 0.
    ``termination`` is the last phase's. ``wall_times`` holds, in seconds,
    ``"gram"``, the kernel evaluation this fit triggered (0 if the Gram was
    already evaluated), ``"supervised"`` and ``"unsupervised"``, the two
    block steps, and ``"fit"``, K's eigenbasis (if needed and not yet
    built) and the loop. On a Gram that ``fit`` reused from a live model
    (see ``live_gram``), ``"gram"`` is 0 and ``"fit"`` holds no
    eigenbasis.
    """

    objective_trajectory: list
    iters: int
    termination: str
    wall_times: dict
    phase_starts: list = field(default_factory=list)
    supervised_route: str = None
    pcg_steps: int = 0
    inverse_rebuilds: int = 0
    lu_solves: int = 0


@dataclass
class ModelState:
    """A fitted model: coefficients, structure, kernel context, instance."""

    C: np.ndarray
    A: PsdMatrix
    gram: GramMatrix
    inst: ProblemInstance = None


def _route(w, mode):
    """The C-step's route for loss weights ``w`` in ``mode``: ``"gradient"``
    in bcd mode; in altmin mode ``"spectral"`` for uniform positive
    weights, ``"one_hot"`` for one observed entry per row, else ``"cg"``."""
    if mode != "altmin":
        return "gradient"
    w0 = w.flat[0] if w.size else 0.0
    if w0 > 0 and np.all(w == w0):
        return "spectral"
    if np.all(np.count_nonzero(w > 0, axis=1) == 1):
        return "one_hot"
    return "cg"


def _task_blocks(tids):
    """``(task, rows)`` for each task in ``tids``: the positions of its
    entries, a slice if they are contiguous, else an index array."""
    order = np.argsort(tids, kind="stable")
    blocks = []
    for rows in np.split(order, np.flatnonzero(np.diff(tids[order])) + 1):
        if rows.size:  # np.split gives one empty part if tids is empty
            contiguous = rows[-1] - rows[0] == rows.size - 1
            blocks.append((tids[rows[0]], slice(rows[0], rows[-1] + 1)
                           if contiguous else rows))
    return blocks


@dataclass
class _SupervisedState:
    """What one fit's supervised steps share, built once by ``of``.

    ``route`` is the route of the C-step and ``work`` the instance the fit
    runs on. With uniform weights ``w``, in either mode, ``work`` is the
    instance in K's eigenbasis: with ``K = U diag(s) U'``
    (``GramMatrix.eigenbasis``, U n x r) it has Gram ``diag(s)`` (a
    ``DiagonalGram``), targets ``U'Y`` and weight ``w``, and objective
    ``S - offset``, where ``offset = w ||Y_perp||^2`` and ``Y_perp = Y -
    U U'Y`` is the part of Y that K cannot fit (zero when r = n). Else
    ``work`` is the instance itself. ``coefficients`` maps a C of ``work``
    back to the original basis.

    The observed-entry routes keep the observed entries, taken from
    ``W > 0`` and addressed by their C-order ``flat`` positions in an n x T
    array, which index several times faster than (row, task) pairs: their
    task ``tids``, loss weights ``wvec`` and targets ``yvec``; ``tol``, the
    stop of every solve, which only ``yvec`` and ``wvec`` determine (see
    ``_observed_step``); ``scattered``, the n x T array that holds P(x),
    zero outside ``flat``, for each product with K and Atilde; the
    ``RECYCLED_SOLUTIONS`` last solutions ``recent`` (the latest, ``alpha``,
    is the next warm start, and all of them span its Galerkin correction),
    ``a_tilde``, the Atilde of the last solve, and the counters.

    The one-hot route, whose entry i is row i's, keeps each task's rows
    as one of its ``blocks`` (``_task_blocks``): its ``k_product`` reads
    each row of K once, in place for a task whose rows are contiguous and
    through a copy of that task's rows otherwise, and ``product`` keeps
    the last one. It also keeps ``precond``, None (PCG then takes
    ``diag(w)``) or an explicit inverse of an earlier system matrix, and
    ``built_at``, the count of ``pcg_steps`` when that inverse was built,
    so that ``_solve_observed`` can charge the steps taken since against
    the cost of the next build. A ``one_shot`` state, which no later solve
    reuses, solves by LU at once. On either route, once ``lu_solves`` is
    nonzero, every solve of the fit is an LU solve.
    """

    route: str
    work: ProblemInstance
    u: np.ndarray = None
    y_perp: np.ndarray = None
    offset: float = 0.0
    flat: np.ndarray = None
    tids: np.ndarray = None
    wvec: np.ndarray = None
    yvec: np.ndarray = None
    tol: float = None
    scattered: np.ndarray = None
    recent: list = field(default_factory=list)
    a_tilde: np.ndarray = None
    blocks: list = None
    product: tuple = None
    precond: np.ndarray = None
    built_at: int = 0
    one_shot: bool = False
    pcg_steps: int = 0
    rebuilds: int = 0
    lu_solves: int = 0

    @property
    def alpha(self):
        """The last solution, or None before the first solve."""
        return self.recent[-1] if self.recent else None

    @classmethod
    def of(cls, inst, mode, route=None, in_fit=False):
        """The state of a fit of ``inst`` in ``mode``; ``in_fit`` for the
        state of ``fit_gram``'s loop, whose solves stop at the objective's
        own precision rather than at ``PCG_RTOL`` (see ``_observed_step``).
        ``route``, if given, replaces ``_route``'s choice: ``"cg"`` solves
        any weight pattern, so it can check another route."""
        state = cls(route or _route(inst.W, mode), inst)
        if state.route in ("one_hot", "cg"):
            state.flat = np.flatnonzero(inst.W > 0)
            state.tids = state.flat % inst.n_tasks
            if state.route == "one_hot":
                state.blocks = _task_blocks(state.tids)
            state.wvec = w = inst.W.take(state.flat)
            state.yvec = y = inst.Y.take(state.flat)
            state.tol = PCG_RTOL * float(np.linalg.norm(y))
            if in_fit:  # ||r||^2 <= u ||y||_W^2 / max(w)
                state.tol = max(state.tol, np.sqrt(
                    0.5 * np.finfo(float).eps * float(w @ (y * y)) / w.max()))
            state.scattered = np.zeros(inst.W.shape)
        elif _route(inst.W, "altmin") == "spectral":  # uniform weights
            w = inst.W.flat[0]
            state.u, s = inst.gram.eigenbasis
            yt = state.u.T @ inst.Y
            if state.u.shape[1] < inst.n:
                state.y_perp = inst.Y - state.u @ yt
                state.offset = w * float(np.sum(state.y_perp * state.y_perp))
            state.work = replace(inst, gram=DiagonalGram(s), Y=yt,
                                 W=np.full(yt.shape, w))
        return state

    def k_product(self, x):
        """``(K P(x))'``, T x n, for ``x`` over the one-hot entries, or
        for an n x k block ``x`` that of each column, T x k x n: K is
        symmetric, so entry t is ``x[rows]' K[rows]`` over task t's rows,
        one product per task whatever k, and the product reads each row of
        K once. It does not depend on Atilde, so the last one is kept, and
        a product at the same ``x`` (the same object) is not recomputed."""
        if self.product is None or self.product[0] is not x:
            k = self.work.gram.raw
            pk = np.zeros((self.work.n_tasks,) + x.shape[1:] + x.shape[:1])
            for t, rows in self.blocks:
                np.dot(x[rows].T, k[rows], out=pk[t])
            self.product = (x, pk)
        return self.product[1]

    def kc(self, c):
        """``K @ c`` for ``c``, the last C-step on this state (in ``work``'s
        basis). On the one-hot route ``c = P(alpha) Atilde``, so ``KC = (K
        P(alpha)) Atilde``, n T^2 from the solve's last product with K in
        place of ``work.gram.dot(c)``'s n^2 T; every other route takes the
        latter."""
        if self.route != "one_hot":
            return self.work.gram.dot(c)
        return self.k_product(self.alpha).T @ self.a_tilde

    def coefficients(self, c, a):
        """A C of ``work`` in the original basis: ``c`` itself, or, if
        ``work`` is rotated, ``U c + Y_perp Atilde`` with ``Atilde =
        (lam/w A^{-1} + ridge/w I)^{-1}`` at ``a``. The last term is the
        exact C-step's part in K's null space: ``sylvester_ls_solve`` with
        K's spectrum zero there."""
        if self.u is None:
            return c
        out = self.u @ c
        if self.y_perp is not None:
            w = self.work.W.flat[0]
            out += sylvester_ls_solve(np.zeros(len(self.y_perp)), a,
                                      self.work.lam / w, self.y_perp,
                                      ridge=self.work.ridge / w)
        return out


def _pcg(matvec, b, recent, precond, tol, max_steps, state):
    """At most ``max_steps`` steps of preconditioned CG on the SPD system
    ``H x = b``, ``H x = matvec(x)``; ``precond(r)`` applies the
    preconditioner. ``recent`` lists earlier solutions, the latest last.
    CG starts from the latest (zeros if there is none) or, if that misses
    ``tol``, there are others and a step may be taken, from
    ``_recycled_start``. Whenever the recurrence residual is within
    ``tol`` or the curvature is not positive, CG restarts from the true
    residual ``||b - H x||``, and stops once a restart does not lower it. Returns ``(x, res)``: the best ``x`` whose
    true residual was taken, and that residual, NaN if ``b`` is. Steps
    taken are added to ``state.pcg_steps``.
    """
    x = recent[-1] if recent else np.zeros_like(b)
    hx = matvec(x)
    r = b - hx
    res = float(np.linalg.norm(r))
    x_checked = x
    if len(recent) > 1 and max_steps and not res <= tol:
        x, r = _recycled_start(matvec, b, recent, hx) or (x, r)
    steps = 0
    while not res <= tol:  # NaN never converges
        if steps == max_steps:
            return x_checked, res
        p = None
        while steps < max_steps and float(np.linalg.norm(r)) > tol:
            z = precond(r)
            rz_new = float(r @ z)
            p = z if p is None else z + (rz_new / rz) * p
            rz = rz_new
            hp = matvec(p)
            curv = float(p @ hp)
            if not (rz > 0.0 and curv > 0.0):
                break
            step = rz / curv
            x = x + step * p
            r -= step * hp
            steps += 1
            state.pcg_steps += 1
        r = b - matvec(x)
        res_new = float(np.linalg.norm(r))
        if not res_new < res:
            return x_checked, res
        x_checked, res = x, res_new
    return x_checked, res


def _recycled_start(matvec, b, recent, hx):
    """The Galerkin solution of ``H x = b`` on the span of the ``recent``
    solutions, and its residual: ``Q c`` with ``(Q'HQ) c = Q'b``, ``Q`` an
    orthonormal basis of the span from the QR factorization of ``[x,
    earlier...]``, x the latest solution. ``hx = H x`` gives ``H q_1 = hx /
    r_11``, so H Q costs one ``matvec`` of the block of Q's other columns,
    and it gives both energies ``x'Hx / 2 - b'x`` and the residual. In
    that basis Q'HQ is as well conditioned as H, and ``Q c`` has no
    cancellation, however close the solutions are. Returns None, to keep x, if ``Q c``'s energy
    is above x's or Q'HQ is not finite.
    """
    x = recent[-1]
    q, r = np.linalg.qr(np.column_stack(recent[::-1]))
    hq = np.column_stack([hx / r[0, 0], matvec(q[:, 1:])])
    g = q.T @ hq
    g = 0.5 * (g + g.T)  # Q'(HQ) is symmetric only up to roundoff
    qb = q.T @ b
    if not np.all(np.isfinite(g)):
        return None
    c = np.linalg.solve(g, qb)
    if not 0.5 * (c @ g @ c) - c @ qb <= 0.5 * (x @ hx) - b @ x:
        return None
    return q @ c, b - hq @ c


def _observed_system(a_tilde, state):
    """The explicit observed-entry system, ``H = Atilde[t_i, t_j] K[r_i,
    r_j] + diag(1/w)`` over the observed entries (r_i, t_i), built only to
    invert or factor. The one-hot route, whose entry i is row i's, reads K
    in place; the ``"cg"`` route takes ``gram.block`` of its rows."""
    gram, tids = state.work.gram, state.tids
    h = np.take(a_tilde[tids], tids, axis=1)
    h *= (gram.raw if state.route == "one_hot"
          else gram.block(state.flat // state.work.n_tasks))
    h.flat[::h.shape[0] + 1] += 1.0 / state.wvec
    return h


def _one_hot_matvec(a_tilde, state):
    """``H x`` of the one-hot system in one pass over K: ``(H x)_i =
    sum_t (K P(x))'[t, i] Atilde[t, t_i] + x_i / w_i``, with
    ``state.k_product``; for an n x k block x, ``H`` of each column, in the
    same one pass."""
    a_cols, w = a_tilde[:, state.tids], state.wvec  # Atilde[:, t_i]

    def matvec(v):
        return (np.einsum("t...i,ti->i...", state.k_product(v), a_cols)
                + (v.T / w).T)

    return matvec


def _cg_matvec(a_tilde, state):
    """``H x`` of the ``"cg"`` route's system as an operator, ``(K P(x)
    Atilde).take(flat) + x / w``, with the K product from ``gram.dot``; for
    an m x k block x, ``H`` of each column in turn. ``gram.dot`` of one
    scatter is a product with an n x T matrix already; one call on the k
    scatters side by side would be slower: on a masked linear kernel (n =
    600, T = 30, d = 10) its index arrays and n x kT temporaries cost more
    than the products they share."""
    gram, flat, scattered = state.work.gram, state.flat, state.scattered
    scattered_flat = scattered.reshape(-1)  # a view, faster to index than put
    w = state.wvec

    def product(v):
        scattered_flat[flat] = v
        return (gram.dot(scattered) @ a_tilde).take(flat) + v / w

    def matvec(v):  # not recursive: a cycle would keep the Gram alive
        if v.ndim == 2:
            return np.column_stack([product(column) for column in v.T])
        return product(v)

    return matvec


def _solve_observed(a_tilde, state):
    """Solve the observed-entry system ``H alpha = y``: PCG from
    ``state.recent`` (see ``_pcg``) with the route's product and
    preconditioner, then LU of the explicit system.

    * One-hot: ``_one_hot_matvec``, preconditioned by ``state.precond``,
      ``diag(w)`` before the fit's first build, else the kept inverse. An
      inverse of the n x n system costs about ``BUILD_STEPS_PER_ROW * n``
      PCG steps, and that is the budget of PCG steps between builds: a
      solve takes what remains of it since the last build
      (``state.built_at``). If that falls short of ``state.tol``, a fresh
      inverse of ``_observed_system`` is built, and PCG goes on from where
      it stopped, for a whole budget. A ``one_shot`` state, whose inverse
      nothing would reuse, skips PCG: an LU solve costs about a fifth of
      an inverse.
    * ``"cg"``: the operator form ``_cg_matvec``, preconditioned by
      ``diag(w)``, for at most 2m steps, twice what exact arithmetic
      needs. Short of the tolerance, a solve is accepted within the
      matvec's roundoff, ``(gram.dot_terms + T) u gram.fro_norm
      ||Atilde||_F ||x||`` (u the unit roundoff) at ``||x|| = max(w)
      ||y||``, a bound on the solution's norm, if the bound is below
      ``||y||``. The bound is taken only for a solve short of the
      tolerance: on a Gram with no factor ``gram.fro_norm`` reads all of
      K.

    A system that PCG does not solve (on the one-hot route, not even on a
    fresh inverse) is too ill-conditioned for it: LU of
    ``_observed_system`` solves it, and every later call of the fit. Only
    two cases raise ``CgStall``: a ``y`` whose norm is not finite, since
    no residual test can accept a solve, and a stall on a system of more
    than ``max(n, LU_LIMIT)`` unknowns, too large to factor.
    """
    y, tol, recent, w = state.yvec, state.tol, state.recent, state.wvec
    if not tol < float("inf"):
        raise CgStall("no relative residual can accept an observed-entry "
                      "solve whose target has norm %s" % np.linalg.norm(y))
    if state.route == "one_hot":
        matvec, fresh = _one_hot_matvec(a_tilde, state), False
        budget = math.ceil(BUILD_STEPS_PER_ROW * y.size)
        while not (state.lu_solves or state.one_shot):
            precond = (w.__mul__ if state.precond is None
                       else state.precond.__matmul__)
            x, res = _pcg(matvec, y, recent, precond, tol,
                          budget - (state.pcg_steps - state.built_at), state)
            if res <= tol:
                return x
            if fresh:
                state.precond = None  # LU takes this and every later solve
                break
            state.precond = np.linalg.inv(_observed_system(a_tilde, state))
            # inv(h) is symmetric only up to roundoff, and PCG assumes symmetry
            state.precond += state.precond.T
            state.precond *= 0.5
            state.rebuilds += 1
            state.built_at, recent, fresh = state.pcg_steps, [x], True
    elif not state.lu_solves:
        gram = state.work.gram
        x, res = _pcg(_cg_matvec(a_tilde, state), y, recent, w.__mul__, tol,
                      2 * y.size, state)
        if res <= tol:
            return x
        y_norm = float(np.linalg.norm(y))
        bound = (0.5 * np.finfo(float).eps * (gram.dot_terms + a_tilde.shape[0])
                 * w.max() * gram.fro_norm * np.linalg.norm(a_tilde) * y_norm)
        if res <= bound < y_norm:
            return x
        if y.size > max(state.work.n, LU_LIMIT):
            raise CgStall("observed-entry PCG stalled at relative residual "
                          "%.3e (roundoff bound %.3e), and m = %d unknowns "
                          "are over the LU limit max(n, %d)"
                          % (res / y_norm, bound / y_norm, y.size, LU_LIMIT))
    state.lu_solves += 1
    return np.linalg.solve(_observed_system(a_tilde, state), y)


def _observed_step(inst, a, state):
    """C-step in observed-entry form, ``C = P(alpha) Atilde``, with
    ``alpha`` from ``_solve_observed``, warm-started from ``state.recent``
    (see ``_pcg``).

    ``alpha`` solves ``H alpha = y``, ``H = G + W^{-1}`` with ``G = S
    (Atilde kron K) S'``. The C-block objective at ``C(alpha)`` is ``f =
    ||y - G alpha||_W^2 + alpha'G alpha`` plus terms free of C, and with
    ``r = y - H alpha``, ``f - f* = r'W r - r'H^{-1} r <= ||r||_W^2``. A
    fit's state (``of(..., in_fit=True)``) stops at ``||r||_W^2 <= u
    ||y||_W^2``, u the unit roundoff: the step is then exact to the
    roundoff of S's loss at C = 0. It tests ``||r|| <= state.tol``, which
    ``of`` sets once to ``sqrt(u ||y||_W^2 / max(w))``, a rule that implies
    that, and never tighter than ``PCG_RTOL * ||y||``, the stop of every
    other state. ``P(alpha)`` is written into ``state.scattered``.
    """
    v = a.eigenvectors  # Atilde = (lam A^{-1} + ridge I)^{-1}
    a_tilde = (v * (1.0 / (inst.lam / pd_eigenvalues(a) + inst.ridge))) @ v.T
    state.a_tilde = a_tilde
    if state.tol == 0.0:
        alpha = np.zeros_like(state.yvec)
    else:
        try:
            alpha = _solve_observed(a_tilde, state)
        except np.linalg.LinAlgError as exc:
            # H is SPD, but at tiny lam Atilde o K is of order 1/lam and
            # adding W^{-1} to it changes nothing in floating point
            raise SingularMatrix(
                "the %s system H is singular in floating point at lam = %g"
                % (state.route.replace("_", "-"), inst.lam)) from exc
    if alpha is not state.alpha:  # a repeat solve adds nothing to recycle
        state.recent = (state.recent + [alpha])[-RECYCLED_SOLUTIONS:]
    state.scattered.reshape(-1)[state.flat] = alpha  # P(alpha)
    return state.scattered @ a_tilde


def _supervised_exact(inst, a, state=None):
    """Exact minimizer of the C-block on the route ``state.route``.

    ``state`` is the fit's ``_SupervisedState`` and ``inst`` its ``work``
    (at any delta). Without a state the call starts cold: it builds a
    ``one_shot`` one, solves on its ``work`` and returns C in the original
    basis.
    """
    if state is None:
        state = _SupervisedState.of(inst, "altmin")
        state.one_shot = True
        return state.coefficients(_supervised_exact(state.work, a, state), a)
    if state.route == "spectral":
        w = inst.W.flat[0]
        return sylvester_ls_solve(inst.gram.s, a, inst.lam / w, inst.Y,
                                  ridge=inst.ridge / w)
    return _observed_step(inst, a, state)


def _safe_S(inst, c, a, kc=None):
    try:
        return eval_S(inst, c, a, kc=kc)
    except NotStrictlyPd:
        return float("inf")


def _backtrack(inst, value_prev, fallback, step_fn):
    """Halve the step until the objective stops increasing: the first of
    ``step_fn(1)``, ``step_fn(1/2)``, ... (``MAX_HALVINGS`` candidates) whose
    S is at most ``value_prev``, else ``fallback``."""
    step_scale = 1.0
    for _ in range(MAX_HALVINGS):
        cand = step_fn(step_scale)
        if _safe_S(inst, *cand) <= value_prev:
            return cand
        step_scale *= 0.5
    return fallback


def supervised_step(inst, a, c_prev, mode="altmin", step=None, state=None):
    """One update of the coefficient block.

    altmin returns the exact minimizer, on the route of ``state``, the
    fit's ``_SupervisedState`` (``inst`` is then its ``work``); without
    one, from a cold start in the original basis. bcd takes a single
    gradient step of size ``step`` with a halving guard against objective
    increase, and reads no state.
    """
    if mode == "altmin":
        return _supervised_exact(inst, a, state)
    g = grad_S_C(inst, c_prev, a)
    s_prev = _safe_S(inst, c_prev, a)

    def make(scale):
        return (c_prev - scale * step * g, a)

    c_new, _ = _backtrack(inst, s_prev, (c_prev, a), make)
    return c_new


def unsupervised_step(inst, c, a_prev, mode="altmin", step=None, kc=None):
    """One update of the structure block.

    altmin applies the closed-form minimizer of the penalized trace problem;
    bcd takes a gradient step projected by ``project_structure``, guarded
    by halving. ``kc`` is ``K @ c``, if the caller has it.
    """
    if mode == "altmin":
        # B = C'KC + delta^2 I in the eigenbasis V of M = C'KC, which
        # quad_eig takes from a factor of M with fewer than T rows. M's
        # eigenvalues carry roundoff of order eps * ||M||, which swamps
        # delta^2 in M's near-null directions; the column forms of
        # diag(V'MV) are accurate there, as in eval_S. Adding delta^2 to
        # them keeps B strictly PD at tiny barrier floors.
        if kc is None:
            kc = inst.gram.dot(c)
        em = inst.gram.quad_eig(c, kc)
        quads = inst.gram.diag_quads(c, kc, em.eigenvectors)
        sigma = np.maximum(quads, 0.0) + inst.delta ** 2
        b = PsdMatrix.from_eig(sigma, em.eigenvectors)
        return unsupervised_min(inst.penalty, b, inst.lam)
    g = grad_S_A(inst, c, a_prev)
    s_prev = _safe_S(inst, c, a_prev)

    def make(scale):
        return (c, project_structure(inst.penalty,
                                     a_prev.data - scale * step * g))

    _, a_new = _backtrack(inst, s_prev, (c, a_prev), make)
    return a_new


def _start_structure(config, penalty, n_tasks):
    """The structure a fit of ``n_tasks`` tasks starts from, checked.

    The penalty must fit ``n_tasks`` (:func:`check_tasks`) and, if fixed,
    be strictly PD, since every step inverts it. ``a0`` (I if unset) must
    be ``n_tasks x n_tasks`` and strictly PD. bcd starts from its
    projection by ``project_structure``, where the projected A-steps stay
    (S is +inf off an indicator's set, and a guarded step only lowers S),
    and that projection must be strictly PD too.
    """
    check_tasks(penalty, n_tasks)
    if penalty.kind == "fixed" and not penalty.a0.is_pd():
        raise NotStrictlyPd(
            "the fixed penalty's structure is singular (smallest eigenvalue "
            "%.3e); a fit needs it strictly positive definite"
            % penalty.a0.eigenvalues[-1])
    if config.a0 is None:  # I, from its known eigenpairs
        a = PsdMatrix.from_eig(np.ones(n_tasks), np.eye(n_tasks))
    else:
        a = _as_psd(config.a0)
        if a.dim != n_tasks:
            raise DimensionMismatch(
                "a0 is %d x %d but the dataset has %d tasks"
                % (a.dim, a.dim, n_tasks))
        if not a.is_pd():
            raise NotStrictlyPd("a0 must be strictly positive definite")
    if config.mode == "bcd":
        a = project_structure(penalty, a)
        if not a.is_pd():
            raise NotStrictlyPd(
                "bcd starts from a0 (I if unset) projected onto the %s "
                "feasible set, and that projection is singular (smallest "
                "eigenvalue %.3e)" % (penalty.kind, a.eigenvalues[-1]))
    return a


def fit_gram(gram, y, w, penalty, lam, ridge=0.0, config=None, callback=None):
    """Run the solver against a Gram matrix, evaluated or not.

    Returns ``(ModelState, FitReport)``. ``callback``, if given, is invoked
    as ``callback(iteration, C, A, value)`` after each outer iteration,
    with C in the original basis (n x T): C is that iteration's C-step, A
    its A-step and value S at both. S after the C-step alone is ``eval_S``
    at the phase's delta, this C and the previous call's A (the start
    structure on the first call).

    Every setting is checked, and the start structure built, before the
    kernel is evaluated (if the fit reads its entries, see ``GramMatrix``).
    Targets whose largest observed magnitude is above ``TARGET_LIMIT``
    raise ``NonFinite``, naming that scale.
    A fit with uniform weights, in either mode, runs in K's eigenbasis
    (see ``_SupervisedState``): every step and objective value there costs
    O(r T^2) or less, the trajectory adds the constant the rotation leaves
    out, and C is rotated back once, at the end (and for each ``callback``
    call). The returned model keeps ``gram`` and an instance in the
    original basis.
    """
    config = config or SolverConfig()
    deltas = config.delta_values()
    inst = ProblemInstance(
        gram=gram, Y=y, W=w, lam=lam, penalty=penalty,
        ridge=ridge, delta=deltas[0],
    )
    scale = max(inst.Y.max(), -inst.Y.min())  # a bound with no temporary
    if scale > TARGET_LIMIT:
        scale = float(np.max(np.abs(inst.Y), where=inst.W > 0, initial=0.0))
    if scale > TARGET_LIMIT:
        raise NonFinite(
            "the targets Y have scale %.3g (their largest observed |Y|), "
            "above a fit's limit of 2^256 = %.3g: the solver squares "
            "quantities that exceed the targets by the conditioning of its "
            "systems, and those squares would overflow; rescale Y"
            % (scale, TARGET_LIMIT))
    a = _start_structure(config, penalty, inst.n_tasks)
    route = _route(inst.W, config.mode)
    times = dict.fromkeys(("gram", "supervised", "unsupervised", "fit"), 0.0)
    if (route == "one_hot" or not gram.factored) and not gram.evaluated:
        t0 = time.perf_counter()
        gram.raw  # evaluate the kernel inside the gram timer
        times["gram"] = time.perf_counter() - t0

    trajectory = []
    phase_starts = []
    total_iters = 0
    t_fit = time.perf_counter()
    state = _SupervisedState.of(inst, config.mode, route, in_fit=True)
    work, offset = state.work, state.offset
    c = np.zeros((work.n, inst.n_tasks))
    for delta in deltas:
        work = work.with_delta(delta)
        phase_starts.append(len(trajectory))
        trajectory.append(_safe_S(work, c, a) + offset)
        for _ in range(config.max_iter):
            t0 = time.perf_counter()
            a_used = a  # the A of the last C-step
            c = supervised_step(work, a, c, mode=config.mode,
                                step=config.step_c, state=state)
            t1 = time.perf_counter()
            kc = state.kc(c)  # shared by the A-step and eval_S
            a = unsupervised_step(work, c, a, mode=config.mode,
                                  step=config.step_a, kc=kc)
            t2 = time.perf_counter()
            times["supervised"] += t1 - t0
            times["unsupervised"] += t2 - t1
            s_new = _safe_S(work, c, a, kc) + offset
            if np.isnan(s_new):
                raise NonFiniteObjective("objective became NaN")
            converged = abs(s_new - trajectory[-1]) < config.epsilon
            trajectory.append(s_new)
            total_iters += 1
            if callback is not None:
                callback(total_iters, state.coefficients(c, a_used), a, s_new)
            if converged:
                break
    c = state.coefficients(c, a_used)
    times["fit"] = time.perf_counter() - t_fit
    report = FitReport(
        objective_trajectory=trajectory,
        iters=total_iters,
        termination="converged" if converged else "max_iter",
        wall_times=times,
        phase_starts=phase_starts,
        supervised_route=state.route,
        pcg_steps=state.pcg_steps,
        inverse_rebuilds=state.rebuilds,
        lu_solves=state.lu_solves,
    )
    model = ModelState(C=c, A=a, gram=gram, inst=inst.with_delta(deltas[-1]))
    return model, report


def fit(dataset, kernel_spec, penalty, lam, ridge=0.0, config=None,
        callback=None):
    """Fit predictors and structure to a dataset: :func:`fit_gram` on a
    ``GramMatrix`` of its inputs, once the dataset has a row and every
    task a row of its own (in ``task_ids``) or an entry that W observes
    (``W > 0``). Otherwise raises :class:`EmptyTask`, naming task 0 or the
    first task with neither: a dense dataset's tasks have no rows of their
    own, but W observes them.

    The Gram is new unless a model the caller still holds was fitted by
    ``fit`` on the same kernel spec and bit-for-bit the same inputs
    (``live_gram``): then the fit reuses that model's Gram, with the
    kernel and eigenbasis it has built, so a path over lambda evaluates
    and decomposes K once while it keeps the last model. Each Gram is held
    weakly, and a new ``GramMatrix`` is still constructed first, so every
    input check runs.
    """
    if dataset.n < 1:
        raise EmptyTask(0)
    seen = np.any(dataset.W > 0, axis=0)
    seen[dataset.task_ids] = True
    if not seen.all():
        raise EmptyTask(np.argmin(seen))
    return fit_gram(live_gram(GramMatrix(kernel_spec, dataset.X)), dataset.Y,
                    dataset.W, penalty, lam, ridge=ridge, config=config,
                    callback=callback)


def refit_supervised(model, new_lambda):
    """Re-solve the coefficient block at a new lambda, structure frozen."""
    if model.inst is None:
        raise ValueError("model carries no problem instance to refit")
    inst = replace(model.inst, lam=new_lambda)
    c = _supervised_exact(inst, model.A)
    return ModelState(C=c, A=model.A, gram=model.gram, inst=inst)
