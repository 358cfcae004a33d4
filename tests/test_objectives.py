"""Objective evaluators, gradients, convexity probes, and solution maps."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smtl.errors import (
    DimensionMismatch, InfeasiblePair, NonFinite, NotStrictlyPd,
)
from smtl.kernels import GramMatrix, KernelSpec
from smtl.linalg import PsdMatrix
from smtl.objectives import (
    ProblemInstance,
    eval_Q,
    eval_R,
    eval_S,
    grad_S_A,
    grad_S_C,
    map_Q_to_R,
    map_R_to_Q,
)
from smtl.penalties import PenaltySpec


def make_instance(seed=0, n=5, n_tasks=2, lam=0.7, delta=1e-2,
                  penalty=None, ridge=0.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    gram = GramMatrix(KernelSpec("gaussian", gamma=0.6), x)
    y = rng.standard_normal((n, n_tasks))
    w = np.ones((n, n_tasks))
    penalty = penalty or PenaltySpec.schatten(p=2.0, mu=0.5)
    return ProblemInstance(gram=gram, Y=y, W=w, lam=lam,
                           penalty=penalty, ridge=ridge, delta=delta)


def random_pd(rng, n):
    g = rng.standard_normal((n, n))
    return g @ g.T + 0.2 * np.eye(n)


def test_eval_s_frozen_example():
    """C=0, A=I, delta=1, lam=1, trace-norm penalty, Y=I: 2 + 2 + 2."""
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    gram = GramMatrix(KernelSpec("linear"), x)
    inst = ProblemInstance(gram=gram, Y=np.eye(2), W=np.ones((2, 2)),
                           lam=1.0, penalty=PenaltySpec.schatten(1.0, 1.0),
                           delta=1.0)
    val = eval_S(inst, np.zeros((2, 2)), PsdMatrix(np.eye(2)))
    assert_allclose(val, 6.0, atol=1e-12)


def test_q_equals_r_at_mapped_points():
    """eval_R(C A, A) == eval_Q(C, A) is an algebraic identity for PD A,
    ridge term included."""
    for ridge in (0.0, 0.3):
        rng = np.random.default_rng(1)
        inst = make_instance(seed=1, n_tasks=3, ridge=ridge)
        for _ in range(10):
            c = rng.standard_normal((inst.n, 3))
            a = PsdMatrix(random_pd(rng, 3))
            q = eval_Q(inst, c, a)
            r = eval_R(inst, c @ a.data, a)
            assert_allclose(r, q, rtol=1e-10)


def test_map_round_trips():
    inst = make_instance(seed=2, n_tasks=3)
    rng = np.random.default_rng(3)
    c = rng.standard_normal((inst.n, 3))
    a = PsdMatrix(random_pd(rng, 3))
    c_r, a_r = map_Q_to_R(inst, c, a)
    assert_allclose(c_r, c @ a.data, atol=1e-12)
    c_q, a_q = map_R_to_Q(inst, c_r, a_r)
    assert_allclose(eval_Q(inst, c_q, a_q), eval_Q(inst, c, a), rtol=1e-9)


def test_map_with_singular_structure():
    """Rows of C outside Ran(A) are annihilated going Q->R; the reverse
    map rejects coefficients that use the null space. Q at the mapped
    point equals R, ridge term included."""
    x = np.eye(1)
    gram = GramMatrix(KernelSpec("linear"), x)
    for ridge in (0.0, 0.3):
        inst = ProblemInstance(gram=gram, Y=np.ones((1, 2)),
                               W=np.ones((1, 2)), lam=1.0,
                               penalty=PenaltySpec.schatten(1.0, 1.0),
                               ridge=ridge, delta=0.0)
        a = PsdMatrix(np.diag([2.0, 0.0]))
        c_r, _ = map_Q_to_R(inst, np.array([[2.0, 5.0]]), a)
        assert_allclose(c_r, [[4.0, 0.0]])
        c_q, _ = map_R_to_Q(inst, np.array([[2.0, 0.0]]), a)
        assert_allclose(c_q, [[1.0, 0.0]])
        assert_allclose(eval_Q(inst, c_q, a),
                        eval_R(inst, np.array([[2.0, 0.0]]), a), rtol=1e-14)
        with pytest.raises(InfeasiblePair):
            map_R_to_Q(inst, np.array([[0.0, 1.0]]), a)


def test_eval_r_infinite_off_range():
    inst = make_instance(seed=4)
    a = PsdMatrix(np.diag([1.0, 0.0]))
    rng = np.random.default_rng(4)
    c = rng.standard_normal((inst.n, 2))
    c[:, 1] = 1.0  # puts weight on A's null space
    assert eval_R(inst, c, a) == np.inf


def test_eval_s_requires_positive_delta_and_pd_a():
    inst = make_instance(seed=5, delta=0.0)
    with pytest.raises(ValueError):
        eval_S(inst, np.zeros((inst.n, 2)), PsdMatrix(np.eye(2)))
    inst = make_instance(seed=5, delta=1e-3)
    with pytest.raises(NotStrictlyPd):
        eval_S(inst, np.zeros((inst.n, 2)), PsdMatrix(np.diag([1.0, 0.0])))


@pytest.mark.parametrize("n_tasks", [3, 50])
@pytest.mark.parametrize("delta", [1e-1, 1e-4])
def test_eval_s_matches_dense_reference(n_tasks, delta):
    """The eigenbasis evaluation equals loss + lam tr(A^{-1}(C'KC + d^2 I))
    + ridge tr(C'KC) + F(A) computed densely with a linear solve."""
    rng = np.random.default_rng(11 + n_tasks)
    penalty = PenaltySpec.schatten(p=2.0, mu=0.5)
    inst = make_instance(seed=11, n=30, n_tasks=n_tasks, delta=delta,
                         penalty=penalty, ridge=0.3)
    for _ in range(3):
        c = rng.standard_normal((inst.n, n_tasks))
        a = PsdMatrix(random_pd(rng, n_tasks))
        kc = inst.gram.raw @ c
        m = c.T @ kc
        b = m + delta ** 2 * np.eye(n_tasks)
        ref = (np.sum(inst.W * (inst.Y - kc) ** 2)
               + inst.lam * np.trace(np.linalg.solve(a.data, b))
               + inst.ridge * np.trace(m)
               + penalty.mu * np.sum(np.linalg.eigvalsh(a.data) ** 2))
        assert_allclose(eval_S(inst, c, a), ref, rtol=1e-10)


def test_eval_s_accurate_where_a_is_of_order_delta():
    """Directions C barely uses get eigenvalues of A of order delta. The
    trace term there is delta^2 / w up to roundoff of order eps^2, not
    eps ||C'KC|| / w, which would swamp the objective."""
    rng = np.random.default_rng(12)
    n_tasks, rank, delta = 12, 3, 1e-10
    inst = make_instance(seed=12, n=40, n_tasks=n_tasks, delta=delta,
                         penalty=PenaltySpec.schatten(1.0, 1.0))
    q, _ = np.linalg.qr(rng.standard_normal((n_tasks, n_tasks)))
    c = 10.0 * rng.standard_normal((inst.n, rank)) @ q[:, :rank].T
    w = np.concatenate([rng.uniform(1.0, 2.0, rank),
                        np.full(n_tasks - rank, delta)])
    a = PsdMatrix.from_eig(w, q)
    w = a.eigenvalues  # sorted, in step with a.eigenvectors
    kc = inst.gram.raw @ c
    vr = a.eigenvectors[:, :rank]
    m_range = vr.T @ (c.T @ kc) @ vr
    ref = (np.sum(inst.W * (inst.Y - kc) ** 2)
           + inst.lam * (np.trace(np.linalg.solve(np.diag(w[:rank]), m_range))
                         + delta ** 2 * np.sum(1.0 / w))
           + np.sum(w))
    assert abs(eval_S(inst, c, a) - ref) <= 1e-12 * (1.0 + abs(ref))


def test_factored_quad_forms_ignore_null_space_bulk():
    """On a linear kernel with d < n the forms are ``||X'C v_i||^2``. C
    here is a rank-2 range part plus null-space bulk 1e8 times larger, in
    every task. The forms of the four directions the range part misses are
    0; they read about (eps ||X|| ||C||)^2 ~ 1e-12, where the form from
    ``C V`` and ``KC V`` reads ~1e-6, the bulk times KC's roundoff."""
    rng = np.random.default_rng(13)
    n, d, n_tasks, rank = 40, 4, 6, 2
    x = rng.standard_normal((n, d))
    gram = GramMatrix(KernelSpec("linear"), x)
    assert gram.factored
    v = np.linalg.qr(rng.standard_normal((n_tasks, n_tasks)))[0]
    c_range = x @ rng.standard_normal((d, rank)) @ v[:, :rank].T
    null_basis = np.linalg.svd(x)[0][:, d:]  # orthogonal to X's columns
    c = c_range + 1e8 * null_basis @ rng.standard_normal((n - d, n_tasks))
    kc = gram.dot(c)
    quads = gram.diag_quads(c, kc, v)
    ref = np.sum((x.T @ c_range @ v[:, :rank]) ** 2, axis=0)
    assert_allclose(quads[:rank], ref, rtol=1e-8)
    assert np.all(np.abs(quads[rank:]) <= 1e-10)
    generic = np.sum((c @ v) * (kc @ v), axis=0)
    assert np.max(np.abs(generic[rank:])) > 1e-10


def test_eval_s_nondecreasing_in_delta():
    rng = np.random.default_rng(6)
    base = make_instance(seed=6)
    c = rng.standard_normal((base.n, 2))
    a = PsdMatrix(random_pd(rng, 2))
    vals = [eval_S(base.with_delta(d), c, a) for d in (1e-4, 1e-2, 1e-1, 1.0)]
    assert all(v1 <= v2 + 1e-12 for v1, v2 in zip(vals, vals[1:]))


class TestGradients:
    def finite_diff(self, f, x, h=1e-5):
        g = np.zeros_like(x)
        for idx in np.ndindex(*x.shape):
            xp = x.copy(); xp[idx] += h
            xm = x.copy(); xm[idx] -= h
            g[idx] = (f(xp) - f(xm)) / (2 * h)
        return g

    def test_grad_c(self):
        count = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            inst = make_instance(seed=seed, ridge=0.05 * (seed % 2))
            c = rng.standard_normal((inst.n, 2)) * 0.5
            a = PsdMatrix(random_pd(rng, 2))
            g = grad_S_C(inst, c, a)
            fd = self.finite_diff(lambda cc: eval_S(inst, cc, a), c)
            rel = np.linalg.norm(g - fd) / (1 + np.linalg.norm(fd))
            assert rel < 1e-5, "seed %d: rel error %.2e" % (seed, rel)
            count += 1
        assert count == 10

    def test_grad_a(self):
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            inst = make_instance(seed=seed)
            c = rng.standard_normal((inst.n, 2)) * 0.5
            a0 = random_pd(rng, 2)

            def f(avec):
                m = avec.reshape(2, 2)
                return eval_S(inst, c, PsdMatrix(0.5 * (m + m.T)))

            g = grad_S_A(inst, c, PsdMatrix(a0))
            fd = self.finite_diff(f, a0.ravel()).reshape(2, 2)
            fd = 0.5 * (fd + fd.T)
            rel = np.linalg.norm(g - fd) / (1 + np.linalg.norm(fd))
            assert rel < 1e-5, "seed %d: rel error %.2e" % (seed, rel)


def test_joint_convexity_midpoint_probes():
    """R and S are jointly convex in (C, A): midpoint value never exceeds
    the chord average."""
    rng = np.random.default_rng(7)
    inst = make_instance(seed=7, delta=1e-2,
                         penalty=PenaltySpec.schatten(1.0, 1.0))
    for _ in range(50):
        c1 = rng.standard_normal((inst.n, 2))
        c2 = rng.standard_normal((inst.n, 2))
        a1 = random_pd(rng, 2)
        a2 = random_pd(rng, 2)
        mid_s = eval_S(inst, 0.5 * (c1 + c2), PsdMatrix(0.5 * (a1 + a2)))
        chord = 0.5 * (eval_S(inst, c1, PsdMatrix(a1))
                       + eval_S(inst, c2, PsdMatrix(a2)))
        assert mid_s <= chord + 1e-9 * (1 + abs(chord))
        mid_r = eval_R(inst, 0.5 * (c1 + c2), PsdMatrix(0.5 * (a1 + a2)))
        chord_r = 0.5 * (eval_R(inst, c1, PsdMatrix(a1))
                         + eval_R(inst, c2, PsdMatrix(a2)))
        assert mid_r <= chord_r + 1e-9 * (1 + abs(chord_r))


def test_instance_validation():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 2))
    gram = GramMatrix(KernelSpec("linear"), x)
    with pytest.raises(ValueError):
        ProblemInstance(gram=gram, Y=np.ones((4, 2)), W=np.ones((4, 2)),
                        lam=-1.0, penalty=PenaltySpec.trace_one(), delta=0.0)
    with pytest.raises(DimensionMismatch):
        ProblemInstance(gram=gram, Y=np.ones((3, 2)), W=np.ones((4, 2)),
                        lam=1.0, penalty=PenaltySpec.trace_one(), delta=0.0)
    with pytest.raises(DimensionMismatch):  # Y rows != gram.n
        ProblemInstance(gram=gram, Y=np.ones((3, 2)), W=np.ones((3, 2)),
                        lam=1.0, penalty=PenaltySpec.trace_one(), delta=0.0)
    for bad in ({"ridge": -0.1}, {"delta": -1e-3},
                {"W": -np.ones((4, 2))}):
        args = dict(gram=gram, Y=np.ones((4, 2)), W=np.ones((4, 2)),
                    lam=1.0, penalty=PenaltySpec.trace_one(), delta=0.0)
        args.update(bad)
        with pytest.raises(ValueError):
            ProblemInstance(**args)
    inst = ProblemInstance(gram=gram, Y=np.ones((4, 2)), W=np.ones((4, 2)),
                           lam=1.0, penalty=PenaltySpec.schatten(),
                           delta=1e-2)
    for evaluate in (eval_Q, eval_R, eval_S, grad_S_C, grad_S_A):
        with pytest.raises(DimensionMismatch):  # C must be n x T
            evaluate(inst, np.ones((4, 3)), PsdMatrix(np.eye(2)))


@pytest.mark.parametrize("field, value, error", [
    ("lam", float("inf"), ValueError),
    ("lam", float("nan"), ValueError),
    ("ridge", float("inf"), ValueError),
    ("ridge", float("nan"), ValueError),
    ("delta", float("inf"), ValueError),
    ("delta", float("nan"), ValueError),
    ("Y", float("nan"), NonFinite),
    ("Y", float("inf"), NonFinite),
    ("W", float("inf"), NonFinite),
    ("W", float("nan"), NonFinite),
])
def test_instance_rejects_non_finite(field, value, error):
    """A non-finite weight, target or setting is refused where the
    instance is built, not by the objective turning NaN mid-fit."""
    gram = GramMatrix(KernelSpec("linear"), np.ones((4, 2)))
    args = dict(gram=gram, Y=np.ones((4, 2)), W=np.ones((4, 2)), lam=1.0,
                penalty=PenaltySpec.schatten(), ridge=0.0, delta=1e-2)
    if field in ("Y", "W"):
        args[field][1, 1] = value
    else:
        args[field] = value
    with pytest.raises(error):
        ProblemInstance(**args)
