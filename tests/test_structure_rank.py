"""The structure step at the rank of the data, against the dense routes.

Three T x T spectral computations of the A-step have low-rank forms:

* the eigenpairs of C'KC come from its r x T factor when r < T
  (``quad_eig``, :func:`smtl.linalg.factor_eig`), where the dense route is
  ``sym_eig`` of the formed C'KC;
* the cluster map ``M -> A`` takes M as a factor Z and eigendecomposes
  ``A^{-1}(M)`` on span[Z, 1] only, where the dense route inverts the
  formed T x T ``A^{-1}(M)``;
* the cluster feasibility test reads M's spectrum by deflation, where the
  dense route takes ``eigvalsh`` of the T x T ``V'MV``.

Fits on both routes agree: trajectories within 1e-10 relative, and A
within 1e-10 relative in Frobenius norm, since A = f(B) is unique even
where B's eigenvectors are not.
"""

import numpy as np
import pytest

import smtl.linalg
import smtl.penalties
from smtl.data import TaskDataset
from smtl.kernels import DiagonalGram, GramMatrix, KernelSpec
from smtl.linalg import PsdMatrix, factor_eig, sym_eig
from smtl.objectives import ProblemInstance
from smtl.penalties import (
    PenaltySpec,
    _assignment_spectrum,
    _cluster_assignment,
    _cluster_structure,
    penalty_value,
    project_capped_simplex,
    project_structure,
    unsupervised_min,
)
from smtl.solver import SolverConfig, fit, unsupervised_step

N, D, T = 40, 3, 8


def dense_quad_eig(gram, c, kc=None):
    return smtl.linalg.sym_eig(gram.quad(c, kc))


def dense_cluster_structure(spec, z):
    """The cluster map on the formed T x T ``A^{-1}(ZZ')``."""
    t = z.shape[0]
    a_inv = ((spec.eps_b - spec.eps_w) * (z @ z.T)
             + (spec.eps_m - spec.eps_b) * np.full((t, t), 1.0 / t)
             + spec.eps_w * np.eye(t))
    e = sym_eig(a_inv)
    return PsdMatrix.from_eig(1.0 / e.eigenvalues, e.eigenvectors)


@pytest.fixture
def dense_routes(monkeypatch):
    """Sends the A-step down the dense T x T routes while installed."""
    def install():
        for cls in (DiagonalGram, GramMatrix):
            monkeypatch.setattr(cls, "quad_eig", dense_quad_eig)
        monkeypatch.setattr(smtl.penalties, "_cluster_structure",
                            dense_cluster_structure)
    return install


def dataset(masked):
    """A linear kernel with d < n and T > d: C'KC has rank d < T."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((N, D))
    y = x @ rng.standard_normal((D, T)) + 0.3 * rng.standard_normal((N, T))
    w = np.ones((N, T))
    if masked:
        w *= rng.random((N, T)) >= 0.3
        w[np.arange(N), np.arange(N) % T] = 1.0  # no empty task
    return TaskDataset(X=x, Y=y * w, W=w, task_ids=np.arange(N) % T,
                       task_sizes=(w > 0).sum(axis=0))


PENALTIES = {
    "schatten_p1": PenaltySpec.schatten(1.0, 1.0),
    "schatten_p2": PenaltySpec.schatten(2.0, 0.5),
    "trace_one": PenaltySpec.trace_one(),
    "cluster_eps_b_below_eps_w": PenaltySpec.cluster(2, 0.5, 1.0, 2.0),
    # B's T - D smallest eigenvalues are all delta^2: r = T - D + 1 takes
    # that whole block, so the minimizing assignment is unique
    "cluster_eps_b_above_eps_w": PenaltySpec.cluster(T - D + 1, 1.0, 1.5,
                                                     0.8),
    "cluster_eps_b_equals_eps_w": PenaltySpec.cluster(2, 1.3, 1.0, 1.0),
    "fixed": PenaltySpec.fixed(np.eye(T) + 0.2),
}


def relative_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("mode", ["altmin", "bcd"])
@pytest.mark.parametrize("name", sorted(PENALTIES))
def test_fit_matches_dense_route(dense_routes, mode, name):
    """Uniform weights: the fit runs in K's eigenbasis, on a DiagonalGram
    of r = D rows."""
    args = (dataset(masked=False), KernelSpec("linear"), PENALTIES[name], 0.1)
    config = SolverConfig(mode=mode, max_iter=25)
    model, rep = fit(*args, config=config)
    dense_routes()
    ref_model, ref = fit(*args, config=config)
    assert rep.iters == ref.iters
    got = np.array(rep.objective_trajectory)
    want = np.array(ref.objective_trajectory)
    finite = np.isfinite(want)  # an indicator's S is +inf at A = I
    assert np.array_equal(np.isfinite(got), finite)
    assert np.all(np.abs(got[finite] - want[finite])
                  <= 1e-10 * np.abs(want[finite]))
    assert relative_gap(model.A.data, ref_model.A.data) <= 1e-10


@pytest.mark.parametrize("name", sorted(PENALTIES))
def test_masked_a_step_matches_dense_route(dense_routes, name):
    """Masked weights: the A-step reads the factored GramMatrix's D x T
    factor X'C. A whole fit is not compared, since its C-steps stop at a
    tolerance that passes A's roundoff on to C."""
    ds = dataset(masked=True)
    inst = ProblemInstance(gram=GramMatrix(KernelSpec("linear"), ds.X),
                           Y=ds.Y, W=ds.W, lam=0.1, penalty=PENALTIES[name],
                           delta=1e-3)
    c = np.random.default_rng(2).standard_normal((N, T))
    a = unsupervised_step(inst, c, None)
    dense_routes()
    ref = unsupervised_step(inst, c, None)
    assert relative_gap(a.data, ref.data) <= 1e-10


@pytest.mark.parametrize("rows", [0, 1, D, T - 1])
def test_factor_eig_is_the_spectral_form_of_the_product(rows):
    rng = np.random.default_rng(rows)
    f = rng.standard_normal((rows, T))
    if rows > 1:
        f[-1] = f[0]  # rank below the row count
    e = factor_eig(f)
    ref = sym_eig(f.T @ f)
    scale = max(1.0, ref.eigenvalues[0])
    assert np.all(np.diff(e.eigenvalues) <= 0.0)
    assert np.all(e.eigenvalues[rows:] == 0.0)
    assert np.allclose(e.eigenvalues, ref.eigenvalues, rtol=0.0,
                       atol=1e-12 * scale)
    v = e.eigenvectors
    assert np.allclose(v.T @ v, np.eye(T), rtol=0.0, atol=1e-13)
    assert np.allclose((v * e.eigenvalues) @ v.T, f.T @ f, rtol=0.0,
                       atol=1e-12 * scale)
    top = np.argmax(np.abs(v), axis=0)
    assert np.all(v[top, np.arange(T)] > 0.0)


@pytest.mark.parametrize("gram_kind", ["diagonal", "factored", "raw"])
@pytest.mark.parametrize("rank", [D, T], ids=["rank_below_T", "rank_T"])
def test_quad_eig_takes_the_factor_only_below_t(monkeypatch, gram_kind,
                                                rank):
    """Every form goes through the smtl.linalg module attribute, which the
    benchmark's tracer and the call-counting tests patch. A raw kernel has
    no factor, so it takes ``sym_eig`` even with n = rank < T."""
    rng = np.random.default_rng(rank)
    n = rank + 5
    if gram_kind == "diagonal":
        gram = DiagonalGram(rng.random(rank) + 0.1)
        c = rng.standard_normal((rank, T))
    elif gram_kind == "factored":
        gram = GramMatrix(KernelSpec("linear"),
                          rng.standard_normal((n, rank)))
        c = rng.standard_normal((n, T))
    else:
        gram = GramMatrix(KernelSpec("gaussian", gamma=0.5),
                          rng.standard_normal((rank, D)))
        c = rng.standard_normal((rank, T))
    calls = []
    for name in ("factor_eig", "sym_eig"):
        original = getattr(smtl.linalg, name)
        monkeypatch.setattr(smtl.linalg, name,
                            lambda a, name=name, original=original:
                            calls.append(name) or original(a))
    e = gram.quad_eig(c, gram.dot(c))
    factor = gram_kind != "raw" and rank < T
    assert calls == ["factor_eig" if factor else "sym_eig"]
    m = gram.quad(c)
    v = e.eigenvectors
    assert np.allclose((v * e.eigenvalues) @ v.T, m, rtol=0.0,
                       atol=1e-12 * np.linalg.norm(m))


def assignment_factor(rng, rank, r):
    """A factor Z of T rows and ``rank`` columns with ``M = ZZ'`` in the
    cluster set ``{0 <= M <= I, tr(M) = r}``."""
    q = np.linalg.qr(rng.standard_normal((T, rank)))[0]
    w = project_capped_simplex(rng.uniform(-1.0, 2.0, size=rank), r)
    return q * np.sqrt(w)


@pytest.mark.parametrize("eps", [(1.0, 1.5, 0.8), (0.5, 1.0, 2.0),
                                 (1.0, 1.0, 2.0), (1.3, 1.0, 1.0),
                                 (0.7, 0.7, 0.7)],
                         ids=["eps_b_above_eps_w", "eps_b_below_eps_w",
                              "eps_m_equals_eps_b", "eps_b_equals_eps_w",
                              "all_equal"])
@pytest.mark.parametrize("rank", [1, 3, T - 1, T])
def test_cluster_map_matches_dense_inverse(eps, rank):
    rng = np.random.default_rng(rank)
    spec = PenaltySpec.cluster(min(rank, 2), *eps)
    z = assignment_factor(rng, rank, min(rank, 2))
    a = _cluster_structure(spec, z)
    ref = dense_cluster_structure(spec, z)
    assert relative_gap(a.data, ref.data) <= 1e-12
    assert np.all(a.eigenvalues > 0.0)
    v = a.eigenvectors
    assert np.allclose(v.T @ v, np.eye(T), rtol=0.0, atol=1e-13)


def test_equal_weights_give_one_structure_bit_for_bit():
    """With eps_b == eps_w neither the fit's map nor bcd's projection reads
    M, so both give the same A whatever B or the matrix projected."""
    rng = np.random.default_rng(4)
    for eps in ((1.3, 1.0, 1.0), (1.0, 1.0, 1.0)):
        spec = PenaltySpec.cluster(2, *eps)
        g = rng.standard_normal((T, T))
        a = unsupervised_min(spec, PsdMatrix(g @ g.T + np.eye(T)), lam=0.7)
        p = project_structure(spec, rng.standard_normal((T, T)))
        assert np.array_equal(p.data, a.data)
        assert np.array_equal(p.eigenvalues, a.eigenvalues)
        assert penalty_value(spec, p) == 0.0


def dense_assignment_spectrum(spec, a):
    inv_w = 1.0 / a.eigenvalues
    g = a.eigenvectors.sum(axis=0) / np.sqrt(a.dim)
    return np.linalg.eigvalsh(_cluster_assignment(spec, inv_w, g))


@pytest.mark.parametrize("eps", [(1.0, 1.5, 0.8), (0.5, 1.0, 2.0)],
                         ids=["eps_b_above_eps_w", "eps_b_below_eps_w"])
def test_deflated_spectrum_matches_eigvalsh(eps):
    rng = np.random.default_rng(9)
    n_tasks = 40
    spec = PenaltySpec.cluster(3, *eps)
    g = rng.standard_normal((n_tasks, n_tasks))
    random_a = PsdMatrix(g @ g.T / n_tasks + 0.1 * np.eye(n_tasks))
    fitted_a = unsupervised_min(spec, random_a, lam=0.7)
    # ties on random eigenvectors, so that g has weight on every group
    tied_a = PsdMatrix.from_eig(np.repeat([3.0, 2.0, 1.5, 0.5], 10),
                                np.linalg.qr(g)[0])
    assert np.unique(random_a.eigenvalues).size == n_tasks  # no ties
    assert np.unique(fitted_a.eigenvalues).size <= spec.r + 2  # T - k tied
    for a in (random_a, fitted_a, tied_a):
        inv_w = 1.0 / a.eigenvalues
        got = np.sort(_assignment_spectrum(
            spec, inv_w, a.eigenvectors.sum(axis=0) / np.sqrt(n_tasks)))
        want = dense_assignment_spectrum(spec, a)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(
            1.0, np.max(np.abs(want)))
    assert penalty_value(spec, fitted_a) == 0.0
