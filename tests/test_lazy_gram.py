"""The training Gram matrix is evaluated and decomposed only when used.

Construction evaluates no kernel; the raw kernel matrix is built on first
use, and its spectral form (one n x n eigendecomposition) only for the
uniform-weight route's eigenbasis. The one-hot and CG routes, and a model
read back from disk for prediction, never decompose an n x n matrix.
Products with a linear kernel whose d < n go through the n x d inputs, and
its eigenbasis comes from the thin SVD of those inputs, so the uniform and
CG routes never evaluate that kernel at all. ``fit`` on bit-for-bit the
inputs of a model still alive reuses that model's Gram, forms and all.
"""

import gc
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import smtl.kernels
import smtl.linalg
import smtl.solver
from smtl.data import TaskDataset
from smtl.errors import DimensionMismatch, NonFinite, NotPsd
from smtl.kernels import DiagonalGram, GramMatrix, KernelSpec
from smtl.linalg import psd_clip
from smtl.metrics import predict
from smtl.model_io import load_model, save_model
from smtl.penalties import PenaltySpec
from smtl.solver import SolverConfig, fit, fit_gram

N, T = 30, 3


def dataset(pattern, seed=0):
    """Uniform weights, one observed entry per row, or a random mask."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((N, 4))
    y = rng.standard_normal((N, T))
    tids = np.arange(N) % T
    if pattern == "uniform":
        w = np.ones((N, T))
    elif pattern == "one_hot":
        w = np.zeros((N, T))
        w[np.arange(N), tids] = 1.0
    else:
        w = (rng.random((N, T)) < 0.7).astype(float)
        w[np.arange(N), tids] = 1.0  # no empty task, >1 entry in most rows
    return TaskDataset(X=x, Y=y * (w > 0), W=w, task_ids=tids)


def fit_small(ds, spec=KernelSpec("gaussian", gamma=0.4), lam=0.2):
    return fit(ds, spec, PenaltySpec.schatten(1.0, 1.0), lam,
               config=SolverConfig(max_iter=5))


@pytest.fixture
def n_by_n_eigs(monkeypatch):
    """Records the size of every ``smtl.linalg.sym_eig`` call on a matrix
    of at least N rows: the n x n ones, on data with fewer than N tasks."""
    seen = []
    original = smtl.linalg.sym_eig

    def counting(a):
        if np.shape(a)[0] >= N:
            seen.append(np.shape(a)[0])
        return original(a)

    monkeypatch.setattr(smtl.linalg, "sym_eig", counting)
    return seen


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []
    original = smtl.kernels.gram

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(smtl.kernels, "gram", counting)
    return calls


def test_uniform_fit_decomposes_gram_once(n_by_n_eigs):
    fit_small(dataset("uniform"))
    assert len(n_by_n_eigs) == 1


@pytest.mark.parametrize("pattern, spec", [
    ("one_hot", KernelSpec("gaussian", gamma=0.4)),
    ("masked", KernelSpec("gaussian", gamma=0.4)),
    ("one_hot", KernelSpec("linear")),
], ids=["one_hot", "masked", "one_hot_linear_factored"])
def test_one_hot_and_cg_fits_decompose_nothing(monkeypatch, n_by_n_eigs,
                                              kernel_calls, pattern, spec):
    """They evaluate the kernel once, inside fit_gram, on a factored
    linear kernel too: the one-hot route's system matrix reads K's entries
    (``gram.raw``)."""
    calls_at_fit_gram = []
    original = smtl.solver.fit_gram

    def spy(*args, **kwargs):
        calls_at_fit_gram.append(len(kernel_calls))
        return original(*args, **kwargs)

    monkeypatch.setattr(smtl.solver, "fit_gram", spy)
    _, rep = fit_small(dataset(pattern), spec)
    assert rep.iters >= 1
    assert n_by_n_eigs == []
    assert calls_at_fit_gram == [0] and len(kernel_calls) == 1


def test_load_and_predict_decompose_nothing(tmp_path, n_by_n_eigs):
    model, _ = fit_small(dataset("one_hot"))
    path = tmp_path / "m.txt"
    save_model(model, path)
    back = load_model(path)
    z = predict(back, dataset("one_hot", seed=1).X)
    assert z.shape == (N, T)
    assert n_by_n_eigs == []


def test_construction_evaluates_no_kernel(kernel_calls, n_by_n_eigs):
    gm = GramMatrix(KernelSpec("gaussian", gamma=0.4), np.ones((N, 2)))
    assert kernel_calls == []
    raw = gm.raw
    assert len(kernel_calls) == 1 and raw is gm.raw
    assert n_by_n_eigs == []
    basis = gm.eigenbasis
    assert basis is gm.eigenbasis
    assert len(kernel_calls) == 1 and len(n_by_n_eigs) == 1


def test_spectral_form_reconstructs_raw_kernel():
    rng = np.random.default_rng(5)
    for spec in (KernelSpec("linear"), KernelSpec("gaussian", gamma=0.3)):
        gm = GramMatrix(spec, rng.standard_normal((N, 4)))
        v, w = gm.eigenbasis
        rebuilt = (v * w) @ v.T
        gap = np.linalg.norm(rebuilt - gm.raw) / np.linalg.norm(gm.raw)
        assert gap <= 1e-10
        assert np.all(w >= 0.0)
        assert_allclose(gm.raw, gm.raw.T, atol=0)
        with pytest.raises(ValueError):
            gm.raw[0, 0] = 1.0


def test_raw_eigenbasis_is_sym_eig_as_returned():
    """A raw kernel's eigenbasis is ``sym_eig``'s pairs as it returns them:
    U row-major and bit-identical to its eigenvectors (BLAS sums the
    uniform-weight fits' products with U in another order on the other
    layout), s its eigenvalues with the roundoff negatives clipped."""
    x = np.random.default_rng(6).standard_normal((N, 1))
    gm = GramMatrix(KernelSpec("gaussian", gamma=0.3), x)
    u, s = gm.eigenbasis
    e = smtl.linalg.sym_eig(gm.raw)
    assert u.flags.c_contiguous
    assert np.array_equal(u, e.eigenvectors)
    w = e.eigenvalues
    assert -1e-8 * w[0] < w[-1] < 0.0  # roundoff, clipped at tol = 1e-8
    assert np.array_equal(s, np.maximum(w, 0.0))


def test_spectral_form_rejects_clearly_indefinite():
    a = np.diag([1.0, -1e-3])
    with pytest.raises(NotPsd):
        psd_clip(a, tol=1e-8)
    kept = psd_clip(np.diag([1.0, -1e-12]), tol=1e-8)
    assert kept.eigenvalues[-1] == 0.0


def test_kernel_evaluation_is_timed_as_gram(monkeypatch):
    pause = 0.3
    original = smtl.kernels.gram

    def slow(*args, **kwargs):
        time.sleep(pause)
        return original(*args, **kwargs)

    monkeypatch.setattr(smtl.kernels, "gram", slow)
    _, rep = fit_small(dataset("uniform"))
    assert rep.wall_times["gram"] >= pause
    assert rep.wall_times["fit"] < pause


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("d", [4, N // 2, N - 1,
                               pytest.param(None, id="diagonal")])
def test_factored_products_match_raw_and_evaluate_no_kernel(kernel_calls, d):
    """A linear kernel with d < n multiplies through its factor X_train,
    and the eigenbasis Gram ``diag(s)`` (d None) through ``sqrt(s)``; each
    product matches the dense K's, and ``quad_eig`` reconstructs C'KC."""
    rng = np.random.default_rng(7)
    if d is None:
        s = rng.random(N)
        s[:3] = 0.0  # K's null space: rows that add nothing
        gm = DiagonalGram(s)
    else:
        gm = GramMatrix(KernelSpec("linear"), rng.standard_normal((N, d)))
        assert gm.factored and gm.dot_terms == N + d
    c = rng.standard_normal((N, T))
    v = np.linalg.qr(rng.standard_normal((T, T)))[0]
    kc = gm.dot(c)
    e = gm.quad_eig(c, kc)
    products = [kc, gm.quad(c, kc), gm.diag_quads(c, kc, v),
                (e.eigenvectors * e.eigenvalues) @ e.eigenvectors.T]
    if d is not None:
        products.append(gm.fro_norm)
    assert kernel_calls == []
    k = np.diag(s) if d is None else gm.raw
    refs = (k @ c, c.T @ k @ c, np.diag(v.T @ c.T @ k @ c @ v),
            c.T @ k @ c, np.linalg.norm(k))
    for got, ref in zip(products, refs):
        assert rel_err(got, ref) <= 1e-12


@pytest.mark.parametrize("spec, d", [
    (KernelSpec("gaussian", gamma=0.4), 4),
    (KernelSpec("linear"), N),
    (KernelSpec("linear"), N + 5),
], ids=["gaussian", "linear_d_eq_n", "linear_d_gt_n"])
def test_unfactored_dot_is_the_raw_product(spec, d):
    rng = np.random.default_rng(8)
    gm = GramMatrix(spec, rng.standard_normal((N, d)))
    m = rng.standard_normal((N, T))
    assert not gm.factored and gm.dot_terms == N
    assert np.array_equal(gm.dot(m), gm.raw @ m)
    assert np.array_equal(gm.quad(m), m.T @ (gm.raw @ m))
    assert gm.fro_norm == np.linalg.norm(gm.raw)


def test_factored_masked_fit_evaluates_no_kernel(kernel_calls, n_by_n_eigs):
    """On the "cg" route every K product goes through ``dot``, so a linear
    kernel with d < n is never evaluated."""
    ds = dataset("masked")
    gm = GramMatrix(KernelSpec("linear"), ds.X)
    _, rep = fit_gram(gm, ds.Y, ds.W, PenaltySpec.schatten(1.0, 1.0), 0.2,
                      config=SolverConfig(max_iter=5))
    assert rep.supervised_route == "cg" and rep.iters >= 1
    assert kernel_calls == [] and n_by_n_eigs == []


@pytest.mark.parametrize("missing_share, mode, route", [
    (0.0, "altmin", "spectral"),
    (0.3, "altmin", "cg"),
    (0.0, "bcd", "gradient"),
], ids=["uniform", "masked", "uniform_bcd"])
def test_large_factored_fit_forms_no_n_by_n_array(kernel_calls, n_by_n_eigs,
                                                  missing_share, mode, route):
    """At n = 20 000 the linear kernel would be a 3.2 GB array. With
    d = 20 uniform-weight fits, in either mode, work in the thin SVD's
    basis and the "cg" route multiplies through X, so fit() neither
    evaluates the kernel nor decomposes an n x n matrix."""
    n, d, t = 20_000, 20, 3
    rng = np.random.default_rng(3)
    x = rng.standard_normal((n, d))
    observed = rng.random((n, t)) >= missing_share
    y = x @ rng.standard_normal((d, t)) + rng.standard_normal((n, t))
    y *= observed
    ds = TaskDataset(X=x, Y=y, W=observed / n, task_ids=np.zeros(n, dtype=int),
                     task_sizes=observed.sum(axis=0))
    model, rep = fit(ds, KernelSpec("linear"), PenaltySpec.schatten(1.0, 1.0),
                     0.1, config=SolverConfig(mode=mode, max_iter=3))
    assert rep.supervised_route == route
    assert rep.iters >= 1 and np.all(np.isfinite(rep.objective_trajectory))
    assert model.C.shape == (n, t)
    assert kernel_calls == [] and n_by_n_eigs == []


# -- fit() reuses the Gram of a live model on the same inputs ---------------

GAUSSIAN = KernelSpec("gaussian", gamma=0.4)


def unshared_fit(ds, spec, lam):
    """``fit_small`` on a Gram of its own, as ``fit`` ran with no live
    model."""
    return fit_gram(GramMatrix(spec, ds.X), ds.Y, ds.W,
                    PenaltySpec.schatten(1.0, 1.0), lam,
                    config=SolverConfig(max_iter=5))


def assert_same_fit(got, ref):
    (m, rep), (m_ref, rep_ref) = got, ref
    assert np.array_equal(m.C, m_ref.C)
    assert np.array_equal(m.A.data, m_ref.A.data)
    assert rep.objective_trajectory == rep_ref.objective_trajectory


@pytest.mark.parametrize("pattern, spec", [
    ("uniform", GAUSSIAN),
    ("uniform", KernelSpec("linear")),
    ("one_hot", GAUSSIAN),
    ("masked", GAUSSIAN),
], ids=["uniform", "uniform_linear_factored", "one_hot", "masked"])
def test_fit_reuses_the_gram_of_a_live_model(n_by_n_eigs, kernel_calls,
                                            pattern, spec):
    """The next lam of a path, on a bit-equal copy of the inputs while the
    first model is alive, runs on that model's Gram: K is evaluated and
    decomposed once, the second report times no kernel, and its numbers
    are bit-identical to a fit on a Gram of its own."""
    ds = dataset(pattern)
    m1, r1 = fit_small(ds, spec)
    built = (len(kernel_calls), list(n_by_n_eigs))
    m2, r2 = fit_small(replace(ds, X=ds.X.copy()), spec, lam=0.05)
    assert m2.gram is m1.gram and m2.inst.gram is m1.gram
    assert (len(kernel_calls), n_by_n_eigs) == built
    assert n_by_n_eigs == ([N] if spec is GAUSSIAN and pattern == "uniform"
                           else [])
    assert r2.wall_times["gram"] == 0
    ref = unshared_fit(ds, spec, 0.05)
    assert ref[0].gram is not m1.gram
    assert_same_fit((m2, r2), ref)


def test_reuse_ends_with_the_last_model_that_holds_the_gram(n_by_n_eigs):
    ds = dataset("uniform")
    m1, _ = fit_small(ds)
    m2, _ = fit_small(ds, lam=0.05)
    old = weakref.ref(m1.gram)
    del m1
    gc.collect()
    assert old() is m2.gram  # m2 still holds it
    del m2
    gc.collect()
    assert old() is None
    m3, r3 = fit_small(ds)
    assert n_by_n_eigs == [N, N] and r3.wall_times["gram"] > 0


def uniform_on(x, seed=0):
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    return TaskDataset(X=x, Y=rng.standard_normal((n, T)), W=np.ones((n, T)),
                       task_ids=np.zeros(n, dtype=int),
                       task_sizes=np.full(T, n))


def base_inputs():
    x = np.random.default_rng(9).standard_normal((N, 4))
    x[5, 2] = 0.0
    return x


def one_ulp_up(x):
    x = x.copy()
    x[3, 1] = np.nextafter(x[3, 1], np.inf)
    return x


def negative_zero(x):
    x = x.copy()
    x[5, 2] = -0.0
    return x


@pytest.mark.parametrize("spec1, spec2, inputs", [
    (GAUSSIAN, GAUSSIAN, one_ulp_up),
    (GAUSSIAN, GAUSSIAN, negative_zero),
    (GAUSSIAN, GAUSSIAN, lambda x: x.reshape(2 * N, 2)),
    (GAUSSIAN, GAUSSIAN, lambda x: x.ravel().reshape(x.shape, order="F")),
    (GAUSSIAN, KernelSpec("gaussian", gamma=0.5), np.copy),
    (GAUSSIAN, KernelSpec("linear", gamma=0.4), np.copy),
    (KernelSpec("linear", gamma=0.0), KernelSpec("linear", gamma=-0.0),
     np.copy),
], ids=["one_ulp", "negative_zero", "reshaped", "same_bytes_f_order",
        "gamma", "kind", "gamma_sign"])
def test_fit_does_not_reuse_across_different_inputs(spec1, spec2, inputs):
    """Inputs match only bit for bit, shape, memory order (an F-ordered
    array with the same bytes in memory is another matrix) and kernel spec
    included: a model saved from each fit stores its own gamma, -0.0
    too."""
    x = base_inputs()
    m1, _ = fit_small(uniform_on(x), spec1)
    ds2 = uniform_on(inputs(x))
    m2, r2 = fit_small(ds2, spec2, lam=0.05)
    assert m2.gram is not m1.gram and m2.gram.spec is spec2
    assert_same_fit((m2, r2), unshared_fit(ds2, spec2, 0.05))


def test_f_ordered_inputs_get_a_gram_of_their_own():
    """Memory order is part of the match, so a fit on an F-ordered copy of
    a live model's inputs builds its own Gram, and is bit-identical to a
    fit on an F-ordered Gram of its own; a second fit on that copy shares
    it."""
    ds = dataset("uniform")
    m1, _ = fit_small(ds)
    ds_f = replace(ds, X=np.asfortranarray(ds.X))
    m2, r2 = fit_small(ds_f, lam=0.05)
    assert m2.gram is not m1.gram
    assert m2.gram.X_train.flags.f_contiguous
    assert_same_fit((m2, r2), unshared_fit(ds_f, GAUSSIAN, 0.05))
    m3, _ = fit_small(ds_f)
    assert m3.gram is m2.gram


@pytest.mark.parametrize("edit, error, match", [
    (lambda x: np.where(np.arange(4) == 1, np.nan, x), NonFinite,
     "non-finite"),
    (lambda x: np.where(np.arange(4) == 1, 1e200, x), NonFinite,
     "^training input row 0: its squared norm"),
    (lambda x: x[:, :0], DimensionMismatch, "no feature columns"),
], ids=["nan", "overflow", "no_columns"])
def test_invalid_inputs_raise_with_a_live_model(edit, error, match):
    """Every input check runs before the lookup."""
    ds = dataset("uniform")
    m1, _ = fit_small(ds)
    with pytest.raises(error, match=match):
        fit_small(replace(ds, X=edit(ds.X)))
    assert fit_small(ds, lam=0.05)[0].gram is m1.gram
