"""Symmetry and eigenvector signs, each established once.

``sym_eig`` reads only the lower triangle of what it is given (numpy's
``eigh`` contract), so every matrix that reaches it must be exactly
symmetric: the package's own products are, by construction or by one
half-sum where they are formed, and ``PsdMatrix(data)`` symmetrizes outside
input. Eigenvector signs are fixed by the decompositions; ``from_eig``
keeps what it is given, so the one caller whose eigenvectors come from a
QR factorization, the cluster map, signs its own.
"""

import itertools

import numpy as np
import pytest

import smtl.linalg
import smtl.oracles
import smtl.penalties
from smtl.errors import DimensionMismatch
from smtl.kernels import GramMatrix, KernelSpec
from smtl.linalg import PsdMatrix, sym_eig
from smtl.penalties import (
    PenaltySpec,
    structure_coding,
    structure_graph,
    structure_mean_variance,
    structure_metric,
)
from smtl.solver import SolverConfig, fit_gram

N, T = 12, 5

PENALTIES = {
    "schatten_p1": PenaltySpec.schatten(1.0, 1.0),
    "schatten_p2": PenaltySpec.schatten(2.0, 0.5),
    "trace_one": PenaltySpec.trace_one(),
    "cluster_eps_b_above_eps_w": PenaltySpec.cluster(2, 1.0, 1.2, 0.5),
    "cluster_eps_b_below_eps_w": PenaltySpec.cluster(2, 1.0, 0.5, 2.0),
    "cluster_eps_b_equals_eps_w": PenaltySpec.cluster(2, 1.3, 1.0, 1.0),
    "fixed": PenaltySpec.fixed(np.eye(T) + 0.3 * np.ones((T, T)) / T),
}

# Every form of K's products: a factor of rank below T (and, with uniform
# weights, K's eigenbasis of r < T), a factor of rank at least T, no
# factor (d >= n), and a gaussian kernel (no factor, r = n eigenbasis).
KERNELS = {
    "linear_r_below_t": (KernelSpec("linear"), 2),
    "linear_r_above_t": (KernelSpec("linear"), 8),
    "linear_unfactored": (KernelSpec("linear"), N + 3),
    "gaussian": (KernelSpec("gaussian", gamma=0.5), 3),
}

# The C-step's routes: one-hot, spectral (uniform) and "cg" (masked) in
# altmin mode; every pattern takes the gradient route in bcd mode.
WEIGHTS = ("one_hot", "uniform", "masked")


def weights(kind, rng):
    if kind == "one_hot":
        w = np.zeros((N, T))
        w[np.arange(N), np.arange(N) % T] = 1.0
    elif kind == "uniform":
        w = np.ones((N, T))
    else:
        w = (rng.random((N, T)) >= 0.3).astype(float)
        w[:, 0] = 1.0
    return w


@pytest.fixture
def asymmetric_inputs(monkeypatch):
    """Wraps every ``sym_eig`` the package reaches; the list it returns
    collects the shape of each input that is not exactly symmetric."""
    seen = []

    def checked(a):
        arr = np.asarray(a)
        if arr.ndim == 2 and not np.array_equal(arr, arr.T):
            seen.append(arr.shape)
        return sym_eig(a)

    for module in (smtl.linalg, smtl.penalties, smtl.oracles):
        monkeypatch.setattr(module, "sym_eig", checked)
    return seen


def has_sign_convention(v):
    """Each column's entry of largest magnitude (the first, if tied) is
    positive."""
    top = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return bool(np.all(top > 0))


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_fits_decompose_only_symmetric_matrices(asymmetric_inputs, kernel):
    spec, d = KERNELS[kernel]
    rng = np.random.default_rng(5)
    x = rng.standard_normal((N, d))
    y = x[:, :1] @ rng.standard_normal((1, T)) + rng.standard_normal((N, T))
    unsigned = []
    for wkind, mode, name in itertools.product(
            WEIGHTS, ("altmin", "bcd"), sorted(PENALTIES)):
        w = weights(wkind, rng)
        model, _ = fit_gram(GramMatrix(spec, x), y * w, w, PENALTIES[name],
                            0.1, config=SolverConfig(max_iter=5, mode=mode))
        if not has_sign_convention(model.A.eigenvectors):
            unsigned.append((wkind, mode, name))
    assert asymmetric_inputs == []
    assert unsigned == []


def test_oracle_battery_decomposes_only_symmetric_matrices(
        asymmetric_inputs):
    assert all(r.passed for r in smtl.oracles.run_all(seed=0))
    assert asymmetric_inputs == []


@pytest.mark.parametrize("layout", ["c", "f", "strided"])
def test_structure_builders_decompose_only_symmetric_matrices(
        asymmetric_inputs, layout):
    rng = np.random.default_rng(6)
    base = rng.standard_normal((7, 2 * T))
    arr = {"c": base[:, :T].copy(), "f": np.asfortranarray(base[:, :T]),
           "strided": base[:, ::2]}[layout]
    adjacency = np.abs(arr.T @ arr)
    built = [structure_coding(arr), structure_metric(arr.T @ arr),
             structure_graph(0.5 * (adjacency + adjacency.T), 0.5),
             structure_mean_variance(T, 2.0)]
    assert asymmetric_inputs == []
    assert all(has_sign_convention(a.eigenvectors) for a in built)


def test_psd_matrix_symmetrizes_outside_input_once():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((6, 6))
    m = g @ g.T + np.eye(6)
    m[0, 1] += 1e-9  # symmetric only up to roundoff
    a = PsdMatrix(m)
    half = 0.5 * (m + m.T)
    e = sym_eig(half)
    assert np.array_equal(a.data, half)
    assert np.array_equal(a.eigenvalues, e.eigenvalues)
    assert np.array_equal(a.eigenvectors, e.eigenvectors)
    assert not a.data.flags.writeable and m.flags.writeable
    assert m[0, 1] != m[1, 0]  # the caller's array is left alone


@pytest.mark.parametrize("shape", [(2, 3), (1, 3), (3, 1), (3,), ()])
def test_psd_matrix_refuses_non_square_input(shape):
    with pytest.raises(DimensionMismatch):
        PsdMatrix(np.ones(shape))


def test_sym_eig_reads_the_lower_triangle():
    lower = np.array([[2.0, 0.0], [1.0, 3.0]])
    e = sym_eig(lower)
    ref = sym_eig(np.array([[2.0, 1.0], [1.0, 3.0]]))
    assert np.array_equal(e.eigenvalues, ref.eigenvalues)
    assert np.array_equal(e.eigenvectors, ref.eigenvectors)


def test_from_eig_keeps_the_eigenvectors_it_is_given():
    v = -np.eye(3)
    a = PsdMatrix.from_eig([1.0, 3.0, 2.0], v)
    assert np.array_equal(a.eigenvalues, [3.0, 2.0, 1.0])
    assert np.array_equal(a.eigenvectors, v[:, [1, 2, 0]])
