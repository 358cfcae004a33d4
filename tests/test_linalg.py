"""Spectral helpers validated against dense numpy ground truth."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smtl.errors import (
    BadExponent,
    DimensionMismatch,
    NonFinite,
    NotPsd,
    SingularA,
    SingularMatrix,
)
from smtl.linalg import (
    RANK_TOL,
    PsdMatrix,
    kron_ls_solve,
    pd_eigenvalues,
    pinv_psd,
    psd_clip,
    psd_power,
    range_contained,
    schatten,
    sym_eig,
    sylvester_ls_solve,
)


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    g = rng.standard_normal((n, rank))
    return g @ g.T


class TestSymEig:
    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = rng.standard_normal((5, 5))
            m = m + m.T
            w, v = sym_eig(m)
            assert_allclose((v * w) @ v.T, m, atol=1e-12)

    def test_descending_order(self):
        e = sym_eig(np.diag([1.0, 3.0, 2.0]))
        assert_allclose(e.eigenvalues, [3.0, 2.0, 1.0])

    def test_sign_convention_is_deterministic(self):
        # each eigenvector's largest-magnitude entry is positive, so the
        # decomposition of the same matrix is bit-stable across calls
        rng = np.random.default_rng(7)
        m = random_psd(rng, 6)
        e1 = sym_eig(m)
        e2 = sym_eig(m.copy())
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)
        k = np.argmax(np.abs(e1.eigenvectors), axis=0)
        signs = e1.eigenvectors[k, np.arange(6)]
        assert np.all(signs > 0)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            sym_eig(np.ones((2, 3)))

    def test_rejects_nan(self):
        m = np.eye(3)
        m[0, 0] = np.nan
        with pytest.raises(NonFinite):
            sym_eig(m)


class TestPsdMatrix:
    def test_rejects_indefinite(self):
        with pytest.raises(NotPsd):
            PsdMatrix(np.diag([1.0, -0.5]))

    def test_tolerates_roundoff_negatives(self):
        m = np.diag([1.0, -1e-14])
        a = PsdMatrix(m)
        assert a.rank() == 1

    @pytest.mark.parametrize("build", [
        PsdMatrix,
        psd_clip,
        lambda m: PsdMatrix.from_eig(np.diag(m), np.eye(m.shape[0])),
    ], ids=["init", "psd_clip", "from_eig"])
    def test_every_constructor_clips_by_one_rule(self, build):
        """Each constructor sets eigenvalues down to ``-RANK_TOL * max(1,
        w_max)`` to zero and rejects anything more negative."""
        a = build(np.diag([1.0, -1e-14]))
        assert np.all(a.eigenvalues >= 0.0) and a.eigenvalues[-1] == 0.0
        cut = RANK_TOL * 4.0
        assert build(np.diag([4.0, -0.99 * cut])).eigenvalues[-1] == 0.0
        with pytest.raises(NotPsd):
            build(np.diag([4.0, -1.01 * cut]))

    def test_from_eig_rejects_negative_spectrum(self):
        with pytest.raises(NotPsd):
            PsdMatrix.from_eig([1.0, -1.0], np.eye(2))

    def test_rank(self):
        rng = np.random.default_rng(1)
        a = PsdMatrix(random_psd(rng, 5, rank=3))
        assert a.rank() == 3

    def test_is_pd_is_strict_positivity(self):
        """is_pd and pd_eigenvalues share one rule, w_min > 0: an eigenvalue
        far below the rank cut but positive may be inverted."""
        tiny = PsdMatrix(np.diag([1.0, 1e-14]))
        assert tiny.rank() == 1 and tiny.is_pd()
        assert pd_eigenvalues(tiny)[-1] == 1e-14
        zero = PsdMatrix(np.diag([1.0, 0.0]))
        assert not zero.is_pd()
        with pytest.raises(SingularA):
            pd_eigenvalues(zero)

    def test_data_is_frozen(self):
        a = PsdMatrix(np.eye(2))
        with pytest.raises(ValueError):
            a.data[0, 0] = 5.0

    def test_from_eig_roundtrip(self):
        rng = np.random.default_rng(2)
        a = PsdMatrix(random_psd(rng, 4))
        b = PsdMatrix.from_eig(a.eigenvalues, a.eigenvectors)
        assert_allclose(b.data, a.data, atol=1e-12)

    @pytest.mark.parametrize("t", [3, 50])
    def test_from_eig_builds_data_on_first_read(self, t):
        rng = np.random.default_rng(3)
        e = sym_eig(random_psd(rng, t))
        b = PsdMatrix.from_eig(e.eigenvalues, e.eigenvectors)
        assert b.dim == t and b.shape == (t, t)
        assert b._data is None  # dim and shape come from the spectral form
        v, w = b.eigenvectors, b.eigenvalues
        eager = (v * w) @ v.T
        eager = 0.5 * (eager + eager.T)
        assert np.array_equal(b.data, eager)
        assert b.data is b.data
        with pytest.raises(ValueError):
            b.data[0, 0] = 5.0


def test_pinv_psd_moore_penrose():
    rng = np.random.default_rng(3)
    a = PsdMatrix(random_psd(rng, 5, rank=3))
    p = pinv_psd(a)
    assert_allclose(a.data @ p.data @ a.data, a.data, atol=1e-9)
    assert_allclose(p.data @ a.data @ p.data, p.data, atol=1e-9)


def test_psd_power_square_root():
    rng = np.random.default_rng(4)
    a = PsdMatrix(random_psd(rng, 4))
    r = psd_power(a, 0.5)
    assert_allclose(r.data @ r.data, a.data, atol=1e-10)


def test_psd_power_inverse_requires_full_rank():
    a = PsdMatrix(np.diag([2.0, 0.0]))
    with pytest.raises(SingularMatrix):
        psd_power(a, -1.0)
    inv = psd_power(PsdMatrix(np.diag([2.0, 4.0])), -1.0)
    assert_allclose(inv.data, np.diag([0.5, 0.25]), atol=1e-14)


def test_psd_power_zero_is_range_projector():
    a = PsdMatrix(np.diag([3.0, 0.0]))
    proj = psd_power(a, 0.0)
    assert_allclose(proj.data, np.diag([1.0, 0.0]), atol=1e-12)


def test_schatten_known_values():
    a = PsdMatrix(np.diag([3.0, 4.0]))
    assert_allclose(schatten(a, 1.0), 7.0)
    assert_allclose(schatten(a, 2.0), 5.0)
    assert_allclose(schatten(a, np.inf), 4.0)
    with pytest.raises(BadExponent):
        schatten(a, 0.5)


def test_range_contained():
    a = PsdMatrix(np.diag([1.0, 1.0, 0.0]))
    inside = np.array([[1.0, 0.0], [2.0, 1.0], [0.0, 0.0]])
    outside = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.0]])
    assert range_contained(inside, a)
    assert not range_contained(outside, a)
    with pytest.raises(DimensionMismatch):
        range_contained(np.ones((2, 2)), a)


class TestSylvesterSolve:
    def test_frozen_diagonal_example(self):
        """Hand-checked: entries are y / (kernel eig + lam / structure eig)."""
        k = PsdMatrix(np.diag([2.0, 1.0]))
        a = PsdMatrix(np.diag([1.0, 0.5]))
        y = np.ones((2, 2))
        expected = [[1 / 3, 1 / 4], [1 / 2, 1 / 3]]
        assert_allclose(sylvester_ls_solve(k, a, 1.0, y), expected, atol=1e-14)
        # the same K given by its spectrum: the diagonal form, U = I
        assert_allclose(sylvester_ls_solve(np.array([2.0, 1.0]), a, 1.0, y),
                        expected, atol=1e-14)

    def test_gradient_is_zero_at_solution(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            n, t = 7, 3
            k = PsdMatrix(random_psd(rng, n) + 0.1 * np.eye(n))
            a = PsdMatrix(random_psd(rng, t) + 0.1 * np.eye(t))
            y = rng.standard_normal((n, t))
            lam = 0.3
            c = sylvester_ls_solve(k, a, lam, y)
            a_inv = np.linalg.inv(a.data)
            grad = -2 * k.data @ (y - k.data @ c) + 2 * lam * k.data @ c @ a_inv
            assert np.linalg.norm(grad) <= 1e-8 * (1 + np.linalg.norm(y))

    def test_matches_kron_solve(self):
        rng = np.random.default_rng(6)
        for n, t in [(3, 2), (8, 3), (12, 4)]:
            k = PsdMatrix(random_psd(rng, n) + 0.05 * np.eye(n))
            a = PsdMatrix(random_psd(rng, t) + 0.05 * np.eye(t))
            y = rng.standard_normal((n, t))
            c1 = sylvester_ls_solve(k, a, 0.7, y, ridge=0.01)
            c2 = kron_ls_solve(k, a, 0.7, y, ridge=0.01)
            assert np.max(np.abs(c1 - c2)) <= 1e-8

    def test_singular_structure_rejected(self):
        k = PsdMatrix(np.eye(3))
        a = PsdMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(SingularA):
            sylvester_ls_solve(k, a, 1.0, np.ones((3, 2)))

    def test_bad_inputs_rejected(self):
        k = PsdMatrix(np.eye(3))
        a = PsdMatrix(np.eye(2))
        for lam in (0.0, -1.0):
            with pytest.raises(ValueError):
                sylvester_ls_solve(k, a, lam, np.ones((3, 2)))
        for solve in (sylvester_ls_solve, kron_ls_solve):
            with pytest.raises(DimensionMismatch):
                solve(k, a, 1.0, np.ones((2, 3)))
