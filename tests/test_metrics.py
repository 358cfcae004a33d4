"""Prediction at new inputs, and the metric definitions: nMSE normalization,
argmax accuracy, improvement score."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smtl.errors import (
    BadLabel,
    DimensionMismatch,
    LengthMismatch,
    NonPositiveNmse,
    ZeroVariance,
)
from smtl.kernels import GramMatrix, KernelSpec, gram
from smtl.metrics import CROSS_GRAM_BLOCK, accuracy, nmse, normalized_improvement, predict
from smtl.model_io import load_model, save_model
from smtl.penalties import PenaltySpec
from smtl.solver import ModelState, SolverConfig, fit
from smtl.synth import SyntheticSpec, synth_generate

KERNELS = {"linear": KernelSpec("linear"), "gaussian": KernelSpec("gaussian", gamma=0.3)}


def random_model(spec, n, d, n_tasks, seed=0):
    """A model with random coefficients; prediction needs nothing else."""
    rng = np.random.default_rng(seed)
    return ModelState(C=rng.standard_normal((n, n_tasks)), A=None,
                      gram=GramMatrix(spec, rng.standard_normal((n, d))))


def one_shot(model, x_new):
    """Prediction through the whole test x training cross-Gram."""
    return gram(model.gram.spec, np.atleast_2d(x_new), model.gram.X_train) @ model.C


def per_task_nmse(y, z, mask=None):
    """nMSE task by task over strided columns, as a plain loop."""
    ratios = []
    for t in range(y.shape[1]):
        keep = np.ones(y.shape[0], bool) if mask is None else mask[:, t] > 0
        if keep.any():
            ratios.append(np.mean((y[keep, t] - z[keep, t]) ** 2) / np.var(y[keep, t]))
    return np.mean(ratios)


class TestPredict:
    def test_linear_uses_primal_weights(self):
        model = random_model(KERNELS["linear"], 60, 5, 4)
        x_new = np.random.default_rng(1).standard_normal((33, 5))
        assert_allclose(predict(model, x_new), one_shot(model, x_new), rtol=1e-12)

    @pytest.mark.parametrize("m", ["1", "block-1", "block", "2blocks+3", "1-D"])
    def test_gaussian_blocks_match_one_shot(self, m):
        n = 50
        rows = CROSS_GRAM_BLOCK // n
        model = random_model(KERNELS["gaussian"], n, 3, 4)
        size = {"1": 1, "block-1": rows - 1, "block": rows, "2blocks+3": 2 * rows + 3,
                "1-D": 1}[m]
        x_new = np.random.default_rng(2).standard_normal((size, 3))
        if m == "1-D":
            x_new = x_new[0]
        z = predict(model, x_new)
        assert z.shape == (size, 4)
        assert_allclose(z, one_shot(model, x_new), rtol=1e-12)

    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_loaded_model_predicts_the_same(self, kind, tmp_path):
        ds, _ = synth_generate(SyntheticSpec(d=3, n_tasks=3, n_per_task=8), seed=0)
        model, _ = fit(ds, KERNELS[kind], PenaltySpec.schatten(1.0, 1.0), 0.2,
                       config=SolverConfig(max_iter=10))
        save_model(model, tmp_path / "m.txt")
        x_new = np.random.default_rng(3).standard_normal((9, 3))
        assert np.array_equal(predict(load_model(tmp_path / "m.txt"), x_new),
                              predict(model, x_new))

    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_feature_count_mismatch(self, kind):
        model = random_model(KERNELS[kind], 10, 3, 2)
        with pytest.raises(DimensionMismatch):
            predict(model, np.zeros((4, 5)))

    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_memory_stays_below_the_cross_gram(self, kind):
        # 20 000 test rows against 500 training rows: the whole cross-Gram
        # would be 76 MiB; prediction may hold a quarter of it at most.
        m, n = 20_000, 500
        model = random_model(KERNELS[kind], n, 8, 4)
        x_new = np.random.default_rng(4).standard_normal((m, 8))
        tracemalloc.start()
        try:
            predict(model, x_new)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * n * 8 / 4


class TestNmse:
    def test_mean_predictor_scores_one(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((40, 3)) * np.array([1.0, 5.0, 0.1])
        z = np.broadcast_to(y.mean(axis=0), y.shape)
        assert nmse(y, z) == pytest.approx(1.0)

    def test_perfect_predictor_scores_zero(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((15, 2))
        assert nmse(y, y) == 0.0

    def test_scale_invariant_per_task(self):
        # scaling one task's targets and predictions together must not
        # change its contribution
        rng = np.random.default_rng(2)
        y = rng.standard_normal((30, 2))
        z = y + 0.1 * rng.standard_normal((30, 2))
        y2, z2 = y.copy(), z.copy()
        y2[:, 1] *= 100.0
        z2[:, 1] *= 100.0
        assert nmse(y, z) == pytest.approx(nmse(y2, z2), rel=1e-12)

    def test_masked_matches_manual(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((20, 2))
        z = rng.standard_normal((20, 2))
        mask = (rng.random((20, 2)) > 0.4).astype(float)
        mask[:3, :] = 1.0  # keep both tasks populated
        got = nmse(y, z, mask=mask)
        parts = []
        for t in range(2):
            keep = mask[:, t] > 0
            err = np.mean((y[keep, t] - z[keep, t]) ** 2)
            parts.append(err / np.var(y[keep, t]))
        assert_allclose(got, np.mean(parts), rtol=1e-12)

    def test_constant_targets_rejected(self):
        y = np.ones((10, 2))
        y[:, 0] = np.arange(10.0)
        with pytest.raises(ZeroVariance):
            nmse(y, np.zeros_like(y))

    def test_inexact_constant_rejected(self):
        # seven copies of 0.1 do not average to exactly 0.1, so a variance
        # computed from the mean reads about 1e-34, not 0
        y = np.column_stack([np.arange(7.0), np.full(7, 0.1)])
        with pytest.raises(ZeroVariance) as err:
            nmse(y, 0.5 * y)
        assert err.value.task == 1

    def test_masked_constant_rejected(self):
        # task 1's observed targets are all 0.1; its unobserved ones differ
        rng = np.random.default_rng(5)
        y = rng.standard_normal((12, 3))
        mask = np.ones((12, 3))
        mask[::2, 1] = 0.0
        y[1::2, 1] = 0.1
        with pytest.raises(ZeroVariance) as err:
            nmse(y, np.zeros_like(y), mask=mask)
        assert err.value.task == 1
        mask[0, 1] = 1.0
        assert np.isfinite(nmse(y, np.zeros_like(y), mask=mask))

    def test_nothing_observed_scores_nan(self):
        assert np.isnan(nmse(np.zeros((0, 3)), np.zeros((0, 3))))
        y = np.arange(8.0).reshape(4, 2)
        assert np.isnan(nmse(y, y, mask=np.zeros((4, 2))))

    @pytest.mark.parametrize("pattern", ["unmasked", "random", "empty_task"])
    def test_matches_per_task_loop(self, pattern):
        rng = np.random.default_rng(6)
        y = rng.standard_normal((50, 300)) * rng.uniform(0.1, 10.0, 300) + 3.0
        z = y + rng.standard_normal(y.shape)
        mask = None
        if pattern != "unmasked":
            mask = (rng.random(y.shape) > 0.3).astype(float)
        if pattern == "empty_task":
            mask[:, 17] = 0.0
            y[:, 17] = np.nan  # never observed, so never read
        assert_allclose(nmse(y, z, mask=mask), per_task_nmse(y, z, mask), rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            nmse(np.zeros((4, 2)), np.zeros((5, 2)))
        with pytest.raises(DimensionMismatch):
            nmse(np.eye(4, 2), np.zeros((4, 2)), mask=np.ones((4, 3)))


class TestAccuracy:
    def test_basic(self):
        z = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert accuracy([0, 1, 1], z) == pytest.approx(2.0 / 3.0)

    def test_ties_go_to_smallest_index(self):
        z = np.zeros((3, 3))
        assert accuracy([0, 1, 2], z) == pytest.approx(1.0 / 3.0)

    def test_label_out_of_range(self):
        z = np.zeros((2, 2))
        with pytest.raises(BadLabel):
            accuracy([0, 2], z)
        with pytest.raises(BadLabel):
            accuracy([-1, 0], z)

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            accuracy([0, 1, 0], np.zeros((2, 2)))


class TestNormalizedImprovement:
    def test_known_value(self):
        # single pair: (s - m) / sqrt(s m)
        s, m = 0.2436, 0.2284
        expected = (s - m) / np.sqrt(s * m)
        assert normalized_improvement([s], [m]) == pytest.approx(expected)
        assert expected == pytest.approx(0.0644, abs=5e-4)

    def test_sign_convention(self):
        assert normalized_improvement([1.0], [0.5]) > 0  # multi-task better
        assert normalized_improvement([0.5], [1.0]) < 0
        assert normalized_improvement([0.7, 0.7], [0.7, 0.7]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            normalized_improvement([0.5, 0.6], [0.5])

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveNmse):
            normalized_improvement([0.5, 0.0], [0.5, 0.5])
        with pytest.raises(NonPositiveNmse):
            normalized_improvement([0.5], [-0.1])
