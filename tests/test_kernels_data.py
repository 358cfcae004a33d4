"""Kernels, the long-format loader, and the loss evaluator."""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smtl.data import (
    TaskDataset,
    dataset_from_rows,
    load_dataset,
    loss_value_grad,
    save_dataset,
)
from smtl.errors import (
    BadKernelParam,
    BadLabel,
    DimensionMismatch,
    EmptyTask,
    InconsistentDimension,
    NonFinite,
    ParseError,
)
from smtl.kernels import GramMatrix, KernelSpec, gram
from smtl.penalties import PenaltySpec
from smtl.solver import fit
from smtl.synth import SyntheticSpec, synth_generate


def test_linear_gram_is_xxt():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 3))
    k = gram(KernelSpec("linear"), x)
    assert_allclose(k, x @ x.T, atol=1e-12)


def test_gaussian_gram_matches_loop():
    rng = np.random.default_rng(1)
    x1 = rng.standard_normal((5, 2))
    x2 = rng.standard_normal((4, 2))
    spec = KernelSpec("gaussian", gamma=0.8)
    k = gram(spec, x1, x2)
    for i in range(5):
        for j in range(4):
            expected = np.exp(-0.8 * np.sum((x1[i] - x2[j]) ** 2))
            assert abs(k[i, j] - expected) < 1e-12


def test_gaussian_self_gram_diagonal_ones():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 4))
    k = gram(KernelSpec("gaussian", gamma=2.0), x)
    assert_allclose(np.diag(k), np.ones(6), atol=1e-12)
    assert np.all(k > 0) and np.all(k <= 1 + 1e-12)
    assert_allclose(k, k.T, atol=0)


def sha1(a):
    return hashlib.sha1(np.ascontiguousarray(a).tobytes()).hexdigest()


KERNELS = [KernelSpec("linear"), KernelSpec("gaussian", gamma=0.3)]
LAYOUTS = {"c": np.ascontiguousarray, "f": np.asfortranarray,
           "strided": lambda x: np.repeat(x, 2, axis=1)[:, ::2]}


@pytest.mark.parametrize("n", [1, 129, 300, 1000])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("spec", KERNELS, ids=["linear", "gaussian"])
def test_self_gram_is_exactly_symmetric(spec, layout, n):
    """``x x'`` is one BLAS syrk, which fills both triangles from one, and
    the gaussian's elementwise steps treat (i, j) and (j, i) alike."""
    x = LAYOUTS[layout](np.random.default_rng(n).standard_normal((n, 5)))
    k = gram(spec, x)
    assert np.array_equal(k, k.T)


@pytest.mark.parametrize("spec", KERNELS, ids=["linear", "gaussian"])
def test_self_gram_of_strided_inputs_is_symmetric(spec):
    """From column-strided inputs ``x x'`` need not be symmetric (here
    9e-16 off at n = 300); the self-Gram copies them first, and is then
    that of the contiguous copy."""
    x = np.random.default_rng(3).standard_normal((300, 10))[:, ::2]
    sym = gram(spec, x)
    assert np.array_equal(sym, sym.T)
    assert sha1(sym) == sha1(gram(spec, np.ascontiguousarray(x)))


def test_linear_self_gram_peak_memory_is_one_result():
    x = np.random.default_rng(0).standard_normal((1000, 10))
    tracemalloc.start()
    try:
        k = gram(KernelSpec("linear"), x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * k.nbytes
    assert sha1(k) == sha1(x @ x.T)


def test_kernel_param_validation():
    with pytest.raises(BadKernelParam):
        KernelSpec("gaussian", gamma=0.0)
    with pytest.raises(BadKernelParam):
        KernelSpec("cubic")


@pytest.mark.parametrize("kind", ["linear", "gaussian"])
@pytest.mark.parametrize("gamma", [float("inf"), float("-inf"), float("nan")])
def test_kernel_spec_rejects_non_finite_gamma(kind, gamma):
    """A model file stores gamma for both kinds, and its reader refuses a
    non-finite one, so no kernel spec may hold it."""
    with pytest.raises(BadKernelParam, match="finite"):
        KernelSpec(kind, gamma=gamma)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_gram_matrix_rejects_non_finite_inputs(bad):
    x = np.ones((4, 2))
    x[2, 1] = bad
    with pytest.raises(NonFinite):
        GramMatrix(KernelSpec("gaussian", gamma=0.5), x)


@pytest.mark.parametrize("weighting", ["per_task", "uniform"])
@pytest.mark.parametrize("spec", [KernelSpec("linear"),
                                  KernelSpec("gaussian", gamma=0.5)],
                         ids=["linear", "gaussian"])
def test_gram_matrix_rejects_inputs_whose_squared_norm_overflows(
        monkeypatch, spec, weighting):
    """A finite row with x.x = inf fails where the kernel is set up, naming
    the row, before any kernel entry is computed and with no warning."""
    ds, _ = synth_generate(SyntheticSpec(d=3, n_tasks=3, n_per_task=10),
                           seed=0, weighting=weighting)
    ds.X[4, 1] = 1e200

    def no_gram(*args):
        raise AssertionError("the kernel was evaluated")

    monkeypatch.setattr("smtl.kernels.gram", no_gram)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="^training input row 4: its "
                           "squared norm x.x overflows in the %s kernel$"
                           % spec.kind):
            fit(ds, spec, PenaltySpec.schatten(1.0, 1.0), 0.1)


def test_gaussian_gram_matrix_needs_twice_the_squared_norm_finite():
    """The gaussian adds two squared norms, so x.x = 1.47e308, finite,
    still overflows there (to a NaN entry); the linear kernel takes it."""
    x = np.ones((3, 3))
    x[1] = 7e153
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="^training input row 1: its "
                           "squared norm x.x overflows in the gaussian "
                           "kernel$"):
            GramMatrix(KernelSpec("gaussian", gamma=0.5), x)
        GramMatrix(KernelSpec("linear"), x)


def test_cross_gram_feature_mismatch():
    with pytest.raises(DimensionMismatch):
        gram(KernelSpec("linear"), np.ones((3, 2)), np.ones((3, 5)))


def test_gram_matrix_holds_frozen_training_inputs():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 2))
    gm = GramMatrix(KernelSpec("linear"), x)
    assert gm.n == 5 and gm.d == 2
    with pytest.raises(ValueError):
        gm.X_train[0, 0] = 9.0


class TestDatasetFromRows:
    def test_one_hot_layout_and_per_task_weights(self):
        task_ids = np.array([0, 0, 1, 1, 1])
        y = np.arange(5.0)
        x = np.ones((5, 2))
        ds = dataset_from_rows(task_ids, y, x, weighting="per_task")
        assert ds.n_tasks == 2
        assert_allclose(ds.Y[:, 0], [0, 1, 0, 0, 0])
        assert_allclose(ds.Y[:, 1], [0, 0, 2, 3, 4])
        # canonical weights: 1/n_t on a row's own task, zero elsewhere
        assert_allclose(ds.W[0], [0.5, 0.0])
        assert_allclose(ds.W[4], [0.0, 1 / 3])

    def test_uniform_weights(self):
        ds = dataset_from_rows(np.array([0, 1]), np.zeros(2), np.ones((2, 1)),
                               weighting="uniform")
        assert_allclose(ds.W[ds.W > 0], [0.5, 0.5])

    def test_missing_task_id_rejected(self):
        with pytest.raises(EmptyTask):
            dataset_from_rows(np.array([0, 2]), np.zeros(2), np.ones((2, 1)))

    def test_unknown_weighting_rejected(self):
        with pytest.raises(ValueError):
            dataset_from_rows(np.array([0, 1]), np.zeros(2), np.ones((2, 1)),
                              weighting="balanced")

    @pytest.mark.parametrize("ids, message", [
        ([0.5, 1, 0], "row 0: task id 0.5 is"),
        ([0, 1, 2.7], "row 2: task id 2.7 is"),
        ([-1, 0, 1], "row 0: task id -1 is"),
        ([0, 1, float("nan")], "row 2: task id nan is"),
        ([0, 1, float("inf")], "row 2: task id inf is"),
    ])
    def test_negative_or_fractional_task_id_is_bad_label(self, ids,
                                                         message):
        with pytest.raises(BadLabel, match=message + " not a non-negative "
                           "integer"):
            dataset_from_rows(ids, [1.0, 2.0, 1.5], [[0.5], [0.1], [0.3]])

    def test_integral_float_task_ids_are_accepted(self):
        ds = dataset_from_rows([0.0, 1.0, 0.0], [1.0, 2.0, 1.5],
                               [[0.5], [0.1], [0.3]])
        ref = dataset_from_rows([0, 1, 0], [1.0, 2.0, 1.5],
                                [[0.5], [0.1], [0.3]])
        assert np.array_equal(ds.task_ids, [0, 1, 0])
        for name in ("X", "Y", "W", "task_sizes"):
            assert np.array_equal(getattr(ds, name), getattr(ref, name))

    @pytest.mark.parametrize("task, message", [
        ("0.5", "line 2: task id '0.5' is not an integer"),
        ("2.7", "line 2: task id '2.7' is not an integer"),
        ("-1", "line 2: task id must be >= 0, got -1"),
    ])
    def test_csv_task_id_messages_are_unchanged(self, tmp_path, task,
                                                message):
        path = tmp_path / "ids.csv"
        path.write_text("task,y,x1\n%s,1.0,0.5\n0,2.0,0.1\n" % task)
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert str(err.value) == message


class TestLoader:
    def test_dense_dataset_is_refused(self, tmp_path):
        """A long CSV line holds one target: saving every row's task-0
        target alone would lose task 1's targets."""
        dense = TaskDataset(X=np.arange(3.0)[:, None], Y=np.ones((3, 2)),
                            W=np.ones((3, 2)), task_ids=np.zeros(3, dtype=int))
        path = tmp_path / "dense.csv"
        with pytest.raises(DimensionMismatch, match="row 0: the long CSV "
                           "needs its only observed entry at its task id"):
            save_dataset(dense, path)
        assert not path.exists()

    def test_row_with_no_observed_entry_is_refused(self, tmp_path):
        ds = dataset_from_rows([0, 1, 0], [1.0, 2.0, 1.5],
                               [[0.5], [0.1], [0.3]])
        ds.W[2] = 0.0
        with pytest.raises(DimensionMismatch, match="^row 2: "):
            save_dataset(ds, tmp_path / "unobserved.csv")

    def test_round_trip_is_bitwise(self, tmp_path):
        """Row-built and synthetic datasets, under either weighting."""
        for weighting in ("per_task", "uniform"):
            rng = np.random.default_rng(4)
            tids = rng.integers(0, 3, size=20)
            tids[:3] = [0, 1, 2]
            from_rows = dataset_from_rows(tids, rng.standard_normal(20),
                                          rng.standard_normal((20, 4)),
                                          weighting=weighting)
            synthetic, _ = synth_generate(
                SyntheticSpec(d=4, n_tasks=3, n_per_task=7), seed=4,
                weighting=weighting)
            for ds in (from_rows, synthetic):
                path = tmp_path / "data.csv"
                save_dataset(ds, path)
                back = load_dataset(path, weighting=weighting)
                for name in ("X", "Y", "W", "task_ids", "task_sizes"):
                    assert np.array_equal(getattr(back, name),
                                          getattr(ds, name)), name

    def test_header_must_match(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("task,target,x1\n0,1.0,2.0\n")
        with pytest.raises(ParseError) as err:
            load_dataset(p)
        assert err.value.line == 1

    def test_bad_float_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("task,y,x1\n0,1.0,2.0\n0,oops,2.0\n1,0.5,0.1\n")
        with pytest.raises(ParseError) as err:
            load_dataset(p)
        assert err.value.line == 3

    @pytest.mark.parametrize("text, line", [
        ("", 1),  # empty file
        ("\n\n", 1),  # only blank lines
        ("task,y,x1,x3\n0,1.0,2.0,3.0\n", 1),  # misnamed feature column
        ("task,y,x1\n0,1.0,2.0\nzero,1.0,2.0\n", 3),  # task id not an int
        ("task,y,x1\n0,1.0,2.0\n1.5,1.0,2.0\n", 3),
        ("task,y,x1\n0,1.0,2.0\n1,1.0,2.0\n-1,1.0,2.0\n", 4),  # negative
        ("task,y,x1\n0,inf,2.0\n", 2),  # non-finite values
        ("task,y,x1\n0,1.0,2.0\n0,1.0,nan\n", 3),
    ], ids=["empty", "blank", "feature_name", "task_word", "task_float",
            "task_negative", "y_inf", "x_nan"])
    def test_malformed_csv_is_parse_error_at_its_line(self, tmp_path, text,
                                                      line):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(ParseError) as err:
            load_dataset(p)
        assert err.value.line == line

    def test_field_count_mismatch(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("task,y,x1,x2\n0,1.0,2.0,3.0\n1,1.0,2.0\n")
        with pytest.raises(InconsistentDimension):
            load_dataset(p)

    def test_crlf_accepted(self, tmp_path):
        p = tmp_path / "dos.csv"
        p.write_bytes(b"task,y,x1\r\n0,1.0,2.0\r\n1,2.5,0.5\r\n")
        ds = load_dataset(p)
        assert ds.n == 2
        assert_allclose(ds.X[:, 0], [2.0, 0.5])

    def test_empty_body_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("task,y,x1\n")
        with pytest.raises(ParseError):
            load_dataset(p)


def test_loss_value_and_gradient():
    rng = np.random.default_rng(5)
    y = rng.standard_normal((4, 2))
    z = rng.standard_normal((4, 2))
    w = rng.random((4, 2))
    v, g = loss_value_grad(y, z, w)
    assert_allclose(v, np.sum(w * (y - z) ** 2))
    # central differences on a few entries
    h = 1e-6
    for idx in [(0, 0), (2, 1), (3, 0)]:
        zp = z.copy(); zp[idx] += h
        zm = z.copy(); zm[idx] -= h
        vp, _ = loss_value_grad(y, zp, w)
        vm, _ = loss_value_grad(y, zm, w)
        assert abs((vp - vm) / (2 * h) - g[idx]) < 1e-6
    for shapes in [((4, 2), (4, 3), (4, 2)), ((4, 2), (4, 2), (3, 2))]:
        with pytest.raises(DimensionMismatch):
            loss_value_grad(*(np.ones(s) for s in shapes))


def test_loss_is_permutation_invariant():
    rng = np.random.default_rng(6)
    y = rng.standard_normal((6, 3))
    z = rng.standard_normal((6, 3))
    w = rng.random((6, 3))
    perm = rng.permutation(6)
    v1, _ = loss_value_grad(y, z, w)
    v2, _ = loss_value_grad(y[perm], z[perm], w[perm])
    assert_allclose(v1, v2, rtol=1e-12)


def test_task_dataset_validation():
    with pytest.raises(DimensionMismatch):
        TaskDataset(X=np.ones((3, 2)), Y=np.ones((2, 2)),
                    W=np.ones((3, 2)), task_ids=np.zeros(3, dtype=int))


@pytest.mark.parametrize("ids, message", [
    ([0.7, 1.9], "row 0: task id 0.7 is not a non-negative integer"),
    ([-1, 1], "row 0: task id -1 is not a non-negative integer"),
    ([0, 2], "row 1: task id 2 is not below Y's 2 tasks"),
])
def test_task_dataset_refuses_bad_task_ids(ids, message):
    """Built directly, a dataset checks its task ids as dataset_from_rows
    does, and against Y's task count."""
    with pytest.raises(BadLabel, match="^" + message + "$"):
        TaskDataset(X=np.ones((2, 1)), Y=np.zeros((2, 2)), W=np.ones((2, 2)),
                    task_ids=ids)


@pytest.mark.parametrize("ids", [[0, 1, 0], [[0, 1]], 0])
def test_task_dataset_refuses_task_ids_not_one_per_row(ids):
    with pytest.raises(DimensionMismatch, match="one id per row"):
        TaskDataset(X=np.ones((2, 1)), Y=np.zeros((2, 2)), W=np.ones((2, 2)),
                    task_ids=ids)


def test_task_dataset_keeps_integral_task_ids():
    ds = TaskDataset(X=np.ones((3, 1)), Y=np.zeros((3, 2)), W=np.ones((3, 2)),
                     task_ids=[0.0, 1.0, 1.0])
    assert ds.task_ids.dtype == int and np.array_equal(ds.task_ids, [0, 1, 1])
    assert np.array_equal(ds.task_sizes, [1, 2])


@pytest.mark.parametrize("sizes, error, message", [
    ([5], DimensionMismatch, "^task_sizes must hold one size per task of Y$"),
    ([[1, 1]], DimensionMismatch,
     "^task_sizes must hold one size per task of Y$"),
    ([-3, 1], BadLabel, "^task 0: size -3 is not a non-negative integer$"),
    ([1.5, 1], BadLabel, "^task 0: size 1.5 is not a non-negative integer$"),
], ids=["too_few", "not_1d", "negative", "fractional"])
def test_task_dataset_refuses_task_sizes_not_one_count_per_task(
        sizes, error, message):
    with pytest.raises(error, match=message):
        TaskDataset(X=np.ones((2, 1)), Y=np.zeros((2, 2)), W=np.ones((2, 2)),
                    task_ids=[0, 1], task_sizes=sizes)
