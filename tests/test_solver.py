"""Solver behavior: exact block solves, monotone descent, invariants.

The supervised step has three routes (spectral, single-observation-per-row,
and PCG on the observed-entry operator for any other mask); they must agree
wherever their domains overlap, and the fixed-identity penalty must reduce
to independent kernel ridge.
"""

import math
import re
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import smtl.kernels
import smtl.solver
from smtl.data import TaskDataset, dataset_from_rows
from smtl.errors import (
    BadPenaltyParam, CgStall, DimensionMismatch, EmptyTask, NonFinite,
    NonFiniteObjective, NotStrictlyPd, SingularMatrix,
)
from smtl.kernels import GramMatrix, KernelSpec
from smtl.linalg import PsdMatrix, psd_clip, sylvester_ls_solve
from smtl.objectives import ProblemInstance, eval_S, grad_S_A, grad_S_C
from smtl.penalties import PenaltySpec, structure_coding
from smtl.solver import (
    MAX_HALVINGS,
    RECYCLED_SOLUTIONS,
    ModelState,
    SolverConfig,
    _SupervisedState,
    _backtrack,
    _cg_matvec,
    _observed_step,
    _one_hot_matvec,
    _observed_system,
    _pcg,
    _recycled_start,
    _supervised_exact,
    fit,
    fit_gram,
    refit_supervised,
    supervised_step,
    unsupervised_step,
)
from smtl.synth import SyntheticSpec, synth_generate


def make_dataset(seed=0, n_tasks=3, n_per_task=12, d=4):
    rng = np.random.default_rng(seed)
    tids = np.repeat(np.arange(n_tasks), n_per_task)
    x = rng.standard_normal((tids.size, d))
    y = rng.standard_normal(tids.size)
    return dataset_from_rows(tids, y, x)


def tiny_floor_datasets():
    """The two supervised routes of the tiny-floor tests, with rank-5 truth
    over 20 tasks: per-task rows (one-hot) and every task observed on 60
    shared inputs with uniform weights (spectral)."""
    one_hot, w_true = synth_generate(
        SyntheticSpec(d=5, n_tasks=20, n_per_task=10, relatedness=0.5), seed=0)
    rng = np.random.default_rng((0, 1))
    x = rng.standard_normal((60, 5))
    y = x @ w_true + 0.1 * rng.standard_normal((60, 20))
    dense = TaskDataset(X=x, Y=y, W=np.ones_like(y),
                        task_ids=np.zeros(60, dtype=int),
                        task_sizes=np.full(20, 60))
    return [one_hot, dense]


def full_weight_instance(seed=0, n=8, n_tasks=3, lam=0.4, delta=1e-3,
                         penalty=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    gram = GramMatrix(KernelSpec("gaussian", gamma=0.5), x)
    y = rng.standard_normal((n, n_tasks))
    w = np.ones((n, n_tasks))
    penalty = penalty or PenaltySpec.schatten(1.0, 1.0)
    return ProblemInstance(gram=gram, Y=y, W=w, lam=lam, penalty=penalty,
                           delta=delta)


class TestSupervisedRoutes:
    def test_identity_structure_full_weights_is_ridge(self):
        """With A = I and all-ones weights, columns decouple into
        standard kernel ridge (K + lam I)^-1 y_t."""
        inst = full_weight_instance(seed=1, penalty=PenaltySpec.fixed(np.eye(3)))
        c = _supervised_exact(inst, PsdMatrix(np.eye(3)))
        k = inst.gram.raw
        expected = np.linalg.solve(k + inst.lam * np.eye(inst.n), inst.Y)
        assert_allclose(c, expected, atol=1e-10)

    def test_cg_matches_spectral_on_full_mask(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            inst = full_weight_instance(seed=10 + trial)
            a = PsdMatrix(np.diag(0.5 + rng.random(3)))
            k = psd_clip(inst.gram.raw, tol=1e-8)
            exact = sylvester_ls_solve(k, a, inst.lam, inst.Y)
            state = _SupervisedState.of(inst, "altmin", route="cg")
            cg = _observed_step(inst, a, state)
            assert np.max(np.abs(cg - exact)) <= 1e-7

    @pytest.mark.parametrize("kernel", [KernelSpec("gaussian", gamma=0.3),
                                        KernelSpec("linear")],
                             ids=["gaussian", "linear"])
    def test_one_hot_route_matches_cg(self, kernel):
        """The per-row-observation shortcut must agree with the operator
        form of the same observed-entry system, also on a kernel with a
        factor (linear, d = 4 < n = 36), where only the one-hot route
        reads K's entries."""
        ds = make_dataset(seed=3)
        gram = GramMatrix(kernel, ds.X)
        rng = np.random.default_rng(3)
        a = PsdMatrix(np.diag(0.5 + rng.random(ds.n_tasks)) + 0.1)
        inst = ProblemInstance(gram=gram, Y=ds.Y, W=ds.W, lam=0.2,
                               penalty=PenaltySpec.schatten(1.0, 1.0),
                               delta=1e-3)
        fast = _supervised_exact(inst, a)
        state = _SupervisedState.of(inst, "altmin", route="cg")
        slow = _observed_step(inst, a, state)
        assert np.max(np.abs(fast - slow)) <= 1e-7

    def test_supervised_step_never_increases_objective(self):
        inst = full_weight_instance(seed=4)
        rng = np.random.default_rng(4)
        a = PsdMatrix(np.diag(0.5 + rng.random(3)))
        c0 = rng.standard_normal((inst.n, 3))
        before = eval_S(inst, c0, a)
        c1 = supervised_step(inst, a, c0)
        assert eval_S(inst, c1, a) <= before + 1e-12


def one_hot_instance(kernel, lam=0.2, seed=3, n_tasks=4, n_per_task=15):
    ds = make_dataset(seed=seed, n_tasks=n_tasks, n_per_task=n_per_task)
    return ProblemInstance(gram=GramMatrix(kernel, ds.X), Y=ds.Y, W=ds.W,
                           lam=lam, penalty=PenaltySpec.schatten(1.0, 1.0),
                           delta=1e-3)


def random_structure(rng, n_tasks):
    m = rng.standard_normal((n_tasks, n_tasks))
    return m @ m.T / n_tasks + 0.5 * np.eye(n_tasks)


def direct_one_hot_alpha(inst, a):
    """alpha of the one-hot route by LU on ``K * Atilde[t_i, t_j] +
    diag(1/w)``, with ``Atilde = (lam A^{-1} + ridge I)^{-1}``, built
    from dense inverses; also returns the system's condition number."""
    a_tilde = np.linalg.inv(inst.lam * np.linalg.inv(a)
                            + inst.ridge * np.eye(inst.n_tasks))
    tids = np.argmax(inst.W > 0, axis=1)
    rows = np.arange(inst.n)
    h = (inst.gram.raw * a_tilde[np.ix_(tids, tids)]
         + np.diag(1.0 / inst.W[rows, tids]))
    return np.linalg.solve(h, inst.Y[rows, tids]), np.linalg.cond(h)


def rel_err(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


class TestOneHotPcg:
    """The one-hot route solves its n x n system by warm-started PCG on a
    reused inverse; it must give the direct solve's answer."""

    @pytest.mark.parametrize("kernel", [KernelSpec("gaussian", gamma=0.3),
                                        KernelSpec("linear")],
                             ids=["gaussian", "linear_rank_deficient"])
    def test_cold_call_matches_direct_solve(self, kernel):
        inst = one_hot_instance(kernel)  # linear: rank 4 < n = 60
        a = random_structure(np.random.default_rng(3), inst.n_tasks)
        state = _SupervisedState.of(inst, "altmin")
        _supervised_exact(inst, PsdMatrix(a), state)
        alpha, _ = direct_one_hot_alpha(inst, a)
        assert rel_err(state.alpha, alpha) <= 1e-10
        assert state.route == "one_hot"
        # PCG on diag(w) converges within the steps an inverse would cost
        assert state.rebuilds == 0 and state.lu_solves == 0
        # warm-started at its own solution, a repeat solve takes no step
        steps = state.pcg_steps
        _supervised_exact(inst, PsdMatrix(a), state)
        assert state.pcg_steps == steps and state.rebuilds == 0

    def test_shared_state_tracks_drifting_structure(self):
        """Successive A's as in a fit: each solve warm-starts from the last
        one and reuses a stale inverse until PCG needs too many steps."""
        inst = one_hot_instance(KernelSpec("gaussian", gamma=0.3))
        rng = np.random.default_rng(4)
        a0 = random_structure(rng, inst.n_tasks)
        drift = random_structure(rng, inst.n_tasks)
        state = _SupervisedState.of(inst, "altmin")
        for i in range(25):
            a = a0 + 0.15 * i * drift
            _supervised_exact(inst, PsdMatrix(a), state)
            alpha, _ = direct_one_hot_alpha(inst, a)
            assert rel_err(state.alpha, alpha) <= 1e-10, i
        assert state.rebuilds >= 2  # the cold build plus at least one
        assert state.rebuilds < 25 and state.pcg_steps >= 25
        assert state.lu_solves == 0

    def test_ill_conditioned_system_still_matches(self):
        """lam = 1e-6 on a rank-deficient kernel: cond(H) ~ 1e7, beyond
        what PCG can certify to 1e-12; LU takes over for the fit."""
        inst = one_hot_instance(KernelSpec("linear"), lam=1e-6)
        a = random_structure(np.random.default_rng(5), inst.n_tasks)
        state = _SupervisedState.of(inst, "altmin")
        for _ in range(2):
            _supervised_exact(inst, PsdMatrix(a), state)
            alpha, cond = direct_one_hot_alpha(inst, a)
            assert cond > 1e6
            assert rel_err(state.alpha, alpha) <= 1e-14 * cond
        assert state.rebuilds == 1 and state.lu_solves == 2

    def test_drift_builds_once_per_budget_of_steps(self):
        """A's that drift far enough to spend the step budget of an inverse
        (BUILD_STEPS_PER_ROW * n PCG steps) several times: every solve
        matches the direct one, and the inverses built are at most one
        per budget of steps, plus one."""
        inst = one_hot_instance(KernelSpec("gaussian", gamma=0.3))
        budget = math.ceil(smtl.solver.BUILD_STEPS_PER_ROW * inst.n)
        rng = np.random.default_rng(7)
        a0 = random_structure(rng, inst.n_tasks)
        drift = random_structure(rng, inst.n_tasks)
        state = _SupervisedState.of(inst, "altmin")
        for i in range(60):
            a = a0 + 0.3 * i * drift
            _supervised_exact(inst, PsdMatrix(a), state)
            alpha, _ = direct_one_hot_alpha(inst, a)
            assert rel_err(state.alpha, alpha) <= 1e-10, i
        assert state.pcg_steps > 3 * budget and state.lu_solves == 0
        assert 2 <= state.rebuilds <= math.ceil(state.pcg_steps / budget) + 1

    def test_ill_conditioned_system_ends_in_lu_from_a_kept_inverse(self):
        """The lam = 1e-6 rank-deficient case on a state that already
        keeps an inverse (built at lam = 0.2): PCG on it, then on a fresh
        one, cannot certify the system, so LU solves it within 1e-14 cond,
        and every later system with no more PCG steps or builds."""
        inst = one_hot_instance(KernelSpec("linear"))
        rng = np.random.default_rng(5)
        a0 = random_structure(rng, inst.n_tasks)
        drift = random_structure(rng, inst.n_tasks)
        state = _SupervisedState.of(inst, "altmin")
        for i in range(40):
            _supervised_exact(inst, PsdMatrix(a0 + 0.3 * i * drift), state)
            if state.rebuilds:
                break
        assert state.rebuilds == 1 and state.precond is not None
        ill = replace(inst, lam=1e-6)
        for lu_solves in (1, 2):
            _supervised_exact(ill, PsdMatrix(a0), state)
            alpha, cond = direct_one_hot_alpha(ill, a0)
            assert cond > 1e6
            assert rel_err(state.alpha, alpha) <= 1e-14 * cond
            assert state.lu_solves == lu_solves and state.rebuilds == 2
            if lu_solves == 1:
                steps = state.pcg_steps
        assert state.pcg_steps == steps and state.precond is None

    def test_singular_system_raises_singular_matrix(self):
        """H is SPD, but at lam = 1e-20 the entries of Atilde o K are of
        order 1/lam, and adding W^{-1} to them changes nothing in floating
        point: the fit fails with the package's error, naming lam."""
        ds = dataset_from_rows([0, 1, 0], [1.0, 2.0, 1.5],
                               [[0.5], [0.1], [0.3]])
        spec, penalty = KernelSpec("linear"), PenaltySpec.schatten(1, 1)
        _, report = fit(ds, spec, penalty, 1e-16)
        assert report.supervised_route == "one_hot"
        with pytest.raises(SingularMatrix,
                           match="one-hot system .* at lam = 1e-20"):
            fit(ds, spec, penalty, 1e-20)

    def test_zero_targets_give_zero_coefficients(self):
        inst = one_hot_instance(KernelSpec("gaussian", gamma=0.3))
        inst.Y[:] = 0.0
        a = PsdMatrix(random_structure(np.random.default_rng(6),
                                       inst.n_tasks))
        state = _SupervisedState.of(inst, "altmin")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for _ in range(2):
                c = _supervised_exact(inst, a, state)
        assert np.array_equal(c, np.zeros_like(c))
        assert state.pcg_steps == state.rebuilds == state.lu_solves == 0

    def test_fit_report_records_route_and_pcg_work(self):
        ds = make_dataset(seed=20)
        rng = np.random.default_rng(20)
        dense = TaskDataset(X=ds.X, Y=rng.standard_normal(ds.Y.shape),
                            W=np.ones_like(ds.W), task_ids=ds.task_ids,
                            task_sizes=np.full(ds.n_tasks, ds.n))
        masked = TaskDataset(X=ds.X, Y=dense.Y,
                             W=(rng.random(ds.W.shape) < 0.7).astype(float),
                             task_ids=ds.task_ids,
                             task_sizes=np.full(ds.n_tasks, ds.n))
        expected = [(ds, "altmin", "one_hot"), (dense, "altmin", "spectral"),
                    (masked, "altmin", "cg"), (ds, "bcd", "gradient")]
        for data, mode, route in expected:
            _, rep = fit(data, KernelSpec("linear"),
                         PenaltySpec.schatten(1.0, 1.0), 0.1,
                         config=SolverConfig(mode=mode, max_iter=30))
            assert rep.supervised_route == route
            if route == "one_hot":
                assert rep.pcg_steps > 0 and rep.inverse_rebuilds >= 1
            elif route == "cg":
                assert rep.pcg_steps > 0 and rep.inverse_rebuilds == 0
            else:
                assert rep.pcg_steps == rep.inverse_rebuilds == 0
            assert rep.lu_solves == 0


def one_hot_layout(layout, kernel, lam=0.2, seed=40):
    """A one-hot instance on 4 tasks whose rows are ``"grouped"`` by task
    or ``"shuffled"``, with 6 rows each, or, for ``"unequal_*"``, 7, 1, 12
    and 4 rows; 3 features, so a linear kernel has rank 3 < n. Returns the
    instance and each row's task."""
    sizes = [7, 1, 12, 4] if layout.startswith("unequal") else [6] * 4
    rng = np.random.default_rng(seed)
    tids = np.repeat(np.arange(4), sizes)
    if layout.endswith("shuffled"):
        tids = rng.permutation(tids)
    ds = dataset_from_rows(tids, rng.standard_normal(tids.size),
                           rng.standard_normal((tids.size, 3)))
    inst = ProblemInstance(gram=GramMatrix(kernel, ds.X), Y=ds.Y, W=ds.W,
                           lam=lam, penalty=PenaltySpec.schatten(1.0, 1.0),
                           delta=1e-3)
    return inst, tids


LAYOUTS = ["grouped", "shuffled", "unequal_grouped", "unequal_shuffled"]
LAYOUT_KERNELS = pytest.mark.parametrize(
    "kernel", [KernelSpec("gaussian", gamma=0.3), KernelSpec("linear")],
    ids=["gaussian", "linear_rank_deficient"])


class TestOneHotBlockedProduct:
    """The one-hot route applies K one task's rows at a time, in place
    where they are contiguous; its products must be the explicit
    system's."""

    @LAYOUT_KERNELS
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_matvec_matches_explicit_system(self, layout, kernel):
        inst, tids = one_hot_layout(layout, kernel)
        state = _SupervisedState.of(inst, "altmin")
        assert np.array_equal(state.tids, tids)
        # each task's rows once; a slice of K's rows where they are contiguous
        assert sorted(t for t, _ in state.blocks) == list(range(4))
        assert np.array_equal(
            np.sort(np.concatenate([np.arange(inst.n)[rows]
                                    for _, rows in state.blocks])),
            np.arange(inst.n))
        slices = [isinstance(rows, slice) for _, rows in state.blocks]
        assert all(slices) == layout.endswith("grouped")
        rng = np.random.default_rng(41)
        a_tilde = random_structure(rng, inst.n_tasks)
        h = (inst.gram.raw * a_tilde[np.ix_(tids, tids)]
             + np.diag(1.0 / state.wvec))
        assert rel_err(_observed_system(a_tilde, state), h) <= 1e-15
        matvec = _one_hot_matvec(a_tilde, state)
        for x in rng.standard_normal((3, inst.n)):
            assert rel_err(matvec(x), h @ x) <= 1e-12

    @LAYOUT_KERNELS
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_block_matvec_matches_column_products(self, layout, kernel):
        """The product with an n x k block, one pass over K for the
        Galerkin start's k columns, is the column-by-column products'."""
        inst, _ = one_hot_layout(layout, kernel)
        state = _SupervisedState.of(inst, "altmin")
        rng = np.random.default_rng(44)
        matvec = _one_hot_matvec(random_structure(rng, inst.n_tasks), state)
        for k in (1, RECYCLED_SOLUTIONS - 1, 3):
            block = rng.standard_normal((inst.n, k))
            columns = np.column_stack([matvec(v) for v in block.T])
            assert rel_err(matvec(block), columns) <= 1e-15, k

    @LAYOUT_KERNELS
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_kc_matches_gram_product(self, layout, kernel):
        """K @ C for C = P(alpha) Atilde from the solve's product with
        K."""
        inst, _ = one_hot_layout(layout, kernel)
        a = PsdMatrix(random_structure(np.random.default_rng(42),
                                       inst.n_tasks))
        state = _SupervisedState.of(inst, "altmin", in_fit=True)
        for _ in range(2):  # a cold and a warm solve
            c = _supervised_exact(inst, a, state)
            assert rel_err(state.kc(c), inst.gram.dot(c)) <= 1e-12
        alpha, _ = direct_one_hot_alpha(inst, a.data)
        assert rel_err(state.alpha, alpha) <= 1e-10

    @pytest.mark.parametrize("lam, rtol", [(0.1, 1e-10), (1e-10, 1e-5)],
                             ids=["pcg", "lu"])
    @pytest.mark.parametrize("unequal", [False, True],
                             ids=["equal", "unequal"])
    def test_fit_does_not_depend_on_row_order(self, unequal, lam, rtol):
        """A fit on shuffled rows, which copies each task's rows of K
        for each product, matches the fit of the same rows grouped by
        task: trajectories within ``rtol`` relative, C after un-permuting
        its rows. At lam = 1e-10 on the rank-3 linear kernel both fall back
        to LU, whose pivots depend on the row order: the first system's
        condition number is about 5e10, so the fits agree only to about
        that times the unit roundoff, 6e-6."""
        prefix = "unequal_" if unequal else ""
        inst, tids = one_hot_layout(prefix + "shuffled", KernelSpec("linear"),
                                    lam=lam)
        order = np.argsort(tids, kind="stable")
        x = inst.gram.X_train
        config = SolverConfig(max_iter=30)
        runs = [fit_gram(GramMatrix(KernelSpec("linear"), x[rows]),
                         inst.Y[rows], inst.W[rows], inst.penalty, lam,
                         config=config)
                for rows in (np.arange(inst.n), order)]
        (shuffled, rep_s), (grouped, rep_g) = runs
        assert rep_s.supervised_route == rep_g.supervised_route == "one_hot"
        assert (rep_s.lu_solves > 0) == (rep_g.lu_solves > 0) == (lam < 1e-3)
        assert_allclose(rep_s.objective_trajectory,
                        rep_g.objective_trajectory, rtol=rtol, atol=0.0)
        assert rel_err(shuffled.C[order], grouped.C) <= 10 * rtol
        assert rel_err(shuffled.A.data, grouped.A.data) <= 10 * rtol

    def test_standalone_solve_is_one_lu_solve(self, monkeypatch):
        """A cold call with no state (``refit_supervised``) keeps no
        preconditioner, so it solves the explicit system by LU and builds
        no inverse."""
        inst, _ = one_hot_layout("unequal_shuffled",
                                 KernelSpec("gaussian", gamma=0.3))
        a = PsdMatrix(random_structure(np.random.default_rng(43),
                                       inst.n_tasks))
        expected = []
        for lam in (inst.lam, 0.05):
            state = _SupervisedState.of(inst, "altmin")
            expected.append(_supervised_exact(replace(inst, lam=lam), a,
                                              state))
            assert state.rebuilds == 1 and state.lu_solves == 0

        def no_inverse(*args):
            raise AssertionError("a standalone solve built an inverse")

        monkeypatch.setattr(np.linalg, "inv", no_inverse)
        c = _supervised_exact(inst, a)
        assert rel_err(c, expected[0]) <= 1e-10
        refit = refit_supervised(ModelState(C=c, A=a, gram=inst.gram,
                                            inst=inst), 0.05)
        assert rel_err(refit.C, expected[1]) <= 1e-10


def test_masked_gaussian_fit_solves_observed_entry_system():
    """About 30% of the entries unobserved, with a gaussian kernel whose K
    is far too ill-conditioned for CG on the normal equations. The
    observed-entry system's eigenvalues are at least 1/max(w), so the fit
    completes and each C-step's alpha solves the m x m system."""
    rng = np.random.default_rng(30)
    n, n_tasks, d = 150, 15, 10
    x = rng.standard_normal((n, d))
    y = x @ rng.standard_normal((d, n_tasks))
    y += 0.5 * rng.standard_normal(y.shape)
    observed = rng.random(y.shape) >= 0.3
    ds = TaskDataset(X=x, Y=y * observed, W=observed / n,
                     task_ids=np.zeros(n, dtype=int),
                     task_sizes=observed.sum(axis=0))
    model, rep = fit(ds, KernelSpec("gaussian", gamma=1 / 20),
                     PenaltySpec.schatten(1.0, 1.0), 0.1,
                     config=SolverConfig(max_iter=100))
    assert rep.supervised_route == "cg" and rep.pcg_steps > 0
    traj = np.asarray(rep.objective_trajectory)
    assert np.all(np.isfinite(traj))
    assert np.all(np.diff(traj) <= 1e-10 * (1 + np.abs(traj[:-1])))

    inst, a = model.inst, model.A.data
    state = _SupervisedState.of(inst, "altmin")
    _supervised_exact(inst, model.A, state)
    rows, tids = np.nonzero(observed)
    a_tilde = np.linalg.inv(inst.lam * np.linalg.inv(a))
    h = (inst.gram.raw[np.ix_(rows, rows)] * a_tilde[np.ix_(tids, tids)]
         + np.diag(1.0 / ds.W[rows, tids]))
    assert rel_err(state.alpha, np.linalg.solve(h, ds.Y[rows, tids])) <= 1e-10


def rank_deficient_masked_trajectory(d, seed, lam):
    """Altmin on a linear kernel of rank d < n = 150, T = 15, about 30% of
    the entries unobserved, W = 1; returns the objective trajectory."""
    rng = np.random.default_rng(seed)
    n, n_tasks = 150, 15
    x = rng.standard_normal((n, d))
    y = x @ rng.standard_normal((d, n_tasks))
    y += 0.5 * rng.standard_normal(y.shape)
    observed = rng.random(y.shape) >= 0.3
    ds = TaskDataset(X=x, Y=y * observed, W=observed * 1.0,
                     task_ids=np.zeros(n, dtype=int),
                     task_sizes=observed.sum(axis=0))
    _, rep = fit(ds, KernelSpec("linear"), PenaltySpec.schatten(1.0, 1.0),
                 lam, config=SolverConfig(max_iter=100))
    assert rep.supervised_route == "cg"
    traj = np.asarray(rep.objective_trajectory)
    assert np.all(np.isfinite(traj))
    return traj


def assert_descends(traj):
    assert np.all(np.diff(traj) <= 1e-10 * (1 + np.abs(traj[:-1])))


@pytest.mark.parametrize("seed", [0, 13])
@pytest.mark.parametrize("lam", [1e-4, 1e-6, 1e-8, 1e-10])
def test_masked_fit_on_rank_deficient_kernel_descends_at_small_lam(lam, seed):
    """A rank-10 linear kernel: C = P(alpha) Atilde then carries components
    in K's null space of order 1/lam. They do not change KC; with K applied
    as X (X' C) and C'KC taken from X' C, they do not leak into the
    objective either, and altmin descends. (With C'KC taken from C and KC
    instead, seed 13 rises by 1.1e-10 of S at lam = 1e-8.)"""
    assert_descends(rank_deficient_masked_trajectory(10, seed, lam))


@pytest.mark.parametrize("seed", [0, 13])
@pytest.mark.parametrize("lam", [1e-6, 1e-8])
def test_masked_fit_on_wide_rank_deficient_kernel_descends(lam, seed):
    """d = 80 of n = 150: K still has a null space, and is applied through
    X as well. (Multiplied as the n x n matrix, seed 0 rises by 2.4e-7 and
    1.2 of S, and seed 13 raises CgStall at lam = 1e-8.)"""
    assert_descends(rank_deficient_masked_trajectory(80, seed, lam))


def masked_linear_instance(lam):
    """About 30% of the entries unobserved, observed W = 1, on a linear
    kernel of rank 4 < n = 36; also returns a structure."""
    rng = np.random.default_rng(31)
    x = rng.standard_normal((36, 4))
    w = (rng.random((36, 3)) < 0.7) * 1.0
    inst = ProblemInstance(gram=GramMatrix(KernelSpec("linear"), x),
                           Y=w * rng.standard_normal(w.shape), W=w, lam=lam,
                           penalty=PenaltySpec.schatten(1.0, 1.0))
    return inst, random_structure(rng, 3)


def test_masked_route_accepts_roundoff_bound_on_rank_deficient_kernel():
    """lam = 1e-8 on a rank-4 kernel: cond ~ 3e9, so roundoff in the
    operator's matvec keeps the true residual far above PCG_RTOL * ||y||.
    PCG stalls before its 2m-step limit, inside the roundoff bound, and KC
    matches a dense solve of the m x m system as closely as that solve's
    own accuracy allows."""
    inst, a = masked_linear_instance(1e-8)
    state = _SupervisedState.of(inst, "altmin")
    c = _supervised_exact(inst, PsdMatrix(a), state)
    assert state.route == "cg"
    rows, tids = np.nonzero(inst.W)
    a_tilde = np.linalg.inv(inst.lam * np.linalg.inv(a))
    h = (inst.gram.raw[np.ix_(rows, rows)] * a_tilde[np.ix_(tids, tids)]
         + np.diag(1.0 / inst.W[rows, tids]))
    y = inst.Y[rows, tids]
    assert rel_err(h @ state.alpha, y) > 1e-10  # short of PCG_RTOL
    assert state.pcg_steps < 2 * rows.size  # a stall, not the step limit
    p_alpha = np.zeros_like(inst.Y)  # P(alpha), alpha by LU
    p_alpha[rows, tids] = np.linalg.solve(h, y)
    kc_dense = inst.gram.raw @ p_alpha @ a_tilde
    cond = np.linalg.cond(h)
    assert cond > 1e9
    assert rel_err(inst.gram.raw @ c, kc_dense) <= 1e-14 * cond


@pytest.mark.parametrize("bad_target, route", [
    pytest.param(np.nan, "cg", id="nan"), pytest.param(np.inf, "cg", id="inf"),
    pytest.param(np.nan, "one_hot", id="nan-one_hot"),
    pytest.param(np.inf, "one_hot", id="inf-one_hot")])
def test_masked_route_raises_cg_stall_on_non_finite_target(bad_target, route):
    """No residual test can accept a solve whose target is not finite."""
    if route == "cg":
        inst, a = masked_linear_instance(0.1)
    else:
        inst = one_hot_instance(KernelSpec("linear"))
        a = random_structure(np.random.default_rng(5), inst.n_tasks)
    i, t = np.argwhere(inst.W)[0]
    inst.Y[i, t] *= bad_target
    state = _SupervisedState.of(inst, "altmin")
    with np.errstate(invalid="ignore"), \
            pytest.raises(CgStall, match="relative residual"):
        _supervised_exact(inst, PsdMatrix(a), state)
    assert state.route == route


def test_masked_route_reads_fro_norm_only_short_of_tolerance(monkeypatch):
    """``gram.fro_norm`` sizes the roundoff bound of a "cg" solve short of
    its tolerance, and on a Gram with no factor it reads all of K. A
    masked gaussian fit whose solves all reach the tolerance reads it
    never; the rank-4 kernel at lam = 1e-8, whose solve stalls inside the
    bound, reads it once."""
    reads = []
    original = GramMatrix.fro_norm.fget

    def counting(gram):
        reads.append(gram.n)
        return original(gram)

    monkeypatch.setattr(GramMatrix, "fro_norm", property(counting))
    rng = np.random.default_rng(32)
    w = (rng.random((40, 4)) < 0.7) * 1.0
    w[np.arange(40), np.arange(40) % 4] = 1.0
    ds = TaskDataset(X=rng.standard_normal((40, 3)),
                     Y=w * rng.standard_normal(w.shape), W=w,
                     task_ids=np.arange(40) % 4)
    _, rep = fit(ds, KernelSpec("gaussian", gamma=0.5),
                 PenaltySpec.schatten(1.0, 1.0), 0.1)
    assert rep.supervised_route == "cg" and rep.termination == "converged"
    assert rep.pcg_steps > 0 and reads == []
    inst, a = masked_linear_instance(1e-8)
    _supervised_exact(inst, PsdMatrix(a), _SupervisedState.of(inst, "altmin"))
    assert reads == [36]


@pytest.mark.parametrize("kernel", [KernelSpec("linear"),
                                    KernelSpec("gaussian", gamma=0.3)],
                         ids=["linear_factored", "gaussian"])
def test_masked_block_matvec_matches_column_products(kernel):
    """The "cg" operator takes an m x k block, as the Galerkin start
    passes it, and gives the column-by-column products."""
    inst, a = masked_linear_instance(0.1)
    inst = replace(inst, gram=GramMatrix(kernel, inst.gram.X_train))
    state = _SupervisedState.of(inst, "altmin")
    rng = np.random.default_rng(45)
    matvec = _cg_matvec(np.linalg.inv(inst.lam * np.linalg.inv(a)), state)
    for k in (1, RECYCLED_SOLUTIONS - 1, 3):
        block = rng.standard_normal((state.yvec.size, k))
        columns = np.column_stack([matvec(v) for v in block.T])
        assert rel_err(matvec(block), columns) <= 1e-15, k


def census_masked_example():
    """The masked fit of the failure census (``tools/failure_census.py``)
    at T = 2, d = 1, seed 0: 16 rows, each observing its own task and the
    other with probability 0.7 (27 observed entries, weight 1), with
    N(0, 0.1^2) noise on every observed target."""
    ds, _ = synth_generate(SyntheticSpec(d=1, n_tasks=2, n_per_task=8,
                                         relatedness=0.5), seed=(0, 2, 1))
    rng = np.random.default_rng((0, 99))
    observed = (rng.random(ds.Y.shape) < 0.7) | (ds.W > 0)
    y = (ds.Y + 0.1 * rng.standard_normal(ds.Y.shape)) * observed
    return TaskDataset(X=ds.X, Y=y, W=observed * 1.0, task_ids=ds.task_ids,
                       task_sizes=observed.sum(axis=0))


def test_masked_fit_finishes_where_pcg_stalls_beyond_roundoff():
    """A gaussian kernel (gamma 0.3) at lam = 1e-10: PCG on the 27 x 27
    system stalls at relative residual 0.94, far above the matvec's
    roundoff bound (3.7e-4), where the "cg" route used to raise CgStall.
    LU of the explicit system solves it and every later C-step, and the
    fit descends with S >= 0."""
    _, rep = fit(census_masked_example(), KernelSpec("gaussian", gamma=0.3),
                 PenaltySpec.schatten(1.0, 1.0), 1e-10,
                 config=SolverConfig(max_iter=60, delta=1e-3))
    assert rep.supervised_route == "cg" and rep.termination == "converged"
    assert rep.lu_solves > 0 and rep.inverse_rebuilds == 0
    traj = np.asarray(rep.objective_trajectory)
    assert np.all(traj >= 0.0)
    assert np.all(np.diff(traj) <= 1e-10 * np.abs(traj[:-1]))


@pytest.mark.parametrize("kernel", [KernelSpec("linear"),
                                    KernelSpec("gaussian", gamma=0.3)],
                         ids=["linear_factored", "gaussian"])
def test_masked_stall_falls_back_to_lu_of_explicit_system(kernel,
                                                          monkeypatch):
    """With PCG forced to stall, the "cg" route solves the explicit
    system by LU (from the factor on the rank-4 linear kernel, from K's
    entries on the gaussian), and so does every later solve on the same
    state, with no PCG: alpha agrees with a dense solve to the system's
    conditioning."""
    inst, a = masked_linear_instance(0.1)
    x = inst.gram.X_train
    h, y, _, _ = dense_observed_system(
        replace(inst, gram=GramMatrix(kernel, x)), a)
    inst = replace(inst, gram=GramMatrix(kernel, x))
    calls = []

    def stalled(matvec, b, *rest):
        calls.append(b.size)
        return np.zeros_like(b), float("inf")

    monkeypatch.setattr("smtl.solver._pcg", stalled)
    state = _SupervisedState.of(inst, "altmin")
    for lu_solves in (1, 2):
        _supervised_exact(inst, PsdMatrix(a), state)
        assert state.route == "cg" and state.lu_solves == lu_solves
        assert rel_err(state.alpha, np.linalg.solve(h, y)) \
            <= 1e-15 * np.linalg.cond(h)
    assert calls == [y.size]
    assert kernel.kind == "gaussian" or not inst.gram.evaluated


def test_masked_stall_over_lu_limit_raises_cg_stall():
    """A rank-1 linear kernel at lam = 1e-12, n = 65 rows and T = 64 tasks
    all observed at unequal weights: PCG stalls on m = 4160 unknowns, more
    than max(n, LU_LIMIT) = 4096, so the explicit system (139 MB) is not
    built and the solve raises CgStall with m and the limit."""
    rng = np.random.default_rng(0)
    n, n_tasks = 65, 64
    inst = ProblemInstance(
        gram=GramMatrix(KernelSpec("linear"), rng.standard_normal((n, 1))),
        Y=rng.standard_normal((n, n_tasks)),
        W=rng.uniform(0.5, 1.0, (n, n_tasks)), lam=1e-12,
        penalty=PenaltySpec.schatten(1.0, 1.0))
    assert n * n_tasks > max(n, smtl.solver.LU_LIMIT) == 4096
    state = _SupervisedState.of(inst, "altmin")
    with pytest.raises(CgStall, match=r"relative residual .* m = 4160 "
                       r"unknowns are over the LU limit max\(n, 4096\)"):
        _supervised_exact(inst, PsdMatrix(np.eye(n_tasks)), state)
    assert state.route == "cg" and state.lu_solves == 0


@pytest.mark.parametrize("route", ["spectral", "one_hot", "cg"])
def test_fit_refuses_targets_whose_weighted_squares_overflow(route):
    """Targets scaled by 1e160 have a finite ``sum(W Y^2)`` only in exact
    arithmetic. Every route refuses them as it builds the problem, naming
    the targets, before any kernel entry or solve (which used to fail on
    a non-finite K product, a NaN objective or a NaN residual)."""
    ds = make_dataset(seed=3, n_tasks=4, n_per_task=15)
    if route == "spectral":
        ds = replace(ds, W=np.ones_like(ds.W),
                     task_sizes=np.full(ds.n_tasks, ds.n))
    elif route == "cg":
        ds = masked_dataset()
    spec, penalty = KernelSpec("gaussian", gamma=0.3), PenaltySpec.schatten(1, 1)
    _, rep = fit(ds, spec, penalty, 0.1, config=SolverConfig(max_iter=2))
    assert rep.supervised_route == route
    gram = GramMatrix(spec, ds.X)
    with pytest.raises(NonFinite, match=r"targets Y overflow: .*sum\(W Y\^2\)"):
        fit_gram(gram, 1e160 * ds.Y, ds.W, penalty, 0.1)
    assert not gram.evaluated


@pytest.mark.parametrize("route", ["one_hot", "cg"])
def test_fit_refuses_targets_above_the_scale_limit(route):
    """Targets scaled by 1e150 on a linear kernel (24 rows, T = 3) have a
    finite ``sum(W Y^2)``, but the squares the solver forms at the
    solution's scale overflow: the one-hot fit used to raise
    NonFiniteObjective from PCG's inner products, and the "cg" fit's
    objective reached 3.3e307, a factor 5 from overflow. A fit refuses
    targets above 2^256 before the kernel is evaluated, naming their
    scale; the unscaled targets fit on the same route, also with an
    unobserved entry (W = 0) at 1e150, which no step reads."""
    ds = make_dataset(seed=0, n_tasks=3, n_per_task=8, d=2)
    if route == "cg":
        ds = masked_dataset(n=24, n_tasks=3)
    spec, penalty = KernelSpec("linear"), PenaltySpec.schatten(1, 1)
    y = ds.Y.copy()
    y[tuple(np.argwhere(ds.W == 0)[0])] = 1e150
    _, rep = fit(replace(ds, Y=y), spec, penalty, 0.1,
                 config=SolverConfig(max_iter=2))
    assert rep.supervised_route == route
    scale = 1e150 * np.max(np.abs(ds.Y))
    gram = GramMatrix(spec, ds.X)
    with pytest.raises(NonFinite, match=r"targets Y have scale %s .*"
                       r"limit of 2\^256" % re.escape("%.3g" % scale)):
        fit_gram(gram, 1e150 * ds.Y, ds.W, penalty, 0.1)
    assert not gram.evaluated
    assert 1e150 ** 2 * np.sum(ds.W * ds.Y ** 2) < np.inf


UNIT_ROUNDOFF = 2.0 ** -53


def dense_observed_system(inst, a):
    """The observed-entry system ``H alpha = y`` built from dense inverses
    and K's entries: ``H = K[rows, rows] * Atilde[tids, tids] + diag(1/w)``
    with ``Atilde = (lam A^{-1} + ridge I)^{-1}``. Returns ``(h, y, w,
    c_of)``, ``c_of(alpha) = P(alpha) Atilde`` the C of a solution."""
    a_tilde = np.linalg.inv(inst.lam * np.linalg.inv(a)
                            + inst.ridge * np.eye(inst.n_tasks))
    rows, tids = np.nonzero(inst.W > 0)
    w = inst.W[rows, tids]
    h = (inst.gram.raw[np.ix_(rows, rows)] * a_tilde[np.ix_(tids, tids)]
         + np.diag(1.0 / w))

    def c_of(alpha):
        c = np.zeros_like(inst.Y)
        c[rows, tids] = alpha
        return c @ a_tilde

    return h, inst.Y[rows, tids], w, c_of


def observed_entry_case(case):
    """An instance (delta 1e-3) and a structure for each observed-entry
    route: one-hot on a gaussian kernel and on a rank-4 linear kernel, and
    a masked rank-4 linear kernel, with and without a ridge."""
    if case.startswith("masked"):
        inst, a = masked_linear_instance(0.1)
    else:
        kernel = (KernelSpec("linear") if case == "one_hot_linear"
                  else KernelSpec("gaussian", gamma=0.3))
        inst = one_hot_instance(kernel)
        a = random_structure(np.random.default_rng(8), inst.n_tasks)
    ridge = 0.05 if case.endswith("ridge") else 0.0
    return replace(inst, ridge=ridge, delta=1e-3), a


@pytest.mark.parametrize("case", ["one_hot_gaussian", "one_hot_linear",
                                  "masked", "masked_ridge"])
def test_objective_gap_is_bounded_by_weighted_residual(case, monkeypatch):
    """For C = P(alpha) Atilde, the C-block objective exceeds its minimum
    by r'Wr - r'H^{-1}r <= ||r||_W^2, r = y - H alpha. Checked against
    LU at solves stopped at loose residuals, and at a fit's state, whose
    PCG tolerance on ||r|| implies ||r||_W^2 <= u ||y||_W^2 and is looser
    than PCG_RTOL * ||y||."""
    inst, a = observed_entry_case(case)
    h, y, w, c_of = dense_observed_system(inst, a)
    s_min = eval_S(inst, c_of(np.linalg.solve(h, y)), a)
    for rtol in (1e-1, 1e-2, 1e-3, 1e-4):
        state = _SupervisedState.of(inst, "altmin")
        alpha, _ = _pcg(h.__matmul__, y, [], w.__mul__,
                        rtol * np.linalg.norm(y), 10 * y.size, state)
        r = y - h @ alpha
        gap = eval_S(inst, c_of(alpha), a) - s_min
        assert 0.0 < gap <= r @ (w * r), rtol
        assert_allclose(gap, r @ (w * r) - r @ np.linalg.solve(h, r),
                        rtol=1e-6, atol=1e-14 * s_min)
    tols = []

    def recorded(matvec, b, recent, precond, tol, *rest):
        tols.append(tol)
        return _pcg(matvec, b, recent, precond, tol, *rest)

    monkeypatch.setattr("smtl.solver._pcg", recorded)
    state = _SupervisedState.of(inst, "altmin", in_fit=True)
    c = _supervised_exact(inst, PsdMatrix(a), state)
    r = y - h @ state.alpha
    assert r @ (w * r) <= UNIT_ROUNDOFF * (y @ (w * y))
    assert eval_S(inst, c, a) - s_min <= 1e-14 * s_min  # at S's roundoff
    for tol in tols:
        assert tol ** 2 * w.max() <= UNIT_ROUNDOFF * (y @ (w * y))
        assert tol > 1e-12 * np.linalg.norm(y)


def masked_dataset(seed=32, n=60, n_tasks=6):
    """Every task observed on shared gaussian inputs, about 30% of the
    entries unobserved, observed weight 1/n."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4))
    y = x @ rng.standard_normal((4, n_tasks))
    y += 0.5 * rng.standard_normal(y.shape)
    observed = rng.random(y.shape) >= 0.3
    return TaskDataset(X=x, Y=y * observed, W=observed / n,
                       task_ids=np.zeros(n, dtype=int),
                       task_sizes=observed.sum(axis=0))


@pytest.mark.parametrize("route", ["one_hot", "cg"])
def test_fit_trajectory_matches_step_by_step_loop_at_pcg_rtol(route):
    """A fit stops its C-steps at the objective's precision. Steps that
    solve to PCG_RTOL instead reach the same final objective within 1e-10
    relative. Each S after an A-step is first order in the C-step's error
    (min over A of S has a nonzero gradient in C), so single iterates
    differ more: up to 3.1e-10 relative on seeded masked and one-hot
    data of this size; every iterate is held to 1e-9."""
    ds = make_dataset(seed=3, n_tasks=4, n_per_task=15)
    if route == "cg":
        ds = masked_dataset()
    model, rep = fit(ds, KernelSpec("gaussian", gamma=0.3),
                     PenaltySpec.schatten(1.0, 1.0), 0.1,
                     config=SolverConfig(max_iter=40, epsilon=1e-14))
    assert rep.supervised_route == route and rep.pcg_steps > 0
    inst, state = model.inst, _SupervisedState.of(model.inst, "altmin")
    c = np.zeros((inst.n, inst.n_tasks))
    a = PsdMatrix(np.eye(inst.n_tasks))
    traj = [eval_S(inst, c, a)]
    for _ in range(rep.iters):
        c = supervised_step(inst, a, c, state=state)
        a = unsupervised_step(inst, c, a)
        traj.append(eval_S(inst, c, a))
    assert_allclose(traj, rep.objective_trajectory, rtol=1e-9, atol=0.0)
    assert_allclose(traj[-1], rep.objective_trajectory[-1], rtol=1e-10)


@pytest.mark.parametrize("kernel", [KernelSpec("linear"),
                                    KernelSpec("gaussian", gamma=0.3)],
                         ids=["linear", "gaussian"])
@pytest.mark.parametrize("route", ["one_hot", "cg"])
def test_fit_is_bit_identical_for_fortran_ordered_targets(route, kernel):
    """Observed entries are C-order flat positions of Y and W, whatever
    their memory order, and C is scattered into an array of its own: a fit
    of Fortran-ordered Y and W returns C, A and a trajectory bit-identical
    to a fit of C-ordered ones."""
    ds = (make_dataset(seed=3, n_tasks=4, n_per_task=15)
          if route == "one_hot" else masked_dataset())
    runs = []
    for order in "CF":
        y, w = np.asarray(ds.Y, order=order), np.asarray(ds.W, order=order)
        model, rep = fit_gram(GramMatrix(kernel, ds.X), y, w,
                              PenaltySpec.schatten(1.0, 1.0), 0.1,
                              config=SolverConfig(max_iter=20))
        assert rep.supervised_route == route
        runs.append([np.asarray(v).tobytes() for v in (
            model.C, model.A.data, rep.objective_trajectory)])
    assert runs[0] == runs[1]


def drifting_solutions(inst, count):
    """Dense systems of ``inst`` at ``count`` structures drifting as in a
    fit, each with the LU solutions at the structures before it."""
    rng = np.random.default_rng(9)
    a0 = random_structure(rng, inst.n_tasks)
    drift = random_structure(rng, inst.n_tasks)
    solved = []
    for i in range(count):
        h, y, w, _ = dense_observed_system(inst, a0 + 0.15 * i * drift)
        yield h, y, w, solved[-RECYCLED_SOLUTIONS:]
        solved.append(np.linalg.solve(h, y))


def test_pcg_stops_on_non_positive_curvature():
    """The first direction of H = diag(1, -1), b = (1, 1) has p'Hp = 0:
    PCG takes no step, the restart from the true residual does not lower
    it, and the start (zeros) comes back with its residual ||b||."""
    state = SimpleNamespace(pcg_steps=0)
    b = np.ones(2)
    x, res = _pcg(np.diag([1.0, -1.0]).__matmul__, b, [], lambda r: r,
                  1e-12, 10, state)
    assert np.array_equal(x, np.zeros(2))
    assert res == np.linalg.norm(b) and state.pcg_steps == 0


def test_backtrack_falls_back_when_no_step_is_low_enough():
    """S >= 0 under a schatten penalty, so no step reaches -1: after
    MAX_HALVINGS candidates, scales 1, 1/2, ..., the fallback comes back."""
    inst = full_weight_instance(seed=8)
    a = PsdMatrix(np.eye(3))
    c = np.random.default_rng(8).standard_normal((inst.n, 3))
    scales = []

    def step_fn(scale):
        scales.append(scale)
        return scale * c, a

    fallback = (np.zeros_like(c), a)
    assert _backtrack(inst, -1.0, fallback, step_fn) is fallback
    assert scales == [0.5 ** i for i in range(MAX_HALVINGS)]


class TestRecycledStart:
    """PCG's start: the Galerkin solution on the span of the last
    solutions, kept only if it does not raise the energy x'Hx/2 - y'x."""

    @pytest.mark.parametrize("case", ["one_hot_gaussian", "masked"])
    def test_never_raises_the_energy(self, case):
        inst, _ = observed_entry_case(case)
        kept = 0
        for h, y, _, recent in drifting_solutions(inst, 12):
            if len(recent) < 2:
                continue
            hx = h @ recent[-1]
            out = _recycled_start(h.__matmul__, y, recent, hx)
            if out is None:
                continue
            x, r = out
            kept += 1

            def energy(v):
                return 0.5 * v @ h @ v - y @ v

            assert energy(x) <= energy(recent[-1])
            assert rel_err(r, y - h @ x) <= 1e-8
        assert kept >= 8

    def test_random_spans_never_raise_the_energy(self):
        """Arbitrary spans, nearly dependent ones among them."""
        rng = np.random.default_rng(10)
        for trial in range(40):
            m = rng.standard_normal((30, 30))
            h = m @ m.T + 0.1 * np.eye(30)
            y = rng.standard_normal(30)
            d = rng.standard_normal((30, 3))
            d[:, 1] = d[:, 0] + 10.0 ** -(trial % 10) * d[:, 1]
            recent = list(d.T)
            out = _recycled_start(h.__matmul__, y, recent, h @ recent[-1])
            if out is not None:
                x = out[0]
                assert (0.5 * x @ h @ x - y @ x
                        <= 0.5 * d[:, 2] @ h @ d[:, 2] - y @ d[:, 2]), trial

    @pytest.mark.parametrize("case", ["one_hot_gaussian", "masked"])
    def test_skipped_when_the_warm_start_meets_the_tolerance(self, case,
                                                            monkeypatch):
        inst, _ = observed_entry_case(case)
        rng = np.random.default_rng(11)
        structures = [PsdMatrix(random_structure(rng, inst.n_tasks))
                      for _ in range(3)]
        calls = []

        def counted(*args):
            calls.append(1)
            return _recycled_start(*args)

        monkeypatch.setattr("smtl.solver._recycled_start", counted)
        state = _SupervisedState.of(inst, "altmin")
        for a in structures:
            _supervised_exact(inst, a, state)
        assert len(calls) == 1  # the third solve, from two solutions
        steps, recent = state.pcg_steps, list(state.recent)
        _supervised_exact(inst, structures[-1], state)
        assert len(calls) == 1 and state.pcg_steps == steps
        # a repeat solve adds nothing to recycle
        assert [v is u for v, u in zip(state.recent, recent)] == [True] * 3

    def test_repeated_or_non_finite_solutions(self):
        """A repeated solution leaves a start no worse than the latest
        solution, with its true residual: in an orthonormal basis of the
        span, Q'HQ is as well conditioned as H. A non-finite solution
        keeps the latest solution, and PCG runs from it alone."""
        inst, _ = observed_entry_case("one_hot_gaussian")
        h, y, w, (x1, x2) = list(drifting_solutions(inst, 3))[-1]
        hx = h @ x2

        def energy(v):
            return 0.5 * v @ h @ v - y @ v

        for recent in ([x1, x2], [x1, x1, x2], [x2, x2], [x1, x2, x2]):
            x, r = _recycled_start(h.__matmul__, y, recent, hx)
            assert energy(x) <= energy(x2)
            assert rel_err(r, y - h @ x) <= 1e-8
        tol = 1e-12 * np.linalg.norm(y)
        for bad in (np.nan, np.inf):
            x0 = x1.copy()
            x0[0] = bad
            with np.errstate(invalid="ignore", over="ignore"):
                assert _recycled_start(h.__matmul__, y, [x0, x2], hx) is None
                runs = []
                for recent in ([x0, x2], [x2]):
                    state = _SupervisedState.of(inst, "altmin")
                    x, res = _pcg(h.__matmul__, y, recent, w.__mul__, tol,
                                  200, state)
                    runs.append((x, res, state.pcg_steps))
            assert runs[0][2] > 0 and runs[0][1] <= tol
            assert np.array_equal(runs[0][0], runs[1][0])
            assert runs[0][1:] == runs[1][1:]


def test_per_task_weights_reduce_to_single_task_ridge():
    """fixed(I) with canonical per-task weights: each task is an
    independent sub-Gram ridge with regularization lam * n_t."""
    ds = make_dataset(seed=5, n_tasks=3, n_per_task=10)
    spec = KernelSpec("gaussian", gamma=0.4)
    lam = 0.15
    model, _ = fit(ds, spec, PenaltySpec.fixed(np.eye(3)), lam,
                   config=SolverConfig(max_iter=5, epsilon=1e-14))
    k_full = model.gram.raw
    z = k_full @ model.C  # in-sample predictions, all tasks
    for t in range(3):
        rows = np.flatnonzero(ds.task_ids == t)
        k_t = k_full[np.ix_(rows, rows)]
        y_t = ds.Y[rows, t]
        alpha = np.linalg.solve(k_t + lam * rows.size * np.eye(rows.size), y_t)
        assert_allclose(z[rows, t], k_t @ alpha, atol=1e-8)


class TestUnsupervisedStep:
    def test_altmin_uses_closed_form(self):
        inst = full_weight_instance(seed=6, delta=1e-2)
        rng = np.random.default_rng(6)
        c = rng.standard_normal((inst.n, 3)) * 0.3
        a_prev = PsdMatrix(np.eye(3))
        a = unsupervised_step(inst, c, a_prev)
        m = c.T @ inst.gram.raw @ c + inst.delta ** 2 * np.eye(3)
        expected = (inst.lam / 1.0 * m)  # p=1, mu=1: A = sqrt(lam B / mu)
        from smtl.linalg import psd_power
        expected = psd_power(PsdMatrix(0.5 * (expected + expected.T)), 0.5)
        assert_allclose(a.data, expected.data, atol=1e-10)

    def test_bcd_projected_step_stays_feasible(self):
        inst = full_weight_instance(seed=7, penalty=PenaltySpec.trace_one(),
                                    delta=1e-2)
        rng = np.random.default_rng(7)
        c = rng.standard_normal((inst.n, 3)) * 0.3
        a_prev = PsdMatrix(np.eye(3) / 3.0)
        a = unsupervised_step(inst, c, a_prev, mode="bcd", step=1e-3)
        assert abs(np.trace(a.data) - 1.0) < 1e-9
        assert a.eigenvalues[-1] > -1e-12


class TestFit:
    def test_trajectory_monotone_across_penalties_and_modes(self):
        for penalty in (PenaltySpec.schatten(1.0, 1.0),
                        PenaltySpec.schatten(2.0, 0.5),
                        PenaltySpec.trace_one(),
                        PenaltySpec.cluster(2, 1.0, 1.5, 1.0)):
            ds = make_dataset(seed=8)
            cfg = SolverConfig(mode="altmin", epsilon=1e-10, max_iter=120)
            _, rep = fit(ds, KernelSpec("linear"), penalty, 0.1, config=cfg)
            traj = np.asarray(rep.objective_trajectory)
            drops = np.diff(traj)
            assert np.all(drops <= 1e-10 * (1 + np.abs(traj[:-1]))), penalty.kind

    def test_bcd_monotone(self):
        ds = make_dataset(seed=9)
        cfg = SolverConfig(mode="bcd", epsilon=1e-8, max_iter=60,
                           step_c=1e-2, step_a=1e-2)
        _, rep = fit(ds, KernelSpec("linear"),
                     PenaltySpec.schatten(2.0, 1.0), 0.1, config=cfg)
        traj = np.asarray(rep.objective_trajectory)
        assert np.all(np.diff(traj) <= 1e-10 * (1 + np.abs(traj[:-1])))

    @pytest.mark.parametrize("seed", range(5))
    def test_bcd_indicator_fit_starts_feasible(self, seed):
        """trace_one is +inf at the identity. bcd starts from I/T, so every
        accepted step lowers a finite objective; from A = I, the guard
        accepted a singular projected step and the next C-gradient raised
        SingularA on these seeds."""
        ds, _ = synth_generate(SyntheticSpec(d=3, n_tasks=6, n_per_task=8),
                               seed=(seed, 6))
        cfg = SolverConfig(mode="bcd", max_iter=60)
        model, rep = fit(ds, KernelSpec("linear"), PenaltySpec.trace_one(),
                         1e4, config=cfg)
        traj = np.asarray(rep.objective_trajectory)
        assert np.all(np.isfinite(traj))
        assert np.all(np.diff(traj) <= 1e-10 * (1 + np.abs(traj[:-1])))
        assert model.A.eigenvalues[-1] > 0.0
        assert np.trace(model.A.data) == pytest.approx(1.0, abs=1e-8)

    def test_bcd_singular_projected_start_names_a0(self):
        """trace_one projects a0 = diag(10, 0.1) to diag(1, 0): bcd would
        start where S is +inf, so the fit refuses it before any step."""
        ds = make_dataset(seed=21, n_tasks=2)
        cfg = SolverConfig(mode="bcd", max_iter=20, a0=np.diag([10.0, 0.1]))
        with pytest.raises(NotStrictlyPd) as err:
            fit(ds, KernelSpec("linear"), PenaltySpec.trace_one(), 1.0,
                config=cfg)
        msg = str(err.value)
        assert "a0" in msg and "trace_one" in msg and "0.000e+00" in msg

    @pytest.mark.parametrize("schedule", ["fixed", "geometric"])
    @pytest.mark.parametrize("weights", ["one_hot", "uniform"])
    def test_half_step_values_interleave_monotonically(self, weights,
                                                       schedule):
        """S after each C-step, read through the callback as eval_S at the
        phase's delta, that iteration's C and the previous call's A (the
        start structure I on the first), lies between the values before
        and after its iteration. Uniform weights run in K's eigenbasis,
        one-hot ones in the original basis."""
        ds = make_dataset(seed=10)
        if weights == "uniform":
            ds = TaskDataset(
                X=ds.X, Y=np.random.default_rng(10).standard_normal(ds.Y.shape),
                W=np.full(ds.Y.shape, 1.0 / ds.n),
                task_ids=np.zeros(ds.n, dtype=int),
                task_sizes=np.full(ds.n_tasks, ds.n))
        cfg = SolverConfig(epsilon=1e-10, max_iter=40, delta=1e-1,
                           delta_schedule=schedule, delta_floor=1e-4)
        calls = []
        model, rep = fit(ds, KernelSpec("linear"),
                         PenaltySpec.schatten(1.0, 1.0), 0.2, config=cfg,
                         callback=lambda k, c, a, s: calls.append((c, a, s)))
        assert len(calls) == rep.iters
        traj = rep.objective_trajectory
        bounds = rep.phase_starts + [len(traj)]
        a_prev = PsdMatrix(np.eye(ds.n_tasks))
        merged, a_step_gains, calls = [], [], iter(calls)
        for phase, delta in enumerate(cfg.delta_values()):
            inst = model.inst.with_delta(delta)
            merged.append(traj[bounds[phase]])
            for value in traj[bounds[phase] + 1:bounds[phase + 1]]:
                c, a, called = next(calls)
                assert called == value
                half = eval_S(inst, c, a_prev)
                merged += [half, value]
                a_step_gains.append(half - value)
                a_prev = a
        assert len(merged) == len(traj) + rep.iters
        assert max(a_step_gains) > 1e-10 * traj[0]  # not the end values
        merged = np.asarray(merged)
        assert np.all(np.diff(merged) <= 1e-10 * (1 + np.abs(merged[:-1])))

    def test_identical_tasks_get_symmetric_structure(self):
        """Two copies of the same task: swapping them is a symmetry of the
        problem, so the learned A must be swap-invariant."""
        rng = np.random.default_rng(11)
        x = rng.standard_normal((10, 3))
        y1 = x @ rng.standard_normal(3)
        tids = np.repeat([0, 1], 10)
        ds = dataset_from_rows(tids, np.concatenate([y1, y1]),
                               np.vstack([x, x]))
        _, a = None, None
        model, rep = fit(ds, KernelSpec("linear"),
                         PenaltySpec.schatten(1.0, 1.0), 0.1,
                         config=SolverConfig(epsilon=1e-12, max_iter=400))
        a = model.A.data
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.max(np.abs(p @ a @ p - a)) <= 1e-6

    def test_structure_commutes_with_data_term(self):
        """Schatten minimizers share eigenvectors with C'KC + delta^2 I."""
        ds = make_dataset(seed=12)
        model, rep = fit(ds, KernelSpec("linear"),
                         PenaltySpec.schatten(1.0, 1.0), 0.1,
                         config=SolverConfig(epsilon=1e-12, max_iter=300,
                                             delta=1e-3))
        k = model.gram.raw
        b = model.C.T @ k @ model.C + model.inst.delta ** 2 * np.eye(3)
        comm = model.A.data @ b - b @ model.A.data
        assert np.max(np.abs(comm)) <= 1e-8

    def test_min_eigenvalue_stays_positive(self):
        seen = []
        ds = make_dataset(seed=13)

        def watch(i, c, a, val):
            seen.append(a.eigenvalues[-1])

        fit(ds, KernelSpec("linear"), PenaltySpec.schatten(1.0, 1.0), 0.1,
            config=SolverConfig(epsilon=1e-10, max_iter=50, delta=1e-3),
            callback=watch)
        assert seen and all(w >= 1e-12 for w in seen)

    def test_geometric_ladder_records_phases(self):
        ds = make_dataset(seed=14)
        cfg = SolverConfig(delta=1e-1, delta_schedule="geometric",
                           delta_factor=0.1, delta_floor=1e-4,
                           epsilon=1e-10, max_iter=300)
        model, rep = fit(ds, KernelSpec("linear"),
                         PenaltySpec.schatten(1.0, 1.0), 0.1, config=cfg)
        assert len(rep.phase_starts) == 4  # 1e-1 .. 1e-4
        assert model.inst.delta == pytest.approx(1e-4)
        traj = np.asarray(rep.objective_trajectory)
        assert np.all(np.diff(traj) <= 1e-10 * (1 + np.abs(traj[:-1])))

    @pytest.mark.parametrize("floor", [1e-8, 1e-10, 1e-12])
    def test_geometric_ladder_reaches_tiny_floors(self, floor):
        """delta^2 far below the roundoff in C'KC (rank <= d < T) must not
        make B or A numerically singular, on either supervised route: A's
        smallest eigenvalues are of order delta, far below the relative
        rank threshold, yet strictly positive."""
        cfg = SolverConfig(delta=0.1, delta_schedule="geometric",
                           delta_floor=floor, max_iter=20)
        for ds in tiny_floor_datasets():
            model, rep = fit(ds, KernelSpec("linear"),
                             PenaltySpec.schatten(1.0, 1.0), 0.1, config=cfg)
            assert len(rep.phase_starts) == len(cfg.delta_values())
            assert model.inst.delta == pytest.approx(floor)
            assert np.all(np.isfinite(rep.objective_trajectory))
            assert model.A.eigenvalues[-1] > 0.0

    @pytest.mark.parametrize("floor", [1e-8, 1e-10, 1e-12])
    def test_tiny_floor_trajectory_converges_monotonically(self, floor):
        """At barrier sizes far below the roundoff in C'KC, both the A-step
        and eval_S must resolve the near-null directions of C'KC; if
        either reads them from the dense matrix, the objective rises
        between iterations and the fit runs to max_iter. The gradients,
        the first-order residual, must exist at the converged iterate."""
        cfg = SolverConfig(delta=0.1, delta_schedule="geometric",
                           delta_floor=floor, max_iter=500)
        for ds in tiny_floor_datasets():
            model, rep = fit(ds, KernelSpec("linear"),
                             PenaltySpec.schatten(1.0, 1.0), 0.1, config=cfg)
            assert rep.termination == "converged"
            traj = np.asarray(rep.objective_trajectory)
            assert np.all(np.diff(traj) <= 1e-10 * (1 + np.abs(traj[:-1])))
            grads = [g(model.inst, model.C, model.A)
                     for g in (grad_S_C, grad_S_A)]
            assert all(np.all(np.isfinite(g)) for g in grads)

    @pytest.mark.parametrize("floor, bound",
                             [(1e-8, 1e-3), (1e-10, 1e-3), (1e-12, 0.1)])
    def test_structure_gradient_vanishes_at_tiny_floor(self, floor, bound):
        """The A-step is exact, so grad_S_A vanishes at the converged
        iterate, relative to the penalty's part mu p I. Formed from the
        dense C'KC, whose roundoff is divided by two eigenvalues of order
        delta, it read from 10 to 1e9 here."""
        cfg = SolverConfig(delta=0.1, delta_schedule="geometric",
                           delta_floor=floor, max_iter=500)
        for ds in tiny_floor_datasets():
            model, rep = fit(ds, KernelSpec("linear"),
                             PenaltySpec.schatten(1.0, 1.0), 0.1, config=cfg)
            assert rep.termination == "converged"
            g = grad_S_A(model.inst, model.C, model.A)
            scale = np.linalg.norm(np.eye(ds.n_tasks))  # ||mu p I||_F
            assert np.linalg.norm(g) <= bound * scale

    def test_empty_task_rejected(self):
        # dataset_from_rows refuses empty tasks up front, so build the
        # container directly with a task nobody mentions
        rng = np.random.default_rng(15)
        n = 8
        ds = TaskDataset(
            X=rng.standard_normal((n, 3)),
            Y=np.zeros((n, 3)),
            W=np.zeros((n, 3)),
            task_ids=np.repeat([0, 2], 4),
        )
        with pytest.raises(EmptyTask):
            fit(ds, KernelSpec("linear"), PenaltySpec.schatten(1.0, 1.0), 0.1)
        no_rows = TaskDataset(X=np.ones((0, 3)), Y=np.zeros((0, 3)),
                              W=np.zeros((0, 3)),
                              task_ids=np.zeros(0, dtype=int))
        with pytest.raises(EmptyTask) as err:
            fit(no_rows, KernelSpec("linear"), PenaltySpec.schatten(), 0.1)
        assert err.value.task == 0

    def test_dense_dataset_fits_with_default_task_sizes(self):
        """A dense dataset's task ids are zeros, so task 1 has no rows of
        its own and its default task_sizes entry is 0; fit also reads W,
        which observes every task."""
        rng = np.random.default_rng(16)
        x, y = rng.standard_normal((5, 3)), rng.standard_normal((5, 2))
        models = [
            fit(TaskDataset(X=x, Y=y, W=np.ones((5, 2)),
                            task_ids=np.zeros(5, int), task_sizes=sizes),
                KernelSpec("linear"), PenaltySpec.schatten(1, 1), 0.1)[0]
            for sizes in (None, np.full(2, 5))
        ]
        assert np.array_equal(models[0].C, models[1].C)
        assert np.array_equal(models[0].A.data, models[1].A.data)

    def test_dense_task_that_w_never_observes_is_rejected(self):
        # task 1 has no rows of its own, and W observes none of its entries
        rng = np.random.default_rng(17)
        w = np.ones((6, 3))
        w[:, 1] = 0.0
        ds = TaskDataset(X=rng.standard_normal((6, 2)),
                         Y=rng.standard_normal((6, 3)), W=w,
                         task_ids=np.zeros(6, int))
        with pytest.raises(EmptyTask) as err:
            fit(ds, KernelSpec("linear"), PenaltySpec.schatten(), 0.1)
        assert err.value.task == 1

    def test_initial_structure_must_be_pd(self):
        ds = make_dataset(seed=16)
        cfg = SolverConfig(a0=np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(NotStrictlyPd):
            fit(ds, KernelSpec("linear"), PenaltySpec.schatten(1.0, 1.0),
                0.1, config=cfg)

    def test_fitted_structure_is_accepted_as_a0(self):
        """A lambda path warm-starts from the last fit's A. At a tiny
        barrier floor that A has eigenvalues of order 1e-12, far below
        1e-10 times its largest yet positive, so it is a valid a0."""
        ds, _ = synth_generate(SyntheticSpec(d=1, n_tasks=4, n_per_task=10,
                                             relatedness=0.5),
                               seed=1, weighting="uniform")
        penalty = PenaltySpec.schatten(1.0, 1.0)
        cfg = SolverConfig(delta=1e-2, delta_schedule="geometric",
                           delta_floor=1e-10)
        model, _ = fit(ds, KernelSpec("linear"), penalty, 1e-4, config=cfg)
        w = model.A.eigenvalues
        assert 0.0 < w[-1] < 1e-10 * w[0]
        _, rep = fit(ds, KernelSpec("linear"), penalty, 2e-4,
                     config=SolverConfig(a0=model.A, delta=1e-10))
        assert np.all(np.isfinite(rep.objective_trajectory))

    def test_bcd_schatten_start_is_floored(self):
        """bcd projects its start for every penalty: for schatten onto
        {A >= 1e-12 I}, so an a0 with a smaller eigenvalue starts there."""
        ds = make_dataset(seed=16)
        cfg = SolverConfig(mode="bcd", max_iter=1,
                           a0=np.diag([1.0, 1.0, 1e-14]))
        model, rep = fit(ds, KernelSpec("linear"),
                         PenaltySpec.schatten(1.0, 1.0), 0.1, config=cfg)
        inst = model.inst
        start = eval_S(inst, np.zeros((inst.n, 3)),
                       PsdMatrix(np.diag([1.0, 1.0, 1e-12])))
        assert rep.objective_trajectory[0] == pytest.approx(start, rel=1e-12)
        assert model.A.eigenvalues[-1] >= 1e-12

    def test_initial_structure_must_match_task_count(self):
        ds = make_dataset(seed=16)
        cfg = SolverConfig(a0=np.eye(2))
        with pytest.raises(DimensionMismatch, match="2 x 2.*3 tasks"):
            fit(ds, KernelSpec("linear"), PenaltySpec.schatten(1.0, 1.0),
                0.1, config=cfg)

    @pytest.mark.parametrize("mode, penalty, a0, error, match", [
        pytest.param(mode, penalty, a0, error, match, id=mode + "-" + case)
        for mode in ("altmin", "bcd")
        for case, penalty, a0, error, match in [
            ("coding_rank_1",
             PenaltySpec.fixed(structure_coding(np.ones((2, 3)))), None,
             NotStrictlyPd, "fixed penalty's structure is singular"),
            ("fixed_singular", PenaltySpec.fixed(np.diag([1.0, 0.0, 1.0])),
             None, NotStrictlyPd, "fixed penalty's structure is singular"),
            ("fixed_2x2", PenaltySpec.fixed(np.eye(2)), None,
             BadPenaltyParam, "3 x 3"),
            ("a0_2x2", PenaltySpec.schatten(), np.eye(2),
             DimensionMismatch, "a0 is 2 x 2"),
            ("a0_singular", PenaltySpec.schatten(), np.diag([1.0, 1.0, 0.0]),
             NotStrictlyPd, "a0 must be strictly"),
        ]
    ] + [pytest.param("bcd", PenaltySpec.trace_one(),
                      np.diag([10.0, 0.1, 0.1]), NotStrictlyPd,
                      "projected onto the trace_one", id="bcd-projection")])
    def test_start_structure_is_checked_before_the_kernel(
            self, monkeypatch, mode, penalty, a0, error, match):
        """A start structure that no fit can use (a wrong-size or singular
        a0, a singular bcd projection, a singular fixed penalty) is refused
        with an error that names it, before the kernel is evaluated."""
        calls = []
        monkeypatch.setattr(smtl.kernels, "gram",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(error, match=match):
            fit(make_dataset(seed=16), KernelSpec("gaussian", gamma=0.5),
                penalty, 0.1, config=SolverConfig(mode=mode, a0=a0))
        assert calls == []

    @pytest.mark.parametrize("settings, entry, error, match", [
        ({"lam": 0.0}, None, ValueError, "lam must be positive"),
        ({"lam": -1.0}, None, ValueError, "lam must be positive"),
        ({"lam": np.nan}, None, ValueError, "lam must be positive"),
        ({"ridge": -1.0}, None, ValueError, "ridge and delta must be"),
        ({}, ("W", (0, 0), -1.0), ValueError, "weights must be nonnegative"),
        ({}, ("W", (0, 0), np.inf), NonFinite, "Y and W must be finite"),
        ({}, ("Y", (0, 0), np.nan), NonFinite, "Y and W must be finite"),
        ({}, ("W", Ellipsis, 0.0), ValueError, "must have a positive entry"),
        ({"config": SolverConfig(delta=1.0, delta_schedule="geometric",
                                 delta_factor=0.5, delta_floor=1e-6,
                                 max_iter=5)},
         None, ValueError, "more than max_iter=5 phases"),
    ], ids=["lam_zero", "lam_negative", "lam_nan", "ridge_negative",
            "w_negative", "w_inf", "y_nan", "w_zero", "ladder_too_long"])
    def test_problem_is_checked_before_the_kernel(
            self, monkeypatch, settings, entry, error, match):
        """lambda, ridge, Y, W (negative, non-finite, or with no observed
        entry) and the delta ladder are refused before the kernel is
        evaluated."""
        calls = []
        monkeypatch.setattr(smtl.kernels, "gram",
                            lambda *args, **kwargs: calls.append(args))
        ds = make_dataset(seed=16)
        if entry is not None:
            name, index, value = entry
            getattr(ds, name)[index] = value
        with pytest.raises(error, match=match):
            fit(ds, KernelSpec("gaussian", gamma=0.5), PenaltySpec.schatten(),
                **{"lam": 0.1, **settings})
        assert calls == []

    def test_nan_objective_raises(self, monkeypatch):
        monkeypatch.setattr(smtl.solver, "eval_S",
                            lambda *args, **kwargs: np.nan)
        with pytest.raises(NonFiniteObjective, match="NaN"):
            fit(make_dataset(seed=16), KernelSpec("linear"),
                PenaltySpec.schatten(), 0.1)

    def test_bcd_start_is_projected_once(self, monkeypatch):
        """One projection of the start, then one of the single A-step's
        gradient step."""
        calls = []
        original = smtl.solver.project_structure

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(smtl.solver, "project_structure", counting)
        fit(make_dataset(seed=16), KernelSpec("linear"),
            PenaltySpec.trace_one(), 0.1,
            config=SolverConfig(mode="bcd", max_iter=1))
        assert len(calls) == 2

    def test_kernel_time_is_gram_for_both_entry_points(self, monkeypatch):
        """The kernel evaluation a fit triggers is timed as "gram" and left
        out of "fit", whether fit builds the GramMatrix or fit_gram is
        handed a fresh one; a Gram evaluated before reports no time."""
        pause = 0.2
        original = smtl.kernels.gram

        def slow(*args, **kwargs):
            time.sleep(pause)
            return original(*args, **kwargs)

        monkeypatch.setattr(smtl.kernels, "gram", slow)
        ds = make_dataset(seed=16)
        spec = KernelSpec("gaussian", gamma=0.5)
        penalty, cfg = PenaltySpec.schatten(), SolverConfig(max_iter=5)
        gram = GramMatrix(spec, ds.X)
        for fresh, run in [
                (True, lambda: fit(ds, spec, penalty, 0.1, config=cfg)),
                (True, lambda: fit_gram(gram, ds.Y, ds.W, penalty, 0.1,
                                        config=cfg)),
                (False, lambda: fit_gram(gram, ds.Y, ds.W, penalty, 0.1,
                                         config=cfg))]:
            times = run()[1].wall_times
            assert (times["gram"] >= pause) == fresh
            assert times["fit"] < pause

    def test_cluster_weights_that_can_be_singular_are_rejected(self,
                                                                monkeypatch):
        """eps_b >= eps_m + eps_w fails before any kernel work when r < T;
        at r = T the assignment is M = I and the same weights fit."""
        ds = make_dataset(seed=16)  # T = 3
        kernel = KernelSpec("gaussian", gamma=0.5)
        evaluated = []
        monkeypatch.setattr("smtl.kernels.gram",
                            lambda *a, **k: evaluated.append(1))
        for r in (1, 2):
            with pytest.raises(BadPenaltyParam, match="eps_m=1, eps_b=2, eps_w=0.5"):
                fit(ds, kernel, PenaltySpec.cluster(r, 1.0, 2.0, 0.5), 0.1)
            with pytest.raises(BadPenaltyParam):  # the boundary
                fit(ds, kernel, PenaltySpec.cluster(r, 1.0, 1.5, 0.5), 0.1)
        assert not evaluated
        monkeypatch.undo()
        _, rep = fit(ds, kernel, PenaltySpec.cluster(3, 1.0, 2.0, 0.5),
                     0.1, config=SolverConfig(max_iter=5))
        assert np.isfinite(rep.objective_trajectory[-1])  # [0] is at A = I

    def test_wall_times_partition(self):
        ds = make_dataset(seed=17)
        _, rep = fit(ds, KernelSpec("linear"), PenaltySpec.schatten(1.0, 1.0),
                     0.1, config=SolverConfig(max_iter=20))
        wt = rep.wall_times
        for key in ("gram", "supervised", "unsupervised", "fit"):
            assert wt[key] >= 0.0
        assert wt["supervised"] + wt["unsupervised"] <= wt["fit"] + 1e-6


@pytest.mark.parametrize("dense", [False, True], ids=["one_hot", "spectral"])
def test_trajectory_matches_step_by_step_loop(dense):
    """fit_gram hands one K @ C, the state's ``kc``, to the A-step and
    eval_S; the objective trajectory must be bit-identical to steps that
    take it the same way, on the instance the fit runs. With uniform
    weights that is the instance in K's eigenbasis, whose objective is S
    less a constant offset, and ``kc`` is ``gram.dot``, so steps that each
    form their own agree bit for bit; on the one-hot route ``kc`` comes
    from the solve's product with K, and such steps agree to roundoff.
    Steps on the original instance agree to roundoff."""
    ds = tiny_floor_datasets()[int(dense)]
    cfg = SolverConfig(max_iter=12, epsilon=1e-14)
    model, rep = fit(ds, KernelSpec("linear"),
                     PenaltySpec.schatten(1.0, 1.0), 0.1, config=cfg)

    def steps(inst, state=None, offset=0.0, shared=False):
        c = np.zeros((inst.n, ds.n_tasks))
        a = PsdMatrix(np.eye(ds.n_tasks))
        traj = [eval_S(inst, c, a) + offset]
        for _ in range(rep.iters):
            c = supervised_step(inst, a, c, state=state)
            kc = state.kc(c) if shared else None
            a = unsupervised_step(inst, c, a, kc=kc)
            traj.append(eval_S(inst, c, a, kc=kc) + offset)
        return traj

    state = _SupervisedState.of(model.inst, "altmin", in_fit=True)
    if not dense:
        assert (steps(model.inst, state, shared=True)
                == rep.objective_trajectory)
        state = _SupervisedState.of(model.inst, "altmin", in_fit=True)
        assert_allclose(steps(model.inst, state), rep.objective_trajectory,
                        rtol=1e-12)
        return
    assert state.offset > 0.0  # d = 5 < n = 60: K cannot fit all of Y
    assert (steps(state.work, state, state.offset)
            == rep.objective_trajectory)
    assert_allclose(steps(model.inst), rep.objective_trajectory, rtol=1e-12)


def test_refit_supervised_matches_fresh_solve():
    ds = make_dataset(seed=18)
    model, _ = fit(ds, KernelSpec("linear"), PenaltySpec.schatten(1.0, 1.0),
                   0.3, config=SolverConfig(max_iter=50, epsilon=1e-10))
    new_model = refit_supervised(model, 0.05)
    inst = model.inst
    expected = _supervised_exact(
        ProblemInstance(gram=model.gram, Y=inst.Y, W=inst.W, lam=0.05,
                        penalty=inst.penalty, ridge=inst.ridge,
                        delta=inst.delta),
        model.A)
    assert_allclose(new_model.C, expected, atol=1e-12)
    assert new_model.A is model.A
    # Uniform weights: the fit ran in K's eigenbasis, its model keeps the
    # original instance, and the refit is the two-sided solve on K.
    for spec, d in ((KernelSpec("linear"), 3),
                    (KernelSpec("gaussian", gamma=0.4), 3)):
        rng = np.random.default_rng(19)
        x, y = rng.standard_normal((25, d)), rng.standard_normal((25, 3))
        dense = TaskDataset(X=x, Y=y, W=np.full(y.shape, 0.5),
                            task_ids=np.zeros(25, dtype=int),
                            task_sizes=np.full(3, 25))
        model, rep = fit(dense, spec, PenaltySpec.schatten(1.0, 1.0), 0.3,
                         ridge=0.1, config=SolverConfig(max_iter=20))
        assert rep.supervised_route == "spectral"
        assert model.inst.gram is model.gram and model.inst.n == 25
        new_model = refit_supervised(model, 0.05)
        ref = sylvester_ls_solve(psd_clip(model.gram.raw, tol=1e-8), model.A,
                                 0.05 / 0.5, y, ridge=0.1 / 0.5)
        assert rel_err(new_model.C, ref) <= 1e-10


@pytest.mark.parametrize("geometric", [False, True],
                         ids=["fixed", "geometric"])
@pytest.mark.parametrize("weight", [1.0, 1.0 / 30], ids=["w1", "w1_n"])
@pytest.mark.parametrize("ridge", [0.0, 0.05])
@pytest.mark.parametrize("spec, d", [
    (KernelSpec("gaussian", gamma=0.3), 4),
    (KernelSpec("linear"), 4),
    (KernelSpec("linear"), 40),
], ids=["gaussian", "linear_factored", "linear_d_ge_n"])
def test_rotated_fit_matches_reference_solve(spec, d, ridge, weight,
                                             geometric):
    """A uniform-weight fit runs in K's eigenbasis (for d < n, the thin
    SVD's, with the null-space part of C added back). Every C the callback
    sees is n x T and equals the two-sided solve on the original K at the
    previous iteration's A."""
    n, t, lam = 30, 4, 0.05
    rng = np.random.default_rng(20)
    x = rng.standard_normal((n, d))
    y = x[:, :2] @ rng.standard_normal((2, t)) + rng.standard_normal((n, t))
    ds = TaskDataset(X=x, Y=y, W=np.full(y.shape, weight),
                     task_ids=np.zeros(n, dtype=int), task_sizes=np.full(t, n))
    cfg = SolverConfig(max_iter=8, delta=0.1, delta_floor=1e-3,
                       delta_schedule="geometric" if geometric else "fixed")
    seen = []
    model, rep = fit(ds, spec, PenaltySpec.schatten(1.0, 1.0), lam,
                     ridge=ridge, config=cfg,
                     callback=lambda i, c, a, v: seen.append((c, a)))
    assert rep.supervised_route == "spectral" and len(seen) == rep.iters
    assert model.gram.factored == (spec.kind == "linear" and d < n)
    a_prev = PsdMatrix(np.eye(t))
    for c, a in seen:
        assert c.shape == (n, t)
        ref = sylvester_ls_solve(psd_clip(model.gram.raw, tol=1e-8), a_prev,
                                 lam / weight, y, ridge=ridge / weight)
        assert rel_err(c, ref) <= 1e-10
        a_prev = a
    assert np.array_equal(model.C, seen[-1][0])


@pytest.mark.parametrize("penalty", [PenaltySpec.schatten(1.0, 1.0),
                                     PenaltySpec.trace_one()],
                         ids=["schatten", "trace_one"])
@pytest.mark.parametrize("spec", [KernelSpec("gaussian", gamma=0.3),
                                  KernelSpec("linear")],
                         ids=["gaussian", "linear_factored"])
def test_bcd_step_in_eigenbasis_matches_original_basis(spec, penalty):
    """A uniform-weight bcd fit runs on the instance in K's eigenbasis. One
    guarded C-step and one A-step there, from C = U Ct, give the C (U
    times it: a gradient step keeps C in K's range), A and S (plus the
    offset) of the same steps on the original instance."""
    n, t = 30, 4
    rng = np.random.default_rng(22)
    inst = ProblemInstance(gram=GramMatrix(spec, rng.standard_normal((n, 4))),
                           Y=rng.standard_normal((n, t)),
                           W=np.full((n, t), 1.0 / n), lam=0.1,
                           penalty=penalty, ridge=0.05, delta=1e-2)
    state = _SupervisedState.of(inst, "bcd")
    assert state.route == "gradient" and state.work.n == state.u.shape[1]
    assert (state.offset > 0.0) == (spec.kind == "linear")  # r = 4 < n
    a0 = random_structure(rng, t)
    if not penalty.smooth:
        a0 /= np.trace(a0)  # feasible for trace_one
    a0 = PsdMatrix(a0)
    ct0 = rng.standard_normal((state.work.n, t))

    def steps(inst, c):
        c = supervised_step(inst, a0, c, mode="bcd", step=1e-2)
        a = unsupervised_step(inst, c, a0, mode="bcd", step=1e-2)
        return c, a, eval_S(inst, c, a)

    c_ref, a_ref, s_ref = steps(inst, state.u @ ct0)
    ct, a, s = steps(state.work, ct0)
    assert rel_err(c_ref, state.u @ ct0) > 1e-6  # both steps were taken
    assert rel_err(a_ref.data, a0.data) > 1e-6
    assert rel_err(state.u @ ct, c_ref) <= 1e-12
    assert rel_err(a.data, a_ref.data) <= 1e-12
    assert abs(s + state.offset - s_ref) <= 1e-12 * abs(s_ref)


def cluster_weight_sweep():
    """Accepted cluster weights with eps_w, eps_m or the margin eps_m +
    eps_w - eps_b at 10^-k relative to the other weights."""
    for k in (0, 4, 8, 10, 11, 12, 13, 15):
        t = 10.0 ** -k
        yield pytest.param((1.0, 1.0, t), id="eps_w_1e-%d" % k)
        yield pytest.param((t, 1.0, 1.0), id="eps_m_1e-%d" % k)
        yield pytest.param((1.0, 2.0 - t, 1.0), id="margin_1e-%d" % k)


@pytest.mark.parametrize("mode", ["altmin", "bcd"])
@pytest.mark.parametrize("eps", cluster_weight_sweep())
def test_accepted_cluster_weights_fit_finitely(mode, eps):
    """Every accepted triple keeps A^-1(M) PD, so the fit neither raises
    nor leaves S at +inf, however ill-conditioned A is: PD means w_min > 0,
    not a relative rank test."""
    ds, _ = synth_generate(SyntheticSpec(d=4, n_tasks=4, n_per_task=10,
                                         relatedness=0.5),
                           seed=3, weighting="uniform")
    _, rep = fit(ds, KernelSpec("gaussian", gamma=0.4),
                 PenaltySpec.cluster(2, *eps), 0.1,
                 config=SolverConfig(mode=mode, max_iter=30))
    assert np.all(np.isfinite(rep.objective_trajectory[1:]))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mode="newton")
    with pytest.raises(ValueError):
        SolverConfig(delta_schedule="linear")
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    for bad in ({"delta_factor": 0.0}, {"delta_factor": 1.0},
                {"delta_floor": 0.0}, {"max_iter": 0}, {"step_c": 0.0},
                {"step_a": -1e-3}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    cfg = SolverConfig(delta=1e-2, delta_schedule="geometric",
                       delta_factor=0.1, delta_floor=1e-4)
    assert_allclose(cfg.delta_values(), [1e-2, 1e-3, 1e-4])


def test_delta_ladder_is_at_most_max_iter_phases():
    """1, 1/2, ..., 2^-19 are 20 phases; fewer allowed phases raise a
    ValueError that names the four settings, before the ladder is built."""
    cfg = SolverConfig(delta=1.0, delta_schedule="geometric",
                       delta_factor=0.5, delta_floor=1e-6, max_iter=20)
    assert_allclose(cfg.delta_values(), 0.5 ** np.arange(20))
    for max_iter in (5, 19):
        with pytest.raises(ValueError, match="delta=1.0, delta_factor=0.5 "
                           "and delta_floor=1e-06 make more than max_iter"):
            replace(cfg, max_iter=max_iter).delta_values()


@pytest.mark.parametrize("bad", [
    {"epsilon": float("inf")}, {"delta": float("inf")},
    {"delta_floor": float("inf")}, {"delta_factor": float("nan")},
    {"step_c": float("inf")}, {"step_a": float("inf")},
    {"max_iter": 2.5}, {"max_iter": float("inf")}, {"max_iter": "3"},
], ids=lambda bad: "%s=%s" % next(iter(bad.items())))
def test_solver_config_rejects_non_finite_or_fractional(bad):
    """Every float setting is finite and max_iter an integer, checked where
    the config is built rather than mid-fit."""
    with pytest.raises(ValueError):
        SolverConfig(**bad)
