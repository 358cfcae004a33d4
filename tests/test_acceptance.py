"""Acceptance suite: ten end-to-end criteria, one test and one line each.

Run ``python3 -m pytest tests/test_acceptance.py -v -s`` to see the summary
lines inline; under default capture they appear for failing tests only.
Every criterion pairs a tolerance with the quantity actually observed, and
the slow ones also enforce a wall-clock budget.
"""

import time

import numpy as np
import pytest

from smtl.data import dataset_from_rows
from smtl.kernels import GramMatrix, KernelSpec
from smtl.linalg import PsdMatrix, psd_clip, sylvester_ls_solve
from smtl.metrics import nmse, normalized_improvement, predict
from smtl.objectives import eval_S, grad_S_A, grad_S_C
from smtl.oracles import (
    check_alignment,
    check_barrier_convergence,
    check_coding_equivalence,
    check_feature_space_equivalence,
    check_metric_equivalence,
    check_nuclear_variational,
    check_theorem1,
    kron_ls_solve,
    random_instance,
)
from smtl.penalties import PenaltySpec, penalty_value, unsupervised_min
from smtl.solver import (
    SolverConfig, _SupervisedState, _observed_step, fit,
    fit_gram,
)
from smtl.synth import SyntheticSpec, synth_from_weights, synth_generate


def _report(num, name, ok, detail):
    print("AC-%02d %-28s %s  (%s)" % (num, name, "PASS" if ok else "FAIL",
                                      detail))
    assert ok, "AC-%02d %s: %s" % (num, name, detail)


def test_ac01_theorem1_equivalence():
    t0 = time.perf_counter()
    rep = check_theorem1(trials=20, seed=0)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 60.0
    _report(1, "theorem1-equivalence", ok,
            "%s, %.1fs < 60s" % (rep.detail or
                                 "worst gap %.2e <= 1e-4" % rep.observed,
                                 elapsed))


def test_ac02_closed_form_beats_probes():
    t0 = time.perf_counter()
    worst_margin = np.inf
    worst_comm = 0.0
    for i in range(50):
        rng = np.random.default_rng((2, i))
        dim = 2 + i % 4
        p = float(1 + i % 3)
        lam = float(10.0 ** rng.uniform(-1.0, 0.5))
        mu = float(10.0 ** rng.uniform(-0.5, 0.5))
        g = rng.standard_normal((dim, dim))
        b = PsdMatrix(g @ g.T + 0.1 * np.eye(dim))
        spec = PenaltySpec.schatten(p, mu)

        a_star = unsupervised_min(spec, b, lam)
        best = (lam * np.trace(np.linalg.solve(a_star.data, b.data))
                + penalty_value(spec, a_star))

        gp = rng.standard_normal((10000, dim, dim))
        probes = gp @ np.swapaxes(gp, 1, 2) + 1e-3 * np.eye(dim)
        vals = lam * np.trace(np.linalg.solve(probes, b.data),
                              axis1=1, axis2=2)
        vals += mu * np.sum(np.linalg.eigvalsh(probes) ** p, axis=1)
        worst_margin = min(worst_margin, float(np.min(vals) - best))

        comm = a_star.data @ b.data - b.data @ a_star.data
        worst_comm = max(worst_comm, float(np.max(np.abs(comm))))
    elapsed = time.perf_counter() - t0
    ok = worst_margin >= -1e-8 and worst_comm <= 1e-8 and elapsed < 30.0
    _report(2, "closed-form-vs-probes", ok,
            "worst margin %.2e >= -1e-8, commutator %.2e <= 1e-8, "
            "%.1fs < 30s" % (worst_margin, worst_comm, elapsed))


def test_ac03_barrier_convergence():
    worst_gap = 0.0
    all_ok = True
    for i in range(5):
        inst = random_instance(seed=(3, i), delta=1e-3)
        rep = check_barrier_convergence(inst)
        all_ok = all_ok and rep.passed
        worst_gap = max(worst_gap, abs(rep.observed))
    _report(3, "barrier-convergence", all_ok,
            "5 instances, deltas 1e-1..1e-5 monotone, worst final gap "
            "%.2e <= 1e-3" % worst_gap)


def test_ac04_multistart_agreement():
    worst = 0.0
    for i in range(10):
        n_tasks = 2 + i % 2
        inst = random_instance(seed=(40, i), n=6, n_tasks=n_tasks, delta=1e-3)
        rng = np.random.default_rng((41, i))
        finals = []
        for _ in range(10):
            g = rng.standard_normal((n_tasks, n_tasks))
            cfg = SolverConfig(a0=g @ g.T + 0.05 * np.eye(n_tasks),
                               delta=1e-3, epsilon=1e-13, max_iter=5000)
            model, _ = fit_gram(inst.gram, inst.Y, inst.W, inst.penalty,
                                inst.lam, config=cfg)
            finals.append(eval_S(inst, model.C, model.A))
        finals = np.asarray(finals)
        spread = float((finals.max() - finals.min())
                       / max(1.0, abs(np.median(finals))))
        worst = max(worst, spread)
    _report(4, "multistart-agreement", worst <= 1e-5,
            "10 inits x 10 instances, worst relative spread %.2e <= 1e-5"
            % worst)


def _finite_diff(f, x, h=1e-5):
    g = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
    return g


def test_ac05_gradient_correctness():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng((5, seed))
        inst = random_instance(seed=(5, seed), n=5, delta=1e-2,
                               ridge=0.05 * (seed % 2))
        t = inst.n_tasks
        c = rng.standard_normal((inst.n, t)) * 0.5
        g0 = rng.standard_normal((t, t))
        a_mat = g0 @ g0.T + 0.2 * np.eye(t)

        gc = grad_S_C(inst, c, PsdMatrix(a_mat))
        fd_c = _finite_diff(lambda cc: eval_S(inst, cc, PsdMatrix(a_mat)), c)
        rel_c = np.linalg.norm(gc - fd_c) / (1 + np.linalg.norm(fd_c))

        def f_a(avec):
            m = avec.reshape(t, t)
            return eval_S(inst, c, PsdMatrix(0.5 * (m + m.T)))

        ga = grad_S_A(inst, c, PsdMatrix(a_mat))
        fd_a = _finite_diff(f_a, a_mat.ravel()).reshape(t, t)
        fd_a = 0.5 * (fd_a + fd_a.T)
        rel_a = np.linalg.norm(ga - fd_a) / (1 + np.linalg.norm(fd_a))
        worst = max(worst, rel_c, rel_a)
    _report(5, "gradient-correctness", worst < 1e-5,
            "20 points, worst relative FD error %.2e < 1e-5" % worst)


def test_ac06_solver_path_consistency():
    worst_kron = 0.0
    for n in (2, 4, 6, 8, 10, 12):
        for n_tasks in (2, 3, 4):
            for seed in (0, 1):
                rng = np.random.default_rng((6, n, n_tasks, seed))
                x = rng.standard_normal((n, 3))
                k = PsdMatrix(x @ x.T / 3.0 + 1e-3 * np.eye(n))
                g = rng.standard_normal((n_tasks, n_tasks))
                a = PsdMatrix(g @ g.T + 0.1 * np.eye(n_tasks))
                y = rng.standard_normal((n, n_tasks))
                ridge = 0.05 * seed
                c1 = sylvester_ls_solve(k, a, 0.3, y, ridge=ridge)
                c2 = kron_ls_solve(k, a, 0.3, y, ridge=ridge)
                worst_kron = max(worst_kron, float(np.max(np.abs(c1 - c2))))

    worst_cg = 0.0
    for trial in range(5):
        inst = random_instance(seed=(61, trial), n=7, n_tasks=3)
        rng = np.random.default_rng((62, trial))
        g = rng.standard_normal((3, 3))
        a = PsdMatrix(g @ g.T + 0.2 * np.eye(3))
        fast = sylvester_ls_solve(psd_clip(inst.gram.raw, tol=1e-8), a,
                                  inst.lam, inst.Y)
        state = _SupervisedState.of(inst, "altmin", route="cg")
        cg = _observed_step(inst, a, state)
        worst_cg = max(worst_cg, float(np.max(np.abs(fast - cg))))
    ok = worst_kron <= 1e-8 and worst_cg <= 1e-7
    _report(6, "solver-path-consistency", ok,
            "sylvester vs kron (n<=12, T<=4) %.2e <= 1e-8; "
            "CG full mask vs fast path %.2e <= 1e-7" % (worst_kron, worst_cg))


def test_ac07_altmin_monotonicity():
    penalties = (
        PenaltySpec.schatten(1.0, 1.0),
        PenaltySpec.schatten(2.0, 0.5),
        PenaltySpec.trace_one(),
        PenaltySpec.cluster(2, 1.0, 1.5, 1.0),
        PenaltySpec.fixed(np.eye(3)),
    )
    n_fits = 0
    violations = 0
    for weighting in ("per_task", "uniform"):
        ds, _ = synth_generate(
            SyntheticSpec(d=4, n_tasks=3, n_per_task=10, relatedness=0.5),
            seed=(7, weighting == "uniform"), weighting=weighting)
        for penalty in penalties:
            for mode in ("altmin", "bcd"):
                for schedule in ("fixed", "geometric"):
                    cfg = SolverConfig(
                        mode=mode, epsilon=1e-9, max_iter=60,
                        delta=1e-2 if schedule == "geometric" else 1e-3,
                        delta_schedule=schedule, delta_factor=0.1,
                        delta_floor=1e-4,
                        step_c=1e-2, step_a=1e-2)
                    _, rep = fit(ds, KernelSpec("gaussian", gamma=0.4),
                                 penalty, 0.1, config=cfg)
                    traj = np.asarray(rep.objective_trajectory)
                    bad = np.diff(traj) > 1e-10 * (1 + np.abs(traj[:-1]))
                    violations += int(np.sum(bad))
                    n_fits += 1
    _report(7, "altmin-monotonicity", violations == 0,
            "%d fits (5 penalties x 2 modes x 2 schedules x 2 weightings), "
            "%d violations above 1e-10 relative" % (n_fits, violations))


def test_ac08_analytic_equivalences():
    reports = [
        check_alignment(),
        check_coding_equivalence(),
        check_metric_equivalence(),
        check_nuclear_variational(),
        check_feature_space_equivalence(p=1.0),
        check_feature_space_equivalence(p=2.0),
    ]
    ok = all(r.passed for r in reports)
    worst = max(r.observed / r.tolerance for r in reports)
    _report(8, "analytic-equivalences", ok,
            "alignment/coding/metric/nuclear/feature(p=1,2) all within "
            "tolerance, worst at %.1e of budget" % worst)


def test_ac09_dimension_scaling_trend():
    t0 = time.perf_counter()
    penalty = PenaltySpec.schatten(1.0, 1.0)
    cfg = SolverConfig(epsilon=1e-6, max_iter=200, delta=1e-3)
    ratios = []
    for rep_i in range(15):
        times = {}
        for d in (5, 150):
            ds, _ = synth_generate(
                SyntheticSpec(d=d, n_tasks=20, n_per_task=30,
                              relatedness=0.5), seed=(90, d, rep_i))
            _, rep = fit(ds, KernelSpec("linear"), penalty, 0.1, config=cfg)
            times[d] = rep.wall_times["fit"]  # excludes Gram construction
        ratios.append(times[150] / times[5])
    elapsed = time.perf_counter() - t0
    median_ratio = float(np.median(ratios))
    ok = median_ratio < 2.0 and elapsed < 600.0
    _report(9, "dimension-scaling-trend", ok,
            "T=20, 30/task, linear kernel: median fit-time ratio "
            "d150/d5 = %.3f < 2.0 over 15 repeats, total %.0fs < 600s"
            % (median_ratio, elapsed))


def _cv_lambda(ds_train, folds, lam_grid, penalty, kernel, cfg):
    """Pick lambda by k-fold CV nMSE over the training rows."""
    n = ds_train.n
    scores = np.zeros(len(lam_grid))
    for f in range(folds):
        val = np.arange(n) % folds == f
        tr = ~val
        ds_tr = dataset_from_rows(ds_train.task_ids[tr],
                                  ds_train.Y[tr, ds_train.task_ids[tr]],
                                  ds_train.X[tr])
        ds_va = dataset_from_rows(ds_train.task_ids[val],
                                  ds_train.Y[val, ds_train.task_ids[val]],
                                  ds_train.X[val])
        for li, lam in enumerate(lam_grid):
            model, _ = fit(ds_tr, kernel, penalty, lam, config=cfg)
            z = predict(model, ds_va.X)
            scores[li] += nmse(ds_va.Y, z, mask=ds_va.W > 0)
    return float(lam_grid[int(np.argmin(scores))])


def test_ac10_multitask_benefit_direction():
    kernel = KernelSpec("linear")
    lam_grid = np.logspace(-4, 1, 11)
    cfg = SolverConfig(epsilon=1e-8, max_iter=150, delta=1e-3)
    noise = 2.0
    stl_scores, mtl_scores = [], []
    for seed in range(10):
        ds, w_true = synth_generate(
            SyntheticSpec(d=20, n_tasks=10, n_per_task=30, noise_sd=noise,
                          relatedness=0.8), seed=(100, seed))
        ds_test = synth_from_weights(
            w_true, 100, noise, np.random.default_rng((100, seed, 777)))
        for pen, scores in (
                (PenaltySpec.schatten(1.0, 1.0), mtl_scores),
                (PenaltySpec.fixed(np.eye(10)), stl_scores)):
            lam = _cv_lambda(ds, 3, lam_grid, pen, kernel, cfg)
            model, _ = fit(ds, kernel, pen, lam, config=cfg)
            z = predict(model, ds_test.X)
            scores.append(nmse(ds_test.Y, z, mask=ds_test.W > 0))
    med_stl = float(np.median(stl_scores))
    med_mtl = float(np.median(mtl_scores))
    ni = normalized_improvement(stl_scores, mtl_scores)
    ok = med_mtl < med_stl and ni > 0
    _report(10, "multitask-benefit-direction", ok,
            "relatedness 0.8, 10 seeds: median nMSE multi-task %.4f < "
            "single-task %.4f, normalized improvement %.4f > 0"
            % (med_mtl, med_stl, ni))
