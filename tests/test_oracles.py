"""The verification battery itself, at reduced sizes for test-suite speed.

The acceptance module runs every check at full strength; here each one runs
with few trials so a regression in any oracle's plumbing shows up quickly.
"""

import numpy as np
import pytest

import smtl.kernels
from smtl.errors import UnsupportedPenalty
from smtl.kernels import GramMatrix, KernelSpec
from smtl.objectives import eval_S
from smtl.oracles import (
    _REF_ROUNDS,
    _REF_SHRINK,
    OracleReport,
    _feature_factor,
    _min_over_pd2,
    _solve_small,
    brute_force_min_S,
    check_alignment,
    check_barrier_convergence,
    check_coding_equivalence,
    check_feature_space_equivalence,
    check_metric_equivalence,
    check_nuclear_variational,
    check_theorem1,
    random_instance,
    run_all,
)
from smtl.penalties import PenaltySpec


def test_report_line_format():
    rep = OracleReport(name="demo", passed=True, observed=1.5e-7,
                       expected=0.0, tolerance=1e-4, detail="")
    line = rep.line()
    assert line.startswith("PASS")
    assert "demo" in line and "1.5" in line
    rep_bad = OracleReport(name="demo", passed=False, observed=1.0,
                           expected=0.0, tolerance=1e-4, detail="boom")
    assert rep_bad.line().startswith("FAIL")
    assert "boom" in rep_bad.line()


def _bowl(centre):
    a0, b0, c0 = centre

    def eval_batch(a, b, c):
        return (a - a0) ** 2 + (b - b0) ** 2 + (c - c0) ** 2
    return eval_batch


@pytest.mark.parametrize("capped, centre", [
    (False, (2.0, 0.5, 3.0)),
    (True, (0.3, 0.1, 0.5)),
])
def test_pd2_search_finds_interior_minimizer(capped, centre):
    val, best = _min_over_pd2(_bowl(centre), _REF_ROUNDS, _REF_SHRINK,
                              capped=capped)
    assert np.max(np.abs(np.subtract(best, centre))) <= 1e-4
    assert val <= 3e-8


def test_capped_pd2_search_stays_under_the_trace_cap():
    # the bowl's centre has trace 1.6; under a + c <= 1 its minimum is at
    # a = c = 0.5, b = 0
    val, (a, b, c) = _min_over_pd2(_bowl((0.8, 0.0, 0.8)), _REF_ROUNDS,
                                   _REF_SHRINK, capped=True)
    assert a + c <= 1.0 + 1e-12
    assert np.max(np.abs(np.subtract((a, b, c), (0.5, 0.0, 0.5)))) <= 1e-4
    assert abs(val - 0.18) <= 1e-4


class TestBruteForce:
    def test_fixed_identity_matches_ridge(self):
        # with A pinned to I the problem is kernel ridge per task, at
        # lam + ridge, whose optimum we can write down; the grid search
        # must land on it
        for ridge in (0.0, 0.5):
            inst = random_instance(seed=3, delta=1e-3, ridge=ridge,
                                   penalty=PenaltySpec.fixed(np.eye(2)))
            val, c, a = brute_force_min_S(inst)
            k, lam = inst.gram.raw, inst.lam
            reg = lam + ridge
            expected_c = np.linalg.solve(k + reg * np.eye(inst.n), inst.Y)
            resid = inst.Y - k @ expected_c
            expected = (np.sum(resid ** 2)
                        + reg * np.trace(expected_c.T @ k @ expected_c)
                        + 2 * lam * inst.delta ** 2)
            assert abs(val - expected) <= 1e-6 * max(1.0, abs(expected))
            assert np.max(np.abs(c - expected_c)) <= 1e-6
            assert np.array_equal(a.data, np.eye(2))

    @pytest.mark.parametrize("ridge", [0.1, 1.0])
    def test_ridge_fit_matches_brute_force(self, ridge):
        for trial in range(5):
            inst = random_instance(seed=(8, trial), ridge=ridge, delta=1e-3)
            state, _ = _solve_small(inst, delta=1e-3)
            val, _, _ = brute_force_min_S(inst, rounds=_REF_ROUNDS,
                                          shrink=_REF_SHRINK)
            fit_val = eval_S(inst, state.C, state.A)
            assert abs(fit_val - val) <= 1e-8 * max(1.0, abs(val)), trial

    def test_does_not_read_the_solvers_decomposition(self, monkeypatch):
        """The oracles decompose K themselves: neither the eigenbasis a fit
        runs in nor the psd_clip that builds it is read."""
        def refuse(*args, **kwargs):
            raise AssertionError("an oracle read the solver's K")

        monkeypatch.setattr(smtl.kernels, "psd_clip", refuse)
        monkeypatch.setattr(GramMatrix, "eigenbasis", property(refuse))
        val, _, _ = brute_force_min_S(random_instance(seed=9), coarse=10,
                                      rounds=1)
        assert np.isfinite(val)
        x = np.random.default_rng(9).standard_normal((6, 2))
        kt = _feature_factor(GramMatrix(KernelSpec("linear"), x))
        assert kt.shape == (6, 2)

    def test_requires_two_tasks(self):
        inst = random_instance(seed=4, n_tasks=3)
        with pytest.raises(ValueError, match="two tasks"):
            brute_force_min_S(inst)

    def test_requires_uniform_weights(self):
        inst = random_instance(seed=5)
        w = inst.W.copy()
        w[0, 0] = 2.0
        inst2 = type(inst)(gram=inst.gram, Y=inst.Y, W=w, lam=inst.lam,
                           penalty=inst.penalty, delta=inst.delta)
        with pytest.raises(ValueError, match="uniform"):
            brute_force_min_S(inst2)

    def test_rejects_cluster_penalty(self):
        inst = random_instance(seed=6,
                               penalty=PenaltySpec.cluster(1, 1.0, 1.5, 1.0))
        with pytest.raises(UnsupportedPenalty):
            brute_force_min_S(inst)

    def test_beats_solver_value_never(self):
        # the solver is exact per block; the grid can only tie or lose
        from smtl.objectives import eval_S
        from smtl.solver import SolverConfig, fit_gram

        inst = random_instance(seed=7, delta=1e-2)
        val, _, _ = brute_force_min_S(inst)
        model, _ = fit_gram(inst.gram, inst.Y, inst.W, inst.penalty, inst.lam,
                            config=SolverConfig(epsilon=1e-13, max_iter=2000,
                                                delta=1e-2))
        solver_val = eval_S(inst, model.C, model.A)
        assert solver_val <= val + 1e-6 * max(1.0, abs(val))


class TestChecks:
    def test_theorem1_small(self):
        rep = check_theorem1(trials=3, seed=1)
        assert rep.passed, rep.line()

    def test_barrier_convergence_small(self):
        inst = random_instance(seed=(2, 100), delta=1e-3)
        rep = check_barrier_convergence(inst, deltas=(1e-1, 1e-2, 1e-3))
        assert rep.passed, rep.line()

    def test_alignment_small(self):
        rep = check_alignment(trials=4, seed=2)
        assert rep.passed, rep.line()

    def test_coding_small(self):
        rep = check_coding_equivalence(trials=3, seed=3)
        assert rep.passed, rep.line()

    def test_metric_small(self):
        rep = check_metric_equivalence(trials=3, seed=4)
        assert rep.passed, rep.line()

    def test_nuclear_small(self):
        rep = check_nuclear_variational(trials=3, seed=5)
        assert rep.passed, rep.line()

    def test_feature_space_small(self):
        rep = check_feature_space_equivalence(p=2.0, trials=1, seed=6)
        assert rep.passed, rep.line()


def test_run_all_filter_selects_substring():
    reports = run_all(name_filter="metric")
    assert len(reports) == 1
    assert reports[0].name == "metric_equivalence"
    assert reports[0].passed
    reports = run_all(name_filter="barrier_convergence_0")
    assert [r.name for r in reports] == ["barrier_convergence_0"]
    assert reports[0].passed


def test_run_all_unknown_filter_empty():
    assert run_all(name_filter="not_a_check") == []
