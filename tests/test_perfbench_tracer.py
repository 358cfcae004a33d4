"""The benchmark's tracer still finds every name it wraps in smtl.

``perfbench/tracer.py`` patches names in the modules where smtl's callers
look them up. A rename in smtl would leave a patch pointing at nothing, so
every (module, attribute) pair must resolve, and a traced masked fit must
record its supervised steps on the "cg" route. The tracer keeps its own
copy of the solver's route rule, which must agree with ``smtl.solver``'s.
"""

import importlib
import importlib.util
import os
from types import SimpleNamespace

import numpy as np
import pytest

import smtl.solver
from smtl.data import TaskDataset
from smtl.kernels import KernelSpec
from smtl.penalties import PenaltySpec
from smtl.solver import SolverConfig

TRACER_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_resolves(tracer):
    for module_name, attr, *_ in tracer.PATCHES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)


def test_traced_masked_fit_records_cg_route(tracer):
    rng = np.random.default_rng(0)
    n, n_tasks = 40, 3
    x = rng.standard_normal((n, 4))
    observed = rng.random((n, n_tasks)) >= 0.3
    observed[:n_tasks, :] = True  # no empty task, >1 entry in some rows
    ds = TaskDataset(X=x, Y=rng.standard_normal((n, n_tasks)) * observed,
                     W=observed * 1.0, task_ids=np.zeros(n, dtype=int),
                     task_sizes=observed.sum(axis=0))
    fit_before = smtl.solver.fit
    with tracer.Tracer() as t:
        _, rep = smtl.solver.fit(ds, KernelSpec("linear"),
                                 PenaltySpec.schatten(1.0, 1.0), 0.1,
                                 config=SolverConfig(max_iter=1))
    assert smtl.solver.fit is fit_before  # patches undone on exit
    assert rep.iters == 1 and rep.supervised_route == "cg"
    steps = [s for s in t.spans if s["name"] == "solver.supervised_step"]
    assert [s["route"] for s in steps] == ["cg"]
    names = {s["name"] for s in t.spans}
    assert {"solver.fit", "solver.fit_gram", "objectives.eval_S"} <= names


def test_traced_cluster_fit_records_one_eig_per_a_step(tracer):
    """penalties.unsupervised_min_s.cluster times the cluster map: one span
    per A-step, each around one eigendecomposition on span[Z, 1], of size
    r + 1 = 3 for r = 2 clusters of T = 6 tasks."""
    rng = np.random.default_rng(1)
    n, n_tasks = 30, 6
    ds = TaskDataset(X=rng.standard_normal((n, 3)),
                     Y=rng.standard_normal((n, n_tasks)),
                     W=np.ones((n, n_tasks)), task_ids=np.zeros(n, dtype=int),
                     task_sizes=np.full(n_tasks, n))
    with tracer.Tracer() as t:
        _, rep = smtl.solver.fit(ds, KernelSpec("gaussian", gamma=0.5),
                                 PenaltySpec.cluster(2, 0.5, 1.0, 2.0), 0.1,
                                 config=SolverConfig(max_iter=3,
                                                     epsilon=1e-300))
    assert rep.iters == 3
    a_steps = [s for s in t.spans if s["name"] == "solver.unsupervised_step"]
    mins = [s for s in t.spans if s["name"] == "penalties.unsupervised_min"]
    assert len(a_steps) == 3
    assert [s["parent"] for s in mins] == [s["id"] for s in a_steps]
    for span in mins:
        assert span["kind"] == "cluster"
        eigs = [s for s in t.spans if s["parent"] == span["id"]]
        assert [(s["name"], s["dim"]) for s in eigs] == [("linalg.sym_eig",
                                                          3)]


def route_table():
    """(weight pattern, its altmin route) for n = 6 rows and T = 3 tasks."""
    n, t = 6, 3
    uniform = np.full((n, t), 0.5)
    one_per_row = np.zeros((n, t))
    one_per_row[np.arange(n), np.arange(n) % t] = [1.0, 2.0, 0.5] * 2
    masked = uniform * (np.arange(n * t).reshape(n, t) % 4 != 1)
    zero_row = uniform.copy()
    zero_row[2] = 0.0
    one_per_row_zero_row = one_per_row.copy()
    one_per_row_zero_row[3] = 0.0
    per_task = np.tile([1.0, 0.5, 0.25], (n, 1))
    return [("uniform", uniform, "spectral"),
            ("one_per_row", one_per_row, "one_hot"),
            ("masked", masked, "cg"),
            ("all_zero_row", zero_row, "cg"),
            ("one_per_row_and_a_zero_row", one_per_row_zero_row, "cg"),
            ("per_task_weights", per_task, "cg"),
            ("all_zero", np.zeros((n, t)), "cg")]


@pytest.mark.parametrize("mode", ["altmin", "bcd"])
def test_tracer_route_rule_matches_solver(tracer, mode):
    for name, w, altmin_route in route_table():
        route = smtl.solver._route(w, mode)
        assert route == (altmin_route if mode == "altmin" else "gradient")
        inst = SimpleNamespace(W=w)  # supervised_step's first argument
        for args, kwargs in (((inst,), {"mode": mode}),
                             ((inst, None, None, mode), {})):
            assert tracer._route(args, kwargs) == {"route": route}, name
