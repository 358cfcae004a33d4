"""The benchmark's tracer still finds every name it wraps in smtl.

``perfbench/tracer.py`` patches names in the modules where smtl's callers
look them up. A rename in smtl would leave a patch pointing at nothing, so
every (module, attribute) pair must resolve, and a traced masked fit must
record its supervised steps on the "cg" route.
"""

import importlib
import importlib.util
import os

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
