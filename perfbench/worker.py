"""One benchmark workload, run in a process of its own.

    python3 perfbench/worker.py setup   --workload NAME --seed N --dir DIR
    python3 perfbench/worker.py measure --workload NAME --seed N --dir DIR \
        --seconds S --trace 0|1

``setup`` imports smtl, builds the workload's inputs from the seed and
writes its files, timing all of it. ``measure`` does the same, runs one
untimed warm-up, then either timed passes until ``S`` seconds have gone
(``--trace 0``) or one untraced and one traced pass (``--trace 1``). Both
print one JSON object as the last line of standard output. ``run.py``
starts these processes with ``src`` on PYTHONPATH and BLAS threads pinned.

A pass runs every fit of the workload, then every prediction, and checks
the outputs. Fits and predictions that raise an ``SmtlError`` and failed
checks count as failed operations; the pass goes on.
"""

import argparse
import contextlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

from tracer import LAYERS, Tracer, duration, layer_of, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "workloads.json")) as _fh:
    SPEC = json.load(_fh)
CHILD_TIMEOUT_S = 170
# The test suite's tolerance for a non-increasing objective trajectory.
MONOTONE_TOL = 1e-10
KINDS = ("schatten", "trace_one", "cluster", "fixed")
ROUTES = ("one_hot", "spectral", "cg")

np = smtl = None  # imported inside setup(), whose time includes the import


class Inputs:
    """What a workload's passes need; built by :func:`setup`."""


class Tally:
    """Attempted and failed operations, checks included."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append("%s %s" % (what, detail))
        return ok


def setup(name, seed, out_dir):
    """Import smtl and build the workload's inputs; returns (inputs, seconds)."""
    global np, smtl
    t0 = time.perf_counter()
    import numpy
    import smtl as package
    np, smtl = numpy, package
    spec = SPEC["workloads"][name]
    inp = Inputs()
    inp.cli = spec["interface"] == "cli"
    inp.kernel = smtl.KernelSpec(**spec["kernel"])
    if inp.cli:
        _build_cli(inp, spec["data"], seed, out_dir)
    else:
        _build_library(inp, spec, seed)
    return inp, time.perf_counter() - t0


def _truth(data, seed):
    """True task weights, each column scaled to norm sqrt(d).

    With every task's signal variance equal to d, the noise share of the
    held-out nMSE is the same for every task and seed, so test_nmse moves
    with the fit's quality and not with the draw of the weights.
    """
    synth = smtl.SyntheticSpec(d=data["d"], n_tasks=data["n_tasks"],
                               relatedness=data["relatedness"])
    _, w_true = smtl.synth_generate(synth, seed=(seed, 0))
    return w_true * np.sqrt(data["d"]) / np.linalg.norm(w_true, axis=0)


def _build_cli(inp, data, seed, out_dir):
    w_true = _truth(data, seed)
    train = smtl.synth_from_weights(w_true, data["n_per_task"],
                                    data["noise_sd"],
                                    np.random.default_rng((seed, 1)))
    inp.test = smtl.synth_from_weights(
        w_true, data["n_test_per_task"], data["noise_sd"],
        np.random.default_rng((seed, 2)))
    warm, _ = smtl.synth_generate(
        smtl.SyntheticSpec(d=data["d"], n_tasks=2, n_per_task=10),
        seed=(seed, 3))
    inp.n_train, inp.n_tasks = train.n, train.n_tasks
    inp.files = {key: os.path.join(out_dir, key) for key in (
        "train.csv", "test.csv", "warm.csv", "run.cfg", "model.txt",
        "pred.csv", "fit-spans.json", "predict-spans.json")}
    smtl.save_dataset(train, inp.files["train.csv"])
    smtl.save_dataset(inp.test, inp.files["test.csv"])
    smtl.save_dataset(warm, inp.files["warm.csv"])
    with open(inp.files["run.cfg"], "w") as fh:
        fh.write("kernel.type = %s\nkernel.gamma = %r\n"
                 % (inp.kernel.kind, inp.kernel.gamma))


def _dense(w_true, n, noise_sd, rng, missing_share=0.0):
    """Every task observed on shared inputs, except a random
    ``missing_share`` of the entries (weight 0); observed weight 1/n."""
    x = rng.standard_normal((n, w_true.shape[0]))
    y = x @ w_true + noise_sd * rng.standard_normal((n, w_true.shape[1]))
    observed = rng.random(y.shape) >= missing_share
    return smtl.TaskDataset(X=x, Y=y * observed, W=observed / n,
                            task_ids=np.zeros(n, dtype=int),
                            task_sizes=observed.sum(axis=0))


def _penalty(params, n_tasks):
    params = dict(params)
    kind = params.pop("kind")
    if kind == "fixed":
        return smtl.PenaltySpec.fixed(np.eye(n_tasks))
    return getattr(smtl.PenaltySpec, kind)(**params)


def _build_library(inp, spec, seed):
    data = spec["data"]
    w_true = _truth(data, seed)
    inp.train = _dense(w_true, data["n"], data["noise_sd"],
                       np.random.default_rng((seed, 1)),
                       data.get("missing_share", 0.0))
    inp.test = _dense(w_true, data["n_test"], data["noise_sd"],
                      np.random.default_rng((seed, 2)))
    inp.n_train, inp.n_tasks = inp.train.n, inp.train.n_tasks
    inp.fits = [(_penalty(f["penalty"], inp.n_tasks), f["lam"])
                for f in spec["fits"]]
    inp.solver = spec["solver"]


# -- passes -----------------------------------------------------------------

def _library_pass(inp, tally, tracer=None, max_iter=None):
    out = {"fit_s": 0.0, "predict_s": 0.0, "nmse": []}
    settings = dict(inp.solver)
    if max_iter:
        settings["max_iter"] = max_iter
    config = smtl.SolverConfig(**settings)
    with tracer if tracer is not None else contextlib.nullcontext():
        for penalty, lam in inp.fits:
            what = "%s fit lam=%g" % (penalty.kind, lam)
            t0 = time.perf_counter()
            try:
                model, report = smtl.solver.fit(inp.train, inp.kernel, penalty,
                                                lam, config=config)
            except smtl.errors.SmtlError as exc:
                tally.record(what, False, repr(exc))
                continue
            finally:
                out["fit_s"] += time.perf_counter() - t0
            tally.record(what, True)
            t0 = time.perf_counter()
            try:
                value = smtl.metrics.nmse(
                    inp.test.Y, smtl.metrics.predict(model, inp.test.X))
            except smtl.errors.SmtlError as exc:
                tally.record(what + " predict", False, repr(exc))
                continue
            finally:
                out["predict_s"] += time.perf_counter() - t0
            tally.record(what + " predict", True)
            _check_fit(tally, what, model, report, value, penalty)
            out["nmse"].append(value)
    return out


def _check_fit(tally, what, model, report, value, penalty):
    traj = np.asarray(report.objective_trajectory)
    # The fit starts from A = I, which lies outside the feasible set of an
    # indicator penalty (trace_one, cluster, fixed other than I); the
    # objective there is +inf by definition. Every iterate must be finite.
    start_ok = np.isfinite(traj[0]) or (not penalty.smooth
                                        and traj[0] == np.inf)
    tally.record(what + ": objective trajectory finite",
                 bool(start_ok and np.all(np.isfinite(traj[1:]))),
                 "start %r, %d non-finite iterates"
                 % (traj[0], np.sum(~np.isfinite(traj[1:]))))
    rises = np.diff(traj) > MONOTONE_TOL * (1.0 + np.abs(traj[:-1]))
    tally.record(what + ": objective trajectory non-increasing",
                 not rises.any(), "rises at %s" % np.flatnonzero(rises)[:5])
    _check_model(tally, what, model, value)


def _check_model(tally, what, model, value):
    tally.record(what + ": learned A strictly PD",
                 bool(model.A.eigenvalues[-1] > 0),
                 "smallest eigenvalue %r" % model.A.eigenvalues[-1])
    tally.record(what + ": test nMSE finite", bool(np.isfinite(value)),
                 repr(value))


def _smtl(argv, spans_path=None):
    """Run the command line; returns (completed process, start, end)."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "smtl"] + argv
    else:
        cmd = [sys.executable, os.path.join(HERE, "tracecli.py"),
               spans_path] + argv
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return proc, start, time.perf_counter()


def _cli_step(inp, tally, tracer, command, argv):
    spans_path = inp.files[command + "-spans.json"] if tracer else None
    proc, start, end = _smtl([command] + argv, spans_path)
    if tracer is not None:
        children = []
        if proc.returncode == 0:
            with open(spans_path) as fh:
                children = json.load(fh)
        span = tracer.add("cli.process", start, end, children)
        tracer.spans[span]["command"] = command
    ok = tally.record("smtl %s exit code 0" % command, proc.returncode == 0,
                      "got %d: %s" % (proc.returncode, proc.stderr.strip()))
    return ok, proc.stdout, end - start


def _cli_pass(inp, tally, tracer=None, warm_up=False):
    f = inp.files
    train = f["warm.csv"] if warm_up else f["train.csv"]
    test = f["warm.csv"] if warm_up else f["test.csv"]
    out = {"fit_s": 0.0, "predict_s": 0.0, "nmse": []}
    ok, _, out["fit_s"] = _cli_step(
        inp, tally, tracer, "fit",
        ["--data", train, "--out", f["model.txt"], "--config", f["run.cfg"]])
    if not ok:
        return out
    ok, stdout, out["predict_s"] = _cli_step(
        inp, tally, tracer, "predict",
        ["--model", f["model.txt"], "--data", test, "--out", f["pred.csv"],
         "--nmse"])
    if not ok or warm_up:
        return out
    # In-process reference on the same model file, outside any timing.
    model = smtl.load_model(f["model.txt"])
    ds = inp.test
    value = smtl.nmse(ds.Y, smtl.predict(model, ds.X), mask=ds.W > 0)
    with open(f["pred.csv"]) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    if tally.record("pred.csv has one row per input row", len(rows) == ds.n,
                    "%d rows for %d inputs" % (len(rows), ds.n)):
        z = np.zeros_like(ds.Y)
        z[np.arange(ds.n), ds.task_ids] = [float(r[1]) for r in rows]
        from_csv = smtl.nmse(ds.Y, z, mask=ds.W > 0)
        tally.record("nMSE of pred.csv equals in-process nMSE to 1e-12",
                     abs(from_csv - value) <= 1e-12,
                     "%r vs %r" % (from_csv, value))
    printed = re.search(r"^nmse (\S+)$", stdout, re.MULTILINE)
    # The command line prints six decimals, so that is all it can match.
    tally.record("printed nMSE equals in-process nMSE to its 6 decimals",
                 printed is not None and abs(float(printed.group(1)) - value)
                 <= 5e-7, "%r vs %r" % (printed and printed.group(1), value))
    _check_model(tally, "cli fit", model, value)
    out["nmse"].append(value)
    return out


def run_pass(inp, tally, tracer=None):
    if inp.cli:
        return _cli_pass(inp, tally, tracer)
    return _library_pass(inp, tally, tracer)


def warm_up(inp, tally):
    """One untimed fit and prediction, so first-call costs are not timed."""
    if inp.cli:
        _cli_pass(inp, tally, warm_up=True)
    else:
        _library_pass(inp, tally, max_iter=1)


# -- traced run -----------------------------------------------------------

def layer_metrics(spans, inp, untraced, traced):
    """Per-layer metrics of one traced pass."""
    def pick(name, **attrs):
        return [s for s in spans if s["name"] == name
                and all(s.get(k) == v for k, v in attrs.items())]

    def total(name, **attrs):
        return sum(duration(s) for s in pick(name, **attrs))

    fits = pick("solver.fit_gram")
    iters = sum(s["iters"] for s in fits)
    load_s = total("data.load_dataset")
    n, t = inp.n_train, inp.n_tasks
    m = {
        "data.load_s": load_s,
        "data.rows_per_s": (sum(s["rows"] for s in pick("data.load_dataset"))
                            / load_s if load_s else 0.0),
        "kernels.gram_s": total("kernels.gram"),
        "kernels.cross_gram_s": total("kernels.cross_gram"),
        "linalg.eig_n.count": len(pick("linalg.sym_eig", dim=n)),
        "linalg.eig_n_s": total("linalg.sym_eig", dim=n),
        "linalg.eig_T.count": len(pick("linalg.sym_eig", dim=t)),
        "linalg.eig_T_s": total("linalg.sym_eig", dim=t),
        "linalg.sylvester_s": total("linalg.sylvester_ls_solve"),
        "solver.iters": iters,
        "solver.converged_share": (statistics.fmean(
            s["converged"] for s in fits) if fits else 0.0),
        "solver.iter_s": total("solver.fit_gram") / iters if iters else 0.0,
        "solver.final_objective": (statistics.fmean(
            s["objective"] for s in fits) if fits else 0.0),
        "solver.unsupervised_s": total("solver.unsupervised_step"),
        "objectives.eval_S_s": total("objectives.eval_S"),
        "objectives.eval_S.count": len(pick("objectives.eval_S")),
        "metrics.predict_s": total("metrics.predict"),
        "metrics.nmse_s": total("metrics.nmse"),
        "model_io.save_s": total("model_io.save_model"),
        "model_io.load_s": total("model_io.load_model"),
        "model_io.bytes": sum(s["bytes"] for s in pick("model_io.save_model")),
        "trace.overhead": traced["fit_s"] / untraced["fit_s"],
    }
    for route in ROUTES:
        m["solver.supervised.%s_s" % route] = total(
            "solver.supervised_step", route=route)
    for kind in KINDS:
        mins = pick("penalties.unsupervised_min", kind=kind)
        m["penalties.unsupervised_min_s." + kind] = sum(map(duration, mins))
        m["penalties.unsupervised_min.count." + kind] = len(mins)

    own = self_times(spans)
    for layer in LAYERS:
        m["trace.self_s." + layer] = sum(
            own[s["id"]] for s in spans if layer_of(s) == layer)
    return m


def cli_startup_s(reps=3):
    times = []
    for _ in range(reps):
        proc, start, end = _smtl(["--version"])
        if proc.returncode != 0:
            raise RuntimeError("smtl --version failed: " + proc.stderr)
        times.append(end - start)
    return statistics.median(times)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "threads": SPEC["threads"],
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version"))}


def measure(args):
    inp, setup_s = setup(args.workload, args.seed, args.dir)
    tally = Tally()
    warm_up(inp, tally)
    out = {"setup_s": setup_s, "environment": environment()}
    if args.trace:
        untraced = run_pass(inp, tally)
        tracer = Tracer()
        traced = run_pass(inp, tally, tracer)
        out["layers"] = layer_metrics(tracer.spans, inp, untraced, traced)
        out["layers"]["cli.startup_s"] = cli_startup_s()
        spans_path = os.path.join(args.dir, "spans-seed%d.json" % args.seed)
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
        passes = [traced]
    else:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(inp, tally))
    out["fit_s"] = [p["fit_s"] for p in passes]
    out["predict_s"] = [p["predict_s"] for p in passes]
    nmses = [v for p in passes for v in p["nmse"]]
    out["test_nmse"] = statistics.fmean(nmses) if nmses else float("nan")
    out["attempted"], out["failures"] = tally.attempted, tally.failures
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.phase == "setup":
        out = {"setup_s": setup(args.workload, args.seed, args.dir)[1]}
    else:
        out = measure(args)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
