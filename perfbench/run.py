"""The repository's benchmark: one workload, one seed, one result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It times smtl from the sources under
``src/``, as set out in ``BENCHMARK.json`` and ``perfbench/workloads.json``.
The workload runs in a child process with BLAS threads pinned. Before that,
more child processes each time the set-up on their own. The command prints
each metric with its unit, median, quartiles and sample count. Its last
line is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--trace 0`` gives the end-to-end metrics and ``--trace 1`` the per-layer
ones. Details go to ``.bench_out/<workload>/``. A failed operation or
check makes the exit code 1, and missing sources make it 2.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "workloads.json")) as _fh:
    SPEC = json.load(_fh)
BUDGET_S = 170  # everything this command starts ends within this


def _worker(argv, env, deadline):
    """Run worker.py to the end; returns (its JSON result, peak RSS in KiB).

    The peak RSS comes from ``wait4`` on the worker, so it covers the
    worker and every process it waited for (the smtl subprocesses).
    """
    out_path = os.path.join(argv[argv.index("--dir") + 1],
                            "worker-%s.out" % argv[0])
    with open(out_path, "w") as out:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")] + argv,
            stdout=out, env=env, start_new_session=True)
    # On timeout, kill the worker's whole process group, smtl runs included.
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                            os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited with %d" % (argv[0], proc.returncode))
    with open(out_path) as fh:
        lines = fh.read().splitlines()
    return json.loads(lines[-1]), usage.ru_maxrss


def _summary(values):
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return statistics.median(values), q1, q3, len(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "smtl", "__init__.py")):
        print("perfbench: no smtl sources under %s; run from the repository "
              "root" % src, file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    out_dir = os.path.join(root, ".bench_out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    threads = str(SPEC["threads"])
    env = dict(os.environ, OMP_NUM_THREADS=threads,
               OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", out_dir]

    setups = [_worker(["setup"] + common, env, deadline)[0]["setup_s"]
              for _ in range(SPEC["setup_reps"] - 1)]
    res, rss_kib = _worker(
        ["measure"] + common + ["--seconds", str(args.seconds),
                                "--trace", str(args.trace)], env, deadline)
    setups.append(res["setup_s"])

    samples = {"setup_s": setups, "fit_s": res["fit_s"],
               "predict_s": res["predict_s"], "test_nmse": [res["test_nmse"]],
               "peak_rss_mb": [rss_kib / 1024.0]}
    if args.trace:
        samples = {k: [v] for k, v in res["layers"].items()}
        wanted = declared["per_layer"]
    else:
        wanted = declared["end_to_end"]
    failed = len(res["failures"])

    env_info = res["environment"]
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed,
                                               args.trace))
    print("environment: " + ", ".join("%s %s" % kv for kv in env_info.items()))
    for failure in res["failures"]:
        print("FAILED: " + failure)
    metrics = {}
    for metric in wanted:
        med, q1, q3, count = _summary(samples[metric["name"]])
        # A pass whose fits all failed has no nMSE; JSON has no NaN.
        metrics[metric["name"]] = {"value": med if math.isfinite(med) else None,
                                   "unit": metric["unit"]}
        print("%-40s %14.6g %-6s median of %d (q1 %.6g, q3 %.6g)"
              % (metric["name"], med, metric["unit"], count, q1, q3))
    print("%-40s %14.6g %-6s %d of %d operations and checks"
          % ("fail_rate", failed / res["attempted"], "ratio", failed,
             res["attempted"]))

    result = {"correct": failed == 0, "attempted": res["attempted"],
              "failed": failed, "metrics": metrics}
    details = dict(result, workload=args.workload, seed=args.seed,
                   seconds=args.seconds, samples=samples,
                   failures=res["failures"], environment=env_info)
    with open(os.path.join(out_dir, "result-seed%d-trace%d.json"
                           % (args.seed, args.trace)), "w") as fh:
        json.dump(details, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
