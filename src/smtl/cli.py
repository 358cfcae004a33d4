"""Command-line entry points: fit, predict, verify.

Exit codes: 0 success, 1 usage error, 2 unreadable or inconsistent input,
3 numerical failure during solving, 4 verification failure.
"""

import argparse
import sys

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .data import load_dataset
from .errors import (
    BadLabel,
    ConfigError,
    DimensionMismatch,
    EmptyTask,
    InconsistentDimension,
    LengthMismatch,
    ParseError,
    SmtlError,
    VersionMismatch,
    ZeroVariance,
)
from .metrics import nmse, predict
from .model_io import load_model, save_model
from .oracles import run_all
from .solver import fit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

_DATA_ERRORS = (
    ParseError, ConfigError, VersionMismatch, InconsistentDimension,
    EmptyTask, ZeroVariance, BadLabel, LengthMismatch, DimensionMismatch,
    OSError,
)


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve that
    for data problems, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _seed(text):
    """The type of ``--seed``: numpy's generators take only non-negative
    integer seeds, so anything else is a usage error."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            "expected a non-negative integer, got %r" % text)
    return int(text)


def build_parser():
    parser = _Parser(prog="smtl",
                     description="Joint learning of task predictors and "
                                 "their structure matrix.")
    parser.add_argument("--version", action="version",
                        version="smtl %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_fit = sub.add_parser("fit", help="fit a model to a long-format CSV")
    p_fit.add_argument("--data", required=True, help="training CSV")
    p_fit.add_argument("--out", required=True, help="path for the model file")
    p_fit.add_argument("--config", help="key = value settings file")
    p_fit.add_argument("--weighting", choices=("per_task", "uniform"),
                       default="per_task",
                       help="loss weighting for observed entries")

    p_pred = sub.add_parser("predict",
                            help="predict each row's own task response")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--out", required=True, help="output CSV (task,pred)")
    p_pred.add_argument("--nmse", action="store_true",
                        help="also print normalized MSE against the y column")

    p_ver = sub.add_parser("verify",
                           help="run the independent equivalence checks")
    p_ver.add_argument("--filter", default=None,
                       help="run only checks whose name contains this")
    p_ver.add_argument("--seed", type=_seed, default=0)
    return parser


def _cmd_fit(args):
    cfg = load_config(args.config) if args.config else RunConfig()
    ds = load_dataset(args.data, weighting=args.weighting)
    kernel, penalty, solver_config = cfg.build(ds.n_tasks)
    model, report = fit(ds, kernel, penalty, cfg.lam, ridge=cfg.ridge,
                        config=solver_config)
    save_model(model, args.out)
    print("fit %d rows, %d tasks: %d iterations (%s), objective %.8g"
          % (ds.n, ds.n_tasks, report.iters, report.termination,
             report.objective_trajectory[-1]))
    print("model written to %s" % args.out)
    return EXIT_OK


def _cmd_predict(args):
    model = load_model(args.model)
    ds = load_dataset(args.data)
    n_tasks = model.C.shape[1]
    if ds.n_tasks > n_tasks:
        raise DimensionMismatch("data has task %d, but the model has %d tasks"
                                % (ds.n_tasks - 1, n_tasks))
    z = predict(model, ds.X)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("task,pred\n")
        for i, t in enumerate(ds.task_ids):
            fh.write("%d,%.17g\n" % (t, z[i, t]))
    print("wrote %d predictions to %s" % (ds.n, args.out))
    if args.nmse:
        value = nmse(ds.Y, z[:, :ds.n_tasks], mask=ds.W > 0)
        print("nmse %.6f" % value)
    return EXIT_OK


def _cmd_verify(args):
    reports = run_all(name_filter=args.filter, seed=args.seed)
    if not reports:
        print("no checks match filter %r" % args.filter, file=sys.stderr)
        return EXIT_USAGE
    for report in reports:
        print(report.line())
    failed = [r for r in reports if not r.passed]
    if failed:
        print("%d of %d checks failed" % (len(failed), len(reports)),
              file=sys.stderr)
        return EXIT_VERIFY
    print("all %d checks passed" % len(reports))
    return EXIT_OK


_COMMANDS = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "verify": _cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        with np.errstate(over="raise", invalid="raise"):
            return handler(args)
    except _DATA_ERRORS as exc:
        print("smtl %s: %s" % (args.command, exc), file=sys.stderr)
        return EXIT_DATA
    except (SmtlError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print("smtl %s: numerical failure: %s" % (args.command, exc),
              file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
